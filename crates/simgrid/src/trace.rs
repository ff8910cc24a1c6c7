//! Simulated-time tracing: per-job, per-place, per-phase span records.
//!
//! The paper argues with *breakdowns* — Figures 6 and 7 attribute running
//! time to map, shuffle, sort and reduce phases, and the headline claims
//! ("iteration 2 performs no disk reads", "0% remote shuffle moves zero
//! bytes") are per-phase, per-place statements. This module turns the cost
//! model into an inspectable instrument: a [`Trace`] records [`Span`]s
//! `{job, phase, place, task, sim-time start/end, charge totals}` in
//! **simulated** seconds, with rollups ([`Rollup`]), a Chrome trace-event
//! exporter ([`Trace::chrome_json`]) and a per-job text report
//! ([`Trace::report`]).
//!
//! # Span model
//!
//! Engines and storage layers wrap units of work in [`span`] guards. While
//! a span is open on a thread, every priced charge funnelled through
//! [`crate::Node::charge`] is attributed to the *innermost* open span on
//! that thread (exclusive attribution: a `Sort` span nested inside a
//! `Reduce` span absorbs the sort charges; the reduce span keeps only its
//! own). Span start/end times are read from the metered node's clock, so a
//! span's duration is exactly the simulated seconds the cost model billed
//! between entry and exit — never wall-clock time, which would differ from
//! run to run and between serial and parallel execution.
//!
//! Tasks run against *scratch* nodes whose clocks start at zero (see
//! [`crate::Cluster::scratch_node`] and [`crate::pool::run_wave`]): spans
//! closed under a scratch meter are buffered on that scratch node as
//! wave-relative [`RelSpan`]s, which [`crate::pool::traced_wave`] drains
//! ([`crate::Node::take_spans`]) and rebases onto the place's absolute
//! clock with [`Trace::record_rebased`]. The buffer belongs to the node
//! that produced it, not to a thread: whichever thread ran the task, the
//! spans are where the wave looks for them, and spans nobody drained die
//! with the node instead of waiting for the next job.
//!
//! # Determinism rules
//!
//! * Recording never touches clocks or [`crate::Metrics`]: simulated
//!   seconds, outputs, counters and `MetricsSnapshot`s are bit-identical
//!   with tracing on or off, serial or parallel.
//! * All span times derive from per-clock charge sequences that are
//!   themselves deterministic, so span *contents* are bit-identical across
//!   runs; only the order of arrival differs when place threads record
//!   concurrently. [`Trace::spans`] therefore returns the log in a
//!   canonical order (job, place, start, end, phase, task, label).
//! * Disabled (the default), the recorder is zero-allocation: one relaxed
//!   atomic load per charge, and span guards run their closure directly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cost::Charge;
use crate::meter::current_meter;

/// The phase of a job a span belongs to. Phases are the rows of the
/// paper's breakdowns; `Io` and `Cache` carry storage-layer detail spans
/// that nest inside task phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Job submission overhead (the fixed cost Figure 6 calls out).
    Submit,
    /// Driver-side setup: split computation, distributed-cache loads.
    Setup,
    /// Map task execution.
    Map,
    /// Moving map output to reducers: serialization, fetch, ingest.
    Shuffle,
    /// Place/node-level shared combining of map output before shuffle
    /// serialization (absorb + drain of the combine tables).
    Combine,
    /// Sorting: sort-buffer runs, spills, merges, reduce-side sorts.
    Sort,
    /// Reduce task execution.
    Reduce,
    /// Filesystem reads/writes (nested inside task spans).
    Io,
    /// Key-value cache lookups: hits, misses, puts.
    Cache,
    /// Cluster-wide synchronization and heartbeat rounds.
    Barrier,
}

impl Phase {
    /// Stable lowercase name, used as the Chrome trace `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Submit => "submit",
            Phase::Setup => "setup",
            Phase::Map => "map",
            Phase::Shuffle => "shuffle",
            Phase::Combine => "combine",
            Phase::Sort => "sort",
            Phase::Reduce => "reduce",
            Phase::Io => "io",
            Phase::Cache => "cache",
            Phase::Barrier => "barrier",
        }
    }

    /// Every phase, in report order.
    pub const ALL: [Phase; 10] = [
        Phase::Submit,
        Phase::Setup,
        Phase::Map,
        Phase::Shuffle,
        Phase::Combine,
        Phase::Sort,
        Phase::Reduce,
        Phase::Io,
        Phase::Cache,
        Phase::Barrier,
    ];
}

/// Per-span charge totals: what the cost model billed while the span was
/// the innermost one open on its thread (exclusive attribution).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChargeTotals {
    /// Simulated seconds billed (sum of priced charge durations).
    pub busy_seconds: f64,
    /// Bytes read from simulated local disks.
    pub disk_bytes_read: u64,
    /// Bytes written to simulated local disks.
    pub disk_bytes_written: u64,
    /// Bytes moved across the simulated network.
    pub net_bytes: u64,
    /// Bytes serialized.
    pub ser_bytes: u64,
    /// Bytes deserialized.
    pub deser_bytes: u64,
    /// Bytes deep-cloned.
    pub clone_bytes: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Records comparison-sorted.
    pub records_sorted: u64,
    /// Task attempts started.
    pub task_startups: u64,
    /// Heartbeat rounds.
    pub heartbeats: u64,
    /// Job submissions.
    pub job_submits: u64,
}

impl ChargeTotals {
    fn add(&mut self, charge: Charge, dt: f64) {
        self.busy_seconds += dt;
        match charge {
            Charge::DiskRead { bytes } => self.disk_bytes_read += bytes,
            Charge::DiskWrite { bytes } => self.disk_bytes_written += bytes,
            Charge::NetTransfer { bytes } => self.net_bytes += bytes,
            Charge::Serialize { bytes } => self.ser_bytes += bytes,
            Charge::Deserialize { bytes } => self.deser_bytes += bytes,
            Charge::Clone { bytes } => self.clone_bytes += bytes,
            Charge::Alloc { objects } => self.allocs += objects,
            Charge::Sort { records } => self.records_sorted += records,
            Charge::TaskStartup => self.task_startups += 1,
            Charge::Heartbeat => self.heartbeats += 1,
            Charge::JobSubmit => self.job_submits += 1,
            Charge::Barrier => {}
            Charge::Compute { .. } => {}
        }
    }

    /// Counter-wise sum of `self` and `other`.
    pub fn merge(&mut self, other: &ChargeTotals) {
        self.busy_seconds += other.busy_seconds;
        self.disk_bytes_read += other.disk_bytes_read;
        self.disk_bytes_written += other.disk_bytes_written;
        self.net_bytes += other.net_bytes;
        self.ser_bytes += other.ser_bytes;
        self.deser_bytes += other.deser_bytes;
        self.clone_bytes += other.clone_bytes;
        self.allocs += other.allocs;
        self.records_sorted += other.records_sorted;
        self.task_startups += other.task_startups;
        self.heartbeats += other.heartbeats;
        self.job_submits += other.job_submits;
    }
}

/// One traced unit of work, in absolute simulated seconds on its place's
/// clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Job id from [`Trace::begin_job`].
    pub job: u64,
    /// Which phase of the job this work belongs to.
    pub phase: Phase,
    /// The place (node) the work ran on.
    pub place: usize,
    /// Task / partition index, when the work is per-task.
    pub task: Option<u64>,
    /// A short static operation label ("map", "dfs_read", "cache_hit", …).
    pub label: &'static str,
    /// Simulated start time, seconds.
    pub start: f64,
    /// Simulated end time, seconds.
    pub end: f64,
    /// Charges billed while this span was innermost (exclusive).
    pub charges: ChargeTotals,
}

impl Span {
    fn sort_key(&self) -> (u64, usize, u64, u64, Phase, Option<u64>, &'static str) {
        // Times are non-negative, so the IEEE-754 bit pattern orders like
        // the value and keeps the comparison total (no NaN surprises).
        (
            self.job,
            self.place,
            self.start.to_bits(),
            self.end.to_bits(),
            self.phase,
            self.task,
            self.label,
        )
    }
}

/// A span timed on the clock of the node it closed on, not yet attributed
/// to a job and place: on a scratch node's zero-based clock it waits to be
/// rebased onto its place's absolute clock.
#[derive(Clone, Debug)]
pub struct RelSpan {
    /// Phase of the work.
    pub phase: Phase,
    /// Task / partition index.
    pub task: Option<u64>,
    /// Operation label.
    pub label: &'static str,
    /// Start offset on the scratch clock, seconds.
    pub start: f64,
    /// End offset on the scratch clock, seconds.
    pub end: f64,
    /// Exclusive charge totals.
    pub charges: ChargeTotals,
}

impl RelSpan {
    /// The span of `job` at `place` this is, `base` seconds into the
    /// place's clock.
    pub(crate) fn rebased(self, job: u64, place: usize, base: f64) -> Span {
        Span {
            job,
            phase: self.phase,
            place,
            task: self.task,
            label: self.label,
            start: base + self.start,
            end: base + self.end,
            charges: self.charges,
        }
    }
}

#[derive(Debug, Default)]
struct Log {
    jobs: Vec<String>,
    spans: Vec<Span>,
}

#[derive(Debug, Default)]
struct TraceInner {
    enabled: AtomicBool,
    current_job: AtomicU64,
    log: Mutex<Log>,
}

/// A shared, thread-safe recorder of simulated-time spans. `Clone` is
/// shallow: every [`crate::Node`] of a cluster holds a handle to the same
/// recorder. Disabled (the default) it costs one relaxed atomic load per
/// charge and allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    inner: Arc<TraceInner>,
    /// When set, this handle is *pinned* to one job: spans recorded through
    /// it always carry this id, regardless of the shared `current_job`
    /// register. Job-lane clusters hold pinned handles so concurrent jobs
    /// attribute their spans correctly (see `Cluster::job_lane`).
    pin: Option<u64>,
}

thread_local! {
    /// Accumulator stack mirroring the span nesting on this thread.
    static ACTIVE: RefCell<Vec<ChargeTotals>> = const { RefCell::new(Vec::new()) };
}

impl Trace {
    /// A fresh, disabled recorder.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Turn recording on.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording off. The log is kept; use [`Trace::clear`] to drop it.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Register a job and make it current; subsequent spans carry the
    /// returned id. Returns 0 without recording anything when disabled.
    /// On a pinned handle (see [`Trace::for_job`]) the pin is returned
    /// without registering a new name — the job was already registered by
    /// whoever pinned the handle. `name` is only stringified when it is
    /// recorded, so callers pass `format_args!` and pay nothing when
    /// tracing is off.
    pub fn begin_job(&self, name: impl std::fmt::Display) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        if let Some(pin) = self.pin {
            return pin;
        }
        let mut log = self.inner.log.lock();
        let id = log.jobs.len() as u64;
        log.jobs.push(name.to_string());
        self.inner.current_job.store(id, Ordering::Relaxed);
        id
    }

    /// Register a job name and return its id WITHOUT making it current.
    /// The multi-tenant job server registers every submission in admission
    /// order (keeping ids deterministic) and pins lane handles to the ids.
    /// Returns 0 without recording anything (or stringifying `name`) when
    /// disabled.
    pub fn register_job(&self, name: impl std::fmt::Display) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let mut log = self.inner.log.lock();
        let id = log.jobs.len() as u64;
        log.jobs.push(name.to_string());
        id
    }

    /// A handle pinned to `job`: spans recorded through it (and through any
    /// clone of it) always carry that id.
    pub fn for_job(&self, job: u64) -> Trace {
        Trace {
            inner: Arc::clone(&self.inner),
            pin: Some(job),
        }
    }

    /// The id spans recorded through this handle will carry: the pin when
    /// set, otherwise the most recently begun job.
    pub fn current_job(&self) -> u64 {
        self.pin
            .unwrap_or_else(|| self.inner.current_job.load(Ordering::Relaxed))
    }

    /// Names of all jobs begun so far, indexed by job id.
    pub fn job_names(&self) -> Vec<String> {
        self.inner.log.lock().jobs.clone()
    }

    /// Append one absolute-time span to the log.
    pub fn record(&self, span: Span) {
        if !self.is_enabled() {
            return;
        }
        self.inner.log.lock().spans.push(span);
    }

    /// Rebase scratch-clock spans onto `place`'s absolute clock (adding
    /// `base`, the place's clock reading when the wave began) and log them
    /// under `job`.
    pub fn record_rebased(&self, job: u64, place: usize, base: f64, rel: Vec<RelSpan>) {
        if rel.is_empty() || !self.is_enabled() {
            return;
        }
        let mut log = self.inner.log.lock();
        log.spans
            .extend(rel.into_iter().map(|r| r.rebased(job, place, base)));
    }

    /// Attribute one priced charge to the innermost open span on this
    /// thread. Called by [`crate::Node::charge`]; a no-op when disabled or
    /// when no span is open.
    #[inline]
    pub(crate) fn note_charge(&self, charge: Charge, dt: f64) {
        if !self.is_enabled() {
            return;
        }
        ACTIVE.with(|a| {
            if let Some(top) = a.borrow_mut().last_mut() {
                top.add(charge, dt);
            }
        });
    }

    /// The recorded spans, in canonical deterministic order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.inner.log.lock().spans.clone();
        spans.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        spans
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.log.lock().spans.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded jobs and spans (enablement is unchanged).
    pub fn clear(&self) {
        let mut log = self.inner.log.lock();
        log.jobs.clear();
        log.spans.clear();
        self.inner.current_job.store(0, Ordering::Relaxed);
    }

    /// Per-(job, place, phase) rollup of the current log.
    pub fn rollup(&self) -> Rollup {
        Rollup::from_spans(&self.spans())
    }

    /// The log as Chrome trace-event JSON (load in `chrome://tracing` or
    /// <https://ui.perfetto.dev>): one lane (`tid`) per place, one complete
    /// `"X"` event per span, timestamps in simulated microseconds.
    pub fn chrome_json(&self) -> String {
        chrome_json(&self.spans(), &self.job_names())
    }

    /// Like [`Trace::chrome_json`], with `extra` pre-rendered trace events
    /// appended — the hook the multi-tenant job server uses to merge its
    /// wall-clock flight-recorder tracks (pid 1: one track per dispatch
    /// lane, per-client submit tracks, ticket flow events) into the same
    /// file as the simulated-time place tracks (pid 0).
    pub fn chrome_json_with(&self, extra: &[String]) -> String {
        chrome_json_with(&self.spans(), &self.job_names(), extra)
    }

    /// Human-readable per-job report (Hadoop-job-history style): one
    /// phase-by-phase table per job plus per-place busy totals.
    pub fn report(&self) -> String {
        render_report(&self.spans(), &self.job_names())
    }
}

/// Run `f` inside a span of `phase` attributed to the node metered on this
/// thread. With no meter installed, or with that node's trace disabled,
/// `f` runs bare — generators and functional tests stay ceremony-free.
///
/// Under a scratch meter the completed span is buffered on the scratch
/// node (drained by [`crate::Node::take_spans`]); under a real node it is
/// logged directly with absolute times.
pub fn span<R>(phase: Phase, label: &'static str, task: Option<u64>, f: impl FnOnce() -> R) -> R {
    let Some(meter) = current_meter() else {
        return f();
    };
    let node = meter.node().clone();
    if !node.trace().is_enabled() {
        return f();
    }

    let start = node.clock().now();
    ACTIVE.with(|a| a.borrow_mut().push(ChargeTotals::default()));

    // Close the span even on unwind so outer spans don't inherit a stuck
    // accumulator (mirrors the meter stack's panic discipline).
    struct Close {
        node: crate::cluster::Node,
        phase: Phase,
        label: &'static str,
        task: Option<u64>,
        start: f64,
    }
    impl Drop for Close {
        fn drop(&mut self) {
            let charges = ACTIVE
                .with(|a| a.borrow_mut().pop())
                .unwrap_or_default();
            self.node.record_span(RelSpan {
                phase: self.phase,
                task: self.task,
                label: self.label,
                start: self.start,
                end: self.node.clock().now(),
                charges,
            });
        }
    }
    let _close = Close {
        node,
        phase,
        label,
        task,
        start,
    };
    f()
}

/// Record an instant (zero-duration) span at the metered node's current
/// simulated time — cache hits/misses and other point events. No-op when
/// unmetered or disabled.
pub fn mark(phase: Phase, label: &'static str, task: Option<u64>) {
    let Some(meter) = current_meter() else {
        return;
    };
    let node = meter.node();
    if !node.trace().is_enabled() {
        return;
    }
    let now = node.clock().now();
    node.record_span(RelSpan {
        phase,
        task,
        label,
        start: now,
        end: now,
        charges: ChargeTotals::default(),
    });
}

/// One row of a [`Rollup`]: the spans of one (job, place, phase) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RollupRow {
    /// Number of spans in the cell.
    pub count: u64,
    /// Sum of span durations (inclusive of nested spans from *other*
    /// phases, e.g. a map task's `Io` time also elapses inside its `Map`
    /// span — compare with `charges.busy_seconds`, which is exclusive).
    pub span_seconds: f64,
    /// Exclusive charge totals (no double counting across nesting).
    pub charges: ChargeTotals,
}

/// Dimensional rollups of a span log: per-place × per-phase tables keyed
/// by job, the trace-level analogue of a `MetricsSnapshot` diff.
#[derive(Clone, Debug, Default)]
pub struct Rollup {
    rows: BTreeMap<(u64, usize, Phase), RollupRow>,
}

impl Rollup {
    /// Build a rollup from a span log.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut rows: BTreeMap<(u64, usize, Phase), RollupRow> = BTreeMap::new();
        for s in spans {
            let row = rows.entry((s.job, s.place, s.phase)).or_default();
            row.count += 1;
            row.span_seconds += s.end - s.start;
            row.charges.merge(&s.charges);
        }
        Rollup { rows }
    }

    /// Iterate all (job, place, phase) cells in key order.
    pub fn rows(&self) -> impl Iterator<Item = (&(u64, usize, Phase), &RollupRow)> {
        self.rows.iter()
    }

    /// All job ids present.
    pub fn jobs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.rows.keys().map(|k| k.0).collect();
        v.dedup();
        v
    }

    /// All places with spans for `job`.
    pub fn places(&self, job: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .rows
            .keys()
            .filter(|k| k.0 == job)
            .map(|k| k.1)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Summed row for one phase of `job` across all places.
    pub fn phase_row(&self, job: u64, phase: Phase) -> RollupRow {
        let mut total = RollupRow::default();
        for ((j, _, ph), row) in &self.rows {
            if *j == job && *ph == phase {
                total.count += row.count;
                total.span_seconds += row.span_seconds;
                total.charges.merge(&row.charges);
            }
        }
        total
    }

    /// Exclusive charge totals for one phase of `job` across all places.
    pub fn phase_totals(&self, job: u64, phase: Phase) -> ChargeTotals {
        self.phase_row(job, phase).charges
    }

    /// Exclusive charge totals for `job` across all places and phases —
    /// safe to sum because attribution is exclusive.
    pub fn job_totals(&self, job: u64) -> ChargeTotals {
        let mut total = ChargeTotals::default();
        for ((j, _, _), row) in &self.rows {
            if *j == job {
                total.merge(&row.charges);
            }
        }
        total
    }

    /// Exclusive busy seconds for one place of `job` across all phases.
    pub fn place_busy_seconds(&self, job: u64, place: usize) -> f64 {
        self.rows
            .iter()
            .filter(|((j, p, _), _)| *j == job && *p == place)
            .map(|(_, row)| row.charges.busy_seconds)
            .sum()
    }
}

/// Escape `s` for inclusion inside a JSON string literal (no surrounding
/// quotes added). Shared by the Chrome exporter and the bench reporters so
/// the workspace needs no JSON dependency.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn micros(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

/// Render a span log as Chrome trace-event JSON. Simulated seconds map to
/// trace microseconds; each place gets its own lane via `tid`, named by a
/// `thread_name` metadata event.
pub fn chrome_json(spans: &[Span], job_names: &[String]) -> String {
    chrome_json_with(spans, job_names, &[])
}

/// [`chrome_json`] with `extra` pre-rendered event objects (each a complete
/// JSON object, no trailing comma) appended after the span events. Callers
/// that add wall-clock tracks should use a distinct `pid` so viewers show
/// them as a separate process from the simulated-time place lanes (pid 0).
pub fn chrome_json_with(spans: &[Span], job_names: &[String], extra: &[String]) -> String {
    let mut places: Vec<usize> = spans.iter().map(|s| s.place).collect();
    places.sort_unstable();
    places.dedup();

    let mut events: Vec<String> = Vec::with_capacity(spans.len() + places.len() + extra.len() + 1);
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"simulated cluster\"}}"
            .to_string(),
    );
    for p in &places {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
             \"args\":{{\"name\":\"place {p}\"}}}}"
        ));
        events.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
             \"args\":{{\"sort_index\":{p}}}}}"
        ));
    }

    for s in spans {
        let job_name = job_names
            .get(s.job as usize)
            .map(String::as_str)
            .unwrap_or("?");
        let mut args = format!("\"job\":\"{}\"", json_escape(job_name));
        if let Some(t) = s.task {
            args.push_str(&format!(",\"task\":{t}"));
        }
        let c = &s.charges;
        args.push_str(&format!(",\"busy_s\":{:.9}", c.busy_seconds));
        for (key, v) in [
            ("disk_read", c.disk_bytes_read),
            ("disk_write", c.disk_bytes_written),
            ("net", c.net_bytes),
            ("ser", c.ser_bytes),
            ("deser", c.deser_bytes),
            ("clone", c.clone_bytes),
            ("allocs", c.allocs),
            ("sorted", c.records_sorted),
        ] {
            if v != 0 {
                args.push_str(&format!(",\"{key}\":{v}"));
            }
        }
        events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
             \"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}",
            name = json_escape(s.label),
            cat = s.phase.as_str(),
            ts = micros(s.start),
            dur = micros(s.end - s.start),
            tid = s.place,
        ));
    }

    events.extend(extra.iter().cloned());

    let mut out = String::from("[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// Render a human-readable per-job report from a span log.
pub fn render_report(spans: &[Span], job_names: &[String]) -> String {
    let rollup = Rollup::from_spans(spans);
    let mut out = String::new();
    for job in rollup.jobs() {
        let name = job_names
            .get(job as usize)
            .map(String::as_str)
            .unwrap_or("?");
        out.push_str(&format!("== job {job}: {name} ==\n"));
        out.push_str(&format!(
            "{:<9} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}\n",
            "phase", "spans", "busy_s", "disk_rd_B", "disk_wr_B", "net_B", "ser_B", "deser_B",
            "sorted"
        ));
        for phase in Phase::ALL {
            let row = rollup.phase_row(job, phase);
            if row.count == 0 {
                continue;
            }
            let c = row.charges;
            out.push_str(&format!(
                "{:<9} {:>6} {:>12.6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}\n",
                phase.as_str(),
                row.count,
                c.busy_seconds,
                c.disk_bytes_read,
                c.disk_bytes_written,
                c.net_bytes,
                c.ser_bytes,
                c.deser_bytes,
                c.records_sorted,
            ));
        }
        let places = rollup.places(job);
        if !places.is_empty() {
            out.push_str("per-place busy_s:");
            for p in places {
                out.push_str(&format!(" p{p}={:.6}", rollup.place_busy_seconds(job, p)));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::cost::CostModel;
    use crate::meter::{with_meter, Meter};

    #[test]
    fn disabled_records_nothing() {
        let c = Cluster::new(2, CostModel::default());
        assert!(!c.trace().is_enabled());
        with_meter(Meter::new(c.node(0).clone()), || {
            span(Phase::Map, "map", Some(0), || {
                crate::meter::charge(Charge::DiskRead { bytes: 1 << 20 });
            });
            mark(Phase::Cache, "cache_hit", None);
        });
        assert!(c.trace().is_empty());
        assert_eq!(c.trace().begin_job("j"), 0);
        assert!(c.trace().job_names().is_empty());
    }

    #[test]
    fn unmetered_span_runs_bare() {
        let out = span(Phase::Io, "dfs_read", None, || 7);
        assert_eq!(out, 7);
    }

    #[test]
    fn nested_spans_attribute_exclusively() {
        let c = Cluster::new(1, CostModel::default());
        c.trace().enable();
        let job = c.trace().begin_job("wordcount");
        with_meter(Meter::new(c.node(0).clone()), || {
            span(Phase::Reduce, "reduce", Some(3), || {
                crate::meter::charge(Charge::Deserialize { bytes: 100 });
                span(Phase::Sort, "sort", Some(3), || {
                    crate::meter::charge(Charge::Sort { records: 42 });
                });
                crate::meter::charge(Charge::Serialize { bytes: 50 });
            });
        });
        let spans = c.trace().spans();
        assert_eq!(spans.len(), 2);
        let sort = spans.iter().find(|s| s.phase == Phase::Sort).unwrap();
        let reduce = spans.iter().find(|s| s.phase == Phase::Reduce).unwrap();
        assert_eq!(sort.charges.records_sorted, 42);
        assert_eq!(reduce.charges.records_sorted, 0, "exclusive attribution");
        assert_eq!(reduce.charges.deser_bytes, 100);
        assert_eq!(reduce.charges.ser_bytes, 50);
        assert_eq!(reduce.job, job);
        assert_eq!(reduce.place, 0);
        // The sort span nests inside the reduce span on the clock.
        assert!(reduce.start <= sort.start && sort.end <= reduce.end);
        // Durations equal the billed seconds (no other clock movement).
        let rollup = c.trace().rollup();
        assert_eq!(rollup.job_totals(job).records_sorted, 42);
        assert_eq!(rollup.phase_totals(job, Phase::Sort).records_sorted, 42);
    }

    #[test]
    fn scratch_spans_buffer_and_rebase() {
        let c = Cluster::new(2, CostModel::default());
        c.trace().enable();
        let job = c.trace().begin_job("waved");
        c.node(1).clock().advance(5.0);
        let base = c.node(1).clock().now();
        let scratch = c.scratch_node(1);
        with_meter(Meter::new(scratch.clone()), || {
            span(Phase::Map, "map", Some(7), || {
                crate::meter::charge(Charge::DiskRead { bytes: 80_000_000 });
            });
        });
        assert!(c.trace().is_empty(), "scratch spans are buffered, not logged");
        assert!(c.node(1).take_spans().is_empty(), "real nodes buffer nothing");
        let pending = scratch.take_spans();
        assert_eq!(pending.len(), 1);
        assert!(scratch.take_spans().is_empty(), "draining empties the node");
        assert_eq!(pending[0].start, 0.0);
        c.trace().record_rebased(job, 1, base, pending);
        let spans = c.trace().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].place, 1);
        assert_eq!(spans[0].start, 5.0);
        assert!(spans[0].end > 5.0);
        assert_eq!(spans[0].charges.disk_bytes_read, 80_000_000);
    }

    #[test]
    fn tracing_does_not_perturb_time_or_metrics() {
        let run = |enable: bool| {
            let c = Cluster::new(1, CostModel::default());
            if enable {
                c.trace().enable();
                c.trace().begin_job("j");
            }
            with_meter(Meter::new(c.node(0).clone()), || {
                span(Phase::Map, "map", None, || {
                    crate::meter::charge(Charge::DiskRead { bytes: 12345 });
                    crate::meter::charge(Charge::TaskStartup);
                });
            });
            (c.node(0).clock().now().to_bits(), c.metrics().snapshot())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn barrier_records_per_place_spans() {
        let c = Cluster::new(3, CostModel::default());
        c.trace().enable();
        c.node(2).clock().advance(10.0);
        let t = c.barrier();
        let spans = c.trace().spans();
        let barriers: Vec<_> = spans.iter().filter(|s| s.phase == Phase::Barrier).collect();
        assert_eq!(barriers.len(), 3, "one barrier span per place");
        for s in &barriers {
            assert_eq!(s.end.to_bits(), t.to_bits());
        }
        assert_eq!(barriers[0].start, 0.0);
        let lagging = barriers.iter().find(|s| s.place == 2).unwrap();
        assert_eq!(lagging.start, 10.0);
    }

    #[test]
    fn chrome_json_is_schema_sane() {
        let c = Cluster::new(2, CostModel::default());
        c.trace().enable();
        c.trace().begin_job("quoted \"name\"\n");
        with_meter(Meter::new(c.node(1).clone()), || {
            span(Phase::Shuffle, "serialize", Some(1), || {
                crate::meter::charge(Charge::Serialize { bytes: 9 });
            });
        });
        let json = c.trace().chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"shuffle\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("quoted \\\"name\\\"\\n"), "job name escaped");
        assert!(!json.contains('\u{0}'));
    }

    #[test]
    fn report_renders_phase_rows() {
        let c = Cluster::new(1, CostModel::default());
        c.trace().enable();
        c.trace().begin_job("microbench-iter0");
        with_meter(Meter::new(c.node(0).clone()), || {
            span(Phase::Map, "map", Some(0), || {
                crate::meter::charge(Charge::DiskRead { bytes: 1000 });
            });
            span(Phase::Reduce, "reduce", Some(0), || {
                crate::meter::charge(Charge::Sort { records: 5 });
            });
        });
        let report = c.trace().report();
        assert!(report.contains("microbench-iter0"));
        assert!(report.contains("map"));
        assert!(report.contains("reduce"));
        assert!(report.contains("per-place busy_s: p0="));
    }

    #[test]
    fn pinned_handles_attribute_to_their_job() {
        let c = Cluster::new(1, CostModel::default());
        c.trace().enable();
        let a = c.trace().register_job("job-a");
        let b = c.trace().register_job("job-b");
        assert_eq!(c.trace().job_names(), vec!["job-a", "job-b"]);
        // register_job does not move the current-job register...
        assert_eq!(c.trace().current_job(), 0);
        // ...but a pinned handle always reports (and begins as) its pin.
        let pinned = c.trace().for_job(b);
        assert_eq!(pinned.current_job(), b);
        assert_eq!(pinned.begin_job("ignored"), b, "begin_job returns the pin");
        assert_eq!(
            pinned.job_names().len(),
            2,
            "begin_job on a pinned handle registers nothing"
        );
        // Spans recorded via a lane (whose nodes hold pinned handles) carry
        // the pinned id even while another job is 'current'.
        let lane = c.job_lane(b);
        c.trace().begin_job("job-c"); // moves the shared register
        with_meter(Meter::new(lane.node(0).clone()), || {
            span(Phase::Map, "map", None, || {
                crate::meter::charge(Charge::DiskRead { bytes: 100 });
            });
        });
        let spans = c.trace().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].job, b);
        let _ = a;
    }

    #[test]
    fn span_closes_on_panic() {
        let c = Cluster::new(1, CostModel::default());
        c.trace().enable();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_meter(Meter::new(c.node(0).clone()), || {
                span(Phase::Map, "map", None, || panic!("boom"));
            })
        }));
        assert!(result.is_err());
        ACTIVE.with(|a| assert!(a.borrow().is_empty(), "accumulator leaked"));
        assert_eq!(c.trace().len(), 1, "span still recorded on unwind");
    }
}
