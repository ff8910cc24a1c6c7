//! Per-place memory accounting: the substrate of the `m3r-mem` governance
//! subsystem.
//!
//! The paper is explicit that M3R "trades resources (memory) for
//! performance" and requires the job family's working set to fit in main
//! memory (§2, §7). To study what happens when it does not, every
//! [`crate::Cluster`] carries a [`MemAccountant`]: a shared tally of the
//! live bytes each place holds in the three long-lived stores the engines
//! maintain — the kv-store cache ([`MemClass::Cache`]), in-flight shuffle
//! stream payloads ([`MemClass::Shuffle`]) and buffer-pool free lists
//! ([`MemClass::Pool`]).
//!
//! Like [`crate::trace`], the accountant sits on hot paths but must be
//! simulation-invisible by default: with an infinite budget (the default),
//! `grow`/`shrink` are a handful of relaxed atomics, charge nothing, and
//! change no behaviour — equivalence tests in higher crates assert
//! bit-identical simulated seconds, counters and traces with the accountant
//! on and off. A *finite* budget is what higher layers (the governed
//! `KvCache` in `m3r-core`) consult to decide when to evict and spill;
//! the accountant itself never evicts, it only counts.
//!
//! Stats (high watermarks, eviction/spill/reload totals, cache hit rate)
//! live here and nowhere else: the trace text report
//! ([`MemAccountant::report_section`]), the telemetry export
//! ([`MemAccountant::publish_telemetry`]) and the benches all read these
//! per-place tallies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::Metrics;

/// Which long-lived store owns the bytes being accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemClass {
    /// Kv-store cache entries (the `/cache` tree of resident sequences).
    Cache,
    /// Serialized shuffle stream payloads parked between map and reduce.
    Shuffle,
    /// Buffer-pool free-list capacity (warm but dead bytes).
    Pool,
    /// Place/node-level combine tables absorbing map output before the
    /// shuffle streams serialize it (transient within a map phase).
    Combine,
    /// Cross-job memoization entries (the `m3r-memo` reuse index): retained
    /// output partition sets and shuffle-stable map outputs keyed by job
    /// fingerprint. Budget-live like the cache — reuse must never blow the
    /// memory budget — but evicted by *dropping* (recomputation is the
    /// reload path), never by spilling.
    Memo,
}

impl MemClass {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            MemClass::Cache => 0,
            MemClass::Shuffle => 1,
            MemClass::Pool => 2,
            MemClass::Combine => 3,
            MemClass::Memo => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            MemClass::Cache => "cache",
            MemClass::Shuffle => "shuffle",
            MemClass::Pool => "pool",
            MemClass::Combine => "combine",
            MemClass::Memo => "memo",
        }
    }

    fn all() -> [MemClass; Self::COUNT] {
        [
            MemClass::Cache,
            MemClass::Shuffle,
            MemClass::Pool,
            MemClass::Combine,
            MemClass::Memo,
        ]
    }
}

/// What a governed cache does when a place exceeds its budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OomMode {
    /// Evict entries to SimDfs and reload them lazily: graceful
    /// degradation toward Hadoop-like disk behaviour (the default).
    #[default]
    Spill,
    /// Error out instead of spilling — the paper's "the job family must
    /// fit in memory" contract, reproduced literally.
    FailFast,
}

/// Per-place byte tallies and lifetime stats.
#[derive(Debug, Default)]
struct PlaceMem {
    /// Live bytes per [`MemClass`].
    classes: [AtomicU64; MemClass::COUNT],
    /// Highest total live bytes ever observed at this place.
    high_watermark: AtomicU64,
    /// Highest [`MemClass::Combine`] bytes ever observed at this place —
    /// the peak footprint of place-level combine tables.
    combine_high_watermark: AtomicU64,
    /// Cache entries evicted at this place.
    evictions: AtomicU64,
    /// Bytes spilled to the DFS by evictions at this place.
    spill_bytes: AtomicU64,
    /// Bytes reloaded from the DFS by lazy cache faults at this place.
    reload_bytes: AtomicU64,
}

impl PlaceMem {
    /// Live bytes across every class: each one counts toward the budget.
    fn live(&self) -> u64 {
        self.classes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Debug)]
struct MemInner {
    places: Vec<PlaceMem>,
    /// Per-place byte budget; `u64::MAX` means unlimited (the default).
    budget: AtomicU64,
    /// True = [`OomMode::FailFast`].
    fail_fast: AtomicBool,
    /// Governed-cache lookups served from a resident entry.
    cache_hits: AtomicU64,
    /// Governed-cache lookups that missed (absent, type or length
    /// mismatch). Reload faults count as hits: the entry was present.
    cache_misses: AtomicU64,
    /// Read only by [`MemAccountant::report_section`], for the buffer-pool
    /// hit-rate line.
    metrics: Option<Metrics>,
}

/// Shared per-place memory accountant. `Clone` is shallow; the cluster's
/// buffer pools, an engine's cache and its reuse index all hold handles
/// onto the same tallies.
#[derive(Clone, Debug)]
pub struct MemAccountant {
    inner: Arc<MemInner>,
}

impl MemAccountant {
    /// Accountant for `places` places with an infinite budget and no
    /// metrics handle (unit tests).
    pub fn new(places: usize) -> Self {
        Self::build(places, None)
    }

    /// Accountant whose report section also prints `metrics`' buffer-pool
    /// hit rate (the form every [`crate::Cluster`] constructs).
    pub fn with_metrics(places: usize, metrics: Metrics) -> Self {
        Self::build(places, Some(metrics))
    }

    fn build(places: usize, metrics: Option<Metrics>) -> Self {
        MemAccountant {
            inner: Arc::new(MemInner {
                places: (0..places).map(|_| PlaceMem::default()).collect(),
                budget: AtomicU64::new(u64::MAX),
                fail_fast: AtomicBool::new(false),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                metrics,
            }),
        }
    }

    /// Number of places tracked.
    pub fn places(&self) -> usize {
        self.inner.places.len()
    }

    fn place(&self, place: usize) -> &PlaceMem {
        &self.inner.places[place]
    }

    /// Record `bytes` newly held by `class` at `place`, ratcheting the
    /// place's high watermark.
    pub fn grow(&self, place: usize, class: MemClass, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let p = self.place(place);
        let class_live = p.classes[class.index()].fetch_add(bytes, Ordering::Relaxed) + bytes;
        if class == MemClass::Combine {
            p.combine_high_watermark.fetch_max(class_live, Ordering::Relaxed);
        }
        p.high_watermark.fetch_max(p.live(), Ordering::Relaxed);
    }

    /// Record `bytes` released by `class` at `place` (saturating: a
    /// shrink can never drive a tally negative).
    pub fn shrink(&self, place: usize, class: MemClass, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let cell = &self.place(place).classes[class.index()];
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(bytes))
        });
    }

    /// Total live bytes at `place` across all classes: what the high
    /// watermark tracks and the reports print. No decision may read it
    /// while places run concurrently: a stream publish grows
    /// [`MemClass::Shuffle`] at its destination from the source place's
    /// thread, so the sum depends on thread timing. Such decisions read
    /// [`MemAccountant::live_class`] for the classes their own place grows.
    pub fn live(&self, place: usize) -> u64 {
        self.place(place).live()
    }

    /// Live bytes held by `class` at `place`.
    pub fn live_class(&self, place: usize, class: MemClass) -> u64 {
        self.place(place).classes[class.index()].load(Ordering::Relaxed)
    }

    /// Highest total live bytes ever observed at `place` (since the last
    /// [`MemAccountant::reset_stats`]).
    pub fn high_watermark(&self, place: usize) -> u64 {
        self.place(place).high_watermark.load(Ordering::Relaxed)
    }

    /// Highest [`MemClass::Combine`] bytes ever observed at `place` — the
    /// peak footprint of place-level combine tables (since the last
    /// [`MemAccountant::reset_stats`]).
    pub fn combine_high_watermark(&self, place: usize) -> u64 {
        self.place(place)
            .combine_high_watermark
            .load(Ordering::Relaxed)
    }

    /// Set the per-place byte budget; `None` means unlimited.
    pub fn set_budget(&self, budget: Option<u64>) {
        self.inner
            .budget
            .store(budget.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The per-place byte budget, or `None` when unlimited.
    pub fn budget(&self) -> Option<u64> {
        match self.inner.budget.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// Choose what governed caches do on budget overflow.
    pub fn set_oom_mode(&self, mode: OomMode) {
        self.inner
            .fail_fast
            .store(mode == OomMode::FailFast, Ordering::Relaxed);
    }

    /// The configured budget-overflow behaviour.
    pub fn oom_mode(&self) -> OomMode {
        if self.inner.fail_fast.load(Ordering::Relaxed) {
            OomMode::FailFast
        } else {
            OomMode::Spill
        }
    }

    /// Record one eviction at `place` that spilled `spilled_bytes` to the
    /// DFS (0 when the entry was dropped without a spill).
    pub fn note_eviction(&self, place: usize, spilled_bytes: u64) {
        let p = self.place(place);
        p.evictions.fetch_add(1, Ordering::Relaxed);
        p.spill_bytes.fetch_add(spilled_bytes, Ordering::Relaxed);
    }

    /// Record `bytes` lazily reloaded from the DFS at `place`.
    pub fn note_reload(&self, place: usize, bytes: u64) {
        self.place(place).reload_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one governed-cache lookup (hit = served, resident or via
    /// reload; miss = absent or shape mismatch).
    pub fn note_cache_access(&self, hit: bool) {
        let cell = if hit {
            &self.inner.cache_hits
        } else {
            &self.inner.cache_misses
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Evictions recorded at `place`.
    pub fn evictions(&self, place: usize) -> u64 {
        self.place(place).evictions.load(Ordering::Relaxed)
    }

    /// Bytes spilled at `place`.
    pub fn spill_bytes(&self, place: usize) -> u64 {
        self.place(place).spill_bytes.load(Ordering::Relaxed)
    }

    /// Bytes reloaded at `place`.
    pub fn reload_bytes(&self, place: usize) -> u64 {
        self.place(place).reload_bytes.load(Ordering::Relaxed)
    }

    /// Governed-cache (hits, misses) so far.
    pub fn cache_accesses(&self) -> (u64, u64) {
        (
            self.inner.cache_hits.load(Ordering::Relaxed),
            self.inner.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Zero the *stats* — watermarks, eviction/spill/reload totals, hit
    /// counts — re-seeding each watermark to the place's current live
    /// total. Live byte tallies, the budget and the OOM mode survive: the
    /// cache they describe survives `Cluster::reset` too, and forgetting
    /// its bytes would let a reset launder a busted budget.
    pub fn reset_stats(&self) {
        for p in &self.inner.places {
            p.high_watermark.store(p.live(), Ordering::Relaxed);
            p.combine_high_watermark.store(
                p.classes[MemClass::Combine.index()].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
            p.evictions.store(0, Ordering::Relaxed);
            p.spill_bytes.store(0, Ordering::Relaxed);
            p.reload_bytes.store(0, Ordering::Relaxed);
        }
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.cache_misses.store(0, Ordering::Relaxed);
    }

    /// Register the governor's telemetry source with `registry`: per-place
    /// live bytes by class, high watermarks, eviction/spill/reload totals,
    /// the budget and the cluster-wide governed-cache hit/miss tally. The
    /// source captures a clone of the accountant and reads its tallies at
    /// export time, so nothing here is kept twice.
    pub fn publish_telemetry(&self, registry: &crate::telemetry::TelemetryRegistry) {
        use crate::telemetry::{Family, Kind};
        let me = self.clone();
        let source = move || {
            let per_place = |kind, name, help, read: fn(&MemAccountant, usize) -> u64| {
                let mut f = Family::new(kind, name, help);
                for p in 0..me.places() {
                    f.sample(&[("place", &p.to_string())], read(&me, p) as f64);
                }
                f
            };
            let mut live = Family::new(
                Kind::Gauge,
                "m3r_mem_live_bytes",
                "live accounted bytes per place and memory class",
            );
            for p in 0..me.places() {
                for class in MemClass::all() {
                    let labels = [("place", &*p.to_string()), ("class", class.name())];
                    live.sample(&labels, me.live_class(p, class) as f64);
                }
            }
            let (hits, misses) = me.cache_accesses();
            let mut requests = Family::new(
                Kind::Counter,
                "m3r_cache_requests_total",
                "governed-cache lookups by outcome",
            );
            requests.sample(&[("outcome", "hit")], hits as f64);
            requests.sample(&[("outcome", "miss")], misses as f64);
            let mut budget = Family::new(
                Kind::Gauge,
                "m3r_mem_budget_bytes",
                "per-place byte budget (-1 = unlimited)",
            );
            budget.sample(&[], me.budget().map_or(-1.0, |b| b as f64));
            vec![
                live,
                per_place(
                    Kind::Gauge,
                    "m3r_mem_high_watermark_bytes",
                    "highest budget-relevant live bytes ever observed per place",
                    MemAccountant::high_watermark,
                ),
                per_place(
                    Kind::Gauge,
                    "m3r_mem_combine_high_watermark_bytes",
                    "peak combine-table bytes per place",
                    MemAccountant::combine_high_watermark,
                ),
                per_place(
                    Kind::Counter,
                    "m3r_mem_evictions_total",
                    "cache entries evicted per place",
                    MemAccountant::evictions,
                ),
                per_place(
                    Kind::Counter,
                    "m3r_mem_spill_bytes_total",
                    "bytes spilled to the DFS by evictions per place",
                    MemAccountant::spill_bytes,
                ),
                per_place(
                    Kind::Counter,
                    "m3r_mem_reload_bytes_total",
                    "bytes faulted back in from spill files per place",
                    MemAccountant::reload_bytes,
                ),
                requests,
                budget,
            ]
        };
        registry.register("mem", Arc::new(source));
    }

    /// Human-readable per-place memory section for the trace text report,
    /// mirroring how the buffer-pool hit rate is surfaced there.
    pub fn report_section(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("memory (per place):\n");
        for (id, p) in self.inner.places.iter().enumerate() {
            let _ = write!(out, "  place {id}: live=");
            for class in MemClass::all() {
                let _ = write!(
                    out,
                    "{}:{} ",
                    class.name(),
                    p.classes[class.index()].load(Ordering::Relaxed)
                );
            }
            let _ = writeln!(
                out,
                "hwm={} combine_hwm={} evictions={} spill_bytes={} reload_bytes={}",
                p.high_watermark.load(Ordering::Relaxed),
                p.combine_high_watermark.load(Ordering::Relaxed),
                p.evictions.load(Ordering::Relaxed),
                p.spill_bytes.load(Ordering::Relaxed),
                p.reload_bytes.load(Ordering::Relaxed),
            );
        }
        let (hits, misses) = self.cache_accesses();
        let requests = hits + misses;
        let hit_rate = if requests == 0 {
            0.0
        } else {
            100.0 * hits as f64 / requests as f64
        };
        let _ = writeln!(
            out,
            "  cache: hits={hits} misses={misses} hit_rate={hit_rate:.1}%"
        );
        if let Some(m) = &self.inner.metrics {
            // Pool effectiveness lives in `Metrics` but outside the
            // snapshot (PR 3); surface it here so the accountant section
            // is the one place to read memory behaviour.
            let (ph, pm) = (m.pool_hits(), m.pool_misses());
            let preq = ph + pm;
            let prate = if preq == 0 {
                0.0
            } else {
                100.0 * ph as f64 / preq as f64
            };
            let _ = writeln!(
                out,
                "  pool: hits={ph} misses={pm} hit_rate={prate:.1}%"
            );
        }
        let _ = match self.budget() {
            Some(b) => writeln!(
                out,
                "  budget: {b} bytes/place ({:?} on overflow)",
                self.oom_mode()
            ),
            None => writeln!(out, "  budget: unlimited"),
        };
        out
    }
}

/// One job's own view of the accountant. `grow`/`shrink` forward to the
/// shared tallies and keep the job's net holding per (place, class), so the
/// job frame can hand back on *any* exit whatever the job still holds — a
/// failed task must not strand parked shuffle bytes or half-filled combine
/// tables in the accountant. Lanes of concurrent jobs share the accountant,
/// which is why the ledger is per job and not a before/after snapshot.
#[derive(Debug)]
pub struct JobMem {
    mem: MemAccountant,
    held: Vec<[AtomicU64; MemClass::COUNT]>,
}

impl JobMem {
    /// An empty ledger over `mem`.
    pub fn new(mem: &MemAccountant) -> Self {
        JobMem {
            mem: mem.clone(),
            held: (0..mem.places()).map(|_| Default::default()).collect(),
        }
    }

    /// [`MemAccountant::grow`], remembered as held by this job.
    pub fn grow(&self, place: usize, class: MemClass, bytes: u64) {
        self.held[place][class.index()].fetch_add(bytes, Ordering::Relaxed);
        self.mem.grow(place, class, bytes);
    }

    /// [`MemAccountant::shrink`] of bytes this job grew earlier.
    pub fn shrink(&self, place: usize, class: MemClass, bytes: u64) {
        let _ = self.held[place][class.index()]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        self.mem.shrink(place, class, bytes);
    }

    /// Shrink everything the job still holds. A job that ran to completion
    /// and un-parked all it parked releases nothing here.
    pub fn release(&self) {
        for (place, classes) in self.held.iter().enumerate() {
            for class in MemClass::all() {
                let bytes = classes[class.index()].swap(0, Ordering::Relaxed);
                self.mem.shrink(place, class, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ledger_releases_only_what_the_job_still_holds() {
        let mem = MemAccountant::new(2);
        mem.grow(1, MemClass::Shuffle, 7); // another job's parked bytes
        let job = JobMem::new(&mem);
        job.grow(1, MemClass::Shuffle, 100);
        job.grow(0, MemClass::Combine, 40);
        job.shrink(1, MemClass::Shuffle, 60);
        assert_eq!(mem.live_class(1, MemClass::Shuffle), 47);
        job.release();
        assert_eq!(mem.live_class(1, MemClass::Shuffle), 7);
        assert_eq!(mem.live_class(0, MemClass::Combine), 0);
        job.release();
        assert_eq!(mem.live_class(1, MemClass::Shuffle), 7, "release is idempotent");
    }

    #[test]
    fn grow_shrink_and_watermark() {
        let mem = MemAccountant::new(2);
        mem.grow(0, MemClass::Cache, 100);
        mem.grow(0, MemClass::Shuffle, 50);
        assert_eq!(mem.live(0), 150);
        assert_eq!(mem.live_class(0, MemClass::Cache), 100);
        assert_eq!(mem.live(1), 0);
        assert_eq!(mem.high_watermark(0), 150);
        mem.shrink(0, MemClass::Shuffle, 50);
        assert_eq!(mem.live(0), 100);
        assert_eq!(mem.high_watermark(0), 150, "watermark is a ratchet");
        // Shrinking more than is live saturates at zero.
        mem.shrink(0, MemClass::Cache, 1 << 40);
        assert_eq!(mem.live(0), 0);
    }

    #[test]
    fn budget_and_oom_mode_roundtrip() {
        let mem = MemAccountant::new(1);
        assert_eq!(mem.budget(), None);
        assert_eq!(mem.oom_mode(), OomMode::Spill);
        mem.set_budget(Some(4096));
        mem.set_oom_mode(OomMode::FailFast);
        assert_eq!(mem.budget(), Some(4096));
        assert_eq!(mem.oom_mode(), OomMode::FailFast);
        mem.set_budget(None);
        assert_eq!(mem.budget(), None);
    }

    #[test]
    fn reset_stats_keeps_live_tallies() {
        let mem = MemAccountant::new(1);
        mem.set_budget(Some(10_000));
        mem.grow(0, MemClass::Cache, 100);
        mem.grow(0, MemClass::Cache, 100);
        mem.shrink(0, MemClass::Cache, 150);
        mem.note_eviction(0, 64);
        mem.note_cache_access(true);
        mem.reset_stats();
        assert_eq!(mem.live(0), 50, "live bytes survive reset");
        assert_eq!(mem.budget(), Some(10_000), "budget survives reset");
        assert_eq!(mem.high_watermark(0), 50, "watermark re-seeds to live");
        assert_eq!(mem.evictions(0), 0);
        assert_eq!(mem.cache_accesses(), (0, 0));
    }

    #[test]
    fn combine_watermark_ratchets_and_reseeds() {
        let mem = MemAccountant::new(1);
        mem.grow(0, MemClass::Combine, 300);
        mem.shrink(0, MemClass::Combine, 200);
        assert_eq!(mem.combine_high_watermark(0), 300, "ratchet holds");
        assert_eq!(mem.live_class(0, MemClass::Combine), 100);
        mem.reset_stats();
        assert_eq!(
            mem.combine_high_watermark(0),
            100,
            "re-seeds to live combine bytes"
        );
        assert!(mem.report_section().contains("combine_hwm=100"));
    }

    #[test]
    fn every_class_is_budget_live() {
        let mem = MemAccountant::new(1);
        for (i, class) in MemClass::all().into_iter().enumerate() {
            mem.grow(0, class, 1 << i);
        }
        assert_eq!(mem.live(0), (1 << MemClass::COUNT) - 1, "no class sits outside the total");
        assert_eq!(mem.high_watermark(0), mem.live(0));
        assert!(mem
            .report_section()
            .contains("live=cache:1 shuffle:2 pool:4 combine:8 memo:16 hwm=31"));
    }

    #[test]
    fn report_section_mentions_every_place() {
        let mem = MemAccountant::new(2);
        mem.grow(1, MemClass::Pool, 42);
        mem.note_cache_access(true);
        mem.note_cache_access(false);
        let s = mem.report_section();
        assert!(s.contains("place 0"));
        assert!(s.contains("place 1"));
        assert!(s.contains("hit_rate=50.0%"));
        assert!(s.contains("budget: unlimited"));
    }
}
