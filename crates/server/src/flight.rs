//! The server-path flight recorder: per-ticket lifecycle timelines, lane
//! telemetry, and per-client SLO accounting.
//!
//! Every ticket that passes through the [`crate::JobServer`] leaves a
//! [`TicketTrace`] — wall-clock nanosecond stamps for each lifecycle event
//! (`submitted → admitted → ready → dispatched → lane-start → lane-done →
//! resolved`, plus the admission-ordered `folded` event which may trail
//! `resolved`) and the deterministic simulated-seconds facts of its lane.
//! The stamps telescope exactly:
//!
//! ```text
//! conflict_wait + queue_wait + lane_run + fold_delay == resolved − submitted
//! ```
//!
//! with `conflict_wait = ready − submitted` (blocked on the conflict DAG),
//! `queue_wait = dispatched − ready` (ready but no free worker),
//! `lane_run = lane_done − dispatched` (lane setup + execution), and
//! `fold_delay = resolved − lane_done` (re-acquiring the scheduler lock and
//! publishing the result). Tickets that never reach a stage (cancelled
//! jobs) have the missing stamps clamped to `resolved`, so the identity
//! holds for every ticket, always, in exact `u64` arithmetic.
//!
//! The recorder is always on and is the server's one per-ticket history:
//! the rollup, the Chrome tracks and the `m3r_server_*` telemetry families
//! ([`FlightRecorder::publish_telemetry`]) are all views computed from this
//! log when somebody asks. It is **simulation-invisible**: it reads wall
//! clocks and lane totals but never touches clocks, metrics, caches or
//! outputs, so simulated seconds and results are bit-identical at any
//! worker count whether or not anything is exported (pinned by
//! `tests/serverobs.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use simgrid::telemetry::{Family, Kind, TelemetryRegistry};
use simgrid::trace::json_escape;

use crate::ticket::JobStatus;

/// Submit→resolve latency histogram bounds, in milliseconds.
const LATENCY_BOUNDS_MS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
];

/// One ticket's complete lifecycle, in wall-clock nanoseconds since the
/// server's epoch plus the deterministic sim-side facts of its lane.
#[derive(Clone, Debug, Default)]
pub struct TicketTrace {
    /// Admission sequence number (= ticket id).
    pub seq: u64,
    /// Submitting client identity.
    pub client: String,
    /// The job's configured name.
    pub job_name: String,
    /// Dispatch priority.
    pub priority: i32,
    /// Conflict-DAG edges (deps) at admission time.
    pub deps: usize,
    /// Worker lane index the job ran on; `None` for cancelled jobs.
    pub lane: Option<usize>,
    /// The submission resolved straight from the engine's cross-job memo
    /// index (ISSUE 10): it never occupied a worker lane — `lane` stays
    /// `None` and `lane_run_ns` is the replay's time under the admission
    /// lock.
    pub memo_hit: bool,
    /// Terminal status.
    pub status: JobStatus,
    /// Submit call entered (before the admission lock).
    pub submitted_ns: u64,
    /// Admission complete (entry in the DAG, lock still held).
    pub admitted_ns: u64,
    /// Time the admission lock was held for this submit.
    pub admission_hold_ns: u64,
    /// All conflict-DAG dependencies resolved.
    pub ready_ns: u64,
    /// Picked by a worker.
    pub dispatched_ns: u64,
    /// Lane created, job body about to run (informational).
    pub lane_start_ns: u64,
    /// Job body returned; lane totals captured.
    pub lane_done_ns: u64,
    /// Lane folded into the home cluster (admission order — may trail
    /// `resolved_ns`; informational, not part of the attribution algebra).
    pub folded_ns: u64,
    /// Ticket resolved: result published, waiters woken. Terminal stamp.
    pub resolved_ns: u64,
    /// Lane duration in simulated seconds (deterministic).
    pub lane_sim_seconds: f64,
    /// Home-cluster simulated seconds before this lane folded.
    pub home_sim_before: f64,
    /// Home-cluster simulated seconds after this lane folded.
    pub home_sim_after: f64,
}

impl TicketTrace {
    /// Nanoseconds blocked on unresolved conflict-DAG dependencies.
    pub fn conflict_wait_ns(&self) -> u64 {
        self.ready_ns - self.submitted_ns
    }

    /// Nanoseconds ready but waiting for a free worker (or for exclusive
    /// mode to drain).
    pub fn queue_wait_ns(&self) -> u64 {
        self.dispatched_ns - self.ready_ns
    }

    /// Nanoseconds on the lane: lane setup plus the job body.
    pub fn lane_run_ns(&self) -> u64 {
        self.lane_done_ns - self.dispatched_ns
    }

    /// Nanoseconds from lane completion to ticket resolution.
    pub fn fold_delay_ns(&self) -> u64 {
        self.resolved_ns - self.lane_done_ns
    }

    /// Total submit→resolve nanoseconds. Identically equal to the sum of
    /// the four attribution buckets (the stamps telescope).
    pub fn total_ns(&self) -> u64 {
        self.resolved_ns - self.submitted_ns
    }
}

/// Per-lane occupancy over the server's lifetime.
#[derive(Clone, Debug)]
pub struct LaneStat {
    /// Worker lane index.
    pub lane: usize,
    /// Jobs that ran on this lane.
    pub jobs: u64,
    /// Wall nanoseconds the lane spent on jobs (dispatch → lane-done).
    pub busy_ns: u64,
    /// `busy_ns` over the rollup's wall window, clamped to `[0, 1]`.
    pub utilization: f64,
}

/// Per-client latency distribution and SLO accounting.
#[derive(Clone, Debug)]
pub struct ClientStat {
    /// Client identity.
    pub client: String,
    /// Resolved tickets from this client.
    pub jobs: usize,
    /// Tickets resolved straight from the cross-job memo index, without
    /// ever occupying a worker lane.
    pub memo_hits: usize,
    /// Submit→resolve latency percentiles (nearest-rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Worst ticket.
    pub max_ns: u64,
    /// Tickets whose submit→resolve latency exceeded the SLO threshold.
    pub slo_breaches: usize,
    /// Summed conflict-DAG wait across this client's tickets.
    pub conflict_wait_ns: u64,
    /// Summed worker-queue wait.
    pub queue_wait_ns: u64,
    /// Summed lane time.
    pub lane_run_ns: u64,
    /// Summed fold/publish delay.
    pub fold_delay_ns: u64,
}

/// A point-in-time aggregation of the recorder: per-client latency tables
/// and per-lane occupancy, for one SLO threshold.
#[derive(Clone, Debug)]
pub struct ServerRollup {
    /// Wall nanoseconds from the server's epoch to the rollup.
    pub wall_ns: u64,
    /// Resolved tickets covered.
    pub jobs: usize,
    /// The SLO threshold the breach counts were taken against.
    pub slo_ns: u64,
    /// Total admission-lock hold time across all submits.
    pub admission_hold_ns: u64,
    /// Per-client tables, ordered by client name.
    pub clients: Vec<ClientStat>,
    /// Per-lane tables, ordered by lane index.
    pub lanes: Vec<LaneStat>,
}

struct RecorderInner {
    epoch: Instant,
    lanes: usize,
    /// The ticket log, by seq: the recorder's only state. Lane occupancy,
    /// admission-lock hold time and every export are sums over it.
    traces: Mutex<BTreeMap<u64, TicketTrace>>,
}

/// The recorder itself: cheap to clone, all clones share one log.
///
/// All `record_*` calls are made by the scheduler with its state lock
/// held; the recorder's own lock nests strictly inside and is never held
/// across a callback, so there is no inversion.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

/// Per-lane `(jobs, busy wall ns)`: the tickets whose lane has finished,
/// dispatch → lane-done.
fn lane_totals(traces: &BTreeMap<u64, TicketTrace>, lanes: usize) -> Vec<(u64, u64)> {
    let mut totals = vec![(0, 0); lanes];
    for t in traces.values().filter(|t| t.lane_done_ns > 0) {
        if let Some(total) = t.lane.and_then(|lane| totals.get_mut(lane)) {
            total.0 += 1;
            total.1 += t.lane_run_ns();
        }
    }
    totals
}

impl FlightRecorder {
    /// A recorder for `lanes` worker lanes.
    pub fn new(lanes: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                lanes,
                traces: Mutex::default(),
            }),
        }
    }

    /// Wall nanoseconds since the server's epoch. Never 0 — 0 is the
    /// recorder's "stamp not taken" sentinel.
    pub fn now_ns(&self) -> u64 {
        (self.inner.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Register the server's telemetry source with `registry` (the home
    /// cluster's): lane busy-seconds, `m3r_server_jobs_total{state}`
    /// counted and `m3r_server_submit_resolve_ms{client}` bucketed over the
    /// ticket log, in one pass under the recorder lock at export time —
    /// no lifecycle event touches the registry. The source holds the log
    /// weakly: once the server and every recorder clone are gone, the
    /// families are too.
    pub fn publish_telemetry(&self, registry: &TelemetryRegistry) {
        let weak = Arc::downgrade(&self.inner);
        let source = move || {
            let Some(inner) = weak.upgrade() else {
                return Vec::new();
            };
            let traces = inner.traces.lock();
            let mut busy = Family::new(
                Kind::Gauge,
                "m3r_server_lane_busy_seconds",
                "wall-clock seconds each dispatch lane spent running jobs",
            );
            for (lane, (_, ns)) in lane_totals(&traces, inner.lanes).iter().enumerate() {
                busy.sample(&[("lane", &lane.to_string())], *ns as f64 / 1e9);
            }
            // A state exports once a ticket has reached it.
            let mut states: BTreeMap<&str, u64> = BTreeMap::new();
            let mut latencies_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for t in traces.values() {
                *states.entry("submitted").or_default() += 1;
                if t.memo_hit {
                    *states.entry("memo_hit").or_default() += 1;
                }
                if t.resolved_ns > 0 {
                    *states.entry(t.status.name()).or_default() += 1;
                    let ms = t.total_ns() as f64 / 1e6;
                    latencies_ms.entry(&t.client).or_default().push(ms);
                }
            }
            let mut jobs = Family::new(
                Kind::Counter,
                "m3r_server_jobs_total",
                "tickets by lifecycle outcome",
            );
            for (state, n) in states {
                jobs.sample(&[("state", state)], n as f64);
            }
            let mut latency = Family::new(
                Kind::Histogram(LATENCY_BOUNDS_MS),
                "m3r_server_submit_resolve_ms",
                "submit-to-resolve latency per client, milliseconds",
            );
            for (client, ms) in latencies_ms {
                latency.observe(&[("client", client)], ms);
            }
            vec![busy, jobs, latency]
        };
        registry.register("server", Arc::new(source));
    }

    // ---- lifecycle events (scheduler-side) -------------------------------

    /// Stamp an event on `seq`'s trace: `f` gets the trace and the current
    /// wall nanoseconds (read before the recorder lock is taken).
    fn stamp(&self, seq: u64, f: impl FnOnce(&mut TicketTrace, u64)) {
        let now = self.now_ns();
        if let Some(t) = self.inner.traces.lock().get_mut(&seq) {
            f(t, now);
        }
    }

    /// A submit finished admission — the event that opens `seq`'s trace.
    /// `t_submit` is the stamp taken before the admission lock, `t_locked`
    /// after acquiring it, `t_admitted` after `admit` returned (lock still
    /// held).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_submitted(
        &self,
        seq: u64,
        client: &str,
        job_name: &str,
        priority: i32,
        deps: usize,
        t_submit: u64,
        t_locked: u64,
        t_admitted: u64,
    ) {
        let trace = TicketTrace {
            seq,
            client: client.to_string(),
            job_name: job_name.to_string(),
            priority,
            deps,
            submitted_ns: t_submit,
            admitted_ns: t_admitted,
            admission_hold_ns: t_admitted - t_locked,
            // No conflict edges: ready the instant admission completes.
            ready_ns: if deps == 0 { t_admitted } else { 0 },
            ..TicketTrace::default()
        };
        self.inner.traces.lock().insert(seq, trace);
    }

    /// The submission resolved straight from the engine's cross-job memo
    /// index without occupying a lane. Recorded between
    /// `record_submitted` and `record_resolved` (both still fire, so the
    /// ticket counts as submitted and completed like any other).
    pub(crate) fn record_memo_hit(&self, seq: u64) {
        self.stamp(seq, |t, _| t.memo_hit = true);
    }

    /// The last conflict-DAG dependency of `seq` resolved.
    pub(crate) fn record_ready(&self, seq: u64) {
        self.stamp(seq, |t, now| {
            if t.ready_ns == 0 {
                t.ready_ns = now;
            }
        });
    }

    /// A worker picked `seq` (scheduler lock held).
    pub(crate) fn record_dispatched(&self, seq: u64, lane: usize) {
        self.stamp(seq, |t, now| {
            t.lane = Some(lane);
            t.dispatched_ns = now;
        });
    }

    /// The worker created the job lane and is about to run the body.
    pub(crate) fn record_lane_start(&self, seq: u64) {
        self.stamp(seq, |t, now| t.lane_start_ns = now);
    }

    /// The job body returned; `lane_sim_seconds` is the lane's
    /// deterministic simulated duration.
    pub(crate) fn record_lane_done(&self, seq: u64, lane_sim_seconds: f64) {
        self.stamp(seq, |t, now| {
            t.lane_done_ns = now;
            t.lane_sim_seconds = lane_sim_seconds;
        });
    }

    /// `seq` folded into the home cluster; home simulated seconds before
    /// and after the fold (deterministic, admission-ordered).
    pub(crate) fn record_folded(&self, seq: u64, home_before: f64, home_after: f64) {
        self.stamp(seq, |t, now| {
            t.folded_ns = now;
            t.home_sim_before = home_before;
            t.home_sim_after = home_after;
        });
    }

    /// Terminal event: the ticket resolved. Clamps every stamp a cancelled
    /// job never reached to `resolved_ns`, preserving the telescoping
    /// attribution identity exactly.
    pub(crate) fn record_resolved(&self, seq: u64, status: JobStatus) {
        self.stamp(seq, |t, now| {
            t.status = status;
            t.resolved_ns = now;
            for stamp in [&mut t.ready_ns, &mut t.dispatched_ns, &mut t.lane_done_ns] {
                if *stamp == 0 {
                    *stamp = now;
                }
            }
        });
    }

    // ---- reports ---------------------------------------------------------

    /// Snapshot every **resolved** ticket's trace, in admission order.
    pub fn traces(&self) -> Vec<TicketTrace> {
        let traces = self.inner.traces.lock();
        traces.values().filter(|t| t.resolved_ns > 0).cloned().collect()
    }

    /// Aggregate the resolved tickets into per-client and per-lane tables,
    /// counting SLO breaches against `slo_ns`.
    pub fn rollup(&self, slo_ns: u64) -> ServerRollup {
        let wall_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        let traces = self.inner.traces.lock();
        let mut per_client: BTreeMap<&str, Vec<&TicketTrace>> = BTreeMap::new();
        for t in traces.values().filter(|t| t.resolved_ns > 0) {
            per_client.entry(&t.client).or_default().push(t);
        }
        let jobs = per_client.values().map(Vec::len).sum();
        let clients = per_client
            .into_iter()
            .map(|(client, ts)| {
                let mut totals: Vec<u64> = ts.iter().map(|t| t.total_ns()).collect();
                totals.sort_unstable();
                ClientStat {
                    client: client.to_string(),
                    jobs: ts.len(),
                    memo_hits: ts.iter().filter(|t| t.memo_hit).count(),
                    p50_ns: percentile(&totals, 0.50),
                    p95_ns: percentile(&totals, 0.95),
                    p99_ns: percentile(&totals, 0.99),
                    max_ns: totals.last().copied().unwrap_or(0),
                    slo_breaches: totals.iter().filter(|&&n| n > slo_ns).count(),
                    conflict_wait_ns: ts.iter().map(|t| t.conflict_wait_ns()).sum(),
                    queue_wait_ns: ts.iter().map(|t| t.queue_wait_ns()).sum(),
                    lane_run_ns: ts.iter().map(|t| t.lane_run_ns()).sum(),
                    fold_delay_ns: ts.iter().map(|t| t.fold_delay_ns()).sum(),
                }
            })
            .collect();
        let lanes = lane_totals(&traces, self.inner.lanes)
            .into_iter()
            .enumerate()
            .map(|(lane, (jobs, busy_ns))| LaneStat {
                lane,
                jobs,
                busy_ns,
                utilization: if wall_ns == 0 {
                    0.0
                } else {
                    (busy_ns as f64 / wall_ns as f64).clamp(0.0, 1.0)
                },
            })
            .collect();
        ServerRollup {
            wall_ns,
            jobs,
            slo_ns,
            admission_hold_ns: traces.values().map(|t| t.admission_hold_ns).sum(),
            clients,
            lanes,
        }
    }

    /// Render the recorder as Chrome-trace events on **pid 1** (wall-clock
    /// time): one track per worker lane with an `X` slice per job, one
    /// track per client with a submit→resolve slice, and `s`/`f` flow
    /// events (id = seq) linking each submission to its lane execution.
    /// Feed the result to [`simgrid::trace::Trace::chrome_json_with`] to
    /// merge with the sim-time (pid 0) place tracks.
    pub fn chrome_events(&self) -> Vec<String> {
        let traces = self.inner.traces.lock();
        let mut ev = Vec::new();
        ev.push(
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"server (wall clock)"}}"#
                .to_string(),
        );
        for lane in 0..self.inner.lanes {
            ev.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{lane},"args":{{"name":"lane {lane}"}}}}"#
            ));
            ev.push(format!(
                r#"{{"name":"thread_sort_index","ph":"M","pid":1,"tid":{lane},"args":{{"sort_index":{lane}}}}}"#
            ));
        }
        // Client tracks sit below the lanes: tid = 1000 + index in name
        // order, so the layout is schedule-independent.
        let mut clients: Vec<&str> = traces
            .values()
            .filter(|t| t.resolved_ns > 0)
            .map(|t| t.client.as_str())
            .collect();
        clients.sort_unstable();
        clients.dedup();
        let client_tid = |c: &str| 1000 + clients.iter().position(|x| *x == c).unwrap_or(0) as u64;
        for c in &clients {
            let tid = client_tid(c);
            ev.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"client {}"}}}}"#,
                json_escape(c)
            ));
            ev.push(format!(
                r#"{{"name":"thread_sort_index","ph":"M","pid":1,"tid":{tid},"args":{{"sort_index":{tid}}}}}"#
            ));
        }
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        for t in traces.values().filter(|t| t.resolved_ns > 0) {
            let name = json_escape(&t.job_name);
            let tid = client_tid(&t.client);
            // Ticket slice on the client track: submit → resolve.
            ev.push(format!(
                r#"{{"name":"{name}","cat":"ticket","ph":"X","pid":1,"tid":{tid},"ts":{},"dur":{},"args":{{"seq":{},"deps":{},"conflict_wait_us":{},"queue_wait_us":{},"lane_run_us":{},"fold_delay_us":{}}}}}"#,
                us(t.submitted_ns),
                us(t.total_ns()),
                t.seq,
                t.deps,
                us(t.conflict_wait_ns()),
                us(t.queue_wait_ns()),
                us(t.lane_run_ns()),
                us(t.fold_delay_ns()),
            ));
            let Some(lane) = t.lane else { continue };
            // Execution slice on the lane track: dispatch → lane-done.
            ev.push(format!(
                r#"{{"name":"{name}","cat":"lane","ph":"X","pid":1,"tid":{lane},"ts":{},"dur":{},"args":{{"seq":{},"client":"{}","sim_seconds":{}}}}}"#,
                us(t.dispatched_ns),
                us(t.lane_run_ns()),
                t.seq,
                json_escape(&t.client),
                t.lane_sim_seconds,
            ));
            // Flow arrow from the submission to the lane execution.
            ev.push(format!(
                r#"{{"name":"job {}","cat":"flow","ph":"s","id":{},"pid":1,"tid":{tid},"ts":{}}}"#,
                t.seq,
                t.seq,
                us(t.submitted_ns),
            ));
            ev.push(format!(
                r#"{{"name":"job {}","cat":"flow","ph":"f","bp":"e","id":{},"pid":1,"tid":{lane},"ts":{}}}"#,
                t.seq,
                t.seq,
                us(t.dispatched_ns),
            ));
        }
        ev
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(sub: u64, ready: u64, disp: u64, done: u64, res: u64) -> TicketTrace {
        let mut t = TicketTrace { seq: 1, ..TicketTrace::default() };
        t.submitted_ns = sub;
        t.ready_ns = ready;
        t.dispatched_ns = disp;
        t.lane_done_ns = done;
        t.resolved_ns = res;
        t
    }

    #[test]
    fn attribution_telescopes_exactly() {
        let t = trace_with(10, 30, 75, 200, 211);
        assert_eq!(t.conflict_wait_ns(), 20);
        assert_eq!(t.queue_wait_ns(), 45);
        assert_eq!(t.lane_run_ns(), 125);
        assert_eq!(t.fold_delay_ns(), 11);
        assert_eq!(
            t.conflict_wait_ns() + t.queue_wait_ns() + t.lane_run_ns() + t.fold_delay_ns(),
            t.total_ns()
        );
    }

    #[test]
    fn cancelled_tickets_clamp_and_still_telescope() {
        let r = FlightRecorder::new(1);
        r.record_submitted(1, "a", "job", 0, 1, 5, 6, 7);
        // Never ready, never dispatched: cancelled while queued.
        r.record_resolved(1, JobStatus::Cancelled);
        let ts = r.traces();
        assert_eq!(ts.len(), 1);
        let t = &ts[0];
        assert_eq!(t.lane_run_ns(), 0);
        assert_eq!(t.fold_delay_ns(), 0);
        assert_eq!(
            t.conflict_wait_ns() + t.queue_wait_ns() + t.lane_run_ns() + t.fold_delay_ns(),
            t.total_ns()
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn rollup_orders_clients_and_counts_breaches() {
        let r = FlightRecorder::new(2);
        r.record_submitted(1, "zed", "j1", 0, 0, 1, 1, 2);
        r.record_dispatched(1, 0);
        r.record_lane_done(1, 1.5);
        r.record_resolved(1, JobStatus::Completed);
        r.record_submitted(2, "amy", "j2", 0, 0, 1, 1, 2);
        r.record_dispatched(2, 1);
        r.record_lane_done(2, 0.5);
        r.record_resolved(2, JobStatus::Completed);
        let roll = r.rollup(0); // everything breaches an SLO of 0 ns
        assert_eq!(roll.jobs, 2);
        let names: Vec<&str> = roll.clients.iter().map(|c| c.client.as_str()).collect();
        assert_eq!(names, ["amy", "zed"]);
        assert!(roll.clients.iter().all(|c| c.slo_breaches == 1));
        assert_eq!(roll.lanes.len(), 2);
        // Lane occupancy is a sum over the ticket log.
        for (lane, t) in roll.lanes.iter().zip(r.traces()) {
            assert_eq!((lane.jobs, lane.busy_ns), (1, t.lane_run_ns()));
        }
        assert!(roll
            .lanes
            .iter()
            .all(|l| (0.0..=1.0).contains(&l.utilization)));
        assert!(roll.clients.iter().all(|c| c.p50_ns <= c.p95_ns && c.p95_ns <= c.p99_ns));
    }
}
