//! The multi-tenant scheduler: a pool of dispatch workers running admitted
//! jobs concurrently on isolated [`simgrid::Cluster::job_lane`]s of one
//! shared engine.
//!
//! **Determinism.** The server admits jobs in submission order (`seq`),
//! registers their trace ids in that order, and builds a conflict DAG over
//! job *footprints* (input paths ∪ output path ∪ distributed-cache files,
//! compared component-wise by path prefix): a job depends on every
//! earlier-admitted unresolved job whose footprint overlaps its own. Jobs
//! without an edge touch disjoint files — and therefore disjoint cache
//! entries — so they commute. Each job runs on its own lane (fresh clocks
//! and metrics, shared memory accountant), and completed lanes are folded
//! back into the home cluster **strictly in admission order**: every home
//! clock advances uniformly by the lane's `max_time()` and the lane's
//! metrics are absorbed. The result: simulated seconds, metrics totals and
//! outputs are bit-identical whether the server runs with one worker or
//! many (pinned by `tests/server.rs`).
//!
//! **What the scheduler remembers.** An entry lives from admission until
//! its lane has folded and is then dropped, so admission, dispatch and
//! drain scan the jobs in flight, never the server's history (that is the
//! [`FlightRecorder`]'s job). A seq that is no longer in the map is a job
//! that resolved: a dependency on it is already satisfied and cancelling
//! it is too late.
//!
//! When the engine reports [`LaneEngine::exclusive_only`] (finite memory
//! budget or active cache quotas — eviction order must follow admission
//! order, never the thread schedule), dispatch serializes: one job in
//! flight at a time, the ticket API unchanged.

use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use hmr_api::error::{HmrError, Result};
use hmr_api::fs::HPath;
use hmr_api::job::{JobResult, LaneEngine};
use parking_lot::{Condvar, Mutex};
use simgrid::metrics::MetricsSnapshot;
use simgrid::Cluster;

use crate::flight::FlightRecorder;
use crate::submit::Client;
use crate::ticket::{JobStatus, TicketInner};

/// A boxed job body: runs one submission against its lane. Created at
/// submit time (capturing the typed `JobDef`), invoked by a worker.
pub(crate) type RunFn<E> = Box<dyn FnOnce(&E, &Cluster) -> Result<JobResult> + Send>;

/// Scheduler tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Dispatch workers — the maximum number of jobs in flight at once.
    /// Totals are bit-identical for any value ≥ 1 (see module docs).
    pub workers: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { workers: 4 }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EntryState {
    Queued,
    Running,
    /// Terminal: completed or failed.
    Done,
    /// Terminal: cancelled before it started.
    Cancelled,
}

pub(crate) struct Entry<E> {
    seq: u64,
    priority: i32,
    /// Trace job id, pre-registered at admission so ids follow seq order.
    tjob: u64,
    footprint: Vec<HPath>,
    /// Unresolved upstream jobs this one must wait for.
    deps: HashSet<u64>,
    /// Later jobs waiting on this one.
    dependents: Vec<u64>,
    state: EntryState,
    run: Option<RunFn<E>>,
    ticket: Arc<TicketInner>,
    /// Lane totals to fold into the home cluster (duration, metrics).
    fold: Option<(f64, MetricsSnapshot)>,
}

impl<E> Entry<E> {
    fn resolved(&self) -> bool {
        matches!(self.state, EntryState::Done | EntryState::Cancelled)
    }
}

pub(crate) struct SchedState<E> {
    /// The home cluster (fold target and lane factory); a plain handle so
    /// cancellation and folding never need the engine itself.
    pub(crate) home: Cluster,
    /// Every admitted job that has not folded yet — see the module docs.
    pub(crate) entries: BTreeMap<u64, Entry<E>>,
    pub(crate) next_seq: u64,
    /// Fold cursor: the lowest seq not yet folded into the home cluster
    /// (every entry below it is gone).
    pub(crate) next_fold: u64,
    /// Jobs currently executing on lanes.
    running: usize,
    pub(crate) accepting: bool,
    /// Workers exit once set (and no dispatchable work remains).
    stop: bool,
}

pub(crate) struct Shared<E> {
    pub(crate) state: Mutex<SchedState<E>>,
    pub(crate) cv: Condvar,
    /// The flight recorder. Lives outside the state mutex: its own lock
    /// nests strictly inside the scheduler lock and is never held across a
    /// wait.
    pub(crate) flight: FlightRecorder,
}

/// The job server: owns an engine, serves ticket submissions from any
/// number of [`Client`]s until shut down.
///
/// This replaces the blocking single-daemon server of earlier revisions:
/// submissions return immediately with a [`crate::JobTicket`], independent
/// jobs from different clients overlap on the shared places, and dependent
/// jobs wait on the conflict DAG.
pub struct JobServer<E: LaneEngine + Send + Sync + 'static> {
    /// `Option` so `shutdown(self) -> E` can move the engine out while a
    /// `Drop` impl exists.
    engine: Option<Arc<E>>,
    pub(crate) shared: Arc<Shared<E>>,
    canceller: Arc<dyn Fn(u64) -> bool + Send + Sync>,
    workers: Vec<JoinHandle<()>>,
}

impl<E: LaneEngine + Send + Sync + 'static> JobServer<E> {
    /// Start the server with default options, taking ownership of `engine`
    /// (the places stay alive for the server's whole life).
    pub fn start(engine: E) -> Self {
        JobServer::with_options(engine, ServerOptions::default())
    }

    /// Start with explicit options.
    pub fn with_options(engine: E, opts: ServerOptions) -> Self {
        assert!(opts.workers >= 1, "a server needs at least one worker");
        let engine = Arc::new(engine);
        let home = engine.home().clone();
        let flight = FlightRecorder::new(opts.workers);
        flight.publish_telemetry(home.telemetry());
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                home,
                entries: BTreeMap::new(),
                next_seq: 1,
                next_fold: 1,
                running: 0,
                accepting: true,
                stop: false,
            }),
            cv: Condvar::new(),
            flight,
        });
        let canceller = {
            let shared = Arc::clone(&shared);
            Arc::new(move |seq: u64| {
                let mut st = shared.state.lock();
                let cancelled = cancel_entry(
                    &mut st,
                    &shared.flight,
                    seq,
                    JobStatus::Cancelled,
                    HmrError::Cancelled(format!("job {seq} cancelled by its ticket")),
                );
                drop(st);
                if cancelled {
                    shared.cv.notify_all();
                }
                cancelled
            }) as Arc<dyn Fn(u64) -> bool + Send + Sync>
        };
        let workers = (0..opts.workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("m3r-server-{i}"))
                    .spawn(move || worker_loop(engine, shared, i))
                    .expect("spawn server worker")
            })
            .collect();
        JobServer {
            engine: Some(engine),
            shared,
            canceller,
            workers,
        }
    }

    /// A submission handle with the default client identity. Clone freely;
    /// hand to any thread.
    pub fn client(&self) -> Client<E> {
        self.client_as("default")
    }

    /// A submission handle identified as `client` — the identity cache
    /// quotas and per-client bench stats are keyed by.
    pub fn client_as(&self, client: &str) -> Client<E> {
        Client::new(
            client.to_string(),
            Arc::downgrade(self.engine.as_ref().expect("server not yet shut down")),
            Arc::clone(&self.shared),
            Arc::clone(&self.canceller),
        )
    }

    /// The server's flight recorder. Clone it before `shutdown` to keep the
    /// timelines past the server's life.
    pub fn flight_recorder(&self) -> FlightRecorder {
        self.shared.flight.clone()
    }

    /// Aggregate the recorder into per-client and per-lane tables,
    /// counting SLO breaches against `slo_ns` — see
    /// [`crate::flight::ServerRollup`].
    pub fn rollup(&self, slo_ns: u64) -> crate::flight::ServerRollup {
        self.shared.flight.rollup(slo_ns)
    }

    /// Stop accepting submissions, **drain** every in-flight ticket
    /// (queued jobs run to completion), then stop the workers and take the
    /// engine back — cache and all, the §5.3 swap-in story reversed.
    pub fn shutdown(mut self) -> E {
        self.drain(false);
        self.take_engine()
    }

    /// Stop accepting submissions, cancel every job that has not started
    /// (their tickets resolve to [`HmrError::ServerShutdown`]), wait only
    /// for already-running jobs, then take the engine back.
    pub fn shutdown_now(mut self) -> E {
        self.drain(true);
        self.take_engine()
    }

    /// Close admission, optionally cancel queued jobs, wait until every
    /// entry has resolved, folded and left the map, and stop the workers.
    fn drain(&mut self, cancel_queued: bool) {
        {
            let mut st = self.shared.state.lock();
            st.accepting = false;
            if cancel_queued {
                let queued: Vec<u64> = st
                    .entries
                    .iter()
                    .filter(|(_, e)| e.state == EntryState::Queued)
                    .map(|(s, _)| *s)
                    .collect();
                for seq in queued {
                    cancel_entry(
                        &mut st,
                        &self.shared.flight,
                        seq,
                        JobStatus::Cancelled,
                        HmrError::ServerShutdown(format!(
                            "job {seq} cancelled: server shutting down"
                        )),
                    );
                }
            }
            while !st.entries.is_empty() {
                self.shared.cv.wait(&mut st);
            }
            st.stop = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn take_engine(&mut self) -> E {
        // Workers are joined; the only other strong handles are transient
        // upgrades inside in-flight `submit` calls, which fail fast now
        // that `accepting` is false.
        let mut engine = self.engine.take().expect("engine already taken");
        loop {
            match Arc::try_unwrap(engine) {
                Ok(e) => return e,
                Err(again) => {
                    engine = again;
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<E: LaneEngine + Send + Sync + 'static> Drop for JobServer<E> {
    fn drop(&mut self) {
        if self.engine.is_some() {
            // Un-shutdown drop: cancel what hasn't started, finish what has.
            self.drain(true);
        }
    }
}

/// Admission-time helper: true when two footprints overlap — some path of
/// one is a prefix (or equal, or an extension) of some path of the other.
/// Reads conflict too: a shared input is a shared *cache entry*, and the
/// first reader's put must land before the second reader's lookup for the
/// serialized schedule to be reproduced.
pub(crate) fn footprints_overlap(a: &[HPath], b: &[HPath]) -> bool {
    a.iter()
        .any(|pa| b.iter().any(|pb| pa.starts_with(pb) || pb.starts_with(pa)))
}

/// Insert a fully-formed entry (submit-time, state lock held). Returns
/// the number of conflict-DAG edges the job was admitted with. An explicit
/// dependency that has already left `entries` is resolved and adds none.
#[allow(clippy::too_many_arguments)]
pub(crate) fn admit<E>(
    st: &mut SchedState<E>,
    seq: u64,
    priority: i32,
    tjob: u64,
    footprint: Vec<HPath>,
    explicit_deps: &[u64],
    run: RunFn<E>,
    ticket: Arc<TicketInner>,
) -> usize {
    let mut deps: HashSet<u64> = HashSet::new();
    for (&oseq, other) in st.entries.iter() {
        if other.resolved() {
            continue;
        }
        if explicit_deps.contains(&oseq) || footprints_overlap(&footprint, &other.footprint) {
            deps.insert(oseq);
        }
    }
    for &d in deps.iter() {
        st.entries
            .get_mut(&d)
            .expect("dep taken from entries")
            .dependents
            .push(seq);
    }
    let n_deps = deps.len();
    st.entries.insert(
        seq,
        Entry {
            seq,
            priority,
            tjob,
            footprint,
            deps,
            dependents: Vec::new(),
            state: EntryState::Queued,
            run: Some(run),
            ticket,
            fold: None,
        },
    );
    n_deps
}

/// True when a memo replay may resolve this submission at admission time
/// (state lock held): every explicit dependency is already resolved and no
/// unresolved entry's footprint overlaps the new job's — an in-flight
/// writer could still be producing its inputs or holding its output
/// directory, and a replay jumping that queue would not match any
/// serialized schedule.
pub(crate) fn memo_clear<E>(
    st: &SchedState<E>,
    footprint: &[HPath],
    explicit_deps: &[u64],
) -> bool {
    explicit_deps
        .iter()
        .all(|d| st.entries.get(d).is_none_or(|e| e.resolved()))
        && !st
            .entries
            .values()
            .any(|e| !e.resolved() && footprints_overlap(footprint, &e.footprint))
}

/// Insert an already-resolved entry for a pre-admission memo hit (submit
/// time, state lock held): the replayed job never occupies a worker lane,
/// but it still holds a seq slot so the fold cursor and the flight
/// timeline stay dense. It folds as zero — the replay already ran, in ~0
/// simulated seconds, directly on the home cluster under the admission
/// lock.
pub(crate) fn admit_memo_hit<E>(
    st: &mut SchedState<E>,
    rec: &FlightRecorder,
    seq: u64,
    footprint: Vec<HPath>,
    ticket: Arc<TicketInner>,
    result: Result<JobResult>,
) {
    st.entries.insert(
        seq,
        Entry {
            seq,
            priority: 0,
            // The replay opened its own (span-free) trace job on the home
            // cluster; a resolved entry never creates a lane, so no
            // pre-registered id is needed.
            tjob: 0,
            footprint,
            deps: HashSet::new(),
            dependents: Vec::new(),
            state: EntryState::Done,
            run: None,
            ticket: Arc::clone(&ticket),
            fold: None,
        },
    );
    let status = if result.is_ok() {
        JobStatus::Completed
    } else {
        JobStatus::Failed
    };
    rec.record_resolved(seq, status);
    ticket.resolve(status, result);
    advance_fold(st, rec);
}

/// Pick the next dispatchable job: ready (queued, no outstanding deps),
/// highest priority first, then admission order. Under exclusive mode
/// nothing dispatches while another job runs.
fn pick_ready<E>(st: &SchedState<E>, exclusive: bool) -> Option<u64> {
    if exclusive && st.running > 0 {
        return None;
    }
    st.entries
        .values()
        .filter(|e| e.state == EntryState::Queued && e.deps.is_empty())
        .max_by_key(|e| (e.priority, std::cmp::Reverse(e.seq)))
        .map(|e| e.seq)
}

/// Resolve `seq` (state lock held): publish the ticket result, release
/// dependents, and fold any completed lanes in admission order.
fn finish_entry<E>(
    st: &mut SchedState<E>,
    rec: &FlightRecorder,
    seq: u64,
    result: Result<JobResult>,
    fold: Option<(f64, MetricsSnapshot)>,
) {
    let e = st.entries.get_mut(&seq).expect("finishing a known entry");
    e.state = EntryState::Done;
    e.fold = fold;
    let status = if result.is_ok() {
        JobStatus::Completed
    } else {
        JobStatus::Failed
    };
    // Record before waking waiters: a client that returns from `wait()`
    // and immediately asks for a rollup must already see this ticket.
    rec.record_resolved(seq, status);
    e.ticket.resolve(status, result);
    release_dependents(st, rec, seq);
    advance_fold(st, rec);
}

/// Cancel a queued `seq` (state lock held). Returns false when the job
/// already started or finished (a finished job may have left `entries`
/// altogether). A failed upstream does not veto its
/// dependents — they run and surface their own errors (e.g. missing
/// input), exactly as in a serialized schedule.
fn cancel_entry<E>(
    st: &mut SchedState<E>,
    rec: &FlightRecorder,
    seq: u64,
    status: JobStatus,
    err: HmrError,
) -> bool {
    let Some(e) = st.entries.get_mut(&seq) else {
        return false;
    };
    if e.state != EntryState::Queued {
        return false;
    }
    e.state = EntryState::Cancelled;
    e.run = None;
    rec.record_resolved(seq, status);
    e.ticket.resolve(status, Err(err));
    release_dependents(st, rec, seq);
    advance_fold(st, rec);
    true
}

fn release_dependents<E>(st: &mut SchedState<E>, rec: &FlightRecorder, seq: u64) {
    let dependents = std::mem::take(
        &mut st
            .entries
            .get_mut(&seq)
            .expect("releasing a known entry")
            .dependents,
    );
    for d in dependents {
        if let Some(dep) = st.entries.get_mut(&d) {
            dep.deps.remove(&seq);
            if dep.deps.is_empty() {
                // Last conflict edge cleared: the job is ready now; any
                // further delay is worker-queue wait, not DAG wait.
                rec.record_ready(d);
            }
        }
    }
}

/// Fold completed lanes into the home cluster strictly in admission order:
/// advance every home clock uniformly by the lane's duration (serialized
/// jobs end clock-aligned, so this reproduces their clocks exactly) and
/// absorb the lane's metrics. Cancelled jobs fold as zero. A folded entry
/// has nothing left to say and is dropped — this is the one place entries
/// leave the map.
fn advance_fold<E>(st: &mut SchedState<E>, rec: &FlightRecorder) {
    while st.entries.get(&st.next_fold).is_some_and(Entry::resolved) {
        let e = st.entries.remove(&st.next_fold).expect("checked above");
        st.next_fold += 1;
        let home_before = st.home.max_time();
        if let Some((dt, snap)) = e.fold {
            for node in st.home.nodes() {
                node.clock().advance(dt);
            }
            st.home.metrics().absorb(&snap);
        }
        // The home clocks are deterministic, so `home_before`/`after` are
        // bit-identical across schedules even though `folded_ns` is not.
        rec.record_folded(e.seq, home_before, st.home.max_time());
    }
}

fn worker_loop<E: LaneEngine + Send + Sync>(
    engine: Arc<E>,
    shared: Arc<Shared<E>>,
    lane_idx: usize,
) {
    loop {
        let (seq, tjob, run) = {
            let mut st = shared.state.lock();
            let seq = loop {
                if let Some(seq) = pick_ready(&st, engine.exclusive_only()) {
                    break seq;
                }
                if st.stop {
                    return;
                }
                shared.cv.wait(&mut st);
            };
            let e = st.entries.get_mut(&seq).expect("picked a known entry");
            e.state = EntryState::Running;
            e.ticket.set_running();
            let run = e.run.take().expect("queued entry has its body");
            let tjob = e.tjob;
            st.running += 1;
            shared.flight.record_dispatched(seq, lane_idx);
            (seq, tjob, run)
        };
        // Other workers dispatch freely while this lane runs.
        let lane = engine.home().job_lane(tjob);
        shared.flight.record_lane_start(seq);
        let result = match catch_unwind(AssertUnwindSafe(|| run(&engine, &lane))) {
            Ok(r) => r,
            Err(payload) => Err(HmrError::Io(format!(
                "job {seq} panicked: {}",
                panic_text(&*payload)
            ))),
        };
        let lane_sim = lane.max_time();
        shared.flight.record_lane_done(seq, lane_sim);
        let fold = Some((lane_sim, lane.metrics().snapshot()));
        {
            let mut st = shared.state.lock();
            st.running -= 1;
            finish_entry(&mut st, &shared.flight, seq, result, fold);
        }
        shared.cv.notify_all();
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_overlap_is_prefix_based_both_ways() {
        let a = vec![HPath::new("/data/in")];
        let b = vec![HPath::new("/data/in/part-00000")];
        let c = vec![HPath::new("/data/index")];
        assert!(footprints_overlap(&a, &b));
        assert!(footprints_overlap(&b, &a));
        assert!(!footprints_overlap(&a, &c));
        assert!(!footprints_overlap(&a, &[]));
    }
}
