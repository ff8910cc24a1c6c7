//! Task waves: inline on the place thread, or on scoped worker threads.
//!
//! Both engines execute tasks in slot-sized waves: every task in a wave
//! runs against its own scratch clock, and the node's real clock advances
//! by the *maximum* scratch time (the tasks are concurrent in simulated
//! time). [`run_wave`] can make the wall-clock execution match the model by
//! running the tasks on scoped threads, one thread-local [`Meter`] per task
//! — but a thread costs tens of microseconds to spawn and join, which a
//! small job's tasks never earn back. [`on_workers`] decides, per wave, from
//! what the engine can observe before the wave runs.
//!
//! Determinism contract: because each task bills only its own scratch
//! clock, per-task charge sums are independent of interleaving, and the
//! f64 `max` folded over scratch clocks is order-independent, simulated
//! seconds are bit-identical whichever path a wave takes. A task's counters
//! go to its scratch node's own ledger, which [`traced_wave`] publishes into
//! the cluster's metrics in task order; they are integers, so the totals
//! are exact. Results are returned in task order either way, so callers can
//! perform any order-sensitive post-processing (e.g. shuffle-stream
//! serialization) deterministically after the join.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::cluster::{Cluster, Node, NodeId};
use crate::meter::{with_meter, Meter};

/// Whether an engine's waves may leave the place thread (the one wave
/// field of `M3ROptions` / `EngineOptions`). Wall-clock only: simulated
/// seconds, outputs and counters are bit-identical in all three modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Workers {
    /// Every wave runs inline on the place thread — the forced-serial
    /// reference the bit-identity suites compare against.
    Never,
    /// [`on_workers`] decides per wave from the job's input size, the
    /// wave's task count and the machine's cores.
    #[default]
    Auto,
    /// Every multi-task wave runs on worker threads, however small — lets
    /// the bit-identity suites force the threaded path on tiny inputs.
    Always,
}

/// The smallest job input, in bytes, whose waves [`Workers::Auto`] sends to
/// worker threads. Below it a wave's whole record work is cheaper than the
/// spawn + join of its threads; DESIGN.md "Concurrency model" has the
/// job-size sweep this is read from.
pub const WORKERS_MIN_JOB_BYTES: u64 = 512 << 10;

/// Should a wave of `tasks_in_wave` tasks, in a job reading
/// `job_input_bytes`, run on worker threads on a machine with `cores`
/// cores? The one place the path is chosen, and a pure function of its
/// arguments. A single task never needs a second thread; `Auto` also stays
/// inline on one core (nothing can overlap) and below
/// [`WORKERS_MIN_JOB_BYTES`].
pub fn on_workers(mode: Workers, tasks_in_wave: usize, job_input_bytes: u64, cores: usize) -> bool {
    tasks_in_wave > 1
        && match mode {
            Workers::Never => false,
            Workers::Always => true,
            Workers::Auto => cores > 1 && job_input_bytes >= WORKERS_MIN_JOB_BYTES,
        }
}

/// `std::thread::available_parallelism`, read once per process (it is a
/// syscall, and honours the affinity mask the process started under).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many waves took each path — a wall-clock fact about this machine
/// (it depends on the core count), so it lives beside the cluster's
/// telemetry and outside `Metrics`, counters and job results. Shared by a
/// cluster and its job lanes.
#[derive(Debug, Default)]
pub struct WavePaths {
    inline: AtomicU64,
    workers: AtomicU64,
}

impl WavePaths {
    /// Waves run inline on the place thread so far.
    pub fn inline(&self) -> u64 {
        self.inline.load(Ordering::Relaxed)
    }

    /// Waves run on worker threads so far.
    pub fn workers(&self) -> u64 {
        self.workers.load(Ordering::Relaxed)
    }

    fn note(&self, on_workers: bool) {
        let path = if on_workers { &self.workers } else { &self.inline };
        path.fetch_add(1, Ordering::Relaxed);
    }

    /// Export both counts as `m3r_wave_path_total{path}`.
    pub(crate) fn publish_telemetry(self: &Arc<Self>, registry: &crate::TelemetryRegistry) {
        use crate::telemetry::{Family, Kind};
        let me = Arc::clone(self);
        registry.register(
            "wave_path",
            Arc::new(move || {
                let mut f = Family::new(
                    Kind::Counter,
                    "m3r_wave_path_total",
                    "task waves by where they ran: inline on the place thread or on worker threads",
                );
                f.sample(&[("path", "inline")], me.inline() as f64);
                f.sample(&[("path", "workers")], me.workers() as f64);
                vec![f]
            }),
        );
    }
}

/// Run one wave of simulated tasks, task *i* under a [`Meter`] on
/// `scratches[i]` (one [`Cluster::scratch_node`] per task): sequentially on
/// the calling thread, or — with `on_workers` — concurrently: the calling
/// thread runs the first task itself and every other task gets a
/// `std::thread::scope` thread. Returns the task results **in task order**,
/// so the caller can apply further metered work per task, then fold the
/// wave duration via [`wave_duration`] and [`Cluster::publish`] each
/// scratch node's ledger.
///
/// A panicking task is resumed on the calling thread after the whole wave
/// has joined — the lowest-index panic when several tasks panic.
pub fn run_wave<T, R, F>(scratches: &[Node], on_workers: bool, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert_eq!(scratches.len(), tasks.len(), "one scratch node per task");
    let run = |(task, scratch): (T, &Node)| with_meter(Meter::new(scratch.clone()), || f(task));
    let mut work = tasks.into_iter().zip(scratches);
    if on_workers {
        std::thread::scope(|scope| {
            let first = work.next();
            let run = &run;
            let spawned: Vec<_> = work.map(|w| scope.spawn(move || run(w))).collect();
            // The place thread is a worker too. Should its task panic, the
            // scope joins the others before unwinding further, and task 0's
            // is the lowest-index panic by construction.
            let first = first.map(run);
            let rest = spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)));
            first.into_iter().chain(rest).collect()
        })
    } else {
        work.map(run).collect()
    }
}

/// Simulated duration of a wave: the latest scratch clock — "a node
/// advances by the max of its tasks' durations".
pub fn wave_duration(scratches: &[Node]) -> f64 {
    scratches
        .iter()
        .map(|s| s.clock().now())
        .fold(0.0, f64::max)
}

/// One traced task wave at `place` — the loop every phase of both engines
/// runs. [`on_workers`] picks the wave's path from `workers`, the task
/// count, `job_input_bytes` (the job's split bytes; `u64::MAX` when it
/// planned no splits) and the machine's cores, and the choice is counted on
/// the cluster ([`Cluster::wave_paths`]). Each task runs under its own
/// scratch meter ([`run_wave`]); then, on the calling thread and **in task
/// order**, the spans buffered on the task's scratch node are rebased onto
/// the place's clock as of wave start and its result goes to `fold` with
/// the task's scratch meter re-installed, so order-sensitive follow-up work
/// (shuffle-stream serialization, combine-table absorption) bills the task
/// exactly as if it had done it inline; spans `fold` records are rebased
/// the same way.
/// Then every task's ledger is published into [`Cluster::metrics`] in task
/// order ([`Cluster::publish`]), the place clock advances by the slowest
/// task ([`wave_duration`]) and the place's arena ([`Cluster::arena`]) is
/// trimmed to its retention cap. The first task or fold error ends the wave
/// there and is returned: every ledger is still published, the clock stays
/// put, the arena is still trimmed, and the failing fold's spans are
/// dropped with the scratch node that holds them. A panicking task or fold
/// is resumed after every ledger is published.
///
/// `task` and `fold` are generic closures: nothing on the per-task path is
/// boxed or dynamically dispatched.
#[allow(clippy::too_many_arguments)]
pub fn traced_wave<T, R, E>(
    cluster: &Cluster,
    place: NodeId,
    job: u64,
    workers: Workers,
    job_input_bytes: u64,
    tasks: Vec<T>,
    task: impl Fn(T) -> Result<R, E> + Sync,
    mut fold: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send,
    R: Send,
    E: Send,
{
    let node = cluster.node(place);
    // Scratch clocks start at zero: spans recorded during the wave are
    // wave-relative and rebase onto the place clock as of wave start.
    let wave_base = node.clock().now();
    let threaded = on_workers(workers, tasks.len(), job_input_bytes, cores());
    cluster.wave_paths().note(threaded);
    let scratches: Vec<Node> = tasks.iter().map(|_| cluster.scratch_node(place)).collect();
    let rebase = |scratch: &Node| {
        cluster
            .trace()
            .record_rebased(job, place, wave_base, scratch.take_spans());
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let results = run_wave(&scratches, threaded, tasks, task);
        results
            .into_iter()
            .zip(&scratches)
            .try_for_each(|(result, scratch)| {
                rebase(scratch);
                with_meter(Meter::new(scratch.clone()), || fold(result?))?;
                rebase(scratch);
                Ok(())
            })
    }));
    // However the wave ended, the cluster's counters hold everything its
    // tasks billed — what they would hold had every charge gone there.
    for scratch in &scratches {
        cluster.publish(scratch);
    }
    let outcome = outcome.unwrap_or_else(|payload| resume_unwind(payload));
    if outcome.is_ok() {
        node.clock().advance(wave_duration(&scratches));
    }
    cluster.arena(place).end_wave();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Charge, CostModel};
    use crate::meter;
    use crate::trace::{self, Phase};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    /// Wave sizes every equivalence below runs at: the caller-run task
    /// alone, one spawned thread beside it, and a full wave.
    const WAVE_SIZES: [usize; 3] = [1, 2, 8];

    /// [`run_wave`] at `place` on fresh scratch nodes, each published
    /// afterwards.
    fn wave<T: Send, R: Send>(
        cluster: &Cluster,
        place: NodeId,
        on_workers: bool,
        tasks: Vec<T>,
        f: impl Fn(T) -> R + Sync,
    ) -> (Vec<R>, Vec<Node>) {
        let scratches: Vec<Node> = tasks.iter().map(|_| cluster.scratch_node(place)).collect();
        let results = run_wave(&scratches, on_workers, tasks, f);
        for scratch in &scratches {
            cluster.publish(scratch);
        }
        (results, scratches)
    }

    fn charges_of(task: usize) -> u64 {
        (task as u64 + 1) * 1000
    }

    fn run(on_workers: bool, n: usize) -> (Vec<usize>, f64, u64) {
        let cluster = Cluster::new(2, CostModel::default());
        let tasks: Vec<usize> = (0..n).collect();
        let (results, scratches) = wave(&cluster, 1, on_workers, tasks, |t| {
            meter::charge(Charge::DiskRead {
                bytes: charges_of(t),
            });
            t
        });
        let dur = wave_duration(&scratches);
        (results, dur, cluster.metrics().disk_bytes_read())
    }

    #[test]
    fn on_workers_is_a_pure_function_of_its_arguments() {
        const MIN: u64 = WORKERS_MIN_JOB_BYTES;
        for tasks in [0, 1, 2, 8] {
            for bytes in [0, 1, MIN - 1, MIN, MIN + 1, u64::MAX] {
                for cores in [1, 2, 64] {
                    let many = tasks > 1;
                    let at = |mode| on_workers(mode, tasks, bytes, cores);
                    assert!(!at(Workers::Never), "Never is always inline");
                    assert_eq!(at(Workers::Always), many, "Always ignores bytes and cores");
                    assert_eq!(
                        at(Workers::Auto),
                        many && cores > 1 && bytes >= MIN,
                        "Auto({tasks} tasks, {bytes} B, {cores} cores)"
                    );
                    assert_eq!(at(Workers::Auto), at(Workers::Auto), "same answer when asked twice");
                }
            }
        }
        assert_eq!(Workers::default(), Workers::Auto);
    }

    #[test]
    fn results_stay_in_task_order() {
        for n in WAVE_SIZES {
            let (r, _, _) = run(true, n);
            assert_eq!(r, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_and_serial_agree_bit_for_bit() {
        for n in WAVE_SIZES {
            let (rs, ds, bs) = run(false, n);
            let (rp, dp, bp) = run(true, n);
            assert_eq!(rs, rp);
            assert_eq!(ds.to_bits(), dp.to_bits(), "wave duration must be identical");
            assert_eq!(bs, bp, "metrics must be identical");
        }
    }

    #[test]
    fn each_task_bills_its_own_scratch() {
        let cluster = Cluster::new(1, CostModel::default());
        let (_, scratches) = wave(&cluster, 0, true, vec![0usize, 1], |t| {
            if t == 1 {
                meter::charge(Charge::DiskRead { bytes: 1 << 20 });
            }
        });
        assert_eq!(scratches[0].clock().now(), 0.0);
        assert!(scratches[1].clock().now() > 0.0);
        // The real node's clock is untouched until the caller folds.
        assert_eq!(cluster.node(0).clock().now(), 0.0);
    }

    #[test]
    fn empty_wave_is_a_noop() {
        let cluster = Cluster::new(1, CostModel::default());
        let (r, s) = wave(&cluster, 0, true, Vec::<usize>::new(), |t| t);
        assert!(r.is_empty());
        assert_eq!(wave_duration(&s), 0.0);
    }

    #[test]
    fn the_calling_thread_runs_the_first_task_beside_the_spawned_ones() {
        let cluster = Cluster::new(1, CostModel::default());
        let caller = std::thread::current().id();
        // Every task waits for all four: the wave deadlocks unless the
        // caller's task runs while the three spawned ones do.
        let all_running = Barrier::new(4);
        let (ran_on, _) = wave(&cluster, 0, true, (0..4).collect(), |_: usize| {
            all_running.wait();
            std::thread::current().id()
        });
        assert_eq!(ran_on[0], caller);
        assert!(ran_on[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn the_lowest_index_panic_is_resumed_after_every_thread_has_joined() {
        // Task 0 is the caller-run task; every other task is spawned.
        for panicking in [[0usize, 2], [1, 3]] {
            let cluster = Cluster::new(1, CostModel::default());
            let all_running = Barrier::new(4);
            let finished = AtomicU64::new(0);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                wave(&cluster, 0, true, (0..4usize).collect(), |t| {
                    all_running.wait();
                    if panicking.contains(&t) {
                        panic!("task {t}");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }))
            .expect_err("the wave must panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("task {}", panicking[0]).as_str())
            );
            assert_eq!(finished.load(Ordering::SeqCst), 2, "the surviving tasks ran to the end");
        }
    }

    /// A span reduced to what must not depend on the thread schedule.
    type SpanBits = (Phase, Option<u64>, u64, u64);

    /// Everything a traced wave leaves behind that the simulation can see:
    /// place clock, serialized bytes, spans, fold order.
    fn traced(workers: Workers, n: usize) -> (f64, u64, Vec<SpanBits>, Vec<usize>) {
        let cluster = Cluster::new(2, CostModel::default());
        cluster.trace().enable();
        let job = cluster.trace().begin_job("wave");
        // The place is mid-job: spans must land after this point.
        cluster.node(1).charge(Charge::DiskRead { bytes: 1 << 20 });
        let base = cluster.node(1).clock().now();
        let mut folded = Vec::new();
        traced_wave(
            &cluster,
            1,
            job,
            workers,
            0,
            (0..n).collect(),
            |t| -> Result<usize, ()> {
                trace::span(Phase::Map, "map", Some(t as u64), || {
                    meter::charge(Charge::DiskRead {
                        bytes: charges_of(t),
                    });
                });
                Ok(t)
            },
            |t| {
                trace::span(Phase::Shuffle, "serialize", Some(t as u64), || {
                    meter::charge(Charge::Serialize {
                        bytes: charges_of(t),
                    });
                });
                folded.push(t);
                Ok(())
            },
        )
        .unwrap();
        let threaded = workers == Workers::Always && n > 1;
        assert_eq!(
            (cluster.wave_paths().inline(), cluster.wave_paths().workers()),
            if threaded { (0, 1) } else { (1, 0) },
            "the wave's path is counted once"
        );
        let mut spans: Vec<_> = cluster
            .trace()
            .spans()
            .into_iter()
            .map(|s| {
                assert_eq!((s.job, s.place), (job, 1));
                assert!(s.start >= base, "rebased onto the place clock");
                (s.phase, s.task, s.start.to_bits(), s.end.to_bits())
            })
            .collect();
        spans.sort_by_key(|s| (s.1, s.2));
        (
            cluster.node(1).clock().now(),
            cluster.metrics().ser_bytes(),
            spans,
            folded,
        )
    }

    #[test]
    fn traced_wave_is_bit_equal_serial_vs_parallel() {
        for n in WAVE_SIZES {
            let (clock_s, ser_s, spans_s, folded_s) = traced(Workers::Never, n);
            let (clock_p, ser_p, spans_p, folded_p) = traced(Workers::Always, n);
            assert_eq!(clock_s.to_bits(), clock_p.to_bits(), "clock fold");
            assert_eq!(ser_s, ser_p, "fold-callback charges");
            assert_eq!(spans_s, spans_p, "rebased spans");
            assert_eq!(folded_s, (0..n).collect::<Vec<_>>(), "fold runs in task order");
            assert_eq!(folded_s, folded_p);
            // One task span + one fold span per task, the fold span starting
            // where its task's own work ended (same scratch clock).
            assert_eq!(spans_s.len(), 2 * n);
            for pair in spans_s.chunks(2) {
                assert_eq!((pair[0].0, pair[1].0), (Phase::Map, Phase::Shuffle));
                assert_eq!(pair[0].3, pair[1].2);
            }
        }
    }

    #[test]
    fn wave_paths_export_as_one_counter_family() {
        let cluster = Cluster::new(1, CostModel::default());
        let lane = cluster.job_lane(1);
        for (on, tasks) in [(&cluster, 2usize), (&lane, 2), (&lane, 1)] {
            let tasks = (0..tasks).collect();
            traced_wave(on, 0, 0, Workers::Always, 0, tasks, Ok::<usize, ()>, |_| Ok(()))
                .unwrap();
        }
        let text = cluster.telemetry().prometheus_text();
        assert!(text.contains("# TYPE m3r_wave_path_total counter\n"));
        assert!(text.contains("m3r_wave_path_total{path=\"inline\"} 1\n"), "{text}");
        assert!(text.contains("m3r_wave_path_total{path=\"workers\"} 2\n"), "lanes share the count");
    }

    #[test]
    fn traced_wave_stops_at_the_first_error() {
        // Task 0 fails on the calling thread, task 1 on a spawned one.
        for failing in [0usize, 1] {
            let cluster = Cluster::new(1, CostModel::default());
            let mut folded = Vec::new();
            let r = traced_wave(
                &cluster,
                0,
                0,
                Workers::Always,
                0,
                    vec![0usize, 1, 2],
                |t| if t == failing { Err("boom") } else { Ok(t) },
                |t| {
                    folded.push(t);
                    Ok(())
                },
            );
            assert_eq!(r, Err("boom"));
            let before: Vec<usize> = (0..failing).collect();
            assert_eq!(folded, before, "only results before the failure fold");
            assert_eq!(cluster.node(0).clock().now(), 0.0, "a failed wave leaves the clock");
        }

        // A fold that fails *after* closing a span must not leave that span
        // for the next wave to adopt.
        let cluster = Cluster::new(1, CostModel::default());
        cluster.trace().enable();
        let fold_span = |t: usize| {
            trace::span(Phase::Shuffle, "serialize", Some(t as u64), || {
                meter::charge(Charge::Serialize { bytes: 1000 });
            })
        };
        let failed = cluster.trace().begin_job("fold fails");
        let r = traced_wave(
            &cluster,
            0,
            failed,
            Workers::Never,
            0,
            vec![0usize, 1],
            Ok,
            |t| {
                fold_span(t);
                if t == 1 { Err("fold boom") } else { Ok(()) }
            },
        );
        assert_eq!(r, Err("fold boom"));
        let next = cluster.trace().begin_job("next");
        traced_wave(&cluster, 0, next, Workers::Never, 0, vec![7usize], Ok, |t| {
            fold_span(t);
            Ok::<(), &str>(())
        })
        .unwrap();
        let by_job = |job| -> Vec<Option<u64>> {
            let spans = cluster.trace().spans();
            spans.iter().filter(|s| s.job == job).map(|s| s.task).collect()
        };
        assert_eq!(by_job(failed), vec![Some(0)], "the failing fold's span is discarded");
        assert_eq!(by_job(next), vec![Some(7)], "the next wave records only its own spans");
    }

    #[test]
    fn every_ledger_is_published_however_the_wave_ends() {
        // Every task bills 1 allocation and every fold 10. Task 1 fails
        // (after the fold of task 0), or the last task panics (before any
        // fold; inline, an earlier panic would stop the tasks after it).
        for (panics, allocs) in [(false, 13), (true, 3)] {
            for workers in [Workers::Never, Workers::Always] {
                let cluster = Cluster::new(1, CostModel::default());
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    traced_wave(
                        &cluster,
                        0,
                        0,
                        workers,
                        0,
                        vec![0usize, 1, 2],
                        |t| {
                            meter::charge(Charge::Alloc { objects: 1 });
                            match t {
                                2 if panics => panic!("task 2"),
                                1 if !panics => Err("boom"),
                                _ => Ok(t),
                            }
                        },
                        |_| {
                            meter::charge(Charge::Alloc { objects: 10 });
                            Ok(())
                        },
                    )
                }));
                assert_eq!(cluster.metrics().allocs(), allocs, "panics {panics}, {workers:?}");
            }
        }
    }
}
