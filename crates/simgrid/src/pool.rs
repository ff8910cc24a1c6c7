//! Scoped worker pool for intra-node task waves.
//!
//! Both engines execute tasks in slot-sized waves: every task in a wave
//! runs against its own scratch clock, and the node's real clock advances
//! by the *maximum* scratch time (the tasks are concurrent in simulated
//! time). Historically the tasks themselves ran sequentially on the place's
//! OS thread; [`run_wave`] makes the wall-clock execution match the model
//! by running them on scoped threads, one thread-local [`Meter`] per task.
//!
//! Determinism contract: because each task bills only its own scratch
//! clock, per-task charge sums are independent of interleaving, and the
//! f64 `max` folded over scratch clocks is order-independent, simulated
//! seconds are bit-identical whether `parallel` is true or false. Results
//! are returned in task order either way, so callers can perform any
//! order-sensitive post-processing (e.g. shuffle-stream serialization)
//! deterministically after the join.

use crate::arena::Arena;
use crate::cluster::{Cluster, Node, NodeId};
use crate::meter::{with_meter, Meter};

/// Run one wave of simulated tasks at `place`, each under its own scratch
/// [`Meter`]. With `parallel` set (and more than one task) the tasks run
/// concurrently on `std::thread::scope` threads; otherwise sequentially on
/// the calling thread. Returns the task results **in task order** together
/// with the scratch nodes, so the caller can apply further metered work per
/// task and then fold the wave duration via [`wave_duration`].
///
/// A panicking task is resumed on the calling thread after the whole wave
/// joins, mirroring the sequential behaviour closely enough for tests.
pub fn run_wave<T, R, F>(
    cluster: &Cluster,
    place: NodeId,
    parallel: bool,
    tasks: Vec<T>,
    f: F,
) -> (Vec<R>, Vec<Node>)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let scratches: Vec<Node> = tasks.iter().map(|_| cluster.scratch_node(place)).collect();
    let results: Vec<R> = if parallel && tasks.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .zip(scratches.iter())
                .map(|(task, scratch)| {
                    let scratch = scratch.clone();
                    let f = &f;
                    scope.spawn(move || with_meter(Meter::new(scratch), || f(task)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    } else {
        tasks
            .into_iter()
            .zip(scratches.iter())
            .map(|(task, scratch)| with_meter(Meter::new(scratch.clone()), || f(task)))
            .collect()
    };
    (results, scratches)
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
/// runs. Each task runs under its own scratch meter ([`run_wave`]); then,
/// on the calling thread and **in task order**, the spans buffered on the
/// task's scratch node are rebased onto the place's clock as of wave start
/// and its result goes to `fold` with the task's scratch meter
/// re-installed, so order-sensitive follow-up work (shuffle-stream
/// serialization, combine-table absorption) bills the task exactly as if
/// it had done it inline; spans `fold` records are rebased the same way.
/// Finally the place clock advances by the slowest task
/// ([`wave_duration`]) and `arena` is trimmed to its retention cap. The
/// first task or fold error ends the wave there and is returned: the clock
/// stays put, the arena is still trimmed, and the failing fold's spans are
/// dropped with the scratch node that holds them.
///
/// `task` and `fold` are generic closures: nothing on the per-task path is
/// boxed or dynamically dispatched.
#[allow(clippy::too_many_arguments)]
pub fn traced_wave<T, R, E>(
    cluster: &Cluster,
    place: NodeId,
    job: u64,
    parallel: bool,
    arena: &Arena,
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
    let (results, scratches) = run_wave(cluster, place, parallel, tasks, task);
    let rebase = |scratch: &Node| {
        cluster
            .trace()
            .record_rebased(job, place, wave_base, scratch.take_spans());
    };
    let outcome = results
        .into_iter()
        .zip(&scratches)
        .try_for_each(|(result, scratch)| {
            rebase(scratch);
            with_meter(Meter::new(scratch.clone()), || fold(result?))?;
            rebase(scratch);
            Ok(())
        });
    if outcome.is_ok() {
        node.clock().advance(wave_duration(&scratches));
    }
    arena.end_wave();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Charge, CostModel};
    use crate::meter;
    use crate::trace::{self, Phase};

    fn charges_of(task: usize) -> u64 {
        (task as u64 + 1) * 1000
    }

    fn run(parallel: bool) -> (Vec<usize>, f64, u64) {
        let cluster = Cluster::new(2, CostModel::default());
        let tasks: Vec<usize> = (0..8).collect();
        let (results, scratches) = run_wave(&cluster, 1, parallel, tasks, |t| {
            meter::charge(Charge::DiskRead {
                bytes: charges_of(t),
            });
            t
        });
        let dur = wave_duration(&scratches);
        (results, dur, cluster.metrics().disk_bytes_read())
    }

    #[test]
    fn results_stay_in_task_order() {
        let (r, _, _) = run(true);
        assert_eq!(r, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_and_serial_agree_bit_for_bit() {
        let (rs, ds, bs) = run(false);
        let (rp, dp, bp) = run(true);
        assert_eq!(rs, rp);
        assert_eq!(ds.to_bits(), dp.to_bits(), "wave duration must be identical");
        assert_eq!(bs, bp, "metrics must be identical");
    }

    #[test]
    fn each_task_bills_its_own_scratch() {
        let cluster = Cluster::new(1, CostModel::default());
        let (_, scratches) = run_wave(&cluster, 0, true, vec![0usize, 1], |t| {
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
        let (r, s) = run_wave(&cluster, 0, true, Vec::<usize>::new(), |t| t);
        assert!(r.is_empty());
        assert_eq!(wave_duration(&s), 0.0);
    }

    /// A span reduced to what must not depend on the thread schedule.
    type SpanBits = (Phase, Option<u64>, u64, u64);

    /// Everything a traced wave leaves behind that the simulation can see:
    /// place clock, serialized bytes, spans, fold order.
    fn traced(parallel: bool) -> (f64, u64, Vec<SpanBits>, Vec<usize>) {
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
            parallel,
            &Arena::new(),
            (0..6usize).collect(),
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
        let (clock_s, ser_s, spans_s, folded_s) = traced(false);
        let (clock_p, ser_p, spans_p, folded_p) = traced(true);
        assert_eq!(clock_s.to_bits(), clock_p.to_bits(), "clock fold");
        assert_eq!(ser_s, ser_p, "fold-callback charges");
        assert_eq!(spans_s, spans_p, "rebased spans");
        assert_eq!(folded_s, (0..6).collect::<Vec<_>>(), "fold runs in task order");
        assert_eq!(folded_s, folded_p);
        // 6 task spans + 6 fold spans, the fold span starting where its
        // task's own work ended (same scratch clock).
        assert_eq!(spans_s.len(), 12);
        for pair in spans_s.chunks(2) {
            assert_eq!((pair[0].0, pair[1].0), (Phase::Map, Phase::Shuffle));
            assert_eq!(pair[0].3, pair[1].2);
        }
    }

    #[test]
    fn traced_wave_stops_at_the_first_error() {
        let cluster = Cluster::new(1, CostModel::default());
        let mut folded = Vec::new();
        let r = traced_wave(
            &cluster,
            0,
            0,
            true,
            &Arena::new(),
            vec![0usize, 1, 2],
            |t| if t == 1 { Err("boom") } else { Ok(t) },
            |t| {
                folded.push(t);
                Ok(())
            },
        );
        assert_eq!(r, Err("boom"));
        assert_eq!(folded, vec![0], "results before the failure still fold");

        // A fold that fails *after* closing a span must not leave that span
        // for the next wave to adopt.
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
            false,
            &Arena::new(),
            vec![0usize, 1],
            Ok,
            |t| {
                fold_span(t);
                if t == 1 { Err("fold boom") } else { Ok(()) }
            },
        );
        assert_eq!(r, Err("fold boom"));
        let next = cluster.trace().begin_job("next");
        traced_wave(&cluster, 0, next, false, &Arena::new(), vec![7usize], Ok, |t| {
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
}
