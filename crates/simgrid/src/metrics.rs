//! Aggregate metrics: what an engine did, not just how long it took.
//!
//! Tests in higher crates assert on these counters to verify the paper's
//! qualitative claims directly — e.g. "in M3R the second iteration performs
//! no disk reads" or "with partition stability, 0% remote shuffle moves zero
//! bytes over the network".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::Charge;

/// Thread-safe counters of simulated work. `Clone` is shallow: clones share
/// the same underlying counters.
///
/// Two families of counters live here:
///
/// * **Simulated-work counters** (disk/net/ser/… through `job_submits`) —
///   deterministic consequences of the cost model, exported via
///   [`Metrics::snapshot`] and compared bit-for-bit in equivalence tests.
/// * **Pool effectiveness counters** (`pool_hits` / `pool_misses`) —
///   wall-clock artifacts of buffer recycling that legitimately differ
///   between serial and parallel runs. They are deliberately **not** part
///   of [`MetricsSnapshot`]; they surface instead in the trace reports
///   (`crate::trace` and the `m3r-bench` `report` binary), which derive a
///   hit rate from them.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

/// Single source of truth for every counter: one list expands to the
/// storage struct, the public getters, and `counter_cells` — which
/// [`Metrics::reset`] and the drift unit test iterate. A counter added
/// here is automatically reset; a counter added anywhere else cannot
/// exist, because this macro *is* the struct definition.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        #[derive(Debug, Default)]
        struct MetricsInner {
            $($(#[$doc])* $field: AtomicU64,)*
        }

        impl Metrics {
            $(
                #[doc = concat!("Total `", stringify!($field), "` recorded so far.")]
                pub fn $field(&self) -> u64 {
                    self.inner.$field.load(Ordering::Relaxed)
                }
            )*

            /// Every counter cell with its name, in declaration order.
            fn counter_cells(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![$((stringify!($field), &self.inner.$field)),*]
            }
        }
    };
}

counters! {
    disk_bytes_read,
    disk_bytes_written,
    net_bytes,
    ser_bytes,
    deser_bytes,
    clone_bytes,
    allocs,
    records_sorted,
    task_startups,
    heartbeats,
    barriers,
    job_submits,
    /// Buffer-pool requests served by a recycled buffer. NOT part of
    /// `MetricsSnapshot`: snapshots are compared bit-for-bit in equivalence
    /// tests (pool on vs off, serial vs parallel), and pool hit rates are a
    /// wall-clock artifact that legitimately differs between those runs.
    /// Reported (with the derived hit rate) by the trace report instead.
    pool_hits,
    /// Buffer-pool requests that needed a fresh allocation. See
    /// `pool_hits` for why this stays outside the snapshot.
    pool_misses,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter `charge` adds to, and by how much (`None` for
    /// [`Charge::Compute`], which counts nothing).
    #[inline]
    fn cell(&self, charge: Charge) -> Option<(&AtomicU64, u64)> {
        let i = &*self.inner;
        Some(match charge {
            Charge::DiskRead { bytes } => (&i.disk_bytes_read, bytes),
            Charge::DiskWrite { bytes } => (&i.disk_bytes_written, bytes),
            Charge::NetTransfer { bytes } => (&i.net_bytes, bytes),
            Charge::Serialize { bytes } => (&i.ser_bytes, bytes),
            Charge::Deserialize { bytes } => (&i.deser_bytes, bytes),
            Charge::Clone { bytes } => (&i.clone_bytes, bytes),
            Charge::Alloc { objects } => (&i.allocs, objects),
            Charge::Sort { records } => (&i.records_sorted, records),
            Charge::TaskStartup => (&i.task_startups, 1),
            Charge::Heartbeat => (&i.heartbeats, 1),
            Charge::JobSubmit => (&i.job_submits, 1),
            Charge::Barrier => (&i.barriers, 1),
            Charge::Compute { .. } => return None,
        })
    }

    /// Record the side effects of a charge. Safe against concurrent
    /// recording into the same counters.
    #[inline]
    pub fn record(&self, charge: Charge) {
        if let Some((cell, n)) = self.cell(charge) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// [`Metrics::record`] into counters nobody else writes meanwhile (a
    /// task's own ledger): a load and a store, no read-modify-write.
    #[inline]
    pub(crate) fn record_unshared(&self, charge: Charge) {
        if let Some((cell, n)) = self.cell(charge) {
            cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    /// Count one buffer-pool request: `hit` when a recycled buffer was
    /// handed out, miss when a fresh allocation was needed.
    pub fn record_pool_request(&self, hit: bool) {
        let ctr = if hit {
            &self.inner.pool_hits
        } else {
            &self.inner.pool_misses
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Reset every counter to zero. Iterates the macro-generated
    /// `counter_cells` list — the same single source the getters come from
    /// — so a newly added counter can never drift out of reset.
    pub fn reset(&self) {
        for (_, cell) in self.counter_cells() {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Fold a snapshot's counters into this sink. The job server uses this
    /// to merge a completed job lane's metrics back into the home cluster —
    /// always in admission order, so totals stay deterministic.
    pub fn absorb(&self, s: &MetricsSnapshot) {
        let i = &*self.inner;
        i.disk_bytes_read.fetch_add(s.disk_bytes_read, Ordering::Relaxed);
        i.disk_bytes_written
            .fetch_add(s.disk_bytes_written, Ordering::Relaxed);
        i.net_bytes.fetch_add(s.net_bytes, Ordering::Relaxed);
        i.ser_bytes.fetch_add(s.ser_bytes, Ordering::Relaxed);
        i.deser_bytes.fetch_add(s.deser_bytes, Ordering::Relaxed);
        i.clone_bytes.fetch_add(s.clone_bytes, Ordering::Relaxed);
        i.allocs.fetch_add(s.allocs, Ordering::Relaxed);
        i.records_sorted.fetch_add(s.records_sorted, Ordering::Relaxed);
        i.task_startups.fetch_add(s.task_startups, Ordering::Relaxed);
        i.heartbeats.fetch_add(s.heartbeats, Ordering::Relaxed);
        i.barriers.fetch_add(s.barriers, Ordering::Relaxed);
        i.job_submits.fetch_add(s.job_submits, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters, for diffing across job phases.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            disk_bytes_read: self.disk_bytes_read(),
            disk_bytes_written: self.disk_bytes_written(),
            net_bytes: self.net_bytes(),
            ser_bytes: self.ser_bytes(),
            deser_bytes: self.deser_bytes(),
            clone_bytes: self.clone_bytes(),
            allocs: self.allocs(),
            records_sorted: self.records_sorted(),
            task_startups: self.task_startups(),
            heartbeats: self.heartbeats(),
            barriers: self.barriers(),
            job_submits: self.job_submits(),
        }
    }
}

/// An immutable copy of [`Metrics`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
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
    /// Bytes deep-cloned (the `ImmutableOutput` tax).
    pub clone_bytes: u64,
    /// Objects allocated (GC-churn model).
    pub allocs: u64,
    /// Records comparison-sorted.
    pub records_sorted: u64,
    /// Task attempts started (each a fresh JVM under Hadoop).
    pub task_startups: u64,
    /// Jobtracker heartbeat rounds.
    pub heartbeats: u64,
    /// Fast in-memory barriers (M3R coordination).
    pub barriers: u64,
    /// Job submissions.
    pub job_submits: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            disk_bytes_read: self.disk_bytes_read.saturating_sub(earlier.disk_bytes_read),
            disk_bytes_written: self
                .disk_bytes_written
                .saturating_sub(earlier.disk_bytes_written),
            net_bytes: self.net_bytes.saturating_sub(earlier.net_bytes),
            ser_bytes: self.ser_bytes.saturating_sub(earlier.ser_bytes),
            deser_bytes: self.deser_bytes.saturating_sub(earlier.deser_bytes),
            clone_bytes: self.clone_bytes.saturating_sub(earlier.clone_bytes),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            records_sorted: self.records_sorted.saturating_sub(earlier.records_sorted),
            task_startups: self.task_startups.saturating_sub(earlier.task_startups),
            heartbeats: self.heartbeats.saturating_sub(earlier.heartbeats),
            barriers: self.barriers.saturating_sub(earlier.barriers),
            job_submits: self.job_submits.saturating_sub(earlier.job_submits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_right_counter() {
        let m = Metrics::new();
        m.record(Charge::DiskRead { bytes: 10 });
        m.record(Charge::DiskRead { bytes: 5 });
        m.record(Charge::NetTransfer { bytes: 7 });
        m.record(Charge::TaskStartup);
        assert_eq!(m.disk_bytes_read(), 15);
        assert_eq!(m.net_bytes(), 7);
        assert_eq!(m.task_startups(), 1);
        assert_eq!(m.disk_bytes_written(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.record(Charge::Serialize { bytes: 100 });
        assert_eq!(m.ser_bytes(), 100);
    }

    #[test]
    fn snapshot_diff() {
        let m = Metrics::new();
        m.record(Charge::DiskWrite { bytes: 10 });
        let s1 = m.snapshot();
        m.record(Charge::DiskWrite { bytes: 32 });
        m.record(Charge::Heartbeat);
        let d = m.snapshot().since(&s1);
        assert_eq!(d.disk_bytes_written, 32);
        assert_eq!(d.heartbeats, 1);
        assert_eq!(d.disk_bytes_read, 0);
    }

    #[test]
    fn absorb_adds_snapshot_counters() {
        let lane = Metrics::new();
        lane.record(Charge::DiskRead { bytes: 64 });
        lane.record(Charge::Barrier);
        let home = Metrics::new();
        home.record(Charge::DiskRead { bytes: 1 });
        home.absorb(&lane.snapshot());
        assert_eq!(home.disk_bytes_read(), 65);
        assert_eq!(home.barriers(), 1);
        // Absorbing the same snapshot twice double-counts — the caller
        // (the job server's fold) does it exactly once per lane.
        home.absorb(&lane.snapshot());
        assert_eq!(home.disk_bytes_read(), 129);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.record(Charge::Alloc { objects: 9 });
        m.record(Charge::Sort { records: 9 });
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn reset_covers_every_counter_cell() {
        // Drift guard: `counter_cells` is generated from the same macro
        // list as the storage struct, so bumping every cell and resetting
        // proves no counter — present or future — escapes `reset`.
        let m = Metrics::new();
        for (_, cell) in m.counter_cells() {
            cell.store(7, Ordering::Relaxed);
        }
        m.reset();
        for (name, cell) in m.counter_cells() {
            assert_eq!(cell.load(Ordering::Relaxed), 0, "counter `{name}` survived reset");
        }
        // Pool counters are in the cells (and thus reset) even though the
        // snapshot excludes them.
        let names: Vec<_> = m.counter_cells().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"pool_hits") && names.contains(&"pool_misses"));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(Charge::NetTransfer { bytes: 1 });
                    }
                });
            }
        });
        assert_eq!(m.net_bytes(), 8000);
    }
}
