//! The cost model: prices for every operation the paper's figures measure.
//!
//! Defaults are calibrated to the paper's testbed (§6): 20 IBM LS-22 blades,
//! 2×quad-core 2.3 GHz Opteron, 16 GB RAM, Gigabit Ethernet, local disks,
//! IBM J9 JVMs. Absolute numbers need not match the paper — the simulation
//! only has to preserve *relative* costs (disk ≫ memory, remote ≫ local,
//! startup dominates small jobs) so the figures keep their shape.

/// A single simulated-time charge, in seconds, tagged with what it was for.
///
/// Charges are routed to a [`crate::Clock`] and recorded in
/// [`crate::Metrics`] so tests can assert on exactly which costs an engine
/// incurred (e.g. "M3R charged zero disk time for the second iteration").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Charge {
    /// Reading `bytes` from a local disk.
    DiskRead {
        /// Bytes read.
        bytes: u64,
    },
    /// Writing `bytes` to a local disk.
    DiskWrite {
        /// Bytes written.
        bytes: u64,
    },
    /// Moving `bytes` across the network between two distinct nodes.
    NetTransfer {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Serializing `bytes` of objects into a byte stream.
    Serialize {
        /// Serialized output bytes.
        bytes: u64,
    },
    /// Deserializing `bytes` of a byte stream back into objects.
    Deserialize {
        /// Serialized input bytes.
        bytes: u64,
    },
    /// Deep-cloning `bytes` of key/value data (M3R's defensive copy when a
    /// job does not implement `ImmutableOutput`, §4.1).
    Clone {
        /// Approximate bytes copied.
        bytes: u64,
    },
    /// Allocating `objects` fresh objects (models GC churn; used for the
    /// Fig 8 "new TextWritable()" vs "re-use TextWritable" gap).
    Alloc {
        /// Objects allocated.
        objects: u64,
    },
    /// Comparison-sorting `records` records.
    Sort {
        /// Records sorted.
        records: u64,
    },
    /// Starting one task in a fresh JVM (map or reduce attempt).
    TaskStartup,
    /// One jobtracker⇄tasktracker heartbeat/scheduling round trip.
    Heartbeat,
    /// Client-side job submission overhead (jobid allocation, staging the
    /// job configuration and code to the jobtracker's filesystem, §3.1).
    JobSubmit,
    /// Fast in-memory coordination (an X10 barrier / team operation, §5.1).
    Barrier,
    /// Modeled user-code compute time, in seconds, billed as given: a
    /// workload derives it from its own work (e.g. flops × a per-flop
    /// price), never from the host clock.
    Compute {
        /// Modeled CPU seconds.
        seconds: f64,
    },
}

/// Prices for the simulated cluster. All bandwidths are bytes/second and all
/// latencies are seconds of simulated time.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Sequential disk bandwidth (bytes/s). Paper-era SATA: ~80 MB/s.
    pub disk_bw: f64,
    /// Per-I/O disk seek/setup latency (s).
    pub disk_seek: f64,
    /// Point-to-point network bandwidth (bytes/s). GigE ≈ 110 MB/s payload.
    pub net_bw: f64,
    /// Per-message network latency (s).
    pub net_latency: f64,
    /// Serialization throughput (bytes/s of serialized output).
    pub ser_bw: f64,
    /// Deserialization throughput (bytes/s of serialized input).
    pub deser_bw: f64,
    /// Deep-clone (memcpy + allocate) throughput (bytes/s).
    pub clone_bw: f64,
    /// Cost per freshly allocated object (s); models the allocator plus the
    /// amortized GC pressure each short-lived object induces (the paper-era
    /// JVMs paid heavily for WordCount's per-token `Text` allocations).
    pub alloc_cost: f64,
    /// Sort cost: `sort_per_rec * n * log2(n)` seconds for n records.
    pub sort_per_rec: f64,
    /// JVM startup cost per Hadoop task attempt (s). The paper attributes
    /// "huge (10s of second) start-up cost" to the engine; per-task JVM
    /// launches are the dominant part.
    pub task_startup: f64,
    /// Jobtracker heartbeat interval (s); Hadoop schedules task waves at
    /// this granularity (the "task polling model" of §6.1).
    pub heartbeat: f64,
    /// One-time job submission overhead (s).
    pub job_submit: f64,
    /// An X10 barrier / fast coordination operation (s).
    pub barrier: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            disk_bw: 80e6,
            disk_seek: 5e-3,
            net_bw: 110e6,
            net_latency: 100e-6,
            ser_bw: 400e6,
            deser_bw: 300e6,
            clone_bw: 1000e6,
            alloc_cost: 400e-9,
            sort_per_rec: 80e-9,
            task_startup: 1.0,
            heartbeat: 3.0,
            job_submit: 2.0,
            barrier: 500e-6,
        }
    }
}

impl CostModel {
    /// A model with every price set to zero; useful for tests that only care
    /// about functional behaviour. Modeled [`Charge::Compute`] is the one
    /// charge it cannot silence: the workload names its seconds.
    pub fn free() -> Self {
        CostModel {
            disk_bw: f64::INFINITY,
            disk_seek: 0.0,
            net_bw: f64::INFINITY,
            net_latency: 0.0,
            ser_bw: f64::INFINITY,
            deser_bw: f64::INFINITY,
            clone_bw: f64::INFINITY,
            alloc_cost: 0.0,
            sort_per_rec: 0.0,
            task_startup: 0.0,
            heartbeat: 0.0,
            job_submit: 0.0,
            barrier: 0.0,
        }
    }

    /// Price a [`Charge`] in seconds of simulated time.
    #[inline]
    pub fn price(&self, charge: Charge) -> f64 {
        match charge {
            Charge::DiskRead { bytes } => self.disk_seek + bytes as f64 / self.disk_bw,
            Charge::DiskWrite { bytes } => self.disk_seek + bytes as f64 / self.disk_bw,
            Charge::NetTransfer { bytes } => self.net_latency + bytes as f64 / self.net_bw,
            Charge::Serialize { bytes } => bytes as f64 / self.ser_bw,
            Charge::Deserialize { bytes } => bytes as f64 / self.deser_bw,
            Charge::Clone { bytes } => bytes as f64 / self.clone_bw,
            Charge::Alloc { objects } => objects as f64 * self.alloc_cost,
            Charge::Sort { records } => {
                if records < 2 {
                    0.0
                } else {
                    self.sort_per_rec * records as f64 * (records as f64).log2()
                }
            }
            Charge::TaskStartup => self.task_startup,
            Charge::Heartbeat => self.heartbeat,
            Charge::JobSubmit => self.job_submit,
            Charge::Barrier => self.barrier,
            Charge::Compute { seconds } => seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prices_are_positive_and_ordered() {
        let m = CostModel::default();
        // Disk is slower than network per byte on this testbed, and both are
        // far slower than cloning memory.
        let mb = 1 << 20;
        let disk = m.price(Charge::DiskRead { bytes: mb });
        let net = m.price(Charge::NetTransfer { bytes: mb });
        let clone = m.price(Charge::Clone { bytes: mb });
        assert!(disk > net, "disk {disk} should cost more than net {net}");
        assert!(net > clone, "net {net} should cost more than clone {clone}");
        assert!(clone > 0.0);
    }

    #[test]
    fn free_model_prices_everything_at_zero() {
        let m = CostModel::free();
        for c in [
            Charge::DiskRead { bytes: 1 << 30 },
            Charge::DiskWrite { bytes: 1 << 30 },
            Charge::NetTransfer { bytes: 1 << 30 },
            Charge::Serialize { bytes: 1 << 30 },
            Charge::Deserialize { bytes: 1 << 30 },
            Charge::Clone { bytes: 1 << 30 },
            Charge::Alloc { objects: 1 << 30 },
            Charge::Sort { records: 1 << 30 },
            Charge::TaskStartup,
            Charge::Heartbeat,
            Charge::JobSubmit,
            Charge::Barrier,
        ] {
            assert_eq!(m.price(c), 0.0, "{c:?} should be free");
        }
    }

    #[test]
    fn sort_cost_is_superlinear() {
        let m = CostModel::default();
        let small = m.price(Charge::Sort { records: 1_000 });
        let big = m.price(Charge::Sort { records: 2_000 });
        assert!(big > 2.0 * small);
    }

    #[test]
    fn sort_of_zero_or_one_record_is_free() {
        let m = CostModel::default();
        assert_eq!(m.price(Charge::Sort { records: 0 }), 0.0);
        assert_eq!(m.price(Charge::Sort { records: 1 }), 0.0);
    }

    #[test]
    fn startup_dominates_small_io() {
        // The premise of the paper: for small jobs, Hadoop's startup costs
        // dwarf the actual work. 1 MB of disk I/O must cost far less than
        // one task startup under the default model.
        let m = CostModel::default();
        let io = m.price(Charge::DiskRead { bytes: 1 << 20 });
        assert!(m.price(Charge::TaskStartup) > 10.0 * io);
    }

    #[test]
    fn compute_is_billed_as_given() {
        for m in [CostModel::default(), CostModel::free()] {
            assert_eq!(m.price(Charge::Compute { seconds: 42.0 }), 42.0);
            assert_eq!(m.price(Charge::Compute { seconds: 0.0 }), 0.0);
        }
    }
}
