//! The four workloads and what they share: the fixed configuration, the
//! per-pass report, the stopwatch and the output checksum.

pub mod servermix;
pub mod shuffle;
pub mod wordcount;

use std::sync::Arc;
use std::time::Instant;

use hmr_api::comparator::fnv1a;
use hmr_api::counters::{task_counter, Counters};
use hmr_api::error::{HmrError, Result};
use hmr_api::job::JobResult;
use hmr_api::writable::{WritableKey, WritableValue};
use simdfs::SimDfs;
use simgrid::metrics::MetricsSnapshot;
use simgrid::{Cluster, Metrics};

use crate::span::Spans;
use crate::sys;

/// Places (M3R) / nodes (Hadoop). Fixed, never derived at run time: with
/// 4 place threads + 2 workers on the 2-core box the servermix spread was
/// 11–14 %, with 2 + 2 it is 3–5 %.
pub const PLACES: usize = 2;
/// `M3ROptions::worker_threads`, and map and reduce slots per Hadoop node.
pub const WORKER_THREADS: usize = 2;
/// Reduce partitions of every job: 2 tasks per place per wave, so the
/// scoped wave pool is exercised.
pub const PARTITIONS: usize = 4;
/// `ServerOptions::workers`.
pub const SERVER_WORKERS: usize = 2;
/// `CostModel::compute_scale`: 0 keeps simulated seconds bit-deterministic.
pub const COMPUTE_SCALE: f64 = 0.0;
/// Set-ups per untraced run; `setup_s` is the fastest of them.
pub const SETUPS: usize = 8;
/// Untimed passes on the last instance before timing starts.
pub const WARMUP_PASSES: usize = 2;

/// Input sizes and pass counts. [`Sizes::full`] is the benchmark; tests use
/// [`Sizes::tiny`] (same code paths, milliseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    /// Shuffle: input pairs.
    pub shuffle_pairs: usize,
    /// Shuffle: value bytes per pair.
    pub shuffle_value_bytes: usize,
    /// WordCount: corpus bytes over all files.
    pub corpus_bytes: usize,
    /// Servermix: rounds of 48 tickets per server lifetime.
    pub rounds: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const fn full() -> Sizes {
        Sizes {
            shuffle_pairs: 100_000,
            shuffle_value_bytes: 256,
            corpus_bytes: 3 << 20,
            rounds: 20,
        }
    }

    /// Small inputs for unit tests.
    #[cfg(test)]
    pub const fn tiny() -> Sizes {
        Sizes {
            shuffle_pairs: 2_000,
            shuffle_value_bytes: 32,
            corpus_bytes: 64 << 10,
            rounds: 2,
        }
    }
}

/// A fresh 2-node cluster and its DFS (8 MB blocks × 2 replicas,
/// `compute_scale = 0`).
pub fn fresh_cluster() -> (Cluster, SimDfs) {
    m3r_bench::fresh(PLACES, COMPUTE_SCALE)
}

/// Wall and process-CPU seconds accumulated over the timed sections of a
/// pass; the servermix pass stops it around its untimed deletes.
#[derive(Default)]
pub struct Stopwatch {
    wall_s: f64,
    cpu_s: f64,
}

impl Stopwatch {
    /// Run `f` on the clock.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (t0, c0) = (Instant::now(), sys::process_cpu_seconds());
        let r = f();
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += sys::process_cpu_seconds() - c0;
        r
    }
}

/// What one timed pass did, from the counters the program returns.
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// Wall seconds of the timed sections.
    pub wall_s: f64,
    /// Process CPU seconds of the timed sections.
    pub cpu_s: f64,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that returned `Err` (or were not `Completed`, or produced the
    /// wrong record count).
    pub failed: u64,
    /// Σ `JobResult.sim_time`.
    pub sim_s: f64,
    /// Hadoop counters merged over the pass's jobs.
    pub counters: Counters,
    /// Σ `JobResult.metrics` (read through [`PassReport::metrics`]).
    metrics: Metrics,
    /// Wall milliseconds of each job (`run_job` span) or, on servermix, of
    /// each round.
    pub unit_wall_ms: Vec<f64>,
    /// Output records of the jobs whose output is written to the DFS (all
    /// but M3R's temporary outputs).
    pub dfs_output_records: u64,
}

impl PassReport {
    /// Fold one job's result in.
    pub fn absorb(&mut self, result: &Result<JobResult>) {
        self.jobs += 1;
        match result {
            Ok(r) => {
                self.sim_s += r.sim_time;
                self.counters.merge(&r.counters);
                self.metrics.absorb(&r.metrics);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Take the stopwatch's totals.
    pub fn stamp(&mut self, sw: Stopwatch) {
        self.wall_s = sw.wall_s;
        self.cpu_s = sw.cpu_s;
    }

    /// Σ `JobResult.metrics` over the pass's jobs.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Map-input records of the pass: the work unit of `records_per_s`.
    pub fn map_input_records(&self) -> u64 {
        self.counters.task(task_counter::MAP_INPUT_RECORDS) as u64
    }
}

/// One workload instance: a cluster, its data and a started engine (or
/// engine + server), long-lived across passes.
pub trait Workload: Sized {
    /// Key type of the records this workload shuffles.
    type K: WritableKey;
    /// Value type of the records this workload shuffles.
    type V: WritableValue;

    /// `Cluster::new` + `SimDfs` → seeded input generation → engine start →
    /// (M3R shuffle) repartition: everything of [`setup`] but the cold pass.
    fn build(seed: u64, sizes: &Sizes, rec: &mut Spans) -> Result<Self>;

    /// One pass, timed by its own [`Stopwatch`].
    fn pass(&mut self, rec: &mut Spans) -> Result<PassReport>;

    /// Delete the last pass's outputs (and anything else a pass must not
    /// find). Untimed.
    fn clear_outputs(&mut self) -> Result<()>;

    /// Check the last pass's outputs against the generated input; returns
    /// the number of mismatches. Untimed, called before `clear_outputs`.
    fn verify(&mut self) -> Result<u64>;

    /// Order-independent checksum of the generated input (same seed ⇒ same
    /// value; the shuffle workloads of both engines agree on it).
    fn input_checksum(&mut self) -> Result<u64>;

    /// The home cluster: metrics, accountant, trace.
    fn cluster(&self) -> &Cluster;

    /// Bytes resident in the M3R cache, 0 for the Hadoop engine.
    fn cache_bytes(&self) -> u64;

    /// The engine under test: `"m3r"` or `"hadoop"`.
    fn engine_name(&self) -> &'static str {
        "m3r"
    }

    /// Whether the job reads text lines (else sequence files).
    fn text_input(&self) -> bool {
        false
    }

    /// `n` records shaped like what this workload's shuffle and reduce
    /// see, in a scattered arrival order, for the layer probes.
    #[allow(clippy::type_complexity)]
    fn sample_pairs(&mut self, n: usize) -> Result<Vec<(Arc<Self::K>, Arc<Self::V>)>>;

    /// The server recorder's view of the last traced pass (servermix only).
    fn server_pass(&self) -> Option<servermix::ServerPass> {
        None
    }

    /// Per-round wall milliseconds of `rounds` rounds on one server of
    /// unbounded life (servermix only), for `server.age_slowdown`.
    fn aged_rounds(&mut self, _rounds: usize) -> Result<Option<Vec<f64>>> {
        Ok(None)
    }
}

/// The set-up step of a run: [`Workload::build`], then one cold pass (it
/// fills the cache) whose outputs are cleared again.
pub fn setup<W: Workload>(seed: u64, sizes: &Sizes, rec: &mut Spans) -> Result<W> {
    rec.enter("setup");
    let mut instance = W::build(seed, sizes, rec)?;
    rec.enter("cold_pass");
    let cold = instance.pass(rec)?;
    instance.clear_outputs()?;
    rec.exit();
    rec.exit();
    if cold.failed > 0 {
        return Err(HmrError::Io("the cold pass had failed jobs".into()));
    }
    Ok(instance)
}

/// `n` records drawn from `base` in a scattered order (Knuth multiplicative
/// spray), cycling when `base` is shorter: what a shuffle delivers.
pub fn scattered<K, V>(base: Vec<(K, V)>, n: usize) -> Vec<(Arc<K>, Arc<V>)> {
    let base: Vec<(Arc<K>, Arc<V>)> = base
        .into_iter()
        .map(|(k, v)| (Arc::new(k), Arc::new(v)))
        .collect();
    let len = base.len().max(1) as u64;
    (0..n as u64)
        .map(|i| {
            let (k, v) = &base[(i.wrapping_mul(2_654_435_761) % len) as usize];
            (Arc::clone(k), Arc::clone(v))
        })
        .collect()
}

/// SplitMix64: one well-mixed draw from a seed.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-independent multiset checksum: the wrapping sum of one FNV-1a
/// hash per record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checksum {
    pub records: u64,
    pub sum: u64,
}

impl Checksum {
    /// Add one record.
    pub fn add(&mut self, bytes: &[u8]) {
        self.records += 1;
        self.sum = self.sum.wrapping_add(fnv1a(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn checksum_ignores_order_but_not_content() {
        let recs = ["a", "b", "c"];
        let sum_of = |order: &[usize], tweak: bool| {
            let mut c = Checksum::default();
            for &i in order {
                let v = if tweak && i == 1 { "B" } else { recs[i] };
                c.add(v.as_bytes());
            }
            c
        };
        assert_eq!(sum_of(&[0, 1, 2], false), sum_of(&[2, 0, 1], false));
        assert_ne!(sum_of(&[0, 1, 2], false), sum_of(&[0, 1, 2], true));
        assert_ne!(sum_of(&[0, 1, 2], false), sum_of(&[0, 1], false));
    }
}
