//! `JobDef` — the typed description of one MapReduce job — and the
//! [`Engine`] contract both the Hadoop and M3R engines implement.
//!
//! Hadoop configures jobs with class names inside a `JobConf`; the typed
//! Rust equivalent is a trait whose associated types fix the three
//! key/value domains (input `K1,V1`, intermediate `K2,V2`, output `K3,V3`)
//! and whose factory methods supply the user classes. The M3R API
//! extensions of §4 appear as defaulted methods that the stock engine
//! simply never consults — precisely how the Java interfaces are "ignored
//! by Hadoop, allowing the same code to run on M3R and Hadoop".

use std::sync::Arc;

use crate::comparator::KeyComparator;
use crate::conf::JobConf;
use crate::counters::task_counter::{MAP_OUTPUT_RECORDS, REDUCE_OUTPUT_RECORDS};
use crate::counters::Counters;
use crate::error::{HmrError, Result};
use crate::fs::{FileSystem, HPath};
use crate::io::{InputFormat, OutputFormat};
use crate::partition::{HashPartitioner, Partitioner};
use crate::task::{TaskMapper, TaskReducer};
use crate::writable::{WritableKey, WritableValue};

/// Converts map output straight to job output for map-only jobs
/// (`num_reduce_tasks == 0`): Hadoop sends mapper output "directly to
/// output" (§5.3). Usually the identity with `K2=K3, V2=V3`.
pub type MapOnlyConvert<K2, V2, K3, V3> =
    Arc<dyn Fn(Arc<K2>, Arc<V2>) -> (Arc<K3>, Arc<V3>) + Send + Sync>;

/// The map-only conversion of `job` under `num_reducers`: `None` with
/// reducers, else [`JobDef::map_only_convert`], which 0 reducers requires.
pub fn map_only<J: JobDef>(
    job: &J,
    num_reducers: usize,
) -> Result<Option<MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>> {
    if num_reducers > 0 {
        return Ok(None);
    }
    job.map_only_convert().map(Some).ok_or_else(|| {
        HmrError::InvalidJob("0 reducers requires JobDef::map_only_convert (map-only job)".into())
    })
}

/// A job's [`JobResult::output_records`], read off its counters: the pairs
/// its reducers collected on the main output (`REDUCE_OUTPUT_RECORDS`), or,
/// with 0 reducers, its mappers' (`MAP_OUTPUT_RECORDS`). Both are counted by
/// the task loops of [`crate::task`], so the two engines and a memo replay
/// report the same number; named side outputs count in neither.
pub fn output_records(counters: &Counters, num_reducers: usize) -> u64 {
    let counter = if num_reducers > 0 { REDUCE_OUTPUT_RECORDS } else { MAP_OUTPUT_RECORDS };
    counters.task(counter) as u64
}

/// The canonical identity of a job's *compute*: which mapper, reducer,
/// combiner and partitioner it runs. This is the Rust analogue of the class
/// names a Hadoop `JobConf` carries — ReStore-style cross-job memoization
/// (`m3r-memo`, ISSUE 10) folds these strings into the job fingerprint so
/// that two jobs only share a fingerprint when they run the same code.
///
/// Identities are declared, not derived: closures and type names do not
/// survive as stable identifiers, so a job opts into memoization by naming
/// its components. The contract is the obvious one — two jobs reporting the
/// same `ComputeIdentity` (and conf and inputs) **must** produce the same
/// output bytes. Jobs whose behaviour varies in ways the identity strings
/// don't capture must fold the varying part into a field (as the sysml
/// `MapMultJob` folds its transpose flag and block size into `mapper`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComputeIdentity {
    /// Mapper identity (e.g. `"wordcount.map"`), including any
    /// conf-independent parameters that change map output.
    pub mapper: String,
    /// Reducer identity. Excluded from the *map-phase* fingerprint so a
    /// job differing only here can reuse retained shuffle partitions.
    pub reducer: String,
    /// Combiner identity; `None` when the job has no combiner.
    pub combiner: Option<String>,
    /// Partitioner identity (routing of intermediate keys).
    pub partitioner: String,
}

impl ComputeIdentity {
    /// Identity with the default hash partitioner and no combiner.
    pub fn new(mapper: impl Into<String>, reducer: impl Into<String>) -> Self {
        ComputeIdentity {
            mapper: mapper.into(),
            reducer: reducer.into(),
            combiner: None,
            partitioner: "hash".to_string(),
        }
    }

    /// Set the combiner identity (fluent).
    pub fn with_combiner(mut self, combiner: impl Into<String>) -> Self {
        self.combiner = Some(combiner.into());
        self
    }

    /// Set the partitioner identity (fluent).
    pub fn with_partitioner(mut self, partitioner: impl Into<String>) -> Self {
        self.partitioner = partitioner.into();
        self
    }
}

/// A typed MapReduce job definition.
pub trait JobDef: Send + Sync + 'static {
    /// Input key type.
    type K1: WritableKey;
    /// Input value type.
    type V1: WritableValue;
    /// Intermediate (shuffle) key type.
    type K2: WritableKey;
    /// Intermediate (shuffle) value type.
    type V2: WritableValue;
    /// Output key type.
    type K3: WritableKey;
    /// Output value type.
    type V3: WritableValue;

    /// Instantiate the mapper for one task attempt.
    fn create_mapper(
        &self,
        conf: &JobConf,
    ) -> Box<dyn TaskMapper<Self::K1, Self::V1, Self::K2, Self::V2>>;

    /// Instantiate the reducer for one task attempt.
    fn create_reducer(
        &self,
        conf: &JobConf,
    ) -> Box<dyn TaskReducer<Self::K2, Self::V2, Self::K3, Self::V3>>;

    /// Instantiate the optional combiner ("mini-reducer" run map-side).
    fn create_combiner(
        &self,
        _conf: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Self::K2, Self::V2, Self::K2, Self::V2>>> {
        None
    }

    /// The partitioner routing intermediate keys to reduce partitions.
    fn partitioner(&self, _conf: &JobConf) -> Box<dyn Partitioner<Self::K2, Self::V2>> {
        Box::new(HashPartitioner)
    }

    /// The input format.
    fn input_format(&self, conf: &JobConf) -> Box<dyn InputFormat<Self::K1, Self::V1>>;

    /// The output format.
    fn output_format(&self, conf: &JobConf) -> Box<dyn OutputFormat<Self::K3, Self::V3>>;

    /// `ImmutableOutput` (§4.1): when true, the job promises that it never
    /// mutates keys/values after emitting them, letting M3R alias instead
    /// of clone. The Hadoop engine ignores this.
    fn immutable_output(&self) -> bool {
        false
    }

    /// The sort order of the reduce input.
    fn sort_comparator(&self) -> KeyComparator<Self::K2> {
        KeyComparator::natural()
    }

    /// The grouping comparator deciding which adjacent sorted keys share a
    /// `reduce()` call. Defaults to the sort comparator.
    fn grouping_comparator(&self) -> KeyComparator<Self::K2> {
        self.sort_comparator()
    }

    /// For map-only jobs: how a map-output pair becomes a job-output pair.
    /// Returning `None` (default) makes `num_reduce_tasks == 0` an error.
    fn map_only_convert(
        &self,
    ) -> Option<MapOnlyConvert<Self::K2, Self::V2, Self::K3, Self::V3>> {
        None
    }

    /// Human-readable job kind used in task ids and logs.
    fn name(&self) -> &str {
        "job"
    }

    /// The job's declared compute identity for cross-job memoization.
    /// `None` (the default) opts the job out: without a stable identity the
    /// memo subsystem cannot prove two submissions run the same code, so
    /// it never records or replays them. See [`ComputeIdentity`] for the
    /// contract a `Some` return signs up to.
    fn memo_identity(&self) -> Option<ComputeIdentity> {
        None
    }
}

/// What an engine reports back for one completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Simulated wall-clock seconds the job took on the cluster.
    pub sim_time: f64,
    /// Merged user + framework counters.
    pub counters: Counters,
    /// Work the cluster performed during this job (metrics delta).
    pub metrics: simgrid::metrics::MetricsSnapshot,
    /// Pairs written to the job's main output (named side outputs not
    /// included), read off `counters` by [`output_records`].
    pub output_records: u64,
}

/// The frame every job runs in, on either engine and for memo replays: the
/// clock and metrics snapshot a [`JobResult`] is measured against, the
/// trace job, the `_SUCCESS` commit, and the end-of-job clock alignment.
/// What the engines differ in (§3.1 vs §3.2) happens inside
/// [`JobFrame::run`]'s body.
pub struct JobFrame {
    cluster: simgrid::Cluster,
    t0: f64,
    m0: simgrid::metrics::MetricsSnapshot,
}

impl JobFrame {
    /// Snapshot `cluster` (the engine's home cluster or a job lane) at
    /// submission, before anything job-related has been billed.
    pub fn open(cluster: &simgrid::Cluster) -> Self {
        JobFrame {
            cluster: cluster.clone(),
            t0: cluster.max_time(),
            m0: cluster.metrics().snapshot(),
        }
    }

    /// Run `body`, the job submitted under `conf`, as trace job `label`
    /// (stringified only when the trace records it: pass `format_args!`).
    /// The body gets the trace job id and the job's memory ledger, and
    /// returns the job's counters, which give `output_records`
    /// ([`output_records`]). Whatever the body grew through the ledger and
    /// did not shrink again is released when it returns — on `Err` as much
    /// as on `Ok`. On success the `_SUCCESS` marker is created in `commit`
    /// (when the job has a durable output directory) through `marker_fs`,
    /// and all clocks align at the job's end: the client observes
    /// completion once.
    pub fn run(
        self,
        label: impl std::fmt::Display,
        conf: &JobConf,
        marker_fs: &dyn FileSystem,
        commit: Option<HPath>,
        body: impl FnOnce(u64, &Arc<simgrid::JobMem>) -> Result<Counters>,
    ) -> Result<JobResult> {
        let tjob = self.cluster.trace().begin_job(label);
        let held = Arc::new(simgrid::JobMem::new(self.cluster.mem()));
        let outcome = body(tjob, &held);
        held.release();
        let counters = outcome?;
        if let Some(dir) = commit {
            let marker = dir.join("_SUCCESS");
            if !marker_fs.exists(&marker) {
                marker_fs.create(&marker)?.close()?;
            }
        }
        let t_end = self.cluster.max_time();
        for node in self.cluster.nodes() {
            node.clock().advance_to(t_end);
        }
        Ok(JobResult {
            sim_time: t_end - self.t0,
            output_records: output_records(&counters, conf.num_reduce_tasks()),
            counters,
            metrics: self.cluster.metrics().snapshot().since(&self.m0),
        })
    }
}

/// A MapReduce engine: accepts a `JobDef` + `JobConf`, runs it, reports.
///
/// Both `hadoop-engine` and the M3R engine implement this; workloads are
/// written once against the trait, fulfilling the paper's core claim that
/// the *same jobs* run on either engine.
pub trait Engine {
    /// Engine name for reports ("hadoop", "m3r").
    fn engine_name(&self) -> &'static str;

    /// Run one job to completion.
    fn run_job<J: JobDef>(&mut self, job: Arc<J>, conf: &JobConf) -> Result<JobResult>;
}

/// An engine that can run jobs on per-job *lanes* — isolated views of its
/// home cluster with private clocks/metrics but shared places, filesystem,
/// cache, and memory accounting. This is what the §5.3 multi-tenant job
/// server schedules against: independent jobs run concurrently, each on its
/// own lane, and the server folds lane results back into the home cluster
/// in admission order so totals stay deterministic.
pub trait LaneEngine: Engine {
    /// The engine's home cluster (lanes are derived from it via
    /// `Cluster::job_lane`).
    fn home(&self) -> &simgrid::Cluster;

    /// Run one job against `lane`, using `seq` as the engine-level job
    /// sequence number (the server allocates these in admission order so
    /// partition-stability memo keys stay deterministic).
    fn run_lane<J: JobDef>(
        &self,
        lane: &simgrid::Cluster,
        seq: u64,
        job: Arc<J>,
        conf: &JobConf,
    ) -> Result<JobResult>;

    /// True when jobs must not overlap in execution — e.g. a memory budget
    /// or cache quotas are active, so cache-eviction order (which depends on
    /// job interleaving) would become schedule-dependent. The server then
    /// serializes dispatch while keeping the async ticket API.
    fn exclusive_only(&self) -> bool {
        false
    }

    /// Set (or clear) a per-client cache residency quota in bytes. Engines
    /// without a governed cache ignore this.
    fn set_client_quota(&self, _client: &str, _quota: Option<u64>) {}

    /// Attempt to satisfy `job` from the engine's cross-job memo index
    /// *without running it*: on a whole-job fingerprint hit the engine
    /// replays the retained output bytes (unmetered — ~0 simulated
    /// seconds, no map/shuffle spans) and returns the finished result.
    ///
    /// `None` means no usable memo entry (or memoization disabled /
    /// unsupported) — the caller must schedule the job normally. The §5.3
    /// job server calls this as a pre-admission stage so memo hits resolve
    /// tickets without occupying a dispatch lane. The default declines.
    fn try_memo_replay<J: JobDef>(
        &self,
        _job: &Arc<J>,
        _conf: &JobConf,
    ) -> Option<Result<JobResult>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{SequenceFileInputFormat, SequenceFileOutputFormat};
    use crate::task::{IdentityMapper, IdentityReducer};
    use crate::writable::{IntWritable, Text};

    /// A minimal identity job exercising every defaulted method.
    struct IdJob;

    impl JobDef for IdJob {
        type K1 = IntWritable;
        type V1 = Text;
        type K2 = IntWritable;
        type V2 = Text;
        type K3 = IntWritable;
        type V3 = Text;

        fn create_mapper(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>> {
            Box::new(IdentityMapper)
        }
        fn create_reducer(
            &self,
            _conf: &JobConf,
        ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
            Box::new(IdentityReducer)
        }
        fn input_format(&self, _conf: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
            Box::new(SequenceFileInputFormat::new())
        }
        fn output_format(&self, _conf: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
            Box::new(SequenceFileOutputFormat::new())
        }
    }

    #[test]
    fn defaults_are_sane() {
        let j = IdJob;
        let conf = JobConf::new();
        assert!(!j.immutable_output());
        assert!(j.create_combiner(&conf).is_none());
        assert!(j.map_only_convert().is_none());
        assert_eq!(j.name(), "job");
        // Default partitioner spreads keys within range.
        let p = j.partitioner(&conf);
        assert!(p.partition(&IntWritable(5), &Text::from("x"), 4) < 4);
        // Sort and grouping comparators agree by default.
        let s = j.sort_comparator();
        let g = j.grouping_comparator();
        assert_eq!(
            s.compare(&IntWritable(1), &IntWritable(2)),
            g.compare(&IntWritable(1), &IntWritable(2))
        );
    }
}
