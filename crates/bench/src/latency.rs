//! Fixtures the `e2e` per-layer probes share with nothing else: a small
//! cached sequence (`core.cache_hit_ns`) and an engine whose jobs do
//! nothing (`server.noop_roundtrip_us`). The probes themselves and their
//! baseline numbers live in `e2e/`; the module keeps the name of the
//! latency-tier harness it was cut from because `m3r_bench::latency` is the
//! path the frozen benchmark imports.

use std::sync::Arc;

use hmr_api::conf::JobConf;
use hmr_api::counters::Counters;
use hmr_api::error::Result;
use hmr_api::job::{Engine, JobDef, JobResult, LaneEngine};
use hmr_api::writable::{IntWritable, Text};
use m3r::CachedSeq;
use simgrid::{Cluster, CostModel};

/// A small cached sequence (the governed-cache hit fixture).
pub fn small_seq(records: usize) -> Arc<CachedSeq<IntWritable, Text>> {
    Arc::new(CachedSeq::new(
        (0..records)
            .map(|i| {
                (
                    Arc::new(IntWritable(i as i32)),
                    Arc::new(Text::from(format!("v{i}"))),
                )
            })
            .collect(),
    ))
}

/// A [`LaneEngine`] whose jobs do nothing: the fixture for the
/// `server.noop_roundtrip_us` probe, which isolates the *server path*
/// (admission lock, conflict-DAG insert, condvar handoff to a worker,
/// lane creation, fold, ticket resolution) from any job cost.
pub struct NoopEngine {
    home: Cluster,
}

impl NoopEngine {
    /// A noop engine over a fresh single-place cluster.
    pub fn new() -> Self {
        NoopEngine {
            home: Cluster::new(1, CostModel::default()),
        }
    }
}

impl Default for NoopEngine {
    fn default() -> Self {
        NoopEngine::new()
    }
}

impl Engine for NoopEngine {
    fn engine_name(&self) -> &'static str {
        "noop"
    }

    fn run_job<J: JobDef>(&mut self, _job: Arc<J>, _conf: &JobConf) -> Result<JobResult> {
        Ok(JobResult {
            sim_time: 0.0,
            counters: Counters::new(),
            metrics: Default::default(),
            output_records: 0,
        })
    }
}

impl LaneEngine for NoopEngine {
    fn home(&self) -> &Cluster {
        &self.home
    }

    fn run_lane<J: JobDef>(
        &self,
        _lane: &Cluster,
        _seq: u64,
        _job: Arc<J>,
        _conf: &JobConf,
    ) -> Result<JobResult> {
        Ok(JobResult {
            sim_time: 0.0,
            counters: Counters::new(),
            metrics: Default::default(),
            output_records: 0,
        })
    }
}
