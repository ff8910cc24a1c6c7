//! The resilience trade-off (paper §1, §3.2): the Hadoop engine restarts
//! failed tasks and finishes the job; M3R — "the engine will fail if any
//! node goes down – it does not recover" — surfaces the failure, but its
//! places survive for subsequent jobs.

use std::collections::HashMap;
use std::sync::Arc;

use hmr_api::collect::OutputCollector;
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::error::{HmrError, Result};
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef};
use hmr_api::task::{IdentityReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{IntWritable, Text};
use hmr_api::HPath;
use parking_lot::Mutex;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel, MemClass, Meter};

/// A mapper that fails the first `failures_per_task` attempts of each task.
struct FlakyMapper {
    attempts: Arc<Mutex<HashMap<String, usize>>>,
    failures_per_task: usize,
}

impl TaskMapper<IntWritable, Text, IntWritable, Text> for FlakyMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut attempts = self.attempts.lock();
        let n = attempts.entry(ctx.task_id().to_string()).or_insert(0);
        if *n < self.failures_per_task {
            *n += 1;
            return Err(HmrError::Io(format!(
                "injected fault on attempt {n} of {}",
                ctx.task_id()
            )));
        }
        drop(attempts);
        out.collect(key, value)
    }
}

/// Identity job with fault injection in the map phase.
struct FlakyJob {
    attempts: Arc<Mutex<HashMap<String, usize>>>,
    failures_per_task: usize,
}

impl FlakyJob {
    fn new(failures_per_task: usize) -> Self {
        FlakyJob {
            attempts: Arc::new(Mutex::new(HashMap::new())),
            failures_per_task,
        }
    }
}

impl JobDef for FlakyJob {
    type K1 = IntWritable;
    type V1 = Text;
    type K2 = IntWritable;
    type V2 = Text;
    type K3 = IntWritable;
    type V3 = Text;

    fn create_mapper(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>> {
        Box::new(FlakyMapper {
            attempts: Arc::clone(&self.attempts),
            failures_per_task: self.failures_per_task,
        })
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(IdentityReducer)
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "flaky"
    }
}

fn setup() -> (Cluster, SimDfs) {
    let cluster = Cluster::new(2, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    let records: Vec<(IntWritable, Text)> = (0..10)
        .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
        .collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
    (cluster, fs)
}

fn conf(out: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new("/in"));
    c.set_output_path(&HPath::new(out));
    c.set_num_reduce_tasks(2);
    c
}

#[test]
fn hadoop_retries_flaky_tasks_and_finishes() {
    let (cluster, fs) = setup();
    let mut engine = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
    // Each map task fails twice, then succeeds on the third attempt
    // (within the default limit of 4).
    let r = engine
        .run_job(Arc::new(FlakyJob::new(2)), &conf("/out"))
        .unwrap();
    // The retries show up as extra JVM startups: 1 map task × 3 attempts
    // + 2 reduce tasks.
    assert_eq!(r.metrics.task_startups, 3 + 2);
    let mut n = 0;
    for p in 0..2 {
        n += read_seq_file::<IntWritable, Text>(&fs, &HPath::new(format!("/out/part-{p:05}")))
            .unwrap()
            .len();
    }
    assert_eq!(n, 10, "all records survived the faults");
}

#[test]
fn hadoop_gives_up_after_max_attempts() {
    // "Within limits; of course if there are a large number of failures,
    // the job controller may give up." (paper footnote 2)
    let (cluster, fs) = setup();
    let mut engine = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
    let err = engine
        .run_job(Arc::new(FlakyJob::new(usize::MAX)), &conf("/out"))
        .unwrap_err();
    assert!(matches!(err, HmrError::Io(_)));
}

#[test]
fn m3r_does_not_retry_but_survives_for_the_next_job() {
    let (cluster, fs) = setup();
    let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    // One injected failure is fatal to the job: "no resilience".
    let err = engine
        .run_job(Arc::new(FlakyJob::new(1)), &conf("/out1"))
        .unwrap_err();
    assert!(matches!(err, HmrError::Io(_)));
    // But the engine (its places and cache) is intact: a healthy job runs.
    let r = engine
        .run_job(Arc::new(FlakyJob::new(0)), &conf("/out2"))
        .unwrap();
    assert_eq!(r.output_records, 10);
    // The failed job's input was nevertheless cached during its map phase,
    // so the follow-up even got cache hits — heap state persists across
    // job *failures* too.
    assert!(
        r.counters
            .task(hmr_api::counters::task_counter::CACHE_HIT_RECORDS)
            > 0
    );
}

// ---------------------------------------------------------------------------
// A failed job strands nothing in the accountant
// ---------------------------------------------------------------------------

/// Identity job over `/in` whose mapper fails on some keys, or whose
/// reducer always fails. The optional combiner is the identity — enough to
/// switch place-level combining on.
struct DoomedJob {
    /// Keys the mapper fails on, each after stalling that many milliseconds.
    fail_map_keys: &'static [(i32, u64)],
    fail_reduce: bool,
    combiner: bool,
}

struct KeyFailMapper(&'static [(i32, u64)]);

impl TaskMapper<IntWritable, Text, IntWritable, Text> for KeyFailMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if let Some(&(_, stall_ms)) = self.0.iter().find(|(k, _)| *k == key.0) {
            std::thread::sleep(std::time::Duration::from_millis(stall_ms));
            return Err(HmrError::Io(format!("injected map fault at key {}", key.0)));
        }
        out.collect(key, value)
    }
}

struct FailingReducer;

impl TaskReducer<IntWritable, Text, IntWritable, Text> for FailingReducer {
    fn reduce(
        &mut self,
        key: Arc<IntWritable>,
        _values: &mut dyn Iterator<Item = Arc<Text>>,
        _out: &mut dyn OutputCollector<IntWritable, Text>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Err(HmrError::Io(format!("injected reduce fault at key {}", key.0)))
    }
}

impl JobDef for DoomedJob {
    type K1 = IntWritable;
    type V1 = Text;
    type K2 = IntWritable;
    type V2 = Text;
    type K3 = IntWritable;
    type V3 = Text;

    fn create_mapper(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>> {
        Box::new(KeyFailMapper(self.fail_map_keys))
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        if self.fail_reduce {
            Box::new(FailingReducer)
        } else {
            Box::new(IdentityReducer)
        }
    }
    fn create_combiner(
        &self,
        _c: &JobConf,
    ) -> Option<Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>>> {
        self.combiner
            .then(|| Box::new(IdentityReducer) as Box<dyn TaskReducer<_, _, _, _>>)
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
}

const HEALTHY: DoomedJob = DoomedJob {
    fail_map_keys: &[],
    fail_reduce: false,
    combiner: false,
};

/// Two places, four input files of ten records, two written from each
/// node: the first replica lands on the writer, so every place maps two
/// splits — with one task slot, in two waves. File `f` holds keys
/// `10f..10f+9`; the last one is place 1's second wave.
fn setup_two_waves() -> (Cluster, SimDfs) {
    let cluster = Cluster::new(2, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 1);
    for f in 0..4 {
        let records: Vec<(IntWritable, Text)> = (10 * f..10 * f + 10)
            .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
            .collect();
        let path = HPath::new(format!("/in/part-{f:05}"));
        simgrid::with_meter(Meter::new(cluster.node(f as usize / 2).clone()), || {
            write_seq_file(&fs, &path, &records).unwrap()
        });
    }
    (cluster, fs)
}

/// `live_class` of the two job-scoped classes at every place.
fn job_scoped_bytes(cluster: &Cluster) -> Vec<(u64, u64)> {
    (0..cluster.len())
        .map(|p| {
            (
                cluster.mem().live_class(p, MemClass::Shuffle),
                cluster.mem().live_class(p, MemClass::Combine),
            )
        })
        .collect()
}

#[test]
fn hadoop_reduce_failure_releases_every_parked_segment() {
    let (cluster, fs) = setup_two_waves();
    let mut engine = hadoop_engine::HadoopEngine::with_options(
        cluster.clone(),
        Arc::new(fs),
        hadoop_engine::EngineOptions {
            map_slots_per_node: 1,
            ..Default::default()
        },
    );
    let before = job_scoped_bytes(&cluster);
    // All four maps succeed and park their segments; every reduce attempt
    // fails until the jobtracker gives up.
    let doomed = DoomedJob {
        fail_reduce: true,
        ..HEALTHY
    };
    let err = engine.run_job(Arc::new(doomed), &conf("/out1")).unwrap_err();
    assert!(matches!(err, HmrError::Io(_)));
    assert_eq!(job_scoped_bytes(&cluster), before, "shuffle volume stranded");
    let r = engine.run_job(Arc::new(HEALTHY), &conf("/out2")).unwrap();
    assert_eq!(r.output_records, 40);
    assert_eq!(job_scoped_bytes(&cluster), before);
}

#[test]
fn m3r_map_failure_releases_parked_streams_and_combine_tables() {
    for place_combine in [false, true] {
        let (cluster, fs) = setup_two_waves();
        let mut engine = m3r::M3REngine::with_options(
            cluster.clone(),
            Arc::new(fs),
            m3r::M3ROptions {
                worker_threads: 1,
                ..Default::default()
            },
        );
        let conf = |out| {
            let mut c = conf(out);
            c.set_place_level_combine(place_combine);
            c
        };
        let before = job_scoped_bytes(&cluster);
        // Place 1's second wave fails. By then place 0 has parked (or will
        // park) a stream at place 1, and with place-level combining place 1
        // has absorbed its first wave into the combine tables.
        let doomed = DoomedJob {
            fail_map_keys: &[(35, 0)],
            combiner: true,
            ..HEALTHY
        };
        let err = engine.run_job(Arc::new(doomed), &conf("/out1")).unwrap_err();
        assert!(matches!(err, HmrError::Io(_)));
        assert_eq!(
            job_scoped_bytes(&cluster),
            before,
            "accountant bytes stranded (place_combine={place_combine})"
        );
        let healthy = DoomedJob {
            combiner: true,
            ..HEALTHY
        };
        let r = engine.run_job(Arc::new(healthy), &conf("/out2")).unwrap();
        assert_eq!(r.output_records, 40);
        assert_eq!(job_scoped_bytes(&cluster), before);
    }
}

#[test]
fn m3r_reports_the_lowest_failing_place_whatever_fails_first() {
    let (cluster, fs) = setup_two_waves();
    let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs));
    // Both places fail in their first wave, place 0 (keys 0..20) well
    // after place 1 (keys 20..40): the error reported is still place 0's.
    let doomed = DoomedJob {
        fail_map_keys: &[(5, 20), (25, 0)],
        ..HEALTHY
    };
    match engine.run_job(Arc::new(doomed), &conf("/out")) {
        Err(HmrError::Io(msg)) => assert!(msg.ends_with("at key 5"), "{msg}"),
        other => panic!("expected place 0's map fault, got {other:?}"),
    }
}
