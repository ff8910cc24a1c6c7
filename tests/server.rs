//! Acceptance tests for the multi-tenant job server (`m3r-server`).
//!
//! The server redesigns the client-facing API around async tickets
//! (`Client::submit` returns immediately) and runs independent jobs from
//! many clients **concurrently** on job lanes of the shared places. The
//! contract pinned here:
//!
//! * **Determinism** — the concurrent schedule (many workers) is
//!   bit-identical to the serialized-admission baseline (one worker):
//!   per-job simulated seconds (`f64::to_bits`), counters, metrics, the
//!   home cluster's folded clock and metrics totals, and raw output part
//!   bytes — on both engines. Migrating from the old blocking API changes
//!   nothing observable either: outputs, counters and record counts are
//!   byte-identical, simulated seconds agree to float round-off.
//! * **Concurrency** — two independent jobs from different clients
//!   *provably overlap* (a cross-job rendezvous that only completes when
//!   both are in their map phase at once) while a dependent job waits for
//!   its upstream, and the trace rollup attributes spans per job.
//! * **Multi-tenancy** — per-client cache quotas evict the over-quota
//!   tenant's entries and leave other tenants resident.
//! * **Lifecycle** — cancellation wins only against queued jobs;
//!   `shutdown` drains every ticket; `shutdown_now` cancels what has not
//!   started with a typed `ServerShutdown` error and still finishes what
//!   has; priority orders ready jobs without overtaking conflict edges.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hadoop_engine::HadoopEngine;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::task_counter;
use hmr_api::error::{HmrError, Result};
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult, LaneEngine};
use hmr_api::partition::{HashPartitioner, Partitioner};
use hmr_api::collect::OutputCollector;
use hmr_api::counters::TaskContext;
use hmr_api::task::{IdentityReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{IntWritable, Text};
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, RepartitionJob};
use m3r_server::{JobServer, JobStatus, JobTicket, ServerOptions};
use simdfs::SimDfs;
use simgrid::metrics::MetricsSnapshot;
use simgrid::{Cluster, Phase};

mod common;
use common::{assert_same_result, fresh, part_bytes};

const PLACES: usize = 4;
const PARTS: usize = 8;

fn gen_input(fs: &SimDfs, dir: &str, n: i32, salt: i32) {
    let records: Vec<(IntWritable, Text)> = (0..n)
        .map(|i| (IntWritable(i), Text::from(format!("v{salt}-{i}"))))
        .collect();
    write_seq_file(fs, &HPath::new(format!("{dir}/part-00000")), &records).unwrap();
}

fn id_job() -> Arc<RepartitionJob<IntWritable, Text>> {
    Arc::new(RepartitionJob::new(|| Box::new(HashPartitioner)))
}

fn conf(input: &str, output: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new(input));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(2);
    c
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Cross-job rendezvous / hook machinery
// ---------------------------------------------------------------------------

/// A wall-clock rendezvous: `pass` blocks until `need` parties arrived.
/// Only completes when the parties run *concurrently* — a serialized
/// schedule times out (and panics, failing the job) instead of hanging.
struct Blocker {
    arrived: AtomicUsize,
    need: usize,
}

impl Blocker {
    fn new(need: usize) -> Arc<Self> {
        Arc::new(Blocker {
            arrived: AtomicUsize::new(0),
            need,
        })
    }

    fn pass(&self) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        while self.arrived.load(Ordering::SeqCst) < self.need {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "rendezvous timed out: the jobs never overlapped"
            );
            std::thread::yield_now();
        }
    }
}

type Hook = Arc<dyn Fn() + Send + Sync>;

/// An identity job whose mapper runs `hook` once before the first record —
/// the test's window into *when* a job executes (rendezvous with another
/// job, append to an order log, assert an upstream ticket's status).
struct HookJob {
    hook: Hook,
}

impl HookJob {
    fn new(hook: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(HookJob {
            hook: Arc::new(hook),
        })
    }
}

struct HookMapper {
    hook: Hook,
    fired: bool,
}

impl TaskMapper<IntWritable, Text, IntWritable, Text> for HookMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if !self.fired {
            self.fired = true;
            (self.hook)();
        }
        out.collect(key, value)
    }
}

impl JobDef for HookJob {
    type K1 = IntWritable;
    type V1 = Text;
    type K2 = IntWritable;
    type V2 = Text;
    type K3 = IntWritable;
    type V3 = Text;

    fn create_mapper(&self, _conf: &JobConf) -> Box<dyn TaskMapper<IntWritable, Text, IntWritable, Text>> {
        Box::new(HookMapper {
            hook: Arc::clone(&self.hook),
            fired: false,
        })
    }
    fn create_reducer(&self, _conf: &JobConf) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(IdentityReducer)
    }
    fn partitioner(&self, _conf: &JobConf) -> Box<dyn Partitioner<IntWritable, Text>> {
        Box::new(HashPartitioner)
    }
    fn input_format(&self, _conf: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _conf: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn sort_comparator(&self) -> KeyComparator<IntWritable> {
        KeyComparator::natural()
    }
    fn name(&self) -> &str {
        "hooked"
    }
}

// ---------------------------------------------------------------------------
// Bit-identity: concurrent schedule == serialized-admission baseline
// ---------------------------------------------------------------------------

/// Everything observable about one scheduled run of the 4-job scenario:
/// three independent jobs plus one that reads job 0's output.
struct Outcome {
    per_job: Vec<JobResult>,
    /// The home cluster's folded clock, in bits.
    home_seconds: u64,
    home_metrics: MetricsSnapshot,
    outputs: Vec<(String, bytes::Bytes)>,
}

fn scenario_inputs(fs: &SimDfs) {
    for j in 0..3 {
        gen_input(fs, &format!("/in{j}"), 12 + 2 * j, j);
    }
}

fn scenario_confs() -> Vec<JobConf> {
    let mut confs: Vec<JobConf> = (0..3)
        .map(|j| conf(&format!("/in{j}"), &format!("/out{j}")))
        .collect();
    // Job 3 consumes job 0's output: a conflict edge the DAG must order.
    confs.push(conf("/out0", "/out3"));
    confs
}

fn collect_outcome(cluster: &Cluster, fs: &SimDfs, per_job: Vec<JobResult>) -> Outcome {
    Outcome {
        per_job,
        home_seconds: cluster.max_time().to_bits(),
        home_metrics: cluster.metrics().snapshot(),
        outputs: (0..4)
            .flat_map(|j| part_bytes(fs, &format!("/out{j}"), PARTS))
            .collect(),
    }
}

/// The scenario through the server: one client per job, all submitted
/// up front, waited in admission order.
fn server_schedule<E: LaneEngine + Send + Sync + 'static>(
    engine: E,
    cluster: &Cluster,
    fs: &SimDfs,
    workers: usize,
) -> Outcome {
    let server = JobServer::with_options(engine, ServerOptions { workers });
    let tickets: Vec<JobTicket> = scenario_confs()
        .iter()
        .enumerate()
        .map(|(j, c)| {
            server
                .client_as(&format!("tenant-{j}"))
                .submit(id_job(), c)
                .unwrap()
        })
        .collect();
    let per_job: Vec<JobResult> = tickets.iter().map(|t| t.wait().unwrap()).collect();
    server.shutdown();
    collect_outcome(cluster, fs, per_job)
}

/// The scenario through the old blocking API, in admission order.
fn direct_schedule<E: Engine>(mut engine: E, cluster: &Cluster, fs: &SimDfs) -> Outcome {
    let per_job: Vec<JobResult> = scenario_confs()
        .iter()
        .map(|c| engine.run_job(id_job(), c).unwrap())
        .collect();
    collect_outcome(cluster, fs, per_job)
}

fn assert_same_outcome(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.per_job.len(), b.per_job.len(), "{what}: job counts differ");
    for (i, (x, y)) in a.per_job.iter().zip(&b.per_job).enumerate() {
        assert_same_result(x, y, &format!("{what} job{i}"));
    }
    assert_eq!(
        a.home_seconds, b.home_seconds,
        "{what}: folded home sim-seconds must be bit-identical ({} vs {})",
        f64::from_bits(a.home_seconds),
        f64::from_bits(b.home_seconds),
    );
    assert_eq!(a.home_metrics, b.home_metrics, "{what}: home metrics differ");
    assert!(!a.outputs.is_empty(), "{what}: scenario produced no output");
    assert_eq!(a.outputs, b.outputs, "{what}: output part bytes differ");
}

#[test]
fn concurrent_schedule_is_bit_identical_to_serialized_m3r() {
    let (c0, f0) = fresh(PLACES);
    scenario_inputs(&f0);
    let serialized = server_schedule(
        M3REngine::new(c0.clone(), Arc::new(f0.clone())),
        &c0,
        &f0,
        1,
    );
    for workers in [2, 8] {
        let (c, f) = fresh(PLACES);
        scenario_inputs(&f);
        let concurrent =
            server_schedule(M3REngine::new(c.clone(), Arc::new(f.clone())), &c, &f, workers);
        assert_same_outcome(&serialized, &concurrent, &format!("m3r workers={workers}"));
    }
}

#[test]
fn concurrent_schedule_is_bit_identical_to_serialized_hadoop() {
    let (c0, f0) = fresh(PLACES);
    scenario_inputs(&f0);
    let serialized = server_schedule(
        HadoopEngine::new(c0.clone(), Arc::new(f0.clone())),
        &c0,
        &f0,
        1,
    );
    for workers in [2, 8] {
        let (c, f) = fresh(PLACES);
        scenario_inputs(&f);
        let concurrent = server_schedule(
            HadoopEngine::new(c.clone(), Arc::new(f.clone())),
            &c,
            &f,
            workers,
        );
        assert_same_outcome(&serialized, &concurrent, &format!("hadoop workers={workers}"));
    }
}

/// Migrating from the blocking `Engine::run_job` API to the server must
/// not change what is computed: outputs, counters, record counts and home
/// metrics are identical; per-job simulated seconds agree to float
/// round-off (lanes re-run each job from a zero clock, so the last bits of
/// `t_end - t0` may differ — never anything observable).
#[test]
fn server_matches_the_direct_api_on_both_engines() {
    // (direct outcome, server outcome) per engine.
    let runs: Vec<(&str, Outcome, Outcome)> = vec![
        ("m3r", {
            let (c, f) = fresh(PLACES);
            scenario_inputs(&f);
            direct_schedule(M3REngine::new(c.clone(), Arc::new(f.clone())), &c, &f)
        }, {
            let (c, f) = fresh(PLACES);
            scenario_inputs(&f);
            server_schedule(M3REngine::new(c.clone(), Arc::new(f.clone())), &c, &f, 8)
        }),
        ("hadoop", {
            let (c, f) = fresh(PLACES);
            scenario_inputs(&f);
            direct_schedule(HadoopEngine::new(c.clone(), Arc::new(f.clone())), &c, &f)
        }, {
            let (c, f) = fresh(PLACES);
            scenario_inputs(&f);
            server_schedule(HadoopEngine::new(c.clone(), Arc::new(f.clone())), &c, &f, 8)
        }),
    ];
    for (engine, direct, served) in &runs {
        assert_eq!(direct.per_job.len(), served.per_job.len());
        for (i, (d, s)) in direct.per_job.iter().zip(&served.per_job).enumerate() {
            assert_eq!(d.counters, s.counters, "{engine} job{i}: counters differ");
            assert_eq!(
                d.output_records, s.output_records,
                "{engine} job{i}: output record counts differ"
            );
            assert!(
                close(d.sim_time, s.sim_time),
                "{engine} job{i}: simulated seconds diverged ({} vs {})",
                d.sim_time,
                s.sim_time,
            );
        }
        assert_eq!(
            direct.home_metrics, served.home_metrics,
            "{engine}: home metrics differ"
        );
        assert!(
            close(
                f64::from_bits(direct.home_seconds),
                f64::from_bits(served.home_seconds)
            ),
            "{engine}: folded home seconds diverged"
        );
        assert!(!direct.outputs.is_empty(), "{engine}: no output produced");
        assert_eq!(direct.outputs, served.outputs, "{engine}: output bytes differ");
    }
}

// ---------------------------------------------------------------------------
// Concurrency: independent jobs overlap, dependent jobs wait
// ---------------------------------------------------------------------------

#[test]
fn independent_jobs_overlap_while_a_dependent_job_waits() {
    let (cluster, fs) = fresh(PLACES);
    cluster.trace().enable();
    gen_input(&fs, "/ina", 10, 1);
    gen_input(&fs, "/inb", 10, 2);

    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 4 },
    );

    // A and B rendezvous inside their map phases: the barrier clears only
    // when both jobs execute at the same wall-clock moment.
    let blocker = Blocker::new(2);
    let ta = {
        let b = Arc::clone(&blocker);
        server
            .client_as("alice")
            .submit(HookJob::new(move || b.pass()), &conf("/ina", "/outa"))
            .unwrap()
    };
    let tb = {
        let b = Arc::clone(&blocker);
        server
            .client_as("bob")
            .submit(HookJob::new(move || b.pass()), &conf("/inb", "/outb"))
            .unwrap()
    };

    // C reads A's output — a conflict edge, so the scheduler must hold it
    // until A resolves. Its mapper double-checks: by the time C executes,
    // A's ticket is already Completed.
    let upstream: Arc<OnceLock<JobTicket>> = Arc::new(OnceLock::new());
    upstream.set(ta.clone()).ok().unwrap();
    let tc = {
        let upstream = Arc::clone(&upstream);
        server
            .client_as("alice")
            .submit(
                HookJob::new(move || {
                    let a = upstream.get().expect("upstream ticket registered");
                    assert_eq!(
                        a.status(),
                        JobStatus::Completed,
                        "dependent job started before its upstream finished"
                    );
                }),
                &conf("/outa", "/outc"),
            )
            .unwrap()
    };

    let ra = ta.wait().unwrap();
    let rb = tb.wait().unwrap();
    let rc = tc.wait().unwrap();
    assert_eq!(ra.output_records, 10);
    assert_eq!(rb.output_records, 10);
    assert_eq!(rc.output_records, 10);
    // C was served from the cache A populated (immutable output), proving
    // it observed A's effects through the shared engine.
    assert_eq!(rc.counters.task(task_counter::CACHE_HIT_RECORDS), 10);

    server.shutdown();

    // The trace rollup attributes spans per job: both concurrent jobs (and
    // the dependent one) have their own Map-phase rows under the ids
    // registered at admission (A=0, B=1, C=2).
    let rollup = cluster.trace().rollup();
    for tjob in [0, 1, 2] {
        let row = rollup.phase_row(tjob, Phase::Map);
        assert!(
            row.count > 0,
            "job {tjob} has no Map spans in the rollup: {:?}",
            rollup.jobs()
        );
    }
}

#[test]
fn dependent_jobs_run_in_dag_order() {
    let (cluster, fs) = fresh(PLACES);
    gen_input(&fs, "/in", 16, 7);
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 4 },
    );

    // A chain /in → /s1 → /s2 → /s3 submitted all at once: every link is a
    // footprint conflict, so the DAG serializes them in admission order.
    let dirs = ["/in", "/s1", "/s2", "/s3"];
    let tickets: Vec<JobTicket> = (0..3)
        .map(|i| {
            server
                .client_as(&format!("stage-{i}"))
                .submit(id_job(), &conf(dirs[i], dirs[i + 1]))
                .unwrap()
        })
        .collect();
    assert_eq!(
        tickets.iter().map(|t| t.id()).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "ticket ids follow admission order"
    );

    for (i, t) in tickets.iter().enumerate() {
        let r = t.wait().unwrap();
        assert_eq!(t.status(), JobStatus::Completed);
        assert_eq!(r.output_records, 16, "stage {i} lost records");
        if i > 0 {
            // Each downstream stage read its upstream's freshly cached output.
            assert_eq!(
                r.counters.task(task_counter::CACHE_HIT_RECORDS),
                16,
                "stage {i} did not read stage {}'s cached output",
                i - 1
            );
        }
    }
    let engine = server.shutdown();
    assert!(fs.exists(&HPath::new("/s3/part-00000")));
    assert!(engine.cache().total_bytes() > 0);
}

// ---------------------------------------------------------------------------
// Multi-tenancy: per-client cache quotas
// ---------------------------------------------------------------------------

#[test]
fn cache_quota_evicts_the_over_quota_tenant_and_spares_the_rest() {
    let (cluster, fs) = fresh(PLACES);
    gen_input(&fs, "/big", 64, 3);
    gen_input(&fs, "/small", 6, 4);
    // The cache is governed (infinite budget, spill target wired), so quota
    // enforcement has somewhere to evict to.
    let engine = M3REngine::new(cluster.clone(), Arc::new(fs.clone()));
    let server = JobServer::start(engine);

    let r_small = server
        .client_as("small")
        .submit(id_job(), &conf("/small", "/outs"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r_small.output_records, 6);

    // "big" caps itself at 256 bytes — far below its input + output
    // footprint, so its entries must be evicted down to the quota.
    let r_big = server
        .client_as("big")
        .submission()
        .cache_quota(256)
        .submit(id_job(), &conf("/big", "/outb"))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r_big.output_records, 64);

    let engine = server.shutdown();
    let big_resident = engine.cache().client_resident_bytes("big");
    let small_resident = engine.cache().client_resident_bytes("small");
    assert!(
        big_resident <= 256,
        "over-quota tenant still holds {big_resident} resident bytes"
    );
    assert!(
        small_resident > 0,
        "quota enforcement evicted an under-quota tenant"
    );
    let evictions: u64 = (0..PLACES).map(|p| cluster.mem().evictions(p)).sum();
    assert!(evictions > 0, "the quota never triggered an eviction");
    // Eviction spilled, not destroyed: outputs are intact on the DFS.
    assert!(fs.exists(&HPath::new("/outb/part-00000")));
}

// ---------------------------------------------------------------------------
// Lifecycle: cancellation, drain, shutdown_now, priority
// ---------------------------------------------------------------------------

#[test]
fn cancelling_a_queued_job_resolves_its_ticket() {
    let (cluster, fs) = fresh(PLACES);
    gen_input(&fs, "/ca", 8, 1);
    gen_input(&fs, "/cb", 8, 2);
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 1 },
    );

    // A occupies the only worker until the test releases it; B stays queued.
    let gate = Blocker::new(2);
    let ta = {
        let g = Arc::clone(&gate);
        server
            .client_as("alice")
            .submit(HookJob::new(move || g.pass()), &conf("/ca", "/oca"))
            .unwrap()
    };
    wait_for("job A to start", || ta.status() == JobStatus::Running);
    let tb = server
        .client_as("bob")
        .submit(id_job(), &conf("/cb", "/ocb"))
        .unwrap();
    assert_eq!(tb.status(), JobStatus::Queued);

    assert!(tb.cancel(), "cancelling a queued job must win");
    assert_eq!(tb.status(), JobStatus::Cancelled);
    assert!(!tb.cancel(), "a second cancel must report no-op");
    assert!(matches!(tb.wait(), Err(HmrError::Cancelled(_))));

    gate.pass();
    ta.wait().unwrap();
    assert!(
        !ta.cancel(),
        "cancelling a completed job must report no-op"
    );

    let _engine = server.shutdown();
    assert!(!fs.exists(&HPath::new("/ocb/part-00000")), "cancelled job ran");
}

#[test]
fn shutdown_drains_every_in_flight_ticket() {
    let (cluster, fs) = fresh(PLACES);
    for j in 0..3 {
        gen_input(&fs, &format!("/d{j}"), 8, j);
    }
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 2 },
    );
    let tickets: Vec<JobTicket> = (0..3)
        .map(|j| {
            server
                .client_as(&format!("tenant-{j}"))
                .submit(id_job(), &conf(&format!("/d{j}"), &format!("/od{j}")))
                .unwrap()
        })
        .collect();
    // Shut down immediately: a graceful drain completes everything queued.
    server.shutdown();
    for (j, t) in tickets.iter().enumerate() {
        assert_eq!(t.status(), JobStatus::Completed, "ticket {j} not drained");
        assert_eq!(t.try_result().unwrap().unwrap().output_records, 8);
        assert!(fs.exists(&HPath::new(format!("/od{j}/part-00000"))));
    }
}

#[test]
fn shutdown_now_cancels_queued_jobs_but_finishes_running_ones() {
    let (cluster, fs) = fresh(PLACES);
    gen_input(&fs, "/na", 8, 1);
    gen_input(&fs, "/nb", 8, 2);
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 1 },
    );

    let gate = Blocker::new(2);
    let ta = {
        let g = Arc::clone(&gate);
        server
            .client_as("alice")
            .submit(HookJob::new(move || g.pass()), &conf("/na", "/ona"))
            .unwrap()
    };
    wait_for("job A to start", || ta.status() == JobStatus::Running);
    let tb = server
        .client_as("bob")
        .submit(id_job(), &conf("/nb", "/onb"))
        .unwrap();

    // Release the running job from another thread while shutdown_now waits
    // for it; the queued job must be cancelled with the typed error.
    let releaser = {
        let g = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            g.pass();
        })
    };
    server.shutdown_now();
    releaser.join().unwrap();

    assert_eq!(ta.status(), JobStatus::Completed);
    assert_eq!(ta.try_result().unwrap().unwrap().output_records, 8);
    assert_eq!(tb.status(), JobStatus::Cancelled);
    assert!(matches!(tb.wait(), Err(HmrError::ServerShutdown(_))));
    assert!(fs.exists(&HPath::new("/ona/part-00000")));
    assert!(!fs.exists(&HPath::new("/onb/part-00000")));
}

#[test]
fn priority_orders_ready_jobs_without_breaking_admission_ties() {
    let (cluster, fs) = fresh(PLACES);
    for d in ["/pa", "/plo", "/phi"] {
        gen_input(&fs, d, 8, 5);
    }
    let server = JobServer::with_options(
        M3REngine::new(cluster.clone(), Arc::new(fs.clone())),
        ServerOptions { workers: 1 },
    );

    // Hold the only worker so both contenders queue up behind it.
    let gate = Blocker::new(2);
    let ta = {
        let g = Arc::clone(&gate);
        server
            .client_as("gatekeeper")
            .submit(HookJob::new(move || g.pass()), &conf("/pa", "/opa"))
            .unwrap()
    };
    wait_for("the gate job to start", || ta.status() == JobStatus::Running);

    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let t_low = {
        let order = Arc::clone(&order);
        server
            .client_as("low")
            .submit(
                HookJob::new(move || order.lock().unwrap().push("low")),
                &conf("/plo", "/oplo"),
            )
            .unwrap()
    };
    let t_high = {
        let order = Arc::clone(&order);
        server
            .client_as("high")
            .submission()
            .priority(5)
            .submit(
                HookJob::new(move || order.lock().unwrap().push("high")),
                &conf("/phi", "/ophi"),
            )
            .unwrap()
    };

    gate.pass();
    ta.wait().unwrap();
    t_low.wait().unwrap();
    t_high.wait().unwrap();
    server.shutdown();
    assert_eq!(
        *order.lock().unwrap(),
        vec!["high", "low"],
        "the higher-priority job must dispatch first"
    );
}
