//! Inline/workers equivalence: the `Workers` mode must affect wall-clock
//! time only. Every observable of a job — simulated seconds, output file
//! bytes, counters, metrics, record counts — has to be identical whether a
//! wave's tasks run sequentially on the place thread (`Workers::Never`) or
//! concurrently on scoped worker threads (`Workers::Always`), and so
//! whichever of the two `Workers::Auto` picks for a job's size.
//!
//! Simulated time is compared through `f64::to_bits`, i.e. bit-for-bit:
//! floating-point addition is not associative, so this only holds because
//! each task bills its own scratch clock (same charge sequence per clock)
//! and the wave folds an order-independent `max`. It also needs every charge
//! to be a function of the task's work: the cost model prices modeled
//! compute as given and never reads the host clock.
//!
//! Every run reports the cluster's wave-path counts, and every comparison
//! asserts through them that `Never` ran no wave on workers and `Always` at
//! least one — the inputs here are far below the size at which `Auto`
//! would leave the place thread, so a comparison against the default would
//! compare inline with inline.
//!
//! Coverage: the fig6 shuffle microbenchmark (both engines), the fig7
//! matrix-vector iteration (M3R), a combiner + grouping-comparator
//! wordcount (both engines) to exercise map-side combining and non-default
//! grouping on worker threads, the Fig. 8 `FreshText` wordcount (both
//! engines), which bills one allocation per token from inside its tasks,
//! and `Auto` itself just below and just above its threshold (both
//! engines). Every comparison includes the cluster-wide `Metrics` totals,
//! which tasks reach only through the ledger each wave publishes, and every
//! place's accounted bytes per memory class: a task's scratch is its own
//! and gone when the call returns, so nothing a wave leaves in the
//! accountant may depend on which thread ran which task; jobs that
//! fail mid-wave (a reducer in task 1 of a 2-task wave, a mapper) must leave
//! the same totals on both paths, and the ones pinned below.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::error::{HmrError, Result};
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult};
use hmr_api::task::{LongSumReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{LongWritable, Text};
use hmr_api::HPath;
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use simgrid::metrics::MetricsSnapshot;
use simgrid::pool::WORKERS_MIN_JOB_BYTES;
use simgrid::{Cluster, MemClass, Workers};
use workloads::matvec::{generate_matvec_input, run_matvec_iterations};
use workloads::microbench::{generate_microbench_input, run_microbench};
use workloads::wordcount::{run_wordcount, WcStyle};

mod common;
use common::{assert_same_result, fresh, part_bytes};

const PLACES: usize = 4;
const WORKERS: usize = 4;
const PARTS: usize = 8;

fn m3r_opts(workers: Workers) -> M3ROptions {
    M3ROptions {
        worker_threads: WORKERS,
        workers,
        ..M3ROptions::default()
    }
}

fn hadoop_opts(workers: Workers) -> EngineOptions {
    EngineOptions {
        map_slots_per_node: WORKERS,
        reduce_slots_per_node: WORKERS,
        sort_buffer_bytes: 1 << 16,
        max_task_attempts: 4,
        workers,
        ..EngineOptions::default()
    }
}

/// Every accounting class, in report order.
const MEM_CLASSES: [MemClass; 5] = [
    MemClass::Cache,
    MemClass::Shuffle,
    MemClass::Pool,
    MemClass::Combine,
    MemClass::Memo,
];

/// What one run leaves behind: what its jobs reported, the final output
/// bytes, the cluster's metrics totals, every place's accounted bytes per
/// class and high watermark, and how many of its waves ran inline / on
/// worker threads.
struct Ran<R> {
    results: R,
    out: Vec<(String, bytes::Bytes)>,
    totals: MetricsSnapshot,
    mem: Vec<([u64; MEM_CLASSES.len()], u64)>,
    inline: u64,
    on_workers: u64,
}

impl<R> Ran<R> {
    fn new(cluster: &Cluster, results: R, out: Vec<(String, bytes::Bytes)>) -> Self {
        assert!(!out.is_empty(), "the run produced no output");
        let paths = cluster.wave_paths();
        let mem = cluster.mem();
        let mem = (0..mem.places())
            .map(|p| {
                let live = MEM_CLASSES.map(|class| mem.live_class(p, class));
                assert_eq!(live.iter().sum::<u64>(), mem.live(p), "a class outside the place total");
                let parked = mem.live_class(p, MemClass::Shuffle) + mem.live_class(p, MemClass::Combine);
                assert_eq!(parked, 0, "a finished job left shuffle or combine bytes");
                (live, mem.high_watermark(p))
            })
            .collect();
        Ran {
            results,
            out,
            totals: cluster.metrics().snapshot(),
            mem,
            inline: paths.inline(),
            on_workers: paths.workers(),
        }
    }
}

/// Run `f` under `Never` and under `Always`, after checking that each mode
/// really took its path — otherwise the comparison proves nothing.
fn never_and_always<R>(f: impl Fn(Workers) -> Ran<R>) -> (Ran<R>, Ran<R>) {
    let (never, always) = (f(Workers::Never), f(Workers::Always));
    assert!(never.inline > 0, "Never ran no wave at all");
    assert_eq!(never.on_workers, 0, "Never must keep every wave on the place thread");
    assert!(always.on_workers > 0, "Always must run multi-task waves on workers");
    (never, always)
}

fn assert_same_jobs(a: &Ran<Vec<JobResult>>, b: &Ran<Vec<JobResult>>, what: &str) {
    assert_eq!(a.results.len(), b.results.len());
    for (i, (a, b)) in a.results.iter().zip(&b.results).enumerate() {
        assert_same_result(a, b, &format!("{what} job {i}"));
    }
    assert_eq!(a.out, b.out, "{what}: output bytes differ");
    assert_eq!(a.totals, b.totals, "{what}: cluster metrics totals differ");
    assert_eq!(a.mem, b.mem, "{what}: accounted bytes differ");
}

// ---------------------------------------------------------------------------
// fig6: the shuffle microbenchmark
// ---------------------------------------------------------------------------

/// `pairs` × 64-byte values through the fig6 job chain on M3R.
fn fig6_m3r(workers: Workers, pairs: usize) -> Ran<Vec<JobResult>> {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), pairs, 64, PARTS, 11).unwrap();
    let mut engine =
        M3REngine::with_options(cluster.clone(), Arc::new(fs.clone()), m3r_opts(workers));
    let results = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        3,
        PARTS,
        true,
        None,
    )
    .unwrap();
    Ran::new(&cluster, results, part_bytes(&fs, "/mb/iter2", PARTS))
}

fn fig6_hadoop(workers: Workers, pairs: usize) -> Ran<Vec<JobResult>> {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), pairs, 64, PARTS, 11).unwrap();
    let mut engine =
        HadoopEngine::with_options(cluster.clone(), Arc::new(fs.clone()), hadoop_opts(workers));
    let results = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        2,
        PARTS,
        false,
        None,
    )
    .unwrap();
    Ran::new(&cluster, results, part_bytes(&fs, "/mb/iter1", PARTS))
}

#[test]
fn fig6_microbench_is_identical_on_m3r() {
    let (never, always) = never_and_always(|w| fig6_m3r(w, 192));
    assert_same_jobs(&never, &always, "m3r fig6");
}

#[test]
fn fig6_microbench_is_identical_on_hadoop() {
    let (never, always) = never_and_always(|w| fig6_hadoop(w, 192));
    assert_same_jobs(&never, &always, "hadoop fig6");
}

#[test]
fn parallel_runs_are_repeatable() {
    // Two runs on workers must also agree with each other — this catches
    // nondeterminism that happens to cancel out against an inline baseline
    // (e.g. racy stream arrival order present in *both* modes).
    let (a, b) = (fig6_m3r(Workers::Always, 192), fig6_m3r(Workers::Always, 192));
    assert!(a.on_workers > 0 && a.on_workers == b.on_workers);
    assert_same_jobs(&a, &b, "m3r fig6 repeat");
}

// ---------------------------------------------------------------------------
// Auto: the same bits on either side of the threshold
// ---------------------------------------------------------------------------

/// `Auto` picks from the job's input size, so run one input just under
/// `WORKERS_MIN_JOB_BYTES` and one just over it, and hold each against the
/// forced-inline reference: same simulated seconds, counters and bytes; the
/// small one entirely inline; the large one on workers wherever the machine
/// has a second core to run them on (the one-core CI leg is the `else`).
fn assert_auto_flips_at_the_threshold(run: impl Fn(Workers, usize) -> Ran<Vec<JobResult>>, what: &str) {
    // A pair with a 64-byte value is 71 bytes of sequence file, and every
    // job of the chain reads what the generator wrote, reshuffled: 0.9× and
    // 1.1× the threshold.
    let threshold = WORKERS_MIN_JOB_BYTES as usize / 71;
    let multicore = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    for (pairs, expect_workers) in [(threshold * 9 / 10, false), (threshold * 11 / 10, multicore)] {
        let auto = run(Workers::Auto, pairs);
        let never = run(Workers::Never, pairs);
        assert_same_jobs(&never, &auto, &format!("{what} auto, {pairs} pairs"));
        assert_eq!(
            auto.on_workers > 0,
            expect_workers,
            "{what} auto, {pairs} pairs: {} waves inline, {} on workers",
            auto.inline,
            auto.on_workers
        );
    }
}

#[test]
fn auto_flips_at_the_threshold_on_m3r() {
    assert_auto_flips_at_the_threshold(fig6_m3r, "m3r");
}

#[test]
fn auto_flips_at_the_threshold_on_hadoop() {
    assert_auto_flips_at_the_threshold(fig6_hadoop, "hadoop");
}

// ---------------------------------------------------------------------------
// fig7: iterated sparse-matrix × dense-vector multiply
// ---------------------------------------------------------------------------

fn fig7_m3r(workers: Workers) -> Ran<Vec<f64>> {
    let (cluster, fs) = fresh(PLACES);
    let n = 60;
    let block = 20;
    generate_matvec_input(
        &fs,
        &HPath::new("/g"),
        &HPath::new("/v"),
        n,
        block,
        0.3,
        PARTS,
        5,
    )
    .unwrap();
    let mut engine =
        M3REngine::with_options(cluster.clone(), Arc::new(fs.clone()), m3r_opts(workers));
    let iters = run_matvec_iterations(
        &mut engine,
        &HPath::new("/g"),
        &HPath::new("/v"),
        &HPath::new("/w"),
        2,
        PARTS,
        n.div_ceil(block),
    )
    .unwrap();
    let times = iters
        .iter()
        .flat_map(|i| [i.product.sim_time, i.sum.sim_time])
        .collect();
    Ran::new(&cluster, times, part_bytes(&fs, "/w/v2", PARTS))
}

#[test]
fn fig7_matvec_is_identical_on_m3r() {
    let (never, always) = never_and_always(fig7_m3r);
    assert_eq!(never.results.len(), always.results.len());
    for (i, (s, p)) in never.results.iter().zip(&always.results).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "matvec job {i}: simulated seconds differ (inline {s} vs workers {p})"
        );
    }
    assert_eq!(never.out, always.out, "matvec final vector bytes differ");
    assert_eq!(never.totals, always.totals, "matvec cluster metrics totals differ");
}

// ---------------------------------------------------------------------------
// Combiner + grouping comparator on worker threads
// ---------------------------------------------------------------------------

/// WordCount with a map-side combiner and a grouping comparator that
/// buckets words by their first byte, so one `reduce()` call sees several
/// distinct sort keys — the paths most sensitive to task interleaving.
struct GroupedWordCount;

struct WcMapper;

impl TaskMapper<LongWritable, Text, Text, LongWritable> for WcMapper {
    fn map(
        &mut self,
        _key: Arc<LongWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for tok in value.as_str().split_whitespace() {
            out.collect(Arc::new(Text::from(tok)), Arc::new(LongWritable(1)))?;
        }
        Ok(())
    }
}

impl JobDef for GroupedWordCount {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        Box::new(WcMapper)
    }
    fn create_reducer(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        Box::new(LongSumReducer)
    }
    fn create_combiner(
        &self,
        _conf: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
        Some(Box::new(LongSumReducer))
    }
    fn input_format(&self, _conf: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        Box::new(hmr_api::io::TextInputFormat)
    }
    fn output_format(&self, _conf: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn grouping_comparator(&self) -> KeyComparator<Text> {
        KeyComparator::new(|a: &Text, b: &Text| {
            a.as_str().bytes().next().cmp(&b.as_str().bytes().next())
        })
    }
    fn name(&self) -> &str {
        "grouped-wordcount"
    }
}

fn write_wc_input(fs: &SimDfs) {
    let words = [
        "apple", "ant", "bear", "bat", "cat", "crow", "door", "dust", "elm", "axe",
    ];
    for file in 0..6 {
        let mut text = String::new();
        for i in 0..120 {
            text.push_str(words[(i * 7 + file * 3) % words.len()]);
            text.push(if i % 9 == 8 { '\n' } else { ' ' });
        }
        hmr_api::fs::write_file(
            fs,
            &HPath::new(format!("/in/f{file}.txt").as_str()),
            text.as_bytes(),
        )
        .unwrap();
    }
}

fn wc_conf() -> JobConf {
    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new("/out"));
    conf.set_num_reduce_tasks(PARTS);
    conf
}

fn grouped_wc_m3r(workers: Workers) -> Ran<Vec<JobResult>> {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    let mut engine =
        M3REngine::with_options(cluster.clone(), Arc::new(fs.clone()), m3r_opts(workers));
    let result = engine.run_job(Arc::new(GroupedWordCount), &wc_conf()).unwrap();
    Ran::new(&cluster, vec![result], part_bytes(&fs, "/out", PARTS))
}

fn grouped_wc_hadoop(workers: Workers) -> Ran<Vec<JobResult>> {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    let mut engine =
        HadoopEngine::with_options(cluster.clone(), Arc::new(fs.clone()), hadoop_opts(workers));
    let result = engine.run_job(Arc::new(GroupedWordCount), &wc_conf()).unwrap();
    Ran::new(&cluster, vec![result], part_bytes(&fs, "/out", PARTS))
}

#[test]
fn grouped_wordcount_is_identical_on_m3r() {
    let (never, always) = never_and_always(grouped_wc_m3r);
    assert_same_jobs(&never, &always, "m3r grouped wordcount");
}

#[test]
fn grouped_wordcount_is_identical_on_hadoop() {
    let (never, always) = never_and_always(grouped_wc_hadoop);
    assert_same_jobs(&never, &always, "hadoop grouped wordcount");
}

// ---------------------------------------------------------------------------
// Fig. 8 WordCount: one charge per token from inside the tasks
// ---------------------------------------------------------------------------

fn fresh_wc_m3r(workers: Workers) -> Ran<Vec<JobResult>> {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    let mut engine =
        M3REngine::with_options(cluster.clone(), Arc::new(fs.clone()), m3r_opts(workers));
    let (input, output) = (HPath::new("/in"), HPath::new("/out"));
    let result = run_wordcount(&mut engine, WcStyle::FreshText, &input, &output, PARTS).unwrap();
    Ran::new(&cluster, vec![result], part_bytes(&fs, "/out", PARTS))
}

fn fresh_wc_hadoop(workers: Workers) -> Ran<Vec<JobResult>> {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    let mut engine =
        HadoopEngine::with_options(cluster.clone(), Arc::new(fs.clone()), hadoop_opts(workers));
    let (input, output) = (HPath::new("/in"), HPath::new("/out"));
    let result = run_wordcount(&mut engine, WcStyle::FreshText, &input, &output, PARTS).unwrap();
    Ran::new(&cluster, vec![result], part_bytes(&fs, "/out", PARTS))
}

#[test]
fn fresh_text_wordcount_is_identical_on_m3r() {
    let (never, always) = never_and_always(fresh_wc_m3r);
    assert_same_jobs(&never, &always, "m3r fresh-text wordcount");
    assert_eq!(never.totals.allocs, 720, "one allocation per token");
}

#[test]
fn fresh_text_wordcount_is_identical_on_hadoop() {
    let (never, always) = never_and_always(fresh_wc_hadoop);
    assert_same_jobs(&never, &always, "hadoop fresh-text wordcount");
    assert_eq!(never.totals.allocs, 720, "one allocation per token");
}

// ---------------------------------------------------------------------------
// A failed job's counters
// ---------------------------------------------------------------------------

/// WordCount that bills one allocation per token, whose mapper fails on the
/// token `poison` and whose reducer fails on partition `fail_partition`.
struct DoomedWordCount {
    fail_partition: Option<usize>,
}

struct PoisonMapper;

impl TaskMapper<LongWritable, Text, Text, LongWritable> for PoisonMapper {
    fn map(
        &mut self,
        _key: Arc<LongWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for tok in value.as_str().split_whitespace() {
            simgrid::meter::charge(simgrid::Charge::Alloc { objects: 1 });
            if tok == "poison" {
                return Err(HmrError::Io("injected map fault".into()));
            }
            out.collect(Arc::new(Text::from(tok)), Arc::new(LongWritable(1)))?;
        }
        Ok(())
    }
}

struct PartitionFailReducer(Option<usize>);

impl TaskReducer<Text, LongWritable, Text, LongWritable> for PartitionFailReducer {
    fn reduce(
        &mut self,
        key: Arc<Text>,
        values: &mut dyn Iterator<Item = Arc<LongWritable>>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        if ctx.partition().is_some() && ctx.partition() == self.0 {
            return Err(HmrError::Io(format!("injected reduce fault at {key:?}")));
        }
        LongSumReducer.reduce(key, values, out, ctx)
    }
}

impl JobDef for DoomedWordCount {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        Box::new(PoisonMapper)
    }
    fn create_reducer(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        Box::new(PartitionFailReducer(self.fail_partition))
    }
    fn input_format(&self, _conf: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        Box::new(hmr_api::io::TextInputFormat)
    }
    fn output_format(&self, _conf: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
}

/// The cluster's metrics totals after `job` failed on `engine`, and
/// whether any wave ran on worker threads.
fn failed_totals(
    engine: &str,
    job: DoomedWordCount,
    poison: bool,
    workers: Workers,
) -> (MetricsSnapshot, bool) {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    if poison {
        let poisoned = b"ant bear poison cat\ndoor\n";
        hmr_api::fs::write_file(&fs, &HPath::new("/in/f6.txt"), poisoned).unwrap();
    }
    let (fs, job, conf) = (Arc::new(fs), Arc::new(job), wc_conf());
    let err = match engine {
        "m3r" => M3REngine::with_options(cluster.clone(), fs, m3r_opts(workers))
            .run_job(job, &conf),
        _ => HadoopEngine::with_options(cluster.clone(), fs, hadoop_opts(workers))
            .run_job(job, &conf),
    }
    .expect_err("the job must fail");
    assert!(matches!(err, HmrError::Io(_)), "{engine}: {err:?}");
    (cluster.metrics().snapshot(), cluster.wave_paths().workers() > 0)
}

/// A snapshot as `[disk read, disk written, net, ser, deser, clone, allocs,
/// sorted, startups, heartbeats, barriers, submits]`.
fn counts(s: MetricsSnapshot) -> [u64; 12] {
    [
        s.disk_bytes_read,
        s.disk_bytes_written,
        s.net_bytes,
        s.ser_bytes,
        s.deser_bytes,
        s.clone_bytes,
        s.allocs,
        s.records_sorted,
        s.task_startups,
        s.heartbeats,
        s.barriers,
        s.job_submits,
    ]
}

/// A failed job leaves the same cluster totals on both wave paths, and the
/// totals of a build that billed every charge straight to the cluster.
fn assert_failed_totals(
    job: impl Fn() -> DoomedWordCount,
    poison: bool,
    pinned: [(&str, [u64; 12]); 2],
) {
    for (engine, expected) in pinned {
        let (never, never_on_workers) = failed_totals(engine, job(), poison, Workers::Never);
        let (always, always_on_workers) = failed_totals(engine, job(), poison, Workers::Always);
        assert!(!never_on_workers && always_on_workers, "{engine}: each mode took its path");
        assert_eq!(never, always, "{engine}: failed job totals differ between wave paths");
        assert_eq!(counts(never), expected, "{engine}: failed job totals moved");
    }
}

#[test]
fn a_reducer_failing_in_task_1_of_its_wave_keeps_every_count() {
    // Partition p reduces at place p % 4, two per place in one wave:
    // partition 4 is task 1 of place 0's wave.
    let job = || DoomedWordCount {
        fail_partition: Some(4),
    };
    assert_failed_totals(
        job,
        false,
        [
            ("m3r", [3312, 318, 20927, 10385, 13584, 0, 720, 720, 0, 0, 2, 0]),
            ("hadoop", [10800, 9168, 10608, 9110, 10800, 0, 720, 1224, 11, 5, 0, 1]),
        ],
    );
}

#[test]
fn a_failing_mapper_keeps_every_count() {
    let job = || DoomedWordCount { fail_partition: None };
    assert_failed_totals(
        job,
        true,
        [
            ("m3r", [3337, 0, 5888, 10272, 3337, 0, 723, 0, 0, 0, 1, 0]),
            ("hadoop", [3412, 9072, 2560, 9172, 3412, 0, 732, 720, 10, 4, 0, 1]),
        ],
    );
}
