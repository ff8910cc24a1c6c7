//! Parallel/serial equivalence: `real_parallelism` must affect wall-clock
//! time only. Every observable of a job — simulated seconds, output file
//! bytes, counters, metrics, record counts — has to be identical whether a
//! wave's tasks run sequentially on the place thread or concurrently on the
//! scoped worker pool.
//!
//! Simulated time is compared through `f64::to_bits`, i.e. bit-for-bit:
//! floating-point addition is not associative, so this only holds because
//! each task bills its own scratch clock (same charge sequence per clock)
//! and the wave folds an order-independent `max`. The guarantee is exact at
//! the default cost model, whose `compute_scale` is 0.0; a nonzero
//! `compute_scale` would fold real wall time into simulated time and no
//! mode could promise identical seconds.
//!
//! Coverage: the fig6 shuffle microbenchmark (both engines), the fig7
//! matrix-vector iteration (M3R), and a combiner + grouping-comparator
//! wordcount (both engines) to exercise map-side combining and non-default
//! grouping under the pool.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::error::Result;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult};
use hmr_api::task::{LongSumReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{LongWritable, Text};
use hmr_api::HPath;
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use workloads::matvec::{generate_matvec_input, run_matvec_iterations};
use workloads::microbench::{generate_microbench_input, run_microbench};

mod common;
use common::{assert_same_result, fresh, part_bytes};

const PLACES: usize = 4;
const WORKERS: usize = 4;
const PARTS: usize = 8;

fn m3r_opts(real_parallelism: bool) -> M3ROptions {
    M3ROptions {
        worker_threads: WORKERS,
        real_parallelism,
        ..M3ROptions::default()
    }
}

fn hadoop_opts(real_parallelism: bool) -> EngineOptions {
    EngineOptions {
        map_slots_per_node: WORKERS,
        reduce_slots_per_node: WORKERS,
        sort_buffer_bytes: 1 << 16,
        max_task_attempts: 4,
        real_parallelism,
        ..EngineOptions::default()
    }
}

// ---------------------------------------------------------------------------
// fig6: the shuffle microbenchmark
// ---------------------------------------------------------------------------

fn fig6_m3r(real_parallelism: bool) -> (Vec<JobResult>, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    let mut engine = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        m3r_opts(real_parallelism),
    );
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
    (results, part_bytes(&fs, "/mb/iter2", PARTS))
}

fn fig6_hadoop(real_parallelism: bool) -> (Vec<JobResult>, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    let mut engine = HadoopEngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        hadoop_opts(real_parallelism),
    );
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
    (results, part_bytes(&fs, "/mb/iter1", PARTS))
}

#[test]
fn fig6_microbench_is_identical_on_m3r() {
    let (serial, serial_out) = fig6_m3r(false);
    let (parallel, parallel_out) = fig6_m3r(true);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_same_result(s, p, &format!("m3r fig6 iter{i}"));
    }
    assert!(!serial_out.is_empty(), "microbench produced no output");
    assert_eq!(serial_out, parallel_out, "m3r fig6 output bytes differ");
}

#[test]
fn fig6_microbench_is_identical_on_hadoop() {
    let (serial, serial_out) = fig6_hadoop(false);
    let (parallel, parallel_out) = fig6_hadoop(true);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_same_result(s, p, &format!("hadoop fig6 iter{i}"));
    }
    assert!(!serial_out.is_empty(), "microbench produced no output");
    assert_eq!(serial_out, parallel_out, "hadoop fig6 output bytes differ");
}

#[test]
fn parallel_runs_are_repeatable() {
    // Two parallel runs must also agree with each other — this catches
    // nondeterminism that happens to cancel out against a serial baseline
    // (e.g. racy stream arrival order present in *both* modes).
    let (a, a_out) = fig6_m3r(true);
    let (b, b_out) = fig6_m3r(true);
    for (i, (s, p)) in a.iter().zip(&b).enumerate() {
        assert_same_result(s, p, &format!("m3r fig6 repeat iter{i}"));
    }
    assert_eq!(a_out, b_out, "repeated parallel runs diverged");
}

// ---------------------------------------------------------------------------
// fig7: iterated sparse-matrix × dense-vector multiply
// ---------------------------------------------------------------------------

fn fig7_m3r(real_parallelism: bool) -> (Vec<f64>, Vec<(String, bytes::Bytes)>) {
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
    let mut engine = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        m3r_opts(real_parallelism),
    );
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
    (times, part_bytes(&fs, "/w/v2", PARTS))
}

#[test]
fn fig7_matvec_is_identical_on_m3r() {
    let (serial_times, serial_out) = fig7_m3r(false);
    let (parallel_times, parallel_out) = fig7_m3r(true);
    assert_eq!(serial_times.len(), parallel_times.len());
    for (i, (s, p)) in serial_times.iter().zip(&parallel_times).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "matvec job {i}: simulated seconds differ (serial {s} vs parallel {p})"
        );
    }
    assert!(!serial_out.is_empty(), "matvec produced no output");
    assert_eq!(serial_out, parallel_out, "matvec final vector bytes differ");
}

// ---------------------------------------------------------------------------
// Combiner + grouping comparator under the pool
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

fn grouped_wc_m3r(real_parallelism: bool) -> (JobResult, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    let mut engine = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        m3r_opts(real_parallelism),
    );
    let result = engine.run_job(Arc::new(GroupedWordCount), &wc_conf()).unwrap();
    (result, part_bytes(&fs, "/out", PARTS))
}

fn grouped_wc_hadoop(real_parallelism: bool) -> (JobResult, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    write_wc_input(&fs);
    let mut engine = HadoopEngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        hadoop_opts(real_parallelism),
    );
    let result = engine.run_job(Arc::new(GroupedWordCount), &wc_conf()).unwrap();
    (result, part_bytes(&fs, "/out", PARTS))
}

#[test]
fn grouped_wordcount_is_identical_on_m3r() {
    let (serial, serial_out) = grouped_wc_m3r(false);
    let (parallel, parallel_out) = grouped_wc_m3r(true);
    assert_same_result(&serial, &parallel, "m3r grouped wordcount");
    assert!(!serial_out.is_empty(), "wordcount produced no output");
    assert_eq!(serial_out, parallel_out, "m3r grouped wordcount bytes differ");
}

#[test]
fn grouped_wordcount_is_identical_on_hadoop() {
    let (serial, serial_out) = grouped_wc_hadoop(false);
    let (parallel, parallel_out) = grouped_wc_hadoop(true);
    assert_same_result(&serial, &parallel, "hadoop grouped wordcount");
    assert!(!serial_out.is_empty(), "wordcount produced no output");
    assert_eq!(serial_out, parallel_out, "hadoop grouped wordcount bytes differ");
}
