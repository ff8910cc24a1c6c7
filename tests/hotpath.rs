//! Hot-path optimization determinism (ISSUE 8): every kernel behind the
//! `e2e` sort/group probes — hash-grouped reduce ingest and the raw-key
//! radix sort path — is a wall-clock-only optimization. Toggling either
//! (per job, through the conf knobs — the sort path the knobs force is the
//! reference), on either engine, serial or parallel, must leave every
//! simulated observable untouched: simulated seconds (compared through
//! `f64::to_bits`, i.e. bit-for-bit), counters, the metrics snapshot, and
//! the raw output part-file bytes.
//!
//! The workload is WordCount over generated text: `Text` keys with heavy
//! duplication (the shape hash grouping exists for), natural sort and
//! grouping comparators (the precondition for the hash path), and enough
//! records per reducer that conf-forced thresholds put each run squarely
//! in the regime being toggled.
//!
//! On the Hadoop engine the job's `SortTuning` reaches the map-side sort
//! buffer as well as reduce ingest, so the same matrix pins the map-side
//! spill: sort path vs hash-group path under the combiner, decoded vs radix
//! sort in both the per-partition spill sort and the final merge.
//!
//! On M3R the hash gate also decides whether a combiner job's map output is
//! grouped at `collect()` (ISSUE 14), so the same matrix pins that path —
//! for the `ImmutableOutput` mapper, for the mutate-and-reuse mapper whose
//! keys are copied only when they found a group, and for the two shapes
//! that must fall back: a key type without a raw sort form and a custom
//! grouping comparator.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileOutputFormat, TextInputFormat};
use hmr_api::job::{Engine, JobDef, JobResult};
use hmr_api::task::{LongSumReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{IntWritable, LongWritable, PairWritable, Text, WritableKey};
use hmr_api::{HPath, OutputCollector, TaskContext};
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};
use workloads::textgen::generate_text;
use workloads::wordcount::{WcStyle, WordCountJob};

mod common;
use common::{forced, part_bytes};

const PLACES: usize = 3;
const REDUCERS: usize = 4;
const WORDS: usize = 12_000;

/// One cell of the toggle matrix: which optimizations the run enables.
#[derive(Clone, Copy, Debug)]
struct Toggles {
    name: &'static str,
    /// Per-job `m3r.reduce.hash.group` conf knob.
    hash_conf: bool,
    /// `m3r.sort.raw.min.pairs`: 0 forces the raw-key radix sort path at
    /// every size, `usize::MAX` forces the decoded-comparator path.
    raw_min: usize,
}

/// Everything off: decoded stable sort + span scan.
const BASELINE: Toggles = Toggles {
    name: "baseline",
    hash_conf: false,
    raw_min: usize::MAX,
};

/// Each optimization alone, and the full stack.
const MATRIX: &[Toggles] = &[
    Toggles { name: "hash", hash_conf: true, ..BASELINE },
    Toggles { name: "raw", raw_min: 0, ..BASELINE },
    Toggles { name: "all", hash_conf: true, raw_min: 0 },
];

fn conf_for(t: &Toggles, output: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new("/in"));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(REDUCERS);
    c.set_hash_group_ingest(t.hash_conf);
    c.set_raw_sort_min_pairs(t.raw_min);
    c
}

fn job() -> Arc<WordCountJob> {
    Arc::new(WordCountJob::new(WcStyle::FreshText))
}

fn run_m3r(t: &Toggles, parallel: bool) -> (JobResult, Vec<(String, bytes::Bytes)>) {
    run_m3r_job(job(), t, parallel)
}

fn run_m3r_job<J: JobDef>(
    job: Arc<J>,
    t: &Toggles,
    parallel: bool,
) -> (JobResult, Vec<(String, bytes::Bytes)>) {
    let cluster = Cluster::new(PLACES, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    generate_text(&fs, &HPath::new("/in/corpus.txt"), WORDS, 17).unwrap();
    let mut engine = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        M3ROptions {
            workers: forced(parallel),
            ..M3ROptions::default()
        },
    );
    let r = engine.run_job(job, &conf_for(t, "/out")).unwrap();
    (r, part_bytes(&fs, "/out", REDUCERS))
}

fn run_hadoop(t: &Toggles, parallel: bool) -> (JobResult, Vec<(String, bytes::Bytes)>) {
    let cluster = Cluster::new(PLACES, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    generate_text(&fs, &HPath::new("/in/corpus.txt"), WORDS, 17).unwrap();
    let mut engine = HadoopEngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        EngineOptions {
            workers: forced(parallel),
            ..EngineOptions::default()
        },
    );
    let r = engine.run_job(job(), &conf_for(t, "/out")).unwrap();
    (r, part_bytes(&fs, "/out", REDUCERS))
}

fn assert_same(
    reference: &(JobResult, Vec<(String, bytes::Bytes)>),
    got: &(JobResult, Vec<(String, bytes::Bytes)>),
    what: &str,
) {
    assert_eq!(
        reference.0.sim_time.to_bits(),
        got.0.sim_time.to_bits(),
        "{what}: simulated seconds must be bit-identical ({} vs {})",
        reference.0.sim_time,
        got.0.sim_time,
    );
    assert_eq!(reference.0.counters, got.0.counters, "{what}: counters");
    assert_eq!(reference.0.metrics, got.0.metrics, "{what}: metrics");
    assert_eq!(
        reference.0.output_records, got.0.output_records,
        "{what}: output record counts"
    );
    assert!(!got.1.is_empty(), "{what}: no output produced");
    assert_eq!(reference.1, got.1, "{what}: output part-file bytes");
}

#[test]
fn m3r_hotpath_toggles_are_wallclock_only() {
    let reference = run_m3r(&BASELINE, false);
    for t in MATRIX {
        for parallel in [false, true] {
            let got = run_m3r(t, parallel);
            let mode = if parallel { "parallel" } else { "serial" };
            assert_same(&reference, &got, &format!("m3r/{}/{mode}", t.name));
        }
    }
}

#[test]
fn hadoop_hotpath_toggles_are_wallclock_only() {
    let reference = run_hadoop(&BASELINE, false);
    for t in MATRIX {
        for parallel in [false, true] {
            let got = run_hadoop(t, parallel);
            let mode = if parallel { "parallel" } else { "serial" };
            assert_same(&reference, &got, &format!("hadoop/{}/{mode}", t.name));
        }
    }
}

#[test]
fn engines_agree_on_wordcount_output_under_full_optimization() {
    // Cross-engine: the full optimization stack on both engines produces
    // the same result set (engines differ in sim-time by design, so this
    // compares outputs, not clocks).
    let all = MATRIX.iter().find(|t| t.name == "all").unwrap();
    let (_, m) = run_m3r(all, true);
    let (_, h) = run_hadoop(all, true);
    assert!(!m.is_empty(), "m3r produced no output");
    assert_eq!(m, h, "byte-identical wordcount output across engines");
}

// ---------------------------------------------------------------------------
// Collect-time grouping on M3R (ISSUE 14): the other mapper style and the
// two fallbacks, through the same matrix.
// ---------------------------------------------------------------------------

/// The whole matrix for one job on M3R, against its own everything-off
/// baseline. Returns the baseline so callers can assert on its shape.
fn assert_m3r_matrix<J: JobDef>(make: impl Fn() -> Arc<J>, what: &str) -> JobResult {
    let reference = run_m3r_job(make(), &BASELINE, false);
    for t in MATRIX {
        for parallel in [false, true] {
            let got = run_m3r_job(make(), t, parallel);
            let mode = if parallel { "parallel" } else { "serial" };
            assert_same(&reference, &got, &format!("m3r/{what}/{}/{mode}", t.name));
        }
    }
    reference.0
}

#[test]
fn m3r_reuse_text_grouping_copies_keys_per_group_but_bills_per_record() {
    // Not `ImmutableOutput`: every emitted pair is billed a clone and two
    // allocations, whether or not grouping needed the key's copy — the
    // metrics snapshot (`clone_bytes`, `allocs`) is part of `assert_same`.
    let r = assert_m3r_matrix(
        || Arc::new(WordCountJob::new(WcStyle::ReuseText)),
        "reuse-text",
    );
    let emitted = r
        .counters
        .task(hmr_api::counters::task_counter::MAP_OUTPUT_RECORDS) as u64;
    let combined = r
        .counters
        .task(hmr_api::counters::task_counter::COMBINE_OUTPUT_RECORDS) as u64;
    assert!(
        combined > 0 && combined < emitted / 2,
        "duplicate-heavy: {combined} of {emitted}"
    );
    assert!(
        r.metrics.clone_bytes > 0,
        "the reuse mapper pays for copies"
    );
    assert!(
        r.metrics.allocs >= 2 * emitted,
        "two objects billed per emitted pair"
    );
}

/// WordCount over keys built by `key_of`, with `LongSumReducer` as both
/// combiner and reducer and an optional custom grouping comparator.
struct TokenCount<K: WritableKey> {
    key_of: fn(&str) -> K,
    grouping: Option<fn(&K, &K) -> std::cmp::Ordering>,
}

struct TokenMapper<K>(fn(&str) -> K);

impl<K: WritableKey> TaskMapper<LongWritable, Text, K, LongWritable> for TokenMapper<K> {
    fn map(
        &mut self,
        _key: Arc<LongWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<K, LongWritable>,
        _ctx: &mut TaskContext,
    ) -> hmr_api::Result<()> {
        for tok in value.as_str().split_whitespace() {
            out.collect(Arc::new((self.0)(tok)), Arc::new(LongWritable(1)))?;
        }
        Ok(())
    }
}

impl<K: WritableKey> JobDef for TokenCount<K> {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = K;
    type V2 = LongWritable;
    type K3 = K;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        _: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, K, LongWritable>> {
        Box::new(TokenMapper(self.key_of))
    }
    fn create_reducer(
        &self,
        _: &JobConf,
    ) -> Box<dyn TaskReducer<K, LongWritable, K, LongWritable>> {
        Box::new(LongSumReducer)
    }
    fn create_combiner(
        &self,
        _: &JobConf,
    ) -> Option<Box<dyn TaskReducer<K, LongWritable, K, LongWritable>>> {
        Some(Box::new(LongSumReducer))
    }
    fn input_format(&self, _: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        Box::new(TextInputFormat)
    }
    fn output_format(&self, _: &JobConf) -> Box<dyn OutputFormat<K, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn grouping_comparator(&self) -> KeyComparator<K> {
        match self.grouping {
            Some(f) => KeyComparator::new(f),
            None => self.sort_comparator(),
        }
    }
}

#[test]
fn m3r_grouping_falls_back_for_keys_without_a_raw_sort_form() {
    // Natural comparators and a combiner, so the buffer starts grouping —
    // and `PairWritable` declines at the first key: every partition
    // degrades to plain pairs and combines through the sort path.
    type K = PairWritable<Text, IntWritable>;
    let r = assert_m3r_matrix(
        || {
            Arc::new(TokenCount::<K> {
                key_of: |tok| PairWritable(Text::from(tok), IntWritable(tok.len() as i32)),
                grouping: None,
            })
        },
        "pair-keys",
    );
    assert!(r.output_records > 0);
}

#[test]
fn m3r_grouping_stays_off_under_a_custom_grouping_comparator() {
    // Secondary-sort idiom: sort by word, group by first byte. Raw-key
    // equality is not the grouping relation, so the map side must take the
    // sort path or groups would split.
    let r = assert_m3r_matrix(
        || {
            Arc::new(TokenCount::<Text> {
                key_of: |tok| Text::from(tok),
                grouping: Some(|a, b| a.as_str().bytes().next().cmp(&b.as_str().bytes().next())),
            })
        },
        "first-byte-groups",
    );
    assert!(
        r.output_records > 0 && r.output_records <= 256,
        "one record per first byte"
    );
}
