//! Hot-path kernel determinism: which sort and group kernels a job runs is
//! decided by its shape alone, and every choice is wall-clock only. A
//! natural-order run of at least `RAW_SORT_MIN_PAIRS` pairs takes the
//! raw-key radix sort; on M3R a job whose combiner declares a fold
//! (`LongSumReducer` here) and whose sort and grouping comparators are both
//! natural folds its map output at `collect()`.
//!
//! The reference is the same job under an opaque comparator,
//! `KeyComparator::new(|a, b| a.cmp(b))`: the same order, but not
//! `is_natural`, so every path takes the decoded stable sort, span grouping
//! and no collect-time fold. On either engine, serial or parallel, at a
//! corpus whose reduce partitions all fall below the threshold and at one
//! whose partitions mostly lie above it, the natural job must match its
//! reference in simulated seconds (compared through `f64::to_bits`, i.e.
//! bit for bit), counters, the metrics snapshot and the raw output
//! part-file bytes.
//!
//! On the Hadoop engine the same choice is made in the map-side sort
//! buffer as well: the spill sort, the combiner's grouping and the final
//! merge. On M3R the matrix also runs the mutate-and-reuse mapper, whose
//! keys are copied only when they found a group, and the two shapes that
//! never group at collect time: a key type without a raw sort form and a
//! custom grouping comparator.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::comparator::{KeyComparator, RAW_SORT_MIN_PAIRS};
use hmr_api::conf::JobConf;
use hmr_api::counters::task_counter;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileOutputFormat, TextInputFormat};
use hmr_api::job::{Engine, JobDef, JobResult, MapOnlyConvert};
use hmr_api::partition::Partitioner;
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
/// Corpus sizes in bytes: below and above the sort threshold per reduce
/// partition (see [`assert_straddles`]).
const CORPORA: [usize; 2] = [12_000, 800_000];

/// `J` with every natural comparator replaced by an opaque one of the same
/// order; custom comparators are kept.
struct Opaque<J>(J);

fn opaque<K: Ord>(cmp: KeyComparator<K>) -> KeyComparator<K> {
    if cmp.is_natural() {
        KeyComparator::new(|a: &K, b: &K| a.cmp(b))
    } else {
        cmp
    }
}

impl<J: JobDef> JobDef for Opaque<J> {
    type K1 = J::K1;
    type V1 = J::V1;
    type K2 = J::K2;
    type V2 = J::V2;
    type K3 = J::K3;
    type V3 = J::V3;

    fn create_mapper(&self, c: &JobConf) -> Box<dyn TaskMapper<J::K1, J::V1, J::K2, J::V2>> {
        self.0.create_mapper(c)
    }
    fn create_reducer(&self, c: &JobConf) -> Box<dyn TaskReducer<J::K2, J::V2, J::K3, J::V3>> {
        self.0.create_reducer(c)
    }
    fn create_combiner(
        &self,
        c: &JobConf,
    ) -> Option<Box<dyn TaskReducer<J::K2, J::V2, J::K2, J::V2>>> {
        self.0.create_combiner(c)
    }
    fn partitioner(&self, c: &JobConf) -> Box<dyn Partitioner<J::K2, J::V2>> {
        self.0.partitioner(c)
    }
    fn input_format(&self, c: &JobConf) -> Box<dyn InputFormat<J::K1, J::V1>> {
        self.0.input_format(c)
    }
    fn output_format(&self, c: &JobConf) -> Box<dyn OutputFormat<J::K3, J::V3>> {
        self.0.output_format(c)
    }
    fn immutable_output(&self) -> bool {
        self.0.immutable_output()
    }
    fn sort_comparator(&self) -> KeyComparator<J::K2> {
        opaque(self.0.sort_comparator())
    }
    fn grouping_comparator(&self) -> KeyComparator<J::K2> {
        opaque(self.0.grouping_comparator())
    }
    fn map_only_convert(&self) -> Option<MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>> {
        self.0.map_only_convert()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

#[derive(Clone, Copy, Debug)]
enum EngineKind {
    M3r,
    Hadoop,
}

type Run = (JobResult, Vec<(String, bytes::Bytes)>);

fn run<J: JobDef>(kind: EngineKind, job: J, corpus: usize, parallel: bool) -> Run {
    let cluster = Cluster::new(PLACES, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    generate_text(&fs, &HPath::new("/in/corpus.txt"), corpus, 17).unwrap();
    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new("/out"));
    conf.set_num_reduce_tasks(REDUCERS);
    let workers = forced(parallel);
    let dfs = Arc::new(fs.clone());
    let r = match kind {
        EngineKind::M3r => {
            let opts = M3ROptions { workers, ..M3ROptions::default() };
            M3REngine::with_options(cluster, dfs, opts).run_job(Arc::new(job), &conf)
        }
        EngineKind::Hadoop => {
            let opts = EngineOptions { workers, ..EngineOptions::default() };
            HadoopEngine::with_options(cluster, dfs, opts).run_job(Arc::new(job), &conf)
        }
    };
    (r.unwrap(), part_bytes(&fs, "/out", REDUCERS))
}

fn assert_same(reference: &Run, got: &Run, what: &str) {
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

/// The job against its opaque-comparator reference on one engine, serial
/// and parallel, at every corpus size. Returns the references, one per
/// corpus, so callers can assert on their shape.
fn assert_matrix<J: JobDef>(kind: EngineKind, make: impl Fn() -> J, what: &str) -> Vec<JobResult> {
    CORPORA
        .iter()
        .map(|&corpus| {
            let reference = run(kind, Opaque(make()), corpus, false);
            for parallel in [false, true] {
                let got = run(kind, make(), corpus, parallel);
                let mode = if parallel { "parallel" } else { "serial" };
                assert_same(&reference, &got, &format!("{kind:?}/{what}/{corpus}/{mode}"));
            }
            reference.0
        })
        .collect()
}

/// The small corpus leaves every reduce partition below the sort
/// threshold; the large one gives the partitions, on average, twice it.
fn assert_straddles(refs: &[JobResult]) {
    let input = |r: &JobResult| r.counters.task(task_counter::REDUCE_INPUT_RECORDS) as usize;
    assert!(input(&refs[0]) < RAW_SORT_MIN_PAIRS, "small: {}", input(&refs[0]));
    assert!(
        input(&refs[1]) >= 2 * REDUCERS * RAW_SORT_MIN_PAIRS,
        "large: {}",
        input(&refs[1])
    );
}

fn word_count(style: WcStyle) -> WordCountJob {
    WordCountJob::new(style)
}

#[test]
fn m3r_hotpath_toggles_are_wallclock_only() {
    let refs = assert_matrix(EngineKind::M3r, || word_count(WcStyle::FreshText), "fresh-text");
    assert_straddles(&refs);
}

#[test]
fn hadoop_hotpath_toggles_are_wallclock_only() {
    let refs = assert_matrix(EngineKind::Hadoop, || word_count(WcStyle::FreshText), "fresh-text");
    assert_straddles(&refs);
}

#[test]
fn engines_agree_on_wordcount_output_under_full_optimization() {
    // Cross-engine: every fast path on both engines produces the same
    // result set (engines differ in sim-time by design, so this compares
    // outputs, not clocks).
    let corpus = CORPORA[1];
    let (_, m) = run(EngineKind::M3r, word_count(WcStyle::FreshText), corpus, true);
    let (_, h) = run(EngineKind::Hadoop, word_count(WcStyle::FreshText), corpus, true);
    assert!(!m.is_empty(), "m3r produced no output");
    assert_eq!(m, h, "byte-identical wordcount output across engines");
}

#[test]
fn m3r_reuse_text_grouping_copies_keys_per_group_but_bills_per_record() {
    // Not `ImmutableOutput`: every emitted pair is billed a clone and two
    // allocations, whether or not grouping needed the key's copy — the
    // metrics snapshot (`clone_bytes`, `allocs`) is part of `assert_same`.
    let refs = assert_matrix(EngineKind::M3r, || word_count(WcStyle::ReuseText), "reuse-text");
    let r = &refs[0];
    let emitted = r.counters.task(task_counter::MAP_OUTPUT_RECORDS) as u64;
    let combined = r.counters.task(task_counter::COMBINE_OUTPUT_RECORDS) as u64;
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
    let refs = assert_matrix(
        EngineKind::M3r,
        || TokenCount::<K> {
            key_of: |tok| PairWritable(Text::from(tok), IntWritable(tok.len() as i32)),
            grouping: None,
        },
        "pair-keys",
    );
    assert!(refs.iter().all(|r| r.output_records > 0));
}

#[test]
fn m3r_grouping_stays_off_under_a_custom_grouping_comparator() {
    // Secondary-sort idiom: sort by word, group by first byte. Raw-key
    // equality is not the grouping relation, so the map side must take the
    // sort path or groups would split; only the sort comparator is natural.
    let refs = assert_matrix(
        EngineKind::M3r,
        || TokenCount::<Text> {
            key_of: |tok| Text::from(tok),
            grouping: Some(|a, b| a.as_str().bytes().next().cmp(&b.as_str().bytes().next())),
        },
        "first-byte-groups",
    );
    assert!(
        refs.iter().all(|r| r.output_records > 0 && r.output_records <= 256),
        "one record per first byte"
    );
}
