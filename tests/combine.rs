//! Place-wide shared combining (ROADMAP item 3) must be a pure shuffle
//! optimisation: with an associative + commutative combiner, turning it on
//! may only shrink what the shuffle moves — never what the job answers.
//!
//! * Property: on random skewed inputs, combine-on output is bit-identical
//!   to combine-off output on both engines, and a combine-on M3R run is
//!   bit-identical (simulated seconds through `f64::to_bits`, counters,
//!   metrics) between serial and parallel waves.
//! * Unit: under a budget so tight the combine table cannot be held, the
//!   engine drains early and degrades to plain streaming — outputs still
//!   identical, and the accountant shows the table engaged before giving
//!   way.
//! * Fold: a combiner that declares a fold (`TaskReducer::as_fold`) answers
//!   exactly as its `reduce` does, at the map side and in the place-level
//!   tables — same bytes, counters, metrics and accounted memory.

use std::collections::BTreeMap;
use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::task_counter::{COMBINE_INPUT_RECORDS, COMBINE_OUTPUT_RECORDS};
use hmr_api::counters::TaskContext;
use hmr_api::error::Result;
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat};
use hmr_api::job::{ComputeIdentity, Engine, JobDef, JobResult, MapOnlyConvert};
use hmr_api::partition::Partitioner;
use hmr_api::task::{LongSumReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{IntWritable, LongWritable, Text};
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use proptest::prelude::*;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel, MemClass, Workers};
use workloads::generate_text;
use workloads::wordcount::{WcStyle, WordCountJob};

mod common;
use common::{assert_same_result, forced, part_bytes};

/// Token counting with a LongSum combiner — associative and commutative,
/// exactly the contract `m3r.shuffle.place.combine` requires.
struct TokenCount;

struct TokenMapper;

impl TaskMapper<IntWritable, Text, Text, LongWritable> for TokenMapper {
    fn map(
        &mut self,
        _key: Arc<IntWritable>,
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

impl JobDef for TokenCount {
    type K1 = IntWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskMapper<IntWritable, Text, Text, LongWritable>> {
        Box::new(TokenMapper)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        Box::new(LongSumReducer)
    }
    fn create_combiner(
        &self,
        _c: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
        Some(Box::new(LongSumReducer))
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "token-count"
    }
}

/// Write `records` spread across `files` seq files under `/in`.
fn stage_input(fs: &SimDfs, records: &[(i32, String)], files: usize) {
    for f in 0..files {
        let chunk: Vec<(IntWritable, Text)> = records
            .iter()
            .skip(f)
            .step_by(files)
            .map(|(k, t)| (IntWritable(*k), Text::from(t.clone())))
            .collect();
        write_seq_file(fs, &HPath::new(format!("/in/part-{f:05}")), &chunk).unwrap();
    }
}

fn job_conf(out: &str, reducers: usize, place_combine: bool) -> JobConf {
    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new(out));
    conf.set_num_reduce_tasks(reducers);
    if place_combine {
        conf.set_place_level_combine(true);
    }
    conf
}

fn load_counts(fs: &SimDfs, dir: &str, parts: usize) -> BTreeMap<String, i64> {
    let mut m = BTreeMap::new();
    for p in 0..parts {
        let path = HPath::new(format!("{dir}/part-{p:05}"));
        if !fs.exists(&path) {
            continue;
        }
        for (k, v) in read_seq_file::<Text, LongWritable>(fs, &path).unwrap() {
            *m.entry(k.as_str().to_string()).or_insert(0) += v.0;
        }
    }
    m
}

type Counts = BTreeMap<String, i64>;
type Parts = Vec<(String, bytes::Bytes)>;

/// Run `TokenCount` on a fresh M3R instance under a per-place `budget`,
/// with `parked` shuffle bytes already live at place 0 (another job's
/// stream, as far as the accountant knows); returns the result, the summed
/// counts, the raw output bytes, and the cluster for inspection.
#[allow(clippy::too_many_arguments)]
fn run_m3r(
    records: &[(i32, String)],
    files: usize,
    places: usize,
    reducers: usize,
    place_combine: bool,
    workers: simgrid::Workers,
    budget: Option<u64>,
    parked: u64,
) -> (JobResult, Counts, Parts, Cluster) {
    let cluster = Cluster::new(places, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    stage_input(&fs, records, files);
    cluster.mem().set_budget(budget);
    cluster.mem().grow(0, simgrid::MemClass::Shuffle, parked);
    let opts = M3ROptions { worker_threads: 2, workers, ..M3ROptions::default() };
    let mut engine = M3REngine::with_options(cluster.clone(), Arc::new(fs.clone()), opts);
    let r = engine
        .run_job(Arc::new(TokenCount), &job_conf("/out", reducers, place_combine))
        .unwrap();
    (
        r,
        load_counts(&fs, "/out", reducers),
        part_bytes(&fs, "/out", reducers),
        cluster,
    )
}

fn run_hadoop(
    records: &[(i32, String)],
    files: usize,
    nodes: usize,
    reducers: usize,
    place_combine: bool,
) -> (JobResult, Counts, Parts) {
    let cluster = Cluster::new(nodes, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    stage_input(&fs, records, files);
    let mut engine = HadoopEngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        EngineOptions {
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            sort_buffer_bytes: 1 << 14,
            ..EngineOptions::default()
        },
    );
    let r = engine
        .run_job(Arc::new(TokenCount), &job_conf("/out", reducers, place_combine))
        .unwrap();
    (
        r,
        load_counts(&fs, "/out", reducers),
        part_bytes(&fs, "/out", reducers),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs five full MR jobs
        .. ProptestConfig::default()
    })]

    #[test]
    fn place_combine_is_invisible_in_outputs(
        // A 3-letter token alphabet gives heavy, random key skew: most
        // cases repeat the same few keys across every mapper — exactly
        // what place-wide combining merges.
        records in proptest::collection::vec(
            (any::<i32>(), "[a-c ]{0,24}"),
            1..60
        ),
        places in 1usize..4,
        reducers in 1usize..5,
        files in 1usize..4,
    ) {
        // M3R: combine off (the PR 6 behaviour) vs on, parallel waves.
        let (_, off_counts, off_parts, _) =
            run_m3r(&records, files, places, reducers, false, forced(true), None, 0);
        let (on_par, on_counts, on_parts, _) =
            run_m3r(&records, files, places, reducers, true, forced(true), None, 0);
        prop_assert_eq!(&off_counts, &on_counts, "m3r: combine changed answers");
        prop_assert_eq!(&off_parts, &on_parts, "m3r: combine changed output bytes");

        // Combine-on must itself be deterministic across worker counts.
        let (on_ser, ser_counts, ser_parts, _) =
            run_m3r(&records, files, places, reducers, true, forced(false), None, 0);
        assert_same_result(&on_ser, &on_par, "m3r combine-on serial vs parallel");
        prop_assert_eq!(&ser_counts, &on_counts, "serial combine counts differ");
        prop_assert_eq!(&ser_parts, &on_parts, "serial combine bytes differ");

        // Hadoop engine: node-level combine via the conf knob.
        let (_, h_off_counts, h_off_parts) =
            run_hadoop(&records, files, places, reducers, false);
        let (_, h_on_counts, h_on_parts) =
            run_hadoop(&records, files, places, reducers, true);
        prop_assert_eq!(&h_off_counts, &h_on_counts, "hadoop: combine changed answers");
        prop_assert_eq!(&h_off_parts, &h_on_parts, "hadoop: combine changed output bytes");

        // And the engines agree with each other.
        prop_assert_eq!(&off_counts, &h_off_counts, "engines disagree");
    }
}

#[test]
fn budget_constrained_combine_degrades_to_streaming() {
    // Enough repeated-key data that the combine table visibly fills, under
    // a per-place budget far too small to hold it together with the cache:
    // the engine must drain early, fall back to plain streaming, and still
    // answer identically to combine-off under the same budget.
    let records: Vec<(i32, String)> = (0..120)
        .map(|i| (i, "alpha beta gamma alpha beta alpha".to_string()))
        .collect();
    let tight = |place_combine: bool| {
        run_m3r(&records, 3, 2, 3, place_combine, simgrid::Workers::Auto, Some(6 * 1024), 0)
    };
    let (_, off_counts, off_parts, _) = tight(false);
    let (_, on_counts, on_parts, cluster) = tight(true);
    assert_eq!(off_counts, on_counts, "budgeted combine changed answers");
    assert_eq!(off_parts, on_parts, "budgeted combine changed output bytes");
    assert_eq!(on_counts["alpha"], 360);
    // The table engaged (the accountant saw combine bytes) before the
    // budget forced it to drain: combine memory must be back to zero.
    let places = 2;
    assert!(
        (0..places).any(|p| cluster.mem().combine_high_watermark(p) > 0),
        "combine table never engaged — the budget test is vacuous"
    );
    // No combine bytes may outlive the map phase.
    for p in 0..places {
        let live = cluster.mem().live_class(p, simgrid::MemClass::Combine);
        assert_eq!(live, 0, "place {p} leaked combine bytes");
    }
}

#[test]
fn foreign_shuffle_bytes_never_move_the_place_combine_flush() {
    // A stream publish grows `MemClass::Shuffle` at its destination from
    // the *source* place's thread, so those bytes say nothing about the
    // destination's own combine tables, and when they land depends on
    // thread timing. A job whose tables fit its budget must flush at the
    // same point — here, only after the map phase — with or without them.
    let records: Vec<(i32, String)> = (0..120)
        .map(|i| (i, "alpha beta gamma alpha beta alpha".to_string()))
        .collect();
    let budget = 1 << 20;
    let run = |parked| run_m3r(&records, 4, 2, 3, true, forced(false), Some(budget), parked);
    let (alone, counts, parts, _) = run(0);
    let (crowded, crowded_counts, crowded_parts, cluster) = run(budget + 1);
    assert!(
        alone.counters.get(m3r::M3R_COUNTER_GROUP, "PLACE_COMBINE_INPUT_RECORDS") > 0,
        "the combine table never engaged — the test is vacuous"
    );
    assert_same_result(&alone, &crowded, "place combine with foreign shuffle bytes");
    assert_eq!(counts, crowded_counts);
    assert_eq!(parts, crowded_parts);
    assert_eq!(
        cluster.mem().live_class(0, simgrid::MemClass::Shuffle),
        budget + 1,
        "the parked bytes stayed live through the job"
    );
}

/// `J` with its combiner's fold declaration hidden: wherever the engine
/// would fold, it runs the combiner's `reduce`.
struct NoFold<J>(J);

/// A combiner that delegates everything but `as_fold`.
struct Delegating<K, V>(Box<dyn TaskReducer<K, V, K, V>>);

impl<K, V> TaskReducer<K, V, K, V> for Delegating<K, V> {
    fn setup(&mut self, out: &mut dyn OutputCollector<K, V>, ctx: &mut TaskContext) -> Result<()> {
        self.0.setup(out, ctx)
    }
    fn reduce(
        &mut self,
        key: Arc<K>,
        values: &mut dyn Iterator<Item = Arc<V>>,
        out: &mut dyn OutputCollector<K, V>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.reduce(key, values, out, ctx)
    }
    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<K, V>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.0.cleanup(out, ctx)
    }
}

impl<J: JobDef> JobDef for NoFold<J> {
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
        let combiner = self.0.create_combiner(c)?;
        Some(Box::new(Delegating(combiner)))
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
        self.0.sort_comparator()
    }
    fn grouping_comparator(&self) -> KeyComparator<J::K2> {
        self.0.grouping_comparator()
    }
    fn map_only_convert(&self) -> Option<MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>> {
        self.0.map_only_convert()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn memo_identity(&self) -> Option<ComputeIdentity> {
        self.0.memo_identity()
    }
}

/// One WordCount job on a fresh 3-place M3R instance over a six-file
/// corpus: its result, its part files, and per place the live bytes of
/// every accounted class plus the combine tables' high watermark.
fn run_word_count<J: JobDef>(
    job: J,
    place_combine: bool,
    workers: Workers,
) -> (JobResult, Parts, Vec<u64>) {
    const PLACES: usize = 3;
    const REDUCERS: usize = 4;
    let cluster = Cluster::new(PLACES, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    for f in 0..6 {
        generate_text(&fs, &HPath::new(format!("/in/text-{f}")), 40_000, f).unwrap();
    }
    let opts = M3ROptions { worker_threads: 2, workers, ..M3ROptions::default() };
    let mut engine = M3REngine::with_options(cluster.clone(), Arc::new(fs.clone()), opts);
    let r = engine
        .run_job(Arc::new(job), &job_conf("/out", REDUCERS, place_combine))
        .unwrap();
    let mem = cluster.mem();
    let classes =
        [MemClass::Cache, MemClass::Shuffle, MemClass::Pool, MemClass::Combine, MemClass::Memo];
    let accounted = (0..PLACES)
        .flat_map(|p| {
            let live = classes.map(|class| mem.live_class(p, class));
            live.into_iter().chain([mem.combine_high_watermark(p)])
        })
        .collect();
    (r, part_bytes(&fs, "/out", REDUCERS), accounted)
}

#[test]
fn a_folding_combiner_is_its_reduce_on_every_path() {
    for style in [WcStyle::FreshText, WcStyle::ReuseText] {
        for place_combine in [false, true] {
            for workers in [Workers::Never, Workers::Always] {
                let what = format!("{style:?}, place combine {place_combine}, {workers:?}");
                let (folded, folded_parts, folded_mem) =
                    run_word_count(WordCountJob::new(style), place_combine, workers);
                let (reduced, reduced_parts, reduced_mem) =
                    run_word_count(NoFold(WordCountJob::new(style)), place_combine, workers);
                assert_same_result(&folded, &reduced, &what);
                assert_eq!(folded_parts, reduced_parts, "{what}: part-file bytes");
                assert_eq!(folded_mem, reduced_mem, "{what}: accounted bytes per place and class");
                let task = |name| folded.counters.task(name);
                assert!(
                    task(COMBINE_OUTPUT_RECORDS) * 2 < task(COMBINE_INPUT_RECORDS),
                    "{what}: the map-side combine barely merged — the test is vacuous"
                );
                let place_combined =
                    folded.counters.get(m3r::M3R_COUNTER_GROUP, "PLACE_COMBINE_INPUT_RECORDS");
                assert_eq!(place_combined > 0, place_combine, "{what}: place combine engaged");
            }
        }
    }
}
