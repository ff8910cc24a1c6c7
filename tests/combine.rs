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

use std::collections::BTreeMap;
use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::collect::OutputCollector;
use hmr_api::conf::JobConf;
use hmr_api::counters::TaskContext;
use hmr_api::error::Result;
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult};
use hmr_api::task::{LongSumReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{IntWritable, LongWritable, Text};
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use proptest::prelude::*;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

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
