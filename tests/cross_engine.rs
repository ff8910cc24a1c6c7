//! Cross-crate integration: the same jobs — exercising the broader API
//! surface (new-style `mapreduce` interface, secondary sort, named side
//! outputs, the distributed cache, map-only jobs) — run on both engines and
//! agree.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use hmr_api::collect::OutputCollector;
use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::{task_counter, TaskContext};
use hmr_api::error::Result;
use hmr_api::fs::{read_file, write_file, FileSystem, HPath};
use hmr_api::io::seqfile::{read_seq_file, write_seq_file};
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileInputFormat, SequenceFileOutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult, MapOnlyConvert};
use hmr_api::task::{
    IdentityMapper, MapredReducerAdapter, MapreduceMapperAdapter, MapreduceReducerAdapter,
    TaskMapper, TaskReducer,
};
use hmr_api::{mapred, mapreduce};
use hmr_api::writable::{IntWritable, LongWritable, PairWritable, Text};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};
use workloads::textgen::generate_text;
use workloads::wordcount::{WcStyle, WordCountJob};

fn setup(nodes: usize) -> (Cluster, SimDfs) {
    let cluster = Cluster::new(nodes, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    (cluster, fs)
}

fn conf(input: &str, output: &str, reducers: usize) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new(input));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(reducers);
    c
}

// ---------------------------------------------------------------------------
// Secondary sort via sort + grouping comparators, written in the NEW
// (mapreduce) API style — §5.3's "any combination of old and new style".
// ---------------------------------------------------------------------------

type SsKey = PairWritable<IntWritable, IntWritable>;

struct NewStyleFirstPerGroup;

impl mapreduce::Reducer<SsKey, Text, SsKey, Text> for NewStyleFirstPerGroup {
    fn reduce(
        &mut self,
        key: Arc<SsKey>,
        values: &mut dyn Iterator<Item = Arc<Text>>,
        ctx: &mut mapreduce::Context<'_, SsKey, Text>,
    ) -> Result<()> {
        // Values arrive ordered by the secondary key; keep the first.
        if let Some(first) = values.next() {
            ctx.write(key, first)?;
            ctx.incr_counter("app", "groups", 1);
        }
        Ok(())
    }
}

struct SecondarySortJob;

impl JobDef for SecondarySortJob {
    type K1 = SsKey;
    type V1 = Text;
    type K2 = SsKey;
    type V2 = Text;
    type K3 = SsKey;
    type V3 = Text;

    fn create_mapper(&self, _c: &JobConf) -> Box<dyn TaskMapper<SsKey, Text, SsKey, Text>> {
        Box::new(IdentityMapper)
    }
    fn create_reducer(&self, _c: &JobConf) -> Box<dyn TaskReducer<SsKey, Text, SsKey, Text>> {
        Box::new(MapreduceReducerAdapter(NewStyleFirstPerGroup))
    }
    fn partitioner(
        &self,
        _c: &JobConf,
    ) -> Box<dyn hmr_api::Partitioner<SsKey, Text>> {
        // Partition by the primary key only, so grouping is meaningful.
        Box::new(hmr_api::partition::FnPartitioner::new(
            |k: &SsKey, _: &Text, n| k.0 .0 as usize % n,
        ))
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<SsKey, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<SsKey, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn sort_comparator(&self) -> KeyComparator<SsKey> {
        KeyComparator::natural() // (primary, secondary)
    }
    fn grouping_comparator(&self) -> KeyComparator<SsKey> {
        KeyComparator::new(|a: &SsKey, b: &SsKey| a.0.cmp(&b.0)) // primary only
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "secondary-sort"
    }
}

#[test]
fn secondary_sort_picks_minimum_per_group_on_both_engines() {
    let (cluster, fs) = setup(3);
    let mut records: Vec<(SsKey, Text)> = Vec::new();
    for primary in 0..10 {
        for secondary in [5, 1, 9, 3] {
            records.push((
                PairWritable(IntWritable(primary), IntWritable(secondary)),
                Text::from(format!("{primary}/{secondary}")),
            ));
        }
    }
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    let rh = hadoop
        .run_job(Arc::new(SecondarySortJob), &conf("/in", "/h", 3))
        .unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    let rm = m3r
        .run_job(Arc::new(SecondarySortJob), &conf("/in", "/m", 3))
        .unwrap();

    for dir in ["/h", "/m"] {
        let mut got = Vec::new();
        for p in 0..3 {
            got.extend(
                read_seq_file::<SsKey, Text>(&fs, &HPath::new(format!("{dir}/part-{p:05}")))
                    .unwrap(),
            );
        }
        got.sort();
        assert_eq!(got.len(), 10, "{dir}: one record per primary key");
        for (k, v) in &got {
            assert_eq!(k.1 .0, 1, "{dir}: secondary-sorted minimum survives");
            assert_eq!(v.as_str(), format!("{}/1", k.0 .0));
        }
    }
    // User counters propagate on both engines.
    assert_eq!(rh.counters.get("app", "groups"), 10);
    assert_eq!(rm.counters.get("app", "groups"), 10);
}

// ---------------------------------------------------------------------------
// MultipleOutputs: named side files via collect_named (§4.2.2).
// ---------------------------------------------------------------------------

struct SplitEvenOdd;

impl TaskReducer<IntWritable, Text, IntWritable, Text> for SplitEvenOdd {
    fn reduce(
        &mut self,
        key: Arc<IntWritable>,
        values: &mut dyn Iterator<Item = Arc<Text>>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for v in values {
            if key.0 % 2 == 0 {
                out.collect_named("even", Arc::clone(&key), v)?;
            } else {
                out.collect(Arc::clone(&key), v)?;
            }
        }
        Ok(())
    }
}

struct EvenOddJob;

impl JobDef for EvenOddJob {
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
        Box::new(IdentityMapper)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(SplitEvenOdd)
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
        "even-odd"
    }
}

#[test]
fn named_outputs_work_on_both_engines() {
    let (cluster, fs) = setup(2);
    let records: Vec<(IntWritable, Text)> = (0..20)
        .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
        .collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    let rh = hadoop
        .run_job(Arc::new(EvenOddJob), &conf("/in", "/h", 2))
        .unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    let rm = m3r
        .run_job(Arc::new(EvenOddJob), &conf("/in", "/m", 2))
        .unwrap();
    // Only the main output counts: the 10 odd pairs, not the 10 named ones.
    for (engine, r) in [("hadoop", &rh), ("m3r", &rm)] {
        let reduce_out = r.counters.task(task_counter::REDUCE_OUTPUT_RECORDS);
        assert_eq!(
            (r.output_records, reduce_out),
            (10, 10),
            "{engine}: output_records, REDUCE_OUTPUT_RECORDS"
        );
    }

    for dir in ["/h", "/m"] {
        let mut main_recs = Vec::new();
        let mut even_recs = Vec::new();
        for p in 0..2 {
            let main_p = HPath::new(format!("{dir}/part-{p:05}"));
            main_recs.extend(read_seq_file::<IntWritable, Text>(&fs, &main_p).unwrap());
            let even_p = HPath::new(format!("{dir}/even-part-{p:05}"));
            if fs.exists(&even_p) {
                even_recs.extend(read_seq_file::<IntWritable, Text>(&fs, &even_p).unwrap());
            }
        }
        assert_eq!(main_recs.len(), 10, "{dir}: odd keys on the main output");
        assert!(main_recs.iter().all(|(k, _)| k.0 % 2 == 1));
        assert_eq!(even_recs.len(), 10, "{dir}: even keys on the side output");
        assert!(even_recs.iter().all(|(k, _)| k.0 % 2 == 0));
    }
}

// ---------------------------------------------------------------------------
// Distributed cache: a lookup table shipped to every mapper (§5.3).
// ---------------------------------------------------------------------------

struct DictMapper;

impl TaskMapper<IntWritable, Text, IntWritable, Text> for DictMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        _value: Arc<Text>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let dict = ctx
            .cache_file("/dict/names")
            .expect("distributed cache file present");
        let names: Vec<&str> = std::str::from_utf8(&dict).unwrap().lines().collect();
        let name = names[(key.0 as usize) % names.len()];
        out.collect(key, Arc::new(Text::from(name)))
    }
}

struct DictJob;

impl JobDef for DictJob {
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
        Box::new(DictMapper)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(hmr_api::task::IdentityReducer)
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
        "dict-join"
    }
}

#[test]
fn distributed_cache_reaches_mappers_on_both_engines() {
    let (cluster, fs) = setup(2);
    write_file(&fs, &HPath::new("/dict/names"), b"alpha\nbeta\ngamma").unwrap();
    let records: Vec<(IntWritable, Text)> =
        (0..9).map(|i| (IntWritable(i), Text::from(""))).collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();

    let mut c = conf("/in", "/h", 1);
    c.add_cache_file(&HPath::new("/dict/names"));

    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    hadoop.run_job(Arc::new(DictJob), &c).unwrap();
    c.set_output_path(&HPath::new("/m"));
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    m3r.run_job(Arc::new(DictJob), &c).unwrap();

    let h = read_seq_file::<IntWritable, Text>(&fs, &HPath::new("/h/part-00000")).unwrap();
    let m = read_seq_file::<IntWritable, Text>(&fs, &HPath::new("/m/part-00000")).unwrap();
    assert_eq!(h, m);
    assert_eq!(h[0].1.as_str(), "alpha");
    assert_eq!(h[4].1.as_str(), "beta");
}

// ---------------------------------------------------------------------------
// The M3R distributed cache persists across jobs (long-lived places).
// ---------------------------------------------------------------------------

#[test]
fn m3r_memoizes_distributed_cache_files_across_jobs() {
    let (cluster, fs) = setup(2);
    write_file(&fs, &HPath::new("/dict/names"), b"alpha\nbeta").unwrap();
    let records: Vec<(IntWritable, Text)> =
        (0..4).map(|i| (IntWritable(i), Text::from(""))).collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));

    let mut c = conf("/in", "/o1", 1);
    c.add_cache_file(&HPath::new("/dict/names"));
    let r1 = m3r.run_job(Arc::new(DictJob), &c).unwrap();
    c.set_output_path(&HPath::new("/o2"));
    let r2 = m3r.run_job(Arc::new(DictJob), &c).unwrap();
    // Job 1 read the dictionary and the input; job 2 read neither.
    assert!(r1.metrics.disk_bytes_read > 0);
    assert_eq!(r2.metrics.disk_bytes_read, 0, "dict memoized + input cached");
}

// ---------------------------------------------------------------------------
// Map-only jobs (§5.3): "output from the mapper is sent directly to output
// as per Hadoop" — on both engines, with Hadoop's semantics.
// ---------------------------------------------------------------------------

/// WordCount with 0 reducers. Its `LongSumReducer` combiner stays declared;
/// a job without a reduce phase never runs it.
struct MapOnlyWordCount(WcStyle);

impl JobDef for MapOnlyWordCount {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        c: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        WordCountJob::new(self.0).create_mapper(c)
    }
    fn create_reducer(
        &self,
        c: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        WordCountJob::new(self.0).create_reducer(c)
    }
    fn create_combiner(
        &self,
        c: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
        WordCountJob::new(self.0).create_combiner(c)
    }
    fn input_format(&self, c: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        WordCountJob::new(self.0).input_format(c)
    }
    fn output_format(&self, c: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        WordCountJob::new(self.0).output_format(c)
    }
    fn immutable_output(&self) -> bool {
        WordCountJob::new(self.0).immutable_output()
    }
    fn map_only_convert(&self) -> Option<MapOnlyConvert<Text, LongWritable, Text, LongWritable>> {
        Some(Arc::new(|k, v| (k, v)))
    }
}

/// Odd keys to the main output, even keys to the named output `even`.
struct EvenOddMapper;

impl TaskMapper<IntWritable, Text, IntWritable, Text> for EvenOddMapper {
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<IntWritable, Text>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if key.0 % 2 == 0 {
            out.collect_named("even", key, value)
        } else {
            out.collect(key, value)
        }
    }
}

struct MapOnlyEvenOdd;

impl JobDef for MapOnlyEvenOdd {
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
        Box::new(EvenOddMapper)
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(hmr_api::task::IdentityReducer)
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn map_only_convert(&self) -> Option<MapOnlyConvert<IntWritable, Text, IntWritable, Text>> {
        Some(Arc::new(|k, v| (k, v)))
    }
}

/// One engine's run of a map-only job: its result, every file of its output
/// directory but `_SUCCESS` by name with its bytes, and the pairs its part
/// files hold.
struct MapOnlyRun {
    result: JobResult,
    files: Vec<(String, bytes::Bytes)>,
    main_pairs: i64,
}

fn run_map_only<J: JobDef>(
    engine: &str,
    job: J,
    input: &dyn Fn(&SimDfs),
) -> std::result::Result<MapOnlyRun, String> {
    let (cluster, fs) = setup(2);
    input(&fs);
    let c = conf("/in", "/out", 0);
    let result = match engine {
        "hadoop" => hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()))
            .run_job(Arc::new(job), &c),
        _ => m3r::M3REngine::new(cluster, Arc::new(fs.clone())).run_job(Arc::new(job), &c),
    }
    .map_err(|e| format!("{engine}: the job failed: {e}"))?;
    let mut run = MapOnlyRun { result, files: Vec::new(), main_pairs: 0 };
    for status in fs.list_status(&HPath::new("/out")).unwrap() {
        let name = status.path.name().unwrap().to_string();
        if name.starts_with("part-") {
            let pairs = read_seq_file::<J::K3, J::V3>(&fs, &status.path).unwrap();
            run.main_pairs += pairs.len() as i64;
        }
        if name != "_SUCCESS" {
            run.files.push((name, read_file(&fs, &status.path).unwrap()));
        }
    }
    Ok(run)
}

/// Where the two engines' runs of `job` disagree with each other or with
/// Hadoop's map-only semantics.
fn map_only_disagreements<J: JobDef>(job: impl Fn() -> J, input: &dyn Fn(&SimDfs)) -> Vec<String> {
    let runs = (run_map_only("hadoop", job(), input), run_map_only("m3r", job(), input));
    let (hadoop, m3r) = match runs {
        (Ok(h), Ok(m)) => (h, m),
        (h, m) => return [h.err(), m.err()].into_iter().flatten().collect(),
    };
    let mut found = Vec::new();
    let names = |run: &MapOnlyRun| -> Vec<String> {
        run.files.iter().map(|(name, bytes)| format!("{name} ({} B)", bytes.len())).collect()
    };
    if hadoop.files != m3r.files {
        let (h, m) = (names(&hadoop), names(&m3r));
        found.push(format!("output files differ: hadoop {h:?}, m3r {m:?}"));
    }
    let (h, m) = (&hadoop.result, &m3r.result);
    if h.output_records != m.output_records {
        let (h, m) = (h.output_records, m.output_records);
        found.push(format!("output_records: hadoop {h}, m3r {m}"));
    }
    for counter in [task_counter::MAP_INPUT_RECORDS, task_counter::MAP_OUTPUT_RECORDS] {
        let (h, m) = (h.counters.task(counter), m.counters.task(counter));
        if h != m {
            found.push(format!("{counter}: hadoop {h}, m3r {m}"));
        }
    }
    for (engine, run) in [("hadoop", &hadoop), ("m3r", &m3r)] {
        let map_output = run.result.counters.task(task_counter::MAP_OUTPUT_RECORDS);
        if map_output != run.main_pairs {
            found.push(format!(
                "{engine}: MAP_OUTPUT_RECORDS {map_output}, main pairs written {}",
                run.main_pairs
            ));
        }
        if run.result.output_records as i64 != map_output {
            let records = run.result.output_records;
            found.push(format!(
                "{engine}: output_records {records}, MAP_OUTPUT_RECORDS {map_output}"
            ));
        }
        for (group, name, value) in run.result.counters.iter() {
            if name.starts_with("COMBINE") {
                found.push(format!("{engine}: {group}.{name} = {value} with no reduce phase"));
            }
        }
    }
    found
}

#[test]
fn map_only_jobs_agree_with_hadoop_on_both_engines() {
    let corpus = |fs: &SimDfs| {
        for (i, seed) in [3, 4].into_iter().enumerate() {
            generate_text(fs, &HPath::new(format!("/in/text-{i}")), 600, seed).unwrap();
        }
    };
    let numbers = |fs: &SimDfs| {
        for file in 0..2 {
            let records: Vec<(IntWritable, Text)> = (file * 10..file * 10 + 10)
                .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
                .collect();
            write_seq_file(fs, &HPath::new(format!("/in/part-{file:05}")), &records).unwrap();
        }
    };
    let rows: [(&str, Vec<String>); 3] = [
        (
            "WordCount + combiner, FreshText",
            map_only_disagreements(|| MapOnlyWordCount(WcStyle::FreshText), &corpus),
        ),
        (
            "WordCount + combiner, ReuseText",
            map_only_disagreements(|| MapOnlyWordCount(WcStyle::ReuseText), &corpus),
        ),
        ("named output", map_only_disagreements(|| MapOnlyEvenOdd, &numbers)),
    ];
    let report: Vec<String> = rows
        .iter()
        .flat_map(|(row, found)| found.iter().map(move |f| format!("{row}: {f}")))
        .collect();
    assert!(report.is_empty(), "map-only runs disagree:\n{}", report.join("\n"));
}

// ---------------------------------------------------------------------------
// New-API `setup` (§5.3): it runs once per task with a live `Context`, and
// the pairs it writes are task output like any other.
// ---------------------------------------------------------------------------

/// Identity, plus one `(-1, "map setup")` pair written in `setup`.
struct SetupWritingMapper;

impl mapreduce::Mapper<IntWritable, Text, IntWritable, Text> for SetupWritingMapper {
    fn setup(&mut self, ctx: &mut mapreduce::Context<'_, IntWritable, Text>) -> Result<()> {
        ctx.incr_counter("app", "map_setups", 1);
        ctx.write(Arc::new(IntWritable(-1)), Arc::new(Text::from("map setup")))
    }
    fn map(
        &mut self,
        key: Arc<IntWritable>,
        value: Arc<Text>,
        ctx: &mut mapreduce::Context<'_, IntWritable, Text>,
    ) -> Result<()> {
        ctx.write(key, value)
    }
}

/// Identity, plus one `(-2, "reduce setup")` pair written in `setup`.
struct SetupWritingReducer;

impl mapreduce::Reducer<IntWritable, Text, IntWritable, Text> for SetupWritingReducer {
    fn setup(&mut self, ctx: &mut mapreduce::Context<'_, IntWritable, Text>) -> Result<()> {
        ctx.incr_counter("app", "reduce_setups", 1);
        ctx.write(Arc::new(IntWritable(-2)), Arc::new(Text::from("reduce setup")))
    }
    fn reduce(
        &mut self,
        key: Arc<IntWritable>,
        values: &mut dyn Iterator<Item = Arc<Text>>,
        ctx: &mut mapreduce::Context<'_, IntWritable, Text>,
    ) -> Result<()> {
        for v in values {
            ctx.write(Arc::clone(&key), v)?;
        }
        Ok(())
    }
}

struct NewApiSetupJob;

impl JobDef for NewApiSetupJob {
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
        Box::new(MapreduceMapperAdapter(SetupWritingMapper))
    }
    fn create_reducer(
        &self,
        _c: &JobConf,
    ) -> Box<dyn TaskReducer<IntWritable, Text, IntWritable, Text>> {
        Box::new(MapreduceReducerAdapter(SetupWritingReducer))
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(SequenceFileInputFormat::new())
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn name(&self) -> &str {
        "new-api-setup"
    }
}

#[test]
fn new_api_setup_runs_and_writes_on_both_engines() {
    let (cluster, fs) = setup(2);
    // Two input files: two map tasks, each writing 10 pairs plus its setup
    // pair; two reducers, each passing those on plus its own setup pair.
    for file in 0..2 {
        let records: Vec<(IntWritable, Text)> = (file * 10..file * 10 + 10)
            .map(|i| (IntWritable(i), Text::from(format!("v{i}"))))
            .collect();
        write_seq_file(&fs, &HPath::new(format!("/in/part-{file:05}")), &records).unwrap();
    }
    let mut hadoop = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    let rh = hadoop.run_job(Arc::new(NewApiSetupJob), &conf("/in", "/h", 2)).unwrap();
    let mut m3r = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
    let rm = m3r.run_job(Arc::new(NewApiSetupJob), &conf("/in", "/m", 2)).unwrap();

    let mut outputs = Vec::new();
    for (dir, r) in [("/h", &rh), ("/m", &rm)] {
        let mut got = Vec::new();
        for p in 0..2 {
            let part = HPath::new(format!("{dir}/part-{p:05}"));
            got.extend(read_seq_file::<IntWritable, Text>(&fs, &part).unwrap());
        }
        got.sort();
        let setup_pairs = |key: i32| got.iter().filter(|(k, _)| k.0 == key).count();
        assert_eq!(
            (setup_pairs(-1), setup_pairs(-2), got.len()),
            (2, 2, 24),
            "{dir}: map-setup pairs, reduce-setup pairs, all pairs"
        );
        assert_eq!(r.counters.get("app", "map_setups"), 2, "{dir}: one per map task");
        assert_eq!(r.counters.get("app", "reduce_setups"), 2, "{dir}: one per reducer");
        assert_eq!(r.counters.task(task_counter::MAP_OUTPUT_RECORDS), 22, "{dir}");
        assert_eq!(r.counters.task(task_counter::REDUCE_INPUT_RECORDS), 22, "{dir}");
        assert_eq!(r.counters.task(task_counter::REDUCE_OUTPUT_RECORDS), 24, "{dir}");
        assert_eq!(r.output_records, 24, "{dir}");
        outputs.push(got);
    }
    assert_eq!(outputs[0], outputs[1], "the engines wrote the same pairs");
}

// ---------------------------------------------------------------------------
// Combiner lifecycle (§5.3: "any combination of old and new style mapper,
// combiner, and reducer"): Hadoop makes, sets up and closes a combiner per
// combiner run, one spill partition's records, and what the combiner writes
// in `cleanup` is map output like any other.
// ---------------------------------------------------------------------------

/// A new-API LongSum combiner whose `setup` and `cleanup` each bump a user
/// counter, and whose `cleanup` writes `("~", 0)`.
struct NewApiSum;

impl mapreduce::Reducer<Text, LongWritable, Text, LongWritable> for NewApiSum {
    fn setup(&mut self, ctx: &mut mapreduce::Context<'_, Text, LongWritable>) -> Result<()> {
        ctx.incr_counter("combiner", "setups", 1);
        Ok(())
    }
    fn reduce(
        &mut self,
        key: Arc<Text>,
        values: &mut dyn Iterator<Item = Arc<LongWritable>>,
        ctx: &mut mapreduce::Context<'_, Text, LongWritable>,
    ) -> Result<()> {
        ctx.write(key, Arc::new(LongWritable(values.map(|v| v.0).sum())))
    }
    fn cleanup(&mut self, ctx: &mut mapreduce::Context<'_, Text, LongWritable>) -> Result<()> {
        ctx.incr_counter("combiner", "cleanups", 1);
        ctx.write(Arc::new(Text::from("~")), Arc::new(LongWritable(0)))
    }
}

/// `configure` and `close` calls of one job's old-API combiners.
#[derive(Default)]
struct LifecycleCalls {
    configured: AtomicI64,
    closed: AtomicI64,
}

/// An old-API LongSum combiner counting its `configure` and `close` calls.
struct OldApiSum(Arc<LifecycleCalls>);

impl mapred::Reducer<Text, LongWritable, Text, LongWritable> for OldApiSum {
    fn configure(&mut self, _conf: &JobConf) {
        self.0.configured.fetch_add(1, Ordering::SeqCst);
    }
    fn reduce(
        &mut self,
        key: &Text,
        values: &mut dyn Iterator<Item = Arc<LongWritable>>,
        output: &mut dyn OutputCollector<Text, LongWritable>,
        _reporter: &mut TaskContext,
    ) -> Result<()> {
        let sum = LongWritable(values.map(|v| v.0).sum());
        output.collect(Arc::new(key.clone()), Arc::new(sum))
    }
    fn close(&mut self) -> Result<()> {
        self.0.closed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// Either combiner, with or without the declaration that its `reduce` is
/// the fold `acc += value`.
struct Declared {
    inner: Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>,
    fold: bool,
}

impl TaskReducer<Text, LongWritable, Text, LongWritable> for Declared {
    fn setup(
        &mut self,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.inner.setup(out, ctx)
    }
    fn reduce(
        &mut self,
        key: Arc<Text>,
        values: &mut dyn Iterator<Item = Arc<LongWritable>>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.inner.reduce(key, values, out, ctx)
    }
    fn cleanup(
        &mut self,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        self.inner.cleanup(out, ctx)
    }
    fn as_fold(&self) -> Option<fn(&mut LongWritable, &LongWritable)> {
        if self.fold {
            Some(|acc, v| acc.0 += v.0)
        } else {
            None
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum CombinerForm {
    None,
    NewApi,
    OldApi,
}

/// FreshText WordCount with a `LongSumReducer` and the combiner `form`.
struct LifecycleJob {
    form: CombinerForm,
    fold: bool,
    calls: Arc<LifecycleCalls>,
}

impl JobDef for LifecycleJob {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        c: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        WordCountJob::new(WcStyle::FreshText).create_mapper(c)
    }
    fn create_reducer(
        &self,
        c: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        WordCountJob::new(WcStyle::FreshText).create_reducer(c)
    }
    fn create_combiner(
        &self,
        _c: &JobConf,
    ) -> Option<Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>>> {
        let inner: Box<dyn TaskReducer<_, _, _, _>> = match self.form {
            CombinerForm::None => return None,
            CombinerForm::NewApi => Box::new(MapreduceReducerAdapter(NewApiSum)),
            CombinerForm::OldApi => Box::new(MapredReducerAdapter(OldApiSum(self.calls.clone()))),
        };
        Some(Box::new(Declared { inner, fold: self.fold }))
    }
    fn input_format(&self, c: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        WordCountJob::new(WcStyle::FreshText).input_format(c)
    }
    fn output_format(&self, c: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        WordCountJob::new(WcStyle::FreshText).output_format(c)
    }
    fn immutable_output(&self) -> bool {
        true
    }
}

/// One lifecycle row's job output (sorted), result, and (setup, cleanup)
/// runs: the user counters for the new API, `configure` / `close` calls for
/// the old.
type LifecycleRun = (Vec<(String, i64)>, JobResult, (i64, i64));

/// Four 2 000-byte text files on two nodes, two reducers; Hadoop spills
/// every 512 bytes of map output, so each map task spills several times.
fn run_lifecycle(engine: &str, form: CombinerForm, across: bool, fold: bool) -> LifecycleRun {
    let (cluster, fs) = setup(2);
    for (i, seed) in [5, 6, 7, 8].into_iter().enumerate() {
        generate_text(&fs, &HPath::new(format!("/in/text-{i}")), 2000, seed).unwrap();
    }
    let mut c = conf("/in", "/out", 2);
    c.set_place_level_combine(across);
    let calls = Arc::new(LifecycleCalls::default());
    let job = Arc::new(LifecycleJob { form, fold, calls: Arc::clone(&calls) });
    let fs_arc: Arc<dyn FileSystem> = Arc::new(fs.clone());
    let result = match engine {
        "hadoop" => {
            let opts = hadoop_engine::EngineOptions {
                sort_buffer_bytes: 512,
                ..Default::default()
            };
            hadoop_engine::HadoopEngine::with_options(cluster, fs_arc, opts).run_job(job, &c)
        }
        _ => m3r::M3REngine::new(cluster, fs_arc).run_job(job, &c),
    }
    .unwrap();
    let mut out = Vec::new();
    for p in 0..2 {
        let part = HPath::new(format!("/out/part-{p:05}"));
        let pairs = read_seq_file::<Text, LongWritable>(&fs, &part).unwrap();
        out.extend(pairs.into_iter().map(|(k, v)| (k.as_str().to_string(), v.0)));
    }
    out.sort();
    let runs = match form {
        CombinerForm::OldApi => (
            calls.configured.load(Ordering::SeqCst),
            calls.closed.load(Ordering::SeqCst),
        ),
        _ => {
            let calls = |name| result.counters.get("combiner", name);
            (calls("setups"), calls("cleanups"))
        }
    };
    (out, result, runs)
}

#[test]
fn combiner_lifecycle_runs_on_both_engines() {
    let (plain, ..) = run_lifecycle("hadoop", CombinerForm::None, false, false);
    assert_eq!(run_lifecycle("m3r", CombinerForm::None, false, false).0, plain);
    // A combiner's output stays in the partition it combines, as in Hadoop,
    // so both reducers receive `("~", 0)` pairs and each sums them into one.
    let mut with_tilde = plain.clone();
    with_tilde.extend([("~".to_string(), 0), ("~".to_string(), 0)]);

    let mut failures = Vec::new();
    for form in [CombinerForm::NewApi, CombinerForm::OldApi] {
        let expected = if form == CombinerForm::NewApi { &with_tilde } else { &plain };
        // (engine, combine across a node's / place's tasks, fold declared)
        let rows = [
            ("hadoop", false, false),
            ("hadoop", true, false),
            ("m3r", false, false),
            ("m3r", true, false),
            ("m3r", false, true),
            ("m3r", true, true),
        ];
        let mut runs_without_across = 0;
        for (engine, across, fold) in rows {
            let row = format!("{form:?} on {engine}, across {across}, fold {fold}");
            let (out, result, (setups, cleanups)) = run_lifecycle(engine, form, across, fold);
            if setups < 1 || setups != cleanups {
                failures.push(format!("{row}: {setups} setup runs, {cleanups} cleanup runs"));
            }
            if out != *expected {
                let tildes = out.iter().filter(|(k, _)| k == "~").count();
                let (got, want) = (out.len(), expected.len());
                failures.push(format!("{row}: {got} output pairs ({tildes} `~`), {want} expected"));
            }
            let combined_in = result.counters.task(task_counter::COMBINE_INPUT_RECORDS);
            if combined_in < 1 {
                failures.push(format!("{row}: COMBINE_INPUT_RECORDS {combined_in}"));
            }
            // More runs than one per map task and partition: tasks spilled
            // more than once.
            if engine == "hadoop" && !across && setups <= 4 * 2 {
                failures.push(format!("{row}: {setups} runs for 4 map tasks of 2 partitions"));
            }
            // Combining across tasks adds combiner runs to the same job.
            if !across {
                runs_without_across = setups;
            } else if setups <= runs_without_across {
                failures.push(format!("{row}: {setups} runs, {runs_without_across} without"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
