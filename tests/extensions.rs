//! End-to-end tests of the §4 API extensions that need an engine to mean
//! anything: `PlacedSplit`-driven mapper placement (the §6.1.1 alternative
//! to a full repartitioning job) and temp-path configuration knobs.

use std::sync::Arc;

use hmr_api::comparator::KeyComparator;
use hmr_api::conf::JobConf;
use hmr_api::counters::task_counter;
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::io::{
    InputFormat, OutputFormat, PlacedByPartFile, SequenceFileInputFormat,
    SequenceFileOutputFormat,
};
use hmr_api::job::{Engine, JobDef};
use hmr_api::partition::{FnPartitioner, Partitioner};
use hmr_api::task::{IdentityMapper, IdentityReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{IntWritable, Text};
use hmr_api::HPath;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

/// Identity pipeline whose input format pins `part-NNNNN` splits to
/// partition `NNNNN` (the `PlacedSplit` extension).
struct PlacedPipe;

impl JobDef for PlacedPipe {
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
        Box::new(IdentityReducer)
    }
    fn partitioner(&self, _c: &JobConf) -> Box<dyn Partitioner<IntWritable, Text>> {
        Box::new(FnPartitioner::new(|k: &IntWritable, _: &Text, n| {
            k.0.rem_euclid(n as i32) as usize
        }))
    }
    fn input_format(&self, _c: &JobConf) -> Box<dyn InputFormat<IntWritable, Text>> {
        Box::new(PlacedByPartFile::new(
            SequenceFileInputFormat::<IntWritable, Text>::new(),
        ))
    }
    fn output_format(&self, _c: &JobConf) -> Box<dyn OutputFormat<IntWritable, Text>> {
        Box::new(SequenceFileOutputFormat::new())
    }
    fn immutable_output(&self) -> bool {
        true
    }
    fn sort_comparator(&self) -> KeyComparator<IntWritable> {
        KeyComparator::natural()
    }
    fn name(&self) -> &str {
        "placed-pipe"
    }
}

/// Generate part files whose CONTENT is partitioned correctly (keys ≡ p in
/// part-p) but whose DFS placement is adversarial: every primary replica on
/// node 0 — the "merely permuted across the hosts" scenario of §6.1.1.
fn generate_permuted(fs: &SimDfs, nodes: usize) {
    let cluster = fs.cluster();
    for p in 0..nodes {
        let records: Vec<(IntWritable, Text)> = (0..16)
            .map(|i| {
                (
                    IntWritable((i * nodes + p) as i32),
                    Text::from(format!("v{p}-{i}")),
                )
            })
            .collect();
        // Write while metered at node 0 so every primary lands there.
        simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
            write_seq_file(fs, &HPath::new(format!("/in/part-{p:05}")), &records).unwrap();
        });
    }
    cluster.reset();
}

#[test]
fn placed_splits_avoid_the_repartition_job() {
    let nodes = 4;
    let cluster = Cluster::new(nodes, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 1);
    generate_permuted(&fs, nodes);
    let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));

    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new("/w/temp_a"));
    conf.set_num_reduce_tasks(nodes);

    // First job: splits are pulled to their partitions' places — remote
    // *reads* happen (the one-off network move), but the shuffle is
    // already 100% local, with no repartition job in sight.
    let r1 = engine.run_job(Arc::new(PlacedPipe), &conf).unwrap();
    assert_eq!(
        r1.counters.task(task_counter::REMOTE_SHUFFLED_RECORDS),
        0,
        "PlacedSplit pre-positions the mappers"
    );
    assert!(
        r1.metrics.net_bytes > 0,
        "the mis-placed data crossed the network once to reach its place"
    );

    // Second job: "the data would be cached in the right place so the cost
    // would be only for the first iteration."
    conf.set_input_paths(&[HPath::new("/w/temp_a")]);
    conf.set_output_path(&HPath::new("/w/temp_b"));
    let r2 = engine.run_job(Arc::new(PlacedPipe), &conf).unwrap();
    assert_eq!(r2.counters.task(task_counter::REMOTE_SHUFFLED_RECORDS), 0);
    assert_eq!(r2.metrics.disk_bytes_read, 0, "cache hit");
    assert_eq!(
        r2.counters.task(task_counter::CACHE_HIT_RECORDS),
        16 * nodes as i64
    );
}

#[test]
fn explicit_temp_path_list_bypasses_the_naming_convention() {
    // §4.2.3: "a list of files that should be considered temporary could be
    // passed enumerated in a job configuration setting."
    let cluster = Cluster::new(2, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    let records: Vec<(IntWritable, Text)> =
        (0..8).map(|i| (IntWritable(i), Text::from("x"))).collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
    let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));

    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new("/results/stage1")); // no "temp" prefix
    conf.add_temp_path(&HPath::new("/results/stage1"));
    conf.set_num_reduce_tasks(2);
    let r = engine.run_job(Arc::new(PlacedPipe), &conf).unwrap();
    assert_eq!(r.output_records, 8);
    use hmr_api::fs::FileSystem;
    assert!(
        !fs.exists(&HPath::new("/results/stage1/part-00000")),
        "explicitly-listed temp output stays off the DFS"
    );
    assert!(engine
        .cache()
        .stat(&HPath::new("/results/stage1/part-00000"))
        .is_some());
}

#[test]
fn custom_temp_prefix_is_honoured() {
    let cluster = Cluster::new(2, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    let records: Vec<(IntWritable, Text)> =
        (0..4).map(|i| (IntWritable(i), Text::from("x"))).collect();
    write_seq_file(&fs, &HPath::new("/in/part-00000"), &records).unwrap();
    let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));

    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new("/out/scratch_1"));
    conf.set(hmr_api::conf::TEMP_PREFIX, "scratch");
    conf.set_num_reduce_tasks(1);
    engine.run_job(Arc::new(PlacedPipe), &conf).unwrap();
    use hmr_api::fs::FileSystem;
    assert!(!fs.exists(&HPath::new("/out/scratch_1/part-00000")));
    assert!(engine.cache().stat(&HPath::new("/out/scratch_1/part-00000")).is_some());
}
