//! §6.1.1: the one-off repartitioning cost. "For the data described, this
//! takes 83 seconds. This is a one-off cost, as the reorganized data can be
//! used for any job, in any run of the benchmark subsequent to this."
//!
//! Also demonstrates the `PlacedSplit` alternative the paper sketches as
//! further work: remote cache reads bring mis-placed data to the right
//! place for the cost of one network move instead of a full MR job.

use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use workloads::microbench::{generate_microbench_input, run_microbench};

const PAIRS: usize = 20_000;
const VALUE_BYTES: usize = 1_000;
const PARTS: usize = NODES;

fn main() {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42).unwrap();
    let mut engine = m3r::M3REngine::new(cluster.clone(), Arc::new(fs));

    let rep = m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), PARTS, || {
        Box::new(FnPartitioner::new(
            |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
        ))
    })
    .unwrap();

    // Show the payoff: a 0%-remote job before vs after repartitioning.
    let before = {
        use hmr_api::extensions::CacheFsExt;
        let raw = engine.caching_fs().raw_cache();
        raw.delete(&HPath::new("/st"), true).unwrap();
        raw.delete(&HPath::new("/in"), true).unwrap();
        run_microbench(
            &mut engine,
            &HPath::new("/in"),
            &HPath::new("/w1"),
            0.0,
            1,
            PARTS,
            true,
            None,
        )
        .unwrap()
        .remove(0)
    };
    let after = run_microbench(
        &mut engine,
        &HPath::new("/st"),
        &HPath::new("/w2"),
        0.0,
        1,
        PARTS,
        true,
        None,
    )
    .unwrap()
    .remove(0);

    let mut report = BenchReport::new("repartition");
    report.table(
        "Section 6.1.1: repartitioning",
        &["metric", "value"],
        vec![
            vec!["repartition_job_s".into(), secs(rep.sim_time)],
            vec![
                "remote_records_before".into(),
                before
                    .counters
                    .task(hmr_api::counters::task_counter::REMOTE_SHUFFLED_RECORDS)
                    .to_string(),
            ],
            vec![
                "remote_records_after".into(),
                after
                    .counters
                    .task(hmr_api::counters::task_counter::REMOTE_SHUFFLED_RECORDS)
                    .to_string(),
            ],
            vec!["iter_time_before_s".into(), secs(before.sim_time)],
            vec!["iter_time_after_s".into(), secs(after.sim_time)],
        ],
    );
    report.finish().unwrap();
}
