//! Allocations per job: the fixed cost of a small M3R job, counted. The
//! `servermix` benchmark runs 400-record jobs, so its per-job bookkeeping
//! (conf, cache and kv-store paths, path locks, counters) is most of its
//! work; this binary pins how many heap allocations one such job makes.
//! It counts through the `counting` module's `#[global_allocator]` and
//! holds a single test, so nothing else allocates while a job is counted.

use std::sync::Arc;

use hmr_api::conf::JobConf;
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::partition::HashPartitioner;
use hmr_api::writable::{IntWritable, Text};
use hmr_api::{Engine, FileSystem, HPath};
use m3r::{M3REngine, M3ROptions, RepartitionJob};

mod common;
mod counting;
use common::fresh;
use counting::allocs;

const RECORDS: i32 = 400;
const REDUCERS: usize = 4;
const WARMUP_JOBS: usize = 5;
const COUNTED_JOBS: usize = 20;
/// Jobs a client submits per round of the benchmark mix: outputs are
/// named `/r{round}/c0/job{job}` as there.
const JOBS_PER_ROUND: usize = 8;

/// A `servermix`-shaped job on M3R (2 places, 2 workers, one 400-record
/// `(IntWritable, Text)` input, an identity repartition into 4 reducers):
/// after warm-up, each job makes at most 1,100 heap allocations. A path
/// that allocates once per ancestor costs several hundred more.
#[test]
fn servermix_job_allocations_per_job() {
    let (cluster, fs) = fresh(2);
    let input = HPath::new("/c0/in");
    let records: Vec<(IntWritable, Text)> = (0..RECORDS)
        .map(|r| {
            let tail = format!("{:048x}", (r as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (IntWritable(r), Text::from(format!("0000-{r:06}-{tail}")))
        })
        .collect();
    write_seq_file(&fs, &input.join("part-00000"), &records).unwrap();
    let opts = M3ROptions {
        worker_threads: 2,
        ..M3ROptions::default()
    };
    let mut engine = M3REngine::with_options(cluster, Arc::new(fs), opts);
    let job = Arc::new(RepartitionJob::<IntWritable, Text>::new(|| {
        Box::new(HashPartitioner)
    }));
    let mut counted = 0;
    for n in 0..WARMUP_JOBS + COUNTED_JOBS {
        let output = HPath::new(format!(
            "/r{}/c0/job{}",
            n / JOBS_PER_ROUND,
            n % JOBS_PER_ROUND
        ));
        let mut conf = JobConf::new();
        conf.add_input_path(&input);
        conf.set_output_path(&output);
        conf.set_num_reduce_tasks(REDUCERS);
        let before = allocs();
        let r = engine.run_job(Arc::clone(&job), &conf).unwrap();
        let made = allocs() - before;
        assert_eq!(r.output_records, RECORDS as u64);
        if n >= WARMUP_JOBS {
            counted += made;
        }
        engine.caching_fs().delete(&output, true).unwrap();
    }
    let per_job = counted as f64 / COUNTED_JOBS as f64;
    assert!(
        per_job <= 1100.0,
        "{per_job:.1} allocations per job (bound 1,100)"
    );
}
