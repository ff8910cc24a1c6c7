//! The job shape of the `servermix` benchmark workload (`e2e/`): 6 clients
//! × 8 identity-repartition jobs over 400-record inputs. The seeded
//! independent / chained / shared-input mix itself is generated by
//! `e2e/src/workload/servermix.rs`.

use std::sync::Arc;

use hmr_api::conf::JobConf;
use hmr_api::partition::HashPartitioner;
use hmr_api::writable::{IntWritable, Text};
use hmr_api::HPath;
use m3r::RepartitionJob;

/// Tenants submitting concurrently.
pub const CLIENTS: usize = 6;
/// Jobs each tenant submits.
pub const JOBS_PER_CLIENT: usize = 8;
/// Records per generated input file.
pub const RECORDS: i32 = 400;
/// Reduce tasks per job.
pub const REDUCERS: usize = 4;

/// The identity repartition job all mix entries run.
pub fn id_job() -> Arc<RepartitionJob<IntWritable, Text>> {
    Arc::new(RepartitionJob::new(|| Box::new(HashPartitioner)))
}

/// A job configuration reading `input` and writing `output`.
pub fn conf(input: &str, output: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new(input));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(REDUCERS);
    c
}
