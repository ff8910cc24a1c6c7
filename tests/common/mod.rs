//! Helpers shared by the integration suites (each pulls them in with
//! `mod common;` and uses a subset).
#![allow(dead_code)]

use hmr_api::fs::FileSystem;
use hmr_api::job::JobResult;
use hmr_api::HPath;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel, Workers};

/// A fresh `places`-node cluster and DFS (1 MB blocks, 2-way replication).
/// Every charge is priced from the job's own work (the cost model never
/// reads the host clock), so simulated seconds are bit-reproducible run to
/// run — the precondition for every `to_bits` comparison in the suites.
pub fn fresh(places: usize) -> (Cluster, SimDfs) {
    let cluster = Cluster::new(places, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    (cluster, fs)
}

/// The wave mode a suite's serial/parallel flag stands for. Never `Auto`:
/// its choice depends on input size and the machine's cores, and these
/// suites need to know which path they ran.
pub fn forced(parallel: bool) -> Workers {
    if parallel {
        Workers::Always
    } else {
        Workers::Never
    }
}

/// Raw bytes of every part file under `dir`, in partition order.
pub fn part_bytes(fs: &SimDfs, dir: &str, parts: usize) -> Vec<(String, bytes::Bytes)> {
    (0..parts)
        .filter_map(|p| {
            let name = format!("{dir}/part-{p:05}");
            let path = HPath::new(name.as_str());
            fs.exists(&path)
                .then(|| (name, hmr_api::fs::read_file(fs, &path).unwrap()))
        })
        .collect()
}

/// Two runs agree on everything a job reports: simulated seconds to the
/// bit, counters, metrics and output record count.
pub fn assert_same_result(a: &JobResult, b: &JobResult, what: &str) {
    assert_eq!(
        a.sim_time.to_bits(),
        b.sim_time.to_bits(),
        "{what}: simulated seconds must be bit-identical ({} vs {})",
        a.sim_time,
        b.sim_time,
    );
    assert_eq!(a.counters, b.counters, "{what}: counters differ");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics differ");
    assert_eq!(
        a.output_records, b.output_records,
        "{what}: output record counts differ"
    );
}
