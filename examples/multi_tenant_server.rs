//! The multi-tenant job server (paper §5.3, grown up): many clients share
//! one warm M3R engine through an async ticket API.
//!
//! The tour: two tenants submit independent jobs that run **concurrently**
//! on job lanes of the shared places; a third submission depends on the
//! first tenant's output and waits on the conflict DAG; a high-priority
//! job overtakes the queue (but never a dependency edge); one tenant runs
//! under a cache quota and gets its entries evicted first; and shutdown
//! drains every ticket and returns the warm engine.
//!
//! ```sh
//! cargo run --release --example multi_tenant_server
//! ```

use std::sync::Arc;

use hmr_api::counters::task_counter;
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::partition::HashPartitioner;
use hmr_api::writable::{IntWritable, Text};
use hmr_api::{FileSystem, HPath, JobConf};
use m3r::{M3REngine, RepartitionJob};
use m3r_server::{JobServer, ServerOptions};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

fn conf(input: &str, output: &str) -> JobConf {
    let mut c = JobConf::new();
    c.add_input_path(&HPath::new(input));
    c.set_output_path(&HPath::new(output));
    c.set_num_reduce_tasks(2);
    c
}

fn id_job() -> Arc<RepartitionJob<IntWritable, Text>> {
    Arc::new(RepartitionJob::new(|| Box::new(HashPartitioner)))
}

fn main() {
    let cluster = Cluster::new(4, CostModel::default());
    let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
    for (dir, n) in [("/alice/in", 64), ("/bob/in", 48), ("/carol/in", 80)] {
        let records: Vec<(IntWritable, Text)> = (0..n)
            .map(|i| (IntWritable(i), Text::from(format!("{dir}-{i}"))))
            .collect();
        write_seq_file(&fs, &HPath::new(format!("{dir}/part-00000")), &records).unwrap();
    }

    // The cache is governed (infinite budget), so per-client quotas have a
    // spill path to evict to.
    let engine = M3REngine::new(cluster.clone(), Arc::new(fs.clone()));
    let server = JobServer::with_options(engine, ServerOptions { workers: 4 });

    // --- async submission: tickets come back immediately -------------------
    let alice = server.client_as("alice");
    let bob = server.client_as("bob");
    let t_alice = alice.submit(id_job(), &conf("/alice/in", "/alice/out")).unwrap();
    let t_bob = bob.submit(id_job(), &conf("/bob/in", "/bob/out")).unwrap();
    println!(
        "submitted job {} ({}) and job {} ({}) — both tickets returned instantly",
        t_alice.id(),
        t_alice.client(),
        t_bob.id(),
        t_bob.client()
    );

    // --- dependencies: a job reading alice's output waits for it ----------
    let t_join = alice
        .submission()
        .submit(id_job(), &conf("/alice/out", "/alice/refined"))
        .unwrap();

    // --- priority: jumps the ready queue, never a conflict edge -----------
    let t_urgent = bob
        .submission()
        .priority(10)
        .submit(id_job(), &conf("/bob/in", "/bob/urgent"))
        .unwrap();

    // --- quota: carol caps her resident cache bytes ------------------------
    let t_carol = server
        .client_as("carol")
        .submission()
        .cache_quota(512)
        .submit(id_job(), &conf("/carol/in", "/carol/out"))
        .unwrap();

    for (name, t) in [
        ("alice", &t_alice),
        ("bob", &t_bob),
        ("alice:refined", &t_join),
        ("bob:urgent", &t_urgent),
        ("carol", &t_carol),
    ] {
        let r = t.wait().unwrap();
        println!(
            "{name:>14}: job {} {:?} — {} records, {:.4} sim-s, {} cache-hit records",
            t.id(),
            t.status(),
            r.output_records,
            r.sim_time,
            r.counters.task(task_counter::CACHE_HIT_RECORDS),
        );
    }

    // --- drain and take the warm engine back -------------------------------
    let engine = server.shutdown();
    println!(
        "after shutdown: cache holds {} bytes total; carol resident = {} (quota 512), evictions = {}",
        engine.cache().total_bytes(),
        engine.cache().client_resident_bytes("carol"),
        (0..cluster.len()).map(|p| cluster.mem().evictions(p)).sum::<u64>(),
    );
    assert!(fs.exists(&HPath::new("/alice/refined/part-00000")));
}
