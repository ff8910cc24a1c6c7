//! The trace recorder must be a pure observer: turning it on may not
//! change a single bit of the simulation, and the spans it collects must
//! reproduce the paper's headline claims when rolled up.
//!
//! * **Invisibility** — the fig6 microbenchmark runs with tracing off and
//!   on, serial and parallel, on both engines; simulated seconds (compared
//!   through `f64::to_bits`), counters, metrics, and raw output part bytes
//!   must be identical. The trace hooks live on the `Node::charge` hot
//!   path, so any perturbation (an extra charge, a reordered clock
//!   advance) would show here.
//! * **Cache claim (§6.1)** — under the fig6 M3R protocol (repartition,
//!   purge, reset, three chained iterations) the rollup must show
//!   iteration 1 paying the cold HDFS read and iteration 2 reading zero
//!   disk bytes: the input cache serves everything.
//! * **Stability claim (§4.2.2)** — with the stable partition layout and a
//!   0%-remote key distribution, the shuffle phase must move zero network
//!   bytes in every iteration.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::job::JobResult;
use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;
use m3r::{M3REngine, M3ROptions};
use simgrid::trace::Phase;
use simgrid::Cluster;
use workloads::microbench::{generate_microbench_input, run_microbench};

mod common;
use common::{assert_same_result, forced, fresh, part_bytes};

const PLACES: usize = 4;
const WORKERS: usize = 4;
const PARTS: usize = 8;

// ---------------------------------------------------------------------------
// Invisibility: trace on == trace off, bit for bit
// ---------------------------------------------------------------------------

fn microbench_m3r(traced: bool, parallel: bool) -> (Vec<JobResult>, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    if traced {
        cluster.trace().enable();
    }
    let mut engine = M3REngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        M3ROptions {
            worker_threads: WORKERS,
            workers: forced(parallel),
            ..M3ROptions::default()
        },
    );
    let results = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        3,
        PARTS,
        true,
        None,
    )
    .unwrap();
    if traced {
        assert!(!cluster.trace().is_empty(), "enabled trace recorded nothing");
    } else {
        assert!(cluster.trace().is_empty(), "disabled trace recorded spans");
    }
    (results, part_bytes(&fs, "/mb/iter2", PARTS))
}

fn microbench_hadoop(
    traced: bool,
    parallel: bool,
) -> (Vec<JobResult>, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    if traced {
        cluster.trace().enable();
    }
    let mut engine = HadoopEngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        EngineOptions {
            map_slots_per_node: WORKERS,
            reduce_slots_per_node: WORKERS,
            sort_buffer_bytes: 1 << 16,
            max_task_attempts: 4,
            workers: forced(parallel),
            ..EngineOptions::default()
        },
    );
    let results = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        2,
        PARTS,
        false,
        None,
    )
    .unwrap();
    if traced {
        assert!(!cluster.trace().is_empty(), "enabled trace recorded nothing");
    } else {
        assert!(cluster.trace().is_empty(), "disabled trace recorded spans");
    }
    (results, part_bytes(&fs, "/mb/iter1", PARTS))
}

#[test]
fn tracing_is_invisible_on_m3r() {
    for parallel in [false, true] {
        let (off, off_out) = microbench_m3r(false, parallel);
        let (on, on_out) = microbench_m3r(true, parallel);
        assert_eq!(off.len(), on.len());
        for (i, (a, b)) in off.iter().zip(&on).enumerate() {
            assert_same_result(a, b, &format!("m3r iter{i} (parallel={parallel})"));
        }
        assert!(!off_out.is_empty(), "microbench produced no output");
        assert_eq!(off_out, on_out, "m3r output bytes differ (parallel={parallel})");
    }
}

#[test]
fn tracing_is_invisible_on_hadoop() {
    for parallel in [false, true] {
        let (off, off_out) = microbench_hadoop(false, parallel);
        let (on, on_out) = microbench_hadoop(true, parallel);
        assert_eq!(off.len(), on.len());
        for (i, (a, b)) in off.iter().zip(&on).enumerate() {
            assert_same_result(a, b, &format!("hadoop iter{i} (parallel={parallel})"));
        }
        assert!(!off_out.is_empty(), "microbench produced no output");
        assert_eq!(off_out, on_out, "hadoop output bytes differ (parallel={parallel})");
    }
}

// ---------------------------------------------------------------------------
// Rollups reproduce the paper's claims
// ---------------------------------------------------------------------------

/// The fig6 M3R protocol at test scale: repartition `/in` into the stable
/// layout `/st`, purge the cache, reset the cluster, enable tracing, then
/// run three chained iterations at `remote_fraction`.
fn traced_m3r_protocol(remote_fraction: f64) -> (Cluster, Vec<JobResult>) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    let mut engine = M3REngine::new(cluster.clone(), Arc::new(fs));
    m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), PARTS, || {
        Box::new(FnPartitioner::new(
            |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
        ))
    })
    .unwrap();
    {
        use hmr_api::extensions::CacheFsExt;
        let raw = engine.caching_fs().raw_cache();
        raw.delete(&HPath::new("/st"), true).unwrap();
        raw.delete(&HPath::new("/in"), true).unwrap();
    }
    engine.cluster().reset();
    // `reset` clears the trace, so the three measured iterations are trace
    // jobs 0, 1, 2.
    cluster.trace().enable();
    let cleanup = Arc::clone(engine.caching_fs());
    let results = run_microbench(
        &mut engine,
        &HPath::new("/st"),
        &HPath::new("/work"),
        remote_fraction,
        3,
        PARTS,
        true,
        Some(&*cleanup),
    )
    .unwrap();
    (cluster, results)
}

#[test]
fn m3r_second_iteration_reads_no_disk() {
    let (cluster, results) = traced_m3r_protocol(0.5);
    assert_eq!(results.len(), 3);
    let rollup = cluster.trace().rollup();
    assert_eq!(rollup.jobs().len(), 3, "expected one trace job per iteration");

    let cold = rollup.job_totals(0);
    let warm = rollup.job_totals(1);
    assert!(
        cold.disk_bytes_read > 0,
        "iteration 1 starts cold and must pay the HDFS read"
    );
    assert_eq!(
        warm.disk_bytes_read, 0,
        "iteration 2 must be served entirely from the cache (§6.1)"
    );
    // The rollup agrees with what the engine itself reported.
    assert_eq!(
        cold.disk_bytes_read, results[0].metrics.disk_bytes_read,
        "trace attribution must match the job's own metrics"
    );
}

#[test]
fn stable_shuffle_moves_no_remote_bytes() {
    // remote_fraction 0: every key hashes to its own partition, and the
    // stable layout keeps partition p at place p — the shuffle is pure
    // local motion.
    let (cluster, results) = traced_m3r_protocol(0.0);
    let rollup = cluster.trace().rollup();
    for job in rollup.jobs() {
        let shuffle = rollup.phase_totals(job, Phase::Shuffle);
        assert_eq!(
            shuffle.net_bytes, 0,
            "job {job}: a 0%-remote stable shuffle must move no network bytes (§4.2.2)"
        );
    }
    // Sanity: the jobs did shuffle records (locally).
    assert!(results.iter().all(|r| r.output_records > 0));
}
