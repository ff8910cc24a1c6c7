//! Ablations of M3R's design choices (the DESIGN.md list): each toggle is
//! flipped in isolation on the workload that stresses it.
//!
//! * de-duplication (Full / Consecutive / Off) on the matvec V broadcast;
//! * partition stability on/off on the 0%-remote microbenchmark pipeline;
//! * the input cache on/off on a repeated-input job;
//! * `ImmutableOutput` vs default cloning on WordCount.

use hmr_api::counters::task_counter;
use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;
use m3r::{DedupMode, M3REngine, M3ROptions};
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use workloads::matvec::{generate_matvec_input, run_matvec_iterations};
use workloads::microbench::{generate_microbench_input, run_microbench};
use workloads::textgen::generate_text;
use workloads::wordcount::{run_wordcount, WcStyle};

fn main() {
    let mut report = BenchReport::new("ablations");
    dedup_ablation(&mut report);
    stability_ablation(&mut report);
    cache_ablation(&mut report);
    immutable_ablation(&mut report);
    report.finish().unwrap();
}

fn engine_with(opts: M3ROptions, fs: simdfs::SimDfs, cluster: simgrid::Cluster) -> M3REngine {
    M3REngine::with_options(cluster, Arc::new(fs), opts)
}

fn dedup_ablation(report: &mut BenchReport) {
    let mut rows = Vec::new();
    for (label, mode) in [
        ("full", DedupMode::Full),
        ("consecutive", DedupMode::Consecutive),
        ("off", DedupMode::Off),
    ] {
        let (cluster, fs) = m3r_bench::cluster(NODES);
        let (n, block) = (8_000usize, 100);
        generate_matvec_input(&fs, &HPath::new("/g"), &HPath::new("/v"), n, block, 0.001, NODES, 42)
            .unwrap();
        let mut engine = engine_with(
            M3ROptions {
                dedup: mode,
                ..M3ROptions::default()
            },
            fs,
            cluster.clone(),
        );
        let iters = run_matvec_iterations(
            &mut engine,
            &HPath::new("/g"),
            &HPath::new("/v"),
            &HPath::new("/w"),
            2,
            NODES,
            n.div_ceil(block),
        )
        .unwrap();
        let time: f64 = iters.iter().map(|i| i.sim_time()).sum();
        let net = iters
            .iter()
            .map(|i| i.product.metrics.net_bytes + i.sum.metrics.net_bytes)
            .sum::<u64>();
        rows.push(vec![label.to_string(), secs(time), net.to_string()]);
    }
    report.table(
        "Ablation: shuffle de-duplication (matvec broadcast)",
        &["dedup", "time_s", "net_bytes"],
        rows,
    );
}

fn stability_ablation(report: &mut BenchReport) {
    let mut rows = Vec::new();
    for (label, stable) in [("stable", true), ("unstable", false)] {
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_microbench_input(&fs, &HPath::new("/in"), 20_000, 1_000, NODES, 42).unwrap();
        let mut engine = engine_with(
            M3ROptions {
                partition_stability: stable,
                ..M3ROptions::default()
            },
            fs,
            cluster.clone(),
        );
        m3r::repartition(&mut engine, &HPath::new("/in"), &HPath::new("/st"), NODES, || {
            Box::new(FnPartitioner::new(
                |k: &IntWritable, _: &BytesWritable, n| k.0.rem_euclid(n as i32) as usize,
            ))
        })
        .unwrap();
        let r = run_microbench(
            &mut engine,
            &HPath::new("/st"),
            &HPath::new("/w"),
            0.0,
            3,
            NODES,
            true,
            None,
        )
        .unwrap();
        let time: f64 = r.iter().map(|x| x.sim_time).sum();
        let remote: i64 = r
            .iter()
            .map(|x| x.counters.task(task_counter::REMOTE_SHUFFLED_RECORDS))
            .sum();
        rows.push(vec![label.to_string(), secs(time), remote.to_string()]);
    }
    report.table(
        "Ablation: partition stability (0%-remote pipeline)",
        &["mode", "time_s", "remote_records"],
        rows,
    );
}

fn cache_ablation(report: &mut BenchReport) {
    let mut rows = Vec::new();
    for (label, cache) in [("cache_on", true), ("cache_off", false)] {
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_microbench_input(&fs, &HPath::new("/in"), 20_000, 1_000, NODES, 42).unwrap();
        let mut engine = engine_with(
            M3ROptions {
                input_cache: cache,
                ..M3ROptions::default()
            },
            fs,
            cluster.clone(),
        );
        // Same input consumed twice: the second job shows the cache effect.
        for out in ["/o1", "/o2"] {
            let _ = run_microbench(
                &mut engine,
                &HPath::new("/in"),
                &HPath::new(out),
                0.5,
                1,
                NODES,
                false,
                None,
            )
            .unwrap();
        }
        let time = cluster.max_time();
        rows.push(vec![label.to_string(), secs(time)]);
    }
    report.table(
        "Ablation: input/output cache (same input read twice)",
        &["mode", "total_time_s"],
        rows,
    );
}

fn immutable_ablation(report: &mut BenchReport) {
    let mut rows = Vec::new();
    for (label, style) in [
        ("immutable", WcStyle::FreshText),
        ("cloning", WcStyle::ReuseText),
    ] {
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_text(&fs, &HPath::new("/in/c.txt"), 4 << 20, 5).unwrap();
        let mut engine = M3REngine::new(cluster, Arc::new(fs));
        let r = run_wordcount(&mut engine, style, &HPath::new("/in"), &HPath::new("/out"), NODES)
            .unwrap();
        rows.push(vec![
            label.to_string(),
            secs(r.sim_time),
            r.metrics.clone_bytes.to_string(),
        ]);
    }
    report.table(
        "Ablation: ImmutableOutput vs default cloning (WordCount on M3R)",
        &["mode", "time_s", "clone_bytes"],
        rows,
    );
}
