//! Run a "compiler-generated" job sequence — the mini-SystemML PageRank of
//! §6.4 — unchanged on both engines, the way the paper benchmarks
//! higher-level language stacks on M3R.
//!
//! ```sh
//! cargo run --release --example systemml_pagerank
//! ```

use std::sync::Arc;

use hmr_api::HPath;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};
use sysml::block::generate_blocked_sparse;
use sysml::pagerank::run_pagerank;

const N: usize = 2_000;
const BLOCK: usize = 100;
const PARTS: usize = 8;
const ITERS: usize = 5;

fn main() {
    let mut report = Vec::new();
    let mut final_ranks = Vec::new();
    for engine_kind in ["hadoop", "m3r"] {
        let cluster = Cluster::new(PARTS, CostModel::default());
        let dfs = SimDfs::new(cluster.clone());
        generate_blocked_sparse(&dfs, &HPath::new("/g"), N, N, BLOCK, 0.01, PARTS, 11).unwrap();

        let result = if engine_kind == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(dfs.clone()));
            run_pagerank(&mut e, &dfs, &HPath::new("/g"), &HPath::new("/w"), N, BLOCK, PARTS, ITERS, 0.85)
                .unwrap()
        } else {
            let mut e = m3r::M3REngine::new(cluster, Arc::new(dfs.clone()));
            run_pagerank(&mut e, &dfs, &HPath::new("/g"), &HPath::new("/w"), N, BLOCK, PARTS, ITERS, 0.85)
                .unwrap()
        };
        let per_iter: Vec<f64> = result
            .iterations
            .iter()
            .map(|jobs| jobs.iter().map(|j| j.sim_time).sum())
            .collect();
        report.push((engine_kind, result.total_sim_time(), per_iter));
        final_ranks.push(result.ranks.data.clone());
    }

    println!("SystemML PageRank, {N}-node graph, {ITERS} iterations\n");
    for (engine, total, per_iter) in &report {
        let iters: Vec<String> = per_iter.iter().map(|t| format!("{t:.2}")).collect();
        println!("  {engine:7}  total {total:8.2}s   per-iteration: [{}]", iters.join(", "));
    }
    let speedup = report[0].1 / report[1].1;
    println!("\n  speedup m3r over hadoop: {speedup:.1}x");
    println!("  (the SystemML jobs are NOT ImmutableOutput-aware and use the");
    println!("   default partitioner — M3R still wins on caching + startup, §6.4)");

    // The algorithms agree across engines.
    let max_diff = final_ranks[0]
        .iter()
        .zip(&final_ranks[1])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(max_diff < 1e-12, "engines diverged: {max_diff}");
    println!("  final rank vectors identical across engines ✓");
}
