//! Figure 11: SystemML PageRank, running time vs graph size (the square
//! link matrix G), Hadoop vs M3R.

use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use sysml::block::generate_blocked_sparse;
use sysml::pagerank::run_pagerank;

const BLOCK: usize = 100;
const SPARSITY: f64 = 0.01;
const PARTS: usize = NODES;
const ITERS: usize = 3;

fn main() {
    let graph_sizes = [1_000usize, 2_000, 4_000, 8_000];
    let mut rows_out = Vec::new();

    for &n in &graph_sizes {
        let mut cells = vec![n.to_string()];
        for engine_kind in ["hadoop", "m3r"] {
            let (cluster, fs) = m3r_bench::cluster(NODES);
            generate_blocked_sparse(&fs, &HPath::new("/g"), n, n, BLOCK, SPARSITY, PARTS, 42)
                .unwrap();
            let time = if engine_kind == "hadoop" {
                let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
                run_pagerank(&mut e, &fs, &HPath::new("/g"), &HPath::new("/w"), n, BLOCK, PARTS, ITERS, 0.85)
                    .unwrap()
                    .total_sim_time()
            } else {
                let mut e = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
                run_pagerank(&mut e, &fs, &HPath::new("/g"), &HPath::new("/w"), n, BLOCK, PARTS, ITERS, 0.85)
                    .unwrap()
                    .total_sim_time()
            };
            cells.push(secs(time));
        }
        rows_out.push(cells);
    }

    let mut report = BenchReport::new("fig11");
    report.table(
        "Figure 11: SystemML PageRank (3 iterations)",
        &["graph_nodes", "hadoop_s", "m3r_s"],
        rows_out,
    );
    report.finish().unwrap();
}
