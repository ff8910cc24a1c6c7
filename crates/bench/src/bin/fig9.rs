//! Figure 9: SystemML global non-negative matrix factorization, running
//! time vs rows of V (columns fixed, rank 10, sparsity 0.001, blocking
//! 1000 — scaled here), Hadoop vs M3R running the *identical* job sequence.

use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use sysml::block::generate_blocked_sparse;
use sysml::gnmf::run_gnmf;

const COLS: usize = 2_000; // paper: 100 000
const RANK: usize = 10;
const BLOCK: usize = 100; // paper: 1000
const SPARSITY: f64 = 0.01; // scaled up so scaled-down blocks stay non-empty
const PARTS: usize = NODES;
const ITERS: usize = 3;

fn main() {
    let row_counts = [1_000usize, 2_000, 4_000, 8_000];
    let mut rows_out = Vec::new();

    for &n in &row_counts {
        let mut cells = vec![n.to_string()];
        for engine_kind in ["hadoop", "m3r"] {
            let (cluster, fs) = m3r_bench::cluster(NODES);
            generate_blocked_sparse(&fs, &HPath::new("/v"), n, COLS, BLOCK, SPARSITY, PARTS, 42)
                .unwrap();
            let time = if engine_kind == "hadoop" {
                let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
                run_gnmf(&mut e, &fs, &HPath::new("/v"), &HPath::new("/w"), n, COLS, RANK, BLOCK, PARTS, ITERS, 7)
                    .unwrap()
                    .total_sim_time()
            } else {
                let mut e = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
                run_gnmf(&mut e, &fs, &HPath::new("/v"), &HPath::new("/w"), n, COLS, RANK, BLOCK, PARTS, ITERS, 7)
                    .unwrap()
                    .total_sim_time()
            };
            cells.push(secs(time));
        }
        rows_out.push(cells);
    }

    let mut report = BenchReport::new("fig9");
    report.table(
        "Figure 9: SystemML GNMF (3 iterations, rank 10)",
        &["rows", "hadoop_s", "m3r_s"],
        rows_out,
    );
    report.finish().unwrap();
}
