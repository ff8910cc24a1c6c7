//! Figure 10: SystemML linear regression (conjugate gradient), running time
//! vs number of sample points (variables fixed — paper: 10 000, scaled
//! here), Hadoop vs M3R.

use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use sysml::block::generate_blocked_sparse;
use sysml::dense::DenseMatrix;
use sysml::linreg::run_linreg;

const VARS: usize = 1_000; // paper: 10 000
const BLOCK: usize = 100;
const SPARSITY: f64 = 0.01;
const PARTS: usize = NODES;
const CG_ITERS: usize = 3;

fn main() {
    let point_counts = [2_000usize, 4_000, 8_000, 16_000];
    let mut rows_out = Vec::new();

    for &n in &point_counts {
        let mut cells = vec![n.to_string()];
        for engine_kind in ["hadoop", "m3r"] {
            let (cluster, fs) = m3r_bench::cluster(NODES);
            generate_blocked_sparse(&fs, &HPath::new("/x"), n, VARS, BLOCK, SPARSITY, PARTS, 42)
                .unwrap();
            let y = DenseMatrix::from_vec(n, 1, (0..n).map(|i| ((i % 13) as f64) - 6.0).collect())
                .unwrap();
            let time = if engine_kind == "hadoop" {
                let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs.clone()));
                run_linreg(&mut e, &fs, &HPath::new("/x"), &HPath::new("/w"), &y, n, VARS, BLOCK, PARTS, CG_ITERS, 0.01)
                    .unwrap()
                    .total_sim_time()
            } else {
                let mut e = m3r::M3REngine::new(cluster, Arc::new(fs.clone()));
                run_linreg(&mut e, &fs, &HPath::new("/x"), &HPath::new("/w"), &y, n, VARS, BLOCK, PARTS, CG_ITERS, 0.01)
                    .unwrap()
                    .total_sim_time()
            };
            cells.push(secs(time));
        }
        rows_out.push(cells);
    }

    let mut report = BenchReport::new("fig10");
    report.table(
        "Figure 10: SystemML linear regression (3 CG iterations)",
        &["points", "hadoop_s", "m3r_s"],
        rows_out,
    );
    report.finish().unwrap();
}
