//! Figure 7: blocked sparse-matrix × dense-vector multiply, three
//! iterations (= six jobs), running time vs matrix rows. Left: Hadoop and
//! M3R overlaid (Hadoop dwarfs M3R — "45x on some input sizes"); right: the
//! M3R series alone so its (much flatter, near-linear) scaling is visible.
//!
//! Per the paper, the M3R run pre-populates the cache with G and V — "the
//! initial I/O overhead (which if there were more iterations would be
//! amortized across them) is not measured" — and lays the data out with the
//! row partitioner so only the inherent V broadcast communicates.

use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use workloads::matvec::{generate_matvec_input, row_partitioner, run_matvec_iterations};

const BLOCK: usize = 100;
const SPARSITY: f64 = 0.001;
const PARTS: usize = NODES;
const ITERS: usize = 3;

fn total(iters: &[workloads::matvec::MatVecIteration]) -> f64 {
    iters.iter().map(|i| i.sim_time()).sum()
}

fn main() {
    let row_counts = [4_000usize, 8_000, 16_000, 32_000];
    let mut rows_out = Vec::new();

    for &n in &row_counts {
        let row_blocks = n.div_ceil(BLOCK);

        // --- Hadoop -------------------------------------------------------
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_matvec_input(&fs, &HPath::new("/g"), &HPath::new("/v"), n, BLOCK, SPARSITY, PARTS, 42)
            .unwrap();
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
        let h = run_matvec_iterations(
            &mut hadoop,
            &HPath::new("/g"),
            &HPath::new("/v"),
            &HPath::new("/work"),
            ITERS,
            PARTS,
            row_blocks,
        )
        .unwrap();

        // --- M3R ----------------------------------------------------------
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_matvec_input(&fs, &HPath::new("/g"), &HPath::new("/v"), n, BLOCK, SPARSITY, PARTS, 42)
            .unwrap();
        let mut engine = m3r::M3REngine::new(cluster.clone(), Arc::new(fs));
        // Stable layout + pre-populated cache (§6.2's methodology): the
        // repartition both reorganizes the layout and warms the cache.
        m3r::repartition(&mut engine, &HPath::new("/g"), &HPath::new("/gs"), PARTS, row_partitioner)
            .unwrap();
        m3r::repartition(&mut engine, &HPath::new("/v"), &HPath::new("/vs"), PARTS, row_partitioner)
            .unwrap();
        cluster.reset(); // measurement starts with everything resident
        let m = run_matvec_iterations(
            &mut engine,
            &HPath::new("/gs"),
            &HPath::new("/vs"),
            &HPath::new("/work"),
            ITERS,
            PARTS,
            row_blocks,
        )
        .unwrap();

        rows_out.push(vec![
            n.to_string(),
            secs(total(&h)),
            secs(total(&m)),
            format!("{:.1}", total(&h) / total(&m).max(1e-9)),
        ]);
    }

    // Right-hand panel: the M3R detail series.
    let detail: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| vec![r[0].clone(), r[2].clone()])
        .collect();
    let mut report = BenchReport::new("fig7");
    report.table(
        "Figure 7: sparse matrix dense vector multiply (3 iterations)",
        &["rows", "hadoop_s", "m3r_s", "speedup"],
        rows_out,
    );
    report.table("Figure 7 (detail): M3R only", &["rows", "m3r_s"], detail);
    report.finish().unwrap();
}
