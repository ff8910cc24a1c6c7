//! Figure 6: the shuffle microbenchmark — running time vs the proportion of
//! remote shuffles, three chained iterations, Hadoop (left) and M3R (right).
//!
//! Expected shape (paper §6.1): Hadoop's three iterations lie on top of each
//! other, flat in the remote fraction; M3R's iterations are linear in the
//! remote fraction, with iterations 2–3 below iteration 1 (cache hits), and
//! even M3R's worst point (iteration 1, 100% remote) beats Hadoop.

use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use workloads::microbench::{generate_microbench_input, run_microbench};

// The microbenchmark does no per-pair CPU work (§6.1 measures pure
// communication): it charges no modeled compute, so the series are I/O,
// network, serialization and startup costs only.
const PAIRS: usize = 50_000;
const VALUE_BYTES: usize = 2_000;
const PARTS: usize = NODES;
const ITERS: usize = 3;

fn main() {
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut hadoop_rows = Vec::new();
    let mut m3r_rows = Vec::new();

    for &frac in &fractions {
        // --- Hadoop -------------------------------------------------------
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42)
            .unwrap();
        let mut hadoop = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
        let h = run_microbench(
            &mut hadoop,
            &HPath::new("/in"),
            &HPath::new("/work"),
            frac,
            ITERS,
            PARTS,
            false,
            None,
        )
        .unwrap();
        hadoop_rows.push(
            std::iter::once(format!("{:.0}", frac * 100.0))
                .chain(h.iter().map(|r| secs(r.sim_time)))
                .collect::<Vec<_>>(),
        );

        // --- M3R ----------------------------------------------------------
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42)
            .unwrap();
        let mut engine = m3r::M3REngine::new(cluster, Arc::new(fs));
        // One-off §6.1.1 repartition into the stable layout (not measured
        // here; see the `repartition` binary), then a cold cache so
        // iteration 1 pays the HDFS read like the paper's run.
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
        let cleanup = Arc::clone(engine.caching_fs());
        let m = run_microbench(
            &mut engine,
            &HPath::new("/st"),
            &HPath::new("/work"),
            frac,
            ITERS,
            PARTS,
            true,
            Some(&*cleanup),
        )
        .unwrap();
        m3r_rows.push(
            std::iter::once(format!("{:.0}", frac * 100.0))
                .chain(m.iter().map(|r| secs(r.sim_time)))
                .collect::<Vec<_>>(),
        );
    }

    let header = ["remote_pct", "iteration1_s", "iteration2_s", "iteration3_s"];
    let mut report = BenchReport::new("fig6");
    report.table(
        "Figure 6 (left): Hadoop — running time vs remote shuffle %",
        &header,
        hadoop_rows,
    );
    report.table(
        "Figure 6 (right): M3R — running time vs remote shuffle %",
        &header,
        m3r_rows,
    );
    report.finish().unwrap();
}
