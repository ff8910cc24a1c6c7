//! Figure 8: WordCount running time vs input size, three series — Hadoop
//! with the original mutate-and-reuse mapper, Hadoop with the
//! `ImmutableOutput`-compatible fresh-allocation mapper, and M3R (fresh
//! mapper, required for `ImmutableOutput`).
//!
//! Expected shape (§6.3): M3R ≈ 2× faster than Hadoop; on Hadoop the
//! fresh-allocation variant is slightly slower than reuse (allocation/GC
//! churn), since none of M3R's other optimizations apply to this job.

use hmr_api::HPath;
use m3r_bench::{secs, BenchReport, NODES};
use std::sync::Arc;
use workloads::textgen::generate_text;
use workloads::wordcount::{run_wordcount, WcStyle};

fn main() {
    let sizes_mb = [8usize, 16, 32, 64];
    let mut rows = Vec::new();

    for &mb in &sizes_mb {
        let bytes = mb << 20;
        let mut cells = vec![format!("{mb}")];

        for (engine_kind, style) in [
            ("hadoop", WcStyle::FreshText),
            ("hadoop", WcStyle::ReuseText),
            ("m3r", WcStyle::FreshText),
        ] {
            let (cluster, fs) = m3r_bench::cluster(NODES);
            // The corpus is split across files so every node maps a share.
            for f in 0..NODES {
                generate_text(
                    &fs,
                    &HPath::new(format!("/in/part-{f:03}.txt")),
                    bytes / NODES,
                    1000 + f as u64,
                )
                .unwrap();
            }
            let time = if engine_kind == "hadoop" {
                let mut e = hadoop_engine::HadoopEngine::new(cluster, Arc::new(fs));
                run_wordcount(&mut e, style, &HPath::new("/in"), &HPath::new("/out"), NODES)
                    .unwrap()
                    .sim_time
            } else {
                let mut e = m3r::M3REngine::new(cluster, Arc::new(fs));
                run_wordcount(&mut e, style, &HPath::new("/in"), &HPath::new("/out"), NODES)
                    .unwrap()
                    .sim_time
            };
            cells.push(secs(time));
        }
        rows.push(cells);
    }

    let mut report = BenchReport::new("fig8");
    report.table(
        "Figure 8: WordCount",
        &[
            "text_mb",
            "hadoop_new_text_s",
            "hadoop_reuse_text_s",
            "m3r_s",
        ],
        rows,
    );
    report.finish().unwrap();
}
