//! Observability report: replay scaled-down fig6/fig7-style workloads on
//! both engines with simulated-time tracing enabled, then write for each
//! run
//!
//! * `bench-results/trace-<workload>-<engine>.json` — Chrome trace-event
//!   JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>): one
//!   lane per place, one slice per map/shuffle/sort/reduce/barrier span,
//!   in simulated microseconds;
//! * `bench-results/report-<workload>-<engine>.txt` — the per-job,
//!   per-phase text rollup, plus the memory accountant section: per-place
//!   live bytes, combine-table high watermark, cache and buffer-pool hit
//!   rates (pool traffic is deliberately outside `MetricsSnapshot`; see
//!   `simgrid::metrics`).
//!
//! The workloads are the figure harnesses at CI-friendly sizes; the traced
//! run is bit-identical to an untraced one (asserted by
//! `tests/observability.rs`), so these reports describe exactly the
//! simulation the figures measure.

use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;
use m3r_bench::write_bench_file;
use simgrid::trace::Phase;
use simgrid::Cluster;
use std::sync::Arc;
use workloads::matvec::{generate_matvec_input, row_partitioner, run_matvec_iterations};
use workloads::microbench::{generate_microbench_input, run_microbench};

// Small enough that the whole binary runs in seconds on a CI runner.
const NODES: usize = 8;
const PARTS: usize = NODES;

// fig6-style shuffle microbenchmark.
const PAIRS: usize = 5_000;
const VALUE_BYTES: usize = 500;
const MB_ITERS: usize = 3;
const MB_FRAC: f64 = 0.5;

// fig7-style sparse matvec.
const MV_ROWS: usize = 1_000;
const MV_BLOCK: usize = 100;
const MV_ITERS: usize = 2;

fn main() {
    microbench_hadoop();
    microbench_m3r();
    matvec_hadoop();
    matvec_m3r();
    wordcount_memo_m3r();
}

/// Export the cluster's trace as Chrome JSON + text report for one run.
fn export(workload: &str, engine: &str, cluster: &Cluster) {
    let trace = cluster.trace();
    let spans = trace.spans();
    for phase in [Phase::Map, Phase::Shuffle, Phase::Sort, Phase::Reduce] {
        assert!(
            spans.iter().any(|s| s.phase == phase),
            "{workload} on {engine}: traced run has no {} spans",
            phase.as_str()
        );
    }
    let json_path =
        write_bench_file(&format!("trace-{workload}-{engine}.json"), &trace.chrome_json())
            .expect("write chrome trace");

    // Pool hit/miss and the combine-table high watermark ride along in
    // the accountant section (`MemAccountant::report_section`).
    let mut report = trace.report();
    report.push('\n');
    report.push_str(&cluster.mem().report_section());
    let txt_path = write_bench_file(&format!("report-{workload}-{engine}.txt"), &report)
        .expect("write text report");

    println!("\n=== {workload} on {engine} ===");
    print!("{report}");
    println!("wrote {}", json_path.display());
    println!("wrote {}", txt_path.display());
}

fn microbench_hadoop() {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42).unwrap();
    cluster.trace().enable();
    let mut engine = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs));
    run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/work"),
        MB_FRAC,
        MB_ITERS,
        PARTS,
        false,
        None,
    )
    .unwrap();
    export("microbench", "hadoop", &cluster);
}

fn microbench_m3r() {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42).unwrap();
    let mut engine = m3r::M3REngine::new(cluster.clone(), Arc::new(fs));
    // The fig6 protocol: repartition into the stable layout, purge the
    // cache, reset the cluster, then measure three chained iterations cold.
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
    cluster.trace().enable(); // reset cleared the trace; trace the measured runs only
    let cleanup = Arc::clone(engine.caching_fs());
    run_microbench(
        &mut engine,
        &HPath::new("/st"),
        &HPath::new("/work"),
        MB_FRAC,
        MB_ITERS,
        PARTS,
        true,
        Some(&*cleanup),
    )
    .unwrap();
    export("microbench", "m3r", &cluster);
}

fn matvec_hadoop() {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_matvec_input(
        &fs,
        &HPath::new("/g"),
        &HPath::new("/v"),
        MV_ROWS,
        MV_BLOCK,
        0.01,
        PARTS,
        42,
    )
    .unwrap();
    cluster.trace().enable();
    let mut engine = hadoop_engine::HadoopEngine::new(cluster.clone(), Arc::new(fs));
    run_matvec_iterations(
        &mut engine,
        &HPath::new("/g"),
        &HPath::new("/v"),
        &HPath::new("/work"),
        MV_ITERS,
        PARTS,
        MV_ROWS.div_ceil(MV_BLOCK),
    )
    .unwrap();
    export("matvec", "hadoop", &cluster);
}

/// A memoized WordCount resubmission (ISSUE 10): the same job twice with
/// `memoize: true`, so the text report's accountant section is followed by
/// the cross-job reuse-index section — entries, hit rate, retained bytes.
fn wordcount_memo_m3r() {
    use workloads::textgen::generate_text;
    use workloads::wordcount::{run_wordcount, WcStyle};

    let (cluster, fs) = m3r_bench::cluster(NODES);
    for f in 0..NODES {
        generate_text(&fs, &HPath::new(format!("/in/part-{f:03}.txt")), 64 << 10, 7 + f as u64)
            .unwrap();
    }
    cluster.trace().enable();
    let mut engine = m3r::M3REngine::with_options(
        cluster.clone(),
        Arc::new(fs),
        m3r::M3ROptions {
            memoize: true,
            ..Default::default()
        },
    );
    for _ in 0..2 {
        run_wordcount(&mut engine, WcStyle::FreshText, &HPath::new("/in"), &HPath::new("/out"), PARTS)
            .unwrap();
    }

    let trace = cluster.trace();
    let mut report = trace.report();
    report.push('\n');
    report.push_str(&cluster.mem().report_section());
    report.push('\n');
    report.push_str(&engine.memo().report_section());
    let txt_path = write_bench_file("report-wordcount-memo-m3r.txt", &report)
        .expect("write text report");
    println!("\n=== wordcount (memoized resubmission) on m3r ===");
    print!("{report}");
    println!("wrote {}", txt_path.display());
}

fn matvec_m3r() {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_matvec_input(
        &fs,
        &HPath::new("/g"),
        &HPath::new("/v"),
        MV_ROWS,
        MV_BLOCK,
        0.01,
        PARTS,
        42,
    )
    .unwrap();
    let mut engine = m3r::M3REngine::new(cluster.clone(), Arc::new(fs));
    // fig7 methodology: stable layout + warm cache, measurement starts
    // after the reset with everything resident.
    m3r::repartition(&mut engine, &HPath::new("/g"), &HPath::new("/gs"), PARTS, row_partitioner)
        .unwrap();
    m3r::repartition(&mut engine, &HPath::new("/v"), &HPath::new("/vs"), PARTS, row_partitioner)
        .unwrap();
    cluster.reset();
    cluster.trace().enable();
    run_matvec_iterations(
        &mut engine,
        &HPath::new("/gs"),
        &HPath::new("/vs"),
        &HPath::new("/work"),
        MV_ITERS,
        PARTS,
        MV_ROWS.div_ceil(MV_BLOCK),
    )
    .unwrap();
    export("matvec", "m3r", &cluster);
}
