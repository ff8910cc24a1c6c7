//! Memory-governance ablation (`m3r-mem`): sweep the per-place budget
//! over the fig6-style iterated shuffle microbenchmark and chart the
//! graceful-degradation curve.
//!
//! Protocol per run (the fig6 M3R methodology, serial waves): repartition
//! the input into the stable layout, purge the cache, reset the cluster,
//! *then* set the budget and measure three chained iterations. The first
//! ∞-budget run reports the per-place high watermark `W`; the sweep
//! shrinks the budget through fractions of `W`, so the curve starts at
//! "everything resident" (identical to ∞, zero evictions) and ends at
//! "almost nothing resident" — every iteration spilling and reloading
//! through the SimDfs cost model, which is exactly the disk round trip
//! Hadoop pays by design. A Hadoop reference row bounds the curve, and a
//! fail-fast row shows the strict mode erroring instead of degrading.
//!
//! Writes `bench-results/memory.json` (tables, via [`BenchReport`]) and
//! `bench-results/memory.txt` (tables + the accountant's report section
//! for the tightest budget). `main` asserts the sweep's simulated seconds
//! are monotone non-decreasing as the budget shrinks, that the unlimited
//! run never evicts and that the tightest one does.

use hadoop_engine::HadoopEngine;
use hmr_api::partition::FnPartitioner;
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::HPath;
use m3r_bench::{secs, write_bench_file, BenchReport};
use m3r::{M3REngine, M3ROptions, OomMode};
use std::sync::Arc;
use workloads::microbench::{generate_microbench_input, run_microbench};

const NODES: usize = 8;
const PARTS: usize = NODES;
const PAIRS: usize = 5_000;
const VALUE_BYTES: usize = 500;
const MB_ITERS: usize = 3;
const FRAC: f64 = 0.5;

struct RunStats {
    secs: f64,
    high_watermark: u64,
    evictions: u64,
    spill_bytes: u64,
    reload_bytes: u64,
    report: String,
}

/// One measured M3R run. The budget is applied only to the measured
/// phase (after repartition + purge + reset), so every row pays the same
/// setup and the sweep isolates the governance cost.
fn m3r_run(budget: Option<u64>, oom: OomMode) -> Result<RunStats, String> {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42).unwrap();
    let mut engine = M3REngine::with_options(
        cluster.clone(),
        Arc::new(fs),
        M3ROptions {
            // Serial waves: under a finite budget the engine serializes
            // them anyway (eviction order must not depend on the thread
            // schedule); keeping ∞-budget rows serial too makes every row
            // of the sweep the same execution shape.
            workers: simgrid::Workers::Never,
            ..M3ROptions::default()
        },
    );
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
    cluster.mem().set_budget(budget);
    cluster.mem().set_oom_mode(oom);
    let results = run_microbench(
        &mut engine,
        &HPath::new("/st"),
        &HPath::new("/work"),
        FRAC,
        MB_ITERS,
        PARTS,
        true,
        None,
    )
    .map_err(|e| e.to_string())?;
    let mem = cluster.mem();
    Ok(RunStats {
        secs: results.iter().map(|r| r.sim_time).sum(),
        high_watermark: (0..NODES).map(|p| mem.high_watermark(p)).max().unwrap_or(0),
        evictions: (0..NODES).map(|p| mem.evictions(p)).sum(),
        spill_bytes: (0..NODES).map(|p| mem.spill_bytes(p)).sum(),
        reload_bytes: (0..NODES).map(|p| mem.reload_bytes(p)).sum(),
        report: mem.report_section(),
    })
}

/// The Hadoop reference: same workload, no cache to govern — every
/// iteration round-trips the DFS, which is the floor the tightest budget
/// degrades toward.
fn hadoop_run() -> f64 {
    let (cluster, fs) = m3r_bench::cluster(NODES);
    generate_microbench_input(&fs, &HPath::new("/in"), PAIRS, VALUE_BYTES, PARTS, 42).unwrap();
    let mut engine = HadoopEngine::new(cluster.clone(), Arc::new(fs));
    run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        FRAC,
        MB_ITERS,
        PARTS,
        false,
        None,
    )
    .unwrap()
    .iter()
    .map(|r| r.sim_time)
    .sum()
}

fn budget_label(b: Option<u64>) -> String {
    match b {
        None => "unlimited".to_string(),
        Some(b) => format!("{b}"),
    }
}

fn main() {
    let mut report = BenchReport::new("memory");
    let mut txt = String::new();

    // -- budget sweep -------------------------------------------------------
    let unlimited = m3r_run(None, OomMode::Spill).unwrap();
    let w = unlimited.high_watermark.max(1);
    println!("per-place high watermark at unlimited budget: {w} bytes");

    let mut runs: Vec<(Option<u64>, RunStats)> = vec![(None, unlimited)];
    for budget in [w, w / 2, w / 4, w / 8, w / 16] {
        runs.push((Some(budget), m3r_run(Some(budget), OomMode::Spill).unwrap()));
    }
    // The degradation curve's shape: runs go from unlimited budget to the
    // tightest, and shrinking the budget may only cost simulated time,
    // never save it.
    for pair in runs.windows(2) {
        let (a, b) = (pair[0].1.secs, pair[1].1.secs);
        assert!(b >= a - 1e-6, "not monotone at budget {:?}: {a} then {b}", pair[1].0);
    }
    assert_eq!(runs[0].1.evictions, 0, "unlimited budget must not evict");
    assert!(runs.last().unwrap().1.evictions > 0, "tightest budget must evict");
    let tightest_report = runs.last().unwrap().1.report.clone();
    let mut rows = Vec::new();
    for (budget, r) in &runs {
        rows.push(vec![
            budget_label(*budget),
            secs(r.secs),
            r.evictions.to_string(),
            r.spill_bytes.to_string(),
            r.reload_bytes.to_string(),
        ]);
    }
    rows.push(vec![
        "hadoop".to_string(),
        secs(hadoop_run()),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    report.table(
        &format!("budget sweep: {MB_ITERS} chained iterations, LRU, spill on overflow (W={w})"),
        &["budget_bytes_per_place", "sim_seconds", "evictions", "spill_bytes", "reload_bytes"],
        rows.clone(),
    );
    push_txt(&mut txt, "budget sweep", &rows);

    // -- strict mode --------------------------------------------------------
    let frows = vec![match m3r_run(Some(w / 8), OomMode::FailFast) {
        Ok(r) => vec!["unexpected success".to_string(), secs(r.secs)],
        Err(e) => vec!["error (as designed)".to_string(), e],
    }];
    report.table("fail_fast at budget W/8", &["outcome", "detail"], frows.clone());
    push_txt(&mut txt, "fail_fast at W/8", &frows);

    txt.push_str("\naccountant at the tightest budget (W/16):\n");
    txt.push_str(&tightest_report);
    let txt_path = write_bench_file("memory.txt", &txt).expect("write memory.txt");
    println!("wrote {}", txt_path.display());
    report.finish().expect("write memory.json");
}

fn push_txt(txt: &mut String, title: &str, rows: &[Vec<String>]) {
    txt.push_str(&format!("# {title}\n"));
    for row in rows {
        txt.push_str(&row.join(","));
        txt.push('\n');
    }
}
