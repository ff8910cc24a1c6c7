//! Cross-job memoization bench (ISSUE 10): resubmitted WordCount and
//! iterative SystemML PageRank, with and without the ReStore-style memo
//! subsystem, on both engines.
//!
//! Beyond the timing tables this binary *asserts* the subsystem's load-
//! bearing claims in-process, so a regression fails the bench run itself:
//!
//! * a memo hit elides the map and shuffle phases entirely — the hit job's
//!   trace rollup (PR 4) has **zero** Map and Shuffle spans — and adds ~0
//!   simulated seconds;
//! * the hit's output bytes are identical to the first run's;
//! * hit/miss counts are exact (every eligible submission counts one);
//! * a **cold** run with memoization enabled is sim-bit-identical
//!   (`f64::to_bits`) to one with it disabled — recording is free;
//! * the headline: a memoized resubmission costs fewer simulated seconds
//!   than rerunning.
//!
//! Results land in `bench-results/memo.{txt,json}`.

use hmr_api::{FileSystem, HPath};
use m3r_bench::{fresh, secs, BenchReport, NODES};
use simdfs::SimDfs;
use simgrid::trace::Phase;
use std::sync::Arc;
use sysml::block::generate_blocked_sparse;
use sysml::pagerank::run_pagerank;
use workloads::textgen::generate_text;
use workloads::wordcount::{run_wordcount, WcStyle};

const TEXT_MB: usize = 16;
const PR_N: usize = 2_000;
const BLOCK: usize = 100;
const SPARSITY: f64 = 0.01;
const PARTS: usize = NODES;
const ITERS: usize = 3;

/// One workload × engine outcome, timings plus the checked invariants.
struct Outcome {
    workload: &'static str,
    engine: &'static str,
    first_s: f64,
    resub_memo_s: f64,
    resub_nomemo_s: f64,
    hits: u64,
    misses: u64,
    hit_map_spans: u64,
    hit_shuffle_spans: u64,
    cold_bits_equal: bool,
    outputs_equal: bool,
}

fn wc_input(fs: &SimDfs) {
    for f in 0..NODES {
        generate_text(
            fs,
            &HPath::new(format!("/in/part-{f:03}.txt")),
            (TEXT_MB << 20) / NODES,
            1000 + f as u64,
        )
        .unwrap();
    }
}

/// Every non-marker file under `dir` as (name, bytes), name-sorted.
fn dir_bytes(fs: &SimDfs, dir: &HPath) -> Vec<(String, Vec<u8>)> {
    let mut v: Vec<(String, Vec<u8>)> = fs
        .list_status(dir)
        .unwrap()
        .into_iter()
        .filter(|st| !st.is_dir && st.path.name().is_some_and(|n| n != "_SUCCESS"))
        .map(|st| {
            (
                st.path.name().unwrap().to_string(),
                hmr_api::fs::read_file(fs, &st.path).unwrap().to_vec(),
            )
        })
        .collect();
    v.sort();
    v
}

/// Summed span counts for `phase` over trace jobs `jobs`.
fn span_count(rollup: &simgrid::trace::Rollup, jobs: std::ops::Range<u64>, phase: Phase) -> u64 {
    jobs.map(|j| rollup.phase_row(j, phase).count).sum()
}

/// Resubmitted WordCount on one engine. `hit_jobs` are the trace job ids
/// the memo-hit resubmission occupies (one per submitted job).
fn wordcount_outcome(engine: &'static str) -> Outcome {
    // ---- memoization on: run, resubmit (hits), inspect -------------------
    let (cluster, fs) = fresh(NODES, 1.0);
    cluster.trace().enable();
    wc_input(&fs);
    let input = HPath::new("/in");
    let out = HPath::new("/out");
    let (first, resub, hits, misses) = if engine == "hadoop" {
        let mut e = hadoop_engine::HadoopEngine::with_options(
            cluster.clone(),
            Arc::new(fs.clone()),
            hadoop_engine::EngineOptions {
                memoize: true,
                ..Default::default()
            },
        );
        let first = run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        let parts1 = dir_bytes(&fs, &out);
        let resub = run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        assert_eq!(parts1, dir_bytes(&fs, &out), "hadoop memo hit output bytes");
        (first, resub, e.memo().hits(), e.memo().misses())
    } else {
        let mut e = m3r::M3REngine::with_options(
            cluster.clone(),
            Arc::new(fs.clone()),
            m3r::M3ROptions {
                memoize: true,
                ..Default::default()
            },
        );
        let first = run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        let parts1 = dir_bytes(&fs, &out);
        let resub = run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        assert_eq!(parts1, dir_bytes(&fs, &out), "m3r memo hit output bytes");
        (first, resub, e.memo().hits(), e.memo().misses())
    };
    let rollup = cluster.trace().rollup();
    // Trace job 0 is the first run, job 1 the replayed hit.
    let hit_map_spans = span_count(&rollup, 1..2, Phase::Map);
    let hit_shuffle_spans = span_count(&rollup, 1..2, Phase::Shuffle);
    assert_eq!(hit_map_spans, 0, "{engine} memo hit must elide the map phase");
    assert_eq!(
        hit_shuffle_spans, 0,
        "{engine} memo hit must elide the shuffle"
    );
    assert!(
        resub.sim_time < 1e-9,
        "{engine} memo hit must add ~0 simulated seconds, got {}",
        resub.sim_time
    );
    assert_eq!((hits, misses), (1, 1), "{engine} wordcount hit/miss counts");

    // ---- memoization off: resubmission baseline --------------------------
    let (cluster_off, fs_off) = fresh(NODES, 1.0);
    wc_input(&fs_off);
    let resub_off = if engine == "hadoop" {
        let mut e = hadoop_engine::HadoopEngine::new(cluster_off, Arc::new(fs_off.clone()));
        run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        fs_off.delete(&out, true).unwrap();
        run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap()
    } else {
        let mut e = m3r::M3REngine::new(cluster_off, Arc::new(fs_off.clone()));
        run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        fs_off.delete(&out, true).unwrap();
        run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap()
    };

    // ---- cold-run bit-identity -------------------------------------------
    // Needs `compute_scale = 0`: at 1.0 the clock folds in *measured*
    // user-compute wall time, which is never bit-reproducible run to run.
    // At 0 every charge is modeled, so a memo-on cold run must reproduce
    // the memo-off clock exactly — recording costs nothing.
    let cold_run = |memoize: bool| -> f64 {
        let (cluster, fs) = fresh(NODES, 0.0);
        wc_input(&fs);
        if engine == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::with_options(
                cluster,
                Arc::new(fs),
                hadoop_engine::EngineOptions {
                    memoize,
                    ..Default::default()
                },
            );
            run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS)
                .unwrap()
                .sim_time
        } else {
            let mut e = m3r::M3REngine::with_options(
                cluster,
                Arc::new(fs),
                m3r::M3ROptions {
                    memoize,
                    ..Default::default()
                },
            );
            run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS)
                .unwrap()
                .sim_time
        }
    };
    let (on, off) = (cold_run(true), cold_run(false));
    let cold_bits_equal = on.to_bits() == off.to_bits();
    assert!(
        cold_bits_equal,
        "{engine} cold run must be sim-bit-identical memo-on vs memo-off: {on} vs {off}"
    );

    Outcome {
        workload: "wordcount",
        engine,
        first_s: first.sim_time,
        resub_memo_s: resub.sim_time,
        resub_nomemo_s: resub_off.sim_time,
        hits,
        misses,
        hit_map_spans,
        hit_shuffle_spans,
        cold_bits_equal,
        outputs_equal: true,
    }
}

/// Resubmitted 3-iteration PageRank on one engine: the whole second run
/// (every per-iteration mapmult, including the ones whose operands are the
/// first run's own outputs) must replay from the memo index.
fn pagerank_outcome(engine: &'static str) -> Outcome {
    let (cluster, fs) = fresh(NODES, 1.0);
    cluster.trace().enable();
    generate_blocked_sparse(&fs, &HPath::new("/g"), PR_N, PR_N, BLOCK, SPARSITY, PARTS, 42)
        .unwrap();
    let g = HPath::new("/g");
    let w = HPath::new("/w");
    let (first, resub, hits, misses) = if engine == "hadoop" {
        let mut e = hadoop_engine::HadoopEngine::with_options(
            cluster.clone(),
            Arc::new(fs.clone()),
            hadoop_engine::EngineOptions {
                memoize: true,
                ..Default::default()
            },
        );
        let a = run_pagerank(&mut e, &fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap();
        let b = run_pagerank(&mut e, &fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap();
        assert_ranks_equal(engine, &a.ranks.data, &b.ranks.data);
        (a, b, e.memo().hits(), e.memo().misses())
    } else {
        let mut e = m3r::M3REngine::with_options(
            cluster.clone(),
            Arc::new(fs.clone()),
            m3r::M3ROptions {
                memoize: true,
                ..Default::default()
            },
        );
        let a = run_pagerank(&mut e, &fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap();
        let b = run_pagerank(&mut e, &fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap();
        assert_ranks_equal(engine, &a.ranks.data, &b.ranks.data);
        (a, b, e.memo().hits(), e.memo().misses())
    };
    let rollup = cluster.trace().rollup();
    // Jobs 0..ITERS are the first run, ITERS..2*ITERS the replayed hits.
    let hit_map_spans = span_count(&rollup, ITERS as u64..2 * ITERS as u64, Phase::Map);
    let hit_shuffle_spans = span_count(&rollup, ITERS as u64..2 * ITERS as u64, Phase::Shuffle);
    assert_eq!(
        hit_map_spans, 0,
        "{engine} pagerank resubmission must elide every map phase"
    );
    assert_eq!(
        hit_shuffle_spans, 0,
        "{engine} pagerank resubmission must elide every shuffle"
    );
    assert!(
        resub.total_sim_time() < 1e-9,
        "{engine} pagerank resubmission must add ~0 simulated seconds, got {}",
        resub.total_sim_time()
    );
    assert_eq!(
        (hits, misses),
        (ITERS as u64, ITERS as u64),
        "{engine} pagerank hit/miss counts"
    );

    // Memo-off resubmission baseline.
    let (cluster_off, fs_off) = fresh(NODES, 1.0);
    generate_blocked_sparse(&fs_off, &HPath::new("/g"), PR_N, PR_N, BLOCK, SPARSITY, PARTS, 42)
        .unwrap();
    let resub_off = if engine == "hadoop" {
        let mut e = hadoop_engine::HadoopEngine::new(cluster_off, Arc::new(fs_off.clone()));
        run_pagerank(&mut e, &fs_off, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap();
        run_pagerank(&mut e, &fs_off, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap()
    } else {
        let mut e = m3r::M3REngine::new(cluster_off, Arc::new(fs_off.clone()));
        run_pagerank(&mut e, &fs_off, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap();
        run_pagerank(&mut e, &fs_off, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap()
    };

    // Cold-run bit-identity at `compute_scale = 0` (see wordcount_outcome
    // for why 1.0 can never be bit-reproducible).
    let cold_run = |memoize: bool| -> f64 {
        let (cluster, fs) = fresh(NODES, 0.0);
        generate_blocked_sparse(&fs, &HPath::new("/g"), PR_N, PR_N, BLOCK, SPARSITY, PARTS, 42)
            .unwrap();
        if engine == "hadoop" {
            let mut e = hadoop_engine::HadoopEngine::with_options(
                cluster,
                Arc::new(fs.clone()),
                hadoop_engine::EngineOptions {
                    memoize,
                    ..Default::default()
                },
            );
            run_pagerank(&mut e, &fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85)
                .unwrap()
                .total_sim_time()
        } else {
            let mut e = m3r::M3REngine::with_options(
                cluster,
                Arc::new(fs.clone()),
                m3r::M3ROptions {
                    memoize,
                    ..Default::default()
                },
            );
            run_pagerank(&mut e, &fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85)
                .unwrap()
                .total_sim_time()
        }
    };
    let (on, off) = (cold_run(true), cold_run(false));
    let cold_bits_equal = on.to_bits() == off.to_bits();
    assert!(
        cold_bits_equal,
        "{engine} cold pagerank must be sim-bit-identical memo-on vs memo-off: {on} vs {off}"
    );

    Outcome {
        workload: "pagerank",
        engine,
        first_s: first.total_sim_time(),
        resub_memo_s: resub.total_sim_time(),
        resub_nomemo_s: resub_off.total_sim_time(),
        hits,
        misses,
        hit_map_spans,
        hit_shuffle_spans,
        cold_bits_equal,
        outputs_equal: true,
    }
}

fn assert_ranks_equal(engine: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{engine} pagerank rank vector length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{engine} pagerank rank {i} differs on resubmission"
        );
    }
}

fn main() {
    let outcomes = vec![
        wordcount_outcome("hadoop"),
        wordcount_outcome("m3r"),
        pagerank_outcome("hadoop"),
        pagerank_outcome("m3r"),
    ];

    for o in &outcomes {
        assert!(
            o.resub_memo_s < o.resub_nomemo_s,
            "{}/{}: a memoized resubmission must beat rerunning: {} vs {}",
            o.workload,
            o.engine,
            o.resub_memo_s,
            o.resub_nomemo_s
        );
    }

    let mut report = BenchReport::new("memo");
    report.table(
        "Cross-job memoization: resubmitted jobs",
        &[
            "workload",
            "engine",
            "first_run_s",
            "resub_memo_s",
            "resub_nomemo_s",
        ],
        outcomes
            .iter()
            .map(|o| {
                vec![
                    o.workload.to_string(),
                    o.engine.to_string(),
                    secs(o.first_s),
                    secs(o.resub_memo_s),
                    secs(o.resub_nomemo_s),
                ]
            })
            .collect(),
    );
    report.table(
        "Memo invariants (asserted in-process)",
        &[
            "workload",
            "engine",
            "hits",
            "misses",
            "hit_map_spans",
            "hit_shuffle_spans",
            "cold_bits_equal",
            "outputs_equal",
        ],
        outcomes
            .iter()
            .map(|o| {
                vec![
                    o.workload.to_string(),
                    o.engine.to_string(),
                    o.hits.to_string(),
                    o.misses.to_string(),
                    o.hit_map_spans.to_string(),
                    o.hit_shuffle_spans.to_string(),
                    o.cold_bits_equal.to_string(),
                    o.outputs_equal.to_string(),
                ]
            })
            .collect(),
    );
    report.finish().unwrap();
    // A plain-text copy alongside the JSON, like the other observability
    // benches.
    let mut txt = String::new();
    for o in &outcomes {
        txt.push_str(&format!(
            "{} on {}: first {:.2}s, resub(memo) {:.4}s, resub(no memo) {:.2}s, {} hits / {} misses\n",
            o.workload, o.engine, o.first_s, o.resub_memo_s, o.resub_nomemo_s, o.hits, o.misses
        ));
    }
    m3r_bench::write_bench_file("memo.txt", &txt).unwrap();
    println!("wrote bench-results/memo.txt");
}
