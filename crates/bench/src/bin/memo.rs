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
//!   (`f64::to_bits`) to one with it disabled — recording is free (the
//!   memo-on and memo-off first runs are that pair);
//! * the headline: a memoized resubmission costs fewer simulated seconds
//!   than rerunning.
//!
//! Results land in `bench-results/memo.{txt,json}`.

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::job::Engine;
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use m3r_bench::{secs, BenchReport, NODES};
use simdfs::SimDfs;
use simgrid::trace::Phase;
use simgrid::Cluster;
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
    replay: Replay,
    cold_bits_equal: bool,
    outputs_equal: bool,
}

/// What the index and the trace recorded about a memoized resubmission.
struct Replay {
    hits: u64,
    misses: u64,
    hit_map_spans: u64,
    hit_shuffle_spans: u64,
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

/// What the trace and the index must show for a resubmission that replayed
/// trace jobs `hit_jobs` from the memo: no map or shuffle span, ~0 simulated
/// seconds, and one hit and one miss per job.
fn assert_replayed(
    what: &str,
    cluster: &Cluster,
    hit_jobs: std::ops::Range<u64>,
    resub_s: f64,
    (hits, misses): (u64, u64),
) -> Replay {
    let rollup = cluster.trace().rollup();
    let spans = |phase| hit_jobs.clone().map(|j| rollup.phase_row(j, phase).count).sum::<u64>();
    let (hit_map_spans, hit_shuffle_spans) = (spans(Phase::Map), spans(Phase::Shuffle));
    assert_eq!(hit_map_spans, 0, "{what} memo hit must elide the map phase");
    assert_eq!(hit_shuffle_spans, 0, "{what} memo hit must elide the shuffle");
    assert!(resub_s < 1e-9, "{what} memo hit must add ~0 simulated seconds, got {resub_s}");
    let jobs = hit_jobs.end - hit_jobs.start;
    assert_eq!((hits, misses), (jobs, jobs), "{what} hit/miss counts");
    Replay { hits, misses, hit_map_spans, hit_shuffle_spans }
}

/// Resubmitted WordCount on one engine kind: `make(cluster, fs, memoize)`
/// builds it, `counts` reads its index's `(hits, misses)`.
fn wordcount_outcome<E: Engine>(
    engine: &'static str,
    make: impl Fn(Cluster, SimDfs, bool) -> E,
    counts: impl Fn(&E) -> (u64, u64),
) -> Outcome {
    let input = HPath::new("/in");
    let out = HPath::new("/out");
    let run = |e: &mut E| run_wordcount(e, WcStyle::FreshText, &input, &out, PARTS).unwrap();

    // ---- memoization on: run, resubmit (hits), inspect -------------------
    let (cluster, fs) = m3r_bench::cluster(NODES);
    cluster.trace().enable();
    wc_input(&fs);
    let mut e = make(cluster.clone(), fs.clone(), true);
    let first = run(&mut e);
    let parts1 = dir_bytes(&fs, &out);
    let resub = run(&mut e);
    assert_eq!(parts1, dir_bytes(&fs, &out), "{engine} memo hit output bytes");
    // Trace job 0 is the first run, job 1 the replayed hit.
    let replay = assert_replayed(engine, &cluster, 1..2, resub.sim_time, counts(&e));

    // ---- memoization off: resubmission baseline --------------------------
    let (cluster_off, fs_off) = m3r_bench::cluster(NODES);
    wc_input(&fs_off);
    let mut e = make(cluster_off, fs_off.clone(), false);
    // Recording is free: the memo-on first run is the memo-off one, bit
    // for bit.
    let first_off = run(&mut e);
    assert_eq!(first.sim_time.to_bits(), first_off.sim_time.to_bits(), "{engine} cold run");
    fs_off.delete(&out, true).unwrap();
    let resub_off = run(&mut e);

    Outcome {
        workload: "wordcount",
        engine,
        first_s: first.sim_time,
        resub_memo_s: resub.sim_time,
        resub_nomemo_s: resub_off.sim_time,
        replay,
        cold_bits_equal: true,
        outputs_equal: true,
    }
}

/// Resubmitted 3-iteration PageRank on one engine kind: the whole second run
/// (every per-iteration mapmult, including the ones whose operands are the
/// first run's own outputs) must replay from the memo index.
fn pagerank_outcome<E: Engine>(
    engine: &'static str,
    make: impl Fn(Cluster, SimDfs, bool) -> E,
    counts: impl Fn(&E) -> (u64, u64),
) -> Outcome {
    let g = HPath::new("/g");
    let w = HPath::new("/w");
    let staged = || {
        let (cluster, fs) = m3r_bench::cluster(NODES);
        generate_blocked_sparse(&fs, &g, PR_N, PR_N, BLOCK, SPARSITY, PARTS, 42).unwrap();
        (cluster, fs)
    };
    let run = |e: &mut E, fs: &SimDfs| {
        run_pagerank(e, fs, &g, &w, PR_N, BLOCK, PARTS, ITERS, 0.85).unwrap()
    };

    let (cluster, fs) = staged();
    cluster.trace().enable();
    let mut e = make(cluster.clone(), fs.clone(), true);
    let first = run(&mut e, &fs);
    let resub = run(&mut e, &fs);
    assert_ranks_equal(engine, &first.ranks.data, &resub.ranks.data);
    // Jobs 0..ITERS are the first run, ITERS..2*ITERS the replayed hits.
    let (what, n) = (format!("{engine} pagerank"), ITERS as u64);
    let replay = assert_replayed(&what, &cluster, n..2 * n, resub.total_sim_time(), counts(&e));

    // Memo-off resubmission baseline.
    let (cluster_off, fs_off) = staged();
    let mut e = make(cluster_off, fs_off.clone(), false);
    let first_off = run(&mut e, &fs_off);
    let (on, off) = (first.total_sim_time(), first_off.total_sim_time());
    assert_eq!(on.to_bits(), off.to_bits(), "{what} cold run");
    let resub_off = run(&mut e, &fs_off);

    Outcome {
        workload: "pagerank",
        engine,
        first_s: first.total_sim_time(),
        resub_memo_s: resub.total_sim_time(),
        resub_nomemo_s: resub_off.total_sim_time(),
        replay,
        cold_bits_equal: true,
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
    let hadoop = |cluster, fs, memoize| {
        let opts = EngineOptions { memoize, ..Default::default() };
        HadoopEngine::with_options(cluster, Arc::new(fs), opts)
    };
    let hadoop_counts = |e: &HadoopEngine| (e.memo().hits(), e.memo().misses());
    let m3r = |cluster, fs, memoize| {
        let opts = M3ROptions { memoize, ..Default::default() };
        M3REngine::with_options(cluster, Arc::new(fs), opts)
    };
    let m3r_counts = |e: &M3REngine| (e.memo().hits(), e.memo().misses());
    let outcomes = vec![
        wordcount_outcome("hadoop", hadoop, hadoop_counts),
        wordcount_outcome("m3r", m3r, m3r_counts),
        pagerank_outcome("hadoop", hadoop, hadoop_counts),
        pagerank_outcome("m3r", m3r, m3r_counts),
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
                    o.replay.hits.to_string(),
                    o.replay.misses.to_string(),
                    o.replay.hit_map_spans.to_string(),
                    o.replay.hit_shuffle_spans.to_string(),
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
            o.workload, o.engine, o.first_s, o.resub_memo_s, o.resub_nomemo_s, o.replay.hits, o.replay.misses
        ));
    }
    m3r_bench::write_bench_file("memo.txt", &txt).unwrap();
    println!("wrote bench-results/memo.txt");
}
