//! Memory governance (`m3r-mem`) must be free when idle and graceful
//! under pressure:
//!
//! * **Invisibility** — with the default infinite budget the accountant
//!   counts (watermarks move) but never acts (no eviction), and on the
//!   Hadoop engine — which has no governed cache — even an absurd budget
//!   changes no simulated second (compared through `f64::to_bits`),
//!   counter, metric or output byte, serial or parallel.
//! * **Determinism under pressure** — a finite budget may change *when*
//!   things happen (spill/reload charges) but never *what* is computed:
//!   output bytes equal the ∞ run, and the run is reproducible — the
//!   eviction sequence follows insertion order, never the thread
//!   schedule (waves serialize under a finite budget, so
//!   `Workers::Always` stays bit-identical to `Never`).
//! * **Graceful degradation** — shrinking the budget costs simulated
//!   seconds (spill + reload through the DFS cost model) instead of
//!   correctness; `OomMode::FailFast` restores the paper's strict
//!   must-fit-in-memory contract by erroring instead of spilling.
//! * **Budget invariant** — property test: live cached bytes per place
//!   never exceed the budget, across random put/get/delete workloads,
//!   and spilled entries always reload intact.
//! * **One home for governance** — the budget and overflow mode live on
//!   the cluster's accountant and nowhere else: building an engine never
//!   writes them, and what is governed does not depend on whether the
//!   budget was set before or after an engine was built, or on which
//!   engine was built first.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::fs::MemFs;
use hmr_api::job::JobResult;
use hmr_api::writable::{IntWritable, Text};
use hmr_api::HPath;
use m3r::cache::CachedSeq;
use m3r::{KvCache, M3REngine, M3ROptions, MemAccountant, MemClass, OomMode};
use proptest::prelude::*;
use simgrid::Cluster;
use workloads::microbench::{generate_microbench_input, run_microbench};

mod common;
use common::{assert_same_result, forced, fresh, part_bytes};

const PLACES: usize = 4;
const WORKERS: usize = 4;
const PARTS: usize = 8;

/// The fig6-style microbenchmark on M3R under a per-place `budget` (LRU,
/// spill on overflow). Returns per-iteration results, final output bytes,
/// and the cluster (for accountant inspection).
fn microbench_m3r(
    budget: Option<u64>,
    parallel: bool,
) -> (Vec<JobResult>, Vec<(String, bytes::Bytes)>, Cluster) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    cluster.mem().set_budget(budget);
    let mut engine = M3REngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        M3ROptions {
            worker_threads: WORKERS,
            workers: forced(parallel),
            ..M3ROptions::default()
        },
    );
    let results = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        3,
        PARTS,
        true,
        None,
    )
    .unwrap();
    (results, part_bytes(&fs, "/mb/iter2", PARTS), cluster)
}

fn microbench_hadoop(
    budget: Option<u64>,
    parallel: bool,
) -> (Vec<JobResult>, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    // Hadoop has no governed cache: the accountant only *observes* its
    // shuffle segments and pool free lists, so even an absurd budget must
    // not change a bit.
    cluster.mem().set_budget(budget);
    let mut engine = HadoopEngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        EngineOptions {
            map_slots_per_node: WORKERS,
            reduce_slots_per_node: WORKERS,
            sort_buffer_bytes: 1 << 16,
            max_task_attempts: 4,
            workers: forced(parallel),
            ..EngineOptions::default()
        },
    );
    let results = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        2,
        PARTS,
        false,
        None,
    )
    .unwrap();
    (results, part_bytes(&fs, "/mb/iter1", PARTS))
}

// ---------------------------------------------------------------------------
// Invisibility: an accountant nobody consults changes nothing
// ---------------------------------------------------------------------------

#[test]
fn accounting_is_invisible_on_hadoop() {
    for parallel in [false, true] {
        let (base, base_out) = microbench_hadoop(None, parallel);
        let (tiny, tiny_out) = microbench_hadoop(Some(1), parallel);
        assert_eq!(base.len(), tiny.len());
        for (i, (a, b)) in base.iter().zip(&tiny).enumerate() {
            assert_same_result(a, b, &format!("hadoop iter{i} (parallel={parallel})"));
        }
        assert!(!base_out.is_empty(), "microbench produced no output");
        assert_eq!(base_out, tiny_out, "hadoop output bytes differ (parallel={parallel})");
    }
}

// ---------------------------------------------------------------------------
// Graceful degradation under a finite budget
// ---------------------------------------------------------------------------

#[test]
fn finite_budget_trades_time_for_memory_not_answers() {
    let (inf, inf_out, inf_cluster) = microbench_m3r(None, false);
    // At ∞ the accountant did account (watermarks moved) without acting.
    assert!(
        (0..PLACES).any(|p| inf_cluster.mem().high_watermark(p) > 0),
        "accountant saw no live bytes"
    );
    assert_eq!(
        (0..PLACES).map(|p| inf_cluster.mem().evictions(p)).sum::<u64>(),
        0,
        "an infinite budget must never evict"
    );
    // Below one place's share of an iteration's cached output (~2 part
    // sequences of ~2 KiB), so entries spill *before* the next iteration
    // reads them back — evictions AND reloads both fire.
    let (tight, tight_out, cluster) = microbench_m3r(Some(2048), false);

    assert_eq!(inf_out, tight_out, "spilling must not change a single output byte");
    let evictions: u64 = (0..PLACES).map(|p| cluster.mem().evictions(p)).sum();
    let spilled: u64 = (0..PLACES).map(|p| cluster.mem().spill_bytes(p)).sum();
    let reloaded: u64 = (0..PLACES).map(|p| cluster.mem().reload_bytes(p)).sum();
    assert!(evictions > 0, "a 4 KiB budget must force evictions");
    assert!(spilled > 0, "evictions must spill bytes");
    assert!(reloaded > 0, "the chained iterations must reload spilled inputs");
    let inf_secs: f64 = inf.iter().map(|r| r.sim_time).sum();
    let tight_secs: f64 = tight.iter().map(|r| r.sim_time).sum();
    assert!(
        tight_secs >= inf_secs,
        "spill/reload must cost simulated time ({tight_secs} < {inf_secs})"
    );
    // Live cache bytes respect the budget once the dust settles.
    for p in 0..PLACES {
        assert!(
            cluster.mem().live_class(p, MemClass::Cache) <= 2048,
            "place {p} ended over budget"
        );
    }
}

#[test]
fn finite_budget_runs_are_schedule_independent() {
    // The whole point of insertion-order tie-breaking: with a finite
    // budget the "parallel" run serializes its waves, so thread schedule
    // can never pick a different victim. Serial and parallel must agree
    // bit for bit, run after run.
    let (serial, serial_out, _) = microbench_m3r(Some(2048), false);
    let (par, par_out, _) = microbench_m3r(Some(2048), true);
    assert_eq!(serial.len(), par.len());
    for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
        assert_same_result(a, b, &format!("finite-budget iter{i}"));
    }
    assert_eq!(serial_out, par_out, "finite-budget output bytes differ");
}

#[test]
fn fail_fast_surfaces_oom_instead_of_spilling() {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    cluster.mem().set_budget(Some(256));
    cluster.mem().set_oom_mode(OomMode::FailFast);
    let mut engine = M3REngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        M3ROptions {
            worker_threads: WORKERS,
            workers: simgrid::Workers::Never,
            ..M3ROptions::default()
        },
    );
    let err = run_microbench(
        &mut engine,
        &HPath::new("/in"),
        &HPath::new("/mb"),
        0.5,
        3,
        PARTS,
        true,
        None,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("out of memory"),
        "expected an OOM error, got: {err}"
    );
    let evictions: u64 = (0..PLACES).map(|p| cluster.mem().evictions(p)).sum();
    assert_eq!(evictions, 0, "fail_fast must never spill");
}

// ---------------------------------------------------------------------------
// One home for governance: the accountant, whatever the construction order
// ---------------------------------------------------------------------------

#[test]
fn building_an_engine_never_writes_the_accountants_settings() {
    let (cluster, fs) = fresh(PLACES);
    cluster.mem().set_budget(Some(4096));
    cluster.mem().set_oom_mode(OomMode::FailFast);
    let _engine = M3REngine::new(cluster.clone(), Arc::new(fs));
    assert_eq!(cluster.mem().budget(), Some(4096));
    assert_eq!(cluster.mem().oom_mode(), OomMode::FailFast);
}

/// A fresh cluster whose DFS holds one small text file under `/in`.
fn cluster_with_text() -> (Cluster, simdfs::SimDfs) {
    let (cluster, fs) = fresh(PLACES);
    workloads::textgen::generate_text(&fs, &HPath::new("/in/f.txt"), 16 << 10, 7).unwrap();
    (cluster, fs)
}

/// A memoizing Hadoop engine on `cluster`.
fn memoizing_hadoop(cluster: &Cluster, fs: &simdfs::SimDfs) -> HadoopEngine {
    HadoopEngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        EngineOptions { memoize: true, ..EngineOptions::default() },
    )
}

/// One memoizable WordCount into `out` with `reducers` partitions.
fn wordcount(engine: &mut HadoopEngine, out: &str, reducers: usize) {
    use workloads::wordcount::{run_wordcount, WcStyle};
    run_wordcount(engine, WcStyle::FreshText, &HPath::new("/in"), &HPath::new(out), reducers)
        .unwrap();
}

fn memo_bytes(cluster: &Cluster) -> u64 {
    (0..PLACES).map(|p| cluster.mem().live_class(p, MemClass::Memo)).sum()
}

#[test]
fn hadoop_memo_is_governed_whenever_the_budget_is_set() {
    for budget_first in [false, true] {
        let what = format!("budget_first={budget_first}");
        let (cluster, fs) = cluster_with_text();
        let roomy = Some(1 << 30);
        if budget_first {
            cluster.mem().set_budget(roomy);
        }
        let mut engine = memoizing_hadoop(&cluster, &fs);
        if !budget_first {
            cluster.mem().set_budget(roomy);
        }

        // Retained results are live `Memo` bytes on the accountant.
        wordcount(&mut engine, "/a", PARTS);
        assert!(memo_bytes(&cluster) > 0, "{what}: retained result not accounted");
        assert_eq!(memo_bytes(&cluster), engine.memo().bytes_live(), "{what}");

        // Under pressure the next record drops what its place retains — the
        // new entry included, so resubmitting that job (the output path is
        // not part of its fingerprint) recomputes.
        cluster.mem().set_budget(Some(1));
        wordcount(&mut engine, "/b", PARTS + 1);
        assert!(engine.memo().evictions() > 0, "{what}: nothing dropped under pressure");
        assert_eq!(memo_bytes(&cluster), engine.memo().bytes_live(), "{what}");
        wordcount(&mut engine, "/c", PARTS + 1);
        assert_eq!(engine.memo().hits(), 0, "{what}: a dropped entry must not hit");
    }
}

#[test]
fn engine_construction_order_changes_nothing_governed() {
    let observed = |m3r_first: bool| {
        let (cluster, fs) = cluster_with_text();
        cluster.mem().set_budget(Some(1 << 30));
        cluster.mem().set_oom_mode(OomMode::FailFast);
        let (_m3r, mut hadoop) = if m3r_first {
            let m3r = M3REngine::new(cluster.clone(), Arc::new(fs.clone()));
            (m3r, memoizing_hadoop(&cluster, &fs))
        } else {
            let hadoop = memoizing_hadoop(&cluster, &fs);
            (M3REngine::new(cluster.clone(), Arc::new(fs.clone())), hadoop)
        };
        wordcount(&mut hadoop, "/a", PARTS);
        (cluster.mem().budget(), cluster.mem().oom_mode(), memo_bytes(&cluster))
    };
    let (m3r_first, hadoop_first) = (observed(true), observed(false));
    assert_eq!(m3r_first, hadoop_first);
    assert_eq!((m3r_first.0, m3r_first.1), (Some(1 << 30), OomMode::FailFast));
    assert!(m3r_first.2 > 0, "the Hadoop engine's retained result is accounted either way");
}

// ---------------------------------------------------------------------------
// Property: live cached bytes never exceed the budget
// ---------------------------------------------------------------------------

fn test_seq(n: usize) -> Arc<CachedSeq<IntWritable, Text>> {
    Arc::new(CachedSeq::new(
        (0..n as i32)
            .map(|i| (Arc::new(IntWritable(i)), Arc::new(Text::from(format!("v{i}")))))
            .collect(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn live_cache_bytes_never_exceed_budget(
        budget in 32u64..160,
        ops in proptest::collection::vec((0u8..3, 0u8..12, 1u8..5), 1..48),
    ) {
        let places = 2usize;
        let fs = MemFs::shared();
        let mem = MemAccountant::new(places);
        mem.set_budget(Some(budget));
        let cache = KvCache::governed(places, mem, fs.clone() as Arc<dyn hmr_api::FileSystem>);
        // Model: path -> (records, len). The cache must agree after any
        // interleaving of puts, reads (which reload spilled entries), and
        // deletes, and must never hold more than `budget` live bytes.
        let mut model: std::collections::HashMap<String, (usize, u64)> =
            std::collections::HashMap::new();
        for (op, slot, size) in ops {
            let name = format!("/f{slot}");
            let path = HPath::new(name.as_str());
            let records = size as usize;
            let len = size as u64 * 16; // 16..=64 bytes, several per budget
            match op {
                0 => {
                    cache
                        .put_seq(slot as usize % places, &path, test_seq(records), len)
                        .unwrap();
                    model.insert(name, (records, len));
                }
                1 => {
                    let hit = cache.get_seq::<IntWritable, Text>(&path, None);
                    match model.get(&name) {
                        Some(&(records, _)) => {
                            let hit = hit.expect("model says this path is cached");
                            prop_assert_eq!(hit.seq.pairs.len(), records);
                        }
                        None => prop_assert!(hit.is_none()),
                    }
                }
                _ => {
                    cache.delete(&path);
                    model.remove(&name);
                }
            }
            for p in 0..places {
                let live = cache.mem().live_class(p, MemClass::Cache);
                prop_assert!(
                    live <= budget,
                    "place {} holds {} live cache bytes over budget {}",
                    p, live, budget
                );
            }
        }
        // Everything the model remembers reloads intact — spilling loses
        // metadata for nothing and data for no one.
        for (name, (records, len)) in model {
            let hit = cache
                .get_seq::<IntWritable, Text>(&HPath::new(name.as_str()), Some(len))
                .expect("surviving entry must be readable");
            prop_assert_eq!(hit.seq.pairs.len(), records);
            for (i, (k, v)) in hit.seq.pairs.iter().enumerate() {
                prop_assert_eq!(k.0, i as i32);
                prop_assert_eq!(v.as_ref(), &Text::from(format!("v{i}")));
            }
        }
    }
}
