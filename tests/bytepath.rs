//! The pooled byte path is invisible to the simulation. Shuffle streams
//! (M3R) and map-output segments (Hadoop) are written into buffers drawn
//! from the cluster's per-node pools, which persist across jobs and are shared
//! by every engine on the cluster; whether a job finds those pools warm or
//! empty must change wall-clock time only — never its
//! simulated seconds, output file bytes, counters, metrics or record
//! counts — and recycled buffers must not leak a previous stream's dedup
//! state into the next one.
//!
//! Simulated time is compared through `f64::to_bits`, bit-for-bit: pool
//! traffic is never charged to the cost model, so the clocks must agree
//! exactly.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::job::{Engine, JobResult};
use hmr_api::writable::{BytesWritable, IntWritable};
use hmr_api::{FileSystem, HPath};
use m3r::{M3REngine, M3ROptions};
use simdfs::SimDfs;
use simgrid::{BufPool, Cluster, MemClass};
use workloads::matvec::{generate_matvec_input, run_matvec_iterations};
use workloads::microbench::{generate_microbench_input, run_microbench};
use x10rt::serialize::DedupMode;

mod common;
use common::{assert_same_result, fresh, part_bytes};

const PLACES: usize = 4;
const PARTS: usize = 8;

// ---------------------------------------------------------------------------
// Pool lifecycle: buffers survive across jobs on the cluster's nodes, and a
// job cannot tell a warm pool from a cold one
// ---------------------------------------------------------------------------

/// What one measured job reports.
struct Measured {
    result: JobResult,
    parts: Vec<(String, bytes::Bytes)>,
    pool_hits: u64,
}

/// On a fresh cluster: a warm-up fig6 job over `/warmup`, then the measured
/// fig6 job over `/in` — a *different* input, so M3R's input cache is as
/// cold for the measured job as the pools are warm. `forget` then drops
/// whatever the engine still holds of the warm-up output `/w`. With `cold`
/// the pools are emptied in between, which leaves every other piece of
/// engine state (clock, cache, job sequence) exactly as in the warm run.
fn measured_after_warmup<E: Engine>(
    make: impl FnOnce(Cluster, SimDfs) -> E,
    forget: impl FnOnce(&E),
    m3r_protocol: bool,
    cold: bool,
) -> Measured {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/warmup"), 192, 64, PARTS, 12).unwrap();
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    let mut engine = make(cluster.clone(), fs.clone());
    let run = |engine: &mut E, input: &str, out: &str| {
        let cleanup = m3r_protocol.then_some(&fs as &dyn FileSystem);
        run_microbench(
            engine,
            &HPath::new(input),
            &HPath::new(out),
            0.75,
            1,
            PARTS,
            m3r_protocol,
            cleanup,
        )
        .unwrap()
        .remove(0)
    };
    run(&mut engine, "/warmup", "/w");
    forget(&engine);
    let pools = || (0..PLACES).map(|p| cluster.pool(p));
    let free: usize = pools().map(|p| p.free_count()).sum();
    assert!(
        free > 0,
        "finished buffers return to the pools once their readers drop them"
    );
    if cold {
        pools().for_each(|p| p.drain());
    }
    let hits_before = cluster.metrics().pool_hits();
    let result = run(&mut engine, "/in", "/a");
    Measured {
        result,
        parts: part_bytes(&fs, "/a/iter0", PARTS),
        pool_hits: cluster.metrics().pool_hits() - hits_before,
    }
}

fn assert_pool_temperature_is_invisible(what: &str, cold: Measured, warm: Measured) {
    assert_eq!(cold.pool_hits, 0, "{what}: a job on empty pools scores only misses");
    assert!(
        warm.pool_hits > 0,
        "{what}: the second job draws the first job's buffers"
    );
    assert_same_result(&cold.result, &warm.result, what);
    assert!(!warm.parts.is_empty(), "{what}: the measured job wrote part files");
    assert_eq!(cold.parts, warm.parts, "{what}: output bytes differ");
}

#[test]
fn buffer_pool_reuses_buffers_across_jobs() {
    let m3r = |cold| {
        measured_after_warmup(
            |cluster, fs| {
                let opts = M3ROptions {
                    worker_threads: 2,
                    ..M3ROptions::default()
                };
                M3REngine::with_options(cluster, Arc::new(fs), opts)
            },
            // Cached output values are views of the streams they arrived
            // in: drop them so the streams' buffers can come back.
            |engine| {
                engine.caching_fs().delete(&HPath::new("/w"), true).unwrap();
            },
            true,
            cold,
        )
    };
    assert_pool_temperature_is_invisible("fig6 m3r", m3r(true), m3r(false));

    let hadoop = |cold| {
        measured_after_warmup(
            |cluster, fs| {
                let opts = EngineOptions {
                    map_slots_per_node: 2,
                    reduce_slots_per_node: 2,
                    sort_buffer_bytes: 1 << 14,
                    ..EngineOptions::default()
                };
                HadoopEngine::with_options(cluster, Arc::new(fs), opts)
            },
            |_| {},
            false,
            cold,
        )
    };
    assert_pool_temperature_is_invisible("fig6 hadoop", hadoop(true), hadoop(false));
}

/// Every node's `MemClass::Pool` bytes are exactly its pool's free capacity.
fn assert_pool_bytes_are_accounted(cluster: &Cluster, when: &str) {
    for p in 0..PLACES {
        let free: usize = cluster.pool(p).free_capacities().iter().sum();
        assert_eq!(
            cluster.mem().live_class(p, MemClass::Pool),
            free as u64,
            "{when}: node {p}"
        );
    }
}

#[test]
fn engines_on_one_cluster_draw_from_one_pool_per_node() {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    let mut hadoop = HadoopEngine::new(cluster.clone(), Arc::new(fs.clone()));
    let mut m3r = M3REngine::new(cluster.clone(), Arc::new(fs.clone()));
    let input = HPath::new("/in");

    // The Hadoop job's dead segments are reclaimed into the nodes' pools…
    run_microbench(&mut hadoop, &input, &HPath::new("/h"), 0.75, 1, PARTS, false, None).unwrap();
    let free: usize = (0..PLACES).map(|p| cluster.pool(p).free_count()).sum();
    assert!(free > 0, "the hadoop job left its buffers on the nodes");
    assert_pool_bytes_are_accounted(&cluster, "after the hadoop job");

    // …and the M3R job's shuffle streams are written into them.
    let hits_before = cluster.metrics().pool_hits();
    run_microbench(&mut m3r, &input, &HPath::new("/m"), 0.75, 1, PARTS, true, None).unwrap();
    assert!(
        cluster.metrics().pool_hits() > hits_before,
        "the m3r job draws the buffers the hadoop job reclaimed"
    );
    assert_pool_bytes_are_accounted(&cluster, "after the m3r job");
}

// ---------------------------------------------------------------------------
// Consecutive-mode dedup eviction over pooled (recycled) buffers
// ---------------------------------------------------------------------------

#[test]
fn consecutive_dedup_eviction_is_identical_on_recycled_buffers() {
    use m3r::shuffle::{decode_stream, ShuffleStream};

    let pool = BufPool::new();
    // More distinct broadcast values than the window (4) holds, each sent
    // twice with the repeat inside the window — the sliding window must
    // evict the oldest values as fresh ones arrive, and still catch every
    // in-window repeat.
    let values: Vec<Arc<BytesWritable>> = (0..8)
        .map(|i| Arc::new(BytesWritable(vec![i as u8; 300].into())))
        .collect();
    let run = |mut stream: ShuffleStream| {
        for (i, v) in values.iter().enumerate() {
            stream.push(i % PARTS, &Arc::new(IntWritable(i as i32)), v);
            stream.push((i + 1) % PARTS, &Arc::new(IntWritable(i as i32)), v);
        }
        stream.finish()
    };

    let (first, stats_first, _) = run(ShuffleStream::with_buffer(
        pool.get(1024),
        DedupMode::Consecutive,
    ));
    assert_eq!(stats_first.dedup_hits, 8, "every in-window repeat caught");
    assert!(
        stats_first.values_retained <= 4,
        "window stays O(1): {} values retained",
        stats_first.values_retained
    );
    let decoded: Vec<_> = decode_stream::<IntWritable, BytesWritable>(first.clone())
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(decoded.len(), 16);
    for pair in decoded.chunks(2) {
        assert!(
            Arc::ptr_eq(&pair[0].2, &pair[1].2),
            "in-window repeat decodes to an alias"
        );
    }
    drop(decoded);

    // Recycle the buffer and encode the same records again: the recycled
    // (grown) buffer must produce byte-identical output.
    let first_copy = first.to_vec();
    pool.reclaim(first);
    assert_eq!(pool.free_count(), 1, "sole handle reclaims into the pool");
    let (second, stats_second, _) = run(ShuffleStream::with_buffer(
        pool.get(1024),
        DedupMode::Consecutive,
    ));
    assert_eq!(pool.free_count(), 0, "recycled buffer is in use again");
    assert_eq!(stats_second.dedup_hits, stats_first.dedup_hits);
    assert_eq!(first_copy, second.to_vec(), "recycled buffer changes bytes");
}

// ---------------------------------------------------------------------------
// Reads borrow: decoded byte strings are views that pin their stream, and
// the pool takes a pinned buffer only once the views drop
// ---------------------------------------------------------------------------

#[test]
fn decoded_byte_strings_pin_their_stream_until_they_drop() {
    use m3r::shuffle::{decode_targeted, ShuffleStream};

    let (cluster, _fs) = fresh(PLACES);
    let pool = cluster.pool(0);
    let pool_bytes = || cluster.mem().live_class(0, MemClass::Pool);
    let mut stream = ShuffleStream::with_buffer(pool.get(1 << 12), DedupMode::Full);
    for i in 0..6 {
        let value = BytesWritable(vec![i as u8; 100 + i].into());
        stream.push_owned(i % PARTS, Arc::new(IntWritable(i as i32)), Arc::new(value));
    }
    let (bytes, _, targets) = stream.finish();
    assert!(targets.is_empty(), "fresh values: no back-references, nothing to register");
    let values: Vec<Arc<BytesWritable>> = decode_targeted::<IntWritable, BytesWritable>(
        bytes.clone(),
        targets,
    )
    .map(|rec| rec.map(|(_, _, v)| v))
    .collect::<Result<_, _>>()
    .unwrap();

    // The iterator has dropped; the views outlive the stream handle too.
    let (before, capacity) = (pool_bytes(), 1 << 12);
    pool.reclaim(bytes);
    assert_eq!(pool.free_count(), 0, "a pinned stream is not pooled");
    assert_eq!(pool_bytes(), before, "…nor counted as pool bytes");
    for (i, v) in values.iter().enumerate() {
        assert_eq!(&v.0[..], &vec![i as u8; 100 + i][..], "view {i} still reads its bytes");
    }

    drop(values);
    assert_eq!(pool.free_count(), 1, "the last view dropped: the pool takes the buffer");
    assert_eq!(pool_bytes(), before + capacity as u64);
}

// ---------------------------------------------------------------------------
// A stream owns what it encodes: the owned byte path (handles moved into
// the streams, sole handles encoded without a table slot) sends exactly the
// bytes, back-references and retention of the borrowed one
// ---------------------------------------------------------------------------

/// `(SHUFFLE_STREAM_BYTES, DEDUP_HITS, DEDUP_RETAINED_VALUES, sim_time
/// bits)` of one M3R job.
fn stream_figures(r: &JobResult) -> (i64, i64, i64, u64) {
    let c = |name| r.counters.get(m3r::M3R_COUNTER_GROUP, name);
    (
        c("SHUFFLE_STREAM_BYTES"),
        c("DEDUP_HITS"),
        c("DEDUP_RETAINED_VALUES"),
        r.sim_time.to_bits(),
    )
}

fn m3r_with(cluster: Cluster, fs: &SimDfs, dedup: DedupMode) -> M3REngine {
    let opts = M3ROptions {
        dedup,
        ..M3ROptions::default()
    };
    M3REngine::with_options(cluster, Arc::new(fs.clone()), opts)
}

/// Both Fig. 6 iterations: the first reads the DFS, the second the cache.
fn fig6_stream_figures(dedup: DedupMode) -> Vec<(i64, i64, i64, u64)> {
    let (cluster, fs) = fresh(PLACES);
    generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
    let mut engine = m3r_with(cluster, &fs, dedup);
    let input = HPath::new("/in");
    run_microbench(&mut engine, &input, &HPath::new("/o"), 0.75, 2, PARTS, true, Some(&fs))
        .unwrap()
        .iter()
        .map(stream_figures)
        .collect()
}

/// One matvec iteration: the product job broadcasts each vector block to
/// every row block of its column, the sum job shuffles the products.
fn matvec_stream_figures(dedup: DedupMode) -> Vec<(i64, i64, i64, u64)> {
    let (cluster, fs) = fresh(PLACES);
    let (n, block) = (160, 10);
    let (g, v) = (HPath::new("/g"), HPath::new("/v"));
    generate_matvec_input(&fs, &g, &v, n, block, 0.3, PARTS, 5).unwrap();
    let mut engine = m3r_with(cluster, &fs, dedup);
    let work = HPath::new("/w");
    run_matvec_iterations(&mut engine, &g, &v, &work, 1, PARTS, n.div_ceil(block))
        .unwrap()
        .iter()
        .flat_map(|it| [stream_figures(&it.product), stream_figures(&it.sum)])
        .collect()
}

// Computed with the borrowed byte path (every value cloned into the
// table), before the streams took their handles over.
const FIG6_FULL: &[(i64, i64, i64, u64)] = &[
    (9600, 0, 256, 4576243362041188262),
    (12000, 0, 320, 4579260615963559910),
];
const FIG6_CONSECUTIVE: &[(i64, i64, i64, u64)] = &[
    (9600, 0, 36, 4576243362041188262),
    (12000, 0, 16, 4579260615963559910),
];
const FIG6_OFF: &[(i64, i64, i64, u64)] = &[
    (9600, 0, 0, 4576243362041188262),
    (12000, 0, 0, 4579260615963559910),
];
const MATVEC_FULL: &[(i64, i64, i64, u64)] = &[
    (75680, 144, 560, 4577492536538768554),
    (0, 0, 0, 4579150665277047818),
];
const MATVEC_CONSECUTIVE: &[(i64, i64, i64, u64)] = &[
    (79424, 96, 48, 4577499914712342810),
    (0, 0, 0, 4579150665277047818),
];
const MATVEC_OFF: &[(i64, i64, i64, u64)] = &[
    (86912, 0, 0, 4577514671059491320),
    (0, 0, 0, 4579150665277047818),
];

/// Fig. 6 (fresh keys: sole handles under `Full`) and a matvec iteration
/// (broadcast vector blocks: back-references) under every dedup mode.
#[test]
fn owned_stream_path_keeps_every_stream_figure() {
    for (dedup, fig6, matvec) in [
        (DedupMode::Full, FIG6_FULL, MATVEC_FULL),
        (DedupMode::Consecutive, FIG6_CONSECUTIVE, MATVEC_CONSECUTIVE),
        (DedupMode::Off, FIG6_OFF, MATVEC_OFF),
    ] {
        assert_eq!(fig6_stream_figures(dedup), fig6, "fig6 under {dedup:?}");
        assert_eq!(matvec_stream_figures(dedup), matvec, "matvec under {dedup:?}");
    }
}
