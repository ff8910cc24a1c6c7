//! Cross-job memoization (`m3r-memo`, ISSUE 10) must be invisible when
//! off or cold, and exact when it hits:
//!
//! * **Invisibility** — a *cold* run with memoization enabled is
//!   bit-identical (simulated seconds through `f64::to_bits`, counters,
//!   metrics, output bytes) to one with it disabled, on both engines,
//!   serial and parallel, across worker counts. Recording an entry on the
//!   way out happens off the metered paths, so it can never cost a
//!   simulated nanosecond.
//! * **Exact replay** — a whole-job hit reproduces the original output
//!   byte for byte, elides map and shuffle entirely (zero spans in the
//!   trace rollup), and adds ~0 simulated seconds.
//! * **Never wrong, at worst slow** — a changed input means recomputation
//!   with the new bytes; a memo entry dropped under budget pressure means
//!   recomputation with the same bytes. Both degrade to the non-memoized
//!   engine, never to a stale answer.
//! * **Sub-job matching** — a job sharing the identical map / combine /
//!   partition pipeline but a *different* reducer replays only the reduce
//!   side from the retained shuffle-stable partitions (M3R only).
//! * **Server integration** — a whole-job hit resolves the ticket
//!   pre-admission, without occupying a dispatch lane, and shows up in the
//!   per-client flight-recorder rollup.

use std::sync::Arc;

use hadoop_engine::{EngineOptions, HadoopEngine};
use hmr_api::collect::OutputCollector;
use hmr_api::conf::JobConf;
use hmr_api::error::Result;
use hmr_api::io::{InputFormat, OutputFormat, SequenceFileOutputFormat, TextInputFormat};
use hmr_api::job::{ComputeIdentity, Engine, JobDef, JobResult};
use hmr_api::task::{LongSumReducer, TaskMapper, TaskReducer};
use hmr_api::writable::{LongWritable, Text};
use hmr_api::{FileSystem, HPath, TaskContext};
use m3r::{M3REngine, M3ROptions};
use m3r_server::{JobServer, ServerOptions};
use simdfs::SimDfs;
use simgrid::trace::Phase;
use workloads::microbench::{generate_microbench_input, run_microbench};
use workloads::textgen::generate_text;
use workloads::wordcount::{run_wordcount, WcStyle};

mod common;
use common::{assert_same_result, forced, fresh};

const PLACES: usize = 4;
const PARTS: usize = 4;

fn wc_input(fs: &SimDfs) {
    for f in 0..PLACES {
        generate_text(fs, &HPath::new(format!("/in/f{f}.txt")), 16 << 10, 100 + f as u64)
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

/// One cold WordCount on M3R with the given knobs.
fn wc_m3r(memoize: bool, parallel: bool, workers: usize) -> (JobResult, Vec<(String, Vec<u8>)>) {
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    let mut e = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        M3ROptions {
            memoize,
            workers: forced(parallel),
            worker_threads: workers,
            ..M3ROptions::default()
        },
    );
    let r =
        run_wordcount(&mut e, WcStyle::FreshText, &HPath::new("/in"), &HPath::new("/out"), PARTS)
            .unwrap();
    (r, dir_bytes(&fs, &HPath::new("/out")))
}

/// One cold WordCount on the Hadoop engine with the given knobs.
fn wc_hadoop(memoize: bool, parallel: bool, workers: usize) -> (JobResult, Vec<(String, Vec<u8>)>) {
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    let mut e = HadoopEngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        EngineOptions {
            memoize,
            workers: forced(parallel),
            map_slots_per_node: workers,
            reduce_slots_per_node: workers,
            ..EngineOptions::default()
        },
    );
    let r =
        run_wordcount(&mut e, WcStyle::FreshText, &HPath::new("/in"), &HPath::new("/out"), PARTS)
            .unwrap();
    (r, dir_bytes(&fs, &HPath::new("/out")))
}

// ---------------------------------------------------------------------------
// Invisibility: memoize-on cold == memoize-off, bit for bit
// ---------------------------------------------------------------------------

#[test]
fn cold_run_with_memoization_enabled_is_bit_identical_on_m3r() {
    for parallel in [false, true] {
        for workers in [1usize, 2, 8] {
            let (off, off_out) = wc_m3r(false, parallel, workers);
            let (on, on_out) = wc_m3r(true, parallel, workers);
            let what = format!("m3r cold (parallel={parallel}, workers={workers})");
            assert_same_result(&off, &on, &what);
            assert!(!off_out.is_empty(), "{what}: no output");
            assert_eq!(off_out, on_out, "{what}: output bytes differ");
        }
    }
}

#[test]
fn cold_run_with_memoization_enabled_is_bit_identical_on_hadoop() {
    for parallel in [false, true] {
        for workers in [1usize, 2, 8] {
            let (off, off_out) = wc_hadoop(false, parallel, workers);
            let (on, on_out) = wc_hadoop(true, parallel, workers);
            let what = format!("hadoop cold (parallel={parallel}, workers={workers})");
            assert_same_result(&off, &on, &what);
            assert!(!off_out.is_empty(), "{what}: no output");
            assert_eq!(off_out, on_out, "{what}: output bytes differ");
        }
    }
}

// ---------------------------------------------------------------------------
// Exact replay on a whole-job hit
// ---------------------------------------------------------------------------

fn hit_pins(engine: &str) {
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    cluster.trace().enable();
    let input = HPath::new("/in");
    let out = HPath::new("/out");
    let (resub, hits, misses) = if engine == "hadoop" {
        let mut e = HadoopEngine::with_options(
            cluster.clone(),
            Arc::new(fs.clone()),
            EngineOptions { memoize: true, ..EngineOptions::default() },
        );
        run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        let first_out = dir_bytes(&fs, &out);
        let resub = run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        assert_eq!(first_out, dir_bytes(&fs, &out), "{engine}: hit output bytes differ");
        (resub, e.memo().hits(), e.memo().misses())
    } else {
        let mut e = M3REngine::with_options(
            cluster.clone(),
            Arc::new(fs.clone()),
            M3ROptions { memoize: true, ..M3ROptions::default() },
        );
        run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        let first_out = dir_bytes(&fs, &out);
        let resub = run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
        assert_eq!(first_out, dir_bytes(&fs, &out), "{engine}: hit output bytes differ");
        (resub, e.memo().hits(), e.memo().misses())
    };
    // Trace job 0 is the first run, job 1 the replayed hit: no splits, no
    // map waves, no shuffle — and ~0 simulated seconds.
    let rollup = cluster.trace().rollup();
    assert_eq!(rollup.phase_row(1, Phase::Map).count, 0, "{engine}: hit ran map spans");
    assert_eq!(rollup.phase_row(1, Phase::Shuffle).count, 0, "{engine}: hit ran shuffle spans");
    assert!(
        resub.sim_time < 1e-9,
        "{engine}: memo hit must add ~0 simulated seconds, got {}",
        resub.sim_time
    );
    assert_eq!((hits, misses), (1, 1), "{engine}: hit/miss counts");
    // The replay still opens a trace job — labelled by the engine that
    // replayed it — so rollup job numbering tracks submission order.
    assert_eq!(
        cluster.trace().job_names(),
        [format!("wordcount ({engine})"), format!("wordcount ({engine} memo)")]
    );
}

#[test]
fn engines_never_share_memo_entries() {
    // One policy, two bindings: even over one index and one filesystem, an
    // entry the M3R binding recorded is invisible to the Hadoop binding —
    // the engine name is part of the fingerprint.
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_output_path(&HPath::new("/out"));
    conf.set_num_reduce_tasks(PARTS);
    let job = Arc::new(workloads::wordcount::WordCountJob::new(WcStyle::FreshText));
    let mut e = M3REngine::new(cluster, Arc::new(fs.clone()));
    let result = e.run_job(Arc::clone(&job), &conf).unwrap();

    let index = m3r_memo::ReuseIndex::new(PLACES);
    let bind = |engine| m3r_memo::Reuse {
        index: &index,
        engine,
        enabled: true,
        fs: &fs,
        durable: &fs,
    };
    let (m3r, hadoop) = (bind("m3r"), bind("hadoop"));
    let recorded = m3r.memo_basis(&*job, &conf).expect("eligible");
    m3r.memo_record_full(&recorded, &conf, &result);
    assert_eq!(
        m3r.lookup_full(&recorded).expect("own entry").parts,
        dir_bytes(&fs, &HPath::new("/out"))
            .into_iter()
            .map(|(name, bytes)| (name, bytes::Bytes::from(bytes)))
            .collect::<Vec<_>>()
    );
    let other = hadoop.memo_basis(&*job, &conf).expect("eligible");
    assert_ne!(recorded.job_fingerprint(), other.job_fingerprint());
    assert!(hadoop.lookup_full(&other).is_none());
}

#[test]
fn whole_job_hit_replays_bytes_with_zero_spans_on_m3r() {
    hit_pins("m3r");
}

#[test]
fn whole_job_hit_replays_bytes_with_zero_spans_on_hadoop() {
    hit_pins("hadoop");
}

// ---------------------------------------------------------------------------
// Content versions cost only what fingerprinting asks for
// ---------------------------------------------------------------------------

#[test]
fn memo_off_chain_hashes_no_bytes_on_either_engine() {
    // SimDfs hashes a file's content version on first ask; with memo off
    // nobody asks, so a whole fig6 chain — inputs, iterations, outputs —
    // never folds a byte.
    for m3r in [true, false] {
        let (cluster, fs) = fresh(PLACES);
        generate_microbench_input(&fs, &HPath::new("/in"), 192, 64, PARTS, 11).unwrap();
        let (input, work) = (HPath::new("/in"), HPath::new("/mb"));
        let results = if m3r {
            let mut e = M3REngine::new(cluster, Arc::new(fs.clone()));
            run_microbench(&mut e, &input, &work, 0.5, 3, PARTS, true, None)
        } else {
            let mut e = HadoopEngine::new(cluster, Arc::new(fs.clone()));
            run_microbench(&mut e, &input, &work, 0.5, 3, PARTS, false, None)
        }
        .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(fs.content_bytes_hashed(), 0, "m3r={m3r}: memo off must hash nothing");
    }
}

#[test]
fn memo_on_resubmissions_hash_each_input_once() {
    for engine in ["m3r", "hadoop"] {
        let (cluster, fs) = fresh(PLACES);
        wc_input(&fs);
        let input_bytes: u64 = fs
            .list_status(&HPath::new("/in"))
            .unwrap()
            .iter()
            .map(|st| st.len)
            .sum();
        let (input, out) = (HPath::new("/in"), HPath::new("/out"));
        let mut hashed = Vec::new();
        let (hits, misses) = if engine == "m3r" {
            let mut e = M3REngine::with_options(
                cluster,
                Arc::new(fs.clone()),
                M3ROptions { memoize: true, ..M3ROptions::default() },
            );
            for _ in 0..3 {
                run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
                hashed.push(fs.content_bytes_hashed());
            }
            (e.memo().hits(), e.memo().misses())
        } else {
            let mut e = HadoopEngine::with_options(
                cluster,
                Arc::new(fs.clone()),
                EngineOptions { memoize: true, ..EngineOptions::default() },
            );
            for _ in 0..3 {
                run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
                hashed.push(fs.content_bytes_hashed());
            }
            (e.memo().hits(), e.memo().misses())
        };
        assert_eq!((hits, misses), (2, 1), "{engine}: two resubmissions hit");
        // The first fingerprint hashes every input byte once; the hits'
        // fingerprints and validity checks read the cached versions.
        assert_eq!(hashed, [input_bytes; 3], "{engine}: bytes hashed after each run");
    }
}

// ---------------------------------------------------------------------------
// Never wrong: changed inputs and evicted entries both recompute
// ---------------------------------------------------------------------------

/// `wc_input` with file 0 regenerated from a different seed.
fn wc_input_mutated(fs: &SimDfs) {
    generate_text(fs, &HPath::new("/in/f0.txt"), 16 << 10, 999).unwrap();
    for f in 1..PLACES {
        generate_text(fs, &HPath::new(format!("/in/f{f}.txt")), 16 << 10, 100 + f as u64)
            .unwrap();
    }
}

#[test]
fn changed_input_forces_recomputation_with_new_bytes() {
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    let mut e = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        M3ROptions { memoize: true, ..M3ROptions::default() },
    );
    let input = HPath::new("/in");
    let out = HPath::new("/out");
    run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
    let first_out = dir_bytes(&fs, &out);

    // Replace the input with a different file 0. The mutation goes through
    // the engine's caching filesystem — HDFS files are immutable by
    // contract, so a changed input is modeled the way drivers do it:
    // delete (which also drops the cached splits), then rewrite. Files
    // 1..N are rewritten byte-identically, so their content versions —
    // and only f0's — move, and the resubmission fingerprints differently
    // and must recompute over the new bytes.
    let cfs = Arc::clone(e.caching_fs());
    cfs.delete(&input, true).unwrap();
    wc_input_mutated(&fs);
    fs.delete(&out, true).unwrap();
    run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
    let second_out = dir_bytes(&fs, &out);
    assert_ne!(first_out, second_out, "new input must produce new output");
    assert_eq!(e.memo().hits(), 0, "a changed input must never hit");
    assert_eq!(e.memo().misses(), 2);

    // The recomputation matches a from-scratch memo-off run on the same
    // (new) input — degraded to the baseline engine, not to a stale answer.
    let (cluster2, fs2) = fresh(PLACES);
    wc_input_mutated(&fs2);
    let mut base = M3REngine::new(cluster2, Arc::new(fs2.clone()));
    run_wordcount(&mut base, WcStyle::FreshText, &input, &out, PARTS).unwrap();
    assert_eq!(second_out, dir_bytes(&fs2, &out));
}

#[test]
fn evicted_memo_entry_degrades_to_recomputation() {
    // A budget far below the retained output size: the entry is recorded,
    // then immediately dropped (never spilled) by the governor. The
    // resubmission misses and recomputes — same bytes, no reuse.
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    cluster.mem().set_budget(Some(1024));
    let mut e = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        M3ROptions { memoize: true, ..M3ROptions::default() },
    );
    let input = HPath::new("/in");
    let out = HPath::new("/out");
    run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
    let first_out = dir_bytes(&fs, &out);
    assert!(e.memo().evictions() > 0, "a 1 KiB budget must drop the memo entries");

    fs.delete(&out, true).unwrap();
    run_wordcount(&mut e, WcStyle::FreshText, &input, &out, PARTS).unwrap();
    assert_eq!(first_out, dir_bytes(&fs, &out), "recomputation must match the first run");
    assert_eq!(e.memo().hits(), 0, "evicted entries must not hit");
    assert_eq!(e.memo().misses(), 2);
}

// ---------------------------------------------------------------------------
// Sub-job matching: identical map pipeline, different reducer
// ---------------------------------------------------------------------------

/// Emits `(token, token length)` — shared verbatim by the sum and max jobs
/// below, which differ only in their reducer.
struct TokenLenMapper;

impl TaskMapper<LongWritable, Text, Text, LongWritable> for TokenLenMapper {
    fn map(
        &mut self,
        _key: Arc<LongWritable>,
        value: Arc<Text>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for tok in value.as_str().split_whitespace() {
            out.collect(Arc::new(Text::from(tok)), Arc::new(LongWritable(tok.len() as i64)))?;
        }
        Ok(())
    }
}

struct MaxReducer;

impl TaskReducer<Text, LongWritable, Text, LongWritable> for MaxReducer {
    fn reduce(
        &mut self,
        key: Arc<Text>,
        values: &mut dyn Iterator<Item = Arc<LongWritable>>,
        out: &mut dyn OutputCollector<Text, LongWritable>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut max = i64::MIN;
        for v in values {
            max = max.max(v.0);
        }
        out.collect(key, Arc::new(LongWritable(max)))
    }
}

struct TokenJob {
    max: bool,
}

impl JobDef for TokenJob {
    type K1 = LongWritable;
    type V1 = Text;
    type K2 = Text;
    type V2 = LongWritable;
    type K3 = Text;
    type V3 = LongWritable;

    fn create_mapper(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskMapper<LongWritable, Text, Text, LongWritable>> {
        Box::new(TokenLenMapper)
    }

    fn create_reducer(
        &self,
        _conf: &JobConf,
    ) -> Box<dyn TaskReducer<Text, LongWritable, Text, LongWritable>> {
        if self.max {
            Box::new(MaxReducer)
        } else {
            Box::new(LongSumReducer)
        }
    }

    fn input_format(&self, _conf: &JobConf) -> Box<dyn InputFormat<LongWritable, Text>> {
        Box::new(TextInputFormat)
    }

    fn output_format(&self, _conf: &JobConf) -> Box<dyn OutputFormat<Text, LongWritable>> {
        Box::new(SequenceFileOutputFormat::new())
    }

    fn immutable_output(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        if self.max {
            "token-max"
        } else {
            "token-sum"
        }
    }

    fn memo_identity(&self) -> Option<ComputeIdentity> {
        Some(ComputeIdentity::new(
            "memo-test.token-len",
            if self.max { "memo-test.max" } else { "hmr.LongSumReducer" },
        ))
    }
}

#[test]
fn map_prefix_hit_replays_only_the_reduce_side() {
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    cluster.trace().enable();
    let mut e = M3REngine::with_options(
        cluster.clone(),
        Arc::new(fs.clone()),
        M3ROptions { memoize: true, ..M3ROptions::default() },
    );
    let mut conf = JobConf::new();
    conf.add_input_path(&HPath::new("/in"));
    conf.set_num_reduce_tasks(PARTS);
    conf.set_output_path(&HPath::new("/sum"));
    e.run_job(Arc::new(TokenJob { max: false }), &conf).unwrap();

    // Same mapper over the same inputs, different reducer: the whole-job
    // lookup misses (different job fingerprint) but the map-prefix lookup
    // hits — only the reduce side runs.
    conf.set_output_path(&HPath::new("/max"));
    e.run_job(Arc::new(TokenJob { max: true }), &conf).unwrap();
    let max_out = dir_bytes(&fs, &HPath::new("/max"));
    assert_eq!((e.memo().hits(), e.memo().misses()), (1, 1));

    let rollup = cluster.trace().rollup();
    assert_eq!(rollup.phase_row(1, Phase::Map).count, 0, "map-prefix hit ran map spans");
    assert_eq!(rollup.phase_row(1, Phase::Shuffle).count, 0, "map-prefix hit ran shuffle spans");
    assert!(
        rollup.phase_row(1, Phase::Reduce).count > 0,
        "map-prefix hit must still run a real reduce phase"
    );
    assert_ne!(
        dir_bytes(&fs, &HPath::new("/sum")),
        max_out,
        "the two reducers produce different outputs"
    );

    // The replayed reduce matches a from-scratch memo-off run bit for bit.
    let (cluster2, fs2) = fresh(PLACES);
    wc_input(&fs2);
    let mut base = M3REngine::new(cluster2, Arc::new(fs2.clone()));
    base.run_job(Arc::new(TokenJob { max: true }), &conf).unwrap();
    assert_eq!(max_out, dir_bytes(&fs2, &HPath::new("/max")));
}

// ---------------------------------------------------------------------------
// Server: pre-admission hits resolve tickets without a lane
// ---------------------------------------------------------------------------

#[test]
fn server_resolves_whole_job_hit_pre_admission() {
    let (cluster, fs) = fresh(PLACES);
    wc_input(&fs);
    let engine = M3REngine::with_options(
        cluster,
        Arc::new(fs.clone()),
        M3ROptions { memoize: true, ..M3ROptions::default() },
    );
    let server = JobServer::with_options(engine, ServerOptions { workers: 2 });

    let job = || Arc::new(workloads::wordcount::WordCountJob::new(WcStyle::FreshText));
    let conf = |out: &str| {
        let mut c = JobConf::new();
        c.add_input_path(&HPath::new("/in"));
        c.set_output_path(&HPath::new(out));
        c.set_num_reduce_tasks(PARTS);
        c
    };
    let client = server.client_as("alice");
    client.submit(job(), &conf("/o1")).unwrap().wait().unwrap();
    // The output path is non-semantic: the identical job aimed at a
    // different directory still hits, and the retained bytes land there.
    client.submit(job(), &conf("/o2")).unwrap().wait().unwrap();

    let rollup = server.rollup(50_000_000);
    let alice = rollup
        .clients
        .iter()
        .find(|c| c.client == "alice")
        .expect("alice in the rollup");
    assert_eq!(alice.jobs, 2);
    assert_eq!(alice.memo_hits, 1, "the resubmission must resolve as a memo hit");

    let engine = server.shutdown();
    assert_eq!((engine.memo().hits(), engine.memo().misses()), (1, 1));
    assert_eq!(dir_bytes(&fs, &HPath::new("/o1")), dir_bytes(&fs, &HPath::new("/o2")));
}
