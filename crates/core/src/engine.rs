//! The M3R engine (paper §3.2, §5): an in-memory implementation of the
//! Hadoop MapReduce APIs on long-lived places.
//!
//! One engine instance owns a fixed family of places (x10rt worker
//! threads, one per simulated node, each with `worker_threads` task slots —
//! the paper runs one process per host with 8 worker threads) and runs
//! *every* job of a job sequence on them:
//!
//! * no jobtracker, no heartbeats, no per-task JVMs — coordination is
//!   X10-style barriers costing fractions of a millisecond;
//! * inputs and outputs are cached in the distributed [`crate::cache`]
//!   keyed by file name; a job whose input was produced (or read) by an
//!   earlier job gets it from the heap with zero I/O;
//! * the shuffle is in memory: local pairs move by pointer (aliased under
//!   `ImmutableOutput`, defensively cloned otherwise), remote pairs travel
//!   in de-duplicating serialized streams, one per place pair;
//! * partition stability: partition *p* always reduces at place
//!   `p % places`, so pipelines using a consistent partitioner never move
//!   stable data (§3.2.2.2).
//!
//! The job frame, the task wave, the reduce core and the memo policy are
//! the ones the Hadoop engine runs (`hmr_api::job`, `simgrid::pool`,
//! `hmr_api::task`, `m3r_memo`); this file holds what §3.2 says differs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use hmr_api::conf::JobConf;
use hmr_api::counters::{task_counter, Counters, TaskContext};
use hmr_api::distcache::DistCache;
use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{FileSystem, HPath};
use hmr_api::io::{part_file_name, seqfile, InputFormat, InputSplit, OutputFormat};
use hmr_api::job::{Engine, JobDef, JobFrame, JobResult, LaneEngine, MapOnlyConvert};
use hmr_api::multi::NamedOutputs;
use hmr_api::task::reduce_partition;
use hmr_api::writable::Writable;
use simgrid::cost::Charge;
use simgrid::trace::{self, Phase};
use simgrid::{Cluster, JobMem, MemClass, Meter, Workers};
use x10rt::serialize::DedupMode;
use x10rt::World;

use crate::cache::{Cached, CachedSeq, KvCache};
use crate::cachefs::CachingFs;
use crate::shuffle::{decode_targeted, CombineTable, MapOutputBuffer, ShuffleStream};
use crate::stability::PlaceMap;

/// The M3R counter group for engine-specific statistics.
pub const M3R_COUNTER_GROUP: &str = "m3r";

/// What this M3R *installation* is. The defaults are the paper's (§6): one
/// place per host, 8 worker threads, full de-duplication, partition stability
/// and the input/output cache on; the `false`/`Off` settings exist for the
/// ablation benches DESIGN.md calls out. Nothing here is a second copy of a
/// setting with another home: the memory budget and overflow mode live on
/// the cluster's accountant (`cluster.mem()`), the per-node buffer pools on
/// the cluster, and per-job behaviour (place-level combining, the
/// sort tunables) in the job's `JobConf`.
#[derive(Clone, Debug)]
pub struct M3ROptions {
    /// Concurrent map/reduce tasks per place.
    pub worker_threads: usize,
    /// Shuffle de-duplication mode (§3.2.2.3, §6.3).
    pub dedup: DedupMode,
    /// The partition-stability guarantee (§3.2.2.2); disabling simulates a
    /// Hadoop-like arbitrary partition→host assignment.
    pub partition_stability: bool,
    /// The input/output key/value cache (§3.2.1).
    pub input_cache: bool,
    /// Whether a wave's tasks may run on worker threads: `Auto` (default)
    /// decides per wave from the job's input size (`simgrid::pool`).
    /// Wall-clock only: simulated seconds, outputs and counters are
    /// bit-identical in every mode. Under a *finite* memory budget waves
    /// always run inline: eviction order must follow task order, never the
    /// thread schedule.
    pub workers: Workers,
    /// ReStore-style cross-job result memoization (`m3r-memo`) — a result
    /// repository is a property of the installation, so this is the one
    /// switch: jobs that declare a `memo_identity` record their outputs (and
    /// shuffle-stable reduce inputs); a fingerprint-identical resubmission
    /// replays retained bytes in ~0 simulated seconds, and a map-prefix
    /// match (same map pipeline, different reducer) replays only the reduce
    /// side. Off is bit-identical to no memoization; under a *finite*
    /// budget retained entries are budget-live and may shift cache-eviction
    /// timing.
    pub memoize: bool,
}

impl Default for M3ROptions {
    fn default() -> Self {
        M3ROptions {
            worker_threads: 8,
            dedup: DedupMode::Full,
            partition_stability: true,
            input_cache: true,
            workers: Workers::Auto,
            memoize: false,
        }
    }
}

/// The M3R engine: a fixed set of places executing Hadoop jobs in memory.
pub struct M3REngine {
    world: Arc<World>,
    cluster: Cluster,
    fs: Arc<CachingFs>,
    opts: M3ROptions,
    /// Monotonic job ordinal; atomic so concurrent lane submissions (the
    /// multi-tenant server) can allocate without `&mut self`.
    job_seq: AtomicU64,
    /// Distributed-cache bytes survive across jobs in the long-lived
    /// places (nothing in M3R restarts between jobs).
    dist_memo: Mutex<HashMap<HPath, Bytes>>,
    /// The cross-job reuse index (`m3r-memo`): retained whole-job outputs
    /// and map-phase partition sets, keyed by fingerprint. Long-lived like
    /// everything else on the places.
    memo: Arc<m3r_memo::ReuseIndex>,
}

impl M3REngine {
    /// An engine over `cluster` wrapping `fs` with the M3R cache; one place
    /// per node, default options.
    pub fn new(cluster: Cluster, fs: Arc<dyn FileSystem>) -> Self {
        M3REngine::with_options(cluster, fs, M3ROptions::default())
    }

    /// An engine with explicit options.
    pub fn with_options(cluster: Cluster, fs: Arc<dyn FileSystem>, opts: M3ROptions) -> Self {
        assert!(opts.worker_threads >= 1);
        let places = cluster.len();
        let mem = cluster.mem().clone();
        // Spills go to the *raw* filesystem: a `CachingFs::create` would
        // re-enter the cache to invalidate the path mid-spill.
        let cache = KvCache::governed(places, mem.clone(), Arc::clone(&fs));
        // The cache's telemetry source is a pull-based callback: registering
        // it here is free at runtime and makes the cluster's telemetry
        // registry answer for per-tenant residency from engine birth.
        cache.publish_telemetry(cluster.telemetry());
        // Retained results are budget-live (`MemClass::Memo`) and dropped —
        // never spilled — under pressure.
        let memo = Arc::new(m3r_memo::ReuseIndex::governed(places, mem));
        memo.publish_telemetry(cluster.telemetry());
        M3REngine {
            world: Arc::new(World::new(places)),
            fs: Arc::new(CachingFs::new(fs, cache)),
            cluster,
            opts,
            job_seq: AtomicU64::new(0),
            dist_memo: Mutex::new(HashMap::new()),
            memo,
        }
    }

    /// The caching filesystem view jobs should use (also exposes the
    /// `CacheFS` extension, §4.2.3).
    pub fn caching_fs(&self) -> &Arc<CachingFs> {
        &self.fs
    }

    /// The key/value cache.
    pub fn cache(&self) -> &KvCache {
        self.fs.cache()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.cluster.len()
    }

    /// Engine options in force.
    pub fn options(&self) -> &M3ROptions {
        &self.opts
    }

    /// The cross-job reuse index (test/bench/report introspection).
    pub fn memo(&self) -> &Arc<m3r_memo::ReuseIndex> {
        &self.memo
    }

    /// The shared reuse policy as this engine binds it: jobs see the
    /// caching view, the durable bytes live on the filesystem under it.
    fn reuse(&self) -> m3r_memo::Reuse<'_> {
        m3r_memo::Reuse {
            index: &self.memo,
            engine: "m3r",
            enabled: self.opts.memoize,
            fs: &*self.fs,
            durable: &**self.fs.underlying(),
        }
    }

    fn place_map(&self, job_seq: u64) -> PlaceMap {
        if self.opts.partition_stability {
            PlaceMap::Stable
        } else {
            PlaceMap::Unstable { job_seq }
        }
    }

    /// The job's distributed cache. Loaded bytes persist across jobs in the
    /// long-lived places; only new files are fetched (and billed, to the
    /// submitting place under a Setup span).
    fn load_dist_cache(&self, cluster: &Cluster, conf: &JobConf) -> Result<Arc<DistCache>> {
        let mut memo = self.dist_memo.lock();
        let mut entries = Vec::new();
        for path in conf.cache_files() {
            let bytes = match memo.get(&path) {
                Some(b) => b.clone(),
                None => {
                    let b = simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
                        trace::span(Phase::Setup, "dist_cache", None, || {
                            self.fs.open(&path)?.read_all()
                        })
                    })?;
                    memo.insert(path.clone(), b.clone());
                    b
                }
            };
            entries.push((path, bytes));
        }
        Ok(Arc::new(DistCache::from_entries(entries)))
    }
}

/// `"path@offset+len"` → cacheable `(path, Some(len))`; plain names map to
/// `(path, None)`; non-zero offsets (partial-file splits) are not cacheable.
fn cache_target(name: &str) -> Option<(HPath, Option<u64>)> {
    if let Some((path, range)) = name.rsplit_once('@') {
        let (off, len) = range.split_once('+')?;
        let off: u64 = off.parse().ok()?;
        let len: u64 = len.parse().ok()?;
        if off != 0 {
            return None;
        }
        return Some((HPath::new(path), Some(len)));
    }
    Some((HPath::new(name), None))
}

/// Serialized length a sequence would have as a SequenceFile — the "file
/// size" reported for temporary outputs that never reach the DFS, and the
/// size a part file's buffer is reserved at.
fn seq_file_len<K: Writable, V: Writable>(pairs: &[(Arc<K>, Arc<V>)]) -> u64 {
    seqfile::file_len(pairs.iter().map(|(k, v)| (&**k, &**v)))
}

/// Intermediate pairs of job `J`, as they move through the shuffle.
type Pairs<J> = Vec<(Arc<<J as JobDef>::K2>, Arc<<J as JobDef>::V2>)>;

/// The payload of a map-prefix memo entry: the assembled reduce-input
/// partitions of one finished map phase, `(partition, pairs)` sorted by
/// partition, typed by the job's intermediate `K2/V2` domain. Stored in the
/// [`m3r_memo::ReuseIndex`] as an opaque `Arc<dyn Any>` and downcast back
/// here — the engine name inside the fingerprint guarantees the type.
type MapPhaseData<J> = Vec<(usize, Pairs<J>)>;

/// One map task's partitioned output, routed but not yet serialized.
///
/// Tasks in a wave may run concurrently, so they cannot touch the
/// place-wide `ShuffleStream`s (full de-dup spans every mapper at the
/// place). Instead each task returns its buckets and the place thread
/// pushes them into the streams afterwards, in task order, under the
/// task's scratch meter so serialization is billed exactly as if the task
/// had done it inline.
struct RoutedOutput<J: JobDef> {
    /// Buckets staying at this place: `(partition, pairs)`.
    local: Vec<(usize, Pairs<J>)>,
    /// Buckets headed elsewhere: `(destination place, partition, pairs)`.
    remote: Vec<(usize, usize, Pairs<J>)>,
}

/// One finished shuffle stream in flight between two places.
struct StreamPayload {
    /// The encoded records, shared by refcount — the receiver decodes
    /// straight out of this buffer and reclaims it into its own pool once
    /// the last record handle drops.
    bytes: Bytes,
    /// `(partition, records)` published by the sender, sorted by partition,
    /// so the receiver reserves exact ingest capacity without a counting
    /// pass over the decoded stream.
    counts: Vec<(usize, u64)>,
    /// Ordinals the stream's back-references target, ascending: the only
    /// decoded values the receiver registers (`decode_targeted`).
    targets: Vec<u32>,
}

/// One running job: what every place and task needs of the engine and the
/// job frame, plus the cross-place shuffle state. Shared by `Arc` with the
/// place threads.
struct Run<J: JobDef> {
    job: Arc<J>,
    conf: Arc<JobConf>,
    fs: Arc<CachingFs>,
    cluster: Cluster,
    opts: M3ROptions,
    tjob: u64,
    held: Arc<JobMem>,
    place_map: PlaceMap,
    num_reducers: usize,
    /// Σ split lengths — what `Workers::Auto` sizes the job by; `u64::MAX`
    /// for a map-prefix replay, which plans no splits.
    input_bytes: u64,
    input_format: Box<dyn InputFormat<J::K1, J::V1>>,
    output_format: Box<dyn OutputFormat<J::K3, J::V3>>,
    dist_cache: Arc<DistCache>,
    /// Locally shuffled pairs: `local[place][partition]`.
    local: Vec<Mutex<HashMap<usize, Pairs<J>>>>,
    /// Serialized remote streams: `streams[dest][src]`. Slotting by source
    /// (instead of pushing in completion order) makes the receive order —
    /// and with it charge order and equal-key tie order — independent of
    /// how the place threads happen to interleave.
    streams: Vec<Vec<Mutex<Option<StreamPayload>>>>,
    counters: Mutex<Counters>,
    /// The lowest failing place's error, with that place: which place's
    /// error is reported must not depend on which one failed first.
    error: Mutex<Option<(usize, HmrError)>>,
    output_records: AtomicU64,
}

impl<J: JobDef> Run<J> {
    fn record(&self, place: usize, r: Result<()>) {
        if let Err(e) = r {
            let mut slot = self.error.lock();
            if slot.as_ref().is_none_or(|(p, _)| place < *p) {
                *slot = Some((place, e));
            }
        }
    }

    fn check(&self) -> Result<()> {
        match self.error.lock().take() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Waves may leave the place thread only under the default infinite
    /// budget. Under a finite one the cache traffic inside each task
    /// (input-cache puts, reloads of spilled entries, output-cache puts) is
    /// order-sensitive — eviction victims depend on admission order — so
    /// waves run inline and the eviction sequence follows task order.
    fn workers(&self) -> Workers {
        match self.cluster.mem().budget() {
            Some(_) => Workers::Never,
            None => self.opts.workers,
        }
    }

    /// A fresh place→place stream writing into a recycled buffer from this
    /// place's free-list (warm capacity from earlier jobs).
    fn open_stream(&self, place: usize) -> ShuffleStream {
        ShuffleStream::with_buffer(self.cluster.pool(place).get_any(1024), self.opts.dedup)
    }

    fn task_ctx(&self, id: String) -> TaskContext {
        TaskContext::new(id, Arc::clone(&self.conf), Arc::clone(&self.dist_cache))
    }
}

impl Engine for M3REngine {
    fn engine_name(&self) -> &'static str {
        "m3r"
    }

    fn run_job<J: JobDef>(&mut self, job: Arc<J>, conf: &JobConf) -> Result<JobResult> {
        let seq = self.job_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let cluster = self.cluster.clone();
        self.run_job_inner(&cluster, seq, job, conf)
    }
}

impl LaneEngine for M3REngine {
    fn home(&self) -> &Cluster {
        &self.cluster
    }

    fn run_lane<J: JobDef>(
        &self,
        lane: &Cluster,
        seq: u64,
        job: Arc<J>,
        conf: &JobConf,
    ) -> Result<JobResult> {
        self.run_job_inner(lane, seq, job, conf)
    }

    fn exclusive_only(&self) -> bool {
        // Under a finite budget or active quotas, cache-eviction order
        // depends on job interleaving; the server serializes dispatch so
        // the eviction sequence stays admission-deterministic.
        self.cluster.mem().budget().is_some() || self.cache().has_quotas()
    }

    fn set_client_quota(&self, client: &str, quota: Option<u64>) {
        self.cache().set_client_quota(client, quota);
    }

    fn try_memo_replay<J: JobDef>(
        &self,
        job: &Arc<J>,
        conf: &JobConf,
    ) -> Option<Result<JobResult>> {
        // Pre-admission whole-job hits only: a map-prefix match still runs
        // a real reduce phase and must occupy a lane (it triggers inside
        // `run_lane` → `run_job_inner` as usual).
        self.reuse().try_replay(&self.cluster, &**job, conf)
    }
}

impl M3REngine {
    /// The shared body of [`Engine::run_job`] and [`LaneEngine::run_lane`]:
    /// run one job against `cluster` (the home cluster for the classic
    /// blocking path, a [`Cluster::job_lane`] for server submissions) with
    /// `job_seq` as the engine-level job ordinal. Everything job-scoped
    /// (clocks, metrics deltas, trace job id) and everything node-scoped
    /// (buffer pools) comes from `cluster`; the engine contributes
    /// the long-lived M3R state — world, cache, distributed-cache memo.
    fn run_job_inner<J: JobDef>(
        &self,
        cluster: &Cluster,
        job_seq: u64,
        job: Arc<J>,
        conf: &JobConf,
    ) -> Result<JobResult> {
        let frame = JobFrame::open(cluster);
        let conf = Arc::new(conf.clone());

        // A whole-job fingerprint hit resolves the submission before any
        // splits, maps or shuffles exist.
        let reuse = self.reuse();
        let basis = reuse.memo_basis(&*job, &conf);
        if let Some(hit) = basis.as_ref().and_then(|b| reuse.lookup_full(b)) {
            return reuse.replay_full(frame, &conf, hit);
        }

        // Job commit: _SUCCESS only for outputs that really reach the DFS.
        let commit = job
            .output_format(&conf)
            .output_path(&conf)
            .filter(|dir| !conf.is_temp_output(dir));
        let mut map_entry = None;
        let result = frame.run(
            format_args!("{} (m3r)", conf.job_name()),
            reuse.durable,
            commit,
            |tjob, held| {
                let (counters, records, entry) =
                    self.execute(cluster, job_seq, tjob, held, &job, &conf, basis.as_ref())?;
                map_entry = entry;
                Ok((counters, records))
            },
        )?;

        // Record this run's results in the reuse index (unmetered: the
        // read-back and the index insert cost nothing simulated, so a cold
        // run with memoization on stays sim-bit-identical to one without).
        // A reduce-only replay records just its whole-job output — the map
        // entry that served it is already present.
        if let Some(basis) = &basis {
            reuse.memo_record_full(basis, &conf, &result);
            if let Some((parts, map_counters)) = map_entry {
                let bytes = parts.iter().map(|(_, pairs)| seq_file_len(pairs)).sum();
                self.memo.record_map(
                    basis.map_fingerprint(),
                    basis.input_versions().to_vec(),
                    Arc::new(parts),
                    map_counters,
                    bytes,
                );
            }
        }
        Ok(result)
    }

    /// Everything between the job frame's open and commit. Returns the
    /// job's counters and output record count and — after a fresh map phase
    /// of a memo-eligible job (`basis`) — the map-prefix entry to retain.
    #[allow(clippy::too_many_arguments)]
    fn execute<J: JobDef>(
        &self,
        cluster: &Cluster,
        job_seq: u64,
        tjob: u64,
        held: &Arc<JobMem>,
        job: &Arc<J>,
        conf: &Arc<JobConf>,
        basis: Option<&m3r_memo::FingerprintBasis>,
    ) -> Result<(Counters, u64, Option<(MapPhaseData<J>, Counters)>)> {
        let nplaces = cluster.len();
        let place_map = self.place_map(job_seq);
        let num_reducers = conf.num_reduce_tasks();
        // Submission is a fast in-memory hand-off, not a jobtracker round
        // trip: "small HMR jobs can run essentially instantly on M3R".
        // Charged through the meter so the submit span captures it; the
        // charge itself is identical with tracing on or off.
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            trace::span(Phase::Submit, "submit", None, || {
                simgrid::meter::charge(Charge::Barrier);
            });
        });

        // Sub-job matching: the whole job missed, but if some earlier job
        // ran the identical map / combine / partition pipeline over these
        // exact inputs, its shuffle-stable reduce-input partitions are
        // retained — replay only the reduce side (no splits, no map waves,
        // no shuffle). A job is a memo *miss* only when both lookups fail.
        let retained = basis.and_then(|b| {
            let hit = self
                .memo
                .lookup_map::<MapPhaseData<J>>(b.map_fingerprint(), &*self.fs);
            if hit.is_none() {
                self.memo.note_miss();
            }
            hit
        });

        let input_format = job.input_format(conf);
        let mut plan = None;
        let mut input_bytes = u64::MAX;
        if retained.is_none() {
            let splits = simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
                trace::span(Phase::Setup, "get_splits", None, || {
                    input_format.get_splits(&*self.fs, conf, nplaces * self.opts.worker_threads)
                })
            })?;
            let convert = match num_reducers {
                0 => Some(job.map_only_convert().ok_or_else(|| {
                    HmrError::InvalidJob(
                        "0 reducers requires JobDef::map_only_convert (map-only job)".into(),
                    )
                })?),
                _ => None,
            };
            input_bytes = splits.iter().map(|s| s.length()).sum();
            plan = Some((Arc::new(splits), convert));
        }

        let run = Arc::new(Run {
            dist_cache: self.load_dist_cache(cluster, conf)?,
            job: Arc::clone(job),
            conf: Arc::clone(conf),
            fs: Arc::clone(&self.fs),
            cluster: cluster.clone(),
            opts: self.opts.clone(),
            tjob,
            held: Arc::clone(held),
            place_map,
            num_reducers,
            input_bytes,
            input_format,
            output_format: job.output_format(conf),
            local: (0..nplaces).map(|_| Mutex::new(HashMap::new())).collect(),
            streams: (0..nplaces)
                .map(|_| (0..nplaces).map(|_| Mutex::new(None)).collect())
                .collect(),
            counters: Mutex::new(Counters::new()),
            error: Mutex::new(None),
            output_records: AtomicU64::new(0),
        });

        if let Some((data, map_counters)) = &retained {
            // Seed the retained partitions at their home places. The reduce
            // side below is metered normally and byte-identical to a fresh
            // run: the captured pairs are the exact assembled reduce
            // inputs, in the exact order.
            *run.counters.lock() = map_counters.clone();
            for (p, pairs) in data.iter() {
                run.local[place_map.place_of(*p, nplaces)]
                    .lock()
                    .insert(*p, pairs.clone());
            }
        }
        if let Some((splits, convert)) = plan {
            let per_place = Arc::new(self.assign_splits(&splits, place_map, nplaces));
            self.world.finish(|fin| {
                for place in 0..nplaces {
                    let (run, splits) = (Arc::clone(&run), Arc::clone(&splits));
                    let (per_place, convert) = (Arc::clone(&per_place), convert.clone());
                    fin.at(place, move |_pc| {
                        let r =
                            map_phase_at_place(&run, place, &splits, &per_place[place], convert);
                        run.record(place, r);
                    });
                }
            });
            run.check()?;
            // "No reducer is allowed to run until globally all shuffle
            // messages have been sent" — an X10 team barrier.
            cluster.barrier();
        }

        // A fresh map phase of a memo-eligible job leaves a map-prefix
        // entry: the map-side counters as of the shuffle barrier (they are
        // reducer-independent) and the assembled reduce inputs — clones of
        // the `Arc` pairs at the exact shuffle/reduce boundary, so a replay
        // reproduces reduce-input order bit-for-bit.
        let capture = (basis.is_some() && retained.is_none())
            .then(|| (run.counters.lock().clone(), Arc::new(Mutex::new(Vec::new()))));

        if num_reducers > 0 {
            self.world.finish(|fin| {
                for place in 0..nplaces {
                    let run = Arc::clone(&run);
                    let replay = retained.is_some();
                    let capture = capture.as_ref().map(|(_, parts)| Arc::clone(parts));
                    fin.at(place, move |_pc| {
                        let r = reduce_phase_at_place(&run, place, replay, capture.as_deref());
                        run.record(place, r);
                    });
                }
            });
            run.check()?;
            cluster.barrier();
        }

        let map_entry = capture.map(|(map_counters, parts)| {
            let mut parts = std::mem::take(&mut *parts.lock());
            parts.sort_by_key(|(p, _)| *p);
            (parts, map_counters)
        });
        let counters = run.counters.lock().clone();
        Ok((counters, run.output_records.load(Ordering::Relaxed), map_entry))
    }

    /// Split → place assignment. Priority: PlacedSplit (§4.3) → cached
    /// location (§3.2.1) → DFS locality → round robin.
    fn assign_splits(
        &self,
        splits: &[Arc<dyn InputSplit>],
        place_map: PlaceMap,
        nplaces: usize,
    ) -> Vec<Vec<usize>> {
        let mut per_place: Vec<Vec<usize>> = vec![Vec::new(); nplaces];
        for (i, split) in splits.iter().enumerate() {
            let cached = || {
                let (path, _) = split.cache_name().and_then(|n| cache_target(&n))?;
                match self.fs.cache().stat(&path)? {
                    Cached::File { place, .. } => Some(place),
                    Cached::Dir => None,
                }
            };
            let place = if let Some(p) = split.placed_partition() {
                place_map.place_of(p, nplaces)
            } else if let Some(cached) = self.opts.input_cache.then(cached).flatten() {
                cached
            } else if let Some(&loc) = split.locations().first() {
                loc % nplaces
            } else {
                i % nplaces
            };
            per_place[place].push(i);
        }
        per_place
    }
}

/// What one place has produced for the shuffle so far: the place→place
/// streams, persisting across every mapper at this place because full
/// de-duplication spans the whole channel, and — with place-level combining
/// on — the tables standing in front of them. Only the place thread touches
/// it; worker threads return routed buckets instead.
struct Outbox<J: JobDef> {
    streams: Vec<Option<ShuffleStream>>,
    /// Records per (destination, partition), published with each stream so
    /// receivers reserve exact ingest capacity.
    stream_counts: Vec<HashMap<usize, u64>>,
    /// When enabled and the job has a combiner, remote buckets are absorbed
    /// into one `CombineTable` per destination instead of serializing
    /// immediately; equal keys merge across every map task at this place
    /// and the tables drain into the streams once — after the last wave, or
    /// early if a finite budget is breached (degrading to plain streaming).
    combine_tables: Option<Vec<CombineTable<J::K2, J::V2>>>,
    /// (input records, output records) that went through the place combiner.
    place_combined: (u64, u64),
    combine_counters: Counters,
}

impl<J: JobDef> Outbox<J> {
    /// Absorb one task's remote buckets into the combine `tables`: equal
    /// keys merge across tasks, and only the (cheaper) key encoding is
    /// billed now, from the keys' serialized sizes — the combined output
    /// serializes at drain time.
    fn absorb(
        run: &Run<J>,
        place: usize,
        tables: &mut [CombineTable<J::K2, J::V2>],
        remote: Vec<(usize, usize, Pairs<J>)>,
    ) {
        for (dest, p, bucket) in remote {
            let mut grew = 0u64;
            let mut key_bytes = 0u64;
            for (k, v) in bucket {
                let (g, kb) = tables[dest].absorb(p, k, v);
                grew += g;
                key_bytes += kb;
            }
            run.held.grow(place, MemClass::Combine, grew);
            simgrid::meter::charge(Charge::Serialize { bytes: key_bytes });
        }
    }

    /// Move one task's remote buckets into the place-wide streams.
    fn serialize(&mut self, run: &Run<J>, place: usize, remote: Vec<(usize, usize, Pairs<J>)>) {
        for (dest, p, bucket) in remote {
            let stream = self.streams[dest].get_or_insert_with(|| run.open_stream(place));
            // Reserve from `serialized_size` hints (plus framing) so the
            // bucket appends without re-growing mid-push.
            let hint: usize = bucket
                .iter()
                .map(|(k, v)| k.serialized_size() + v.serialized_size() + 16)
                .sum();
            stream.reserve(hint);
            let before = stream.len();
            *self.stream_counts[dest].entry(p).or_insert(0) += bucket.len() as u64;
            for (k, v) in bucket {
                stream.push_owned(p, k, v);
            }
            simgrid::meter::charge(Charge::Serialize {
                bytes: (stream.len() - before) as u64,
            });
        }
    }

    /// Combine-and-serialize the combine tables into the shuffle streams,
    /// partitions ascending ([`CombineTable::drain_combined`]). Per table
    /// the grouping is billed as one sort pass over its groups, then the
    /// combined output as serialize work, on whatever meter is installed
    /// (a task scratch clock for a budget flush, the place clock for the
    /// end-of-map drain).
    fn drain_combine_tables(&mut self, run: &Run<J>, place: usize) -> Result<()> {
        let Some(mut tables) = self.combine_tables.take() else {
            return Ok(());
        };
        let mut combiner = run
            .job
            .create_combiner(&run.conf)
            .expect("combine tables only exist for jobs with a combiner");
        let mut ctx = run.task_ctx(format!("m3r_pc_{place:06}"));
        trace::span(Phase::Combine, "drain", None, || -> Result<()> {
            for (dest, table) in tables.iter_mut().enumerate() {
                if table.is_empty() {
                    continue;
                }
                let table_bytes = table.bytes();
                self.place_combined.0 += table.records();
                let stream = self.streams[dest].get_or_insert_with(|| run.open_stream(place));
                stream.reserve(table_bytes as usize);
                let before = stream.len();
                let counts = &mut self.stream_counts[dest];
                let combined = &mut self.place_combined.1;
                let groups = table.drain_combined(&mut *combiner, &mut ctx, |p, k, v| {
                    *counts.entry(p).or_insert(0) += 1;
                    *combined += 1;
                    stream.push_owned(p, k, v);
                })?;
                // One charge per table: `Sort` is priced n·log₂n, so it is
                // neither split per partition nor summed per record. This
                // is what makes place combining a net win in
                // `records_sorted`: the reducers re-sort far fewer records
                // than the mappers fed into the tables.
                simgrid::meter::charge(Charge::Sort { records: groups });
                simgrid::meter::charge(Charge::Serialize {
                    bytes: (stream.len() - before) as u64,
                });
                run.held.shrink(place, MemClass::Combine, table_bytes);
            }
            Ok(())
        })?;
        self.combine_counters.merge(&ctx.into_counters());
        Ok(())
    }
}

/// Everything one place does during the map phase.
fn map_phase_at_place<J: JobDef>(
    run: &Run<J>,
    place: usize,
    splits: &[Arc<dyn InputSplit>],
    my_splits: &[usize],
    convert: Option<MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>,
) -> Result<()> {
    let cluster = &run.cluster;
    let nplaces = cluster.len();
    let mut outbox = Outbox::<J> {
        streams: (0..nplaces).map(|_| None).collect(),
        stream_counts: vec![HashMap::new(); nplaces],
        combine_tables: (run.conf.place_level_combine() && run.num_reducers > 0)
            .then(|| run.job.create_combiner(&run.conf))
            .flatten()
            .map(|combiner| {
                let (sort, group) = (run.job.sort_comparator(), run.job.grouping_comparator());
                (0..nplaces).map(|_| CombineTable::new(&*combiner, &sort, &group)).collect()
            }),
        place_combined: (0, 0),
        combine_counters: Counters::new(),
    };
    // Locally shuffled pairs accumulate here in task order and are
    // published to `run.local` once, after the last wave.
    let mut local_acc: HashMap<usize, Pairs<J>> = HashMap::new();

    for wave in my_splits.chunks(run.opts.worker_threads) {
        simgrid::pool::traced_wave(
            cluster,
            place,
            run.tjob,
            run.workers(),
            run.input_bytes,
            wave.to_vec(),
            |si: usize| {
                trace::span(Phase::Map, "map", Some(si as u64), || {
                    run_map_task(run, place, si, splits[si].as_ref(), convert.clone())
                        .map(|routed| (si, routed))
                })
            },
            // Each task's remote buckets go into the place-wide streams (or
            // tables) in task order, billing the task's own scratch clock —
            // the same charges, in the same stream order, as a sequential
            // execution.
            |(si, routed)| {
                if let Some(tables) = outbox.combine_tables.as_mut() {
                    trace::span(Phase::Combine, "absorb", Some(si as u64), || {
                        Outbox::absorb(run, place, tables, routed.remote)
                    });
                    // Governor interaction: if absorbing pushed this place
                    // over its budget, combine what is held now and degrade
                    // to plain streaming for the rest of the map phase.
                    // The flush bills the current task. It must depend only
                    // on task order: finite-budget waves run sequentially,
                    // but places run concurrently and other places publish
                    // their streams into this place's `Shuffle` class, so
                    // that class is left out, as the cache governor does.
                    let mem = cluster.mem();
                    let own = [MemClass::Cache, MemClass::Pool, MemClass::Combine, MemClass::Memo]
                        .map(|class| mem.live_class(place, class));
                    if mem.budget().is_some_and(|b| own.iter().sum::<u64>() > b) {
                        outbox.drain_combine_tables(run, place)?;
                    }
                } else {
                    trace::span(Phase::Shuffle, "serialize", Some(si as u64), || {
                        outbox.serialize(run, place, routed.remote)
                    });
                }
                for (p, bucket) in routed.local {
                    local_acc.entry(p).or_default().extend(bucket);
                }
                Ok(())
            },
        )?;
    }

    // Drain the (never-overflowed) combine tables into the streams on the
    // place thread: combiner work and the one serialization pass are billed
    // straight to the place clock, like reduce-side ingest.
    simgrid::with_meter(Meter::new(cluster.node(place).clone()), || {
        outbox.drain_combine_tables(run, place)
    })?;

    if !local_acc.is_empty() {
        let mut local = run.local[place].lock();
        for (p, bucket) in local_acc {
            local.entry(p).or_default().extend(bucket);
        }
    }

    // Hand finished streams to their destinations; the network cost is
    // charged at the receiver after the barrier. Stream statistics are
    // accumulated locally and merged under a single `run.counters` lock
    // take per place.
    let mut stream_bytes = 0i64;
    let mut dedup_hits = 0i64;
    let mut dedup_retained = 0i64;
    let mut any_stream = false;
    for (dest, slot) in outbox.streams.into_iter().enumerate() {
        let Some(stream) = slot.filter(|s| !s.is_empty()) else {
            continue;
        };
        let (bytes, stats, targets) = stream.finish();
        any_stream = true;
        stream_bytes += bytes.len() as i64;
        dedup_hits += stats.dedup_hits as i64;
        dedup_retained += stats.values_retained as i64;
        let mut counts: Vec<(usize, u64)> =
            std::mem::take(&mut outbox.stream_counts[dest]).into_iter().collect();
        counts.sort_unstable();
        // The payload is parked at the destination until its reduce wave
        // ingests it; those bytes are live memory at `dest`.
        run.held.grow(dest, MemClass::Shuffle, bytes.len() as u64);
        *run.streams[dest][place].lock() = Some(StreamPayload {
            bytes,
            counts,
            targets,
        });
    }
    let (combined_in, combined_out) = outbox.place_combined;
    if any_stream || combined_in > 0 {
        let mut counters = run.counters.lock();
        counters.incr(M3R_COUNTER_GROUP, "SHUFFLE_STREAM_BYTES", stream_bytes);
        counters.incr(M3R_COUNTER_GROUP, "DEDUP_HITS", dedup_hits);
        counters.incr(M3R_COUNTER_GROUP, "DEDUP_RETAINED_VALUES", dedup_retained);
        if combined_in > 0 {
            counters.incr(M3R_COUNTER_GROUP, "PLACE_COMBINE_INPUT_RECORDS", combined_in as i64);
            counters.incr(M3R_COUNTER_GROUP, "PLACE_COMBINE_OUTPUT_RECORDS", combined_out as i64);
            counters.merge(&outbox.combine_counters);
        }
    }
    Ok(())
}

/// One map task: cache-aware input, real mapper, optional combiner, then
/// routing into local and remote buckets. Safe to run concurrently with
/// the other tasks of its wave: it only touches per-task state plus the
/// thread-safe cache/DFS/counters, and returns its routed buckets for the
/// place thread to serialize in task order.
fn run_map_task<J: JobDef>(
    run: &Run<J>,
    place: usize,
    si: usize,
    split: &dyn InputSplit,
    convert: Option<MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>,
) -> Result<RoutedOutput<J>> {
    let (job, conf, fs, opts) = (&*run.job, &run.conf, &run.fs, &run.opts);
    let mut ctx = run.task_ctx(format!("m3r_m_{si:06}"));
    ctx.set_split_tag(hmr_api::multi::split_tag(split));

    // ---- acquire the input sequence (§3.2.1) ----------------------------
    let target = split.cache_name().and_then(|n| cache_target(&n));
    let mut pairs: Option<Arc<CachedSeq<J::K1, J::V1>>> = None;
    if opts.input_cache {
        if let Some((path, len)) = &target {
            if let Some(hit) = fs.cache().get_seq::<J::K1, J::V1>(path, *len) {
                // Cache hit: no RecordReader, no deserialization, no I/O.
                // A hit at another place pays one network move (the
                // PlacedSplit remote-read path of §6.1.1).
                if hit.place != place {
                    simgrid::meter::charge(Charge::NetTransfer { bytes: hit.meta.len });
                }
                ctx.incr_task_counter(
                    task_counter::CACHE_HIT_RECORDS,
                    hit.meta.records as i64,
                );
                pairs = Some(hit.seq);
            }
        }
    }
    let pairs = match pairs {
        Some(p) => p,
        None => {
            let mut reader = run.input_format.record_reader(&**fs, split, conf)?;
            simgrid::meter::charge(Charge::Deserialize {
                bytes: split.length(),
            });
            let mut v = Vec::new();
            while let Some((k, val)) = reader.next()? {
                v.push((Arc::new(k), Arc::new(val)));
            }
            let seq = Arc::new(CachedSeq::new(v));
            if opts.input_cache {
                if let Some((path, _)) = &target {
                    // "Before passing it to the mapper, M3R caches the
                    // key/value pairs in memory."
                    fs.cache().put_seq_for(
                        place,
                        path,
                        Arc::clone(&seq),
                        split.length(),
                        conf.client_id(),
                    )?;
                }
            }
            seq
        }
    };

    // ---- run the mapper ---------------------------------------------------
    let num_parts = run.num_reducers.max(1);
    let mut combiner = job.create_combiner(conf);
    let sort_cmp = job.sort_comparator();
    let group_cmp = job.grouping_comparator();
    // The buffer folds a folding combiner in at collect time where that is
    // legal, and otherwise keeps plain pairs; the input sequence is already
    // materialized, so its length pre-sizes those buckets.
    let mut buffer = MapOutputBuffer::new(
        num_parts,
        job.partitioner(conf),
        job.immutable_output(),
        combiner.as_deref(),
        &sort_cmp,
        &group_cmp,
        pairs.pairs.len(),
    );
    let mut mapper = job.create_mapper(conf);
    mapper.setup(&mut ctx)?;
    for (k, v) in &pairs.pairs {
        mapper.map(Arc::clone(k), Arc::clone(v), &mut buffer, &mut ctx)?;
    }
    mapper.cleanup(&mut buffer, &mut ctx)?;
    ctx.incr_task_counter(task_counter::MAP_INPUT_RECORDS, pairs.pairs.len() as i64);
    ctx.incr_task_counter(task_counter::MAP_OUTPUT_RECORDS, buffer.emitted() as i64);

    // ---- optional combiner --------------------------------------------------
    let mut parts: Vec<Pairs<J>> = Vec::with_capacity(num_parts);
    for part in buffer.into_parts() {
        let records = part.len();
        let Some(combiner) = combiner.as_mut().filter(|_| records >= 2) else {
            parts.push(part.into_pairs());
            continue;
        };
        simgrid::meter::charge(Charge::Sort {
            records: records as u64,
        });
        ctx.incr_task_counter(task_counter::COMBINE_INPUT_RECORDS, records as i64);
        let (out, _) = part.combine(&mut **combiner, &sort_cmp, &group_cmp, &mut ctx)?;
        ctx.incr_task_counter(task_counter::COMBINE_OUTPUT_RECORDS, out.len() as i64);
        parts.push(out);
    }

    let mut routed = RoutedOutput::<J> {
        local: Vec::new(),
        remote: Vec::new(),
    };
    // ---- map-only: straight to output (§5.3) --------------------------------
    if let Some(convert) = convert {
        let converted: Vec<(Arc<J::K3>, Arc<J::V3>)> = parts
            .into_iter()
            .flatten()
            .map(|(k, v)| convert(k, v))
            .collect();
        let records = converted.len() as u64;
        write_and_cache_output(run, place, si, converted)?;
        run.output_records.fetch_add(records, Ordering::Relaxed);
        run.counters.lock().merge(&ctx.into_counters());
        return Ok(routed);
    }

    // ---- route: local buckets vs remote buckets (§3.2.2) --------------------
    // Serialization into the place-wide de-duplicating streams is deferred
    // to the place thread (task order), so concurrent tasks never contend
    // on shared serializer state.
    let mut local_n = 0i64;
    let mut remote_n = 0i64;
    for (p, bucket) in parts.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let dest = run.place_map.place_of(p, run.cluster.len());
        if dest == place {
            local_n += bucket.len() as i64;
            routed.local.push((p, bucket));
        } else {
            remote_n += bucket.len() as i64;
            routed.remote.push((dest, p, bucket));
        }
    }
    ctx.incr_task_counter(task_counter::LOCAL_SHUFFLED_RECORDS, local_n);
    ctx.incr_task_counter(task_counter::REMOTE_SHUFFLED_RECORDS, remote_n);
    run.counters.lock().merge(&ctx.into_counters());
    Ok(routed)
}

/// Everything one place does during the reduce phase. With `replay` set
/// (a map-prefix memo replay) the seeded `run.local` already holds the
/// retained, assembled partitions: there is nothing to ingest, and no
/// Shuffle span is opened — the rollup must show the shuffle as elided.
fn reduce_phase_at_place<J: JobDef>(
    run: &Run<J>,
    place: usize,
    replay: bool,
    capture: Option<&Mutex<MapPhaseData<J>>>,
) -> Result<()> {
    let cluster = &run.cluster;
    let nplaces = cluster.len();
    let my_parts: Vec<usize> = (0..run.num_reducers)
        .filter(|p| run.place_map.place_of(*p, nplaces) == place)
        .collect();
    let mut remote: HashMap<usize, Pairs<J>> = HashMap::with_capacity(my_parts.len());
    if !replay {
        // Receive remote streams: network + deserialization, charged here —
        // the receiving place does this work after the shuffle barrier. The
        // partition map is pre-sized from the reducer count, per-partition
        // vectors are reserved from the sender-published counts, and
        // records stream lazily out of the shared buffer — no intermediate
        // Vec of decoded records is ever built.
        let incoming: Vec<StreamPayload> = run.streams[place]
            .iter()
            .filter_map(|slot| slot.lock().take())
            .collect();
        for payload in &incoming {
            // Ingest un-parks the payload: its bytes stop being live
            // shuffle memory here (pool reclamation re-counts them as pool
            // bytes).
            run.held
                .shrink(place, MemClass::Shuffle, payload.bytes.len() as u64);
        }
        simgrid::with_meter(Meter::new(cluster.node(place).clone()), || {
            trace::span(Phase::Shuffle, "ingest", None, || -> Result<()> {
                for payload in incoming {
                    simgrid::meter::charge(Charge::NetTransfer {
                        bytes: payload.bytes.len() as u64,
                    });
                    simgrid::meter::charge(Charge::Deserialize {
                        bytes: payload.bytes.len() as u64,
                    });
                    ingest_stream(&mut remote, &payload)?;
                    // The iterator's refcount dropped with the loop. A
                    // stream of fixed-width or string values leaves no
                    // other handle, and its buffer returns to this place's
                    // pool; byte-string values are views that keep it
                    // alive, and it is freed when the last of them drops.
                    cluster.pool(place).reclaim(payload.bytes);
                }
                Ok(())
            })
        })?;
    }
    let mut local = std::mem::take(&mut *run.local[place].lock());

    for wave in my_parts.chunks(run.opts.worker_threads) {
        // Gather each partition's input on the place thread (pointer moves,
        // no charges), then run the wave's reducers on the worker pool.
        let inputs: Vec<(usize, Pairs<J>)> = wave
            .iter()
            .map(|&p| {
                let mut pairs = local.remove(&p).unwrap_or_default();
                if let Some(r) = remote.remove(&p) {
                    pairs.extend(r);
                }
                (p, pairs)
            })
            .collect();
        // Memo capture (m3r-memo): snapshot the assembled inputs at the
        // exact shuffle/reduce boundary. `Arc` clones only — unmetered,
        // wall-clock-invisible to the simulation.
        if let Some(cap) = capture {
            cap.lock().extend(inputs.iter().cloned());
        }
        simgrid::pool::traced_wave(
            cluster,
            place,
            run.tjob,
            run.workers(),
            run.input_bytes,
            inputs,
            |(p, pairs): (usize, Pairs<J>)| {
                trace::span(Phase::Reduce, "reduce", Some(p as u64), || {
                    run_reduce_partition(run, place, p, pairs)
                })
            },
            |()| Ok(()),
        )?;
    }
    Ok(())
}

/// Decode one received stream into `remote`, reserved from the published
/// counts. A record for a partition nobody published is a typed error.
fn ingest_stream<K: Writable + Send + Sync, V: Writable + Send + Sync>(
    remote: &mut HashMap<usize, Vec<(Arc<K>, Arc<V>)>>,
    payload: &StreamPayload,
) -> Result<()> {
    for &(p, n) in &payload.counts {
        remote.entry(p).or_default().reserve(n as usize);
    }
    for rec in decode_targeted::<K, V>(payload.bytes.clone(), payload.targets.clone()) {
        let (p, k, v) = rec?;
        remote
            .get_mut(&p)
            .ok_or_else(|| HmrError::Serde(format!("record for unpublished partition {p}")))?
            .push((k, v));
    }
    Ok(())
}

/// Reduce-side collector: main-output pairs accumulate in memory (for the
/// cache and the deferred DFS write); named side outputs (`MultipleOutputs`,
/// §4.2.2) stream straight to their writers and bypass the cache.
struct ReduceCollector<'a, K, V> {
    main: Vec<(Arc<K>, Arc<V>)>,
    named: NamedOutputs<'a, K, V>,
}

impl<K: Writable, V: Writable> hmr_api::collect::OutputCollector<K, V>
    for ReduceCollector<'_, K, V>
{
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.main.push((key, value));
        Ok(())
    }

    fn collect_named(&mut self, name: &str, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.named.write(name, &key, &value)
    }
}

/// One reduce partition: the shared reduce core over the assembled input,
/// then cache the output (and write it to the DFS unless the output is
/// temporary, §4.2.3).
fn run_reduce_partition<J: JobDef>(
    run: &Run<J>,
    place: usize,
    partition: usize,
    pairs: Pairs<J>,
) -> Result<()> {
    let mut ctx = run.task_ctx(format!("m3r_r_{partition:06}"));
    ctx.set_partition(Some(partition));
    let out = reduce_partition(
        &*run.job,
        partition,
        pairs,
        || {},
        || {
            Ok(ReduceCollector {
                main: Vec::new(),
                named: NamedOutputs::new(&*run.output_format, &*run.fs, &run.conf, partition),
            })
        },
        &mut ctx,
    )?;
    out.named.close()?;
    let records = out.main.len() as u64;
    ctx.incr_task_counter(task_counter::REDUCE_OUTPUT_RECORDS, records as i64);
    write_and_cache_output(run, place, partition, out.main)?;
    run.output_records.fetch_add(records, Ordering::Relaxed);
    run.counters.lock().merge(&ctx.into_counters());
    Ok(())
}

/// Output handling shared by reducers and map-only mappers: cache the
/// sequence at this place under the part file's name; write it to the DFS
/// through the RecordWriter unless the output is temporary.
fn write_and_cache_output<J: JobDef>(
    run: &Run<J>,
    place: usize,
    partition: usize,
    pairs: Vec<(Arc<J::K3>, Arc<J::V3>)>,
) -> Result<()> {
    let (conf, fs, output_format) = (&run.conf, &run.fs, &*run.output_format);
    // Reducer output is subject to the same reuse contract as mapper
    // output: without ImmutableOutput the cache must hold copies.
    let pairs: Vec<(Arc<J::K3>, Arc<J::V3>)> = if run.job.immutable_output() {
        pairs
    } else {
        pairs
            .into_iter()
            .map(|(k, v)| {
                simgrid::meter::charge(Charge::Clone {
                    bytes: (k.serialized_size() + v.serialized_size()) as u64,
                });
                simgrid::meter::charge(Charge::Alloc { objects: 2 });
                (Arc::new((*k).clone()), Arc::new((*v).clone()))
            })
            .collect()
    };
    // Computed once: it sizes the part file's buffer exactly, and is the
    // reported length of a temporary output.
    let seq_len = seq_file_len(&pairs);
    let write_through = || -> Result<()> {
        let mut writer = output_format.record_writer(&**fs, conf, partition)?;
        writer.reserve(seq_len);
        for (k, v) in &pairs {
            simgrid::meter::charge(Charge::Serialize {
                bytes: (k.serialized_size() + v.serialized_size()) as u64,
            });
            writer.write(k, v)?;
        }
        writer.close().map(|_| ())
    };

    let Some(dir) = output_format.output_path(conf) else {
        // Un-nameable output (§4.2.1): write through, bypass the cache.
        return write_through();
    };
    let part_path = dir.join(&part_file_name(partition));
    let len = if conf.is_temp_output(&dir) {
        // "If the output data is determined to be temporary ... the data
        // does not even need to be flushed to disk."
        seq_len
    } else {
        write_through()?;
        fs.underlying()
            .get_file_status(&part_path)
            .map(|s| s.len)
            .unwrap_or(seq_len)
    };
    fs.cache().put_seq_for(
        place,
        &part_path,
        Arc::new(CachedSeq::new(pairs)),
        len,
        conf.client_id(),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::fs::{FileSystem, MemFs};
    use hmr_api::io::seqfile::write_seq_file;
    use hmr_api::writable::{BytesWritable, IntWritable};

    fn stream(records: &[(usize, i32)]) -> Bytes {
        let mut s = ShuffleStream::new(DedupMode::Full);
        for &(p, x) in records {
            s.push_owned(p, Arc::new(IntWritable(x)), Arc::new(IntWritable(-x)));
        }
        s.finish().0
    }

    #[test]
    fn seq_file_len_is_the_written_length_across_varint_boundaries() {
        // Serialized sizes (payload + its own length varint) land on both
        // sides of the 1→2 and 2→3 byte boundaries of the record header.
        let lens = [0, 1, 125, 126, 127, 128, 16380, 16381, 16382, 16383];
        let field = |n: usize| BytesWritable(vec![7u8; n].into());
        let pairs: Vec<_> = lens
            .iter()
            .flat_map(|&k| lens.iter().map(move |&v| (k, v)))
            .map(|(k, v)| (Arc::new(field(k)), Arc::new(field(v))))
            .collect();
        let sizes: Vec<_> = pairs.iter().map(|(k, _)| k.serialized_size()).collect();
        for boundary in [127, 128, 16383, 16384] {
            assert!(sizes.contains(&boundary), "no field of {boundary} bytes");
        }
        let fs = MemFs::new();
        let owned: Vec<_> = pairs.iter().map(|(k, v)| ((**k).clone(), (**v).clone())).collect();
        let path = HPath::new("/len");
        write_seq_file(&fs, &path, &owned).unwrap();
        assert_eq!(seq_file_len(&pairs), fs.get_file_status(&path).unwrap().len);
    }

    #[test]
    fn a_record_for_an_unpublished_partition_is_a_typed_error() {
        let bytes = stream(&[(0, 1), (3, 2), (0, 3)]);
        let mut remote = HashMap::new();
        let mismatched = StreamPayload {
            bytes: bytes.clone(),
            counts: vec![(0, 2)],
            targets: Vec::new(),
        };
        let err = ingest_stream::<IntWritable, IntWritable>(&mut remote, &mismatched)
            .expect_err("partition 3 was never published");
        assert!(matches!(err, HmrError::Serde(_)), "{err:?}");

        let mut remote = HashMap::new();
        let published = StreamPayload {
            bytes,
            counts: vec![(0, 2), (3, 1)],
            targets: Vec::new(),
        };
        ingest_stream::<IntWritable, IntWritable>(&mut remote, &published).unwrap();
        let keys = |p| remote[&p].iter().map(|(k, _)| k.0).collect::<Vec<_>>();
        assert_eq!((keys(0), keys(3)), (vec![1, 3], vec![2]));
    }
}
