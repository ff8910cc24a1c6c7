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

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;

use hmr_api::comparator::{ingest_reduce_groups, SortTuning};
use hmr_api::conf::JobConf;
use hmr_api::counters::{task_counter, Counters, TaskContext};
use hmr_api::distcache::DistCache;
use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{FileSystem, HPath};
use hmr_api::io::{part_file_name, InputSplit, OutputFormat};
use hmr_api::job::{Engine, JobDef, JobResult, LaneEngine};
use hmr_api::writable::{write_vu64, Writable};
use kvstore::policy::PolicyKind;
use simgrid::cost::Charge;
use simgrid::trace::{self, Phase};
use simgrid::{Arena, BufPool, Cluster, Meter, OomMode};
use x10rt::serialize::DedupMode;
use x10rt::World;

use crate::cache::{CachedSeq, KvCache};
use crate::cachefs::CachingFs;
use crate::shuffle::{decode_stream, CombineTable, MapOutputBuffer, ShuffleStream};
use crate::stability::PlaceMap;

/// The M3R counter group for engine-specific statistics.
pub const M3R_COUNTER_GROUP: &str = "m3r";

/// Engine configuration. The defaults are the paper's (§6): one place per
/// host, 8 worker threads, full de-duplication, partition stability and the
/// input/output cache on. The `false`/`Off` settings exist for the ablation
/// benches DESIGN.md calls out.
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
    /// Execute each wave's tasks on real OS threads (a scoped pool of up to
    /// `worker_threads` threads per place) instead of sequentially on the
    /// place thread. Affects wall-clock only: simulated seconds, outputs
    /// and counters are bit-identical either way (tasks bill per-task
    /// scratch clocks and all order-sensitive work — shuffle-stream
    /// serialization — happens after the wave joins, in task order). Under
    /// a *finite* memory budget waves always run sequentially: eviction
    /// order must follow task order, never the thread schedule.
    pub real_parallelism: bool,
    /// Draw shuffle-stream buffers from a per-place [`BufPool`] that
    /// persists across waves and jobs (the long-lived-place buffer reuse of
    /// §3.2.2/§5). Wall-clock only: stream bytes, charges and outputs are
    /// bit-identical with the pool off.
    pub buffer_pool: bool,
    /// Memory governance (`m3r-mem`): `Some` (the default) builds the
    /// kv-cache governed by the cluster accountant's per-place budget —
    /// with the default infinite budget this is behaviourally identical
    /// to `None` (asserted bit-for-bit by `tests/memory.rs`), while a
    /// finite budget makes the cache evict-and-spill (or fail fast) as
    /// configured. `None` is the ungoverned pre-subsystem baseline.
    pub memory: Option<MemoryOptions>,
    /// Opt-in place-level shared combining (ROADMAP item 3): merge equal
    /// keys across all map tasks of the place through the job's combiner
    /// *before* shuffle-stream serialization, via a per-destination
    /// [`crate::shuffle::CombineTable`]. Requires an associative and
    /// commutative combiner (see `hmr_api::conf::PLACE_COMBINE`, which can
    /// also enable this per job); jobs without a combiner are unaffected.
    /// Off (the default) is bit-identical to pre-combine behaviour; on, a
    /// run is bit-identical serial vs parallel, and under a finite budget
    /// an over-budget table drains early and degrades to plain streaming.
    pub place_combine: bool,
    /// Hash-grouped reduce ingest (ISSUE 8): natural-order reduces build
    /// their key groups through a raw-key hash table that drains in
    /// ascending key order instead of a full sort. Wall-clock only —
    /// outputs, counters and simulated seconds are bit-identical with the
    /// flag off (the `Charge::Sort` bill is per record either way). Jobs
    /// with custom comparators always take the sort path; a per-job
    /// `m3r.reduce.hash.group` conf knob can also force it off. The same
    /// gate lets a combiner job's map output buffer group at `collect()`
    /// ([`MapOutputBuffer::grouping`]), under the same legality.
    pub hash_group_ingest: bool,
    /// Arena-per-wave allocation (ISSUE 8): reduce/combine scratch (pair
    /// vectors, raw-key buffers, permutations) is leased from a per-place
    /// [`Arena`] and recycled at wave end instead of round-tripping the
    /// global allocator. Wall-clock only; retained bytes are accounted to
    /// [`simgrid::MemClass::Arena`], which budgets deliberately ignore.
    pub arena: bool,
    /// ReStore-style cross-job result memoization (`m3r-memo`, ISSUE 10):
    /// jobs that declare a `memo_identity` record their retained outputs
    /// (and shuffle-stable reduce inputs) in the engine's [`m3r_memo::ReuseIndex`];
    /// a fingerprint-identical resubmission replays retained bytes instead
    /// of running — ~0 simulated seconds, no map/shuffle spans — and a
    /// map-prefix match (same map pipeline, different reducer) replays only
    /// the reduce side. Off (the default) is bit-identical to the
    /// non-memoized engine; the per-job `m3r.memo.enable` conf knob also
    /// enables it. Cold runs with memoization on stay sim-bit-identical
    /// under the default infinite budget (recording is unmetered); under a
    /// *finite* budget retained entries are budget-live
    /// ([`simgrid::MemClass::Memo`]) and may shift cache-eviction timing.
    pub memoize: bool,
}

/// How the governed cache behaves under a per-place memory budget. The
/// budget itself lives on the cluster's [`simgrid::MemAccountant`] so the
/// trace/report layers can read it; these options seed it at engine
/// construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryOptions {
    /// Per-place byte budget; `None` (default) is unlimited.
    pub budget_bytes_per_place: Option<u64>,
    /// Victim selection under pressure.
    pub policy: PolicyKind,
    /// Spill gracefully (default) or reproduce the paper's strict
    /// must-fit-in-memory contract.
    pub oom: OomMode,
}

impl Default for M3ROptions {
    fn default() -> Self {
        M3ROptions {
            worker_threads: 8,
            dedup: DedupMode::Full,
            partition_stability: true,
            input_cache: true,
            real_parallelism: true,
            buffer_pool: true,
            memory: Some(MemoryOptions::default()),
            place_combine: false,
            hash_group_ingest: true,
            arena: true,
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
    /// One buffer pool per place, persisted across jobs — the shuffle
    /// streams of job *n+1* reuse the grown buffers of job *n*.
    pools: Vec<Arc<BufPool>>,
    /// One scratch arena per place, persisted across jobs like the pools:
    /// wave *n+1* leases the pair vectors wave *n* grew.
    arenas: Vec<Arc<Arena>>,
    /// The cross-job reuse index (`m3r-memo`): retained whole-job outputs
    /// and map-phase partition sets, keyed by fingerprint. Long-lived like
    /// everything else on the places; consulted only for jobs that pass
    /// [`M3REngine::memo_basis`].
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
        let cache = match &opts.memory {
            Some(m) => {
                let mem = cluster.mem().clone();
                mem.set_budget(m.budget_bytes_per_place);
                mem.set_oom_mode(m.oom);
                // Spills go to the *raw* filesystem: a `CachingFs::create`
                // would re-enter the cache to invalidate the path mid-spill.
                KvCache::governed(places, mem, Arc::clone(&fs), m.policy)
            }
            None => KvCache::new(places),
        };
        // The cache's governor gauges are pull-based callbacks: registering
        // them here is free at runtime and makes the cluster's telemetry
        // registry answer for per-tenant residency from engine birth.
        cache.publish_telemetry(cluster.telemetry());
        let pools = (0..places)
            .map(|place| {
                Arc::new(match &opts.memory {
                    Some(_) => BufPool::with_accounting(
                        cluster.metrics().clone(),
                        cluster.mem().clone(),
                        place,
                    ),
                    None => BufPool::with_metrics(cluster.metrics().clone()),
                })
            })
            .collect();
        let arenas = (0..places)
            .map(|place| {
                Arc::new(match &opts.memory {
                    Some(_) => Arena::with_accounting(cluster.mem().clone(), place),
                    None => Arena::new(),
                })
            })
            .collect();
        // The reuse index shares the cluster accountant when the engine is
        // governed: retained results are budget-live (`MemClass::Memo`) and
        // dropped — never spilled — under pressure.
        let memo = Arc::new(match &opts.memory {
            Some(_) => m3r_memo::ReuseIndex::governed(places, cluster.mem().clone()),
            None => m3r_memo::ReuseIndex::new(places),
        });
        memo.publish_telemetry(cluster.telemetry());
        M3REngine {
            world: Arc::new(World::new(places)),
            fs: Arc::new(CachingFs::new(fs, cache)),
            cluster,
            opts,
            job_seq: AtomicU64::new(0),
            dist_memo: Mutex::new(HashMap::new()),
            pools,
            arenas,
            memo,
        }
    }

    /// The per-place shuffle buffer pools (test/bench introspection).
    pub fn buffer_pools(&self) -> &[Arc<BufPool>] {
        &self.pools
    }

    /// The per-place scratch arenas (test/bench introspection).
    pub fn arenas(&self) -> &[Arc<Arena>] {
        &self.arenas
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

    /// The memo eligibility gate: `Some(basis)` iff this job can
    /// participate in cross-job memoization. Requires memoization enabled
    /// (engine option or per-job conf), a declared compute identity, a real
    /// reduce phase, a durable non-temp output directory, and a content
    /// version for every input and cache file (`gather` returns `None`
    /// otherwise). Unmetered — version reads are namenode metadata and this
    /// runs outside any phase meter.
    fn memo_basis<J: JobDef>(&self, job: &J, conf: &JobConf) -> Option<m3r_memo::FingerprintBasis> {
        if !(self.opts.memoize || conf.memo_enable()) {
            return None;
        }
        let identity = job.memo_identity()?;
        if conf.num_reduce_tasks() == 0 {
            return None;
        }
        let out = conf.output_path()?;
        if conf.is_temp_output(&out) {
            return None;
        }
        m3r_memo::FingerprintBasis::gather(&*self.fs, conf, &identity, "m3r", &[])
    }

    fn place_map(&self, job_seq: u64) -> PlaceMap {
        if self.opts.partition_stability {
            PlaceMap::Stable
        } else {
            PlaceMap::Unstable { job_seq }
        }
    }

    /// Pre-populate the input cache for `paths` (the matvec benchmark
    /// "pre-populated our cache with the input data" so the one-off load is
    /// not measured across what stands in for many iterations, §6.2).
    pub fn prepopulate_cache<K, V>(&self, conf: &JobConf, paths: &[HPath]) -> Result<()>
    where
        K: hmr_api::writable::WritableKey,
        V: hmr_api::writable::WritableValue,
    {
        let fmt = hmr_api::io::SequenceFileInputFormat::<K, V>::new();
        let mut sub = conf.clone();
        sub.set_input_paths(paths);
        let splits =
            hmr_api::io::InputFormat::get_splits(&fmt, &*self.fs, &sub, self.num_places())?;
        let place_map = PlaceMap::Stable;
        for (i, split) in splits.iter().enumerate() {
            let Some(name) = split.cache_name() else {
                continue;
            };
            let Some((path, _)) = cache_target(&name) else {
                continue;
            };
            let place = split
                .placed_partition()
                .map(|p| place_map.place_of(p, self.num_places()))
                .or_else(|| split.locations().first().map(|l| l % self.num_places()))
                .unwrap_or(i % self.num_places());
            let mut reader =
                hmr_api::io::InputFormat::record_reader(&fmt, &*self.fs, split.as_ref(), &sub)?;
            let mut pairs = Vec::new();
            while let Some((k, v)) = reader.next()? {
                pairs.push((Arc::new(k), Arc::new(v)));
            }
            self.cache().put_seq_for(
                place,
                &path,
                Arc::new(CachedSeq::new(pairs)),
                split.length(),
                conf.client_id(),
            )?;
        }
        Ok(())
    }
}

/// Resolve the sort/group tuning for one job: process defaults and env
/// overrides, then per-job conf knobs, then the engine's own
/// `hash_group_ingest` option as a final gate.
fn sort_tuning(conf: &JobConf, opts: &M3ROptions) -> SortTuning {
    let mut t = SortTuning::for_job(conf);
    t.hash_group &= opts.hash_group_ingest;
    t
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
/// size" reported for temporary outputs that never reach the DFS.
fn seq_file_len<K: Writable, V: Writable>(pairs: &[(Arc<K>, Arc<V>)]) -> u64 {
    let mut n = 4u64; // magic
    let mut scratch = Vec::new();
    for (k, v) in pairs {
        let (kl, vl) = (k.serialized_size() as u64, v.serialized_size() as u64);
        scratch.clear();
        write_vu64(&mut scratch, kl);
        write_vu64(&mut scratch, vl);
        n += scratch.len() as u64 + kl + vl;
    }
    n
}

/// The payload of a map-prefix memo entry: the assembled reduce-input
/// partitions of one finished map phase, `(partition, pairs)` sorted by
/// partition, typed by the job's intermediate `K2/V2` domain. Stored in the
/// [`m3r_memo::ReuseIndex`] as an opaque `Arc<dyn Any>` and downcast back
/// here — the engine name inside the fingerprint guarantees the type.
type MapPhaseData<J> =
    Vec<(usize, Vec<(Arc<<J as JobDef>::K2>, Arc<<J as JobDef>::V2>)>)>;

/// One map task's partitioned output, routed but not yet serialized.
///
/// Tasks in a wave may run concurrently, so they cannot touch the
/// place-wide `ShuffleStream`s (full de-dup spans every mapper at the
/// place). Instead each task returns its buckets and the place thread
/// pushes them into the streams afterwards, in task order, re-installing
/// the task's scratch meter so serialization is billed exactly as if the
/// task had done it inline.
struct RoutedOutput<J: JobDef> {
    /// Buckets staying at this place: `(partition, pairs)`.
    local: Vec<(usize, Vec<(Arc<J::K2>, Arc<J::V2>)>)>,
    /// Buckets headed elsewhere: `(destination place, partition, pairs)`.
    remote: Vec<(usize, usize, Vec<(Arc<J::K2>, Arc<J::V2>)>)>,
}

impl<J: JobDef> RoutedOutput<J> {
    fn empty() -> Self {
        RoutedOutput {
            local: Vec::new(),
            remote: Vec::new(),
        }
    }
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
}

/// Cross-place state for one running job.
struct Shared<J: JobDef> {
    /// Locally shuffled pairs: `local[place][partition]`.
    local: Vec<Mutex<HashMap<usize, Vec<(Arc<J::K2>, Arc<J::V2>)>>>>,
    /// Serialized remote streams: `streams[dest][src]`. Slotting by source
    /// (instead of pushing in completion order) makes the receive order —
    /// and with it charge order and equal-key tie order — independent of
    /// how the place threads happen to interleave.
    streams: Vec<Vec<Mutex<Option<StreamPayload>>>>,
    counters: Mutex<Counters>,
    error: Mutex<Option<HmrError>>,
    output_records: AtomicU64,
}

impl<J: JobDef> Shared<J> {
    fn new(places: usize) -> Self {
        Shared {
            local: (0..places).map(|_| Mutex::new(HashMap::new())).collect(),
            streams: (0..places)
                .map(|_| (0..places).map(|_| Mutex::new(None)).collect())
                .collect(),
            counters: Mutex::new(Counters::new()),
            error: Mutex::new(None),
            output_records: AtomicU64::new(0),
        }
    }

    fn record(&self, r: Result<()>) {
        if let Err(e) = r {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    }

    fn check(&self) -> Result<()> {
        match self.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
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
        let basis = self.memo_basis(&**job, conf)?;
        let hit = self.memo.lookup_full(basis.job_fingerprint(), &*self.fs)?;
        let conf = Arc::new(conf.clone());
        let t0 = self.cluster.max_time();
        let m0 = self.cluster.metrics().snapshot();
        Some(self.replay_full(&self.cluster, &conf, hit, t0, &m0))
    }
}

impl M3REngine {
    /// The shared body of [`Engine::run_job`] and [`LaneEngine::run_lane`]:
    /// run one job against `cluster` (the home cluster for the classic
    /// blocking path, a [`Cluster::job_lane`] for server submissions) with
    /// `job_seq` as the engine-level job ordinal. Everything job-scoped
    /// (clocks, metrics deltas, trace job id) comes from `cluster`; the
    /// engine contributes the long-lived state — world, cache, buffer
    /// pools, distributed-cache memo.
    fn run_job_inner<J: JobDef>(
        &self,
        cluster: &Cluster,
        job_seq: u64,
        job: Arc<J>,
        conf: &JobConf,
    ) -> Result<JobResult> {
        let place_map = self.place_map(job_seq);
        let cluster = cluster.clone();
        let nplaces = cluster.len();
        let t0 = cluster.max_time();
        let m0 = cluster.metrics().snapshot();
        let conf = Arc::new(conf.clone());

        // ---- cross-job memoization (m3r-memo) --------------------------------
        // A whole-job fingerprint hit resolves the submission before any
        // splits, maps or shuffles exist: the retained output bytes land
        // back on the DFS unmetered (~0 simulated seconds, zero spans).
        let memo_basis = self.memo_basis(&*job, &conf);
        if let Some(basis) = &memo_basis {
            if let Some(hit) = self.memo.lookup_full(basis.job_fingerprint(), &*self.fs) {
                return self.replay_full(&cluster, &conf, hit, t0, &m0);
            }
        }

        let tjob = cluster
            .trace()
            .begin_job(&format!("{} (m3r)", conf.job_name()));

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
        if let Some(basis) = &memo_basis {
            match self
                .memo
                .lookup_map::<MapPhaseData<J>>(basis.map_fingerprint(), &*self.fs)
            {
                Some((data, map_counters)) => {
                    return self.replay_reduce_only(
                        &cluster,
                        job,
                        conf,
                        basis,
                        &data,
                        map_counters,
                        t0,
                        &m0,
                        tjob,
                        place_map,
                    );
                }
                None => self.memo.note_miss(),
            }
        }

        let fs = Arc::clone(&self.fs);
        let input_format = job.input_format(&conf);
        let splits = simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            trace::span(Phase::Setup, "get_splits", None, || {
                input_format.get_splits(&*fs, &conf, nplaces * self.opts.worker_threads)
            })
        })?;
        let splits: Arc<Vec<Arc<dyn InputSplit>>> = Arc::new(splits);
        let num_reducers = conf.num_reduce_tasks();
        let convert = if num_reducers == 0 {
            Some(job.map_only_convert().ok_or_else(|| {
                HmrError::InvalidJob(
                    "0 reducers requires JobDef::map_only_convert (map-only job)".into(),
                )
            })?)
        } else {
            None
        };

        // Distributed cache: loaded bytes persist across jobs in the
        // long-lived places; only new files are fetched.
        let dist_cache = {
            let mut memo = self.dist_memo.lock();
            let mut entries = Vec::new();
            for path in conf.cache_files() {
                let bytes = match memo.get(&path) {
                    Some(b) => b.clone(),
                    None => {
                        let b = simgrid::with_meter(
                            Meter::new(cluster.node(0).clone()),
                            || -> Result<Bytes> {
                                trace::span(Phase::Setup, "dist_cache", None, || {
                                    fs.open(&path)?.read_all()
                                })
                            },
                        )?;
                        memo.insert(path.clone(), b.clone());
                        b
                    }
                };
                entries.push((path, bytes));
            }
            Arc::new(DistCache::from_entries(entries))
        };

        // ---- split → place assignment ---------------------------------------
        // Priority: PlacedSplit (§4.3) → cached location (§3.2.1) → DFS
        // locality → round robin.
        let mut per_place: Vec<Vec<usize>> = vec![Vec::new(); nplaces];
        for (i, split) in splits.iter().enumerate() {
            let place = if let Some(p) = split.placed_partition() {
                place_map.place_of(p, nplaces)
            } else if let Some(cached) = self
                .opts
                .input_cache
                .then(|| {
                    split
                        .cache_name()
                        .and_then(|n| cache_target(&n))
                        .and_then(|(path, _)| fs.cache().place_of(&path))
                })
                .flatten()
            {
                cached
            } else if let Some(&loc) = split.locations().first() {
                loc % nplaces
            } else {
                i % nplaces
            };
            per_place[place].push(i);
        }
        let per_place = Arc::new(per_place);

        let shared: Arc<Shared<J>> = Arc::new(Shared::new(nplaces));

        // ---- map phase -------------------------------------------------------
        let opts = self.opts.clone();
        self.world.finish(|fin| {
            for place in 0..nplaces {
                let job = Arc::clone(&job);
                let conf = Arc::clone(&conf);
                let fs = Arc::clone(&fs);
                let cluster = cluster.clone();
                let splits = Arc::clone(&splits);
                let per_place = Arc::clone(&per_place);
                let shared = Arc::clone(&shared);
                let dist_cache = Arc::clone(&dist_cache);
                let convert = convert.clone();
                let opts = opts.clone();
                let pool = Arc::clone(&self.pools[place]);
                let arena = opts.arena.then(|| Arc::clone(&self.arenas[place]));
                fin.at(place, move |_pc| {
                    let r = map_phase_at_place(
                        place, &job, &conf, &fs, &cluster, &splits, &per_place[place],
                        &shared, &dist_cache, convert, &opts, place_map, num_reducers,
                        &pool, arena.as_deref(), tjob,
                    );
                    shared.record(r);
                });
            }
        });
        shared.check()?;
        // "No reducer is allowed to run until globally all shuffle messages
        // have been sent" — an X10 team barrier.
        cluster.barrier();

        // Map-side counters as of the shuffle barrier: a map-prefix memo
        // entry must replay them verbatim (they are reducer-independent).
        let map_counters = memo_basis
            .as_ref()
            .map(|_| shared.counters.lock().clone());
        // Capture the assembled reduce inputs for the map-prefix memo entry
        // — clones of the `Arc` pairs at the exact shuffle/reduce boundary,
        // so a replay reproduces reduce-input order bit-for-bit.
        let capture: Option<Arc<Mutex<MapPhaseData<J>>>> = memo_basis
            .as_ref()
            .map(|_| Arc::new(Mutex::new(Vec::new())));

        // ---- reduce phase ----------------------------------------------------
        if num_reducers > 0 {
            self.world.finish(|fin| {
                for place in 0..nplaces {
                    let job = Arc::clone(&job);
                    let conf = Arc::clone(&conf);
                    let fs = Arc::clone(&fs);
                    let cluster = cluster.clone();
                    let shared = Arc::clone(&shared);
                    let dist_cache = Arc::clone(&dist_cache);
                    let opts = opts.clone();
                    let pool = Arc::clone(&self.pools[place]);
                    let arena = opts.arena.then(|| Arc::clone(&self.arenas[place]));
                    let capture = capture.clone();
                    fin.at(place, move |_pc| {
                        let r = reduce_phase_at_place(
                            place, &job, &conf, &fs, &cluster, &shared, &dist_cache,
                            &opts, place_map, num_reducers, &pool, arena.as_deref(), tjob,
                            capture.as_deref(),
                        );
                        shared.record(r);
                    });
                }
            });
            shared.check()?;
            cluster.barrier();
        }

        // Job commit: _SUCCESS only for outputs that really reach the DFS.
        let output_format = job.output_format(&conf);
        if let Some(dir) = output_format.output_path(&conf) {
            if !conf.is_temp_output(&dir) {
                let marker = dir.join("_SUCCESS");
                if !fs.underlying().exists(&marker) {
                    let w = fs.underlying().create(&marker)?;
                    w.close()?;
                }
            }
        }

        let t_end = cluster.max_time();
        for node in cluster.nodes() {
            node.clock().advance_to(t_end);
        }

        let counters = shared.counters.lock().clone();
        let output_records = shared.output_records.load(Ordering::Relaxed);

        // Record this run's results in the reuse index (unmetered: the
        // read-back and the index insert cost nothing simulated, so a cold
        // run with memoization on stays sim-bit-identical to one without).
        if let Some(basis) = &memo_basis {
            self.memo_record_full(basis, &conf, &counters, output_records);
            if let (Some(capture), Some(map_counters)) = (capture, map_counters) {
                let mut parts = std::mem::take(&mut *capture.lock());
                parts.sort_by_key(|(p, _)| *p);
                let bytes: u64 = parts.iter().map(|(_, pairs)| seq_file_len(pairs)).sum();
                self.memo.record_map(
                    basis.map_fingerprint(),
                    basis.input_versions().to_vec(),
                    Arc::new(parts),
                    map_counters,
                    bytes,
                );
            }
        }

        Ok(JobResult {
            sim_time: t_end - t0,
            counters,
            metrics: cluster.metrics().snapshot().since(&m0),
            output_records,
        })
    }

    /// Replay a retained whole-job result: write the stored part bytes (and
    /// the `_SUCCESS` marker) into the submitted conf's output directory,
    /// all unmetered — the job "runs" in ~0 simulated seconds with zero
    /// map/shuffle spans. The trace still opens a job (keeping rollup job
    /// numbering consistent with submission order); it simply has no spans.
    fn replay_full(
        &self,
        cluster: &Cluster,
        conf: &Arc<JobConf>,
        hit: m3r_memo::FullHit,
        t0: f64,
        m0: &simgrid::metrics::MetricsSnapshot,
    ) -> Result<JobResult> {
        cluster
            .trace()
            .begin_job(&format!("{} (m3r memo)", conf.job_name()));
        let out_dir = conf.output_path().expect("memo_basis gated on output");
        for (name, bytes) in &hit.parts {
            let path = out_dir.join(name);
            // Writing through the caching view keeps any cached entry for a
            // previously-written part coherent (create invalidates it).
            if self.fs.exists(&path) {
                self.fs.delete(&path, false)?;
            }
            hmr_api::fs::write_file(&*self.fs, &path, bytes)?;
        }
        let marker = out_dir.join("_SUCCESS");
        if !self.fs.underlying().exists(&marker) {
            self.fs.underlying().create(&marker)?.close()?;
        }
        let t_end = cluster.max_time();
        for node in cluster.nodes() {
            node.clock().advance_to(t_end);
        }
        Ok(JobResult {
            sim_time: t_end - t0,
            counters: hit.counters,
            metrics: cluster.metrics().snapshot().since(m0),
            output_records: hit.output_records,
        })
    }

    /// Replay a map-prefix memo entry: seed the retained reduce-input
    /// partitions at their home places and run *only* the reduce side —
    /// metered normally (Sort/Reduce spans, real reducer work), but with no
    /// splits, no map waves and no shuffle. Byte-identical to a fresh run
    /// because the captured pairs are the exact assembled reduce inputs, in
    /// the exact order, that a fresh identical map phase would produce.
    #[allow(clippy::too_many_arguments)]
    fn replay_reduce_only<J: JobDef>(
        &self,
        cluster: &Cluster,
        job: Arc<J>,
        conf: Arc<JobConf>,
        basis: &m3r_memo::FingerprintBasis,
        data: &MapPhaseData<J>,
        map_counters: Counters,
        t0: f64,
        m0: &simgrid::metrics::MetricsSnapshot,
        tjob: u64,
        place_map: PlaceMap,
    ) -> Result<JobResult> {
        let nplaces = cluster.len();
        let num_reducers = conf.num_reduce_tasks();
        let shared: Arc<Shared<J>> = Arc::new(Shared::new(nplaces));
        *shared.counters.lock() = map_counters;
        for (p, pairs) in data {
            let place = place_map.place_of(*p, nplaces);
            shared.local[place]
                .lock()
                .insert(*p, pairs.clone());
        }

        // Distributed cache, exactly as on the normal path (reducers may
        // read it); bytes already resident in the long-lived places are
        // free, new ones charge their Setup span as usual.
        let dist_cache = {
            let mut memo = self.dist_memo.lock();
            let mut entries = Vec::new();
            for path in conf.cache_files() {
                let bytes = match memo.get(&path) {
                    Some(b) => b.clone(),
                    None => {
                        let b = simgrid::with_meter(
                            Meter::new(cluster.node(0).clone()),
                            || -> Result<Bytes> {
                                trace::span(Phase::Setup, "dist_cache", None, || {
                                    self.fs.open(&path)?.read_all()
                                })
                            },
                        )?;
                        memo.insert(path.clone(), b.clone());
                        b
                    }
                };
                entries.push((path, bytes));
            }
            Arc::new(DistCache::from_entries(entries))
        };

        let opts = self.opts.clone();
        self.world.finish(|fin| {
            for place in 0..nplaces {
                let job = Arc::clone(&job);
                let conf = Arc::clone(&conf);
                let fs = Arc::clone(&self.fs);
                let cluster = cluster.clone();
                let shared = Arc::clone(&shared);
                let dist_cache = Arc::clone(&dist_cache);
                let opts = opts.clone();
                let arena = opts.arena.then(|| Arc::clone(&self.arenas[place]));
                fin.at(place, move |_pc| {
                    let r = replay_reduce_at_place(
                        place, &job, &conf, &fs, &cluster, &shared, &dist_cache, &opts,
                        place_map, num_reducers, arena.as_deref(), tjob,
                    );
                    shared.record(r);
                });
            }
        });
        shared.check()?;
        cluster.barrier();

        let output_format = job.output_format(&conf);
        if let Some(dir) = output_format.output_path(&conf) {
            if !conf.is_temp_output(&dir) {
                let marker = dir.join("_SUCCESS");
                if !self.fs.underlying().exists(&marker) {
                    let w = self.fs.underlying().create(&marker)?;
                    w.close()?;
                }
            }
        }

        let t_end = cluster.max_time();
        for node in cluster.nodes() {
            node.clock().advance_to(t_end);
        }
        let counters = shared.counters.lock().clone();
        let output_records = shared.output_records.load(Ordering::Relaxed);
        // The replayed job is itself memoizable: record its whole-job
        // output so the next identical submission is a full hit (its map
        // entry is the one that just served us — already present).
        self.memo_record_full(basis, &conf, &counters, output_records);
        Ok(JobResult {
            sim_time: t_end - t0,
            counters,
            metrics: cluster.metrics().snapshot().since(m0),
            output_records,
        })
    }

    /// Read the finished job's part files back (unmetered) and retain them
    /// under its whole-job fingerprint. Best-effort: an unreadable output
    /// directory just skips recording — memoization must never fail a job
    /// that already succeeded.
    fn memo_record_full(
        &self,
        basis: &m3r_memo::FingerprintBasis,
        conf: &JobConf,
        counters: &Counters,
        output_records: u64,
    ) {
        let Some(out_dir) = conf.output_path() else {
            return;
        };
        let Ok(listing) = self.fs.underlying().list_status(&out_dir) else {
            return;
        };
        let mut parts = Vec::new();
        for st in listing {
            if st.is_dir {
                continue;
            }
            let name = st.path.name().unwrap_or_default().to_string();
            if name == "_SUCCESS" {
                continue;
            }
            match hmr_api::fs::read_file(&**self.fs.underlying(), &st.path) {
                Ok(bytes) => parts.push((name, bytes)),
                Err(_) => return,
            }
        }
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        self.memo.record_full(
            basis.job_fingerprint(),
            basis.input_versions().to_vec(),
            parts,
            counters.clone(),
            output_records,
        );
    }
}

/// Everything one place does during the map phase.
#[allow(clippy::too_many_arguments)]
fn map_phase_at_place<J: JobDef>(
    place: usize,
    job: &Arc<J>,
    conf: &Arc<JobConf>,
    fs: &Arc<CachingFs>,
    cluster: &Cluster,
    splits: &Arc<Vec<Arc<dyn InputSplit>>>,
    my_splits: &[usize],
    shared: &Arc<Shared<J>>,
    dist_cache: &Arc<DistCache>,
    convert: Option<hmr_api::job::MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>,
    opts: &M3ROptions,
    place_map: PlaceMap,
    num_reducers: usize,
    pool: &Arc<BufPool>,
    arena: Option<&Arena>,
    tjob: u64,
) -> Result<()> {
    let node = cluster.node(place);
    let input_format = job.input_format(conf);
    let output_format = job.output_format(conf);
    let tuning = sort_tuning(conf, opts);
    let nplaces = cluster.len();
    // Streams persist across every mapper at this place: full
    // de-duplication spans the whole place→place channel. Only the place
    // thread touches them — worker threads return routed buckets instead.
    // With the pool on they write into recycled buffers from this place's
    // free-list (warm capacity from earlier jobs).
    let mut streams: Vec<Option<ShuffleStream>> = (0..nplaces).map(|_| None).collect();
    // Records per (destination, partition), published with each stream so
    // receivers reserve exact ingest capacity.
    let mut stream_counts: Vec<HashMap<usize, u64>> = vec![HashMap::new(); nplaces];
    // Locally shuffled pairs accumulate here in task order and are
    // published to `shared` once, after the last wave.
    let mut local_acc: HashMap<usize, Vec<(Arc<J::K2>, Arc<J::V2>)>> = HashMap::new();
    // Place-level shared combining (ROADMAP item 3): when enabled and the
    // job has a combiner, remote buckets are absorbed into one
    // `CombineTable` per destination instead of serializing immediately;
    // equal keys merge across every map task at this place and the tables
    // drain into the streams once — after the last wave, or early if a
    // finite budget is breached (degrading to plain streaming).
    let mut combine_tables: Option<Vec<CombineTable<J::K2, J::V2>>> =
        ((opts.place_combine || conf.place_level_combine())
            && num_reducers > 0
            && job.create_combiner(conf).is_some())
        .then(|| (0..nplaces).map(|_| CombineTable::new()).collect());
    // (input records, output records) that went through the place combiner.
    let mut place_combined = (0u64, 0u64);
    let mut combine_counters = Counters::new();

    for wave in my_splits.chunks(opts.worker_threads) {
        // Scratch clocks start at zero; spans recorded during the wave are
        // wave-relative and rebase onto the place clock as of wave start.
        let wave_base = node.clock().now();
        // Under a finite memory budget the cache traffic inside each task
        // (input-cache puts, reloads of spilled entries) is order-sensitive:
        // eviction victims depend on admission order. Waves run sequentially
        // then, so the eviction sequence follows task order instead of the
        // thread schedule; with the default infinite budget the pool stays a
        // pure wall-clock optimization.
        let (results, scratches) = simgrid::pool::run_wave(
            cluster,
            place,
            opts.real_parallelism && cluster.mem().budget().is_none(),
            wave.to_vec(),
            |si: usize| {
                let r = trace::span(Phase::Map, "map", Some(si as u64), || {
                    run_map_task(
                        place, si, job, conf, fs, &*input_format, &*output_format,
                        splits[si].as_ref(), shared, dist_cache, convert.clone(), opts,
                        place_map, num_reducers, nplaces, &tuning, arena,
                    )
                });
                (r, trace::take_pending())
            },
        );
        // Serialize each task's remote buckets into the place-wide streams
        // in task order, billing the task's own scratch clock — the same
        // charges, in the same stream order, as the sequential execution.
        for (i, (result, task_spans)) in results.into_iter().enumerate() {
            let si = wave[i];
            let scratch = &scratches[i];
            cluster.trace().record_rebased(tjob, place, wave_base, task_spans);
            let routed = result?;
            simgrid::with_meter(Meter::new(scratch.clone()), || -> Result<()> {
                if let Some(tables) = combine_tables.as_mut() {
                    // Absorb instead of serializing: equal keys merge across
                    // tasks, and only the (cheaper) key encoding is billed
                    // now — the combined output serializes at drain time.
                    trace::span(Phase::Combine, "absorb", Some(si as u64), || {
                        for (dest, p, bucket) in &routed.remote {
                            let mut grew = 0u64;
                            let mut key_bytes = 0u64;
                            for (k, v) in bucket {
                                let (g, kb) = tables[*dest].absorb(*p, k, v);
                                grew += g;
                                key_bytes += kb;
                            }
                            cluster
                                .mem()
                                .grow(place, simgrid::MemClass::Combine, grew);
                            simgrid::meter::charge(Charge::Serialize { bytes: key_bytes });
                        }
                    });
                } else {
                    trace::span(Phase::Shuffle, "serialize", Some(si as u64), || {
                        for (dest, p, bucket) in &routed.remote {
                            let stream = streams[*dest].get_or_insert_with(|| {
                                if opts.buffer_pool {
                                    ShuffleStream::with_buffer(pool.get_any(1024), opts.dedup)
                                } else {
                                    ShuffleStream::new(opts.dedup)
                                }
                            });
                            // Reserve from `serialized_size` hints (plus framing)
                            // so the bucket appends without re-growing mid-push.
                            let hint: usize = bucket
                                .iter()
                                .map(|(k, v)| k.serialized_size() + v.serialized_size() + 16)
                                .sum();
                            stream.reserve(hint);
                            let before = stream.len();
                            for (k, v) in bucket {
                                stream.push(*p, k, v);
                            }
                            simgrid::meter::charge(Charge::Serialize {
                                bytes: (stream.len() - before) as u64,
                            });
                            *stream_counts[*dest].entry(*p).or_insert(0) +=
                                bucket.len() as u64;
                        }
                    });
                }
                // Governor interaction: if absorbing pushed this place over
                // its budget, combine what is held now and degrade to plain
                // streaming for the rest of the map phase. Deterministic —
                // finite-budget waves always run sequentially, so the flush
                // point depends only on task order. The flush bills the
                // current task's scratch clock.
                if combine_tables.is_some() {
                    if let Some(budget) = cluster.mem().budget() {
                        if cluster.mem().live(place) > budget {
                            let tables = combine_tables.take().expect("checked above");
                            let (ins, outs, cc) = drain_combine_tables(
                                tables, &mut streams, &mut stream_counts, job, conf,
                                dist_cache, place, cluster, opts, pool,
                            )?;
                            place_combined.0 += ins;
                            place_combined.1 += outs;
                            combine_counters.merge(&cc);
                        }
                    }
                }
                Ok(())
            })?;
            cluster
                .trace()
                .record_rebased(tjob, place, wave_base, trace::take_pending());
            for (p, bucket) in routed.local {
                local_acc.entry(p).or_default().extend(bucket);
            }
        }
        node.clock()
            .advance(simgrid::pool::wave_duration(&scratches));
        // Wave boundary: trim this place's scratch shelf back to its
        // retention cap (wall-clock only; nothing simulated observes it).
        if let Some(a) = arena {
            a.end_wave();
        }
    }

    // Drain the (never-overflowed) combine tables into the streams on the
    // place thread: combiner work and the one serialization pass are billed
    // straight to the place clock, like reduce-side ingest.
    if let Some(tables) = combine_tables.take() {
        let (ins, outs, cc) = simgrid::with_meter(Meter::new(node.clone()), || {
            drain_combine_tables(
                tables, &mut streams, &mut stream_counts, job, conf, dist_cache, place,
                cluster, opts, pool,
            )
        })?;
        place_combined.0 += ins;
        place_combined.1 += outs;
        combine_counters.merge(&cc);
    }

    if !local_acc.is_empty() {
        let mut local = shared.local[place].lock();
        for (p, bucket) in local_acc {
            local.entry(p).or_default().extend(bucket);
        }
    }

    // Hand finished streams to their destinations; the network cost is
    // charged at the receiver after the barrier. Stream statistics are
    // accumulated locally and merged under a single `shared.counters` lock
    // take per place.
    let mut stream_bytes = 0i64;
    let mut dedup_hits = 0i64;
    let mut dedup_retained = 0i64;
    let mut any_stream = false;
    for (dest, slot) in streams.into_iter().enumerate() {
        if let Some(stream) = slot {
            if stream.is_empty() {
                continue;
            }
            let (bytes, stats) = stream.finish();
            any_stream = true;
            stream_bytes += bytes.len() as i64;
            dedup_hits += stats.dedup_hits as i64;
            dedup_retained += stats.values_retained as i64;
            let mut counts: Vec<(usize, u64)> =
                std::mem::take(&mut stream_counts[dest]).into_iter().collect();
            counts.sort_unstable();
            // The payload is parked at the destination until its reduce
            // wave ingests it; those bytes are live memory at `dest`.
            cluster
                .mem()
                .grow(dest, simgrid::MemClass::Shuffle, bytes.len() as u64);
            *shared.streams[dest][place].lock() = Some(StreamPayload { bytes, counts });
        }
    }
    if any_stream || place_combined.0 > 0 {
        let mut counters = shared.counters.lock();
        counters.incr(M3R_COUNTER_GROUP, "SHUFFLE_STREAM_BYTES", stream_bytes);
        counters.incr(M3R_COUNTER_GROUP, "DEDUP_HITS", dedup_hits);
        counters.incr(M3R_COUNTER_GROUP, "DEDUP_RETAINED_VALUES", dedup_retained);
        if place_combined.0 > 0 {
            counters.incr(
                M3R_COUNTER_GROUP,
                "PLACE_COMBINE_INPUT_RECORDS",
                place_combined.0 as i64,
            );
            counters.incr(
                M3R_COUNTER_GROUP,
                "PLACE_COMBINE_OUTPUT_RECORDS",
                place_combined.1 as i64,
            );
            counters.merge(&combine_counters);
        }
    }
    Ok(())
}

/// Combine-and-serialize the place's combine tables into the shuffle
/// streams: for every `(partition, key)` group — partition-ascending,
/// key-bytes-ascending, values in task order — run the job's combiner, then
/// push the combined pairs. Grouping is billed as sort work over the
/// absorbed records and the combined output as serialize work, on whatever
/// meter is installed (a task scratch clock for a budget flush, the place
/// clock for the end-of-map drain). Returns `(absorbed records, emitted
/// records, combiner counters)`.
#[allow(clippy::too_many_arguments)]
fn drain_combine_tables<J: JobDef>(
    mut tables: Vec<CombineTable<J::K2, J::V2>>,
    streams: &mut [Option<ShuffleStream>],
    stream_counts: &mut [HashMap<usize, u64>],
    job: &Arc<J>,
    conf: &Arc<JobConf>,
    dist_cache: &Arc<DistCache>,
    place: usize,
    cluster: &Cluster,
    opts: &M3ROptions,
    pool: &Arc<BufPool>,
) -> Result<(u64, u64, Counters)> {
    let mut combiner = job
        .create_combiner(conf)
        .expect("combine tables only exist for jobs with a combiner");
    let mut ctx = TaskContext::new(
        format!("m3r_pc_{place:06}"),
        Arc::clone(conf),
        Arc::clone(dist_cache),
    );
    let mut absorbed = 0u64;
    let mut emitted = 0u64;
    trace::span(Phase::Combine, "drain", None, || -> Result<()> {
        for (dest, table) in tables.iter_mut().enumerate() {
            if table.is_empty() {
                continue;
            }
            let table_bytes = table.bytes();
            let records = table.records();
            absorbed += records;
            // Grouping happened incrementally at absorb time (the BTreeMap
            // insert, billed per key there); the drain is one ordered walk,
            // so only the emitted groups pay a sort-pass record each. This
            // is what makes place combining a net win in `records_sorted`:
            // the reducers re-sort far fewer records than the mappers fed
            // into the tables.
            simgrid::meter::charge(Charge::Sort {
                records: table.groups() as u64,
            });
            let stream = streams[dest].get_or_insert_with(|| {
                if opts.buffer_pool {
                    ShuffleStream::with_buffer(pool.get_any(1024), opts.dedup)
                } else {
                    ShuffleStream::new(opts.dedup)
                }
            });
            stream.reserve(table_bytes as usize);
            let before = stream.len();
            for (p, key, values) in table.drain() {
                let mut out: hmr_api::collect::VecCollector<J::K2, J::V2> =
                    hmr_api::collect::VecCollector::new();
                let mut vals = values.iter().map(Arc::clone);
                combiner.reduce(key, &mut vals, &mut out, &mut ctx)?;
                for (k, v) in &out.pairs {
                    stream.push(p, k, v);
                }
                *stream_counts[dest].entry(p).or_insert(0) += out.pairs.len() as u64;
                emitted += out.pairs.len() as u64;
            }
            simgrid::meter::charge(Charge::Serialize {
                bytes: (stream.len() - before) as u64,
            });
            cluster
                .mem()
                .shrink(place, simgrid::MemClass::Combine, table_bytes);
        }
        Ok(())
    })?;
    Ok((absorbed, emitted, ctx.into_counters()))
}

/// One map task: cache-aware input, real mapper, optional combiner, then
/// routing into local and remote buckets. Safe to run concurrently with
/// the other tasks of its wave: it only touches per-task state plus the
/// thread-safe cache/DFS/counters, and returns its routed buckets for the
/// place thread to serialize in task order.
#[allow(clippy::too_many_arguments)]
fn run_map_task<J: JobDef>(
    place: usize,
    si: usize,
    job: &Arc<J>,
    conf: &Arc<JobConf>,
    fs: &Arc<CachingFs>,
    input_format: &dyn hmr_api::io::InputFormat<J::K1, J::V1>,
    output_format: &dyn OutputFormat<J::K3, J::V3>,
    split: &dyn InputSplit,
    shared: &Arc<Shared<J>>,
    dist_cache: &Arc<DistCache>,
    convert: Option<hmr_api::job::MapOnlyConvert<J::K2, J::V2, J::K3, J::V3>>,
    opts: &M3ROptions,
    place_map: PlaceMap,
    num_reducers: usize,
    nplaces: usize,
    tuning: &SortTuning,
    arena: Option<&Arena>,
) -> Result<RoutedOutput<J>> {
    let mut ctx = TaskContext::new(
        format!("m3r_m_{si:06}"),
        Arc::clone(conf),
        Arc::clone(dist_cache),
    );
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
            let mut reader = input_format.record_reader(&**fs, split, conf)?;
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
    let num_parts = num_reducers.max(1);
    let mut combiner = job.create_combiner(conf);
    let sort_cmp = job.sort_comparator();
    let group_cmp = job.grouping_comparator();
    // A combiner job whose groups are raw-key equality classes in
    // ascending raw order (the hash-group legality) groups at collect time
    // and never materialises its duplicate keys. Everything else buffers
    // plain pairs; the input sequence is already materialized, so its
    // length pre-sizes those buckets (uniform spread assumption).
    let mut buffer = if combiner.is_some()
        && tuning.hash_group
        && sort_cmp.is_natural()
        && group_cmp.is_natural()
    {
        MapOutputBuffer::grouping(
            num_parts,
            job.partitioner(conf),
            job.immutable_output(),
            arena,
        )
    } else {
        MapOutputBuffer::with_capacity_hint(
            num_parts,
            job.partitioner(conf),
            job.immutable_output(),
            pairs.pairs.len(),
        )
    };
    let mut mapper = job.create_mapper(conf);
    let compute_start = Instant::now();
    mapper.setup(&mut ctx)?;
    for (k, v) in &pairs.pairs {
        mapper.map(Arc::clone(k), Arc::clone(v), &mut buffer, &mut ctx)?;
    }
    mapper.cleanup(&mut buffer, &mut ctx)?;
    simgrid::meter::charge(Charge::Compute {
        seconds: compute_start.elapsed().as_secs_f64(),
    });
    ctx.incr_task_counter(task_counter::MAP_INPUT_RECORDS, pairs.pairs.len() as i64);
    ctx.incr_task_counter(task_counter::MAP_OUTPUT_RECORDS, buffer.emitted() as i64);

    // ---- optional combiner --------------------------------------------------
    let mut parts: Vec<Vec<(Arc<J::K2>, Arc<J::V2>)>> = Vec::with_capacity(num_parts);
    for part in buffer.into_parts() {
        let records = part.len();
        let Some(combiner) = combiner.as_mut().filter(|_| records >= 2) else {
            parts.push(part.into_pairs(arena));
            continue;
        };
        simgrid::meter::charge(Charge::Sort {
            records: records as u64,
        });
        ctx.incr_task_counter(task_counter::COMBINE_INPUT_RECORDS, records as i64);
        let mut out: hmr_api::collect::VecCollector<J::K2, J::V2> =
            hmr_api::collect::VecCollector::new();
        part.into_grouped(&sort_cmp, &group_cmp, tuning, arena)
            .for_each_group(arena, |key, values| {
                combiner.reduce(key, values, &mut out, &mut ctx)
            })?;
        ctx.incr_task_counter(task_counter::COMBINE_OUTPUT_RECORDS, out.pairs.len() as i64);
        parts.push(out.pairs);
    }

    // ---- map-only: straight to output (§5.3) --------------------------------
    if let Some(convert) = convert {
        let all: Vec<(Arc<J::K2>, Arc<J::V2>)> = parts.into_iter().flatten().collect();
        let converted: Vec<(Arc<J::K3>, Arc<J::V3>)> =
            all.into_iter().map(|(k, v)| convert(k, v)).collect();
        let records = converted.len() as u64;
        write_and_cache_output(
            place, si, conf, fs, output_format, converted, job.immutable_output(),
        )?;
        shared.output_records.fetch_add(records, Ordering::Relaxed);
        shared.counters.lock().merge(&ctx.into_counters());
        return Ok(RoutedOutput::empty());
    }

    // ---- route: local buckets vs remote buckets (§3.2.2) --------------------
    // Serialization into the place-wide de-duplicating streams is deferred
    // to the place thread (task order), so concurrent tasks never contend
    // on shared serializer state.
    let mut routed = RoutedOutput::<J>::empty();
    let mut local_n = 0i64;
    let mut remote_n = 0i64;
    for (p, bucket) in parts.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let dest = place_map.place_of(p, nplaces);
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
    shared.counters.lock().merge(&ctx.into_counters());
    Ok(routed)
}

/// Everything one place does during the reduce phase.
#[allow(clippy::too_many_arguments)]
fn reduce_phase_at_place<J: JobDef>(
    place: usize,
    job: &Arc<J>,
    conf: &Arc<JobConf>,
    fs: &Arc<CachingFs>,
    cluster: &Cluster,
    shared: &Arc<Shared<J>>,
    dist_cache: &Arc<DistCache>,
    opts: &M3ROptions,
    place_map: PlaceMap,
    num_reducers: usize,
    pool: &Arc<BufPool>,
    arena: Option<&Arena>,
    tjob: u64,
    capture: Option<&Mutex<MapPhaseData<J>>>,
) -> Result<()> {
    let node = cluster.node(place);
    let nplaces = cluster.len();
    let output_format = job.output_format(conf);
    let tuning = sort_tuning(conf, opts);

    // Receive remote streams: network + deserialization, charged here — the
    // receiving place does this work after the shuffle barrier. The
    // partition map is pre-sized from the reducer count, per-partition
    // vectors are reserved from the sender-published counts, and records
    // stream lazily out of the shared buffer — no intermediate Vec of
    // decoded records is ever built.
    let incoming: Vec<StreamPayload> = shared.streams[place]
        .iter()
        .filter_map(|slot| slot.lock().take())
        .collect();
    for payload in &incoming {
        // Ingest un-parks the payload: its bytes stop being live shuffle
        // memory here (pool reclamation re-counts them as pool bytes).
        cluster
            .mem()
            .shrink(place, simgrid::MemClass::Shuffle, payload.bytes.len() as u64);
    }
    let my_parts: Vec<usize> = (0..num_reducers)
        .filter(|p| place_map.place_of(*p, nplaces) == place)
        .collect();
    let mut remote: HashMap<usize, Vec<(Arc<J::K2>, Arc<J::V2>)>> =
        HashMap::with_capacity(my_parts.len());
    simgrid::with_meter(Meter::new(node.clone()), || -> Result<()> {
        trace::span(Phase::Shuffle, "ingest", None, || -> Result<()> {
            for payload in incoming {
                simgrid::meter::charge(Charge::NetTransfer {
                    bytes: payload.bytes.len() as u64,
                });
                simgrid::meter::charge(Charge::Deserialize {
                    bytes: payload.bytes.len() as u64,
                });
                for &(p, n) in &payload.counts {
                    remote.entry(p).or_default().reserve(n as usize);
                }
                for rec in decode_stream::<J::K2, J::V2>(payload.bytes.clone()) {
                    let (p, k, v) = rec?;
                    remote
                        .get_mut(&p)
                        .expect("reserved from the published counts")
                        .push((k, v));
                }
                // The iterator's refcount dropped with the loop; if this was
                // the last handle the buffer returns to this place's pool.
                if opts.buffer_pool {
                    pool.reclaim(payload.bytes);
                }
            }
            Ok(())
        })
    })?;
    let mut local = std::mem::take(&mut *shared.local[place].lock());

    for wave in my_parts.chunks(opts.worker_threads) {
        // Gather each partition's input on the place thread (pointer moves,
        // no charges), then run the wave's reducers on the worker pool.
        let inputs: Vec<(usize, Vec<(Arc<J::K2>, Arc<J::V2>)>)> = wave
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
            let mut cap = cap.lock();
            for (p, pairs) in &inputs {
                cap.push((*p, pairs.clone()));
            }
        }
        let wave_base = node.clock().now();
        // Sequential under a finite budget, for the same determinism reason
        // as the map waves: reducer output-cache puts may evict.
        let (results, scratches) = simgrid::pool::run_wave(
            cluster,
            place,
            opts.real_parallelism && cluster.mem().budget().is_none(),
            inputs,
            |(p, pairs): (usize, Vec<(Arc<J::K2>, Arc<J::V2>)>)| {
                let r = trace::span(Phase::Reduce, "reduce", Some(p as u64), || {
                    run_reduce_partition(
                        place, p, job, conf, fs, &*output_format, pairs, shared, dist_cache,
                        &tuning, arena,
                    )
                });
                (r, trace::take_pending())
            },
        );
        for (result, task_spans) in results {
            cluster.trace().record_rebased(tjob, place, wave_base, task_spans);
            result?;
        }
        node.clock()
            .advance(simgrid::pool::wave_duration(&scratches));
        // Wave boundary: trim this place's scratch shelf back to its
        // retention cap (wall-clock only; nothing simulated observes it).
        if let Some(a) = arena {
            a.end_wave();
        }
    }
    Ok(())
}

/// The reduce side of a map-prefix memo replay: identical to the wave loop
/// of [`reduce_phase_at_place`], minus stream ingest (the seeded
/// `shared.local` holds the retained, already-assembled partitions) and
/// minus any Shuffle span — the rollup must show the shuffle as elided, so
/// this deliberately does not reuse `reduce_phase_at_place` (whose empty
/// ingest span would still count a Shuffle row).
#[allow(clippy::too_many_arguments)]
fn replay_reduce_at_place<J: JobDef>(
    place: usize,
    job: &Arc<J>,
    conf: &Arc<JobConf>,
    fs: &Arc<CachingFs>,
    cluster: &Cluster,
    shared: &Arc<Shared<J>>,
    dist_cache: &Arc<DistCache>,
    opts: &M3ROptions,
    place_map: PlaceMap,
    num_reducers: usize,
    arena: Option<&Arena>,
    tjob: u64,
) -> Result<()> {
    let node = cluster.node(place);
    let nplaces = cluster.len();
    let output_format = job.output_format(conf);
    let tuning = sort_tuning(conf, opts);
    let mut local = std::mem::take(&mut *shared.local[place].lock());
    let my_parts: Vec<usize> = (0..num_reducers)
        .filter(|p| place_map.place_of(*p, nplaces) == place)
        .collect();
    for wave in my_parts.chunks(opts.worker_threads) {
        let inputs: Vec<(usize, Vec<(Arc<J::K2>, Arc<J::V2>)>)> = wave
            .iter()
            .map(|&p| (p, local.remove(&p).unwrap_or_default()))
            .collect();
        let wave_base = node.clock().now();
        let (results, scratches) = simgrid::pool::run_wave(
            cluster,
            place,
            opts.real_parallelism && cluster.mem().budget().is_none(),
            inputs,
            |(p, pairs): (usize, Vec<(Arc<J::K2>, Arc<J::V2>)>)| {
                let r = trace::span(Phase::Reduce, "reduce", Some(p as u64), || {
                    run_reduce_partition(
                        place, p, job, conf, fs, &*output_format, pairs, shared, dist_cache,
                        &tuning, arena,
                    )
                });
                (r, trace::take_pending())
            },
        );
        for (result, task_spans) in results {
            cluster.trace().record_rebased(tjob, place, wave_base, task_spans);
            result?;
        }
        node.clock()
            .advance(simgrid::pool::wave_duration(&scratches));
        if let Some(a) = arena {
            a.end_wave();
        }
    }
    Ok(())
}

/// Reduce-side collector: main-output pairs accumulate in memory (for the
/// cache and the deferred DFS write); named side outputs (`MultipleOutputs`,
/// §4.2.2) stream straight to their writers and bypass the cache.
struct ReduceCollector<'a, K, V> {
    main: Vec<(Arc<K>, Arc<V>)>,
    /// Ordered so `close()` visits (and charges) writers deterministically.
    named: BTreeMap<String, Box<dyn hmr_api::io::RecordWriter<K, V>>>,
    format: &'a dyn OutputFormat<K, V>,
    fs: &'a CachingFs,
    conf: &'a JobConf,
    partition: usize,
}

impl<K: Writable, V: Writable> ReduceCollector<'_, K, V> {
    fn close(self) -> Result<Vec<(Arc<K>, Arc<V>)>> {
        for (_, w) in self.named {
            w.close()?;
        }
        Ok(self.main)
    }
}

impl<K: Writable, V: Writable> hmr_api::collect::OutputCollector<K, V>
    for ReduceCollector<'_, K, V>
{
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        self.main.push((key, value));
        Ok(())
    }

    fn collect_named(&mut self, name: &str, key: Arc<K>, value: Arc<V>) -> Result<()> {
        if !self.named.contains_key(name) {
            let w = self
                .format
                .record_writer_named(self.fs, self.conf, name, self.partition)?;
            self.named.insert(name.to_string(), w);
        }
        simgrid::meter::charge(Charge::Serialize {
            bytes: (key.serialized_size() + value.serialized_size()) as u64,
        });
        self.named
            .get_mut(name)
            .expect("inserted above")
            .write(&key, &value)
    }
}

/// One reduce partition: in-memory sort + group, real reducer, cache the
/// output (and write to the DFS unless the output is temporary, §4.2.3).
#[allow(clippy::too_many_arguments)]
fn run_reduce_partition<J: JobDef>(
    place: usize,
    partition: usize,
    job: &Arc<J>,
    conf: &Arc<JobConf>,
    fs: &Arc<CachingFs>,
    output_format: &dyn OutputFormat<J::K3, J::V3>,
    mut pairs: Vec<(Arc<J::K2>, Arc<J::V2>)>,
    shared: &Arc<Shared<J>>,
    dist_cache: &Arc<DistCache>,
    tuning: &SortTuning,
    arena: Option<&Arena>,
) -> Result<()> {
    let mut ctx = TaskContext::new(
        format!("m3r_r_{partition:06}"),
        Arc::clone(conf),
        Arc::clone(dist_cache),
    );
    ctx.set_partition(Some(partition));

    // The ingest kernel (sort-based or hash-grouped, see
    // `ingest_reduce_groups`) always yields groups in the sorted order and
    // bills one sort-pass record per pair, so the simulated charge — and
    // with it every downstream clock — is independent of which path ran.
    let spans = trace::span(Phase::Sort, "sort", Some(partition as u64), || {
        simgrid::meter::charge(Charge::Sort {
            records: pairs.len() as u64,
        });
        let sort_cmp = job.sort_comparator();
        let group_cmp = job.grouping_comparator();
        ingest_reduce_groups(&mut pairs, &sort_cmp, &group_cmp, tuning, arena)
    });
    ctx.incr_task_counter(task_counter::REDUCE_INPUT_RECORDS, pairs.len() as i64);
    ctx.incr_task_counter(task_counter::REDUCE_INPUT_GROUPS, spans.len() as i64);

    let mut out = ReduceCollector {
        main: Vec::new(),
        named: BTreeMap::new(),
        format: output_format,
        fs,
        conf,
        partition,
    };
    let mut reducer = job.create_reducer(conf);
    let compute_start = Instant::now();
    reducer.setup(&mut ctx)?;
    for span in spans {
        let key = Arc::clone(&pairs[span.start].0);
        let mut values = pairs[span.clone()].iter().map(|(_, v)| Arc::clone(v));
        reducer.reduce(key, &mut values, &mut out, &mut ctx)?;
    }
    reducer.cleanup(&mut out, &mut ctx)?;
    simgrid::meter::charge(Charge::Compute {
        seconds: compute_start.elapsed().as_secs_f64(),
    });
    if let Some(a) = arena {
        // The ingested pair vector goes back on the shelf for the next
        // partition of this wave (or the next job) to lease.
        a.recycle(pairs);
    }

    let main_pairs = out.close()?;
    let records = main_pairs.len() as u64;
    ctx.incr_task_counter(task_counter::REDUCE_OUTPUT_RECORDS, records as i64);
    write_and_cache_output(
        place,
        partition,
        conf,
        fs,
        output_format,
        main_pairs,
        job.immutable_output(),
    )?;
    shared.output_records.fetch_add(records, Ordering::Relaxed);
    shared.counters.lock().merge(&ctx.into_counters());
    Ok(())
}

/// Output handling shared by reducers and map-only mappers: cache the
/// sequence at this place under the part file's name; write it to the DFS
/// through the RecordWriter unless the output is temporary.
fn write_and_cache_output<K3, V3>(
    place: usize,
    partition: usize,
    conf: &Arc<JobConf>,
    fs: &Arc<CachingFs>,
    output_format: &dyn OutputFormat<K3, V3>,
    pairs: Vec<(Arc<K3>, Arc<V3>)>,
    immutable: bool,
) -> Result<()>
where
    K3: Writable + Clone + Send + Sync,
    V3: Writable + Clone + Send + Sync,
{
    // Reducer output is subject to the same reuse contract as mapper
    // output: without ImmutableOutput the cache must hold copies.
    let pairs: Vec<(Arc<K3>, Arc<V3>)> = if immutable {
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

    let Some(dir) = output_format.output_path(conf) else {
        // Un-nameable output (§4.2.1): write through, bypass the cache.
        let mut writer = output_format.record_writer(&**fs, conf, partition)?;
        for (k, v) in &pairs {
            simgrid::meter::charge(Charge::Serialize {
                bytes: (k.serialized_size() + v.serialized_size()) as u64,
            });
            writer.write(k, v)?;
        }
        writer.close()?;
        return Ok(());
    };
    let part_path = dir.join(&part_file_name(partition));
    let is_temp = conf.is_temp_output(&dir);

    let len = if is_temp {
        // "If the output data is determined to be temporary ... the data
        // does not even need to be flushed to disk."
        seq_file_len(&pairs)
    } else {
        let mut writer = output_format.record_writer(&**fs, conf, partition)?;
        for (k, v) in &pairs {
            simgrid::meter::charge(Charge::Serialize {
                bytes: (k.serialized_size() + v.serialized_size()) as u64,
            });
            writer.write(k, v)?;
        }
        writer.close()?;
        fs.underlying()
            .get_file_status(&part_path)
            .map(|s| s.len)
            .unwrap_or_else(|_| seq_file_len(&pairs))
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
