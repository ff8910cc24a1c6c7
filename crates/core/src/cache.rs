//! The input/output key/value cache (paper §3.2.1), built on the
//! distributed [`kvstore`] of §5.2 — now governed by the `m3r-mem`
//! memory-accounting subsystem.
//!
//! "Before passing it to the mapper, M3R caches the key/value pairs in
//! memory (associated with the input file name). In a subsequent job, when
//! the same input is requested, M3R will bypass the provided RecordReader
//! and obtain the required key/value sequence directly from the cache."
//! Output sequences are cached the same way under the output part file's
//! name; temporary outputs (§4.2.3) live *only* here.
//!
//! Entries are typed: a sequence cached as `(K, V)` can only be served to a
//! consumer expecting `(K, V)` — a type mismatch silently degrades to a
//! cache bypass, mirroring how M3R bypasses the cache for splits it cannot
//! name or understand.
//!
//! ## Memory governance
//!
//! Every entry's bytes are reported to a [`MemAccountant`]
//! ([`simgrid::MemClass::Cache`]), making the accountant the single source
//! of truth for cache footprint ([`KvCache::total_bytes`] reads it), and
//! every cache enforces that accountant's per-place budget: when a put (or
//! reload) pushes a place over budget, the place's least recently used
//! entry is the victim (recency counts cache events — never wall clock or
//! thread schedule) and each victim is *spilled*: its pairs are serialized
//! through the entry's typed encoder and written to the spill filesystem
//! through the normal cost model, while the kv-store keeps a marker block
//! with the original metadata so the entry stays visible to the caching
//! filesystem. The next `get_seq` faults the entry back in (paying the
//! disk read + deserialize), re-admitting it as the newest entry. Under
//! [`OomMode::FailFast`] the cache errors instead of spilling — the
//! paper's "must fit in memory" contract, verbatim.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use kvstore::{BlockData, KPath, KvError, KvStore, PathKind};
use parking_lot::Mutex;
use simgrid::mem::{MemAccountant, MemClass, OomMode};
use simgrid::{meter, trace, Charge};

use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{read_file, subtree, write_file, FileSystem, HPath, MemFs};
use hmr_api::writable::{write_vu64, ByteReader, Writable};

/// A cached key/value sequence: `Arc`-shared pairs, exactly what flows
/// through the engine. Aliasing the `Arc`s is what makes cache hits free.
pub struct CachedSeq<K, V> {
    /// The cached pairs in file order.
    pub pairs: Vec<(Arc<K>, Arc<V>)>,
}

impl<K, V> CachedSeq<K, V> {
    /// Wrap a pair sequence.
    pub fn new(pairs: Vec<(Arc<K>, Arc<V>)>) -> Self {
        CachedSeq { pairs }
    }
}

/// Block metadata stored in the kvstore: the byte length the entry stands
/// for (which must match the file length the caching filesystem reports,
/// so split names line up) and the number of records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheMeta {
    /// Serialized byte length of the sequence (the "file size").
    pub len: u64,
    /// Number of key/value pairs.
    pub records: u64,
}

/// What the cache holds at a path: the one metadata answer the caching
/// filesystems and the engine ask for. Spilled entries answer exactly like
/// resident ones — the kv-store keeps their metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cached {
    /// A directory: some cached file lies beneath it.
    Dir,
    /// A cached sequence.
    File {
        /// Entry metadata.
        meta: CacheMeta,
        /// The place whose data table holds it.
        place: usize,
    },
}

/// A cache hit.
pub struct CacheHit<K, V> {
    /// The cached sequence.
    pub seq: Arc<CachedSeq<K, V>>,
    /// The place whose data table holds it.
    pub place: usize,
    /// Entry metadata.
    pub meta: CacheMeta,
}

/// Replaces an evicted entry's data in the kv-store. The block's metadata
/// (and thus the file's visible length) is untouched, so the caching
/// filesystem still stats and lists the entry; only a typed read faults
/// it back in.
#[derive(Debug)]
struct SpilledMarker;

/// Spill encoder of a `(K, V)` entry: downcasts the stored block and writes
/// `count, (k, v)*` in `Writable` wire form. `None` when the block is not
/// a `CachedSeq<K, V>`.
fn encode<K: Writable, V: Writable>(data: &BlockData) -> Option<Vec<u8>> {
    let seq = Arc::clone(data).downcast::<CachedSeq<K, V>>().ok()?;
    let mut buf = Vec::new();
    write_vu64(&mut buf, seq.pairs.len() as u64);
    for (k, v) in &seq.pairs {
        k.write_to(&mut buf);
        v.write_to(&mut buf);
    }
    Some(buf)
}

/// Reverses [`encode`]. `Arc` aliasing across entries is lost on reload —
/// each reloaded pair gets fresh `Arc`s — which costs memory, not
/// correctness.
fn decode<K: Writable, V: Writable>(bytes: &[u8]) -> Result<BlockData> {
    let mut r = ByteReader::new(bytes);
    let n = r.read_vu64()?;
    let mut pairs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let k = K::read_from(&mut r)?;
        let v = V::read_from(&mut r)?;
        pairs.push((Arc::new(k), Arc::new(v)));
    }
    Ok(Arc::new(CachedSeq::<K, V>::new(pairs)) as BlockData)
}

/// Least-recently-used order over one place's resident entries. Each
/// admission or hit stamps the entry's id with a fresh logical tick and
/// the victim is the smallest stamp: stamps are unique, so the scan order
/// over the map cannot influence the choice, and recency counts cache
/// events, never wall-clock time.
#[derive(Default)]
struct Lru {
    tick: u64,
    last_touch: HashMap<u64, u64>,
}

impl Lru {
    /// Admit `id`, or mark it the most recently used.
    fn touch(&mut self, id: u64) {
        self.tick += 1;
        self.last_touch.insert(id, self.tick);
    }

    /// A hit on `id`; unknown ids are ignored.
    fn access(&mut self, id: u64) {
        if self.last_touch.contains_key(&id) {
            self.touch(id);
        }
    }

    fn remove(&mut self, id: u64) {
        self.last_touch.remove(&id);
    }

    /// The least recently used entry, forgotten; `None` when empty.
    fn victim(&mut self) -> Option<u64> {
        self.victim_from(|_| true)
    }

    /// The least recently used entry for which `allowed` holds, forgotten.
    /// Quota eviction uses it to pick among one tenant's entries.
    fn victim_from(&mut self, mut allowed: impl FnMut(u64) -> bool) -> Option<u64> {
        let id = self
            .last_touch
            .iter()
            .filter(|(id, _)| allowed(**id))
            .min_by_key(|(_, stamp)| **stamp)
            .map(|(id, _)| *id)?;
        self.last_touch.remove(&id);
        Some(id)
    }
}

/// Governor bookkeeping for one cache entry.
struct Entry {
    /// Admission ordinal; fresh per (re-)admission. The LRU keys on it.
    id: u64,
    place: usize,
    /// Accounted bytes (the entry's `len`).
    bytes: u64,
    meta: CacheMeta,
    /// False while the pairs live only in the spill file.
    resident: bool,
    spill_path: Option<HPath>,
    /// The entry's typed spill codec, fixed at `put_seq` time.
    encode: fn(&BlockData) -> Option<Vec<u8>>,
    decode: fn(&[u8]) -> Result<BlockData>,
    /// The tenant (interned client id) whose job produced this entry, when
    /// the put came through the §5.3 job server. Quota enforcement charges
    /// the entry's bytes to this tenant.
    owner: Option<u32>,
}

/// Mutable governor state, held under one lock across each cache
/// operation so LRU bookkeeping, accounting and store mutation can
/// never interleave. The kv-store's own locks never call back up into
/// the governor, so lock order is strictly governor → store.
struct GovState {
    /// One LRU per place: budgets are per-place, so victim selection at
    /// one place must not disturb recency state at another.
    lru: Vec<Lru>,
    /// Ordered by path, so a subtree is one key range
    /// ([`hmr_api::fs::subtree`]).
    entries: BTreeMap<HPath, Entry>,
    by_id: HashMap<u64, HPath>,
    next_id: u64,
    /// Interned tenant names; a tenant's id is its index here. Interning
    /// order is submission order under the job server, so iteration by id
    /// is deterministic.
    tenants: Vec<String>,
    /// Per-tenant resident-byte quotas (total across places), keyed by
    /// interned id. `BTreeMap` so quota enforcement visits tenants in a
    /// fixed order.
    quotas: BTreeMap<u32, u64>,
}

impl GovState {
    fn admit(&mut self, path: HPath, entry_place: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.by_id.insert(id, path);
        self.lru[entry_place].touch(id);
        id
    }

    fn intern(&mut self, tenant: &str) -> u32 {
        if let Some(i) = self.tenants.iter().position(|t| t == tenant) {
            return i as u32;
        }
        self.tenants.push(tenant.to_string());
        (self.tenants.len() - 1) as u32
    }

    fn tenant_id(&self, tenant: &str) -> Option<u32> {
        self.tenants.iter().position(|t| t == tenant).map(|i| i as u32)
    }
}

/// The typed facade over the kvstore used by the engine and the caching
/// filesystem.
#[derive(Clone)]
pub struct KvCache {
    store: KvStore<CacheMeta>,
    mem: MemAccountant,
    state: Arc<Mutex<GovState>>,
    /// Where evicted entries spill, under [`SPILL_ROOT`]: the *raw*
    /// filesystem (never a `CachingFs`, whose `create` would re-enter the
    /// cache to invalidate the path being spilled).
    spill: Arc<dyn FileSystem>,
}

/// The directory spill files live in.
const SPILL_ROOT: &str = "/.m3r-spill";

fn kpath(path: &HPath) -> KPath {
    KPath::new(path.as_str())
}

impl KvCache {
    /// A cache sharded over `places` with an accountant and a spill
    /// target of its own: the accountant's budget is infinite until
    /// someone sets one through [`KvCache::mem`], and spills go to a
    /// private [`MemFs`].
    pub fn new(places: usize) -> Self {
        Self::governed(places, MemAccountant::new(places), MemFs::shared())
    }

    /// A cache governed by `mem`'s per-place budget: entries that push a
    /// place over budget are evicted least recently used first and spilled
    /// to `spill_fs` under `/.m3r-spill`, or the cache errors when `mem` is
    /// in [`OomMode::FailFast`]. `spill_fs` must be the raw filesystem,
    /// not the caching wrapper (see `KvCache::spill`).
    pub fn governed(places: usize, mem: MemAccountant, spill_fs: Arc<dyn FileSystem>) -> Self {
        KvCache {
            store: KvStore::new(places),
            mem,
            state: Arc::new(Mutex::new(GovState {
                lru: (0..places).map(|_| Lru::default()).collect(),
                entries: BTreeMap::new(),
                by_id: HashMap::new(),
                next_id: 0,
                tenants: Vec::new(),
                quotas: BTreeMap::new(),
            })),
            spill: spill_fs,
        }
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.store.num_places()
    }

    /// The memory accountant this cache reports to.
    pub fn mem(&self) -> &MemAccountant {
        &self.mem
    }

    /// Cache `seq` for `path` at `place`, replacing a cached file at the
    /// path (the path's block list is reduced to this one entry). Refuses,
    /// changing nothing, what HDFS refuses: a path beneath a cached file
    /// ([`HmrError::Io`]) and a cached directory at the path
    /// ([`HmrError::AlreadyExists`]). Otherwise errors only under a finite
    /// budget in [`OomMode::FailFast`] when the put overflows `place`'s
    /// budget.
    pub fn put_seq<K: Writable, V: Writable>(
        &self,
        place: usize,
        path: &HPath,
        seq: Arc<CachedSeq<K, V>>,
        len: u64,
    ) -> Result<()> {
        self.put_seq_for(place, path, seq, len, None)
    }

    /// [`KvCache::put_seq`] with tenant attribution: when `owner` is given,
    /// the entry's bytes count against that client's residency quota (if
    /// one is set). The job server stamps `m3r.client.id` into submitted
    /// confs and the engine threads it through to here.
    pub fn put_seq_for<K: Writable, V: Writable>(
        &self,
        place: usize,
        path: &HPath,
        seq: Arc<CachedSeq<K, V>>,
        len: u64,
        owner: Option<&str>,
    ) -> Result<()> {
        let records = seq.pairs.len() as u64;
        let kp = kpath(path);
        let mut st = self.state.lock();
        // Drop a stale file entry first so the file holds exactly one
        // block. Only a file is replaced: the governor indexes exactly the
        // store's files, and a path that is not one changes nothing here.
        if self.forget_locked(&mut st, path) {
            let _ = self.store.delete(&kp);
        }
        self.store
            .write_block(place, &kp, CacheMeta { len, records }, seq, len)
            .map_err(|e| match e {
                KvError::IsAFile(anc) => HmrError::Io(format!("{anc} is a file")),
                KvError::IsADir(p) => HmrError::AlreadyExists(p.to_string()),
                e => HmrError::Io(format!("cache put: {e}")),
            })?;
        let owner = owner.map(|t| st.intern(t));
        let id = st.admit(path.clone(), place);
        st.entries.insert(
            path.clone(),
            Entry {
                id,
                place,
                bytes: len,
                meta: CacheMeta { len, records },
                resident: true,
                spill_path: None,
                encode: encode::<K, V>,
                decode: decode::<K, V>,
                owner,
            },
        );
        self.mem.grow(place, MemClass::Cache, len);
        trace::mark(trace::Phase::Cache, "cache_put", None);
        self.enforce_locked(&mut st)
    }

    /// Set (or clear with `None`) `client`'s resident-byte quota — the
    /// total cached bytes its jobs' entries may keep resident across all
    /// places. Setting a quota below current residency triggers immediate
    /// quota-priority eviction in [`OomMode::Spill`].
    pub fn set_client_quota(&self, client: &str, quota: Option<u64>) {
        let mut st = self.state.lock();
        let tenant = st.intern(client);
        match quota {
            Some(q) => {
                st.quotas.insert(tenant, q);
            }
            None => {
                st.quotas.remove(&tenant);
            }
        }
        // Re-enforce right away so a tightened quota takes effect before
        // the tenant's next put. Under `FailFast` the error (quota already
        // exceeded) is deferred to the next put, which reports it.
        let _ = self.enforce_locked(&mut st);
    }

    /// True when any client has a residency quota. The job server consults
    /// this to decide whether jobs must run exclusively (eviction order
    /// under concurrent jobs would be schedule-dependent).
    pub fn has_quotas(&self) -> bool {
        !self.state.lock().quotas.is_empty()
    }

    /// Resident cached bytes currently attributed to `client` across all
    /// places (spilled entries count zero).
    pub fn client_resident_bytes(&self, client: &str) -> u64 {
        let st = self.state.lock();
        let Some(tenant) = st.tenant_id(client) else {
            return 0;
        };
        st.entries
            .values()
            .filter(|e| e.resident && e.owner == Some(tenant))
            .map(|e| e.bytes)
            .sum()
    }

    /// Typed lookup. `expected_len` (from a split's byte range) guards
    /// against stale entries; pass `None` to accept any length.
    pub fn get_seq<K: Send + Sync + 'static, V: Send + Sync + 'static>(
        &self,
        path: &HPath,
        expected_len: Option<u64>,
    ) -> Option<CacheHit<K, V>> {
        let hit = self.lookup_seq(path, expected_len);
        self.mem.note_cache_access(hit.is_some());
        trace::mark(
            trace::Phase::Cache,
            if hit.is_some() { "cache_hit" } else { "cache_miss" },
            None,
        );
        hit
    }

    fn lookup_seq<K: Send + Sync + 'static, V: Send + Sync + 'static>(
        &self,
        path: &HPath,
        expected_len: Option<u64>,
    ) -> Option<CacheHit<K, V>> {
        let mut st = self.state.lock();
        let (id, place, meta, resident) = {
            let e = st.entries.get(path)?;
            if let Some(len) = expected_len {
                if e.meta.len != len {
                    return None;
                }
            }
            (e.id, e.place, e.meta.clone(), e.resident)
        };
        if !resident {
            return self.reload_locked::<K, V>(&mut st, path);
        }
        st.lru[place].access(id);
        let data = self.store.create_reader(&kpath(path), &meta).ok()?;
        let seq = data.downcast::<CachedSeq<K, V>>().ok()?;
        Some(CacheHit { seq, place, meta })
    }

    /// Fault a spilled entry back in: read + decode the spill file through
    /// the cost model, restore the kv-store block, and re-admit the entry
    /// as the newest insertion.
    fn reload_locked<K: Send + Sync + 'static, V: Send + Sync + 'static>(
        &self,
        st: &mut GovState,
        path: &HPath,
    ) -> Option<CacheHit<K, V>> {
        let (place, bytes, meta, decode, spath) = {
            let e = st.entries.get(path)?;
            (e.place, e.bytes, e.meta.clone(), e.decode, e.spill_path.clone()?)
        };
        let loaded = trace::span(trace::Phase::Cache, "cache_reload", None, || {
            let raw = read_file(&*self.spill, &spath).ok()?;
            meter::charge(Charge::Deserialize { bytes: raw.len() as u64 });
            decode(&raw).ok()
        })?;
        self.store
            .write_block(place, &kpath(path), meta.clone(), Arc::clone(&loaded), bytes)
            .ok()?;
        let _ = self.spill.delete(&spath, false);
        let id = st.admit(path.clone(), place);
        let e = st.entries.get_mut(path).expect("entry present");
        e.id = id;
        e.resident = true;
        e.spill_path = None;
        self.mem.grow(place, MemClass::Cache, bytes);
        self.mem.note_reload(place, bytes);
        // The reload itself may overflow the budget. Only `Spill` mode can
        // reach here (nothing ever spills under `FailFast`), so enforcement
        // cannot error; under a tight budget some entry may spill right
        // back out — the caller still gets its data.
        let _ = self.enforce_locked(st);
        let seq = loaded.downcast::<CachedSeq<K, V>>().ok()?;
        Some(CacheHit { seq, place, meta })
    }

    /// Evict victims until every over-quota tenant fits its quota and every
    /// place fits its budget (no-op when the budget is infinite and no
    /// quotas are set — the accountant then never influences behaviour,
    /// which is what the bit-equality tests pin).
    ///
    /// Quotas are enforced *first* — "over-quota tenants evict first" — so
    /// the budget step below only ever evicts from tenants already within
    /// their quotas (or unattributed entries).
    fn enforce_locked(&self, st: &mut GovState) -> Result<()> {
        self.enforce_quotas_locked(st)?;
        let Some(budget) = self.mem.budget() else {
            return Ok(());
        };
        for place in 0..self.store.num_places() {
            // The budget governs *cache* bytes. Shuffle payloads and pool
            // free lists are tallied for the watermarks but excluded here:
            // they grow from other places' threads (a stream publish lands
            // at its destination), so folding them in would make eviction
            // decisions depend on cross-place thread timing. Cache bytes
            // at a place change only under this governor lock, from that
            // place's own (deterministically ordered) operations.
            while self.mem.live_class(place, MemClass::Cache) > budget {
                if self.mem.oom_mode() == OomMode::FailFast {
                    return Err(HmrError::OutOfMemory(format!(
                        "place {place} holds {} live cached bytes against a budget of \
                         {budget} (fail_fast: refusing to spill)",
                        self.mem.live_class(place, MemClass::Cache)
                    )));
                }
                let Some(victim) = st.lru[place].victim() else {
                    break;
                };
                self.spill_locked(st, victim)?;
            }
        }
        Ok(())
    }

    /// Quota-priority eviction: for each quota'd tenant in interned order,
    /// spill that tenant's own entries — the place's least recently used
    /// among them — until its total residency fits the quota. Victims
    /// come from the place where the tenant holds the most bytes (ties to
    /// the smallest place id) so pressure is relieved where it is worst.
    fn enforce_quotas_locked(&self, st: &mut GovState) -> Result<()> {
        let quotas: Vec<(u32, u64)> = st.quotas.iter().map(|(t, q)| (*t, *q)).collect();
        for (tenant, quota) in quotas {
            loop {
                let mut per_place = vec![0u64; self.store.num_places()];
                for e in st.entries.values() {
                    if e.resident && e.owner == Some(tenant) {
                        per_place[e.place] += e.bytes;
                    }
                }
                let total: u64 = per_place.iter().sum();
                if total <= quota {
                    break;
                }
                if self.mem.oom_mode() == OomMode::FailFast {
                    return Err(HmrError::OutOfMemory(format!(
                        "client `{}` holds {total} resident cached bytes against a \
                         quota of {quota} (fail_fast: refusing to spill)",
                        st.tenants[tenant as usize]
                    )));
                }
                let place = per_place
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, b)| (**b, std::cmp::Reverse(*i)))
                    .map(|(i, _)| i)
                    .expect("at least one place");
                let allowed: HashSet<u64> = st
                    .entries
                    .values()
                    .filter(|e| e.resident && e.owner == Some(tenant) && e.place == place)
                    .map(|e| e.id)
                    .collect();
                let Some(victim) = st.lru[place].victim_from(|id| allowed.contains(&id)) else {
                    break;
                };
                self.spill_locked(st, victim)?;
            }
        }
        Ok(())
    }

    /// Spill entry `id`: serialize through its encoder, write the bytes to
    /// the spill filesystem (charged as serialize + DFS write), and swap
    /// the kv-store data for a marker so the metadata stays visible.
    fn spill_locked(&self, st: &mut GovState, id: u64) -> Result<()> {
        let Some(path) = st.by_id.remove(&id) else {
            return Ok(()); // the LRU outlived the entry; nothing to do
        };
        let (place, bytes, meta, encode) = {
            let e = st.entries.get(&path).expect("by_id maps to a live entry");
            debug_assert!(e.resident, "victims are always resident");
            (e.place, e.bytes, e.meta.clone(), e.encode)
        };
        let kp = kpath(&path);
        let encoded = self.store.create_reader(&kp, &meta).ok().and_then(|data| encode(&data));
        let Some(encoded) = encoded else {
            // Unreadable or not encodable: drop the entry outright rather
            // than spill. `put_seq` fixes the encoder with the concrete
            // types, so this arm is defensive, not expected.
            st.entries.remove(&path);
            let _ = self.store.delete(&kp);
            self.mem.shrink(place, MemClass::Cache, bytes);
            self.mem.note_eviction(place, 0);
            return Ok(());
        };
        let spath = HPath::new(format!("{SPILL_ROOT}/e{id}"));
        let _ = self.spill.delete(&spath, false);
        trace::span(trace::Phase::Cache, "cache_spill", None, || {
            meter::charge(Charge::Serialize {
                bytes: encoded.len() as u64,
            });
            write_file(&*self.spill, &spath, &encoded)
        })?;
        self.store
            .write_block(place, &kp, meta, Arc::new(SpilledMarker) as BlockData, 0)
            .map_err(|e| HmrError::Io(format!("cache spill marker: {e:?}")))?;
        {
            let e = st.entries.get_mut(&path).expect("entry present");
            e.resident = false;
            e.spill_path = Some(spath);
        }
        self.mem.shrink(place, MemClass::Cache, bytes);
        self.mem.note_eviction(place, encoded.len() as u64);
        trace::mark(trace::Phase::Cache, "cache_evict", None);
        Ok(())
    }

    /// Drop governor state (and any spill file) for `path` only — the
    /// kv-store entry is the caller's to handle. Returns whether `path`
    /// was a cached file.
    fn forget_locked(&self, st: &mut GovState, path: &HPath) -> bool {
        let Some(e) = st.entries.remove(path) else {
            return false;
        };
        st.by_id.remove(&e.id);
        st.lru[e.place].remove(e.id);
        if e.resident {
            self.mem.shrink(e.place, MemClass::Cache, e.bytes);
        }
        if let Some(sp) = &e.spill_path {
            let _ = self.spill.delete(sp, false);
        }
        true
    }

    /// What is cached at `path`, if anything: one kv-store lookup.
    pub fn stat(&self, path: &HPath) -> Option<Cached> {
        let info = self.store.get_info(&kpath(path)).ok()?;
        match info.kind {
            PathKind::Dir => Some(Cached::Dir),
            PathKind::File => info.blocks.into_iter().next().map(|b| Cached::File {
                meta: b.info,
                place: b.place,
            }),
        }
    }

    /// Cached children of a directory path.
    pub fn list(&self, dir: &HPath) -> Vec<(HPath, Cached)> {
        let Ok(children) = self.store.list(&kpath(dir)) else {
            return Vec::new();
        };
        children
            .into_iter()
            .filter_map(|c| {
                let p = HPath::new(c.as_str());
                self.stat(&p).map(|c| (p, c))
            })
            .collect()
    }

    /// Remove `path` (file or subtree) from the cache. §3.2.1: "deleting a
    /// file from the filesystem causes it to be transparently removed from
    /// the cache." The root is never deleted.
    pub fn delete(&self, path: &HPath) -> bool {
        let mut st = self.state.lock();
        if !self.store.delete(&kpath(path)).unwrap_or(false) {
            return false;
        }
        let doomed: Vec<HPath> = subtree(&st.entries, path).map(|(p, _)| p.clone()).collect();
        for p in doomed {
            self.forget_locked(&mut st, &p);
        }
        true
    }

    /// Rename within the cache (keeps data at its place). Governor entries
    /// are re-keyed; LRU stamps and spill files key on entry ids, so
    /// recency and spilled bytes survive the rename untouched.
    pub fn rename(&self, src: &HPath, dst: &HPath) -> std::result::Result<(), KvError> {
        let mut st = self.state.lock();
        self.store.rename(&kpath(src), &kpath(dst))?;
        let moved: Vec<HPath> = subtree(&st.entries, src).map(|(p, _)| p.clone()).collect();
        for p in moved {
            let e = st.entries.remove(&p).expect("listed above");
            let to = dst.join(&p.as_str()[src.as_str().len()..]);
            st.by_id.insert(e.id, to.clone());
            st.entries.insert(to, e);
        }
        Ok(())
    }

    /// Register the cache's telemetry source with `registry`: per-owner
    /// resident bytes (tenant quota accounting made scrapeable),
    /// per-tenant quotas and entry/spilled-entry counts, all read in one
    /// pass under the governor lock at export time.
    /// Hit/miss, eviction and spill/reload traffic are the accountant's to
    /// export ([`MemAccountant::publish_telemetry`], registered at cluster
    /// birth); this adds the governor's view.
    pub fn publish_telemetry(&self, registry: &simgrid::TelemetryRegistry) {
        use simgrid::telemetry::{Family, Kind};
        let state = Arc::clone(&self.state);
        let source = move || {
            let st = state.lock();
            // Every interned tenant exports a sample (zero included) so a
            // tenant evicted to nothing stays visible on a dashboard.
            let mut by_owner: BTreeMap<&str, u64> =
                st.tenants.iter().map(|t| (t.as_str(), 0)).collect();
            let mut resident_entries = 0;
            for e in st.entries.values().filter(|e| e.resident) {
                let owner = e.owner.and_then(|t| st.tenants.get(t as usize));
                *by_owner.entry(owner.map_or("<shared>", |t| t)).or_insert(0) += e.bytes;
                resident_entries += 1;
            }
            let mut resident = Family::new(
                Kind::Gauge,
                "m3r_cache_resident_bytes",
                "resident cached bytes by owning tenant (\"<shared>\" = no owner)",
            );
            for (owner, bytes) in by_owner {
                resident.sample(&[("owner", owner)], bytes as f64);
            }
            let mut quotas = Family::new(
                Kind::Gauge,
                "m3r_cache_quota_bytes",
                "per-tenant resident-byte quota",
            );
            for (t, q) in &st.quotas {
                if let Some(name) = st.tenants.get(*t as usize) {
                    quotas.sample(&[("owner", name)], *q as f64);
                }
            }
            let mut entries =
                Family::new(Kind::Gauge, "m3r_cache_entries", "cache entries by residency");
            entries.sample(&[("state", "resident")], resident_entries as f64);
            let spilled = st.entries.len() - resident_entries;
            entries.sample(&[("state", "spilled")], spilled as f64);
            vec![resident, quotas, entries]
        };
        registry.register("cache", Arc::new(source));
    }

    /// Total resident cache bytes, read from the memory accountant — the
    /// single source of truth for cache footprint (the paper's §6.1
    /// benchmark explicitly deletes consumed inputs "as \[their\] presence
    /// in the cache wastes memory").
    pub fn total_bytes(&self) -> u64 {
        (0..self.store.num_places())
            .map(|p| self.mem.live_class(p, MemClass::Cache))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::fs::MemFs;
    use hmr_api::writable::{IntWritable, Text};

    fn seq(n: i32) -> Arc<CachedSeq<IntWritable, Text>> {
        Arc::new(CachedSeq::new(
            (0..n)
                .map(|i| {
                    (
                        Arc::new(IntWritable(i)),
                        Arc::new(Text::from(format!("v{i}"))),
                    )
                })
                .collect(),
        ))
    }

    #[test]
    fn put_get_roundtrip_with_aliasing() {
        let cache = KvCache::new(4);
        let p = HPath::new("/out/part-00000");
        let s = seq(3);
        cache.put_seq(2, &p, Arc::clone(&s), 100).unwrap();
        let hit = cache.get_seq::<IntWritable, Text>(&p, Some(100)).unwrap();
        assert_eq!(hit.place, 2);
        assert_eq!(hit.meta.records, 3);
        assert!(Arc::ptr_eq(&hit.seq, &s), "cache returns the same sequence");
    }

    #[test]
    fn length_mismatch_is_a_miss() {
        let cache = KvCache::new(2);
        let p = HPath::new("/f");
        cache.put_seq(0, &p, seq(1), 10).unwrap();
        assert!(cache.get_seq::<IntWritable, Text>(&p, Some(11)).is_none());
        assert!(cache.get_seq::<IntWritable, Text>(&p, Some(10)).is_some());
        assert!(cache.get_seq::<IntWritable, Text>(&p, None).is_some());
    }

    #[test]
    fn type_mismatch_is_a_miss_not_an_error() {
        let cache = KvCache::new(2);
        let p = HPath::new("/f");
        cache.put_seq(0, &p, seq(1), 10).unwrap();
        // A consumer expecting (Text, Text) simply bypasses the cache.
        assert!(cache.get_seq::<Text, Text>(&p, Some(10)).is_none());
    }

    #[test]
    fn replacement_updates_entry() {
        let cache = KvCache::new(2);
        let p = HPath::new("/f");
        cache.put_seq(0, &p, seq(1), 10).unwrap();
        cache.put_seq(1, &p, seq(5), 50).unwrap();
        let hit = cache.get_seq::<IntWritable, Text>(&p, None).unwrap();
        assert_eq!(hit.meta.records, 5);
        assert_eq!(hit.place, 1);
        assert_eq!(cache.total_bytes(), 50, "old entry weight reclaimed");
    }

    #[test]
    fn delete_and_rename_maintain_cache() {
        let cache = KvCache::new(2);
        cache
            .put_seq(0, &HPath::new("/out/temp_1/part-00000"), seq(2), 20)
            .unwrap();
        cache
            .put_seq(1, &HPath::new("/out/temp_1/part-00001"), seq(2), 20)
            .unwrap();
        cache
            .rename(&HPath::new("/out/temp_1"), &HPath::new("/out/final"))
            .unwrap();
        assert!(matches!(
            cache.stat(&HPath::new("/out/final/part-00001")),
            Some(Cached::File { place: 1, .. })
        ));
        assert_eq!(cache.stat(&HPath::new("/out/temp_1")), None);
        assert!(cache.delete(&HPath::new("/out/final")));
        assert_eq!(cache.total_bytes(), 0);
    }

    #[test]
    fn list_cached_directory() {
        let cache = KvCache::new(2);
        cache.put_seq(0, &HPath::new("/d/a"), seq(1), 5).unwrap();
        cache.put_seq(0, &HPath::new("/d/b"), seq(1), 7).unwrap();
        let mut ls = cache.list(&HPath::new("/d"));
        ls.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(ls.len(), 2);
        assert!(matches!(&ls[1].1, Cached::File { meta, .. } if meta.len == 7));
        assert_eq!(cache.list(&HPath::root()), [(HPath::new("/d"), Cached::Dir)]);
    }

    #[test]
    fn a_put_beneath_a_cached_file_is_refused_and_changes_nothing() {
        let cache = KvCache::new(2);
        cache.put_seq(0, &HPath::new("/f"), seq(1), 10).unwrap();
        let err = cache.put_seq(0, &HPath::new("/f/g"), seq(1), 7).unwrap_err();
        assert!(matches!(&err, HmrError::Io(m) if m == "/f is a file"), "{err}");
        assert_eq!(cache.total_bytes(), 10);
        assert_eq!(cache.stat(&HPath::new("/f/g")), None);
        assert!(cache.get_seq::<IntWritable, Text>(&HPath::new("/f"), Some(10)).is_some());
    }

    #[test]
    fn a_put_over_a_cached_directory_is_refused_and_changes_nothing() {
        let cache = KvCache::new(2);
        cache.put_seq(0, &HPath::new("/d/a"), seq(1), 10).unwrap();
        let err = cache.put_seq(1, &HPath::new("/d"), seq(1), 7).unwrap_err();
        assert!(matches!(err, HmrError::AlreadyExists(_)), "{err}");
        assert_eq!(cache.total_bytes(), 10, "no accountant byte leaked");
        assert_eq!(cache.stat(&HPath::new("/d")), Some(Cached::Dir));
        assert!(cache.get_seq::<IntWritable, Text>(&HPath::new("/d/a"), Some(10)).is_some());
    }

    // -- LRU order ----------------------------------------------------------

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut p = Lru::default();
        p.touch(1);
        p.touch(2);
        p.touch(3);
        p.access(1); // 2 is now coldest
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn victim_from_respects_the_filter_and_the_lru_order() {
        let mut p = Lru::default();
        p.touch(1);
        p.touch(2);
        p.touch(3);
        // Restricted to {2, 3}, the coldest allowed entry goes first.
        assert_eq!(p.victim_from(|id| id != 1), Some(2));
        // The chosen entry is forgotten; the filter still applies.
        assert_eq!(p.victim_from(|id| id != 1), Some(3));
        assert_eq!(p.victim_from(|id| id != 1), None);
        // Entry 1 remains for the unrestricted path.
        assert_eq!(p.victim(), Some(1));
    }

    #[test]
    fn removed_entries_are_never_victims() {
        let mut p = Lru::default();
        p.touch(1);
        p.touch(2);
        p.remove(1);
        p.access(99); // unknown id: ignored
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), None);
    }

    // -- governance ---------------------------------------------------------

    fn governed(places: usize, budget: u64) -> (KvCache, Arc<MemFs>) {
        let fs = MemFs::shared();
        let mem = MemAccountant::new(places);
        mem.set_budget(Some(budget));
        let cache = KvCache::governed(places, mem, fs.clone() as Arc<dyn FileSystem>);
        (cache, fs)
    }

    #[test]
    fn eviction_spills_and_reload_restores_pairs() {
        // Budget of 25 at place 0: the second 20-byte entry evicts the
        // first (LRU), which must still stat, still list, and reload on
        // its next typed read.
        let (cache, fs) = governed(1, 25);
        let a = HPath::new("/d/a");
        let b = HPath::new("/d/b");
        cache.put_seq(0, &a, seq(3), 20).unwrap();
        cache.put_seq(0, &b, seq(2), 20).unwrap();
        assert_eq!(cache.mem().evictions(0), 1);
        assert!(cache.mem().spill_bytes(0) > 0);
        assert_eq!(cache.total_bytes(), 20, "only /d/b is resident");
        assert_eq!(
            cache.stat(&a),
            Some(Cached::File {
                meta: CacheMeta { len: 20, records: 3 },
                place: 0
            }),
            "spilled entry keeps its metadata"
        );
        assert!(
            fs.exists(&HPath::new("/.m3r-spill/e0")),
            "spill file written for the first admission"
        );
        let hit = cache.get_seq::<IntWritable, Text>(&a, Some(20)).unwrap();
        assert_eq!(hit.seq.pairs.len(), 3);
        assert_eq!(*hit.seq.pairs[2].0, IntWritable(2));
        assert_eq!(hit.seq.pairs[2].1.as_ref(), &Text::from("v2"));
        assert!(cache.mem().reload_bytes(0) > 0);
        // The reload pushed /d/b out in turn (budget fits only one).
        assert_eq!(cache.total_bytes(), 20);
        assert!(!fs.exists(&HPath::new("/.m3r-spill/e0")), "spill file reclaimed");
    }

    #[test]
    fn fail_fast_errors_instead_of_spilling() {
        let (cache, fs) = governed(1, 25);
        cache.mem().set_oom_mode(OomMode::FailFast);
        cache.put_seq(0, &HPath::new("/a"), seq(1), 20).unwrap();
        let err = cache
            .put_seq(0, &HPath::new("/b"), seq(1), 20)
            .unwrap_err();
        assert!(matches!(err, HmrError::OutOfMemory(_)), "{err}");
        assert_eq!(cache.mem().evictions(0), 0, "fail_fast never evicts");
        assert!(!fs.exists(&HPath::new("/.m3r-spill")), "nothing spilled");
    }

    #[test]
    fn budgets_are_per_place() {
        let (cache, _fs) = governed(2, 25);
        cache.put_seq(0, &HPath::new("/a"), seq(1), 20).unwrap();
        cache.put_seq(1, &HPath::new("/b"), seq(1), 20).unwrap();
        assert_eq!(cache.mem().evictions(0) + cache.mem().evictions(1), 0);
        assert_eq!(cache.total_bytes(), 40, "each place fits its own budget");
    }

    #[test]
    fn delete_and_rename_cover_spilled_entries() {
        let (cache, fs) = governed(1, 25);
        let a = HPath::new("/d/a");
        cache.put_seq(0, &a, seq(3), 20).unwrap();
        cache.put_seq(0, &HPath::new("/d/b"), seq(2), 20).unwrap(); // spills /d/a
        cache.rename(&HPath::new("/d"), &HPath::new("/e")).unwrap();
        let hit = cache
            .get_seq::<IntWritable, Text>(&HPath::new("/e/a"), Some(20))
            .unwrap();
        assert_eq!(hit.seq.pairs.len(), 3, "spilled entry reloads under its new name");
        // Spill again, then delete the subtree: the spill file must go too.
        cache.put_seq(0, &HPath::new("/e/c"), seq(2), 20).unwrap();
        assert!(cache.delete(&HPath::new("/e")));
        assert_eq!(cache.total_bytes(), 0);
        let spills = fs
            .list_status(&HPath::new("/.m3r-spill"))
            .map(|l| l.len())
            .unwrap_or(0);
        assert_eq!(spills, 0, "no orphaned spill files after delete");
    }

    #[test]
    fn client_quota_evicts_the_over_quota_tenant_only() {
        // Infinite budget, but tenant "big" is capped at 45 bytes: its
        // third put pushes it to 60, so its coldest entry spills. Tenant
        // "small" (and the unattributed entry) must be untouched.
        let fs = MemFs::shared();
        let mem = MemAccountant::new(2);
        let cache = KvCache::governed(2, mem, fs.clone() as Arc<dyn FileSystem>);
        cache
            .put_seq_for(0, &HPath::new("/s/a"), seq(1), 20, Some("small"))
            .unwrap();
        cache.put_seq(1, &HPath::new("/free"), seq(1), 20).unwrap();
        cache.set_client_quota("big", Some(45));
        cache
            .put_seq_for(0, &HPath::new("/b/1"), seq(2), 20, Some("big"))
            .unwrap();
        cache
            .put_seq_for(1, &HPath::new("/b/2"), seq(2), 20, Some("big"))
            .unwrap();
        assert_eq!(cache.mem().evictions(0) + cache.mem().evictions(1), 0);
        cache
            .put_seq_for(0, &HPath::new("/b/3"), seq(2), 20, Some("big"))
            .unwrap();
        assert_eq!(cache.client_resident_bytes("big"), 40, "evicted down to quota");
        assert_eq!(cache.client_resident_bytes("small"), 20, "innocent tenant kept");
        assert_eq!(
            cache.mem().evictions(0) + cache.mem().evictions(1),
            1,
            "exactly one quota eviction"
        );
        // The victim was big's LRU entry at its heaviest place (place 0
        // held /b/1 and /b/3 = 40 vs 20 at place 1; LRU there is /b/1).
        assert!(
            cache
                .get_seq::<IntWritable, Text>(&HPath::new("/b/1"), None)
                .is_some(),
            "spilled entry still reloads on demand"
        );
        assert!(cache.has_quotas());
        cache.set_client_quota("big", None);
        assert!(!cache.has_quotas());
    }

    #[test]
    fn tightening_a_quota_evicts_immediately() {
        let fs = MemFs::shared();
        let mem = MemAccountant::new(1);
        let cache = KvCache::governed(1, mem, fs.clone() as Arc<dyn FileSystem>);
        cache
            .put_seq_for(0, &HPath::new("/t/a"), seq(2), 30, Some("c1"))
            .unwrap();
        cache
            .put_seq_for(0, &HPath::new("/t/b"), seq(2), 30, Some("c1"))
            .unwrap();
        assert_eq!(cache.client_resident_bytes("c1"), 60);
        cache.set_client_quota("c1", Some(30));
        assert_eq!(cache.client_resident_bytes("c1"), 30);
        assert_eq!(cache.mem().evictions(0), 1);
    }

    #[test]
    fn quota_with_fail_fast_errors_on_the_overflowing_put() {
        let fs = MemFs::shared();
        let mem = MemAccountant::new(1);
        mem.set_oom_mode(OomMode::FailFast);
        let cache = KvCache::governed(1, mem, fs.clone() as Arc<dyn FileSystem>);
        cache.set_client_quota("c", Some(25));
        cache
            .put_seq_for(0, &HPath::new("/a"), seq(1), 20, Some("c"))
            .unwrap();
        let err = cache
            .put_seq_for(0, &HPath::new("/b"), seq(1), 20, Some("c"))
            .unwrap_err();
        assert!(matches!(err, HmrError::OutOfMemory(_)), "{err}");
        assert_eq!(cache.mem().evictions(0), 0);
    }

    #[test]
    fn infinite_budget_never_touches_the_spill_fs() {
        let fs = MemFs::shared();
        let mem = MemAccountant::new(1);
        let cache = KvCache::governed(1, mem, fs.clone() as Arc<dyn FileSystem>);
        for i in 0..32 {
            cache
                .put_seq(0, &HPath::new(format!("/f{i}")), seq(4), 1 << 20)
                .unwrap();
        }
        assert_eq!(cache.mem().evictions(0), 0);
        assert!(!fs.exists(&HPath::new("/.m3r-spill")));
        assert_eq!(cache.total_bytes(), 32 << 20);
    }
}
