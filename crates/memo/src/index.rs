//! The per-server reuse index: fingerprint → retained results.
//!
//! Two kinds of entries live here, sharded across places by fingerprint:
//!
//! * **Full entries** — the complete retained output partition set of a
//!   finished job (raw `part-*` bytes, engine-agnostic), plus its counters
//!   (the replay's `output_records` is read off them). A hit replays these
//!   bytes verbatim.
//! * **Map entries** — the shuffle-stable reduce-input partitions of a
//!   finished map phase, stored as an opaque `Arc<dyn Any>` (they are typed
//!   by the job's `K2/V2` domain, which only the engine knows). A hit lets
//!   the engine skip map+shuffle and run only the reduce side.
//!
//! Every entry carries the `(path, content version)` snapshot of the inputs
//! it was derived from; lookups re-check the snapshot against the live
//! filesystem and **invalidate** the entry the moment any version changed.
//!
//! Memory is accounted against [`MemClass::Memo`] through the engine's
//! `MemAccountant`, so memo bytes are budget-live under the PR 5 governor.
//! Over budget, entries are **dropped LRU-first, never spilled**: a spilled
//! entry would have to charge `DiskRead` on reload, destroying the "~0
//! simulated seconds" replay guarantee — recomputing the job *is* the
//! reload path, and it is always correct.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use hmr_api::counters::Counters;
use hmr_api::fs::{FileSystem, HPath};
use simgrid::mem::{MemAccountant, MemClass};
use simgrid::telemetry::{Family, Kind, TelemetryRegistry};

use crate::fingerprint::Fingerprint;

/// A retained whole-job result, returned by value on a hit (`Bytes` clones
/// are refcount bumps, not copies).
#[derive(Clone, Debug)]
pub struct FullHit {
    /// Output partition files as `(file name, raw bytes)`, e.g.
    /// `("part-00000", …)`, in name order.
    pub parts: Vec<(String, Bytes)>,
    /// The counters the original run reported.
    pub counters: Counters,
}

struct FullEntry {
    inputs: Vec<(HPath, u64)>,
    hit: FullHit,
    bytes: u64,
    tick: u64,
}

struct MapEntry {
    inputs: Vec<(HPath, u64)>,
    data: Arc<dyn Any + Send + Sync>,
    counters: Counters,
    bytes: u64,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    full: HashMap<u64, FullEntry>,
    map: HashMap<u64, MapEntry>,
}

/// The reuse index. One per engine; shared behind `Arc` with the server.
pub struct ReuseIndex {
    shards: Vec<Mutex<Shard>>,
    mem: Option<MemAccountant>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl ReuseIndex {
    /// An index sharded over `places` (≥ 1), without memory accounting.
    pub fn new(places: usize) -> Self {
        ReuseIndex::build(places, None)
    }

    /// An index whose retained bytes are charged to [`MemClass::Memo`] on
    /// `mem`, and dropped LRU-first whenever the owning place exceeds the
    /// accountant's budget.
    pub fn governed(places: usize, mem: MemAccountant) -> Self {
        ReuseIndex::build(places, Some(mem))
    }

    fn build(places: usize, mem: Option<MemAccountant>) -> Self {
        let places = places.max(1);
        ReuseIndex {
            shards: (0..places).map(|_| Mutex::new(Shard::default())).collect(),
            mem,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The place a fingerprint's entries live on.
    pub fn place_of(&self, fp: Fingerprint) -> usize {
        (fp.value() % self.shards.len() as u64) as usize
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn grow(&self, place: usize, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(mem) = &self.mem {
            mem.grow(place, MemClass::Memo, bytes);
        }
    }

    fn shrink(&self, place: usize, bytes: u64) {
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        if let Some(mem) = &self.mem {
            mem.shrink(place, MemClass::Memo, bytes);
        }
    }

    /// True when `inputs` still matches the live filesystem.
    fn still_valid(fs: &dyn FileSystem, inputs: &[(HPath, u64)]) -> bool {
        inputs
            .iter()
            .all(|(p, v)| fs.content_version(p) == Some(*v))
    }

    /// Record a finished job's retained output under `fp`.
    pub fn record_full(
        &self,
        fp: Fingerprint,
        inputs: Vec<(HPath, u64)>,
        parts: Vec<(String, Bytes)>,
        counters: Counters,
    ) {
        let place = self.place_of(fp);
        let bytes: u64 = parts
            .iter()
            .map(|(n, b)| n.len() as u64 + b.len() as u64)
            .sum();
        let entry = FullEntry {
            inputs,
            hit: FullHit { parts, counters },
            bytes,
            tick: self.tick(),
        };
        let evicted = {
            let mut shard = self.shards[place].lock();
            if let Some(old) = shard.full.insert(fp.value(), entry) {
                self.shrink(place, old.bytes);
            }
            self.grow(place, bytes);
            self.enforce_budget(place, &mut shard)
        };
        self.note_evicted(place, evicted);
    }

    /// Record a finished map phase's reduce-input partitions under the
    /// map-prefix fingerprint `fp`. `data` is the engine's typed partition
    /// set; `bytes` its accountable size; `counters` the map-side counters
    /// the replayed job must still report.
    pub fn record_map(
        &self,
        fp: Fingerprint,
        inputs: Vec<(HPath, u64)>,
        data: Arc<dyn Any + Send + Sync>,
        counters: Counters,
        bytes: u64,
    ) {
        let place = self.place_of(fp);
        let entry = MapEntry {
            inputs,
            data,
            counters,
            bytes,
            tick: self.tick(),
        };
        let evicted = {
            let mut shard = self.shards[place].lock();
            if let Some(old) = shard.map.insert(fp.value(), entry) {
                self.shrink(place, old.bytes);
            }
            self.grow(place, bytes);
            self.enforce_budget(place, &mut shard)
        };
        self.note_evicted(place, evicted);
    }

    /// Look up a whole-job entry. Verifies the recorded input versions
    /// against `fs`: a stale entry is removed (counted as an invalidation)
    /// and the lookup misses. Counts a hit and refreshes LRU on success.
    /// Does **not** count a miss — the engine decides when the overall
    /// attempt (full, then map-prefix) has missed; see [`Self::note_miss`].
    pub fn lookup_full(&self, fp: Fingerprint, fs: &dyn FileSystem) -> Option<FullHit> {
        let place = self.place_of(fp);
        let mut shard = self.shards[place].lock();
        let entry = shard.full.get_mut(&fp.value())?;
        if !Self::still_valid(fs, &entry.inputs) {
            let dead = shard.full.remove(&fp.value()).expect("present above");
            drop(shard);
            self.shrink(place, dead.bytes);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        entry.tick = self.tick();
        let hit = entry.hit.clone();
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Look up a map-phase entry and downcast its partition set to the
    /// engine's concrete type. Verification, invalidation, hit counting and
    /// LRU refresh behave exactly as [`Self::lookup_full`]. A `T` mismatch
    /// (same fingerprint, different engine-side representation — cannot
    /// happen while the engine name is in the fingerprint) is treated as
    /// absent rather than a panic.
    pub fn lookup_map<T: Send + Sync + 'static>(
        &self,
        fp: Fingerprint,
        fs: &dyn FileSystem,
    ) -> Option<(Arc<T>, Counters)> {
        let place = self.place_of(fp);
        let mut shard = self.shards[place].lock();
        let entry = shard.map.get_mut(&fp.value())?;
        if !Self::still_valid(fs, &entry.inputs) {
            let dead = shard.map.remove(&fp.value()).expect("present above");
            drop(shard);
            self.shrink(place, dead.bytes);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let data = Arc::clone(&entry.data).downcast::<T>().ok()?;
        entry.tick = self.tick();
        let counters = entry.counters.clone();
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((data, counters))
    }

    /// Count one memo miss. Called once per eligible job whose full *and*
    /// map-prefix lookups both came up empty, so hit + miss counts equal
    /// the number of eligible submissions (deterministic for the bench
    /// invariants).
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop LRU entries on `place` until it fits the accountant's budget
    /// again (or no memo entries remain there). Returns the dropped bytes.
    fn enforce_budget(&self, place: usize, shard: &mut Shard) -> u64 {
        let Some(mem) = &self.mem else { return 0 };
        let Some(budget) = mem.budget() else { return 0 };
        let mut dropped = 0u64;
        while mem.live(place) > budget {
            let oldest_full = shard.full.iter().min_by_key(|(_, e)| e.tick);
            let oldest_map = shard.map.iter().min_by_key(|(_, e)| e.tick);
            let victim = match (oldest_full, oldest_map) {
                (Some((fk, fe)), Some((mk, me))) => {
                    if fe.tick <= me.tick {
                        Ok(*fk)
                    } else {
                        Err(*mk)
                    }
                }
                (Some((fk, _)), None) => Ok(*fk),
                (None, Some((mk, _))) => Err(*mk),
                (None, None) => break,
            };
            let bytes = match victim {
                Ok(k) => shard.full.remove(&k).expect("chosen above").bytes,
                Err(k) => shard.map.remove(&k).expect("chosen above").bytes,
            };
            self.shrink(place, bytes);
            dropped += bytes;
        }
        dropped
    }

    fn note_evicted(&self, place: usize, dropped: u64) {
        if dropped > 0 {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(mem) = &self.mem {
                // Dropped, not spilled: zero spill bytes.
                mem.note_eviction(place, 0);
            }
        }
    }

    /// Whole-job + map-prefix hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Eligible submissions that found nothing reusable.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries removed because an input's content version changed.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Budget-pressure eviction rounds (entries dropped, never spilled).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Retained bytes currently live across all places.
    pub fn bytes_live(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Retained entry count `(full, map)` — for tests and reports.
    pub fn entry_counts(&self) -> (usize, usize) {
        let mut full = 0;
        let mut map = 0;
        for s in &self.shards {
            let s = s.lock();
            full += s.full.len();
            map += s.map.len();
        }
        (full, map)
    }

    /// Register the subsystem's telemetry source:
    /// `m3r_memo_{hits,misses,invalidations,bytes}_total`, read from the
    /// index's own tallies at export time.
    pub fn publish_telemetry(self: &Arc<Self>, registry: &TelemetryRegistry) {
        let me = Arc::clone(self);
        let source = move || {
            let scalar = |name, help, v: u64| {
                let mut f = Family::new(Kind::Counter, name, help);
                f.sample(&[], v as f64);
                f
            };
            vec![
                scalar(
                    "m3r_memo_hits_total",
                    "Cross-job memo hits (whole-job + map-prefix) served",
                    me.hits(),
                ),
                scalar(
                    "m3r_memo_misses_total",
                    "Eligible submissions with no reusable memo entry",
                    me.misses(),
                ),
                scalar(
                    "m3r_memo_invalidations_total",
                    "Memo entries dropped because an input's content version changed",
                    me.invalidations(),
                ),
                scalar(
                    "m3r_memo_bytes_total",
                    "Bytes retained in the cross-job memo index",
                    me.bytes_live(),
                ),
            ]
        };
        registry.register("memo", Arc::new(source));
    }

    /// A human-readable accountant-style section for `--bin report`.
    pub fn report_section(&self) -> String {
        let (full, map) = self.entry_counts();
        let hits = self.hits();
        let misses = self.misses();
        let rate = if hits + misses > 0 {
            100.0 * hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let mut s = String::new();
        s.push_str("cross-job memoization (m3r-memo)\n");
        s.push_str(&format!(
            "  entries: {full} full, {map} map-prefix  ({} bytes retained)\n",
            self.bytes_live()
        ));
        s.push_str(&format!(
            "  hits: {hits}  misses: {misses}  hit rate: {rate:.1}%\n",
        ));
        s.push_str(&format!(
            "  invalidations: {}  evictions: {}\n",
            self.invalidations(),
            self.evictions()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBasis;
    use hmr_api::conf::JobConf;
    use hmr_api::fs::{write_file, MemFs};
    use hmr_api::job::ComputeIdentity;

    fn fp_for(fs: &MemFs, input: &str, mapper: &str) -> (Fingerprint, Vec<(HPath, u64)>) {
        let mut conf = JobConf::new();
        conf.set_input_paths(&[HPath::new(input)])
            .set_num_reduce_tasks(2);
        let id = ComputeIdentity::new(mapper, "r");
        let basis = FingerprintBasis::gather(fs, &conf, &id, "m3r", &[]).unwrap();
        (basis.job_fingerprint(), basis.input_versions().to_vec())
    }

    fn part(bytes: &[u8]) -> Vec<(String, Bytes)> {
        vec![("part-00000".to_string(), Bytes::from(bytes.to_vec()))]
    }

    #[test]
    fn record_hit_invalidate_cycle() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/in/a"), b"v1").unwrap();
        let idx = ReuseIndex::new(4);
        let (fp, inputs) = fp_for(&fs, "/in/a", "m");
        assert!(idx.lookup_full(fp, &fs).is_none());
        idx.record_full(fp, inputs, part(b"out"), Counters::new());
        let hit = idx.lookup_full(fp, &fs).expect("hit");
        assert_eq!(&hit.parts[0].1[..], b"out");
        assert_eq!(idx.hits(), 1);
        // Mutate the input: the entry invalidates on next lookup.
        fs.delete(&HPath::new("/in/a"), false).unwrap();
        write_file(&fs, &HPath::new("/in/a"), b"v2").unwrap();
        assert!(idx.lookup_full(fp, &fs).is_none());
        assert_eq!(idx.invalidations(), 1);
        assert_eq!(idx.entry_counts(), (0, 0));
        assert_eq!(idx.bytes_live(), 0);
    }

    #[test]
    fn governed_index_drops_lru_under_budget() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/in/a"), b"v1").unwrap();
        let mem = MemAccountant::new(1);
        mem.set_budget(Some(64));
        let idx = ReuseIndex::governed(1, mem.clone());
        let (fp1, inputs1) = fp_for(&fs, "/in/a", "m1");
        let (fp2, inputs2) = fp_for(&fs, "/in/a", "m2");
        idx.record_full(fp1, inputs1, part(&[1u8; 40]), Counters::new());
        // Touch fp1 so LRU order is observable, then overflow the budget.
        assert!(idx.lookup_full(fp1, &fs).is_some());
        idx.record_full(fp2, inputs2, part(&[2u8; 40]), Counters::new());
        // 50 + 50 accountable bytes > 64: the older entry (fp1) is dropped.
        assert_eq!(idx.evictions(), 1);
        assert!(idx.lookup_full(fp2, &fs).is_some(), "newest survives");
        assert!(idx.lookup_full(fp1, &fs).is_none(), "LRU victim dropped");
        assert_eq!(mem.live_class(0, MemClass::Memo), idx.bytes_live());
        assert!(mem.live(0) <= 64);
    }

    #[test]
    fn map_entries_downcast_and_verify() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/in/a"), b"v1").unwrap();
        let idx = ReuseIndex::new(2);
        let (fp, inputs) = fp_for(&fs, "/in/a", "m");
        let data: Arc<dyn Any + Send + Sync> = Arc::new(vec![(7usize, "x".to_string())]);
        let mut c = Counters::new();
        c.incr("m3r", "map_records", 5);
        idx.record_map(fp, inputs, data, c, 100);
        let (got, counters) = idx
            .lookup_map::<Vec<(usize, String)>>(fp, &fs)
            .expect("map hit");
        assert_eq!(got[0].0, 7);
        assert_eq!(counters.get("m3r", "map_records"), 5);
        // Wrong type: absent, not a panic.
        assert!(idx.lookup_map::<String>(fp, &fs).is_none());
    }
}
