//! Pluggable cache eviction policies for the memory-governance subsystem.
//!
//! The Hadoop caching survey and H-SVM-LRU (see PAPERS.md) both find the
//! replacement policy of a MapReduce cache to be a first-order performance
//! knob, so the governed cache in `m3r-core` takes its victim-selection
//! strategy through this small trait rather than hard-coding one.
//!
//! Entries are identified by opaque `u64` ids which the governor assigns
//! as **monotonic insertion ordinals**. That makes "tie-break on insertion
//! order" trivially available to every policy — the smaller id *is* the
//! older insertion — and keeps victim selection deterministic regardless
//! of wall clock, thread schedule or hash-map iteration order. Each
//! policy also keeps its own logical tick counter (bumped per event) so
//! recency is measured in cache events, never in wall-clock time.

use std::collections::HashMap;

/// Victim-selection strategy for a governed cache. One instance governs
/// one place; implementations need no interior thread-safety (the
/// governor serializes calls under its own lock) but must be `Send` so
/// the cache handle can cross threads.
pub trait EvictionPolicy: Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// A new entry of `bytes` bytes was admitted under `id`.
    fn on_insert(&mut self, id: u64, bytes: u64);

    /// The entry `id` was read. Unknown ids must be ignored.
    fn on_access(&mut self, id: u64);

    /// The entry `id` left the cache for a reason other than this
    /// policy's own choice (deleted, replaced, spilled). Unknown ids must
    /// be ignored.
    fn on_remove(&mut self, id: u64);

    /// Choose the next victim and forget it, or `None` when the policy
    /// tracks no entries. Ties break on insertion order (smallest id).
    fn victim(&mut self) -> Option<u64> {
        self.victim_from(&mut |_| true)
    }

    /// Like [`EvictionPolicy::victim`], but restricted to entries for which
    /// `allowed` returns true; the chosen entry is forgotten. The governed
    /// cache uses this for quota-priority eviction — "evict from the
    /// over-quota tenant first" — while preserving each policy's own
    /// ordering among the allowed entries.
    fn victim_from(&mut self, allowed: &mut dyn FnMut(u64) -> bool) -> Option<u64>;
}

/// Which built-in policy a governed cache should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used (the default).
    #[default]
    Lru,
    /// Least-frequently-used, ties to the older entry.
    Lfu,
    /// Cost-aware (GreedyDual-Size flavoured): weighs reload cost per
    /// byte against frequency, preferring to evict big, cold, cheap-to-
    /// reload entries first.
    CostAware,
}

impl PolicyKind {
    /// Construct a fresh instance of this policy.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::default()),
            PolicyKind::Lfu => Box::new(Lfu::default()),
            PolicyKind::CostAware => Box::new(CostAware::default()),
        }
    }

    /// Short name matching [`EvictionPolicy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::CostAware => "cost-aware",
        }
    }
}

/// Least-recently-used. Each insert/access stamps the entry with a fresh
/// logical tick; the victim is the smallest stamp. Stamps are unique, so
/// the scan order over the map cannot influence the choice.
#[derive(Debug, Default)]
pub struct Lru {
    tick: u64,
    last_touch: HashMap<u64, u64>,
}

impl Lru {
    fn touch(&mut self, id: u64) {
        self.tick += 1;
        self.last_touch.insert(id, self.tick);
    }
}

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_insert(&mut self, id: u64, _bytes: u64) {
        self.touch(id);
    }

    fn on_access(&mut self, id: u64) {
        if self.last_touch.contains_key(&id) {
            self.touch(id);
        }
    }

    fn on_remove(&mut self, id: u64) {
        self.last_touch.remove(&id);
    }

    fn victim_from(&mut self, allowed: &mut dyn FnMut(u64) -> bool) -> Option<u64> {
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

/// Least-frequently-used, ties broken toward the older (smaller) id.
#[derive(Debug, Default)]
pub struct Lfu {
    freq: HashMap<u64, u64>,
}

impl EvictionPolicy for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn on_insert(&mut self, id: u64, _bytes: u64) {
        self.freq.insert(id, 1);
    }

    fn on_access(&mut self, id: u64) {
        if let Some(f) = self.freq.get_mut(&id) {
            *f += 1;
        }
    }

    fn on_remove(&mut self, id: u64) {
        self.freq.remove(&id);
    }

    fn victim_from(&mut self, allowed: &mut dyn FnMut(u64) -> bool) -> Option<u64> {
        let id = self
            .freq
            .iter()
            .filter(|(id, _)| allowed(**id))
            .min_by_key(|(id, f)| (**f, **id))
            .map(|(id, _)| *id)?;
        self.freq.remove(&id);
        Some(id)
    }
}

/// Cost-aware policy in the GreedyDual-Size family: an entry's retention
/// value is `freq * (reload_cost / size)`, where reload cost is modelled
/// as a fixed per-entry overhead (`PER_ENTRY_COST`, the seek/metadata
/// part) plus its bytes (the bandwidth part). Big cold entries whose
/// reload is dominated by bandwidth score lowest and go first; small hot
/// entries whose reload is dominated by the fixed overhead are kept.
/// Scores are integer-scaled so no float comparisons sneak in; ties break
/// toward the older (smaller) id.
#[derive(Debug, Default)]
pub struct CostAware {
    entries: HashMap<u64, (u64, u64)>, // id -> (freq, bytes)
}

/// Modelled fixed reload overhead per entry, in byte-equivalents,
/// calibrated against the SimDfs cost model: reloading a spilled entry
/// pays one seek (`CostModel::disk_seek`, 5 ms) before streaming at
/// `CostModel::disk_bw` (80 MB/s), so the seek is worth
/// `5e-3 s × 80e6 B/s = 400_000` bytes of transfer. Entries smaller than
/// this are seek-dominated and worth keeping; larger ones are
/// bandwidth-dominated and go first.
const PER_ENTRY_COST: u64 = 400_000;

fn cost_score(freq: u64, bytes: u64) -> u128 {
    // freq * (bytes + C) / bytes, scaled by 1000 to keep precision.
    (freq as u128) * ((bytes + PER_ENTRY_COST) as u128) * 1000 / (bytes.max(1) as u128)
}

impl EvictionPolicy for CostAware {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn on_insert(&mut self, id: u64, bytes: u64) {
        self.entries.insert(id, (1, bytes));
    }

    fn on_access(&mut self, id: u64) {
        if let Some((f, _)) = self.entries.get_mut(&id) {
            *f += 1;
        }
    }

    fn on_remove(&mut self, id: u64) {
        self.entries.remove(&id);
    }

    fn victim_from(&mut self, allowed: &mut dyn FnMut(u64) -> bool) -> Option<u64> {
        let id = self
            .entries
            .iter()
            .filter(|(id, _)| allowed(**id))
            .min_by_key(|(id, (f, b))| (cost_score(*f, *b), **id))
            .map(|(id, _)| *id)?;
        self.entries.remove(&id);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut p = Lru::default();
        p.on_insert(1, 10);
        p.on_insert(2, 10);
        p.on_insert(3, 10);
        p.on_access(1); // 2 is now coldest
        assert_eq!(p.victim(), Some(2));
        assert_eq!(p.victim(), Some(3));
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn lfu_evicts_least_frequent_then_oldest() {
        let mut p = Lfu::default();
        p.on_insert(1, 10);
        p.on_insert(2, 10);
        p.on_insert(3, 10);
        p.on_access(2);
        p.on_access(2);
        p.on_access(3);
        // freq: 1->1, 2->3, 3->2; tie-free case first.
        assert_eq!(p.victim(), Some(1));
        assert_eq!(p.victim(), Some(3));
        // Equal frequencies tie toward the smaller (older) id.
        let mut q = Lfu::default();
        q.on_insert(7, 10);
        q.on_insert(8, 10);
        assert_eq!(q.victim(), Some(7));
    }

    #[test]
    fn cost_aware_prefers_big_cold_entries() {
        let mut p = CostAware::default();
        p.on_insert(1, 1 << 20); // big
        p.on_insert(2, 128); // tiny: reload dominated by fixed overhead
        assert_eq!(p.victim(), Some(1), "big entry is cheaper per byte to reload");
        // Frequency protects a big entry over an equally big cold one.
        let mut q = CostAware::default();
        q.on_insert(1, 1 << 20);
        q.on_insert(2, 1 << 20);
        q.on_access(1);
        assert_eq!(q.victim(), Some(2));
    }

    #[test]
    fn victim_from_respects_the_filter_and_the_policy_order() {
        for kind in [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::CostAware] {
            let mut p = kind.build();
            p.on_insert(1, 10);
            p.on_insert(2, 10);
            p.on_insert(3, 10);
            // Restricted to {2, 3}, every policy picks 2 first (coldest /
            // least frequent / oldest among equals).
            assert_eq!(
                p.victim_from(&mut |id| id != 1),
                Some(2),
                "{}",
                kind.name()
            );
            // The chosen entry is forgotten; the filter still applies.
            assert_eq!(p.victim_from(&mut |id| id != 1), Some(3), "{}", kind.name());
            assert_eq!(p.victim_from(&mut |id| id != 1), None, "{}", kind.name());
            // Entry 1 remains for the unrestricted path.
            assert_eq!(p.victim(), Some(1), "{}", kind.name());
        }
    }

    #[test]
    fn removed_entries_are_never_victims() {
        for kind in [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::CostAware] {
            let mut p = kind.build();
            p.on_insert(1, 10);
            p.on_insert(2, 10);
            p.on_remove(1);
            p.on_access(99); // unknown id: ignored
            assert_eq!(p.victim(), Some(2), "{}", kind.name());
            assert_eq!(p.victim(), None, "{}", kind.name());
        }
    }
}
