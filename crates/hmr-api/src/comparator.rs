//! User-specified sorting and grouping comparators, and the reduce-ingest
//! kernels built on them.
//!
//! The HMR APIs supported by M3R include "user-specified sorting and
//! grouping comparators" (§1). The *sort* comparator orders the reduce
//! input; the *grouping* comparator decides which adjacent keys share one
//! `reduce()` call (secondary-sort idiom).
//!
//! Beyond the comparators themselves this module holds the engine-shared
//! hot-path kernels the `e2e` probes `hmr-api.sort_ns_per_rec` and
//! `hmr-api.group_ns_per_rec` measure:
//!
//! * [`sort_pairs_tuned`] — raw-key LSD radix prefix sort for runs past
//!   one size threshold ([`RAW_SORT_MIN_PAIRS`]);
//! * [`group_spans`] — adjacent grouping over sorted runs;
//! * [`ingest_reduce_groups`] — reduce ingest on both engines: the sort,
//!   then the span scan;
//! * [`RawKeyIndex`] — the hash-group kernel: interns raw sort keys one
//!   record at a time (`raw bytes → group id`) and lays the groups out in
//!   ascending key order, sorting only the G distinct keys instead of all
//!   N records. The M3R map output buffer feeds it at `collect()` time.
//!
//! Every kernel is pinned bit-identical to the plain stable
//! sort-then-group path: same permutation, same spans, regardless of which
//! fast path engages. The kernels order `(Arc<K>, V)` entries by key alone
//! and only move the payload `V`: reduce ingest carries the decoded
//! `Arc<value>`, the Hadoop map-side sort buffer a byte span.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use crate::writable::Writable;

/// A total order over keys, shareable across tasks and places.
#[derive(Clone)]
pub struct KeyComparator<K> {
    cmp: Arc<dyn Fn(&K, &K) -> Ordering + Send + Sync>,
    /// True only for [`KeyComparator::natural`]: the order is the key
    /// type's `Ord`, which licenses the raw-key (memcmp) sort fast path
    /// for types whose serialized sort form preserves that order. Custom
    /// and reversed comparators must go through the decoded compare.
    natural_order: bool,
}

impl<K> KeyComparator<K> {
    /// Wrap an arbitrary comparison function.
    pub fn new(f: impl Fn(&K, &K) -> Ordering + Send + Sync + 'static) -> Self {
        KeyComparator {
            cmp: Arc::new(f),
            natural_order: false,
        }
    }

    /// Compare two keys.
    pub fn compare(&self, a: &K, b: &K) -> Ordering {
        (self.cmp)(a, b)
    }

    /// Keys equal under this comparator (used for grouping).
    pub fn same_group(&self, a: &K, b: &K) -> bool {
        self.compare(a, b) == Ordering::Equal
    }

    /// True when this comparator is the key type's natural order, making
    /// the raw-key sort fast path legal (see [`sort_pairs_tuned`]).
    pub fn is_natural(&self) -> bool {
        self.natural_order
    }
}

impl<K: Ord> KeyComparator<K> {
    /// The key type's natural order — Hadoop's `WritableComparable` default.
    pub fn natural() -> Self {
        KeyComparator {
            cmp: Arc::new(|a: &K, b: &K| a.cmp(b)),
            natural_order: true,
        }
    }

    /// Natural order reversed (descending sort).
    pub fn reversed() -> Self {
        KeyComparator::new(|a: &K, b: &K| b.cmp(a))
    }
}

impl<K> std::fmt::Debug for KeyComparator<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyComparator<{}>", std::any::type_name::<K>())
    }
}

/// Raw sort keys for a run of keys, packed into caller-provided buffers
/// (Hadoop's `RawComparator` design: sort serialized forms with memcmp,
/// never deserialize to compare). Key `i`'s raw form is
/// `bytes[spans[i].0 as usize..spans[i].1 as usize]`. Returns `false` if
/// any key lacks a memcmp-ordered raw form via
/// [`Writable::write_raw_sort_key`], or if the raw forms outgrow the `u32`
/// offsets the spans store; the buffers may then hold partial data and
/// should be discarded.
fn build_raw_keys_into<'a, K: Writable + 'a>(
    keys: impl Iterator<Item = &'a K>,
    bytes: &mut Vec<u8>,
    spans: &mut Vec<(u32, u32)>,
) -> bool {
    for key in keys {
        let start = bytes.len();
        if !key.write_raw_sort_key(bytes) {
            return false;
        }
        let (Ok(start), Ok(end)) = (u32::try_from(start), u32::try_from(bytes.len())) else {
            return false;
        };
        spans.push((start, end));
    }
    true
}

/// The one sort threshold ([`SortTuning::raw_min_pairs`]' default):
/// below this many pairs the decoded comparator sort runs; at or above it
/// the raw-key pipeline does — key bytes, `u64` prefixes, LSD radix over
/// the prefixes, full-raw fix-up on prefix ties.
///
/// Derived from the crossover tables in DESIGN.md, "Byte path" ("Sort
/// threshold crossovers"): for byte-string keys whose first eight bytes
/// discriminate (the shape the raw path exists for) the pipeline beats the
/// decoded stable sort ×2.0 at 1 024 pairs and ×2.5 at 4 096, and the radix
/// passes beat a comparison sort of the same prefixes at every size the raw
/// path runs (×1.3–2.3 from 1 024 pairs up), which is why there is no
/// second "raw but not radix" threshold. Two caveats keep small runs on the
/// decoded path: keys whose decoded compare is register-cheap (fixed-width
/// ints) do not repay the raw-key build on a few hundred pairs, and keys
/// sharing a long common prefix degrade to the full-raw fix-up.
pub const RAW_SORT_MIN_PAIRS: usize = 1024;

/// The sort threshold the kernels read. Engines always pass the default
/// ([`RAW_SORT_MIN_PAIRS`]); tests set it to force one sort path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortTuning {
    /// Minimum pairs (or, for [`RawKeyIndex::layout`], distinct groups)
    /// before the raw-key radix sort path engages.
    pub raw_min_pairs: usize,
}

impl Default for SortTuning {
    fn default() -> Self {
        SortTuning {
            raw_min_pairs: RAW_SORT_MIN_PAIRS,
        }
    }
}

/// The type of the trailing argument of [`sort_pairs_tuned`] and
/// [`ingest_reduce_groups`]. It has no values, so that argument is always
/// `None`: every kernel allocates its scratch (raw keys, spans,
/// permutation, radix buffers, index tables) itself and frees it when it
/// returns. The argument is kept so that callers written against the form
/// that took a shared scratch arena still compile.
#[derive(Debug)]
pub enum NoArena {}

/// Sort `pairs` by key under `cmp`, stably — matching Hadoop, where equal
/// keys keep their shuffle arrival order within a partition — with
/// explicit tuning.
///
/// When `cmp` is the natural order, the run has at least
/// `tuning.raw_min_pairs` pairs and the key type has a memcmp-ordered raw
/// form, sorting orders cached raw-key prefixes by LSD radix (8-bit digits,
/// constant-digit passes skipped) with a stable full-raw fix-up over
/// equal-prefix runs — the exact permutation a stable comparator sort would
/// produce, without a boxed comparator call per comparison. Smaller runs,
/// custom sort comparators and keys without a raw form take the decoded
/// stable sort.
pub fn sort_pairs_tuned<K: Writable, V>(
    pairs: &mut [(Arc<K>, V)],
    cmp: &KeyComparator<K>,
    tuning: &SortTuning,
    _: Option<&NoArena>,
) {
    // (Record indices are stored as `u32`; a longer run takes the fallback.)
    if cmp.is_natural() && pairs.len() >= tuning.raw_min_pairs && u32::try_from(pairs.len()).is_ok()
    {
        let mut bytes = Vec::new();
        let mut spans = Vec::with_capacity(pairs.len());
        if build_raw_keys_into(pairs.iter().map(|(k, _)| &**k), &mut bytes, &mut spans) {
            let raw = |i: u32| {
                let (s, e) = spans[i as usize];
                &bytes[s as usize..e as usize]
            };
            let mut order: Vec<(u64, u32)> =
                (0..pairs.len() as u32).map(|i| (raw_prefix(raw(i)), i)).collect();
            radix_sort_by_raw(&mut order, raw);
            let mut perm: Vec<u32> = order.iter().map(|&(_, i)| i).collect();
            apply_permutation(pairs, &mut perm);
            return;
        }
    }
    pairs.sort_by(|a, b| cmp.compare(&a.0, &b.0));
}

/// Order `(prefix, index)` entries — built in ascending index — by
/// (prefix, full raw form, index), the permutation of a stable sort by raw
/// key. The big-endian first-8-bytes prefix is ordered by
/// [`radix_sort_prefixes`] without touching the key bytes; zero-padding can
/// only produce false *equality* (never a false order), and the radix
/// passes are stable, so entries within an equal-prefix run still sit in
/// ascending index and a *stable* sort of each such run by the full raw
/// form alone finishes the order.
fn radix_sort_by_raw<'a>(entries: &mut Vec<(u64, u32)>, raw: impl Fn(u32) -> &'a [u8]) {
    radix_sort_prefixes(entries);
    let mut i = 0;
    while i < entries.len() {
        let mut j = i + 1;
        while j < entries.len() && entries[j].0 == entries[i].0 {
            j += 1;
        }
        if j - i > 1 {
            entries[i..j].sort_by(|a, b| raw(a.1).cmp(raw(b.1)));
        }
        i = j;
    }
}

/// LSD radix sort of `(prefix, index)` entries by the u64 prefix, least
/// significant byte first. One scan builds all eight digit histograms;
/// passes whose digit is constant across every entry are skipped (common
/// for short or low-entropy keys), and the ping-pong buffer is only
/// allocated once a pass runs. Counting passes are stable, so equal
/// prefixes keep their original (index-ascending) order.
fn radix_sort_prefixes(entries: &mut Vec<(u64, u32)>) {
    let n = entries.len();
    if n < 2 {
        return;
    }
    let mut hist = [[0u32; 256]; 8];
    for &(p, _) in entries.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[((p >> (8 * d)) & 0xff) as usize] += 1;
        }
    }
    let mut scratch = Vec::new();
    for (d, h) in hist.iter().enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue; // every entry shares this digit
        }
        scratch.resize(n, (0u64, 0u32));
        let mut offsets = [0u32; 256];
        let mut sum = 0u32;
        for (b, &c) in h.iter().enumerate() {
            offsets[b] = sum;
            sum += c;
        }
        for &(p, i) in entries.iter() {
            let b = ((p >> (8 * d)) & 0xff) as usize;
            scratch[offsets[b] as usize] = (p, i);
            offsets[b] += 1;
        }
        std::mem::swap(entries, &mut scratch);
    }
}

/// The first eight bytes of `key` as a big-endian integer, zero-padded.
/// `prefix(a) < prefix(b)` implies `a < b`; equality must be re-checked on
/// the full slices.
fn raw_prefix(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Reorder `items` so position `i` holds the old `items[order[i]]`, by
/// walking the permutation's cycles with swaps — no clones, so element
/// types with refcounts (`Arc` pairs) pay plain 16-byte moves instead of
/// four atomic ops apiece. The permutation doubles as the visited set:
/// every placed position is rewritten to point at itself, so `order` is
/// the identity on return.
pub fn apply_permutation<T>(items: &mut [T], order: &mut [u32]) {
    for start in 0..order.len() {
        let mut prev = start;
        let mut cur = std::mem::replace(&mut order[start], start as u32) as usize;
        while cur != start {
            items.swap(prev, cur);
            prev = cur;
            cur = std::mem::replace(&mut order[cur], cur as u32) as usize;
        }
    }
}

/// Group adjacent sorted pairs by `grouping`: yields `(first_key_of_group,
/// values...)` ranges as index spans.
pub fn group_spans<K, V>(
    pairs: &[(Arc<K>, V)],
    grouping: &KeyComparator<K>,
) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for i in 1..pairs.len() {
        if !grouping.same_group(&pairs[i - 1].0, &pairs[i].0) {
            spans.push(start..i);
            start = i;
        }
    }
    if !pairs.is_empty() {
        spans.push(start..pairs.len());
    }
    spans
}

/// FNV-1a over a byte slice. The hash-group drain order never depends on
/// this hash (it sorts the group representatives by raw bytes), so any
/// function works — FNV keeps the kernel dependency-free and branch-free.
/// Public because the `m3r-memo` fingerprint subsystem reuses the same
/// kernel (content versions and job fingerprints hash through it).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming [`fnv1a`]: fold `bytes` into a running hash `state`, so
/// `fnv1a_continue(fnv1a(a), b) == fnv1a(a ++ b)`. Lets a multi-block file
/// be hashed block by block without stitching its bytes together.
#[inline]
pub fn fnv1a_continue(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Upper 32 bits of a [`RawKeyIndex`] slot: the hash tag.
const SLOT_TAG: u64 = 0xffff_ffff_0000_0000;
/// Slots a fresh [`RawKeyIndex`] starts with when no size is known.
const MIN_SLOTS: usize = 64;

/// The hash-group kernel: an incremental intern index from raw sort keys
/// to dense group ids. Records are interned one at a time in arrival
/// order; a key seen before maps to its group's id and leaves nothing
/// behind, a new key founds the next group and its raw bytes are kept
/// once. The open-addressing table (linear probing, raw-byte equality
/// behind a 32-bit hash tag) grows with the number of *groups*, so a
/// duplicate-heavy stream of N records costs O(G) memory beyond the
/// per-record group id.
///
/// [`RawKeyIndex::layout`] then orders the G group representatives by raw
/// bytes and derives the record permutation of a stable sort followed by
/// [`group_spans`] — without ever sorting the N records.
///
/// Legality is the caller's: raw-key equality must be the grouping
/// relation and ascending raw order the observable output order, i.e.
/// both the sort and the grouping comparator are the natural order.
///
/// Offsets, group ids and record indices are stored as `u32`; an intern
/// that would not fit is declined (`None`) rather than truncated, and the
/// caller falls back to the sort path.
pub struct RawKeyIndex {
    /// `hash tag << 32 | gid + 1`; 0 is empty. Power-of-two length, at
    /// most half full.
    slots: Vec<u64>,
    /// Raw sort keys of the distinct groups, back to back.
    bytes: Vec<u8>,
    /// Group `g`'s raw key is `bytes[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// Group -> records interned into it.
    counts: Vec<u32>,
    /// Record (arrival order) -> group id.
    gid_of: Vec<u32>,
    /// Largest byte offset / record count accepted; `u32::MAX` outside
    /// tests.
    limit: usize,
}

/// The grouped arrangement of a [`RawKeyIndex`]'s records: groups in
/// ascending raw-key order, records of one group in arrival order.
pub struct GroupLayout {
    /// Group ids in ascending raw-key order.
    pub groups: Vec<u32>,
    /// Record count of each group, parallel to `groups`.
    pub counts: Vec<u32>,
    /// `records[p]` is the arrival index of the record at grouped
    /// position `p` — feed it to [`apply_permutation`].
    pub records: Vec<u32>,
}

impl RawKeyIndex {
    /// An index sized for about `expected_groups` distinct keys (it grows
    /// past that by doubling; an exact or over-estimate never rehashes).
    pub fn with_capacity(expected_groups: usize) -> Self {
        Self::with_limit(expected_groups, u32::MAX as usize)
    }

    fn with_limit(expected_groups: usize, limit: usize) -> Self {
        let cap = expected_groups
            .saturating_mul(2)
            .next_power_of_two()
            .max(MIN_SLOTS);
        RawKeyIndex {
            slots: vec![0; cap],
            bytes: Vec::new(),
            offsets: vec![0],
            counts: Vec::new(),
            gid_of: Vec::new(),
            limit,
        }
    }

    /// Distinct keys interned so far.
    pub fn groups(&self) -> usize {
        self.counts.len()
    }

    /// Records interned so far.
    pub fn records(&self) -> usize {
        self.gid_of.len()
    }

    /// The group id of every record, in arrival order.
    pub fn gid_of(&self) -> &[u32] {
        &self.gid_of
    }

    /// Group `g`'s raw sort key.
    pub fn raw(&self, g: u32) -> &[u8] {
        let g = g as usize;
        &self.bytes[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Intern the next record's key. Returns its group id and whether the
    /// record founded that group, or `None` — leaving the index exactly as
    /// it was — when the key has no raw sort form or the index is full
    /// (`u32` offsets / indices would wrap).
    pub fn intern<K: Writable>(&mut self, key: &K) -> Option<(u32, bool)> {
        let start = self.bytes.len();
        if self.gid_of.len() >= self.limit || !key.write_raw_sort_key(&mut self.bytes) {
            self.bytes.truncate(start);
            return None;
        }
        // The candidate sits at the byte buffer's tail: hash and compare it in
        // place, keep it only if it founds a group.
        let hash = fnv1a(&self.bytes[start..]);
        let tag = hash & SLOT_TAG;
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let probe = self.slots[slot];
            if probe == 0 {
                break;
            }
            if probe & SLOT_TAG == tag {
                let g = probe as u32 - 1;
                if self.raw(g) == &self.bytes[start..] {
                    self.bytes.truncate(start);
                    self.counts[g as usize] += 1;
                    self.gid_of.push(g);
                    return Some((g, false));
                }
            }
            slot = (slot + 1) & mask;
        }
        if self.bytes.len() > self.limit {
            self.bytes.truncate(start);
            return None;
        }
        let g = self.counts.len() as u32;
        self.slots[slot] = tag | (u64::from(g) + 1);
        self.offsets.push(self.bytes.len() as u32);
        self.counts.push(1);
        self.gid_of.push(g);
        if self.counts.len() * 2 > self.slots.len() {
            self.grow();
        }
        Some((g, true))
    }

    /// Double the table and re-place every group (hashes are recomputed
    /// from the kept raw bytes — G of them, amortized O(1) per group).
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(cap, 0);
        let mask = cap - 1;
        for g in 0..self.counts.len() as u32 {
            let hash = fnv1a(self.raw(g));
            let mut slot = hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (hash & SLOT_TAG) | (u64::from(g) + 1);
        }
    }

    /// Lay the interned records out grouped: groups in ascending raw-key
    /// order — the order the sorted path would emit — and each group's
    /// records in arrival order, exactly what the *stable* sort
    /// guarantees.
    ///
    /// Representatives are ordered as cached `(prefix, gid)` entries so
    /// the common case is a register compare; the full raw form breaks
    /// prefix ties only (zero-padding can only produce false equality, and
    /// identical raw keys are by construction the same group, so no
    /// further tie-break is needed). At or above `tuning.raw_min_pairs`
    /// groups the reps take the same radix pass the raw sort path uses —
    /// only G entries wide, which is the whole advantage of grouping by
    /// hash; fewer are comparison-sorted.
    pub fn layout(&self, tuning: &SortTuning) -> GroupLayout {
        let groups = self.groups();
        let mut group_order: Vec<(u64, u32)> =
            (0..groups as u32).map(|g| (raw_prefix(self.raw(g)), g)).collect();
        if groups >= tuning.raw_min_pairs {
            radix_sort_by_raw(&mut group_order, |g| self.raw(g));
        } else {
            group_order.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0).then_with(|| self.raw(a.1).cmp(self.raw(b.1)))
            });
        }
        let mut layout = GroupLayout {
            groups: Vec::with_capacity(groups),
            counts: Vec::with_capacity(groups),
            records: vec![0; self.records()],
        };
        let mut offset = vec![0u32; groups]; // group -> next free position
        let mut cursor = 0u32;
        for &(_, g) in &group_order {
            offset[g as usize] = cursor;
            let c = self.counts[g as usize];
            layout.groups.push(g);
            layout.counts.push(c);
            cursor += c;
        }
        // Counting scatter in arrival order: each group's positions fill
        // front-to-back.
        for (i, &g) in self.gid_of.iter().enumerate() {
            let at = &mut offset[g as usize];
            layout.records[*at as usize] = i as u32;
            *at += 1;
        }
        layout
    }
}

/// The reduce-ingest entry point both engines share: stable-sort `pairs`
/// under `sort_cmp` ([`sort_pairs_tuned`]) and return the spans of
/// adjacent keys `group_cmp` calls equal ([`group_spans`]).
pub fn ingest_reduce_groups<K: Writable, V>(
    pairs: &mut [(Arc<K>, V)],
    sort_cmp: &KeyComparator<K>,
    group_cmp: &KeyComparator<K>,
    tuning: &SortTuning,
    _: Option<&NoArena>,
) -> Vec<Range<usize>> {
    sort_pairs_tuned(pairs, sort_cmp, tuning, None);
    group_spans(pairs, group_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writable::{IntWritable, LongWritable, PairWritable, Text};

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Tunings that force one specific path each.
    fn radix_tuning() -> SortTuning {
        SortTuning { raw_min_pairs: 1 }
    }
    fn decoded_tuning() -> SortTuning {
        SortTuning { raw_min_pairs: usize::MAX }
    }

    /// Group a whole run through a [`RawKeyIndex`], as the collect-time
    /// grouper does record by record: intern every key, lay the groups
    /// out and permute `pairs` into that layout. Returns the group spans,
    /// or `None` — leaving `pairs` in arrival order — when the index
    /// declines a key.
    fn group_by_index<K: Writable, V>(
        pairs: &mut [(Arc<K>, V)],
        tuning: &SortTuning,
    ) -> Option<Vec<Range<usize>>> {
        let mut index = RawKeyIndex::with_capacity(pairs.len());
        if pairs.iter().any(|(k, _)| index.intern(&**k).is_none()) {
            return None;
        }
        let mut layout = index.layout(tuning);
        let mut spans = Vec::with_capacity(layout.counts.len());
        let mut cursor = 0usize;
        for &c in &layout.counts {
            spans.push(cursor..cursor + c as usize);
            cursor += c as usize;
        }
        apply_permutation(pairs, &mut layout.records);
        Some(spans)
    }

    /// [`sort_pairs_tuned`] under the default tuning.
    fn sort_pairs_by<K: Writable, V>(pairs: &mut [(Arc<K>, Arc<V>)], cmp: &KeyComparator<K>) {
        sort_pairs_tuned(pairs, cmp, &SortTuning::default(), None);
    }

    fn flat<K: Clone, V: Clone>(pairs: &[(Arc<K>, Arc<V>)]) -> Vec<(K, V)> {
        pairs.iter().map(|(k, v)| ((**k).clone(), (**v).clone())).collect()
    }

    fn kv(k: i32, v: &str) -> (Arc<IntWritable>, Arc<Text>) {
        (Arc::new(IntWritable(k)), Arc::new(Text::from(v)))
    }

    #[test]
    fn natural_and_reversed_orders() {
        let nat = KeyComparator::<IntWritable>::natural();
        let rev = KeyComparator::<IntWritable>::reversed();
        assert_eq!(nat.compare(&IntWritable(1), &IntWritable(2)), Ordering::Less);
        assert_eq!(rev.compare(&IntWritable(1), &IntWritable(2)), Ordering::Greater);
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let mut pairs = vec![kv(2, "a"), kv(1, "b"), kv(2, "c"), kv(1, "d")];
        sort_pairs_by(&mut pairs, &KeyComparator::natural());
        let flat: Vec<(i32, String)> = pairs
            .iter()
            .map(|(k, v)| (k.0, v.as_str().to_string()))
            .collect();
        assert_eq!(
            flat,
            vec![
                (1, "b".into()),
                (1, "d".into()),
                (2, "a".into()),
                (2, "c".into())
            ]
        );
    }

    #[test]
    fn group_spans_partition_sorted_input() {
        let mut pairs = vec![kv(1, "a"), kv(1, "b"), kv(2, "c"), kv(3, "d"), kv(3, "e")];
        sort_pairs_by(&mut pairs, &KeyComparator::natural());
        let spans = group_spans(&pairs, &KeyComparator::natural());
        assert_eq!(spans, vec![0..2, 2..3, 3..5]);
    }

    #[test]
    fn group_spans_empty_input() {
        let pairs: Vec<(Arc<IntWritable>, Arc<Text>)> = Vec::new();
        assert!(group_spans(&pairs, &KeyComparator::natural()).is_empty());
    }

    #[test]
    fn secondary_sort_idiom() {
        // Sort by (primary, secondary) but group by primary only: each
        // reduce group sees its values ordered by the secondary key.
        type K = PairWritable<IntWritable, IntWritable>;
        let sort = KeyComparator::<K>::natural();
        let group = KeyComparator::<K>::new(|a: &K, b: &K| a.0.cmp(&b.0));
        let mk = |p: i32, s: i32| {
            (
                Arc::new(PairWritable(IntWritable(p), IntWritable(s))),
                Arc::new(Text::from(format!("{p}/{s}"))),
            )
        };
        let mut pairs = vec![mk(1, 9), mk(2, 1), mk(1, 3), mk(2, 0), mk(1, 5)];
        sort_pairs_by(&mut pairs, &sort);
        let spans = group_spans(&pairs, &group);
        assert_eq!(spans.len(), 2, "grouped by primary key only");
        let first_group: Vec<i32> = pairs[spans[0].clone()]
            .iter()
            .map(|(k, _)| k.1 .0)
            .collect();
        assert_eq!(first_group, vec![3, 5, 9], "secondary order inside group");
    }

    #[test]
    fn radix_and_decoded_sorts_agree_on_longs() {
        // Sizes straddle the default threshold; keys carry heavy
        // duplicates (so stability is observable through the values) and
        // negative values (so the sign-flip raw encoding is exercised).
        for n in [2usize, 512, 1023, 1024, 4095, 4096, 10_000] {
            let mut seed = 0x5eed ^ n as u64;
            let base: Vec<(Arc<LongWritable>, Arc<IntWritable>)> = (0..n)
                .map(|i| {
                    (
                        Arc::new(LongWritable((lcg(&mut seed) % 97) as i64 - 48)),
                        Arc::new(IntWritable(i as i32)),
                    )
                })
                .collect();
            let nat = KeyComparator::natural();
            let mut radix = base.clone();
            sort_pairs_tuned(&mut radix, &nat, &radix_tuning(), None);
            let mut dec = base;
            sort_pairs_tuned(&mut dec, &nat, &decoded_tuning(), None);
            assert_eq!(flat(&radix), flat(&dec), "radix vs decoded stable, n={n}");
        }
    }

    #[test]
    fn radix_handles_shared_prefixes_and_variable_lengths() {
        // Text keys whose first 8 bytes collide (radix skips every pass,
        // the full-raw fix-up does all the work) mixed with short keys.
        let mut seed = 77u64;
        let base: Vec<(Arc<Text>, Arc<IntWritable>)> = (0..3000)
            .map(|i| {
                let k = match lcg(&mut seed) % 3 {
                    0 => format!("sharedprefix-{:03}", lcg(&mut seed) % 40),
                    1 => format!("{}", lcg(&mut seed) % 10),
                    _ => String::new(), // empty key: zero-length raw form
                };
                (Arc::new(Text::from(k)), Arc::new(IntWritable(i)))
            })
            .collect();
        let nat = KeyComparator::natural();
        let mut radix = base.clone();
        sort_pairs_tuned(&mut radix, &nat, &radix_tuning(), None);
        let mut dec = base;
        sort_pairs_tuned(&mut dec, &nat, &decoded_tuning(), None);
        assert_eq!(flat(&radix), flat(&dec));
    }

    #[test]
    fn index_grouping_matches_sort_then_group() {
        for n in [0usize, 1, 7, 1000, 5000] {
            let mut seed = 31 + n as u64;
            let base: Vec<(Arc<Text>, Arc<IntWritable>)> = (0..n)
                .map(|i| {
                    (
                        Arc::new(Text::from(format!("w{:02}", lcg(&mut seed) % 60))),
                        Arc::new(IntWritable(i as i32)),
                    )
                })
                .collect();
            let nat = KeyComparator::natural();
            let mut hashed = base.clone();
            let hspans =
                group_by_index(&mut hashed, &SortTuning::default()).expect("Text has raw keys");
            let mut sorted = base;
            sort_pairs_tuned(&mut sorted, &nat, &decoded_tuning(), None);
            let sspans = group_spans(&sorted, &nat);
            assert_eq!(flat(&hashed), flat(&sorted), "pair layout, n={n}");
            assert_eq!(hspans, sspans, "spans, n={n}");
        }
    }

    #[test]
    fn ingest_groups_by_the_grouping_comparator() {
        // Secondary sort: group by primary only, so one group holds keys
        // the sort comparator orders apart.
        type K = PairWritable<IntWritable, IntWritable>;
        let sort = KeyComparator::<K>::natural();
        let group = KeyComparator::<K>::new(|a: &K, b: &K| a.0.cmp(&b.0));
        let mk = |p: i32, s: i32| {
            (
                Arc::new(PairWritable(IntWritable(p), IntWritable(s))),
                Arc::new(Text::from(format!("{p}/{s}"))),
            )
        };
        let mut pairs = vec![mk(1, 9), mk(2, 1), mk(1, 3), mk(2, 0), mk(1, 5)];
        let spans = ingest_reduce_groups(&mut pairs, &sort, &group, &SortTuning::default(), None);
        assert_eq!(spans.len(), 2, "grouped by primary key only");
        let first: Vec<i32> = pairs[spans[0].clone()].iter().map(|(k, _)| k.1 .0).collect();
        assert_eq!(first, vec![3, 5, 9], "secondary order inside the group");
    }

    /// What a collect-time grouper does with the index: intern every key,
    /// keep the founding key of each group, then read the layout back as
    /// `(pairs in grouped order, spans)`.
    fn group_incrementally<K: Writable + Clone, V: Clone>(
        base: &[(Arc<K>, Arc<V>)],
        tuning: &SortTuning,
    ) -> (Vec<(K, V)>, Vec<Range<usize>>) {
        let mut index = RawKeyIndex::with_capacity(0);
        let mut keys: Vec<&Arc<K>> = Vec::new();
        for (k, _) in base {
            let (g, founded) = index.intern(&**k).expect("raw keys");
            assert_eq!(
                founded,
                g as usize == keys.len(),
                "ids are dense, in first-arrival order"
            );
            if founded {
                keys.push(k);
            }
        }
        assert_eq!(index.groups(), keys.len());
        assert_eq!(index.records(), base.len());
        let layout = index.layout(tuning);
        let pairs = layout
            .records
            .iter()
            .map(|&i| {
                let g = index.gid_of()[i as usize] as usize;
                ((**keys[g]).clone(), (*base[i as usize].1).clone())
            })
            .collect();
        let mut spans = Vec::new();
        let mut cursor = 0usize;
        for (&g, &c) in layout.groups.iter().zip(&layout.counts) {
            assert_eq!(index.gid_of()[layout.records[cursor] as usize], g);
            spans.push(cursor..cursor + c as usize);
            cursor += c as usize;
        }
        (pairs, spans)
    }

    #[test]
    fn index_interns_incrementally_across_table_doublings() {
        // 700 distinct keys from an empty (64-slot) index: five doublings,
        // every duplicate still finds its group afterwards.
        let mut index = RawKeyIndex::with_capacity(0);
        for round in 0..3 {
            for k in 0..700i32 {
                let (g, founded) = index.intern(&IntWritable(k * 31)).unwrap();
                assert_eq!(g, k as u32);
                assert_eq!(founded, round == 0);
            }
        }
        assert_eq!(index.groups(), 700);
        assert_eq!(index.records(), 2100);
        assert_eq!(index.raw(5), &((5u32 * 31) ^ 0x8000_0000).to_be_bytes());
    }

    /// A key whose raw form gives up half-way for one value.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Flaky(i32);
    impl Writable for Flaky {
        fn write_to<S: crate::writable::ByteSink + ?Sized>(&self, out: &mut S) {
            IntWritable(self.0).write_to(out)
        }
        fn read_from(input: &mut crate::writable::ByteReader<'_>) -> crate::error::Result<Self> {
            Ok(Flaky(IntWritable::read_from(input)?.0))
        }
        fn write_raw_sort_key<S: crate::writable::ByteSink + ?Sized>(&self, out: &mut S) -> bool {
            out.put_slice(&[0xde, 0xad]);
            self.0 != 13 && IntWritable(self.0).write_raw_sort_key(out)
        }
    }

    #[test]
    fn index_declines_instead_of_wrapping_or_guessing() {
        // Stubbed limit: 16 bytes of raw keys / 16 records.
        let mut index = RawKeyIndex::with_limit(0, 16);
        for k in 0..4 {
            assert_eq!(index.intern(&IntWritable(k)), Some((k as u32, true)));
        }
        // A fifth distinct key would push the raw bytes past the limit.
        assert_eq!(index.intern(&IntWritable(4)), None);
        assert_eq!(
            (index.groups(), index.records()),
            (4, 4),
            "declined intern leaves no trace"
        );
        // Duplicates add no bytes, so they fit — until the record limit.
        for i in 0..12 {
            assert_eq!(
                index.intern(&IntWritable(i % 4)),
                Some((i as u32 % 4, false))
            );
        }
        assert_eq!(index.intern(&IntWritable(0)), None);
        assert_eq!((index.groups(), index.records()), (4, 16));

        // A key without a raw form is declined too, partial bytes and all.
        let mut index = RawKeyIndex::with_capacity(0);
        assert_eq!(index.intern(&Flaky(1)), Some((0, true)));
        assert_eq!(index.intern(&Flaky(13)), None);
        assert_eq!(index.intern(&Flaky(1)), Some((0, false)));
        assert_eq!(index.intern(&Flaky(2)), Some((1, true)));
        assert_eq!(index.raw(1).len(), 6);
    }

    #[test]
    fn index_declines_a_run_whose_later_key_has_no_raw_form() {
        let base: Vec<(Arc<Flaky>, Arc<IntWritable>)> = (0..40)
            .map(|i| (Arc::new(Flaky(39 - i)), Arc::new(IntWritable(i))))
            .collect();
        let mut declined = base.clone();
        assert!(group_by_index(&mut declined, &SortTuning::default()).is_none());
        assert_eq!(
            flat(&declined),
            flat(&base),
            "a declined run is left in arrival order"
        );
        let nat = KeyComparator::<Flaky>::natural();
        let mut flaky = base;
        let spans = ingest_reduce_groups(&mut flaky, &nat, &nat, &SortTuning::default(), None);
        assert_eq!(spans.len(), 40);
        assert!(
            flaky.windows(2).all(|w| w[0].0 < w[1].0),
            "ingest sorts by the decoded compare"
        );
    }

    #[test]
    fn apply_permutation_consumes_its_order() {
        let mut items = vec!['a', 'b', 'c', 'd', 'e'];
        let mut order = vec![3u32, 0, 4, 1, 2];
        apply_permutation(&mut items, &mut order);
        assert_eq!(items, vec!['d', 'a', 'e', 'b', 'c']);
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4],
            "the permutation is its own visited set"
        );
    }

    #[cfg(test)]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fnv1a_streams_across_any_split(
                bytes in proptest::collection::vec(any::<u8>(), 0..200),
                cut in any::<usize>(),
            ) {
                let cut = cut % (bytes.len() + 1);
                let (a, b) = bytes.split_at(cut);
                prop_assert_eq!(fnv1a_continue(fnv1a(a), b), fnv1a(&bytes));
            }

            #[test]
            fn spans_cover_input_exactly(keys in proptest::collection::vec(0i32..10, 0..60)) {
                let mut pairs: Vec<(Arc<IntWritable>, Arc<IntWritable>)> = keys
                    .iter()
                    .map(|k| (Arc::new(IntWritable(*k)), Arc::new(IntWritable(0))))
                    .collect();
                sort_pairs_by(&mut pairs, &KeyComparator::natural());
                let spans = group_spans(&pairs, &KeyComparator::natural());
                // Spans tile [0, len) without gaps or overlaps.
                let mut cursor = 0;
                for s in &spans {
                    prop_assert_eq!(s.start, cursor);
                    prop_assert!(s.end > s.start);
                    cursor = s.end;
                }
                prop_assert_eq!(cursor, pairs.len());
                // All keys within a span are equal; adjacent spans differ.
                for s in &spans {
                    for w in pairs[s.clone()].windows(2) {
                        prop_assert_eq!(w[0].0 .0, w[1].0 .0);
                    }
                }
                for w in spans.windows(2) {
                    prop_assert!(pairs[w[0].start].0 .0 != pairs[w[1].start].0 .0);
                }
            }

            /// Collect-time grouping through the index, record by record and
            /// over a whole run, reproduces the stable sort + span scan
            /// exactly — on byte-string keys with heavy duplication, shared
            /// > 8-byte prefixes and empty keys, with enough distinct keys
            /// to double the 64-slot table several times.
            #[test]
            fn incremental_and_batch_grouping_match_stable_sort_on_text(
                picks in proptest::collection::vec((0u8..4, 0u16..400), 0..900),
                radix in any::<bool>(),
            ) {
                let base: Vec<(Arc<Text>, Arc<IntWritable>)> = picks
                    .iter()
                    .enumerate()
                    .map(|(i, &(shape, k))| {
                        let key = match shape {
                            0 => String::new(),
                            1 => format!("{}", k % 7),
                            2 => format!("shared-prefix-{k:03}"),
                            _ => format!("w{k}"),
                        };
                        (Arc::new(Text::from(key)), Arc::new(IntWritable(i as i32)))
                    })
                    .collect();
                let tuning = SortTuning {
                    raw_min_pairs: if radix { 1 } else { usize::MAX },
                };
                let nat = KeyComparator::<Text>::natural();
                let mut truth = base.clone();
                sort_pairs_tuned(&mut truth, &nat, &decoded_tuning(), None);
                let tspans = group_spans(&truth, &nat);
                let (pairs, spans) = group_incrementally(&base, &tuning);
                prop_assert_eq!(&pairs, &flat(&truth));
                prop_assert_eq!(&spans, &tspans);
                let mut batch = base;
                let bspans = group_by_index(&mut batch, &tuning).expect("raw keys");
                prop_assert_eq!(flat(&batch), flat(&truth));
                prop_assert_eq!(bspans, tspans);
            }

            #[test]
            fn incremental_and_batch_grouping_match_stable_sort_on_longs(
                keys in proptest::collection::vec(-150i64..150, 0..900),
            ) {
                let base: Vec<(Arc<LongWritable>, Arc<IntWritable>)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (Arc::new(LongWritable(k * 0x0101_0101)), Arc::new(IntWritable(i as i32))))
                    .collect();
                let nat = KeyComparator::<LongWritable>::natural();
                let mut truth = base.clone();
                sort_pairs_tuned(&mut truth, &nat, &decoded_tuning(), None);
                let tspans = group_spans(&truth, &nat);
                let (pairs, spans) = group_incrementally(&base, &SortTuning::default());
                prop_assert_eq!(&pairs, &flat(&truth));
                prop_assert_eq!(&spans, &tspans);
                let mut batch = base;
                let bspans =
                    group_by_index(&mut batch, &SortTuning::default()).expect("raw keys");
                prop_assert_eq!(flat(&batch), flat(&truth));
                prop_assert_eq!(bspans, tspans);
            }

            #[test]
            fn fast_paths_agree_with_stable_sort(keys in proptest::collection::vec(-30i32..30, 0..120)) {
                let base: Vec<(Arc<IntWritable>, Arc<IntWritable>)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| (Arc::new(IntWritable(*k)), Arc::new(IntWritable(i as i32))))
                    .collect();
                let nat = KeyComparator::<IntWritable>::natural();
                // Ground truth: the plain decoded stable sort.
                let mut truth = base.clone();
                truth.sort_by(|a, b| a.0.cmp(&b.0));
                let tspans = group_spans(&truth, &nat);
                let mut hashed = base.clone();
                let hspans = group_by_index(&mut hashed, &radix_tuning()).expect("raw keys");
                prop_assert_eq!(flat(&hashed), flat(&truth));
                prop_assert_eq!(hspans, tspans);
                let mut radix = base;
                sort_pairs_tuned(&mut radix, &nat, &radix_tuning(), None);
                prop_assert_eq!(flat(&radix), flat(&truth));
            }
        }
    }
}
