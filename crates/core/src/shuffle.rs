//! The in-memory shuffle (paper §3.2.2).
//!
//! Three cost regimes, all observable in the metrics:
//! * **local, `ImmutableOutput`** — the emitted `Arc`s flow straight from
//!   mapper to reducer: zero copies, zero serialization, zero network;
//! * **local, default** — M3R "conservatively make\[s\] a copy of every
//!   key/value pair" (§3.2.2.1) because the Hadoop API permits reuse after
//!   emit: a deep clone is charged, nothing else;
//! * **remote** — pairs are serialized with X10's de-duplicating protocol
//!   (§3.2.2.3) into one stream per (source place, destination place) and
//!   moved over the network after the map barrier.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::{
    apply_permutation, ingest_reduce_groups, KeyComparator, RawKeyIndex, SortTuning,
};
use hmr_api::error::{HmrError, Result};
use hmr_api::partition::Partitioner;
use hmr_api::writable::{ByteReader, Writable};
use simgrid::cost::Charge;
use simgrid::meter;
use x10rt::serialize::{DedupMode, Deserializer, SerError, Serializer};

/// Map-task-side collector: partitions emitted pairs, applying the
/// `ImmutableOutput` cloning contract at emit time.
///
/// A [`MapOutputBuffer::grouping`] buffer additionally groups at
/// `collect()`: each partition interns the emitted key's raw sort bytes in
/// a [`RawKeyIndex`], keeps a key only when it founds a group and appends
/// just the value otherwise — so a combiner job never materialises its
/// duplicate keys. See DESIGN.md, "Map-side grouping at collect time".
pub struct MapOutputBuffer<K, V> {
    partitioner: Box<dyn Partitioner<K, V>>,
    num_partitions: usize,
    immutable: bool,
    parts: Vec<MapPart<K, V>>,
    emitted: u64,
}

/// One partition of a finished [`MapOutputBuffer`].
pub enum MapPart<K, V> {
    /// Every emitted pair, in arrival order.
    Pairs(Vec<(Arc<K>, Arc<V>)>),
    /// Grouped at collect time.
    Groups(KeyGroups<K, V>),
}

/// A partition grouped at collect time: the first-arrived key of every
/// group, every value in arrival order, and the index that says which
/// value belongs to which group.
pub struct KeyGroups<K, V> {
    index: RawKeyIndex,
    /// Group id -> the key that founded the group.
    keys: Vec<Arc<K>>,
    /// Arrival order; record `i` belongs to group `index.gid_of()[i]`.
    values: Vec<Arc<V>>,
}

/// One partition arranged for the combiner: group `j` is `keys[j]` with
/// the next `counts[j]` of `values`. Groups are in reduce order, a
/// group's values in arrival order.
pub struct GroupedPart<K, V> {
    /// One key per group: the first-arrived (sort-first) key.
    keys: Vec<Arc<K>>,
    /// Records per group, parallel to `keys`.
    counts: Vec<u32>,
    /// Every value, group after group.
    values: Vec<Arc<V>>,
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> GroupedPart<K, V> {
    /// Call `f` once per group, in order, with the group's key and an
    /// iterator that hands over (not clones) its values. Whatever `f`
    /// leaves unread is dropped before the next group.
    pub fn for_each_group(
        mut self,
        mut f: impl FnMut(Arc<K>, &mut dyn Iterator<Item = Arc<V>>) -> Result<()>,
    ) -> Result<()> {
        let mut values = self.values.drain(..);
        for (key, &count) in self.keys.drain(..).zip(&self.counts) {
            let mut group = values.by_ref().take(count as usize);
            f(key, &mut group)?;
            group.for_each(drop);
        }
        Ok(())
    }
}

impl<K, V> KeyGroups<K, V>
where
    K: Writable + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn new() -> Self {
        KeyGroups {
            index: RawKeyIndex::with_capacity(0),
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Back to plain pairs in arrival order; duplicates alias their
    /// group's key.
    fn into_pairs(self) -> Vec<(Arc<K>, Arc<V>)> {
        self.index
            .gid_of()
            .iter()
            .zip(self.values)
            .map(|(&g, v)| (Arc::clone(&self.keys[g as usize]), v))
            .collect()
    }

    /// Groups ascending by raw key, values scattered into group order.
    fn into_grouped(mut self) -> GroupedPart<K, V> {
        let mut layout = self.index.layout(&SortTuning::default());
        drop(self.index);
        apply_permutation(&mut self.values, &mut layout.records);
        apply_permutation(&mut self.keys, &mut layout.groups);
        GroupedPart {
            keys: self.keys,
            counts: layout.counts,
            values: self.values,
        }
    }
}

impl<K, V> MapPart<K, V>
where
    K: Writable + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Records collected into this partition.
    pub fn len(&self) -> usize {
        match self {
            MapPart::Pairs(pairs) => pairs.len(),
            MapPart::Groups(groups) => groups.values.len(),
        }
    }

    /// True when nothing was collected into this partition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition as plain pairs in arrival order.
    pub fn into_pairs(self) -> Vec<(Arc<K>, Arc<V>)> {
        match self {
            MapPart::Pairs(pairs) => pairs,
            MapPart::Groups(groups) => groups.into_pairs(),
        }
    }

    /// The partition arranged for the combiner. A partition grouped at
    /// collect time only has to order its groups; plain pairs go through
    /// [`ingest_reduce_groups`]. Both yield the groups, keys and value
    /// order of a stable sort under `sort_cmp` split by `group_cmp`.
    pub fn into_grouped(
        self,
        sort_cmp: &KeyComparator<K>,
        group_cmp: &KeyComparator<K>,
    ) -> GroupedPart<K, V> {
        match self {
            MapPart::Groups(groups) => groups.into_grouped(),
            MapPart::Pairs(mut pairs) => {
                let tuning = SortTuning::default();
                let spans = ingest_reduce_groups(&mut pairs, sort_cmp, group_cmp, &tuning, None);
                GroupedPart {
                    keys: spans.iter().map(|span| Arc::clone(&pairs[span.start].0)).collect(),
                    counts: spans.iter().map(|span| span.len() as u32).collect(),
                    values: pairs.into_iter().map(|(_, v)| v).collect(),
                }
            }
        }
    }
}

impl<K, V> MapOutputBuffer<K, V>
where
    K: Writable + Clone + Send + Sync + 'static,
    V: Writable + Clone + Send + Sync + 'static,
{
    /// A buffer for `num_partitions` partitions.
    pub fn new(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
    ) -> Self {
        Self::with_capacity_hint(num_partitions, partitioner, immutable, 0)
    }

    /// Like [`MapOutputBuffer::new`], but pre-sizes every partition bucket
    /// assuming `expected_records` spread uniformly — the allocation-churn
    /// fix for the repeated doubling a map task otherwise pays per bucket.
    pub fn with_capacity_hint(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
        expected_records: usize,
    ) -> Self {
        let per_part = expected_records.div_ceil(num_partitions.max(1));
        Self::with_parts(num_partitions, partitioner, immutable, || {
            MapPart::Pairs(Vec::with_capacity(per_part))
        })
    }

    /// A buffer that groups at `collect()`. Only legal when raw-key
    /// equality is the job's grouping relation and ascending raw order its
    /// sort order — natural sort *and* grouping comparator — and only
    /// worth it when a combiner will consume the groups. A partition whose
    /// keys turn out to have no raw sort form (or that outgrows the
    /// index's `u32` offsets) degrades to plain pairs, arrival order
    /// intact. Nothing is pre-sized, since the groups are a fraction of
    /// the input.
    pub fn grouping(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
    ) -> Self {
        Self::with_parts(num_partitions, partitioner, immutable, || {
            MapPart::Groups(KeyGroups::new())
        })
    }

    fn with_parts(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
        part: impl FnMut() -> MapPart<K, V>,
    ) -> Self {
        let num_partitions = num_partitions.max(1);
        MapOutputBuffer {
            partitioner,
            num_partitions,
            immutable,
            parts: std::iter::repeat_with(part).take(num_partitions).collect(),
            emitted: 0,
        }
    }

    /// Pairs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The collected partitions, in partition order.
    pub fn into_parts(self) -> Vec<MapPart<K, V>> {
        self.parts
    }
}

impl<K, V> OutputCollector<K, V> for MapOutputBuffer<K, V>
where
    K: Writable + Clone + Send + Sync + 'static,
    V: Writable + Clone + Send + Sync + 'static,
{
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let p = self
            .partitioner
            .partition(&key, &value, self.num_partitions);
        if p >= self.num_partitions {
            return Err(HmrError::InvalidJob(format!(
                "partitioner returned {p} for {} partitions",
                self.num_partitions
            )));
        }
        let immutable = self.immutable;
        if !immutable {
            // §3.2.2.1: "this forces M3R to conservatively make a copy of
            // every key/value pair." Billed per emitted record, whether or
            // not grouping ends up needing the key's copy.
            let bytes = (key.serialized_size() + value.serialized_size()) as u64;
            meter::charge(Charge::Clone { bytes });
            meter::charge(Charge::Alloc { objects: 2 });
        }
        // §4.1: an `ImmutableOutput` job promised not to mutate emitted
        // objects, so what is retained is an alias; otherwise a deep copy.
        fn own<T: Clone>(x: Arc<T>, immutable: bool) -> Arc<T> {
            if immutable {
                x
            } else {
                Arc::new((*x).clone())
            }
        }
        self.emitted += 1;
        let part = &mut self.parts[p];
        if let MapPart::Groups(groups) = part {
            // Interned from the borrowed key: a duplicate key is dropped
            // (or never copied) right here.
            if let Some((_, founded)) = groups.index.intern(&*key) {
                if founded {
                    groups.keys.push(own(key, immutable));
                }
                groups.values.push(own(value, immutable));
                return Ok(());
            }
            // No raw sort form, or the index is full: this partition
            // carries on as plain pairs.
            let groups = std::mem::replace(part, MapPart::Pairs(Vec::new()));
            *part = MapPart::Pairs(groups.into_pairs());
        }
        if let MapPart::Pairs(pairs) = part {
            pairs.push((own(key, immutable), own(value, immutable)));
        }
        Ok(())
    }
}

/// One remote shuffle stream under construction: place *P* → place *Q*,
/// shared by every mapper running at *P* (full de-duplication spans them).
pub struct ShuffleStream {
    ser: Serializer,
}

impl ShuffleStream {
    /// An empty stream using `mode`.
    pub fn new(mode: DedupMode) -> Self {
        ShuffleStream {
            ser: Serializer::new(mode),
        }
    }

    /// A stream writing into `buf` (typically drawn from a
    /// [`simgrid::BufPool`]) so warm capacity is reused across waves.
    pub fn with_buffer(buf: BytesMut, mode: DedupMode) -> Self {
        ShuffleStream {
            ser: Serializer::with_buffer(buf, mode),
        }
    }

    /// Reserve room for `additional` encoded bytes (a `serialized_size`
    /// hint plus framing), so pushes append without re-growing.
    pub fn reserve(&mut self, additional: usize) {
        self.ser.reserve(additional);
    }

    /// Append one record the caller keeps: forwards clones to `push_owned`.
    pub fn push<K: Writable + Send + Sync, V: Writable + Send + Sync>(
        &mut self,
        partition: usize,
        key: &Arc<K>,
        value: &Arc<V>,
    ) {
        self.push_owned(partition, Arc::clone(key), Arc::clone(value))
    }

    /// Append one `(partition, key, value)` record, taking the handles over
    /// ([`Serializer::write_arc_owned`]).
    pub fn push_owned<K: Writable + Send + Sync, V: Writable + Send + Sync>(
        &mut self,
        partition: usize,
        key: Arc<K>,
        value: Arc<V>,
    ) {
        self.ser.write_u32(partition as u32);
        self.ser.write_arc_owned(key, |k, buf| k.write_to(buf));
        self.ser.write_arc_owned(value, |v, buf| v.write_to(buf));
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.ser.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ser.is_empty()
    }

    /// Finish the stream: a refcounted handle to the encoded bytes, stats,
    /// and the ordinals some back-reference targeted (ascending) — the list
    /// a receiver hands [`decode_targeted`]. The handle is shared (not
    /// copied) with every reader; once the last reader drops it, and every
    /// value decoded as a view of it, the buffer can return to a pool.
    pub fn finish(self) -> (Bytes, x10rt::serialize::SerStats, Vec<u32>) {
        self.ser.finish()
    }
}

fn ser_err(e: SerError) -> HmrError {
    HmrError::Serde(e.to_string())
}

/// Decode one writable at the stream's position through a reader backed by
/// the stream, so byte-string fields are views of it rather than copies.
fn read_writable<T: Writable>(d: &mut Deserializer<Bytes>) -> std::result::Result<T, SerError> {
    let (stream, at) = (d.data(), d.position());
    let mut br = ByteReader::shared(stream, at..stream.len());
    let v = T::read_from(&mut br).map_err(|e| SerError::Custom(e.to_string()))?;
    let used = br.position();
    d.advance(used)?;
    Ok(v)
}

/// Iterator over the `(partition, key, value)` records of one shuffle
/// stream. Owns a refcount on the stream storage, so records decode
/// straight out of the shared buffer — no intermediate `Vec` of records is
/// ever materialized on the reduce side.
pub struct StreamRecords<K, V> {
    d: Deserializer<Bytes>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Iterator for StreamRecords<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    type Item = Result<(usize, Arc<K>, Arc<V>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.d.remaining() == 0 {
            return None;
        }
        let d = &mut self.d;
        let rec = (|| {
            let p = d.read_u32().map_err(ser_err)? as usize;
            let k = d.read_arc_with(read_writable::<K>).map_err(ser_err)?;
            let v = d.read_arc_with(read_writable::<V>).map_err(ser_err)?;
            Ok((p, k, v))
        })();
        if rec.is_err() {
            // A malformed stream cannot be resynchronized; stop after
            // reporting the error once.
            self.d.poison();
        }
        Some(rec)
    }
}

/// Decode a shuffle stream lazily. Back-references reconstruct aliases: a
/// value broadcast to many partitions decodes into many `Arc`s of one
/// allocation. Byte-string fields (`BytesWritable`) decode into views of
/// `bytes`. The iterator and every such view hold a refcount on `bytes`;
/// once all of them (and every other handle) drop, a pool can reclaim the
/// buffer. Every inline value is registered in case a back-reference
/// names it; [`decode_targeted`] registers only the ones that are named.
pub fn decode_stream<K, V>(bytes: Bytes) -> StreamRecords<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    StreamRecords {
        d: Deserializer::new(bytes),
        _marker: PhantomData,
    }
}

/// [`decode_stream`] for a stream whose sender published `targets`, the
/// ordinals its back-references named ([`ShuffleStream::finish`]): only
/// those values are registered, so a stream without back-references keeps
/// no decoded value alive beyond its consumer. Aliasing is the same.
pub fn decode_targeted<K, V>(bytes: Bytes, targets: Vec<u32>) -> StreamRecords<K, V>
where
    K: Writable + Send + Sync,
    V: Writable + Send + Sync,
{
    StreamRecords {
        d: Deserializer::with_targets(bytes, targets),
        _marker: PhantomData,
    }
}

/// Modelled heap overhead per distinct key admitted to a combine table
/// (map node + key `Arc` bookkeeping), in bytes.
const COMBINE_ENTRY_OVERHEAD: u64 = 48;
/// Modelled heap overhead per absorbed value (one `Arc` slot), in bytes.
const COMBINE_VALUE_OVERHEAD: u64 = 8;

/// A place-level shared combine table (ROADMAP item 3, after the in-node
/// combiners line of work): one table per *destination* place, fed by every
/// map task of the source place, merging equal keys **across tasks** before
/// the shuffle stream serializes anything. Where per-mapper combining only
/// collapses duplicates within one task's output, this collapses them
/// across the whole map wave — on skewed keys that is where most of the
/// remaining shuffle volume lives.
///
/// Determinism contract: entries are keyed by `(partition, serialized key
/// bytes)` in a `BTreeMap`, so the drain order is partition-ascending then
/// key-bytes-ascending regardless of absorption interleaving; values within
/// one key group stay in arrival order, which the engine guarantees is task
/// order (buckets are absorbed on the place thread in task order). Equal
/// keys therefore tie-break on task order, and the job's combiner must be
/// associative + commutative (see `hmr_api::conf::PLACE_COMBINE`).
pub struct CombineTable<K, V> {
    entries: BTreeMap<(usize, Vec<u8>), (Arc<K>, Vec<Arc<V>>)>,
    bytes: u64,
    records: u64,
}

impl<K, V> Default for CombineTable<K, V>
where
    K: Writable,
    V: Writable,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CombineTable<K, V>
where
    K: Writable,
    V: Writable,
{
    /// An empty table.
    pub fn new() -> Self {
        CombineTable {
            entries: BTreeMap::new(),
            bytes: 0,
            records: 0,
        }
    }

    /// True when nothing has been absorbed since the last drain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct `(partition, key)` groups currently held.
    pub fn groups(&self) -> usize {
        self.entries.len()
    }

    /// Records absorbed since the last drain.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Approximate live bytes held (serialized key + value sizes plus
    /// modelled per-entry overhead) — what the memory accountant should
    /// carry under `MemClass::Combine`.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Absorb one `(partition, key, value)` record, merging it into the
    /// group of any previously absorbed equal key (dropping the new key).
    /// Returns `(grew_bytes, key_bytes)`: how many accountable bytes the
    /// table grew by, and the encoded key length (the serialization work
    /// the caller should bill for admission).
    pub fn absorb(&mut self, partition: usize, key: Arc<K>, value: Arc<V>) -> (u64, u64) {
        let mut kbytes = Vec::with_capacity(key.serialized_size());
        key.write_to(&mut kbytes);
        let klen = kbytes.len() as u64;
        let vlen = value.serialized_size() as u64;
        let grew = match self.entries.entry((partition, kbytes)) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().1.push(value);
                vlen + COMBINE_VALUE_OVERHEAD
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((key, vec![value]));
                klen + COMBINE_ENTRY_OVERHEAD + vlen + COMBINE_VALUE_OVERHEAD
            }
        };
        self.bytes += grew;
        self.records += 1;
        (grew, klen)
    }

    /// Drain every group in deterministic order — partition ascending, then
    /// serialized key bytes ascending; each group's values in arrival (task)
    /// order — resetting the table to empty.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, Arc<K>, Vec<Arc<V>>)> {
        self.bytes = 0;
        self.records = 0;
        std::mem::take(&mut self.entries)
            .into_iter()
            .map(|((p, _), (k, vs))| (p, k, vs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::partition::FnPartitioner;
    use hmr_api::writable::{BytesWritable, IntWritable};

    fn modulo_partitioner() -> Box<dyn Partitioner<IntWritable, BytesWritable>> {
        Box::new(FnPartitioner::new(|k: &IntWritable, _: &BytesWritable, n| {
            k.0 as usize % n
        }))
    }

    #[test]
    fn immutable_buffer_aliases() {
        let mut buf = MapOutputBuffer::new(4, modulo_partitioner(), true);
        let k = Arc::new(IntWritable(5));
        let v = Arc::new(BytesWritable(vec![1, 2, 3].into()));
        buf.collect(Arc::clone(&k), Arc::clone(&v)).unwrap();
        let part = buf.into_parts().swap_remove(1).into_pairs();
        assert!(Arc::ptr_eq(&part[0].0, &k));
        assert!(Arc::ptr_eq(&part[0].1, &v));
    }

    #[test]
    fn mutable_buffer_copies_and_charges() {
        let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
        let k = Arc::new(IntWritable(5));
        let v = Arc::new(BytesWritable(vec![1, 2, 3].into()));
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
            let mut buf = MapOutputBuffer::new(4, modulo_partitioner(), false);
            buf.collect(Arc::clone(&k), Arc::clone(&v)).unwrap();
            let part = buf.into_parts().swap_remove(1).into_pairs();
            assert!(!Arc::ptr_eq(&part[0].0, &k), "defensive copy");
            assert_eq!(*part[0].1, *v, "copy equals the original");
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert!(d.clone_bytes > 0, "clone cost charged");
        assert_eq!(d.allocs, 2);
        assert_eq!(d.ser_bytes, 0, "local path never serializes");
    }

    /// A finished partition as the combiner would see it: one
    /// `(key, values)` entry per group.
    fn groups_of<K, V>(part: MapPart<K, V>) -> Vec<(Arc<K>, Vec<Arc<V>>)>
    where
        K: hmr_api::writable::WritableKey + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let nat = KeyComparator::<K>::natural();
        let mut out = Vec::new();
        part.into_grouped(&nat, &nat)
            .for_each_group(|k, vs| {
                out.push((k, vs.collect()));
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn grouping_buffer_aliases_first_key_and_every_value() {
        let mut buf = MapOutputBuffer::grouping(4, modulo_partitioner(), true);
        // Partition 1 sees keys 9, 5, 9, 5, 9; each emit is a fresh Arc.
        let emitted: Vec<_> = [9, 5, 9, 5, 9]
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                (
                    Arc::new(IntWritable(k)),
                    Arc::new(BytesWritable(vec![i as u8].into())),
                )
            })
            .collect();
        for (k, v) in &emitted {
            buf.collect(Arc::clone(k), Arc::clone(v)).unwrap();
        }
        assert_eq!(buf.emitted(), 5);
        let mut parts = buf.into_parts();
        assert!(matches!(parts[1], MapPart::Groups(_)));
        assert_eq!(parts[1].len(), 5);
        assert!(parts[0].is_empty());
        for (k, _) in &emitted[2..] {
            assert_eq!(
                Arc::strong_count(k),
                1,
                "duplicate keys were dropped at collect"
            );
        }
        let groups = groups_of(parts.swap_remove(1));
        assert_eq!(groups.len(), 2, "groups ascending: 5 then 9");
        assert!(
            Arc::ptr_eq(&groups[0].0, &emitted[1].0),
            "first-arrived key of 5"
        );
        assert!(
            Arc::ptr_eq(&groups[1].0, &emitted[0].0),
            "first-arrived key of 9"
        );
        for (group, arrivals) in groups.iter().zip([&[1usize, 3][..], &[0, 2, 4]]) {
            assert_eq!(group.1.len(), arrivals.len());
            for (v, &i) in group.1.iter().zip(arrivals) {
                assert!(
                    Arc::ptr_eq(v, &emitted[i].1),
                    "values alias, in arrival order"
                );
            }
        }
    }

    #[test]
    fn grouping_buffer_bills_every_record_but_copies_keys_once_per_group() {
        let run = |grouping: bool| {
            let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
            let k = Arc::new(IntWritable(5));
            let v = Arc::new(BytesWritable(vec![1, 2, 3].into()));
            let before = cluster.metrics().snapshot();
            let groups = simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
                let mut buf = if grouping {
                    MapOutputBuffer::grouping(4, modulo_partitioner(), false)
                } else {
                    MapOutputBuffer::new(4, modulo_partitioner(), false)
                };
                for _ in 0..3 {
                    buf.collect(Arc::clone(&k), Arc::clone(&v)).unwrap();
                }
                groups_of(buf.into_parts().swap_remove(1))
            });
            assert_eq!(Arc::strong_count(&k), 1, "nothing emitted is retained");
            assert_eq!(groups.len(), 1);
            assert!(!Arc::ptr_eq(&groups[0].0, &k), "defensive copy of the key");
            assert_eq!(*groups[0].0, *k);
            assert_eq!(groups[0].1.len(), 3);
            assert!(groups[0].1.iter().all(|c| !Arc::ptr_eq(c, &v) && **c == *v));
            cluster.metrics().snapshot().since(&before)
        };
        let (grouped, plain) = (run(true), run(false));
        assert_eq!(
            grouped, plain,
            "identical charges with and without grouping"
        );
        assert_eq!(grouped.allocs, 6);
        assert!(grouped.clone_bytes > 0);
    }

    /// A key that has a raw sort form except for one value (no real type
    /// behaves like this; it stands in for "any later key declines").
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Flaky(i32);
    impl Writable for Flaky {
        fn write_to<S: hmr_api::writable::ByteSink + ?Sized>(&self, out: &mut S) {
            IntWritable(self.0).write_to(out)
        }
        fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
            Ok(Flaky(IntWritable::read_from(input)?.0))
        }
        fn write_raw_sort_key<S: hmr_api::writable::ByteSink + ?Sized>(&self, out: &mut S) -> bool {
            self.0 != 13 && IntWritable(self.0).write_raw_sort_key(out)
        }
    }

    #[test]
    fn grouping_buffer_degrades_to_arrival_order_when_a_key_has_no_raw_form() {
        let keys = [7, 3, 7, 13, 3, 13, 7, 1];
        let collect_all = |mut buf: MapOutputBuffer<Flaky, IntWritable>| {
            for (i, &k) in keys.iter().enumerate() {
                buf.collect(Arc::new(Flaky(k)), Arc::new(IntWritable(i as i32)))
                    .unwrap();
            }
            buf.into_parts().swap_remove(0)
        };
        let one_part = || Box::new(FnPartitioner::new(|_: &Flaky, _: &IntWritable, _| 0));
        let degraded = collect_all(MapOutputBuffer::grouping(1, one_part(), true));
        assert!(
            matches!(degraded, MapPart::Pairs(_)),
            "the fourth key declined"
        );
        let plain = collect_all(MapOutputBuffer::new(1, one_part(), true));
        let flat = |pairs: Vec<(Arc<Flaky>, Arc<IntWritable>)>| -> Vec<(i32, i32)> {
            pairs.iter().map(|(k, v)| (k.0, v.0)).collect()
        };
        let arrival: Vec<(i32, i32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as i32))
            .collect();
        assert_eq!(
            flat(
                collect_all(MapOutputBuffer::grouping(1, one_part(), true)).into_pairs()
            ),
            arrival
        );
        // ...and the combiner sees exactly what the plain buffer gives it.
        let view = |part: MapPart<Flaky, IntWritable>| -> Vec<(i32, Vec<i32>)> {
            groups_of(part)
                .iter()
                .map(|(k, vs)| (k.0, vs.iter().map(|v| v.0).collect()))
                .collect()
        };
        let expect = vec![
            (1, vec![7]),
            (3, vec![1, 4]),
            (7, vec![0, 2, 6]),
            (13, vec![3, 5]),
        ];
        assert_eq!(view(degraded), expect);
        assert_eq!(view(plain), expect);
    }

    #[test]
    fn grouped_part_drops_values_the_callback_leaves_unread() {
        let mut buf = MapOutputBuffer::grouping(1, modulo_partitioner(), true);
        for (i, k) in [2, 1, 2, 1, 2].into_iter().enumerate() {
            buf.collect(
                Arc::new(IntWritable(k)),
                Arc::new(BytesWritable(vec![i as u8].into())),
            )
            .unwrap();
        }
        let nat = KeyComparator::<IntWritable>::natural();
        let mut firsts = Vec::new();
        buf.into_parts()
            .swap_remove(0)
            .into_grouped(&nat, &nat)
            .for_each_group(|k, vs| {
                firsts.push((k.0, vs.next().unwrap().0[0]));
                Ok(())
            })
            .unwrap();
        assert_eq!(
            firsts,
            vec![(1, 1), (2, 0)],
            "each group starts at its own first value"
        );
    }

    #[test]
    fn stream_roundtrip_with_partitions() {
        let mut s = ShuffleStream::new(DedupMode::Off);
        for i in 0..10 {
            s.push(
                i % 3,
                &Arc::new(IntWritable(i as i32)),
                &Arc::new(BytesWritable(vec![i as u8].into())),
            );
        }
        let (bytes, _, _) = s.finish();
        let recs: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 10);
        for (i, (p, k, v)) in recs.iter().enumerate() {
            assert_eq!(*p, i % 3);
            assert_eq!(k.0, i as i32);
            assert_eq!(v.0, vec![i as u8]);
        }
    }

    #[test]
    fn broadcast_value_deduplicates_and_aliases_on_arrival() {
        // The matvec broadcast idiom: one V block sent to every partition.
        let v = Arc::new(BytesWritable(vec![9u8; 1000].into()));
        let mut s = ShuffleStream::new(DedupMode::Full);
        for p in 0..20 {
            s.push(p, &Arc::new(IntWritable(p as i32)), &v);
        }
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 19, "19 of 20 copies replaced by backrefs");
        assert!(
            (bytes.len() as u64) < 2_200,
            "~1 payload + framing, got {}",
            bytes.len()
        );
        let recs: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 20);
        for w in recs.windows(2) {
            assert!(
                Arc::ptr_eq(&w[0].2, &w[1].2),
                "receiver holds aliases of one copy"
            );
        }
    }

    #[test]
    fn consecutive_mode_still_catches_broadcast_loops() {
        // §6.3's proposed fix: the broadcast value repeats with only a
        // fresh key between occurrences, which the sliding window catches —
        // while memory stays O(1) instead of O(values sent).
        let v = Arc::new(BytesWritable(vec![7u8; 500].into()));
        let mut s = ShuffleStream::new(DedupMode::Consecutive);
        for p in 0..10 {
            s.push(p, &Arc::new(IntWritable(p as i32)), &v);
        }
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 9, "value sent once, 9 backrefs");
        assert!(stats.values_retained <= 4, "O(1) retention");
        let recs: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(recs.len(), 10);
        for w in recs.windows(2) {
            assert!(Arc::ptr_eq(&w[0].2, &w[1].2));
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut s = ShuffleStream::new(DedupMode::Off);
        s.push(0, &Arc::new(IntWritable(1)), &Arc::new(BytesWritable(vec![1].into())));
        let (bytes, _, _) = s.finish();
        let bytes = bytes.slice(..bytes.len() - 1);
        let res: Result<Vec<_>> =
            decode_stream::<IntWritable, BytesWritable>(bytes).collect();
        assert!(res.is_err());
    }

    #[test]
    fn combine_table_merges_and_drains_deterministically() {
        let mut t: CombineTable<IntWritable, IntWritable> = CombineTable::new();
        // Absorb in a scrambled order; equal keys across "tasks" merge.
        t.absorb(1, Arc::new(IntWritable(9)), Arc::new(IntWritable(100)));
        t.absorb(0, Arc::new(IntWritable(4)), Arc::new(IntWritable(1)));
        t.absorb(1, Arc::new(IntWritable(9)), Arc::new(IntWritable(200)));
        t.absorb(0, Arc::new(IntWritable(2)), Arc::new(IntWritable(7)));
        t.absorb(0, Arc::new(IntWritable(4)), Arc::new(IntWritable(2)));
        assert_eq!(t.records(), 5);
        assert_eq!(t.groups(), 3);
        let drained: Vec<_> = t
            .drain()
            .map(|(p, k, vs)| (p, k.0, vs.iter().map(|v| v.0).collect::<Vec<_>>()))
            .collect();
        // Partition-ascending, then key-bytes-ascending; values in arrival
        // (task) order within each group.
        assert_eq!(
            drained,
            vec![
                (0, 2, vec![7]),
                (0, 4, vec![1, 2]),
                (1, 9, vec![100, 200]),
            ]
        );
        assert!(t.is_empty(), "drain resets the table");
        assert_eq!(t.bytes(), 0);
        assert_eq!(t.records(), 0);
    }

    #[test]
    fn combine_table_byte_accounting_grows_per_absorb() {
        let mut t: CombineTable<IntWritable, BytesWritable> = CombineTable::new();
        let k = Arc::new(IntWritable(1));
        let (g1, klen) = t.absorb(0, Arc::clone(&k), Arc::new(BytesWritable(vec![0u8; 10].into())));
        assert_eq!(klen, k.serialized_size() as u64);
        assert!(g1 > 10, "first absorb pays key + entry overhead");
        let (g2, _) = t.absorb(0, Arc::clone(&k), Arc::new(BytesWritable(vec![0u8; 10].into())));
        assert!(g2 < g1, "merging into an existing group is cheaper");
        assert_eq!(t.bytes(), g1 + g2);
    }

    #[test]
    fn bad_partition_from_partitioner_is_rejected() {
        let mut buf: MapOutputBuffer<IntWritable, BytesWritable> = MapOutputBuffer::new(
            2,
            Box::new(FnPartitioner::new(|_: &IntWritable, _: &BytesWritable, _| 7)),
            true,
        );
        assert!(buf
            .collect(Arc::new(IntWritable(0)), Arc::new(BytesWritable(vec![].into())))
            .is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use hmr_api::writable::{BytesWritable, IntWritable};
    use proptest::prelude::*;

    fn mode_strategy() -> impl Strategy<Value = DedupMode> {
        prop_oneof![
            Just(DedupMode::Full),
            Just(DedupMode::Consecutive),
            Just(DedupMode::Off),
        ]
    }

    /// Where one bucket's handles come from. Kind 0: a sole handle; 1: one
    /// of three `Arc`s repeated only inside the bucket; 2: one of three
    /// `Arc`s an outside holder keeps; 3: a fresh `Arc` with a live `Weak`.
    struct Handles<T> {
        repeated: Vec<Arc<T>>,
        outside: Vec<Arc<T>>,
        weak: Vec<std::sync::Weak<T>>,
    }

    impl<T> Handles<T> {
        fn new(make: impl Fn(u8) -> T) -> Self {
            Handles {
                repeated: (0..3).map(|i| Arc::new(make(100 + i))).collect(),
                outside: (0..3).map(|i| Arc::new(make(200 + i))).collect(),
                weak: Vec::new(),
            }
        }

        fn pick(&mut self, kind: u8, idx: u8, fresh: T) -> Arc<T> {
            match kind {
                0 => Arc::new(fresh),
                1 => Arc::clone(&self.repeated[idx as usize]),
                2 => Arc::clone(&self.outside[idx as usize]),
                _ => {
                    let a = Arc::new(fresh);
                    self.weak.push(Arc::downgrade(&a));
                    a
                }
            }
        }
    }

    type Spec = (usize, (u8, u8), (u8, u8), u8);

    /// Encode the bucket `spec` describes, by `push` or by `push_owned`;
    /// the outside holders and weak handles live until the stream is done.
    fn encode_bucket(
        spec: &[Spec],
        mode: DedupMode,
        owned: bool,
    ) -> (Bytes, x10rt::serialize::SerStats, Vec<u32>) {
        let mut keys = Handles::new(|i| IntWritable(i32::from(i)));
        let mut values = Handles::new(|i| BytesWritable(vec![i].into()));
        let bucket: Vec<_> = spec
            .iter()
            .map(|&(p, (kk, ki), (vk, vi), x)| {
                let k = keys.pick(kk, ki, IntWritable(i32::from(x)));
                (p, k, values.pick(vk, vi, BytesWritable(vec![x; 3].into())))
            })
            .collect();
        keys.repeated.clear();
        values.repeated.clear();
        let mut stream = ShuffleStream::new(mode);
        if owned {
            for (p, k, v) in bucket {
                stream.push_owned(p, k, v);
            }
        } else {
            for (p, k, v) in &bucket {
                stream.push(*p, k, v);
            }
        }
        stream.finish()
    }

    fn spec_strategy() -> impl Strategy<Value = Vec<Spec>> {
        proptest::collection::vec(
            (0usize..8, (0u8..4, 0u8..3), (0u8..4, 0u8..3), any::<u8>()),
            0..60,
        )
    }

    type Decoded = Vec<(usize, Arc<IntWritable>, Arc<BytesWritable>)>;

    /// Per record, the first record whose key (value) is the same `Arc`.
    fn alias_pattern(recs: &Decoded) -> Vec<(usize, usize)> {
        recs.iter()
            .map(|(_, k, v)| {
                let first_k = recs.iter().position(|(_, k2, _)| Arc::ptr_eq(k, k2));
                let first_v = recs.iter().position(|(_, _, v2)| Arc::ptr_eq(v, v2));
                (first_k.unwrap(), first_v.unwrap())
            })
            .collect()
    }

    proptest! {
        /// Handing the stream its handles changes no byte and no stat —
        /// total, payload, hits, retained, targeted ordinals — in any mode,
        /// whether a handle is sole, repeated in the bucket, held outside
        /// or watched by a `Weak`.
        #[test]
        fn push_owned_matches_push(spec in spec_strategy(), mode in mode_strategy()) {
            let owned = encode_bucket(&spec, mode, true);
            prop_assert_eq!(owned, encode_bucket(&spec, mode, false));
        }

        /// Registering only the published targets rebuilds exactly the
        /// values and the aliasing of registering everything, over
        /// broadcast values, sole handles and repeats in every mode; with
        /// any one target left out, the first back-reference to it is a
        /// dangling-reference error, not a panic.
        #[test]
        fn target_lists_keep_aliasing_exact(
            spec in spec_strategy(),
            mode in mode_strategy(),
            drop_at in any::<usize>(),
        ) {
            let (bytes, stats, targets) = encode_bucket(&spec, mode, true);
            prop_assert!(targets.windows(2).all(|w| w[0] < w[1]), "ascending, once each");
            prop_assert_eq!(targets.is_empty(), stats.dedup_hits == 0);
            let all: Decoded = decode_stream(bytes.clone()).collect::<Result<_>>().unwrap();
            let some: Decoded =
                decode_targeted(bytes.clone(), targets.clone()).collect::<Result<_>>().unwrap();
            let flat = |recs: &Decoded| -> Vec<(usize, i32, Vec<u8>)> {
                recs.iter().map(|(p, k, v)| (*p, k.0, v.0.to_vec())).collect()
            };
            prop_assert_eq!(flat(&all), flat(&some));
            prop_assert_eq!(alias_pattern(&all), alias_pattern(&some));
            if !targets.is_empty() {
                let mut fewer = targets.clone();
                let dropped = fewer.remove(drop_at % targets.len());
                let err = decode_targeted::<IntWritable, BytesWritable>(bytes, fewer)
                    .find_map(|r| r.err())
                    .expect("a back-reference names the dropped ordinal");
                prop_assert_eq!(
                    err.to_string(),
                    ser_err(SerError::BadBackref(dropped)).to_string()
                );
            }
        }

        /// A valid stream cut at any byte, with one byte changed, or made
        /// of arbitrary bytes decodes — with or without a target list, and
        /// with the values taken as views — to records or to an error,
        /// never a panic.
        #[test]
        fn decode_survives_truncation_and_garbage(
            spec in spec_strategy(),
            mode in mode_strategy(),
            (at, flip) in (any::<usize>(), 1u8..=255),
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
            stray in proptest::collection::vec(any::<u32>(), 0..4),
        ) {
            let (bytes, _, targets) = encode_bucket(&spec, mode, true);
            let decode_all = |b: Bytes| {
                let _ = decode_stream::<IntWritable, BytesWritable>(b.clone()).count();
                let _ = decode_targeted::<IntWritable, BytesWritable>(b.clone(), targets.clone())
                    .count();
                let _ = decode_targeted::<IntWritable, BytesWritable>(b, stray.clone()).count();
            };
            for cut in (0..bytes.len()).step_by(1 + bytes.len() / 64) {
                decode_all(bytes.slice(..cut));
            }
            if !bytes.is_empty() {
                let mut flipped = bytes.to_vec();
                flipped[at % bytes.len()] ^= flip;
                decode_all(flipped.into());
            }
            decode_all(garbage.into());
        }

        /// Streams decode back to exactly what was pushed, in order, for
        /// every de-duplication mode and any aliasing pattern (shared Arcs
        /// simulate broadcast reuse).
        #[test]
        fn stream_roundtrips_under_all_modes(
            records in proptest::collection::vec(
                (0usize..8, 0u8..4, proptest::collection::vec(any::<u8>(), 0..16)),
                0..80,
            ),
            mode in mode_strategy(),
        ) {
            // A small pool of shared values: index 0..4 alias each other.
            let pool: Vec<Arc<BytesWritable>> = (0..4)
                .map(|i| Arc::new(BytesWritable(vec![i as u8; 8].into())))
                .collect();
            let mut stream = ShuffleStream::new(mode);
            let mut expect = Vec::new();
            for (p, pool_idx, fresh) in &records {
                // Alternate between pooled (aliased) and fresh values.
                let value = if fresh.is_empty() {
                    Arc::clone(&pool[*pool_idx as usize])
                } else {
                    Arc::new(BytesWritable(fresh.clone().into()))
                };
                let key = Arc::new(IntWritable(*p as i32));
                stream.push(*p, &key, &value);
                expect.push((*p, key.0, value.0.clone()));
            }
            let (bytes, stats, _) = stream.finish();
            let decoded: Vec<_> = decode_stream::<IntWritable, BytesWritable>(bytes)
                .collect::<Result<_>>()
                .unwrap();
            prop_assert_eq!(decoded.len(), expect.len());
            for ((p, k, v), (ep, ek, ev)) in decoded.iter().zip(&expect) {
                prop_assert_eq!(p, ep);
                prop_assert_eq!(k.0, *ek);
                prop_assert_eq!(&v.0, ev);
            }
            // Dedup can only ever shrink the stream.
            if mode == DedupMode::Off {
                prop_assert_eq!(stats.dedup_hits, 0);
            }
        }

        /// Whatever is collected, a grouping buffer hands the combiner
        /// exactly the groups — same first key, same values in the same
        /// order — that a stable sort + span scan of the plain buffer's
        /// pairs does, partition by partition.
        #[test]
        fn grouping_buffer_matches_stable_sort_then_group(
            picks in proptest::collection::vec((0u8..4, 0u16..300), 0..700),
        ) {
            use hmr_api::comparator::{group_spans, sort_pairs_tuned};
            use hmr_api::partition::HashPartitioner;
            use hmr_api::writable::Text;
            let emitted: Vec<(Arc<Text>, Arc<IntWritable>)> = picks
                .iter()
                .enumerate()
                .map(|(i, &(shape, k))| {
                    let key = match shape {
                        0 => String::new(),
                        1 => format!("{}", k % 5),
                        2 => format!("shared-prefix-{k:03}"),
                        _ => format!("w{k}"),
                    };
                    (Arc::new(Text::from(key)), Arc::new(IntWritable(i as i32)))
                })
                .collect();
            let mut grouping = MapOutputBuffer::grouping(3, Box::new(HashPartitioner), true);
            let mut plain = MapOutputBuffer::new(3, Box::new(HashPartitioner), true);
            for (k, v) in &emitted {
                grouping.collect(Arc::clone(k), Arc::clone(v)).unwrap();
                plain.collect(Arc::clone(k), Arc::clone(v)).unwrap();
            }
            let nat = KeyComparator::<Text>::natural();
            let decoded = SortTuning { raw_min_pairs: usize::MAX };
            for (g, p) in grouping.into_parts().into_iter().zip(plain.into_parts()) {
                prop_assert_eq!(g.len(), p.len());
                let mut sorted = p.into_pairs();
                sort_pairs_tuned(&mut sorted, &nat, &decoded, None);
                let expect: Vec<_> = group_spans(&sorted, &nat)
                    .into_iter()
                    .map(|s| {
                        let values: Vec<_> = sorted[s.clone()].iter().map(|(_, v)| Arc::clone(v)).collect();
                        (Arc::clone(&sorted[s.start].0), values)
                    })
                    .collect();
                let mut got = Vec::new();
                g.into_grouped(&nat, &nat)
                    .for_each_group(|k, vs| {
                        got.push((k, vs.collect::<Vec<_>>()));
                        Ok(())
                    })
                    .unwrap();
                prop_assert_eq!(got.len(), expect.len());
                for ((gk, gv), (ek, ev)) in got.iter().zip(&expect) {
                    prop_assert!(Arc::ptr_eq(gk, ek), "the first-arrived key Arc");
                    prop_assert_eq!(gv.len(), ev.len());
                    prop_assert!(gv.iter().zip(ev).all(|(a, b)| Arc::ptr_eq(a, b)));
                }
            }
        }

        /// Full de-duplication never sends more payload bytes than Off.
        #[test]
        fn full_dedup_never_larger(
            repeats in 1usize..40,
        ) {
            let v = Arc::new(BytesWritable(vec![7u8; 64].into()));
            let sizes: Vec<u64> = [DedupMode::Full, DedupMode::Off]
                .iter()
                .map(|mode| {
                    let mut s = ShuffleStream::new(*mode);
                    for i in 0..repeats {
                        s.push(i % 4, &Arc::new(IntWritable(i as i32)), &v);
                    }
                    s.finish().1.total_bytes
                })
                .collect();
            prop_assert!(sizes[0] <= sizes[1]);
        }
    }
}
