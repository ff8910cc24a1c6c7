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
//!
//! Before any of that, the job's combiner runs map-side, and with place
//! combining on once more across every map task of a place. Both scopes
//! group through one kernel ([`MapPart`]) under one rule: a combiner that
//! declares a fold ([`TaskReducer::as_fold`]) under natural sort and
//! grouping comparators is applied at `collect()`, each partition keeping
//! one accumulator per distinct key and dropping every duplicate key and
//! value on the spot. Every other combiner runs over the partition's plain
//! pairs through the sort path. Either way the partition goes through one
//! combiner run, the one both engines share ([`combine_run`]): `setup`, the
//! groups, `cleanup`, and the `COMBINE_*` counters.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hmr_api::collect::{OutputCollector, VecCollector};
use hmr_api::comparator::{
    apply_permutation, ingest_reduce_groups, KeyComparator, RawKeyIndex, SortTuning,
};
use hmr_api::counters::TaskContext;
use hmr_api::error::{HmrError, Result};
use hmr_api::partition::Partitioner;
use hmr_api::task::{combine_run, CombineInput, Objects, TaskReducer};
use hmr_api::writable::{ByteReader, Writable};
use simgrid::cost::Charge;
use simgrid::meter;
use x10rt::serialize::{DedupMode, Deserializer, SerError, Serializer};

/// A combiner's fold, as [`TaskReducer::as_fold`] declares it: the
/// accumulator first, the next value second.
type Fold<V> = fn(&mut V, &V);

/// The fold rule, for the map buffer and the place table alike: fold at
/// collect time when the combiner declares a fold and both the sort and
/// the grouping comparator are natural. Then raw-key equality is the
/// grouping relation and ascending raw order the reduce order, so one
/// accumulator per raw key, ordered by raw key at the end, is what the
/// sort path would hand the combiner's `reduce` to compute.
fn fold_rule<K, V>(
    combiner: Option<&dyn TaskReducer<K, V, K, V>>,
    sort_cmp: &KeyComparator<K>,
    group_cmp: &KeyComparator<K>,
) -> Option<Fold<V>> {
    combiner
        .and_then(|c| c.as_fold())
        .filter(|_| sort_cmp.is_natural() && group_cmp.is_natural())
}

/// §4.1: an `ImmutableOutput` job promised not to mutate emitted objects,
/// so what is retained is an alias; otherwise a deep copy.
fn own<T: Clone>(x: Arc<T>, immutable: bool) -> Arc<T> {
    if immutable {
        x
    } else {
        Arc::new((*x).clone())
    }
}

/// Map-task-side collector: partitions emitted pairs, applying the
/// `ImmutableOutput` cloning contract at emit time, and collects each into
/// its [`MapPart`].
pub struct MapOutputBuffer<K, V> {
    partitioner: Box<dyn Partitioner<K, V>>,
    num_partitions: usize,
    immutable: bool,
    parts: Vec<MapPart<K, V>>,
}

/// One partition's collected records: of a map task, or of every map task
/// of a place bound for one destination ([`CombineTable`]).
pub enum MapPart<K, V> {
    /// Collected pairs in arrival order, `records` of them collected. A
    /// folding partition that degraded leads with its groups so far as
    /// `(key, acc)` pairs, so it holds fewer pairs than records.
    Pairs {
        /// The pairs, in arrival order.
        pairs: Vec<(Arc<K>, Arc<V>)>,
        /// Records collected into the partition.
        records: usize,
    },
    /// Folded at collect time.
    Groups(KeyGroups<K, V>),
}

/// A partition folded at collect time: the index that says which key
/// belongs to which group, and per group the first-arrived key and the
/// combiner's accumulator.
pub struct KeyGroups<K, V> {
    index: RawKeyIndex,
    fold: Fold<V>,
    /// Group id -> the key that founded the group.
    keys: Vec<Arc<K>>,
    /// Group id -> a copy of the group's first value with every later
    /// value folded in, in arrival order.
    accs: Vec<V>,
    /// Records collected into the partition.
    records: usize,
}

impl<K, V> KeyGroups<K, V> {
    fn new(fold: Fold<V>) -> Self {
        KeyGroups {
            index: RawKeyIndex::with_capacity(0),
            fold,
            keys: Vec::new(),
            accs: Vec::new(),
            records: 0,
        }
    }

    /// One `(key, acc)` pair per group, in founding order.
    fn into_pairs(self) -> Vec<(Arc<K>, Arc<V>)> {
        let accs = self.accs.into_iter().map(Arc::new);
        self.keys.into_iter().zip(accs).collect()
    }

    /// The `(key, acc)` pairs ascending by raw key: what the combiner's
    /// `reduce` would emit on the sort path, without calling it.
    fn combine(self) -> Vec<(Arc<K>, Arc<V>)> {
        let mut order = self.index.group_order(&SortTuning::default());
        let mut pairs = self.into_pairs();
        apply_permutation(&mut pairs, &mut order);
        pairs
    }
}

impl<K, V> MapPart<K, V>
where
    K: Writable + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty partition: folding under `fold` (see [`fold_rule`]), else
    /// plain pairs with room for `capacity` records.
    fn new(fold: Option<Fold<V>>, capacity: usize) -> Self {
        match fold {
            Some(fold) => MapPart::Groups(KeyGroups::new(fold)),
            None => MapPart::Pairs {
                pairs: Vec::with_capacity(capacity),
                records: 0,
            },
        }
    }

    /// Collect one record, keeping what it keeps through [`own`]. A folding
    /// partition interns the key's raw sort bytes from the borrowed key: a
    /// key that founds a group is kept with a copy of its value (moved out
    /// when nothing else holds it), and any later value is folded into its
    /// group's accumulator and dropped here, on the thread that made it. A
    /// key with no raw sort form, or an index outgrowing its `u32` offsets
    /// or group ids, degrades the partition to pairs: its folded groups so
    /// far as `(key, acc)`, then this and every later record.
    fn collect(&mut self, key: Arc<K>, value: Arc<V>, immutable: bool)
    where
        K: Clone,
    {
        if let MapPart::Groups(groups) = self {
            if let Some((g, founded)) = groups.index.intern(&*key) {
                groups.records += 1;
                if founded {
                    groups.keys.push(own(key, immutable));
                    groups.accs.push(Arc::unwrap_or_clone(value));
                } else {
                    (groups.fold)(&mut groups.accs[g as usize], &value);
                }
                return;
            }
            let records = self.len();
            let folded = std::mem::replace(self, MapPart::new(None, 0));
            *self = MapPart::Pairs {
                pairs: folded.into_pairs(),
                records,
            };
        }
        if let MapPart::Pairs { pairs, records } = self {
            pairs.push((own(key, immutable), own(value, immutable)));
            *records += 1;
        }
    }

    /// Records collected into this partition.
    pub fn len(&self) -> usize {
        match self {
            MapPart::Pairs { records, .. } => *records,
            MapPart::Groups(groups) => groups.records,
        }
    }

    /// True when nothing was collected into this partition.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition as pairs: every record in arrival order, or, where
    /// it folded, one `(key, acc)` pair per group.
    pub fn into_pairs(self) -> Vec<(Arc<K>, Arc<V>)> {
        match self {
            MapPart::Pairs { pairs, .. } => pairs,
            MapPart::Groups(groups) => groups.into_pairs(),
        }
    }

    /// The partition through the job's combiner as one combiner run
    /// ([`combine_run`]), in reduce order: the groups, keys and value order
    /// of a stable sort under `sort_cmp` split by `group_cmp`, one `reduce`
    /// per group, between the combiner's `setup` and `cleanup`. A partition
    /// that folded at collect time holds its answer already and only orders
    /// its groups: `(key, acc)` per group, handed over whole, no `reduce`
    /// call. Returns the combined pairs and the number of groups.
    pub fn combine(
        self,
        combiner: &mut dyn TaskReducer<K, V, K, V>,
        sort_cmp: &KeyComparator<K>,
        group_cmp: &KeyComparator<K>,
        ctx: &mut TaskContext,
    ) -> Result<(Vec<(Arc<K>, Arc<V>)>, usize)> {
        let records = self.len();
        let input = match self {
            MapPart::Groups(groups) => CombineInput::Folded(groups.combine()),
            MapPart::Pairs { mut pairs, .. } => {
                let tuning = SortTuning::default();
                let groups = ingest_reduce_groups(&mut pairs, sort_cmp, group_cmp, &tuning, None);
                CombineInput::Sort(pairs, groups)
            }
        };
        let mut out = VecCollector::new();
        let groups = combine_run(combiner, records, input, Objects, &mut out, ctx)?;
        Ok((out.pairs, groups))
    }
}

impl<K, V> MapOutputBuffer<K, V>
where
    K: Writable + Clone + Send + Sync + 'static,
    V: Writable + Clone + Send + Sync + 'static,
{
    /// A buffer for `num_partitions` partitions of a map task whose job
    /// has `combiner` (if any) and the given comparators. Its partitions
    /// fold at `collect()` when the combiner declares a fold
    /// ([`TaskReducer::as_fold`]) and both comparators are natural (the
    /// fold rule, `fold_rule`, which the place table shares). Every other
    /// buffer keeps plain pairs, each partition pre-sized for
    /// `expected_records` spread uniformly (the repeated doubling a map task
    /// would otherwise pay per bucket). A folding partition is not, since
    /// its groups are a fraction of the input.
    pub fn new(
        num_partitions: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
        combiner: Option<&dyn TaskReducer<K, V, K, V>>,
        sort_cmp: &KeyComparator<K>,
        group_cmp: &KeyComparator<K>,
        expected_records: usize,
    ) -> Self {
        let num_partitions = num_partitions.max(1);
        let fold = fold_rule(combiner, sort_cmp, group_cmp);
        let per_part = expected_records.div_ceil(num_partitions);
        MapOutputBuffer {
            partitioner,
            num_partitions,
            immutable,
            parts: std::iter::repeat_with(|| MapPart::new(fold, per_part))
                .take(num_partitions)
                .collect(),
        }
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
        if !self.immutable {
            // §3.2.2.1: "this forces M3R to conservatively make a copy of
            // every key/value pair." Billed per emitted record, whether or
            // not folding ends up needing the copies.
            let bytes = (key.serialized_size() + value.serialized_size()) as u64;
            meter::charge(Charge::Clone { bytes });
            meter::charge(Charge::Alloc { objects: 2 });
        }
        self.parts[p].collect(key, value, self.immutable);
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

/// A place-level shared combine table (after the in-node combiners line
/// of work): one table per *destination* place, fed by every map task of
/// the source place, merging equal keys **across tasks** before the
/// shuffle stream serializes anything. Where per-mapper combining only
/// collapses duplicates within one task's output, this collapses them
/// across the whole map wave — on skewed keys that is where most of the
/// remaining shuffle volume lives.
///
/// It is the map side's partition kept across a place's tasks: one
/// [`MapPart`] per partition seen, built under the same fold rule and
/// drained through [`MapPart::combine`]. So the drain answers, partition by
/// partition in ascending order, what a stable sort of the absorbed records
/// under the job's comparators, grouped and `reduce`d, gives. Records
/// arrive in task order (buckets are absorbed on the place thread in task
/// order), so equal keys tie-break on task order, and the job's combiner
/// must be associative + commutative (see `hmr_api::conf::PLACE_COMBINE`).
pub struct CombineTable<K, V> {
    fold: Option<Fold<V>>,
    sort_cmp: KeyComparator<K>,
    group_cmp: KeyComparator<K>,
    /// Partition -> every record absorbed for it since the last drain.
    parts: BTreeMap<usize, MapPart<K, V>>,
    bytes: u64,
}

impl<K, V> CombineTable<K, V>
where
    K: Writable + Clone + Send + Sync + 'static,
    V: Writable + Clone + Send + Sync + 'static,
{
    /// An empty table for `combiner` under the job's comparators.
    pub fn new(
        combiner: &dyn TaskReducer<K, V, K, V>,
        sort_cmp: &KeyComparator<K>,
        group_cmp: &KeyComparator<K>,
    ) -> Self {
        CombineTable {
            fold: fold_rule(Some(combiner), sort_cmp, group_cmp),
            sort_cmp: sort_cmp.clone(),
            group_cmp: group_cmp.clone(),
            parts: BTreeMap::new(),
            bytes: 0,
        }
    }

    /// True when nothing has been absorbed since the last drain.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Modelled live bytes held — what the memory accountant carries under
    /// `MemClass::Combine`: the serialized key and value size of every
    /// absorbed record, whatever the table keeps of it, so budget flush
    /// points depend neither on the combiner's declaration nor on the
    /// comparators.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Absorb one `(partition, key, value)` record into its partition
    /// (`MapPart::collect`, aliasing the handles the table now owns).
    /// Returns `(grew_bytes, key_bytes)`: how many modelled bytes the table
    /// grew by, and the key's serialized size (the serialization work the
    /// caller bills for admission).
    pub fn absorb(&mut self, partition: usize, key: Arc<K>, value: Arc<V>) -> (u64, u64) {
        let klen = key.serialized_size() as u64;
        let grew = klen + value.serialized_size() as u64;
        self.parts
            .entry(partition)
            .or_insert_with(|| MapPart::new(self.fold, 0))
            .collect(key, value, true);
        self.bytes += grew;
        (grew, klen)
    }

    /// Drain every partition through `combiner` ([`MapPart::combine`]),
    /// partitions ascending, and reset the table to empty. `emit` receives
    /// every combined pair with its partition. Returns the number of groups
    /// the combine saw.
    pub fn drain_combined(
        &mut self,
        combiner: &mut dyn TaskReducer<K, V, K, V>,
        ctx: &mut TaskContext,
        mut emit: impl FnMut(usize, Arc<K>, Arc<V>),
    ) -> Result<u64> {
        self.bytes = 0;
        let mut groups = 0;
        for (p, part) in std::mem::take(&mut self.parts) {
            let (pairs, count) = part.combine(combiner, &self.sort_cmp, &self.group_cmp, ctx)?;
            groups += count as u64;
            for (k, v) in pairs {
                emit(p, k, v);
            }
        }
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::partition::FnPartitioner;
    use hmr_api::task::LongSumReducer;
    use hmr_api::writable::{BytesWritable, IntWritable, LongWritable};

    fn modulo_partitioner() -> Box<dyn Partitioner<IntWritable, BytesWritable>> {
        Box::new(FnPartitioner::new(|k: &IntWritable, _: &BytesWritable, n| {
            k.0 as usize % n
        }))
    }

    /// A buffer for `combiner` (if any) under natural comparators.
    pub(super) fn buffer<K, V>(
        parts: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        immutable: bool,
        combiner: Option<&dyn TaskReducer<K, V, K, V>>,
    ) -> MapOutputBuffer<K, V>
    where
        K: Writable + Ord + Clone + Send + Sync + 'static,
        V: Writable + Clone + Send + Sync + 'static,
    {
        let nat = KeyComparator::natural();
        MapOutputBuffer::new(parts, partitioner, immutable, combiner, &nat, &nat, 0)
    }

    #[test]
    fn immutable_buffer_aliases() {
        let mut buf = buffer(4, modulo_partitioner(), true, None);
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
            let mut buf = buffer(4, modulo_partitioner(), false, None);
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

    pub(super) fn task_ctx() -> TaskContext {
        TaskContext::new(
            "t_0",
            Arc::new(hmr_api::conf::JobConf::new()),
            Arc::new(hmr_api::distcache::DistCache::empty()),
        )
    }

    /// Emits each group's first value and reads no further. It declares
    /// the matching fold, which leaves the accumulator as it is.
    pub(super) struct FirstOnly;

    impl<K: Send + Sync, V: Send + Sync> TaskReducer<K, V, K, V> for FirstOnly {
        fn reduce(
            &mut self,
            key: Arc<K>,
            values: &mut dyn Iterator<Item = Arc<V>>,
            out: &mut dyn OutputCollector<K, V>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.collect(key, values.next().expect("groups are never empty"))
        }

        fn as_fold(&self) -> Option<fn(&mut V, &V)> {
            Some(|_, _| {})
        }
    }

    /// A finished partition through [`FirstOnly`] under natural
    /// comparators: `(first key, first value)` per group, ascending.
    pub(super) fn firsts<K, V>(part: MapPart<K, V>) -> Vec<(Arc<K>, Arc<V>)>
    where
        K: Writable + Ord + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let nat = KeyComparator::natural();
        part.combine(&mut FirstOnly, &nat, &nat, &mut task_ctx()).unwrap().0
    }

    #[test]
    fn folding_buffer_aliases_first_key_and_drops_duplicates_at_collect() {
        let mut buf = buffer(4, modulo_partitioner(), true, Some(&FirstOnly));
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
        let mut parts = buf.into_parts();
        assert!(matches!(parts[1], MapPart::Groups(_)));
        assert_eq!(parts[1].len(), 5);
        assert!(parts[0].is_empty());
        for (k, v) in &emitted[2..] {
            assert_eq!(Arc::strong_count(k), 1, "duplicate keys were dropped at collect");
            assert_eq!(Arc::strong_count(v), 1, "duplicate values were folded and dropped");
        }
        let groups = firsts(parts.swap_remove(1));
        assert_eq!(groups.len(), 2, "groups ascending: 5 then 9");
        assert!(Arc::ptr_eq(&groups[0].0, &emitted[1].0), "first-arrived key of 5");
        assert!(Arc::ptr_eq(&groups[1].0, &emitted[0].0), "first-arrived key of 9");
        assert_eq!(*groups[0].1, *emitted[1].1, "each group's accumulator is its first value");
        assert_eq!(*groups[1].1, *emitted[0].1);
    }

    #[test]
    fn folding_buffer_bills_every_record_but_copies_keys_once_per_group() {
        let run = |fold: bool| {
            let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
            let k = Arc::new(IntWritable(5));
            let v = Arc::new(BytesWritable(vec![1, 2, 3].into()));
            let before = cluster.metrics().snapshot();
            let groups = simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
                let combiner: Option<&dyn TaskReducer<IntWritable, BytesWritable, _, _>> =
                    if fold { Some(&FirstOnly) } else { None };
                let mut buf = buffer(4, modulo_partitioner(), false, combiner);
                for _ in 0..3 {
                    buf.collect(Arc::clone(&k), Arc::clone(&v)).unwrap();
                }
                let part = buf.into_parts().swap_remove(1);
                assert_eq!(matches!(part, MapPart::Groups(_)), fold);
                firsts(part)
            });
            assert_eq!(Arc::strong_count(&k), 1, "nothing emitted is retained");
            assert_eq!(Arc::strong_count(&v), 1);
            assert_eq!(groups.len(), 1);
            assert!(!Arc::ptr_eq(&groups[0].0, &k), "defensive copy of the key");
            assert_eq!(*groups[0].0, *k);
            assert_eq!(*groups[0].1, *v);
            cluster.metrics().snapshot().since(&before)
        };
        let (folded, plain) = (run(true), run(false));
        assert_eq!(folded, plain, "identical charges with and without the fold");
        assert_eq!(folded.allocs, 6);
        assert!(folded.clone_bytes > 0);
    }

    /// A key that has a raw sort form except for one value (no real type
    /// behaves like this; it stands in for "any later key declines").
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub(super) struct Flaky(pub i32);
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
    fn folding_buffer_degrades_to_pairs_when_a_key_has_no_raw_form() {
        let keys = [7, 3, 7, 13, 3, 13, 7, 1];
        let collect_all = |mut buf: MapOutputBuffer<Flaky, IntWritable>| {
            for (i, &k) in keys.iter().enumerate() {
                buf.collect(Arc::new(Flaky(k)), Arc::new(IntWritable(i as i32)))
                    .unwrap();
            }
            buf.into_parts().swap_remove(0)
        };
        let one_part = || Box::new(FnPartitioner::new(|_: &Flaky, _: &IntWritable, _| 0));
        let folding = || buffer(1, one_part(), true, Some(&FirstOnly));
        let degraded = collect_all(folding());
        assert!(
            matches!(degraded, MapPart::Pairs { .. }),
            "the fourth key declined"
        );
        assert_eq!(degraded.len(), keys.len(), "the true record count");
        let plain = collect_all(buffer(1, one_part(), true, None));
        let flat = |pairs: Vec<(Arc<Flaky>, Arc<IntWritable>)>| -> Vec<(i32, i32)> {
            pairs.iter().map(|(k, v)| (k.0, v.0)).collect()
        };
        // The groups folded so far as `(key, acc)` in founding order, then
        // the later records in arrival order.
        assert_eq!(
            flat(collect_all(folding()).into_pairs()),
            vec![(7, 0), (3, 1), (13, 3), (3, 4), (13, 5), (7, 6), (1, 7)]
        );
        // ...and the combiner answers exactly what the plain buffer gives.
        let expect = vec![(1, 7), (3, 1), (7, 0), (13, 3)];
        assert_eq!(flat(firsts(degraded)), expect);
        assert_eq!(flat(firsts(plain)), expect);
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

    /// `LongSumReducer` without its fold declaration.
    pub(super) struct Unfolded;

    impl<K: Send + Sync + 'static> TaskReducer<K, LongWritable, K, LongWritable> for Unfolded {
        fn reduce(
            &mut self,
            key: Arc<K>,
            values: &mut dyn Iterator<Item = Arc<LongWritable>>,
            out: &mut dyn OutputCollector<K, LongWritable>,
            ctx: &mut TaskContext,
        ) -> Result<()> {
            LongSumReducer.reduce(key, values, out, ctx)
        }
    }

    #[test]
    fn bad_partition_from_partitioner_is_rejected() {
        let mut buf: MapOutputBuffer<IntWritable, BytesWritable> = buffer(
            2,
            Box::new(FnPartitioner::new(|_: &IntWritable, _: &BytesWritable, _| 7)),
            true,
            None,
        );
        assert!(buf
            .collect(Arc::new(IntWritable(0)), Arc::new(BytesWritable(vec![].into())))
            .is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::{buffer, firsts, task_ctx, FirstOnly, Flaky, Unfolded};
    use super::*;
    use hmr_api::partition::FnPartitioner;
    use hmr_api::collect::VecCollector;
    use hmr_api::counters::task_counter::{COMBINE_INPUT_RECORDS, COMBINE_OUTPUT_RECORDS};
    use hmr_api::task::{IdentityReducer, LongSumReducer};
    use hmr_api::writable::{BytesWritable, IntWritable, LongWritable, Text};
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
            // The same records as `Text` pairs whose values hold multi-byte
            // chars (one of them shared, so back-referenced), so a cut or a
            // changed byte can land inside a char.
            let (text, _, text_targets) = {
                let shared = Arc::new(Text::from("ïß"));
                let mut stream = ShuffleStream::new(mode);
                for &(p, _, (vk, _), x) in &spec {
                    let v = match vk {
                        1 => Arc::clone(&shared),
                        _ => Arc::new(Text::from(format!("{x}日本"))),
                    };
                    stream.push_owned(p, Arc::new(Text::from(format!("k{x}"))), v);
                }
                stream.finish()
            };
            let decode_all = |b: Bytes, targets: &Vec<u32>| {
                let _ = decode_stream::<IntWritable, BytesWritable>(b.clone()).count();
                let _ = decode_targeted::<IntWritable, BytesWritable>(b.clone(), targets.clone())
                    .count();
                let _ = decode_targeted::<IntWritable, BytesWritable>(b.clone(), stray.clone())
                    .count();
                let _ = decode_targeted::<Text, Text>(b.clone(), stray.clone()).count();
                let _ = decode_targeted::<Text, Text>(b.clone(), targets.clone()).count();
                // Whatever decodes as `Text` is valid UTF-8.
                for (_, k, v) in decode_stream::<Text, Text>(b).flatten() {
                    assert!(std::str::from_utf8(k.as_str().as_bytes()).is_ok());
                    assert!(std::str::from_utf8(v.as_str().as_bytes()).is_ok());
                }
            };
            for (bytes, targets) in [(&bytes, &targets), (&text, &text_targets)] {
                for cut in (0..bytes.len()).step_by(1 + bytes.len() / 64) {
                    decode_all(bytes.slice(..cut), targets);
                }
                if !bytes.is_empty() {
                    let mut flipped = bytes.to_vec();
                    flipped[at % bytes.len()] ^= flip;
                    decode_all(flipped.into(), targets);
                }
            }
            decode_all(garbage.into(), &targets);
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

        /// Whatever is collected, a folding buffer answers, partition by
        /// partition, with the groups a stable sort + span scan of the plain
        /// buffer's pairs gives: the same first-arrived key `Arc` at the
        /// head of each, ascending, and the fold of its values.
        #[test]
        fn folding_buffer_matches_stable_sort_then_group(
            picks in proptest::collection::vec((0u8..4, 0u16..300), 0..700),
        ) {
            use hmr_api::comparator::{group_spans, sort_pairs_tuned};
            use hmr_api::partition::HashPartitioner;
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
            let mut folding = buffer(3, Box::new(HashPartitioner), true, Some(&FirstOnly));
            let mut plain = buffer(3, Box::new(HashPartitioner), true, None);
            for (k, v) in &emitted {
                folding.collect(Arc::clone(k), Arc::clone(v)).unwrap();
                plain.collect(Arc::clone(k), Arc::clone(v)).unwrap();
            }
            let nat = KeyComparator::<Text>::natural();
            let decoded = SortTuning { raw_min_pairs: usize::MAX };
            for (f, p) in folding.into_parts().into_iter().zip(plain.into_parts()) {
                prop_assert_eq!(f.len(), p.len());
                let mut sorted = p.into_pairs();
                sort_pairs_tuned(&mut sorted, &nat, &decoded, None);
                let expect: Vec<_> =
                    group_spans(&sorted, &nat).into_iter().map(|s| &sorted[s.start]).collect();
                let got = firsts(f);
                prop_assert_eq!(got.len(), expect.len());
                for ((gk, gv), (ek, ev)) in got.iter().zip(expect) {
                    prop_assert!(Arc::ptr_eq(gk, ek), "the first-arrived key Arc");
                    prop_assert_eq!(gv.0, ev.0, "the group's first value");
                }
            }
        }

        /// A folding combiner at collect time is its `reduce`: over random
        /// keys and values, any partition count (so one-record partitions
        /// occur) and either cloning contract, partitions that degrade
        /// mid-way (at key 13, which has no raw sort form) included, the
        /// folding buffer yields the record counts, the pairs and the
        /// charges that the same combiner without its fold declaration gives
        /// through the plain sort path. The engine's rule applies: a
        /// partition of fewer than two records skips the combiner. The same
        /// records split across `tasks` and absorbed into a place table
        /// drain to the same pairs, and the table's modelled bytes after
        /// each task do not depend on the declaration.
        #[test]
        fn fold_at_collect_matches_reduce(
            picks in proptest::collection::vec(
                (0i32..24, -3i64..1_000),
                0..300,
            ),
            parts in 1usize..6,
            tasks in 1usize..5,
            immutable in any::<bool>(),
            degrade in any::<bool>(),
        ) {
            let picks: Vec<(i32, i64)> = picks
                .into_iter()
                .map(|(k, v)| (if k == 13 && !degrade { 14 } else { k }, v))
                .collect();
            type Out = (
                Vec<Vec<(i32, i64)>>,
                Vec<usize>,
                Vec<Vec<(i32, i64)>>,
                Vec<u64>,
                simgrid::metrics::MetricsSnapshot,
            );
            let run = |combiner: &mut dyn TaskReducer<Flaky, LongWritable, Flaky, LongWritable>|
             -> Out {
                let modulo =
                    Box::new(FnPartitioner::new(|k: &Flaky, _: &LongWritable, n| k.0 as usize % n));
                let mut buf = buffer(parts, modulo, immutable, Some(&*combiner));
                let nat = KeyComparator::<Flaky>::natural();
                let mut table = CombineTable::new(&*combiner, &nat, &nat);
                let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
                let (pairs, lens, drained, bytes) =
                    simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
                        for &(k, v) in &picks {
                            buf.collect(Arc::new(Flaky(k)), Arc::new(LongWritable(v))).unwrap();
                        }
                        let mut pairs = Vec::new();
                        let mut lens = Vec::new();
                        for part in buf.into_parts() {
                            lens.push(part.len());
                            let out = if part.len() < 2 {
                                part.into_pairs()
                            } else {
                                part.combine(combiner, &nat, &nat, &mut task_ctx()).unwrap().0
                            };
                            pairs.push(out.iter().map(|(k, v)| (k.0, v.0)).collect());
                        }
                        let mut bytes = Vec::new();
                        for task in picks.chunks(picks.len().div_ceil(tasks).max(1)) {
                            for &(k, v) in task {
                                let p = k as usize % parts;
                                table.absorb(p, Arc::new(Flaky(k)), Arc::new(LongWritable(v)));
                            }
                            bytes.push(table.bytes());
                        }
                        let mut drained = vec![Vec::new(); parts];
                        table
                            .drain_combined(combiner, &mut task_ctx(), |p, k, v| {
                                drained[p].push((k.0, v.0))
                            })
                            .unwrap();
                        (pairs, lens, drained, bytes)
                    });
                (pairs, lens, drained, bytes, cluster.metrics().snapshot())
            };
            let folded = run(&mut LongSumReducer);
            prop_assert_eq!(&folded, &run(&mut Unfolded));
            prop_assert_eq!(folded.1.iter().sum::<usize>(), picks.len());
            prop_assert_eq!(&folded.2, &folded.0, "the place table drains what the buffer gives");
        }

        /// A place table drains, partition by partition in ascending order,
        /// what a stable sort of each partition's absorbed records under
        /// the job's comparators, split into groups and handed to `reduce`,
        /// gives — over natural and custom comparators, with folding and
        /// other combiners, records split across several tasks. It folds
        /// only under the fold rule, and its modelled bytes are the
        /// serialized sizes of everything absorbed since the last drain.
        #[test]
        fn combine_table_drains_a_stable_sort_then_reduce(
            records in proptest::collection::vec((0usize..4, -6i32..6, -3i64..100), 0..200),
            tasks in 1usize..5,
            order in 0u8..4,
            which in 0u8..3,
        ) {
            type Cmp = KeyComparator<IntWritable>;
            let (sort_cmp, group_cmp): (Cmp, Cmp) = match order {
                0 => (KeyComparator::natural(), KeyComparator::natural()),
                1 => (KeyComparator::reversed(), KeyComparator::reversed()),
                // Secondary-sort shaped: k and -k form one group.
                2 => {
                    let abs = || KeyComparator::new(|a: &IntWritable, b: &IntWritable| {
                        a.0.abs().cmp(&b.0.abs())
                    });
                    (abs(), abs())
                }
                _ => (
                    KeyComparator::natural(),
                    KeyComparator::new(|a: &IntWritable, b: &IntWritable| {
                        a.0.div_euclid(2).cmp(&b.0.div_euclid(2))
                    }),
                ),
            };
            type Combiner =
                Box<dyn TaskReducer<IntWritable, LongWritable, IntWritable, LongWritable>>;
            let combiner = || -> Combiner {
                match which {
                    0 => Box::new(LongSumReducer),
                    1 => Box::new(Unfolded),
                    _ => Box::new(IdentityReducer),
                }
            };
            let mut table = CombineTable::new(&*combiner(), &sort_cmp, &group_cmp);
            prop_assert_eq!(table.fold.is_some(), order == 0 && which == 0, "the fold rule");
            let mut expect_bytes = 0;
            for task in records.chunks(records.len().div_ceil(tasks).max(1)) {
                // One task's output reaches the table bucket by bucket.
                for p in 0..4 {
                    for &(_, k, v) in task.iter().filter(|r| r.0 == p) {
                        let (key, value) = (Arc::new(IntWritable(k)), Arc::new(LongWritable(v)));
                        let klen = key.serialized_size() as u64;
                        let grew = klen + value.serialized_size() as u64;
                        prop_assert_eq!(table.absorb(p, key, value), (grew, klen));
                        expect_bytes += grew;
                    }
                }
                prop_assert_eq!(table.bytes(), expect_bytes);
            }
            prop_assert_eq!(table.is_empty(), records.is_empty());

            let mut expect = Vec::new();
            let mut expect_groups = 0;
            for p in 0..4 {
                let mut run: Vec<_> = records
                    .iter()
                    .filter(|r| r.0 == p)
                    .map(|&(_, k, v)| (Arc::new(IntWritable(k)), Arc::new(LongWritable(v))))
                    .collect();
                run.sort_by(|a, b| sort_cmp.compare(&a.0, &b.0));
                let mut reference = combiner();
                let mut rest = &run[..];
                while let Some(head) = rest.first() {
                    let len =
                        rest.iter().take_while(|r| group_cmp.same_group(&head.0, &r.0)).count();
                    let (group, tail) = rest.split_at(len);
                    let mut out = VecCollector::new();
                    let mut values = group.iter().map(|(_, v)| Arc::clone(v));
                    reference
                        .reduce(Arc::clone(&head.0), &mut values, &mut out, &mut task_ctx())
                        .unwrap();
                    expect.extend(out.pairs.iter().map(|(k, v)| (p, k.0, v.0)));
                    expect_groups += 1;
                    rest = tail;
                }
            }
            let mut got = Vec::new();
            let emit = |p, k: Arc<IntWritable>, v: Arc<LongWritable>| got.push((p, k.0, v.0));
            let mut ctx = task_ctx();
            let groups = table.drain_combined(&mut *combiner(), &mut ctx, emit).unwrap();
            let combined = |name| ctx.counters().task(name) as usize;
            let counted = (combined(COMBINE_INPUT_RECORDS), combined(COMBINE_OUTPUT_RECORDS));
            prop_assert_eq!(counted, (records.len(), expect.len()), "every run counted");
            prop_assert_eq!(got, expect);
            prop_assert_eq!(groups, expect_groups);
            prop_assert!(table.is_empty(), "drain resets the table");
            prop_assert_eq!(table.bytes(), 0);
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
