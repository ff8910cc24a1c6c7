//! The map-side sort buffer (§3.1): "The mapper outputs key/value pairs,
//! which are immediately serialized and placed in a buffer. While in the
//! buffer, Hadoop may run the user's combiner... When the buffer fills up,
//! they are sorted and flushed out to local disk." After the last record
//! the spill runs are merged into per-partition segments.
//!
//! Pairs are serialized at `collect` time — the Hadoop contract that allows
//! user code to mutate and reuse emitted objects. A decoded copy of the key
//! rides along purely so sorting can use the job's comparators; Hadoop
//! sorts raw bytes with a `RawComparator`, so no deserialization cost is
//! charged for it.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hmr_api::collect::{OutputCollector, VecCollector};
use hmr_api::comparator::{apply_permutation, build_raw_keys, raw_prefix, KeyComparator};
use hmr_api::counters::{task_counter, TaskContext};
use hmr_api::error::{HmrError, Result};
use hmr_api::partition::Partitioner;
use hmr_api::task::TaskReducer;
use hmr_api::writable::{ByteReader, ByteSink, Writable};
use simgrid::cost::Charge;
use simgrid::meter;
use simgrid::trace;
use simgrid::BufPool;

/// One buffered record: partition, decoded key (sort convenience), and the
/// authoritative serialized bytes.
struct Rec<K> {
    partition: u32,
    key: K,
    kbytes: Vec<u8>,
    vbytes: Vec<u8>,
}

impl<K> Rec<K> {
    fn len(&self) -> usize {
        self.kbytes.len() + self.vbytes.len()
    }
}

/// Frame one serialized record onto any byte sink (a `Vec<u8>` scratch or
/// a pooled `BytesMut` segment buffer).
pub fn frame_record<S: ByteSink + ?Sized>(out: &mut S, kbytes: &[u8], vbytes: &[u8]) {
    hmr_api::writable::write_vu64(out, kbytes.len() as u64);
    hmr_api::writable::write_vu64(out, vbytes.len() as u64);
    out.put_slice(kbytes);
    out.put_slice(vbytes);
}

/// Decode every framed record in `bytes` into typed pairs. Accepts any
/// byte storage — a borrowed slice or a refcounted [`Bytes`] segment.
pub fn decode_segment<K: Writable, V: Writable>(
    bytes: impl AsRef<[u8]>,
) -> Result<Vec<(Arc<K>, Arc<V>)>> {
    let mut r = ByteReader::new(bytes.as_ref());
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let klen = r.read_vu64()? as usize;
        let vlen = r.read_vu64()? as usize;
        let key = {
            let mut kr = ByteReader::new(r.read_bytes(klen)?);
            K::read_from(&mut kr)?
        };
        let value = {
            let mut vr = ByteReader::new(r.read_bytes(vlen)?);
            V::read_from(&mut vr)?
        };
        out.push((Arc::new(key), Arc::new(value)));
    }
    Ok(out)
}

/// The spill-based map-output buffer. Implements [`OutputCollector`] so the
/// mapper writes straight into it.
pub struct SortBuffer<K, V> {
    num_partitions: usize,
    partitioner: Box<dyn Partitioner<K, V>>,
    sort_cmp: KeyComparator<K>,
    group_cmp: KeyComparator<K>,
    combiner: Option<Box<dyn TaskReducer<K, V, K, V>>>,
    /// Internal context so the combiner's counters are not lost.
    combiner_ctx: TaskContext,
    records: Vec<Rec<K>>,
    buffered_bytes: usize,
    threshold_bytes: usize,
    /// Sorted, combined spill runs (simulated local-disk files).
    spills: Vec<Vec<Rec<K>>>,
    spill_count: usize,
    emitted: u64,
}

impl<K, V> SortBuffer<K, V>
where
    K: Writable + Clone + Send + Sync,
    V: Writable + Clone + Send + Sync,
{
    /// A buffer spilling after `threshold_bytes` of serialized output.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        num_partitions: usize,
        threshold_bytes: usize,
        partitioner: Box<dyn Partitioner<K, V>>,
        sort_cmp: KeyComparator<K>,
        group_cmp: KeyComparator<K>,
        combiner: Option<Box<dyn TaskReducer<K, V, K, V>>>,
        combiner_ctx: TaskContext,
    ) -> Self {
        SortBuffer {
            num_partitions: num_partitions.max(1),
            partitioner,
            sort_cmp,
            group_cmp,
            combiner,
            combiner_ctx,
            records: Vec::new(),
            buffered_bytes: 0,
            threshold_bytes: threshold_bytes.max(1),
            spills: Vec::new(),
            spill_count: 0,
            emitted: 0,
        }
    }

    /// Records emitted by the mapper into this buffer (pre-combiner).
    pub fn emitted_records(&self) -> u64 {
        self.emitted
    }

    /// Number of spills performed so far (observability for tests/metrics).
    pub fn spill_count(&self) -> usize {
        self.spill_count
    }

    fn sort_run(&mut self, mut run: Vec<Rec<K>>) -> Vec<Rec<K>> {
        meter::charge(Charge::Sort {
            records: run.len() as u64,
        });
        // Hadoop's RawComparator fast path: keys whose serialized form is
        // memcmp-ordered sort on cached raw prefixes with `sort_unstable`,
        // no boxed comparator call per comparison. Ties break on the
        // original index, reproducing the stable sort's permutation
        // exactly — output bytes are identical either way.
        if self.sort_cmp.is_natural() && run.len() > 1 {
            if let Some((arena, spans)) = build_raw_keys(run.iter().map(|r| &r.key)) {
                let raw = |i: u32| {
                    let (s, e) = spans[i as usize];
                    &arena[s as usize..e as usize]
                };
                // (partition, prefix, index) entries: most comparisons
                // resolve on the in-register fields; equal prefixes fall
                // back to the full raw form, then the original index,
                // reproducing the stable sort's permutation exactly.
                let mut order: Vec<(u32, u64, u32)> = (0..run.len() as u32)
                    .map(|i| (run[i as usize].partition, raw_prefix(raw(i)), i))
                    .collect();
                order.sort_unstable_by(|a, b| {
                    a.0.cmp(&b.0)
                        .then_with(|| a.1.cmp(&b.1))
                        .then_with(|| raw(a.2).cmp(raw(b.2)))
                        .then(a.2.cmp(&b.2))
                });
                let mut order: Vec<u32> = order.into_iter().map(|(_, _, i)| i).collect();
                apply_permutation(&mut run, &mut order);
                return run;
            }
        }
        let cmp = self.sort_cmp.clone();
        run.sort_by(|a, b| {
            a.partition
                .cmp(&b.partition)
                .then_with(|| cmp.compare(&a.key, &b.key))
        });
        run
    }

    /// Run the combiner over a sorted run, producing a new sorted run.
    fn combine(&mut self, run: Vec<Rec<K>>) -> Result<Vec<Rec<K>>> {
        let Some(mut combiner) = self.combiner.take() else {
            return Ok(run);
        };
        let result = self.combine_with(&mut *combiner, run);
        self.combiner = Some(combiner);
        result
    }

    fn combine_with(
        &mut self,
        combiner: &mut dyn TaskReducer<K, V, K, V>,
        run: Vec<Rec<K>>,
    ) -> Result<Vec<Rec<K>>> {
        let mut out_run: Vec<Rec<K>> = Vec::new();
        let mut i = 0;
        while i < run.len() {
            let mut j = i + 1;
            while j < run.len()
                && run[j].partition == run[i].partition
                && self.group_cmp.same_group(&run[j].key, &run[i].key)
            {
                j += 1;
            }
            // Combiner input: deserialize the group's values (charged — the
            // real engine must decode buffered bytes to combine them).
            let group = &run[i..j];
            let vbytes: u64 = group.iter().map(|r| r.vbytes.len() as u64).sum();
            meter::charge(Charge::Deserialize { bytes: vbytes });
            self.combiner_ctx
                .incr_task_counter(task_counter::COMBINE_INPUT_RECORDS, group.len() as i64);
            let mut values: Vec<Arc<V>> = Vec::with_capacity(group.len());
            for r in group {
                let mut vr = ByteReader::new(&r.vbytes);
                values.push(Arc::new(V::read_from(&mut vr)?));
            }
            let key = Arc::new(group[0].key.clone());
            let partition = group[0].partition;
            let mut collected: VecCollector<K, V> = VecCollector::new();
            combiner.reduce(
                Arc::clone(&key),
                &mut values.into_iter(),
                &mut collected,
                &mut self.combiner_ctx,
            )?;
            self.combiner_ctx.incr_task_counter(
                task_counter::COMBINE_OUTPUT_RECORDS,
                collected.pairs.len() as i64,
            );
            for (k, v) in collected.pairs {
                // Combiner output is re-serialized into the buffer.
                let mut kbytes = Vec::new();
                k.write_to(&mut kbytes);
                let mut vbytes = Vec::new();
                v.write_to(&mut vbytes);
                meter::charge(Charge::Serialize {
                    bytes: (kbytes.len() + vbytes.len()) as u64,
                });
                out_run.push(Rec {
                    partition,
                    key: (*k).clone(),
                    kbytes,
                    vbytes,
                });
            }
            i = j;
        }
        Ok(out_run)
    }

    fn spill(&mut self) -> Result<()> {
        if self.records.is_empty() {
            return Ok(());
        }
        trace::span(trace::Phase::Sort, "spill", None, || {
            let run = std::mem::take(&mut self.records);
            self.buffered_bytes = 0;
            let run = self.sort_run(run);
            let run = self.combine(run)?;
            let bytes: u64 = run.iter().map(|r| r.len() as u64).sum();
            // The sorted run goes to local disk.
            meter::charge(Charge::DiskWrite { bytes });
            self.spills.push(run);
            self.spill_count += 1;
            Ok(())
        })
    }

    /// Final spill + merge into per-partition serialized segments, sorted by
    /// the job's sort comparator within each partition. Also returns the
    /// combiner's counters. Segment buffers come from `pool` when one is
    /// given and are frozen into refcounted [`Bytes`] handles that reduce
    /// tasks read without copying.
    pub fn finish(mut self, pool: Option<&BufPool>) -> Result<(Vec<Bytes>, hmr_api::Counters)> {
        self.spill()?;
        let num_spills = self.spills.len();
        let spills = std::mem::take(&mut self.spills);
        let total_bytes: u64 = spills
            .iter()
            .flat_map(|s| s.iter())
            .map(|r| r.len() as u64)
            .sum();
        let merged = trace::span(trace::Phase::Sort, "merge", None, || {
            if num_spills > 1 {
                // Merge pass over the on-disk runs: read everything back,
                // write the merged file out.
                meter::charge(Charge::DiskRead { bytes: total_bytes });
                meter::charge(Charge::DiskWrite { bytes: total_bytes });
            }
            // K-way merge of sorted runs (stable two-run merges preserve the
            // per-run order for equal keys, like Hadoop's merger).
            let cmp = self.sort_cmp.clone();
            spills
                .into_iter()
                .fold(Vec::new(), |acc, run| merge_two(acc, run, &cmp))
        });
        // Exact per-partition sizes (payload + up to 10 framing bytes per
        // length varint) so each segment buffer is allocated once.
        let mut sizes = vec![0usize; self.num_partitions];
        for r in &merged {
            sizes[r.partition as usize] += r.len() + 20;
        }
        let mut segments: Vec<BytesMut> = sizes
            .iter()
            .map(|&n| match pool {
                Some(p) => p.get(n),
                None => BytesMut::with_capacity(n),
            })
            .collect();
        for r in &merged {
            frame_record(&mut segments[r.partition as usize], &r.kbytes, &r.vbytes);
        }
        Ok((
            segments.into_iter().map(BytesMut::freeze).collect(),
            self.combiner_ctx.into_counters(),
        ))
    }
}

fn merge_two<K: Writable>(a: Vec<Rec<K>>, b: Vec<Rec<K>>, cmp: &KeyComparator<K>) -> Vec<Rec<K>> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    // Raw fast path mirroring `sort_run`: when both runs' keys have a
    // memcmp-ordered serialized form, the merge compares raw prefixes. The
    // tie rule (equal → take from `a`) is unchanged, so the merged order is
    // bit-identical to the comparator merge.
    if cmp.is_natural() {
        if let (Some((aa, asp)), Some((ba, bsp))) = (
            build_raw_keys(a.iter().map(|r| &r.key)),
            build_raw_keys(b.iter().map(|r| &r.key)),
        ) {
            let raw_a = |i: usize| {
                let (s, e) = asp[i];
                &aa[s as usize..e as usize]
            };
            let raw_b = |j: usize| {
                let (s, e) = bsp[j];
                &ba[s as usize..e as usize]
            };
            let (alen, blen) = (a.len(), b.len());
            let mut out = Vec::with_capacity(alen + blen);
            let mut ai = a.into_iter();
            let mut bi = b.into_iter();
            let (mut i, mut j) = (0usize, 0usize);
            while i < alen && j < blen {
                let ord = ai.as_slice()[0]
                    .partition
                    .cmp(&bi.as_slice()[0].partition)
                    .then_with(|| raw_a(i).cmp(raw_b(j)));
                if ord == std::cmp::Ordering::Greater {
                    out.push(bi.next().expect("j < blen"));
                    j += 1;
                } else {
                    out.push(ai.next().expect("i < alen"));
                    i += 1;
                }
            }
            out.extend(ai);
            out.extend(bi);
            return out;
        }
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                let ord = x
                    .partition
                    .cmp(&y.partition)
                    .then_with(|| cmp.compare(&x.key, &y.key));
                if ord == std::cmp::Ordering::Greater {
                    out.push(bi.next().expect("peeked"));
                } else {
                    out.push(ai.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

impl<K, V> OutputCollector<K, V> for SortBuffer<K, V>
where
    K: Writable + Clone + Send + Sync,
    V: Writable + Clone + Send + Sync,
{
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let partition = self
            .partitioner
            .partition(&key, &value, self.num_partitions);
        if partition >= self.num_partitions {
            return Err(HmrError::InvalidJob(format!(
                "partitioner returned {partition} for {} partitions",
                self.num_partitions
            )));
        }
        // "immediately serialized and placed in a buffer"
        let mut kbytes = Vec::new();
        key.write_to(&mut kbytes);
        let mut vbytes = Vec::new();
        value.write_to(&mut vbytes);
        meter::charge(Charge::Serialize {
            bytes: (kbytes.len() + vbytes.len()) as u64,
        });
        self.buffered_bytes += kbytes.len() + vbytes.len();
        self.emitted += 1;
        self.records.push(Rec {
            partition: partition as u32,
            key: (*key).clone(),
            kbytes,
            vbytes,
        });
        if self.buffered_bytes >= self.threshold_bytes {
            self.spill()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::conf::JobConf;
    use hmr_api::distcache::DistCache;
    use hmr_api::partition::HashPartitioner;
    use hmr_api::task::LongSumReducer;
    use hmr_api::writable::{LongWritable, Text};

    fn ctx() -> TaskContext {
        TaskContext::new(
            "c_0",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        )
    }

    fn buffer(
        parts: usize,
        threshold: usize,
        combiner: bool,
    ) -> SortBuffer<Text, LongWritable> {
        SortBuffer::new(
            parts,
            threshold,
            Box::new(HashPartitioner),
            KeyComparator::natural(),
            KeyComparator::natural(),
            if combiner {
                Some(Box::new(LongSumReducer))
            } else {
                None
            },
            ctx(),
        )
    }

    fn collect_all(buf: &mut SortBuffer<Text, LongWritable>, words: &[&str]) {
        for w in words {
            buf.collect(Arc::new(Text::from(*w)), Arc::new(LongWritable(1)))
                .unwrap();
        }
    }

    fn decode_all(segments: &[Bytes]) -> Vec<(String, i64)> {
        let mut out = Vec::new();
        for seg in segments {
            for (k, v) in decode_segment::<Text, LongWritable>(seg).unwrap() {
                out.push((k.as_str().to_string(), v.0));
            }
        }
        out
    }

    #[test]
    fn records_come_out_partitioned_and_sorted() {
        let mut buf = buffer(4, usize::MAX, false);
        collect_all(&mut buf, &["delta", "alpha", "charlie", "bravo", "alpha"]);
        let (segments, _) = buf.finish(None).unwrap();
        assert_eq!(segments.len(), 4);
        // Within each partition, keys are sorted.
        for seg in &segments {
            let recs = decode_segment::<Text, LongWritable>(seg).unwrap();
            for w in recs.windows(2) {
                assert!(w[0].0 <= w[1].0, "partition not sorted");
            }
        }
        // All five records survive.
        assert_eq!(decode_all(&segments).len(), 5);
    }

    #[test]
    fn small_threshold_forces_spills_and_merge_preserves_data() {
        let mut buf = buffer(2, 32, false);
        let words: Vec<String> = (0..100).map(|i| format!("w{:03}", i % 10)).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        collect_all(&mut buf, &refs);
        assert!(buf.spill_count() > 1, "tiny threshold must spill repeatedly");
        let (segments, _) = buf.finish(None).unwrap();
        let mut all = decode_all(&segments);
        assert_eq!(all.len(), 100);
        all.sort();
        assert_eq!(all[0].0, "w000");
    }

    #[test]
    fn combiner_collapses_duplicate_keys_per_spill() {
        let mut buf = buffer(1, usize::MAX, true);
        collect_all(&mut buf, &["a", "b", "a", "a", "b"]);
        let (segments, counters) = buf.finish(None).unwrap();
        let mut recs = decode_all(&segments);
        recs.sort();
        assert_eq!(recs, vec![("a".to_string(), 3), ("b".to_string(), 2)]);
        assert_eq!(counters.task(task_counter::COMBINE_INPUT_RECORDS), 5);
        assert_eq!(counters.task(task_counter::COMBINE_OUTPUT_RECORDS), 2);
    }

    #[test]
    fn combiner_is_per_spill_not_global() {
        // Two spills each holding one "a": the combiner runs per spill, so
        // both partial sums survive into the segments (the reducer finishes
        // the job) — exactly Hadoop behaviour.
        let mut buf = buffer(1, 8, true);
        collect_all(&mut buf, &["a"]);
        assert_eq!(buf.spill_count(), 1);
        collect_all(&mut buf, &["a"]);
        let (segments, _) = buf.finish(None).unwrap();
        let recs = decode_all(&segments);
        assert_eq!(recs, vec![("a".to_string(), 1), ("a".to_string(), 1)]);
    }

    #[test]
    fn serialization_and_spill_costs_are_charged() {
        let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
            let mut buf = buffer(2, 64, false);
            let words: Vec<String> = (0..50).map(|i| format!("word{i}")).collect();
            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
            collect_all(&mut buf, &refs);
            let _ = buf.finish(None).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert!(d.ser_bytes > 0, "collect serializes");
        assert!(d.disk_bytes_written > 0, "spills hit local disk");
        assert!(d.records_sorted >= 50, "spill sorting recorded");
    }

    #[test]
    fn segment_roundtrip() {
        let mut seg = Vec::new();
        let k = Text::from("key");
        let v = LongWritable(77);
        let mut kb = Vec::new();
        k.write_to(&mut kb);
        let mut vb = Vec::new();
        v.write_to(&mut vb);
        frame_record(&mut seg, &kb, &vb);
        frame_record(&mut seg, &kb, &vb);
        let recs = decode_segment::<Text, LongWritable>(&seg).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0.as_str(), "key");
        assert_eq!(recs[1].1 .0, 77);
    }

    #[test]
    fn bad_partitioner_is_an_error() {
        let mut buf: SortBuffer<Text, LongWritable> = SortBuffer::new(
            2,
            usize::MAX,
            Box::new(hmr_api::partition::FnPartitioner::new(|_, _, _| 99)),
            KeyComparator::natural(),
            KeyComparator::natural(),
            None,
            ctx(),
        );
        assert!(buf
            .collect(Arc::new(Text::from("x")), Arc::new(LongWritable(1)))
            .is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use hmr_api::comparator::KeyComparator;
    use hmr_api::conf::JobConf;
    use hmr_api::distcache::DistCache;
    use hmr_api::partition::HashPartitioner;
    use hmr_api::writable::{IntWritable, Text};
    use proptest::prelude::*;

    proptest! {
        /// Whatever the record stream and spill threshold, the buffer's
        /// output preserves the exact multiset of records, routes every
        /// record to the hash partition of its key, and sorts each
        /// partition by the sort comparator.
        #[test]
        fn spill_merge_preserves_multiset_and_order(
            keys in proptest::collection::vec(0i32..50, 0..120),
            threshold in 16usize..4096,
            partitions in 1usize..6,
        ) {
            let ctx = TaskContext::new(
                "prop",
                Arc::new(JobConf::new()),
                Arc::new(DistCache::empty()),
            );
            let mut buf: SortBuffer<Text, IntWritable> = SortBuffer::new(
                partitions,
                threshold,
                Box::new(HashPartitioner),
                KeyComparator::natural(),
                KeyComparator::natural(),
                None,
                ctx,
            );
            for (i, k) in keys.iter().enumerate() {
                buf.collect(
                    Arc::new(Text::from(format!("k{k:03}"))),
                    Arc::new(IntWritable(i as i32)),
                )
                .unwrap();
            }
            let (segments, _) = buf.finish(None).unwrap();
            prop_assert_eq!(segments.len(), partitions);

            let mut seen: Vec<(String, i32)> = Vec::new();
            for (p, seg) in segments.iter().enumerate() {
                let recs = decode_segment::<Text, IntWritable>(seg).unwrap();
                let mut prev: Option<String> = None;
                for (k, v) in recs {
                    let ks = k.as_str().to_string();
                    // Routed to the right partition.
                    let expect_p = hmr_api::partition::stable_hash(&*k) % partitions as u64;
                    prop_assert_eq!(p as u64, expect_p);
                    // Sorted within the partition.
                    if let Some(prev) = &prev {
                        prop_assert!(prev <= &ks);
                    }
                    prev = Some(ks.clone());
                    seen.push((ks, v.0));
                }
            }
            // Exact multiset of inputs.
            let mut expect: Vec<(String, i32)> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (format!("k{k:03}"), i as i32))
                .collect();
            expect.sort();
            seen.sort();
            prop_assert_eq!(seen, expect);
        }
    }
}
