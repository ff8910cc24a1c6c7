//! The map-side sort buffer (§3.1): "The mapper outputs key/value pairs,
//! which are immediately serialized and placed in a buffer. While in the
//! buffer, Hadoop may run the user's combiner... When the buffer fills up,
//! they are sorted and flushed out to local disk." After the last record
//! the spill runs are merged into per-partition segments.
//!
//! Shape: one byte buffer per run plus a per-partition index. `collect`
//! appends the pair's `key|value` bytes to the collecting run — the Hadoop
//! contract that lets user code mutate and reuse emitted objects — and
//! pushes `(key alias, byte span)` onto the record's partition; a spilled
//! run's buffer is its simulated local-disk file. The alias is the `Arc`
//! the mapper handed over, kept only so ordering can go through the job's
//! comparators; Hadoop sorts raw bytes with a `RawComparator`, so no
//! deserialization is charged for it.
//!
//! Every ordering enters through the reduce-ingest kernels of
//! [`hmr_api::comparator`], one partition at a time: a spill is
//! [`sort_pairs_tuned`] over the collecting run or, with a combiner,
//! [`ingest_reduce_groups`] and one combiner run ([`combine_run`], the one
//! both engines share) per partition that holds records, each group's
//! values decoded from the run's bytes as the combiner reads them and each
//! combined pair serialized into the spill as it is collected; the final
//! merge is the same stable sort
//! over the partition's sorted runs laid end to end in spill order, which
//! *is* the stable k-way merge with ties to the earlier run. Cost is billed
//! from record and byte counts alone, so the kernel path taken never moves a
//! simulated second (`prop_tests::spill_merge_matches_reference_model`,
//! `tests/hotpath.rs`).

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use hmr_api::collect::OutputCollector;
use hmr_api::comparator::{ingest_reduce_groups, sort_pairs_tuned, KeyComparator, SortTuning};
use hmr_api::counters::TaskContext;
use hmr_api::error::{HmrError, Result};
use hmr_api::io::seqfile;
use hmr_api::partition::Partitioner;
use hmr_api::task::{combine_run, CombineInput, GroupValues, TaskReducer};
use hmr_api::writable::{from_bytes, ByteReader, Writable};
use simgrid::cost::Charge;
use simgrid::meter;
use simgrid::trace;
use simgrid::BufPool;

/// Longest serialized key or value a [`Span`] can describe.
const FIELD_LIMIT: usize = u32::MAX as usize;

/// Where one buffered record sits: `key|value` bytes at `off` in run `run`.
#[derive(Clone, Copy, Debug)]
struct Span {
    run: usize,
    off: usize,
    klen: u32,
    vlen: u32,
}

impl Span {
    /// The record's serialized key and value.
    fn split<'a>(&self, runs: &'a [Vec<u8>]) -> (&'a [u8], &'a [u8]) {
        let (klen, vlen) = (self.klen as usize, self.vlen as usize);
        runs[self.run][self.off..][..klen + vlen].split_at(klen)
    }

    /// Bytes [`seqfile::frame_record`] emits for this record.
    fn framed_len(&self) -> usize {
        seqfile::frame_len(self.klen as usize, self.vlen as usize)
    }
}

/// "Immediately serialized and placed in a buffer": append `key|value` to
/// `buf`, the bytes of run `run`, bill the serialization, and return where
/// the record sits. A key or value longer than `limit` (always
/// [`FIELD_LIMIT`] outside tests) is a typed error and leaves `buf` as it
/// was.
fn append_record<K: Writable, V: Writable>(
    run: usize,
    buf: &mut Vec<u8>,
    key: &K,
    value: &V,
    limit: usize,
) -> Result<Span> {
    let off = buf.len();
    key.write_to(buf);
    let kbytes = buf.len() - off;
    value.write_to(buf);
    let vbytes = buf.len() - off - kbytes;
    let fit = |len: usize| u32::try_from(len).ok().filter(|_| len <= limit);
    let (Some(klen), Some(vlen)) = (fit(kbytes), fit(vbytes)) else {
        buf.truncate(off);
        return Err(HmrError::Serde(format!(
            "a {kbytes}+{vbytes}-byte record exceeds the sort buffer's {limit}-byte field limit"
        )));
    };
    meter::charge(Charge::Serialize {
        bytes: (kbytes + vbytes) as u64,
    });
    Ok(Span {
        run,
        off,
        klen,
        vlen,
    })
}

/// Decode every framed record of the segment `bytes` into typed pairs,
/// through the SequenceFile frame reader ([`seqfile::read_record`]): a
/// truncated frame or bytes left over inside one are a typed
/// [`HmrError::Serde`], never a panic. Reads are backed by the segment, so
/// a byte-string field decodes into a view of it rather than a copy.
pub fn decode_segment<K: Writable, V: Writable>(bytes: &Bytes) -> Result<Vec<(Arc<K>, Arc<V>)>> {
    let mut r = ByteReader::shared(bytes, 0..bytes.len());
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let (key, value) = seqfile::read_record(&mut r)?;
        out.push((Arc::new(key), Arc::new(value)));
    }
    Ok(out)
}

/// One partition's index into the run buffers: the first `sorted` entries
/// are the spilled runs (each sorted, laid end to end in spill order), the
/// rest is the collecting run in arrival order.
struct PartIndex<K> {
    entries: Vec<(Arc<K>, Span)>,
    sorted: usize,
}

/// A spill combine's values, decoded from the collecting run's bytes as
/// the combiner reads them. Each group's decoding is billed as it opens:
/// the real engine must decode buffered bytes to combine them.
struct Decode<'a> {
    runs: &'a [Vec<u8>],
}

impl<V: Writable> GroupValues<Span, V> for Decode<'_> {
    fn open<K>(&mut self, group: &[(Arc<K>, Span)]) {
        let bytes = group.iter().map(|(_, s)| u64::from(s.vlen)).sum();
        meter::charge(Charge::Deserialize { bytes });
    }

    fn value(&mut self, span: Span) -> Result<Arc<V>> {
        from_bytes::<V>(span.split(self.runs).1).map(Arc::new)
    }
}

/// A spill combine's output, which replaces the run: each pair serialized
/// again into the spilled run (`run`, whose bytes are `bytes`) as it is
/// collected, and indexed in `entries`.
struct SpillWriter<'a, K> {
    run: usize,
    bytes: &'a mut Vec<u8>,
    entries: &'a mut Vec<(Arc<K>, Span)>,
}

impl<K: Writable, V: Writable> OutputCollector<K, V> for SpillWriter<'_, K> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let span = append_record(self.run, self.bytes, &*key, &*value, FIELD_LIMIT)?;
        self.entries.push((key, span));
        Ok(())
    }
}

/// The spill-based map-output buffer. Implements [`OutputCollector`] so the
/// mapper writes straight into it.
pub struct SortBuffer<K, V> {
    partitioner: Box<dyn Partitioner<K, V>>,
    sort_cmp: KeyComparator<K>,
    group_cmp: KeyComparator<K>,
    tuning: SortTuning,
    combiner: Option<Box<dyn TaskReducer<K, V, K, V>>>,
    /// Internal context so the combiner's counters are not lost.
    combiner_ctx: TaskContext,
    /// `key|value` bytes of every buffered record, one buffer per run: the
    /// spilled runs (the simulated local-disk files) in spill order, then
    /// the collecting run. Never empty.
    runs: Vec<Vec<u8>>,
    /// Records in the collecting run, over all partitions.
    run_records: u64,
    parts: Vec<PartIndex<K>>,
    threshold_bytes: usize,
}

impl<K: Writable, V: Writable> SortBuffer<K, V> {
    /// A buffer spilling after `threshold_bytes` of serialized output,
    /// sorting under [`SortTuning::default`].
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
        let part = || PartIndex {
            entries: Vec::new(),
            sorted: 0,
        };
        SortBuffer {
            partitioner,
            sort_cmp,
            group_cmp,
            tuning: SortTuning::default(),
            combiner,
            combiner_ctx,
            runs: vec![Vec::new()],
            run_records: 0,
            parts: (0..num_partitions.max(1)).map(|_| part()).collect(),
            threshold_bytes: threshold_bytes.max(1),
        }
    }

    /// Sort under `tuning` instead of the default, to force one sort path
    /// (wall-clock only: every path yields the same bytes).
    #[cfg(test)]
    fn with_tuning(mut self, tuning: SortTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Number of spills performed so far (observability for tests/metrics).
    pub fn spill_count(&self) -> usize {
        self.runs.len() - 1
    }

    /// Sort the collecting run partition by partition — with a combiner,
    /// run each partition holding records through it ([`combine_run`]) and
    /// replace the run, index entries and bytes, with its output — and
    /// flush it to local disk.
    fn spill(&mut self) -> Result<()> {
        if self.run_records == 0 {
            return Ok(());
        }
        trace::span(trace::Phase::Sort, "spill", None, || {
            // One charge for the whole run: the price is n·log₂n.
            meter::charge(Charge::Sort {
                records: self.run_records,
            });
            let run_id = self.runs.len() - 1;
            let (sort, group, tuning) = (&self.sort_cmp, &self.group_cmp, &self.tuning);
            if let Some(combiner) = self.combiner.as_deref_mut() {
                let mut combined: Vec<u8> = Vec::new();
                for part in self.parts.iter_mut().filter(|p| p.entries.len() > p.sorted) {
                    let mut run = part.entries.split_off(part.sorted);
                    let records = run.len();
                    let groups = ingest_reduce_groups(&mut run, sort, group, tuning, None);
                    let (bytes, entries) = (&mut combined, &mut part.entries);
                    let mut out = SpillWriter { run: run_id, bytes, entries };
                    let input = CombineInput::Sort(run, groups);
                    let values = Decode { runs: &self.runs };
                    let ctx = &mut self.combiner_ctx;
                    combine_run(combiner, records, input, values, &mut out, ctx)?;
                }
                self.runs[run_id] = combined;
            } else {
                for part in &mut self.parts {
                    sort_pairs_tuned(&mut part.entries[part.sorted..], sort, tuning, None);
                }
            }
            meter::charge(Charge::DiskWrite {
                bytes: self.runs[run_id].len() as u64,
            });
            for part in &mut self.parts {
                part.sorted = part.entries.len();
            }
            self.runs.push(Vec::new());
            self.run_records = 0;
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
        trace::span(trace::Phase::Sort, "merge", None, || {
            if self.spill_count() > 1 {
                // Merge pass over the on-disk runs: read everything back,
                // write the merged file out.
                let bytes = self.runs.iter().map(|run| run.len() as u64).sum();
                meter::charge(Charge::DiskRead { bytes });
                meter::charge(Charge::DiskWrite { bytes });
                // A stable sort of sorted runs in spill order is the stable
                // k-way merge: equal keys keep per-run order, like Hadoop's
                // merger.
                for part in &mut self.parts {
                    sort_pairs_tuned(&mut part.entries, &self.sort_cmp, &self.tuning, None);
                }
            }
        });
        let segments = self.parts.iter().map(|part| {
            // Exact size, so each segment buffer is allocated once.
            let size = part.entries.iter().map(|(_, s)| s.framed_len()).sum();
            let mut seg = match pool {
                Some(p) => p.get(size),
                None => BytesMut::with_capacity(size),
            };
            for (_, s) in &part.entries {
                let (kbytes, vbytes) = s.split(&self.runs);
                seqfile::frame_record(&mut seg, kbytes, vbytes);
            }
            debug_assert_eq!(seg.len(), size, "segment sized exactly");
            seg.freeze()
        });
        Ok((segments.collect(), self.combiner_ctx.into_counters()))
    }
}

impl<K: Writable, V: Writable> OutputCollector<K, V> for SortBuffer<K, V> {
    fn collect(&mut self, key: Arc<K>, value: Arc<V>) -> Result<()> {
        let partitions = self.parts.len();
        let partition = self.partitioner.partition(&key, &value, partitions);
        let Some(part) = self.parts.get_mut(partition) else {
            return Err(HmrError::InvalidJob(format!(
                "partitioner returned {partition} for {partitions} partitions"
            )));
        };
        let run_id = self.runs.len() - 1;
        let run = &mut self.runs[run_id];
        let span = append_record(run_id, run, &*key, &*value, FIELD_LIMIT)?;
        part.entries.push((key, span));
        self.run_records += 1;
        if run.len() >= self.threshold_bytes {
            self.spill()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::conf::JobConf;
    use hmr_api::counters::task_counter;
    use hmr_api::distcache::DistCache;
    use hmr_api::io::seqfile::frame_record;
    use hmr_api::partition::HashPartitioner;
    use hmr_api::task::LongSumReducer;
    use hmr_api::writable::{to_bytes, varint_len, LongWritable, Text};

    fn ctx() -> TaskContext {
        TaskContext::new(
            "c_0",
            Arc::new(JobConf::new()),
            Arc::new(DistCache::empty()),
        )
    }

    fn buffer(parts: usize, threshold: usize, combiner: bool) -> SortBuffer<Text, LongWritable> {
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
        assert!(
            buf.spill_count() > 1,
            "tiny threshold must spill repeatedly"
        );
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
        let recs = decode_segment::<Text, LongWritable>(&Bytes::from(seg)).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0.as_str(), "key");
        assert_eq!(recs[1].1 .0, 77);
    }

    #[test]
    fn byte_string_values_are_views_of_the_segment() {
        use hmr_api::writable::BytesWritable;
        let mut seg = Vec::new();
        for payload in [&b"first"[..], b"", b"third value"] {
            let value = BytesWritable(Bytes::copy_from_slice(payload));
            frame_record(&mut seg, &to_bytes(&Text::from("k")), &to_bytes(&value));
        }
        let seg = Bytes::from(seg);
        let recs = decode_segment::<Text, BytesWritable>(&seg).unwrap();
        let values: Vec<&[u8]> = recs.iter().map(|(_, v)| &v.0[..]).collect();
        assert_eq!(values, [&b"first"[..], b"", b"third value"]);
        let inside = seg.as_ptr_range();
        assert!(recs
            .iter()
            .all(|(_, v)| inside.contains(&v.0.as_ptr()) || v.0.is_empty()));
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

    #[test]
    fn bytes_left_over_inside_a_frame_are_an_error() {
        let (kb, vb) = (to_bytes(&Text::from("key")), to_bytes(&LongWritable(7)));
        let padded = |k: &[u8], v: &[u8]| {
            let mut seg = Vec::new();
            frame_record(&mut seg, &kb, &vb);
            frame_record(&mut seg, k, v);
            decode_segment::<Text, LongWritable>(&Bytes::from(seg))
        };
        assert_eq!(padded(&kb, &vb).unwrap().len(), 2);
        let (junk_k, junk_v) = ([&kb[..], &[0xff]].concat(), [&vb[..], &[0]].concat());
        assert!(matches!(padded(&junk_k, &vb), Err(HmrError::Serde(_))));
        assert!(matches!(padded(&kb, &junk_v), Err(HmrError::Serde(_))));
    }

    #[test]
    fn segments_are_sized_exactly() {
        // Key and value lengths on both sides of the 1- / 2- / 3-byte
        // length-varint boundaries.
        let lens = [0usize, 1, 126, 127, 128, 16_382, 16_383, 16_384];
        let mut buf: SortBuffer<Text, Text> = SortBuffer::new(
            1,
            40_000,
            Box::new(HashPartitioner),
            KeyComparator::natural(),
            KeyComparator::natural(),
            None,
            ctx(),
        );
        let mut expect = 0;
        for (i, &n) in lens.iter().enumerate() {
            let (k, v) = (
                Text::from("k".repeat(lens[lens.len() - 1 - i])),
                Text::from("v".repeat(n)),
            );
            let (klen, vlen) = (k.serialized_size(), v.serialized_size());
            expect += varint_len(klen as u64) + varint_len(vlen as u64) + klen + vlen;
            buf.collect(Arc::new(k), Arc::new(v)).unwrap();
        }
        assert!(buf.spill_count() > 0, "sized across a merge too");
        // `finish` debug-asserts each segment fills exactly the capacity it
        // asked for; the total is checked here against the framing rule.
        let (segments, _) = buf.finish(None).unwrap();
        assert_eq!(segments[0].len(), expect);
        assert_eq!(
            decode_segment::<Text, Text>(&segments[0]).unwrap().len(),
            lens.len()
        );
    }

    #[test]
    fn oversized_fields_are_a_typed_error() {
        // Stubbed limit: 4-byte fields.
        let mut runs = vec![vec![0xaa]];
        let long = Text::from("12345");
        let short = Text::from("123");
        let span = append_record(0, &mut runs[0], &short, &short, 4).unwrap();
        assert_eq!((span.off, span.klen, span.vlen), (1, 4, 4));
        let bytes = to_bytes(&short);
        assert_eq!(span.split(&runs), (&bytes[..], &bytes[..]));
        for (k, v) in [(&long, &short), (&short, &long)] {
            let declined = append_record(0, &mut runs[0], k, v, 4);
            assert!(matches!(declined, Err(HmrError::Serde(_))));
            assert_eq!(runs[0].len(), 9, "a declined record leaves no bytes");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use hmr_api::comparator::fnv1a;
    use hmr_api::conf::JobConf;
    use hmr_api::counters::task_counter;
    use hmr_api::distcache::DistCache;
    use hmr_api::partition::FnPartitioner;
    use hmr_api::io::seqfile::frame_record;
    use hmr_api::task::LongSumReducer;
    use hmr_api::writable::{
        to_bytes, ByteSink, BytesWritable, IntWritable, LongWritable, PairWritable, Text,
    };
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// A key whose raw sort form declines for one value, so the radix sort
    /// has to fall back mid-run.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Flaky(i32);
    impl Writable for Flaky {
        fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
            IntWritable(self.0).write_to(out)
        }
        fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
            Ok(Flaky(IntWritable::read_from(input)?.0))
        }
        fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, out: &mut S) -> bool {
            self.0 != 13 && IntWritable(self.0).write_raw_sort_key(out)
        }
    }

    /// Key shapes for the model check: `make` is monotone in `i`, and
    /// `coarse` is a grouping order the natural sort keeps contiguous.
    trait ModelKey: Writable + Ord + Clone {
        fn make(i: i32) -> Self;
        fn coarse(a: &Self, b: &Self) -> Ordering;
    }
    impl ModelKey for Text {
        fn make(i: i32) -> Self {
            Text::from(format!("k{:03}", i + 500))
        }
        fn coarse(a: &Self, b: &Self) -> Ordering {
            a.as_str()[..3].cmp(&b.as_str()[..3])
        }
    }
    impl ModelKey for IntWritable {
        fn make(i: i32) -> Self {
            IntWritable(i)
        }
        fn coarse(a: &Self, b: &Self) -> Ordering {
            a.0.div_euclid(4).cmp(&b.0.div_euclid(4))
        }
    }
    /// No raw sort form at all: the secondary-sort composite key.
    impl ModelKey for PairWritable<IntWritable, IntWritable> {
        fn make(i: i32) -> Self {
            PairWritable(IntWritable(i.div_euclid(4)), IntWritable(i.rem_euclid(4)))
        }
        fn coarse(a: &Self, b: &Self) -> Ordering {
            a.0.cmp(&b.0)
        }
    }
    impl ModelKey for Flaky {
        fn make(i: i32) -> Self {
            Flaky(i)
        }
        fn coarse(a: &Self, b: &Self) -> Ordering {
            a.0.div_euclid(4).cmp(&b.0.div_euclid(4))
        }
    }

    /// Everything the buffer lets a task observe.
    #[derive(Debug, Default, PartialEq)]
    struct Outcome {
        segments: Vec<Vec<u8>>,
        spills_before_finish: usize,
        combine_in: i64,
        combine_out: i64,
        ser: u64,
        deser: u64,
        disk_read: u64,
        disk_written: u64,
        sorted: u64,
    }

    struct Case<K> {
        recs: Vec<(K, i64)>,
        parts: usize,
        threshold: usize,
        sort: KeyComparator<K>,
        group: KeyComparator<K>,
        combine: bool,
    }

    fn part_of<K: Writable>(key: &K, parts: usize) -> usize {
        fnv1a(&to_bytes(key)) as usize % parts
    }

    /// A decoded record: partition, key, value.
    type Triple<K> = (usize, K, i64);

    /// The reference: §3.1 over decoded records with `std` sorts only —
    /// split into runs at the byte threshold, stable sort by (partition,
    /// sort order), sum adjacent groups when combining, stable k-way merge
    /// in spill order. A `LongWritable` is 8 bytes.
    fn model<K: ModelKey>(c: &Case<K>) -> Outcome {
        let bytes = |run: &[Triple<K>]| -> u64 {
            run.iter().map(|r| r.1.serialized_size() as u64 + 8).sum()
        };
        let order =
            |a: &Triple<K>, b: &Triple<K>| a.0.cmp(&b.0).then_with(|| c.sort.compare(&a.1, &b.1));
        let mut o = Outcome::default();
        let (mut runs, mut run) = (Vec::<Vec<Triple<K>>>::new(), Vec::new());
        for (i, (k, v)) in c.recs.iter().enumerate() {
            run.push((part_of(k, c.parts), k.clone(), *v));
            let full = bytes(&run) >= c.threshold as u64;
            if !full && i + 1 < c.recs.len() {
                continue;
            }
            o.spills_before_finish += usize::from(full);
            o.ser += bytes(&run);
            o.sorted += run.len() as u64;
            run.sort_by(order);
            if c.combine {
                o.combine_in += run.len() as i64;
                o.deser += 8 * run.len() as u64;
                // `dedup_by` hands over (later, kept): sum into the group's first.
                run.dedup_by(|rec, g| {
                    let same = g.0 == rec.0 && c.group.same_group(&g.1, &rec.1);
                    g.2 += if same { rec.2 } else { 0 };
                    same
                });
                o.combine_out += run.len() as i64;
                o.ser += bytes(&run);
            }
            o.disk_written += bytes(&run);
            runs.push(std::mem::take(&mut run));
        }
        if runs.len() > 1 {
            o.disk_read = runs.iter().map(|r| bytes(r)).sum();
            o.disk_written += o.disk_read;
        }
        o.segments = vec![Vec::new(); c.parts];
        let mut heads = vec![0usize; runs.len()];
        // `min_by` keeps the first of equal minima: ties go to the earlier run.
        while let Some(r) = (0..runs.len())
            .filter(|&r| heads[r] < runs[r].len())
            .min_by(|&a, &b| order(&runs[a][heads[a]], &runs[b][heads[b]]))
        {
            let (p, k, v) = &runs[r][heads[r]];
            heads[r] += 1;
            let value = to_bytes(&LongWritable(*v));
            frame_record(&mut o.segments[*p], &to_bytes(k), &value);
        }
        o
    }

    fn buffer<K: ModelKey>(c: &Case<K>, tuning: SortTuning) -> Outcome {
        let cluster = simgrid::Cluster::new(1, simgrid::CostModel::default());
        let before = cluster.metrics().snapshot();
        let mut o = simgrid::with_meter(simgrid::Meter::new(cluster.node(0).clone()), || {
            let mut buf: SortBuffer<K, LongWritable> = SortBuffer::new(
                c.parts,
                c.threshold,
                Box::new(FnPartitioner::new(|k: &K, _: &LongWritable, n| {
                    part_of(k, n)
                })),
                c.sort.clone(),
                c.group.clone(),
                c.combine
                    .then(|| Box::new(LongSumReducer) as Box<dyn TaskReducer<_, _, _, _>>),
                TaskContext::new(
                    "prop",
                    Arc::new(JobConf::new()),
                    Arc::new(DistCache::empty()),
                ),
            )
            .with_tuning(tuning);
            for (k, v) in &c.recs {
                buf.collect(Arc::new(k.clone()), Arc::new(LongWritable(*v)))
                    .unwrap();
            }
            let spills_before_finish = buf.spill_count();
            let (segments, counters) = buf.finish(None).unwrap();
            Outcome {
                segments: segments.iter().map(|s| s.to_vec()).collect(),
                spills_before_finish,
                combine_in: counters.task(task_counter::COMBINE_INPUT_RECORDS),
                combine_out: counters.task(task_counter::COMBINE_OUTPUT_RECORDS),
                ..Outcome::default()
            }
        });
        let d = cluster.metrics().snapshot().since(&before);
        (o.ser, o.deser, o.sorted) = (d.ser_bytes, d.deser_bytes, d.records_sorted);
        (o.disk_read, o.disk_written) = (d.disk_bytes_read, d.disk_bytes_written);
        o
    }

    /// `order`: 0 natural, 1 reversed sort, 2 natural sort under the coarse
    /// grouping comparator. `radix` forces the raw-key radix sort at every
    /// size, otherwise the decoded sort runs; both must produce the model's
    /// outcome.
    fn check<K: ModelKey>(
        keys: &[i32],
        parts: usize,
        threshold: usize,
        order: u8,
        combine: bool,
        radix: bool,
    ) {
        let case = Case {
            recs: keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (K::make(k), i as i64))
                .collect(),
            parts,
            threshold,
            sort: if order == 1 {
                KeyComparator::reversed()
            } else {
                KeyComparator::natural()
            },
            group: if order == 2 {
                KeyComparator::new(K::coarse)
            } else {
                KeyComparator::natural()
            },
            combine,
        };
        let tuning = SortTuning {
            raw_min_pairs: if radix { 0 } else { usize::MAX },
        };
        assert_eq!(buffer(&case, tuning), model(&case));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever the key shape, comparators, combiner, spill threshold
        /// and sort path, the buffer agrees with the reference model on
        /// segment *bytes* (so: the exact multiset, the partition routing,
        /// the sort order and its stability), the combiner counters, the
        /// spill count and every billed byte and record.
        ///
        /// One intended difference from a merge of runs is outside the
        /// model: a combiner that rewrites keys out of sort order leaves an
        /// unsorted run, which the final stable sort still orders where a
        /// k-way merge would interleave it wrongly. No job, test or bin in
        /// the repo has such a combiner (DESIGN.md, "Byte path").
        #[test]
        fn spill_merge_matches_reference_model(
            keys in proptest::collection::vec(-30i32..30, 0..120),
            threshold in prop_oneof![16usize..4096, Just(usize::MAX)],
            partitions in 1usize..6,
            (shape, order) in (0u8..4, 0u8..3),
            combine in any::<bool>(),
            radix in any::<bool>(),
        ) {
            let check = match shape {
                0 => check::<Text>,
                1 => check::<IntWritable>,
                2 => check::<PairWritable<IntWritable, IntWritable>>,
                _ => check::<Flaky>,
            };
            check(&keys, partitions, threshold, order, combine, radix);
        }

        /// A valid segment cut at any byte decodes to an error or to a
        /// strict prefix of its records; with any one byte changed, or made
        /// of arbitrary bytes, it decodes or fails without panicking. The
        /// values are `BytesWritable`s, so every decode takes views of the
        /// segment, and the cuts are views into one shared buffer.
        #[test]
        fn decoder_survives_truncation_and_garbage(
            words in proptest::collection::vec("[a-z]{0,12}", 1..12),
            (at, flip) in (any::<usize>(), 1u8..=255),
            garbage in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let mut seg = Vec::new();
            for (i, w) in words.iter().enumerate() {
                let value = BytesWritable(format!("{w}{i}").into_bytes().into());
                frame_record(&mut seg, &to_bytes(&Text::from(w.as_str())), &to_bytes(&value));
            }
            let decode = |bytes: &Bytes| decode_segment::<Text, BytesWritable>(bytes);
            let flat = |recs: Vec<(Arc<Text>, Arc<BytesWritable>)>| -> Vec<(String, Vec<u8>)> {
                recs.iter().map(|(k, v)| (k.as_str().to_string(), v.0.to_vec())).collect()
            };
            let shared = Bytes::from(seg.clone());
            let full = flat(decode(&shared).unwrap());
            prop_assert_eq!(full.len(), words.len());
            for cut in 0..seg.len() {
                if let Ok(recs) = decode(&shared.slice(..cut)) {
                    let recs = flat(recs);
                    prop_assert!(recs.len() < full.len() && recs[..] == full[..recs.len()]);
                }
            }
            let at = at % seg.len();
            seg[at] ^= flip;
            let _ = decode(&Bytes::from(seg));
            let _ = decode(&Bytes::from(garbage));
        }
    }
}
