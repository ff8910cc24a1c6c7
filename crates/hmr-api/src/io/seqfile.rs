//! SequenceFile: the binary key/value container both engines read and write.
//!
//! Layout: 4-byte magic `SEQ6`, then a stream of records, each
//! `[vu64 key_len][vu64 val_len][key bytes][val bytes]`. One split covers
//! one whole file (part files are already the unit of parallelism in job
//! pipelines, and whole-file splits make split names line up with M3R's
//! output cache entries).

use std::marker::PhantomData;
use std::ops::DerefMut;
use std::sync::Arc;

use crate::conf::JobConf;
use crate::error::{HmrError, Result};
use crate::fs::{FileSystem, FsWriter, HPath};
use crate::io::split::{FileSplit, InputSplit};
use crate::io::{list_input_files, part_file_name, InputFormat, OutputFormat, RecordReader, RecordWriter};
use crate::writable::{varint_len, write_vu64, ByteReader, ByteSink, Writable};

const MAGIC: &[u8; 4] = b"SEQ6";

/// A buffer records are framed into in place: a part file's `Vec<u8>`, or
/// a pooled `BytesMut` map-output segment (Hadoop's segments use the same
/// framing).
pub trait RecordBuf: ByteSink + DerefMut<Target = [u8]> {
    /// Drop every byte from `len` on.
    fn truncate(&mut self, len: usize);
}

impl RecordBuf for Vec<u8> {
    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }
}

impl RecordBuf for bytes::BytesMut {
    fn truncate(&mut self, len: usize) {
        bytes::BytesMut::truncate(self, len);
    }
}

/// Length of the SequenceFile holding `records`, magic included: what
/// [`write_seq_file`] writes, computed from `serialized_size` alone.
pub fn file_len<'a, K: Writable, V: Writable>(
    records: impl IntoIterator<Item = (&'a K, &'a V)>,
) -> u64 {
    let body: usize = records
        .into_iter()
        .map(|(k, v)| {
            let (klen, vlen) = (k.serialized_size(), v.serialized_size());
            varint_len(klen as u64) + varint_len(vlen as u64) + klen + vlen
        })
        .sum();
    (MAGIC.len() + body) as u64
}

/// Serialize one record onto `out`, header first: the two lengths come
/// from `serialized_size`, then key and value are encoded once, straight
/// into `out`, so no per-record buffer is allocated and nothing moves.
/// A type whose `serialized_size` disagrees with its `write_to` still gets
/// a correct frame: the record is re-headed with the lengths actually
/// written.
pub fn append_record<B, K, V>(out: &mut B, key: &K, value: &V)
where
    B: RecordBuf + ?Sized,
    K: Writable,
    V: Writable,
{
    let start = out.len();
    let (klen, vlen) = (key.serialized_size(), value.serialized_size());
    write_vu64(out, klen as u64);
    write_vu64(out, vlen as u64);
    let body = out.len();
    key.write_to(out);
    let key_end = out.len();
    value.write_to(out);
    if (key_end - body, out.len() - key_end) != (klen, vlen) {
        reframe(out, start, body, key_end);
    }
}

/// The record at `out[start..]` carries a guessed header (`start..body`):
/// drop it, append the lengths actually written, and rotate them to the
/// front of the record.
#[cold]
fn reframe<B: RecordBuf + ?Sized>(out: &mut B, start: usize, body: usize, key_end: usize) {
    let end = out.len();
    let (klen, vlen) = (key_end - body, end - key_end);
    out.copy_within(body..end, start);
    out.truncate(end - (body - start));
    let record_end = out.len();
    write_vu64(out, klen as u64);
    write_vu64(out, vlen as u64);
    let header_len = out.len() - record_end;
    out[start..].rotate_right(header_len);
}

/// Reads `(K, V)` records from SequenceFiles.
pub struct SequenceFileInputFormat<K, V> {
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Default for SequenceFileInputFormat<K, V> {
    fn default() -> Self {
        SequenceFileInputFormat {
            _marker: PhantomData,
        }
    }
}

impl<K, V> SequenceFileInputFormat<K, V> {
    /// A new format instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<K: Writable, V: Writable> InputFormat<K, V> for SequenceFileInputFormat<K, V> {
    fn get_splits(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        _hint: usize,
    ) -> Result<Vec<Arc<dyn InputSplit>>> {
        let mut splits: Vec<Arc<dyn InputSplit>> = Vec::new();
        for file in list_input_files(fs, conf)? {
            let status = fs.get_file_status(&file)?;
            // Preserve replica order: the first location is the primary
            // (write-local) replica, which schedulers prefer.
            let mut hosts: Vec<usize> = Vec::new();
            for replica_set in fs.block_locations(&file, 0, status.len)? {
                for h in replica_set {
                    if !hosts.contains(&h) {
                        hosts.push(h);
                    }
                }
            }
            splits.push(Arc::new(FileSplit::whole_file(file, status.len, hosts)));
        }
        Ok(splits)
    }

    fn record_reader(
        &self,
        fs: &dyn FileSystem,
        split: &dyn InputSplit,
        _conf: &JobConf,
    ) -> Result<Box<dyn RecordReader<K, V>>> {
        let file = split
            .as_any()
            .downcast_ref::<FileSplit>()
            .or_else(|| {
                split
                    .as_any()
                    .downcast_ref::<crate::io::split::PlacedFileSplit>()
                    .map(|p| &p.file)
            })
            .ok_or_else(|| {
                HmrError::Unsupported("SequenceFileInputFormat needs a FileSplit".into())
            })?;
        let mut reader = fs.open(&file.path)?;
        let bytes = reader.read_range(file.offset, file.len)?;
        Ok(Box::new(SeqFileReader {
            bytes,
            pos: 0,
            checked_magic: false,
            _marker: PhantomData,
        }))
    }
}

struct SeqFileReader<K, V> {
    bytes: bytes::Bytes,
    pos: usize,
    checked_magic: bool,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: Writable, V: Writable> RecordReader<K, V> for SeqFileReader<K, V> {
    fn next(&mut self) -> Result<Option<(K, V)>> {
        if !self.checked_magic {
            if self.bytes.len() < 4 || &self.bytes[..4] != MAGIC {
                return Err(HmrError::Serde("bad SequenceFile magic".into()));
            }
            self.pos = 4;
            self.checked_magic = true;
        }
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        // Backed by the block: a byte-string field decodes into a view of
        // it, not a copy.
        let mut r = ByteReader::shared(&self.bytes, self.pos..self.bytes.len());
        let klen = r.read_vu64()? as usize;
        let vlen = r.read_vu64()? as usize;
        let key = K::read_from(&mut r.sub(klen)?)?;
        let value = V::read_from(&mut r.sub(vlen)?)?;
        self.pos += r.position();
        Ok(Some((key, value)))
    }
}

/// Writes `(K, V)` records to `{output}/part-NNNNN` SequenceFiles.
pub struct SequenceFileOutputFormat<K, V> {
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> Default for SequenceFileOutputFormat<K, V> {
    fn default() -> Self {
        SequenceFileOutputFormat {
            _marker: PhantomData,
        }
    }
}

impl<K, V> SequenceFileOutputFormat<K, V> {
    /// A new format instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<K: Writable, V: Writable> SequenceFileOutputFormat<K, V> {
    fn open_writer(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        file_name: &str,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        let dir = conf
            .output_path()
            .ok_or_else(|| HmrError::InvalidJob("no output path configured".into()))?;
        let path = dir.join(file_name);
        Ok(Box::new(SeqFileWriter {
            writer: fs.create(&path)?,
            file: MAGIC.to_vec(),
            _marker: PhantomData,
        }))
    }
}

impl<K: Writable, V: Writable> OutputFormat<K, V> for SequenceFileOutputFormat<K, V> {
    fn record_writer(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        partition: usize,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        self.open_writer(fs, conf, &part_file_name(partition))
    }

    fn record_writer_named(
        &self,
        fs: &dyn FileSystem,
        conf: &JobConf,
        name: &str,
        partition: usize,
    ) -> Result<Box<dyn RecordWriter<K, V>>> {
        self.open_writer(
            fs,
            conf,
            &crate::multi::named_part_file(name, partition),
        )
    }
}

/// Encodes the whole file into `file`, which `close` hands to the
/// filesystem writer by value: an in-memory filesystem stores that very
/// allocation.
struct SeqFileWriter<K, V> {
    writer: Box<dyn FsWriter>,
    file: Vec<u8>,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: Writable, V: Writable> RecordWriter<K, V> for SeqFileWriter<K, V> {
    fn reserve(&mut self, len: u64) {
        let more = (len as usize).saturating_sub(self.file.len());
        self.file.reserve_exact(more);
    }
    fn write(&mut self, key: &K, value: &V) -> Result<()> {
        append_record(&mut self.file, key, value);
        Ok(())
    }
    fn close(self: Box<Self>) -> Result<u64> {
        let Self { mut writer, file, .. } = *self;
        writer.write_owned(file)?;
        writer.close()
    }
}

/// Write a whole sequence file in one call (generators and tests), into
/// one buffer sized exactly by [`file_len`].
pub fn write_seq_file<K: Writable, V: Writable>(
    fs: &dyn FileSystem,
    path: &HPath,
    records: &[(K, V)],
) -> Result<u64> {
    let mut out = Vec::with_capacity(file_len(records.iter().map(|(k, v)| (k, v))) as usize);
    out.extend_from_slice(MAGIC);
    for (k, v) in records {
        append_record(&mut out, k, v);
    }
    let mut w = fs.create(path)?;
    w.write_owned(out)?;
    w.close()
}

/// Read a whole sequence file in one call.
pub fn read_seq_file<K: Writable, V: Writable>(
    fs: &dyn FileSystem,
    path: &HPath,
) -> Result<Vec<(K, V)>> {
    let bytes = fs.open(path)?.read_all()?;
    let mut reader = SeqFileReader::<K, V> {
        bytes,
        pos: 0,
        checked_magic: false,
        _marker: PhantomData,
    };
    let mut out = Vec::new();
    while let Some(kv) = reader.next()? {
        out.push(kv);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use crate::writable::{IntWritable, Text};

    #[test]
    fn seqfile_roundtrip_via_helpers() {
        let fs = MemFs::new();
        let records: Vec<(IntWritable, Text)> = (0..100)
            .map(|i| (IntWritable(i), Text::from(format!("value-{i}"))))
            .collect();
        write_seq_file(&fs, &HPath::new("/data/f"), &records).unwrap();
        let back: Vec<(IntWritable, Text)> =
            read_seq_file(&fs, &HPath::new("/data/f")).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn input_format_splits_per_file_with_names() {
        let fs = MemFs::new();
        write_seq_file(&fs, &HPath::new("/in/part-00000"), &[(IntWritable(1), Text::from("a"))])
            .unwrap();
        write_seq_file(&fs, &HPath::new("/in/part-00001"), &[(IntWritable(2), Text::from("b"))])
            .unwrap();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/in"));
        let fmt = SequenceFileInputFormat::<IntWritable, Text>::new();
        let splits = fmt.get_splits(&fs, &conf, 4).unwrap();
        assert_eq!(splits.len(), 2);
        assert!(splits[0].cache_name().unwrap().starts_with("/in/part-00000@0+"));
    }

    #[test]
    fn reader_streams_records() {
        let fs = MemFs::new();
        let records: Vec<(IntWritable, IntWritable)> =
            (0..10).map(|i| (IntWritable(i), IntWritable(i * i))).collect();
        write_seq_file(&fs, &HPath::new("/in/f"), &records).unwrap();
        let mut conf = JobConf::new();
        conf.add_input_path(&HPath::new("/in/f"));
        let fmt = SequenceFileInputFormat::<IntWritable, IntWritable>::new();
        let splits = fmt.get_splits(&fs, &conf, 1).unwrap();
        let mut reader = fmt.record_reader(&fs, splits[0].as_ref(), &conf).unwrap();
        let mut n = 0;
        while let Some((k, v)) = reader.next().unwrap() {
            assert_eq!(v.0, k.0 * k.0);
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn output_format_writes_part_files() {
        let fs = MemFs::new();
        let mut conf = JobConf::new();
        conf.set_output_path(&HPath::new("/out"));
        let fmt = SequenceFileOutputFormat::<IntWritable, Text>::new();
        let mut w = fmt.record_writer(&fs, &conf, 3).unwrap();
        w.write(&IntWritable(9), &Text::from("nine")).unwrap();
        w.close().unwrap();
        let back: Vec<(IntWritable, Text)> =
            read_seq_file(&fs, &HPath::new("/out/part-00003")).unwrap();
        assert_eq!(back, vec![(IntWritable(9), Text::from("nine"))]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let fs = MemFs::new();
        crate::fs::write_file(&fs, &HPath::new("/junk"), b"not a seqfile").unwrap();
        let r: Result<Vec<(IntWritable, Text)>> = read_seq_file(&fs, &HPath::new("/junk"));
        assert!(matches!(r, Err(HmrError::Serde(_))));
    }

    #[test]
    fn empty_seqfile_yields_no_records() {
        let fs = MemFs::new();
        let records: Vec<(IntWritable, Text)> = Vec::new();
        write_seq_file(&fs, &HPath::new("/empty"), &records).unwrap();
        let back: Vec<(IntWritable, Text)> =
            read_seq_file(&fs, &HPath::new("/empty")).unwrap();
        assert!(back.is_empty());
    }

    mod prop {
        use super::*;
        use crate::writable::BytesWritable;
        use proptest::prelude::*;

        /// The encoder `append_record` replaced: key and value each into a
        /// fresh `Vec`, then lengths, then both copies. Kept as the
        /// reference the single-pass encoder must match byte for byte.
        fn two_vec_append<K: Writable, V: Writable>(out: &mut Vec<u8>, key: &K, value: &V) {
            let mut kbuf = Vec::new();
            key.write_to(&mut kbuf);
            let mut vbuf = Vec::new();
            value.write_to(&mut vbuf);
            write_vu64(out, kbuf.len() as u64);
            write_vu64(out, vbuf.len() as u64);
            out.extend_from_slice(&kbuf);
            out.extend_from_slice(&vbuf);
        }

        /// The header-first encoder, into a `Vec` and into a `BytesMut`,
        /// writes exactly the reference's bytes.
        fn same_encoding<K: Writable, V: Writable>(prefix: &[u8], key: &K, value: &V) {
            let (mut got, mut want) = (prefix.to_vec(), prefix.to_vec());
            append_record(&mut got, key, value);
            two_vec_append(&mut want, key, value);
            assert_eq!(got, want, "{key:?} / {value:?}");
            let mut segment = bytes::BytesMut::new();
            segment.extend_from_slice(prefix);
            append_record(&mut segment, key, value);
            assert_eq!(&segment[..], &want[..], "{key:?} / {value:?} into a BytesMut");
        }

        /// Raw bytes whose `serialized_size` is off by `lie`: the encoder
        /// cannot trust the header it wrote first.
        #[derive(Debug)]
        struct Liar {
            bytes: Vec<u8>,
            lie: isize,
        }

        impl Writable for Liar {
            fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
                out.put_slice(&self.bytes);
            }
            fn read_from(_: &mut ByteReader<'_>) -> Result<Self> {
                Err(HmrError::Unsupported("write-only test type".into()))
            }
            fn serialized_size(&self) -> usize {
                self.bytes.len().saturating_add_signed(self.lie)
            }
        }

        /// Payload lengths whose encodings land on either side of the
        /// one/two- and two/three-byte varint boundaries (0, 127/128,
        /// 16 383/16 384), plus small random ones.
        fn payload_len() -> impl Strategy<Value = usize> {
            prop_oneof![Just(0usize), 124..132usize, 16_378..16_388usize, 0..300usize]
        }

        fn payload(len: usize, seed: u8) -> Vec<u8> {
            (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
        }

        fn text(len: usize, seed: u8) -> Text {
            let ascii: String = payload(len, seed).iter().map(|b| (b'a' + b % 26) as char).collect();
            Text::from(ascii)
        }

        #[test]
        fn append_record_matches_at_every_varint_boundary() {
            // Payload lengths whose encoded key/value lengths (payload +
            // its own varint) are exactly 0/1, 127, 128, 16 383 and 16 384.
            for len in [0usize, 126, 127, 16_381, 16_382, 16_383, 16_384] {
                same_encoding(b"SEQ6", &text(len, 7), &BytesWritable(payload(len, 9).into()));
                same_encoding(b"", &BytesWritable(payload(len, 3).into()), &IntWritable(-1));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The header-first encoder writes the reference's bytes, also
            /// for a type whose `serialized_size` disagrees with its
            /// `write_to` by up to 200 bytes either way (the header written
            /// first is then longer or shorter than the true one).
            #[test]
            fn append_record_matches_the_two_vec_encoder(
                prefix in proptest::collection::vec(any::<u8>(), 0..8),
                klen in payload_len(),
                vlen in payload_len(),
                seed in any::<u8>(),
                n in any::<i32>(),
                (klie, vlie) in (-200isize..200, -200isize..200),
            ) {
                same_encoding(&prefix, &IntWritable(n), &text(vlen, seed));
                same_encoding(&prefix, &text(klen, seed), &IntWritable(n));
                same_encoding(&prefix, &text(klen, seed), &text(vlen, seed ^ 0x5a));
                same_encoding(
                    &prefix,
                    &BytesWritable(payload(klen, seed).into()),
                    &BytesWritable(payload(vlen, !seed).into()),
                );
                same_encoding(&prefix, &IntWritable(n), &BytesWritable(payload(vlen, seed).into()));
                let key = Liar { bytes: payload(klen, seed), lie: klie };
                let value = Liar { bytes: payload(vlen, !seed), lie: vlie };
                same_encoding(&prefix, &key, &value);
                same_encoding(&prefix, &key, &text(vlen, seed));
                same_encoding(&prefix, &IntWritable(n), &value);
            }

            /// The reader takes views of the file it reads: a valid file
            /// decodes to exactly what was written, and the same file cut
            /// at any byte, with one byte changed, or replaced by arbitrary
            /// bytes reads to records or to an `HmrError` — never a panic
            /// (a view taken before its length check would be one).
            #[test]
            fn reader_survives_truncation_and_garbage(
                lens in proptest::collection::vec(payload_len(), 1..5),
                (at, flip) in (any::<usize>(), 1u8..=255),
                garbage in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let records: Vec<(Text, BytesWritable)> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| (text(i, 1), BytesWritable(payload(len, i as u8).into())))
                    .collect();
                let fs = MemFs::new();
                let path = HPath::new("/valid");
                write_seq_file(&fs, &path, &records).unwrap();
                prop_assert_eq!(read_seq_file::<Text, BytesWritable>(&fs, &path).unwrap(), records);
                let file = fs.open(&path).unwrap().read_all().unwrap().to_vec();
                let read_raw = |name: &str, bytes: &[u8]| {
                    let path = HPath::new(name);
                    let mut w = fs.create(&path).unwrap();
                    w.write_all(bytes).unwrap();
                    w.close().unwrap();
                    let _ = read_seq_file::<Text, BytesWritable>(&fs, &path);
                    let _ = read_seq_file::<IntWritable, BytesWritable>(&fs, &path);
                    fs.delete(&path, false).unwrap();
                };
                for cut in (0..file.len()).step_by(1 + file.len() / 64) {
                    read_raw("/cut", &file[..cut]);
                }
                let mut flipped = file.clone();
                flipped[at % file.len()] ^= flip;
                read_raw("/flipped", &flipped);
                read_raw("/garbage", &[&MAGIC[..], &garbage].concat());
                read_raw("/raw", &garbage);
            }
        }
    }
}
