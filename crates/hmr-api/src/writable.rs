//! `Writable` — Hadoop's serialization contract — and the standard
//! implementations (`IntWritable`, `LongWritable`, `Text`, ...).
//!
//! Hadoop types serialize themselves field-by-field to a `DataOutput`; here
//! the sink is a byte vector and the source a [`ByteReader`]. Variable-length
//! integers use the same idea as Hadoop's `WritableUtils` (LEB128 here).
//!
//! Rust's static typing replaces Hadoop's configured class names: a job is
//! generic over its key/value types, each bounded by [`WritableKey`] /
//! [`WritableValue`].

use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use crate::error::{HmrError, Result};

/// Cursor over a byte slice used by [`Writable::read_from`].
///
/// A reader built by [`ByteReader::shared`] also knows the refcounted
/// buffer its bytes lie in, so [`ByteReader::read_shared`] can hand out
/// views of that buffer instead of copies ("reads borrow", DESIGN.md "Byte
/// path").
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// The buffer `data` is a view of, and where `data` starts in it.
    backing: Option<(&'a Bytes, usize)>,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader {
            data,
            pos: 0,
            backing: None,
        }
    }

    /// Read `bytes[range]`, backed by `bytes`: byte strings read through
    /// [`ByteReader::read_shared`] slice `bytes` instead of copying.
    /// Panics if `range` is out of bounds, like slicing.
    pub fn shared(bytes: &'a Bytes, range: Range<usize>) -> Self {
        ByteReader {
            data: &bytes[range.clone()],
            pos: 0,
            backing: Some((bytes, range.start)),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read exactly `n` bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(HmrError::Serde(format!(
                "need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read exactly `n` bytes as a [`Bytes`]: a view sharing the backing
    /// buffer when the reader has one, a copy otherwise. The length is
    /// checked before any view is taken, so short input is an error.
    pub fn read_shared(&mut self, n: usize) -> Result<Bytes> {
        let at = self.pos;
        let s = self.read_bytes(n)?;
        Ok(match self.backing {
            Some((buf, base)) => buf.slice(base + at..base + at + n),
            None => Bytes::copy_from_slice(s),
        })
    }

    /// Split off the next `n` bytes as a reader of their own (a framed
    /// field), keeping the backing buffer.
    pub fn sub(&mut self, n: usize) -> Result<ByteReader<'a>> {
        let at = self.pos;
        let data = self.read_bytes(n)?;
        Ok(ByteReader {
            data,
            pos: 0,
            backing: self.backing.map(|(buf, base)| (buf, base + at)),
        })
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.read_bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.read_bytes(8)?.try_into().unwrap()))
    }

    /// Read a LEB128 varint (Hadoop `WritableUtils.readVLong` analogue).
    pub fn read_vu64(&mut self) -> Result<u64> {
        let mut shift = 0u32;
        let mut acc = 0u64;
        loop {
            let b = self.read_u8()?;
            if shift >= 64 {
                return Err(HmrError::Serde("varint overflow".into()));
            }
            acc |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(acc);
            }
            shift += 7;
        }
    }

    /// Read a zig-zag varint.
    pub fn read_vi64(&mut self) -> Result<i64> {
        let z = self.read_vu64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

/// Byte-appendable serialization target. `Writable`s are generic over the
/// sink so the same encode path can fill a plain `Vec<u8>` or a pooled
/// [`bytes::BytesMut`] shuffle buffer without an intermediate copy.
pub trait ByteSink {
    /// Append one byte.
    fn put_u8(&mut self, b: u8);
    /// Append a byte slice.
    fn put_slice(&mut self, s: &[u8]);
    /// Hint that at least `additional` more bytes are coming.
    fn reserve(&mut self, additional: usize);
}

impl ByteSink for Vec<u8> {
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

impl ByteSink for bytes::BytesMut {
    fn put_u8(&mut self, b: u8) {
        self.extend_from_slice(&[b]);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
    fn reserve(&mut self, additional: usize) {
        bytes::BytesMut::reserve(self, additional);
    }
}

/// Append a LEB128 varint.
pub fn write_vu64<S: ByteSink + ?Sized>(out: &mut S, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(b);
            return;
        }
        out.put_u8(b | 0x80);
    }
}

/// Append a zig-zag varint.
pub fn write_vi64<S: ByteSink + ?Sized>(out: &mut S, v: i64) {
    write_vu64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Hadoop's serialization contract.
pub trait Writable: Send + Sync + std::fmt::Debug + 'static {
    /// Serialize `self` onto `out`.
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S);

    /// Deserialize a value, consuming exactly the bytes `write_to` produced.
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self>
    where
        Self: Sized;

    /// Exact serialized size in bytes. The default serializes and counts;
    /// hot types override with an O(1) computation. Engines use this to
    /// price clones and serialization.
    fn serialized_size(&self) -> usize {
        let mut buf = Vec::new();
        self.write_to(&mut buf);
        buf.len()
    }

    /// Append a byte string whose plain memcmp order equals this type's
    /// natural `Ord`, and whose equality implies key equality, then return
    /// `true`. The default returns `false` (type has no such encoding);
    /// see [`RawComparable`] for the contract and which types opt in.
    ///
    /// Note this is *not* `write_to`: the wire form is little-endian and
    /// length-prefixed, neither of which memcmp-orders correctly.
    fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, _out: &mut S) -> bool {
        false
    }
}

/// Marker for writables whose [`Writable::write_raw_sort_key`] encoding is
/// total: memcmp over raw keys == the type's `Ord`, and raw-key equality ==
/// key equality (Hadoop's `RawComparator` contract). Sort paths use this to
/// order records by cached byte prefixes instead of a boxed comparator call
/// per comparison; it is only consulted when the job sorts and groups by the
/// *natural* order (see `KeyComparator::is_natural`).
pub trait RawComparable: Writable + Ord {}

/// Bound for MapReduce keys: writable, clonable, totally ordered, hashable.
pub trait WritableKey: Writable + Clone + Eq + Ord + Hash {}
impl<T: Writable + Clone + Eq + Ord + Hash> WritableKey for T {}

/// Bound for MapReduce values: writable and clonable.
pub trait WritableValue: Writable + Clone {}
impl<T: Writable + Clone> WritableValue for T {}

/// Serialize any writable to a fresh buffer (test/utility helper).
pub fn to_bytes<W: Writable>(w: &W) -> Vec<u8> {
    let mut buf = Vec::new();
    w.write_to(&mut buf);
    buf
}

/// Deserialize a single writable from a buffer, requiring full consumption.
pub fn from_bytes<W: Writable>(bytes: &[u8]) -> Result<W> {
    from_reader(ByteReader::new(bytes))
}

/// Deserialize a single writable from what `r` has left, requiring full
/// consumption (a framed field split off by [`ByteReader::sub`]).
pub fn from_reader<W: Writable>(mut r: ByteReader<'_>) -> Result<W> {
    let w = W::read_from(&mut r)?;
    if r.remaining() != 0 {
        return Err(HmrError::Serde(format!(
            "{} trailing bytes after {}",
            r.remaining(),
            std::any::type_name::<W>()
        )));
    }
    Ok(w)
}

// ---------------------------------------------------------------------------
// Standard writables
// ---------------------------------------------------------------------------

/// The singleton key/value used where Hadoop needs "no data".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NullWritable;

impl Writable for NullWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, _out: &mut S) {}
    fn read_from(_input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(NullWritable)
    }
    fn serialized_size(&self) -> usize {
        0
    }
}

/// A boolean.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BooleanWritable(pub bool);

impl Writable for BooleanWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_u8(self.0 as u8);
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(BooleanWritable(input.read_u8()? != 0))
    }
    fn serialized_size(&self) -> usize {
        1
    }
}

/// A 32-bit integer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntWritable(pub i32);

impl Writable for IntWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_slice(&self.0.to_le_bytes());
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(IntWritable(i32::from_le_bytes(
            input.read_bytes(4)?.try_into().unwrap(),
        )))
    }
    fn serialized_size(&self) -> usize {
        4
    }
    fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, out: &mut S) -> bool {
        // Sign-flipped big-endian: memcmp order == i32 order.
        out.put_slice(&((self.0 as u32) ^ 0x8000_0000).to_be_bytes());
        true
    }
}

impl RawComparable for IntWritable {}

/// A 64-bit integer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LongWritable(pub i64);

impl Writable for LongWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_slice(&self.0.to_le_bytes());
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(LongWritable(i64::from_le_bytes(
            input.read_bytes(8)?.try_into().unwrap(),
        )))
    }
    fn serialized_size(&self) -> usize {
        8
    }
    fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, out: &mut S) -> bool {
        // Sign-flipped big-endian: memcmp order == i64 order.
        out.put_slice(&((self.0 as u64) ^ 0x8000_0000_0000_0000).to_be_bytes());
        true
    }
}

impl RawComparable for LongWritable {}

/// A 64-bit float. Ordering is IEEE total order and equality is bitwise, so
/// the type can serve as a MapReduce key exactly like Hadoop's
/// `DoubleWritable` (which compares via `Double.compareTo`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DoubleWritable(pub f64);

impl PartialEq for DoubleWritable {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for DoubleWritable {}
impl PartialOrd for DoubleWritable {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DoubleWritable {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl Hash for DoubleWritable {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Writable for DoubleWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_slice(&self.0.to_le_bytes());
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(DoubleWritable(f64::from_le_bytes(
            input.read_bytes(8)?.try_into().unwrap(),
        )))
    }
    fn serialized_size(&self) -> usize {
        8
    }
}

/// A UTF-8 string (Hadoop `Text`). The contents are a refcounted
/// [`Bytes`] holding valid UTF-8 — every constructor validates — so a clone
/// is a refcount, a decode from a backed [`ByteReader`] is a view of the
/// stream, segment or block it was read from (which it keeps alive), and a
/// line or token can be a view of the `Text` it lies in.
///
/// `Hash`, `Eq`, `Ord`, `Debug` and both byte forms are those of the
/// `String` holding the same characters: `HashPartitioner` places a key by
/// its `std::hash`, and `[u8]` hashes differently from `str`.
#[derive(Clone, Default)]
pub struct Text(Bytes);

impl Text {
    /// Construct from anything string-like.
    pub fn from(s: impl Into<String>) -> Self {
        Text(s.into().into_bytes().into())
    }

    /// Take `bytes` as the contents if they are valid UTF-8.
    pub fn from_utf8(bytes: Bytes) -> Result<Self> {
        std::str::from_utf8(&bytes)
            .map_err(|e| HmrError::Serde(format!("invalid utf8 in Text: {e}")))?;
        Ok(Text(bytes))
    }

    /// A view of `self[range]` sharing this `Text`'s storage. Errors when
    /// the range is out of bounds or does not start and end on char
    /// boundaries.
    fn slice(&self, range: Range<usize>) -> Result<Text> {
        let s = self.as_str();
        if s.get(range.clone()).is_none() {
            return Err(HmrError::Serde(format!(
                "{range:?} is not a char range of a {}-byte Text",
                s.len()
            )));
        }
        Ok(Text(self.0.slice(range)))
    }

    /// The view of `sub`, a substring borrowed from [`Text::as_str`] (a
    /// line or a token), sharing this `Text`'s storage. Errors when `sub`
    /// does not lie inside it.
    pub fn slice_ref(&self, sub: &str) -> Result<Text> {
        let start = (sub.as_ptr() as usize).wrapping_sub(self.0.as_ptr() as usize);
        match start.checked_add(sub.len()) {
            Some(end) if end <= self.0.len() => self.slice(start..end),
            _ => Err(HmrError::Serde(format!(
                "a {}-byte str outside a {}-byte Text",
                sub.len(),
                self.0.len()
            ))),
        }
    }

    /// Replace the contents in place — the Hadoop `Text.set` reuse idiom
    /// that is incompatible with `ImmutableOutput` (paper Fig 4, left).
    /// Copy-on-write: storage this `Text` owns alone is reused, shared
    /// storage (a clone, or the stream a view came from) is left alone.
    pub fn set(&mut self, s: &str) {
        self.0.overwrite(s.as_bytes());
    }

    /// Borrow the contents.
    pub fn as_str(&self) -> &str {
        // SAFETY: the field is private and only ever holds valid UTF-8:
        // `default` is empty, `from` and `set` copy a `str`, `from_utf8`
        // (under `read_from`) validates, and `slice` (under `slice_ref`)
        // cuts at char boundaries. Viewed bytes never change under a view.
        unsafe { std::str::from_utf8_unchecked(&self.0) }
    }

    /// Mutate a shared `Text` in place. Clones defensively if the engine
    /// still holds an alias, preserving integrity even under a
    /// mis-declared `ImmutableOutput` job.
    pub fn set_shared(this: &mut Arc<Text>, s: &str) {
        Arc::make_mut(this).set(s);
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte-lexicographic, which is `str`'s order.
impl Ord for Text {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Hash for Text {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Text").field(&self.as_str()).finish()
    }
}

impl std::fmt::Display for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Writable for Text {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        write_vu64(out, self.0.len() as u64);
        out.put_slice(&self.0);
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        let n = input.read_vu64()? as usize;
        Text::from_utf8(input.read_shared(n)?)
    }
    fn serialized_size(&self) -> usize {
        let n = self.0.len();
        n + varint_len(n as u64)
    }
    fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, out: &mut S) -> bool {
        // Content bytes WITHOUT the varint length prefix: `str` orders
        // byte-lexicographically, exactly memcmp with shorter-is-less —
        // while a length prefix would order "b" after "ab".
        out.put_slice(&self.0);
        true
    }
}

impl RawComparable for Text {}

/// Raw bytes (Hadoop `BytesWritable`). The contents are a refcounted
/// [`Bytes`]: decoded from a backed [`ByteReader`] they are a view of the
/// stream, segment or block they were read from, which they keep alive.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BytesWritable(pub Bytes);

impl Writable for BytesWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        write_vu64(out, self.0.len() as u64);
        out.put_slice(&self.0);
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        let n = input.read_vu64()? as usize;
        Ok(BytesWritable(input.read_shared(n)?))
    }
    fn serialized_size(&self) -> usize {
        self.0.len() + varint_len(self.0.len() as u64)
    }
    fn write_raw_sort_key<S: ByteSink + ?Sized>(&self, out: &mut S) -> bool {
        // Unprefixed content: `[u8]` Ord is memcmp with shorter-is-less.
        out.put_slice(&self.0);
        true
    }
}

impl RawComparable for BytesWritable {}

/// A pair of writables; sorts lexicographically. Hadoop expresses these as
/// custom composite keys (e.g. the matrix block index of §6.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairWritable<A, B>(pub A, pub B);

impl<A: Writable + Clone, B: Writable + Clone> Writable for PairWritable<A, B> {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        self.0.write_to(out);
        self.1.write_to(out);
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(PairWritable(A::read_from(input)?, B::read_from(input)?))
    }
    fn serialized_size(&self) -> usize {
        self.0.serialized_size() + self.1.serialized_size()
    }
}

/// A homogeneous array of writables (Hadoop `ArrayWritable`).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayWritable<T>(pub Vec<T>);

impl<T: Writable + Clone> Writable for ArrayWritable<T> {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        write_vu64(out, self.0.len() as u64);
        for x in &self.0 {
            x.write_to(out);
        }
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        let n = input.read_vu64()? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(T::read_from(input)?);
        }
        Ok(ArrayWritable(v))
    }
    fn serialized_size(&self) -> usize {
        varint_len(self.0.len() as u64)
            + self.0.iter().map(|x| x.serialized_size()).sum::<usize>()
    }
}

/// A dense vector of f64 — the "array of double" value type from the matvec
/// workload (§6.2). Serialized as a length + raw little-endian doubles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DoubleArrayWritable(pub Vec<f64>);

impl Writable for DoubleArrayWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        write_vu64(out, self.0.len() as u64);
        for x in &self.0 {
            out.put_slice(&x.to_le_bytes());
        }
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        let n = input.read_vu64()? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 24));
        for _ in 0..n {
            v.push(f64::from_le_bytes(input.read_bytes(8)?.try_into().unwrap()));
        }
        Ok(DoubleArrayWritable(v))
    }
    fn serialized_size(&self) -> usize {
        varint_len(self.0.len() as u64) + 8 * self.0.len()
    }
}

/// Bytes [`write_vu64`] emits for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<W: Writable + PartialEq + Clone>(w: W) {
        let bytes = to_bytes(&w);
        assert_eq!(bytes.len(), w.serialized_size(), "size hint must be exact");
        let back: W = from_bytes(&bytes).unwrap();
        assert!(back == w, "roundtrip mismatch");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(NullWritable);
        roundtrip(BooleanWritable(true));
        roundtrip(IntWritable(-12345));
        roundtrip(LongWritable(i64::MIN));
        roundtrip(DoubleWritable(std::f64::consts::PI));
        roundtrip(Text::from("hello m3r"));
        roundtrip(Text::from(""));
        roundtrip(BytesWritable(vec![0, 255, 3].into()));
        roundtrip(PairWritable(IntWritable(1), Text::from("x")));
        roundtrip(ArrayWritable(vec![IntWritable(5), IntWritable(6)]));
        roundtrip(DoubleArrayWritable(vec![1.0, -2.5, f64::MAX]));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_vu64(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.read_vu64().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            let mut buf = Vec::new();
            write_vi64(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.read_vi64().unwrap(), v);
        }
    }

    #[test]
    fn sequential_reads_consume_exactly() {
        let mut buf = Vec::new();
        IntWritable(7).write_to(&mut buf);
        Text::from("abc").write_to(&mut buf);
        LongWritable(9).write_to(&mut buf);
        let mut r = ByteReader::new(&buf);
        assert_eq!(IntWritable::read_from(&mut r).unwrap(), IntWritable(7));
        assert_eq!(Text::read_from(&mut r).unwrap(), Text::from("abc"));
        assert_eq!(LongWritable::read_from(&mut r).unwrap(), LongWritable(9));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_buffer_is_an_error_not_a_panic() {
        let bytes = to_bytes(&LongWritable(1));
        let r: Result<LongWritable> = from_bytes(&bytes[..4]);
        assert!(r.is_err());
    }

    #[test]
    fn backed_reads_slice_their_buffer_and_unbacked_reads_copy() {
        let mut wire = Vec::new();
        IntWritable(3).write_to(&mut wire);
        BytesWritable(b"payload".to_vec().into()).write_to(&mut wire);
        let buf = Bytes::from(wire);
        let inside = buf.as_ptr_range();

        let mut r = ByteReader::shared(&buf, 4..buf.len());
        let view = BytesWritable::read_from(&mut r).unwrap();
        assert_eq!((&view.0[..], r.remaining()), (&b"payload"[..], 0));
        assert!(inside.contains(&view.0.as_ptr()), "a view of the buffer");

        let copy: BytesWritable = from_bytes(&buf[4..]).unwrap();
        assert_eq!(copy, view);
        assert!(!inside.contains(&copy.0.as_ptr()), "an unbacked read copies");

        // A framed field keeps the backing; short input is an error first.
        let mut r = ByteReader::shared(&buf, 0..buf.len());
        r.read_u32().unwrap();
        let field: BytesWritable = from_reader(r.sub(8).unwrap()).unwrap();
        assert!(inside.contains(&field.0.as_ptr()));
        let mut short = ByteReader::shared(&buf, 4..8);
        assert!(BytesWritable::read_from(&mut short).is_err());

        // `Text` reads the same way, validated.
        let mut r = ByteReader::shared(&buf, 4..buf.len());
        let text = Text::read_from(&mut r).unwrap();
        assert_eq!(text.as_str(), "payload");
        assert!(inside.contains(&text.as_str().as_ptr()), "a view of the buffer");
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = to_bytes(&IntWritable(1));
        bytes.push(0);
        let r: Result<IntWritable> = from_bytes(&bytes);
        assert!(matches!(r, Err(HmrError::Serde(_))));
    }

    #[test]
    fn invalid_utf8_text_rejected() {
        let mut buf = Vec::new();
        write_vu64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let r: Result<Text> = from_bytes(&buf);
        assert!(matches!(r, Err(HmrError::Serde(_))));
    }

    #[test]
    fn text_views_refuse_foreign_strs_and_split_chars() {
        let line = Text::from("naïve words");
        let tok = line.as_str().split_whitespace().nth(1).unwrap();
        let view = line.slice_ref(tok).unwrap();
        assert_eq!(view, Text::from("words"));
        assert_eq!(view.as_str().as_ptr(), tok.as_ptr(), "a view, not a copy");
        assert_eq!(line.slice(0..5).unwrap().as_str(), "naïv");

        let elsewhere = String::from("words");
        assert!(matches!(line.slice_ref(&elsewhere), Err(HmrError::Serde(_))));
        let tail = &line.as_str()[6..];
        assert!(matches!(view.slice_ref(tail), Err(HmrError::Serde(_))), "overhangs the view");
        assert!(matches!(line.slice(0..3), Err(HmrError::Serde(_))), "splits the 'ï'");
        assert!(matches!(line.slice(3..12), Err(HmrError::Serde(_))), "out of bounds");
        assert!(matches!(
            Text::from_utf8(Bytes::from(vec![b'a', 0xC3])),
            Err(HmrError::Serde(_))
        ));
    }

    #[test]
    fn double_writable_is_a_usable_key() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(DoubleWritable(2.0));
        s.insert(DoubleWritable(-1.0));
        s.insert(DoubleWritable(2.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().next().unwrap().0, -1.0);
    }

    #[test]
    fn text_set_reuses_allocation() {
        let mut t = Text::from("abcdefgh");
        let buf = t.as_str().as_ptr();
        t.set("xy");
        assert_eq!(t.as_str(), "xy");
        assert_eq!(t.as_str().as_ptr(), buf, "set() must reuse the buffer");
    }

    #[test]
    fn set_shared_clones_only_when_aliased() {
        let mut t = Arc::new(Text::from("one"));
        let before = Arc::as_ptr(&t);
        Text::set_shared(&mut t, "two");
        assert_eq!(Arc::as_ptr(&t), before, "unique arc mutated in place");
        let alias = Arc::clone(&t);
        Text::set_shared(&mut t, "three");
        assert_ne!(Arc::as_ptr(&t), Arc::as_ptr(&alias), "aliased arc cloned");
        assert_eq!(alias.as_str(), "two", "engine's alias unchanged");
        assert_eq!(t.as_str(), "three");
    }

    #[cfg(test)]
    mod prop {
        use super::*;
        use crate::partition::stable_hash;
        use proptest::prelude::*;

        /// Printable ASCII plus two- to four-byte chars.
        const TEXT_CHARS: &str = "[ -~éßï日本語🦀]{0,24}";

        proptest! {
            #[test]
            fn text_roundtrips(s in TEXT_CHARS, other in TEXT_CHARS) {
                let t = Text::from(s.clone());
                roundtrip(t.clone());
                // A `Text` is the `String` it came from on every identity a
                // job sees: partition, order, debug form and both byte forms.
                prop_assert_eq!(stable_hash(&t), stable_hash(&s));
                prop_assert_eq!(t.cmp(&Text::from(other.clone())), s.cmp(&other));
                prop_assert_eq!(format!("{t:?}"), format!("Text({s:?})"));
                let mut wire = Vec::new();
                write_vu64(&mut wire, s.len() as u64);
                wire.extend_from_slice(s.as_bytes());
                prop_assert_eq!(to_bytes(&t), wire);
                let mut raw = Vec::new();
                prop_assert!(t.write_raw_sort_key(&mut raw));
                prop_assert_eq!(raw, s.as_bytes().to_vec());
            }

            #[test]
            fn bytes_roundtrips(b in proptest::collection::vec(any::<u8>(), 0..512)) {
                roundtrip(BytesWritable(b.into()));
            }

            #[test]
            fn longs_roundtrip(v in any::<i64>()) {
                roundtrip(LongWritable(v));
            }

            #[test]
            fn varint_roundtrips(v in any::<u64>()) {
                let mut buf = Vec::new();
                write_vu64(&mut buf, v);
                let mut r = ByteReader::new(&buf);
                prop_assert_eq!(r.read_vu64().unwrap(), v);
            }

            #[test]
            fn double_total_order_is_transitive(a in any::<f64>(), b in any::<f64>(), c in any::<f64>()) {
                let (x, y, z) = (DoubleWritable(a), DoubleWritable(b), DoubleWritable(c));
                if x <= y && y <= z {
                    prop_assert!(x <= z);
                }
            }

            #[test]
            fn doubles_roundtrip_bitexact(v in any::<f64>()) {
                let back: DoubleWritable = from_bytes(&to_bytes(&DoubleWritable(v))).unwrap();
                prop_assert_eq!(back.0.to_bits(), v.to_bits());
            }
        }
    }
}

/// A 32-bit float (Hadoop `FloatWritable`). Total-ordered like
/// [`DoubleWritable`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FloatWritable(pub f32);

impl PartialEq for FloatWritable {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for FloatWritable {}
impl PartialOrd for FloatWritable {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatWritable {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl Hash for FloatWritable {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Writable for FloatWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_slice(&self.0.to_le_bytes());
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(FloatWritable(f32::from_le_bytes(
            input.read_bytes(4)?.try_into().unwrap(),
        )))
    }
    fn serialized_size(&self) -> usize {
        4
    }
}

/// A variable-length 64-bit integer (Hadoop `VLongWritable`): small
/// magnitudes cost 1–2 bytes on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VLongWritable(pub i64);

impl Writable for VLongWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        write_vi64(out, self.0);
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(VLongWritable(input.read_vi64()?))
    }
}

/// A single byte (Hadoop `ByteWritable`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteWritable(pub u8);

impl Writable for ByteWritable {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        out.put_u8(self.0);
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        Ok(ByteWritable(input.read_u8()?))
    }
    fn serialized_size(&self) -> usize {
        1
    }
}

/// An optional writable (Hadoop idiom: a boolean presence flag + payload),
/// useful for jobs with sparse side information.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OptionWritable<T>(pub Option<T>);

impl<T: Writable + Clone> Writable for OptionWritable<T> {
    fn write_to<S: ByteSink + ?Sized>(&self, out: &mut S) {
        match &self.0 {
            None => out.put_u8(0),
            Some(v) => {
                out.put_u8(1);
                v.write_to(out);
            }
        }
    }
    fn read_from(input: &mut ByteReader<'_>) -> Result<Self> {
        match input.read_u8()? {
            0 => Ok(OptionWritable(None)),
            1 => Ok(OptionWritable(Some(T::read_from(input)?))),
            t => Err(HmrError::Serde(format!("bad OptionWritable tag {t}"))),
        }
    }
    fn serialized_size(&self) -> usize {
        1 + self.0.as_ref().map(|v| v.serialized_size()).unwrap_or(0)
    }
}

#[cfg(test)]
mod extra_writable_tests {
    use super::*;

    fn roundtrip<W: Writable + PartialEq + Clone>(w: W) {
        let bytes = to_bytes(&w);
        assert_eq!(bytes.len(), w.serialized_size(), "size hint must be exact");
        let back: W = from_bytes(&bytes).unwrap();
        assert!(back == w, "roundtrip mismatch");
    }

    #[test]
    fn extra_primitives_roundtrip() {
        roundtrip(FloatWritable(3.25));
        roundtrip(FloatWritable(f32::NEG_INFINITY));
        roundtrip(VLongWritable(0));
        roundtrip(VLongWritable(i64::MIN));
        roundtrip(VLongWritable(-1));
        roundtrip(ByteWritable(255));
        roundtrip(OptionWritable::<IntWritable>(None));
        roundtrip(OptionWritable(Some(Text::from("present"))));
    }

    #[test]
    fn vlong_is_compact_for_small_values() {
        assert_eq!(to_bytes(&VLongWritable(0)).len(), 1);
        assert_eq!(to_bytes(&VLongWritable(-64)).len(), 1);
        assert!(to_bytes(&VLongWritable(i64::MAX)).len() <= 10);
    }

    #[test]
    fn float_writable_total_order() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(FloatWritable(f32::NAN));
        s.insert(FloatWritable(1.0));
        s.insert(FloatWritable(f32::NAN));
        assert_eq!(s.len(), 2, "NaN equal to itself under total order");
    }

    #[test]
    fn bad_option_tag_rejected() {
        let r: Result<OptionWritable<IntWritable>> = from_bytes(&[7]);
        assert!(matches!(r, Err(HmrError::Serde(_))));
    }
}
