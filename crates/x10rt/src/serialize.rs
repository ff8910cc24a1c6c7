//! De-duplicating serialization (paper §3.2.2.3, §5.1, §6.3).
//!
//! X10's serialization protocol must handle cycles in the heap, so it
//! recognizes when an object has been serialized before and emits a
//! back-reference instead of a second copy. M3R gets broadcast
//! de-duplication "for free" from this: if the mappers at place *P* output
//! the identical key or value multiple times for reducers at place *Q*,
//! only one copy crosses the network, and *Q* reconstructs aliases.
//!
//! Identity here is `Arc` pointer identity, matching Java/X10 reference
//! identity. Faithfully to the paper, full de-duplication must *retain* every
//! value it has seen (the memory overhead §6.3 complains about — the map
//! holds an `Arc` per distinct value so the address cannot be recycled and
//! matched falsely). [`DedupMode::Consecutive`] implements the paper's
//! proposed fix: only the immediately preceding value is remembered, which
//! still captures the broadcast idiom of emitting one value in a loop.
//!
//! A stream owns what it encodes ([`Serializer::write_arc_owned`]), which
//! answers part of §6.3 without changing a byte: a value that enters the
//! table moves in rather than being cloned, and under `Full` a *sole*
//! handle — one nobody else holds, so it can never be written again — takes
//! its ordinal but no table slot and is freed while still hot.
//!
//! The receiving side has the same overhead in mirror image: a decoder that
//! keeps every value in case a back-reference arrives. The serializer
//! therefore records which ordinals a back-reference actually targeted
//! ([`Serializer::finish`] returns them, ascending), and a decoder given that
//! list ([`Deserializer::with_targets`]) registers only those values.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

/// How aggressively the serializer de-duplicates repeated values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupMode {
    /// Remember every value written to this stream (X10 default). Highest
    /// network savings, highest memory overhead (§6.3).
    Full,
    /// Remember only a tiny sliding window of recently written values (the
    /// paper's planned relaxation: "only check consecutive key/value pairs
    /// from the same mapper"): still catches `for i in .. emit(key_i, v)`
    /// broadcasts — where the repeated value is separated by one fresh key —
    /// with O(1) memory.
    Consecutive,
    /// No de-duplication; every write is a full copy.
    Off,
}

/// Errors raised while decoding a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerError {
    /// Ran off the end of the buffer.
    Eof,
    /// Unknown framing tag.
    BadTag(u8),
    /// A back-reference pointed at a slot that does not exist.
    BadBackref(u32),
    /// A back-reference resolved to a value of a different type.
    TypeMismatch,
    /// Decoder-specific failure.
    Custom(String),
}

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerError::Eof => write!(f, "unexpected end of stream"),
            SerError::BadTag(t) => write!(f, "unknown framing tag {t:#x}"),
            SerError::BadBackref(i) => write!(f, "dangling back-reference {i}"),
            SerError::TypeMismatch => write!(f, "back-reference type mismatch"),
            SerError::Custom(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for SerError {}

/// How many recent values [`DedupMode::Consecutive`] remembers — enough for
/// the interleaved key/value layout of a broadcast loop.
const CONSECUTIVE_WINDOW: usize = 4;

const TAG_INLINE: u8 = 0;
const TAG_BACKREF: u8 = 1;

/// Statistics about one serialized stream, used by engines to charge
/// serialization and network costs for the bytes actually produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SerStats {
    /// Total stream length in bytes (what crosses the network).
    pub total_bytes: u64,
    /// Bytes of inline payload (excluding framing and back-references).
    pub payload_bytes: u64,
    /// Number of values replaced by back-references.
    pub dedup_hits: u64,
    /// Number of distinct values the X10 protocol retains — the memory
    /// overhead of `DedupMode::Full` — counted whether or not a value took
    /// a table slot (a sole handle does not).
    pub values_retained: u64,
}

/// An encoding stream with identity-based de-duplication.
///
/// The stream writes into a [`BytesMut`] — pre-sized from `serialized_size`
/// hints and typically drawn from a `simgrid::BufPool` — and finishes into a
/// refcounted [`Bytes`] handle that shuffle consumers share without copying.
pub struct Serializer {
    buf: BytesMut,
    mode: DedupMode,
    /// id ⇒ keep-alive; keyed by the value's address. Holding the `Arc`
    /// prevents address reuse from aliasing distinct values.
    seen: HashMap<usize, (u32, Arc<dyn Any + Send + Sync>)>,
    window: std::collections::VecDeque<(usize, u32, Arc<dyn Any + Send + Sync>)>,
    next_id: u32,
    /// Bit `id` is set when some back-reference targeted ordinal `id`.
    /// Grows only on a hit, so a stream without back-references allocates
    /// nothing for it.
    targeted: Vec<u64>,
    payload_bytes: u64,
    dedup_hits: u64,
}

impl Serializer {
    /// A fresh stream using `mode`.
    pub fn new(mode: DedupMode) -> Self {
        Serializer::with_buffer(BytesMut::new(), mode)
    }

    /// A fresh stream whose buffer starts with `capacity` bytes reserved
    /// (callers size this from `serialized_size` hints).
    pub fn with_capacity(capacity: usize, mode: DedupMode) -> Self {
        Serializer::with_buffer(BytesMut::with_capacity(capacity), mode)
    }

    /// A stream writing into a caller-provided (usually pooled) buffer.
    /// The buffer's existing contents are discarded.
    pub fn with_buffer(mut buf: BytesMut, mode: DedupMode) -> Self {
        buf.clear();
        Serializer {
            buf,
            mode,
            seen: HashMap::new(),
            window: std::collections::VecDeque::new(),
            next_id: 0,
            targeted: Vec::new(),
            payload_bytes: 0,
            dedup_hits: 0,
        }
    }

    /// Hint that at least `additional` more bytes are coming.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    fn lookup(&mut self, ptr: usize) -> Option<u32> {
        match self.mode {
            DedupMode::Full => self.seen.get(&ptr).map(|(id, _)| *id),
            DedupMode::Consecutive => {
                // LRU refresh: a re-written value stays "recent", so the
                // broadcast idiom keeps hitting even as fresh keys stream by.
                let idx = self.window.iter().position(|(p, _, _)| *p == ptr)?;
                let entry = self.window.remove(idx).expect("found above");
                let id = entry.1;
                self.window.push_back(entry);
                Some(id)
            }
            DedupMode::Off => None,
        }
    }

    fn remember(&mut self, ptr: usize, id: u32, keep: Arc<dyn Any + Send + Sync>) {
        match self.mode {
            DedupMode::Full => {
                self.seen.insert(ptr, (id, keep));
            }
            DedupMode::Consecutive => {
                self.window.push_back((ptr, id, keep));
                if self.window.len() > CONSECUTIVE_WINDOW {
                    self.window.pop_front();
                }
            }
            DedupMode::Off => {}
        }
    }

    /// Write a shared value the caller keeps: forwards a clone (never sole)
    /// to [`Serializer::write_arc_owned`].
    pub fn write_arc_with<T: Send + Sync + 'static>(
        &mut self,
        value: &Arc<T>,
        encode: impl FnOnce(&T, &mut BytesMut),
    ) {
        self.write_arc_owned(Arc::clone(value), encode)
    }

    /// Write a shared value, taking it over. `encode` runs only when the
    /// value has not been written to this stream before (per the active
    /// [`DedupMode`]); a value that enters the identity table moves into its
    /// keep-alive slot. Under `Full` a *sole* handle (no other strong or weak
    /// reference) can never recur: it takes an ordinal but no slot, is
    /// dropped here, and still counts in [`SerStats::values_retained`].
    pub fn write_arc_owned<T: Send + Sync + 'static>(
        &mut self,
        mut value: Arc<T>,
        encode: impl FnOnce(&T, &mut BytesMut),
    ) {
        let sole = self.mode == DedupMode::Full && Arc::get_mut(&mut value).is_some();
        let ptr = Arc::as_ptr(&value) as usize;
        let hit = if sole { None } else { self.lookup(ptr) };
        if let Some(id) = hit {
            self.buf.extend_from_slice(&[TAG_BACKREF]);
            self.buf.extend_from_slice(&id.to_le_bytes());
            self.dedup_hits += 1;
            let word = id as usize / 64;
            if word >= self.targeted.len() {
                self.targeted.resize(word + 1, 0);
            }
            self.targeted[word] |= 1 << (id % 64);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.buf.extend_from_slice(&[TAG_INLINE]);
        let before = self.buf.len();
        encode(&value, &mut self.buf);
        self.payload_bytes += (self.buf.len() - before) as u64;
        if !sole {
            self.remember(ptr, id, value);
        }
    }

    /// Append raw framing bytes (record counts, partition headers, ...).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a little-endian u32 framing field.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64 framing field.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Current stream length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish the stream, returning a refcounted handle to the bytes, their
    /// statistics and the ordinals some back-reference targeted, ascending
    /// (what [`Deserializer::with_targets`] needs to register). The
    /// conversion moves the storage — no copy — and every consumer of the
    /// stream shares it by refcount; once the last handle drops, the buffer
    /// can return to its pool (`BufPool::reclaim`).
    pub fn finish(self) -> (Bytes, SerStats, Vec<u32>) {
        let stats = SerStats {
            total_bytes: self.buf.len() as u64,
            payload_bytes: self.payload_bytes,
            dedup_hits: self.dedup_hits,
            // `Full` retains every inline value, slotted or sole.
            values_retained: match self.mode {
                DedupMode::Full => u64::from(self.next_id),
                _ => self.window.len() as u64,
            },
        };
        let targets = (0..64 * self.targeted.len() as u32)
            .filter(|id| self.targeted[*id as usize / 64] & (1 << (id % 64)) != 0)
            .collect();
        (self.buf.freeze(), stats, targets)
    }
}

/// Decoder for streams produced by [`Serializer`]. Back-references
/// reconstruct *aliases*: "on deserialization Q will have multiple aliases
/// of that copy" (§3.2.2.3).
///
/// Generic over the byte storage: borrow a slice (`Deserializer<&[u8]>`)
/// for one-shot decoding, or hand it an owned [`Bytes`] handle
/// (`Deserializer<Bytes>`) so iterators can walk a shared shuffle stream
/// without borrowing it — the storage stays alive by refcount.
///
/// A decoder built by [`Deserializer::new`] registers every inline value,
/// since any of them may be referenced later. One built by
/// [`Deserializer::with_targets`] registers only the ordinals the sender's
/// back-references targeted; the aliases it rebuilds are the same.
pub struct Deserializer<D: AsRef<[u8]>> {
    data: D,
    pos: usize,
    /// Ordinals worth registering, ascending; `None` registers all.
    targets: Option<Vec<u32>>,
    /// Inline values decoded so far: the ordinal of the next one.
    inlined: u32,
    /// Registered values in ordinal order: `registry[i]` holds ordinal `i`,
    /// or `targets[i]` when there is a target list.
    registry: Vec<Arc<dyn Any + Send + Sync>>,
}

impl<D: AsRef<[u8]>> Deserializer<D> {
    /// Decode `data` from the start, registering every inline value.
    pub fn new(data: D) -> Self {
        Deserializer {
            data,
            pos: 0,
            targets: None,
            inlined: 0,
            registry: Vec::new(),
        }
    }

    /// Decode `data` from the start, registering only the inline values
    /// whose ordinals are in `targets` (ascending, as
    /// [`Serializer::finish`] returns them). A back-reference to any other
    /// ordinal is [`SerError::BadBackref`].
    pub fn with_targets(data: D, targets: Vec<u32>) -> Self {
        Deserializer {
            targets: Some(targets),
            ..Deserializer::new(data)
        }
    }

    /// The stream being decoded. Pair with [`Deserializer::position`] and
    /// [`Deserializer::advance`] for decoders that read it on their own.
    pub fn data(&self) -> &D {
        &self.data
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.as_ref().len() - self.pos
    }

    /// Read `n` raw bytes.
    pub fn read_raw(&mut self, n: usize) -> Result<&[u8], SerError> {
        if self.remaining() < n {
            return Err(SerError::Eof);
        }
        let s = &self.data.as_ref()[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian u32 framing field.
    pub fn read_u32(&mut self) -> Result<u32, SerError> {
        let b = self.read_raw(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian u64 framing field.
    pub fn read_u64(&mut self) -> Result<u64, SerError> {
        let b = self.read_raw(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Consume `n` bytes a decoder read from [`Deserializer::data`] at
    /// [`Deserializer::position`] on its own.
    pub fn advance(&mut self, n: usize) -> Result<(), SerError> {
        if self.remaining() < n {
            return Err(SerError::Eof);
        }
        self.pos += n;
        Ok(())
    }

    /// Mark the stream fully consumed (used by iterators to stop after a
    /// decoding error instead of spinning on the same bad bytes).
    pub fn poison(&mut self) {
        self.pos = self.data.as_ref().len();
    }

    /// Read one shared value. `decode` is invoked for inline payloads;
    /// back-references return an alias of the previously decoded `Arc`.
    pub fn read_arc_with<T: Send + Sync + 'static>(
        &mut self,
        decode: impl FnOnce(&mut Self) -> Result<T, SerError>,
    ) -> Result<Arc<T>, SerError> {
        let tag = self.read_raw(1)?[0];
        match tag {
            TAG_INLINE => {
                let v = Arc::new(decode(self)?);
                let ordinal = self.inlined;
                self.inlined += 1;
                let register = match &self.targets {
                    None => true,
                    Some(targets) => targets.get(self.registry.len()) == Some(&ordinal),
                };
                if register {
                    self.registry
                        .push(Arc::clone(&v) as Arc<dyn Any + Send + Sync>);
                }
                Ok(v)
            }
            TAG_BACKREF => {
                let id = self.read_u32()?;
                let index = match &self.targets {
                    None => Some(id as usize),
                    Some(targets) => targets.binary_search(&id).ok(),
                };
                let slot = index
                    .and_then(|i| self.registry.get(i))
                    .ok_or(SerError::BadBackref(id))?;
                Arc::clone(slot)
                    .downcast::<T>()
                    .map_err(|_| SerError::TypeMismatch)
            }
            t => Err(SerError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: &u64, buf: &mut BytesMut) {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    fn dec(d: &mut Deserializer<&[u8]>) -> Result<u64, SerError> {
        d.read_u64()
    }

    #[test]
    fn roundtrip_without_dedup() {
        let mut s = Serializer::new(DedupMode::Off);
        let a = Arc::new(7u64);
        s.write_arc_with(&a, enc);
        s.write_arc_with(&a, enc);
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.payload_bytes, 16);
        let mut d = Deserializer::new(&bytes[..]);
        let x = d.read_arc_with(dec).unwrap();
        let y = d.read_arc_with(dec).unwrap();
        assert_eq!((*x, *y), (7, 7));
        assert!(!Arc::ptr_eq(&x, &y), "no aliasing without dedup");
    }

    #[test]
    fn full_dedup_sends_one_copy_and_restores_aliases() {
        let mut s = Serializer::new(DedupMode::Full);
        let v = Arc::new(42u64);
        for _ in 0..10 {
            s.write_arc_with(&v, enc);
        }
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 9);
        assert_eq!(stats.payload_bytes, 8, "one inline copy only");
        // 1 inline record (1 + 8) + 9 backrefs (1 + 4)
        assert_eq!(stats.total_bytes, 9 + 9 * 5);
        let mut d = Deserializer::new(&bytes[..]);
        let first = d.read_arc_with(dec).unwrap();
        for _ in 0..9 {
            let alias = d.read_arc_with(dec).unwrap();
            assert!(Arc::ptr_eq(&first, &alias), "backrefs alias the first copy");
        }
    }

    #[test]
    fn full_dedup_distinguishes_distinct_values_with_equal_content() {
        // Identity-based, not equality-based: two Arcs with equal content
        // are both sent (matching X10 reference semantics).
        let mut s = Serializer::new(DedupMode::Full);
        let a = Arc::new(5u64);
        let b = Arc::new(5u64);
        s.write_arc_with(&a, enc);
        s.write_arc_with(&b, enc);
        let (_, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.values_retained, 2);
    }

    #[test]
    fn full_dedup_survives_caller_dropping_the_arc() {
        // The stream retains each Arc, so a recycled allocation can never be
        // mistaken for an old value.
        let mut s = Serializer::new(DedupMode::Full);
        for i in 0..100u64 {
            let v = Arc::new(i);
            s.write_arc_with(&v, enc);
            drop(v); // address may be reused by the allocator
        }
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 0, "distinct values must never alias");
        let mut d = Deserializer::new(&bytes[..]);
        for i in 0..100u64 {
            assert_eq!(*d.read_arc_with(dec).unwrap(), i);
        }
    }

    #[test]
    fn sole_handles_take_an_ordinal_but_no_slot() {
        let mut s = Serializer::new(DedupMode::Full);
        let shared = Arc::new(2u64);
        let watched = Arc::new(3u64);
        let weak = Arc::downgrade(&watched);
        s.write_arc_owned(Arc::new(1u64), enc);
        s.write_arc_owned(Arc::clone(&shared), enc);
        s.write_arc_owned(watched, enc);
        s.write_arc_with(&shared, enc);
        assert_eq!(s.seen.len(), 2, "the sole handle took no slot");
        assert!(weak.upgrade().is_some(), "a live Weak keeps its slot");
        let (bytes, stats, targets) = s.finish();
        assert_eq!((stats.dedup_hits, stats.values_retained), (1, 3));
        assert_eq!(targets, [1], "only the shared value was referenced");
        let mut d = Deserializer::new(&bytes[..]);
        let got: Vec<_> = (0..4).map(|_| d.read_arc_with(dec).unwrap()).collect();
        assert_eq!(got.iter().map(|v| **v).collect::<Vec<_>>(), [1, 2, 3, 2]);
        assert!(Arc::ptr_eq(&got[1], &got[3]), "backref ids count the sole ordinal");
    }

    #[test]
    fn a_target_list_registers_only_referenced_values() {
        let mut s = Serializer::new(DedupMode::Full);
        let (a, b) = (Arc::new(1u64), Arc::new(2u64));
        s.write_arc_with(&a, enc); // ordinal 0
        for i in 10..80u64 {
            s.write_arc_owned(Arc::new(i), enc); // ordinals 1..=70
        }
        s.write_arc_with(&b, enc); // ordinal 71
        s.write_arc_with(&b, enc);
        s.write_arc_with(&a, enc);
        s.write_arc_with(&b, enc);
        let (bytes, stats, targets) = s.finish();
        assert_eq!(stats.dedup_hits, 3);
        assert_eq!(targets, [0, 71], "each referenced ordinal once, ascending");

        let decode_all = |mut d: Deserializer<&[u8]>| {
            let got: Vec<_> = (0..75).map(|_| d.read_arc_with(dec).unwrap()).collect();
            (got, d.registry.len())
        };
        let (all, registered_all) = decode_all(Deserializer::new(&bytes[..]));
        let (some, registered_some) =
            decode_all(Deserializer::with_targets(&bytes[..], targets.clone()));
        assert_eq!((registered_all, registered_some), (72, 2));
        for (i, j) in [(72, 71), (73, 0), (74, 71)] {
            assert!(Arc::ptr_eq(&all[i], &all[j]) && Arc::ptr_eq(&some[i], &some[j]));
        }
        assert_eq!(
            all.iter().map(|v| **v).collect::<Vec<_>>(),
            some.iter().map(|v| **v).collect::<Vec<_>>()
        );

        // A back-reference the list does not name is dangling.
        let mut d = Deserializer::with_targets(&bytes[..], vec![71]);
        for _ in 0..72 {
            d.read_arc_with(dec).unwrap();
        }
        d.read_arc_with(dec).unwrap();
        assert_eq!(d.read_arc_with(dec).unwrap_err(), SerError::BadBackref(0));
    }

    #[test]
    fn consecutive_mode_catches_broadcast_loops_with_constant_memory() {
        let mut s = Serializer::new(DedupMode::Consecutive);
        let v = Arc::new(9u64);
        let w = Arc::new(8u64);
        // broadcast idiom: same value in a loop
        for _ in 0..5 {
            s.write_arc_with(&v, enc);
        }
        // a different value, then back to v: still within the window
        s.write_arc_with(&w, enc);
        s.write_arc_with(&v, enc);
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 5);
        assert!(
            stats.values_retained <= 4,
            "O(1) retention, got {}",
            stats.values_retained
        );
        let mut d = Deserializer::new(&bytes[..]);
        let mut got = Vec::new();
        for _ in 0..7 {
            got.push(*d.read_arc_with(dec).unwrap());
        }
        assert_eq!(got, vec![9, 9, 9, 9, 9, 8, 9]);
    }

    #[test]
    fn consecutive_mode_forgets_values_outside_the_window() {
        let mut s = Serializer::new(DedupMode::Consecutive);
        let v = Arc::new(1u64);
        s.write_arc_with(&v, enc);
        // Push enough distinct values to evict v from the window.
        let fresh: Vec<Arc<u64>> = (10..20u64).map(Arc::new).collect();
        for f in &fresh {
            s.write_arc_with(f, enc);
        }
        s.write_arc_with(&v, enc); // forgotten -> re-inlined
        let (_, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 0);
    }

    #[test]
    fn full_dedup_total_bytes_less_than_off_for_broadcast() {
        let payload = Arc::new(0xABCDu64);
        let mut on = Serializer::new(DedupMode::Full);
        let mut off = Serializer::new(DedupMode::Off);
        for _ in 0..1000 {
            on.write_arc_with(&payload, enc);
            off.write_arc_with(&payload, enc);
        }
        let (_, s_on, _) = on.finish();
        let (_, s_off, _) = off.finish();
        assert!(s_on.total_bytes < (s_off.total_bytes / 1.5 as u64));
        assert!(s_on.total_bytes < s_off.total_bytes);
        assert_eq!(s_off.dedup_hits, 0);
    }

    #[test]
    fn interleaved_values_full_dedup() {
        let a = Arc::new(1u64);
        let b = Arc::new(2u64);
        let mut s = Serializer::new(DedupMode::Full);
        for _ in 0..3 {
            s.write_arc_with(&a, enc);
            s.write_arc_with(&b, enc);
        }
        let (bytes, stats, _) = s.finish();
        assert_eq!(stats.dedup_hits, 4);
        let mut d = Deserializer::new(&bytes[..]);
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(*d.read_arc_with(dec).unwrap());
        }
        assert_eq!(got, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn truncated_stream_reports_eof() {
        let mut s = Serializer::new(DedupMode::Off);
        s.write_arc_with(&Arc::new(1u64), enc);
        let (bytes, _, _) = s.finish();
        let bytes = bytes.slice(..bytes.len() - 3);
        let mut d = Deserializer::new(&bytes[..]);
        assert_eq!(d.read_arc_with(dec).unwrap_err(), SerError::Eof);
    }

    #[test]
    fn dangling_backref_detected() {
        let bytes = [TAG_BACKREF, 9, 0, 0, 0];
        let mut d = Deserializer::new(&bytes[..]);
        assert_eq!(
            d.read_arc_with(dec).unwrap_err(),
            SerError::BadBackref(9)
        );
    }

    #[test]
    fn bad_tag_detected() {
        let bytes = [0x7F];
        let mut d = Deserializer::new(&bytes[..]);
        assert_eq!(d.read_arc_with(dec).unwrap_err(), SerError::BadTag(0x7F));
    }

    #[test]
    fn type_mismatched_backref_detected() {
        let mut s = Serializer::new(DedupMode::Full);
        let v = Arc::new(1u64);
        s.write_arc_with(&v, enc);
        s.write_arc_with(&v, enc);
        let (bytes, _, _) = s.finish();
        let mut d = Deserializer::new(&bytes[..]);
        let _ = d.read_arc_with(dec).unwrap();
        // Try to read the backref as a different type.
        let r = d.read_arc_with(|d| d.read_u64().map(|v| v as u32));
        assert_eq!(r.unwrap_err(), SerError::TypeMismatch);
    }

    #[test]
    fn framing_helpers_roundtrip() {
        let mut s = Serializer::new(DedupMode::Off);
        s.write_u32(7);
        s.write_u64(1 << 40);
        s.write_raw(b"hdr");
        let (bytes, _, _) = s.finish();
        let mut d = Deserializer::new(&bytes[..]);
        assert_eq!(d.read_u32().unwrap(), 7);
        assert_eq!(d.read_u64().unwrap(), 1 << 40);
        assert_eq!(d.read_raw(3).unwrap(), b"hdr");
        assert_eq!(d.remaining(), 0);
    }
}
