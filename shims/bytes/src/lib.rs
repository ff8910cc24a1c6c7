//! Offline stand-in for the `bytes` crate.
//!
//! [`BytesMut`] is a growable byte buffer; [`Bytes`] is a cheaply clonable,
//! immutable view into refcounted storage (clone = one atomic increment, no
//! copy). `BytesMut::freeze` converts without copying, and
//! [`Bytes::try_into_mut`] recovers the unique buffer for reuse — the hook
//! the buffer pool uses to recycle shuffle streams across waves and jobs.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Immutable, refcounted view of a byte buffer. `clone()` shares storage.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `data` into fresh owned storage.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same storage (no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Replace the viewed bytes with a copy of `data`. A sole owner (no
    /// other handle shares the storage) rewrites its allocation in place,
    /// reusing its capacity; a shared handle detaches onto fresh storage
    /// and leaves the other handles' bytes unchanged (copy-on-write).
    pub fn overwrite(&mut self, data: &[u8]) {
        match Arc::get_mut(&mut self.data) {
            Some(vec) => {
                vec.clear();
                vec.extend_from_slice(data);
            }
            None => self.data = Arc::new(data.to_vec()),
        }
        self.start = 0;
        self.end = data.len();
    }

    /// Recover the unique underlying buffer for reuse. Succeeds only when
    /// this handle is the sole owner and spans the whole allocation;
    /// otherwise returns `self` unchanged.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        if self.start != 0 || self.end != self.data.len() {
            return Err(self);
        }
        match Arc::try_unwrap(self.data) {
            Ok(vec) => Ok(BytesMut { buf: vec }),
            Err(data) => Err(Bytes {
                start: 0,
                end: data.len(),
                data,
            }),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the viewed bytes, like `[u8]`.
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

/// Growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        if self.buf.is_empty() && self.buf.capacity() < additional {
            // Growing through `Vec::reserve` reallocates, and realloc
            // copies the whole old chunk — even though an empty buffer has
            // no live bytes. Swap in a fresh allocation instead; this is
            // the hot path when a recycled pool buffer must grow.
            self.buf = Vec::with_capacity(additional);
        } else {
            self.buf.reserve(additional);
        }
    }

    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Convert into an immutable refcounted handle. The storage moves; no
    /// bytes are copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut(len={}, cap={})", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_and_clone_share_storage() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"hello");
        let a = m.freeze();
        let b = a.clone();
        assert_eq!(&a[..], b"hello");
        assert_eq!(a, b);
        assert_eq!(a.slice(1..3), b"el"[..]);
    }

    #[test]
    fn try_into_mut_requires_unique_full_range() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        let a = a.try_into_mut().unwrap_err(); // b still alive
        drop(b);
        let part = a.slice(0..2);
        assert!(part.try_into_mut().is_err()); // not the full allocation
        let mut m = a.try_into_mut().unwrap();
        assert_eq!(m.capacity(), 3);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn order_is_lexicographic_over_the_view() {
        let a = Bytes::from(b"abcd".to_vec());
        assert!(a.slice(1..2) > a.slice(0..4), "b > abcd");
        assert!(a.slice(0..2) < a.slice(0..3), "shorter prefix is less");
        assert_eq!(a.slice(1..3).cmp(&Bytes::from(b"bc".to_vec())), std::cmp::Ordering::Equal);
    }

    #[test]
    fn overwrite_reuses_sole_storage_and_detaches_shared() {
        let mut a = Bytes::from(b"abcdefgh".to_vec()).slice(2..4);
        let at = a.as_ptr();
        a.overwrite(b"xyz");
        assert_eq!((&a[..], a.as_ptr()), (&b"xyz"[..], at.wrapping_sub(2)));
        let b = a.clone();
        a.overwrite(b"q");
        assert_eq!((&a[..], &b[..]), (&b"q"[..], &b"xyz"[..]));
        assert_ne!(a.as_ptr(), b.as_ptr(), "a shared handle detaches");
    }

    #[test]
    fn slice_of_slice_composes() {
        let a = Bytes::from((0u8..32).collect::<Vec<_>>());
        let s = a.slice(8..24).slice(4..8);
        assert_eq!(&s[..], &[12, 13, 14, 15]);
    }
}
