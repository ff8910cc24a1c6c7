//! Abstract hierarchical paths and least-common-ancestor computation.
//!
//! The store is independent of Hadoop (the paper's store takes
//! `java.io.File` values — abstract paths); `KPath` is the same idea with
//! normalized `/a/b/c` strings. This file is the workspace's one path
//! implementation: `hmr-api` compiles it too, as `hmr_api::fs::HPath`, so
//! neither crate depends on the other and both names behave identically.
//! It names nothing outside `std`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// A normalized absolute path: `/a/b/c`, components free of `/`.
///
/// A shared string and the length of its visible prefix. A clone is a
/// refcount, and [`KPath::parent`], [`KPath::ancestors_inclusive`] and
/// [`KPath::lca`] return views of the same buffer, so a stored view pins
/// at most the one path-length buffer it was cut from. Equality, order and
/// hash are those of the visible `str` ([`KPath::as_str`]): a view is
/// indistinguishable from a path built fresh from its text, order is
/// byte-lexicographic (which [`subtree`]'s key range relies on), and a
/// `KPath`-keyed map can be queried by `&str`.
#[derive(Clone)]
pub struct KPath {
    buf: Arc<str>,
    len: usize,
}

impl KPath {
    /// Normalize into an absolute path: empty and `.` components are
    /// dropped, and empty input becomes `/`. An input that is already
    /// normalized costs one allocation.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        let normal = s == "/"
            || (s.starts_with('/') && s[1..].split('/').all(|c| !c.is_empty() && c != "."));
        if normal {
            return KPath::whole(Arc::from(s));
        }
        KPath::joined("/", s)
    }

    /// `prefix` (a normalized path) followed by `rest`'s non-empty, non-`.`
    /// components: one string, then the shared buffer.
    fn joined(prefix: &str, rest: &str) -> Self {
        let mut out = String::with_capacity(prefix.len() + 1 + rest.len());
        out.push_str(prefix);
        for comp in rest.split('/').filter(|c| !c.is_empty() && *c != ".") {
            if !out.ends_with('/') {
                out.push('/');
            }
            out.push_str(comp);
        }
        KPath::whole(Arc::from(out))
    }

    fn whole(buf: Arc<str>) -> Self {
        let len = buf.len();
        KPath { buf, len }
    }

    /// The view of the first `len` bytes of this path's buffer.
    fn view(&self, len: usize) -> Self {
        KPath {
            buf: Arc::clone(&self.buf),
            len,
        }
    }

    /// The root `/`.
    pub fn root() -> Self {
        KPath::whole(Arc::from("/"))
    }

    /// String form.
    pub fn as_str(&self) -> &str {
        &self.buf[..self.len]
    }

    /// True for `/`.
    pub fn is_root(&self) -> bool {
        self.len == 1
    }

    /// Parent path; `None` at the root.
    pub fn parent(&self) -> Option<KPath> {
        if self.is_root() {
            return None;
        }
        self.as_str().rfind('/').map(|i| self.view(i.max(1)))
    }

    /// Final component; `None` at the root.
    pub fn name(&self) -> Option<&str> {
        if self.is_root() {
            return None;
        }
        self.as_str().rfind('/').map(|i| &self.as_str()[i + 1..])
    }

    /// Append `child`, normalized as [`KPath::new`] would: it may hold
    /// several components, and empty and `.` ones are dropped.
    pub fn join(&self, child: &str) -> KPath {
        KPath::joined(self.as_str(), child)
    }

    /// Component iterator.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.as_str().split('/').filter(|c| !c.is_empty())
    }

    /// True when `self` is `ancestor` or lies beneath it.
    pub fn starts_with(&self, ancestor: &KPath) -> bool {
        let (s, a) = (self.as_str(), ancestor.as_str());
        ancestor.is_root()
            || s == a
            || (s.starts_with(a) && s.as_bytes().get(a.len()) == Some(&b'/'))
    }

    /// The key range of everything strictly beneath `self` in a map ordered
    /// by path: [`self/`, `self0`). `0` is the byte after `/`, so the range
    /// holds exactly the keys that continue `self` with a `/` and no
    /// sibling such as `self.bak` or `self-2`, which sort between `self`
    /// and `self/`. Beneath the root lies every key but the root. Its
    /// bounds are `str`s, so the query builds no path.
    pub fn descendants(&self) -> Descendants {
        let mut bounds = String::new();
        if !self.is_root() {
            bounds.reserve(2 * self.len + 2);
            bounds.push_str(self.as_str());
            bounds.push('/');
            bounds.push_str(self.as_str());
            bounds.push('0');
        }
        Descendants(bounds)
    }

    /// All ancestors from the root down to `self` inclusive, each a view of
    /// `self`'s buffer: only the `Vec` allocates.
    pub fn ancestors_inclusive(&self) -> Vec<KPath> {
        let s = self.as_str();
        let mut out = Vec::with_capacity(s.bytes().filter(|&b| b == b'/').count() + 1);
        out.push(self.view(1));
        out.extend(s.match_indices('/').skip(1).map(|(i, _)| self.view(i)));
        if !self.is_root() {
            out.push(self.clone());
        }
        out
    }

    /// Least common ancestor of two paths — the pivot of the store's
    /// deadlock-free locking protocol. A view of `self`'s buffer.
    pub fn lca(&self, other: &KPath) -> KPath {
        let mut len = 1;
        let mut at = 0;
        for (a, b) in self.components().zip(other.components()) {
            if a != b {
                break;
            }
            at += 1 + a.len();
            len = at;
        }
        self.view(len)
    }
}

impl PartialEq for KPath {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for KPath {}

impl PartialOrd for KPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KPath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for KPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl Borrow<str> for KPath {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for KPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for KPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("KPath").field(&self.as_str()).finish()
    }
}

/// The key range of [`KPath::descendants`]: `p/` and `p0` side by side in
/// one string (empty for the root's range).
pub struct Descendants(String);

impl RangeBounds<str> for Descendants {
    fn start_bound(&self) -> Bound<&str> {
        match self.0.len() / 2 {
            0 => Bound::Excluded("/"),
            half => Bound::Included(&self.0[..half]),
        }
    }

    fn end_bound(&self) -> Bound<&str> {
        match self.0.len() / 2 {
            0 => Bound::Unbounded,
            half => Bound::Excluded(&self.0[half..]),
        }
    }
}

/// Every entry of `map` at or beneath `p`, in path order: `p` itself, then
/// the range of [`KPath::descendants`]. The one subtree query of every
/// path-keyed map (the filesystems' `Namespace`, the store's metadata
/// shards, the M3R cache governor): it visits only the subtree, never a
/// sibling and never the rest of the map.
pub fn subtree<'m, V>(
    map: &'m BTreeMap<KPath, V>,
    p: &KPath,
) -> impl Iterator<Item = (&'m KPath, &'m V)> {
    map.get_key_value(p)
        .into_iter()
        .chain(map.range::<str, _>(p.descendants()))
}
