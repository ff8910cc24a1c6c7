//! The filesystem abstraction (Hadoop's `org.apache.hadoop.fs.FileSystem`).
//!
//! M3R "is essentially agnostic to the file system, so it can run HMR jobs
//! that use the local file system or HDFS" (§1). Both are provided:
//! [`MemFs`] is a process-local in-memory filesystem (standing in for the
//! local FS), and the `simdfs` crate implements this same trait as a
//! simulated HDFS with namenode metadata, block placement, replication, and
//! I/O cost charging. M3R wraps any `FileSystem` in its caching layer and
//! exposes the `CacheFS` extension (see `extensions`).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::{HmrError, Result};

/// A normalized absolute path: `/a/b/c`, components free of `/`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HPath(String);

impl HPath {
    /// Normalize `s` into an absolute path. Empty input becomes `/`.
    pub fn new(s: impl AsRef<str>) -> Self {
        let mut out = String::from("/");
        for comp in s.as_ref().split('/').filter(|c| !c.is_empty() && *c != ".") {
            if !out.ends_with('/') {
                out.push('/');
            }
            out.push_str(comp);
        }
        HPath(out)
    }

    /// The root path `/`.
    pub fn root() -> Self {
        HPath("/".to_string())
    }

    /// The normalized string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for `/`.
    pub fn is_root(&self) -> bool {
        self.0 == "/"
    }

    /// Parent directory; `None` for the root.
    pub fn parent(&self) -> Option<HPath> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(HPath::root()),
            Some(i) => Some(HPath(self.0[..i].to_string())),
            None => None,
        }
    }

    /// Final component; `None` for the root.
    pub fn name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.0.rfind('/').map(|i| &self.0[i + 1..])
        }
    }

    /// Append a child component.
    pub fn join(&self, child: &str) -> HPath {
        HPath::new(format!("{}/{}", self.0, child))
    }

    /// True when `self` equals `ancestor` or lies beneath it.
    pub fn starts_with(&self, ancestor: &HPath) -> bool {
        if ancestor.is_root() {
            return true;
        }
        self.0 == ancestor.0
            || (self.0.starts_with(&ancestor.0)
                && self.0.as_bytes().get(ancestor.0.len()) == Some(&b'/'))
    }

    /// The key range of everything strictly beneath `self` in a map ordered
    /// by path: [`self/`, `self0`). `0` is the byte after `/`, so the range
    /// holds exactly the keys that continue `self` with a `/` and no
    /// sibling such as `self.bak` or `self-2`, which sort between `self`
    /// and `self/`. Beneath the root lies every key but the root.
    pub fn descendants(&self) -> (Bound<HPath>, Bound<HPath>) {
        if self.is_root() {
            return (Bound::Excluded(HPath::root()), Bound::Unbounded);
        }
        (
            Bound::Included(HPath(format!("{}/", self.0))),
            Bound::Excluded(HPath(format!("{}0", self.0))),
        )
    }

    /// Path components, root-first.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// Every ancestor including the root and `self`, shortest first.
    pub fn ancestors_inclusive(&self) -> Vec<HPath> {
        let mut out = vec![HPath::root()];
        let mut cur = String::new();
        for c in self.components() {
            cur.push('/');
            cur.push_str(c);
            out.push(HPath(cur.clone()));
        }
        out
    }
}

impl std::fmt::Display for HPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Every entry of `map` at or beneath `p`, in path order: `p` itself, then
/// the range of [`HPath::descendants`]. The one subtree query of every
/// path-keyed namespace ([`MemFs`], `simdfs`, the M3R cache governor): it
/// visits only the subtree, never a sibling and never the rest of the map.
pub fn subtree<'m, V>(
    map: &'m BTreeMap<HPath, V>,
    p: &HPath,
) -> impl Iterator<Item = (&'m HPath, &'m V)> {
    map.get_key_value(p)
        .into_iter()
        .chain(map.range(p.descendants()))
}

/// Metadata for one file or directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileStatus {
    /// The described path.
    pub path: HPath,
    /// True for directories.
    pub is_dir: bool,
    /// File length in bytes (0 for directories).
    pub len: u64,
    /// Block size used to lay the file out (informational).
    pub block_size: u64,
}

/// Streaming writer returned by [`FileSystem::create`].
pub trait FsWriter: Send {
    /// Append bytes to the file.
    fn write_all(&mut self, bytes: &[u8]) -> Result<()>;
    /// Finish the file, making it visible; returns its final length.
    fn close(self: Box<Self>) -> Result<u64>;
}

/// Reader returned by [`FileSystem::open`].
pub trait FsReader: Send {
    /// Total file length.
    fn len(&self) -> u64;
    /// True for an empty file.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Read `len` bytes starting at `offset` (clamped to EOF). Returns a
    /// refcounted handle; filesystems that hold file contents in memory
    /// return a zero-copy slice of the stored buffer where possible.
    fn read_range(&mut self, offset: u64, len: u64) -> Result<Bytes>;
    /// Read the entire file.
    fn read_all(&mut self) -> Result<Bytes> {
        let n = self.len();
        self.read_range(0, n)
    }
}

/// The Hadoop filesystem contract. All paths are absolute [`HPath`]s.
pub trait FileSystem: Send + Sync {
    /// Create a file (failing if it exists), returning a streaming writer.
    /// Parent directories are created implicitly, as in HDFS.
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>>;

    /// Open a file for reading.
    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>>;

    /// Delete a path. Directories require `recursive`. Returns whether
    /// anything was removed.
    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool>;

    /// Atomically rename a file or directory subtree.
    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()>;

    /// Create a directory and its ancestors.
    fn mkdirs(&self, path: &HPath) -> Result<()>;

    /// Stat a path.
    fn get_file_status(&self, path: &HPath) -> Result<FileStatus>;

    /// List the children of a directory (or the status of a file).
    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>>;

    /// Existence check.
    fn exists(&self, path: &HPath) -> bool {
        self.get_file_status(path).is_ok()
    }

    /// For each block of `[offset, offset+len)`, the nodes holding a
    /// replica. Non-distributed filesystems return an empty vector.
    fn block_locations(&self, _path: &HPath, _offset: u64, _len: u64) -> Result<Vec<Vec<usize>>> {
        Ok(Vec::new())
    }

    /// A *content version* for `path`: a value that is equal whenever the
    /// content is byte-identical and (with overwhelming probability)
    /// differs whenever it is not. For a file this is a hash of its bytes;
    /// for a directory, a combined hash over the subtree's `(path, file
    /// version)` pairs, so adding, removing, renaming or rewriting any
    /// file under it changes the directory's version. Re-writing identical
    /// bytes keeps the version — deliberate, so deterministic iterative
    /// drivers that regenerate an operand file byte-for-byte still
    /// fingerprint equal across submissions (`m3r-memo`, ISSUE 10).
    ///
    /// `None` (the default) means the filesystem does not version content;
    /// memoization treats any `None` input as unfingerprintable and
    /// declines to record or replay. Charges nothing: version reads are
    /// metadata, shared with the namenode-roundtrip cost already paid by
    /// the stat calls around them.
    fn content_version(&self, _path: &HPath) -> Option<u64> {
        None
    }
}

/// Combine per-file content versions into a directory version: a hash over
/// the sorted `(path, version)` pairs. Shared by [`MemFs`] and `simdfs` so
/// both filesystems agree on what a directory's version means.
pub fn combine_dir_version(entries: &[(&HPath, u64)]) -> u64 {
    let mut buf = Vec::with_capacity(entries.len() * 24);
    for (p, v) in entries {
        buf.extend_from_slice(p.as_str().as_bytes());
        buf.push(0);
        buf.extend_from_slice(&v.to_le_bytes());
    }
    crate::comparator::fnv1a(&buf)
}

// ---------------------------------------------------------------------------
// MemFs: the process-local filesystem
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum MemNode {
    File(Bytes),
    Dir,
}

// The writer buffers locally and publishes atomically on close, matching
// HDFS visibility semantics.
struct BufWriter {
    target: HPath,
    buf: Vec<u8>,
    fs: Arc<MemFsInner>,
}

struct MemFsInner {
    nodes: RwLock<BTreeMap<HPath, MemNode>>,
}

impl FsWriter for BufWriter {
    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
    fn close(self: Box<Self>) -> Result<u64> {
        let len = self.buf.len() as u64;
        let mut nodes = self.fs.nodes.write();
        for anc in self.target.parent().iter().flat_map(|p| p.ancestors_inclusive()) {
            nodes.entry(anc).or_insert(MemNode::Dir);
        }
        nodes.insert(self.target, MemNode::File(Bytes::from(self.buf)));
        Ok(len)
    }
}

struct BufReader {
    data: Bytes,
}

impl FsReader for BufReader {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
    fn read_range(&mut self, offset: u64, len: u64) -> Result<Bytes> {
        let start = (offset as usize).min(self.data.len());
        let end = (offset.saturating_add(len) as usize).min(self.data.len());
        // Zero-copy: the returned handle shares the stored buffer.
        Ok(self.data.slice(start..end))
    }
}

/// A simple in-memory filesystem with HDFS-like semantics (atomic rename,
/// recursive delete, implicit parent creation, close-to-publish visibility).
/// It charges no simulated cost: it stands in for the *local* filesystem
/// that M3R can run against just as well as HDFS (§1).
///
/// State lives in an `Arc` so writers can publish after the borrow of
/// `&self` has ended.
pub struct MemFs {
    inner: Arc<MemFsInner>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// An empty filesystem containing only `/`.
    pub fn new() -> Self {
        let inner = Arc::new(MemFsInner {
            nodes: RwLock::new(BTreeMap::new()),
        });
        inner.nodes.write().insert(HPath::root(), MemNode::Dir);
        MemFs { inner }
    }

    /// Shared handle convenience.
    pub fn shared() -> Arc<Self> {
        Arc::new(MemFs::new())
    }
}

impl FileSystem for MemFs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        let nodes = self.inner.nodes.read();
        if nodes.contains_key(path) {
            return Err(HmrError::AlreadyExists(path.to_string()));
        }
        drop(nodes);
        Ok(Box::new(BufWriter {
            target: path.clone(),
            buf: Vec::new(),
            fs: Arc::clone(&self.inner),
        }))
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        let nodes = self.inner.nodes.read();
        match nodes.get(path) {
            Some(MemNode::File(data)) => Ok(Box::new(BufReader {
                data: data.clone(),
            })),
            Some(MemNode::Dir) => Err(HmrError::Io(format!("{path} is a directory"))),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        let mut nodes = self.inner.nodes.write();
        match nodes.get(path) {
            None => Ok(false),
            Some(MemNode::File(_)) => {
                nodes.remove(path);
                Ok(true)
            }
            Some(MemNode::Dir) => {
                let children: Vec<HPath> =
                    subtree(&nodes, path).map(|(p, _)| p.clone()).collect();
                if children.len() > 1 && !recursive {
                    return Err(HmrError::Io(format!("{path} is a non-empty directory")));
                }
                for c in children {
                    nodes.remove(&c);
                }
                Ok(true)
            }
        }
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        if !nodes.contains_key(src) {
            return Err(HmrError::NotFound(src.to_string()));
        }
        if nodes.contains_key(dst) {
            return Err(HmrError::AlreadyExists(dst.to_string()));
        }
        let moved: Vec<(HPath, HPath)> = subtree(&nodes, src)
            .map(|(p, _)| {
                let suffix = &p.as_str()[src.as_str().len()..];
                (p.clone(), HPath::new(format!("{}{}", dst.as_str(), suffix)))
            })
            .collect();
        for (from, to) in moved {
            let node = nodes.remove(&from).expect("listed above");
            nodes.insert(to, node);
        }
        for anc in dst.parent().iter().flat_map(|p| p.ancestors_inclusive()) {
            nodes.entry(anc).or_insert(MemNode::Dir);
        }
        Ok(())
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        let mut nodes = self.inner.nodes.write();
        for anc in path.ancestors_inclusive() {
            match nodes.get(&anc) {
                Some(MemNode::File(_)) => {
                    return Err(HmrError::Io(format!("{anc} is a file")));
                }
                Some(MemNode::Dir) => {}
                None => {
                    nodes.insert(anc, MemNode::Dir);
                }
            }
        }
        Ok(())
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        let nodes = self.inner.nodes.read();
        match nodes.get(path) {
            Some(MemNode::File(d)) => Ok(FileStatus {
                path: path.clone(),
                is_dir: false,
                len: d.len() as u64,
                block_size: 64 << 20,
            }),
            Some(MemNode::Dir) => Ok(FileStatus {
                path: path.clone(),
                is_dir: true,
                len: 0,
                block_size: 64 << 20,
            }),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        let status = self.get_file_status(path)?;
        if !status.is_dir {
            return Ok(vec![status]);
        }
        let nodes = self.inner.nodes.read();
        let mut out = Vec::new();
        for (p, node) in nodes.range(path.descendants()) {
            if p.parent().as_ref() == Some(path) {
                out.push(match node {
                    MemNode::File(d) => FileStatus {
                        path: p.clone(),
                        is_dir: false,
                        len: d.len() as u64,
                        block_size: 64 << 20,
                    },
                    MemNode::Dir => FileStatus {
                        path: p.clone(),
                        is_dir: true,
                        len: 0,
                        block_size: 64 << 20,
                    },
                });
            }
        }
        Ok(out)
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        let nodes = self.inner.nodes.read();
        match nodes.get(path)? {
            MemNode::File(d) => Some(crate::comparator::fnv1a(d)),
            MemNode::Dir => {
                let entries: Vec<(&HPath, u64)> = subtree(&nodes, path)
                    .filter_map(|(p, n)| match n {
                        MemNode::File(d) => Some((p, crate::comparator::fnv1a(d))),
                        MemNode::Dir => None,
                    })
                    .collect();
                Some(combine_dir_version(&entries))
            }
        }
    }
}

/// Write an entire file in one call.
pub fn write_file(fs: &dyn FileSystem, path: &HPath, bytes: &[u8]) -> Result<()> {
    let mut w = fs.create(path)?;
    w.write_all(bytes)?;
    w.close()?;
    Ok(())
}

/// Read an entire file in one call.
pub fn read_file(fs: &dyn FileSystem, path: &HPath) -> Result<Bytes> {
    fs.open(path)?.read_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_version_hashes_content_not_writes() {
        let fs = MemFs::new();
        let p = HPath::new("/in/a.txt");
        write_file(&fs, &p, b"hello").unwrap();
        let v1 = fs.content_version(&p).unwrap();
        // Rewriting identical bytes (delete + create, the way drivers
        // resubmit — `create` refuses overwrite) keeps the version.
        fs.delete(&p, false).unwrap();
        write_file(&fs, &p, b"hello").unwrap();
        assert_eq!(fs.content_version(&p), Some(v1));
        // Different bytes change it.
        fs.delete(&p, false).unwrap();
        write_file(&fs, &p, b"world").unwrap();
        assert_ne!(fs.content_version(&p), Some(v1));
        // Directory version reacts to any file under it.
        let dir = HPath::new("/in");
        let dv1 = fs.content_version(&dir).unwrap();
        write_file(&fs, &HPath::new("/in/b.txt"), b"x").unwrap();
        let dv2 = fs.content_version(&dir).unwrap();
        assert_ne!(dv1, dv2);
        // Missing path is unversioned.
        assert_eq!(fs.content_version(&HPath::new("/nope")), None);
    }

    #[test]
    fn hpath_normalizes() {
        assert_eq!(HPath::new("a/b").as_str(), "/a/b");
        assert_eq!(HPath::new("/a//b/").as_str(), "/a/b");
        assert_eq!(HPath::new("").as_str(), "/");
        assert_eq!(HPath::new("/a/./b").as_str(), "/a/b");
    }

    #[test]
    fn hpath_parent_and_name() {
        let p = HPath::new("/a/b/c");
        assert_eq!(p.name(), Some("c"));
        assert_eq!(p.parent(), Some(HPath::new("/a/b")));
        assert_eq!(HPath::new("/a").parent(), Some(HPath::root()));
        assert_eq!(HPath::root().parent(), None);
        assert_eq!(HPath::root().name(), None);
    }

    #[test]
    fn hpath_starts_with_is_component_wise() {
        assert!(HPath::new("/a/b/c").starts_with(&HPath::new("/a/b")));
        assert!(HPath::new("/a/b").starts_with(&HPath::new("/a/b")));
        assert!(!HPath::new("/a/bc").starts_with(&HPath::new("/a/b")));
        assert!(HPath::new("/x").starts_with(&HPath::root()));
    }

    #[test]
    fn hpath_ancestors() {
        let p = HPath::new("/a/b");
        assert_eq!(
            p.ancestors_inclusive(),
            vec![HPath::root(), HPath::new("/a"), HPath::new("/a/b")]
        );
    }

    #[test]
    fn memfs_create_read_roundtrip() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/d/f"), b"hello").unwrap();
        assert_eq!(read_file(&fs, &HPath::new("/d/f")).unwrap(), b"hello");
        // Parent directory implicitly created.
        assert!(fs.get_file_status(&HPath::new("/d")).unwrap().is_dir);
    }

    #[test]
    fn memfs_create_refuses_overwrite() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/f"), b"1").unwrap();
        assert!(matches!(
            fs.create(&HPath::new("/f")),
            Err(HmrError::AlreadyExists(_))
        ));
    }

    #[test]
    fn memfs_uncommitted_writes_are_invisible() {
        let fs = MemFs::new();
        let mut w = fs.create(&HPath::new("/f")).unwrap();
        w.write_all(b"partial").unwrap();
        assert!(!fs.exists(&HPath::new("/f")), "visible only after close");
        w.close().unwrap();
        assert!(fs.exists(&HPath::new("/f")));
    }

    #[test]
    fn memfs_read_range_clamps() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/f"), b"0123456789").unwrap();
        let mut r = fs.open(&HPath::new("/f")).unwrap();
        assert_eq!(r.read_range(3, 4).unwrap(), b"3456");
        assert_eq!(r.read_range(8, 100).unwrap(), b"89");
        assert_eq!(r.read_range(50, 10).unwrap(), b"");
    }

    #[test]
    fn memfs_delete_semantics() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/d/a"), b"x").unwrap();
        write_file(&fs, &HPath::new("/d/b"), b"y").unwrap();
        // Non-recursive delete of a non-empty dir fails.
        assert!(fs.delete(&HPath::new("/d"), false).is_err());
        assert!(fs.delete(&HPath::new("/d"), true).unwrap());
        assert!(!fs.exists(&HPath::new("/d/a")));
        assert!(!fs.delete(&HPath::new("/d"), true).unwrap(), "already gone");
    }

    #[test]
    fn memfs_rename_moves_subtrees() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/src/x/1"), b"1").unwrap();
        write_file(&fs, &HPath::new("/src/2"), b"2").unwrap();
        fs.rename(&HPath::new("/src"), &HPath::new("/dst")).unwrap();
        assert_eq!(read_file(&fs, &HPath::new("/dst/x/1")).unwrap(), b"1");
        assert_eq!(read_file(&fs, &HPath::new("/dst/2")).unwrap(), b"2");
        assert!(!fs.exists(&HPath::new("/src")));
    }

    #[test]
    fn memfs_rename_refuses_existing_destination() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/a"), b"").unwrap();
        write_file(&fs, &HPath::new("/b"), b"").unwrap();
        assert!(fs.rename(&HPath::new("/a"), &HPath::new("/b")).is_err());
    }

    #[test]
    fn memfs_list_status_direct_children_only() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/d/a"), b"x").unwrap();
        write_file(&fs, &HPath::new("/d/sub/b"), b"y").unwrap();
        let names: Vec<String> = fs
            .list_status(&HPath::new("/d"))
            .unwrap()
            .iter()
            .map(|s| s.path.to_string())
            .collect();
        assert_eq!(names, vec!["/d/a".to_string(), "/d/sub".to_string()]);
    }

    #[test]
    fn memfs_mkdirs_conflicts_with_file() {
        let fs = MemFs::new();
        write_file(&fs, &HPath::new("/a"), b"x").unwrap();
        assert!(fs.mkdirs(&HPath::new("/a/b")).is_err());
    }

    #[cfg(test)]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn path_strategy() -> impl Strategy<Value = HPath> {
            proptest::collection::vec("[a-z]{1,4}", 1..4)
                .prop_map(|cs| HPath::new(cs.join("/")))
        }

        proptest! {
            #[test]
            fn normalization_is_idempotent(s in "[a-z/]{0,20}") {
                let p = HPath::new(&s);
                prop_assert_eq!(HPath::new(p.as_str()), p);
            }

            #[test]
            fn parent_of_join_is_self(p in path_strategy(), c in "[a-z]{1,4}") {
                prop_assert_eq!(p.join(&c).parent(), Some(p));
            }

            #[test]
            fn written_files_read_back(p in path_strategy(), data in proptest::collection::vec(any::<u8>(), 0..128)) {
                let fs = MemFs::new();
                write_file(&fs, &p, &data).unwrap();
                prop_assert_eq!(read_file(&fs, &p).unwrap(), data);
            }
        }
    }
}
