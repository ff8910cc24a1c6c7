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
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::error::{HmrError, Result};

// The kv-store's path module, compiled here as well: one implementation
// of the path type under both of its names. hmr-api does not depend on
// kvstore, because a new edge in a crate that `e2e/` imports would change
// the benchmark's frozen `e2e/Cargo.lock`.
#[path = "../../kvstore/src/path.rs"]
mod path;

/// A normalized absolute path: `/a/b/c`, components free of `/`. A clone
/// is a refcount, and a parent or ancestor is a view of the same buffer.
pub use path::{subtree, Descendants, KPath as HPath};

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
    /// Append a buffer the caller is done with. The default copies it; an
    /// in-memory writer with nothing written yet adopts it, so a file
    /// encoded whole into one `Vec` is stored without a copy.
    fn write_owned(&mut self, bytes: Vec<u8>) -> Result<()> {
        self.write_all(&bytes)
    }
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
/// the sorted `(path, version)` pairs, so every [`Namespace`] agrees on what
/// a directory's version means.
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
// Namespace: the one home of the namespace rules
// ---------------------------------------------------------------------------

/// HDFS's refusals for a new entry at `p` (a created file, or a rename's
/// destination), decided from `is_dir` (`None` for an absent path, else
/// whether it is a directory): `p` must be absent and have no file above it.
fn check_create(p: &HPath, is_dir: impl Fn(&HPath) -> Option<bool>) -> Result<()> {
    if is_dir(p).is_some() {
        return Err(HmrError::AlreadyExists(p.to_string()));
    }
    p.parent().map_or(Ok(()), |d| check_mkdirs(&d, is_dir))
}

/// HDFS's refusal for `mkdirs(p)`, decided from `is_dir` as in
/// [`check_rename`]: no file at or above `p`. The nearest existing path at
/// or above `p` decides, since the ancestors of a directory are
/// directories.
pub fn check_mkdirs(p: &HPath, is_dir: impl Fn(&HPath) -> Option<bool>) -> Result<()> {
    let mut at = Some(p.clone());
    while let Some(a) = at {
        match is_dir(&a) {
            Some(true) => return Ok(()),
            Some(false) => return Err(HmrError::Io(format!("{a} is a file"))),
            None => at = a.parent(),
        }
    }
    Ok(())
}

/// HDFS's refusals for `rename(src, dst)`, decided from `is_dir` (`None`
/// for an absent path, else whether it is a directory), in order: `src`
/// must exist, `dst` must not lie inside it (the root's case included),
/// `dst` must be absent, and no file may lie above `dst`. A filesystem that
/// merges two namespaces (the M3R caching wrapper) passes its merged view.
pub fn check_rename(src: &HPath, dst: &HPath, is_dir: impl Fn(&HPath) -> Option<bool>) -> Result<()> {
    if is_dir(src).is_none() {
        return Err(HmrError::NotFound(src.to_string()));
    }
    if dst.starts_with(src) {
        return Err(HmrError::Io(format!("cannot move {src} into itself")));
    }
    check_create(dst, is_dir)
}

/// One entry of a [`Namespace`]: a directory, or a file and what the
/// filesystem keeps of it.
enum Node<F> {
    Dir,
    File(F),
}

/// A path namespace with HDFS's rules: the one home of the `create`,
/// `mkdirs`, `delete`, `rename`, status, listing and content-version
/// semantics shared by [`MemFs`] (files are `Bytes`) and `simdfs` (files own
/// their blocks). The invariant: `/` is a directory that is never deleted,
/// and every other key's parent exists and is a directory. Publishing and
/// renaming create missing parents implicitly, as HDFS does.
pub struct Namespace<F> {
    nodes: BTreeMap<HPath, Node<F>>,
    block_size: u64,
    len_of: fn(&F) -> u64,
}

impl<F> Namespace<F> {
    /// A namespace holding only `/`. Statuses report `block_size`, and a
    /// file's length is `len_of` it.
    pub fn new(block_size: u64, len_of: fn(&F) -> u64) -> Self {
        let nodes = BTreeMap::from([(HPath::root(), Node::Dir)]);
        Namespace {
            nodes,
            block_size,
            len_of,
        }
    }

    fn is_dir(&self, p: &HPath) -> Option<bool> {
        self.nodes.get(p).map(|n| matches!(n, Node::Dir))
    }

    fn add_parents(&mut self, p: &HPath) {
        for a in p.parent().iter().flat_map(|d| d.ancestors_inclusive()) {
            self.nodes.entry(a).or_insert(Node::Dir);
        }
    }

    /// The file at `p`: what `open` reads.
    pub fn file(&self, p: &HPath) -> Result<&F> {
        match self.nodes.get(p) {
            Some(Node::File(f)) => Ok(f),
            Some(Node::Dir) => Err(HmrError::Io(format!("{p} is a directory"))),
            None => Err(HmrError::NotFound(p.to_string())),
        }
    }

    /// `create`'s check: `p` must be absent and have no file above it.
    pub fn check_create(&self, p: &HPath) -> Result<()> {
        check_create(p, |q| self.is_dir(q))
    }

    /// Make `file` visible at `p` (a writer's close), repeating the create
    /// check: of two writers that both passed it, the second is refused.
    pub fn publish(&mut self, p: &HPath, file: F) -> Result<()> {
        self.check_create(p)?;
        self.add_parents(p);
        self.nodes.insert(p.clone(), Node::File(file));
        Ok(())
    }

    /// Create `p` and its missing ancestors as directories.
    pub fn mkdirs(&mut self, p: &HPath) -> Result<()> {
        check_mkdirs(p, |q| self.is_dir(q))?;
        for a in p.ancestors_inclusive() {
            self.nodes.entry(a).or_insert(Node::Dir);
        }
        Ok(())
    }

    /// Remove `p` and everything beneath it. A non-empty directory needs
    /// `recursive`. `None` when nothing was removed (`p` absent, or the
    /// root, which is never deleted); else the removed files, so the caller
    /// can drop them after releasing its lock.
    pub fn delete(&mut self, p: &HPath, recursive: bool) -> Result<Option<Vec<F>>> {
        let Some(is_dir) = self.is_dir(p) else {
            return Ok(None);
        };
        if is_dir && !recursive && self.nodes.range(p.descendants()).next().is_some() {
            return Err(HmrError::Io(format!("{p} is a non-empty directory")));
        }
        if p.is_root() {
            return Ok(None);
        }
        let doomed: Vec<HPath> = subtree(&self.nodes, p).map(|(q, _)| q.clone()).collect();
        let files = doomed.iter().filter_map(|q| match self.nodes.remove(q) {
            Some(Node::File(f)) => Some(f),
            _ => None,
        });
        Ok(Some(files.collect()))
    }

    /// Move `src`'s subtree to `dst` after [`check_rename`].
    pub fn rename(&mut self, src: &HPath, dst: &HPath) -> Result<()> {
        check_rename(src, dst, |q| self.is_dir(q))?;
        let moved: Vec<HPath> = subtree(&self.nodes, src).map(|(p, _)| p.clone()).collect();
        self.add_parents(dst);
        for from in moved {
            let node = self.nodes.remove(&from).expect("listed above");
            let to = dst.join(&from.as_str()[src.as_str().len()..]);
            self.nodes.insert(to, node);
        }
        Ok(())
    }

    fn status_of(&self, p: &HPath, node: &Node<F>) -> FileStatus {
        let (is_dir, len) = match node {
            Node::Dir => (true, 0),
            Node::File(f) => (false, (self.len_of)(f)),
        };
        FileStatus {
            path: p.clone(),
            is_dir,
            len,
            block_size: self.block_size,
        }
    }

    /// Stat `p`.
    pub fn status(&self, p: &HPath) -> Result<FileStatus> {
        let node = self.nodes.get(p).ok_or_else(|| HmrError::NotFound(p.to_string()))?;
        Ok(self.status_of(p, node))
    }

    /// A directory's children in path order, or a file's own status.
    pub fn list(&self, p: &HPath) -> Result<Vec<FileStatus>> {
        let status = self.status(p)?;
        if !status.is_dir {
            return Ok(vec![status]);
        }
        let children = self.nodes.range(p.descendants());
        let children = children.filter(|(q, _)| q.parent().as_ref() == Some(p));
        Ok(children.map(|(q, n)| self.status_of(q, n)).collect())
    }

    /// The files `p`'s content version covers, each taken through `take`:
    /// `p` itself when it is a file, else every file beneath the directory.
    /// `None` when `p` is absent. A filesystem that hashes lazily takes
    /// handles here, under its lock, and hashes after releasing it.
    pub fn version_inputs<T>(&self, p: &HPath, mut take: impl FnMut(&F) -> T) -> Option<Vec<(&HPath, T)>> {
        self.nodes.get(p)?;
        let files = subtree(&self.nodes, p).filter_map(|(q, n)| match n {
            Node::File(f) => Some((q, take(f))),
            Node::Dir => None,
        });
        Some(files.collect())
    }

    /// `p`'s content version (see [`FileSystem::content_version`]), its
    /// files' versions computed by `version` under the caller's lock.
    pub fn content_version(&self, p: &HPath, version: impl FnMut(&F) -> u64) -> Option<u64> {
        Some(content_version_of(p, &self.version_inputs(p, version)?))
    }
}

/// `p`'s content version from the versions of its
/// [`Namespace::version_inputs`]: a file's own version, or
/// [`combine_dir_version`] over every file beneath a directory.
pub fn content_version_of(p: &HPath, files: &[(&HPath, u64)]) -> u64 {
    match files {
        [(q, v)] if *q == p => *v,
        _ => combine_dir_version(files),
    }
}

// ---------------------------------------------------------------------------
// MemFs: the process-local filesystem
// ---------------------------------------------------------------------------

type MemNamespace = Arc<RwLock<Namespace<Bytes>>>;

// The writer buffers locally and publishes atomically on close, matching
// HDFS visibility semantics.
struct BufWriter {
    target: HPath,
    buf: Vec<u8>,
    ns: MemNamespace,
}

impl FsWriter for BufWriter {
    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
    fn write_owned(&mut self, bytes: Vec<u8>) -> Result<()> {
        adopt_or_append(&mut self.buf, bytes);
        Ok(())
    }
    fn close(self: Box<Self>) -> Result<u64> {
        let len = self.buf.len() as u64;
        self.ns.write().publish(&self.target, freeze(self.buf))?;
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

/// A simple in-memory filesystem with HDFS-like semantics (a [`Namespace`]
/// of `Bytes`: atomic rename, recursive delete, implicit parent creation,
/// close-to-publish visibility). It charges no simulated cost: it stands in
/// for the *local* filesystem that M3R can run against just as well as
/// HDFS (§1).
///
/// The namespace lives in an `Arc` so writers can publish after the borrow
/// of `&self` has ended.
pub struct MemFs {
    ns: MemNamespace,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// An empty filesystem containing only `/`.
    pub fn new() -> Self {
        let ns = Namespace::new(64 << 20, |b: &Bytes| b.len() as u64);
        MemFs {
            ns: Arc::new(RwLock::new(ns)),
        }
    }

    /// Shared handle convenience.
    pub fn shared() -> Arc<Self> {
        Arc::new(MemFs::new())
    }
}

impl FileSystem for MemFs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        self.ns.read().check_create(path)?;
        Ok(Box::new(BufWriter {
            target: path.clone(),
            buf: Vec::new(),
            ns: Arc::clone(&self.ns),
        }))
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        let data = self.ns.read().file(path)?.clone();
        Ok(Box::new(BufReader { data }))
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        let gone = self.ns.write().delete(path, recursive)?;
        Ok(gone.is_some())
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.ns.write().rename(src, dst)
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        self.ns.write().mkdirs(path)
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        self.ns.read().status(path)
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        self.ns.read().list(path)
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        self.ns.read().content_version(path, |d| crate::comparator::fnv1a(d))
    }
}

/// The body of an in-memory [`FsWriter::write_owned`]: an empty `buf`
/// becomes `bytes` itself (its allocation is what the file will store);
/// otherwise `bytes` is appended.
pub fn adopt_or_append(buf: &mut Vec<u8>, bytes: Vec<u8>) {
    if buf.is_empty() {
        *buf = bytes;
    } else {
        buf.extend_from_slice(&bytes);
    }
}

/// Freeze an in-memory writer's buffer into the bytes its file stores.
/// Capacity the writer grew beyond the file's length is handed back to the
/// allocator first (it shrinks the block; nothing here copies), so a stored
/// file keeps its length in memory, not its writer's slack.
pub fn freeze(mut buf: Vec<u8>) -> Bytes {
    buf.shrink_to_fit();
    Bytes::from(buf)
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
            fn written_files_read_back(p in path_strategy(), data in proptest::collection::vec(any::<u8>(), 0..128)) {
                let fs = MemFs::new();
                write_file(&fs, &p, &data).unwrap();
                prop_assert_eq!(read_file(&fs, &p).unwrap(), data);
            }
        }
    }
}
