//! The store proper: sharded metadata/data tables and the Fig 5 operations.
//!
//! Concurrency design (after §5.2): every place owns one metadata table
//! (ordered by path, so a subtree is a key range) and one data hash table,
//! protected by short critical sections. Multi-entry operations
//! additionally acquire path locks from [`LockManager`] under the
//! LCA-first discipline: mutating operations lock the ancestor chain of
//! their argument paths (so structural changes to overlapping subtrees
//! serialize on their common ancestor), while block reads — the cache-hit
//! hot path — lock only the path they touch and therefore run fully in
//! parallel across places.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::locks::LockManager;
use crate::path::{self, KPath};

/// Opaque typed block payload. The M3R cache stores typed key/value
/// sequences here and downcasts on read.
pub type BlockData = Arc<dyn Any + Send + Sync>;

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Path does not exist.
    NotFound(KPath),
    /// Path already exists (create/rename target).
    AlreadyExists(KPath),
    /// Expected a file, found a directory.
    IsADir(KPath),
    /// Expected a directory, found a file.
    IsAFile(KPath),
    /// The file exists but holds no block with the requested metadata.
    NoSuchBlock(KPath),
    /// A rename's destination lies inside its source.
    IntoItself(KPath),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::NotFound(p) => write!(f, "not found: {p}"),
            KvError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            KvError::IsADir(p) => write!(f, "is a directory: {p}"),
            KvError::IsAFile(p) => write!(f, "is a file: {p}"),
            KvError::NoSuchBlock(p) => write!(f, "no block with that metadata in {p}"),
            KvError::IntoItself(p) => write!(f, "cannot move {p} into itself"),
        }
    }
}

impl std::error::Error for KvError {}

/// Whether a path is a file or a directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// Holds blocks.
    File,
    /// Holds children.
    Dir,
}

/// Metadata of one block: identified by `info` (the generic metadata, `Eq`),
/// located at `place`, with an accounting `weight` (bytes or records).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockMeta<M> {
    /// The caller-supplied block metadata (identity).
    pub info: M,
    /// The place whose data table holds the block.
    pub place: usize,
    /// Accounting weight (bytes or records) for cache sizing.
    pub weight: u64,
    /// Internal data-table key.
    pub(crate) id: u64,
}

/// `getInfo` result: the kind and (for files) the block list.
#[derive(Clone, Debug)]
pub struct PathInfo<M> {
    /// The described path.
    pub path: KPath,
    /// File or directory.
    pub kind: PathKind,
    /// Blocks, in creation order (empty for directories).
    pub blocks: Vec<BlockMeta<M>>,
}

enum MetaEntry<M> {
    File(Vec<BlockMeta<M>>),
    Dir,
}

/// One place's metadata table, ordered by path so a subtree is one key
/// range ([`path::subtree`]).
type MetaShard<M> = Mutex<BTreeMap<KPath, MetaEntry<M>>>;

struct Shard<M> {
    meta: MetaShard<M>,
    data: Mutex<HashMap<u64, BlockData>>,
}

/// The distributed in-memory key/value store. `Clone` is shallow.
pub struct KvStore<M> {
    inner: Arc<StoreInner<M>>,
}

impl<M> Clone for KvStore<M> {
    fn clone(&self) -> Self {
        KvStore {
            inner: Arc::clone(&self.inner),
        }
    }
}

struct StoreInner<M> {
    shards: Vec<Shard<M>>,
    locks: LockManager,
    next_id: AtomicU64,
}

impl<M: Clone + Eq + Send + Sync + 'static> KvStore<M> {
    /// A store sharded over `places` places (one shard pair per place),
    /// holding only the root directory.
    pub fn new(places: usize) -> Self {
        assert!(places >= 1, "a store needs at least one place");
        let store = KvStore {
            inner: Arc::new(StoreInner {
                shards: (0..places)
                    .map(|_| Shard {
                        meta: Mutex::new(BTreeMap::new()),
                        data: Mutex::new(HashMap::new()),
                    })
                    .collect(),
                locks: LockManager::new(),
                next_id: AtomicU64::new(1),
            }),
        };
        let root = KPath::root();
        store.meta_shard(&root).lock().insert(root, MetaEntry::Dir);
        store
    }

    /// Number of places (shards).
    pub fn num_places(&self) -> usize {
        self.inner.shards.len()
    }

    /// "A path is hashed to determine where the metadata associated with
    /// that path is located."
    pub fn meta_place(&self, path: &KPath) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        path.hash(&mut h);
        (h.finish() % self.inner.shards.len() as u64) as usize
    }

    fn meta_shard(&self, path: &KPath) -> &MetaShard<M> {
        &self.inner.shards[self.meta_place(path)].meta
    }

    /// Paths whose metadata currently exists under `prefix` (inclusive):
    /// one key range per shard.
    fn subtree(&self, prefix: &KPath) -> Vec<KPath> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            let meta = shard.meta.lock();
            out.extend(path::subtree(&meta, prefix).map(|(p, _)| p.clone()));
        }
        out.sort();
        out
    }

    fn ensure_parents(&self, path: &KPath) -> Result<(), KvError> {
        if let Some(parent) = path.parent() {
            for anc in parent.ancestors_inclusive() {
                let mut meta = self.meta_shard(&anc).lock();
                match meta.get(&anc) {
                    Some(MetaEntry::File(_)) => return Err(KvError::IsAFile(anc.clone())),
                    Some(MetaEntry::Dir) => {}
                    None => {
                        meta.insert(anc.clone(), MetaEntry::Dir);
                    }
                }
            }
        }
        Ok(())
    }

    // -- Fig 5 operations ----------------------------------------------------

    /// `createWriter(path, info)` — returns a writer that will create the
    /// block *at the place where commit is invoked* and register it in the
    /// file's metadata (creating the file and parents if needed).
    pub fn create_writer(&self, place: usize, path: &KPath, info: M) -> BlockWriter<'_, M> {
        assert!(place < self.num_places(), "place out of range");
        BlockWriter {
            store: self,
            place,
            path: path.clone(),
            info,
        }
    }

    /// One-call convenience for `create_writer(...).commit(...)`.
    pub fn write_block(
        &self,
        place: usize,
        path: &KPath,
        info: M,
        data: BlockData,
        weight: u64,
    ) -> Result<(), KvError> {
        self.create_writer(place, path, info).commit(data, weight)
    }

    /// `createReader(path, info)` — fetch the block identified by `info`.
    /// Lock footprint: just `path` (cache hits stay parallel).
    pub fn create_reader(&self, path: &KPath, info: &M) -> Result<BlockData, KvError> {
        let _g = self.inner.locks.lock_set(vec![path.clone()]);
        let blocks = {
            let meta = self.meta_shard(path).lock();
            match meta.get(path) {
                Some(MetaEntry::File(blocks)) => blocks.clone(),
                Some(MetaEntry::Dir) => return Err(KvError::IsADir(path.clone())),
                None => return Err(KvError::NotFound(path.clone())),
            }
        };
        let block = blocks
            .iter()
            .find(|b| &b.info == info)
            .ok_or_else(|| KvError::NoSuchBlock(path.clone()))?;
        let data = self.inner.shards[block.place]
            .data
            .lock()
            .get(&block.id)
            .cloned()
            .ok_or_else(|| KvError::NoSuchBlock(path.clone()))?;
        Ok(data)
    }

    /// `getInfo(path)` — kind and block list.
    pub fn get_info(&self, path: &KPath) -> Result<PathInfo<M>, KvError> {
        let _g = self.inner.locks.lock_set(vec![path.clone()]);
        let meta = self.meta_shard(path).lock();
        match meta.get(path) {
            Some(MetaEntry::File(blocks)) => Ok(PathInfo {
                path: path.clone(),
                kind: PathKind::File,
                blocks: blocks.clone(),
            }),
            Some(MetaEntry::Dir) => Ok(PathInfo {
                path: path.clone(),
                kind: PathKind::Dir,
                blocks: Vec::new(),
            }),
            None => Err(KvError::NotFound(path.clone())),
        }
    }

    /// Existence check (no error).
    pub fn exists(&self, path: &KPath) -> bool {
        self.get_info(path).is_ok()
    }

    /// Direct children of a directory.
    pub fn list(&self, dir: &KPath) -> Result<Vec<KPath>, KvError> {
        let _g = self.inner.locks.lock_set(vec![dir.clone()]);
        {
            let meta = self.meta_shard(dir).lock();
            match meta.get(dir) {
                Some(MetaEntry::Dir) => {}
                Some(MetaEntry::File(_)) => return Err(KvError::IsAFile(dir.clone())),
                None => return Err(KvError::NotFound(dir.clone())),
            }
        }
        let mut kids = self.subtree(dir);
        kids.retain(|p| p.parent().as_ref() == Some(dir));
        Ok(kids)
    }

    /// `mkdirs(path)` — create a directory and its ancestors.
    pub fn mkdirs(&self, path: &KPath) -> Result<(), KvError> {
        let _g = self.inner.locks.lock_set(path.ancestors_inclusive());
        for anc in path.ancestors_inclusive() {
            let mut meta = self.meta_shard(&anc).lock();
            match meta.get(&anc) {
                Some(MetaEntry::File(_)) => return Err(KvError::IsAFile(anc.clone())),
                Some(MetaEntry::Dir) => {}
                None => {
                    meta.insert(anc.clone(), MetaEntry::Dir);
                }
            }
        }
        Ok(())
    }

    /// `delete(path)` — remove a file or a whole subtree. Returns whether
    /// anything was removed: the root, like HDFS's, is never deleted.
    pub fn delete(&self, path: &KPath) -> Result<bool, KvError> {
        if path.is_root() {
            return Ok(false);
        }
        let _g = self.inner.locks.lock_set(path.ancestors_inclusive());
        let victims = self.subtree(path);
        if victims.is_empty() {
            return Ok(false);
        }
        for p in victims {
            let entry = self.meta_shard(&p).lock().remove(&p);
            if let Some(MetaEntry::File(blocks)) = entry {
                for b in blocks {
                    self.inner.shards[b.place].data.lock().remove(&b.id);
                }
            }
        }
        Ok(true)
    }

    /// `rename(src, dest)` — move a file or subtree. Block data does not
    /// move: only metadata is rewritten (the blocks' `place` is unchanged,
    /// exactly like the paper's location-in-metadata design). HDFS's
    /// refusals, in `hmr_api::fs::check_rename`'s order: a missing source,
    /// a destination inside the source, an existing destination, and a
    /// destination beneath a file.
    pub fn rename(&self, src: &KPath, dst: &KPath) -> Result<(), KvError> {
        let mut locked = src.ancestors_inclusive();
        locked.extend(dst.ancestors_inclusive());
        let _g = self.inner.locks.lock_set(locked);
        if self.subtree(src).is_empty() {
            return Err(KvError::NotFound(src.clone()));
        }
        if dst.starts_with(src) {
            return Err(KvError::IntoItself(src.clone()));
        }
        if !self.subtree(dst).is_empty() {
            return Err(KvError::AlreadyExists(dst.clone()));
        }
        self.ensure_parents(dst)?;
        for p in self.subtree(src) {
            let entry = self
                .meta_shard(&p)
                .lock()
                .remove(&p)
                .expect("listed in subtree");
            let to = dst.join(&p.as_str()[src.as_str().len()..]);
            self.meta_shard(&to).lock().insert(to.clone(), entry);
        }
        Ok(())
    }

    /// Number of blocks stored at `place`'s data shard.
    pub fn blocks_at(&self, place: usize) -> usize {
        self.inner.shards[place].data.lock().len()
    }
}

/// Writer handle from `createWriter`; the block is created at `place` when
/// [`BlockWriter::commit`] runs (2PL around the metadata + data insertion).
pub struct BlockWriter<'s, M> {
    store: &'s KvStore<M>,
    place: usize,
    path: KPath,
    info: M,
}

impl<M: Clone + Eq + Send + Sync + 'static> BlockWriter<'_, M> {
    /// Publish the block. Replaces any existing block with equal `info`
    /// (blocks are identified by their metadata).
    pub fn commit(self, data: BlockData, weight: u64) -> Result<(), KvError> {
        let store = self.store;
        let _g = store
            .inner
            .locks
            .lock_set(self.path.ancestors_inclusive());
        store.ensure_parents(&self.path)?;
        let id = store.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut meta = store.meta_shard(&self.path).lock();
        let entry = meta
            .entry(self.path.clone())
            .or_insert_with(|| MetaEntry::File(Vec::new()));
        match entry {
            MetaEntry::Dir => Err(KvError::IsADir(self.path.clone())),
            MetaEntry::File(blocks) => {
                if let Some(old) = blocks.iter().position(|b| b.info == self.info) {
                    let old = blocks.remove(old);
                    store.inner.shards[old.place].data.lock().remove(&old.id);
                }
                blocks.push(BlockMeta {
                    info: self.info,
                    place: self.place,
                    weight,
                    id,
                });
                store.inner.shards[self.place].data.lock().insert(id, data);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Store = KvStore<String>;

    fn data(s: &str) -> BlockData {
        Arc::new(s.to_string())
    }

    fn read_str(store: &Store, path: &KPath, info: &str) -> String {
        store
            .create_reader(path, &info.to_string())
            .unwrap()
            .downcast_ref::<String>()
            .unwrap()
            .clone()
    }

    #[test]
    fn write_then_read_block() {
        let s = Store::new(4);
        s.write_block(2, &KPath::new("/out/part-0"), "b0".into(), data("hello"), 5)
            .unwrap();
        assert_eq!(read_str(&s, &KPath::new("/out/part-0"), "b0"), "hello");
        let info = s.get_info(&KPath::new("/out/part-0")).unwrap();
        assert_eq!(info.kind, PathKind::File);
        assert_eq!(info.blocks.len(), 1);
        assert_eq!(info.blocks[0].place, 2, "block lives where written");
        assert_eq!(info.blocks[0].weight, 5);
        // Parents were implicitly created as directories.
        assert_eq!(s.get_info(&KPath::new("/out")).unwrap().kind, PathKind::Dir);
    }

    #[test]
    fn blocks_identified_by_metadata_equality() {
        let s = Store::new(2);
        let p = KPath::new("/f");
        s.write_block(0, &p, "a".into(), data("first"), 1).unwrap();
        s.write_block(1, &p, "b".into(), data("second"), 1).unwrap();
        assert_eq!(read_str(&s, &p, "a"), "first");
        assert_eq!(read_str(&s, &p, "b"), "second");
        // Re-writing with equal metadata replaces.
        s.write_block(1, &p, "a".into(), data("third"), 1).unwrap();
        assert_eq!(read_str(&s, &p, "a"), "third");
        assert_eq!(s.get_info(&p).unwrap().blocks.len(), 2);
        assert_eq!(
            s.create_reader(&p, &"zzz".to_string()).unwrap_err(),
            KvError::NoSuchBlock(p.clone())
        );
    }

    #[test]
    fn delete_removes_subtree_and_data() {
        let s = Store::new(3);
        s.write_block(0, &KPath::new("/d/x"), "i".into(), data("1"), 1).unwrap();
        s.write_block(1, &KPath::new("/d/sub/y"), "i".into(), data("2"), 1).unwrap();
        assert!(s.delete(&KPath::new("/d")).unwrap());
        assert!(!s.exists(&KPath::new("/d/x")));
        assert!(!s.exists(&KPath::new("/d/sub/y")));
        for p in 0..3 {
            assert_eq!(s.blocks_at(p), 0, "all block data reclaimed");
        }
        assert!(!s.delete(&KPath::new("/d")).unwrap(), "second delete is a no-op");
    }

    #[test]
    fn rename_moves_metadata_not_data() {
        let s = Store::new(4);
        s.write_block(3, &KPath::new("/src/f"), "i".into(), data("payload"), 7)
            .unwrap();
        s.rename(&KPath::new("/src"), &KPath::new("/dst")).unwrap();
        assert!(!s.exists(&KPath::new("/src/f")));
        let info = s.get_info(&KPath::new("/dst/f")).unwrap();
        assert_eq!(info.blocks[0].place, 3, "block stayed at its place");
        assert_eq!(read_str(&s, &KPath::new("/dst/f"), "i"), "payload");
    }

    #[test]
    fn rename_to_existing_fails() {
        let s = Store::new(2);
        s.write_block(0, &KPath::new("/a"), "i".into(), data("1"), 1).unwrap();
        s.write_block(0, &KPath::new("/b"), "i".into(), data("2"), 1).unwrap();
        assert_eq!(
            s.rename(&KPath::new("/a"), &KPath::new("/b")).unwrap_err(),
            KvError::AlreadyExists(KPath::new("/b"))
        );
    }

    #[test]
    fn mkdirs_and_list() {
        let s = Store::new(2);
        s.mkdirs(&KPath::new("/a/b/c")).unwrap();
        s.write_block(0, &KPath::new("/a/b/f1"), "i".into(), data("x"), 1).unwrap();
        s.write_block(1, &KPath::new("/a/b/f2"), "i".into(), data("y"), 1).unwrap();
        let kids = s.list(&KPath::new("/a/b")).unwrap();
        assert_eq!(
            kids,
            vec![KPath::new("/a/b/c"), KPath::new("/a/b/f1"), KPath::new("/a/b/f2")]
        );
        assert_eq!(
            s.list(&KPath::new("/a/b/f1")).unwrap_err(),
            KvError::IsAFile(KPath::new("/a/b/f1"))
        );
    }

    #[test]
    fn writing_over_a_directory_fails() {
        let s = Store::new(2);
        s.mkdirs(&KPath::new("/d")).unwrap();
        assert_eq!(
            s.write_block(0, &KPath::new("/d"), "i".into(), data("x"), 1)
                .unwrap_err(),
            KvError::IsADir(KPath::new("/d"))
        );
    }

    #[test]
    fn metadata_distributes_across_places() {
        let s = Store::new(8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(s.meta_place(&KPath::new(format!("/p/{i}"))));
        }
        assert!(seen.len() >= 4, "metadata should spread: {seen:?}");
    }

    #[test]
    fn concurrent_mixed_operations_are_safe_and_live() {
        // Hammer the store from many threads with creates, reads, renames
        // and deletes on overlapping subtrees. Success criteria: no
        // deadlock (the scope exits) and no lost data for surviving paths.
        let s = Store::new(4);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..60 {
                        let dir = KPath::new(format!("/work/t{}", t % 3));
                        let file = dir.join(&format!("f{i}"));
                        s.write_block(t % 4, &file, format!("b{i}"), data("v"), 1)
                            .unwrap();
                        let _ = s.create_reader(&file, &format!("b{i}"));
                        if i % 10 == 9 {
                            let _ = s.delete(&dir);
                        }
                        if i % 17 == 16 {
                            let from = KPath::new(format!("/work/t{}", t % 3));
                            let to = KPath::new(format!("/moved/t{t}-{i}"));
                            let _ = s.rename(&from, &to);
                        }
                    }
                });
            }
        });
        // The store is still consistent: every listed file is readable.
        for root in ["/work", "/moved"] {
            if let Ok(info) = s.get_info(&KPath::new(root)) {
                assert_eq!(info.kind, PathKind::Dir);
            }
        }
    }

    #[test]
    fn typed_payloads_downcast() {
        let s = KvStore::<u32>::new(2);
        let payload: BlockData = Arc::new(vec![1u64, 2, 3]);
        s.write_block(0, &KPath::new("/v"), 9, payload, 3).unwrap();
        let got = s.create_reader(&KPath::new("/v"), &9).unwrap();
        assert_eq!(got.downcast_ref::<Vec<u64>>().unwrap(), &vec![1, 2, 3]);
        // Wrong-type downcast fails gracefully at the caller.
        assert!(got.downcast_ref::<String>().is_none());
    }
}
