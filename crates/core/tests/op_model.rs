//! `CachingFs` and the kv-store against the brute-force namespace model
//! MemFs and SimDfs are checked against (`hmr-api/tests/fs_model`), on
//! random op sequences.
//!
//! `CachingFs` runs over a SimDfs, with some writes sent to the cache only
//! (`put_seq`, the way M3R keeps a temporary output), so every operation
//! meets paths that live on disk, in the cache, or on both sides. The
//! kv-store runs through [`KvFs`], a test-only adapter.

#[path = "../../hmr-api/tests/fs_model/mod.rs"]
mod fs_model;

use std::sync::Arc;

use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{FileStatus, FileSystem, FsReader, FsWriter, HPath};
use hmr_api::writable::IntWritable;
use kvstore::{BlockData, KPath, KvError, KvStore, PathKind};
use m3r::{CachedSeq, CachingFs, KvCache};
use proptest::prelude::*;
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

use fs_model::{check_op_sequence, ops_strategy};

/// The kv-store seen as a `FileSystem`: a file is one block whose metadata
/// is its length. The store's own operations give every answer; the
/// adapter adds only what the Fig. 5 API leaves to its caller: `create`
/// refuses an existing path, and a non-recursive `delete` refuses a
/// directory with children (the store's `delete` is always recursive).
struct KvFs {
    store: KvStore<u64>,
}

fn kpath(p: &HPath) -> KPath {
    KPath::new(p.as_str())
}

fn hmr(e: KvError) -> HmrError {
    match e {
        KvError::NotFound(p) => HmrError::NotFound(p.to_string()),
        KvError::AlreadyExists(p) => HmrError::AlreadyExists(p.to_string()),
        e => HmrError::Io(e.to_string()),
    }
}

struct KvWriter {
    store: KvStore<u64>,
    path: KPath,
    len: u64,
}

impl FsWriter for KvWriter {
    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.len += bytes.len() as u64;
        Ok(())
    }
    fn close(self: Box<Self>) -> Result<u64> {
        let data: BlockData = Arc::new(self.len);
        let place = self.len as usize % self.store.num_places();
        self.store
            .write_block(place, &self.path, self.len, data, self.len)
            .map_err(hmr)?;
        Ok(self.len)
    }
}

impl FileSystem for KvFs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        if self.store.exists(&kpath(path)) {
            return Err(HmrError::AlreadyExists(path.to_string()));
        }
        Ok(Box::new(KvWriter {
            store: self.store.clone(),
            path: kpath(path),
            len: 0,
        }))
    }

    fn open(&self, _path: &HPath) -> Result<Box<dyn FsReader>> {
        Err(HmrError::Unsupported("the model reads statuses only".into()))
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        let children = self.store.list(&kpath(path));
        if !recursive && children.is_ok_and(|c| !c.is_empty()) {
            return Err(HmrError::Io(format!("{path} is a non-empty directory")));
        }
        self.store.delete(&kpath(path)).map_err(hmr)
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.store.rename(&kpath(src), &kpath(dst)).map_err(hmr)
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        self.store.mkdirs(&kpath(path)).map_err(hmr)
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        let info = self.store.get_info(&kpath(path)).map_err(hmr)?;
        Ok(FileStatus {
            path: path.clone(),
            is_dir: info.kind == PathKind::Dir,
            len: info.blocks.first().map_or(0, |b| b.info),
            block_size: 0,
        })
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        let status = self.get_file_status(path)?;
        if !status.is_dir {
            return Ok(vec![status]);
        }
        let children = self.store.list(&kpath(path)).map_err(hmr)?;
        children
            .iter()
            .map(|c| self.get_file_status(&HPath::new(c.as_str())))
            .collect()
    }
}

fn caching_fs() -> CachingFs {
    let dfs = SimDfs::with_config(Cluster::new(2, CostModel::default()), 1 << 10, 2);
    CachingFs::new(Arc::new(dfs), KvCache::new(3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn caching_fs_op_sequences_match_the_model(ops in ops_strategy()) {
        let fs = caching_fs();
        let put = |p: &HPath, len: u64| {
            let pair = (Arc::new(IntWritable(len as i32)), Arc::new(IntWritable(0)));
            let seq = Arc::new(CachedSeq::new(vec![pair]));
            fs.cache().put_seq(len as usize % 3, p, seq, len).unwrap();
        };
        check_op_sequence(&fs, Some(&put), &ops);
    }

    #[test]
    fn kvstore_op_sequences_match_the_model(ops in ops_strategy()) {
        let fs = KvFs { store: KvStore::new(3) };
        check_op_sequence(&fs, None, &ops);
    }
}
