//! The caching filesystem wrapper (paper §3.2.1, §4.2.3–4.2.4).
//!
//! "M3R alters Hadoop's FileSystem class so that it transparently sends
//! calls to operations such as rename, delete, and getFileStatus to both
//! the cache and the underlying file system." This wrapper is that altered
//! class: metadata queries merge the cache (so *temporary* outputs that
//! were never written to disk are still visible to the next job's input
//! format), destructive operations keep the cache coherent, and the
//! `CacheFS` extension exposes a raw-cache view whose operations touch
//! *only* the cache.
//!
//! The namespace it presents is the union of disk and cache, under the same
//! HDFS rules as `hmr_api::fs::Namespace`: every mutation is decided from
//! that merged view before either side changes, and the cache changes only
//! after the underlying filesystem accepted (or when the path exists only in
//! the cache).
//!
//! Byte-level reads (`open`) go to the underlying filesystem: "since the
//! file API is based on byte buffers, and the cache stores key-value pairs,
//! these calls could not be trapped automatically" (§6.4 footnote). Typed
//! access to cached sequences is [`CachingFs::cache_record_reader`].

use std::sync::Arc;

use hmr_api::error::{HmrError, Result};
use hmr_api::extensions::CacheFsExt;
use hmr_api::fs::{check_mkdirs, check_rename};
use hmr_api::fs::{FileStatus, FileSystem, FsReader, FsWriter, HPath};
use hmr_api::io::RecordReader;

use kvstore::KvError;

use crate::cache::KvCache;

/// A `FileSystem` that merges an underlying filesystem with M3R's cache.
#[derive(Clone)]
pub struct CachingFs {
    under: Arc<dyn FileSystem>,
    cache: KvCache,
}

impl CachingFs {
    /// Wrap `under` with `cache`.
    pub fn new(under: Arc<dyn FileSystem>, cache: KvCache) -> Self {
        CachingFs { under, cache }
    }

    /// The cache facade.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// The wrapped filesystem.
    pub fn underlying(&self) -> &Arc<dyn FileSystem> {
        &self.under
    }

    /// §4.2.4 `getCacheRecordReader`: iterate the cached key/value sequence
    /// of `path` without touching the underlying filesystem. `None` when
    /// the path is not cached (or cached with different types).
    pub fn cache_record_reader<K, V>(&self, path: &HPath) -> Option<Box<dyn RecordReader<K, V>>>
    where
        K: Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let hit = self.cache.get_seq::<K, V>(path, None)?;
        Some(Box::new(CachedSeqReader { hit: hit.seq, pos: 0 }))
    }

    /// `path`'s kind in the merged view: `None` when absent from both sides,
    /// else whether it is a directory.
    fn merged_kind(&self, path: &HPath) -> Option<bool> {
        let on_disk = || self.under.get_file_status(path).ok().map(|s| s.is_dir);
        self.cache.kind(path).or_else(on_disk)
    }

    fn synth_status(&self, path: &HPath) -> Option<FileStatus> {
        if self.cache.is_dir(path) {
            return Some(FileStatus {
                path: path.clone(),
                is_dir: true,
                len: 0,
                block_size: u64::MAX,
            });
        }
        self.cache.status(path).map(|m| FileStatus {
            path: path.clone(),
            is_dir: false,
            len: m.len,
            block_size: u64::MAX,
        })
    }
}

struct CachedSeqReader<K, V> {
    hit: Arc<crate::cache::CachedSeq<K, V>>,
    pos: usize,
}

impl<K, V> RecordReader<K, V> for CachedSeqReader<K, V>
where
    K: Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn next(&mut self) -> Result<Option<(K, V)>> {
        match self.hit.pairs.get(self.pos) {
            Some((k, v)) => {
                self.pos += 1;
                Ok(Some(((**k).clone(), (**v).clone())))
            }
            None => Ok(None),
        }
    }
}

impl FileSystem for CachingFs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        // A cached directory at `path` or a cached file above it refuses
        // the create. A cached file at `path` may be stale (its bytes gone
        // from disk behind the cache's back), so the disk decides, and a
        // fresh byte-level write invalidates the cached copy.
        match self.cache.kind(path) {
            Some(true) => return Err(HmrError::AlreadyExists(path.to_string())),
            Some(false) => {}
            None => path.parent().map_or(Ok(()), |d| check_mkdirs(&d, |p| self.cache.kind(p)))?,
        }
        let writer = self.under.create(path)?;
        self.cache.delete(path);
        Ok(writer)
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        self.under.open(path)
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        // A cached child makes `path` non-empty even where the disk has none.
        if !recursive && !self.cache.list(path).is_empty() {
            return Err(HmrError::Io(format!("{path} is a non-empty directory")));
        }
        let under = self.under.delete(path, recursive)?;
        Ok(self.cache.delete(path) || under)
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        check_rename(src, dst, |p| self.merged_kind(p))?;
        match self.under.rename(src, dst) {
            // A temp output exists only in the cache; moving it there is
            // enough.
            Ok(()) | Err(HmrError::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
        match self.cache.rename(src, dst) {
            Ok(()) | Err(KvError::NotFound(_)) => Ok(()),
            Err(e) => Err(HmrError::Io(e.to_string())),
        }
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        check_mkdirs(path, |p| self.cache.kind(p))?;
        self.under.mkdirs(path)
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        match self.under.get_file_status(path) {
            Ok(st) => Ok(st),
            Err(HmrError::NotFound(_)) => self
                .synth_status(path)
                .ok_or_else(|| HmrError::NotFound(path.to_string())),
            Err(e) => Err(e),
        }
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        let mut out = match self.under.list_status(path) {
            Ok(v) => v,
            Err(HmrError::NotFound(_)) => Vec::new(),

            Err(e) => return Err(e),
        };
        let mut seen: std::collections::BTreeSet<HPath> =
            out.iter().map(|s| s.path.clone()).collect();
        if out.is_empty() && !self.under.exists(path) && !self.cache.contains(path) {
            return Err(HmrError::NotFound(path.to_string()));
        }
        for (p, m) in self.cache.list(path) {
            if seen.insert(p.clone()) {
                out.push(FileStatus {
                    is_dir: self.cache.is_dir(&p),
                    path: p,
                    len: m.len,
                    block_size: u64::MAX,
                });
            }
        }
        // A cached file queried directly.
        if out.is_empty() {
            if let Some(st) = self.synth_status(path) {
                if !st.is_dir {
                    out.push(st);
                }
            }
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    fn block_locations(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<Vec<usize>>> {
        match self.under.block_locations(path, offset, len) {
            Ok(locs) if !locs.is_empty() => Ok(locs),
            _ => Ok(self
                .cache
                .place_of(path)
                .map(|p| vec![vec![p]])
                .unwrap_or_default()),
        }
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        // Versions are a property of the durable bytes: cache-only entries
        // (temporary outputs that never reach the DFS) stay unversioned, so
        // memoization never fingerprints content that could vanish with the
        // cache. Every cache mutation goes through `create`/`delete` on the
        // underlying store first, so delegation cannot go stale.
        self.under.content_version(path)
    }
}

impl CacheFsExt for CachingFs {
    fn raw_cache(&self) -> Arc<dyn FileSystem> {
        Arc::new(RawCacheFs {
            cache: self.cache.clone(),
        })
    }
}

/// §4.2.3 `getRawCache`: a synthetic filesystem whose operations touch only
/// the cache. Deleting here removes a cached sequence "without affecting
/// the underlying file system".
pub struct RawCacheFs {
    cache: KvCache,
}

impl FileSystem for RawCacheFs {
    fn create(&self, _path: &HPath) -> Result<Box<dyn FsWriter>> {
        Err(HmrError::Unsupported(
            "raw cache holds key/value sequences, not bytes".into(),
        ))
    }
    fn open(&self, _path: &HPath) -> Result<Box<dyn FsReader>> {
        Err(HmrError::Unsupported(
            "raw cache holds key/value sequences, not bytes".into(),
        ))
    }
    fn delete(&self, path: &HPath, _recursive: bool) -> Result<bool> {
        Ok(self.cache.delete(path))
    }
    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.cache
            .rename(src, dst)
            .map_err(|e| HmrError::Io(e.to_string()))
    }
    fn mkdirs(&self, _path: &HPath) -> Result<()> {
        Ok(())
    }
    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        if self.cache.is_dir(path) {
            return Ok(FileStatus {
                path: path.clone(),
                is_dir: true,
                len: 0,
                block_size: u64::MAX,
            });
        }
        self.cache
            .status(path)
            .map(|m| FileStatus {
                path: path.clone(),
                is_dir: false,
                len: m.len,
                block_size: u64::MAX,
            })
            .ok_or_else(|| HmrError::NotFound(path.to_string()))
    }
    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        if !self.cache.contains(path) {
            return Err(HmrError::NotFound(path.to_string()));
        }
        Ok(self
            .cache
            .list(path)
            .into_iter()
            .map(|(p, m)| FileStatus {
                is_dir: self.cache.is_dir(&p),
                path: p,
                len: m.len,
                block_size: u64::MAX,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedSeq;
    use hmr_api::fs::{write_file, MemFs};
    use hmr_api::writable::{IntWritable, Text};

    fn seq(n: i32) -> Arc<CachedSeq<IntWritable, Text>> {
        Arc::new(CachedSeq::new(
            (0..n)
                .map(|i| (Arc::new(IntWritable(i)), Arc::new(Text::from("x"))))
                .collect(),
        ))
    }

    fn setup() -> CachingFs {
        CachingFs::new(Arc::new(MemFs::new()), KvCache::new(4))
    }

    #[test]
    fn cached_temp_files_are_visible_in_listings() {
        let fs = setup();
        // A temp output exists only in the cache...
        fs.cache()
            .put_seq(1, &HPath::new("/out/temp_v/part-00000"), seq(4), 64)
            .unwrap();
        // ...but the next job's input format can stat and list it.
        let st = fs.get_file_status(&HPath::new("/out/temp_v/part-00000")).unwrap();
        assert_eq!(st.len, 64);
        let ls = fs.list_status(&HPath::new("/out/temp_v")).unwrap();
        assert_eq!(ls.len(), 1);
        // And locate it at its caching place.
        assert_eq!(
            fs.block_locations(&HPath::new("/out/temp_v/part-00000"), 0, 64)
                .unwrap(),
            vec![vec![1]]
        );
    }

    #[test]
    fn listings_merge_disk_and_cache() {
        let fs = setup();
        write_file(&fs, &HPath::new("/d/on_disk"), b"bytes").unwrap();
        fs.cache().put_seq(0, &HPath::new("/d/in_cache"), seq(1), 9).unwrap();
        let names: Vec<String> = fs
            .list_status(&HPath::new("/d"))
            .unwrap()
            .iter()
            .map(|s| s.path.to_string())
            .collect();
        assert_eq!(names, vec!["/d/in_cache".to_string(), "/d/on_disk".to_string()]);
    }

    #[test]
    fn delete_hits_both_cache_and_disk() {
        let fs = setup();
        write_file(&fs, &HPath::new("/f"), b"bytes").unwrap();
        fs.cache().put_seq(0, &HPath::new("/f"), seq(1), 5).unwrap();
        assert!(fs.delete(&HPath::new("/f"), false).unwrap());
        assert!(!fs.cache().contains(&HPath::new("/f")), "cache kept coherent");
        assert!(!fs.underlying().exists(&HPath::new("/f")));
    }

    #[test]
    fn raw_cache_delete_leaves_disk_alone() {
        let fs = setup();
        write_file(&fs, &HPath::new("/f"), b"bytes").unwrap();
        fs.cache().put_seq(0, &HPath::new("/f"), seq(1), 5).unwrap();
        let raw = fs.raw_cache();
        assert!(raw.delete(&HPath::new("/f"), false).unwrap());
        assert!(!fs.cache().contains(&HPath::new("/f")));
        assert!(
            fs.underlying().exists(&HPath::new("/f")),
            "underlying file untouched by raw-cache delete"
        );
        assert!(!fs.is_cached(&HPath::new("/f")));
    }

    #[test]
    fn rename_of_temp_output_moves_cache_only() {
        let fs = setup();
        fs.cache().put_seq(2, &HPath::new("/out/temp_x"), seq(1), 5).unwrap();
        fs.rename(&HPath::new("/out/temp_x"), &HPath::new("/out/final"))
            .unwrap();
        assert!(fs.cache().contains(&HPath::new("/out/final")));
        assert!(!fs.cache().contains(&HPath::new("/out/temp_x")));
    }

    #[test]
    fn cache_record_reader_replays_pairs() {
        let fs = setup();
        fs.cache().put_seq(0, &HPath::new("/f"), seq(3), 5).unwrap();
        let mut r = fs
            .cache_record_reader::<IntWritable, Text>(&HPath::new("/f"))
            .unwrap();
        let mut n = 0;
        while let Some((k, _)) = r.next().unwrap() {
            assert_eq!(k.0, n);
            n += 1;
        }
        assert_eq!(n, 3);
        // Missing or differently-typed entries yield None.
        assert!(fs
            .cache_record_reader::<Text, Text>(&HPath::new("/f"))
            .is_none());
    }

    #[test]
    fn byte_create_invalidates_cache_entry() {
        let fs = setup();
        fs.cache().put_seq(0, &HPath::new("/f"), seq(1), 5).unwrap();
        // Beneath a cached file is refused, and the cache is left alone.
        assert!(write_file(&fs, &HPath::new("/f/g"), b"below").is_err());
        assert!(fs.cache().contains(&HPath::new("/f")));
        write_file(&fs, &HPath::new("/f"), b"new bytes").unwrap();
        assert!(!fs.cache().contains(&HPath::new("/f")), "stale entry dropped");
    }

    #[test]
    fn missing_everywhere_is_not_found() {
        let fs = setup();
        assert!(matches!(
            fs.get_file_status(&HPath::new("/nope")),
            Err(HmrError::NotFound(_))
        ));
        assert!(matches!(
            fs.list_status(&HPath::new("/nope")),
            Err(HmrError::NotFound(_))
        ));
    }
}
