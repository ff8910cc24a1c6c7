#![warn(missing_docs)]

//! # simdfs — a simulated HDFS
//!
//! Implements `hmr_api::fs::FileSystem` as a distributed filesystem over a
//! [`simgrid::Cluster`]: central namenode metadata, per-file block lists,
//! replica placement across datanodes, and I/O that charges simulated time
//! to the node the calling task runs on (via `simgrid::meter`).
//!
//! The cost behaviour mirrors §3.1 of the M3R paper:
//! * reading "requires network communication with the namenode" — every
//!   metadata operation charges a small round-trip;
//! * "reading the actual data requires file system I/O ... and may require
//!   network I/O (if the mapper is not on the same machine as the one
//!   hosting the data)" — block reads charge disk time, plus network time
//!   when no replica is local to the metered node;
//! * writes go "to the local datanode (generally co-located with the
//!   compute node), and optionally replicated to a configurable number of
//!   other datanodes" — the first replica lands on the writer's node.

pub mod placement;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::RwLock;

use hmr_api::error::{HmrError, Result};
use hmr_api::fs::{FileStatus, FileSystem, FsReader, FsWriter, HPath};
use simgrid::cost::Charge;
use simgrid::meter;
use simgrid::trace;

pub use placement::PlacementPolicy;

/// One replicated block of a file.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Unique block id.
    pub id: u64,
    /// Block length in bytes.
    pub len: u64,
    /// Nodes holding a replica.
    pub replicas: Vec<usize>,
}

#[derive(Debug)]
enum DfsNode {
    File {
        blocks: Vec<BlockInfo>,
        len: u64,
        /// fnv1a over the file's full contents: the file's *content
        /// version* (`m3r-memo`). Files are immutable once closed, so it is
        /// hashed on the first [`FileSystem::content_version`] and cached
        /// here — jobs that never fingerprint never pay for it. Rewriting
        /// identical bytes under a fresh path-and-recreate still yields the
        /// same version, while any byte change yields a new one. Rename
        /// moves the node (and cell) wholesale; delete removes it — so a
        /// memo entry's recorded versions go stale exactly when the input's
        /// content can no longer be proven unchanged.
        version: Arc<OnceLock<u64>>,
    },
    Dir,
}

struct Inner {
    /// Namenode: all metadata, hierarchically keyed.
    meta: RwLock<BTreeMap<HPath, DfsNode>>,
    /// Datanodes: block id → bytes (replicas share one refcounted buffer;
    /// placement is metadata — the simulation charges as if each replica
    /// were distinct).
    blocks: RwLock<std::collections::HashMap<u64, Bytes>>,
    next_block: AtomicU64,
    /// Bytes folded into content versions so far (each file at most once).
    bytes_hashed: AtomicU64,
    cluster: simgrid::Cluster,
    block_size: u64,
    replication: usize,
    policy: PlacementPolicy,
}

/// The simulated distributed filesystem handle (shallow-clone shareable).
#[derive(Clone)]
pub struct SimDfs {
    inner: Arc<Inner>,
}

impl SimDfs {
    /// A DFS over `cluster` with HDFS-ish defaults: 64 MB blocks,
    /// 3-way replication (capped at the cluster size).
    pub fn new(cluster: simgrid::Cluster) -> Self {
        SimDfs::with_config(cluster, 64 << 20, 3)
    }

    /// A DFS with explicit block size and replication factor.
    pub fn with_config(cluster: simgrid::Cluster, block_size: u64, replication: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let replication = replication.clamp(1, cluster.len());
        let inner = Inner {
            meta: RwLock::new(BTreeMap::new()),
            blocks: RwLock::new(std::collections::HashMap::new()),
            next_block: AtomicU64::new(1),
            bytes_hashed: AtomicU64::new(0),
            policy: PlacementPolicy::new(cluster.len()),
            cluster,
            block_size,
            replication,
        };
        inner.meta.write().insert(HPath::root(), DfsNode::Dir);
        SimDfs {
            inner: Arc::new(inner),
        }
    }

    /// The backing cluster.
    pub fn cluster(&self) -> &simgrid::Cluster {
        &self.inner.cluster
    }

    /// Configured replication factor.
    pub fn replication(&self) -> usize {
        self.inner.replication
    }

    /// Configured block size.
    pub fn block_size(&self) -> u64 {
        self.inner.block_size
    }

    /// Bytes hashed into content versions so far. Each file's bytes are
    /// hashed at most once, on its first `content_version`, so a job that
    /// never fingerprints its inputs leaves this at 0. A read-only counter
    /// for tests and probes, not a setting.
    pub fn content_bytes_hashed(&self) -> u64 {
        self.inner.bytes_hashed.load(Ordering::Relaxed)
    }

    /// A namenode round trip: metadata lives on one central node.
    fn charge_namenode(&self) {
        meter::charge(Charge::NetTransfer { bytes: 256 });
    }

    /// Blocks of `path` overlapping `[offset, offset+len)` with their
    /// in-file start offsets.
    fn blocks_in_range(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<(u64, BlockInfo)>> {
        let meta = self.inner.meta.read();
        match meta.get(path) {
            Some(DfsNode::File { blocks, .. }) => {
                let mut out = Vec::new();
                let mut start = 0u64;
                let end = offset.saturating_add(len);
                for b in blocks {
                    let b_end = start + b.len;
                    if b_end > offset && start < end {
                        out.push((start, b.clone()));
                    }
                    start = b_end;
                }
                Ok(out)
            }
            Some(DfsNode::Dir) => Err(HmrError::Io(format!("{path} is a directory"))),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct DfsWriter {
    dfs: SimDfs,
    target: HPath,
    buf: Vec<u8>,
}

impl FsWriter for DfsWriter {
    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn close(self: Box<Self>) -> Result<u64> {
        let inner = &*self.dfs.inner;
        let total = self.buf.len() as u64;
        // Prefer the writer's own node for the first replica (HDFS
        // write-local affinity); fall back to a path-hash.
        let local = meter::current_meter().map(|m| m.node().id()).unwrap_or_else(|| {
            // Unmetered writers (data generators) spread primaries by a
            // stable hash of the path.
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.target.as_str().hash(&mut h);
            (h.finish() % inner.cluster.len() as u64) as usize
        });

        // Freeze the buffer once: every block is a view of that one
        // allocation, so splitting copies nothing.
        let data = Bytes::from(self.buf);
        let block_size = inner.block_size as usize;
        let mut blocks = Vec::new();
        // Placement is seeded by (path, chunk index), not the block id: the
        // global id counter's values depend on the order concurrent writers
        // reach it, and replica layout (hence later read locality) must not.
        let path_seed = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.target.as_str().hash(&mut h);
            h.finish()
        };
        trace::span(trace::Phase::Io, "dfs_write", None, || {
            for (chunk_idx, start) in (0..data.len()).step_by(block_size).enumerate() {
                let chunk = data.slice(start..start.saturating_add(block_size).min(data.len()));
                let id = inner.next_block.fetch_add(1, Ordering::Relaxed);
                let replicas = inner.policy.place(
                    local,
                    path_seed.wrapping_add(chunk_idx as u64),
                    inner.replication,
                );
                let len = chunk.len() as u64;
                // Local disk write for the first replica; the replication
                // pipeline moves the block over the network once per extra
                // replica and writes it to that node's disk. All latencies are
                // charged to the writing task (it blocks on the ack chain).
                meter::charge(Charge::DiskWrite { bytes: len });
                for _ in 1..replicas.len() {
                    meter::charge(Charge::NetTransfer { bytes: len });
                    meter::charge(Charge::DiskWrite { bytes: len });
                }
                inner.blocks.write().insert(id, chunk);
                blocks.push(BlockInfo { id, len, replicas });
            }
        });

        self.dfs.charge_namenode();
        let mut meta = inner.meta.write();
        if meta.contains_key(&self.target) {
            return Err(HmrError::AlreadyExists(self.target.to_string()));
        }
        if let Some(parent) = self.target.parent() {
            for anc in parent.ancestors_inclusive() {
                match meta.get(&anc) {
                    Some(DfsNode::File { .. }) => {
                        return Err(HmrError::Io(format!("{anc} is a file")));
                    }
                    Some(DfsNode::Dir) => {}
                    None => {
                        meta.insert(anc, DfsNode::Dir);
                    }
                }
            }
        }
        meta.insert(
            self.target,
            DfsNode::File {
                blocks,
                len: total,
                version: Arc::default(),
            },
        );
        Ok(total)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct DfsReader {
    dfs: SimDfs,
    path: HPath,
    len: u64,
}

impl FsReader for DfsReader {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Bytes> {
        let local = meter::current_meter().map(|m| m.node().id());
        let end = offset.saturating_add(len).min(self.len);
        if offset >= end {
            return Ok(Bytes::new());
        }
        // Gather the per-block handles first (charging as we go), so a
        // range inside one block returns a zero-copy slice of the stored
        // buffer and only multi-block reads pay a concatenation.
        let mut parts: Vec<Bytes> = Vec::new();
        trace::span(trace::Phase::Io, "dfs_read", None, || -> Result<()> {
            for (block_start, info) in
                self.dfs.blocks_in_range(&self.path, offset, end - offset)?
            {
                let bytes = {
                    let blocks = self.dfs.inner.blocks.read();
                    blocks
                        .get(&info.id)
                        .ok_or_else(|| {
                            HmrError::Io(format!("block {} of {} lost", info.id, self.path))
                        })?
                        .clone()
                };
                let from = offset.saturating_sub(block_start).min(info.len) as usize;
                let to = (end - block_start).min(info.len) as usize;
                let slice = bytes.slice(from..to);
                // Disk read at the replica host; network hop when no replica
                // is local to the reading task's node.
                meter::charge(Charge::DiskRead {
                    bytes: slice.len() as u64,
                });
                let is_local = local.map(|n| info.replicas.contains(&n)).unwrap_or(true);
                if !is_local {
                    meter::charge(Charge::NetTransfer {
                        bytes: slice.len() as u64,
                    });
                }
                parts.push(slice);
            }
            Ok(())
        })?;
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one part"));
        }
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in &parts {
            out.extend_from_slice(p);
        }
        Ok(Bytes::from(out))
    }
}

// ---------------------------------------------------------------------------
// FileSystem
// ---------------------------------------------------------------------------

impl FileSystem for SimDfs {
    fn create(&self, path: &HPath) -> Result<Box<dyn FsWriter>> {
        self.charge_namenode();
        if self.inner.meta.read().contains_key(path) {
            return Err(HmrError::AlreadyExists(path.to_string()));
        }
        Ok(Box::new(DfsWriter {
            dfs: self.clone(),
            target: path.clone(),
            buf: Vec::new(),
        }))
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        self.charge_namenode();
        let meta = self.inner.meta.read();
        match meta.get(path) {
            Some(DfsNode::File { len, .. }) => Ok(Box::new(DfsReader {
                dfs: self.clone(),
                path: path.clone(),
                len: *len,
            })),
            Some(DfsNode::Dir) => Err(HmrError::Io(format!("{path} is a directory"))),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        self.charge_namenode();
        // Lock order: namenode (`meta`) → datanodes (`blocks`), the same
        // nesting `content_version` uses.
        let mut meta = self.inner.meta.write();
        match meta.get(path) {
            None => Ok(false),
            Some(DfsNode::File { .. }) => {
                if let Some(DfsNode::File { blocks, .. }) = meta.remove(path) {
                    let mut store = self.inner.blocks.write();
                    for b in blocks {
                        store.remove(&b.id);
                    }
                }
                Ok(true)
            }
            Some(DfsNode::Dir) => {
                let subtree: Vec<HPath> = meta
                    .range(path.clone()..)
                    .take_while(|(p, _)| p.starts_with(path))
                    .map(|(p, _)| p.clone())
                    .collect();
                if subtree.len() > 1 && !recursive {
                    return Err(HmrError::Io(format!("{path} is a non-empty directory")));
                }
                let mut store = self.inner.blocks.write();
                for p in subtree {
                    if let Some(DfsNode::File { blocks, .. }) = meta.remove(&p) {
                        for b in blocks {
                            store.remove(&b.id);
                        }
                    }
                }
                Ok(true)
            }
        }
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.charge_namenode();
        let mut meta = self.inner.meta.write();
        if !meta.contains_key(src) {
            return Err(HmrError::NotFound(src.to_string()));
        }
        if meta.contains_key(dst) {
            return Err(HmrError::AlreadyExists(dst.to_string()));
        }
        let moved: Vec<(HPath, HPath)> = meta
            .range(src.clone()..)
            .take_while(|(p, _)| p.starts_with(src))
            .map(|(p, _)| {
                let suffix = &p.as_str()[src.as_str().len()..];
                (p.clone(), HPath::new(format!("{}{}", dst.as_str(), suffix)))
            })
            .collect();
        for (from, to) in moved {
            let node = meta.remove(&from).expect("listed above");
            meta.insert(to, node);
        }
        if let Some(parent) = dst.parent() {
            for anc in parent.ancestors_inclusive() {
                meta.entry(anc).or_insert(DfsNode::Dir);
            }
        }
        Ok(())
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        self.charge_namenode();
        let mut meta = self.inner.meta.write();
        for anc in path.ancestors_inclusive() {
            match meta.get(&anc) {
                Some(DfsNode::File { .. }) => {
                    return Err(HmrError::Io(format!("{anc} is a file")));
                }
                Some(DfsNode::Dir) => {}
                None => {
                    meta.insert(anc, DfsNode::Dir);
                }
            }
        }
        Ok(())
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        self.charge_namenode();
        let meta = self.inner.meta.read();
        match meta.get(path) {
            Some(DfsNode::File { len, .. }) => Ok(FileStatus {
                path: path.clone(),
                is_dir: false,
                len: *len,
                block_size: self.inner.block_size,
            }),
            Some(DfsNode::Dir) => Ok(FileStatus {
                path: path.clone(),
                is_dir: true,
                len: 0,
                block_size: self.inner.block_size,
            }),
            None => Err(HmrError::NotFound(path.to_string())),
        }
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        let status = self.get_file_status(path)?;
        if !status.is_dir {
            return Ok(vec![status]);
        }
        let meta = self.inner.meta.read();
        let mut out = Vec::new();
        for (p, node) in meta
            .range(path.clone()..)
            .take_while(|(p, _)| p.starts_with(path))
        {
            if p != path && p.parent().as_ref() == Some(path) {
                out.push(match node {
                    DfsNode::File { len, .. } => FileStatus {
                        path: p.clone(),
                        is_dir: false,
                        len: *len,
                        block_size: self.inner.block_size,
                    },
                    DfsNode::Dir => FileStatus {
                        path: p.clone(),
                        is_dir: true,
                        len: 0,
                        block_size: self.inner.block_size,
                    },
                });
            }
        }
        Ok(out)
    }

    fn block_locations(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<Vec<usize>>> {
        self.charge_namenode();
        Ok(self
            .blocks_in_range(path, offset, len)?
            .into_iter()
            .map(|(_, b)| b.replicas)
            .collect())
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        // A version read costs the same namenode round trip as any stat.
        // A file nobody has asked about yet is hashed here, once: its cell
        // and block handles are taken under the locks, the bytes hashed
        // after releasing them.
        self.charge_namenode();
        let (is_dir, files) = {
            // Lock order: namenode (`meta`) → datanodes (`blocks`), the
            // same nesting `delete` uses.
            let meta = self.inner.meta.read();
            let mut store = None;
            let mut snapshot = |blocks: &[BlockInfo], cell: &Arc<OnceLock<u64>>| {
                if let Some(&v) = cell.get() {
                    return Some(Version::Hashed(v));
                }
                let store = store.get_or_insert_with(|| self.inner.blocks.read());
                let handles = blocks
                    .iter()
                    .map(|b| store.get(&b.id).cloned())
                    .collect::<Option<Vec<Bytes>>>()?;
                Some(Version::Unhashed(Arc::clone(cell), handles))
            };
            match meta.get(path)? {
                DfsNode::File { blocks, version, .. } => {
                    (false, vec![(path.clone(), snapshot(blocks, version)?)])
                }
                DfsNode::Dir => {
                    let subtree = meta.range(path.clone()..).take_while(|(p, _)| p.starts_with(path));
                    let mut files = Vec::new();
                    for (p, node) in subtree {
                        if let DfsNode::File { blocks, version, .. } = node {
                            files.push((p.clone(), snapshot(blocks, version)?));
                        }
                    }
                    (true, files)
                }
            }
        };
        let versions: Vec<(HPath, u64)> = files
            .into_iter()
            .map(|(p, v)| (p, v.resolve(&self.inner.bytes_hashed)))
            .collect();
        if !is_dir {
            return Some(versions[0].1);
        }
        let entries: Vec<(&HPath, u64)> = versions.iter().map(|(p, v)| (p, *v)).collect();
        Some(hmr_api::fs::combine_dir_version(&entries))
    }
}

/// A file's content version as read under the namenode lock.
enum Version {
    /// Already hashed by an earlier `content_version`.
    Hashed(u64),
    /// Not yet hashed: the file's cell and its blocks, in file order.
    Unhashed(Arc<OnceLock<u64>>, Vec<Bytes>),
}

impl Version {
    /// The version, hashing the blocks into the cell if no one has yet.
    /// Runs outside every lock; a racing caller waits on the cell, and the
    /// block handles keep the bytes alive even if the file is deleted
    /// meanwhile (the caller then gets the version it snapshotted).
    fn resolve(self, bytes_hashed: &AtomicU64) -> u64 {
        use hmr_api::comparator::{fnv1a, fnv1a_continue};
        match self {
            Version::Hashed(v) => v,
            Version::Unhashed(cell, blocks) => *cell.get_or_init(|| {
                let n: usize = blocks.iter().map(|b| b.len()).sum();
                bytes_hashed.fetch_add(n as u64, Ordering::Relaxed);
                blocks.iter().fold(fnv1a(&[]), |h, b| fnv1a_continue(h, b))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmr_api::fs::{read_file, write_file};
    use simgrid::{Cluster, CostModel, Meter};

    fn dfs(nodes: usize) -> SimDfs {
        SimDfs::with_config(Cluster::new(nodes, CostModel::default()), 1024, 2)
    }

    #[test]
    fn roundtrip_small_file() {
        let fs = dfs(4);
        write_file(&fs, &HPath::new("/a/b"), b"contents").unwrap();
        assert_eq!(read_file(&fs, &HPath::new("/a/b")).unwrap(), b"contents");
        let st = fs.get_file_status(&HPath::new("/a/b")).unwrap();
        assert_eq!(st.len, 8);
        assert!(!st.is_dir);
    }

    #[test]
    fn large_file_splits_into_blocks_with_replicas() {
        let fs = dfs(4);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        write_file(&fs, &HPath::new("/big"), &data).unwrap();
        let locs = fs.block_locations(&HPath::new("/big"), 0, 3000).unwrap();
        assert_eq!(locs.len(), 3, "3000 bytes / 1024-byte blocks = 3 blocks");
        for replicas in &locs {
            assert_eq!(replicas.len(), 2, "replication factor 2");
            let mut sorted = replicas.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 2, "replicas on distinct nodes");
        }
        assert_eq!(read_file(&fs, &HPath::new("/big")).unwrap(), data);
    }

    #[test]
    fn read_range_spans_block_boundaries() {
        let fs = dfs(3);
        let data: Vec<u8> = (0..2500u32).map(|i| (i % 256) as u8).collect();
        write_file(&fs, &HPath::new("/f"), &data).unwrap();
        let mut r = fs.open(&HPath::new("/f")).unwrap();
        assert_eq!(r.read_range(1000, 200).unwrap(), &data[1000..1200]);
        assert_eq!(r.read_range(0, 2500).unwrap(), data);
        assert_eq!(r.read_range(2400, 500).unwrap(), &data[2400..2500]);
    }

    #[test]
    fn writes_charge_disk_and_replication_network() {
        let cluster = Cluster::new(4, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 3);
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(Meter::new(cluster.node(1).clone()), || {
            write_file(&fs, &HPath::new("/f"), &vec![0u8; 1000]).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert_eq!(d.disk_bytes_written, 3000, "3 replicas hit disk");
        assert!(d.net_bytes >= 2000, "2 replication transfers");
        assert!(cluster.node(1).clock().now() > 0.0);
    }

    #[test]
    fn local_read_charges_no_network() {
        let cluster = Cluster::new(4, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 2);
        // Write from node 0 → first replica on node 0.
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            write_file(&fs, &HPath::new("/f"), &vec![7u8; 4096]).unwrap();
        });
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            read_file(&fs, &HPath::new("/f")).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert_eq!(d.disk_bytes_read, 4096);
        // Only the namenode chatter crosses the network, not the data.
        assert!(d.net_bytes < 4096, "data read stayed local: {}", d.net_bytes);
    }

    #[test]
    fn remote_read_charges_network() {
        let cluster = Cluster::new(8, CostModel::default());
        let fs = SimDfs::with_config(cluster.clone(), 1 << 20, 1);
        simgrid::with_meter(Meter::new(cluster.node(0).clone()), || {
            write_file(&fs, &HPath::new("/f"), &vec![7u8; 4096]).unwrap();
        });
        let locs = fs.block_locations(&HPath::new("/f"), 0, 4096).unwrap();
        let holder = locs[0][0];
        let reader_node = (holder + 1) % 8;
        let before = cluster.metrics().snapshot();
        simgrid::with_meter(Meter::new(cluster.node(reader_node).clone()), || {
            read_file(&fs, &HPath::new("/f")).unwrap();
        });
        let d = cluster.metrics().snapshot().since(&before);
        assert!(d.net_bytes >= 4096, "remote read crossed the network");
    }

    #[test]
    fn delete_frees_blocks() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/d/f"), &vec![0u8; 5000]).unwrap();
        assert!(fs.delete(&HPath::new("/d"), true).unwrap());
        assert!(fs.inner.blocks.read().is_empty(), "blocks reclaimed");
        assert!(!fs.exists(&HPath::new("/d/f")));
    }

    #[test]
    fn rename_preserves_data() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/out/temp_1/part-00000"), b"xyz").unwrap();
        fs.rename(&HPath::new("/out/temp_1"), &HPath::new("/out/final"))
            .unwrap();
        assert_eq!(
            read_file(&fs, &HPath::new("/out/final/part-00000")).unwrap(),
            b"xyz"
        );
    }

    #[test]
    fn content_version_is_a_content_hash() {
        let fs = dfs(2);
        let f = HPath::new("/in/f");
        write_file(&fs, &f, b"payload").unwrap();
        let v = fs.content_version(&f).unwrap();
        // Delete-and-rewrite of identical bytes keeps the version (this is
        // what lets deterministic iterative drivers re-fingerprint equal).
        fs.delete(&f, false).unwrap();
        write_file(&fs, &f, b"payload").unwrap();
        assert_eq!(fs.content_version(&f), Some(v));
        // A byte change flips it.
        fs.delete(&f, false).unwrap();
        write_file(&fs, &f, b"Payload").unwrap();
        assert_ne!(fs.content_version(&f), Some(v));
        // Directory version covers the subtree and survives rename of the
        // directory itself only under its new name.
        let dv = fs.content_version(&HPath::new("/in")).unwrap();
        write_file(&fs, &HPath::new("/in/g"), b"more").unwrap();
        assert_ne!(fs.content_version(&HPath::new("/in")), Some(dv));
        assert_eq!(fs.content_version(&HPath::new("/absent")), None);
    }

    #[test]
    fn content_version_is_fnv1a_of_the_bytes() {
        use hmr_api::comparator::fnv1a;
        let fs = dfs(2);
        let big: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let files: [(&str, &[u8]); 3] =
            [("/v/empty", b""), ("/v/one", b"one block"), ("/v/three", &big)];
        for (name, data) in files {
            let p = HPath::new(name);
            write_file(&fs, &p, data).unwrap();
            let v = fs.content_version(&p).unwrap();
            assert_eq!(v, fnv1a(&read_file(&fs, &p).unwrap()), "{name}");
            assert_eq!(fs.content_version(&p), Some(v), "{name}: cached value");
        }
        assert_eq!(fs.block_locations(&HPath::new("/v/three"), 0, 3000).unwrap().len(), 3);
        // The version moves with the file.
        let v = fs.content_version(&HPath::new("/v/three")).unwrap();
        fs.rename(&HPath::new("/v/three"), &HPath::new("/w/three")).unwrap();
        assert_eq!(fs.content_version(&HPath::new("/w/three")), Some(v));
        assert_eq!(fs.content_version(&HPath::new("/v/three")), None);
    }

    #[test]
    fn content_versions_match_the_write_time_stamps() {
        // Literals computed on the commit that still hashed every file at
        // writer close: lazy hashing must not move a single version.
        let fs = SimDfs::with_config(Cluster::new(2, CostModel::default()), 8, 2);
        let p = HPath::new("/pin");
        write_file(&fs, &p, b"M3R: Increased performance for in-memory Hadoop jobs").unwrap();
        assert_eq!(fs.content_version(&p), Some(0xd13d_1ad8_7b7b_ec1e));
        write_file(&fs, &HPath::new("/d/a"), b"alpha").unwrap();
        write_file(&fs, &HPath::new("/d/sub/b"), b"").unwrap();
        assert_eq!(fs.content_version(&HPath::new("/d")), Some(0xf655_f213_1bc9_e875));
    }

    #[test]
    fn files_are_hashed_once_and_only_when_asked() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/h/a"), &[1u8; 2500]).unwrap();
        write_file(&fs, &HPath::new("/h/b"), b"bee").unwrap();
        read_file(&fs, &HPath::new("/h/a")).unwrap();
        assert_eq!(fs.content_bytes_hashed(), 0, "writes and reads never hash");
        fs.content_version(&HPath::new("/h/a")).unwrap();
        assert_eq!(fs.content_bytes_hashed(), 2500);
        // The directory hashes only the file nobody asked about yet.
        fs.content_version(&HPath::new("/h")).unwrap();
        fs.content_version(&HPath::new("/h")).unwrap();
        assert_eq!(fs.content_bytes_hashed(), 2503);
    }

    #[test]
    fn multi_block_file_is_views_of_one_allocation() {
        let fs = dfs(2);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        write_file(&fs, &HPath::new("/m"), &data).unwrap();
        let stored: Vec<Bytes> = {
            let meta = fs.inner.meta.read();
            let Some(DfsNode::File { blocks, .. }) = meta.get(&HPath::new("/m")) else {
                panic!("/m is a file");
            };
            let store = fs.inner.blocks.read();
            blocks.iter().map(|b| store[&b.id].clone()).collect()
        };
        assert_eq!(stored.iter().map(|b| b.len()).collect::<Vec<_>>(), [1024, 1024, 952]);
        for w in stored.windows(2) {
            assert_eq!(
                w[0].as_ptr() as usize + w[0].len(),
                w[1].as_ptr() as usize,
                "consecutive blocks are contiguous views of one buffer"
            );
        }
        assert_eq!(read_file(&fs, &HPath::new("/m")).unwrap(), data);
    }

    #[test]
    fn content_version_races_delete_and_rename() {
        use hmr_api::comparator::fnv1a;
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        let want = fnv1a(&data);
        for round in 0..50 {
            let fs = dfs(2);
            let (a, b) = (HPath::new("/r/a"), HPath::new("/r/b"));
            write_file(&fs, &a, &data).unwrap();
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        for p in [&a, &b, &HPath::new("/r")] {
                            let v = fs.content_version(p);
                            if p.as_str() != "/r" {
                                assert!(v.is_none() || v == Some(want), "round {round}: {v:?}");
                            }
                        }
                    });
                }
                s.spawn(|| {
                    start.wait();
                    let _ = fs.rename(&a, &b);
                    let _ = fs.delete(&b, false);
                });
            });
            assert_eq!(fs.content_version(&b), None);
            assert!(fs.inner.blocks.read().is_empty(), "round {round}: blocks reclaimed");
        }
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let fs = dfs(2);
        write_file(&fs, &HPath::new("/empty"), b"").unwrap();
        assert_eq!(fs.get_file_status(&HPath::new("/empty")).unwrap().len, 0);
        assert!(fs
            .block_locations(&HPath::new("/empty"), 0, 10)
            .unwrap()
            .is_empty());
        assert_eq!(read_file(&fs, &HPath::new("/empty")).unwrap(), b"");
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let fs = SimDfs::with_config(Cluster::free(2), 1024, 5);
        assert_eq!(fs.replication(), 2);
    }

    #[test]
    fn concurrent_writers_distinct_files() {
        let fs = dfs(4);
        std::thread::scope(|s| {
            for i in 0..8 {
                let fs = fs.clone();
                s.spawn(move || {
                    write_file(
                        &fs,
                        &HPath::new(format!("/c/f{i}")),
                        format!("data{i}").as_bytes(),
                    )
                    .unwrap();
                });
            }
        });
        assert_eq!(fs.list_status(&HPath::new("/c")).unwrap().len(), 8);
    }
}
