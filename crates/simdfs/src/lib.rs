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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use parking_lot::RwLock;

use hmr_api::error::Result;
use hmr_api::fs::{
    adopt_or_append, content_version_of, freeze, FileStatus, FileSystem, FsReader, FsWriter, HPath,
    Namespace,
};
use simgrid::cost::Charge;
use simgrid::meter;
use simgrid::trace;

pub use placement::PlacementPolicy;

/// One block of a file: a view of the file's bytes, and the nodes holding a
/// replica (replicas share the one buffer; placement is metadata, and the
/// simulation charges as if each replica were distinct).
struct Block {
    data: Bytes,
    replicas: Vec<usize>,
}

/// A closed file. It owns its blocks, so deleting the file frees them.
struct DfsFile {
    blocks: Vec<Block>,
    len: u64,
    /// fnv1a over the file's full contents: the file's *content version*
    /// (`m3r-memo`). Files are immutable once closed, so it is hashed on
    /// the first [`FileSystem::content_version`] and kept here: jobs that
    /// never fingerprint never pay for it. Rewriting identical bytes under
    /// a fresh path-and-recreate still yields the same version, while any
    /// byte change yields a new one. Rename moves the file (and cell)
    /// wholesale; delete removes it, so a memo entry's recorded versions go
    /// stale exactly when the input's content can no longer be proven
    /// unchanged.
    version: OnceLock<u64>,
}

impl DfsFile {
    /// Blocks overlapping `[offset, offset+len)` with their in-file start
    /// offsets.
    fn blocks_in_range(&self, offset: u64, len: u64) -> impl Iterator<Item = (u64, &Block)> {
        let end = offset.saturating_add(len);
        let starts = self.blocks.iter().scan(0u64, |start, b| {
            let s = *start;
            *start += b.data.len() as u64;
            Some((s, b))
        });
        starts.filter(move |(s, b)| s + b.data.len() as u64 > offset && *s < end)
    }

    /// The version, hashing the blocks into the cell if no one has yet (a
    /// racing caller waits on the cell).
    fn version(&self, bytes_hashed: &AtomicU64) -> u64 {
        use hmr_api::comparator::{fnv1a, fnv1a_continue};
        *self.version.get_or_init(|| {
            bytes_hashed.fetch_add(self.len, Ordering::Relaxed);
            self.blocks.iter().fold(fnv1a(&[]), |h, b| fnv1a_continue(h, &b.data))
        })
    }
}

struct Inner {
    /// Namenode: the namespace, whose files own their blocks.
    ns: RwLock<Namespace<Arc<DfsFile>>>,
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
        let ns = Namespace::new(block_size, |f: &Arc<DfsFile>| f.len);
        SimDfs {
            inner: Arc::new(Inner {
                ns: RwLock::new(ns),
                bytes_hashed: AtomicU64::new(0),
                policy: PlacementPolicy::new(cluster.len()),
                replication: replication.clamp(1, cluster.len()),
                cluster,
                block_size,
            }),
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

    /// A namenode round trip: metadata lives on one central node. Every
    /// `FileSystem` call charges exactly one.
    fn charge_namenode(&self) {
        meter::charge(Charge::NetTransfer { bytes: 256 });
    }
}

/// A stable hash of a path: seeds replica placement, and spreads the first
/// replicas of unmetered writers.
fn path_hash(p: &HPath) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.as_str().hash(&mut h);
    h.finish()
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

    fn write_owned(&mut self, bytes: Vec<u8>) -> Result<()> {
        adopt_or_append(&mut self.buf, bytes);
        Ok(())
    }

    fn close(self: Box<Self>) -> Result<u64> {
        let inner = &*self.dfs.inner;
        // Prefer the writer's own node for the first replica (HDFS
        // write-local affinity); unmetered writers (data generators) spread
        // primaries by the path's hash. Placement is seeded by (path, chunk
        // index), so replica layout (hence later read locality) never
        // depends on the order concurrent writers close.
        let seed = path_hash(&self.target);
        let local = meter::current_meter()
            .map(|m| m.node().id())
            .unwrap_or((seed % inner.cluster.len() as u64) as usize);
        // Freeze the buffer once, without its growth slack: every block is
        // a view of that one allocation (the caller's own, when it came by
        // `write_owned`), so neither storing nor splitting copies.
        let data = freeze(self.buf);
        let chunks = (0..data.len()).step_by(inner.block_size as usize).enumerate();
        let blocks = trace::span(trace::Phase::Io, "dfs_write", None, || {
            chunks
                .map(|(i, start)| {
                    let end = start.saturating_add(inner.block_size as usize).min(data.len());
                    let replicas = inner.policy.place(local, seed.wrapping_add(i as u64), inner.replication);
                    // Local disk write for the first replica; the replication
                    // pipeline moves the block over the network once per extra
                    // replica and writes it to that node's disk. All latencies
                    // are charged to the writing task (it blocks on the ack
                    // chain).
                    let len = (end - start) as u64;
                    meter::charge(Charge::DiskWrite { bytes: len });
                    for _ in 1..replicas.len() {
                        meter::charge(Charge::NetTransfer { bytes: len });
                        meter::charge(Charge::DiskWrite { bytes: len });
                    }
                    Block {
                        data: data.slice(start..end),
                        replicas,
                    }
                })
                .collect()
        });
        self.dfs.charge_namenode();
        let len = data.len() as u64;
        let file = Arc::new(DfsFile {
            blocks,
            len,
            version: OnceLock::new(),
        });
        inner.ns.write().publish(&self.target, file)?;
        Ok(len)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads the file as it was at `open`: it holds the file, not its path.
struct DfsReader {
    file: Arc<DfsFile>,
}

impl FsReader for DfsReader {
    fn len(&self) -> u64 {
        self.file.len
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Bytes> {
        let local = meter::current_meter().map(|m| m.node().id());
        let end = offset.saturating_add(len).min(self.file.len);
        if offset >= end {
            return Ok(Bytes::new());
        }
        // Gather the per-block handles first (charging as we go), so a
        // range inside one block returns a zero-copy slice of the stored
        // buffer and only multi-block reads pay a concatenation.
        let mut parts: Vec<Bytes> = trace::span(trace::Phase::Io, "dfs_read", None, || {
            let blocks = self.file.blocks_in_range(offset, end - offset);
            blocks
                .map(|(start, b)| {
                    let from = offset.saturating_sub(start) as usize;
                    let to = ((end - start) as usize).min(b.data.len());
                    let slice = b.data.slice(from..to);
                    // Disk read at the replica host; network hop when no
                    // replica is local to the reading task's node.
                    let bytes = slice.len() as u64;
                    meter::charge(Charge::DiskRead { bytes });
                    if !local.is_none_or(|n| b.replicas.contains(&n)) {
                        meter::charge(Charge::NetTransfer { bytes });
                    }
                    slice
                })
                .collect()
        });
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
        self.inner.ns.read().check_create(path)?;
        Ok(Box::new(DfsWriter {
            dfs: self.clone(),
            target: path.clone(),
            buf: Vec::new(),
        }))
    }

    fn open(&self, path: &HPath) -> Result<Box<dyn FsReader>> {
        self.charge_namenode();
        let file = Arc::clone(self.inner.ns.read().file(path)?);
        Ok(Box::new(DfsReader { file }))
    }

    fn delete(&self, path: &HPath, recursive: bool) -> Result<bool> {
        self.charge_namenode();
        // The removed files (and their blocks) drop after the lock is released.
        let gone = self.inner.ns.write().delete(path, recursive)?;
        Ok(gone.is_some())
    }

    fn rename(&self, src: &HPath, dst: &HPath) -> Result<()> {
        self.charge_namenode();
        self.inner.ns.write().rename(src, dst)
    }

    fn mkdirs(&self, path: &HPath) -> Result<()> {
        self.charge_namenode();
        self.inner.ns.write().mkdirs(path)
    }

    fn get_file_status(&self, path: &HPath) -> Result<FileStatus> {
        self.charge_namenode();
        self.inner.ns.read().status(path)
    }

    fn list_status(&self, path: &HPath) -> Result<Vec<FileStatus>> {
        self.charge_namenode();
        self.inner.ns.read().list(path)
    }

    fn block_locations(&self, path: &HPath, offset: u64, len: u64) -> Result<Vec<Vec<usize>>> {
        self.charge_namenode();
        let ns = self.inner.ns.read();
        let blocks = ns.file(path)?.blocks_in_range(offset, len);
        Ok(blocks.map(|(_, b)| b.replicas.clone()).collect())
    }

    fn content_version(&self, path: &HPath) -> Option<u64> {
        // A version read costs the same namenode round trip as any stat. A
        // file nobody has asked about yet is hashed here, once: its handle
        // is taken under the namenode lock and its bytes hashed after
        // releasing it, so no open, stat or writer waits on a hash.
        self.charge_namenode();
        let files: Vec<(HPath, Arc<DfsFile>)> = {
            let ns = self.inner.ns.read();
            let files = ns.version_inputs(path, Arc::clone)?;
            files.into_iter().map(|(p, f)| (p.clone(), f)).collect()
        };
        let hashed = &self.inner.bytes_hashed;
        let versions: Vec<(&HPath, u64)> = files.iter().map(|(p, f)| (p, f.version(hashed))).collect();
        Some(content_version_of(path, &versions))
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

    /// The write side's handoff, on both in-memory filesystems: a part file
    /// streamed through `SequenceFileOutputFormat` (with or without the
    /// size hint) is `write_seq_file`'s file byte for byte, `write_all` and
    /// `write_owned` append in call order, and an adopted buffer is the
    /// stored block itself.
    #[test]
    fn encoded_files_are_handed_over_not_copied() {
        use hmr_api::conf::JobConf;
        use hmr_api::fs::MemFs;
        use hmr_api::io::seqfile::{file_len, write_seq_file, SequenceFileOutputFormat};
        use hmr_api::io::OutputFormat;
        use hmr_api::writable::{IntWritable, Text};

        let records: Vec<(IntWritable, Text)> = (0..300)
            .map(|i| (IntWritable(i), Text::from(format!("value-{i}"))))
            .collect();
        let len = file_len(records.iter().map(|(k, v)| (k, v)));
        let sim = SimDfs::with_config(Cluster::new(2, CostModel::default()), 1 << 20, 2);
        let filesystems: [(&str, Box<dyn FileSystem>); 2] =
            [("MemFs", Box::new(MemFs::new())), ("SimDfs", Box::new(sim))];
        for (name, fs) in &filesystems {
            let fs = fs.as_ref();
            write_seq_file(fs, &HPath::new("/ref"), &records).unwrap();
            let want = read_file(fs, &HPath::new("/ref")).unwrap();
            for (partition, hint) in [(0, None), (1, Some(len))] {
                let mut conf = JobConf::new();
                conf.set_output_path(&HPath::new("/out"));
                let format = SequenceFileOutputFormat::<IntWritable, Text>::new();
                let mut w = format.record_writer(fs, &conf, partition).unwrap();
                if let Some(len) = hint {
                    w.reserve(len);
                }
                for (k, v) in &records {
                    w.write(k, v).unwrap();
                }
                assert_eq!(w.close().unwrap(), want.len() as u64, "{name}");
                let part = HPath::new(format!("/out/part-{partition:05}"));
                assert_eq!(read_file(fs, &part).unwrap(), want, "{name}, hint {hint:?}");
            }

            let mixed = HPath::new("/mixed");
            let mut w = fs.create(&mixed).unwrap();
            w.write_all(b"head,").unwrap();
            w.write_owned(b"owned,".to_vec()).unwrap();
            w.write_all(b"tail").unwrap();
            assert_eq!(w.close().unwrap(), 15, "{name}");
            let got = read_file(fs, &mixed).unwrap();
            assert_eq!(got, &b"head,owned,tail"[..], "{name}");

            let adopted = HPath::new("/adopted");
            let owned = b"one allocation".to_vec();
            let at = owned.as_ptr();
            let mut w = fs.create(&adopted).unwrap();
            w.write_owned(owned).unwrap();
            w.close().unwrap();
            let stored = fs.open(&adopted).unwrap().read_range(0, 14).unwrap();
            assert_eq!(&stored[..], b"one allocation", "{name}");
            assert_eq!(stored.as_ptr(), at, "{name}: the block is the adopted buffer");
        }
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
        let f = HPath::new("/d/f");
        write_file(&fs, &f, &vec![0u8; 5000]).unwrap();
        let file = Arc::downgrade(fs.inner.ns.read().file(&f).unwrap());
        assert!(fs.delete(&HPath::new("/d"), true).unwrap());
        assert!(file.upgrade().is_none(), "the file and its blocks are freed");
        assert!(!fs.exists(&f));
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
            let ns = fs.inner.ns.read();
            let file = ns.file(&HPath::new("/m")).unwrap();
            file.blocks.iter().map(|b| b.data.clone()).collect()
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
            let file = Arc::downgrade(fs.inner.ns.read().file(&a).unwrap());
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
            assert!(file.upgrade().is_none(), "round {round}: blocks freed");
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
