//! Allocations of a SequenceFile write. A file is encoded once, into one
//! buffer sized from `serialized_size`, and the filesystem stores that
//! buffer: writing `n` records costs the same allocations as storing an
//! already encoded file, whatever `n` is. A buffer that grows, or a
//! filesystem writer that copies it, costs more. It counts through the
//! `counting` module's `#[global_allocator]` and holds a single test, so
//! nothing else allocates while a write is counted.

use hmr_api::fs::write_file;
use hmr_api::io::seqfile::write_seq_file;
use hmr_api::writable::{IntWritable, Text};
use hmr_api::{FileSystem, HPath};
use simdfs::SimDfs;
use simgrid::{Cluster, CostModel};

mod counting;
use counting::allocs;

/// A fresh two-node DFS with 64 MB blocks, so every file here is one block.
fn dfs() -> SimDfs {
    SimDfs::new(Cluster::new(2, CostModel::default()))
}

/// `write_seq_file` on SimDfs makes as many allocations as `write_file` of
/// the same bytes, for 100 records and for 100,000.
#[test]
fn seq_file_writes_allocate_once_whatever_their_length() {
    let path = HPath::new("/data/part-00000");
    let mut counts = Vec::new();
    for n in [100, 100_000] {
        let records: Vec<(IntWritable, Text)> = (0..n)
            .map(|i| (IntWritable(i), Text::from(format!("value-{i}"))))
            .collect();
        let fs = dfs();
        let before = allocs();
        write_seq_file(&fs, &path, &records).unwrap();
        let encoded = allocs() - before;

        let bytes = fs.open(&path).unwrap().read_all().unwrap();
        let fs = dfs();
        let before = allocs();
        write_file(&fs, &path, &bytes).unwrap();
        let stored = allocs() - before;
        assert_eq!(
            encoded, stored,
            "{n} records: encoding and storing made {encoded} allocations, storing encoded bytes {stored}"
        );
        counts.push(encoded);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations for 100 and 100,000 records"
    );
}
