//! A stored file costs its length in memory, not its writer's slack. A
//! writer that grows its buffer geometrically (a streamed part file, as the
//! Hadoop reducer writes it) can end with up to twice the file's length in
//! capacity; SimDfs and MemFs give the excess back when they freeze the
//! buffer at `close`. This binary measures the bytes a closed file keeps
//! live through the `counting` module's `#[global_allocator]` and holds a
//! single test, so nothing else allocates while a file is measured.

use hmr_api::fs::MemFs;
use hmr_api::{FileSystem, HPath};

mod common;
mod counting;
use common::fresh;
use counting::live_bytes;

/// Just past 1 MiB: written in 1 000-byte chunks, the writer's buffer
/// doubles to 2 048 000 bytes of capacity.
const LEN: usize = (1 << 20) + 1;

#[test]
fn stored_files_keep_their_length_not_their_writers_capacity() {
    let (_cluster, dfs) = fresh(2);
    let mem = MemFs::new();
    let source = vec![7u8; LEN];
    for (name, fs) in [("simdfs", &dfs as &dyn FileSystem), ("memfs", &mem)] {
        for handed_over in [false, true] {
            let path = HPath::new(format!("/out/{name}-{handed_over}"));
            let before = live_bytes();
            let mut w = fs.create(&path).unwrap();
            if handed_over {
                // An encoder's own buffer with room to spare, adopted whole.
                let mut buf = Vec::with_capacity(2 * LEN);
                buf.extend_from_slice(&source);
                w.write_owned(buf).unwrap();
            } else {
                for chunk in source.chunks(1000) {
                    w.write_all(chunk).unwrap();
                }
            }
            assert_eq!(w.close().unwrap(), LEN as u64);
            let held = live_bytes() - before;
            assert!(
                held <= (LEN + LEN / 64) as u64,
                "{name} (handed over: {handed_over}) keeps {held} bytes live for a {LEN}-byte file"
            );
            assert_eq!(&hmr_api::fs::read_file(fs, &path).unwrap()[..], &source[..]);
        }
    }
}
