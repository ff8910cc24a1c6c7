//! Subtree queries see past siblings that sort inside their prefix.
//!
//! A sibling whose next byte sorts below `/` — `/in.bak`, `/out-2`,
//! `/out.tmp` — lies between `/in` and `/in/` in path order. A subtree
//! query that walks the ordered map from `/in` and stops at the first key
//! outside the subtree never reaches `/in/…`. These pins run every subtree
//! operation of the three filesystems an engine sees (MemFs, SimDfs and the
//! M3R caching wrapper) and a WordCount on both engines beside such
//! siblings.

mod common;

use std::sync::Arc;

use hadoop_engine::HadoopEngine;
use hmr_api::counters::task_counter;
use hmr_api::fs::{read_file, write_file, FileSystem, HPath, MemFs};
use hmr_api::job::JobResult;
use m3r::{CachingFs, KvCache, M3REngine};
use workloads::textgen::generate_text;
use workloads::wordcount::{run_wordcount, WcStyle};

use common::{fresh, part_bytes};

const REDUCERS: usize = 3;

#[derive(Clone, Copy, Debug)]
enum EngineKind {
    M3r,
    Hadoop,
}

/// WordCount over `/in` on a fresh cluster, with `/in.bak` beside it when
/// `sibling` is set. Returns the result and the output part bytes.
fn wordcount(kind: EngineKind, sibling: bool) -> (JobResult, Vec<(String, bytes::Bytes)>) {
    let (cluster, fs) = fresh(3);
    generate_text(&fs, &HPath::new("/in/corpus.txt"), 20_000, 7).unwrap();
    if sibling {
        generate_text(&fs, &HPath::new("/in.bak"), 4_000, 8).unwrap();
    }
    let dfs = Arc::new(fs.clone());
    let (input, output) = (HPath::new("/in"), HPath::new("/out"));
    let result = match kind {
        EngineKind::M3r => run_wordcount(
            &mut M3REngine::new(cluster, dfs),
            WcStyle::ReuseText,
            &input,
            &output,
            REDUCERS,
        ),
        EngineKind::Hadoop => run_wordcount(
            &mut HadoopEngine::new(cluster, dfs),
            WcStyle::ReuseText,
            &input,
            &output,
            REDUCERS,
        ),
    };
    (result.unwrap(), part_bytes(&fs, "/out", REDUCERS))
}

fn assert_sibling_is_invisible(kind: EngineKind) {
    let (alone, alone_out) = wordcount(kind, false);
    let (beside, beside_out) = wordcount(kind, true);
    let read = |r: &JobResult| r.counters.task(task_counter::MAP_INPUT_RECORDS);
    assert!(read(&alone) > 0, "{kind:?}: the corpus has records");
    assert_eq!(
        read(&beside),
        read(&alone),
        "{kind:?}: `/in.bak` must not hide `/in`'s records"
    );
    assert_eq!(beside.counters, alone.counters, "{kind:?}: counters");
    assert!(!beside_out.is_empty(), "{kind:?}: no output written");
    assert_eq!(beside_out, alone_out, "{kind:?}: output part bytes");
}

#[test]
fn m3r_wordcount_reads_its_input_beside_a_sibling_that_sorts_inside_it() {
    assert_sibling_is_invisible(EngineKind::M3r);
}

#[test]
fn hadoop_wordcount_reads_its_input_beside_a_sibling_that_sorts_inside_it() {
    assert_sibling_is_invisible(EngineKind::Hadoop);
}

/// The filesystems under test, each fresh: MemFs, SimDfs, and the M3R
/// caching wrapper over a SimDfs.
fn filesystems() -> Vec<(&'static str, Arc<dyn FileSystem>)> {
    let (_, dfs) = fresh(2);
    let (_, under) = fresh(2);
    let cached = CachingFs::new(Arc::new(under), KvCache::new(2));
    vec![
        ("MemFs", Arc::new(MemFs::new())),
        ("SimDfs", Arc::new(dfs)),
        ("CachingFs", Arc::new(cached)),
    ]
}

/// `/out` with two parts, beside `/out-2/part-00000` and the file
/// `/out.tmp`.
fn out_beside_siblings(fs: &dyn FileSystem) {
    for (p, bytes) in [
        ("/out/part-00000", &b"zero"[..]),
        ("/out/part-00001", b"one"),
        ("/out-2/part-00000", b"other"),
        ("/out.tmp", b"tmp"),
    ] {
        write_file(fs, &HPath::new(p), bytes).unwrap();
    }
}

fn names(fs: &dyn FileSystem, dir: &str) -> Vec<String> {
    fs.list_status(&HPath::new(dir))
        .unwrap()
        .into_iter()
        .map(|s| s.path.to_string())
        .collect()
}

#[test]
fn list_status_lists_children_beside_siblings() {
    for (name, fs) in filesystems() {
        out_beside_siblings(&*fs);
        assert_eq!(
            names(&*fs, "/out"),
            ["/out/part-00000", "/out/part-00001"],
            "{name}"
        );
        assert_eq!(names(&*fs, "/"), ["/out", "/out-2", "/out.tmp"], "{name}");
    }
}

#[test]
fn content_version_covers_children_beside_siblings() {
    for (name, fs) in filesystems() {
        out_beside_siblings(&*fs);
        let out = HPath::new("/out");
        let before = fs.content_version(&out).expect("versioned");
        let part = HPath::new("/out/part-00001");
        fs.delete(&part, false).unwrap();
        write_file(&*fs, &part, b"changed").unwrap();
        let after = fs.content_version(&out).expect("versioned");
        assert_ne!(
            before, after,
            "{name}: a changed part must change `/out`'s version"
        );
        let sibling = HPath::new("/out.tmp");
        fs.delete(&sibling, false).unwrap();
        write_file(&*fs, &sibling, b"changed").unwrap();
        assert_eq!(
            fs.content_version(&out),
            Some(after),
            "{name}: a sibling is not part of `/out`"
        );
    }
}

#[test]
fn recursive_delete_removes_children_beside_siblings() {
    for (name, fs) in filesystems() {
        out_beside_siblings(&*fs);
        assert!(fs.delete(&HPath::new("/out"), true).unwrap(), "{name}");
        for gone in ["/out", "/out/part-00000", "/out/part-00001"] {
            assert!(!fs.exists(&HPath::new(gone)), "{name}: {gone} left behind");
        }
        for kept in ["/out-2/part-00000", "/out.tmp"] {
            assert!(
                fs.exists(&HPath::new(kept)),
                "{name}: sibling {kept} deleted"
            );
        }
    }
}

#[test]
fn non_recursive_delete_of_a_non_empty_dir_beside_siblings_fails() {
    for (name, fs) in filesystems() {
        out_beside_siblings(&*fs);
        assert!(
            fs.delete(&HPath::new("/out"), false).is_err(),
            "{name}: `/out` is not empty"
        );
        for kept in ["/out", "/out/part-00000", "/out/part-00001"] {
            assert!(
                fs.exists(&HPath::new(kept)),
                "{name}: {kept} orphaned or removed"
            );
        }
    }
}

#[test]
fn rename_moves_children_beside_siblings() {
    for (name, fs) in filesystems() {
        write_file(&*fs, &HPath::new("/a/x"), b"x").unwrap();
        write_file(&*fs, &HPath::new("/a-b/y"), b"y").unwrap();
        fs.rename(&HPath::new("/a"), &HPath::new("/z")).unwrap();
        assert!(
            !fs.exists(&HPath::new("/a/x")),
            "{name}: `/a/x` stayed behind"
        );
        assert_eq!(
            &read_file(&*fs, &HPath::new("/z/x")).unwrap()[..],
            b"x",
            "{name}"
        );
        assert_eq!(
            &read_file(&*fs, &HPath::new("/a-b/y")).unwrap()[..],
            b"y",
            "{name}"
        );
    }
}
