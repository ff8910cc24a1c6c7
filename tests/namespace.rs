//! Every filesystem an engine sees answers namespace operations the way
//! HDFS does.
//!
//! Subtree queries see past siblings that sort inside their prefix. A
//! sibling whose next byte sorts below `/` — `/in.bak`, `/out-2`,
//! `/out.tmp` — lies between `/in` and `/in/` in path order. A subtree
//! query that walks the ordered map from `/in` and stops at the first key
//! outside the subtree never reaches `/in/…`. These pins run every subtree
//! operation of the three filesystems an engine sees (MemFs, SimDfs and the
//! M3R caching wrapper) and a WordCount on both engines beside such
//! siblings.
//!
//! Every filesystem refuses what HDFS refuses: a rename beneath a file or
//! into its own subtree, a file beneath a file, a second writer to one
//! path, and deleting the root. The caching wrapper decides from its merged
//! disk-and-cache view before it touches either side, and the kv-store
//! under it refuses a rename into its own subtree too. One pin per wrong
//! answer, each on every filesystem it affected.

mod common;

use std::sync::Arc;

use hadoop_engine::HadoopEngine;
use hmr_api::counters::task_counter;
use hmr_api::fs::{read_file, write_file, FileSystem, HPath, MemFs};
use hmr_api::job::JobResult;
use hmr_api::writable::IntWritable;
use kvstore::{KPath, KvStore};
use m3r::{CachedSeq, CachingFs, KvCache, M3REngine};
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

// ---------------------------------------------------------------------------
// HDFS's refusals
// ---------------------------------------------------------------------------

/// A caching wrapper over `under`.
fn caching(under: Arc<dyn FileSystem>) -> CachingFs {
    CachingFs::new(under, KvCache::new(2))
}

/// The caching wrapper over each of the two filesystems below it.
fn caching_filesystems() -> Vec<(&'static str, CachingFs)> {
    let (_, dfs) = fresh(2);
    vec![
        ("CachingFs over MemFs", caching(Arc::new(MemFs::new()))),
        ("CachingFs over SimDfs", caching(Arc::new(dfs))),
    ]
}

/// Cache one record at `path` only, the way M3R keeps a temporary output.
fn put_cached(fs: &CachingFs, path: &str) {
    let pair = (Arc::new(IntWritable(1)), Arc::new(IntWritable(1)));
    let seq = Arc::new(CachedSeq::new(vec![pair]));
    fs.cache().put_seq(0, &HPath::new(path), seq, 8).unwrap();
}

fn kinds(fs: &dyn FileSystem, dir: &str) -> Vec<(String, bool)> {
    fs.list_status(&HPath::new(dir))
        .unwrap()
        .into_iter()
        .map(|s| (s.path.to_string(), s.is_dir))
        .collect()
}

#[test]
fn rename_refuses_a_destination_beneath_a_file() {
    for (name, fs) in filesystems() {
        write_file(&*fs, &HPath::new("/a/x"), b"x").unwrap();
        write_file(&*fs, &HPath::new("/f"), b"f").unwrap();
        assert!(
            fs.rename(&HPath::new("/a"), &HPath::new("/f/y")).is_err(),
            "{name}: `/f` is a file"
        );
        assert!(fs.exists(&HPath::new("/a/x")), "{name}: source kept");
        fs.delete(&HPath::new("/f"), false).unwrap();
        assert!(
            !fs.exists(&HPath::new("/f/y/x")),
            "{name}: nothing may outlive the file above it"
        );
    }
}

#[test]
fn rename_refuses_a_destination_inside_its_source() {
    for (name, fs) in filesystems() {
        write_file(&*fs, &HPath::new("/c/x"), b"x").unwrap();
        for (src, dst) in [("/c", "/c/d"), ("/", "/r")] {
            assert!(
                fs.rename(&HPath::new(src), &HPath::new(dst)).is_err(),
                "{name}: rename({src}, {dst})"
            );
        }
        assert!(!fs.exists(&HPath::new("/c/d")), "{name}: `/c/d` created");
        assert!(!fs.exists(&HPath::new("/r")), "{name}: `/r` created");
        assert_eq!(&read_file(&*fs, &HPath::new("/c/x")).unwrap()[..], b"x", "{name}");
    }
}

#[test]
fn recursive_delete_of_the_root_keeps_the_root() {
    for (name, fs) in filesystems() {
        write_file(&*fs, &HPath::new("/a/x"), b"x").unwrap();
        assert!(!fs.delete(&HPath::root(), true).unwrap(), "{name}: nothing removed");
        assert_eq!(kinds(&*fs, "/"), [("/a".to_string(), true)], "{name}");
        assert!(fs.exists(&HPath::new("/a/x")), "{name}");
    }
}

#[test]
fn a_file_beneath_a_file_is_refused() {
    let memfs: Vec<(&str, Arc<dyn FileSystem>)> = vec![
        ("MemFs", Arc::new(MemFs::new())),
        ("CachingFs over MemFs", Arc::new(caching(Arc::new(MemFs::new())))),
    ];
    for (name, fs) in memfs {
        write_file(&*fs, &HPath::new("/g"), b"g").unwrap();
        assert!(
            write_file(&*fs, &HPath::new("/g/h"), b"h").is_err(),
            "{name}: `/g` is a file"
        );
        assert_eq!(kinds(&*fs, "/"), [("/g".to_string(), false)], "{name}");
    }
}

#[test]
fn the_second_of_two_writers_to_one_path_is_refused() {
    let memfs: Vec<(&str, Arc<dyn FileSystem>)> = vec![
        ("MemFs", Arc::new(MemFs::new())),
        ("CachingFs over MemFs", Arc::new(caching(Arc::new(MemFs::new())))),
    ];
    for (name, fs) in memfs {
        let dup = HPath::new("/dup");
        let mut first = fs.create(&dup).unwrap();
        let mut second = fs.create(&dup).unwrap();
        first.write_all(b"first").unwrap();
        second.write_all(b"second").unwrap();
        first.close().unwrap();
        assert!(second.close().is_err(), "{name}: `/dup` exists");
        assert_eq!(&read_file(&*fs, &dup).unwrap()[..], b"first", "{name}");
    }
}

#[test]
fn caching_fs_refused_rename_leaves_the_cache_alone() {
    for (name, fs) in caching_filesystems() {
        put_cached(&fs, "/a/x");
        write_file(&fs, &HPath::new("/b"), b"b").unwrap();
        assert!(
            matches!(
                fs.rename(&HPath::new("/a"), &HPath::new("/b")),
                Err(hmr_api::HmrError::AlreadyExists(_))
            ),
            "{name}"
        );
        assert_eq!(kinds(&fs, "/b"), [("/b".to_string(), false)], "{name}");
        assert!(fs.exists(&HPath::new("/a/x")), "{name}: the cached file moved");
    }
}

#[test]
fn caching_fs_non_recursive_delete_refuses_a_cached_directory_with_children() {
    for (name, fs) in caching_filesystems() {
        put_cached(&fs, "/t/x");
        assert!(
            fs.delete(&HPath::new("/t"), false).is_err(),
            "{name}: `/t` is not empty"
        );
        assert!(fs.exists(&HPath::new("/t/x")), "{name}: `/t/x` removed");
    }
}

#[test]
fn caching_fs_delete_the_disk_refuses_keeps_cached_children() {
    for (name, fs) in caching_filesystems() {
        write_file(&fs, &HPath::new("/d/x"), b"x").unwrap();
        put_cached(&fs, "/d/temp");
        assert!(fs.delete(&HPath::new("/d"), false).is_err(), "{name}");
        for kept in ["/d/x", "/d/temp"] {
            assert!(fs.exists(&HPath::new(kept)), "{name}: {kept} removed");
        }
    }
}

#[test]
fn kvstore_refuses_a_rename_into_its_own_subtree() {
    let store: KvStore<u32> = KvStore::new(2);
    let (c, x) = (KPath::new("/c"), KPath::new("/c/x"));
    store.write_block(0, &x, 0, Arc::new(1u32), 1).unwrap();
    assert!(store.rename(&c, &KPath::new("/c/d")).is_err());
    assert!(store.exists(&c) && store.exists(&x), "`/c` moved away");
    assert!(!store.exists(&KPath::new("/c/d/x")));
}
