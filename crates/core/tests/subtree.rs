//! The cache governor's subtree operations (`KvCache::delete` and
//! `rename`) against a brute-force filter of every entry, on paths whose
//! siblings sort inside their prefix: `a-b`, `a.b` and `a b` sort between
//! `a` and `a/`, `a0` right after it. Paths go up to depth 4, root
//! included. Reads go through `get_seq`, which answers from the governor's
//! entries, and `total_bytes`, which the governor's forgets shrink.

use std::collections::BTreeMap;
use std::sync::Arc;

use hmr_api::writable::IntWritable;
use hmr_api::HPath;
use kvstore::KvError;
use m3r::{CachedSeq, KvCache};
use proptest::prelude::*;

const COMPONENTS: [&str; 6] = ["a", "b", "a-b", "a.b", "a0", "a b"];

fn path_strategy() -> impl Strategy<Value = HPath> {
    proptest::collection::vec(0usize..COMPONENTS.len(), 0..5).prop_map(|cs| {
        HPath::new(
            cs.iter()
                .map(|&c| COMPONENTS[c])
                .collect::<Vec<_>>()
                .join("/"),
        )
    })
}

/// Cached files, each holding one pair `(i, i)` and weighing `10 * i`
/// bytes. Drawn paths that are the root or an ancestor of another drawn
/// path are left out, so no cached file has children.
fn files_of(drawn: &[HPath]) -> BTreeMap<HPath, i32> {
    let leaves = drawn
        .iter()
        .filter(|p| !p.is_root() && !drawn.iter().any(|q| q != *p && q.starts_with(p)));
    leaves.zip(1..).map(|(p, i)| (p.clone(), i)).collect()
}

fn build(files: &BTreeMap<HPath, i32>) -> KvCache {
    let cache = KvCache::new(3);
    for (p, &i) in files {
        let pair = (Arc::new(IntWritable(i)), Arc::new(IntWritable(i)));
        let seq = Arc::new(CachedSeq::new(vec![pair]));
        cache
            .put_seq(i as usize % 3, p, seq, 10 * i as u64)
            .unwrap();
    }
    cache
}

/// The cache holds exactly `files` (each reading its own pair) and none of
/// `gone`, and accounts exactly their bytes.
fn assert_holds(cache: &KvCache, files: &BTreeMap<HPath, i32>, gone: &[HPath], what: &str) {
    for (p, &i) in files {
        let hit = cache.get_seq::<IntWritable, IntWritable>(p, Some(10 * i as u64));
        let got = hit.map(|h| h.seq.pairs[0].0 .0);
        assert_eq!(got, Some(i), "{what}: {p} must read its pair");
    }
    for p in gone.iter().filter(|p| !files.contains_key(*p)) {
        assert!(
            cache.get_seq::<IntWritable, IntWritable>(p, None).is_none(),
            "{what}: {p} must be gone"
        );
    }
    let bytes: u64 = files.values().map(|&i| 10 * i as u64).sum();
    assert_eq!(cache.total_bytes(), bytes, "{what}: accounted bytes");
}

/// `delete(q)` against the filter. The root is never deleted.
fn check_delete(files: &BTreeMap<HPath, i32>, q: &HPath) {
    let cache = build(files);
    let doomed = |f: &HPath| f.starts_with(q) && !q.is_root();
    let present = files.keys().any(doomed);
    assert_eq!(cache.delete(q), present, "delete({q})");
    let kept: BTreeMap<HPath, i32> = files
        .iter()
        .filter(|(f, _)| !doomed(f))
        .map(|(f, i)| (f.clone(), *i))
        .collect();
    let gone: Vec<HPath> = files.keys().cloned().collect();
    assert_holds(&cache, &kept, &gone, &format!("after delete({q})"));
    for f in files.keys().filter(|f| doomed(f)) {
        for a in f.ancestors_inclusive().iter().filter(|a| a.starts_with(q)) {
            assert!(
                !cache.contains(a),
                "after delete({q}): {a} is left in the store"
            );
        }
    }
}

/// `rename(src, dst)` against the filter. The refusals, in order: a
/// missing source, a destination inside the source (the root's case
/// included), an existing destination, a destination beneath a file.
fn check_rename(files: &BTreeMap<HPath, i32>, src: &HPath, dst: &HPath) {
    let cache = build(files);
    let exists = |p: &HPath| p.is_root() || files.keys().any(|f| f.starts_with(p));
    let dst_under_file = dst.parent().is_some_and(|d| {
        d.ancestors_inclusive()
            .iter()
            .any(|a| files.contains_key(a))
    });
    let got = cache.rename(src, dst);
    if !exists(src) {
        assert_eq!(
            got,
            Err(KvError::NotFound(kvstore::KPath::new(src.as_str())))
        );
    } else if dst.starts_with(src) {
        assert_eq!(
            got,
            Err(KvError::IntoItself(kvstore::KPath::new(src.as_str())))
        );
    } else if exists(dst) {
        assert!(
            matches!(got, Err(KvError::AlreadyExists(_))),
            "rename({src}, {dst}): {got:?}"
        );
    } else if dst_under_file {
        assert!(
            matches!(got, Err(KvError::IsAFile(_))),
            "rename({src}, {dst}): {got:?}"
        );
    } else {
        got.unwrap();
        let moved: BTreeMap<HPath, i32> = files
            .iter()
            .map(|(f, i)| {
                let to = if f.starts_with(src) {
                    HPath::new(format!(
                        "{}{}",
                        dst.as_str(),
                        &f.as_str()[src.as_str().len()..]
                    ))
                } else {
                    f.clone()
                };
                (to, *i)
            })
            .collect();
        let gone: Vec<HPath> = files.keys().cloned().collect();
        assert_holds(
            &cache,
            &moved,
            &gone,
            &format!("after rename({src}, {dst})"),
        );
        // The governor forgets the moved entries under their new names.
        cache.delete(dst);
        let kept: BTreeMap<HPath, i32> = files
            .iter()
            .filter(|(f, _)| !f.starts_with(src))
            .map(|(f, i)| (f.clone(), *i))
            .collect();
        assert_holds(
            &cache,
            &kept,
            &gone,
            &format!("after rename({src}, {dst}) and delete"),
        );
        return;
    }
    assert_holds(
        &cache,
        files,
        &[],
        &format!("after a refused rename({src}, {dst})"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_delete_and_rename_match_a_brute_force_filter(
        drawn in proptest::collection::vec(path_strategy(), 1..12),
        q in path_strategy(),
        pick in 0usize..1024,
        dst in path_strategy(),
    ) {
        let files = files_of(&drawn);
        // Half the cases query one of the drawn paths or an ancestor.
        let q = match pick % 2 {
            0 => q,
            _ => {
                let p = &drawn[pick / 2 % drawn.len()];
                p.ancestors_inclusive().swap_remove(pick / 8 % (p.components().count() + 1))
            }
        };
        check_delete(&files, &q);
        check_rename(&files, &q, &dst);
    }
}
