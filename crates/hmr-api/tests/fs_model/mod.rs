//! A brute-force model of a filesystem's subtree operations, shared by the
//! MemFs suite here and the SimDfs suite in `simdfs` (which includes this
//! file by path).
//!
//! Paths are drawn from components that sort around `/` — `a-b`, `a.b` and
//! `a b` sort between `a` and `a/`, `a0` right after it — up to depth 4,
//! root included. Every expected answer comes from filtering every key with
//! the component-aware [`HPath::starts_with`], never from a key range.

use std::collections::BTreeSet;

use hmr_api::error::HmrError;
use hmr_api::fs::{combine_dir_version, write_file, FileSystem, HPath};
use proptest::prelude::*;

const COMPONENTS: [&str; 6] = ["a", "b", "a-b", "a.b", "a0", "a b"];

/// A path of depth 0 (the root) to 4 over [`COMPONENTS`].
pub fn path_strategy() -> impl Strategy<Value = HPath> {
    proptest::collection::vec(0usize..COMPONENTS.len(), 0..5).prop_map(|cs| {
        HPath::new(
            cs.iter()
                .map(|&c| COMPONENTS[c])
                .collect::<Vec<_>>()
                .join("/"),
        )
    })
}

/// Paths to create, each flagged file (`true`) or directory.
pub fn layout_strategy() -> impl Strategy<Value = Vec<(HPath, bool)>> {
    proptest::collection::vec((path_strategy(), any::<bool>()), 1..12)
}

/// The namespace a layout builds: every key, and which keys are files. A
/// path flagged file that is an ancestor of another drawn path is a
/// directory instead, so no file ever has children.
#[derive(Clone, Debug)]
pub struct Model {
    pub keys: BTreeSet<HPath>,
    pub files: BTreeSet<HPath>,
}

impl Model {
    pub fn new(layout: &[(HPath, bool)]) -> Self {
        let mut m = Model {
            keys: BTreeSet::new(),
            files: BTreeSet::new(),
        };
        for (p, file) in layout {
            m.keys.extend(p.ancestors_inclusive());
            let parent_of_another = layout.iter().any(|(q, _)| q != p && q.starts_with(p));
            if *file && !p.is_root() && !parent_of_another {
                m.files.insert(p.clone());
            }
        }
        m
    }

    /// Every key at or beneath `p`: the brute-force subtree.
    pub fn subtree(&self, p: &HPath) -> Vec<HPath> {
        self.keys
            .iter()
            .filter(|k| k.starts_with(p))
            .cloned()
            .collect()
    }

    fn children(&self, p: &HPath) -> Vec<HPath> {
        self.keys
            .iter()
            .filter(|k| k.parent().as_ref() == Some(p))
            .cloned()
            .collect()
    }

    /// Build the namespace in `fs`. File contents are the path itself.
    pub fn build(&self, fs: &dyn FileSystem) {
        for k in &self.keys {
            if self.files.contains(k) {
                write_file(fs, k, k.as_str().as_bytes()).unwrap();
            } else {
                fs.mkdirs(k).unwrap();
            }
        }
    }

    /// `fs` holds exactly this namespace: every key in `universe` exists
    /// in `fs` iff the model has it, and every model directory lists the
    /// model's children.
    pub fn assert_matches(&self, fs: &dyn FileSystem, universe: &BTreeSet<HPath>, what: &str) {
        for k in universe.iter().chain(&self.keys) {
            assert_eq!(fs.exists(k), self.keys.contains(k), "{what}: exists({k})");
        }
        for k in self.keys.iter().filter(|k| !self.files.contains(*k)) {
            let listed: Vec<HPath> = fs
                .list_status(k)
                .unwrap()
                .into_iter()
                .map(|s| s.path)
                .collect();
            assert_eq!(listed, self.children(k), "{what}: list_status({k})");
        }
    }

    fn remove_subtree(&mut self, p: &HPath) {
        for k in self.subtree(p) {
            self.keys.remove(&k);
            self.files.remove(&k);
        }
    }
}

/// `list_status`, `content_version`, both `delete`s and `rename` on fresh
/// filesystems from `make`, each against the model. The queried path is
/// `drawn` for an even `pick` and one of the layout's keys for an odd one,
/// so half the cases query a subtree that exists.
pub fn check_subtree_ops(
    make: &dyn Fn() -> Box<dyn FileSystem>,
    layout: &[(HPath, bool)],
    drawn: &HPath,
    pick: usize,
    dst: &HPath,
) {
    let model = Model::new(layout);
    let q = match pick % 2 {
        0 => drawn,
        _ => model.keys.iter().nth(pick / 2 % model.keys.len()).unwrap(),
    };
    let mut universe: BTreeSet<HPath> = model.keys.clone();
    universe.insert(q.clone());
    universe.insert(dst.clone());

    // Queries.
    let fs = make();
    model.build(&*fs);
    model.assert_matches(&*fs, &universe, "built");
    match fs.list_status(q) {
        Err(HmrError::NotFound(_)) => assert!(!model.keys.contains(q), "list_status({q})"),
        Ok(listed) => {
            let listed: Vec<HPath> = listed.into_iter().map(|s| s.path).collect();
            let expect = if model.files.contains(q) {
                vec![q.clone()]
            } else {
                model.children(q)
            };
            assert_eq!(listed, expect, "list_status({q})");
        }
        Err(e) => panic!("list_status({q}): {e}"),
    }
    let version = fs.content_version(q);
    if !model.keys.contains(q) {
        assert_eq!(version, None, "content_version({q}) of a missing path");
    } else if !model.files.contains(q) {
        let files: Vec<(HPath, u64)> = model
            .subtree(q)
            .into_iter()
            .filter(|k| model.files.contains(k))
            .map(|k| {
                let v = fs.content_version(&k).expect("files are versioned");
                (k, v)
            })
            .collect();
        let entries: Vec<(&HPath, u64)> = files.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(
            version,
            Some(combine_dir_version(&entries)),
            "content_version({q})"
        );
    }

    // Recursive delete.
    let fs = make();
    model.build(&*fs);
    assert_eq!(
        fs.delete(q, true).unwrap(),
        model.keys.contains(q),
        "delete({q}, true)"
    );
    let mut after = model.clone();
    after.remove_subtree(q);
    after.assert_matches(&*fs, &universe, &format!("after delete({q}, true)"));

    // Non-recursive delete: refused for a directory with children.
    let fs = make();
    model.build(&*fs);
    let got = fs.delete(q, false);
    if model.subtree(q).len() > 1 {
        assert!(got.is_err(), "delete({q}, false) of a non-empty directory");
        model.assert_matches(
            &*fs,
            &universe,
            &format!("after refused delete({q}, false)"),
        );
    } else {
        assert_eq!(got.unwrap(), model.keys.contains(q), "delete({q}, false)");
        after.assert_matches(&*fs, &universe, &format!("after delete({q}, false)"));
    }

    // Rename. Overlapping pairs (one inside the other, the root among
    // them) and destinations beneath a file are not modelled.
    let dst_under_file = dst.parent().is_some_and(|d| {
        d.ancestors_inclusive()
            .iter()
            .any(|a| model.files.contains(a))
    });
    if q.starts_with(dst) || dst.starts_with(q) || dst_under_file {
        return;
    }
    let fs = make();
    model.build(&*fs);
    let got = fs.rename(q, dst);
    if !model.keys.contains(q) {
        assert!(
            matches!(got, Err(HmrError::NotFound(_))),
            "rename({q}, {dst}): {got:?}"
        );
        return;
    }
    if model.keys.contains(dst) {
        assert!(
            matches!(got, Err(HmrError::AlreadyExists(_))),
            "rename({q}, {dst}): {got:?}"
        );
        return;
    }
    got.unwrap();
    let mut after = model.clone();
    after.remove_subtree(q);
    for k in model.subtree(q) {
        let to = HPath::new(format!(
            "{}{}",
            dst.as_str(),
            &k.as_str()[q.as_str().len()..]
        ));
        if model.files.contains(&k) {
            after.files.insert(to.clone());
        }
        universe.insert(to.clone());
        after.keys.insert(to);
    }
    after.keys.extend(dst.ancestors_inclusive());
    after.assert_matches(&*fs, &universe, &format!("after rename({q}, {dst})"));
    for k in &after.files {
        let bytes = fs.open(k).unwrap().read_all().unwrap();
        let from = if k.starts_with(dst) {
            format!("{}{}", q.as_str(), &k.as_str()[dst.as_str().len()..])
        } else {
            k.to_string()
        };
        assert_eq!(
            &bytes[..],
            from.as_bytes(),
            "rename({q}, {dst}) moved {k}'s bytes"
        );
    }
}
