//! A brute-force model of a filesystem namespace with HDFS's rules, shared
//! by the MemFs suite here, the SimDfs suite in `simdfs` and the
//! `CachingFs` / kv-store suite in `m3r` (which include this file by path).
//!
//! Paths are drawn from components that sort around `/` — `a-b`, `a.b` and
//! `a b` sort between `a` and `a/`, `a0` right after it — up to depth 4,
//! root included. Every expected answer comes from filtering every key with
//! the component-aware [`HPath::starts_with`], never from a key range, and
//! every refusal from the rules below, never from the code under test:
//! - a file is created only where nothing exists and no file lies above;
//! - `mkdirs` refuses a file at or above its path;
//! - `delete` refuses a non-empty directory unless recursive, and never
//!   removes the root;
//! - `rename` refuses, in order: a missing source, a destination inside
//!   the source (the root's case included), an existing destination, and
//!   a destination beneath a file.
//!
//! After every operation the whole tree is compared, and the invariant
//! checked: every non-root path that exists has a parent directory.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

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

/// The answer to one operation: its value, or the kind of its error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Done,
    Removed(bool),
    /// `(path, is_dir, len)` per listed entry, in path order.
    Listed(Vec<(HPath, bool, u64)>),
    NotFound,
    AlreadyExists,
    /// Any other refusal.
    Refused,
}

/// `r` as an [`Outcome`], its value mapped by `ok`.
pub fn outcome<T>(r: hmr_api::error::Result<T>, ok: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => ok(v),
        Err(HmrError::NotFound(_)) => Outcome::NotFound,
        Err(HmrError::AlreadyExists(_)) => Outcome::AlreadyExists,
        Err(_) => Outcome::Refused,
    }
}

/// A namespace: every key, and each file's length.
#[derive(Clone, Debug)]
pub struct Model {
    pub keys: BTreeSet<HPath>,
    pub files: BTreeMap<HPath, u64>,
}

impl Model {
    /// The namespace a layout builds. A path flagged file that is the root
    /// or an ancestor of another drawn path is a directory instead, so no
    /// file ever has children. A file's length is its path's.
    pub fn new(layout: &[(HPath, bool)]) -> Self {
        let mut m = Model {
            keys: BTreeSet::from([HPath::root()]),
            files: BTreeMap::new(),
        };
        for (p, file) in layout {
            m.keys.extend(p.ancestors_inclusive());
            let parent_of_another = layout.iter().any(|(q, _)| q != p && q.starts_with(p));
            if *file && !p.is_root() && !parent_of_another {
                m.files.insert(p.clone(), p.as_str().len() as u64);
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

    fn children(&self, p: &HPath) -> Vec<(HPath, bool, u64)> {
        self.keys
            .iter()
            .filter(|k| k.parent().as_ref() == Some(p))
            .map(|k| self.entry(k))
            .collect()
    }

    fn entry(&self, k: &HPath) -> (HPath, bool, u64) {
        match self.files.get(k) {
            Some(&len) => (k.clone(), false, len),
            None => (k.clone(), true, 0),
        }
    }

    /// True when a file lies strictly above `p`.
    fn file_above(&self, p: &HPath) -> bool {
        self.files.keys().any(|f| f != p && p.starts_with(f))
    }

    /// Build the namespace in `fs`. File contents are the path itself.
    pub fn build(&self, fs: &dyn FileSystem) {
        for k in &self.keys {
            if self.files.contains_key(k) {
                write_file(fs, k, k.as_str().as_bytes()).unwrap();
            } else {
                fs.mkdirs(k).unwrap();
            }
        }
    }

    /// `fs` holds exactly this namespace: every key in `universe` has the
    /// model's status in `fs` (absent, directory, or file of the model's
    /// length), every model directory lists the model's children, and
    /// every path `fs` holds has a parent directory.
    pub fn assert_matches(&self, fs: &dyn FileSystem, universe: &BTreeSet<HPath>, what: &str) {
        let status = |k: &HPath| fs.get_file_status(k).ok().map(|s| (s.is_dir, s.len));
        for k in universe.iter().chain(&self.keys) {
            let want = self.keys.contains(k).then(|| {
                let (_, is_dir, len) = self.entry(k);
                (is_dir, len)
            });
            assert_eq!(status(k), want, "{what}: status({k})");
            if let (Some(_), Some(parent)) = (want, k.parent()) {
                assert_eq!(status(&parent), Some((true, 0)), "{what}: parent of {k}");
            }
        }
        for k in self.keys.iter().filter(|k| !self.files.contains_key(*k)) {
            let listed = outcome(fs.list_status(k), listed);
            assert_eq!(listed, Outcome::Listed(self.children(k)), "{what}: list_status({k})");
        }
    }

    fn remove_subtree(&mut self, p: &HPath) {
        for k in self.subtree(p) {
            self.keys.remove(&k);
            self.files.remove(&k);
        }
    }

    // -- The operations, by HDFS's rules -----------------------------------

    /// Create the file `p` of `len` bytes.
    pub fn write(&mut self, p: &HPath, len: u64) -> Outcome {
        if self.keys.contains(p) {
            return Outcome::AlreadyExists;
        }
        if self.file_above(p) {
            return Outcome::Refused;
        }
        self.keys.extend(p.ancestors_inclusive());
        self.files.insert(p.clone(), len);
        Outcome::Done
    }

    pub fn mkdirs(&mut self, p: &HPath) -> Outcome {
        if self.files.contains_key(p) || self.file_above(p) {
            return Outcome::Refused;
        }
        self.keys.extend(p.ancestors_inclusive());
        Outcome::Done
    }

    pub fn delete(&mut self, p: &HPath, recursive: bool) -> Outcome {
        if !self.keys.contains(p) {
            return Outcome::Removed(false);
        }
        if !recursive && self.subtree(p).len() > 1 {
            return Outcome::Refused;
        }
        if p.is_root() {
            return Outcome::Removed(false);
        }
        self.remove_subtree(p);
        Outcome::Removed(true)
    }

    pub fn rename(&mut self, src: &HPath, dst: &HPath) -> Outcome {
        if !self.keys.contains(src) {
            return Outcome::NotFound;
        }
        if dst.starts_with(src) {
            return Outcome::Refused;
        }
        if self.keys.contains(dst) {
            return Outcome::AlreadyExists;
        }
        if self.file_above(dst) {
            return Outcome::Refused;
        }
        let before = self.clone();
        self.remove_subtree(src);
        for k in before.subtree(src) {
            let to = HPath::new(format!("{dst}{}", &k.as_str()[src.as_str().len()..]));
            if let Some(&len) = before.files.get(&k) {
                self.files.insert(to.clone(), len);
            }
            self.keys.insert(to);
        }
        self.keys.extend(dst.ancestors_inclusive());
        Outcome::Done
    }

    pub fn list(&self, p: &HPath) -> Outcome {
        if !self.keys.contains(p) {
            Outcome::NotFound
        } else if self.files.contains_key(p) {
            Outcome::Listed(vec![self.entry(p)])
        } else {
            Outcome::Listed(self.children(p))
        }
    }
}

fn listed(statuses: Vec<hmr_api::fs::FileStatus>) -> Outcome {
    Outcome::Listed(
        statuses
            .into_iter()
            .map(|s| (s.path, s.is_dir, s.len))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Static layouts: every subtree operation once
// ---------------------------------------------------------------------------

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
    assert_eq!(outcome(fs.list_status(q), listed), model.list(q), "list_status({q})");
    let version = fs.content_version(q);
    if !model.keys.contains(q) {
        assert_eq!(version, None, "content_version({q}) of a missing path");
    } else if !model.files.contains_key(q) {
        let files: Vec<(HPath, u64)> = model
            .subtree(q)
            .into_iter()
            .filter(|k| model.files.contains_key(k))
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

    // Both deletes.
    for recursive in [true, false] {
        let fs = make();
        model.build(&*fs);
        let mut after = model.clone();
        let want = after.delete(q, recursive);
        let got = outcome(fs.delete(q, recursive), Outcome::Removed);
        let what = format!("delete({q}, {recursive})");
        assert_eq!(got, want, "{what}");
        after.assert_matches(&*fs, &universe, &format!("after {what}"));
    }

    // Rename, refusals included.
    let fs = make();
    model.build(&*fs);
    let mut after = model.clone();
    let want = after.rename(q, dst);
    assert_eq!(outcome(fs.rename(q, dst), |()| Outcome::Done), want, "rename({q}, {dst})");
    universe.extend(after.keys.iter().cloned());
    after.assert_matches(&*fs, &universe, &format!("after rename({q}, {dst})"));
    for k in after.files.keys() {
        let bytes = fs.open(k).unwrap().read_all().unwrap();
        let from = match k.starts_with(dst) && want == Outcome::Done {
            true => format!("{q}{}", &k.as_str()[dst.as_str().len()..]),
            false => k.to_string(),
        };
        assert_eq!(&bytes[..], from.as_bytes(), "rename({q}, {dst}) moved {k}'s bytes");
    }
}

// ---------------------------------------------------------------------------
// Op sequences
// ---------------------------------------------------------------------------

/// A path an operation acts on, resolved against the model when it runs:
/// by `pick % 3`, the drawn path, an existing key, or a child of one (a
/// child of a file, when the key is one).
#[derive(Clone, Debug)]
pub struct Target {
    drawn: HPath,
    pick: usize,
}

impl Target {
    fn resolve(&self, model: &Model) -> HPath {
        let key = model.keys.iter().nth(self.pick / 3 % model.keys.len()).unwrap();
        match self.pick % 3 {
            0 => self.drawn.clone(),
            1 => key.clone(),
            _ => key.join(COMPONENTS[self.pick / 7 % COMPONENTS.len()]),
        }
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Write(Target),
    /// A cache-only write where the filesystem has a cache; a plain write
    /// elsewhere.
    Put(Target),
    Mkdirs(Target),
    Delete(Target, bool),
    Rename(Target, Target),
    List(Target),
}

fn target_strategy() -> impl Strategy<Value = Target> {
    (path_strategy(), 0usize..4096).prop_map(|(drawn, pick)| Target { drawn, pick })
}

/// Sequences of up to 24 operations.
pub fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        target_strategy().prop_map(Op::Write),
        target_strategy().prop_map(Op::Put),
        target_strategy().prop_map(Op::Mkdirs),
        (target_strategy(), any::<bool>()).prop_map(|(t, r)| Op::Delete(t, r)),
        (target_strategy(), target_strategy()).prop_map(|(s, d)| Op::Rename(s, d)),
        target_strategy().prop_map(Op::List),
    ];
    proptest::collection::vec(op, 1..25)
}

/// Caches a file of the given length at a path, bypassing the disk.
pub type Put<'a> = &'a dyn Fn(&HPath, u64);

/// Run `ops` on `fs`, which starts empty, and on the model side by side,
/// comparing every answer and then the whole tree.
///
/// `put(p, len)` caches a `len`-byte file at `p` without touching the
/// underlying filesystem. It runs where the model accepts a new file, and
/// over an existing file, which a cache mirrors without changing the
/// namespace. A write over a file held only in the cache replaces it: the
/// cache may hold entries whose bytes left the disk behind its back, so a
/// fresh byte-level write invalidates the cached copy. Without `put`, a
/// [`Op::Put`] is a plain write.
pub fn check_op_sequence(fs: &dyn FileSystem, put: Option<Put<'_>>, ops: &[Op]) {
    let mut model = Model::new(&[]);
    let mut universe = model.keys.clone();
    let mut cached_only = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        let len = i as u64 + 1;
        let write = |p: &HPath| outcome(write_file(fs, p, &vec![b'x'; len as usize]), |()| Outcome::Done);
        let (what, paths, got, want) = match op {
            Op::Write(t) | Op::Put(t) => {
                let p = t.resolve(&model);
                let put = put.filter(|_| matches!(op, Op::Put(_)));
                let (got, want) = match (put, model.files.get(&p).copied()) {
                    (Some(put), Some(len)) => {
                        put(&p, len);
                        (Outcome::Done, Outcome::Done)
                    }
                    (Some(put), None) if model.write(&p, len) == Outcome::Done => {
                        put(&p, len);
                        cached_only.insert(p.clone());
                        (Outcome::Done, Outcome::Done)
                    }
                    (None, Some(_)) if cached_only.remove(&p) => {
                        model.files.insert(p.clone(), len);
                        (write(&p), Outcome::Done)
                    }
                    _ => (write(&p), model.write(&p, len)),
                };
                (format!("write({p})"), vec![p], got, want)
            }
            Op::Mkdirs(t) => {
                let p = t.resolve(&model);
                let got = outcome(fs.mkdirs(&p), |()| Outcome::Done);
                (format!("mkdirs({p})"), vec![p.clone()], got, model.mkdirs(&p))
            }
            Op::Delete(t, recursive) => {
                let p = t.resolve(&model);
                let got = outcome(fs.delete(&p, *recursive), Outcome::Removed);
                let want = model.delete(&p, *recursive);
                if want == Outcome::Removed(true) {
                    cached_only.retain(|k: &HPath| !k.starts_with(&p));
                }
                (format!("delete({p}, {recursive})"), vec![p], got, want)
            }
            Op::Rename(s, d) => {
                let (src, dst) = (s.resolve(&model), d.resolve(&model));
                let got = outcome(fs.rename(&src, &dst), |()| Outcome::Done);
                let want = model.rename(&src, &dst);
                if want == Outcome::Done {
                    let moved = |k: HPath| match k.starts_with(&src) {
                        true => HPath::new(format!("{dst}{}", &k.as_str()[src.as_str().len()..])),
                        false => k,
                    };
                    cached_only = cached_only.into_iter().map(moved).collect();
                }
                (format!("rename({src}, {dst})"), vec![src, dst], got, want)
            }
            Op::List(t) => {
                let p = t.resolve(&model);
                let got = outcome(fs.list_status(&p), listed);
                (format!("list_status({p})"), vec![p.clone()], got, model.list(&p))
            }
        };
        assert_eq!(got, want, "step {i}: {what}");
        universe.extend(model.keys.iter().cloned());
        universe.extend(paths.iter().flat_map(|p| p.ancestors_inclusive()));
        model.assert_matches(fs, &universe, &format!("after step {i}: {what}"));
    }
}
