//! The store's subtree operations (`list`, `delete`, `rename`) against a
//! brute-force filter of every key, on paths whose siblings sort inside
//! their prefix: `a-b`, `a.b` and `a b` sort between `a` and `a/`, `a0`
//! right after it. Paths go up to depth 4, root included.

use std::collections::BTreeSet;
use std::sync::Arc;

use kvstore::{KPath, KvError, KvStore};
use proptest::prelude::*;

const COMPONENTS: [&str; 6] = ["a", "b", "a-b", "a.b", "a0", "a b"];

fn path_strategy() -> impl Strategy<Value = KPath> {
    proptest::collection::vec(0usize..COMPONENTS.len(), 0..5).prop_map(|cs| {
        KPath::new(
            cs.iter()
                .map(|&c| COMPONENTS[c])
                .collect::<Vec<_>>()
                .join("/"),
        )
    })
}

/// Every key and which keys are files. A path drawn as a file that is an
/// ancestor of another drawn path is a directory instead.
#[derive(Clone)]
struct Model {
    keys: BTreeSet<KPath>,
    files: BTreeSet<KPath>,
}

impl Model {
    fn new(layout: &[(KPath, bool)]) -> Self {
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

    fn subtree(&self, p: &KPath) -> Vec<KPath> {
        self.keys
            .iter()
            .filter(|k| k.starts_with(p))
            .cloned()
            .collect()
    }

    fn remove_subtree(&mut self, p: &KPath) {
        for k in self.subtree(p) {
            self.keys.remove(&k);
            self.files.remove(&k);
        }
    }

    fn build(&self) -> KvStore<u32> {
        let store = KvStore::new(3);
        for (i, k) in self.keys.iter().enumerate() {
            if self.files.contains(k) {
                store
                    .write_block(i % 3, k, 0, Arc::new(k.to_string()), 1)
                    .unwrap();
            } else {
                store.mkdirs(k).unwrap();
            }
        }
        store
    }

    /// `store` holds exactly this namespace over `universe`, every file
    /// still reads the bytes written at `origin(file)`, and every
    /// directory lists the model's children.
    fn assert_matches(
        &self,
        store: &KvStore<u32>,
        universe: &BTreeSet<KPath>,
        origin: impl Fn(&KPath) -> KPath,
        what: &str,
    ) {
        for k in universe.iter().chain(&self.keys) {
            assert_eq!(
                store.exists(k),
                self.keys.contains(k),
                "{what}: exists({k})"
            );
        }
        for k in &self.keys {
            if self.files.contains(k) {
                let data = store.create_reader(k, &0).unwrap();
                let expect = origin(k).to_string();
                assert_eq!(data.downcast_ref::<String>(), Some(&expect), "{what}: {k}");
            } else {
                let kids: Vec<KPath> = self
                    .keys
                    .iter()
                    .filter(|c| c.parent().as_ref() == Some(k))
                    .cloned()
                    .collect();
                assert_eq!(store.list(k).unwrap(), kids, "{what}: list({k})");
            }
        }
    }
}

/// `list` and `delete` of `q`, against the model.
fn check_list_and_delete(model: &Model, universe: &BTreeSet<KPath>, q: &KPath) {
    let store = model.build();
    model.assert_matches(&store, universe, KPath::clone, "built");
    match store.list(q) {
        Err(KvError::NotFound(_)) => assert!(!model.keys.contains(q), "list({q})"),
        Err(KvError::IsAFile(_)) => assert!(model.files.contains(q), "list({q})"),
        Ok(_) => assert!(
            model.keys.contains(q) && !model.files.contains(q),
            "list({q})"
        ),
        Err(e) => panic!("list({q}): {e}"),
    }

    // The root is never deleted.
    assert_eq!(
        store.delete(q).unwrap(),
        model.keys.contains(q) && !q.is_root(),
        "delete({q})"
    );
    let mut after = model.clone();
    if !q.is_root() {
        after.remove_subtree(q);
    }
    after.assert_matches(
        &store,
        universe,
        KPath::clone,
        &format!("after delete({q})"),
    );
    let blocks: usize = (0..3).map(|p| store.blocks_at(p)).sum();
    assert_eq!(
        blocks,
        after.files.len(),
        "delete({q}) reclaims every block"
    );
}

/// `rename(src, dst)` against the model. The refusals, in order: a
/// missing source, a destination inside the source (the root's case
/// included), an existing destination, a destination beneath a file.
fn check_rename(model: &Model, universe: &mut BTreeSet<KPath>, src: &KPath, dst: &KPath) {
    let store = model.build();
    let got = store.rename(src, dst);
    let dst_under_file = dst.parent().is_some_and(|d| {
        d.ancestors_inclusive()
            .iter()
            .any(|a| model.files.contains(a))
    });
    let refusal = if !model.keys.contains(src) {
        Some(KvError::NotFound(src.clone()))
    } else if dst.starts_with(src) {
        Some(KvError::IntoItself(src.clone()))
    } else if model.keys.contains(dst) {
        Some(KvError::AlreadyExists(dst.clone()))
    } else if dst_under_file {
        let file = dst.ancestors_inclusive().into_iter().find(|a| model.files.contains(a));
        Some(KvError::IsAFile(file.expect("a file above dst")))
    } else {
        None
    };
    if let Some(refusal) = refusal {
        assert_eq!(got, Err(refusal), "rename({src}, {dst})");
        model.assert_matches(&store, universe, KPath::clone, "after a refused rename");
        return;
    }
    got.unwrap();
    let moved = |from: &KPath, to: &KPath, k: &KPath| {
        KPath::new(format!(
            "{}{}",
            to.as_str(),
            &k.as_str()[from.as_str().len()..]
        ))
    };
    let mut after = model.clone();
    after.remove_subtree(src);
    for k in model.subtree(src) {
        let to = moved(src, dst, &k);
        if model.files.contains(&k) {
            after.files.insert(to.clone());
        }
        universe.insert(to.clone());
        after.keys.insert(to);
    }
    after.keys.extend(dst.ancestors_inclusive());
    let origin = |k: &KPath| {
        if k.starts_with(dst) {
            moved(dst, src, k)
        } else {
            k.clone()
        }
    };
    after.assert_matches(
        &store,
        universe,
        origin,
        &format!("after rename({src}, {dst})"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn subtree_ops_match_a_brute_force_filter(
        layout in proptest::collection::vec((path_strategy(), any::<bool>()), 1..12),
        q in path_strategy(),
        pick in 0usize..1024,
        dst in path_strategy(),
    ) {
        let model = Model::new(&layout);
        // Half the cases query one of the layout's keys.
        let q = match pick % 2 {
            0 => q,
            _ => model.keys.iter().nth(pick / 2 % model.keys.len()).unwrap().clone(),
        };
        let mut universe = model.keys.clone();
        universe.insert(q.clone());
        universe.insert(dst.clone());
        check_list_and_delete(&model, &universe, &q);
        check_rename(&model, &mut universe, &q, &dst);
    }
}
