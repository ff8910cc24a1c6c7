//! Abstract hierarchical paths and least-common-ancestor computation.
//!
//! The store is independent of Hadoop (the paper's store takes
//! `java.io.File` values — abstract paths); `KPath` is the same idea with
//! normalized `/a/b/c` strings.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A normalized absolute path.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KPath(String);

impl KPath {
    /// Normalize into an absolute path; empty input becomes `/`.
    pub fn new(s: impl AsRef<str>) -> Self {
        let mut out = String::from("/");
        for comp in s.as_ref().split('/').filter(|c| !c.is_empty() && *c != ".") {
            if !out.ends_with('/') {
                out.push('/');
            }
            out.push_str(comp);
        }
        KPath(out)
    }

    /// The root `/`.
    pub fn root() -> Self {
        KPath("/".into())
    }

    /// String form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for `/`.
    pub fn is_root(&self) -> bool {
        self.0 == "/"
    }

    /// Parent path; `None` at the root.
    pub fn parent(&self) -> Option<KPath> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(KPath::root()),
            Some(i) => Some(KPath(self.0[..i].to_string())),
            None => None,
        }
    }

    /// Final component; `None` at the root.
    pub fn name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.0.rfind('/').map(|i| &self.0[i + 1..])
        }
    }

    /// Append a component.
    pub fn join(&self, child: &str) -> KPath {
        KPath::new(format!("{}/{}", self.0, child))
    }

    /// Component iterator.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// True when `self` is `ancestor` or lies beneath it.
    pub fn starts_with(&self, ancestor: &KPath) -> bool {
        if ancestor.is_root() {
            return true;
        }
        self.0 == ancestor.0
            || (self.0.starts_with(&ancestor.0)
                && self.0.as_bytes().get(ancestor.0.len()) == Some(&b'/'))
    }

    /// The key range of everything strictly beneath `self` in a map ordered
    /// by path: [`self/`, `self0`). `0` is the byte after `/`, so the range
    /// holds exactly the keys that continue `self` with a `/` and no
    /// sibling such as `self.bak` or `self-2`, which sort between `self`
    /// and `self/`. Beneath the root lies every key but the root.
    pub(crate) fn descendants(&self) -> (Bound<KPath>, Bound<KPath>) {
        if self.is_root() {
            return (Bound::Excluded(KPath::root()), Bound::Unbounded);
        }
        (
            Bound::Included(KPath(format!("{}/", self.0))),
            Bound::Excluded(KPath(format!("{}0", self.0))),
        )
    }

    /// All ancestors from the root down to `self` inclusive.
    pub fn ancestors_inclusive(&self) -> Vec<KPath> {
        let mut out = vec![KPath::root()];
        let mut cur = String::new();
        for c in self.components() {
            cur.push('/');
            cur.push_str(c);
            out.push(KPath(cur.clone()));
        }
        out
    }

    /// Least common ancestor of two paths — the pivot of the store's
    /// deadlock-free locking protocol.
    pub fn lca(&self, other: &KPath) -> KPath {
        let mut prefix = String::new();
        for (a, b) in self.components().zip(other.components()) {
            if a != b {
                break;
            }
            prefix.push('/');
            prefix.push_str(a);
        }
        if prefix.is_empty() {
            KPath::root()
        } else {
            KPath(prefix)
        }
    }
}

impl std::fmt::Display for KPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Every entry of `map` at or beneath `p`, in path order: `p` itself, then
/// the range of [`KPath::descendants`]. The store's one subtree query: it
/// visits only the subtree, never a sibling and never the rest of the map.
pub(crate) fn subtree<'m, V>(
    map: &'m BTreeMap<KPath, V>,
    p: &KPath,
) -> impl Iterator<Item = (&'m KPath, &'m V)> {
    map.get_key_value(p)
        .into_iter()
        .chain(map.range(p.descendants()))
}

/// Least common ancestor of a non-empty set of paths.
pub fn lca_all<'a>(paths: impl IntoIterator<Item = &'a KPath>) -> KPath {
    let mut it = paths.into_iter();
    let first = it.next().expect("lca of at least one path");
    it.fold(first.clone(), |acc, p| acc.lca(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lca_basics() {
        let a = KPath::new("/x/y/z");
        let b = KPath::new("/x/y/w");
        assert_eq!(a.lca(&b), KPath::new("/x/y"));
        assert_eq!(a.lca(&KPath::new("/q")), KPath::root());
        assert_eq!(a.lca(&a), a);
        assert_eq!(a.lca(&KPath::new("/x/y")), KPath::new("/x/y"));
        assert_eq!(KPath::root().lca(&a), KPath::root());
    }

    #[test]
    fn lca_all_folds() {
        let paths = [
            KPath::new("/a/b/c"),
            KPath::new("/a/b/d"),
            KPath::new("/a/e"),
        ];
        assert_eq!(lca_all(paths.iter()), KPath::new("/a"));
    }

    #[cfg(test)]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn path_strategy() -> impl Strategy<Value = KPath> {
            proptest::collection::vec("[ab]{1,2}", 0..4).prop_map(|cs| KPath::new(cs.join("/")))
        }

        proptest! {
            #[test]
            fn lca_is_commutative(a in path_strategy(), b in path_strategy()) {
                prop_assert_eq!(a.lca(&b), b.lca(&a));
            }

            #[test]
            fn lca_is_an_ancestor_of_both(a in path_strategy(), b in path_strategy()) {
                let l = a.lca(&b);
                prop_assert!(a.starts_with(&l));
                prop_assert!(b.starts_with(&l));
            }

            #[test]
            fn lca_is_deepest(a in path_strategy(), b in path_strategy()) {
                // No child of the LCA is an ancestor of both.
                let l = a.lca(&b);
                for cand in a.ancestors_inclusive() {
                    if cand.starts_with(&l) && cand != l {
                        prop_assert!(!(a.starts_with(&cand) && b.starts_with(&cand)));
                    }
                }
            }
        }
    }
}
