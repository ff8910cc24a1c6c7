//! The one path implementation (`KPath`; `hmr-api` compiles the same file
//! as `hmr_api::fs::HPath`) against a `String` reference: every operation,
//! the order, the hash and the subtree query agree with the reference on
//! paths whose siblings sort inside their prefix (`a-b`, `a.b` and `a b` sort between `a` and `a/`,
//! `a0` right after it), at depth 0–4 with the root included, and on messy
//! inputs (empty and `.` components, doubled and trailing slashes, no
//! leading slash). Every view a path hands out — parent, ancestor, LCA —
//! must be indistinguishable from a path built fresh from its text.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use kvstore::path::subtree;
use kvstore::KPath;
use proptest::prelude::*;

const COMPONENTS: [&str; 6] = ["a", "b", "a-b", "a.b", "a0", "a b"];

/// The reference: a path is its normalized `String`.
mod reference {
    pub fn new(s: &str) -> String {
        let comps: Vec<&str> = s
            .split('/')
            .filter(|c| !c.is_empty() && *c != ".")
            .collect();
        format!("/{}", comps.join("/"))
    }

    pub fn components(p: &str) -> Vec<&str> {
        p.split('/').filter(|c| !c.is_empty()).collect()
    }

    fn from_components(comps: &[&str]) -> String {
        format!("/{}", comps.join("/"))
    }

    pub fn parent(p: &str) -> Option<String> {
        let comps = components(p);
        (!comps.is_empty()).then(|| from_components(&comps[..comps.len() - 1]))
    }

    pub fn name(p: &str) -> Option<&str> {
        components(p).last().copied()
    }

    pub fn join(p: &str, child: &str) -> String {
        new(&format!("{p}/{child}"))
    }

    pub fn ancestors_inclusive(p: &str) -> Vec<String> {
        let comps = components(p);
        (0..=comps.len())
            .map(|k| from_components(&comps[..k]))
            .collect()
    }

    pub fn starts_with(p: &str, ancestor: &str) -> bool {
        components(p).starts_with(&components(ancestor))
    }

    pub fn lca(a: &str, b: &str) -> String {
        let (a, b) = (components(a), components(b));
        let n = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        from_components(&a[..n])
    }
}

/// A clean path (`/`-joined alphabet components, root at depth 0) or a
/// messy spelling of one.
fn input_strategy() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        (0usize..COMPONENTS.len()).prop_map(|c| COMPONENTS[c].to_string()),
        Just(String::new()),
        Just(".".to_string()),
    ];
    let clean = collection::vec(0usize..COMPONENTS.len(), 0..5).prop_map(|cs| {
        let comps: Vec<&str> = cs.iter().map(|&c| COMPONENTS[c]).collect();
        format!("/{}", comps.join("/"))
    });
    let messy = (collection::vec(token, 0..6), any::<bool>(), any::<bool>()).prop_map(
        |(tokens, lead, trail)| {
            let body = tokens.join("/");
            format!(
                "{}{body}{}",
                if lead { "/" } else { "" },
                if trail { "/" } else { "" }
            )
        },
    );
    prop_oneof![
        clean,
        messy,
        Just(String::new()),
        Just("//a/./b/".to_string())
    ]
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// `view` is indistinguishable from a path built fresh from its text: it
/// compares, orders and hashes equal to that path, and orders against
/// `other` as that path does.
fn assert_fresh(view: &KPath, other: &KPath) {
    let fresh = KPath::new(view.as_str());
    assert_eq!(view, &fresh);
    assert_eq!(view.cmp(&fresh), Ordering::Equal);
    assert_eq!(hash_of(view), hash_of(&fresh));
    assert_eq!(hash_of(view), hash_of(view.as_str()));
    assert_eq!(view.cmp(other), fresh.cmp(other));
    assert_eq!(view == other, fresh == *other);
    assert_eq!(view.to_string(), fresh.to_string());
    assert_eq!(format!("{view:?}"), format!("{fresh:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn operations_match_the_reference(s in input_strategy(), t in input_strategy(), c in 0usize..COMPONENTS.len()) {
        let (p, q) = (KPath::new(&s), KPath::new(&t));
        let (rp, rq) = (reference::new(&s), reference::new(&t));
        prop_assert_eq!(p.as_str(), rp.as_str());
        prop_assert_eq!(KPath::new(p.as_str()), p.clone());
        prop_assert_eq!(p.is_root(), rp == "/");
        prop_assert_eq!(p.to_string(), rp.clone());
        prop_assert_eq!(format!("{p:?}"), format!("KPath({rp:?})"));
        prop_assert_eq!(hash_of(&p), hash_of(rp.as_str()));
        prop_assert_eq!(p.cmp(&q), rp.cmp(&rq));
        prop_assert_eq!(p == q, rp == rq);
        prop_assert_eq!(p.name(), reference::name(&rp));
        prop_assert_eq!(p.components().collect::<Vec<_>>(), reference::components(&rp));
        prop_assert_eq!(p.starts_with(&q), reference::starts_with(&rp, &rq));
        prop_assert_eq!(p.join(COMPONENTS[c]).as_str(), reference::join(&rp, COMPONENTS[c]));
        prop_assert_eq!(p.join(&t).as_str(), reference::join(&rp, &t));

        let parent = p.parent();
        prop_assert_eq!(parent.as_ref().map(KPath::as_str), reference::parent(&rp).as_deref());
        if let Some(parent) = &parent {
            assert_fresh(parent, &q);
        }
        let ancestors = p.ancestors_inclusive();
        let texts: Vec<&str> = ancestors.iter().map(KPath::as_str).collect();
        prop_assert_eq!(texts, reference::ancestors_inclusive(&rp));
        for a in &ancestors {
            assert_fresh(a, &q);
        }
        let lca = p.lca(&q);
        prop_assert_eq!(lca.as_str(), reference::lca(&rp, &rq));
        prop_assert_eq!(q.lca(&p), lca.clone());
        prop_assert_eq!(lca.lca(&p.join(COMPONENTS[c])), lca.clone());
        assert_fresh(&lca, &q);
    }

    #[test]
    fn subtree_matches_a_filter_over_views(drawn in collection::vec(input_strategy(), 0..8), s in input_strategy()) {
        // Keys are ancestor views of the drawn paths, as a namespace
        // stores a created file's parents.
        let mut map = BTreeMap::new();
        for (i, d) in drawn.iter().enumerate() {
            for a in KPath::new(d).ancestors_inclusive() {
                map.insert(a, i);
            }
        }
        let p = KPath::new(&s);
        let queries = std::iter::once(p.clone()).chain(p.ancestors_inclusive());
        for q in queries {
            let got: Vec<&str> = subtree(&map, &q).map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = map
                .keys()
                .map(KPath::as_str)
                .filter(|k| reference::starts_with(k, q.as_str()))
                .collect();
            prop_assert_eq!(got, want, "subtree of {}", q);
            prop_assert_eq!(map.get(q.as_str()), map.get(&KPath::new(q.as_str())));
        }
    }
}
