//! Per-path locks with two-phase locking and the LCA acquisition protocol.
//!
//! The paper's implementation "atomically swaps out the entry with a
//! special lock entry (or inserts it if there was nothing there
//! beforehand). If the entry is already a lock entry, it (carefully) swaps
//! in a heavier weight monitor entry that it then blocks on." This port
//! uses a lock table with a condvar — the same two states (fast uncontended
//! path, blocking monitor on contention) without the swap dance Rust does
//! not need.
//!
//! Deadlock freedom comes from the acquisition discipline, enforced here at
//! runtime: an operation declares every path it will touch up front;
//! [`LockManager::lock_set`] locks the set's least common ancestor first
//! and then the remaining paths in sorted order. Because every operation
//! serializes on the LCA before touching descendants, two operations whose
//! path sets overlap always contend on a common ancestor first — no cycle
//! can form.

use std::collections::HashSet;

use parking_lot::{Condvar, Mutex};

use crate::path::KPath;

#[derive(Default)]
struct TableState {
    held: HashSet<KPath>,
}

/// The lock table shared by all operations on one store.
#[derive(Default)]
pub struct LockManager {
    state: Mutex<TableState>,
    released: Condvar,
}

impl LockManager {
    /// An empty table.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Acquire locks for an operation touching `paths` (2PL growing phase,
    /// all at once). The returned guard releases everything on drop (the
    /// shrinking phase). Locks are taken LCA-first, then in sorted order.
    pub fn lock_set(&self, mut paths: Vec<KPath>) -> LockSet<'_> {
        assert!(!paths.is_empty(), "an operation must lock at least one path");
        paths.sort();
        paths.dedup();
        // The LCA is a prefix of every path, so it sorts first.
        let lca = paths[1..].iter().fold(paths[0].clone(), |acc, p| acc.lca(p));
        if paths[0] != lca {
            paths.insert(0, lca);
        }

        // Acquire atomically: wait until the whole ordered set is free,
        // then take it. Waiting on the full set (rather than lock-by-lock)
        // preserves the protocol's no-deadlock guarantee under a single
        // table mutex while keeping the hold pattern identical.
        let mut st = self.state.lock();
        loop {
            if paths.iter().all(|p| !st.held.contains(p)) {
                for p in &paths {
                    st.held.insert(p.clone());
                }
                return LockSet { mgr: self, paths };
            }
            self.released.wait(&mut st);
        }
    }

    /// Number of currently held path locks (diagnostics/tests).
    pub fn held_count(&self) -> usize {
        self.state.lock().held.len()
    }
}

/// Guard owning an operation's locks; drop releases them all.
pub struct LockSet<'a> {
    mgr: &'a LockManager,
    paths: Vec<KPath>,
}

impl LockSet<'_> {
    /// The locked paths (LCA first).
    pub fn paths(&self) -> &[KPath] {
        &self.paths
    }

    /// Runtime check of the paper's protocol: a task acquiring `extra`
    /// while holding this set must already hold `lca(extra, each held)`.
    #[cfg(test)]
    fn protocol_allows(&self, extra: &KPath) -> bool {
        self.paths
            .iter()
            .all(|held| self.paths.contains(&extra.lca(held)))
    }
}

impl Drop for LockSet<'_> {
    fn drop(&mut self) {
        let mut st = self.mgr.state.lock();
        for p in &self.paths {
            st.held.remove(p);
        }
        self.mgr.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_set_includes_lca_first() {
        let mgr = LockManager::new();
        let guard = mgr.lock_set(vec![KPath::new("/a/b/x"), KPath::new("/a/b/y")]);
        assert_eq!(guard.paths()[0], KPath::new("/a/b"), "LCA locked first");
        assert_eq!(guard.paths().len(), 3);
        drop(guard);
        assert_eq!(mgr.held_count(), 0);
        let chain = KPath::new("/a/b/x").ancestors_inclusive();
        assert_eq!(
            mgr.lock_set(chain.clone()).paths(),
            chain,
            "a chain is its own order"
        );
    }

    #[test]
    fn conflicting_sets_serialize() {
        let mgr = Arc::new(LockManager::new());
        let in_critical = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let mgr = Arc::clone(&mgr);
                let in_critical = Arc::clone(&in_critical);
                s.spawn(move || {
                    for _ in 0..200 {
                        let shared = KPath::new("/shared/file");
                        let _g = mgr.lock_set(vec![shared]);
                        let v = in_critical.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(v, 0, "mutual exclusion violated");
                        in_critical.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(mgr.held_count(), 0);
    }

    #[test]
    fn disjoint_subtrees_do_not_block_each_other() {
        // /a/x and /b/y have LCA "/" — they do contend on the root lock
        // briefly, but both proceed; this checks liveness.
        let mgr = Arc::new(LockManager::new());
        std::thread::scope(|s| {
            for i in 0..16 {
                let mgr = Arc::clone(&mgr);
                s.spawn(move || {
                    let p = KPath::new(format!("/tree{}/leaf", i % 4));
                    for _ in 0..100 {
                        let _g = mgr.lock_set(vec![p.clone()]);
                    }
                });
            }
        });
        assert_eq!(mgr.held_count(), 0);
    }

    #[test]
    fn rename_style_cross_sets_never_deadlock() {
        // Classic deadlock shape: op1 locks (a, b), op2 locks (b, a).
        // Under the LCA-first discipline both serialize on "/".
        let mgr = Arc::new(LockManager::new());
        let a = KPath::new("/dir1/f");
        let b = KPath::new("/dir2/f");
        std::thread::scope(|s| {
            for flip in 0..2 {
                for _ in 0..4 {
                    let mgr = Arc::clone(&mgr);
                    let (x, y) = if flip == 0 {
                        (a.clone(), b.clone())
                    } else {
                        (b.clone(), a.clone())
                    };
                    s.spawn(move || {
                        for _ in 0..300 {
                            let _g = mgr.lock_set(vec![x.clone(), y.clone()]);
                        }
                    });
                }
            }
        });
        assert_eq!(mgr.held_count(), 0);
    }

    #[test]
    fn protocol_check_accepts_descendants_of_held_lca() {
        let mgr = LockManager::new();
        let g = mgr.lock_set(vec![KPath::new("/a/b"), KPath::new("/a/c")]);
        // lca(/a/q, /a/b) = /a which is held → allowed.
        assert!(g.protocol_allows(&KPath::new("/a/q")));
        // lca(/z, /a/b) = / which is NOT held → would risk deadlock.
        assert!(!g.protocol_allows(&KPath::new("/z")));
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn empty_lock_set_rejected() {
        let mgr = LockManager::new();
        let _ = mgr.lock_set(Vec::new());
    }
}
