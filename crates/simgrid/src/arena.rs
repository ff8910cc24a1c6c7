//! Per-wave scratch arena: recycled allocations for engine hot paths.
//!
//! The latency tiers (ISSUE 8) showed that a meaningful slice of reduce
//! ingest and map-side combine time goes to allocating and freeing the
//! same transient buffers over and over: pair vectors, raw-key byte
//! arenas, permutation scratch. This module gives each place one `Arena`
//! that those waves *lease* scratch from and *recycle* back into, so a
//! buffer allocated for wave 1 is handed — already grown to working-set
//! capacity — to wave 2 instead of going back to the global allocator.
//!
//! Design notes:
//!
//! - This is a **typed recycling shelf**, not a true bump allocator:
//!   stable Rust has no pluggable allocator API, so instead of carving
//!   raw bytes we park whole containers (`Vec<T>` of any `T: Send`) by
//!   `TypeId` and hand them back out on request. The effect on the hot
//!   path is the same — no malloc/free churn inside a wave — without any
//!   unsafe lifetime juggling.
//! - **Wall-clock only.** Leasing charges nothing to the simulation and
//!   changes no observable engine behaviour; equivalence tests pin
//!   engine output and simulated seconds bit-identical with the arena on
//!   and off. Retained bytes are accounted to [`MemClass::Arena`], which
//!   [`MemAccountant::live`] deliberately excludes (see its doc) so
//!   budget gates cannot observe the arena either.
//! - `end_wave` is the "reset at wave end" from the ISSUE: leases must be
//!   recycled back by then, and the shelf is trimmed to a retention cap
//!   (default 8 MiB) so one giant wave cannot pin its peak scratch
//!   footprint forever.
//!
//! The shelf map is a `BTreeMap` keyed by `TypeId` (which is `Ord`) so
//! trimming walks shelves in a deterministic order.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::mem::{MemAccountant, MemClass};

/// Default retention cap applied by [`Arena::end_wave`]: scratch beyond
/// this many bytes is returned to the allocator between waves.
pub const DEFAULT_RETAIN_CAP: u64 = 8 * 1024 * 1024;

/// A container the arena knows how to park and reissue.
///
/// `reset` must erase all *contents* while keeping backing capacity —
/// that capacity is the whole point of recycling — and `footprint` must
/// report the retained heap bytes so the accountant and the retention
/// cap see honest numbers.
pub trait Scratch: Send + 'static {
    /// A brand-new, empty instance (what `lease` returns on a dry shelf).
    fn fresh() -> Self;
    /// Clear contents, keep capacity.
    fn reset(&mut self);
    /// Retained heap bytes while parked.
    fn footprint(&self) -> u64;
}

impl<T: Send + 'static> Scratch for Vec<T> {
    fn fresh() -> Self {
        Vec::new()
    }

    fn reset(&mut self) {
        self.clear();
    }

    fn footprint(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<T>()) as u64
    }
}

/// Lease a vector from `arena`, or make a fresh one when the caller runs
/// without an arena (kernels take `Option<&Arena>`).
pub fn lease_vec<T: Send + 'static>(arena: Option<&Arena>) -> Vec<T> {
    arena.map(|a| a.lease::<Vec<T>>()).unwrap_or_default()
}

/// Counterpart of [`lease_vec`]: recycle `v` into `arena` if there is one,
/// otherwise just drop it.
pub fn recycle_vec<T: Send + 'static>(arena: Option<&Arena>, v: Vec<T>) {
    if let Some(a) = arena {
        a.recycle(v);
    }
}

/// A parked container and its retained footprint in bytes.
type Shelf = Vec<(Box<dyn Any + Send>, u64)>;

#[derive(Default)]
struct Inner {
    /// Parked containers by concrete type, each with its footprint.
    shelves: BTreeMap<TypeId, Shelf>,
    /// Sum of parked footprints.
    retained: u64,
}

/// A shared per-place scratch arena. Threads lease containers out, use
/// them privately, and recycle them back; the arena itself is only locked
/// for the (cheap) lease/recycle handoff, never while scratch is in use.
pub struct Arena {
    inner: Mutex<Inner>,
    retain_cap: u64,
    accounting: Option<(MemAccountant, usize)>,
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("retained_bytes", &self.retained_bytes())
            .field("retain_cap", &self.retain_cap)
            .finish()
    }
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    /// An unaccounted arena with the default retention cap (unit tests,
    /// standalone kernels).
    pub fn new() -> Self {
        Arena {
            inner: Mutex::new(Inner::default()),
            retain_cap: DEFAULT_RETAIN_CAP,
            accounting: None,
        }
    }

    /// An arena whose retained bytes are reported to `mem` under
    /// [`MemClass::Arena`] at `place` (the form [`crate::Cluster`] builds).
    pub(crate) fn with_accounting(mem: MemAccountant, place: usize) -> Self {
        Arena {
            inner: Mutex::new(Inner::default()),
            retain_cap: DEFAULT_RETAIN_CAP,
            accounting: Some((mem, place)),
        }
    }

    /// Override the retention cap applied at [`Arena::end_wave`].
    pub fn with_retain_cap(mut self, bytes: u64) -> Self {
        self.retain_cap = bytes;
        self
    }

    /// Lease a scratch container: a recycled one if the shelf has it,
    /// otherwise a fresh empty one. Recycled containers come back reset
    /// but with their old capacity intact.
    pub fn lease<S: Scratch>(&self) -> S {
        let parked = {
            let mut inner = self.inner.lock().unwrap();
            match inner.shelves.get_mut(&TypeId::of::<S>()).and_then(Vec::pop) {
                Some((boxed, bytes)) => {
                    inner.retained -= bytes;
                    Some((boxed, bytes))
                }
                None => None,
            }
        };
        match parked {
            Some((boxed, bytes)) => {
                self.shrink_accounting(bytes);
                *boxed.downcast::<S>().expect("shelf is keyed by TypeId")
            }
            None => S::fresh(),
        }
    }

    /// Return a leased (or any compatible) container to the shelf for the
    /// next lease of the same type. Contents are erased; capacity is kept.
    pub fn recycle<S: Scratch>(&self, mut item: S) {
        item.reset();
        let bytes = item.footprint();
        {
            let mut inner = self.inner.lock().unwrap();
            inner
                .shelves
                .entry(TypeId::of::<S>())
                .or_default()
                .push((Box::new(item), bytes));
            inner.retained += bytes;
        }
        self.grow_accounting(bytes);
    }

    /// Wave boundary: trim parked scratch down to the retention cap so a
    /// one-off giant wave cannot pin its peak footprint. Shelves are
    /// walked in deterministic (`TypeId` order) and drained newest-first
    /// until the cap holds.
    pub fn end_wave(&self) {
        let mut freed = 0u64;
        {
            let mut inner = self.inner.lock().unwrap();
            if inner.retained <= self.retain_cap {
                return;
            }
            let keys: Vec<TypeId> = inner.shelves.keys().copied().collect();
            'trim: for key in keys {
                while inner.retained > self.retain_cap {
                    let Some(shelf) = inner.shelves.get_mut(&key) else {
                        break;
                    };
                    match shelf.pop() {
                        Some((_, bytes)) => {
                            inner.retained -= bytes;
                            freed += bytes;
                        }
                        None => break,
                    }
                }
                if inner.retained <= self.retain_cap {
                    break 'trim;
                }
            }
            inner.shelves.retain(|_, shelf| !shelf.is_empty());
        }
        self.shrink_accounting(freed);
    }

    /// Drop everything parked, returning all retained bytes.
    pub fn reset(&self) {
        let freed = {
            let mut inner = self.inner.lock().unwrap();
            inner.shelves.clear();
            std::mem::take(&mut inner.retained)
        };
        self.shrink_accounting(freed);
    }

    /// Bytes currently parked on the shelves.
    pub fn retained_bytes(&self) -> u64 {
        self.inner.lock().unwrap().retained
    }

    fn grow_accounting(&self, bytes: u64) {
        if let Some((mem, place)) = &self.accounting {
            mem.grow(*place, MemClass::Arena, bytes);
        }
    }

    fn shrink_accounting(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some((mem, place)) = &self.accounting {
            mem.shrink(*place, MemClass::Arena, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycle_roundtrip_keeps_capacity() {
        let arena = Arena::new();
        let mut v: Vec<u64> = arena.lease();
        assert!(v.is_empty(), "dry shelf leases are fresh");
        v.extend(0..1000);
        let cap = v.capacity();
        arena.recycle(v);
        assert_eq!(arena.retained_bytes(), (cap * 8) as u64);
        let v2: Vec<u64> = arena.lease();
        assert!(v2.is_empty(), "recycled scratch comes back reset");
        assert_eq!(v2.capacity(), cap, "but with its old capacity");
        assert_eq!(arena.retained_bytes(), 0);
    }

    #[test]
    fn shelves_are_typed() {
        let arena = Arena::new();
        let mut ints: Vec<u32> = Vec::with_capacity(64);
        ints.push(1);
        arena.recycle(ints);
        // A lease of a different type does not raid the u32 shelf.
        let strs: Vec<String> = arena.lease();
        assert_eq!(strs.capacity(), 0);
        let ints2: Vec<u32> = arena.lease();
        assert!(ints2.capacity() >= 64);
    }

    #[test]
    fn end_wave_trims_to_the_retention_cap() {
        let arena = Arena::new().with_retain_cap(1024);
        for _ in 0..4 {
            arena.recycle(Vec::<u8>::with_capacity(512));
        }
        assert_eq!(arena.retained_bytes(), 2048);
        arena.end_wave();
        assert!(arena.retained_bytes() <= 1024);
        assert!(arena.retained_bytes() > 0, "trims, not clears");
        arena.reset();
        assert_eq!(arena.retained_bytes(), 0);
    }

    #[test]
    fn retained_bytes_are_accounted_outside_the_budget() {
        let mem = MemAccountant::new(2);
        let arena = Arena::with_accounting(mem.clone(), 1);
        arena.recycle(Vec::<u64>::with_capacity(100));
        assert_eq!(mem.live_class(1, MemClass::Arena), 800);
        assert_eq!(mem.live(1), 0, "arena bytes never threaten the budget");
        let _v: Vec<u64> = arena.lease();
        assert_eq!(mem.live_class(1, MemClass::Arena), 0);
        arena.recycle(Vec::<u64>::with_capacity(10));
        arena.reset();
        assert_eq!(mem.live_class(1, MemClass::Arena), 0);
    }
}
