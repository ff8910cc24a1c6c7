//! Places: long-lived workers with a typed per-place heap.

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Identifies a place (0-based), mirroring X10's `Place.id`.
pub type PlaceId = usize;

/// The state owned by one place: its id, the total number of places, and a
/// typed heap that survives across jobs.
///
/// The heap models what makes M3R's caching possible: because the place
/// (thread) lives for the whole engine lifetime, state put here stays
/// resident between jobs — the property Hadoop's fresh-JVM-per-task model
/// cannot offer. (The engine's key/value cache itself is not kept here:
/// its per-place shards live in `m3r::cache::KvCache`, owned by the engine
/// that owns the places.)
pub struct PlaceCtx {
    id: PlaceId,
    num_places: usize,
    heap: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl PlaceCtx {
    pub(crate) fn new(id: PlaceId, num_places: usize) -> Self {
        PlaceCtx {
            id,
            num_places,
            heap: HashMap::new(),
        }
    }

    /// This place's id.
    pub fn id(&self) -> PlaceId {
        self.id
    }

    /// Total number of places in the world.
    pub fn num_places(&self) -> usize {
        self.num_places
    }

    /// Fetch the unique `T` stored at this place, creating it with `init`
    /// on first access. This is the "heap-state shared between jobs" of the
    /// paper's §1 advantage list.
    pub fn get_or_insert_with<T: Any + Send>(&mut self, init: impl FnOnce() -> T) -> &mut T {
        self.heap
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(init()))
            .downcast_mut::<T>()
            .expect("heap entry type corresponds to its TypeId")
    }

    /// Fetch the unique `T` stored at this place, if present.
    pub fn get<T: Any + Send>(&self) -> Option<&T> {
        self.heap
            .get(&TypeId::of::<T>())
            .and_then(|b| b.downcast_ref::<T>())
    }

    /// Mutable variant of [`PlaceCtx::get`].
    pub fn get_mut<T: Any + Send>(&mut self) -> Option<&mut T> {
        self.heap
            .get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_mut::<T>())
    }

    /// Remove and return the unique `T` stored at this place.
    pub fn remove<T: Any + Send>(&mut self) -> Option<T> {
        self.heap
            .remove(&TypeId::of::<T>())
            .and_then(|b| b.downcast::<T>().ok())
            .map(|b| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_persists_values_by_type() {
        let mut ctx = PlaceCtx::new(3, 8);
        assert_eq!(ctx.id(), 3);
        assert_eq!(ctx.num_places(), 8);
        *ctx.get_or_insert_with(|| 0u64) += 7;
        *ctx.get_or_insert_with(|| 100u64) += 1; // init not re-run
        assert_eq!(*ctx.get::<u64>().unwrap(), 8);
    }

    #[test]
    fn distinct_types_coexist() {
        let mut ctx = PlaceCtx::new(0, 1);
        ctx.get_or_insert_with(|| String::from("cache"));
        ctx.get_or_insert_with(Vec::<i32>::new).push(1);
        assert_eq!(ctx.get::<String>().unwrap(), "cache");
        assert_eq!(ctx.get::<Vec<i32>>().unwrap(), &[1]);
    }

    #[test]
    fn remove_takes_ownership() {
        let mut ctx = PlaceCtx::new(0, 1);
        ctx.get_or_insert_with(|| vec![1u8, 2]);
        let v: Vec<u8> = ctx.remove().unwrap();
        assert_eq!(v, vec![1, 2]);
        assert!(ctx.get::<Vec<u8>>().is_none());
    }
}
