#![warn(missing_docs)]

//! # x10rt — an X10-style runtime substrate
//!
//! M3R is implemented in X10 (§5.1 of the paper) and leans on exactly four
//! of its facilities:
//!
//! 1. **Places** — long-lived processes each supplying memory and worker
//!    threads. Here a place is a long-lived worker thread owning a typed
//!    heap ([`PlaceCtx`]), which preserves the property the paper exploits:
//!    state survives across jobs because the place never restarts.
//! 2. **`at (p) S` / `finish`** — run a statement at a place and wait for
//!    spawned asyncs. [`World::at_sync`], [`World::at_async`] and
//!    [`World::finish`] reproduce these.
//! 3. **Teams/barriers** — "no reducer is allowed to run until globally all
//!    shuffle messages have been sent". The engine needs no separate team
//!    object for this: [`World::finish`] returns only once every place's
//!    map-side activity has ended (the wall-clock barrier), and
//!    `simgrid::Cluster::barrier` then aligns the simulated clocks and
//!    bills the barrier's cost.
//! 4. **A serialization protocol that de-duplicates object graphs** — X10's
//!    serializer recognizes already-serialized objects, which gives M3R free
//!    de-duplication of broadcast values (§3.2.2.3). [`serialize::Serializer`]
//!    reproduces this with identity-based back-references, including the
//!    relaxed *consecutive-only* mode the paper proposes as future work
//!    (§6.3) to cut the memory overhead of full de-duplication.

pub mod place;
pub mod serialize;
pub mod world;

pub use place::{PlaceCtx, PlaceId};
pub use serialize::{DedupMode, Deserializer, SerError, Serializer};
pub use world::{Finish, World};
