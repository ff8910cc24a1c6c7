#![warn(missing_docs)]
#![allow(clippy::type_complexity)]

//! # kvstore — M3R's distributed in-memory key/value store (paper §5.2)
//!
//! "Underneath [the cache] is a distributed in-memory key/value store that
//! implements a file system like API. The key/value store distributes the
//! (hierarchical) metadata across the different places used by M3R."
//!
//! Faithful properties:
//! * **Fig 5 API** — `createWriter`, `createReader`, `delete`, `rename`,
//!   `getInfo`, `mkdirs`; *all operations are atomic (serializable)*.
//! * **Metadata partitioning** — "a path is hashed to determine where the
//!   metadata associated with that path is located"; each place owns a
//!   shard of two tables: metadata ordered by path, so every subtree query
//!   is one key range, and block data hashed by id.
//! * **Block placement** — "data blocks can live anywhere: their location
//!   is specified by their metadata. The `createWriter` call will create a
//!   block at the place where it is invoked."
//! * **Genericity** — "the key value store is generic in the type of
//!   metadata, but requires that it implement a reasonable equals method"
//!   (`M: Eq`). Blocks are identified by their metadata.
//! * **Locking** — two-phase locking with a least-common-ancestor
//!   acquisition protocol: "any task that acquires a lock l while holding
//!   locks L must be holding the least common ancestor of l with all the
//!   locks in L. This suffices to ensure that deadlock cannot occur."

pub mod locks;
pub mod path;
pub mod policy;
pub mod store;

pub use locks::{LockManager, LockSet};
pub use path::KPath;
pub use policy::{CostAware, EvictionPolicy, Lfu, Lru, PolicyKind};
pub use store::{BlockData, BlockMeta, KvError, KvStore, PathInfo, PathKind};
