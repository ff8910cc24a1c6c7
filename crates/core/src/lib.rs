#![warn(missing_docs)]
#![allow(clippy::type_complexity)]

//! # m3r — Main Memory Map Reduce
//!
//! The paper's core contribution: a new implementation of the Hadoop
//! MapReduce **APIs** (crate `hmr-api`) "targeted at online analytics on
//! high mean-time-to-failure clusters", trading resilience for in-memory
//! performance. It runs HMR jobs unchanged while:
//!
//! * keeping key/value sequences in a family of long-lived places and
//!   sharing heap state between jobs ([`cache`], over the §5.2 `kvstore`);
//! * replacing the jobtracker/heartbeat machinery with fast X10-style
//!   barriers (crate `x10rt`);
//! * fulfilling repeated input requests from the in-memory cache, and
//!   keeping *temporary* outputs (§4.2.3) entirely off the disk;
//! * shuffling in memory, with de-duplication of broadcast values
//!   ([`shuffle`], §3.2.2.3) and a *partition stability* guarantee
//!   ([`stability`], §3.2.2.2) that lets carefully written pipelines
//!   eliminate all non-inherent communication;
//! * honouring the backward-compatible API extensions of §4
//!   (`ImmutableOutput`, `NamedSplit`/`DelegatingSplit`, `PlacedSplit`,
//!   `CacheFS`, temporary-output conventions).
//!
//! Like the paper's engine, this one is **not resilient**: there are no
//! task retries, no speculative execution, and a failed place fails the
//! job. In exchange, a job that fits in cluster memory pays neither JVM
//! startups nor disk round trips between jobs.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use hmr_api::Engine;
//! use m3r::M3REngine;
//!
//! // A 4-node simulated cluster with an HDFS-like filesystem.
//! let cluster = simgrid::Cluster::new(4, simgrid::CostModel::default());
//! let dfs = simdfs::SimDfs::new(cluster.clone());
//! let engine = M3REngine::new(cluster, Arc::new(dfs));
//!
//! // Jobs written against hmr-api run unchanged on M3R or Hadoop.
//! // (See the `workloads` crate for complete JobDef implementations.)
//! assert_eq!(engine.engine_name(), "m3r");
//! assert_eq!(engine.num_places(), 4);
//! ```

pub mod cache;
pub mod cachefs;
pub mod engine;
pub mod interop;
pub mod repartition;
pub mod shuffle;
pub mod stability;

pub use cache::{CacheHit, CacheMeta, Cached, CachedSeq, KvCache};
pub use cachefs::{CachingFs, RawCacheFs};
pub use engine::{M3REngine, M3ROptions, M3R_COUNTER_GROUP};
pub use simgrid::mem::{MemAccountant, MemClass, OomMode};
pub use interop::{JobClient, Ran};
pub use repartition::{repartition, RepartitionJob};
pub use shuffle::{decode_stream, decode_targeted, MapOutputBuffer, ShuffleStream};
pub use stability::PlaceMap;
pub use x10rt::serialize::DedupMode;
