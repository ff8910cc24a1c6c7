#![warn(missing_docs)]

//! # simgrid — deterministic simulated-cluster substrate
//!
//! The M3R paper evaluates two MapReduce engines on a 20-node IBM blade
//! cluster (GigE network, local disks, JVMs). This crate replaces that
//! hardware with a deterministic simulation: a [`Cluster`] of [`Node`]s, each
//! with its own virtual [`Clock`], and a [`CostModel`] that prices every
//! expensive operation the paper's figures measure — disk I/O, network
//! transfer, (de)serialization, deep cloning, allocation churn, sorting,
//! JVM/task startup and jobtracker heartbeats.
//!
//! Engines built on top of this crate perform *real* computation on real
//! data (so outputs can be verified), and charge simulated time to node
//! clocks for the I/O they would have performed. A job's simulated running
//! time is derived from the node clocks, which makes experiments fast,
//! repeatable, and independent of the machine they run on.
//!
//! Charging happens either explicitly (`node.charge(...)`) or through the
//! thread-local [`meter`], which lets deep layers (e.g. a filesystem record
//! reader) bill the task that is currently executing without threading a
//! handle through every API.
//!
//! The [`trace`] module records where simulated time went: per-job,
//! per-place, per-phase spans with charge totals, rollups, a Chrome
//! trace-event exporter and a per-job text report. It is disabled by
//! default and simulation-invisible when enabled.
//!
//! The [`telemetry`] module is the operational sensor layer *around* the
//! simulation: a pull-based [`TelemetryRegistry`] (one per cluster, shared
//! by job lanes) of per-subsystem sources — a stateless view over state
//! its owners already keep — with Prometheus-style text and JSON export,
//! also simulation-invisible.

pub mod bufpool;
pub mod clock;
pub mod cluster;
pub mod cost;
pub mod mem;
pub mod meter;
pub mod metrics;
pub mod pool;
pub mod telemetry;
pub mod trace;

pub use bufpool::BufPool;
pub use clock::Clock;
pub use cluster::{Cluster, Node, NodeId};
pub use cost::{Charge, CostModel};
pub use mem::{JobMem, MemAccountant, MemClass, OomMode};
pub use meter::{current_meter, with_meter, Meter};
pub use metrics::Metrics;
pub use pool::{run_wave, traced_wave, wave_duration, WavePaths, Workers};
pub use telemetry::TelemetryRegistry;
pub use trace::{Phase, Rollup, Span, Trace};
