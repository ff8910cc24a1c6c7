//! The simulated cluster: a fixed set of nodes sharing one cost model and
//! one metrics sink, and the detached scratch nodes a task is billed to.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::bufpool::BufPool;
use crate::clock::{barrier, Clock};
use crate::cost::{Charge, CostModel};
use crate::mem::MemAccountant;
use crate::metrics::Metrics;
use crate::pool::WavePaths;
use crate::telemetry::TelemetryRegistry;
use crate::trace::{ChargeTotals, Phase, RelSpan, Span, Trace};

/// Identifies a node (0-based). The paper's testbed has 20 of these.
pub type NodeId = usize;

/// One simulated machine: an id, a virtual clock, and shared pricing.
#[derive(Clone)]
pub struct Node {
    id: NodeId,
    clock: Clock,
    model: Arc<CostModel>,
    metrics: Metrics,
    trace: Trace,
    /// `Some` for detached task-measurement nodes (see
    /// [`Cluster::scratch_node`]), whose clock and metrics belong to one
    /// task. Shared by the node's clones (a [`crate::Meter`] holds one) and
    /// gone with the last of them.
    scratch: Option<Arc<TaskScratch>>,
}

/// What only a scratch node has.
#[derive(Default)]
struct TaskScratch {
    /// The spans closed under this node's meter, wave-relative, until
    /// [`Node::take_spans`] hands them over for rebasing.
    spans: Mutex<Vec<RelSpan>>,
    /// Debug builds only: a token of the thread inside [`Node::charge`]
    /// right now (0 when none), to catch a second thread charging at once.
    #[cfg(debug_assertions)]
    charging: std::sync::atomic::AtomicUsize,
}

#[cfg(debug_assertions)]
impl TaskScratch {
    /// Claim the node for the calling thread until the guard drops; panics
    /// if another thread holds it.
    fn enter(&self) -> impl Drop + '_ {
        use std::sync::atomic::Ordering;
        thread_local! {
            static TOKEN: u8 = const { 0 };
        }
        let me = TOKEN.with(|t| t as *const u8 as usize);
        let claim = self.charging.compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed);
        if let Err(other) = claim {
            panic!("scratch node charged by thread {me:#x} while thread {other:#x} charges it");
        }
        struct Leave<'a>(&'a std::sync::atomic::AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.store(0, Ordering::Release);
            }
        }
        Leave(&self.charging)
    }
}

impl Node {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cluster-wide cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The metrics this node's charges go to: the cluster-wide sink on a
    /// real node, the task's own ledger on a scratch node.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The cluster-wide trace recorder.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Log one closed span: buffered wave-relative on a scratch node,
    /// straight into the trace with absolute times on a real one.
    pub(crate) fn record_span(&self, span: RelSpan) {
        match &self.scratch {
            Some(scratch) => scratch.spans.lock().push(span),
            None => self
                .trace
                .record(span.rebased(self.trace.current_job(), self.id, 0.0)),
        }
    }

    /// Drain the spans buffered on this scratch node (always empty on a
    /// real node), for [`Trace::record_rebased`].
    pub fn take_spans(&self) -> Vec<RelSpan> {
        self.scratch
            .as_ref()
            .map_or_else(Vec::new, |scratch| std::mem::take(&mut *scratch.spans.lock()))
    }

    /// Price `charge`, advance this node's clock by it, and record it in the
    /// metrics. Returns the simulated duration charged.
    ///
    /// A scratch node is charged by one thread at a time (its task's, then
    /// the place thread's in the wave's fold, ordered by the join), so its
    /// clock and ledger advance without read-modify-writes; a real node's
    /// are shared and advance atomically. Both perform the same additions
    /// in the same order.
    #[inline]
    pub fn charge(&self, charge: Charge) -> f64 {
        let dt = self.model.price(charge);
        match &self.scratch {
            Some(_scratch) => {
                #[cfg(debug_assertions)]
                let _owner = _scratch.enter();
                self.metrics.record_unshared(charge);
                self.clock.advance_unshared(dt);
            }
            None => {
                self.metrics.record(charge);
                self.clock.advance(dt);
            }
        }
        // Attribute to the innermost open trace span, if any. Never touches
        // clocks or metrics: tracing on/off is simulation-invisible.
        self.trace.note_charge(charge, dt);
        dt
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("now", &self.clock.now())
            .finish()
    }
}

/// A fixed-size cluster of [`Node`]s.
///
/// `Clone` is shallow: clones refer to the same nodes, clocks and metrics,
/// so an engine and a filesystem can share one cluster handle.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Arc<Vec<Node>>,
    model: Arc<CostModel>,
    metrics: Metrics,
    trace: Trace,
    mem: MemAccountant,
    telemetry: TelemetryRegistry,
    wave_paths: Arc<WavePaths>,
    /// One byte-buffer pool per node, long-lived like the node: whichever
    /// engine runs there draws from it, and job *n+1* reuses what job *n*
    /// grew.
    pools: Arc<[BufPool]>,
}

impl Cluster {
    /// Build a cluster of `n` nodes (n ≥ 1) priced by `model`.
    pub fn new(n: usize, model: CostModel) -> Self {
        assert!(n >= 1, "a cluster needs at least one node");
        let model = Arc::new(model);
        let metrics = Metrics::new();
        let trace = Trace::new();
        let mem = MemAccountant::with_metrics(n, metrics.clone());
        let telemetry = TelemetryRegistry::new();
        // The governor's watermark/eviction gauges are pull-based callbacks
        // — registering them here costs nothing at runtime and every
        // cluster's registry answers for its memory from birth.
        mem.publish_telemetry(&telemetry);
        let wave_paths = Arc::new(WavePaths::default());
        wave_paths.publish_telemetry(&telemetry);
        let nodes = (0..n)
            .map(|id| Node {
                id,
                clock: Clock::new(),
                model: Arc::clone(&model),
                metrics: metrics.clone(),
                trace: trace.clone(),
                scratch: None,
            })
            .collect();
        let pools = (0..n)
            .map(|id| BufPool::with_accounting(metrics.clone(), mem.clone(), id))
            .collect();
        Cluster {
            nodes: Arc::new(nodes),
            model,
            metrics,
            trace,
            mem,
            telemetry,
            wave_paths,
            pools,
        }
    }

    /// A cluster whose every operation is free (functional tests).
    pub fn free(n: usize) -> Self {
        Cluster::new(n, CostModel::free())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has exactly zero nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node `id`. Panics when out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The cluster-wide metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The cluster-wide trace recorder (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The per-place memory accountant (infinite budget by default).
    pub fn mem(&self) -> &MemAccountant {
        &self.mem
    }

    /// The cluster-wide pull-based telemetry registry (see
    /// [`crate::telemetry`]). Shared by job lanes, like the accountant, so
    /// a long-lived server exports one registry for every tenant's jobs.
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// How many task waves ran inline and how many on worker threads
    /// ([`crate::pool::traced_wave`] counts each). Shared by job lanes;
    /// wall-clock only, so [`Cluster::reset`] leaves it alone.
    pub fn wave_paths(&self) -> &WavePaths {
        &self.wave_paths
    }

    /// Node `id`'s byte-buffer pool; its free capacity is accounted as
    /// [`crate::MemClass::Pool`] bytes there. Shared by job lanes.
    pub fn pool(&self, id: NodeId) -> &BufPool {
        &self.pools[id]
    }

    /// Latest clock across the cluster — "the job is done when the slowest
    /// node is done".
    pub fn max_time(&self) -> f64 {
        self.nodes.iter().map(|n| n.clock.now()).fold(0.0, f64::max)
    }

    /// Synchronize every node's clock to the maximum and charge each the
    /// barrier cost. Returns the post-barrier time.
    pub fn barrier(&self) -> f64 {
        let clocks: Vec<Clock> = self.nodes.iter().map(|n| n.clock.clone()).collect();
        // Capture per-place pre-barrier times so each place gets a span
        // covering its wait for the slowest node.
        let pre: Option<Vec<f64>> = self
            .trace
            .is_enabled()
            .then(|| self.nodes.iter().map(|n| n.clock.now()).collect());
        self.metrics.record(Charge::Barrier);
        let t = barrier(&clocks, self.model.barrier);
        if let Some(pre) = pre {
            let job = self.trace.current_job();
            for (n, start) in self.nodes.iter().zip(pre) {
                self.trace.record(Span {
                    job,
                    phase: Phase::Barrier,
                    place: n.id,
                    task: None,
                    label: "barrier",
                    start,
                    end: t,
                    charges: ChargeTotals::default(),
                });
            }
        }
        t
    }

    /// Reset all clocks to zero, clear metrics and drop any recorded trace
    /// spans. Used between experiments. Memory *stats* reset too, but live
    /// byte tallies survive: the cache whose bytes they count survives
    /// the reset as well.
    pub fn reset(&self) {
        for n in self.nodes.iter() {
            n.clock.reset();
        }
        self.metrics.reset();
        self.trace.clear();
        self.mem.reset_stats();
    }

    /// A detached node sharing this cluster's cost model and trace but
    /// owning a fresh zeroed clock and a fresh zeroed metrics ledger.
    /// Engines run one simulated task against a scratch node to measure the
    /// task's duration, then fold that duration into real node clocks
    /// according to their scheduling model (e.g. "tasks in one wave run in
    /// parallel, so a node advances by the max of its tasks' durations"),
    /// and [`Cluster::publish`] its ledger into [`Cluster::metrics`].
    ///
    /// Only one thread may charge a scratch node at a time (checked in
    /// debug builds): handing it to another thread needs a
    /// synchronisation point such as a join.
    pub fn scratch_node(&self, id: NodeId) -> Node {
        Node {
            id,
            clock: Clock::new(),
            model: Arc::clone(&self.model),
            metrics: Metrics::new(),
            trace: self.trace.clone(),
            scratch: Some(Arc::default()),
        }
    }

    /// Add a scratch node's ledger ([`Node::metrics`]) to the cluster-wide
    /// counters. Call it once per scratch node, after its last charge.
    pub fn publish(&self, scratch: &Node) {
        debug_assert!(scratch.scratch.is_some(), "only a scratch node has a ledger of its own");
        self.metrics.absorb(&scratch.metrics.snapshot());
    }

    /// An isolated *lane* for running one job concurrently with others: the
    /// same node count and cost model, but fresh zeroed clocks and a fresh
    /// metrics sink, with every node's trace handle pinned to `job` (see
    /// [`Trace::for_job`]). The memory accountant and the buffer pools are
    /// **shared** — lanes compete for the same real memory, so budget/quota
    /// enforcement sees the union of all lanes' live bytes.
    ///
    /// The multi-tenant job server runs each submission on its own lane and
    /// afterwards folds the lane's `max_time()` and metrics back into the
    /// home cluster in admission order, which keeps cluster totals
    /// bit-identical to a serialized schedule.
    pub fn job_lane(&self, job: u64) -> Cluster {
        let trace = self.trace.for_job(job);
        let metrics = Metrics::new();
        let nodes = self
            .nodes
            .iter()
            .map(|n| Node {
                id: n.id,
                clock: Clock::new(),
                model: Arc::clone(&self.model),
                metrics: metrics.clone(),
                trace: trace.clone(),
                scratch: None,
            })
            .collect();
        Cluster {
            nodes: Arc::new(nodes),
            model: Arc::clone(&self.model),
            metrics,
            trace,
            mem: self.mem.clone(),
            telemetry: self.telemetry.clone(),
            wave_paths: Arc::clone(&self.wave_paths),
            pools: Arc::clone(&self.pools),
        }
    }

    /// Simulate a network transfer of `bytes` from `src` to `dst`:
    /// the receiver cannot finish before the sender reached its send point,
    /// and pays latency + bandwidth. Local "transfers" (src == dst) are free
    /// — in-memory hand-off, the dotted lines of the paper's Figure 3.
    pub fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        if src == dst {
            return;
        }
        let sender_now = self.nodes[src].clock.now();
        let receiver = &self.nodes[dst];
        receiver.clock.advance_to(sender_now);
        receiver.charge(Charge::NetTransfer { bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_have_distinct_clocks() {
        let c = Cluster::new(3, CostModel::default());
        c.node(0).charge(Charge::TaskStartup);
        assert!(c.node(0).clock().now() > 0.0);
        assert_eq!(c.node(1).clock().now(), 0.0);
        assert_eq!(c.max_time(), c.node(0).clock().now());
    }

    #[test]
    fn charge_records_metrics() {
        let c = Cluster::new(2, CostModel::default());
        c.node(1).charge(Charge::DiskWrite { bytes: 1000 });
        assert_eq!(c.metrics().disk_bytes_written(), 1000);
    }

    #[test]
    fn local_transfer_is_free() {
        let c = Cluster::new(2, CostModel::default());
        c.transfer(0, 0, 1 << 30);
        assert_eq!(c.max_time(), 0.0);
        assert_eq!(c.metrics().net_bytes(), 0);
    }

    #[test]
    fn remote_transfer_charges_receiver_after_sender() {
        let c = Cluster::new(2, CostModel::default());
        c.node(0).clock().advance(5.0);
        c.transfer(0, 1, 110_000_000); // exactly 1 second at default net_bw
        let t1 = c.node(1).clock().now();
        assert!(t1 > 6.0 - 1e-6, "receiver waited for sender then paid transfer: {t1}");
        assert_eq!(c.metrics().net_bytes(), 110_000_000);
    }

    #[test]
    fn barrier_aligns_all_clocks() {
        let c = Cluster::new(4, CostModel::free());
        c.node(2).clock().advance(10.0);
        let t = c.barrier();
        assert_eq!(t, 10.0);
        for n in c.nodes() {
            assert_eq!(n.clock().now(), 10.0);
        }
    }

    #[test]
    fn reset_clears_clocks_and_metrics() {
        let c = Cluster::new(2, CostModel::default());
        c.node(0).charge(Charge::Heartbeat);
        c.reset();
        assert_eq!(c.max_time(), 0.0);
        assert_eq!(c.metrics().heartbeats(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = Cluster::new(0, CostModel::default());
    }

    #[test]
    fn job_lane_isolates_clocks_and_metrics_but_shares_memory() {
        let c = Cluster::new(2, CostModel::default());
        c.node(0).clock().advance(7.0);
        c.node(0).charge(Charge::DiskRead { bytes: 100 });
        let lane = c.job_lane(3);
        assert_eq!(lane.len(), 2);
        assert_eq!(lane.max_time(), 0.0, "lane clocks start at zero");
        assert_eq!(lane.metrics().disk_bytes_read(), 0, "lane metrics fresh");
        lane.node(1).charge(Charge::DiskWrite { bytes: 50 });
        assert_eq!(c.metrics().disk_bytes_written(), 0, "home unaffected");
        // The accountant is the same object: lanes compete for real memory.
        lane.mem().grow(0, crate::mem::MemClass::Cache, 512);
        assert_eq!(c.mem().live(0), 512);
        lane.mem().shrink(0, crate::mem::MemClass::Cache, 512);
        // Folding is the server's job: absorb + uniform clock advance.
        c.metrics().absorb(&lane.metrics().snapshot());
        assert_eq!(c.metrics().disk_bytes_written(), 50);
    }

    #[test]
    fn scratch_node_keeps_its_counts_until_published() {
        let c = Cluster::new(2, CostModel::default());
        let scratch = c.scratch_node(1);
        scratch.charge(Charge::Alloc { objects: 3 });
        assert_eq!(scratch.metrics().allocs(), 3);
        assert_eq!(c.metrics().allocs(), 0, "the ledger is the task's own");
        c.publish(&scratch);
        assert_eq!(c.metrics().allocs(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_scratch_node_charged_from_two_threads_at_once_panics() {
        let c = Cluster::new(1, CostModel::default());
        let scratch = c.scratch_node(0);
        let _held = scratch.scratch.as_ref().unwrap().enter();
        let other = std::thread::scope(|s| s.spawn(|| scratch.charge(Charge::Heartbeat)).join());
        assert!(other.is_err(), "the second thread must be caught");
    }

    mod charge_paths {
        use super::*;
        use proptest::prelude::*;

        fn any_charge() -> impl Strategy<Value = Charge> {
            (0u8..13, 0u64..1 << 32, 0.0f64..10.0).prop_map(|(kind, n, seconds)| match kind {
                0 => Charge::DiskRead { bytes: n },
                1 => Charge::DiskWrite { bytes: n },
                2 => Charge::NetTransfer { bytes: n },
                3 => Charge::Serialize { bytes: n },
                4 => Charge::Deserialize { bytes: n },
                5 => Charge::Clone { bytes: n },
                6 => Charge::Alloc { objects: n },
                7 => Charge::Sort { records: n },
                8 => Charge::TaskStartup,
                9 => Charge::Heartbeat,
                10 => Charge::JobSubmit,
                11 => Charge::Barrier,
                _ => Charge::Compute { seconds },
            })
        }

        proptest! {
            /// A scratch node's unshared clock and ledger, once published,
            /// end where a real node's shared ones do after the same
            /// charges: the same clock bits and the same counters.
            #[test]
            fn scratch_and_real_nodes_agree_to_the_bit(
                charges in proptest::collection::vec(any_charge(), 0..200),
            ) {
                let task = Cluster::new(1, CostModel::default());
                let real = Cluster::new(1, CostModel::default());
                let (scratch, node) = (task.scratch_node(0), real.node(0));
                for &charge in &charges {
                    prop_assert_eq!(scratch.charge(charge).to_bits(), node.charge(charge).to_bits());
                }
                task.publish(&scratch);
                prop_assert_eq!(scratch.clock().now().to_bits(), node.clock().now().to_bits());
                prop_assert_eq!(task.metrics().snapshot(), real.metrics().snapshot());
            }
        }
    }
}
