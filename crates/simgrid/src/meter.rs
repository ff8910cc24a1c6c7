//! The thread-local meter: how deep layers bill the task currently running.
//!
//! A MapReduce engine executes user code and I/O on behalf of a task that is
//! "assigned" to a simulated node. Layers like the simulated DFS should
//! charge that node without every API carrying an explicit node handle
//! (Hadoop's `FileSystem` API certainly doesn't). The engine installs a
//! [`Meter`] for the duration of a task via [`with_meter`]; any code on that
//! thread can then bill it through [`charge`].
//!
//! Charging with no meter installed is a silent no-op, which keeps pure
//! functional tests free of ceremony.

use std::cell::RefCell;

use crate::cluster::Node;
use crate::cost::Charge;

/// A billing target: the node a task is executing on.
#[derive(Clone)]
pub struct Meter {
    node: Node,
}

impl Meter {
    /// A meter billing `node`.
    pub fn new(node: Node) -> Self {
        Meter { node }
    }

    /// The node being billed.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Bill a charge to the metered node.
    #[inline]
    pub fn charge(&self, charge: Charge) -> f64 {
        self.node.charge(charge)
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Meter>> = const { RefCell::new(Vec::new()) };
}

/// Install `meter` for the duration of `f` on this thread. Nests: the
/// innermost meter wins, and the previous one is restored afterwards.
pub fn with_meter<R>(meter: Meter, f: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| c.borrow_mut().push(meter));
    // Ensure the meter is popped even if `f` panics.
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// The meter currently installed on this thread, if any.
pub fn current_meter() -> Option<Meter> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Bill `charge` to the current meter; a no-op when none is installed.
/// Returns the simulated duration charged (0.0 when unmetered).
#[inline]
pub fn charge(charge: Charge) -> f64 {
    CURRENT.with(|c| match c.borrow().last() {
        Some(m) => m.charge(charge),
        None => 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::cost::CostModel;

    #[test]
    fn unmetered_charge_is_noop() {
        assert_eq!(charge(Charge::DiskRead { bytes: 1 << 20 }), 0.0);
    }

    #[test]
    fn metered_charge_bills_the_node() {
        let cluster = Cluster::new(2, CostModel::default());
        let dt = with_meter(Meter::new(cluster.node(1).clone()), || {
            charge(Charge::TaskStartup)
        });
        assert!(dt > 0.0);
        assert_eq!(cluster.node(1).clock().now(), dt);
        assert_eq!(cluster.node(0).clock().now(), 0.0);
    }

    #[test]
    fn meters_nest() {
        let cluster = Cluster::new(2, CostModel::default());
        with_meter(Meter::new(cluster.node(0).clone()), || {
            with_meter(Meter::new(cluster.node(1).clone()), || {
                charge(Charge::Heartbeat);
            });
            charge(Charge::Heartbeat);
        });
        assert!(cluster.node(0).clock().now() > 0.0);
        assert!(cluster.node(1).clock().now() > 0.0);
        assert_eq!(cluster.metrics().heartbeats(), 2);
    }

    #[test]
    fn meter_restored_after_panic() {
        let cluster = Cluster::new(1, CostModel::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_meter(Meter::new(cluster.node(0).clone()), || {
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        assert!(current_meter().is_none(), "meter leaked after panic");
    }

    #[test]
    fn meter_is_per_thread() {
        let cluster = Cluster::new(1, CostModel::default());
        with_meter(Meter::new(cluster.node(0).clone()), || {
            std::thread::spawn(|| {
                assert!(current_meter().is_none());
            })
            .join()
            .unwrap();
            assert!(current_meter().is_some());
        });
    }
}
