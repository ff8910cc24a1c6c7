//! Per-node virtual clocks.
//!
//! Each simulated node owns a monotone clock measured in seconds of
//! simulated time. Tasks executing "on" a node advance its clock; barriers
//! synchronize a set of clocks to their maximum (mirroring how an X10 team
//! barrier makes every place wait for the slowest, §5.1). Clocks are shared
//! (`Clone` is shallow) so an engine, its tasks, and the metering layer can
//! all charge the same node.
//!
//! A clock is the bits of one `f64` in an `AtomicU64`. A real node's clock
//! may be charged from several threads at once and advances by
//! compare-and-swap; a task's scratch clock has one writer at a time and
//! advances by a plain load and store. Both perform the same `f64`
//! addition, so the two paths agree to the bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable monotone virtual clock (seconds of simulated time).
#[derive(Clone, Debug, Default)]
pub struct Clock {
    bits: Arc<AtomicU64>,
}

impl Clock {
    /// A new clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Advance the clock by `seconds` (must be non-negative) and return the
    /// new time. Safe against concurrent advances of the same clock.
    #[inline]
    pub fn advance(&self, seconds: f64) -> f64 {
        check_step(seconds);
        let before = self
            .bits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                Some((f64::from_bits(t) + seconds).to_bits())
            })
            .expect("the update never declines");
        f64::from_bits(before) + seconds
    }

    /// [`Clock::advance`] for a clock nobody else advances meanwhile (a
    /// task's scratch clock): one load and one store, no read-modify-write.
    /// A concurrent advance would be lost, so the caller guarantees there
    /// is none.
    #[inline]
    pub(crate) fn advance_unshared(&self, seconds: f64) -> f64 {
        check_step(seconds);
        let t = f64::from_bits(self.bits.load(Ordering::Relaxed)) + seconds;
        self.bits.store(t.to_bits(), Ordering::Relaxed);
        t
    }

    /// Move the clock forward to `instant` if it is currently behind it
    /// (never moves the clock backwards). Returns the new time.
    pub fn advance_to(&self, instant: f64) -> f64 {
        match self.bits.fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
            (instant > f64::from_bits(t)).then_some(instant.to_bits())
        }) {
            Ok(_) => instant,
            Err(t) => f64::from_bits(t),
        }
    }

    /// Reset to time zero. Engines call this between independent experiments.
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Release);
    }
}

#[inline]
fn check_step(seconds: f64) {
    debug_assert!(seconds >= 0.0, "cannot advance a clock backwards");
    debug_assert!(seconds.is_finite(), "cannot advance a clock by a non-finite amount");
}

/// Synchronize a set of clocks to the maximum among them (a barrier), then
/// advance each by `cost`. Returns the post-barrier time.
pub fn barrier(clocks: &[Clock], cost: f64) -> f64 {
    let max = clocks.iter().map(|c| c.now()).fold(0.0, f64::max);
    let t = max + cost;
    for c in clocks {
        c.advance_to(t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(3.0);
        assert_eq!(b.now(), 3.0);
        b.advance(1.0);
        assert_eq!(a.now(), 4.0);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = Clock::new();
        c.advance(5.0);
        c.advance_to(2.0);
        assert_eq!(c.now(), 5.0);
        c.advance_to(7.0);
        assert_eq!(c.now(), 7.0);
    }

    #[test]
    fn barrier_synchronizes_to_max() {
        let clocks: Vec<Clock> = (0..4).map(|_| Clock::new()).collect();
        clocks[0].advance(1.0);
        clocks[2].advance(9.0);
        let t = barrier(&clocks, 0.5);
        assert_eq!(t, 9.5);
        for c in &clocks {
            assert_eq!(c.now(), 9.5);
        }
    }

    #[test]
    fn barrier_is_concurrent_safe() {
        let clocks: Vec<Clock> = (0..8).map(|_| Clock::new()).collect();
        std::thread::scope(|s| {
            for (i, c) in clocks.iter().enumerate() {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        c.advance(i as f64 * 1e-3);
                    }
                });
            }
        });
        let t = barrier(&clocks, 0.0);
        assert!((t - 0.7).abs() < 1e-9, "slowest node did 100 * 7ms");
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = Clock::new();
        c.advance(10.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }
}
