//! Per-place free-list of byte buffers recycled across waves and jobs.
//!
//! M3R's performance story leans on long-lived places: a JVM that survives
//! across jobs can keep its big shuffle buffers warm instead of re-growing
//! them from empty every task (§3.2.2, and the long-lived-JVM reuse
//! discussion in §5). [`BufPool`] is that story for the byte hot path: the
//! cluster holds one pool per node ([`crate::Cluster::pool`]), serializers
//! draw pre-sized `BytesMut` buffers from it, and finished [`bytes::Bytes`]
//! handles flow through the shuffle by refcount. Once every reader drops its
//! handle, the unique buffer is reclaimed (`Bytes::try_into_mut`) and goes
//! back on the free-list with its grown capacity intact. A buffer still
//! shared when it is reclaimed — values decoded as views of a stream pin it
//! — waits on a pinned list and joins the free-list once those views drop.
//!
//! The pool affects wall-clock time only. Simulated charges are priced on
//! byte counts, which are identical whether a buffer came from the pool or
//! the allocator — the equivalence tests in higher crates assert exactly
//! that. Hit/miss counts land in [`Metrics`] (outside the snapshot; see the
//! note there).

use parking_lot::Mutex;

use crate::mem::{MemAccountant, MemClass};
use crate::metrics::Metrics;

use bytes::{Bytes, BytesMut};

/// A lock-protected free-list of reusable byte buffers.
///
/// `get` hands out the smallest buffer that already satisfies the request
/// (best fit). Segment sizes within a job are often skewed; handing out the
/// largest buffer first binds multi-megabyte buffers to kilobyte requests
/// and leaves the big requests growing small leftovers, ratcheting the
/// pool's footprint far past the live data it serves.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Mutex<Vec<BytesMut>>,
    /// Reclaimed handles that were still shared; swept onto `free` by the
    /// next pool call that finds them unique.
    pinned: Mutex<Vec<Bytes>>,
    metrics: Option<Metrics>,
    /// When set, free-list capacity is reported to the memory accountant
    /// as [`MemClass::Pool`] bytes at this place.
    accounting: Option<(MemAccountant, usize)>,
    /// Buffers retained at most; excess `put`s drop the smallest.
    max_buffers: usize,
}

impl BufPool {
    /// A pool that does not report hit/miss stats.
    pub fn new() -> Self {
        BufPool {
            free: Mutex::new(Vec::new()),
            pinned: Mutex::new(Vec::new()),
            metrics: None,
            accounting: None,
            max_buffers: 64,
        }
    }

    /// A pool that counts hits and misses into `metrics`.
    pub fn with_metrics(metrics: Metrics) -> Self {
        BufPool {
            free: Mutex::new(Vec::new()),
            pinned: Mutex::new(Vec::new()),
            metrics: Some(metrics),
            accounting: None,
            max_buffers: 64,
        }
    }

    /// A pool that counts hits/misses into `metrics` and reports its
    /// free-list capacity to `mem` as [`MemClass::Pool`] bytes held at
    /// `place`. Warm-but-dead pool bytes are exactly the memory a budget
    /// has to weigh against live cache entries.
    pub(crate) fn with_accounting(metrics: Metrics, mem: MemAccountant, place: usize) -> Self {
        BufPool {
            free: Mutex::new(Vec::new()),
            pinned: Mutex::new(Vec::new()),
            metrics: Some(metrics),
            accounting: Some((mem, place)),
            max_buffers: 64,
        }
    }

    fn account_grow(&self, capacity: usize) {
        if let Some((mem, place)) = &self.accounting {
            mem.grow(*place, MemClass::Pool, capacity as u64);
        }
    }

    fn account_shrink(&self, capacity: usize) {
        if let Some((mem, place)) = &self.accounting {
            mem.shrink(*place, MemClass::Pool, capacity as u64);
        }
    }

    /// Take a cleared buffer with at least `min_capacity` bytes reserved.
    /// Counts a hit when a recycled buffer is returned (even if it must
    /// grow — the allocation is amortized away after the first wave).
    pub fn get(&self, min_capacity: usize) -> BytesMut {
        self.sweep();
        let recycled = {
            let mut free = self.free.lock();
            // Best fit: the smallest buffer already big enough; otherwise
            // the largest available, which needs the least growth.
            match free.binary_search_by_key(&min_capacity, BytesMut::capacity) {
                Ok(i) => Some(free.remove(i)),
                Err(i) if i < free.len() => Some(free.remove(i)),
                Err(_) => free.pop(),
            }
        };
        if let Some(m) = &self.metrics {
            m.record_pool_request(recycled.is_some());
        }
        match recycled {
            Some(mut buf) => {
                self.account_shrink(buf.capacity());
                buf.clear();
                if buf.capacity() < min_capacity {
                    buf.reserve(min_capacity - buf.len());
                }
                buf
            }
            None => BytesMut::with_capacity(min_capacity),
        }
    }

    /// Take the largest free buffer, or a fresh one of `min_capacity` when
    /// the list is empty. For callers that cannot size their request up
    /// front (shuffle streams grow with the data): the largest warm buffer
    /// is the one most likely to absorb the whole stream without growing.
    pub fn get_any(&self, min_capacity: usize) -> BytesMut {
        self.sweep();
        let recycled = self.free.lock().pop();
        if let Some(m) = &self.metrics {
            m.record_pool_request(recycled.is_some());
        }
        match recycled {
            Some(mut buf) => {
                self.account_shrink(buf.capacity());
                buf.clear();
                buf
            }
            None => BytesMut::with_capacity(min_capacity),
        }
    }

    /// Return a buffer to the free-list. Keeps the list sorted by capacity
    /// so `get` can binary-search for the best fit.
    pub fn put(&self, mut buf: BytesMut) {
        buf.clear();
        self.account_grow(buf.capacity());
        let mut free = self.free.lock();
        let pos = free
            .binary_search_by_key(&buf.capacity(), BytesMut::capacity)
            .unwrap_or_else(|p| p);
        free.insert(pos, buf);
        let dropped = if free.len() > self.max_buffers {
            let runt = free.remove(0); // smallest capacity
            Some(runt.capacity())
        } else {
            None
        };
        drop(free);
        if let Some(cap) = dropped {
            self.account_shrink(cap);
        }
    }

    /// Reclaim a frozen handle. If it is the last reference the buffer goes
    /// on the free-list now; otherwise the pool declines it for the moment
    /// (the free-list and `MemClass::Pool` are unchanged) and takes it once
    /// its other handles — readers, decoded views — have dropped.
    pub fn reclaim(&self, bytes: Bytes) {
        match bytes.try_into_mut() {
            Ok(buf) => self.put(buf),
            Err(shared) => {
                // One pinned handle per buffer: a second one would keep the
                // first from ever finding itself unique.
                let mut pinned = self.pinned.lock();
                if !pinned.iter().any(|p| p.as_ptr() == shared.as_ptr()) {
                    pinned.push(shared);
                }
            }
        }
    }

    /// Move every pinned buffer nobody else holds any more onto the
    /// free-list.
    fn sweep(&self) {
        let mut pinned = self.pinned.lock();
        if pinned.is_empty() {
            return;
        }
        let mut unique = Vec::new();
        for bytes in std::mem::take(&mut *pinned) {
            match bytes.try_into_mut() {
                Ok(buf) => unique.push(buf),
                Err(shared) => pinned.push(shared),
            }
        }
        drop(pinned);
        unique.into_iter().for_each(|buf| self.put(buf));
    }

    /// Number of buffers currently on the free-list.
    pub fn free_count(&self) -> usize {
        self.sweep();
        self.free.lock().len()
    }

    /// Capacity of each buffer on the free-list (ascending).
    pub fn free_capacities(&self) -> Vec<usize> {
        self.sweep();
        self.free.lock().iter().map(BytesMut::capacity).collect()
    }

    /// Drop every retained buffer, pinned ones included.
    pub fn drain(&self) {
        self.pinned.lock().clear();
        let drained: usize = {
            let mut free = self.free.lock();
            let total = free.iter().map(BytesMut::capacity).sum();
            free.clear();
            total
        };
        self.account_shrink(drained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_prefers_recycled_capacity() {
        let pool = BufPool::new();
        let mut a = pool.get(1024);
        a.extend_from_slice(&[7; 2000]); // grow past the request
        pool.put(a);
        let b = pool.get(16);
        assert!(b.capacity() >= 2000, "recycled buffer keeps its growth");
        assert!(b.is_empty(), "recycled buffer is cleared");
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn reclaim_requires_last_reference() {
        let pool = BufPool::new();
        let mut buf = pool.get(64);
        buf.extend_from_slice(b"stream bytes");
        let frozen = buf.freeze();
        let reader = frozen.clone();
        pool.reclaim(frozen); // reader still holds the storage
        assert_eq!(pool.free_count(), 0);
        pool.reclaim(reader); // last handle: storage returns
        assert_eq!(pool.free_count(), 1);
    }

    #[test]
    fn metrics_see_hits_and_misses() {
        let m = Metrics::new();
        let pool = BufPool::with_metrics(m.clone());
        let a = pool.get(8); // miss
        pool.put(a);
        let _b = pool.get(8); // hit
        let _c = pool.get(8); // miss (pool empty again)
        assert_eq!(m.pool_hits(), 1);
        assert_eq!(m.pool_misses(), 2);
        // Pool traffic must not leak into snapshot equality.
        assert_eq!(m.snapshot(), Metrics::new().snapshot());
    }

    #[test]
    fn accounting_tracks_free_list_capacity() {
        use crate::mem::{MemAccountant, MemClass};
        let m = Metrics::new();
        let mem = MemAccountant::new(1);
        let pool = BufPool::with_accounting(m, mem.clone(), 0);
        pool.put(BytesMut::with_capacity(1024));
        pool.put(BytesMut::with_capacity(256));
        assert_eq!(mem.live_class(0, MemClass::Pool), 1280);
        let got = pool.get(512); // takes the 1024 buffer
        assert_eq!(mem.live_class(0, MemClass::Pool), 256);
        pool.put(got);
        pool.drain();
        assert_eq!(mem.live_class(0, MemClass::Pool), 0);
    }

    #[test]
    fn a_pinned_buffer_joins_the_free_list_once_its_views_drop() {
        use crate::mem::{MemAccountant, MemClass};
        let m = Metrics::new();
        let mem = MemAccountant::new(1);
        let pool = BufPool::with_accounting(m, mem.clone(), 0);
        let mut buf = pool.get(128);
        buf.extend_from_slice(b"still being read elsewhere");
        let frozen = buf.freeze();
        let view = frozen.slice(6..11);
        pool.reclaim(frozen); // try_into_mut fails: the view holds a ref
        assert_eq!(pool.free_count(), 0, "shared storage must not be pooled");
        assert_eq!(mem.live_class(0, MemClass::Pool), 0);
        drop(view); // the last view drops: the next pool call takes it
        assert_eq!(pool.free_count(), 1);
        assert_eq!(mem.live_class(0, MemClass::Pool), 128);
        let again = pool.get(64);
        assert_eq!(again.capacity(), 128, "the pinned buffer is recycled");

        // `drain` forgets pinned buffers too.
        let mut again = again;
        again.extend_from_slice(b"more");
        let frozen = again.freeze();
        let view = frozen.slice(..4);
        pool.reclaim(frozen);
        pool.drain();
        drop(view);
        assert_eq!((pool.free_count(), mem.live_class(0, MemClass::Pool)), (0, 0));
    }

    #[test]
    fn get_any_hands_out_largest_first() {
        let pool = BufPool::new();
        for cap in [64, 8192, 1024] {
            pool.put(BytesMut::with_capacity(cap));
        }
        // The free list is kept sorted ascending; get_any pops the tail.
        let first = pool.get_any(16);
        assert!(first.capacity() >= 8192, "largest warm buffer first");
        let second = pool.get_any(16);
        assert!(
            (1024..8192).contains(&second.capacity()),
            "then the next largest, got {}",
            second.capacity()
        );
    }

    #[test]
    fn get_any_on_empty_and_degenerate_lists() {
        let m = Metrics::new();
        let pool = BufPool::with_metrics(m.clone());
        // Empty list: a fresh buffer sized to the request, counted a miss.
        let fresh = pool.get_any(512);
        assert!(fresh.capacity() >= 512);
        assert_eq!(m.pool_misses(), 1);
        // Degenerate list (single runt smaller than any plausible stream):
        // get_any still hands it out — the caller grows it — and counts a
        // hit, because the allocation that matters was avoided.
        let mut runt = BytesMut::with_capacity(8);
        runt.extend_from_slice(b"stale");
        pool.put(runt);
        let got = pool.get_any(1 << 20);
        assert!(got.is_empty(), "recycled buffer is cleared");
        assert!(got.capacity() < 1 << 20, "get_any never pre-grows");
        assert_eq!(m.pool_hits(), 1);
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn best_fit_and_bounded() {
        let pool = BufPool::new();
        for cap in [16, 4096, 256] {
            pool.put(BytesMut::with_capacity(cap));
        }
        let cap = pool.get(100).capacity();
        assert!(
            (256..4096).contains(&cap),
            "smallest sufficient buffer handed out, got {cap}"
        );
        // Nothing on the list fits 1 MB: the largest leftover grows.
        let big = pool.get(1 << 20);
        assert!(big.capacity() >= 1 << 20);
        assert_eq!(pool.free_count(), 1, "the 16-byte runt is still free");
        pool.drain();
        assert_eq!(pool.free_count(), 0);
    }

    mod stats_model {
        use super::*;
        use crate::mem::{MemAccountant, MemClass};
        use proptest::prelude::*;

        proptest! {
            /// Pool statistics stay consistent across arbitrary interleaved
            /// get / get_any / freeze+reclaim / clone-then-drop / drain
            /// cycles: the accountant's `Pool` bytes always equal the sum
            /// of free-list capacities, the free list stays sorted and
            /// bounded, and hits + misses equal the number of get calls.
            #[test]
            fn stats_consistent_across_freeze_reclaim_cycles(
                ops in proptest::collection::vec(
                    (0u8..5, 1usize..4096, 0usize..2048),
                    1..120,
                ),
            ) {
                let metrics = Metrics::new();
                let mem = MemAccountant::new(1);
                let pool = BufPool::with_accounting(metrics.clone(), mem.clone(), 0);
                let mut outstanding: Vec<BytesMut> = Vec::new();
                let mut gets = 0u64;
                for (op, cap, fill) in ops {
                    match op {
                        0 => {
                            // Sized request.
                            let mut b = pool.get(cap);
                            prop_assert!(b.capacity() >= cap);
                            prop_assert!(b.is_empty());
                            b.extend_from_slice(&vec![0xAB; fill.min(cap)]);
                            outstanding.push(b);
                            gets += 1;
                        }
                        1 => {
                            // Unsized request (shuffle-stream shape).
                            let mut b = pool.get_any(cap);
                            prop_assert!(b.is_empty());
                            b.extend_from_slice(&vec![0xCD; fill]);
                            outstanding.push(b);
                            gets += 1;
                        }
                        2 => {
                            // Freeze + reclaim as the sole owner: pooled.
                            if let Some(b) = outstanding.pop() {
                                pool.reclaim(b.freeze());
                            }
                        }
                        3 => {
                            // Freeze with an outstanding clone alive at
                            // reclaim time: pooled by the next pool call
                            // after the clone drops.
                            if let Some(b) = outstanding.pop() {
                                let frozen = b.freeze();
                                let reader = frozen.clone();
                                pool.reclaim(frozen);
                                drop(reader);
                            }
                        }
                        _ => pool.drain(),
                    }
                    // Invariants after every step.
                    let caps = pool.free_capacities();
                    prop_assert!(
                        caps.windows(2).all(|w| w[0] <= w[1]),
                        "free list sorted ascending: {caps:?}"
                    );
                    prop_assert!(caps.len() <= 64, "free list bounded");
                    let total: usize = caps.iter().sum();
                    prop_assert_eq!(
                        mem.live_class(0, MemClass::Pool),
                        total as u64,
                        "accounted Pool bytes track free-list capacity"
                    );
                    prop_assert_eq!(metrics.pool_hits() + metrics.pool_misses(), gets);
                }
            }
        }
    }
}
