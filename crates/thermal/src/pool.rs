//! Synchronization primitives for the persistent-worker CG driver.
//!
//! The solver's grids are small enough (tens of thousands of cells) that
//! spawning threads per phase costs more than the phase's arithmetic, so
//! the multi-threaded CG driver spawns its workers once per solve and
//! coordinates the phases with [`SpinBarrier`]. Vectors are shared between
//! workers through [`SharedSlice`], whose disjointness discipline is
//! enforced by the driver's barrier structure (see the safety contract on
//! [`SharedSlice::range_mut`]).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sense-reversing spin barrier.
///
/// `wait` busy-spins (yielding to the OS after a while, in case workers
/// are oversubscribed), which makes a barrier crossing take fractions of a
/// microsecond instead of the several microseconds a mutex/condvar barrier
/// needs — the CG loop crosses five to seven barriers per iteration, so
/// this is the difference between threading helping and hurting.
///
/// Every write made by a worker before `wait` is visible to every worker
/// after it returns (release/acquire ordering on the generation counter).
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    workers: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `workers` participants.
    pub(crate) fn new(workers: usize) -> Self {
        SpinBarrier {
            workers,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all `workers` participants have called `wait`.
    pub(crate) fn wait(&self) {
        if self.workers == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) == self.workers - 1 {
            // Last arrival: reset the count *before* releasing the others,
            // so a fast worker entering the next barrier sees zero.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins < 1 << 14 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A raw view of an `f64` slice that several workers may slice
/// concurrently, with disjointness enforced by the caller instead of the
/// borrow checker.
///
/// The CG driver writes each vector in layer slabs in one phase and reads
/// it whole in another (the stencil reads `p` across slab boundaries), so
/// no single `split_at_mut` decomposition can serve the whole solve.
/// Instead each phase derives exactly the sub-slices it needs and lets
/// them die before the next barrier.
///
/// The lifetime parameter pins the borrow of the underlying vector for as
/// long as any copy of the view exists, so the storage cannot move or drop
/// while workers hold views into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedSlice<'a> {
    ptr: *mut f64,
    len: usize,
    _borrow: PhantomData<&'a mut [f64]>,
}

// SAFETY: the raw pointer is only dereferenced through `range`/`range_mut`,
// whose contracts confine every dereference to the barrier discipline
// described there. The data itself (f64) is Send + Sync.
unsafe impl Send for SharedSlice<'_> {}
unsafe impl Sync for SharedSlice<'_> {}

impl<'a> SharedSlice<'a> {
    /// Wraps a uniquely-borrowed slice. The original binding must not be
    /// accessed until every copy of the view is gone (the borrow checker
    /// enforces this through the lifetime).
    pub(crate) fn new(slice: &'a mut [f64]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _borrow: PhantomData,
        }
    }

    /// Shared read access to `lo..hi`.
    ///
    /// # Safety
    ///
    /// No worker may hold a `range_mut` overlapping `lo..hi` at any point
    /// between the barrier crossings that bracket this phase. (Reads
    /// concurrent with other reads are fine.)
    pub(crate) unsafe fn range(&self, lo: usize, hi: usize) -> &'a [f64] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts(self.ptr.add(lo), hi - lo)
    }

    /// Exclusive write access to `lo..hi`.
    ///
    /// # Safety
    ///
    /// The ranges derived by all workers between two consecutive barrier
    /// crossings must be pairwise disjoint from this one (mut/mut and
    /// mut/shared alike), and the returned slice must be dropped before
    /// the next barrier crossing. The CG driver guarantees this by fixed
    /// partitioning: each phase assigns every worker a distinct slab.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range_mut(&self, lo: usize, hi: usize) -> &'a mut [f64] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// Shared read access to the whole slice (same contract as [`range`]).
    ///
    /// # Safety
    ///
    /// See [`SharedSlice::range`].
    pub(crate) unsafe fn whole(&self) -> &'a [f64] {
        self.range(0, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_rendezvous_is_correct_across_generations() {
        const WORKERS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(WORKERS);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between barriers every worker must observe the
                        // full round's increments.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= ((round + 1) * WORKERS) as u64);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (WORKERS * ROUNDS) as u64);
    }

    #[test]
    fn single_worker_barrier_is_free() {
        let barrier = SpinBarrier::new(1);
        for _ in 0..10 {
            barrier.wait();
        }
    }

    #[test]
    fn shared_slice_partitions_disjointly() {
        let mut data = vec![0.0f64; 64];
        let shared = SharedSlice::new(&mut data);
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    // SAFETY: the four ranges are pairwise disjoint.
                    let slab = unsafe { shared.range_mut(w * 16, (w + 1) * 16) };
                    for v in slab {
                        *v = w as f64;
                    }
                });
            }
        });
        for w in 0..4 {
            assert!(data[w * 16..(w + 1) * 16].iter().all(|&v| v == w as f64));
        }
    }
}
