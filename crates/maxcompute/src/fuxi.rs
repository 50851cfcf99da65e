//! Fuxi — the resource management and scheduling module.
//!
//! The paper (§4.2) describes executors requesting Fuxi to "trigger
//! computing resources in the compute layer", with subtasks waiting until
//! "the resource conditions are satisfied". This analogue models the
//! cluster as one fixed pool of compute slots; an allocation blocks until
//! enough slots are free and releases them when dropped. The §5.2
//! observation that "more resources requested, more waiting time may be
//! needed for allocation" is directly measurable here.

use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// A slot allocation; slots return to the pool on drop (RAII).
pub struct Allocation {
    slots: usize,
    pool: Arc<Pool>,
}

/// Point-in-time snapshot of scheduling pressure — the paper's §5.2 "more
/// resources requested, more waiting time may be needed for allocation"
/// made measurable. Counters are cumulative since cluster boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FuxiStats {
    pub total_slots: usize,
    pub free_slots: usize,
    /// Peak concurrent slot usage.
    pub peak_used: usize,
    /// Allocations granted.
    pub allocations: u64,
    /// Allocation requests that had to wait for slots to free up.
    pub waits: u64,
    /// Cumulative time spent waiting for slots, in microseconds.
    pub wait_micros: u64,
}

struct PoolState {
    free_slots: usize,
    /// Peak concurrent usage (diagnostics).
    peak_used: usize,
    total_slots: usize,
    allocations: u64,
    waits: u64,
    wait_micros: u64,
}

impl PoolState {
    fn grant(&mut self, slots: usize) {
        self.free_slots -= slots;
        let used = self.total_slots - self.free_slots;
        self.peak_used = self.peak_used.max(used);
        self.allocations += 1;
    }
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// The Fuxi resource manager.
#[derive(Clone)]
pub struct Fuxi {
    pool: Arc<Pool>,
}

impl Fuxi {
    /// A cluster of `slots` compute slots.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "cluster needs at least one slot");
        Self {
            pool: Arc::new(Pool {
                state: Mutex::new(PoolState {
                    free_slots: slots,
                    peak_used: 0,
                    total_slots: slots,
                    allocations: 0,
                    waits: 0,
                    wait_micros: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Scheduling-pressure snapshot.
    pub fn stats(&self) -> FuxiStats {
        let state = self.pool.state.lock();
        FuxiStats {
            total_slots: state.total_slots,
            free_slots: state.free_slots,
            peak_used: state.peak_used,
            allocations: state.allocations,
            waits: state.waits,
            wait_micros: state.wait_micros,
        }
    }

    /// Block until `slots` are available, then take them.
    ///
    /// # Panics
    /// Panics when the request exceeds cluster capacity (it would never be
    /// satisfiable).
    pub fn allocate(&self, slots: usize) -> Allocation {
        let mut state = self.pool.state.lock();
        assert!(
            slots <= state.total_slots,
            "requested {slots} slots but the cluster has {}",
            state.total_slots
        );
        if state.free_slots < slots {
            state.waits += 1;
            let started = Instant::now();
            while state.free_slots < slots {
                self.pool.cv.wait(&mut state);
            }
            state.wait_micros += started.elapsed().as_micros() as u64;
        }
        state.grant(slots);
        Allocation {
            slots,
            pool: Arc::clone(&self.pool),
        }
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        let mut state = self.pool.state.lock();
        state.free_slots += self.slots;
        self.pool.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn allocate_and_release() {
        let fuxi = Fuxi::new(8);
        assert_eq!(fuxi.stats().total_slots, 8);
        let a = fuxi.allocate(5);
        assert_eq!(fuxi.stats().free_slots, 3);
        drop(a);
        let s = fuxi.stats();
        assert_eq!(s.free_slots, 8);
        assert_eq!(s.peak_used, 5);
    }

    #[test]
    fn blocking_allocation_waits_for_release() {
        let fuxi = Fuxi::new(2);
        let a = fuxi.allocate(2);
        let fuxi2 = fuxi.clone();
        // The subject is a second thread blocking on the first's slots.
        #[allow(clippy::disallowed_methods)]
        let handle = std::thread::spawn(move || {
            let _b = fuxi2.allocate(1); // blocks until `a` drops
            true
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "allocation should still be waiting");
        drop(a);
        assert!(handle.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn oversized_request_panics() {
        let fuxi = Fuxi::new(1);
        let _ = fuxi.allocate(2);
    }

    #[test]
    fn stats_count_allocations_and_waits() {
        let fuxi = Fuxi::new(2);
        let a = fuxi.allocate(2); // no wait
        let fuxi2 = fuxi.clone();
        // The subject is a second thread blocking on the first's slots.
        #[allow(clippy::disallowed_methods)]
        let handle = std::thread::spawn(move || {
            let _b = fuxi2.allocate(1); // must wait for `a`
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(a);
        handle.join().unwrap();
        let s = fuxi.stats();
        assert_eq!(s.total_slots, 2);
        assert_eq!(s.free_slots, 2);
        assert_eq!(s.peak_used, 2);
        assert_eq!(s.allocations, 2);
        assert_eq!(s.waits, 1);
        assert!(
            s.wait_micros > 0,
            "blocked allocation must record wait time"
        );
    }
}
