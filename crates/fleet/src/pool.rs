//! Allocation-recycled buffers for the release path.
//!
//! Every `take_ready` drains the contiguous completion prefix into a
//! `Vec<RunRecord>` that the consumer (a stream pump, the final drain)
//! immediately empties again. Under sustained load that is one heap
//! allocation — often a large one, records carry full audit evidence —
//! per release batch. A `BufferPool` keeps the emptied containers and
//! hands their capacity back to the next batch, so the steady state
//! allocates nothing on the release path.
//!
//! The pool is a deliberately boring free list behind a mutex: it is
//! touched once per release *batch* (not per job), so contention is not a
//! concern — the win is the allocator traffic, not the locking. Counters
//! are relaxed atomics so taking the pool's stats never blocks a release.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Buffers parked in the free list beyond this are dropped instead —
/// a shrinking pipeline should not hoard its high-water capacity forever.
const MAX_IDLE: usize = 8;

/// A point-in-time snapshot of the release-path buffer pool's recycling
/// behaviour (all counters monotonic except the `idle*` gauges), read
/// through [`crate::IngestStats::pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PoolStats {
    /// Buffers checked out, total.
    pub acquired: u64,
    /// Checkouts served from the free list (the rest allocated fresh).
    pub reused: u64,
    /// Emptied buffers returned to the free list.
    pub returned: u64,
    /// Buffers currently parked in the free list.
    pub idle: u64,
    /// Total element capacity currently parked (what a fresh batch gets
    /// without touching the allocator).
    pub idle_capacity: u64,
}

impl PoolStats {
    /// Checkouts that had to allocate because the free list was empty.
    pub fn allocated(&self) -> u64 {
        self.acquired - self.reused
    }
}

/// A free list of `Vec<T>` containers that keeps capacity alive across
/// checkouts. See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct BufferPool<T> {
    free: Mutex<Vec<Vec<T>>>,
    acquired: AtomicU64,
    reused: AtomicU64,
    returned: AtomicU64,
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> BufferPool<T> {
        BufferPool {
            free: Mutex::new(Vec::new()),
            acquired: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            returned: AtomicU64::new(0),
        }
    }

    fn free_list(&self) -> std::sync::MutexGuard<'_, Vec<Vec<T>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks out an empty buffer, reusing a parked container (and its
    /// capacity) when one is available.
    pub fn acquire(&self) -> Vec<T> {
        self.acquired.fetch_add(1, Ordering::Relaxed);
        match self.free_list().pop() {
            Some(buffer) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                buffer
            }
            None => Vec::new(),
        }
    }

    /// Gives a buffer back: clears it (dropping any leftover elements) and
    /// parks the container for the next [`BufferPool::acquire`]. Buffers
    /// with no capacity, or arriving when the free list is full, are
    /// simply dropped.
    pub fn release(&self, mut buffer: Vec<T>) {
        buffer.clear();
        if buffer.capacity() == 0 {
            return;
        }
        let mut free = self.free_list();
        if free.len() >= MAX_IDLE {
            return;
        }
        self.returned.fetch_add(1, Ordering::Relaxed);
        free.push(buffer);
    }

    /// A snapshot of the pool counters and gauges.
    pub fn stats(&self) -> PoolStats {
        let free = self.free_list();
        PoolStats {
            acquired: self.acquired.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
            idle: free.len() as u64,
            idle_capacity: free.iter().map(|b| b.capacity() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_released_capacity() {
        let pool: BufferPool<u32> = BufferPool::new();
        let mut buffer = pool.acquire();
        buffer.extend([1, 2, 3]);
        let capacity = buffer.capacity();
        pool.release(buffer);
        let stats = pool.stats();
        assert_eq!(stats.acquired, 1);
        assert_eq!(stats.reused, 0);
        assert_eq!(stats.returned, 1);
        assert_eq!(stats.idle, 1);
        assert_eq!(stats.idle_capacity, capacity as u64);
        let recycled = pool.acquire();
        assert!(recycled.is_empty(), "recycled buffers come back cleared");
        assert_eq!(recycled.capacity(), capacity);
        let stats = pool.stats();
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.allocated(), 1);
        assert_eq!(stats.idle, 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_parked() {
        let pool: BufferPool<u32> = BufferPool::new();
        pool.release(Vec::new());
        assert_eq!(pool.stats().idle, 0);
        assert_eq!(pool.stats().returned, 0);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool: BufferPool<u32> = BufferPool::new();
        for _ in 0..2 * MAX_IDLE {
            pool.release(Vec::with_capacity(4));
        }
        let stats = pool.stats();
        assert_eq!(stats.idle, MAX_IDLE as u64);
        assert_eq!(stats.returned, MAX_IDLE as u64);
    }
}
