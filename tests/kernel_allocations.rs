//! The kernel's run loop allocates nothing per op.
//!
//! A counting global allocator (own test binary, per-thread counts) counts
//! the allocations `Kernel::run` makes for single-threaded victims at two
//! scales, ten times apart in ops. Fixed costs — task and meter state,
//! first-call symbol resolution, the results — cancel in the difference;
//! what is left may only be the extra doublings of buffers that grow with
//! the run (the witness's step list, the micro-op and event queues): ten
//! times the ops is log2(10) ≈ 3.3 more doublings per buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trustmeter::prelude::*;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell` with no destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (including reallocations) made by `Kernel::run` alone for
/// `workload` at `scale`, and the number of ops the victim executed.
fn run_allocations(workload: Workload, scale: f64) -> (u64, u64) {
    let mut kernel = Kernel::new(KernelConfig::paper_machine());
    let victim = kernel.spawn_process(workload.build(scale), 0);
    let before = ALLOCATIONS.with(Cell::get);
    let result = kernel.run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(!result.hit_horizon);
    let ops = kernel.task(victim).expect("victim task").ops_executed;
    (allocations, ops)
}

#[test]
fn kernel_run_allocates_nothing_per_op() {
    /// Up to four extra doublings (log2 10, rounded up) for each of two
    /// growing buffers, against thousands more ops at the larger scale.
    const BOUND: u64 = 8;
    for workload in [Workload::LoopO, Workload::Pi, Workload::Whetstone] {
        let (small, small_ops) = run_allocations(workload, 0.001);
        let (large, large_ops) = run_allocations(workload, 0.01);
        assert!(
            large_ops >= 9 * small_ops,
            "{workload}: {large_ops} ops vs {small_ops}"
        );
        let extra = large.saturating_sub(small);
        assert!(
            extra <= BOUND,
            "{workload}: {extra} more allocations for {} more ops \
             ({small} at scale 0.001, {large} at scale 0.01)",
            large_ops - small_ops
        );
    }
}
