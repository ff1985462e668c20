//! Heap-allocation budget of one E2.8 replica.
//!
//! E2.8 (the §2.8 DQN reliability grid) is the registry's critical path,
//! and its training step is meant to run on buffers its layers own. This
//! binary counts every allocation the process makes while one replica runs
//! at conformance parameters and seed 2023, so a change that puts the
//! training step back on the heap fails here, on a count that host speed
//! cannot blur. It holds one test: the counter is process-wide.

#![deny(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made by the process so far (`alloc`, plus `alloc_zeroed`
/// and `realloc`, whose default forms call `alloc`).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a counter in front of it.
struct Counting;

// `GlobalAlloc` is an unsafe trait with unsafe methods, so a counting
// allocator cannot be written without `unsafe`. Both methods forward their
// arguments unchanged to `System`, so they inherit its contract; the
// counter is an atomic and never touches the allocation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A tenth of the 1,691,281 allocations one replica made when every layer
/// returned a fresh `Matrix`.
const E2_8_BUDGET: u64 = 169_128;

#[test]
fn one_e2_8_replica_stays_within_its_allocation_budget() {
    let reg = treu::full_registry();
    let params = treu::conformance_params("E2.8");
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    reg.run_with("E2.8", 2023, params).expect("E2.8 is registered");
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    eprintln!("E2.8 replica: {made} allocations (budget {E2_8_BUDGET})");
    assert!(made <= E2_8_BUDGET, "one E2.8 replica made {made} allocations, budget {E2_8_BUDGET}");
}
