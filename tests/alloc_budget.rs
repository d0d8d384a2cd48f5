//! Heap traffic per request of the serve loop, counted by this test
//! binary's own global allocator — a host-independent guard on the
//! per-request allocation cost that wall-clock benchmarks only see
//! through noise.
//!
//! To re-measure after a change that legitimately moves the count, run
//! `cargo test --test alloc_budget -- --nocapture` (and once more with
//! `--release`), read the printed `allocations per request`, and set
//! [`ALLOCS_PER_REQUEST_BUDGET`] to the larger of the two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use murakkab::scenario::{Scenario, Session};
use murakkab_traffic::ArrivalProcess;

/// Whether the allocator counts; on only around the measured call.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) while counting.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every operation is delegated to `System` unchanged; the
// bookkeeping is relaxed atomics that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract, forwarded
        // to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per offered request of [`budget_scenario`]'s serve call:
/// 21.66 (21.6598) measured once finished tasks and released
/// allocations were retired, so the task window and the allocation
/// table stop regrowing (21.72 before; 23.61 before the region tick
/// read its rebalancer inputs into a reused buffer; 54.66 before the
/// tick, the pool autoscaling cycle and endpoint steps stopped
/// allocating), in debug and release builds alike.
const ALLOCS_PER_REQUEST_BUDGET: f64 = 21.66;

/// A small one-cell open-loop hour on the paper testbed: Poisson
/// arrivals over the stock tenants at a load the cell mostly serves,
/// with pools releasing and re-provisioning and the advisory rebalancer
/// ticking.
fn budget_scenario() -> Scenario {
    Scenario::open_loop(
        "alloc-budget",
        ArrivalProcess::Poisson { rate_per_s: 0.3 },
        3600.0,
    )
    .seed(42)
}

#[test]
fn serve_allocations_per_request_stay_within_budget() {
    let scenario = budget_scenario();
    let session = Session::new(&scenario).expect("the scenario validates");
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let report = session.execute(&scenario);
    COUNTING.store(false, Ordering::Relaxed);
    let report = report.expect("serves");
    let fleet = report.open_loop().expect("serves open-loop");
    assert!(
        fleet.completed >= 900,
        "{} of {} requests completed",
        fleet.completed,
        fleet.offered
    );
    let per_request = ALLOCS.load(Ordering::Relaxed) as f64 / fleet.offered as f64;
    println!(
        "allocations per request: {per_request:.4} over {} offered, {} completed",
        fleet.offered, fleet.completed
    );
    assert!(
        per_request <= ALLOCS_PER_REQUEST_BUDGET,
        "{per_request:.2} allocations per request exceed the budget of {ALLOCS_PER_REQUEST_BUDGET}"
    );
}
