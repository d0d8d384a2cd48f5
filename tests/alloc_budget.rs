//! Heap traffic per request of the serve loop and of a captured
//! trace's JSON round trip, counted by this test binary's own global
//! allocator — a host-independent guard on the per-request allocation
//! cost that wall-clock benchmarks only see through noise.
//!
//! To re-measure after a change that legitimately moves a count, run
//! `cargo test --test alloc_budget -- --nocapture` (and once more with
//! `--release`), read the printed figures, and set each budget to the
//! larger of the two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use murakkab::scenario::{Scenario, Session};
use murakkab_trace::RunTrace;
use murakkab_traffic::ArrivalProcess;

thread_local! {
    /// Whether the allocator counts this thread's allocations; on only
    /// around the measured call. Counting per thread keeps tests that
    /// run side by side out of each other's counts; every measured call
    /// runs on the calling thread alone (one region, no worker threads).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) while
    /// counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` and returns what it returned with the allocations it made.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

// SAFETY: every operation is delegated to `System` unchanged; the
// bookkeeping is const-initialized thread-local cells that never
// allocate.
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
/// 21.57 (21.5686) measured once serve cells settled device utilization
/// online, so device series stopped growing their buffers (21.61 before;
/// 21.66 before serving backends stopped keeping per-step series and
/// stats; 21.72 before finished
/// tasks and released allocations were retired; 23.61 before the
/// region tick read its rebalancer inputs into a reused buffer; 54.66
/// before the tick, the pool autoscaling cycle and endpoint steps
/// stopped allocating), in debug and release builds alike.
const ALLOCS_PER_REQUEST_BUDGET: f64 = 21.57;

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
    let (report, allocs) = count_allocs(|| session.execute(&scenario));
    let report = report.expect("serves");
    let fleet = report.open_loop().expect("serves open-loop");
    assert!(
        fleet.completed >= 900,
        "{} of {} requests completed",
        fleet.completed,
        fleet.offered
    );
    let per_request = allocs as f64 / fleet.offered as f64;
    println!(
        "allocations per request: {per_request:.4} over {} offered, {} completed",
        fleet.offered, fleet.completed
    );
    assert!(
        per_request <= ALLOCS_PER_REQUEST_BUDGET,
        "{per_request:.2} allocations per request exceed the budget of {ALLOCS_PER_REQUEST_BUDGET}"
    );
}

/// Allocations per request record reading that trace back: 2.08
/// (2.0725) measured — a record's tenant and class strings, plus the
/// amortized growth of the record vector and the scenario's and
/// report's own allocations — in debug and release builds alike.
const TRACE_READ_ALLOCS_PER_REQUEST_BUDGET: f64 = 2.08;

/// The open-loop day the JSON round trip captures: half the serve
/// budget's hour.
fn json_scenario() -> Scenario {
    Scenario::open_loop(
        "alloc-json",
        ArrivalProcess::Poisson { rate_per_s: 0.3 },
        1800.0,
    )
    .seed(42)
}

#[test]
fn trace_json_round_trip_allocations_stay_within_budget() {
    let trace = RunTrace::capture(&json_scenario()).expect("captures");
    let requests = trace.requests.len();
    assert!(requests >= 500, "captured {requests} requests");
    let (written, write_allocs) =
        count_allocs(|| serde_json::to_writer_pretty(std::io::sink(), &trace));
    written.expect("the trace writes");
    let text = trace.to_json().expect("the trace serializes");
    let (back, read_allocs) = count_allocs(|| serde_json::from_str::<RunTrace>(&text));
    let back = back.expect("the trace reads back");
    assert_eq!(back.requests, trace.requests);
    let read_per_request = read_allocs as f64 / requests as f64;
    println!(
        "trace JSON over {requests} requests ({} bytes): {write_allocs} allocations \
         writing, {read_per_request:.4} per request reading",
        text.len()
    );
    // Measured: 0. The writer allocates nothing per value, so writing
    // costs no allocation at any request count.
    assert_eq!(write_allocs, 0, "writing the trace allocated");
    assert!(
        read_per_request <= TRACE_READ_ALLOCS_PER_REQUEST_BUDGET,
        "{read_per_request:.2} allocations per request reading the trace exceed the \
         budget of {TRACE_READ_ALLOCS_PER_REQUEST_BUDGET}"
    );
}
