//! Engine hot-path scoreboard: single-core events/sec and steady-state
//! allocation counts of one engine cell, pinned against pre-change
//! golden digests.
//!
//! Two workloads, both on one core so the number measures per-event
//! cost and not parallelism:
//!
//! 1. the simspeed workload at `shards = 1` — the same captured
//!    arrival log as `BENCH_simspeed.json`'s first row, so the
//!    digest golden is shared with that scoreboard;
//! 2. the committed trace fixture `traces/overload_small.json`,
//!    replayed via [`murakkab_trace::RunTrace::verify_replay`] — the
//!    fixture's recorded digest is the golden.
//!
//! Every run asserts its digest equals the pre-change golden before a
//! single rate is reported: an "optimization" that changes a report is
//! a determinism break, not a speedup. Allocation counts come from a
//! counting `#[global_allocator]` installed by the root binary
//! (`src/bin/engine_hotpath.rs`) and threaded in as a closure, so the
//! library itself stays allocator-agnostic (criterion and tests link it
//! without the counter).

use murakkab::scenario::Session;
use murakkab::FleetReport;
use serde::Serialize;

use crate::simspeed::{simspeed_log, simspeed_scenario, SIMSPEED_HORIZON_S};
use crate::write_bench_json;

/// Timed iterations per workload; the best (lowest wall-clock) run is
/// the reported rate, the first run supplies the allocation count.
pub const HOTPATH_ITERS: usize = 3;

/// Path of the committed trace fixture the replay workload drives.
pub const HOTPATH_TRACE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../traces/overload_small.json"
);

/// Pre-change golden digest of the full-horizon simspeed workload at
/// `shards = 1`. Matches the committed `BENCH_simspeed.json` shards=1
/// row.
pub const HOTPATH_GOLDEN_DIGEST_FULL: u64 = 0xea62_6496_fa46_806f;

/// Pre-change golden digest of the quick-horizon
/// ([`HOTPATH_QUICK_HORIZON_S`]) simspeed workload at `shards = 1` —
/// the CI variant of the same assertion.
pub const HOTPATH_GOLDEN_DIGEST_QUICK: u64 = 0x1633_34b3_c5b0_74d3;

/// Arrival horizon of the quick (CI) variant, seconds.
pub const HOTPATH_QUICK_HORIZON_S: f64 = 240.0;

/// Pre-change (PR 8, BTreeMap-keyed engine) single-thread baseline on
/// the full-horizon simspeed workload, events per wall-second. The
/// committed `BENCH_engine_hotpath.json` must show
/// `simspeed.events_per_wall_s >= 2x` this figure.
pub const PRE_ARENA_EVENTS_PER_WALL_S: f64 = 818_708.0;

/// Pre-change heap allocations per engine event on the same workload
/// (alloc + realloc + alloc_zeroed, counted across the whole run).
pub const PRE_ARENA_ALLOCS_PER_EVENT: f64 = 25.13;

/// One measured workload of the hot-path scoreboard.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathRow {
    /// Workload label.
    pub workload: String,
    /// Engine events processed by one run.
    pub events: u64,
    /// Best wall-clock over [`HOTPATH_ITERS`] runs, seconds.
    pub wall_s_best: f64,
    /// Events per wall-second at the best run.
    pub events_per_wall_s: f64,
    /// Heap allocations across one full run (`None` without the
    /// counting allocator).
    pub allocations: Option<u64>,
    /// Allocations per engine event (`None` without the counter).
    pub allocs_per_event: Option<f64>,
    /// Report digest, asserted equal to the pre-change golden.
    pub digest: String,
}

fn time_runs<F: FnMut() -> (u64, u64)>(
    iters: usize,
    alloc_count: Option<&dyn Fn() -> u64>,
    mut run: F,
) -> (u64, f64, Option<u64>, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    let mut digest = 0;
    let mut allocs = None;
    for i in 0..iters {
        let before = alloc_count.map(|f| f());
        let start = std::time::Instant::now();
        let (ev, dg) = run();
        let wall = start.elapsed().as_secs_f64();
        if i == 0 {
            allocs = alloc_count.map(|f| f() - before.unwrap_or(0));
        }
        events = ev;
        digest = dg;
        if wall < best {
            best = wall;
        }
    }
    (events, best, allocs, digest)
}

fn row(
    workload: &str,
    events: u64,
    wall_s_best: f64,
    allocations: Option<u64>,
    digest: u64,
) -> HotpathRow {
    HotpathRow {
        workload: workload.to_string(),
        events,
        wall_s_best,
        events_per_wall_s: events as f64 / wall_s_best.max(1e-9),
        allocations,
        allocs_per_event: allocations.map(|a| a as f64 / (events.max(1)) as f64),
        digest: format!("{digest:#018x}"),
    }
}

/// The engine hot-path bench driver: runs both single-core workloads,
/// asserts each digest against its pre-change golden, prints the
/// scoreboard and writes `BENCH_engine_hotpath.json`. `quick` trims the
/// simspeed horizon to [`HOTPATH_QUICK_HORIZON_S`] (CI mode; the trace
/// fixture is already small). `alloc_count` reads the process-wide allocation counter when
/// the caller installed one.
///
/// # Panics
///
/// Panics if a run fails, a digest diverges from its golden, or the
/// results file fails to write — bench binaries want loud failures.
pub fn engine_hotpath_main(seed: u64, quick: bool, alloc_count: Option<&dyn Fn() -> u64>) {
    let horizon_s = if quick {
        HOTPATH_QUICK_HORIZON_S
    } else {
        SIMSPEED_HORIZON_S
    };
    let golden = if quick {
        HOTPATH_GOLDEN_DIGEST_QUICK
    } else {
        HOTPATH_GOLDEN_DIGEST_FULL
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "Engine hot-path scoreboard (seed {seed}{}): simspeed shards=1 threads=1 over \
         {horizon_s}s + trace fixture replay, best of {HOTPATH_ITERS} on {host_cores} core(s)\n",
        if quick { ", quick" } else { "" },
    );

    // Workload 1: the simspeed arrival log on one cell, one thread.
    let log = simspeed_log(seed, horizon_s);
    let scenario = simspeed_scenario(seed, &log, 1, horizon_s);
    let session = Session::new(&scenario).expect("session builds");
    let (events, wall, allocs, digest) = time_runs(HOTPATH_ITERS, alloc_count, || {
        let executed = session.execute(&scenario).expect("simspeed run");
        let digest = executed.digest();
        let report: FleetReport = executed.into_open_loop().expect("open-loop report");
        (report.events_processed, digest)
    });
    if golden != 0 {
        assert_eq!(
            digest, golden,
            "simspeed digest diverged from the pre-change golden"
        );
    } else {
        println!("  (no golden pinned for this horizon; measured {digest:#018x})");
    }
    let simspeed = row("simspeed shards=1 threads=1", events, wall, allocs, digest);

    // Workload 2: the committed trace fixture, replayed and verified
    // against its own recorded digest (the pre-change golden).
    let trace =
        murakkab_trace::RunTrace::from_json_file(HOTPATH_TRACE_FIXTURE).expect("fixture loads");
    let (t_events, t_wall, t_allocs, t_digest) = time_runs(HOTPATH_ITERS, alloc_count, || {
        let report = trace
            .verify_replay()
            .expect("fixture replays bit-identical");
        let fleet = report.open_loop().expect("open-loop fixture");
        (fleet.events_processed, report.digest())
    });
    let replay = row("trace fixture replay", t_events, t_wall, t_allocs, t_digest);

    let speedup = simspeed.events_per_wall_s / PRE_ARENA_EVENTS_PER_WALL_S.max(1e-9);
    println!(
        "  {:>28} | {:>8} {:>12} | {:>12} {:>11} | digest",
        "workload", "wall s", "events/s", "allocs", "allocs/ev"
    );
    for r in [&simspeed, &replay] {
        println!(
            "  {:>28} | {:>8.2} {:>12.0} | {:>12} {:>11} | {}",
            r.workload,
            r.wall_s_best,
            r.events_per_wall_s,
            r.allocations.map_or("-".into(), |a| a.to_string()),
            r.allocs_per_event.map_or("-".into(), |a| format!("{a:.1}")),
            r.digest,
        );
    }
    if PRE_ARENA_EVENTS_PER_WALL_S > 0.0 && !quick {
        println!(
            "\n  {speedup:.2}x vs pre-arena baseline ({PRE_ARENA_EVENTS_PER_WALL_S:.0} ev/s, \
             {PRE_ARENA_ALLOCS_PER_EVENT:.1} allocs/ev)"
        );
    }

    #[derive(Serialize)]
    struct Baseline {
        events_per_wall_s: f64,
        allocs_per_event: f64,
        note: &'static str,
    }
    #[derive(Serialize)]
    struct EngineHotpathBench {
        seed: u64,
        quick: bool,
        host_cores: usize,
        iterations: usize,
        baseline_pre_arena: Baseline,
        speedup_vs_pre_arena: f64,
        simspeed: HotpathRow,
        trace_replay: HotpathRow,
    }
    let path = write_bench_json(
        "engine_hotpath",
        &EngineHotpathBench {
            seed,
            quick,
            host_cores,
            iterations: HOTPATH_ITERS,
            baseline_pre_arena: Baseline {
                events_per_wall_s: PRE_ARENA_EVENTS_PER_WALL_S,
                allocs_per_event: PRE_ARENA_ALLOCS_PER_EVENT,
                note: "single-thread full-horizon simspeed workload, measured at the \
                       commit before the arena refactor on a 1-core host",
            },
            speedup_vs_pre_arena: speedup,
            simspeed,
            trace_replay: replay,
        },
    )
    .expect("results file writes");
    println!("\n(wrote {})", path.display());
}
