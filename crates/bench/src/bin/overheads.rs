//! Measures Murakkab's overheads (§3.3) and the workflow-aware vs
//! workflow-blind cluster-management ablation.
//!
//! - **DAG creation**: the orchestration LLM queries' share of end-to-end
//!   time (the paper claims "less than 1% of the execution time").
//! - **Profiling**: one-off cost of profiling the whole library, amortised
//!   over workflow runs.
//! - **Workflow-aware release**: energy saved by returning idle agents'
//!   resources early (the paper's Whisper example).
//!
//! Run with `cargo run -p murakkab-bench --bin overheads [seed]`.

use std::time::Instant;

use murakkab::runtime::SttChoice;
use murakkab::scenario::{Scenario, Session};
use murakkab_agents::library::stock_library;
use murakkab_agents::Profiler;
use murakkab_bench::{write_bench_json, SEED};
use serde::Serialize;

/// The overheads results file (profiling_ms is wall-clock and varies
/// run-to-run; the simulated quantities are seed-deterministic).
#[derive(Serialize)]
struct OverheadResults {
    seed: u64,
    profiling_ms: f64,
    profiles: usize,
    agents: usize,
    orchestration_s: f64,
    orchestration_fraction: f64,
    aware_energy_wh: f64,
    blind_energy_wh: f64,
    aware_makespan_s: f64,
    blind_makespan_s: f64,
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED);
    let base = Scenario::closed_loop("murakkab-gpu").seed(seed);
    let session = Session::new(&base).expect("session builds");

    // (a) Profiling overhead: wall-clock to profile the full library.
    let t0 = Instant::now();
    let lib = stock_library();
    let store = Profiler::default().profile_library(&lib);
    let profiling_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("Overheads (§3.3), seed {seed}:\n");
    println!(
        "(a) Profiling: {} profiles over {} agents generated in {profiling_ms:.1} ms \
         (one-off, amortised over every workflow)",
        store.all().len(),
        lib.len()
    );

    // (b) DAG creation: orchestration share of workflow time.
    let report = session
        .execute(&base.clone().stt(SttChoice::Gpu))
        .expect("run succeeds")
        .into_closed_loop()
        .expect("closed-loop report");
    println!(
        "(b) DAG creation: {:.2}s of {:.1}s total = {:.2}% of execution time \
         (paper claims <1%)",
        report.orchestration_s,
        report.makespan_s,
        100.0 * report.orchestration_fraction()
    );

    // (c) Workflow-aware vs workflow-blind cluster management.
    // Hybrid STT finishes ~half-way through the run, so the early release
    // of its GPU worker is clearly visible.
    let aware = session
        .execute(
            &base
                .clone()
                .labeled("workflow-aware")
                .stt(SttChoice::Hybrid)
                .workflow_aware(true),
        )
        .expect("run succeeds")
        .into_closed_loop()
        .expect("closed-loop report");
    let blind = session
        .execute(
            &base
                .labeled("workflow-blind")
                .stt(SttChoice::Hybrid)
                .workflow_aware(false),
        )
        .expect("run succeeds")
        .into_closed_loop()
        .expect("closed-loop report");
    println!(
        "(c) Workflow-aware release: {:.1} Wh vs {:.1} Wh blind \
         ({:.1}% energy saved by returning idle agents' GPUs early)",
        aware.energy_allocated_wh,
        blind.energy_allocated_wh,
        100.0 * (1.0 - aware.energy_allocated_wh / blind.energy_allocated_wh)
    );
    println!(
        "    makespans: aware {:.1}s, blind {:.1}s (release is off the critical path)",
        aware.makespan_s, blind.makespan_s
    );

    let path = write_bench_json(
        "overheads",
        &OverheadResults {
            seed,
            profiling_ms,
            profiles: store.all().len(),
            agents: lib.len(),
            orchestration_s: report.orchestration_s,
            orchestration_fraction: report.orchestration_fraction(),
            aware_energy_wh: aware.energy_allocated_wh,
            blind_energy_wh: blind.energy_allocated_wh,
            aware_makespan_s: aware.makespan_s,
            blind_makespan_s: blind.makespan_s,
        },
    )
    .expect("results file writes");
    println!("\n(wrote {})", path.display());
}
