//! Shared harness for the benchmark binaries.
//!
//! One function per evaluation artifact: each returns the full set of
//! reports the corresponding table/figure is built from, for the
//! `figure3`/`table2`/`table1`/`overheads`/`fleet` binaries; the
//! integration tests reuse the sweep scenarios. Every binary also
//! writes its results to `BENCH_<name>.json` via [`write_bench_json`].

pub mod geo;
pub use geo::{geo_main, run_geo_sweep, GeoRow};

use std::path::PathBuf;

use murakkab::fleet::CellPolicy;
use murakkab::runtime::SttChoice;
use murakkab::scenario::{Scenario, Session};
use murakkab::{FleetReport, RunReport, ServingMode};
use murakkab_sim::{SimDuration, SimError, SimRng};
use murakkab_traffic::{AdmissionConfig, ArrivalLog, ArrivalProcess};

/// The default experiment seed (any seed reproduces the paper's shape;
/// this one is used for the committed EXPERIMENTS.md numbers).
pub const SEED: u64 = 42;

/// Paper reference values for Table 2: `(label, energy Wh, time s)`.
pub const PAPER_TABLE2: [(&str, f64, f64); 4] = [
    ("Baseline", 155.0, 285.0),
    ("Murakkab CPU", 34.0, 83.0),
    ("Murakkab GPU", 43.0, 77.0),
    ("Murakkab GPU + CPU", 42.0, 77.0),
];

/// Runs the four Video Understanding configurations of Figure 3 / Table 2
/// in the paper's row order: baseline, CPU, GPU, GPU+CPU.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_table2_configs(seed: u64) -> Result<Vec<RunReport>, SimError> {
    let base = Scenario::closed_loop("Murakkab CPU")
        .seed(seed)
        .stt(SttChoice::Cpu);
    let session = Session::new(&base)?;
    let mut reports = vec![murakkab::run_baseline_video_understanding(seed)?];
    for scenario in [
        base.clone(),
        base.clone().labeled("Murakkab GPU").stt(SttChoice::Gpu),
        base.labeled("Murakkab GPU + CPU").stt(SttChoice::Hybrid),
    ] {
        reports.push(session.execute(&scenario)?.into_closed_loop()?);
    }
    Ok(reports)
}

/// Headline claims derived from the Table 2 runs: `(speedup, energy
/// efficiency)` of the constraint-chosen Murakkab config vs the baseline.
pub fn headline_claims(reports: &[RunReport]) -> (f64, f64) {
    let baseline = &reports[0];
    // MIN_COST picks the CPU configuration (§4).
    let chosen = &reports[1];
    (
        chosen.speedup_vs(baseline),
        chosen.energy_efficiency_vs(baseline),
    )
}

/// The fleet sweep's base offered load (requests per second) and the
/// multipliers swept over it — chosen so the low point is comfortably
/// underloaded and the high point clearly overloads the paper testbed.
pub const FLEET_BASE_RATE: f64 = 0.15;

/// Offered-load multipliers of the fleet sweep.
pub const FLEET_LOAD_FACTORS: [f64; 3] = [0.5, 1.0, 3.0];

/// Arrival horizon of each fleet sweep point, seconds.
pub const FLEET_HORIZON_S: f64 = 600.0;

/// The arrival processes the fleet bench sweeps: smooth Poisson and a
/// bursty MMPP with the same long-run rate.
pub fn fleet_processes(rate_per_s: f64) -> Vec<(&'static str, ArrivalProcess)> {
    vec![
        ("poisson", ArrivalProcess::Poisson { rate_per_s }),
        (
            "bursty",
            ArrivalProcess::Mmpp {
                // Same mean rate, concentrated in ON bursts: 1/4 duty
                // cycle at 4x the rate.
                on_rate_per_s: rate_per_s * 4.0,
                off_rate_per_s: 0.0,
                mean_on_s: 30.0,
                mean_off_s: 90.0,
            },
        ),
    ]
}

/// Runs a fleet sweep over the given load factors and processes,
/// admission control on.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_fleet_sweep_with(
    seed: u64,
    factors: &[f64],
    horizon_s: f64,
    processes_per_rate: usize,
) -> Result<Vec<FleetReport>, SimError> {
    // One session serves every sweep point: all scenarios share the
    // paper-testbed cluster and the seed.
    let probe = Scenario::open_loop(
        "sweep",
        ArrivalProcess::Poisson {
            rate_per_s: FLEET_BASE_RATE,
        },
        horizon_s,
    )
    .seed(seed);
    let session = Session::new(&probe)?;
    let mut reports = Vec::new();
    for &factor in factors {
        let rate = FLEET_BASE_RATE * factor;
        for (name, process) in fleet_processes(rate).into_iter().take(processes_per_rate) {
            let label = format!("{name} x{factor}");
            let scenario = Scenario::open_loop(&label, process, horizon_s).seed(seed);
            reports.push(session.execute(&scenario)?.into_open_loop()?);
        }
    }
    Ok(reports)
}

/// Runs the full fleet sweep: every arrival process × every offered-load
/// factor, admission control on.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_fleet_sweep(seed: u64) -> Result<Vec<FleetReport>, SimError> {
    run_fleet_sweep_with(seed, &FLEET_LOAD_FACTORS, FLEET_HORIZON_S, usize::MAX)
}

/// Nodes in the shard-scaling sweep's cluster — fixed across shard
/// counts, so the sweep isolates the scheduler architecture (one
/// monolithic engine vs N cells) on identical hardware. Sixteen nodes
/// keep every cell at two nodes even at the widest shard count (a cell
/// needs room for its own LLM serving stack next to its tool pools).
pub const FLEET_SHARD_NODES: usize = 16;

/// Shard counts swept at the overload point.
pub const FLEET_SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Offered rate of the shard sweep (well past the single-cell knee).
pub const FLEET_SHARD_RATE: f64 = 0.8;

/// Admission config for the shard sweep: the front door is sized to the
/// offered load so serving capacity — the thing sharding scales — is the
/// binding constraint, not the token bucket.
pub fn shard_sweep_admission() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        rate_per_s: FLEET_SHARD_RATE * 1.5,
        burst: 16.0,
        max_queue: 16,
        slack_per_backlog: 0.5,
    }
}

/// Captures the shard sweep's overloaded Poisson stream as an
/// [`ArrivalLog`] — the same fork path `Runtime::serve` uses, so a
/// live [`FLEET_SHARD_RATE`] run and its replay see identical instants.
pub fn shard_sweep_log(seed: u64, horizon_s: f64) -> ArrivalLog {
    let process = ArrivalProcess::Poisson {
        rate_per_s: FLEET_SHARD_RATE,
    };
    let mut rng = SimRng::new(seed).fork("fleet").fork("arrivals");
    ArrivalLog::record(&process, &mut rng, SimDuration::from_secs_f64(horizon_s))
}

/// The shard sweep's scenario for one shard count: the captured log
/// replayed with the front door from [`shard_sweep_admission`] and a
/// fleet-wide in-flight budget that cells split between them, on a
/// cluster of `nodes` VMs.
pub fn shard_sweep_scenario(
    seed: u64,
    log: &ArrivalLog,
    shards: usize,
    horizon_s: f64,
    nodes: usize,
) -> Scenario {
    Scenario::open_loop(
        &format!("shards={shards}"),
        ArrivalProcess::Replay { log: log.clone() },
        horizon_s,
    )
    .seed(seed)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), nodes)
    .shards(shards)
    .router(CellPolicy::LeastLoaded)
    .max_inflight(24)
    .admission(shard_sweep_admission())
}

/// Runs the shard-scaling sweep: one overloaded Poisson stream is
/// captured into an [`ArrivalLog`] and replayed at every shard count on
/// the same [`FLEET_SHARD_NODES`]-node cluster, so every point sees
/// byte-identical traffic.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_fleet_shard_sweep(
    seed: u64,
    shard_counts: &[usize],
    horizon_s: f64,
) -> Result<Vec<FleetReport>, SimError> {
    let log = shard_sweep_log(seed, horizon_s);
    // One session serves every shard count (same cluster, same seed).
    let probe = shard_sweep_scenario(seed, &log, 1, horizon_s, FLEET_SHARD_NODES);
    let session = Session::new(&probe)?;
    shard_counts
        .iter()
        .map(|&shards| {
            let scenario = shard_sweep_scenario(seed, &log, shards, horizon_s, FLEET_SHARD_NODES);
            session.execute(&scenario)?.into_open_loop()
        })
        .collect()
}

/// Nodes in the disagg sweep's fixed cluster — small enough that the
/// overload point is cheap to reach, large enough that a disaggregated
/// NVLM pair (3 + 5 GPUs) coexists with every tool pool.
pub const DISAGG_NODES: usize = 4;

/// Offered rate of the disagg sweep, requests per second — well past
/// the colocated knee on [`DISAGG_NODES`] nodes, so the serving regime
/// (not the hardware) is the binding constraint.
pub const DISAGG_RATE: f64 = 0.40;

/// Arrival horizon of the disagg sweep, seconds.
pub const DISAGG_HORIZON_S: f64 = 600.0;

/// Admission config for the disagg sweep: the front door is sized to
/// the offered load so serving capacity — the thing the backend changes
/// — is the binding constraint, not the token bucket.
pub fn disagg_admission() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        rate_per_s: DISAGG_RATE * 1.5,
        burst: 16.0,
        max_queue: 16,
        slack_per_backlog: 0.5,
    }
}

/// Captures the disagg sweep's overloaded Poisson stream as an
/// [`ArrivalLog`] — the same fork path `Runtime::serve` uses, so every
/// backend replays byte-identical traffic.
pub fn disagg_log(seed: u64, horizon_s: f64) -> ArrivalLog {
    let process = ArrivalProcess::Poisson {
        rate_per_s: DISAGG_RATE,
    };
    let mut rng = SimRng::new(seed).fork("fleet").fork("arrivals");
    ArrivalLog::record(&process, &mut rng, SimDuration::from_secs_f64(horizon_s))
}

/// The disagg sweep's scenario for one backend: the captured log
/// replayed on a single engine cell under the given serving regime, on
/// the fixed [`DISAGG_NODES`]-node cluster.
pub fn disagg_scenario(
    seed: u64,
    log: &ArrivalLog,
    serving: ServingMode,
    horizon_s: f64,
) -> Scenario {
    Scenario::open_loop(
        serving.tag(),
        ArrivalProcess::Replay { log: log.clone() },
        horizon_s,
    )
    .seed(seed)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), DISAGG_NODES)
    .max_inflight(24)
    .admission(disagg_admission())
    .serving(serving)
}

/// Runs the serving-backend sweep: one overloaded arrival log captured
/// once and replayed against the colocated and disaggregated backends
/// on the same [`DISAGG_NODES`]-node cluster. Returns `[colocated,
/// disaggregated]`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_disagg_sweep(seed: u64, horizon_s: f64) -> Result<Vec<FleetReport>, SimError> {
    let log = disagg_log(seed, horizon_s);
    // One session serves both backends (same cluster, same seed).
    let probe = disagg_scenario(seed, &log, ServingMode::Colocated, horizon_s);
    let session = Session::new(&probe)?;
    [ServingMode::Colocated, ServingMode::Disaggregated]
        .into_iter()
        .map(|mode| {
            let scenario = disagg_scenario(seed, &log, mode, horizon_s);
            session.execute(&scenario)?.into_open_loop()
        })
        .collect()
}

/// Parses the `[seed] [--quick]` arguments every root bench binary
/// takes: the seed defaults to [`SEED`], `--quick` trims the run to CI
/// size. Any other argument prints `usage: <name> [seed] [--quick]` and
/// exits with status 2.
pub fn bench_args(name: &str) -> (u64, bool) {
    let mut seed = SEED;
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Ok(s) = arg.parse() {
            seed = s;
        } else {
            eprintln!("usage: {name} [seed] [--quick]");
            std::process::exit(2);
        }
    }
    (seed, quick)
}

/// Writes a machine-readable results file `BENCH_<name>.json` next to the
/// human-readable table every bench binary prints, so the perf trajectory
/// accumulates across runs.
///
/// # Errors
///
/// Propagates serialization and IO failures.
pub fn write_bench_json(
    name: &str,
    value: &impl serde::Serialize,
) -> Result<PathBuf, std::io::Error> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let json =
        serde_json::to_string_pretty(value).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The fleet bench driver: prints the load sweep, runs the
/// admission-control ablation and the shard-scaling sweep at the
/// overload point, and writes `BENCH_fleet.json` (`sweep` +
/// `shard_scaling` sections). `quick` trims every axis to its smallest
/// point (one load point, shards {1, 2}, short horizon) so CI can
/// exercise the full path on every push.
///
/// # Panics
///
/// Panics if a sweep run or the results file fails — bench binaries want
/// loud failures.
pub fn fleet_main(seed: u64, quick: bool) {
    let (factors, horizon_s, processes_per_rate): (&[f64], f64, usize) = if quick {
        (&FLEET_LOAD_FACTORS[..1], 240.0, 1)
    } else {
        (&FLEET_LOAD_FACTORS, FLEET_HORIZON_S, usize::MAX)
    };
    println!(
        "Fleet serving sweep (seed {seed}{}): {} load points, {horizon_s}s horizon\n",
        if quick { ", quick" } else { "" },
        factors.len(),
    );

    let reports = run_fleet_sweep_with(seed, factors, horizon_s, processes_per_rate)
        .expect("fleet sweep runs");
    for report in &reports {
        println!(
            "== {} ({:.3} req/s offered, admission {}) ==",
            report.label,
            report.offered_rate_per_s,
            if report.admission_enabled {
                "on"
            } else {
                "off"
            }
        );
        println!("{}", report.summary_line());
        println!("{}", report.class_table());
        println!(
            "  rejected: {} rate / {} deadline / {} queue-full | util GPU {:.1}% CPU {:.1}% | \
             autoscale {}↑ {}↓ | rebalancer hints {}\n",
            report.rejected_rate,
            report.rejected_deadline,
            report.rejected_queue_full,
            report.gpu_util_avg_pct,
            report.cpu_util_avg_pct,
            report.pool_scale_ups,
            report.pool_scale_downs,
            report.rebalance_actions,
        );
    }

    // Admission-control ablation at the overload point (the sweep's last
    // run load factor; labels derive from the same constants the sweep
    // uses).
    let top_factor = factors[factors.len() - 1];
    let overload = FLEET_BASE_RATE * top_factor;
    let (gated_name, process) = fleet_processes(overload).remove(0);
    let open = Scenario::open_loop(&format!("no-admission x{top_factor}"), process, horizon_s)
        .seed(seed)
        .admission(AdmissionConfig::disabled())
        .run()
        .expect("no-admission run")
        .into_open_loop()
        .expect("open-loop report");
    let gated_label = format!("{gated_name} x{top_factor}");
    let gated = reports
        .iter()
        .find(|r| r.label == gated_label)
        .expect("overload point exists");
    println!("Admission-control ablation at {overload:.3} req/s (poisson):");
    println!(
        "  with admission:    SLO attainment {:>5.1}%  ({} admitted, {} rejected)",
        100.0 * gated.slo_attainment,
        gated.admitted,
        gated.rejections()
    );
    println!(
        "  without admission: SLO attainment {:>5.1}%  ({} admitted, p95 worst-class {:.0}s)",
        100.0 * open.slo_attainment,
        open.admitted,
        open.classes
            .iter()
            .filter_map(|c| c.p95_s)
            .fold(0.0_f64, f64::max),
    );

    // Shard-scaling sweep at the overload point: the same captured
    // arrival log replayed at every shard count on identical hardware.
    let shard_counts: &[usize] = if quick {
        &FLEET_SHARD_SWEEP[..2]
    } else {
        &FLEET_SHARD_SWEEP
    };
    println!(
        "\nShard scaling at {FLEET_SHARD_RATE:.2} req/s on {FLEET_SHARD_NODES} nodes \
         (replayed log, {horizon_s}s horizon):"
    );
    let shard_reports =
        run_fleet_shard_sweep(seed, shard_counts, horizon_s).expect("shard sweep runs");
    let base_goodput = shard_reports[0].goodput_per_min.max(1e-9);
    for report in &shard_reports {
        println!(
            "  {:<10} {:>6.2}/min good ({:.2}x)  SLO {:>5.1}%  {} admitted  {} steals  GPU {:.1}%",
            report.label,
            report.goodput_per_min,
            report.goodput_per_min / base_goodput,
            100.0 * report.slo_attainment,
            report.admitted,
            report.steals,
            report.gpu_util_avg_pct,
        );
        println!("{}", report.cell_table());
    }

    use serde::Serialize;
    #[derive(Serialize)]
    struct FleetBench {
        sweep: Vec<FleetReport>,
        shard_scaling: Vec<FleetReport>,
    }
    let mut sweep = reports;
    sweep.push(open);
    let path = write_bench_json(
        "fleet",
        &FleetBench {
            sweep,
            shard_scaling: shard_reports,
        },
    )
    .expect("results file writes");
    println!("\n(wrote {})", path.display());
}

/// The disagg bench driver: captures one overloaded arrival log,
/// replays it against the colocated and disaggregated serving backends
/// on the same fixed cluster, prints the per-class latency/TTFT tables
/// and writes `BENCH_disagg.json`. `quick` shortens the horizon so CI
/// exercises the full path on every push.
///
/// # Panics
///
/// Panics if a run or the results file fails — bench binaries want loud
/// failures.
pub fn disagg_main(seed: u64, quick: bool) {
    let horizon_s = if quick { 240.0 } else { DISAGG_HORIZON_S };
    println!(
        "Serving-backend sweep (seed {seed}{}): colocated vs disaggregated, \
         {DISAGG_RATE} req/s replayed over {horizon_s}s on {DISAGG_NODES} nodes\n",
        if quick { ", quick" } else { "" },
    );

    let reports = run_disagg_sweep(seed, horizon_s).expect("disagg sweep runs");
    for report in &reports {
        println!("== {} ==", report.serving);
        println!("{}", report.summary_line());
        println!("{}", report.class_table());
        println!(
            "  util GPU {:.1}% (prefill-phase {:.1}%, decode-phase {:.1}%) | \
             rejected {} | steals {}\n",
            report.gpu_util_avg_pct,
            report.prefill_util_avg_pct,
            report.decode_util_avg_pct,
            report.rejections(),
            report.steals,
        );
    }

    let (colocated, disagg) = (&reports[0], &reports[1]);
    println!("Headline at the overload point (same replayed log, same cluster):");
    println!(
        "  goodput:   {:>6.2}/min colocated vs {:>6.2}/min disaggregated ({:.2}x)",
        colocated.goodput_per_min,
        disagg.goodput_per_min,
        disagg.goodput_per_min / colocated.goodput_per_min.max(1e-9),
    );
    println!(
        "  TTFT p95 (worst class): {:>7.2}s colocated vs {:>7.2}s disaggregated",
        colocated.worst_ttft_p95(),
        disagg.worst_ttft_p95(),
    );
    println!(
        "  SLO attainment: {:>5.1}% colocated vs {:>5.1}% disaggregated",
        100.0 * colocated.slo_attainment,
        100.0 * disagg.slo_attainment,
    );

    use serde::Serialize;
    #[derive(Serialize)]
    struct DisaggHeadline {
        goodput_ratio: f64,
        ttft_p95_worst_colocated_s: f64,
        ttft_p95_worst_disaggregated_s: f64,
    }
    #[derive(Serialize)]
    struct DisaggBench {
        headline: DisaggHeadline,
        sweep: Vec<FleetReport>,
    }
    let path = write_bench_json(
        "disagg",
        &DisaggBench {
            headline: DisaggHeadline {
                goodput_ratio: disagg.goodput_per_min / colocated.goodput_per_min.max(1e-9),
                ttft_p95_worst_colocated_s: colocated.worst_ttft_p95(),
                ttft_p95_worst_disaggregated_s: disagg.worst_ttft_p95(),
            },
            sweep: reports,
        },
    )
    .expect("results file writes");
    println!("\n(wrote {})", path.display());
}

/// Nodes in the what-if bench's fixed cluster — enough that the
/// 4-shard counterfactual keeps two nodes per cell (a cell needs room
/// for its own serving stack next to its tool pools), small enough
/// that the shard-sweep rate overloads the single-cell baseline.
pub const WHATIF_NODES: usize = 8;

/// The what-if bench's capture scenario: an overloaded Poisson stream
/// (the shard sweep's [`FLEET_SHARD_RATE`]) on the fixed
/// [`WHATIF_NODES`]-node cluster, captured with per-request records
/// (colocated, one cell — the baseline every counterfactual diffs
/// against).
pub fn whatif_capture_scenario(seed: u64, horizon_s: f64) -> Scenario {
    Scenario::open_loop(
        "overload-capture",
        ArrivalProcess::Poisson {
            rate_per_s: FLEET_SHARD_RATE,
        },
        horizon_s,
    )
    .seed(seed)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), WHATIF_NODES)
    .max_inflight(24)
    .admission(shard_sweep_admission())
}

/// The what-if bench's counterfactual set: the serving-backend swap and
/// the shard-count swap, each replaying the captured traffic.
pub fn whatif_counterfactuals() -> Vec<murakkab_trace::WhatIf> {
    vec![
        murakkab_trace::WhatIf::named("disaggregated").serving(ServingMode::Disaggregated),
        murakkab_trace::WhatIf::named("shards4").shards(4),
    ]
}

/// The what-if bench driver: captures one overloaded run as a
/// [`murakkab_trace::RunTrace`], verifies bit-identical replay, then
/// replays the captured traffic against the disaggregated backend and a
/// 4-cell fleet, printing each [`murakkab_trace::TraceDiff`] and
/// writing `BENCH_whatif.json`. `quick` shortens the horizon so CI
/// exercises the full path on every push.
///
/// # Panics
///
/// Panics if a run or the results file fails — bench binaries want loud
/// failures.
pub fn whatif_main(seed: u64, quick: bool) {
    let horizon_s = if quick { 240.0 } else { DISAGG_HORIZON_S };
    println!(
        "What-if sweep (seed {seed}{}): {FLEET_SHARD_RATE} req/s captured over {horizon_s}s \
         on {WHATIF_NODES} nodes, then replayed counterfactually\n",
        if quick { ", quick" } else { "" },
    );

    let scenario = whatif_capture_scenario(seed, horizon_s);
    let trace = murakkab_trace::RunTrace::capture(&scenario).expect("capture runs");
    println!("captured: {}", trace.summary_line());
    trace.verify_replay().expect("replay is bit-identical");
    println!("replay verified: digest matches\n");

    let mut diffs = Vec::new();
    for mods in whatif_counterfactuals() {
        let report = murakkab_trace::whatif(&trace, &mods).expect("counterfactual runs");
        println!("{}", report.diff.render_human());
        println!("{}\n", report.diff.summary_line());
        diffs.push(report.diff);
    }

    use serde::Serialize;
    #[derive(Serialize)]
    struct WhatIfBench {
        seed: u64,
        horizon_s: f64,
        captured_requests: u64,
        captured_steals: u64,
        trace_digest: u64,
        baseline: FleetReport,
        counterfactuals: Vec<murakkab_trace::TraceDiff>,
    }
    let baseline = trace
        .baseline
        .as_ref()
        .expect("captured traces embed their report")
        .open_loop()
        .expect("open-loop capture")
        .clone();
    let path = write_bench_json(
        "whatif",
        &WhatIfBench {
            seed,
            horizon_s,
            captured_requests: trace.requests.len() as u64,
            captured_steals: trace.steals.len() as u64,
            trace_digest: trace.digest.expect("captured traces carry digests"),
            baseline,
            counterfactuals: diffs,
        },
    )
    .expect("results file writes");
    println!("(wrote {})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_reproduces_paper_bands() {
        let reports = run_table2_configs(SEED).unwrap();
        assert_eq!(reports.len(), 4);
        let (speedup, eff) = headline_claims(&reports);
        assert!((2.8..=4.2).contains(&speedup), "speedup {speedup:.2}");
        assert!((3.0..=5.5).contains(&eff), "efficiency {eff:.2}");
    }
}
