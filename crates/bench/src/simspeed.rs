//! Simulation-speed scoreboard: wall-clock throughput of the
//! single-region fleet serve loop across a shard sweep.
//!
//! Every row replays the same captured arrival log from the shard
//! sweep, so the only thing that varies is how the work is partitioned
//! into cells. Cells always step inline (only federated regions fan out
//! to worker threads), so each shard count runs once. Each row records
//! its report digest (`murakkab::scenario::Report::digest`) next to
//! events per wall-second and simulated seconds per wall-second; the
//! `shards = 1` digest is the golden `engine_hotpath` asserts.

use murakkab::fleet::CellPolicy;
use murakkab::scenario::{Scenario, Session};
use murakkab::FleetReport;
use murakkab_sim::{SimDuration, SimRng};
use murakkab_traffic::{AdmissionConfig, ArrivalLog, ArrivalProcess};
use serde::Serialize;

use crate::{write_bench_json, FLEET_SHARD_NODES};

/// Arrival horizon of the full scoreboard, seconds — long enough that
/// start-up cost amortizes into the steady state.
pub const SIMSPEED_HORIZON_S: f64 = 1800.0;

/// Offered rate of the scoreboard, requests per second — past the
/// cluster knee with the front door open, so cells carry a deep
/// standing backlog and every epoch has real work.
pub const SIMSPEED_RATE: f64 = 0.8;

/// Fleet-wide in-flight budget of the scoreboard. Much wider than the
/// shard sweep's: the scoreboard measures engine-stepping throughput,
/// so cells should be saturated with running work, not slot-starved.
pub const SIMSPEED_MAX_INFLIGHT: usize = 64;

/// Per-stage fan-out of the scoreboard's workflows. Wide stages mean
/// more engine events per admitted workflow, so the scoreboard times
/// engine stepping rather than serve-loop bookkeeping.
pub const SIMSPEED_PARALLELISM: u32 = 24;

/// Captures the scoreboard's Poisson stream as an [`ArrivalLog`] — the
/// same fork path the open-loop serve loop uses, so every row replays
/// byte-identical traffic.
pub fn simspeed_log(seed: u64, horizon_s: f64) -> ArrivalLog {
    let process = ArrivalProcess::Poisson {
        rate_per_s: SIMSPEED_RATE,
    };
    let mut rng = SimRng::new(seed).fork("fleet").fork("arrivals");
    ArrivalLog::record(&process, &mut rng, SimDuration::from_secs_f64(horizon_s))
}

/// The scoreboard's scenario for one shard count: the captured log
/// replayed with the front door wide open (no admission — shedding
/// would starve the engines the scoreboard times) and wide workflows on
/// the shard sweep's [`FLEET_SHARD_NODES`]-node cluster.
pub fn simspeed_scenario(seed: u64, log: &ArrivalLog, shards: usize, horizon_s: f64) -> Scenario {
    Scenario::open_loop(
        &format!("shards={shards}"),
        ArrivalProcess::Replay { log: log.clone() },
        horizon_s,
    )
    .seed(seed)
    .cluster(
        murakkab_hardware::catalog::nd96amsr_a100_v4(),
        FLEET_SHARD_NODES,
    )
    .shards(shards)
    .router(CellPolicy::LeastLoaded)
    .max_inflight(SIMSPEED_MAX_INFLIGHT)
    .parallelism(SIMSPEED_PARALLELISM)
    .admission(AdmissionConfig::disabled())
}

/// One measured row of the scoreboard.
#[derive(Debug, Clone, Serialize)]
pub struct SimSpeedRow {
    /// Engine cells the cluster was partitioned into.
    pub shards: usize,
    /// Wall-clock time of the serve call, seconds.
    pub wall_s: f64,
    /// Simulated makespan, seconds.
    pub sim_s: f64,
    /// Engine events processed across all cells.
    pub events: u64,
    /// Events per wall-second — the scoreboard's headline rate.
    pub events_per_wall_s: f64,
    /// Simulated seconds per wall-second.
    pub sim_s_per_wall_s: f64,
    /// Report digest.
    pub digest: String,
}

/// Runs the scoreboard: every shard count replays the same log once.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_simspeed_grid(
    seed: u64,
    shard_counts: &[usize],
    horizon_s: f64,
) -> Result<Vec<SimSpeedRow>, murakkab_sim::SimError> {
    let log = simspeed_log(seed, horizon_s);
    let session = Session::new(&simspeed_scenario(seed, &log, 1, horizon_s))?;
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let scenario = simspeed_scenario(seed, &log, shards, horizon_s);
        let start = std::time::Instant::now();
        let executed = session.execute(&scenario)?;
        let wall_s = start.elapsed().as_secs_f64();
        let digest = executed.digest();
        let report: FleetReport = executed.into_open_loop()?;
        rows.push(SimSpeedRow {
            shards,
            wall_s,
            sim_s: report.makespan_s,
            events: report.events_processed,
            events_per_wall_s: report.events_processed as f64 / wall_s.max(1e-9),
            sim_s_per_wall_s: report.makespan_s / wall_s.max(1e-9),
            digest: format!("{digest:#018x}"),
        });
    }
    Ok(rows)
}

/// The simspeed bench entry point: runs the shard sweep, prints the
/// scoreboard and writes `BENCH_simspeed.json`. `quick` trims it
/// (shards {1, 2}, short horizon) so CI can exercise the full path on
/// every push.
///
/// # Panics
///
/// Panics if a run or the results file fails — bench binaries want
/// loud failures.
pub fn simspeed_main(seed: u64, quick: bool) {
    let (shard_counts, horizon_s): (&[usize], f64) = if quick {
        (&crate::FLEET_SHARD_SWEEP[..2], 240.0)
    } else {
        (&crate::FLEET_SHARD_SWEEP, SIMSPEED_HORIZON_S)
    };
    println!(
        "Sim-speed scoreboard (seed {seed}{}): shards {shard_counts:?}, {horizon_s}s horizon, \
         {} nodes\n",
        if quick { ", quick" } else { "" },
        FLEET_SHARD_NODES,
    );

    let rows = run_simspeed_grid(seed, shard_counts, horizon_s).expect("simspeed grid");

    println!(
        "  {:>6} | {:>8} {:>12} {:>13} | digest",
        "shards", "wall s", "events/s", "sim-s/wall-s"
    );
    for row in &rows {
        println!(
            "  {:>6} | {:>8.2} {:>12.0} {:>13.1} | {}",
            row.shards, row.wall_s, row.events_per_wall_s, row.sim_s_per_wall_s, row.digest,
        );
    }

    #[derive(Serialize)]
    struct SimSpeedBench {
        seed: u64,
        horizon_s: f64,
        nodes: usize,
        host_cores: usize,
        rows: Vec<SimSpeedRow>,
    }
    let path = write_bench_json(
        "simspeed",
        &SimSpeedBench {
            seed,
            horizon_s,
            nodes: FLEET_SHARD_NODES,
            host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            rows,
        },
    )
    .expect("results file writes");
    println!("\n(wrote {})", path.display());
}
