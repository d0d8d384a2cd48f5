//! Open-loop fleet serving: [`Runtime::serve`].
//!
//! The closed-loop entry points ([`Runtime::run_job`],
//! [`Runtime::run_concurrent`]) run a fixed set of workflows to
//! completion and report a makespan. A production fleet lives in the
//! open-loop regime instead: requests arrive on their own clock (the
//! `murakkab_traffic` generators), an admission controller decides what
//! gets in, admitted workflows are injected into long-running engines
//! mid-flight, and the figure of merit is latency percentiles and SLO
//! attainment under offered load — not makespan.
//!
//! The fleet is **sharded**: the cluster is partitioned into
//! [`FleetOptions::shards`] cells, each owning a slice of nodes and
//! running its own incremental [`Engine`] (own LLM endpoints, own tool
//! pools, own event queue). A fleet-level router ([`CellPolicy`])
//! assigns each admitted workflow to a cell, and a periodic
//! migration pass at the rebalancer cadence lets hot cells shed
//! queued-but-unstarted workflows to cold ones (work stealing). One
//! monolithic scheduler cannot grow past a single serving stack per
//! model — cells scale the fleet out while the front door (admission)
//! stays global.
//!
//! The serve loop interleaves deterministic event sources: every cell
//! engine's own event queue and the arrival stream, merged by time with
//! ties broken by cell index. Tool pools autoscale per cell (the engine
//! releases them when the DAG lookahead shows no demand and
//! re-provisions them on admission), long-lived LLM endpoints multiplex
//! every tenant's token work, and the advisory [`Rebalancer`] is polled
//! per cell on a fixed cadence against live backlog telemetry.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use murakkab_agents::{calib, Capability};
use murakkab_cluster::{EndpointView, Rebalancer};
use murakkab_hardware::{DeviceKind, HardwareTarget};
use murakkab_llmsim::ServingMode;
use murakkab_orchestrator::{expand, JobInputs, MediaInfo, Planner, SceneInfo};
use murakkab_sim::{SimDuration, SimError, SimRng, SimTime};
use murakkab_traffic::{
    AdmissionConfig, AdmissionController, Archetype, ArrivalProcess, JobMix, RequestSpec, SloClass,
    TenantProfile, TrafficSpec,
};
use murakkab_workflow::{Constraint, Job, TaskGraph};

use crate::capture::{RequestOutcome, RequestRecord, RunCapture, StealRecord};
use crate::engine::{CompiledGraph, Engine, RouteSpec};
use crate::runtime::{RoutePlan, RunOptions, Runtime};
use crate::workloads;

/// How the fleet router assigns admitted workflows to engine cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CellPolicy {
    /// Stable multiplicative hash of the request id: stateless, load-
    /// oblivious, and identical across runs (no process-random hashers).
    Hashed,
    /// The cell with the smallest backlog (queued + in-flight
    /// workflows); ties go to the lowest cell index.
    #[default]
    LeastLoaded,
    /// SLO-class-affine: cells are striped by scheduling priority
    /// (highest-priority classes own the first stripe), so interactive
    /// traffic never queues behind batch work on the same engine. Within
    /// a stripe the least-loaded cell wins.
    SloAffine,
}

impl CellPolicy {
    /// A short stable tag for report labels and JSON keys.
    pub fn tag(&self) -> &'static str {
        match self {
            CellPolicy::Hashed => "hashed",
            CellPolicy::LeastLoaded => "least-loaded",
            CellPolicy::SloAffine => "slo-affine",
        }
    }
}

/// Options for one open-loop serving run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Report label.
    pub label: String,
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Arrival horizon in seconds (the run drains after the last
    /// arrival; rates are normalized over this window).
    pub horizon_s: f64,
    /// Admission-control configuration.
    pub admission: AdmissionConfig,
    /// Workflows executing concurrently across the whole fleet before
    /// admitted requests queue; split evenly across cells (each cell's
    /// slot budget is `ceil(max_inflight / shards)`, at least one).
    pub max_inflight: usize,
    /// Per-stage worker fan-out inside each workflow.
    pub parallelism: u32,
    /// Worker threads stepping cells concurrently between
    /// synchronization epochs (admission, routing, steal and telemetry
    /// points). `1` steps cells inline; either way the epoch schedule
    /// and the merge order are identical, so same-seed reports are
    /// bit-identical at every thread count. Capped at the shard count.
    pub threads: usize,
    /// The tenant set (weights, mixes, SLO classes).
    pub tenants: Vec<TenantProfile>,
    /// Advisory rebalancer polling cadence in simulated seconds (also
    /// the work-stealing cadence).
    pub rebalance_every_s: f64,
    /// Engine cells the cluster is partitioned into (each cell owns a
    /// node slice and runs its own engine). Must be ≥ 1 and ≤ the node
    /// count.
    pub shards: usize,
    /// How admitted workflows are assigned to cells.
    pub router: CellPolicy,
    /// Backlog gap (hot − cold, in queued + in-flight workflows) above
    /// which the periodic migration pass moves the hottest cell's
    /// last-to-run queued workflow (lowest priority, youngest) to the
    /// coldest eligible cell, repeated until the gap closes. Under the
    /// SLO-affine router, eligibility is confined to the workflow's
    /// priority stripe.
    pub steal_margin: usize,
    /// Serving regime the cells' LLM endpoints deploy under.
    pub serving: ServingMode,
    /// Extra constraints ANDed into the shared route selection *after*
    /// the canonical jobs' own constraints (lower priority, so they
    /// tighten bounds without overriding a tenant's primary objective).
    pub constraints: Vec<Constraint>,
    /// Workflow-aware cluster management inside each cell (pool release
    /// on DAG lookahead).
    pub workflow_aware: bool,
}

impl FleetOptions {
    /// Sensible defaults around a given arrival process.
    pub fn open_loop(label: &str, process: ArrivalProcess, horizon_s: f64) -> Self {
        FleetOptions {
            label: label.into(),
            process,
            horizon_s,
            admission: AdmissionConfig::default(),
            max_inflight: 6,
            parallelism: 8,
            threads: 1,
            tenants: default_tenants(),
            rebalance_every_s: 30.0,
            shards: 1,
            router: CellPolicy::default(),
            steal_margin: 2,
            serving: ServingMode::Colocated,
            constraints: Vec::new(),
            workflow_aware: true,
        }
    }

    /// Validates the numeric fields, so bad parameters surface as a typed
    /// [`SimError::InvalidInput`] at the entry point instead of silent
    /// misbehavior downstream.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on a non-finite or non-positive
    /// horizon or rebalance cadence, zero `parallelism`, zero
    /// `threads`, zero `max_inflight`, or a zero shard count.
    pub fn validate(&self) -> Result<(), SimError> {
        crate::analyze::first_error(&crate::analyze::fleet_options_diags(self))
    }

    /// Replaces the admission config.
    #[must_use]
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = cfg;
        self
    }

    /// Replaces the tenant set.
    #[must_use]
    pub fn tenants(mut self, tenants: Vec<TenantProfile>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the cell count the cluster is partitioned into.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the cell-routing policy.
    #[must_use]
    pub fn router(mut self, policy: CellPolicy) -> Self {
        self.router = policy;
        self
    }

    /// Sets the worker-thread count for concurrent cell stepping.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Scales the fleet-wide in-flight budget.
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    /// Sets the endpoint serving regime.
    #[must_use]
    pub fn serving(mut self, mode: ServingMode) -> Self {
        self.serving = mode;
        self
    }

    /// Appends an extra selection constraint (lowest priority).
    #[must_use]
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }
}

/// The stock three-tenant fleet: an interactive feeds tenant, a standard
/// analytics tenant, and a batch video tenant.
pub fn default_tenants() -> Vec<TenantProfile> {
    vec![
        TenantProfile {
            name: "feeds".into(),
            mix: JobMix::new(vec![(Archetype::Newsfeed, 0.8), (Archetype::DocQa, 0.2)]),
            class: SloClass::interactive(),
            weight: 3.0,
        },
        TenantProfile {
            name: "analytics".into(),
            mix: JobMix::new(vec![
                (Archetype::DocQa, 0.5),
                (Archetype::ChainOfThought, 0.5),
            ]),
            class: SloClass::standard(),
            weight: 2.0,
        },
        TenantProfile {
            name: "studio".into(),
            mix: JobMix::new(vec![
                (Archetype::VideoUnderstanding, 0.7),
                (Archetype::Newsfeed, 0.3),
            ]),
            class: SloClass::batch(),
            weight: 1.0,
        },
    ]
}

/// The canonical (size-independent) job for an archetype — used to derive
/// constraints and capability demand for the shared route selection.
pub fn canonical_job(archetype: Archetype) -> Job {
    match archetype {
        Archetype::VideoUnderstanding => workloads::paper_video_job(),
        Archetype::Newsfeed => workloads::newsfeed_job("fleet", 1).0,
        Archetype::ChainOfThought => workloads::cot_job(1).0,
        Archetype::DocQa => workloads::doc_qa_job(1).0,
    }
}

/// A concrete fleet job instance: the archetype's job with seeded sizes
/// (short clips, small feeds — request-scale work, not the paper's
/// two-video evaluation batch).
pub fn fleet_job(archetype: Archetype, tenant: &str, rng: &mut SimRng) -> (Job, JobInputs) {
    match archetype {
        Archetype::VideoUnderstanding => {
            let scenes = rng.int_range(1, 2);
            let scenes = (0..scenes)
                .map(|_| {
                    let audio = rng.normal(12.0, 2.0);
                    SceneInfo {
                        duration_s: audio,
                        audio_s: audio,
                        frames: calib::FRAMES_PER_SCENE,
                    }
                })
                .collect();
            (
                workloads::paper_video_job(),
                JobInputs::videos(vec![MediaInfo {
                    file: "clip.mov".into(),
                    scenes,
                }]),
            )
        }
        Archetype::Newsfeed => workloads::newsfeed_job(tenant, rng.int_range(4, 10) as u32),
        Archetype::ChainOfThought => workloads::cot_job(rng.int_range(2, 4) as u32),
        Archetype::DocQa => workloads::doc_qa_job(rng.int_range(4, 12) as u32),
    }
}

/// Per-SLO-class serving statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetClassReport {
    /// Class name.
    pub class: String,
    /// Scheduling priority.
    pub priority: u8,
    /// Latency deadline in seconds.
    pub deadline_s: f64,
    /// Requests that arrived under this class.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions within the deadline.
    pub slo_met: u64,
    /// `slo_met / admitted`, measured over admitted work only. A class
    /// whose every request was shed reads `0.0` (degraded), not `1.0`;
    /// the vacuous no-traffic case stays `1.0`.
    pub attainment: f64,
    /// `(offered - admitted) / offered`: the fraction of this class's
    /// arrivals turned away at the front door (`0.0` with no traffic).
    pub shed_rate: f64,
    /// Median end-to-end latency (arrival → completion), seconds.
    /// `None` when the class completed nothing — an empty sample set
    /// serializes as `null`, distinguishable from a real 0-second
    /// percentile.
    pub p50_s: Option<f64>,
    /// 95th-percentile latency.
    pub p95_s: Option<f64>,
    /// 99th-percentile latency.
    pub p99_s: Option<f64>,
    /// Mean latency.
    pub mean_s: Option<f64>,
    /// Worst latency.
    pub max_s: Option<f64>,
    /// Median time-to-first-token across this class's LLM requests,
    /// seconds (`None` when the class completed no token work).
    pub ttft_p50_s: Option<f64>,
    /// 95th-percentile TTFT.
    pub ttft_p95_s: Option<f64>,
    /// 99th-percentile TTFT.
    pub ttft_p99_s: Option<f64>,
    /// Median time-per-output-token, seconds.
    pub tpot_p50_s: Option<f64>,
    /// 95th-percentile TPOT.
    pub tpot_p95_s: Option<f64>,
}

/// Per-cell serving statistics from one sharded run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCellReport {
    /// Cell index (stable across same-seed runs).
    pub cell: usize,
    /// Cluster nodes this cell owns.
    pub nodes: usize,
    /// Workflows the router assigned to this cell at admission.
    pub assigned: u64,
    /// Queued workflows stolen *into* this cell by the migration pass.
    pub stolen_in: u64,
    /// Queued workflows this cell shed to colder cells.
    pub migrated_out: u64,
    /// Workflows this cell ran to completion.
    pub completed: u64,
    /// Tasks the cell's engine executed.
    pub tasks_completed: u64,
    /// Largest backlog (queued + in-flight workflows) observed.
    pub peak_backlog: u64,
    /// Mean GPU utilization of the cell's nodes over the fleet run,
    /// percent.
    pub gpu_util_avg_pct: f64,
    /// Mean CPU utilization of the cell's nodes over the fleet run,
    /// percent.
    pub cpu_util_avg_pct: f64,
    /// Mean busy fraction of the cell's prefill-serving GPUs over the
    /// fleet run, percent (a colocated replica charges its group here
    /// for the iteration time prefill actually consumed).
    pub prefill_util_avg_pct: f64,
    /// Mean busy fraction of the cell's decode-serving GPUs, percent.
    pub decode_util_avg_pct: f64,
    /// GPU energy of the cell's held allocations, Wh.
    pub energy_allocated_wh: f64,
    /// Dollar cost of the cell's allocations plus external calls.
    pub cost_usd: f64,
    /// Tool-pool autoscale-up events in this cell.
    pub pool_scale_ups: u64,
    /// Tool-pool autoscale-down events in this cell.
    pub pool_scale_downs: u64,
    /// Advisory rebalancer actions recommended for this cell.
    pub rebalance_actions: u64,
    /// Discrete events the cell's engine processed (the sim-speed
    /// denominator; identical at every thread count).
    pub events_processed: u64,
    /// Instant the cell's last workflow finished, seconds.
    pub makespan_s: f64,
}

/// Everything measured from one open-loop serving run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Run label.
    pub label: String,
    /// Workload seed.
    pub seed: u64,
    /// Engine cells the cluster was partitioned into.
    pub shards: usize,
    /// Cell-routing policy tag.
    pub router: String,
    /// Serving-regime tag ("colocated", "disaggregated").
    pub serving: String,
    /// Arrival process tag ("poisson", "mmpp", ...).
    pub arrival_process: String,
    /// Long-run offered rate (requests per second).
    pub offered_rate_per_s: f64,
    /// Arrival horizon in seconds.
    pub horizon_s: f64,
    /// Whether admission gating was active.
    pub admission_enabled: bool,
    /// Requests that arrived.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Rejections by the token bucket.
    pub rejected_rate: u64,
    /// Rejections by the deadline-feasibility gate.
    pub rejected_deadline: u64,
    /// Rejections because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Workflows completed.
    pub completed: u64,
    /// Completions within their class deadline.
    pub slo_met: u64,
    /// `slo_met / admitted`, measured over admitted work only. A run
    /// whose every request was shed reads `0.0`; the vacuous no-traffic
    /// case stays `1.0`.
    pub slo_attainment: f64,
    /// `(offered - admitted) / offered`: the fraction of all arrivals
    /// turned away at the front door (`0.0` with no traffic).
    pub shed_rate: f64,
    /// Completed workflows per minute of horizon.
    pub throughput_per_min: f64,
    /// Deadline-meeting workflows per minute of horizon (goodput).
    pub goodput_per_min: f64,
    /// Per-class statistics, highest priority first.
    pub classes: Vec<FleetClassReport>,
    /// Tasks executed across all workflows.
    pub tasks_completed: u64,
    /// Instant the last workflow finished (drain included), seconds.
    pub makespan_s: f64,
    /// Mean cluster GPU utilization over the run, percent.
    pub gpu_util_avg_pct: f64,
    /// Mean cluster CPU utilization over the run, percent.
    pub cpu_util_avg_pct: f64,
    /// Capacity-weighted mean prefill-phase utilization across cells,
    /// percent.
    pub prefill_util_avg_pct: f64,
    /// Capacity-weighted mean decode-phase utilization across cells,
    /// percent.
    pub decode_util_avg_pct: f64,
    /// GPU energy of held allocations, Wh.
    pub energy_allocated_wh: f64,
    /// Dollar cost of held allocations plus external calls.
    pub cost_usd: f64,
    /// Tool-pool autoscale-up events (re-provision on admission).
    pub pool_scale_ups: u64,
    /// Tool-pool autoscale-down events (idle release).
    pub pool_scale_downs: u64,
    /// Advisory rebalancer actions recommended over the run (all cells).
    pub rebalance_actions: u64,
    /// Discrete events processed across all cell engines (the
    /// sim-speed denominator; identical at every thread count).
    pub events_processed: u64,
    /// Queued workflows moved between cells by the migration pass.
    pub steals: u64,
    /// Per-cell breakdowns, in cell-index order.
    pub cells: Vec<FleetCellReport>,
}

impl FleetReport {
    /// Total rejections across all admission gates.
    pub fn rejections(&self) -> u64 {
        self.rejected_rate + self.rejected_deadline + self.rejected_queue_full
    }

    /// One-line summary for harness output.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<26} {:>5} arrived  {:>5} admitted  {:>5} done  SLO {:>5.1}%  {:>6.2}/min good  p95 {:>7.1}s",
            self.label,
            self.offered,
            self.admitted,
            self.completed,
            100.0 * self.slo_attainment,
            self.goodput_per_min,
            self.classes
                .iter()
                .filter_map(|c| c.p95_s)
                .fold(0.0_f64, f64::max),
        )
    }

    /// Renders the per-class latency/SLO table. Classes with no samples
    /// show `-` in the latency columns (an empty percentile is `null`,
    /// not zero).
    pub fn class_table(&self) -> String {
        let sec = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}s"));
        let sec2 = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.2}s"));
        let sec3 = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}s"));
        let mut out = String::new();
        out.push_str(
            "  class        prio  deadline | offered admitted done  met |   p50     p95     p99  | ttft p95  tpot p95 | attainment  shed\n",
        );
        for c in &self.classes {
            out.push_str(&format!(
                "  {:<12} {:>4} {:>8.0}s | {:>7} {:>8} {:>4} {:>4} | {:>7} {:>7} {:>7} | {:>8} {:>9} | {:>8.1}% {:>5.1}%\n",
                c.class,
                c.priority,
                c.deadline_s,
                c.offered,
                c.admitted,
                c.completed,
                c.slo_met,
                sec(c.p50_s),
                sec(c.p95_s),
                sec(c.p99_s),
                sec2(c.ttft_p95_s),
                sec3(c.tpot_p95_s),
                100.0 * c.attainment,
                100.0 * c.shed_rate,
            ));
        }
        out
    }

    /// The worst class's 95th-percentile time-to-first-token, seconds
    /// — the headline TTFT metric of the serving-backend comparison
    /// (0.0 when no class completed token work).
    pub fn worst_ttft_p95(&self) -> f64 {
        self.classes
            .iter()
            .filter_map(|c| c.ttft_p95_s)
            .fold(0.0_f64, f64::max)
    }

    /// Renders the per-cell breakdown table (one line per cell).
    pub fn cell_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "  cell nodes | assigned stolen shed done | peak-bl | GPU%   CPU%  | scale ↑/↓ | hints\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "  {:>4} {:>5} | {:>8} {:>6} {:>4} {:>4} | {:>7} | {:>5.1} {:>5.1}  | {:>4}/{:<4}  | {:>5}\n",
                c.cell,
                c.nodes,
                c.assigned,
                c.stolen_in,
                c.migrated_out,
                c.completed,
                c.peak_backlog,
                c.gpu_util_avg_pct,
                c.cpu_util_avg_pct,
                c.pool_scale_ups,
                c.pool_scale_downs,
                c.rebalance_actions,
            ));
        }
        out
    }
}

/// A planned (decomposed + expanded) request waiting to execute. Only
/// the compiled graph is kept: the expanded [`TaskGraph`] is dropped as
/// soon as the admission estimate has read it.
pub(crate) struct PlannedRequest {
    pub(crate) req: RequestSpec,
    pub(crate) graph: CompiledGraph,
    pub(crate) est_service_s: f64,
    /// Index into the interned per-class aggregation table (no
    /// per-task class-name clones on the hot path).
    pub(crate) class_idx: usize,
    /// Modeled WAN seconds the geo layer charges this request for a
    /// cross-region assignment (RTT + payload transfer), added to its
    /// latency and TTFT samples at apply time. `0.0` on the
    /// single-region path — and `x + 0.0` is bitwise `x` for the
    /// non-negative samples involved, so single-region reports are
    /// untouched by the field's existence.
    pub(crate) wan_s: f64,
}

/// A workflow currently executing in a cell's engine.
struct InflightJob {
    planned_idx: usize,
    /// Tasks of this workflow not yet completed; the workflow finishes
    /// when this hits zero (decremented per engine completion — no
    /// per-step scan over the engine's completed-task set).
    remaining: usize,
}

/// One engine cell: a node slice's engine plus its local queue (a
/// [`PriorityFifo`] over planned-request indices, popping in exactly the
/// admission queue's order) and running stats. All per-task lookup
/// state is cell-local, so a worker thread can step a cell between
/// epochs without touching shared maps.
pub(crate) struct Cell {
    pub(crate) engine: Engine,
    pub(crate) routes: BTreeMap<Capability, RouteSpec>,
    pub(crate) nodes: usize,
    pub(crate) queue: murakkab_traffic::PriorityFifo<usize>,
    inflight: Vec<InflightJob>,
    /// Task → interned SLO-class index of the owning workflow, so
    /// endpoint-level token latencies (TTFT/TPOT) aggregate per class.
    /// Dense arena indexed by the engine's sequential [`TaskId`]s
    /// (`u32::MAX` = vacant) — the serve loop does a bounds-checked
    /// load per completion instead of a tree lookup.
    task_class: Vec<u32>,
    /// Task → planned-request index of the owning workflow (drives the
    /// per-job remaining counter, WAN latency attribution and capture's
    /// first-token attribution). Same dense layout as `task_class`.
    task_job: Vec<u32>,
    /// The cell's epoch harvest, drained at every apply point. Living
    /// on the cell (instead of a fresh per-epoch allocation) keeps its
    /// capacity across epochs.
    batch: CellBatch,
    /// Whether the region/fleet router may assign new work here. Always
    /// `true` on the single-region path; the geo layer parks reclaimed
    /// spot cells by clearing it (the engine keeps draining in-flight
    /// work either way).
    pub(crate) active: bool,
    /// Multiplier applied to the cell's settled dollar cost (`1.0`
    /// everywhere except geo spot cells, which bill at the elastic
    /// pool's discounted price factor).
    pub(crate) cost_scale: f64,
    pub(crate) assigned: u64,
    pub(crate) stolen_in: u64,
    pub(crate) migrated_out: u64,
    pub(crate) completed: u64,
    pub(crate) peak_backlog: u64,
    pub(crate) rebalance_actions: u64,
}

/// Vacant-slot sentinel of the cells' dense task → index arenas.
const TASK_SLOT_VACANT: u32 = u32::MAX;

/// Writes `val` into the dense task slot, growing the arena on demand.
///
/// # Errors
///
/// Returns [`SimError::InvalidState`] if `val` does not fit below the
/// `u32` vacant sentinel.
fn task_slot_set(
    slots: &mut Vec<u32>,
    tid: murakkab_workflow::TaskId,
    val: usize,
) -> Result<(), SimError> {
    let v = u32::try_from(val)
        .ok()
        .filter(|&v| v != TASK_SLOT_VACANT)
        .ok_or_else(|| {
            SimError::InvalidState(format!("per-fleet index {val} exceeds u32 indexing"))
        })?;
    let i = tid.raw() as usize;
    if slots.len() <= i {
        slots.resize(i + 1, TASK_SLOT_VACANT);
    }
    slots[i] = v;
    Ok(())
}

/// Reads the dense task slot without vacating it.
fn task_slot_get(slots: &[u32], tid: murakkab_workflow::TaskId) -> Option<usize> {
    match slots.get(tid.raw() as usize) {
        Some(&v) if v != TASK_SLOT_VACANT => Some(v as usize),
        _ => None,
    }
}

/// Takes the dense task slot, leaving it vacant.
fn task_slot_take(slots: &mut [u32], tid: murakkab_workflow::TaskId) -> Option<usize> {
    let v = slots.get_mut(tid.raw() as usize)?;
    if *v == TASK_SLOT_VACANT {
        return None;
    }
    let out = *v as usize;
    *v = TASK_SLOT_VACANT;
    Some(out)
}

impl Cell {
    /// A fresh idle cell over `engine` (started by the caller).
    pub(crate) fn new(
        engine: Engine,
        routes: BTreeMap<Capability, RouteSpec>,
        nodes: usize,
    ) -> Self {
        Cell {
            engine,
            routes,
            nodes,
            queue: murakkab_traffic::PriorityFifo::new(),
            inflight: Vec::new(),
            task_class: Vec::new(),
            task_job: Vec::new(),
            batch: CellBatch::default(),
            active: true,
            cost_scale: 1.0,
            assigned: 0,
            stolen_in: 0,
            migrated_out: 0,
            completed: 0,
            peak_backlog: 0,
            rebalance_actions: 0,
        }
    }

    /// Queued plus in-flight workflows — the router's and the stealing
    /// pass's hotness signal.
    pub(crate) fn backlog(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    pub(crate) fn note_backlog(&mut self) {
        self.peak_backlog = self.peak_backlog.max(self.backlog() as u64);
    }

    /// Whether the cell still holds queued or executing workflows.
    pub(crate) fn has_work(&self) -> bool {
        !self.inflight.is_empty() || !self.queue.is_empty()
    }
}

/// The cell-index stripe owning a scheduling priority under the
/// SLO-affine policy: `priority_ranks` (distinct priorities, highest
/// first) carve the cell range into contiguous stripes, highest
/// priority first.
pub(crate) fn stripe_range(
    priority: u8,
    priority_ranks: &[u8],
    cells: usize,
) -> std::ops::Range<usize> {
    let ranks = priority_ranks.len().max(1);
    let rank = priority_ranks
        .iter()
        .position(|&p| p == priority)
        .unwrap_or(ranks - 1);
    let lo = (rank * cells / ranks).min(cells - 1);
    let hi = (((rank + 1) * cells) / ranks).max(lo + 1).min(cells);
    lo..hi.max(lo + 1)
}

/// Picks the cell for an arriving request under the routing policy.
/// Deterministic: ties always resolve to the lowest cell index.
pub(crate) fn route_cell(
    policy: CellPolicy,
    cells: &[Cell],
    request_id: u64,
    priority: u8,
    priority_ranks: &[u8],
) -> usize {
    match policy {
        CellPolicy::Hashed => {
            let i = hashed_cell(request_id, cells.len());
            // A reclaimed (inactive) spot cell takes no new work; the
            // hash falls back to load-aware placement among live cells.
            if cells[i].active {
                i
            } else {
                least_loaded(cells, 0..cells.len())
            }
        }
        CellPolicy::LeastLoaded => least_loaded(cells, 0..cells.len()),
        CellPolicy::SloAffine => {
            least_loaded(cells, stripe_range(priority, priority_ranks, cells.len()))
        }
    }
}

/// Fibonacci hashing on the request id, reduced to a cell index by
/// multiply-shift: stable across runs and platforms (no process-random
/// hasher state), and every hash bit influences the choice — a `%`
/// reduction keys power-of-two cell counts off the low-order bits only.
pub(crate) fn hashed_cell(request_id: u64, n: usize) -> usize {
    let h = request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((u128::from(h)) * (n as u128)) >> 64) as usize
}

/// The least-backlogged **active** cell in `range` (an inactive —
/// reclaimed spot — cell is chosen only if the whole range is
/// inactive). Backlog ties break to the cell whose hottest
/// admission-gating KV pool is emptiest (KV-aware routing: among
/// equally backlogged cells, new context lands where decode memory is
/// free), then to the lowest index. On the single-region path every
/// cell is active, so the filter is a no-op.
pub(crate) fn least_loaded(cells: &[Cell], range: std::ops::Range<usize>) -> usize {
    let mut best = range.start;
    for i in range {
        if cells[i].active && !cells[best].active {
            best = i;
            continue;
        }
        if !cells[i].active && cells[best].active {
            continue;
        }
        let (b, kv) = (cells[i].backlog(), cells[i].engine.max_kv_occupancy());
        let (bb, bkv) = (cells[best].backlog(), cells[best].engine.max_kv_occupancy());
        if b < bb || (b == bb && kv < bkv) {
            best = i;
        }
    }
    best
}

#[derive(Default, Clone)]
pub(crate) struct ClassAgg {
    pub(crate) name: String,
    pub(crate) priority: u8,
    pub(crate) deadline_s: f64,
    pub(crate) offered: u64,
    pub(crate) admitted: u64,
    pub(crate) completed: u64,
    pub(crate) slo_met: u64,
    pub(crate) latencies: Vec<f64>,
    pub(crate) ttfts: Vec<f64>,
    pub(crate) tpots: Vec<f64>,
}

impl ClassAgg {
    /// Folds `other`'s counters and raw samples into `self` (the geo
    /// layer's region → global merge; sample order is region-index
    /// order, erased anyway by the settlement sort).
    pub(crate) fn merge(&mut self, other: &ClassAgg) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.slo_met += other.slo_met;
        self.latencies.extend_from_slice(&other.latencies);
        self.ttfts.extend_from_slice(&other.ttfts);
        self.tpots.extend_from_slice(&other.tpots);
    }
}

/// Everything a cell produced during one epoch, merged into the
/// fleet-level aggregates **by cell index** after the barrier so the
/// apply order — and therefore the report — is identical at every
/// thread count.
#[derive(Default)]
struct CellBatch {
    /// `(planned index, class index, ttft seconds, tpot seconds)` per
    /// finished endpoint task; the planned index carries the geo
    /// layer's per-request WAN charge into the TTFT samples.
    llm: Vec<(usize, usize, f64, f64)>,
    /// `(planned index, absolute first-token instant seconds)` per
    /// finished endpoint task, gathered only while capturing.
    first_tokens: Vec<(usize, f64)>,
    /// `(planned index, completion instant)` per finished workflow.
    done: Vec<(usize, SimTime)>,
}

/// Injects queued workflows into the cell's engine while execution
/// slots are free. `now` is the instant the slot freed or the queue
/// gained work — exactly when the sequential loop would have injected.
fn inject_ready(
    cell: &mut Cell,
    planned: &[PlannedRequest],
    per_cell_inflight: usize,
    now: SimTime,
) -> Result<(), SimError> {
    while cell.inflight.len() < per_cell_inflight {
        let Some((_, _, idx)) = cell.queue.pop() else {
            break;
        };
        let p = &planned[idx];
        let first = cell.engine.admit_graph_into(now, &p.graph)?.raw();
        let remaining = p.graph.len();
        for k in 0..remaining as u64 {
            let tid = murakkab_workflow::TaskId::from_raw(first + k);
            task_slot_set(&mut cell.task_class, tid, p.class_idx)?;
            task_slot_set(&mut cell.task_job, tid, idx)?;
        }
        cell.inflight.push(InflightJob {
            planned_idx: idx,
            remaining,
        });
    }
    Ok(())
}

/// Drains the cell engine's finished-task metrics and completions into
/// the cell's own batch. `t` is the engine instant that produced them
/// (the latency clock for workflows completing now). The engine logs
/// are read in place and cleared (keeping their capacity) — no
/// per-harvest Vec handoff.
fn harvest_cell(cell: &mut Cell, capturing: bool, t: SimTime) {
    let Cell {
        engine,
        task_class,
        task_job,
        inflight,
        completed,
        batch,
        ..
    } = &mut *cell;
    for &(tid, ttft, tpot, first_abs) in engine.llm_metrics() {
        if let Some(class_idx) = task_slot_take(task_class, tid) {
            let idx = task_slot_get(task_job, tid).expect("classed task has a job slot");
            batch.llm.push((idx, class_idx, ttft, tpot));
            if capturing {
                batch.first_tokens.push((idx, first_abs));
            }
        }
    }
    engine.clear_llm_metrics();
    for &tid in engine.completions() {
        task_slot_take(task_class, tid);
        let Some(job_idx) = task_slot_take(task_job, tid) else {
            continue;
        };
        let Some(k) = inflight.iter().position(|j| j.planned_idx == job_idx) else {
            continue;
        };
        inflight[k].remaining -= 1;
        if inflight[k].remaining == 0 {
            let job = inflight.swap_remove(k);
            *completed += 1;
            batch.done.push((job.planned_idx, t));
        }
    }
    engine.clear_completions();
}

/// Steps one cell to the epoch boundary: inject queued work into free
/// slots, drain engine events up to `bound` (stopping at every task
/// completion so injection re-runs at that instant, exactly like the
/// sequential loop), and collect the epoch's metrics into the cell's
/// own batch (applied fleet-wide after the barrier). Runs on a worker
/// thread under parallel execution — touches only cell-local state.
pub(crate) fn advance_cell(
    cell: &mut Cell,
    planned: &[PlannedRequest],
    per_cell_inflight: usize,
    capturing: bool,
    start: SimTime,
    bound: SimTime,
    inclusive: bool,
) -> Result<(), SimError> {
    let mut now = start;
    loop {
        inject_ready(cell, planned, per_cell_inflight, now)?;
        match cell.engine.step_while(bound, inclusive)? {
            Some(t) => {
                harvest_cell(cell, capturing, t);
                now = t;
            }
            None => break,
        }
    }
    Ok(())
}

/// Steps every cell to the epoch boundary, collecting each cell's
/// harvest into its own batch. With `threads > 1` and more than one
/// cell active inside the epoch, cells run concurrently on scoped
/// worker threads; cells only touch cell-local state between epochs,
/// so the per-cell outcome — and the index-ordered merge done by
/// [`apply_cell_batches`] — is identical to stepping them inline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_cells(
    cells: &mut [Cell],
    planned: &[PlannedRequest],
    per_cell_inflight: usize,
    capturing: bool,
    threads: usize,
    start: SimTime,
    bound: SimTime,
    inclusive: bool,
) -> Result<(), SimError> {
    let within = |t: SimTime| if inclusive { t <= bound } else { t < bound };
    let active = cells
        .iter()
        .filter(|c| {
            c.engine.peek_time().is_some_and(within)
                || (c.inflight.len() < per_cell_inflight && !c.queue.is_empty())
        })
        .count();
    if threads <= 1 || active <= 1 {
        for c in cells.iter_mut() {
            advance_cell(
                c,
                planned,
                per_cell_inflight,
                capturing,
                start,
                bound,
                inclusive,
            )?;
        }
        return Ok(());
    }
    let n = cells.len();
    let chunk = n.div_ceil(threads);
    let run_slice = |slice: &mut [Cell]| {
        for c in slice.iter_mut() {
            advance_cell(
                c,
                planned,
                per_cell_inflight,
                capturing,
                start,
                bound,
                inclusive,
            )?;
        }
        Ok::<(), SimError>(())
    };
    std::thread::scope(|s| {
        // The first chunk runs on this thread, overlapped with the
        // workers — one fewer spawn per epoch, and the caller's thread
        // isn't idle while the fleet steps.
        let mut chunks = cells.chunks_mut(chunk);
        let first = chunks.next().expect("at least one cell");
        let handles: Vec<_> = chunks
            .map(|slice| s.spawn(move || run_slice(slice)))
            .collect();
        let head = run_slice(first);
        // Join in spawn order: the first error (by cell index) wins
        // deterministically; batches live on the cells, already in
        // index order.
        head?;
        for h in handles {
            match h.join() {
                Ok(r) => r?,
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        Ok(())
    })
}

/// Merges every cell's accumulated batch into the fleet-level
/// aggregates in cell-index order (the deterministic merge the
/// parallel path shares with the sequential one), draining the batches
/// in place so their buffers are reused next epoch. A request's WAN
/// charge ([`PlannedRequest::wan_s`]) lands here: on its end-to-end
/// latency, its SLO verdict and its TTFT — the user-observed clocks —
/// but not TPOT (token cadence is generated server-side).
pub(crate) fn apply_cell_batches(
    cells: &mut [Cell],
    planned: &[PlannedRequest],
    classes: &mut [ClassAgg],
    capture: &mut Option<&mut RunCapture>,
) {
    for cell in cells.iter_mut() {
        let batch = &mut cell.batch;
        for (idx, class_idx, ttft, tpot) in batch.llm.drain(..) {
            classes[class_idx].ttfts.push(ttft + planned[idx].wan_s);
            classes[class_idx].tpots.push(tpot);
        }
        if let Some(cap) = capture.as_deref_mut() {
            for (idx, first_abs) in batch.first_tokens.drain(..) {
                if let Some(o) = cap.requests[idx].outcome.as_mut() {
                    // Earliest first token across the workflow's
                    // endpoint tasks.
                    o.first_token_s = Some(o.first_token_s.map_or(first_abs, |v| v.min(first_abs)));
                }
            }
        } else {
            batch.first_tokens.clear();
        }
        for (idx, t) in batch.done.drain(..) {
            let p = &planned[idx];
            let latency = t.saturating_duration_since(p.req.at).as_secs_f64() + p.wan_s;
            let agg = &mut classes[p.class_idx];
            agg.completed += 1;
            if p.req.class.met_by(latency) {
                agg.slo_met += 1;
            }
            agg.latencies.push(latency);
            if let Some(cap) = capture.as_deref_mut() {
                if let Some(o) = cap.requests[idx].outcome.as_mut() {
                    o.completed_s = Some(t.as_secs_f64());
                    o.slo_met = Some(p.req.class.met_by(latency));
                }
            }
        }
    }
}

/// Routes and admission-gates the arrival at `planned[arr_idx]`:
/// the admission decision at the arrival instant runs against the
/// routed cell's backlog, and an admitted workflow joins that cell's
/// queue. Always sequential — routing reads every cell's backlog.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_arrival(
    at: SimTime,
    arr_idx: usize,
    planned: &[PlannedRequest],
    cells: &mut [Cell],
    classes: &mut [ClassAgg],
    ctrl: &mut AdmissionController<()>,
    router: CellPolicy,
    priority_ranks: &[u8],
    next_seq: &mut u64,
    capture: &mut Option<&mut RunCapture>,
) {
    let p = &planned[arr_idx];
    let cell_idx = route_cell(
        router,
        cells,
        p.req.id,
        p.req.class.priority,
        priority_ranks,
    );
    let decision = ctrl.gate(
        at,
        p.req.class.deadline_s,
        p.est_service_s,
        cells[cell_idx].backlog(),
        cells[cell_idx].queue.len(),
    );
    let admitted = decision == murakkab_traffic::AdmissionDecision::Admitted;
    if let Some(cap) = capture.as_deref_mut() {
        cap.requests[arr_idx].outcome = Some(RequestOutcome {
            verdict: decision,
            cell: admitted.then_some(cell_idx),
            first_token_s: None,
            completed_s: None,
            slo_met: None,
        });
    }
    if admitted {
        classes[p.class_idx].admitted += 1;
        let cell = &mut cells[cell_idx];
        cell.queue.push(p.req.class.priority, *next_seq, arr_idx);
        *next_seq += 1;
        cell.assigned += 1;
        cell.note_backlog();
    }
}

/// Steps the one engine event that crosses a telemetry tick on cell
/// `i` and merges its harvest through the shared apply path. Returns
/// the event instant (the new global now).
pub(crate) fn step_trigger(
    cells: &mut [Cell],
    i: usize,
    planned: &[PlannedRequest],
    classes: &mut [ClassAgg],
    capture: &mut Option<&mut RunCapture>,
) -> Result<SimTime, SimError> {
    let t = cells[i].engine.step()?.expect("peeked event exists");
    harvest_cell(&mut cells[i], capture.is_some(), t);
    apply_cell_batches(cells, planned, classes, capture);
    Ok(t)
}

impl Runtime {
    /// Serves an open-loop request stream: generates arrivals from
    /// `opts.process`, gates them through the (global) admission
    /// controller, routes admitted workflows to one of
    /// [`FleetOptions::shards`] engine cells, injects them mid-flight
    /// and measures per-class latency percentiles and SLO attainment.
    /// A periodic migration pass at the rebalancer cadence lets hot
    /// cells shed queued-but-unstarted workflows to cold ones.
    ///
    /// Deterministic: the same runtime seed and options (including the
    /// shard count and router policy) produce a bit-identical
    /// [`FleetReport`] — at any [`FleetOptions::threads`] worker count,
    /// since cells only interact at epoch barriers and per-cell results
    /// merge in cell-index order.
    ///
    /// # Errors
    ///
    /// Propagates planning, placement and execution errors, rejects a
    /// zero shard count or more shards than cluster nodes, and fails on
    /// a stalled serve loop (a scheduling bug).
    #[deprecated(
        since = "0.6.0",
        note = "declare an open-loop `Scenario` (`WorkloadSource::Traffic`) \
                and execute it through `Session` instead"
    )]
    pub fn serve(&self, opts: FleetOptions) -> Result<FleetReport, SimError> {
        self.serve_inner(opts)
    }

    /// The open-loop pipeline behind [`Runtime::serve`] and the
    /// `Session` open-loop mode.
    pub(crate) fn serve_inner(&self, opts: FleetOptions) -> Result<FleetReport, SimError> {
        self.serve_captured(opts, None)
    }

    /// [`serve_inner`](Self::serve_inner) with optional per-request
    /// capture: when `capture` is `Some`, every arrival's admission
    /// verdict, cell assignment, first-token/completion instants and
    /// every inter-cell steal are recorded into it. Recording is
    /// observation only — a captured run produces a report bit-identical
    /// to the uncaptured run of the same options.
    pub(crate) fn serve_captured(
        &self,
        opts: FleetOptions,
        mut capture: Option<&mut RunCapture>,
    ) -> Result<FleetReport, SimError> {
        opts.validate()?;
        let shards = opts.shards;
        let horizon = SimDuration::from_secs_f64(opts.horizon_s);
        let fleet_rng = SimRng::new(self.seed()).fork("fleet");

        // 1. The request stream, then a concrete sized job per request.
        let spec = TrafficSpec {
            process: opts.process.clone(),
            tenants: opts.tenants.clone(),
        };
        let requests = spec.requests(&fleet_rng, horizon);

        // 2. Shared route selection over every archetype the tenant set
        //    can emit (fleet deployments are long-lived: capacity is laid
        //    out for the mix, not per request).
        let prep = self.serve_prep(&opts)?;

        // 3. Partition the cluster into cells, each with its own
        //    resource-aware route selection (against the cell's capacity,
        //    not the fleet's) and its own long-running engine: empty
        //    graph, full route set. No per-request orchestration charge
        //    (§3.3 puts it under 1% of workflow time; the closed-loop
        //    entry points measure it).
        let clusters = self.build_cluster().partition(shards)?;
        let mut routes_by_nodes: BTreeMap<usize, BTreeMap<Capability, RouteSpec>> = BTreeMap::new();
        let mut cells = self.build_cells(clusters, &prep, &mut routes_by_nodes)?;

        // 4. Plan every request up front (decomposition is input-size
        //    independent, so this is equivalent to planning on arrival and
        //    keeps the loop allocation-free). The admission estimate uses
        //    cell 0's routes: equal node slices select identical routes,
        //    and the estimate is a front-door heuristic either way.
        let est_routes = cells[0].routes.clone();
        let mut class_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut classes: Vec<ClassAgg> = Vec::new();
        let mut planned = Vec::with_capacity(requests.len());
        self.plan_requests(
            requests,
            &est_routes,
            &fleet_rng,
            &mut class_index,
            &mut classes,
            &mut planned,
        )?;
        if let Some(cap) = capture.as_deref_mut() {
            cap.requests.clear();
            cap.steals.clear();
            cap.requests.reserve(planned.len());
            // Record index == planned index == request id: the arrival
            // stream is generated in id order.
            for p in &planned {
                cap.requests.push(RequestRecord {
                    id: p.req.id,
                    at_s: p.req.at.as_secs_f64(),
                    tenant: p.req.tenant.clone(),
                    archetype: p.req.archetype,
                    class: p.req.class.name.clone(),
                    outcome: None,
                });
            }
        }

        // 5. The serve loop: every cell's event queue and the arrival
        //    stream, merged deterministically (earliest first; engine
        //    events beat simultaneous arrivals; ties across cells go to
        //    the lowest cell index).
        let mut ctrl: AdmissionController<()> = AdmissionController::new(opts.admission.clone())?;
        let rebalancer = Rebalancer::default();
        let rebalance_every = SimDuration::from_secs_f64(opts.rebalance_every_s.max(1.0));
        let mut next_rebalance = SimTime::ZERO + rebalance_every;
        let mut steals = 0u64;
        let mut next_seq = 0u64;
        let per_cell_inflight = opts.max_inflight.max(1).div_ceil(shards);
        // Distinct scheduling priorities, highest first — the stripe
        // table for the SLO-affine router.
        let priority_ranks: Vec<u8> = {
            let mut ps: Vec<u8> = opts.tenants.iter().map(|t| t.class.priority).collect();
            ps.sort_unstable_by(|a, b| b.cmp(a));
            ps.dedup();
            ps
        };

        let threads = opts.threads.max(1).min(shards);
        let capturing = capture.is_some();
        let mut now = SimTime::ZERO;
        let mut arr_idx = 0usize;
        loop {
            let next_arr = planned.get(arr_idx).map(|p| p.req.at);

            // The common epoch: the next synchronization point is an
            // arrival strictly before the telemetry tick. Every cell
            // advances to it concurrently (engine events at the arrival
            // instant beat the simultaneous arrival, hence the inclusive
            // bound), then the arrival routes against the merged backlog
            // picture. No tick can fire: now stays short of it.
            if let Some(at) = next_arr.filter(|&at| at < next_rebalance) {
                advance_cells(
                    &mut cells,
                    &planned,
                    per_cell_inflight,
                    capturing,
                    threads,
                    now,
                    at,
                    true,
                )?;
                apply_cell_batches(&mut cells, &planned, &mut classes, &mut capture);
                now = at;
                process_arrival(
                    at,
                    arr_idx,
                    &planned,
                    &mut cells,
                    &mut classes,
                    &mut ctrl,
                    opts.router,
                    &priority_ranks,
                    &mut next_seq,
                    &mut capture,
                );
                arr_idx += 1;
                continue;
            }

            // Otherwise the epoch ends at the telemetry tick: advance
            // every cell to just before it, then process exactly the one
            // merged-stream item that crosses the tick (earliest first;
            // engine events beat simultaneous arrivals; cross-cell ties
            // go to the lowest cell index) — the rebalancer fires after
            // that item, not at the tick instant.
            advance_cells(
                &mut cells,
                &planned,
                per_cell_inflight,
                capturing,
                threads,
                now,
                next_rebalance,
                false,
            )?;
            apply_cell_batches(&mut cells, &planned, &mut classes, &mut capture);
            let next_event = cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.engine.peek_time().map(|t| (t, i)))
                .min();
            match (next_arr, next_event) {
                (None, None) => {
                    if cells
                        .iter()
                        .all(|c| c.inflight.is_empty() && c.queue.is_empty())
                    {
                        break;
                    }
                    // Epoch-entry injection already drained the queues
                    // into any free slots, so reaching here with work
                    // left means an engine stalled — a scheduling bug,
                    // not a wait state.
                    return Err(SimError::InvalidState(
                        "fleet serve loop stalled with workflows pending".into(),
                    ));
                }
                (Some(at), Some((ev, i))) if ev <= at => {
                    now = step_trigger(&mut cells, i, &planned, &mut classes, &mut capture)?;
                }
                (Some(at), _) => {
                    now = at;
                    process_arrival(
                        at,
                        arr_idx,
                        &planned,
                        &mut cells,
                        &mut classes,
                        &mut ctrl,
                        opts.router,
                        &priority_ranks,
                        &mut next_seq,
                        &mut capture,
                    );
                    arr_idx += 1;
                }
                (None, Some((_, i))) => {
                    now = step_trigger(&mut cells, i, &planned, &mut classes, &mut capture)?;
                }
            }

            // Advisory rebalancer on its cadence, per cell: plan against
            // live backlog telemetry, count the recommendations. Resident
            // views cover every capability an endpoint serves plus the
            // live tool pools, so Prewarm hints fire only for genuinely
            // unserved demand (e.g. a pool scaled down during a lull).
            while now >= next_rebalance {
                for cell in cells.iter_mut() {
                    let upcoming = cell.engine.upcoming_by_capability();
                    let mut views: Vec<EndpointView> = Vec::new();
                    for (agent, gpus, load) in cell.engine.endpoint_loads() {
                        for cap in endpoint_capabilities(&cell.routes, &agent) {
                            views.push(EndpointView {
                                label: agent.clone(),
                                capability: cap,
                                gpus: f64::from(gpus),
                                load,
                            });
                        }
                    }
                    for (agent, capability, gpus, load) in cell.engine.pool_views() {
                        views.push(EndpointView {
                            label: agent,
                            capability,
                            gpus,
                            load,
                        });
                    }
                    let cluster_stats = cell.engine.cluster_stats(next_rebalance);
                    cell.rebalance_actions +=
                        rebalancer.plan(&cluster_stats, &upcoming, &views).len() as u64;
                }

                steal_pass(
                    &mut cells,
                    opts.router,
                    &priority_ranks,
                    opts.steal_margin,
                    now,
                    &planned,
                    &mut steals,
                    &mut capture,
                );
                next_rebalance += rebalance_every;
            }
        }

        let admission_stats = ctrl.stats();

        // 6. Per-cell settlement, then fleet-level report assembly —
        //    both shared with the geo layer's per-region reports.
        let mut makespan = SimTime::ZERO;
        let finished = settle_cells(cells, &mut makespan)?;
        let params = ReportParams {
            label: opts.label,
            seed: self.seed(),
            shards,
            router: opts.router.tag().into(),
            serving: opts.serving.tag().into(),
            arrival_process: opts.process.kind().into(),
            offered_rate_per_s: opts.process.mean_rate_per_s(),
            horizon_s: opts.horizon_s,
            admission_enabled: opts.admission.enabled,
            offered: planned.len() as u64,
            admission: admission_stats,
            steals,
        };
        Ok(assemble_fleet_report(params, classes, &finished, makespan))
    }

    /// Route-selection inputs shared by every cell — and, under geo
    /// federation, by every region: the capability → archetype demand
    /// map over every archetype the tenant set can emit, the folded
    /// constraint set and the engine run options.
    pub(crate) fn serve_prep(&self, opts: &FleetOptions) -> Result<ServePrep, SimError> {
        let archetypes: Vec<Archetype> = Archetype::ALL
            .into_iter()
            .filter(|a| {
                opts.tenants
                    .iter()
                    .any(|t| t.mix.weights().iter().any(|&(m, w)| m == *a && w > 0.0))
            })
            .collect();
        if archetypes.is_empty() {
            return Err(SimError::InvalidInput("fleet tenant set is empty".into()));
        }
        let mut cap_archetypes: BTreeMap<Capability, Vec<String>> = BTreeMap::new();
        let mut constraints = murakkab_workflow::ConstraintSet::new();
        for &arch in &archetypes {
            let job = canonical_job(arch);
            let (plan, _) = Planner.decompose(&job, self.library())?;
            for c in job.constraints.all() {
                constraints = constraints.and(*c);
            }
            for cap in plan.capabilities() {
                cap_archetypes
                    .entry(cap)
                    .or_default()
                    .push(plan.archetype.clone());
            }
        }
        for &c in &opts.constraints {
            constraints = constraints.and(c);
        }
        let run_opts = RunOptions::labeled(&opts.label)
            .parallelism(opts.parallelism)
            .pin_paper_agents(false)
            .serving(opts.serving)
            .workflow_aware(opts.workflow_aware);
        Ok(ServePrep {
            cap_archetypes,
            constraints,
            run_opts,
        })
    }

    /// Builds one started, idle engine cell per cluster slice. Route
    /// selection only depends on a cell's capacity and the fleet is
    /// homogeneous (one VM shape), so slices with the same node count
    /// share one selection pass through `routes_by_nodes` — callers
    /// building several cell groups (the geo regions) pass the same
    /// cache to every call.
    pub(crate) fn build_cells(
        &self,
        clusters: Vec<murakkab_cluster::ClusterManager>,
        prep: &ServePrep,
        routes_by_nodes: &mut BTreeMap<usize, BTreeMap<Capability, RouteSpec>>,
    ) -> Result<Vec<Cell>, SimError> {
        let mut cells = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            let nodes = cluster.nodes().len();
            let routes = match routes_by_nodes.get(&nodes) {
                Some(routes) => routes.clone(),
                None => {
                    let mut stats = cluster.stats(SimTime::ZERO);
                    let RoutePlan {
                        routes,
                        selections: _,
                        orchestrator_agent: _,
                    } = self.select_routes(
                        &prep.cap_archetypes,
                        &prep.constraints,
                        &mut stats,
                        &prep.run_opts,
                    )?;
                    routes_by_nodes.insert(nodes, routes.clone());
                    routes
                }
            };
            // Serve reports never render the span trace; skipping it
            // removes a String clone per completed task from the loop.
            let mut engine_opts = self.engine_options(&prep.run_opts);
            engine_opts.record_spans = false;
            let mut engine = Engine::new(
                cluster,
                self.library(),
                TaskGraph::new(),
                routes.clone(),
                engine_opts,
                SimTime::ZERO,
            )?;
            engine.start(SimTime::ZERO)?;
            cells.push(Cell::new(engine, routes, nodes));
        }
        Ok(cells)
    }

    /// Plans every request up front (decomposition is input-size
    /// independent, so this is equivalent to planning on arrival and
    /// keeps the serve loop allocation-free), interning each SLO class
    /// into `classes`/`class_index` so requests carry a dense index
    /// instead of a name. Report order is fixed by the final
    /// (priority, name) sort, so first-seen insertion order is fine.
    /// Appends to the three collections in place so the geo layer can
    /// plan several origin streams against one shared class table.
    pub(crate) fn plan_requests(
        &self,
        requests: Vec<RequestSpec>,
        est_routes: &BTreeMap<Capability, RouteSpec>,
        fleet_rng: &SimRng,
        class_index: &mut BTreeMap<String, usize>,
        classes: &mut Vec<ClassAgg>,
        planned: &mut Vec<PlannedRequest>,
    ) -> Result<(), SimError> {
        for req in requests {
            let mut job_rng = fleet_rng.fork(&format!("job-{}", req.id));
            let (job, inputs) = fleet_job(req.archetype, &req.tenant, &mut job_rng);
            let (plan, _) = Planner.decompose(&job, self.library())?;
            let graph = expand(&plan, &inputs)?;
            let est_service_s = estimate_service_s(&graph, est_routes, self.library())?;
            let graph = CompiledGraph::from_graph(&graph)?;
            let class_idx = match class_index.get(&req.class.name) {
                Some(&i) => i,
                None => {
                    let i = classes.len();
                    class_index.insert(req.class.name.clone(), i);
                    classes.push(ClassAgg {
                        name: req.class.name.clone(),
                        priority: req.class.priority,
                        deadline_s: req.class.deadline_s,
                        ..ClassAgg::default()
                    });
                    i
                }
            };
            classes[class_idx].offered += 1;
            planned.push(PlannedRequest {
                req,
                graph,
                est_service_s,
                class_idx,
                wan_s: 0.0,
            });
        }
        Ok(())
    }
}

/// The migration pass riding the telemetry tick: hot cells shed
/// queued-but-unstarted workflows to cold ones until no eligible gap
/// exceeds the steal margin. The shed item is the hot cell's
/// *last-to-run* queued workflow (lowest priority, youngest) — it
/// gains the most from a colder queue and its class loses nothing.
/// Under the SLO-affine router the cold-cell choice is confined to the
/// item's priority stripe, so stealing never mixes interactive and
/// batch traffic; a hot cell whose stripe is already balanced is
/// skipped so other stripes still drain. Every move re-scores, so the
/// pass converges (each steal shrinks some gap by two). Shared with
/// the geo layer, which runs it per region at sync-epoch boundaries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn steal_pass(
    cells: &mut [Cell],
    router: CellPolicy,
    priority_ranks: &[u8],
    steal_margin: usize,
    now: SimTime,
    planned: &[PlannedRequest],
    steals: &mut u64,
    capture: &mut Option<&mut RunCapture>,
) {
    loop {
        // Hot candidates in descending backlog order, ties to the
        // lowest index; take the first that can shed.
        let mut order: Vec<usize> = (0..cells.len())
            .filter(|&i| !cells[i].queue.is_empty())
            .collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(cells[i].backlog()), i));
        let mut moved = false;
        for &hot in &order {
            let priority = cells[hot]
                .queue
                .last_priority()
                .expect("hot cell has queued work");
            let eligible = match router {
                CellPolicy::SloAffine => stripe_range(priority, priority_ranks, cells.len()),
                _ => 0..cells.len(),
            };
            let cold = least_loaded(cells, eligible);
            if hot == cold || cells[hot].backlog() < cells[cold].backlog() + steal_margin.max(1) {
                continue;
            }
            let (prio, seq, idx) = cells[hot]
                .queue
                .pop_last()
                .expect("hot cell has queued work");
            cells[hot].migrated_out += 1;
            cells[cold].queue.push(prio, seq, idx);
            cells[cold].stolen_in += 1;
            cells[cold].note_backlog();
            *steals += 1;
            if let Some(cap) = capture.as_deref_mut() {
                cap.steals.push(StealRecord {
                    at_s: now.as_secs_f64(),
                    request_id: planned[idx].req.id,
                    from_cell: hot,
                    to_cell: cold,
                });
            }
            moved = true;
            break;
        }
        if !moved {
            break;
        }
    }
}

/// The shared route-selection inputs produced by
/// [`Runtime::serve_prep`].
pub(crate) struct ServePrep {
    pub(crate) cap_archetypes: BTreeMap<Capability, Vec<String>>,
    pub(crate) constraints: murakkab_workflow::ConstraintSet,
    pub(crate) run_opts: RunOptions,
}

/// A settled cell: its engine outcome plus the serve-loop counters,
/// ready for report assembly.
pub(crate) struct CellDone {
    pub(crate) outcome: crate::engine::EngineOutcome,
    pub(crate) nodes: usize,
    pub(crate) assigned: u64,
    pub(crate) stolen_in: u64,
    pub(crate) migrated_out: u64,
    pub(crate) completed: u64,
    pub(crate) peak_backlog: u64,
    pub(crate) rebalance_actions: u64,
    pub(crate) events_processed: u64,
    /// `(prefill busy GPU-s, prefill GPUs, decode busy GPU-s,
    /// decode GPUs)` across the cell's endpoints.
    pub(crate) phase: (f64, f64, f64, f64),
    /// The cell's dollar-cost multiplier (geo spot discount).
    pub(crate) cost_scale: f64,
}

/// Finishes every cell's engine and folds the per-cell makespan into
/// `makespan` (callers settling several regions pass the same
/// accumulator to every call so utilization windows agree).
pub(crate) fn settle_cells(
    cells: Vec<Cell>,
    makespan: &mut SimTime,
) -> Result<Vec<CellDone>, SimError> {
    let mut finished = Vec::with_capacity(cells.len());
    for cell in cells {
        let Cell {
            engine,
            nodes,
            cost_scale,
            assigned,
            stolen_in,
            migrated_out,
            completed,
            peak_backlog,
            rebalance_actions,
            ..
        } = cell;
        let phase = engine.endpoint_phase_stats();
        let events_processed = engine.events_processed();
        let outcome = engine.finish(SimTime::ZERO)?;
        *makespan = (*makespan).max(outcome.makespan);
        finished.push(CellDone {
            outcome,
            nodes,
            assigned,
            stolen_in,
            migrated_out,
            completed,
            peak_backlog,
            rebalance_actions,
            events_processed,
            phase,
            cost_scale,
        });
    }
    Ok(finished)
}

/// The report-identity fields [`assemble_fleet_report`] copies through
/// verbatim — everything not derived from the settled cells or the
/// class aggregates.
pub(crate) struct ReportParams {
    pub(crate) label: String,
    pub(crate) seed: u64,
    pub(crate) shards: usize,
    pub(crate) router: String,
    pub(crate) serving: String,
    pub(crate) arrival_process: String,
    pub(crate) offered_rate_per_s: f64,
    pub(crate) horizon_s: f64,
    pub(crate) admission_enabled: bool,
    pub(crate) offered: u64,
    pub(crate) admission: murakkab_traffic::AdmissionStats,
    pub(crate) steals: u64,
}

/// Sorts every class's retained samples and renders its report row.
/// Percentiles are exact (nearest-rank), not histogram-bucket
/// estimates; an empty sample set is `None` (serialized `null`), never
/// a fake 0-second percentile.
pub(crate) fn class_reports(classes: Vec<ClassAgg>) -> Vec<FleetClassReport> {
    let mut reports: Vec<FleetClassReport> = classes
        .into_iter()
        .map(|mut agg| {
            agg.latencies.sort_by(f64::total_cmp);
            let mean = if agg.latencies.is_empty() {
                None
            } else {
                Some(agg.latencies.iter().sum::<f64>() / agg.latencies.len() as f64)
            };
            agg.ttfts.sort_by(f64::total_cmp);
            agg.tpots.sort_by(f64::total_cmp);
            let pct_of = |v: &[f64], q: f64| -> Option<f64> {
                if v.is_empty() {
                    None
                } else {
                    let rank = (q * v.len() as f64).ceil() as usize;
                    Some(v[rank.clamp(1, v.len()) - 1])
                }
            };
            FleetClassReport {
                class: agg.name.clone(),
                priority: agg.priority,
                deadline_s: agg.deadline_s,
                offered: agg.offered,
                admitted: agg.admitted,
                completed: agg.completed,
                slo_met: agg.slo_met,
                // Attainment is over admitted work only: a fully
                // shed class is degraded (0.0), not vacuously
                // perfect; only the no-traffic case reads 1.0.
                attainment: if agg.admitted == 0 {
                    if agg.offered == 0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    agg.slo_met as f64 / agg.admitted as f64
                },
                // Saturating: a geo region's class row counts origins
                // as offered but serves inbound spillover too, so it
                // can admit more than it originates.
                shed_rate: if agg.offered == 0 {
                    0.0
                } else {
                    agg.offered.saturating_sub(agg.admitted) as f64 / agg.offered as f64
                },
                p50_s: pct_of(&agg.latencies, 0.5),
                p95_s: pct_of(&agg.latencies, 0.95),
                p99_s: pct_of(&agg.latencies, 0.99),
                mean_s: mean,
                max_s: agg.latencies.last().copied(),
                ttft_p50_s: pct_of(&agg.ttfts, 0.5),
                ttft_p95_s: pct_of(&agg.ttfts, 0.95),
                ttft_p99_s: pct_of(&agg.ttfts, 0.99),
                tpot_p50_s: pct_of(&agg.tpots, 0.5),
                tpot_p95_s: pct_of(&agg.tpots, 0.95),
            }
        })
        .collect();
    reports.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.class.cmp(&b.class)));
    reports
}

/// Assembles a [`FleetReport`] from settled cells and class
/// aggregates. Utilization is sampled per cell over the window ending
/// at `makespan` (the *fleet* window, so idle tails count against a
/// cell), then capacity-weighted into the fleet aggregate — under geo,
/// passing one region's cells yields that region's report and passing
/// every region's cells yields the global one, with identical
/// weighting rules.
pub(crate) fn assemble_fleet_report(
    params: ReportParams,
    classes: Vec<ClassAgg>,
    finished: &[CellDone],
    makespan: SimTime,
) -> FleetReport {
    let sample = SimDuration::from_secs(1);
    let makespan_s = makespan.as_secs_f64();
    let avg = |samples: &[(f64, f64)]| {
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|&(_, v)| v).sum::<f64>() / samples.len() as f64
        }
    };
    let mut cell_reports: Vec<FleetCellReport> = Vec::with_capacity(finished.len());
    let (mut gpu_w, mut gpu_cap, mut cpu_w, mut cpu_cap) = (0.0, 0.0, 0.0, 0.0);
    let (mut pf_busy, mut pf_cap, mut dc_busy, mut dc_cap) = (0.0, 0.0, 0.0, 0.0);
    let mut tasks_completed = 0u64;
    let mut energy_allocated_wh = 0.0;
    let mut cost_usd = 0.0;
    let (mut pool_scale_ups, mut pool_scale_downs) = (0u64, 0u64);
    let mut rebalance_actions = 0u64;
    let mut events_processed = 0u64;
    for (i, done) in finished.iter().enumerate() {
        let gpu = avg(&done.outcome.cluster.aggregate_util(
            DeviceKind::Gpu,
            SimTime::ZERO,
            makespan,
            sample,
        ));
        let cpu = avg(&done.outcome.cluster.aggregate_util(
            DeviceKind::CpuPool,
            SimTime::ZERO,
            makespan,
            sample,
        ));
        let cap = done.outcome.cluster.stats(SimTime::ZERO);
        gpu_w += gpu * cap.gpus_total;
        gpu_cap += cap.gpus_total;
        cpu_w += cpu * cap.cores_total;
        cpu_cap += cap.cores_total;
        tasks_completed += done.outcome.tasks_completed as u64;
        energy_allocated_wh += done.outcome.energy_allocated_wh;
        cost_usd += done.outcome.cost_usd * done.cost_scale;
        pool_scale_ups += done.outcome.pool_scale_ups;
        pool_scale_downs += done.outcome.pool_scale_downs;
        rebalance_actions += done.rebalance_actions;
        events_processed += done.events_processed;
        let (cell_pf_busy, cell_pf_gpus, cell_dc_busy, cell_dc_gpus) = done.phase;
        pf_busy += cell_pf_busy;
        pf_cap += cell_pf_gpus;
        dc_busy += cell_dc_busy;
        dc_cap += cell_dc_gpus;
        let phase_pct = |busy_gpu_s: f64, gpus: f64| {
            if gpus > 0.0 && makespan_s > 0.0 {
                100.0 * busy_gpu_s / (gpus * makespan_s)
            } else {
                0.0
            }
        };
        cell_reports.push(FleetCellReport {
            cell: i,
            nodes: done.nodes,
            assigned: done.assigned,
            stolen_in: done.stolen_in,
            migrated_out: done.migrated_out,
            completed: done.completed,
            tasks_completed: done.outcome.tasks_completed as u64,
            peak_backlog: done.peak_backlog,
            gpu_util_avg_pct: gpu,
            cpu_util_avg_pct: cpu,
            prefill_util_avg_pct: phase_pct(cell_pf_busy, cell_pf_gpus),
            decode_util_avg_pct: phase_pct(cell_dc_busy, cell_dc_gpus),
            energy_allocated_wh: done.outcome.energy_allocated_wh,
            cost_usd: done.outcome.cost_usd * done.cost_scale,
            pool_scale_ups: done.outcome.pool_scale_ups,
            pool_scale_downs: done.outcome.pool_scale_downs,
            rebalance_actions: done.rebalance_actions,
            events_processed: done.events_processed,
            makespan_s: done.outcome.makespan.as_secs_f64(),
        });
    }

    let class_rows = class_reports(classes);
    let offered = params.offered;
    let admitted = params.admission.admitted;
    let completed: u64 = class_rows.iter().map(|c| c.completed).sum();
    let slo_met: u64 = class_rows.iter().map(|c| c.slo_met).sum();
    let horizon_min = (params.horizon_s / 60.0).max(1e-9);
    FleetReport {
        label: params.label,
        seed: params.seed,
        shards: params.shards,
        router: params.router,
        serving: params.serving,
        arrival_process: params.arrival_process,
        offered_rate_per_s: params.offered_rate_per_s,
        horizon_s: params.horizon_s,
        admission_enabled: params.admission_enabled,
        offered,
        admitted,
        rejected_rate: params.admission.rejected_rate,
        rejected_deadline: params.admission.rejected_deadline,
        rejected_queue_full: params.admission.rejected_queue_full,
        completed,
        slo_met,
        slo_attainment: if admitted == 0 {
            if offered == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            slo_met as f64 / admitted as f64
        },
        // Saturating: a geo region's report counts origins as offered
        // but admits inbound spillover too.
        shed_rate: if offered == 0 {
            0.0
        } else {
            offered.saturating_sub(admitted) as f64 / offered as f64
        },
        throughput_per_min: completed as f64 / horizon_min,
        goodput_per_min: slo_met as f64 / horizon_min,
        classes: class_rows,
        tasks_completed,
        makespan_s: makespan.as_secs_f64(),
        gpu_util_avg_pct: if gpu_cap > 0.0 { gpu_w / gpu_cap } else { 0.0 },
        cpu_util_avg_pct: if cpu_cap > 0.0 { cpu_w / cpu_cap } else { 0.0 },
        prefill_util_avg_pct: if pf_cap > 0.0 && makespan_s > 0.0 {
            100.0 * pf_busy / (pf_cap * makespan_s)
        } else {
            0.0
        },
        decode_util_avg_pct: if dc_cap > 0.0 && makespan_s > 0.0 {
            100.0 * dc_busy / (dc_cap * makespan_s)
        } else {
            0.0
        },
        energy_allocated_wh,
        cost_usd,
        pool_scale_ups,
        pool_scale_downs,
        rebalance_actions,
        events_processed,
        steals: params.steals,
        cells: cell_reports,
    }
}

/// Every capability a routed endpoint agent serves (endpoints are
/// deduplicated per model, so one agent can cover several capabilities).
fn endpoint_capabilities(routes: &BTreeMap<Capability, RouteSpec>, agent: &str) -> Vec<Capability> {
    routes
        .iter()
        .filter_map(|(&cap, r)| match r {
            RouteSpec::Endpoint { agent: a, .. } if a == agent => Some(cap),
            _ => None,
        })
        .collect()
}

/// Idle-system critical-path service estimate for a workflow under the
/// fleet's routes (the admission controller's feasibility input).
pub(crate) fn estimate_service_s(
    graph: &TaskGraph,
    routes: &BTreeMap<Capability, RouteSpec>,
    library: &murakkab_agents::AgentLibrary,
) -> Result<f64, SimError> {
    let cp = graph.critical_path(|node| {
        let Some(route) = routes.get(&node.capability) else {
            return SimDuration::from_secs(5);
        };
        let target = match route {
            RouteSpec::Pool { workers, .. } => workers
                .first()
                .copied()
                .unwrap_or(HardwareTarget::cpu_cores(1)),
            RouteSpec::Endpoint { backend, .. } => HardwareTarget::gpus(backend.gpus_total()),
            RouteSpec::External { .. } => HardwareTarget::cpu_cores(1),
        };
        library
            .get(route.agent())
            .and_then(|spec| spec.estimate_latency(&node.work, &target))
            .unwrap_or_else(|_| SimDuration::from_secs(5))
    })?;
    Ok(cp.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_slots_reject_indices_that_do_not_fit_below_the_sentinel() {
        let mut slots = Vec::new();
        let tid = murakkab_workflow::TaskId::from_raw(3);
        task_slot_set(&mut slots, tid, 7).expect("fits");
        assert_eq!(task_slot_get(&slots, tid), Some(7));
        for bad in [TASK_SLOT_VACANT as usize, u32::MAX as usize + 1] {
            let err = task_slot_set(&mut slots, tid, bad).expect_err("does not fit");
            assert!(matches!(err, SimError::InvalidState(_)), "{err}");
        }
        assert_eq!(task_slot_get(&slots, tid), Some(7), "slot untouched");
    }

    #[test]
    fn canonical_jobs_decompose_to_their_archetypes() {
        let rt = Runtime::paper_testbed(1);
        for (arch, expect) in [
            (Archetype::VideoUnderstanding, "video-understanding"),
            (Archetype::Newsfeed, "newsfeed"),
            (Archetype::ChainOfThought, "chain-of-thought"),
            (Archetype::DocQa, "doc-qa"),
        ] {
            let (plan, _) = Planner
                .decompose(&canonical_job(arch), rt.library())
                .unwrap();
            assert_eq!(plan.archetype, expect);
        }
    }

    #[test]
    fn fleet_jobs_are_request_scale() {
        let mut rng = SimRng::new(5).fork("sizes");
        for arch in Archetype::ALL {
            let (job, inputs) = fleet_job(arch, "tenant", &mut rng);
            let rt = Runtime::paper_testbed(1);
            let (plan, _) = Planner.decompose(&job, rt.library()).unwrap();
            let graph = expand(&plan, &inputs).unwrap();
            assert!(
                (1..60).contains(&graph.len()),
                "{arch:?} produced {} tasks",
                graph.len()
            );
        }
    }

    #[test]
    fn hashed_cells_spread_within_2x_of_uniform() {
        // The multiply-shift reduction folds high hash bits into the
        // cell choice; a `%` reduction fails this badly at power-of-two
        // shard counts (low-order Fibonacci-hash bits alone are far
        // from uniform over sequential ids).
        for shards in [2usize, 4, 8] {
            let mut counts = vec![0u64; shards];
            let n = 4096u64;
            for id in 0..n {
                counts[hashed_cell(id, shards)] += 1;
            }
            let uniform = n as f64 / shards as f64;
            for (cell, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) >= uniform / 2.0 && (c as f64) <= uniform * 2.0,
                    "shards={shards} cell={cell}: {c} assignments vs uniform {uniform}"
                );
            }
        }
    }

    #[test]
    fn small_fleet_run_completes_and_is_sane() {
        let rt = Runtime::paper_testbed(42);
        let opts =
            FleetOptions::open_loop("smoke", ArrivalProcess::Poisson { rate_per_s: 0.04 }, 250.0);
        let report = rt.serve_inner(opts).expect("serves");
        assert!(report.offered > 0);
        assert_eq!(
            report.admitted as usize + report.rejections() as usize,
            report.offered as usize
        );
        assert_eq!(
            report.completed, report.admitted,
            "everything admitted finishes"
        );
        assert!(report.tasks_completed > 0);
        assert!(report.makespan_s > 0.0);
        assert!(report.slo_attainment > 0.0);
        assert!(!report.classes.is_empty());
        // Pools scaled down at t=0 (empty engine) and back up on the
        // first admission.
        assert!(report.pool_scale_ups >= 1);
        assert!(report.pool_scale_downs >= 1);
    }

    #[test]
    fn invalid_fleet_options_are_rejected_upfront() {
        let rt = Runtime::paper_testbed(1);
        let base =
            || FleetOptions::open_loop("bad", ArrivalProcess::Poisson { rate_per_s: 0.1 }, 100.0);
        let cases: Vec<FleetOptions> = vec![
            FleetOptions {
                horizon_s: f64::NAN,
                ..base()
            },
            FleetOptions {
                horizon_s: -5.0,
                ..base()
            },
            FleetOptions {
                rebalance_every_s: 0.0,
                ..base()
            },
            FleetOptions {
                parallelism: 0,
                ..base()
            },
            base().max_inflight(0),
            base().shards(0),
            base().threads(0),
        ];
        for opts in cases {
            assert!(
                matches!(rt.serve_inner(opts), Err(SimError::InvalidInput(_))),
                "degenerate fleet options must be rejected"
            );
        }
    }
}
