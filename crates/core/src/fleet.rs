//! Open-loop fleet serving: the execution layer behind
//! [`ExecutionMode::OpenLoop`](crate::scenario::ExecutionMode).
//!
//! Closed-loop scenarios run a fixed set of workflows to completion and
//! report a makespan. A production fleet lives in the open-loop regime
//! instead: requests arrive on their own clock (the `murakkab_traffic`
//! generators), an admission controller decides what gets in, admitted
//! workflows are injected into long-running engines mid-flight, and the
//! figure of merit is latency percentiles and SLO attainment under
//! offered load — not makespan.
//!
//! The fleet is **sharded**: the cluster is partitioned into `shards`
//! cells, each owning a slice of nodes and running its own incremental
//! [`Engine`] (own LLM endpoints, own tool pools, own event queue). A
//! fleet-level router ([`CellPolicy`]) assigns each admitted workflow to
//! a cell, and a periodic migration pass lets hot cells shed
//! queued-but-unstarted workflows to cold ones (work stealing). One
//! monolithic scheduler cannot grow past a single serving stack per
//! model — cells scale the fleet out while the front door (admission)
//! stays global.
//!
//! A `Region` — cells, admission controller, class aggregates, capture
//! shard and an epoch's arrivals — is the unit both serve loops step: the
//! single-region fleet drives one through `advance_region`, and the geo
//! layer ([`mod@crate::geo`]) drives one per region through
//! `advance_regions`, the only place worker threads fan out. Inside a
//! region, arrivals interleave with every cell engine's own event queue
//! by time (engine events beat simultaneous arrivals; ties across cells
//! go to the lowest cell index) and cells step inline. Tool pools
//! autoscale per cell (the engine releases them when the DAG lookahead
//! shows no demand and re-provisions them on admission) and long-lived
//! LLM endpoints multiplex every tenant's token work. Both loops run one
//! periodic `region_tick` per region — the advisory [`Rebalancer`] per
//! cell against live backlog telemetry, then the steal pass — the
//! single-region fleet every `rebalance_every_s`, the geo layer at each
//! sync epoch.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use murakkab_agents::{calib, AgentLibrary, AgentSpec, Capability, Work};
use murakkab_cluster::{EndpointView, Rebalancer};
use murakkab_hardware::{DeviceKind, HardwareTarget};
use murakkab_orchestrator::{expand, JobInputs, MediaInfo, Planner, SceneInfo};
use murakkab_sim::{SimDuration, SimError, SimRng, SimTime};
use murakkab_traffic::{
    AdmissionConfig, AdmissionController, Archetype, JobMix, RequestSpec, SloClass, TenantProfile,
    TrafficSpec,
};
use murakkab_workflow::{Job, TaskGraph};

use crate::capture::{CaptureShard, RequestOutcome, RunCapture, StealRecord};
use crate::engine::{CompiledGraph, CompiledTask, Engine, RouteSpec, N_CAPS};
use crate::runtime::{RoutePlan, RoutePrep, Runtime};
use crate::scenario::Scenario;
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
/// two-video evaluation batch). Draws the job's shape, then builds it.
pub fn fleet_job(archetype: Archetype, tenant: &str, rng: &mut SimRng) -> (Job, JobInputs) {
    JobShape::draw(archetype, rng).job(tenant)
}

/// The seeded size of a fleet job: everything [`fleet_job`] draws before
/// it builds the job. Request streams repeat a small set of shapes, so
/// the serve path plans each shape once ([`PlanMemo`]).
#[derive(Debug, Clone, PartialEq)]
enum JobShape {
    /// A short clip, one entry per scene.
    Video(Vec<SceneInfo>),
    /// A newsfeed over this many posts.
    Newsfeed(u32),
    /// A chain-of-thought job with this many reasoning paths.
    ChainOfThought(u32),
    /// A document-QA job over this many documents.
    DocQa(u32),
}

impl JobShape {
    /// Draws `archetype`'s shape: the item count, or the scene count
    /// followed by one audio duration per scene.
    fn draw(archetype: Archetype, rng: &mut SimRng) -> Self {
        match archetype {
            Archetype::VideoUnderstanding => {
                let scenes = rng.int_range(1, 2);
                JobShape::Video(
                    (0..scenes)
                        .map(|_| {
                            let audio = rng.normal(12.0, 2.0);
                            SceneInfo {
                                duration_s: audio,
                                audio_s: audio,
                                frames: calib::FRAMES_PER_SCENE,
                            }
                        })
                        .collect(),
                )
            }
            Archetype::Newsfeed => JobShape::Newsfeed(rng.int_range(4, 10) as u32),
            Archetype::ChainOfThought => JobShape::ChainOfThought(rng.int_range(2, 4) as u32),
            Archetype::DocQa => JobShape::DocQa(rng.int_range(4, 12) as u32),
        }
    }

    /// The job and inputs of this shape; `tenant` is the newsfeed's user.
    fn job(&self, tenant: &str) -> (Job, JobInputs) {
        match self {
            JobShape::Video(scenes) => (
                workloads::paper_video_job(),
                JobInputs::videos(vec![MediaInfo {
                    file: "clip.mov".into(),
                    scenes: scenes.clone(),
                }]),
            ),
            JobShape::Newsfeed(posts) => workloads::newsfeed_job(tenant, *posts),
            JobShape::ChainOfThought(paths) => workloads::cot_job(*paths),
            JobShape::DocQa(docs) => workloads::doc_qa_job(*docs),
        }
    }

    /// The plan-memo key within one tenant: the archetype and its item
    /// or scene count. Scene durations are left out; a memoized video
    /// plan patches them in per request.
    fn key(&self) -> (Archetype, u32) {
        match self {
            JobShape::Video(scenes) => (Archetype::VideoUnderstanding, scenes.len() as u32),
            JobShape::Newsfeed(n) => (Archetype::Newsfeed, *n),
            JobShape::ChainOfThought(n) => (Archetype::ChainOfThought, *n),
            JobShape::DocQa(n) => (Archetype::DocQa, *n),
        }
    }
}

/// One request shape's plan, shared by every request of that shape.
struct ShapePlan {
    graph: Arc<CompiledGraph>,
    est_service_s: f64,
    /// Per-task idle latency under the run's routes; a video request
    /// re-costs only its scene-dependent tasks.
    task_s: Vec<SimDuration>,
}

/// Plans each distinct request shape once per run.
///
/// The key is the tenant (its name reaches the decomposer through the
/// newsfeed description) plus the shape's archetype and item or scene
/// count. The first request of a key runs the full path (decompose,
/// expand, compile, estimate), so a plan that fails, fails at that
/// request. Later requests share its graph. Video requests of one key
/// differ only in their scenes' durations: `expand` adds the per-scene
/// `FrameExtraction` and `SpeechToText` instances in scene order, so
/// each video request gets a copy of the key's graph with the k-th task
/// of each set to scene k's value, and a fresh estimate.
struct PlanMemo<'a> {
    library: &'a AgentLibrary,
    costs: ServiceCosts<'a>,
    plans: BTreeMap<String, BTreeMap<(Archetype, u32), ShapePlan>>,
}

impl<'a> PlanMemo<'a> {
    /// An empty memo estimating service times under `routes`.
    fn new(routes: &BTreeMap<Capability, RouteSpec>, library: &'a AgentLibrary) -> Self {
        PlanMemo {
            library,
            costs: ServiceCosts::new(routes, library),
            plans: BTreeMap::new(),
        }
    }

    /// Draws one request's shape from its job stream `rng` (the same
    /// draws [`fleet_job`] makes) and returns its compiled graph and
    /// idle-system service estimate.
    ///
    /// # Errors
    ///
    /// Propagates decomposition, expansion and compilation errors of a
    /// key's first request, and [`SimError::InvalidState`] if a video
    /// plan does not carry one extraction and one transcription task
    /// per scene.
    fn plan(
        &mut self,
        archetype: Archetype,
        tenant: &str,
        rng: &mut SimRng,
    ) -> Result<(Arc<CompiledGraph>, f64), SimError> {
        let shape = JobShape::draw(archetype, rng);
        let key = shape.key();
        if !self.plans.get(tenant).is_some_and(|m| m.contains_key(&key)) {
            let plan = self.plan_shape(&shape, tenant)?;
            self.plans
                .entry(tenant.to_owned())
                .or_default()
                .insert(key, plan);
        }
        let plan = &self.plans[tenant][&key];
        let JobShape::Video(scenes) = &shape else {
            return Ok((Arc::clone(&plan.graph), plan.est_service_s));
        };
        let mut graph = CompiledGraph::clone(&plan.graph);
        let mut task_s = plan.task_s.clone();
        let (mut extract, mut speech) = (scenes.iter(), scenes.iter());
        for (i, latency) in task_s.iter_mut().enumerate() {
            let work = match graph.tasks()[i].capability {
                Capability::FrameExtraction => {
                    extract.next().map(|s| Work::VideoSeconds(s.duration_s))
                }
                Capability::SpeechToText => speech.next().map(|s| Work::AudioSeconds(s.audio_s)),
                _ => continue,
            };
            graph.set_work(i, work.ok_or_else(scene_mismatch)?);
            *latency = self.costs.latency(&graph.tasks()[i]);
        }
        if extract.next().is_some() || speech.next().is_some() {
            return Err(scene_mismatch());
        }
        let est_service_s = critical_path_s(&graph, &task_s)?;
        Ok((Arc::new(graph), est_service_s))
    }

    /// The full planning path for a key's first request.
    fn plan_shape(&self, shape: &JobShape, tenant: &str) -> Result<ShapePlan, SimError> {
        let (job, inputs) = shape.job(tenant);
        let (plan, _) = Planner.decompose(&job, self.library)?;
        let graph = CompiledGraph::from_graph(&expand(&plan, &inputs)?)?;
        let task_s = self.costs.latencies(&graph);
        Ok(ShapePlan {
            est_service_s: critical_path_s(&graph, &task_s)?,
            graph: Arc::new(graph),
            task_s,
        })
    }
}

fn scene_mismatch() -> SimError {
    SimError::InvalidState(
        "video plan does not carry one extraction and one transcription task per scene".into(),
    )
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
    /// Simulated events of the cell's engine: queue pops plus the
    /// decode iterations fast-forwarded inside one pop (the sim-speed
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
    /// Simulated events across all cell engines: queue pops plus the
    /// decode iterations fast-forwarded inside one pop (the sim-speed
    /// denominator; identical at every thread count).
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
/// the compiled graph is kept, shared with every other request of the
/// same shape (see [`PlanMemo`]).
pub(crate) struct PlannedRequest {
    pub(crate) req: RequestSpec,
    pub(crate) graph: Arc<CompiledGraph>,
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
/// admission queue's order) and running stats. A task's workflow is
/// the job index its engine admitted it under, so the cell keeps no
/// per-task state of its own.
pub(crate) struct Cell {
    pub(crate) engine: Engine,
    pub(crate) routes: BTreeMap<Capability, RouteSpec>,
    pub(crate) nodes: usize,
    pub(crate) queue: murakkab_traffic::PriorityFifo<usize>,
    inflight: Vec<InflightJob>,
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
        let graph = &planned[idx].graph;
        cell.engine.admit_graph_into(now, graph, idx)?;
        cell.inflight.push(InflightJob {
            planned_idx: idx,
            remaining: graph.len(),
        });
    }
    Ok(())
}

/// Drains the cell engine's finished-task metrics and completions
/// straight into its region's class aggregates and capture shard (if
/// capturing). `t` is the engine instant that produced them (the latency
/// clock for workflows completing now). A request's WAN charge
/// ([`PlannedRequest::wan_s`]) lands here: on its end-to-end latency,
/// its SLO verdict and its TTFT — the user-observed clocks — but not
/// TPOT (token cadence is generated server-side). The engine logs are
/// read in place and cleared, keeping their capacity; each entry's
/// workflow is its task's [`Engine::task_job`], read before the next
/// admission can retire the task.
fn harvest_cell(
    cell: &mut Cell,
    classes: &mut [ClassAgg],
    capture: &mut Option<CaptureShard>,
    planned: &[PlannedRequest],
    t: SimTime,
) {
    let Cell {
        engine,
        inflight,
        completed,
        ..
    } = cell;
    for &(tid, ttft, tpot, first_abs) in engine.llm_metrics() {
        let idx = engine.task_job(tid);
        let p = &planned[idx];
        classes[p.class_idx].ttfts.push(ttft + p.wan_s);
        classes[p.class_idx].tpots.push(tpot);
        if let Some(o) = capture.as_mut().and_then(|c| c.outcomes[idx].as_mut()) {
            // Earliest first token across the workflow's endpoint tasks.
            o.first_token_s = Some(o.first_token_s.map_or(first_abs, |v| v.min(first_abs)));
        }
    }
    engine.clear_llm_metrics();
    for &tid in engine.completions() {
        let idx = engine.task_job(tid);
        let Some(k) = inflight.iter().position(|j| j.planned_idx == idx) else {
            continue;
        };
        inflight[k].remaining -= 1;
        if inflight[k].remaining > 0 {
            continue;
        }
        inflight.swap_remove(k);
        *completed += 1;
        let p = &planned[idx];
        let latency = t.saturating_duration_since(p.req.at).as_secs_f64() + p.wan_s;
        let met = p.req.class.met_by(latency);
        let agg = &mut classes[p.class_idx];
        agg.completed += 1;
        agg.slo_met += u64::from(met);
        agg.latencies.push(latency);
        if let Some(o) = capture.as_mut().and_then(|c| c.outcomes[idx].as_mut()) {
            o.completed_s = Some(t.as_secs_f64());
            o.slo_met = Some(met);
        }
    }
    engine.clear_completions();
}

/// Steps every cell of `region` to the epoch boundary, one after
/// another in cell-index order: inject queued work into free slots and
/// drain engine events up to `bound`, stopping at every task completion
/// so injection re-runs at that instant and the harvest lands in the
/// region's aggregates.
fn advance_cells(
    region: &mut Region,
    planned: &[PlannedRequest],
    per_cell_inflight: usize,
    start: SimTime,
    bound: SimTime,
    inclusive: bool,
) -> Result<(), SimError> {
    let Region {
        cells,
        classes,
        capture,
        ..
    } = region;
    for cell in cells.iter_mut() {
        let mut now = start;
        loop {
            inject_ready(cell, planned, per_cell_inflight, now)?;
            match cell.engine.step_while(bound, inclusive)? {
                Some(t) => {
                    harvest_cell(cell, classes, capture, planned, t);
                    now = t;
                }
                None => break,
            }
        }
    }
    Ok(())
}

/// One admission domain: its engine cells, its admission controller,
/// its per-class aggregates, its capture shard and the arrivals routed
/// to it for the current epoch. The single-region fleet is one region;
/// the geo layer runs one per federated region. A region touches only
/// its own state between epochs, which is what lets [`advance_regions`]
/// step several on worker threads.
pub(crate) struct Region {
    pub(crate) cells: Vec<Cell>,
    pub(crate) ctrl: AdmissionController,
    pub(crate) classes: Vec<ClassAgg>,
    next_seq: u64,
    pub(crate) steals: u64,
    /// This epoch's arrivals, `(instant, planned index)` in arrival
    /// order; drained by [`advance_region`], capacity kept.
    pub(crate) arrivals: Vec<(SimTime, usize)>,
    /// What this region routes and steals, recorded only when the run
    /// is captured.
    pub(crate) capture: Option<CaptureShard>,
    /// [`region_tick`]'s rebalancer views, refilled per cell.
    views: Vec<EndpointView>,
}

impl Region {
    /// A region over freshly built cells with an empty admission record.
    pub(crate) fn new(
        cells: Vec<Cell>,
        admission: &AdmissionConfig,
        classes: Vec<ClassAgg>,
        capture: Option<CaptureShard>,
    ) -> Result<Self, SimError> {
        Ok(Region {
            cells,
            ctrl: AdmissionController::new(admission.clone())?,
            classes,
            next_seq: 0,
            steals: 0,
            arrivals: Vec::new(),
            capture,
            views: Vec::new(),
        })
    }
}

/// The run-constant routing knobs every region step reads.
pub(crate) struct StepCtx {
    /// Execution slots per cell before admitted work queues.
    pub(crate) per_cell_inflight: usize,
    pub(crate) router: CellPolicy,
    /// Distinct scheduling priorities, highest first — the SLO-affine
    /// stripe table.
    pub(crate) priority_ranks: Vec<u8>,
    pub(crate) steal_margin: usize,
}

/// Advances one region from `start` to `bound`: interleaves its
/// buffered arrivals with its cells' engine events (events at an
/// arrival's instant beat the arrival, so every cell steps to it
/// inclusively before it routes), then steps the cells to `bound`
/// itself. Region-local only (capture included) — safe to run on a
/// worker thread.
pub(crate) fn advance_region(
    region: &mut Region,
    planned: &[PlannedRequest],
    ctx: &StepCtx,
    start: SimTime,
    bound: SimTime,
    inclusive: bool,
) -> Result<(), SimError> {
    let inflight = ctx.per_cell_inflight;
    let mut now = start;
    let arrivals = std::mem::take(&mut region.arrivals);
    for &(at, idx) in &arrivals {
        advance_cells(region, planned, inflight, now, at, true)?;
        process_arrival(region, planned, ctx, at, idx);
        now = at;
    }
    // Hand the (now empty) buffer back so the next epoch reuses its
    // capacity.
    region.arrivals = arrivals;
    region.arrivals.clear();
    advance_cells(region, planned, inflight, now, bound, inclusive)
}

/// Steps every region to the inclusive sync-epoch boundary `bound` —
/// concurrently on `threads` scoped workers when more than one region
/// has work, first chunk on the caller's thread. Regions are
/// independent inside an epoch (their arrivals and WAN charges were
/// fixed at the boundary), so the outcome is identical at every thread
/// count; errors resolve in region-index order.
pub(crate) fn advance_regions(
    regions: &mut [Region],
    planned: &[PlannedRequest],
    ctx: &StepCtx,
    threads: usize,
    start: SimTime,
    bound: SimTime,
) -> Result<(), SimError> {
    let run_slice = |slice: &mut [Region]| {
        for region in slice.iter_mut() {
            advance_region(region, planned, ctx, start, bound, true)?;
        }
        Ok::<(), SimError>(())
    };
    let busy = regions
        .iter()
        .filter(|r| {
            !r.arrivals.is_empty() || r.cells.iter().any(|c| c.engine.peek_time().is_some())
        })
        .count();
    if threads <= 1 || busy <= 1 {
        return run_slice(regions);
    }
    let chunk = regions.len().div_ceil(threads);
    std::thread::scope(|s| {
        let mut chunks = regions.chunks_mut(chunk);
        let first = chunks.next().expect("at least one region");
        let handles: Vec<_> = chunks
            .map(|slice| s.spawn(move || run_slice(slice)))
            .collect();
        run_slice(first)?;
        for h in handles {
            match h.join() {
                Ok(r) => r?,
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        Ok(())
    })
}

/// Routes and admission-gates the arrival at `planned[arr_idx]`: the
/// admission decision at the arrival instant runs against the routed
/// cell's backlog, and an admitted workflow joins that cell's queue.
/// Always sequential within a region — routing reads every cell's
/// backlog.
fn process_arrival(
    region: &mut Region,
    planned: &[PlannedRequest],
    ctx: &StepCtx,
    at: SimTime,
    arr_idx: usize,
) {
    let p = &planned[arr_idx];
    let cells = &mut region.cells;
    let cell_idx = route_cell(
        ctx.router,
        cells,
        p.req.id,
        p.req.class.priority,
        &ctx.priority_ranks,
    );
    let decision = region.ctrl.gate(
        at,
        p.req.class.deadline_s,
        p.est_service_s,
        cells[cell_idx].backlog(),
        cells[cell_idx].queue.len(),
    );
    let admitted = decision == murakkab_traffic::AdmissionDecision::Admitted;
    if let Some(cap) = &mut region.capture {
        cap.outcomes[arr_idx] = Some(RequestOutcome {
            verdict: decision,
            region: Some(cap.region),
            cell: admitted.then_some(cell_idx),
            first_token_s: None,
            completed_s: None,
            slo_met: None,
        });
    }
    if admitted {
        region.classes[p.class_idx].admitted += 1;
        let cell = &mut cells[cell_idx];
        cell.queue
            .push(p.req.class.priority, region.next_seq, arr_idx);
        region.next_seq += 1;
        cell.assigned += 1;
        cell.note_backlog();
    }
}

/// Steps the one engine event that crosses a telemetry tick on cell
/// `i` and harvests it into the region. Returns the event instant (the
/// new global now).
fn step_trigger(
    region: &mut Region,
    i: usize,
    planned: &[PlannedRequest],
) -> Result<SimTime, SimError> {
    let cell = &mut region.cells[i];
    let t = cell.engine.step()?.expect("peeked event exists");
    harvest_cell(cell, &mut region.classes, &mut region.capture, planned, t);
    Ok(t)
}

/// The planned request stream both serve loops start from.
pub(crate) struct ServeSetup<T> {
    /// What the caller built from the shared route-selection inputs
    /// (the fleet's cells, the geo layer's regions).
    pub(crate) built: T,
    pub(crate) planned: Vec<PlannedRequest>,
    /// One interned aggregate per SLO class, with `offered` counted.
    pub(crate) classes: Vec<ClassAgg>,
    /// Distinct scheduling priorities, highest first.
    pub(crate) priority_ranks: Vec<u8>,
}

impl Runtime {
    /// Serves an open-loop scenario on one region: generates arrivals
    /// from its process, gates them through the admission controller,
    /// routes admitted workflows to one of its `shards` engine cells,
    /// injects them mid-flight and measures per-class latency
    /// percentiles and SLO attainment. Every `rebalance_every_s` the
    /// region ticks ([`region_tick`]): the advisory rebalancer counts
    /// its recommendations and hot cells shed queued-but-unstarted
    /// workflows to cold ones.
    ///
    /// When `capture` is set, the region records every arrival's
    /// admission verdict, cell assignment, first-token/completion
    /// instants and every inter-cell steal, returned as the run's
    /// [`RunCapture`]. Recording is observation only — a captured run
    /// produces a report bit-identical to the uncaptured run of the
    /// same scenario.
    ///
    /// Deterministic: the same runtime seed and scenario (including the
    /// shard count and router policy) produce a bit-identical
    /// [`FleetReport`]; `threads` does not apply, since cells step
    /// inline. The scenario is validated by the caller.
    ///
    /// # Errors
    ///
    /// Propagates planning, placement and execution errors, rejects more
    /// shards than cluster nodes, and fails on a stalled serve loop (a
    /// scheduling bug).
    pub(crate) fn serve(
        &self,
        scenario: &Scenario,
        capture: bool,
    ) -> Result<(FleetReport, Option<RunCapture>), SimError> {
        let (spec, _, _) = scenario.open_loop_parts()?;
        // Partition the cluster into cells, each with its own
        // resource-aware route selection (against the cell's capacity,
        // not the fleet's) and its own long-running engine. No
        // per-request orchestration charge (§3.3 puts it under 1% of
        // workflow time; closed-loop runs measure it).
        let setup = self.serve_setup(scenario, |prep| {
            let clusters = self.build_cluster()?.partition(spec.shards)?;
            let cells = self.build_cells(clusters, prep, &mut BTreeMap::new())?;
            let est_routes = cells[0].routes.clone();
            Ok((cells, est_routes))
        })?;
        let planned = setup.planned;
        let shard = capture.then(|| CaptureShard::new(0, planned.len()));
        let mut region = Region::new(setup.built, &spec.admission, setup.classes, shard)?;
        let ctx = StepCtx {
            per_cell_inflight: spec.max_inflight.max(1).div_ceil(spec.shards),
            router: spec.router,
            priority_ranks: setup.priority_ranks,
            steal_margin: spec.steal_margin,
        };
        let rebalance_every = SimDuration::from_secs_f64(spec.rebalance_every_s.max(1.0));
        let mut next_rebalance = SimTime::ZERO + rebalance_every;
        let mut now = SimTime::ZERO;
        let mut arr_idx = 0usize;
        loop {
            // The epoch ends at the telemetry tick: every arrival
            // strictly before it joins the region's buffer, and the
            // region steps to just before the tick.
            while let Some(p) = planned.get(arr_idx).filter(|p| p.req.at < next_rebalance) {
                region.arrivals.push((p.req.at, arr_idx));
                arr_idx += 1;
            }
            advance_region(&mut region, &planned, &ctx, now, next_rebalance, false)?;

            // Then exactly the one merged-stream item that crosses the
            // tick is processed (earliest first; engine events beat
            // simultaneous arrivals; cross-cell ties go to the lowest
            // cell index) — the region tick fires after that item, not
            // at the tick instant.
            let next_arr = planned.get(arr_idx).map(|p| p.req.at);
            let next_event = region
                .cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.engine.peek_time().map(|t| (t, i)))
                .min();
            match (next_arr, next_event) {
                (None, None) => {
                    if !region.cells.iter().any(Cell::has_work) {
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
                    now = step_trigger(&mut region, i, &planned)?;
                }
                (Some(at), _) => {
                    now = at;
                    process_arrival(&mut region, &planned, &ctx, at, arr_idx);
                    arr_idx += 1;
                }
                (None, Some((_, i))) => {
                    now = step_trigger(&mut region, i, &planned)?;
                }
            }

            while now >= next_rebalance {
                region_tick(&mut region, &planned, &ctx, now);
                next_rebalance += rebalance_every;
            }
        }

        // Per-cell settlement, then fleet-level report assembly — both
        // shared with the geo layer's per-region reports.
        let Region {
            cells,
            ctrl,
            classes,
            steals,
            capture,
            ..
        } = region;
        let mut makespan = SimTime::ZERO;
        let mut finished = settle_cells(cells, &mut makespan)?;
        settle_util(&mut finished, makespan)?;
        let params = ReportParams::new(
            scenario,
            scenario.label.clone(),
            spec.shards,
            planned.len() as u64,
            ctrl.stats(),
            steals,
        )?;
        let capture = capture.map(|shard| crate::capture::settle(&planned, vec![shard]));
        Ok((
            assemble_fleet_report(params, classes, &finished, makespan),
            capture,
        ))
    }

    /// The setup both serve loops share: generates the request stream,
    /// runs [`serve_prep`](Self::serve_prep), hands the prep to `build`
    /// (which returns its cells plus its first cell's routes), plans
    /// every request against those routes and builds the priority
    /// table. The admission estimate uses the first cell's routes: equal
    /// node slices select identical routes, and the estimate is a
    /// front-door heuristic either way.
    ///
    /// Every request is planned up front (decomposition is input-size
    /// independent, so this is equivalent to planning on arrival and
    /// keeps the serve loop allocation-free), each distinct request
    /// shape once ([`PlanMemo`]), with each SLO class
    /// interned into one dense table so requests carry an index instead
    /// of a name. Report order is fixed by the final (priority, name)
    /// sort, so first-seen insertion order is fine.
    pub(crate) fn serve_setup<T>(
        &self,
        scenario: &Scenario,
        build: impl FnOnce(&RoutePrep) -> Result<(T, BTreeMap<Capability, RouteSpec>), SimError>,
    ) -> Result<ServeSetup<T>, SimError> {
        let (spec, process, tenants) = scenario.open_loop_parts()?;
        let fleet_rng = SimRng::new(self.seed()).fork("fleet");
        let requests = TrafficSpec {
            process: process.clone(),
            tenants: tenants.to_vec(),
        }
        .requests(&fleet_rng, SimDuration::from_secs_f64(spec.horizon_s));
        // Fleet deployments are long-lived: capacity is laid out for the
        // tenant mix, not per request.
        let prep = self.serve_prep(scenario)?;
        let (built, est_routes) = build(&prep)?;

        let mut class_index: BTreeMap<String, usize> = BTreeMap::new();
        let mut classes: Vec<ClassAgg> = Vec::new();
        let mut planned = Vec::with_capacity(requests.len());
        let mut memo = PlanMemo::new(&est_routes, self.library());
        for req in requests {
            let mut job_rng = fleet_rng.fork(&format!("job-{}", req.id));
            let (graph, est_service_s) = memo.plan(req.archetype, &req.tenant, &mut job_rng)?;
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

        let mut priority_ranks: Vec<u8> = tenants.iter().map(|t| t.class.priority).collect();
        priority_ranks.sort_unstable_by(|a, b| b.cmp(a));
        priority_ranks.dedup();
        Ok(ServeSetup {
            built,
            planned,
            classes,
            priority_ranks,
        })
    }

    /// Route-selection inputs shared by every cell — and, under geo
    /// federation, by every region — and checked by the preflight
    /// analyzer: the canonical job of every archetype the tenant set can
    /// emit, folded under the scenario's run options.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] when the scenario is not open-loop
    /// traffic or its tenants emit no archetype, and any decomposition
    /// error of a canonical job.
    pub(crate) fn serve_prep(&self, scenario: &Scenario) -> Result<RoutePrep, SimError> {
        let (_, _, tenants) = scenario.open_loop_parts()?;
        let jobs: Vec<Job> = Archetype::ALL
            .into_iter()
            .filter(|a| {
                tenants
                    .iter()
                    .any(|t| t.mix.weights().iter().any(|&(m, w)| m == *a && w > 0.0))
            })
            .map(canonical_job)
            .collect();
        if jobs.is_empty() {
            return Err(SimError::InvalidInput("fleet tenant set is empty".into()));
        }
        let plans = jobs
            .iter()
            .map(|job| Ok(Planner.decompose(job, self.library())?.0))
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(RoutePrep::new(
            jobs.iter().zip(&plans),
            scenario.run_options(),
        ))
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
        prep: &RoutePrep,
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
                    } = self.select_routes(prep, &mut stats)?;
                    routes_by_nodes.insert(nodes, routes.clone());
                    routes
                }
            };
            // Serve reports never render the span trace or whole-run
            // utilization curves: skipping the spans removes a String
            // clone per completed task from the loop, and the curves
            // would grow with the run.
            let mut engine_opts = self.engine_options(&prep.run_opts);
            engine_opts.timeline = false;
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
}

/// The region's periodic tick, the one both serve loops run: the
/// single-region fleet every `rebalance_every_s`, the geo layer per
/// region at each sync epoch. The advisory [`Rebalancer`] plans per cell
/// against live backlog telemetry and its recommendations are counted,
/// not applied; resident views cover every capability an endpoint serves
/// plus the live tool pools, so Prewarm hints fire only for genuinely
/// unserved demand (e.g. a pool scaled down during a lull). Then
/// [`steal_pass`] migrates queued work.
pub(crate) fn region_tick(
    region: &mut Region,
    planned: &[PlannedRequest],
    ctx: &StepCtx,
    now: SimTime,
) {
    let rebalancer = Rebalancer::default();
    for cell in &mut region.cells {
        let (gpus_free, upcoming) = cell.engine.rebalance_inputs(&mut region.views);
        cell.rebalance_actions += rebalancer.plan(gpus_free, upcoming, &region.views).len() as u64;
    }
    steal_pass(region, planned, ctx, now);
}

/// The migration pass closing [`region_tick`]: hot cells shed
/// queued-but-unstarted workflows to cold ones until no eligible gap
/// exceeds the steal margin. The shed item is the hot cell's
/// *last-to-run* queued workflow (lowest priority, youngest) — it
/// gains the most from a colder queue and its class loses nothing.
/// Under the SLO-affine router the cold-cell choice is confined to the
/// item's priority stripe, so stealing never mixes interactive and
/// batch traffic; a hot cell whose stripe is already balanced is
/// skipped so other stripes still drain. Every move re-scores, so the
/// pass converges (each steal shrinks some gap by two).
fn steal_pass(region: &mut Region, planned: &[PlannedRequest], ctx: &StepCtx, now: SimTime) {
    let cells = &mut region.cells;
    'pass: loop {
        // Hot candidates in descending backlog order, ties to the
        // lowest index, each found by a scan for the next key after the
        // last one tried; take the first that can shed, then re-score.
        let mut tried: Option<(std::cmp::Reverse<usize>, usize)> = None;
        while let Some(key) = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.queue.is_empty())
            .map(|(i, c)| (std::cmp::Reverse(c.backlog()), i))
            .filter(|&k| tried.is_none_or(|t| k > t))
            .min()
        {
            tried = Some(key);
            let hot = key.1;
            let priority = cells[hot]
                .queue
                .last_priority()
                .expect("hot cell has queued work");
            let eligible = match ctx.router {
                CellPolicy::SloAffine => stripe_range(priority, &ctx.priority_ranks, cells.len()),
                _ => 0..cells.len(),
            };
            let cold = least_loaded(cells, eligible);
            if hot == cold || cells[hot].backlog() < cells[cold].backlog() + ctx.steal_margin.max(1)
            {
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
            region.steals += 1;
            if let Some(cap) = &mut region.capture {
                cap.steals.push(StealRecord {
                    at_s: now.as_secs_f64(),
                    request_id: planned[idx].req.id,
                    region: Some(cap.region),
                    from_cell: hot,
                    to_cell: cold,
                });
            }
            continue 'pass;
        }
        return;
    }
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
    /// Average `(GPU, CPU)` utilization in percent over the report
    /// window, sampled once per simulated second; zero until
    /// [`settle_util`] sets it.
    pub(crate) util_pct: (f64, f64),
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
            util_pct: (0.0, 0.0),
        });
    }
    Ok(finished)
}

/// Samples every settled cell's utilization over `[0, makespan]` — the
/// *fleet* window, so idle tails count against a cell. Geo calls this
/// once per cell with the global makespan, and the region and global
/// reports both read the result.
pub(crate) fn settle_util(finished: &mut [CellDone], makespan: SimTime) -> Result<(), SimError> {
    for done in finished {
        let cluster = &done.outcome.cluster;
        done.util_pct = (
            cluster.average_util(DeviceKind::Gpu, makespan)?,
            cluster.average_util(DeviceKind::CpuPool, makespan)?,
        );
    }
    Ok(())
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

impl ReportParams {
    /// The report identity of an open-loop scenario's run over `shards`
    /// settled cells; the label and counts are the caller's (a geo
    /// region's or the whole run's).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] when the scenario is not open-loop
    /// traffic.
    pub(crate) fn new(
        scenario: &Scenario,
        label: String,
        shards: usize,
        offered: u64,
        admission: murakkab_traffic::AdmissionStats,
        steals: u64,
    ) -> Result<Self, SimError> {
        let (spec, process, _) = scenario.open_loop_parts()?;
        Ok(ReportParams {
            label,
            seed: scenario.seed,
            shards,
            router: spec.router.tag().into(),
            serving: scenario.serving.tag().into(),
            arrival_process: process.kind().into(),
            offered_rate_per_s: process.mean_rate_per_s(),
            horizon_s: spec.horizon_s,
            admission_enabled: spec.admission.enabled,
            offered,
            admission,
            steals,
        })
    }
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
/// aggregates. Each cell's utilization (from [`settle_util`], over the
/// window ending at `makespan`) is capacity-weighted into the fleet
/// aggregate — under geo, passing one region's cells yields that
/// region's report and passing every region's cells yields the global
/// one, with identical weighting rules.
pub(crate) fn assemble_fleet_report(
    params: ReportParams,
    classes: Vec<ClassAgg>,
    finished: &[CellDone],
    makespan: SimTime,
) -> FleetReport {
    let makespan_s = makespan.as_secs_f64();
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
        let (gpu, cpu) = done.util_pct;
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

/// The admission estimate's cost model: each routed capability's agent
/// and hardware target, resolved once per run instead of once per task.
pub(crate) struct ServiceCosts<'a> {
    by_cap: [Option<(&'a AgentSpec, HardwareTarget)>; N_CAPS],
}

impl<'a> ServiceCosts<'a> {
    /// Resolves every route in `routes` against `library`.
    pub(crate) fn new(routes: &BTreeMap<Capability, RouteSpec>, library: &'a AgentLibrary) -> Self {
        let mut by_cap = [None; N_CAPS];
        for (&cap, route) in routes {
            let target = match route {
                RouteSpec::Pool { workers, .. } => workers
                    .first()
                    .copied()
                    .unwrap_or(HardwareTarget::cpu_cores(1)),
                RouteSpec::Endpoint { backend, .. } => HardwareTarget::gpus(backend.gpus_total()),
                RouteSpec::External { .. } => HardwareTarget::cpu_cores(1),
            };
            by_cap[cap as usize] = library.get(route.agent()).ok().map(|spec| (spec, target));
        }
        ServiceCosts { by_cap }
    }

    /// Idle-system latency of one task: 5 s when its capability is
    /// unrouted or its agent cannot cost the work.
    fn latency(&self, task: &CompiledTask) -> SimDuration {
        self.by_cap[task.capability as usize]
            .and_then(|(spec, target)| spec.estimate_latency(&task.work, &target).ok())
            .unwrap_or_else(|| SimDuration::from_secs(5))
    }

    /// Every task's idle-system latency, in local-index order.
    fn latencies(&self, graph: &CompiledGraph) -> Vec<SimDuration> {
        graph.tasks().iter().map(|t| self.latency(t)).collect()
    }
}

/// Idle-system critical-path service estimate for a workflow under the
/// fleet's routes (the admission controller's feasibility input).
///
/// # Errors
///
/// [`SimError::InvalidState`] if the graph has a cycle.
pub(crate) fn estimate_service_s(
    graph: &CompiledGraph,
    costs: &ServiceCosts,
) -> Result<f64, SimError> {
    critical_path_s(graph, &costs.latencies(graph))
}

/// The latest finish over `graph` when task `i` takes `task_s[i]` and
/// starts once all its predecessors finish: one Kahn pass over the
/// compiled indegrees and successors. Durations are integer µs, so the
/// result does not depend on the visit order.
fn critical_path_s(graph: &CompiledGraph, task_s: &[SimDuration]) -> Result<f64, SimError> {
    let mut indegree: Vec<u32> = graph.tasks().iter().map(|t| t.indegree).collect();
    let mut start = vec![SimDuration::ZERO; graph.len()];
    let mut ready: Vec<usize> = (0..graph.len()).filter(|&i| indegree[i] == 0).collect();
    let (mut visited, mut best) = (0, SimDuration::ZERO);
    while let Some(i) = ready.pop() {
        visited += 1;
        let finish = start[i] + task_s[i];
        best = best.max(finish);
        for &s in graph.successors(i) {
            let s = s as usize;
            start[s] = start[s].max(finish);
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    if visited != graph.len() {
        return Err(SimError::InvalidState("task graph has a cycle".into()));
    }
    Ok(best.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ExecutionMode, Session};
    use murakkab_traffic::ArrivalProcess;
    use proptest::prelude::*;

    fn tenant(name: &str, mix: Vec<(Archetype, f64)>) -> TenantProfile {
        TenantProfile {
            name: name.into(),
            mix: JobMix::new(mix),
            class: SloClass::standard(),
            weight: 1.0,
        }
    }

    /// The stock tenants plus tenants named with decomposer keywords, a
    /// video-only tenant, and one whose name turns its newsfeed into a
    /// video plan that cannot expand.
    fn memo_tenants() -> Vec<TenantProfile> {
        let mut tenants = default_tenants();
        tenants.extend([
            tenant(
                "video-feeds",
                vec![
                    (Archetype::Newsfeed, 0.5),
                    (Archetype::VideoUnderstanding, 0.5),
                ],
            ),
            tenant(
                "solve-team",
                vec![
                    (Archetype::Newsfeed, 0.4),
                    (Archetype::ChainOfThought, 0.3),
                    (Archetype::DocQa, 0.3),
                ],
            ),
            tenant("clips", vec![(Archetype::VideoUnderstanding, 1.0)]),
            tenant("video-scene-desk", vec![(Archetype::Newsfeed, 1.0)]),
        ]);
        tenants
    }

    /// A session over [`memo_tenants`] and its first cell's routes.
    fn memo_setup() -> (Session, BTreeMap<Capability, RouteSpec>) {
        let scenario =
            Scenario::open_loop("memo", ArrivalProcess::Poisson { rate_per_s: 0.1 }, 100.0)
                .tenants(memo_tenants());
        let session = Session::new(&scenario).expect("valid scenario");
        let rt = session.runtime();
        let prep = rt.serve_prep(&scenario).expect("prepares");
        let clusters = rt
            .build_cluster()
            .and_then(|cm| cm.partition(1))
            .expect("one cell");
        let cells = rt
            .build_cells(clusters, &prep, &mut BTreeMap::new())
            .expect("builds");
        let routes = cells[0].routes.clone();
        (session, routes)
    }

    /// The unmemoized planning path: decompose, expand, a critical path
    /// over the `TaskGraph` resolving every task's agent and target, then
    /// compile. The reference the memo must reproduce bit for bit.
    fn fresh_plan(
        archetype: Archetype,
        tenant: &str,
        rng: &mut SimRng,
        routes: &BTreeMap<Capability, RouteSpec>,
        library: &AgentLibrary,
    ) -> Result<(CompiledGraph, f64), SimError> {
        let (job, inputs) = fleet_job(archetype, tenant, rng);
        let (plan, _) = Planner.decompose(&job, library)?;
        let graph = expand(&plan, &inputs)?;
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
        Ok((CompiledGraph::from_graph(&graph)?, cp.as_secs_f64()))
    }

    /// Every task's capability, work (floats as bits), indegree and
    /// successors.
    fn graph_bits(g: &CompiledGraph) -> Vec<(Capability, [u64; 3], u32, Vec<u32>)> {
        (0..g.len())
            .map(|i| {
                let t = g.tasks()[i];
                let work = match t.work {
                    Work::VideoSeconds(s) => [0, s.to_bits(), 0],
                    Work::AudioSeconds(s) => [1, s.to_bits(), 0],
                    Work::Frames(n) => [2, n.into(), 0],
                    Work::Items(n) => [3, n.into(), 0],
                    Work::Tokens { prompt, output } => [4, prompt.into(), output.into()],
                };
                (t.capability, work, t.indegree, g.successors(i).to_vec())
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// One memo across hundreds of `job-{id}` streams of every
        /// tenant and archetype returns exactly what fresh planning
        /// does, failures included.
        #[test]
        fn memoized_plans_equal_fresh_planning(seed in any::<u64>()) {
            let (session, routes) = memo_setup();
            let library = session.runtime().library();
            let fleet_rng = SimRng::new(seed).fork("fleet");
            let mut memo = PlanMemo::new(&routes, library);
            let (mut planned, mut failed) = (0, 0);
            for id in 0..200 {
                let label = format!("job-{id}");
                for t in memo_tenants() {
                    for &(arch, _) in t.mix.weights() {
                        let memoized = memo.plan(arch, &t.name, &mut fleet_rng.fork(&label));
                        let fresh =
                            fresh_plan(arch, &t.name, &mut fleet_rng.fork(&label), &routes, library);
                        match (memoized, fresh) {
                            (Ok((graph, est)), Ok((fresh_graph, fresh_est))) => {
                                prop_assert_eq!(graph_bits(&graph), graph_bits(&fresh_graph));
                                prop_assert_eq!(est.to_bits(), fresh_est.to_bits());
                                planned += 1;
                            }
                            (Err(e), Err(fresh_e)) => {
                                prop_assert_eq!(e.to_string(), fresh_e.to_string());
                                failed += 1;
                            }
                            (m, f) => panic!("{label} {}/{arch:?}: memo {m:?} vs fresh {f:?}", t.name),
                        }
                    }
                }
            }
            prop_assert_eq!(failed, 200, "every video-scene-desk newsfeed fails");
            prop_assert!(planned > 2_000);
        }
    }

    #[test]
    fn video_requests_of_one_shape_keep_their_own_durations() {
        let (session, routes) = memo_setup();
        let library = session.runtime().library();
        let fleet_rng = SimRng::new(42).fork("fleet");
        let mut memo = PlanMemo::new(&routes, library);
        let mut by_scenes: BTreeMap<usize, Vec<CompiledGraph>> = BTreeMap::new();
        for id in 0..16 {
            let label = format!("job-{id}");
            let (graph, est) = memo
                .plan(
                    Archetype::VideoUnderstanding,
                    "clips",
                    &mut fleet_rng.fork(&label),
                )
                .expect("plans");
            let (fresh, fresh_est) = fresh_plan(
                Archetype::VideoUnderstanding,
                "clips",
                &mut fleet_rng.fork(&label),
                &routes,
                library,
            )
            .expect("plans");
            assert_eq!(graph_bits(&graph), graph_bits(&fresh), "{label}");
            assert_eq!(est.to_bits(), fresh_est.to_bits(), "{label}");
            let scenes = graph
                .tasks()
                .iter()
                .filter(|t| t.capability == Capability::SpeechToText)
                .count();
            by_scenes.entry(scenes).or_default().push(fresh);
        }
        for scenes in [1, 2] {
            let graphs = &by_scenes[&scenes];
            assert!(graphs.len() >= 2, "two {scenes}-scene requests");
            let audio = |g: &CompiledGraph| -> Vec<u64> {
                g.tasks()
                    .iter()
                    .filter_map(|t| match t.work {
                        Work::AudioSeconds(s) => Some(s.to_bits()),
                        _ => None,
                    })
                    .collect()
            };
            assert_ne!(audio(&graphs[0]), audio(&graphs[1]), "audio draws differ");
        }
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
        let report =
            Scenario::open_loop("smoke", ArrivalProcess::Poisson { rate_per_s: 0.04 }, 250.0)
                .run()
                .expect("serves")
                .into_open_loop()
                .expect("open-loop report");
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
        let base = |horizon_s: f64| {
            Scenario::open_loop(
                "bad",
                ArrivalProcess::Poisson { rate_per_s: 0.1 },
                horizon_s,
            )
        };
        let mut slow_rebalance = base(100.0);
        if let ExecutionMode::OpenLoop(spec) = &mut slow_rebalance.mode {
            spec.rebalance_every_s = 0.0;
        }
        let cases = [
            base(f64::NAN),
            base(-5.0),
            slow_rebalance,
            base(100.0).parallelism(0),
            base(100.0).max_inflight(0),
            base(100.0).shards(0),
            base(100.0).threads(0),
        ];
        for scenario in cases {
            assert!(
                matches!(scenario.run(), Err(SimError::InvalidInput(_))),
                "degenerate open-loop scenarios must be rejected"
            );
        }
    }
}
