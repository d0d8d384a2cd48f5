//! The declarative front door: a [`Scenario`] spec executed by a
//! [`Session`].
//!
//! Murakkab's pitch is declarative: users state *what* should run and
//! under which constraints, and the runtime decides how to decompose,
//! place and serve it. A [`Scenario`] is that statement as one typed,
//! serde-round-trippable value — it names a workload source (a
//! [`WorkloadCatalog`] entry, an explicit job list, a multi-tenant mix,
//! or a `murakkab_traffic` arrival process), an execution mode
//! ([`ExecutionMode::ClosedLoop`] run-to-completion vs
//! [`ExecutionMode::OpenLoop`] serving with admission, shards and a
//! cell-routing policy), and the shared knobs (seed, cluster shape,
//! extra constraints, serving backend, preemption schedule). Every mode
//! funnels through one shared plan → expand → select → engine pipeline
//! inside [`Session::execute`], which returns a unified [`Report`].
//!
//! Because a scenario is plain data, it can be captured to JSON and
//! replayed bit-identically later (`scenarios/` holds checked-in
//! examples; `examples/scenario_replay.rs` executes them):
//!
//! ```no_run
//! use murakkab::scenario::{Scenario, Session};
//!
//! // Closed loop: run the newsfeed workload from the catalog to
//! // completion on the two-VM paper testbed.
//! let scenario = Scenario::closed_loop("newsfeed-demo")
//!     .seed(7)
//!     .catalog_entry("newsfeed")
//!     .pin_paper_agents(false);
//! let report = Session::new(&scenario).unwrap().execute(&scenario).unwrap();
//! println!("{}", report.summary_line());
//!
//! // Open loop: serve Poisson traffic from the stock tenant set for
//! // 300 simulated seconds, sharded over two engine cells.
//! let fleet = Scenario::open_loop(
//!     "fleet-demo",
//!     murakkab_traffic::ArrivalProcess::Poisson { rate_per_s: 0.1 },
//!     300.0,
//! )
//! .shards(2);
//! let report = fleet.run().unwrap();
//! println!("{}", report.summary_line());
//!
//! // Capture and replay: the same JSON executes to the same report.
//! let json = fleet.to_json().unwrap();
//! let replayed = Scenario::from_json(&json).unwrap().run().unwrap();
//! assert_eq!(report.digest(), replayed.digest());
//! ```

use serde::{Deserialize, Serialize};

use murakkab_hardware::VmShape;
use murakkab_orchestrator::JobInputs;
use murakkab_sim::{SimError, SimRng};
use murakkab_traffic::{AdmissionConfig, ArrivalProcess, TenantProfile};
use murakkab_workflow::{Constraint, Job};

use crate::fleet::{default_tenants, fleet_job, CellPolicy, FleetClassReport, FleetReport};
use crate::report::RunReport;
use crate::runtime::{RunOptions, Runtime, SttChoice};
use crate::workloads::{WorkloadCatalog, WorkloadParams};
use murakkab_llmsim::ServingMode;

/// The cluster a scenario runs on: `nodes` VMs of one shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// VM shape every node is built from.
    pub shape: VmShape,
    /// Number of nodes.
    pub nodes: usize,
}

impl ClusterSpec {
    /// A cluster of `nodes` VMs of `shape`.
    pub fn new(shape: VmShape, nodes: usize) -> Self {
        ClusterSpec { shape, nodes }
    }

    /// The paper's testbed: two `Standard_ND96amsr_A100_v4` VMs.
    pub fn paper_testbed() -> Self {
        ClusterSpec::new(murakkab_hardware::catalog::nd96amsr_a100_v4(), 2)
    }
}

/// One scheduled spot preemption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preemption {
    /// Simulated instant the node dies, seconds.
    pub at_s: f64,
    /// Cluster node index.
    pub node: usize,
}

/// A reference to a [`WorkloadCatalog`] entry, with optional parameter
/// overrides (the entry's defaults apply where unset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogRef {
    /// Registered entry name (`"paper-video"`, `"newsfeed"`, …).
    pub entry: String,
    /// Size override (posts, reasoning paths, documents, …).
    pub size: Option<u32>,
    /// User/tenant handle override.
    pub user: Option<String>,
}

impl CatalogRef {
    /// A reference with the entry's default parameters.
    pub fn named(entry: &str) -> Self {
        CatalogRef {
            entry: entry.into(),
            size: None,
            user: None,
        }
    }

    /// Overrides the size parameter.
    #[must_use]
    pub fn sized(mut self, size: u32) -> Self {
        self.size = Some(size);
        self
    }
}

/// An explicit, fully specified job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The declarative job.
    pub job: Job,
    /// Concrete inputs it expands against.
    pub inputs: JobInputs,
}

/// Where a scenario's work comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// Named entries from the workload catalog. One entry runs solo;
    /// several run as concurrent tenants on the shared cluster.
    Catalog {
        /// The selected entries.
        entries: Vec<CatalogRef>,
    },
    /// Explicit jobs. One runs solo; several run as concurrent tenants.
    Jobs {
        /// The job list.
        jobs: Vec<JobSpec>,
    },
    /// `requests` request-scale jobs sampled from a weighted tenant mix
    /// (seeded), run concurrently to completion — the closed-loop
    /// multi-tenant batch.
    Mix {
        /// The weighted tenant set.
        tenants: Vec<TenantProfile>,
        /// How many jobs to sample.
        requests: u32,
    },
    /// An open-loop arrival process over a tenant set (requires
    /// [`ExecutionMode::OpenLoop`]).
    Traffic {
        /// When requests arrive.
        process: ArrivalProcess,
        /// Who sends them and what they ask for.
        tenants: Vec<TenantProfile>,
    },
}

/// Open-loop serving knobs (the front door and the fleet layout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopSpec {
    /// Arrival horizon in seconds (the run drains after the last
    /// arrival).
    pub horizon_s: f64,
    /// Admission-control configuration.
    pub admission: AdmissionConfig,
    /// Fleet-wide concurrent-workflow budget, split across cells.
    pub max_inflight: usize,
    /// Engine cells the cluster is partitioned into.
    pub shards: usize,
    /// How admitted workflows are assigned to cells.
    pub router: CellPolicy,
    /// Single-region cadence of the region tick (advisory rebalancer,
    /// then work stealing) in simulated seconds. A geo run ignores it:
    /// its regions tick at every `sync_epoch_s`.
    pub rebalance_every_s: f64,
    /// Backlog gap above which the migration pass steals queued work.
    pub steal_margin: usize,
    /// Region workers stepping a federated (`geo`) run's regions
    /// concurrently between sync epochs (`None` = 1, inline). Cells
    /// always step inline, so a single-region run ignores it. Reports
    /// are bit-identical at every thread count; absent in older
    /// scenario files.
    pub threads: Option<usize>,
}

impl OpenLoopSpec {
    /// The stock open-loop configuration over a given horizon.
    pub fn over_horizon(horizon_s: f64) -> Self {
        OpenLoopSpec {
            horizon_s,
            admission: AdmissionConfig::default(),
            max_inflight: 6,
            shards: 1,
            router: CellPolicy::default(),
            rebalance_every_s: 30.0,
            steal_margin: 2,
            threads: None,
        }
    }

    /// Validates the numeric fields (the same rules
    /// [`Scenario::validate`] applies to an open-loop mode).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        crate::analyze::first_error(&crate::analyze::open_loop_spec_diags(self, ""))
    }
}

/// How a scenario executes: run its workload to completion, or serve it
/// open-loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Run a fixed workload set to completion; the figure of merit is
    /// makespan, energy, cost and quality.
    ClosedLoop,
    /// Serve an arriving request stream; the figures of merit are
    /// latency percentiles, SLO attainment and goodput.
    OpenLoop(OpenLoopSpec),
}

/// How much weight [`Session::execute`] gives the static preflight
/// analysis (see [`mod@crate::analyze`]) before running a scenario.
///
/// Error-severity findings always abort execution — they are the same
/// rules [`Scenario::validate`] enforces. The mode controls what happens
/// with the *predictive* findings (warnings and infos).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PreflightMode {
    /// Validate only; ignore warnings (the historical behavior, and the
    /// default for scenarios that do not name a mode).
    #[default]
    Off,
    /// Print warnings and infos to stderr, then execute anyway.
    Warn,
    /// Refuse to execute a scenario with any warning-severity finding.
    Strict,
}

impl PreflightMode {
    fn as_str(&self) -> &'static str {
        match self {
            PreflightMode::Off => "Off",
            PreflightMode::Warn => "Warn",
            PreflightMode::Strict => "Strict",
        }
    }
}

// Hand-written (de)serialization so scenarios captured before the field
// existed still parse: an absent `preflight` key reads as `Off`.
impl serde::Serialize for PreflightMode {
    fn serialize(&self, s: &mut serde::Serializer<'_>) -> Result<(), serde::Error> {
        s.serialize_str(self.as_str())
    }
}

impl serde::Deserialize for PreflightMode {
    fn deserialize(d: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        const EXPECTED: &str = "\"Off\"/\"Warn\"/\"Strict\" for PreflightMode";
        let start = d.value_start();
        match &*d.str(EXPECTED)? {
            "Off" => Ok(PreflightMode::Off),
            "Warn" => Ok(PreflightMode::Warn),
            "Strict" => Ok(PreflightMode::Strict),
            _ => Err(d.error_at(start, &format!("expected {EXPECTED}"))),
        }
    }

    fn from_missing_field(_field: &str) -> Result<Self, serde::Error> {
        Ok(PreflightMode::Off)
    }
}

/// A declarative, serde-round-trippable description of one run: what to
/// execute, on which cluster, in which mode, under which knobs.
///
/// Build one with [`Scenario::closed_loop`] or [`Scenario::open_loop`],
/// adjust it builder-style, then execute it through a [`Session`] (or
/// the [`Scenario::run`] shorthand). See the [module docs](self) for a
/// worked example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Report label.
    pub label: String,
    /// Workload seed — the entire simulation is a pure function of it
    /// and the rest of this spec.
    pub seed: u64,
    /// The cluster to provision.
    pub cluster: ClusterSpec,
    /// What to run.
    pub workload: WorkloadSource,
    /// How to run it.
    pub mode: ExecutionMode,
    /// Extra selection constraints ANDed in after (below) the jobs' own.
    pub constraints: Vec<Constraint>,
    /// Speech-to-Text configuration override (closed loop).
    pub stt: SttChoice,
    /// Workflow-aware cluster management (pool release on DAG lookahead).
    pub workflow_aware: bool,
    /// Maximum per-stage worker fan-out.
    pub parallelism: u32,
    /// Pin the paper's agents for the §4 experiments (closed loop).
    pub pin_paper_agents: bool,
    /// Spot preemptions to inject (closed loop).
    pub preemptions: Vec<Preemption>,
    /// Serving regime LLM endpoints deploy under.
    pub serving: ServingMode,
    /// Weight [`Session::execute`] gives the static preflight analysis.
    pub preflight: PreflightMode,
    /// Multi-region federation (open loop only): geo-routed regional
    /// fleets joined by a WAN model, with optional elastic spot
    /// capacity. `None` — the default, and how every scenario captured
    /// before the field existed reads — serves the whole cluster as one
    /// region.
    pub geo: Option<murakkab_geo::GeoSpec>,
}

impl Scenario {
    /// A closed-loop scenario on the paper testbed, seeded with the
    /// experiment seed 42 and running the `paper-video` catalog entry —
    /// every field adjustable builder-style.
    pub fn closed_loop(label: &str) -> Self {
        Scenario {
            label: label.into(),
            seed: 42,
            cluster: ClusterSpec::paper_testbed(),
            workload: WorkloadSource::Catalog {
                entries: vec![CatalogRef::named("paper-video")],
            },
            mode: ExecutionMode::ClosedLoop,
            constraints: Vec::new(),
            stt: SttChoice::Auto,
            workflow_aware: true,
            parallelism: 16,
            pin_paper_agents: true,
            preemptions: Vec::new(),
            serving: ServingMode::Colocated,
            preflight: PreflightMode::Off,
            geo: None,
        }
    }

    /// An open-loop scenario on the paper testbed: the given arrival
    /// process over the stock three-tenant set, stock admission control,
    /// one engine cell.
    pub fn open_loop(label: &str, process: ArrivalProcess, horizon_s: f64) -> Self {
        Scenario {
            label: label.into(),
            seed: 42,
            cluster: ClusterSpec::paper_testbed(),
            workload: WorkloadSource::Traffic {
                process,
                tenants: default_tenants(),
            },
            mode: ExecutionMode::OpenLoop(OpenLoopSpec::over_horizon(horizon_s)),
            constraints: Vec::new(),
            stt: SttChoice::Auto,
            workflow_aware: true,
            parallelism: 8,
            pin_paper_agents: false,
            preemptions: Vec::new(),
            serving: ServingMode::Colocated,
            preflight: PreflightMode::Off,
            geo: None,
        }
    }

    /// Materializes a configuration-search winner as a runnable
    /// scenario: the [`LeverSettings`](murakkab_orchestrator::LeverSettings)
    /// a [`ConfigSearch`](murakkab_orchestrator::ConfigSearch) returned,
    /// emitted as the closed-loop scenario that executes them. The
    /// scenario is plain serde data, so `to_json` makes the winner a
    /// shippable artifact: commit it, diff it, re-run it.
    ///
    /// Lever mapping: `parallelism` drives the per-stage fan-out; the
    /// SpeechToText choice pins [`SttChoice::Gpu`]/[`SttChoice::Cpu`]
    /// by the winning target (absent → `Auto`); `paths` materializes
    /// through the `cot` catalog entry's size parameter (other entries
    /// have no path lever and ignore it); the remaining per-capability
    /// choices re-derive at run time from `constraints` — paper-agent
    /// pinning is disabled so free selection under the same constraint
    /// set reproduces them.
    pub fn from_lever_settings(
        label: &str,
        entry: CatalogRef,
        settings: &murakkab_orchestrator::LeverSettings,
        constraints: Vec<murakkab_workflow::Constraint>,
    ) -> Self {
        let stt = match settings
            .choices
            .get(&murakkab_agents::Capability::SpeechToText)
        {
            Some((_, target)) if target.needs_gpu() => SttChoice::Gpu,
            Some(_) => SttChoice::Cpu,
            None => SttChoice::Auto,
        };
        let entry = if entry.entry == "cot" && entry.size.is_none() && settings.paths > 1 {
            entry.sized(settings.paths)
        } else {
            entry
        };
        let mut scenario = Scenario::closed_loop(label)
            .stt(stt)
            .parallelism(settings.parallelism)
            .pin_paper_agents(false);
        scenario.workload = WorkloadSource::Catalog {
            entries: vec![entry],
        };
        scenario.constraints = constraints;
        scenario
    }

    /// Sets the label.
    #[must_use]
    pub fn labeled(mut self, label: &str) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster to `nodes` VMs of `shape`.
    #[must_use]
    pub fn cluster(mut self, shape: VmShape, nodes: usize) -> Self {
        self.cluster = ClusterSpec::new(shape, nodes);
        self
    }

    /// Replaces the workload source.
    #[must_use]
    pub fn workload(mut self, source: WorkloadSource) -> Self {
        self.workload = source;
        self
    }

    /// Selects a single catalog entry (default parameters).
    #[must_use]
    pub fn catalog_entry(self, name: &str) -> Self {
        self.catalog_entries(vec![CatalogRef::named(name)])
    }

    /// Selects several catalog entries (run as concurrent tenants).
    #[must_use]
    pub fn catalog_entries(mut self, entries: Vec<CatalogRef>) -> Self {
        self.workload = WorkloadSource::Catalog { entries };
        self
    }

    /// Supplies explicit jobs.
    #[must_use]
    pub fn jobs(mut self, jobs: Vec<(Job, JobInputs)>) -> Self {
        self.workload = WorkloadSource::Jobs {
            jobs: jobs
                .into_iter()
                .map(|(job, inputs)| JobSpec { job, inputs })
                .collect(),
        };
        self
    }

    /// Samples `requests` request-scale jobs from a weighted tenant mix.
    #[must_use]
    pub fn mix(mut self, tenants: Vec<TenantProfile>, requests: u32) -> Self {
        self.workload = WorkloadSource::Mix { tenants, requests };
        self
    }

    /// Replaces the tenant set of an open-loop traffic source (no-op for
    /// other sources).
    #[must_use]
    pub fn tenants(mut self, set: Vec<TenantProfile>) -> Self {
        if let WorkloadSource::Traffic { tenants, .. } = &mut self.workload {
            *tenants = set;
        }
        self
    }

    /// Appends an extra selection constraint (lowest priority).
    #[must_use]
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Sets the Speech-to-Text configuration.
    #[must_use]
    pub fn stt(mut self, choice: SttChoice) -> Self {
        self.stt = choice;
        self
    }

    /// Sets workflow-awareness.
    #[must_use]
    pub fn workflow_aware(mut self, on: bool) -> Self {
        self.workflow_aware = on;
        self
    }

    /// Sets the parallelism lever.
    #[must_use]
    pub fn parallelism(mut self, n: u32) -> Self {
        self.parallelism = n;
        self
    }

    /// Enables/disables paper-agent pinning.
    #[must_use]
    pub fn pin_paper_agents(mut self, on: bool) -> Self {
        self.pin_paper_agents = on;
        self
    }

    /// Injects a spot preemption of cluster node `node` at `at_s`.
    #[must_use]
    pub fn preempt_at(mut self, at_s: f64, node: usize) -> Self {
        self.preemptions.push(Preemption { at_s, node });
        self
    }

    /// Sets the endpoint serving regime.
    #[must_use]
    pub fn serving(mut self, mode: ServingMode) -> Self {
        self.serving = mode;
        self
    }

    /// Sets the preflight-analysis mode [`Session::execute`] applies.
    #[must_use]
    pub fn preflight(mut self, mode: PreflightMode) -> Self {
        self.preflight = mode;
        self
    }

    /// Federates an open-loop scenario across the given regions. The
    /// scenario's cluster node count must equal the spec's total
    /// on-demand plus spot nodes (the regions *are* the cluster's
    /// layout, not extra capacity).
    #[must_use]
    pub fn geo(mut self, spec: murakkab_geo::GeoSpec) -> Self {
        self.geo = Some(spec);
        self
    }

    /// Replaces the admission config (open-loop scenarios; no-op in
    /// closed loop).
    #[must_use]
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        if let ExecutionMode::OpenLoop(spec) = &mut self.mode {
            spec.admission = cfg;
        }
        self
    }

    /// Sets the cell count (open-loop scenarios; no-op in closed loop).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        if let ExecutionMode::OpenLoop(spec) = &mut self.mode {
            spec.shards = shards;
        }
        self
    }

    /// Sets the cell-routing policy (open-loop scenarios; no-op in
    /// closed loop).
    #[must_use]
    pub fn router(mut self, policy: CellPolicy) -> Self {
        if let ExecutionMode::OpenLoop(spec) = &mut self.mode {
            spec.router = policy;
        }
        self
    }

    /// Sets the fleet-wide in-flight budget (open-loop scenarios; no-op
    /// in closed loop).
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        if let ExecutionMode::OpenLoop(spec) = &mut self.mode {
            spec.max_inflight = n;
        }
        self
    }

    /// Sets the work-stealing backlog margin (open-loop scenarios;
    /// no-op in closed loop).
    #[must_use]
    pub fn steal_margin(mut self, margin: usize) -> Self {
        if let ExecutionMode::OpenLoop(spec) = &mut self.mode {
            spec.steal_margin = margin;
        }
        self
    }

    /// Sets the region-worker count for concurrent region stepping
    /// (federated open-loop scenarios; no-op in closed loop and on a
    /// single region, where cells step inline). Reports stay
    /// bit-identical at every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        if let ExecutionMode::OpenLoop(spec) = &mut self.mode {
            spec.threads = Some(threads);
        }
        self
    }

    /// Validates the spec: numeric sanity (finite positive horizons and
    /// preemption instants, non-zero parallelism/shards/nodes) and
    /// mode/workload compatibility.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] describing the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        // The structural rules live in [`mod@crate::analyze`], so this
        // surface and the preflight analyzer can never disagree.
        crate::analyze::first_error(&crate::analyze::scenario_structural(self))
    }

    /// Serializes the scenario to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on a serialization failure.
    pub fn to_json(&self) -> Result<String, SimError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| SimError::InvalidInput(format!("scenario JSON: {e}")))
    }

    /// Parses a scenario from JSON (the capture/replay path).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SimError> {
        serde_json::from_str(json)
            .map_err(|e| SimError::InvalidInput(format!("scenario JSON: {e}")))
    }

    /// Loads a scenario from a JSON file.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on IO or parse failure.
    pub fn from_json_file(path: impl AsRef<std::path::Path>) -> Result<Self, SimError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| {
            SimError::InvalidInput(format!("reading scenario {}: {e}", path.display()))
        })?;
        Self::from_json(&json)
    }

    /// One-shot convenience: builds a [`Session`] for this scenario and
    /// executes it.
    ///
    /// # Errors
    ///
    /// Propagates validation, planning, placement and execution errors.
    pub fn run(&self) -> Result<Report, SimError> {
        Session::new(self)?.execute(self)
    }

    /// The run options this scenario implies — the only place that
    /// knows which knobs open-loop serving ignores: it selects STT from
    /// the constraints (`Auto`), never pins the paper's agents and
    /// injects no preemptions.
    pub(crate) fn run_options(&self) -> RunOptions {
        let open_loop = matches!(self.mode, ExecutionMode::OpenLoop(_));
        RunOptions {
            label: self.label.clone(),
            stt: if open_loop { SttChoice::Auto } else { self.stt },
            workflow_aware: self.workflow_aware,
            parallelism: self.parallelism,
            pin_paper_agents: self.pin_paper_agents && !open_loop,
            preemptions: if open_loop {
                Vec::new()
            } else {
                self.preemptions.iter().map(|p| (p.at_s, p.node)).collect()
            },
            serving: self.serving,
            constraints: self.constraints.clone(),
        }
    }

    /// The open-loop spec, arrival process and tenant set of an
    /// open-loop traffic scenario.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] for any other mode/workload pairing.
    pub(crate) fn open_loop_parts(
        &self,
    ) -> Result<(&OpenLoopSpec, &ArrivalProcess, &[TenantProfile]), SimError> {
        match (&self.mode, &self.workload) {
            (ExecutionMode::OpenLoop(spec), WorkloadSource::Traffic { process, tenants }) => {
                Ok((spec, process, tenants))
            }
            _ => Err(SimError::InvalidInput(
                "open-loop serving needs ExecutionMode::OpenLoop over a traffic workload".into(),
            )),
        }
    }
}

/// The mode-independent core every report shares: who ran, how long it
/// took, what it consumed, and how well it served.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReportCore {
    /// Scenario label.
    pub label: String,
    /// Workload seed.
    pub seed: u64,
    /// `"closed-loop"` or `"open-loop"`.
    pub mode: String,
    /// Instant the last workflow finished, seconds.
    pub makespan_s: f64,
    /// Tasks executed.
    pub tasks_completed: u64,
    /// GPU energy of held allocations, Wh.
    pub energy_allocated_wh: f64,
    /// Dollar cost of held allocations plus external calls.
    pub cost_usd: f64,
    /// Mean cluster GPU utilization over the run, percent.
    pub gpu_util_avg_pct: f64,
    /// Mean cluster CPU utilization over the run, percent.
    pub cpu_util_avg_pct: f64,
    /// Composed end-to-end quality (closed loop only).
    pub quality: Option<f64>,
    /// Fraction of admitted work meeting its deadline (open loop only).
    pub slo_attainment: Option<f64>,
    /// Deadline-meeting workflows per minute (open loop only).
    pub goodput_per_min: Option<f64>,
    /// Per-SLO-class latency/attainment stats (empty in closed loop).
    pub classes: Vec<FleetClassReport>,
}

/// Mode-specific report detail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ReportDetail {
    /// The full closed-loop run report (trace, utilization curves,
    /// selections).
    ClosedLoop(RunReport),
    /// The full open-loop fleet report (per-class and per-cell
    /// breakdowns).
    OpenLoop(FleetReport),
    /// The multi-region federated report (per-region fleets, WAN and
    /// elastic-spot accounting, global roll-up).
    Geo(crate::geo::GeoReport),
}

/// What one [`Session::execute`] measured: a mode-independent
/// [`ReportCore`] plus the full mode-specific detail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// The shared core.
    pub core: ReportCore,
    /// The mode-specific detail.
    pub detail: ReportDetail,
}

impl Report {
    fn from_run(seed: u64, report: RunReport) -> Self {
        let avg = |samples: &[(f64, f64)]| {
            if samples.is_empty() {
                0.0
            } else {
                samples.iter().map(|&(_, v)| v).sum::<f64>() / samples.len() as f64
            }
        };
        Report {
            core: ReportCore {
                label: report.label.clone(),
                seed,
                mode: "closed-loop".into(),
                makespan_s: report.makespan_s,
                tasks_completed: report.tasks as u64,
                energy_allocated_wh: report.energy_allocated_wh,
                cost_usd: report.cost_usd,
                gpu_util_avg_pct: avg(&report.gpu_util),
                cpu_util_avg_pct: avg(&report.cpu_util),
                quality: Some(report.quality),
                slo_attainment: None,
                goodput_per_min: None,
                classes: Vec::new(),
            },
            detail: ReportDetail::ClosedLoop(report),
        }
    }

    fn from_fleet(report: FleetReport) -> Self {
        Report {
            core: ReportCore {
                label: report.label.clone(),
                seed: report.seed,
                mode: "open-loop".into(),
                makespan_s: report.makespan_s,
                tasks_completed: report.tasks_completed,
                energy_allocated_wh: report.energy_allocated_wh,
                cost_usd: report.cost_usd,
                gpu_util_avg_pct: report.gpu_util_avg_pct,
                cpu_util_avg_pct: report.cpu_util_avg_pct,
                quality: None,
                slo_attainment: Some(report.slo_attainment),
                goodput_per_min: Some(report.goodput_per_min),
                classes: report.classes.clone(),
            },
            detail: ReportDetail::OpenLoop(report),
        }
    }

    fn from_geo(report: crate::geo::GeoReport) -> Self {
        Report {
            core: ReportCore {
                label: report.global.label.clone(),
                seed: report.global.seed,
                mode: "open-loop".into(),
                makespan_s: report.global.makespan_s,
                tasks_completed: report.global.tasks_completed,
                energy_allocated_wh: report.global.energy_allocated_wh,
                // Compute at regional prices plus WAN egress — not the
                // global fleet figure alone.
                cost_usd: report.cost_usd,
                gpu_util_avg_pct: report.global.gpu_util_avg_pct,
                cpu_util_avg_pct: report.global.cpu_util_avg_pct,
                quality: None,
                slo_attainment: Some(report.global.slo_attainment),
                goodput_per_min: Some(report.global.goodput_per_min),
                classes: report.global.classes.clone(),
            },
            detail: ReportDetail::Geo(report),
        }
    }

    /// The closed-loop detail, if this was a closed-loop run.
    pub fn closed_loop(&self) -> Option<&RunReport> {
        match &self.detail {
            ReportDetail::ClosedLoop(r) => Some(r),
            ReportDetail::OpenLoop(_) | ReportDetail::Geo(_) => None,
        }
    }

    /// The open-loop detail, if this was an open-loop run. For a
    /// federated run this is the global roll-up, so downstream
    /// consumers (trace diffs, what-if comparisons) work unchanged.
    pub fn open_loop(&self) -> Option<&FleetReport> {
        match &self.detail {
            ReportDetail::OpenLoop(r) => Some(r),
            ReportDetail::Geo(r) => Some(&r.global),
            ReportDetail::ClosedLoop(_) => None,
        }
    }

    /// The federated detail, if this was a multi-region run.
    pub fn geo(&self) -> Option<&crate::geo::GeoReport> {
        match &self.detail {
            ReportDetail::Geo(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the report into its closed-loop detail.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if this was an open-loop run.
    pub fn into_closed_loop(self) -> Result<RunReport, SimError> {
        match self.detail {
            ReportDetail::ClosedLoop(r) => Ok(r),
            ReportDetail::OpenLoop(_) | ReportDetail::Geo(_) => Err(SimError::InvalidState(
                "open-loop report has no closed-loop detail".into(),
            )),
        }
    }

    /// Consumes the report into its open-loop detail.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if this was a closed-loop run.
    pub fn into_open_loop(self) -> Result<FleetReport, SimError> {
        match self.detail {
            ReportDetail::OpenLoop(r) => Ok(r),
            ReportDetail::Geo(r) => Ok(r.global),
            ReportDetail::ClosedLoop(_) => Err(SimError::InvalidState(
                "closed-loop report has no open-loop detail".into(),
            )),
        }
    }

    /// One-line summary for harness output (mode-appropriate).
    pub fn summary_line(&self) -> String {
        match &self.detail {
            ReportDetail::ClosedLoop(r) => r.summary_line(),
            ReportDetail::OpenLoop(r) => r.summary_line(),
            ReportDetail::Geo(r) => r.summary_line(),
        }
    }

    /// A stable 64-bit digest of the full serialized report (FNV-1a over
    /// the canonical JSON). Two runs of the same scenario produce the
    /// same digest — the capture/replay identity check.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
        serde_json::to_writer(&mut hash, self).expect("reports always serialize");
        hash.0
    }
}

/// FNV-1a over the bytes written into it: [`Report::digest`] hashes
/// the compact JSON as the serializer emits it, without holding it.
struct Fnv1a(u64);

impl std::io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Executes [`Scenario`]s: owns the runtime (agent library, execution
/// profiles, cluster template) and the [`WorkloadCatalog`] scenarios
/// resolve their workload names against.
///
/// A session is built *for* a scenario's seed and cluster
/// ([`Session::new`]) and can then execute any number of scenario
/// variants sharing them (different workloads, modes or knobs) without
/// re-profiling the agent library.
pub struct Session {
    runtime: Runtime,
    catalog: WorkloadCatalog,
}

impl Session {
    /// A session for the scenario's seed and cluster, with the stock
    /// workload catalog.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors.
    pub fn new(scenario: &Scenario) -> Result<Self, SimError> {
        Self::with_catalog(scenario, WorkloadCatalog::stock())
    }

    /// A session resolving workload names against a caller-supplied
    /// catalog.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors.
    pub fn with_catalog(scenario: &Scenario, catalog: WorkloadCatalog) -> Result<Self, SimError> {
        scenario.validate()?;
        Ok(Session {
            runtime: Runtime::with_shape(
                scenario.seed,
                scenario.cluster.shape.clone(),
                scenario.cluster.nodes,
            ),
            catalog,
        })
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The workload catalog.
    pub fn catalog(&self) -> &WorkloadCatalog {
        &self.catalog
    }

    /// Executes a scenario through the shared plan → expand → select →
    /// engine pipeline and returns the unified [`Report`].
    ///
    /// The scenario must share this session's seed and cluster (execute
    /// as many knob/workload variants as you like on one session; build
    /// a new session to change the testbed).
    ///
    /// # Errors
    ///
    /// Propagates validation, planning, placement and execution errors.
    pub fn execute(&self, scenario: &Scenario) -> Result<Report, SimError> {
        Ok(self.execute_inner(scenario, false)?.0)
    }

    /// Executes an open-loop scenario — single-region or geo-federated —
    /// while capturing per-request events (arrival, admission verdict,
    /// serving region and cell, first-token/completion instants,
    /// inter-cell steals) into a [`RunCapture`](crate::capture::RunCapture).
    ///
    /// Capture is observation only: the returned [`Report`] is
    /// bit-identical to [`execute`](Self::execute) on the same
    /// scenario. The `murakkab_trace` crate packages the capture into a
    /// versioned, replayable `RunTrace`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] when the scenario is closed-loop
    /// (per-request capture only makes sense for an arrival stream),
    /// plus everything [`execute`](Self::execute) can return.
    pub fn execute_captured(
        &self,
        scenario: &Scenario,
    ) -> Result<(Report, crate::capture::RunCapture), SimError> {
        if !matches!(scenario.mode, ExecutionMode::OpenLoop(_)) {
            return Err(SimError::InvalidInput(
                "per-request capture needs an open-loop scenario".into(),
            ));
        }
        let (report, capture) = self.execute_inner(scenario, true)?;
        Ok((report, capture.expect("open-loop runs capture on request")))
    }

    fn execute_inner(
        &self,
        scenario: &Scenario,
        capture: bool,
    ) -> Result<(Report, Option<crate::capture::RunCapture>), SimError> {
        scenario.validate()?;
        if self.runtime.seed() != scenario.seed
            || self.runtime.shape() != &scenario.cluster.shape
            || self.runtime.nodes() != scenario.cluster.nodes
        {
            return Err(SimError::InvalidInput(
                "scenario seed/cluster differ from this session's; build a new Session".into(),
            ));
        }
        match scenario.preflight {
            PreflightMode::Off => {}
            PreflightMode::Warn => {
                let report = self.analyze(scenario);
                if !report.diagnostics.is_empty() {
                    eprintln!("preflight ({}):\n{}", report.label, report.render_human());
                }
            }
            PreflightMode::Strict => {
                let report = self.analyze(scenario);
                // The report is sorted worst-first, so the head finding
                // is an error or warning whenever one exists.
                if let Some(d) = report
                    .diagnostics
                    .first()
                    .filter(|d| d.severity >= crate::analyze::Severity::Warning)
                {
                    return Err(SimError::InvalidInput(format!(
                        "strict preflight refused the scenario: {} \
                         (and {} more finding(s); run the analyzer for the full report)",
                        d.render().replace('\n', " "),
                        report.diagnostics.len() - 1
                    )));
                }
            }
        }
        match (&scenario.mode, &scenario.geo) {
            (ExecutionMode::ClosedLoop, _) => {
                let jobs = closed_loop_jobs(scenario, &self.catalog)?;
                let report = self.runtime.run_jobs(&jobs, scenario.run_options())?;
                Ok((Report::from_run(scenario.seed, report), None))
            }
            (ExecutionMode::OpenLoop(_), Some(geo)) => {
                let (report, cap) = crate::geo::execute_geo(&self.runtime, scenario, geo, capture)?;
                Ok((Report::from_geo(report), cap))
            }
            (ExecutionMode::OpenLoop(_), None) => {
                let (report, cap) = self.runtime.serve(scenario, capture)?;
                Ok((Report::from_fleet(report), cap))
            }
        }
    }

    /// Statically analyzes a scenario against this session's runtime and
    /// catalog, without executing it (see [`mod@crate::analyze`]).
    pub fn analyze(&self, scenario: &Scenario) -> crate::analyze::AnalysisReport {
        crate::analyze::analyze_with(scenario, &self.catalog, &self.runtime)
    }
}

/// Materializes a closed-loop scenario's job list from its workload
/// source, resolving catalog names against `catalog` — shared by
/// execution and the preflight analyzer.
///
/// # Errors
///
/// [`SimError::NotFound`] for an unregistered catalog entry,
/// [`SimError::InvalidInput`] for a mix that does not sample or a
/// traffic source.
pub(crate) fn closed_loop_jobs(
    scenario: &Scenario,
    catalog: &WorkloadCatalog,
) -> Result<Vec<(Job, JobInputs)>, SimError> {
    match &scenario.workload {
        WorkloadSource::Catalog { entries } => entries
            .iter()
            .map(|r| {
                let entry = catalog.get(&r.entry)?;
                let params = WorkloadParams {
                    seed: scenario.seed,
                    size: r.size.unwrap_or(entry.default_size),
                    user: r.user.clone().unwrap_or_else(|| entry.default_user.clone()),
                };
                Ok(entry.build(&params))
            })
            .collect(),
        WorkloadSource::Jobs { jobs } => Ok(jobs
            .iter()
            .map(|spec| (spec.job.clone(), spec.inputs.clone()))
            .collect()),
        WorkloadSource::Mix { tenants, requests } => {
            sample_mix_jobs(scenario.seed, tenants, *requests)
        }
        WorkloadSource::Traffic { .. } => Err(SimError::InvalidInput(
            "an arrival-process workload needs ExecutionMode::OpenLoop".into(),
        )),
    }
}

/// Samples `requests` request-scale jobs from a weighted tenant mix —
/// the closed-loop multi-tenant batch. Deterministic in the seed; the
/// tenant draw, archetype draw and per-job sizing each use an
/// independently forked stream.
fn sample_mix_jobs(
    seed: u64,
    tenants: &[TenantProfile],
    requests: u32,
) -> Result<Vec<(Job, JobInputs)>, SimError> {
    let total_weight: f64 = tenants.iter().map(|t| t.weight).sum();
    if total_weight <= 0.0 || total_weight.is_nan() {
        return Err(SimError::InvalidInput(
            "tenant weights must sum positive".into(),
        ));
    }
    let base = SimRng::new(seed).fork("scenario-mix");
    let mut tenant_rng = base.fork("tenants");
    let mut mix_rng = base.fork("mix");
    let mut jobs = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let chosen = murakkab_traffic::draw_tenant(tenants, &mut tenant_rng);
        let archetype = chosen.mix.draw(&mut mix_rng);
        let mut job_rng = base.fork(&format!("job-{i}"));
        jobs.push(fleet_job(archetype, &chosen.name, &mut job_rng));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use murakkab_traffic::{Archetype, JobMix, SloClass};

    #[test]
    fn closed_loop_catalog_scenario_runs() {
        let scenario = Scenario::closed_loop("sc")
            .seed(42)
            .catalog_entry("newsfeed")
            .pin_paper_agents(false);
        let report = scenario.run().unwrap();
        assert_eq!(report.core.mode, "closed-loop");
        assert_eq!(report.core.tasks_completed, 3 * 12 + 2);
        assert!(report.core.quality.is_some());
        assert!(report.core.slo_attainment.is_none());
        assert!(report.closed_loop().is_some());
        assert!(report.open_loop().is_none());
    }

    #[test]
    fn multi_entry_catalog_scenario_is_multi_tenant() {
        let scenario = Scenario::closed_loop("duo")
            .seed(9)
            .catalog_entries(vec![
                CatalogRef::named("newsfeed").sized(6),
                CatalogRef::named("cot").sized(2),
            ])
            .pin_paper_agents(false);
        let report = scenario.run().unwrap();
        let run = report.closed_loop().unwrap();
        assert_eq!(run.tasks, (3 * 6 + 2) + (2 + 1));
        // Tenant prefixes mark the merged graph.
        assert!(run.trace.spans().iter().any(|s| s.label.starts_with("w0/")));
        assert!(run.trace.spans().iter().any(|s| s.label.starts_with("w1/")));
    }

    #[test]
    fn mix_scenarios_are_seed_deterministic() {
        let tenants = vec![TenantProfile {
            name: "t".into(),
            mix: JobMix::new(vec![(Archetype::Newsfeed, 1.0), (Archetype::DocQa, 1.0)]),
            class: SloClass::standard(),
            weight: 1.0,
        }];
        let scenario = Scenario::closed_loop("mix")
            .seed(5)
            .mix(tenants, 4)
            .pin_paper_agents(false);
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(a.digest(), b.digest());
        assert!(a.core.tasks_completed > 0);
    }

    #[test]
    fn open_loop_scenario_reports_slo_stats() {
        let scenario =
            Scenario::open_loop("ol", ArrivalProcess::Poisson { rate_per_s: 0.04 }, 200.0);
        let report = scenario.run().unwrap();
        assert_eq!(report.core.mode, "open-loop");
        assert!(report.core.slo_attainment.is_some());
        assert!(report.core.goodput_per_min.is_some());
        assert!(!report.core.classes.is_empty());
        assert!(report.open_loop().is_some());
    }

    #[test]
    fn open_loop_workflow_aware_knob_reaches_the_cells() {
        let base =
            Scenario::open_loop("aware", ArrivalProcess::Poisson { rate_per_s: 0.04 }, 150.0);
        let session = Session::new(&base).unwrap();
        let aware = session.execute(&base).unwrap().into_open_loop().unwrap();
        let blind = session
            .execute(&base.labeled("blind").workflow_aware(false))
            .unwrap()
            .into_open_loop()
            .unwrap();
        // Workflow-aware cells release idle tool pools; blind cells hold
        // them for the whole run.
        assert!(aware.pool_scale_downs >= 1);
        assert_eq!(
            blind.pool_scale_downs, 0,
            "workflow-blind cells must not autoscale pools down"
        );
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = Scenario::open_loop(
            "rt",
            ArrivalProcess::Mmpp {
                on_rate_per_s: 0.4,
                off_rate_per_s: 0.0,
                mean_on_s: 20.0,
                mean_off_s: 60.0,
            },
            120.0,
        )
        .shards(2)
        .router(CellPolicy::SloAffine)
        .serving(ServingMode::Disaggregated)
        .constraint(Constraint::QualityAtLeast(0.8));
        let json = scenario.to_json().unwrap();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(scenario, back);
    }

    #[test]
    fn mode_source_mismatches_are_rejected() {
        let closed_traffic = Scenario {
            mode: ExecutionMode::ClosedLoop,
            ..Scenario::open_loop("bad", ArrivalProcess::Poisson { rate_per_s: 0.1 }, 100.0)
        };
        assert!(matches!(
            closed_traffic.validate(),
            Err(SimError::InvalidInput(_))
        ));

        let open_catalog = Scenario::closed_loop("bad").workload(WorkloadSource::Catalog {
            entries: vec![CatalogRef::named("cot")],
        });
        let open_catalog = Scenario {
            mode: ExecutionMode::OpenLoop(OpenLoopSpec::over_horizon(100.0)),
            ..open_catalog
        };
        assert!(matches!(
            open_catalog.validate(),
            Err(SimError::InvalidInput(_))
        ));
    }

    #[test]
    fn degenerate_numerics_are_rejected() {
        for bad_at in [f64::NAN, -1.0, f64::INFINITY] {
            let bad_preempt = Scenario::closed_loop("bad").preempt_at(bad_at, 0);
            assert!(
                matches!(bad_preempt.validate(), Err(SimError::InvalidInput(_))),
                "preempt_at({bad_at}) must be rejected"
            );
        }

        let zero_parallel = Scenario::closed_loop("bad").parallelism(0);
        assert!(matches!(
            zero_parallel.validate(),
            Err(SimError::InvalidInput(_))
        ));

        let bad_horizon =
            Scenario::open_loop("bad", ArrivalProcess::Poisson { rate_per_s: 0.1 }, f64::NAN);
        assert!(matches!(
            bad_horizon.validate(),
            Err(SimError::InvalidInput(_))
        ));

        let zero_shards =
            Scenario::open_loop("bad", ArrivalProcess::Poisson { rate_per_s: 0.1 }, 100.0)
                .shards(0);
        assert!(matches!(
            zero_shards.validate(),
            Err(SimError::InvalidInput(_))
        ));
    }

    #[test]
    fn session_rejects_mismatched_scenarios() {
        let a = Scenario::closed_loop("a").seed(1);
        let b = Scenario::closed_loop("b").seed(2);
        let session = Session::new(&a).unwrap();
        assert!(matches!(
            session.execute(&b),
            Err(SimError::InvalidInput(_))
        ));
    }

    #[test]
    fn unknown_catalog_entry_surfaces_as_not_found() {
        let scenario = Scenario::closed_loop("missing").catalog_entry("no-such-workload");
        assert!(matches!(
            scenario.run(),
            Err(SimError::NotFound {
                kind: "workload",
                ..
            })
        ));
    }
}
