//! Static preflight analysis of [`Scenario`]s.
//!
//! A scenario is plain data, which means an infeasible or
//! self-contradicting configuration can be caught *before* burning a
//! simulation run. [`analyze`] inspects a scenario without executing it
//! and emits typed [`Diagnostic`]s at three severities:
//!
//! - **error** (`ANZ0xx`) — the scenario cannot execute: degenerate
//!   numerics, empty workloads, mode/workload mismatches, unknown
//!   catalog entries, jobs that fail to plan, constraint sets no agent
//!   satisfies. [`Scenario::validate`] is a thin wrapper over the same
//!   rules and runs once at the [`Session`](crate::scenario::Session)
//!   entry, and the deep checks call the preparation code execution
//!   itself runs, so the execution path and the analyzer can never
//!   disagree.
//! - **warning** (`ANZ1xx`) — the scenario executes but is predicted to
//!   misbehave: a deployment group no node can host, aggregate GPU
//!   demand above cluster capacity, an SLO deadline below the
//!   critical-path service-time lower bound, offered load above
//!   aggregate capacity with admission disabled, a token-bucket burst
//!   the bounded queue cannot absorb.
//! - **info** (`ANZ2xx`) — advisory: disaggregation falling back to
//!   colocated, a prefill/decode pair that cannot share a node, the
//!   predicted shed-rate floor under admission control, knobs a mode
//!   ignores.
//!
//! The analyzer is exposed three ways: this module's [`analyze`]
//! function (re-exported by the `murakkab_analyze` facade crate), the
//! `analyze` CLI binary that lints `scenarios/*.json`, and the
//! [`PreflightMode`](crate::scenario::PreflightMode) gate on
//! [`Session::execute`](crate::scenario::Session::execute).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use murakkab_agents::Capability;
use murakkab_hardware::{HardwareTarget, VmShape};
use murakkab_llmsim::ServingMode;
use murakkab_orchestrator::{expand, JobInputs, Planner};
use murakkab_sim::{SimError, SimRng, SimTime};
use murakkab_traffic::{AdmissionConfig, Archetype, TenantProfile};
use murakkab_workflow::Job;

use crate::engine::{CompiledGraph, RouteSpec};
use crate::fleet::{estimate_service_s, fleet_job, ServiceCosts};
use crate::runtime::{RoutePlan, RoutePrep, Runtime, SttChoice};
use crate::scenario::{closed_loop_jobs, ExecutionMode, OpenLoopSpec, Scenario, WorkloadSource};
use crate::workloads::WorkloadCatalog;

/// Stable diagnostic codes (`ANZ0xx` errors, `ANZ1xx` warnings,
/// `ANZ2xx` infos). The constants exist so tests and tools can match on
/// codes without string literals drifting.
pub mod codes {
    /// The cluster has no nodes.
    pub const CLUSTER_EMPTY: &str = "ANZ001";
    /// The workload is empty or degenerate (no entries/jobs/tenants, a
    /// zero-weight tenant set or mix, a non-positive SLO deadline).
    pub const WORKLOAD_DEGENERATE: &str = "ANZ002";
    /// Execution mode and workload source do not fit together.
    pub const MODE_MISMATCH: &str = "ANZ003";
    /// A numeric knob is out of range (zero parallelism, NaN horizon,
    /// zero shards, a preemption outside the run or the cluster).
    pub const BAD_NUMERIC: &str = "ANZ004";
    /// The admission configuration cannot build a controller.
    pub const ADMISSION_INVALID: &str = "ANZ005";
    /// The arrival process parameters are invalid.
    pub const ARRIVALS_INVALID: &str = "ANZ006";
    /// More engine cells than cluster nodes.
    pub const SHARDS_EXCEED_NODES: &str = "ANZ007";
    /// A catalog reference names no registered workload.
    pub const UNKNOWN_CATALOG_ENTRY: &str = "ANZ008";
    /// A job fails to decompose into a plan or expand into a DAG.
    pub const PLAN_FAILED: &str = "ANZ009";
    /// No agent/hardware config satisfies the constraint set.
    pub const CONSTRAINTS_UNSATISFIABLE: &str = "ANZ010";
    /// The geo federation spec is self-contradictory (no regions, an
    /// asymmetric or non-finite RTT matrix, degenerate epochs).
    pub const GEO_INVALID: &str = "ANZ011";
    /// A geo spec on a closed-loop scenario (federation is an
    /// open-loop serving concept).
    pub const GEO_MODE_MISMATCH: &str = "ANZ012";
    /// The cluster node count differs from the geo footprint (the sum
    /// of every region's on-demand nodes, plus spot nodes when elastic
    /// capacity is enabled).
    pub const GEO_NODES_MISMATCH: &str = "ANZ013";

    /// A deployment group (TP group or pool worker) fits no node.
    pub const NO_PLACEMENT: &str = "ANZ101";
    /// Aggregate GPU demand of the selected routes exceeds capacity.
    pub const CAPACITY_EXCEEDED: &str = "ANZ102";
    /// A deadline or latency bound sits below the critical-path
    /// service-time lower bound.
    pub const SLO_INFEASIBLE: &str = "ANZ103";
    /// Offered load exceeds aggregate service capacity with admission
    /// disabled (the backlog grows without bound).
    pub const OVERLOAD_UNBOUNDED: &str = "ANZ104";
    /// The token-bucket burst exceeds the bounded queue, so admitted
    /// bursts overflow into queue-full rejections.
    pub const BURST_EXCEEDS_QUEUE: &str = "ANZ105";
    /// A geo federation with a single region: it executes, but every
    /// routing policy degenerates to that region and the WAN model
    /// never engages.
    pub const GEO_DEGENERATE: &str = "ANZ106";

    /// Disaggregated serving was requested but the plan fell back to a
    /// colocated deployment.
    pub const DISAGG_FALLBACK: &str = "ANZ201";
    /// A disaggregated prefill/decode pair cannot share a node.
    pub const DISAGG_CROSS_NODE: &str = "ANZ202";
    /// Predicted admission shed-rate floor under the offered load.
    pub const SHED_FLOOR: &str = "ANZ203";
    /// One archetype of a tenant exceeds its deadline (others fit).
    pub const ARCHETYPE_OVER_DEADLINE: &str = "ANZ204";
    /// A knob the selected execution mode ignores.
    pub const IGNORED_KNOB: &str = "ANZ205";
    /// An open-loop knob the geo federation layer overrides (cell
    /// layout comes from the per-region specs, not `shards`; regions
    /// tick at `sync_epoch_s`, not `rebalance_every_s`).
    pub const GEO_IGNORED_KNOB: &str = "ANZ206";
}

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory — nothing wrong, but worth knowing.
    Info,
    /// The scenario executes but is predicted to misbehave.
    Warning,
    /// The scenario cannot execute.
    Error,
}

impl Severity {
    /// Lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One typed preflight finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code (`ANZ001`…, see [`codes`]).
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// Dotted pseudo-path into the scenario spec the finding anchors to
    /// (e.g. `mode.OpenLoop.admission.burst`).
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analyzer has a concrete idea.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    fn new(severity: Severity, code: &str, path: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.into(),
            severity,
            path: path.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    fn error(code: &str, path: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, path, message)
    }

    fn warning(code: &str, path: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, path, message)
    }

    fn info(code: &str, path: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Info, code, path, message)
    }

    fn suggest(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// One rendered line (`severity[code] path: message`).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.code,
            self.path,
            self.message
        );
        if let Some(s) = &self.suggestion {
            line.push_str(&format!("\n  help: {s}"));
        }
        line
    }
}

/// Everything [`analyze`] found for one scenario, worst first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The analyzed scenario's label.
    pub label: String,
    /// Findings, sorted by severity (errors first), then code and path.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether any warning-severity finding exists.
    pub fn has_warnings(&self) -> bool {
        self.warnings().next().is_some()
    }

    /// Human-readable rendering, one finding per line (empty string for
    /// a clean report).
    pub fn render_human(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Statically analyzes a scenario against the stock agent library and
/// workload catalog, without executing it.
///
/// Builds a throwaway [`Runtime`] for the scenario's seed and cluster;
/// when a live [`Session`](crate::scenario::Session) exists, prefer
/// [`Session::analyze`](crate::scenario::Session::analyze), which
/// reuses the session's runtime and catalog.
pub fn analyze(scenario: &Scenario) -> AnalysisReport {
    let runtime = Runtime::with_shape(
        scenario.seed,
        scenario.cluster.shape.clone(),
        scenario.cluster.nodes,
    );
    analyze_with(scenario, &WorkloadCatalog::stock(), &runtime)
}

/// The full analysis pass against a caller-supplied catalog and runtime.
pub(crate) fn analyze_with(
    scenario: &Scenario,
    catalog: &WorkloadCatalog,
    runtime: &Runtime,
) -> AnalysisReport {
    let mut diags = scenario_structural(scenario);
    // Deep (planning/capacity/SLO/load) checks interpret the spec, so
    // they only run once the structure is sound.
    if !diags.iter().any(|d| d.severity == Severity::Error) {
        deep_diags(scenario, catalog, runtime, &mut diags);
    }
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(&b.code))
            .then_with(|| a.path.cmp(&b.path))
    });
    AnalysisReport {
        label: scenario.label.clone(),
        diagnostics: diags,
    }
}

/// Maps the first error-severity diagnostic (in emission order) to the
/// typed error the legacy `validate` surfaces returned.
pub(crate) fn first_error(diags: &[Diagnostic]) -> Result<(), SimError> {
    match diags.iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(SimError::InvalidInput(format!(
            "{} [{} at {}]",
            d.message, d.code, d.path
        ))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Structural rules (shared with the validate() wrappers)
// ---------------------------------------------------------------------------

/// Rules behind [`OpenLoopSpec::validate`].
pub(crate) fn open_loop_spec_diags(spec: &OpenLoopSpec, prefix: &str) -> Vec<Diagnostic> {
    let path = |field: &str| format!("{prefix}{field}");
    let mut out = Vec::new();
    let horizon_s = spec.horizon_s;
    if !horizon_s.is_finite() || horizon_s <= 0.0 {
        out.push(Diagnostic::error(
            codes::BAD_NUMERIC,
            &path("horizon_s"),
            format!("arrival horizon must be a finite positive number of seconds, got {horizon_s}"),
        ));
    }
    let rebalance_every_s = spec.rebalance_every_s;
    if !rebalance_every_s.is_finite() || rebalance_every_s <= 0.0 {
        out.push(Diagnostic::error(
            codes::BAD_NUMERIC,
            &path("rebalance_every_s"),
            format!(
                "rebalance cadence must be a finite positive number of seconds, \
                 got {rebalance_every_s}"
            ),
        ));
    }
    if spec.shards == 0 {
        out.push(Diagnostic::error(
            codes::BAD_NUMERIC,
            &path("shards"),
            "fleet needs at least one shard",
        ));
    }
    if spec.max_inflight == 0 {
        out.push(Diagnostic::error(
            codes::BAD_NUMERIC,
            &path("max_inflight"),
            "max_inflight must be at least 1",
        ));
    }
    if spec.threads == Some(0) {
        out.push(Diagnostic::error(
            codes::BAD_NUMERIC,
            &path("threads"),
            "threads must be at least 1 region worker (1 steps regions inline)",
        ));
    }
    out
}

/// Tenant-set sanity: positive weight mass, drawable mixes, positive
/// deadlines. Shared by the `Mix` and `Traffic` sources.
fn tenant_diags(tenants: &[TenantProfile], prefix: &str, out: &mut Vec<Diagnostic>) {
    let mut weight_sum = 0.0;
    for (i, t) in tenants.iter().enumerate() {
        let path = |field: &str| format!("{prefix}[{i}].{field}");
        if !t.weight.is_finite() || t.weight < 0.0 {
            out.push(Diagnostic::error(
                codes::WORKLOAD_DEGENERATE,
                &path("weight"),
                format!(
                    "tenant `{}` weight must be finite and non-negative, got {}",
                    t.name, t.weight
                ),
            ));
        } else {
            weight_sum += t.weight;
        }
        let weights = t.mix.weights();
        let bad = weights.iter().any(|&(_, w)| !w.is_finite() || w < 0.0);
        let dead = !weights.iter().any(|&(_, w)| w > 0.0);
        if bad || dead {
            out.push(Diagnostic::error(
                codes::WORKLOAD_DEGENERATE,
                &path("mix"),
                format!(
                    "tenant `{}` mix needs non-negative weights with at least \
                     one positive entry",
                    t.name
                ),
            ));
        }
        if !t.class.deadline_s.is_finite() || t.class.deadline_s <= 0.0 {
            out.push(Diagnostic::error(
                codes::WORKLOAD_DEGENERATE,
                &path("class.deadline_s"),
                format!(
                    "tenant `{}` SLO deadline must be finite and positive, got {}",
                    t.name, t.class.deadline_s
                ),
            ));
        }
    }
    if !tenants.is_empty() && weight_sum <= 0.0 {
        out.push(Diagnostic::error(
            codes::WORKLOAD_DEGENERATE,
            prefix,
            "tenant weights must sum positive",
        ));
    }
}

/// The admission-config rules as diagnostics (the rule set itself lives
/// in [`AdmissionConfig::validate`]).
fn admission_diags(cfg: &AdmissionConfig, prefix: &str, out: &mut Vec<Diagnostic>) {
    if let Err(SimError::InvalidInput(msg)) = cfg.validate() {
        out.push(
            Diagnostic::error(codes::ADMISSION_INVALID, prefix, msg)
                .suggest("fix the admission parameters or disable admission"),
        );
    }
}

/// Every structural rule over the spec itself — the analyzer's
/// error-severity backbone and the body of [`Scenario::validate`].
pub(crate) fn scenario_structural(scenario: &Scenario) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if scenario.parallelism == 0 {
        out.push(
            Diagnostic::error(
                codes::BAD_NUMERIC,
                "parallelism",
                "parallelism must be at least 1",
            )
            .suggest("set parallelism to a positive stage fan-out"),
        );
    }
    for (i, p) in scenario.preemptions.iter().enumerate() {
        if !p.at_s.is_finite() || p.at_s < 0.0 {
            out.push(Diagnostic::error(
                codes::BAD_NUMERIC,
                &format!("preemptions[{i}].at_s"),
                format!(
                    "preemption instant must be a finite non-negative number \
                     of seconds, got {} (node {})",
                    p.at_s, p.node
                ),
            ));
        }
    }
    if scenario.cluster.nodes == 0 {
        out.push(
            Diagnostic::error(
                codes::CLUSTER_EMPTY,
                "cluster.nodes",
                "cluster needs at least one node",
            )
            .suggest("provision at least one node"),
        );
    }
    match &scenario.workload {
        WorkloadSource::Catalog { entries } if entries.is_empty() => {
            out.push(Diagnostic::error(
                codes::WORKLOAD_DEGENERATE,
                "workload.Catalog.entries",
                "catalog workload needs at least one entry",
            ));
        }
        WorkloadSource::Jobs { jobs } if jobs.is_empty() => {
            out.push(Diagnostic::error(
                codes::WORKLOAD_DEGENERATE,
                "workload.Jobs.jobs",
                "explicit workload needs at least one job",
            ));
        }
        WorkloadSource::Mix { tenants, requests } => {
            if tenants.is_empty() {
                out.push(Diagnostic::error(
                    codes::WORKLOAD_DEGENERATE,
                    "workload.Mix.tenants",
                    "mix needs tenants",
                ));
            }
            if *requests == 0 {
                out.push(Diagnostic::error(
                    codes::WORKLOAD_DEGENERATE,
                    "workload.Mix.requests",
                    "mix needs at least one request",
                ));
            }
            tenant_diags(tenants, "workload.Mix.tenants", &mut out);
        }
        WorkloadSource::Traffic { process, tenants } => {
            if tenants.is_empty() {
                out.push(Diagnostic::error(
                    codes::WORKLOAD_DEGENERATE,
                    "workload.Traffic.tenants",
                    "traffic needs tenants",
                ));
            }
            tenant_diags(tenants, "workload.Traffic.tenants", &mut out);
            if let Err(SimError::InvalidInput(msg)) = process.validate() {
                out.push(Diagnostic::error(
                    codes::ARRIVALS_INVALID,
                    "workload.Traffic.process",
                    msg,
                ));
            }
        }
        _ => {}
    }
    match (&scenario.mode, &scenario.workload) {
        (ExecutionMode::ClosedLoop, WorkloadSource::Traffic { .. }) => {
            out.push(
                Diagnostic::error(
                    codes::MODE_MISMATCH,
                    "mode",
                    "an arrival-process workload needs ExecutionMode::OpenLoop",
                )
                .suggest("switch to ExecutionMode::OpenLoop or pick a closed-loop source"),
            );
        }
        (ExecutionMode::OpenLoop(_), source)
            if !matches!(source, WorkloadSource::Traffic { .. }) =>
        {
            out.push(
                Diagnostic::error(
                    codes::MODE_MISMATCH,
                    "mode",
                    "open-loop execution needs a WorkloadSource::Traffic workload",
                )
                .suggest("switch to ExecutionMode::ClosedLoop or supply a traffic source"),
            );
        }
        (ExecutionMode::OpenLoop(spec), _) => {
            out.extend(open_loop_spec_diags(spec, "mode.OpenLoop."));
            admission_diags(&spec.admission, "mode.OpenLoop.admission", &mut out);
            if spec.shards > scenario.cluster.nodes && scenario.cluster.nodes > 0 {
                out.push(
                    Diagnostic::error(
                        codes::SHARDS_EXCEED_NODES,
                        "mode.OpenLoop.shards",
                        format!(
                            "{} engine cells cannot partition {} cluster node(s)",
                            spec.shards, scenario.cluster.nodes
                        ),
                    )
                    .suggest("reduce shards or add nodes"),
                );
            }
            if !scenario.preemptions.is_empty() {
                out.push(Diagnostic::info(
                    codes::IGNORED_KNOB,
                    "preemptions",
                    "open-loop serving ignores the preemption schedule",
                ));
            }
            if scenario.stt != SttChoice::Auto {
                out.push(Diagnostic::info(
                    codes::IGNORED_KNOB,
                    "stt",
                    "open-loop serving selects the STT configuration from the \
                     constraints; the override is ignored",
                ));
            }
            if scenario.pin_paper_agents {
                out.push(Diagnostic::info(
                    codes::IGNORED_KNOB,
                    "pin_paper_agents",
                    "open-loop serving selects agents freely; paper-agent pinning is ignored",
                ));
            }
        }
        _ => {}
    }
    if let Some(geo) = &scenario.geo {
        for (path, msg) in geo.problems() {
            out.push(Diagnostic::error(codes::GEO_INVALID, &path, msg));
        }
        if matches!(scenario.mode, ExecutionMode::ClosedLoop) {
            out.push(
                Diagnostic::error(
                    codes::GEO_MODE_MISMATCH,
                    "geo",
                    "multi-region federation needs ExecutionMode::OpenLoop",
                )
                .suggest("switch to ExecutionMode::OpenLoop or drop the geo spec"),
            );
        }
        let spot: usize = geo.regions.iter().map(|r| r.spot_nodes).sum();
        let footprint = geo.total_nodes() + if geo.elastic.is_some() { spot } else { 0 };
        if footprint > 0 && scenario.cluster.nodes != footprint {
            out.push(
                Diagnostic::error(
                    codes::GEO_NODES_MISMATCH,
                    "cluster.nodes",
                    format!(
                        "cluster has {} node(s) but the geo footprint is {} \
                         ({} on-demand{})",
                        scenario.cluster.nodes,
                        footprint,
                        geo.total_nodes(),
                        if geo.elastic.is_some() {
                            format!(" + {spot} spot")
                        } else {
                            String::new()
                        }
                    ),
                )
                .suggest("set cluster.nodes to the sum of every region's nodes"),
            );
        }
        if geo.elastic.is_some() {
            for (i, r) in geo.regions.iter().enumerate() {
                let cell_nodes = r.cell_nodes();
                if r.spot_nodes % cell_nodes != 0 {
                    out.push(
                        Diagnostic::warning(
                            codes::GEO_DEGENERATE,
                            &format!("geo.regions[{i}].spot_nodes"),
                            format!(
                                "spot pool of {} node(s) materializes {} cell(s) of {} node(s); \
                                 {} node(s) stay idle",
                                r.spot_nodes,
                                r.spot_slots(),
                                cell_nodes,
                                r.spot_nodes % cell_nodes
                            ),
                        )
                        .suggest("size spot_nodes as a multiple of the region's cell size"),
                    );
                }
            }
        }
        if geo.regions.len() == 1 {
            out.push(
                Diagnostic::warning(
                    codes::GEO_DEGENERATE,
                    "geo.regions",
                    "a single-region federation never engages the WAN model",
                )
                .suggest("add regions or drop the geo spec"),
            );
        }
        if let ExecutionMode::OpenLoop(spec) = &scenario.mode {
            if spec.shards != 1 {
                out.push(Diagnostic::info(
                    codes::GEO_IGNORED_KNOB,
                    "mode.OpenLoop.shards",
                    "geo federation lays out cells per region; the global shards knob is ignored",
                ));
            }
            if spec.rebalance_every_s != OpenLoopSpec::over_horizon(0.0).rebalance_every_s {
                out.push(Diagnostic::info(
                    codes::GEO_IGNORED_KNOB,
                    "mode.OpenLoop.rebalance_every_s",
                    "geo regions tick at geo.sync_epoch_s; the rebalance cadence is ignored",
                ));
            }
        }
    }
    if matches!(scenario.mode, ExecutionMode::ClosedLoop) {
        for (i, p) in scenario.preemptions.iter().enumerate() {
            if p.node >= scenario.cluster.nodes && scenario.cluster.nodes > 0 {
                out.push(
                    Diagnostic::error(
                        codes::BAD_NUMERIC,
                        &format!("preemptions[{i}].node"),
                        format!(
                            "preemption targets node {} but the cluster has {} node(s)",
                            p.node, scenario.cluster.nodes
                        ),
                    )
                    .suggest("preempt a node index below cluster.nodes"),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Deep checks: planning, capacity, SLO and load feasibility
// ---------------------------------------------------------------------------

fn deep_diags(
    scenario: &Scenario,
    catalog: &WorkloadCatalog,
    runtime: &Runtime,
    out: &mut Vec<Diagnostic>,
) {
    match &scenario.mode {
        ExecutionMode::ClosedLoop => closed_loop_deep(scenario, catalog, runtime, out),
        ExecutionMode::OpenLoop(_) => open_loop_deep(scenario, runtime, out),
    }
}

/// Decomposes, expands and compiles one job, reporting failures as
/// `ANZ009`.
fn plan_job(
    job: &Job,
    inputs: &JobInputs,
    path: &str,
    runtime: &Runtime,
    out: &mut Vec<Diagnostic>,
) -> Option<(murakkab_orchestrator::LogicalPlan, CompiledGraph)> {
    let plan = match Planner.decompose(job, runtime.library()) {
        Ok((plan, _)) => plan,
        Err(e) => {
            out.push(Diagnostic::error(
                codes::PLAN_FAILED,
                path,
                format!("job does not decompose: {e}"),
            ));
            return None;
        }
    };
    match expand(&plan, inputs).and_then(|graph| CompiledGraph::from_graph(&graph)) {
        Ok(graph) => Some((plan, graph)),
        Err(e) => {
            out.push(Diagnostic::error(
                codes::PLAN_FAILED,
                path,
                format!("plan does not expand against its inputs: {e}"),
            ));
            None
        }
    }
}

/// Shared route selection, mapping failures to `ANZ009`/`ANZ010`.
fn select_or_report(
    runtime: &Runtime,
    cluster: murakkab_cluster::ClusterManager,
    prep: &RoutePrep,
    out: &mut Vec<Diagnostic>,
) -> Option<RoutePlan> {
    let mut stats = cluster.stats(SimTime::ZERO);
    match runtime.select_routes(prep, &mut stats) {
        Ok(plan) => Some(plan),
        Err(SimError::Unsatisfiable(msg)) => {
            out.push(
                Diagnostic::error(codes::CONSTRAINTS_UNSATISFIABLE, "constraints", msg)
                    .suggest("relax the quality floor / bounds or enlarge the cluster"),
            );
            None
        }
        Err(e) => {
            out.push(Diagnostic::error(
                codes::PLAN_FAILED,
                "constraints",
                format!("route selection failed: {e}"),
            ));
            None
        }
    }
}

fn closed_loop_deep(
    scenario: &Scenario,
    catalog: &WorkloadCatalog,
    runtime: &Runtime,
    out: &mut Vec<Diagnostic>,
) {
    let jobs = match closed_loop_jobs(scenario, catalog) {
        Ok(jobs) => jobs,
        Err(SimError::NotFound { id, .. }) => {
            out.push(
                Diagnostic::error(
                    codes::UNKNOWN_CATALOG_ENTRY,
                    "workload.Catalog.entries",
                    format!("no workload named `{id}` is registered"),
                )
                .suggest("pick a registered entry or register a custom one"),
            );
            return;
        }
        Err(e) => {
            out.push(Diagnostic::error(
                codes::WORKLOAD_DEGENERATE,
                "workload.Mix",
                format!("mix does not sample: {e}"),
            ));
            return;
        }
    };

    let mut plans = Vec::with_capacity(jobs.len());
    let mut graphs: Vec<(String, CompiledGraph)> = Vec::new();
    for (i, (job, inputs)) in jobs.iter().enumerate() {
        let path = format!("workload[{i}]");
        if let Some((plan, graph)) = plan_job(job, inputs, &path, runtime, out) {
            plans.push(plan);
            graphs.push((path, graph));
        }
    }
    if out.iter().any(|d| d.severity == Severity::Error) {
        return;
    }
    let prep = RoutePrep::new(
        jobs.iter().map(|(job, _)| job).zip(&plans),
        scenario.run_options(),
    );
    let Some(route_plan) = select_or_report(runtime, runtime.build_cluster(), &prep, out) else {
        return;
    };
    capacity_diags(
        &route_plan.routes,
        &scenario.cluster.shape,
        scenario.cluster.nodes,
        scenario.serving,
        out,
    );

    // A LatencyUnder bound below the idle-system critical path can never
    // be met, regardless of scheduling.
    if let Some(bound) = prep.constraints.latency_bound() {
        let bound_s = bound.as_secs_f64();
        let costs = ServiceCosts::new(&route_plan.routes, runtime.library());
        for (path, graph) in &graphs {
            let Ok(est) = estimate_service_s(graph, &costs) else {
                continue;
            };
            if est > bound_s {
                out.push(
                    Diagnostic::warning(
                        codes::SLO_INFEASIBLE,
                        path,
                        format!(
                            "critical-path service estimate {est:.1}s exceeds the \
                             {bound_s:.1}s latency bound"
                        ),
                    )
                    .suggest("raise the LatencyUnder bound or shrink the workload"),
                );
            }
        }
    }
}

fn open_loop_deep(scenario: &Scenario, runtime: &Runtime, out: &mut Vec<Diagnostic>) {
    let Ok((spec, process, tenants)) = scenario.open_loop_parts() else {
        return; // structural ANZ003 already fired
    };
    // The serve loop's own preparation: one route selection over every
    // archetype the tenant set can emit, against a single cell's
    // capacity.
    let prep = match runtime.serve_prep(scenario) {
        Ok(prep) => prep,
        Err(e) => {
            out.push(Diagnostic::error(
                codes::PLAN_FAILED,
                "workload.Traffic.tenants",
                format!("the tenant set's archetypes do not prepare for serving: {e}"),
            ));
            return;
        }
    };
    let cells = match runtime.build_cluster().partition(spec.shards) {
        Ok(cells) => cells,
        Err(e) => {
            out.push(Diagnostic::error(
                codes::SHARDS_EXCEED_NODES,
                "mode.OpenLoop.shards",
                format!("cluster does not partition into {} cells: {e}", spec.shards),
            ));
            return;
        }
    };
    // The smallest cell is the capacity worst case; equal slices select
    // identical routes anyway.
    let smallest = cells
        .into_iter()
        .min_by_key(|c| c.nodes().len())
        .expect("partition yields at least one cell");
    let cell_nodes = smallest.nodes().len();
    let Some(route_plan) = select_or_report(runtime, smallest, &prep, out) else {
        return;
    };
    capacity_diags(
        &route_plan.routes,
        &scenario.cluster.shape,
        cell_nodes,
        scenario.serving,
        out,
    );

    // Per-(tenant, archetype) idle-system service estimates: the SLO
    // lower bound and the load model both build on them.
    let rng = SimRng::new(scenario.seed).fork("preflight");
    let costs = ServiceCosts::new(&route_plan.routes, runtime.library());
    let mut est: BTreeMap<(usize, Archetype), f64> = BTreeMap::new();
    for (ti, tenant) in tenants.iter().enumerate() {
        for &(arch, w) in tenant.mix.weights() {
            if w <= 0.0 {
                continue;
            }
            let mut job_rng = rng.fork(&format!("est/{}/{arch:?}", tenant.name));
            let (job, inputs) = fleet_job(arch, &tenant.name, &mut job_rng);
            let path = format!("workload.Traffic.tenants[{ti}]");
            let Some((_, graph)) = plan_job(&job, &inputs, &path, runtime, out) else {
                continue;
            };
            let Ok(e) = estimate_service_s(&graph, &costs) else {
                continue;
            };
            est.insert((ti, arch), e);
        }
    }

    // SLO feasibility: a tenant whose *every* archetype estimates above
    // its deadline can never be served within SLO (the admission
    // deadline gate rejects at zero backlog already); single archetypes
    // over the line are advisory.
    for (ti, tenant) in tenants.iter().enumerate() {
        let ests: Vec<(Archetype, f64)> = est
            .iter()
            .filter(|((i, _), _)| *i == ti)
            .map(|(&(_, a), &e)| (a, e))
            .collect();
        if ests.is_empty() {
            continue;
        }
        let deadline = tenant.class.deadline_s;
        let over: Vec<&(Archetype, f64)> = ests.iter().filter(|(_, e)| *e > deadline).collect();
        let path = format!("workload.Traffic.tenants[{ti}].class.deadline_s");
        if over.len() == ests.len() {
            let min = ests.iter().map(|(_, e)| *e).fold(f64::INFINITY, f64::min);
            out.push(
                Diagnostic::warning(
                    codes::SLO_INFEASIBLE,
                    &path,
                    format!(
                        "tenant `{}` can never meet its {deadline}s deadline: the \
                         cheapest archetype estimates {min:.1}s of critical-path service",
                        tenant.name
                    ),
                )
                .suggest("raise the deadline, lighten the mix or add capacity"),
            );
        } else {
            for (arch, e) in over {
                out.push(Diagnostic::info(
                    codes::ARCHETYPE_OVER_DEADLINE,
                    &path,
                    format!(
                        "tenant `{}` archetype {arch:?} estimates {e:.1}s against a \
                         {deadline}s deadline; those requests will shed",
                        tenant.name
                    ),
                ));
            }
        }
    }

    // Offered load vs aggregate capacity. Throughput is bounded by the
    // in-flight budget over the mean critical-path service time — a
    // deliberately optimistic bound (no contention), so exceeding it is
    // a guaranteed overload, not a maybe.
    let lambda = process.mean_rate_per_s();
    let weight_sum: f64 = tenants.iter().map(|t| t.weight).sum();
    let mut mean_service = 0.0;
    for (ti, tenant) in tenants.iter().enumerate() {
        let mix_sum: f64 = tenant.mix.weights().iter().map(|&(_, w)| w).sum();
        if mix_sum <= 0.0 || weight_sum <= 0.0 {
            continue;
        }
        for &(arch, w) in tenant.mix.weights() {
            if let Some(e) = est.get(&(ti, arch)) {
                mean_service += (tenant.weight / weight_sum) * (w / mix_sum) * e;
            }
        }
    }
    if lambda > 0.0 && mean_service > 0.0 {
        let capacity_rate = spec.max_inflight as f64 / mean_service;
        let admission = &spec.admission;
        if !admission.enabled && lambda > capacity_rate {
            out.push(
                Diagnostic::warning(
                    codes::OVERLOAD_UNBOUNDED,
                    "mode.OpenLoop.admission.enabled",
                    format!(
                        "offered load {lambda:.3}/s exceeds the ~{capacity_rate:.3}/s \
                         service capacity with admission disabled; the backlog grows \
                         without bound"
                    ),
                )
                .suggest("enable admission control or add capacity"),
            );
        }
        if admission.enabled {
            let admit_cap = admission.rate_per_s.min(capacity_rate);
            if lambda > admit_cap {
                let floor = 1.0 - admit_cap / lambda;
                out.push(Diagnostic::info(
                    codes::SHED_FLOOR,
                    "workload.Traffic.process",
                    format!(
                        "offered load {lambda:.3}/s exceeds the {admit_cap:.3}/s \
                         admission capacity; at least ~{:.0}% of requests will shed",
                        floor * 100.0
                    ),
                ));
            }
        }
    }
    if spec.admission.enabled && spec.admission.burst > spec.admission.max_queue as f64 {
        out.push(
            Diagnostic::warning(
                codes::BURST_EXCEEDS_QUEUE,
                "mode.OpenLoop.admission.burst",
                format!(
                    "token burst {} exceeds the {}-deep bounded queue; bursts the \
                     bucket admits overflow into queue-full rejections",
                    spec.admission.burst, spec.admission.max_queue
                ),
            )
            .suggest("lower burst below max_queue or deepen the queue"),
        );
    }
}

/// Placement and capacity feasibility of a selected route set against
/// one cell of `cell_nodes` nodes of `shape`.
fn capacity_diags(
    routes: &BTreeMap<Capability, RouteSpec>,
    shape: &VmShape,
    cell_nodes: usize,
    requested: ServingMode,
    out: &mut Vec<Diagnostic>,
) {
    let per_node = shape.gpu_count;
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut gpu_demand = 0.0f64;
    for route in routes.values() {
        match route {
            RouteSpec::Endpoint { agent, backend } => {
                if !seen.insert(agent.as_str()) {
                    continue; // endpoints are deduplicated per model
                }
                let path = format!("routes.{agent}");
                let (prefill, decode) = backend.phase_gpus();
                let largest_group = match backend.mode() {
                    ServingMode::Colocated => backend.gpus_total(),
                    ServingMode::Disaggregated => prefill.max(decode),
                };
                if largest_group > per_node {
                    out.push(
                        Diagnostic::warning(
                            codes::NO_PLACEMENT,
                            &path,
                            format!(
                                "endpoint needs a {largest_group}-GPU group but nodes \
                                 have {per_node} GPU(s); no placement fits the model \
                                 plus its KV working set"
                            ),
                        )
                        .suggest("use a larger VM shape or a smaller model"),
                    );
                } else if backend.mode() == ServingMode::Disaggregated
                    && prefill + decode > per_node
                {
                    out.push(Diagnostic::info(
                        codes::DISAGG_CROSS_NODE,
                        &path,
                        format!(
                            "prefill ({prefill}) + decode ({decode}) GPUs exceed one \
                             node's {per_node}; the pair places across nodes and KV \
                             transfers cross the slower interconnect"
                        ),
                    ));
                }
                if requested == ServingMode::Disaggregated
                    && backend.mode() == ServingMode::Colocated
                {
                    out.push(Diagnostic::info(
                        codes::DISAGG_FALLBACK,
                        &path,
                        "disaggregated serving was requested but the GPU budget \
                         cannot hold a prefill/decode pair; falling back to colocated",
                    ));
                }
                gpu_demand += f64::from(backend.gpus_total());
            }
            RouteSpec::Pool { agent, workers } => {
                for w in workers {
                    if w.gpu_units() > f64::from(per_node) {
                        out.push(Diagnostic::warning(
                            codes::NO_PLACEMENT,
                            &format!("routes.{agent}"),
                            format!(
                                "pool worker needs {} GPU(s) but nodes have {per_node}",
                                w.gpu_units()
                            ),
                        ));
                    }
                }
                gpu_demand += workers.iter().map(HardwareTarget::gpu_units).sum::<f64>();
            }
            RouteSpec::External { .. } => {}
        }
    }
    let cell_gpus = f64::from(per_node) * cell_nodes as f64;
    if gpu_demand > cell_gpus {
        out.push(
            Diagnostic::warning(
                codes::CAPACITY_EXCEEDED,
                "cluster",
                format!(
                    "selected routes demand {gpu_demand:.1} GPUs but the \
                     {cell_nodes}-node cell offers {cell_gpus:.0}; placement will \
                     starve or fail outright"
                ),
            )
            .suggest("add nodes, reduce shards or relax the quality floor"),
        );
    }
}
