//! Counterfactual replay: the captured traffic against a modified
//! system.
//!
//! [`WhatIf`] names the knobs a counterfactual may swap (serving
//! backend, shard count, router, cluster size, in-flight budget,
//! admission config). [`WhatIf::apply`] pins the trace's captured
//! arrival instants as a replay log inside the embedded scenario and
//! applies the modifications; [`whatif`] runs the result and diffs it
//! against the trace's baseline.
//!
//! Pinning the arrivals is what makes the comparison controlled: the
//! serve pipeline draws tenant attribution and archetypes per arrival
//! index from independently forked streams, so replaying the same
//! instants under the same seed and tenant set reproduces the
//! *identical* request stream — only the system under test changes.

use serde::{Deserialize, Serialize};

use murakkab::scenario::WorkloadSource;
use murakkab::{CellPolicy, GeoSpec, Report, Scenario, ServingMode};
use murakkab_sim::SimError;
use murakkab_traffic::{AdmissionConfig, ArrivalProcess};

use crate::diff::TraceDiff;
use crate::RunTrace;

/// A named set of scenario modifications for a counterfactual replay;
/// unset knobs keep the captured scenario's values.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WhatIf {
    /// Label suffix for the counterfactual run.
    pub label: String,
    /// Swap the serving regime.
    pub serving: Option<ServingMode>,
    /// Swap the engine-cell count.
    pub shards: Option<usize>,
    /// Swap the cell-routing policy.
    pub router: Option<CellPolicy>,
    /// Swap the cluster node count.
    pub nodes: Option<usize>,
    /// Swap the fleet-wide in-flight budget.
    pub max_inflight: Option<usize>,
    /// Swap the admission configuration.
    pub admission: Option<AdmissionConfig>,
    /// Federate the replay across regions: the captured traffic
    /// re-served by a multi-region fleet under a WAN model.
    pub geo: Option<GeoSpec>,
}

impl WhatIf {
    /// An empty modification set with the given label.
    pub fn named(label: &str) -> Self {
        WhatIf {
            label: label.into(),
            ..WhatIf::default()
        }
    }

    /// Swaps the serving regime.
    #[must_use]
    pub fn serving(mut self, mode: ServingMode) -> Self {
        self.serving = Some(mode);
        self
    }

    /// Swaps the engine-cell count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Swaps the cell-routing policy.
    #[must_use]
    pub fn router(mut self, policy: CellPolicy) -> Self {
        self.router = Some(policy);
        self
    }

    /// Swaps the cluster node count.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Swaps the fleet-wide in-flight budget.
    #[must_use]
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = Some(n);
        self
    }

    /// Swaps the admission configuration.
    #[must_use]
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(cfg);
        self
    }

    /// Federates the counterfactual across `spec`'s regions. The
    /// cluster is resized to the spec's footprint (every region's
    /// on-demand nodes, plus spot nodes when elastic capacity is on),
    /// so the comparison is capacity-explicit: the diff answers "what
    /// if this traffic had been served by this global fleet".
    #[must_use]
    pub fn geo(mut self, spec: GeoSpec) -> Self {
        self.geo = Some(spec);
        self
    }

    /// Builds the counterfactual scenario: the trace's scenario with
    /// its arrival process pinned to the captured instants and these
    /// modifications applied.
    ///
    /// # Errors
    ///
    /// Trace validation errors, plus [`SimError::InvalidInput`] when
    /// the modified scenario fails validation (e.g. more shards than
    /// nodes).
    pub fn apply(&self, trace: &RunTrace) -> Result<Scenario, SimError> {
        trace.validate()?;
        let label = if self.label.is_empty() {
            format!("{}+whatif", trace.scenario.label)
        } else {
            format!("{}+{}", trace.scenario.label, self.label)
        };
        let mut scenario = trace.scenario.clone().labeled(&label);
        if let WorkloadSource::Traffic { process, .. } = &mut scenario.workload {
            *process = ArrivalProcess::Replay {
                log: trace.arrival_log(),
            };
        }
        if let Some(mode) = self.serving {
            scenario = scenario.serving(mode);
        }
        if let Some(shards) = self.shards {
            scenario = scenario.shards(shards);
        }
        if let Some(policy) = self.router {
            scenario = scenario.router(policy);
        }
        if let Some(n) = self.max_inflight {
            scenario = scenario.max_inflight(n);
        }
        if let Some(cfg) = &self.admission {
            scenario = scenario.admission(cfg.clone());
        }
        if let Some(nodes) = self.nodes {
            scenario.cluster.nodes = nodes;
        }
        if let Some(spec) = &self.geo {
            let spot: usize = spec.regions.iter().map(|r| r.spot_nodes).sum();
            scenario.cluster.nodes =
                spec.total_nodes() + if spec.elastic.is_some() { spot } else { 0 };
            scenario = scenario.geo(spec.clone());
        }
        scenario.validate()?;
        Ok(scenario)
    }
}

/// A counterfactual study's full output: both reports and their diff.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// The baseline run (the trace's embedded report, or a fresh
    /// replay when the trace carried none).
    pub baseline: Report,
    /// The counterfactual run.
    pub variant: Report,
    /// The typed comparison.
    pub diff: TraceDiff,
}

/// Replays `trace`'s captured traffic against the scenario modified by
/// `mods` and diffs the outcome against the trace's baseline.
///
/// # Errors
///
/// Trace validation, scenario validation and execution errors.
pub fn whatif(trace: &RunTrace, mods: &WhatIf) -> Result<WhatIfReport, SimError> {
    let baseline = match &trace.baseline {
        Some(report) => report.clone(),
        None => trace.replay()?,
    };
    let variant = mods.apply(trace)?.run()?;
    let diff = TraceDiff::between(&baseline, &variant)?;
    Ok(WhatIfReport {
        baseline,
        variant,
        diff,
    })
}
