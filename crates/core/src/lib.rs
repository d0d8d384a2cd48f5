//! Murakkab: an adaptive runtime for resource-efficient Compound AI
//! Systems.
//!
//! This is the paper's primary contribution, assembled from the substrate
//! crates:
//!
//! - [`scenario`] — the declarative front door: a typed, serde-
//!   round-trippable [`Scenario`] (workload source + execution mode +
//!   shared knobs) executed by a [`Session`] through one shared
//!   plan → expand → select → engine pipeline, returning a unified
//!   [`Report`];
//! - [`mod@analyze`] — static preflight analysis: typed diagnostics over a
//!   [`Scenario`] without executing it (DAG, capacity, SLO and load
//!   feasibility), gated into [`Session::execute`] by
//!   [`PreflightMode`];
//! - [`workloads`] — seeded synthetic workloads and the data-driven
//!   [`WorkloadCatalog`] scenarios select them from by name, including
//!   the paper's Video Understanding evaluation (two videos, sixteen
//!   scenes) plus the newsfeed, chain-of-thought and document-QA jobs
//!   the vision motivates;
//! - [`engine`] — the discrete-event execution engine that runs a task
//!   graph against the cluster manager, worker pools and LLM endpoints;
//! - [`runtime`] — the Murakkab runtime: decompose → expand → select
//!   configs → execute adaptively, with the orchestrator and cluster
//!   manager exchanging telemetry;
//! - [`fleet`] — the open-loop serving machinery behind
//!   [`ExecutionMode::OpenLoop`](scenario::ExecutionMode): an arriving
//!   request stream (`murakkab_traffic`) admitted into sharded
//!   long-running engine cells, reported per SLO class;
//! - [`mod@geo`] — multi-region federation over the fleet layer:
//!   geo-routed regional fleets under a WAN cost model with elastic
//!   spot capacity, behind [`Scenario::geo`](scenario::Scenario::geo);
//! - [`baseline`] — the imperative (Listing 1 / OmAgent-style) executor:
//!   fixed agents, fixed resources, fully serialized execution;
//! - [`report`] — run reports: makespan, energy (both scopes), cost,
//!   traces and utilization curves, plus table/figure rendering;
//! - [`ablation`] — lever sweeps behind the Table 1 bench.
//!
//! # Examples
//!
//! ```no_run
//! use murakkab::{Scenario, SttChoice};
//!
//! let scenario = Scenario::closed_loop("murakkab-gpu").stt(SttChoice::Gpu);
//! let report = scenario.run().unwrap();
//! println!("{}", report.summary_line());
//! ```

pub mod ablation;
pub mod analyze;
pub mod baseline;
pub mod capture;
pub mod engine;
pub mod fleet;
pub mod geo;
pub mod report;
pub mod runtime;
pub mod scenario;
pub mod workloads;

pub use analyze::{analyze, AnalysisReport, Diagnostic, Severity};
pub use baseline::run_baseline_video_understanding;
pub use capture::{RequestOutcome, RequestRecord, RunCapture, StealRecord};
pub use fleet::{CellPolicy, FleetCellReport, FleetReport};
pub use geo::{GeoRegionReport, GeoReport};
pub use murakkab_geo::{ElasticSpec, GeoPolicy, GeoSpec, RegionSpec, WanModel};
pub use murakkab_llmsim::{BackendSpec, ServingBackend, ServingMode};
pub use report::RunReport;
pub use runtime::{Runtime, SttChoice};
pub use scenario::{
    CatalogRef, ClusterSpec, ExecutionMode, OpenLoopSpec, PreflightMode, Report, ReportCore,
    ReportDetail, Scenario, Session, WorkloadSource,
};
pub use workloads::{WorkloadCatalog, WorkloadEntry, WorkloadParams};
