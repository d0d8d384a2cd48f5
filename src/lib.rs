//! Reproduction harness for *Towards Resource-Efficient Compound AI
//! Systems* (Murakkab, HotOS'25).
//!
//! This crate exists to host the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`); the implementation
//! lives in the `crates/` workspace members. It re-exports the public
//! surface so examples and tests read naturally.

pub use murakkab::{
    ablation, baseline, engine, report, runtime, scenario, workloads, Report, RunReport, Runtime,
    Scenario, ServingMode, Session, SttChoice, WorkloadCatalog,
};

/// The seed used for all committed experiment outputs.
pub const EXPERIMENT_SEED: u64 = 42;

/// Paper reference values for Table 2 rows, re-exported for tests.
pub const PAPER_TABLE2: [(&str, f64, f64); 4] = [
    ("Baseline", 155.0, 285.0),
    ("Murakkab CPU", 34.0, 83.0),
    ("Murakkab GPU", 43.0, 77.0),
    ("Murakkab GPU + CPU", 42.0, 77.0),
];
