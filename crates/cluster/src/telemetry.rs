//! Telemetry the cluster manager shares with the orchestrator.
//!
//! §3.2: "The Workflow Orchestrator continuously receives stats from the
//! Cluster Manager including idle resources, per-model or tool resource
//! consumption and any harvestable resources."

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use murakkab_sim::SimTime;

/// A point-in-time snapshot of cluster capacity and usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceStats {
    /// Snapshot time.
    pub at: SimTime,
    /// Total GPU units on up nodes.
    pub gpus_total: f64,
    /// Free GPU units.
    pub gpus_free: f64,
    /// Total CPU cores on up nodes.
    pub cores_total: f64,
    /// Free CPU cores.
    pub cores_free: f64,
    /// Reserved GPU units per allocation label (per-model consumption).
    pub gpu_units_by_label: BTreeMap<String, f64>,
    /// Up node count.
    pub nodes_up: usize,
    /// Nodes still provisioning.
    pub nodes_pending: usize,
}
