//! Cluster manager: nodes, placement, autoscaling, telemetry, preemption.
//!
//! The paper's diagnosis (§1, challenge 2) is the "disconnect between
//! workflow orchestration and cluster management (often separately owned)".
//! This crate implements both halves of the fix:
//!
//! - a conventional cluster manager — typed nodes built from
//!   [`murakkab_hardware::VmShape`]s, allocation with pluggable placement
//!   policies, spot preemption, autoscaling with provisioning delay, and
//!   utilization telemetry;
//! - the *workflow-aware* extension (§3.2 "Workflow-Aware Cluster
//!   Management"): [`rebalance::Rebalancer`] consumes DAG lookahead
//!   (upcoming tasks per capability) and recommends moving resources
//!   between agents ahead of demand — the paper's "reallocate GPU
//!   resources from Whisper to Llama in anticipation" example.
//!
//! The manager is passive with respect to time: every mutating call takes
//! the current [`murakkab_sim::SimTime`], so the runtime's event loop stays
//! the single clock owner.

pub mod manager;
pub mod node;
pub mod placement;
pub mod rebalance;
pub mod telemetry;

pub use manager::{Allocation, AllocationId, ClusterManager, PairedAllocation};
pub use node::{Node, NodeId};
pub use placement::PlacementPolicy;
pub use rebalance::{EndpointView, RebalanceAction, Rebalancer, Upcoming};
pub use telemetry::ResourceStats;
