//! Per-request run capture: the raw event records behind the trace
//! subsystem.
//!
//! An open-loop serve run is more than its [`FleetReport`](crate::fleet::FleetReport)
//! aggregate: every request arrives, is routed to a region and a cell,
//! passes (or fails) the admission gates, produces its first token,
//! completes — and queued work occasionally migrates between cells.
//! [`RunCapture`] records those per-request events while
//! [`Session::execute_captured`](crate::scenario::Session::execute_captured)
//! runs the scenario, in every serving mode (one region or a geo
//! federation), so a *run* becomes a durable, transformable artifact
//! instead of a transient aggregate. The `murakkab_trace` crate
//! packages a capture together with its scenario and report into a
//! versioned [`RunTrace`], with bit-identical replay, counterfactual
//! what-if replay and trace transforms on top.
//!
//! Each serving region records into its own `CaptureShard`, a field
//! of the region the serve loop already steps, so a region stepped on a
//! worker thread captures without sharing state. `settle` merges the
//! shards once the run ends. Capture is observation only: recording
//! touches no scheduling state, so a captured run and an uncaptured run
//! of the same scenario produce bit-identical reports.
//!
//! [`RunTrace`]: https://docs.rs/murakkab_trace

use serde::{Deserialize, Serialize};

use murakkab_traffic::{AdmissionDecision, Archetype};

use crate::fleet::PlannedRequest;

/// What happened to one captured request after it arrived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// The admission front door's verdict at the arrival instant.
    pub verdict: AdmissionDecision,
    /// Region that routed the request (always written by capture;
    /// `None` on version-1 traces, which means region 0).
    pub region: Option<usize>,
    /// Engine cell of that region the router assigned the request to
    /// (admitted requests only).
    pub cell: Option<usize>,
    /// Simulated instant the request's first token-producing LLM task
    /// delivered its first token, seconds (absolute; `None` when the
    /// workflow ran no token work or never completed any).
    pub first_token_s: Option<f64>,
    /// Simulated instant the workflow completed, seconds (absolute;
    /// `None` for rejected requests).
    pub completed_s: Option<f64>,
    /// Whether the end-to-end latency met the request's SLO-class
    /// deadline (`None` until completion).
    pub slo_met: Option<bool>,
}

/// One request in a captured run: the arrival-side facts every replay
/// preserves, plus the outcome observed during this run (absent on
/// transformed or synthesized traces, which have not executed yet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Stream-unique id (arrival order; `id == index` in the capture).
    pub id: u64,
    /// Arrival instant, seconds.
    pub at_s: f64,
    /// Submitting tenant.
    pub tenant: String,
    /// Drawn workload archetype.
    pub archetype: Archetype,
    /// SLO-class name the request was admitted under.
    pub class: String,
    /// What this run did with the request (`None` on traces that were
    /// transformed or synthesized but not yet executed).
    pub outcome: Option<RequestOutcome>,
}

/// One queued workflow migrated between cells by the periodic
/// work-stealing pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StealRecord {
    /// Simulated instant of the migration pass, seconds.
    pub at_s: f64,
    /// The moved request.
    pub request_id: u64,
    /// Region whose cells the workflow moved between (always written
    /// by capture; `None` on version-1 traces, which means region 0).
    pub region: Option<usize>,
    /// Cell the workflow was queued on (the hot cell).
    pub from_cell: usize,
    /// Cell it was moved to (the cold cell).
    pub to_cell: usize,
}

/// Everything captured from one open-loop serve run: a record per
/// arrival (in arrival order) and a record per inter-cell steal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunCapture {
    /// Per-request records, in arrival (= id) order.
    pub requests: Vec<RequestRecord>,
    /// Inter-cell work-stealing events, in event order.
    pub steals: Vec<StealRecord>,
}

/// One region's share of a capture: the outcome of every request the
/// region routed (indexed by planned request, `None` for requests
/// served elsewhere) and its steal records in event order.
pub(crate) struct CaptureShard {
    pub(crate) region: usize,
    pub(crate) outcomes: Vec<Option<RequestOutcome>>,
    pub(crate) steals: Vec<StealRecord>,
}

impl CaptureShard {
    /// An empty shard for region `region` of a run of `requests`.
    pub(crate) fn new(region: usize, requests: usize) -> Self {
        CaptureShard {
            region,
            outcomes: vec![None; requests],
            steals: Vec::new(),
        }
    }
}

/// Builds the run's capture from every region's shard: the
/// arrival-side fields come from `planned` (record index == planned
/// index == request id), each request takes its one outcome, and the
/// steals are concatenated in region-index order and then stably
/// sorted by instant — exactly the order a sequential loop emits them.
pub(crate) fn settle(planned: &[PlannedRequest], mut shards: Vec<CaptureShard>) -> RunCapture {
    let requests = planned
        .iter()
        .enumerate()
        .map(|(i, p)| RequestRecord {
            id: p.req.id,
            at_s: p.req.at.as_secs_f64(),
            tenant: p.req.tenant.clone(),
            archetype: p.req.archetype,
            class: p.req.class.name.clone(),
            outcome: shards.iter_mut().find_map(|s| s.outcomes[i].take()),
        })
        .collect();
    let mut steals: Vec<StealRecord> = shards.into_iter().flat_map(|s| s.steals).collect();
    steals.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    RunCapture { requests, steals }
}
