//! Run-trace capture, replay and counterfactual what-if studies.
//!
//! A [`RunTrace`] turns one open-loop serve run into a durable,
//! versioned, JSON-serializable artifact: the scenario that produced
//! it, the per-request event records
//! ([`RequestRecord`]: arrival instant,
//! tenant, SLO class, admission verdict, serving region and cell,
//! first-token and completion timestamps), the inter-cell steal
//! events, and the report digest the run produced. Any open-loop run
//! captures, single-region or geo-federated. Three things fall out:
//!
//! - **Bit-identical replay** ([`RunTrace::replay`] /
//!   [`RunTrace::verify_replay`]): the embedded scenario re-executes to
//!   the exact same [`Report::digest`] — the trace proves what it
//!   claims.
//! - **Counterfactual replay** ([`whatif`]): the captured arrival
//!   stream, pinned as an [`ArrivalLog`], re-runs against a *modified*
//!   scenario (serving backend, shard count, router, admission,
//!   cluster size swapped via [`WhatIf`]), and a typed [`TraceDiff`]
//!   quantifies the per-class SLO/goodput/latency-percentile deltas.
//! - **Trace transforms** ([`TraceTransform`]): time-warp, load
//!   scaling and tenant remixing rewrite the arrival stream
//!   declaratively, and [`synthesize`] stamps out large synthetic
//!   diurnal traces (a million-request day is one [`SynthSpec`]).
//!
//! The determinism contract doing the heavy lifting: the serve
//! pipeline draws arrivals, tenant attribution and archetype draws
//! from independently forked streams, and per-arrival-index draws are
//! identical whenever the arrival count matches. Pinning the captured
//! instants as a replay log therefore reproduces the *identical*
//! request stream under any scenario modification that keeps the seed
//! and tenant set — which is exactly what a controlled counterfactual
//! needs.
//!
//! ```no_run
//! use murakkab_trace::{RunTrace, WhatIf};
//!
//! let scenario = murakkab::Scenario::open_loop(
//!     "overload",
//!     murakkab_traffic::ArrivalProcess::Poisson { rate_per_s: 0.4 },
//!     600.0,
//! );
//! let trace = RunTrace::capture(&scenario).unwrap();
//! trace.verify_replay().unwrap(); // bit-identical digest
//! let report = murakkab_trace::whatif(
//!     &trace,
//!     &WhatIf::named("disagg").serving(murakkab::ServingMode::Disaggregated),
//! )
//! .unwrap();
//! println!("{}", report.diff.render_human());
//! ```

use serde::{Deserialize, Serialize};

use murakkab::scenario::{ExecutionMode, WorkloadSource};
use murakkab::{Report, RequestRecord, Scenario, Session, StealRecord};
use murakkab_sim::SimError;
use murakkab_traffic::{AdmissionDecision, ArrivalLog};

pub mod cli;
mod diff;
mod transform;
mod whatif;

pub use cli::run_cli;
pub use diff::{ClassDiff, CountDelta, Delta, TraceDiff};
pub use transform::{synthesize, SynthSpec, TraceTransform};
pub use whatif::{whatif, WhatIf, WhatIfReport};

/// The trace schema version this build writes. Version 2 records the
/// serving region on every request outcome and steal; version-1
/// traces, which carry no region (region 0), still read.
pub const TRACE_VERSION: u32 = 2;

/// One serve run as a durable artifact: the scenario, the per-request
/// event records, the steal events, and (for executed traces) the
/// baseline report and its digest.
///
/// Build one with [`RunTrace::capture`], a [`TraceTransform`], or
/// [`synthesize`]; persist with [`RunTrace::to_json`] /
/// [`RunTrace::write_json_file`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunTrace {
    /// Schema version ([`TRACE_VERSION`]).
    pub version: u32,
    /// The scenario that produced (or will produce) this trace.
    pub scenario: Scenario,
    /// [`Report::digest`] of the capturing run (`None` on transformed
    /// or synthesized traces, which have not executed yet).
    pub digest: Option<u64>,
    /// The capturing run's full report (`None` until executed).
    pub baseline: Option<Report>,
    /// Per-request records in arrival order (`id == index`).
    pub requests: Vec<RequestRecord>,
    /// Inter-cell work-stealing events, in event order.
    pub steals: Vec<StealRecord>,
}

impl RunTrace {
    /// Executes the scenario with capture enabled and packages the
    /// result (see [`Session::execute_captured`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] for closed-loop scenarios, plus
    /// everything scenario execution can return.
    pub fn capture(scenario: &Scenario) -> Result<Self, SimError> {
        Self::capture_with(&Session::new(scenario)?, scenario)
    }

    /// [`capture`](Self::capture) against an existing session (reuses
    /// its profiled agent library across several captures).
    ///
    /// # Errors
    ///
    /// As [`capture`](Self::capture).
    pub fn capture_with(session: &Session, scenario: &Scenario) -> Result<Self, SimError> {
        let (report, capture) = session.execute_captured(scenario)?;
        Ok(RunTrace {
            version: TRACE_VERSION,
            scenario: scenario.clone(),
            digest: Some(report.digest()),
            baseline: Some(report),
            requests: capture.requests,
            steals: capture.steals,
        })
    }

    /// The captured arrival instants as a replayable [`ArrivalLog`] —
    /// the interop point with `murakkab_traffic`'s trace-driven
    /// arrival mode.
    pub fn arrival_log(&self) -> ArrivalLog {
        let secs: Vec<f64> = self.requests.iter().map(|r| r.at_s).collect();
        ArrivalLog::from_secs(&secs)
    }

    /// Re-executes the embedded scenario (after
    /// [`validate`](Self::validate)) and returns the fresh report.
    ///
    /// # Errors
    ///
    /// Validation plus scenario execution errors.
    pub fn replay(&self) -> Result<Report, SimError> {
        self.validate()?;
        self.scenario.run()
    }

    /// [`replay`](Self::replay), then checks the fresh report digest
    /// against the trace's recorded digest — the bit-identical-replay
    /// contract.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] on a digest mismatch (the trace does
    /// not reproduce), [`SimError::InvalidInput`] when the trace never
    /// executed (no recorded digest), plus replay errors.
    pub fn verify_replay(&self) -> Result<Report, SimError> {
        let Some(expected) = self.digest else {
            return Err(SimError::InvalidInput(
                "trace has no recorded digest to verify against (not yet executed)".into(),
            ));
        };
        let report = self.replay()?;
        let got = report.digest();
        if got != expected {
            return Err(SimError::InvalidState(format!(
                "replay digest {got:#018x} does not match the trace's recorded {expected:#018x}"
            )));
        }
        Ok(report)
    }

    /// Validates the trace: schema version, scenario shape (open-loop
    /// traffic source), record ordering and field sanity.
    ///
    /// The analyzer-style rules, each a typed
    /// [`SimError::InvalidInput`]:
    ///
    /// - the version must be 1 or [`TRACE_VERSION`];
    /// - the scenario must validate, be open-loop and carry a traffic
    ///   source;
    /// - request ids must equal their index (arrival order), arrival
    ///   instants must be finite, non-negative and non-decreasing;
    /// - outcome timestamps must be finite and causally ordered
    ///   (arrival ≤ first token ≤ completion), regions within the
    ///   scenario's, cell assignments only on admitted requests and
    ///   within their region's cell count, `slo_met` only on completed
    ///   requests;
    /// - steal events must be finite, time-ordered, reference a
    ///   captured request, stay in the region that routed it and move
    ///   between two distinct cells of that region;
    /// - a recorded digest must match the embedded baseline report's.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |msg: String| Err(SimError::InvalidInput(msg));
        if !(1..=TRACE_VERSION).contains(&self.version) {
            return fail(format!(
                "trace version {} is not supported (this build reads versions 1 to {TRACE_VERSION})",
                self.version
            ));
        }
        self.scenario.validate()?;
        let ExecutionMode::OpenLoop(spec) = &self.scenario.mode else {
            return fail("trace scenario must be open-loop".into());
        };
        if !matches!(self.scenario.workload, WorkloadSource::Traffic { .. }) {
            return fail("trace scenario must carry a traffic workload source".into());
        }
        // Engine cells per region: the shards of a single-region run, or
        // each federated region's on-demand plus spot cells.
        let region_cells: Vec<usize> = match &self.scenario.geo {
            None => vec![spec.shards],
            Some(geo) => geo
                .regions
                .iter()
                .map(|r| {
                    r.shards
                        + if geo.elastic.is_some() {
                            r.spot_slots()
                        } else {
                            0
                        }
                })
                .collect(),
        };
        let cells_of = |what: &str, i: usize, region: Option<usize>| {
            let r = region.unwrap_or(0);
            region_cells.get(r).copied().ok_or_else(|| {
                SimError::InvalidInput(format!(
                    "{what} {i} names region {r}, but the scenario has {} region(s)",
                    region_cells.len()
                ))
            })
        };
        let mut prev_at = 0.0_f64;
        for (i, r) in self.requests.iter().enumerate() {
            if r.id != i as u64 {
                return fail(format!(
                    "request record {i} has id {} (ids must equal arrival order)",
                    r.id
                ));
            }
            if !r.at_s.is_finite() || r.at_s < 0.0 {
                return fail(format!("request {i} arrival instant {} is invalid", r.at_s));
            }
            if r.at_s < prev_at {
                return fail(format!(
                    "request {i} arrives at {}s, before its predecessor at {prev_at}s \
                     (arrivals must be non-decreasing)",
                    r.at_s
                ));
            }
            prev_at = r.at_s;
            let Some(o) = &r.outcome else { continue };
            let admitted = o.verdict == AdmissionDecision::Admitted;
            let cells = cells_of("request", i, o.region)?;
            match o.cell {
                Some(c) if !admitted => {
                    return fail(format!("request {i} was rejected but assigned to cell {c}"));
                }
                Some(c) if c >= cells => {
                    return fail(format!(
                        "request {i} assigned to cell {c}, but its region has {cells} cell(s)"
                    ));
                }
                _ => {}
            }
            for (name, v) in [
                ("first-token", o.first_token_s),
                ("completion", o.completed_s),
            ] {
                if let Some(v) = v {
                    if !v.is_finite() || v < r.at_s {
                        return fail(format!(
                            "request {i} {name} instant {v} precedes its arrival at {}s \
                             (or is not finite)",
                            r.at_s
                        ));
                    }
                    if !admitted {
                        return fail(format!(
                            "request {i} was rejected but records a {name} instant"
                        ));
                    }
                }
            }
            if let (Some(ft), Some(done)) = (o.first_token_s, o.completed_s) {
                if ft > done {
                    return fail(format!(
                        "request {i} first token at {ft}s is after its completion at {done}s"
                    ));
                }
            }
            if o.slo_met.is_some() && o.completed_s.is_none() {
                return fail(format!(
                    "request {i} records an SLO verdict without a completion instant"
                ));
            }
        }
        let mut prev_steal = 0.0_f64;
        for (i, s) in self.steals.iter().enumerate() {
            if !s.at_s.is_finite() || s.at_s < prev_steal {
                return fail(format!(
                    "steal {i} at {}s is not finite or precedes the previous steal at {prev_steal}s",
                    s.at_s
                ));
            }
            prev_steal = s.at_s;
            if s.request_id >= self.requests.len() as u64 {
                return fail(format!(
                    "steal {i} references request {}, but the trace has {} request(s)",
                    s.request_id,
                    self.requests.len()
                ));
            }
            let cells = cells_of("steal", i, s.region)?;
            if s.from_cell == s.to_cell || s.from_cell >= cells || s.to_cell >= cells {
                return fail(format!(
                    "steal {i} moves cell {} → {}, invalid for its region's {cells} cell(s)",
                    s.from_cell, s.to_cell
                ));
            }
            if let Some(o) = &self.requests[s.request_id as usize].outcome {
                let (routed, stolen) = (o.region.unwrap_or(0), s.region.unwrap_or(0));
                if routed != stolen {
                    return fail(format!(
                        "steal {i} moves request {} in region {stolen}, but region {routed} \
                         routed it",
                        s.request_id
                    ));
                }
            }
        }
        if let (Some(digest), Some(baseline)) = (self.digest, &self.baseline) {
            let actual = baseline.digest();
            if digest != actual {
                return fail(format!(
                    "trace digest {digest:#018x} does not match its embedded baseline \
                     report ({actual:#018x})"
                ));
            }
        }
        Ok(())
    }

    /// One-line summary (label, request count, outcome counts).
    pub fn summary_line(&self) -> String {
        let executed: u64 = self.requests.iter().filter(|r| r.outcome.is_some()).count() as u64;
        let completed: u64 = self
            .requests
            .iter()
            .filter(|r| r.outcome.as_ref().is_some_and(|o| o.completed_s.is_some()))
            .count() as u64;
        format!(
            "{:<26} {:>7} requests  {:>7} executed  {:>7} completed  {:>4} steals  digest {}",
            self.scenario.label,
            self.requests.len(),
            executed,
            completed,
            self.steals.len(),
            self.digest
                .map_or_else(|| "-".to_string(), |d| format!("{d:#018x}")),
        )
    }

    /// Serializes the trace to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on a serialization failure.
    pub fn to_json(&self) -> Result<String, SimError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| SimError::InvalidInput(format!("trace JSON: {e}")))
    }

    /// Parses a trace from JSON and validates it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on malformed JSON or an invalid
    /// trace (see [`validate`](Self::validate)).
    pub fn from_json(json: &str) -> Result<Self, SimError> {
        let trace: RunTrace = serde_json::from_str(json)
            .map_err(|e| SimError::InvalidInput(format!("trace JSON: {e}")))?;
        trace.validate()?;
        Ok(trace)
    }

    /// Loads and validates a trace from a JSON file.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on IO, parse or validation failure.
    pub fn from_json_file(path: impl AsRef<std::path::Path>) -> Result<Self, SimError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| {
            SimError::InvalidInput(format!("reading trace {}: {e}", path.display()))
        })?;
        Self::from_json(&json)
    }

    /// Writes the trace to a JSON file.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidInput`] on serialization or IO failure.
    pub fn write_json_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), SimError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()?)
            .map_err(|e| SimError::InvalidInput(format!("writing trace {}: {e}", path.display())))
    }
}
