//! The four workloads: how the driver generates each one's inputs from
//! the seed, and what one rep does with them.
//!
//! An untraced rep makes exactly the public calls a user makes (the
//! `trace` CLI or a `Session` caller), so a later change inside any of
//! them shows up in the end-to-end numbers. A traced rep makes the same
//! calls split at their public parts (`from_json_file` becomes read +
//! parse + validate, `verify_replay` becomes validate + `Session::new` +
//! `execute` + digest), so each layer is timed from outside at its own
//! boundary.

use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use murakkab::fleet::fleet_job;
use murakkab::scenario::{ExecutionMode, WorkloadSource};
use murakkab::{CellPolicy, GeoPolicy, GeoSpec, Report, Scenario, Session};
use murakkab_orchestrator::{expand, Planner};
use murakkab_sim::{SimDuration, SimError, SimRng};
use murakkab_trace::{synthesize, RunTrace, SynthSpec, TRACE_VERSION};
use murakkab_traffic::{AdmissionConfig, ArrivalLog, ArrivalProcess, TrafficSpec};

use crate::probe::{self, Span, Tracer};

// Every workload offers an exact request count at every seed (see
// `first_arrivals`), so the work per rep barely varies with the seed.
// The sizes keep a rep under a second on a 2-core VM, so a run collects
// enough reps for a steady median.

/// Requests in `replay_day`'s captured day. The parser is quadratic in
/// string bytes today, so this sets the rep length.
const REPLAY_REQUESTS: usize = 1_000;
/// Requests in `capture_day`'s day.
const CAPTURE_REQUESTS: usize = 4_000;
/// Requests in `sharded_overload`, at 0.8 req/s.
const SHARDED_REQUESTS: usize = 4_500;
/// `sharded_overload`'s arrival horizon, seconds (5 600 expected
/// arrivals, comfortably above the count kept).
const SHARDED_HORIZON_S: f64 = 7_000.0;
/// Requests in `geo_federation`, at 2 req/s.
const GEO_REQUESTS: usize = 6_000;
/// `geo_federation`'s arrival horizon, seconds (7 000 expected).
const GEO_HORIZON_S: f64 = 3_500.0;
/// `geo_federation`'s compressed model day, seconds.
const GEO_DAY_S: f64 = 600.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `trace replay` of a captured diurnal day.
    ReplayDay,
    /// `trace capture` of a diurnal day scenario.
    CaptureDay,
    /// A sharded, threaded fleet past its knee.
    ShardedOverload,
    /// A three-region federation.
    GeoFederation,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ReplayDay,
        Workload::CaptureDay,
        Workload::ShardedOverload,
        Workload::GeoFederation,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayDay => "replay_day",
            Workload::CaptureDay => "capture_day",
            Workload::ShardedOverload => "sharded_overload",
            Workload::GeoFederation => "geo_federation",
        }
    }

    /// The workload with this name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a rep steps cells on more than one thread (`threads(2)`).
    pub fn threaded(self) -> bool {
        matches!(self, Workload::ShardedOverload | Workload::GeoFederation)
    }

    fn input_file(self) -> &'static str {
        match self {
            Workload::ReplayDay => "trace.json",
            _ => "scenario.json",
        }
    }

    /// Writes the workload's inputs for `seed` into `dir`: a captured
    /// trace for `replay_day`, a scenario for the others.
    pub fn generate(self, seed: u64, dir: &Path) -> Result<(), SimError> {
        let path = dir.join(self.input_file());
        let scenario = match self {
            Workload::ReplayDay => {
                let day = diurnal_day(self, seed, REPLAY_REQUESTS)?;
                return RunTrace::capture(&day)?.write_json_file(path);
            }
            Workload::CaptureDay => diurnal_day(self, seed, CAPTURE_REQUESTS)?,
            Workload::ShardedOverload => first_arrivals(sharded_overload(seed), SHARDED_REQUESTS)?,
            Workload::GeoFederation => first_arrivals(geo_federation(seed), GEO_REQUESTS)?,
        };
        write(&path, &scenario.to_json()?)
    }

    /// Runs one rep against the inputs in `input`, writing its output
    /// artifact into `out`. `t0` is the start of the timed section.
    fn rep(self, input: &Path, out: &Path, tr: &mut Tracer, t0: Instant) -> Result<Done, SimError> {
        let path = input.join(self.input_file());
        match self {
            Workload::ReplayDay => replay(&path, out, tr, t0),
            Workload::CaptureDay => capture(&path, out, tr, t0),
            Workload::ShardedOverload | Workload::GeoFederation => execute(&path, out, tr, t0),
        }
    }
}

/// The first `requests` arrivals of a synthetic diurnal day (86 400 s,
/// 4× noon peak, stock tenants, the two-node testbed, one cell). The day
/// is synthesized with a fifth more requests in expectation, so the
/// kept arrivals span most of it.
fn diurnal_day(w: Workload, seed: u64, requests: usize) -> Result<Scenario, SimError> {
    let spec = SynthSpec {
        label: w.name().into(),
        seed,
        requests: requests as u64 * 6 / 5,
        ..SynthSpec::default()
    };
    first_arrivals(synthesize(&spec)?.scenario, requests)
}

/// Pins the first `n` arrivals of the scenario's process as its replay
/// log. They are drawn on the serve pipeline's own fork path, so they are
/// exactly the arrivals the unpinned scenario serves first, with the
/// same tenants and archetypes.
fn first_arrivals(mut scenario: Scenario, n: usize) -> Result<Scenario, SimError> {
    let (ExecutionMode::OpenLoop(spec), WorkloadSource::Traffic { process, .. }) =
        (&scenario.mode, &mut scenario.workload)
    else {
        unreachable!("every workload is an open-loop traffic scenario");
    };
    let mut rng = SimRng::new(scenario.seed).fork("fleet").fork("arrivals");
    let times = process.generate(&mut rng, SimDuration::from_secs_f64(spec.horizon_s));
    if times.len() < n {
        return Err(SimError::InvalidInput(format!(
            "{} drew {} arrivals, fewer than the {n} it needs",
            scenario.label,
            times.len()
        )));
    }
    *process = ArrivalProcess::Replay {
        log: ArrivalLog::from_times(times[..n].to_vec()),
    };
    Ok(scenario)
}

/// Poisson 0.8 req/s on 16 nodes in 4 cells stepped by 2 threads,
/// admission off, wide workflows: an event-dense fleet loop that opens
/// a thread scope at every epoch.
fn sharded_overload(seed: u64) -> Scenario {
    Scenario::open_loop(
        Workload::ShardedOverload.name(),
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        SHARDED_HORIZON_S,
    )
    .seed(seed)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), 16)
    .shards(4)
    .router(CellPolicy::LeastLoaded)
    .max_inflight(64)
    .parallelism(24)
    .admission(AdmissionConfig::disabled())
    .threads(2)
}

/// Three regions of 6 nodes in 3 cells plus 2 spot nodes, routed by
/// latency weight on a 600 s model day with WAN round trips scaled by
/// the same 144× compression, Poisson 2 req/s, two region threads.
fn geo_federation(seed: u64) -> Scenario {
    let mut spec = GeoSpec::three_region(6, 3, 2)
        .policy(GeoPolicy::LatencyWeighted)
        .day_s(GEO_DAY_S)
        .sync_epoch_s(20.0);
    for row in &mut spec.wan.rtt_ms {
        for v in row.iter_mut() {
            *v *= 86_400.0 / GEO_DAY_S;
        }
    }
    let nodes = spec.regions.iter().map(|r| r.nodes + r.spot_nodes).sum();
    Scenario::open_loop(
        Workload::GeoFederation.name(),
        ArrivalProcess::Poisson { rate_per_s: 2.0 },
        GEO_HORIZON_S,
    )
    .seed(seed)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), nodes)
    .admission(AdmissionConfig {
        rate_per_s: 2.5,
        max_queue: 64,
        ..Default::default()
    })
    .threads(2)
    .geo(spec)
}

/// What a rep leaves behind for the checks and the layer metrics.
struct Done {
    setup_s: f64,
    digest: u64,
    scenario: Scenario,
    /// The report, unless it lives in `captured`'s baseline.
    report: Option<Report>,
    /// The trace `capture_day` wrote.
    captured: Option<RunTrace>,
    /// Traced reps keep their session for the planning probe.
    session: Option<Session>,
    input_bytes: usize,
    output_bytes: usize,
}

impl Done {
    fn report(&self) -> &Report {
        self.report
            .as_ref()
            .or_else(|| self.captured.as_ref()?.baseline.as_ref())
            .expect("every rep keeps its report")
    }
}

fn read(path: &Path) -> Result<String, SimError> {
    std::fs::read_to_string(path)
        .map_err(|e| SimError::InvalidInput(format!("reading {}: {e}", path.display())))
}

fn write(path: &Path, text: &str) -> Result<(), SimError> {
    std::fs::write(path, text)
        .map_err(|e| SimError::InvalidInput(format!("writing {}: {e}", path.display())))
}

fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Persists the report as JSON, as `trace replay --json` prints it.
fn write_report(report: &Report, out: &Path, tr: &mut Tracer) -> Result<usize, SimError> {
    let json = tr
        .span("json.write", || serde_json::to_string_pretty(report))
        .map_err(|e| SimError::InvalidInput(format!("report JSON: {e}")))?;
    tr.span("io.write", || write(&out.join("report.json"), &json))?;
    Ok(json.len())
}

/// `Scenario::from_json_file`; traced reps split the read from the parse.
fn load_scenario(path: &Path, tr: &mut Tracer) -> Result<(Scenario, usize), SimError> {
    if !tr.enabled() {
        return Ok((Scenario::from_json_file(path)?, 0));
    }
    let text = tr.span("io.read", || read(path))?;
    let scenario = tr.span("json.parse", || Scenario::from_json(&text))?;
    Ok((scenario, text.len()))
}

/// `trace replay --json`: `RunTrace::from_json_file`, `verify_replay`,
/// then the report written out.
fn replay(path: &Path, out: &Path, tr: &mut Tracer, t0: Instant) -> Result<Done, SimError> {
    if !tr.enabled() {
        let trace = RunTrace::from_json_file(path)?;
        let setup_s = secs_since(t0);
        let report = trace.verify_replay()?;
        let output_bytes = write_report(&report, out, tr)?;
        return Ok(Done {
            setup_s,
            digest: trace
                .digest
                .expect("verify_replay checked the recorded digest"),
            scenario: trace.scenario,
            report: Some(report),
            captured: None,
            session: None,
            input_bytes: 0,
            output_bytes,
        });
    }
    let text = tr.span("io.read", || read(path))?;
    let trace: RunTrace = tr
        .span("json.parse", || serde_json::from_str(&text))
        .map_err(|e| SimError::InvalidInput(format!("trace JSON: {e}")))?;
    tr.span("trace.validate", || trace.validate())?;
    let setup_s = secs_since(t0);
    // `verify_replay`: `replay` validates again, then runs the scenario.
    tr.span("trace.validate", || trace.validate())?;
    let session = tr.span("session.new", || Session::new(&trace.scenario))?;
    let report = tr.span("serve", || session.execute(&trace.scenario))?;
    let digest = tr.span("report.digest", || report.digest());
    if trace.digest != Some(digest) {
        return Err(SimError::InvalidState(format!(
            "replay digest {digest:#018x} does not match the trace's recorded {:?}",
            trace.digest
        )));
    }
    let output_bytes = write_report(&report, out, tr)?;
    Ok(Done {
        setup_s,
        digest,
        scenario: trace.scenario,
        report: Some(report),
        captured: None,
        session: Some(session),
        input_bytes: text.len(),
        output_bytes,
    })
}

/// `trace capture`: `Scenario::from_json_file`, `RunTrace::capture`,
/// `write_json_file`.
fn capture(path: &Path, out: &Path, tr: &mut Tracer, t0: Instant) -> Result<Done, SimError> {
    let (scenario, input_bytes) = load_scenario(path, tr)?;
    let setup_s = secs_since(t0);
    let out = out.join("trace.json");
    if !tr.enabled() {
        let trace = RunTrace::capture(&scenario)?;
        trace.write_json_file(&out)?;
        return Ok(Done {
            setup_s,
            digest: trace.digest.expect("captured traces record their digest"),
            scenario,
            report: None,
            captured: Some(trace),
            session: None,
            input_bytes,
            output_bytes: 0,
        });
    }
    // `RunTrace::capture`, spelled out as its public parts.
    let session = tr.span("session.new", || Session::new(&scenario))?;
    let (report, capture) = tr.span("serve", || session.execute_captured(&scenario))?;
    let digest = tr.span("report.digest", || report.digest());
    let trace = RunTrace {
        version: TRACE_VERSION,
        scenario: scenario.clone(),
        digest: Some(digest),
        baseline: Some(report),
        requests: capture.requests,
        steals: capture.steals,
    };
    let json = tr.span("json.write", || trace.to_json())?;
    tr.span("io.write", || write(&out, &json))?;
    Ok(Done {
        setup_s,
        digest,
        scenario,
        report: None,
        captured: Some(trace),
        session: Some(session),
        input_bytes,
        output_bytes: json.len(),
    })
}

/// A `Session` user: load the scenario, `Session::new`, `execute`, and
/// persist the report.
fn execute(path: &Path, out: &Path, tr: &mut Tracer, t0: Instant) -> Result<Done, SimError> {
    let (scenario, input_bytes) = load_scenario(path, tr)?;
    let session = tr.span("session.new", || Session::new(&scenario))?;
    let setup_s = secs_since(t0);
    let report = tr.span("serve", || session.execute(&scenario))?;
    let digest = tr.span("report.digest", || report.digest());
    let output_bytes = write_report(&report, out, tr)?;
    Ok(Done {
        setup_s,
        digest,
        scenario,
        report: Some(report),
        captured: None,
        session: Some(session),
        input_bytes,
        output_bytes,
    })
}

/// The outcome counts pinned per workload at the pin seed. Percentiles
/// are left out on purpose, so a change to how they are computed needs
/// no new pins, while any other change in simulated behaviour fails.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub offered: u64,
    pub admitted: u64,
    pub completed: u64,
    pub slo_met: u64,
    pub tasks_completed: u64,
    pub steals: u64,
    /// `makespan_s` as IEEE-754 bits.
    pub makespan_bits: u64,
}

/// What a child process reports for its rep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepResult {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub digest: u64,
    pub events: u64,
    pub cells: u64,
    pub fingerprint: Fingerprint,
    /// Checks this rep failed, one line each.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced reps only).
    pub layers: Vec<(String, f64)>,
    /// Recorded spans (traced reps only).
    pub spans: Vec<Span>,
}

/// Runs one rep of `w` in this process and measures it.
///
/// # Errors
///
/// The message of a failed call; the rep then counts as failed.
pub fn run_rep(w: Workload, input: &Path, out: &Path, traced: bool) -> Result<RepResult, String> {
    if traced {
        probe::start_counting();
    }
    let mut tr = Tracer::new(traced);
    let cpu0 = probe::cpu_s();
    let t0 = Instant::now();
    tr.begin("rep");
    let done = w.rep(input, out, &mut tr, t0).map_err(|e| e.to_string())?;
    tr.end();
    let wall_s = secs_since(t0);
    let cpu_s = probe::cpu_s() - cpu0;
    let peak_rss_mb = probe::peak_rss_mb();

    let report = done.report();
    let fleet = report.open_loop().expect("every workload serves open-loop");
    let mut failures = accounting_failures(report);
    if let Some(trace) = &done.captured {
        if let Err(e) = tr.span("trace.validate", || trace.validate()) {
            failures.push(format!("captured trace fails validation: {e}"));
        }
        if trace.requests.len() as u64 != fleet.offered {
            failures.push(format!(
                "captured trace holds {} records but the run offered {}",
                trace.requests.len(),
                fleet.offered
            ));
        }
    }
    let mut layers = Vec::new();
    if traced {
        let session = done
            .session
            .as_ref()
            .expect("traced reps keep their session");
        let plan = tr
            .span("orchestrator.plan", || {
                plan_requests(&done.scenario, session)
            })
            .map_err(|e| format!("planning probe: {e}"))?;
        if w.threaded() {
            let sequential = done.scenario.clone().threads(1);
            let digest = tr
                .span("check.threads1", || {
                    Session::new(&sequential)?.execute(&sequential)
                })
                .map(|r| r.digest())
                .map_err(|e| format!("threads(1) re-execution: {e}"))?;
            if digest != done.digest {
                failures.push(format!(
                    "threads(1) digest {digest:#018x} differs from threads(2) {:#018x}",
                    done.digest
                ));
            }
        }
        layers = layer_metrics(tr.spans(), &done, &plan);
    }
    Ok(RepResult {
        wall_s,
        cpu_s,
        setup_s: done.setup_s,
        peak_rss_mb,
        digest: done.digest,
        events: fleet.events_processed,
        cells: fleet.cells.len() as u64,
        fingerprint: Fingerprint {
            offered: fleet.offered,
            admitted: fleet.admitted,
            completed: fleet.completed,
            slo_met: fleet.slo_met,
            tasks_completed: fleet.tasks_completed,
            steals: fleet.steals,
            makespan_bits: fleet.makespan_s.to_bits(),
        },
        failures,
        layers,
        spans: tr.into_spans(),
    })
}

/// The accounting identities every open-loop report must satisfy.
fn accounting_failures(report: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    let f = report.open_loop().expect("every workload serves open-loop");
    let shed = f.rejected_rate + f.rejected_deadline + f.rejected_queue_full;
    if f.offered != f.admitted + shed {
        failures.push(format!(
            "offered {} != admitted {} + rejected {shed}",
            f.offered, f.admitted
        ));
    }
    if !(f.slo_met <= f.completed && f.completed <= f.admitted) {
        failures.push(format!(
            "expected slo_met {} <= completed {} <= admitted {}",
            f.slo_met, f.completed, f.admitted
        ));
    }
    let cell_events: u64 = f.cells.iter().map(|c| c.events_processed).sum();
    if cell_events != f.events_processed {
        failures.push(format!(
            "per-cell events sum to {cell_events}, fleet total is {}",
            f.events_processed
        ));
    }
    if let Some(geo) = report.geo() {
        let out: u64 = geo.regions.iter().map(|r| r.escaped_out).sum();
        let inn: u64 = geo.regions.iter().map(|r| r.escaped_in).sum();
        if !(out == inn && inn == geo.cross_region_requests) {
            failures.push(format!(
                "escaped_out {out}, escaped_in {inn} and cross_region_requests {} disagree",
                geo.cross_region_requests
            ));
        }
    }
    failures
}

/// The orchestrator layer on its own: the workload's request stream
/// decomposed and expanded the way the serve path plans it.
struct Plan {
    secs: f64,
    requests: usize,
    tasks: usize,
    graph_bytes: i64,
}

fn plan_requests(scenario: &Scenario, session: &Session) -> Result<Plan, SimError> {
    let (ExecutionMode::OpenLoop(spec), WorkloadSource::Traffic { process, tenants }) =
        (&scenario.mode, &scenario.workload)
    else {
        return Err(SimError::InvalidInput(
            "planning needs an open-loop traffic scenario".into(),
        ));
    };
    let rng = SimRng::new(scenario.seed).fork("fleet");
    let traffic = TrafficSpec {
        process: process.clone(),
        tenants: tenants.clone(),
    };
    let requests = traffic.requests(&rng, SimDuration::from_secs_f64(spec.horizon_s));
    let live0 = probe::live_bytes();
    let t0 = Instant::now();
    let mut graphs = Vec::with_capacity(requests.len());
    for req in &requests {
        let mut job_rng = rng.fork(&format!("job-{}", req.id));
        let (job, inputs) = fleet_job(req.archetype, &req.tenant, &mut job_rng);
        let (plan, _) = Planner.decompose(&job, session.runtime().library())?;
        graphs.push(expand(&plan, &inputs)?);
    }
    Ok(Plan {
        secs: secs_since(t0),
        requests: requests.len(),
        tasks: graphs.iter().map(|g| g.len()).sum(),
        graph_bytes: probe::live_bytes() - live0,
    })
}

const MB: f64 = 1024.0 * 1024.0;

/// The per-layer metrics of one traced rep, named as in `BENCHMARK.json`.
fn layer_metrics(spans: &[Span], done: &Done, plan: &Plan) -> Vec<(String, f64)> {
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    };
    let serve = spans
        .iter()
        .find(|s| s.name == "serve")
        .expect("every rep serves");
    let report = done.report();
    let fleet = report.open_loop().expect("every workload serves open-loop");
    let requests = fleet.offered.max(1) as f64;
    let events = fleet.events_processed.max(1) as f64;
    let max_over_mean = |xs: &[u64]| -> f64 {
        let mean = xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
        xs.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
    };
    let cell_events: Vec<u64> = fleet.cells.iter().map(|c| c.events_processed).collect();
    let (cross_region, region_events) = match report.geo() {
        Some(g) => (
            g.cross_region_requests,
            g.regions.iter().map(|r| r.fleet.events_processed).collect(),
        ),
        None => (0, vec![fleet.events_processed]),
    };
    let (parse_s, write_s) = (total("json.parse"), total("json.write"));
    let plan_requests = plan.requests.max(1) as f64;
    let rss_growth_mb = serve.peak_after_mb - serve.rss_before_mb;
    [
        ("json.parse_s", parse_s),
        (
            "json.parse_mb_per_s",
            done.input_bytes as f64 / MB / parse_s,
        ),
        ("json.write_s", write_s),
        (
            "json.write_mb_per_s",
            done.output_bytes as f64 / MB / write_s,
        ),
        ("json.bytes", done.output_bytes as f64),
        ("session.new_s", total("session.new")),
        (
            "orchestrator.plan_us_per_request",
            plan.secs * 1e6 / plan_requests,
        ),
        (
            "orchestrator.tasks_per_request",
            plan.tasks as f64 / plan_requests,
        ),
        (
            "orchestrator.graph_kb_per_request",
            plan.graph_bytes as f64 / 1024.0 / plan_requests,
        ),
        ("serve.s", serve.secs()),
        ("serve.cpu_s", serve.cpu_s),
        ("serve.cpu_per_wall", serve.cpu_s / serve.secs()),
        ("serve.events_per_request", events / requests),
        ("serve.ns_per_event", serve.secs() * 1e9 / events),
        ("serve.allocs_per_event", serve.allocs as f64 / events),
        ("serve.allocs_per_request", serve.allocs as f64 / requests),
        ("serve.rss_growth_mb", rss_growth_mb),
        ("serve.kb_per_request", rss_growth_mb * 1024.0 / requests),
        (
            "fleet.cell_events_max_over_mean",
            max_over_mean(&cell_events),
        ),
        ("fleet.steals", fleet.steals as f64),
        ("geo.cross_region_requests", cross_region as f64),
        (
            "geo.region_events_max_over_mean",
            max_over_mean(&region_events),
        ),
        ("report.digest_s", total("report.digest")),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect()
}
