//! Trace subsystem integration tests: the pinned fixture digest, the
//! capture → JSON → replay round trip, what-if identity and
//! conservation accounting, and the validator's rejection of malformed
//! traces. The checked-in artifacts come from
//! `cargo run --release --example trace_whatif -- --write`.

use murakkab::{Scenario, ServingMode};
use murakkab_sim::SimError;
use murakkab_trace::{whatif, RunTrace, WhatIf};
use murakkab_traffic::ArrivalProcess;

/// The checked-in fixture's replay digest. This moves only when the
/// engine's event stream changes — which is exactly what the pin is
/// for: an accidental determinism break fails here before it reaches a
/// bench table.
const FIXTURE_DIGEST: u64 = 0x80a8_265e_eed0_6f41;

fn fixture() -> RunTrace {
    RunTrace::from_json_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace_small.json"
    ))
    .expect("fixture trace parses and validates")
}

fn overload() -> RunTrace {
    RunTrace::from_json_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/traces/overload_small.json"
    ))
    .expect("overload trace parses and validates")
}

#[test]
fn fixture_replay_digest_is_pinned() {
    let trace = fixture();
    assert_eq!(
        trace.digest,
        Some(FIXTURE_DIGEST),
        "tests/fixtures/trace_small.json drifted; regenerate with the \
         trace_whatif example and update FIXTURE_DIGEST deliberately"
    );
    let report = trace
        .verify_replay()
        .expect("replaying the unmodified fixture is bit-identical");
    assert_eq!(report.digest(), FIXTURE_DIGEST);
}

#[test]
fn overload_trace_replays_bit_identically() {
    let trace = overload();
    trace
        .verify_replay()
        .expect("replaying the unmodified overload trace is bit-identical");
    assert!(
        trace.requests.iter().any(|r| {
            r.outcome
                .as_ref()
                .is_some_and(|o| o.verdict != murakkab_traffic::AdmissionDecision::Admitted)
        }),
        "the overload trace should capture at least one rejection"
    );
}

#[test]
fn capture_round_trips_through_json() {
    let scenario = Scenario::open_loop(
        "round-trip",
        ArrivalProcess::Poisson { rate_per_s: 0.1 },
        150.0,
    )
    .seed(7);
    let trace = RunTrace::capture(&scenario).expect("capture runs");

    // Capture is observation-only: the captured run's digest equals an
    // uncaptured run of the same scenario.
    let plain = scenario.run().expect("uncaptured run");
    assert_eq!(trace.digest, Some(plain.digest()));

    let json = trace.to_json().expect("trace serializes");
    let parsed = RunTrace::from_json(&json).expect("trace parses back");
    assert_eq!(parsed.digest, trace.digest);
    assert_eq!(parsed.requests, trace.requests);
    assert_eq!(parsed.steals, trace.steals);
    let report = parsed
        .verify_replay()
        .expect("parsed trace replays bit-identically");
    assert_eq!(Some(report.digest()), trace.digest);
}

#[test]
fn unmodified_whatif_is_identity_per_class() {
    // A what-if with no modifications pins the captured arrivals and
    // re-runs: every metric must come back unchanged, per class.
    let report = whatif(&fixture(), &WhatIf::default()).expect("identity what-if runs");
    let d = &report.diff;
    for (name, c) in [
        ("offered", &d.offered),
        ("admitted", &d.admitted),
        ("completed", &d.completed),
        ("slo_met", &d.slo_met),
        ("rejected", &d.rejected),
        ("steals", &d.steals),
    ] {
        assert_eq!(c.delta, 0, "{name} moved under an identity what-if");
    }
    assert_eq!(d.slo_attainment.delta, 0.0);
    assert_eq!(d.goodput_per_min.delta, 0.0);
    assert_eq!(d.throughput_per_min.delta, 0.0);
    assert!(!d.classes.is_empty());
    for c in &d.classes {
        assert_eq!(c.completed.delta, 0, "class {}", c.class);
        assert_eq!(c.slo_met.delta, 0, "class {}", c.class);
        assert_eq!(c.attainment.delta, 0.0, "class {}", c.class);
        assert_eq!(c.shed_rate.delta, 0.0, "class {}", c.class);
        // Identity: both sides measured the same samples, so a
        // percentile is either present on both sides with zero delta or
        // absent on both (never half-measured).
        if let Some(p) = &c.p95_s {
            assert_eq!(p.delta, 0.0, "class {}", c.class);
        }
        if let Some(p) = &c.ttft_p95_s {
            assert_eq!(p.delta, 0.0, "class {}", c.class);
        }
    }
}

#[test]
fn counterfactuals_conserve_arrivals() {
    let trace = overload();
    let offered = trace.requests.len() as u64;
    for mods in [
        WhatIf::named("disagg").serving(ServingMode::Disaggregated),
        WhatIf::named("tight").max_inflight(8),
    ] {
        let report = whatif(&trace, &mods).expect("counterfactual runs");
        let d = &report.diff;
        assert_eq!(d.offered.before, offered, "{}", mods.label);
        assert_eq!(
            d.offered.after, offered,
            "a counterfactual must replay every captured arrival ({})",
            mods.label
        );
        // The serve loop drains: every arrival is completed or rejected.
        assert_eq!(
            d.completed.after + d.rejected.after,
            d.offered.after,
            "conservation ({})",
            mods.label
        );
        assert_eq!(d.completed.before + d.rejected.before, d.offered.before);
    }
}

fn invalid(trace: &RunTrace, what: &str) {
    let err = trace.validate().expect_err(&format!("{what} must fail"));
    assert!(
        matches!(err, SimError::InvalidInput(_)),
        "{what}: expected InvalidInput, got {err:?}"
    );
}

#[test]
fn validator_rejects_malformed_traces() {
    assert_eq!(
        fixture().version,
        1,
        "the fixture pins the version-1 schema"
    );
    for version in [0, 3, 99] {
        let mut t = fixture();
        t.version = version;
        invalid(&t, &format!("schema version {version}"));
    }

    let mut t = fixture();
    t.requests[0].at_s = f64::NAN;
    invalid(&t, "NaN arrival instant");

    let mut t = fixture();
    assert!(t.requests.len() >= 2);
    t.requests[0].at_s = t.requests[1].at_s + 1.0;
    invalid(&t, "non-monotone arrival instants");

    let mut t = fixture();
    t.requests[0].id += 1;
    invalid(&t, "request id out of arrival order");

    let mut t = fixture();
    if let Some(o) = t.requests[0].outcome.as_mut() {
        o.cell = Some(usize::MAX);
    }
    invalid(&t, "cell assignment beyond the shard count");
}

/// A geo trace validates each record against its own region: the
/// region must exist, a cell must lie within that region's on-demand
/// plus spot cells, and a steal stays in the region that routed the
/// request.
#[test]
fn validator_checks_geo_regions() {
    let spec = murakkab::GeoSpec::three_region(4, 2, 4)
        .day_s(600.0)
        .sync_epoch_s(30.0);
    let scenario = Scenario::open_loop(
        "geo-validate",
        ArrivalProcess::Poisson { rate_per_s: 2.0 },
        120.0,
    )
    .seed(3)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), 24)
    .geo(spec);
    let trace = RunTrace::capture(&scenario).expect("geo scenario captures");
    trace.validate().expect("a captured geo trace validates");
    assert!(!trace.steals.is_empty(), "the scenario should steal");
    let admitted = trace
        .requests
        .iter()
        .position(|r| r.outcome.as_ref().is_some_and(|o| o.cell.is_some()))
        .expect("an admitted request");

    let mut t = trace.clone();
    t.requests[admitted].outcome.as_mut().unwrap().region = Some(3);
    invalid(&t, "region beyond the federation");

    // Each region runs two on-demand cells plus two spot cells.
    let mut t = trace.clone();
    t.requests[admitted].outcome.as_mut().unwrap().cell = Some(3);
    t.validate().expect("a spot cell is in range");
    t.requests[admitted].outcome.as_mut().unwrap().cell = Some(4);
    invalid(&t, "cell beyond its region's cell count");

    let mut t = trace.clone();
    let region = t.steals[0]
        .region
        .expect("captured steals name their region");
    t.steals[0].region = Some((region + 1) % 3);
    invalid(&t, "steal across two regions");
}
