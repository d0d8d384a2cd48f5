//! Cross-checks between the static preflight analyzer and actual
//! execution: the analyzer's verdicts must agree with what the
//! simulator then does.

use murakkab::analyze::codes;
use murakkab::{
    analyze, ExecutionMode, PreflightMode, Scenario, Session, Severity, SttChoice, WorkloadSource,
};
use murakkab_sim::SimError;
use murakkab_traffic::{
    AdmissionConfig, Archetype, ArrivalProcess, JobMix, SloClass, TenantProfile,
};
use proptest::prelude::*;

fn fixture(name: &str) -> Scenario {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    Scenario::from_json_file(&path).expect("fixture parses")
}

fn codes_of(report: &murakkab::AnalysisReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn stock_scenarios_are_clean() {
    for name in [
        "disagg_ab_colocated.json",
        "disagg_ab_disaggregated.json",
        "overload_open_loop.json",
        "paper_testbed_closed_loop.json",
    ] {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let scenario = Scenario::from_json_file(&path).expect("scenario parses");
        let report = analyze(&scenario);
        assert!(
            !report.has_errors() && !report.has_warnings(),
            "{name} must lint clean, got:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn infeasible_fixture_flags_slo_and_overload() {
    let report = analyze(&fixture("infeasible_scenario.json"));
    let codes = codes_of(&report);
    assert!(
        codes.contains(&codes::SLO_INFEASIBLE),
        "sub-second deadlines must flag ANZ103, got:\n{}",
        report.render_human()
    );
    assert!(
        codes.contains(&codes::OVERLOAD_UNBOUNDED),
        "10/s offered with admission disabled must flag ANZ104, got:\n{}",
        report.render_human()
    );
    assert!(!report.has_errors(), "the fixture is runnable, just doomed");
}

#[test]
fn unplaceable_fixture_flags_unsatisfiable_constraints() {
    let scenario = fixture("unplaceable_scenario.json");
    let report = analyze(&scenario);
    assert!(
        codes_of(&report).contains(&codes::CONSTRAINTS_UNSATISFIABLE),
        "a 1-GPU node cannot host the tenant set, got:\n{}",
        report.render_human()
    );
    // The analyzer's error is exactly the failure execution would hit.
    let err = scenario.run().unwrap_err();
    assert!(
        matches!(err, SimError::Unsatisfiable(_)),
        "execution fails the same way: {err}"
    );
}

#[test]
fn strict_preflight_refuses_warned_scenarios() {
    let scenario = fixture("infeasible_scenario.json").preflight(PreflightMode::Strict);
    let session = Session::new(&scenario).expect("structurally valid");
    let err = session.execute(&scenario).unwrap_err();
    let SimError::InvalidInput(msg) = err else {
        panic!("strict preflight maps to InvalidInput, got {err:?}");
    };
    assert!(
        msg.contains("strict preflight"),
        "refusal names the gate: {msg}"
    );
}

#[test]
fn preflight_field_is_backward_compatible_and_round_trips() {
    // Captured scenarios predate the field: absent means Off.
    let json = fixture("infeasible_scenario.json").to_json().unwrap();
    assert!(json.contains("\"preflight\""));
    // The preflight line carries a trailing comma (`geo` follows it in
    // the object), so dropping the whole line leaves valid JSON.
    let legacy = json
        .lines()
        .filter(|l| !l.contains("\"preflight\""))
        .collect::<Vec<_>>()
        .join("\n");
    let parsed = Scenario::from_json(&legacy).expect("legacy JSON still parses");
    assert_eq!(parsed.preflight, PreflightMode::Off);

    let strict = parsed.preflight(PreflightMode::Strict);
    let back = Scenario::from_json(&strict.to_json().unwrap()).unwrap();
    assert_eq!(back.preflight, PreflightMode::Strict);
}

#[test]
fn predicted_shed_floor_is_realized_when_run() {
    // Offered load far above the admission rate: the analyzer must
    // predict a shed floor (ANZ203), and the run must actually shed.
    let scenario = Scenario::open_loop("shed", ArrivalProcess::Poisson { rate_per_s: 2.0 }, 30.0)
        .admission(AdmissionConfig {
            enabled: true,
            rate_per_s: 0.1,
            burst: 2.0,
            max_queue: 4,
            slack_per_backlog: 0.5,
        });
    let report = analyze(&scenario);
    assert!(
        codes_of(&report).contains(&codes::SHED_FLOOR),
        "20x overload must predict a shed floor, got:\n{}",
        report.render_human()
    );
    let fleet = scenario.run().unwrap().into_open_loop().unwrap();
    let shed = fleet.offered - fleet.admitted;
    assert!(
        shed > 0,
        "predicted shed must materialize: offered {} admitted {}",
        fleet.offered,
        fleet.admitted
    );
}

#[test]
fn ignored_closed_loop_knobs_are_flagged_and_inert_in_open_loop() {
    // The stock tenant set includes video jobs, so an STT override or
    // paper-agent pinning would change selection if open loop honored
    // them.
    let base = Scenario::open_loop("knobs", ArrivalProcess::Poisson { rate_per_s: 0.05 }, 200.0);
    let knobbed = base.clone().stt(SttChoice::Gpu).pin_paper_agents(true);
    let report = analyze(&knobbed);
    for path in ["stt", "pin_paper_agents"] {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::IGNORED_KNOB && d.path == path),
            "open loop must flag the ignored `{path}` knob, got:\n{}",
            report.render_human()
        );
    }
    assert!(!report.has_errors() && !report.has_warnings());
    assert!(
        !codes_of(&analyze(&base)).contains(&codes::IGNORED_KNOB),
        "default knobs are not flagged"
    );
    assert_eq!(
        knobbed.run().unwrap().digest(),
        base.run().unwrap().digest(),
        "ignored knobs must not reach the serve loop"
    );
}

/// Under geo federation the per-region specs lay out the cells and each
/// region ticks at the sync epoch, so the global `shards` and
/// `rebalance_every_s` knobs are each flagged ANZ206 and neither moves
/// the digest.
#[test]
fn geo_ignored_knobs_are_flagged_and_inert() {
    let base = Scenario::open_loop(
        "geo-knobs",
        ArrivalProcess::Poisson { rate_per_s: 0.3 },
        120.0,
    )
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), 6)
    .geo(murakkab::GeoSpec::three_region(2, 1, 0).sync_epoch_s(30.0));
    assert!(
        !codes_of(&analyze(&base)).contains(&codes::GEO_IGNORED_KNOB),
        "default knobs are not flagged"
    );
    let mut cadence = base.clone();
    if let ExecutionMode::OpenLoop(spec) = &mut cadence.mode {
        spec.rebalance_every_s = 7.0;
    }
    let digest = base.run().unwrap().digest();
    for (path, knobbed) in [
        ("mode.OpenLoop.shards", base.clone().shards(2)),
        ("mode.OpenLoop.rebalance_every_s", cadence),
    ] {
        let report = analyze(&knobbed);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == codes::GEO_IGNORED_KNOB && d.path == path),
            "geo must flag the ignored `{path}` knob, got:\n{}",
            report.render_human()
        );
        assert_eq!(
            knobbed.run().unwrap().digest(),
            digest,
            "`{path}` must not reach the geo serve loop"
        );
    }
}

/// A bounded closed-loop scenario space for the analyzer/executor
/// agreement property: structurally diverse, small enough to execute.
fn small_mix_scenario(
    seed: u64,
    requests: u32,
    parallelism: u32,
    w_news: f64,
    w_docqa: f64,
    weight: f64,
) -> Scenario {
    let tenants = vec![TenantProfile {
        name: "prop".into(),
        mix: JobMix::new(vec![
            (Archetype::Newsfeed, w_news),
            (Archetype::DocQa, w_docqa),
        ]),
        class: SloClass::standard(),
        weight,
    }];
    Scenario::closed_loop("prop")
        .seed(seed)
        .mix(tenants, requests)
        .parallelism(parallelism)
        .pin_paper_agents(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Analyzer soundness: a scenario with no error-severity diagnostic
    /// executes without `SimError::InvalidInput` — the analyzer never
    /// green-lights something validation would then reject.
    #[test]
    fn zero_error_diagnostics_imply_valid_execution(
        seed in 0u64..1_000,
        requests in 1u32..3,
        parallelism in 1u32..16,
        w_news in 0.1f64..2.0,
        w_docqa in 0.0f64..2.0,
        weight in 0.5f64..3.0,
    ) {
        let scenario =
            small_mix_scenario(seed, requests, parallelism, w_news, w_docqa, weight);
        let report = analyze(&scenario);
        if report.has_errors() {
            return Ok(()); // vacuously true; the generator rarely errs
        }
        if let Err(SimError::InvalidInput(msg)) = scenario.run() {
            return Err(format!(
                "analyzer saw no errors but execution rejected the input: {msg}"
            ));
        }
    }

    /// Analyzer completeness for the structural rules: whenever
    /// `validate` rejects, the analyzer holds an error diagnostic for
    /// it, and vice versa (they are wrappers over the same rule set).
    #[test]
    fn validate_and_analyzer_errors_agree(
        parallelism in 0u32..3,
        requests in 0u32..2,
        shards in 0usize..6,
        horizon in prop_oneof![
            Just(-1.0f64),
            Just(0.0f64),
            Just(f64::NAN),
            Just(10.0f64),
            Just(100.0f64),
        ],
    ) {
        let mut scenario = Scenario::open_loop(
            "agree",
            ArrivalProcess::Poisson { rate_per_s: 0.1 },
            horizon,
        )
        .parallelism(parallelism)
        .shards(shards);
        // Sometimes cross-wire the mode/workload to hit ANZ003 too.
        if requests == 0 {
            scenario.mode = ExecutionMode::ClosedLoop;
        }
        if let WorkloadSource::Traffic { tenants, .. } = &mut scenario.workload {
            if shards == 5 {
                tenants.clear();
            }
        }
        let report = analyze(&scenario);
        prop_assert_eq!(
            scenario.validate().is_err(),
            report.has_errors(),
            "validate and the analyzer must agree on: {}",
            report.render_human()
        );
        // Deep diagnostics only appear once the structure is sound.
        if report.has_errors() {
            for d in report.errors() {
                prop_assert!(
                    d.severity == Severity::Error,
                    "errors() yields only errors"
                );
            }
        }
    }
}
