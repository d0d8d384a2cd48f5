//! Config-search → scenario emission: the winning lever assignment
//! round-trips through Scenario JSON and executes, and any scenario
//! that round-trips executes to an identical report.

use murakkab::scenario::{CatalogRef, Scenario};
use murakkab::SttChoice;
use murakkab_agents::library::stock_library;
use murakkab_agents::Profiler;
use murakkab_orchestrator::{ConfigSearch, DemandModel, SearchMode};
use murakkab_traffic::{AdmissionConfig, ArrivalProcess};
use murakkab_workflow::{Constraint, ConstraintSet};

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// The emitted scenario is a faithful, runnable artifact: it survives
/// a JSON round-trip bit-for-bit, validates, and executes with the
/// winning levers applied.
#[test]
fn winning_config_round_trips_as_scenario_json() {
    let store = Profiler::default().profile_library(&stock_library());
    let demand = DemandModel::video_understanding();
    let constraints = ConstraintSet::single(Constraint::MinCost);
    let (settings, _, _) = ConfigSearch::new(SearchMode::Greedy)
        .search(&demand, &store, &constraints)
        .expect("search finds a config");

    let scenario = Scenario::from_lever_settings(
        "search-winner",
        CatalogRef::named("paper-video"),
        &settings,
        vec![Constraint::MinCost],
    );
    scenario.validate().expect("emitted scenario validates");

    let json = scenario.to_json().expect("serializes");
    let back = Scenario::from_json(&json).expect("deserializes");
    assert_eq!(scenario, back, "scenario JSON round-trips exactly");

    assert_eq!(back.parallelism, settings.parallelism);
    let report = back.run().expect("emitted scenario executes");
    assert!(report.core.tasks_completed > 0);
}

/// The paths lever lands in the `cot` entry's size override, and the
/// SpeechToText hardware choice pins the STT knob.
#[test]
fn levers_map_onto_scenario_knobs() {
    let store = Profiler::default().profile_library(&stock_library());
    let demand = DemandModel {
        counts: std::collections::BTreeMap::from([
            (murakkab_agents::Capability::TextGeneration, 1),
            (murakkab_agents::Capability::SpeechToText, 1),
        ]),
        chain: vec![
            murakkab_agents::Capability::SpeechToText,
            murakkab_agents::Capability::TextGeneration,
        ],
    };
    let constraints = ConstraintSet::single(Constraint::MaxQuality);
    let (settings, _, _) = ConfigSearch::new(SearchMode::Greedy)
        .search(&demand, &store, &constraints)
        .expect("search finds a config");
    assert!(settings.paths > 1, "quality objective buys extra paths");

    let scenario = Scenario::from_lever_settings(
        "cot-winner",
        CatalogRef::named("cot"),
        &settings,
        vec![Constraint::MaxQuality],
    );
    let murakkab::scenario::WorkloadSource::Catalog { entries } = &scenario.workload else {
        panic!("emitter produces a catalog workload");
    };
    assert_eq!(entries[0].size, Some(settings.paths));
    assert!(
        !matches!(scenario.stt, murakkab::SttChoice::Auto),
        "a concrete STT choice pins the knob"
    );
    scenario.validate().expect("validates");
}

#[test]
fn scenario_serde_round_trip_produces_identical_reports() {
    // Scenario -> JSON -> Scenario -> identical Report, in both modes.
    let closed = Scenario::closed_loop("rt-closed")
        .seed(13)
        .stt(SttChoice::Gpu);
    let open = Scenario::open_loop(
        "rt-open",
        ArrivalProcess::Poisson { rate_per_s: 0.08 },
        150.0,
    )
    .seed(13)
    .admission(AdmissionConfig::default());
    for scenario in [closed, open] {
        let round_tripped =
            Scenario::from_json(&scenario.to_json().expect("serializes")).expect("parses");
        assert_eq!(scenario, round_tripped, "spec must round-trip losslessly");
        let direct = scenario.run().expect("direct run");
        let replayed = round_tripped.run().expect("replayed run");
        assert_eq!(
            json(&direct),
            json(&replayed),
            "round-tripped scenario must execute bit-identically"
        );
        assert_eq!(direct.digest(), replayed.digest());
    }
}
