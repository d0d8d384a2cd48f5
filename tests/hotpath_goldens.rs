//! Arena-interning equivalence: every committed scenario and the trace
//! fixture must produce reports bit-identical to the goldens captured
//! at the commit *before* the engine's hot-path refactor (dense-id
//! arenas, compiled route table, calendar event queue, allocation
//! slab). The digests below were recorded by running each input at
//! that commit; any divergence means the refactor changed simulation
//! behaviour, not just its speed. The engine hot-path scoreboard's
//! simspeed workload is pinned here too, at both of its horizons.

use murakkab::scenario::{Scenario, Session};
use murakkab_bench::engine_hotpath::{
    HOTPATH_GOLDEN_DIGEST_FULL, HOTPATH_GOLDEN_DIGEST_QUICK, HOTPATH_QUICK_HORIZON_S,
};
use murakkab_bench::simspeed::{simspeed_log, simspeed_scenario, SIMSPEED_HORIZON_S};
use murakkab_bench::SEED;

/// `(committed scenario, pre-arena golden digest)`.
const SCENARIO_GOLDENS: &[(&str, u64)] = &[
    ("scenarios/disagg_ab_colocated.json", 0x0f60_7ec7_6ec3_5871),
    (
        "scenarios/disagg_ab_disaggregated.json",
        0x57c2_63c1_d65e_3be3,
    ),
    ("scenarios/overload_open_loop.json", 0xcc39_417c_f1d8_3ba6),
    (
        "scenarios/paper_testbed_closed_loop.json",
        0x90aa_6f2e_dd11_01b2,
    ),
];

/// Pre-arena golden digest of the committed trace fixture (also the
/// digest recorded inside the fixture itself — `verify_replay` checks
/// that copy; this constant pins the file against silent re-capture).
const TRACE_FIXTURE: &str = "traces/overload_small.json";
const TRACE_GOLDEN: u64 = 0xfba3_2120_4bdb_7aab;

#[test]
fn committed_scenarios_match_pre_arena_goldens() {
    for &(path, golden) in SCENARIO_GOLDENS {
        let report = Scenario::from_json_file(path)
            .unwrap_or_else(|e| panic!("{path} loads: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{path} runs: {e}"));
        assert_eq!(
            report.digest(),
            golden,
            "{path}: digest {:#018x} diverged from its pre-arena golden {golden:#018x}",
            report.digest()
        );
    }
}

#[test]
fn trace_fixture_replay_matches_pre_arena_golden() {
    let trace = murakkab_trace::RunTrace::from_json_file(TRACE_FIXTURE).expect("fixture loads");
    let report = trace
        .verify_replay()
        .expect("fixture replays bit-identical");
    assert_eq!(
        report.digest(),
        TRACE_GOLDEN,
        "trace fixture digest diverged from its pre-arena golden"
    );
}

#[test]
fn simspeed_workload_matches_hotpath_goldens() {
    for (horizon_s, golden) in [
        (SIMSPEED_HORIZON_S, HOTPATH_GOLDEN_DIGEST_FULL),
        (HOTPATH_QUICK_HORIZON_S, HOTPATH_GOLDEN_DIGEST_QUICK),
    ] {
        let log = simspeed_log(SEED, horizon_s);
        let scenario = simspeed_scenario(SEED, &log, 1, horizon_s);
        let digest = Session::new(&scenario)
            .and_then(|session| session.execute(&scenario))
            .unwrap_or_else(|e| panic!("simspeed over {horizon_s} s runs: {e}"))
            .digest();
        assert_eq!(
            digest, golden,
            "simspeed over {horizon_s} s: digest {digest:#018x} diverged from its golden {golden:#018x}"
        );
    }
}
