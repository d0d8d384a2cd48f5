//! Arena-interning equivalence: every committed scenario and the trace
//! fixture must produce reports bit-identical to the goldens captured
//! at the commit *before* the engine's hot-path refactor (dense-id
//! arenas, compiled route table, calendar event queue, allocation
//! slab). The digests below were recorded by running each input at
//! that commit; any divergence means the refactor changed simulation
//! behaviour, not just its speed. The engine hot-path scoreboard's
//! simspeed workload is pinned here too, at both of its horizons, and so
//! are two open-loop runs that break if the serve path's per-shape plan
//! memo drops the tenant or the scene draws from its key.

use murakkab::fleet::fleet_job;
use murakkab::scenario::{Scenario, Session};
use murakkab_bench::engine_hotpath::{
    HOTPATH_GOLDEN_DIGEST_FULL, HOTPATH_GOLDEN_DIGEST_QUICK, HOTPATH_QUICK_HORIZON_S,
};
use murakkab_bench::simspeed::{simspeed_log, simspeed_scenario, SIMSPEED_HORIZON_S};
use murakkab_bench::SEED;
use murakkab_sim::{SimDuration, SimError, SimRng};
use murakkab_traffic::{
    Archetype, ArrivalProcess, JobMix, RequestSpec, SloClass, TenantProfile, TrafficSpec,
};

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

/// Golden digest of [`keyword_video_scenario`], recorded before the
/// serve path memoized plans per request shape.
const KEYWORD_VIDEO_GOLDEN: u64 = 0x80fe_afda_d04f_b61e;

const KEYWORD_HORIZON_S: f64 = 300.0;

fn tenant(name: &str, mix: Vec<(Archetype, f64)>, class: SloClass, weight: f64) -> TenantProfile {
    TenantProfile {
        name: name.into(),
        mix: JobMix::new(mix),
        class,
        weight,
    }
}

/// An open-loop run over `tenants` at seed `seed`.
fn keyword_scenario(label: &str, tenants: Vec<TenantProfile>, seed: u64) -> Scenario {
    Scenario::open_loop(
        label,
        ArrivalProcess::Poisson { rate_per_s: 0.1 },
        KEYWORD_HORIZON_S,
    )
    .tenants(tenants)
    .seed(seed)
}

/// The scenario's request stream, each request with its drawn job
/// inputs, as the serve path draws them.
fn drawn_requests(
    scenario: &Scenario,
    tenants: &[TenantProfile],
) -> Vec<(RequestSpec, murakkab_orchestrator::JobInputs)> {
    let rng = SimRng::new(scenario.seed).fork("fleet");
    TrafficSpec {
        process: ArrivalProcess::Poisson { rate_per_s: 0.1 },
        tenants: tenants.to_vec(),
    }
    .requests(&rng, SimDuration::from_secs_f64(KEYWORD_HORIZON_S))
    .into_iter()
    .map(|req| {
        let mut job_rng = rng.fork(&format!("job-{}", req.id));
        let (_, inputs) = fleet_job(req.archetype, &req.tenant, &mut job_rng);
        (req, inputs)
    })
    .collect()
}

/// Keyword-named tenants and a video-heavy mix whose stream holds both
/// 1- and 2-scene clips: a memo that keys video by archetype alone, or
/// reuses one request's scene durations for another, moves the digest.
fn keyword_video_scenario() -> (Scenario, Vec<TenantProfile>) {
    let tenants = vec![
        tenant(
            "video-feeds",
            vec![
                (Archetype::VideoUnderstanding, 0.6),
                (Archetype::Newsfeed, 0.4),
            ],
            SloClass::interactive(),
            2.0,
        ),
        tenant(
            "solve-team",
            vec![
                (Archetype::VideoUnderstanding, 0.5),
                (Archetype::ChainOfThought, 0.3),
                (Archetype::DocQa, 0.2),
            ],
            SloClass::standard(),
            1.0,
        ),
        tenant(
            "studio",
            vec![(Archetype::VideoUnderstanding, 1.0)],
            SloClass::batch(),
            1.0,
        ),
    ];
    (
        keyword_scenario("keyword-tenants", tenants.clone(), 42),
        tenants,
    )
}

#[test]
fn keyword_tenant_video_mix_matches_pre_memo_golden() {
    let (scenario, tenants) = keyword_video_scenario();
    let scene_counts: Vec<usize> = drawn_requests(&scenario, &tenants)
        .iter()
        .filter(|(req, _)| req.archetype == Archetype::VideoUnderstanding)
        .map(|(_, inputs)| inputs.total_scenes())
        .collect();
    for scenes in [1, 2] {
        assert!(
            scene_counts.iter().filter(|&&n| n == scenes).count() >= 2,
            "the stream holds several {scenes}-scene clips: {scene_counts:?}"
        );
    }
    let digest = scenario.run().expect("serves").digest();
    assert_eq!(
        digest, KEYWORD_VIDEO_GOLDEN,
        "keyword-tenant video mix: digest {digest:#018x} diverged from its golden {KEYWORD_VIDEO_GOLDEN:#018x}"
    );
}

/// `video-scene-desk`'s newsfeed description names a video scene, so it
/// decomposes into a video plan that cannot expand without media. Every
/// one of its requests draws a post count a `feeds` request drew
/// earlier, so a memo keyed without the tenant would serve them the
/// `feeds` plan and the run would succeed.
#[test]
fn keyword_tenant_plans_are_keyed_by_tenant() {
    let tenants = vec![
        tenant(
            "feeds",
            vec![(Archetype::Newsfeed, 1.0)],
            SloClass::interactive(),
            10.0,
        ),
        tenant(
            "video-scene-desk",
            vec![(Archetype::Newsfeed, 1.0)],
            SloClass::standard(),
            1.0,
        ),
    ];
    let scenario = keyword_scenario("keyword-clash", tenants.clone(), 11);
    let mut feeds_posts = Vec::new();
    let mut clashes = 0;
    for (req, inputs) in drawn_requests(&scenario, &tenants) {
        if req.tenant == "feeds" {
            feeds_posts.push(inputs.items);
        } else {
            assert!(
                feeds_posts.contains(&inputs.items),
                "request {} draws {} posts, which no earlier feeds request drew",
                req.id,
                inputs.items
            );
            clashes += 1;
        }
    }
    assert!(clashes > 0, "the stream holds video-scene-desk requests");
    match scenario.run() {
        Err(SimError::InvalidInput(msg)) => assert_eq!(
            msg, "stage extract needs video inputs but the job has none",
            "the clashing tenant's newsfeed fails to plan"
        ),
        other => panic!("expected the clashing tenant to fail planning, got {other:?}"),
    }
}
