//! Arena-interning equivalence: every committed scenario and the trace
//! fixture must produce reports bit-identical to the goldens captured
//! at the commit *before* the engine's hot-path refactor (dense-id
//! arenas, compiled route table, calendar event queue, allocation
//! slab). The digests below were recorded by running each input at
//! that commit; any divergence means the refactor changed simulation
//! behaviour, not just its speed. The simspeed workload (the shard
//! sweep's log with the front door open and wide workflows) is pinned
//! here too, at every shard count and both horizons, and so are two
//! open-loop runs that break if the serve path's per-shape plan memo
//! drops the tenant or the scene draws from its key.

#[path = "../crates/cluster/tests/common/mod.rs"]
mod common;

use common::SeriesCopy;
use murakkab::fleet::fleet_job;
use murakkab::scenario::{Scenario, Session};
use murakkab_bench::{shard_sweep_log, shard_sweep_scenario, FLEET_SHARD_NODES, SEED};
use murakkab_sim::{SimDuration, SimError, SimRng};
use murakkab_traffic::{
    AdmissionConfig, Archetype, ArrivalProcess, JobMix, RequestSpec, SloClass, TenantProfile,
    TrafficSpec,
};

/// `(committed scenario, golden digest)`: pre-arena goldens, except the
/// geo scenario's, pinned once its regions ran the rebalancer tick (the
/// only report fields that moved then were its `rebalance_actions`).
const SCENARIO_GOLDENS: &[(&str, u64)] = &[
    ("scenarios/disagg_ab_colocated.json", 0x0f60_7ec7_6ec3_5871),
    (
        "scenarios/disagg_ab_disaggregated.json",
        0x57c2_63c1_d65e_3be3,
    ),
    ("scenarios/geo_three_region.json", 0x1837_2b6e_1196_281b),
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

/// Arrival horizons of the simspeed workload, seconds.
const SIMSPEED_HORIZON_FULL_S: f64 = 1800.0;
const SIMSPEED_HORIZON_QUICK_S: f64 = 240.0;

/// Pre-arena golden digests of the simspeed workload at `shards = 1`.
const HOTPATH_GOLDEN_DIGEST_FULL: u64 = 0xea62_6496_fa46_806f;
const HOTPATH_GOLDEN_DIGEST_QUICK: u64 = 0x1633_34b3_c5b0_74d3;

#[test]
fn simspeed_workload_matches_hotpath_goldens() {
    for (horizon_s, shards, golden) in [
        (SIMSPEED_HORIZON_FULL_S, 1, HOTPATH_GOLDEN_DIGEST_FULL),
        (SIMSPEED_HORIZON_FULL_S, 2, 0xe886_24f5_ca10_8855),
        (SIMSPEED_HORIZON_FULL_S, 4, 0x9bbb_b01b_8f3c_c3e9),
        (SIMSPEED_HORIZON_FULL_S, 8, 0x1cf5_d221_2cc9_c2cd),
        (SIMSPEED_HORIZON_QUICK_S, 1, HOTPATH_GOLDEN_DIGEST_QUICK),
    ] {
        let log = shard_sweep_log(SEED, horizon_s);
        let scenario = shard_sweep_scenario(SEED, &log, shards, horizon_s, FLEET_SHARD_NODES)
            .max_inflight(64)
            .parallelism(24)
            .admission(AdmissionConfig::disabled());
        let digest = Session::new(&scenario)
            .and_then(|session| session.execute(&scenario))
            .unwrap_or_else(|e| panic!("simspeed at shards={shards} over {horizon_s} s runs: {e}"))
            .digest();
        assert_eq!(
            digest, golden,
            "simspeed at shards={shards} over {horizon_s} s: digest {digest:#018x} diverged from its golden {golden:#018x}"
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

/// Golden digest of [`preempted_disagg_serve`], recorded before the
/// serve loop skipped no-op dispatches and repeated endpoint levels.
const PREEMPTED_DISAGG_GOLDEN: u64 = 0x3f1e_510c_3e9b_4c3e;

/// FNV-1a over 64-bit words.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A serve engine on four A100 nodes: a disaggregated NVLM pair, CPU,
/// GPU and fractional-GPU tool pools, and an external search, fed 30
/// workflows with lulls long enough for the pools to release and
/// re-provision. Spot preemptions take the GPU tool pools' node mid-run
/// and later the endpoint's node, in the middle of a prefill with decode
/// idle: the re-placed pair restarts that prefill at the very levels the
/// dead one last wrote, on devices that are still idle. The engine folds
/// utilization and energy as it runs and drops the series points it is
/// past; the returned copy, synced after every admission and event,
/// keeps each device's whole series.
fn preempted_disagg_serve() -> (murakkab::engine::EngineOutcome, SeriesCopy) {
    use murakkab::engine::{CompiledGraph, Engine, EngineOptions, RouteSpec};
    use murakkab_agents::{library::stock_library, Capability, Work};
    use murakkab_cluster::{ClusterManager, PlacementPolicy};
    use murakkab_hardware::{catalog, HardwareTarget};
    use murakkab_llmsim::BackendSpec;
    use murakkab_sim::SimTime;
    use murakkab_workflow::TaskGraph;
    use std::collections::BTreeMap;

    let mut cluster = ClusterManager::new(PlacementPolicy::BestFit);
    for _ in 0..4 {
        cluster
            .add_node(catalog::nd96amsr_a100_v4())
            .expect("the shape has cores");
    }
    let pool = |agent: &str, workers: Vec<HardwareTarget>| RouteSpec::Pool {
        agent: agent.into(),
        workers,
    };
    let routes = BTreeMap::from([
        (
            Capability::FrameExtraction,
            pool("OpenCV", vec![HardwareTarget::cpu_cores(16); 2]),
        ),
        (
            Capability::SpeechToText,
            pool("Whisper", vec![HardwareTarget::ONE_GPU; 2]),
        ),
        (
            Capability::ObjectDetection,
            pool(
                "CLIP",
                vec![HardwareTarget::Hybrid {
                    gpus: 1,
                    gpu_share: 0.5,
                    cores: 8,
                }],
            ),
        ),
        (
            Capability::Summarization,
            RouteSpec::Endpoint {
                agent: "NVLM".into(),
                backend: BackendSpec::Disaggregated {
                    prefill_gpus: 3,
                    decode_gpus: 5,
                    max_batch: 8,
                },
            },
        ),
        (
            Capability::WebSearch,
            RouteSpec::External {
                agent: "WebSearch".into(),
            },
        ),
    ]);
    let options = EngineOptions {
        preemptions: vec![
            (SimTime::from_secs(25), 1),
            (SimTime::from_micros(74_050_000), 0),
        ],
        timeline: false,
        ..EngineOptions::default()
    };
    let mut engine = Engine::new(
        cluster,
        &stock_library(),
        TaskGraph::new(),
        routes,
        options,
        SimTime::ZERO,
    )
    .expect("the serve engine builds");
    engine.start(SimTime::ZERO).expect("starts");
    let mut copy = SeriesCopy::default();
    copy.sync(engine.cluster());

    // Each workflow: frames and audio of `scenes` scenes feed detection
    // and transcription, a per-scene summary, and a final summary that
    // also waits on a web search.
    let workflow = |i: u32| {
        let mut g = TaskGraph::new();
        let scenes = 1 + i % 3;
        let fin = g.add_task(
            "final",
            "final",
            Capability::Summarization,
            Work::Tokens {
                prompt: 700 + 40 * i,
                output: 30 + 7 * (i % 5),
            },
        );
        let search = g.add_task("search", "search", Capability::WebSearch, Work::Items(1));
        g.add_edge(search, fin).expect("acyclic");
        for s in 0..scenes {
            let frames = g.add_task(
                format!("frames/{s}"),
                "frames",
                Capability::FrameExtraction,
                Work::VideoSeconds(20.0 + f64::from(s * 5)),
            );
            let detect = g.add_task(
                format!("detect/{s}"),
                "detect",
                Capability::ObjectDetection,
                Work::Frames(12 + s),
            );
            let stt = g.add_task(
                format!("stt/{s}"),
                "stt",
                Capability::SpeechToText,
                Work::AudioSeconds(15.0 + f64::from((i + s) % 4) * 6.0),
            );
            let sum = g.add_task(
                format!("sum/{s}"),
                "sum",
                Capability::Summarization,
                Work::Tokens {
                    prompt: 400 + 25 * s,
                    output: 20 + 3 * ((i + s) % 7),
                },
            );
            for (a, b) in [(frames, detect), (detect, sum), (stt, sum), (sum, fin)] {
                g.add_edge(a, b).expect("acyclic");
            }
        }
        CompiledGraph::from_graph(&g).expect("compiles")
    };
    let mut at = SimTime::ZERO;
    for i in 0..30u32 {
        // Bursts of five, then a lull.
        at += SimDuration::from_secs(if i % 5 == 4 { 60 } else { 3 });
        while engine.peek_time().is_some_and(|t| t < at) {
            engine.step().expect("steps");
            copy.sync(engine.cluster());
        }
        engine
            .admit_graph_into(at, &workflow(i), i as usize)
            .expect("admits");
        copy.sync(engine.cluster());
    }
    while engine.step().expect("steps").is_some() {
        copy.sync(engine.cluster());
    }
    let outcome = engine.finish(SimTime::ZERO).expect("settles");
    copy.sync(&outcome.cluster);
    (outcome, copy)
}

#[test]
fn preempted_disagg_serve_matches_its_golden() {
    let (outcome, copy) = preempted_disagg_serve();
    assert_eq!(
        outcome.cluster.nodes().iter().filter(|n| !n.up).count(),
        2,
        "both spot preemptions landed"
    );
    assert!(
        outcome.pool_scale_downs > 0 && outcome.pool_scale_ups > 0,
        "pools released and came back: {} down, {} up",
        outcome.pool_scale_downs,
        outcome.pool_scale_ups
    );
    // Every device's whole series, from the copy, in node then device
    // order, each node's GPUs before its CPU pool.
    let mut words = Vec::new();
    for device in &copy.devices {
        words.push(device.points.len() as u64);
        for &(t, v) in &device.points {
            words.extend([t.as_micros(), v.to_bits()]);
        }
    }
    words.extend([
        outcome.energy_allocated_wh.to_bits(),
        outcome.cost_usd.to_bits(),
        outcome.makespan.as_micros(),
        outcome.tasks_completed as u64,
    ]);
    let digest = fnv_words(words);
    assert_eq!(
        digest, PREEMPTED_DISAGG_GOLDEN,
        "preempted disaggregated serve: digest {digest:#018x} diverged from its golden {PREEMPTED_DISAGG_GOLDEN:#018x}"
    );
}

/// The mean of the 1 s samples of `kind` over `[0, to]`, read from the
/// copy after the fact the way the retained run read its whole series.
fn retained_mean_util(
    copy: &SeriesCopy,
    kind: murakkab_hardware::DeviceKind,
    to: murakkab_sim::SimTime,
) -> f64 {
    let devices: Vec<_> = copy.of_kind(kind).collect();
    let total_cap: f64 = devices.iter().map(|d| d.capacity).sum();
    let mut samples = Vec::new();
    let mut t = murakkab_sim::SimTime::ZERO;
    loop {
        let busy: f64 = devices.iter().map(|d| d.value_at(t) * d.capacity).sum();
        samples.push(100.0 * busy / total_cap);
        if t >= to {
            break;
        }
        t = (t + murakkab_cluster::UTIL_SAMPLE).min(to);
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The run settled online — utilization and energy folded as the engine
/// runs, series points dropped once both readers are past them — reads
/// the GPU and CPU utilization means over the makespan that the retained
/// series give (the golden above pins the copy to the retained run's
/// series and ledgers), while holding fewer points than it recorded.
/// Both preemptions settle allocations mid-run, and the pools' release
/// and re-provision cycles settle and open more.
#[test]
fn preempted_disagg_serve_settled_online_matches_the_retained_run() {
    use murakkab_hardware::DeviceKind;

    let (outcome, copy) = preempted_disagg_serve();
    for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
        let settled = outcome
            .cluster
            .average_util(kind, outcome.makespan)
            .expect("settles");
        assert_eq!(
            settled.to_bits(),
            retained_mean_util(&copy, kind, outcome.makespan).to_bits(),
            "{kind:?} utilization"
        );
    }
    let recorded = copy
        .devices
        .iter()
        .map(|d| d.points.len())
        .max()
        .unwrap_or(0);
    assert!(
        outcome.cluster.retained_points() < recorded,
        "online settlement held {} points on one device of {recorded} recorded",
        outcome.cluster.retained_points(),
    );
}
