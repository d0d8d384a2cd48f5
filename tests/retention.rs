//! Resident engine state follows live work, not run length.
//!
//! One open-loop serve engine takes N and then 8N requests, in bursts
//! with lulls long enough for its tool pools to scale down and come
//! back, at most `MAX_INFLIGHT` workflows at a time. After every
//! admission the engine's retained task window and the cluster's
//! allocation table are read through `Engine::retained`, and the most
//! utilization points any one device holds through
//! `Engine::retained_series_points`. The first two must stay under a
//! bound set by the in-flight cap and the deployment, and the longer run
//! must hold no more of any of the three than the shorter one: finished
//! tasks and released allocations are retired, and settling utilization
//! as the run goes drops the points its readers are past, so no count
//! can grow with the number of requests served. A closed-loop run of N
//! and 8N workflows holds the same short device tails while its
//! timeline, the one output kept for the whole run, grows. The counts
//! are simulation state, not host measurements, so the gates are
//! deterministic.

#[path = "../crates/cluster/tests/common/mod.rs"]
mod common;

use std::collections::{BTreeMap, VecDeque};

use common::SeriesCopy;
use murakkab::engine::{CompiledGraph, Engine, EngineOptions, EngineOutcome, RouteSpec};
use murakkab_agents::{library::stock_library, Capability, Work};
use murakkab_cluster::{ClusterManager, PlacementPolicy};
use murakkab_hardware::{catalog, HardwareTarget};
use murakkab_llmsim::BackendSpec;
use murakkab_sim::{SimDuration, SimTime};
use murakkab_workflow::TaskGraph;

/// Workflows executing at once; later arrivals wait in FIFO order.
const MAX_INFLIGHT: usize = 4;

/// Requests of the shorter run.
const N: usize = 30;

/// Pool workers plus the endpoint's one allocation: the most the
/// deployment ever holds at once (no preemptions here).
const DEPLOYMENT_ALLOCATIONS: usize = 2 + 2 + 1 + 1;

/// An engine on two A100 nodes running `graph` (empty for serving),
/// started at zero.
fn engine(graph: TaskGraph, timeline: bool) -> Engine {
    let mut cluster = ClusterManager::new(PlacementPolicy::BestFit);
    for _ in 0..2 {
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
                backend: BackendSpec::Colocated {
                    gpus: 8,
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
        timeline,
        ..EngineOptions::default()
    };
    let mut engine = Engine::new(
        cluster,
        &stock_library(),
        graph,
        routes,
        options,
        SimTime::ZERO,
    )
    .expect("the engine builds");
    engine.start(SimTime::ZERO).expect("starts");
    engine
}

/// Request `i`: per scene, frames feed detection and both detection and
/// transcription feed a scene summary; every scene summary and a web
/// search feed the final summary.
fn workflow(i: usize) -> CompiledGraph {
    let mut g = TaskGraph::new();
    add_workflow(&mut g, i);
    CompiledGraph::from_graph(&g).expect("compiles")
}

/// Adds request `i`'s tasks to `g`.
fn add_workflow(g: &mut TaskGraph, i: usize) {
    let i = i as u32;
    let fin = g.add_task(
        "final",
        "final",
        Capability::Summarization,
        Work::Tokens {
            prompt: 600 + 30 * (i % 7),
            output: 30 + 5 * (i % 4),
        },
    );
    let search = g.add_task("search", "search", Capability::WebSearch, Work::Items(1));
    g.add_edge(search, fin).expect("acyclic");
    for s in 0..1 + i % 3 {
        let frames = g.add_task(
            format!("frames/{s}"),
            "frames",
            Capability::FrameExtraction,
            Work::VideoSeconds(15.0 + f64::from((i + s) % 5) * 4.0),
        );
        let detect = g.add_task(
            format!("detect/{s}"),
            "detect",
            Capability::ObjectDetection,
            Work::Frames(10 + s),
        );
        let stt = g.add_task(
            format!("stt/{s}"),
            "stt",
            Capability::SpeechToText,
            Work::AudioSeconds(12.0 + f64::from((i + 2 * s) % 4) * 5.0),
        );
        let sum = g.add_task(
            format!("sum/{s}"),
            "sum",
            Capability::Summarization,
            Work::Tokens {
                prompt: 400 + 20 * s,
                output: 20 + 3 * ((i + s) % 6),
            },
        );
        for (a, b) in [(frames, detect), (detect, sum), (stt, sum), (sum, fin)] {
            g.add_edge(a, b).expect("acyclic");
        }
    }
}

/// What one run held at most, over every admission, and the most change
/// points one device recorded over the run.
#[derive(Debug)]
struct Peak {
    tasks: usize,
    allocations: usize,
    series_points: usize,
    recorded_points: usize,
}

/// Serves `n` requests arriving in bursts of eight, two seconds apart,
/// each burst followed by a two-minute lull, with the timeline off as in
/// a fleet cell; returns the peak retained counts.
fn serve(n: usize) -> Peak {
    let mut engine = engine(TaskGraph::new(), false);
    // A copy of every device's series, synced after each drain, counts
    // what the devices recorded. Points recorded and dropped within one
    // drain are missed, so the count is a lower bound.
    let mut copy = SeriesCopy::default();
    let graphs: Vec<CompiledGraph> = (0..n).map(workflow).collect();
    let arrivals: Vec<SimTime> = (0..n)
        .scan(SimTime::ZERO, |at, i| {
            *at += SimDuration::from_secs(if i % 8 == 7 { 120 } else { 2 });
            Some(*at)
        })
        .collect();
    let mut remaining: Vec<usize> = graphs.iter().map(CompiledGraph::len).collect();
    let (mut waiting, mut inflight, mut arrived, mut served) = (VecDeque::new(), 0, 0, 0);
    let mut peak = Peak {
        tasks: 0,
        allocations: 0,
        series_points: 0,
        recorded_points: 0,
    };
    let mut now = SimTime::ZERO;
    loop {
        while inflight < MAX_INFLIGHT {
            let Some(job) = waiting.pop_front() else {
                break;
            };
            engine
                .admit_graph_into(now, &graphs[job], job)
                .expect("admits");
            inflight += 1;
            let (tasks, allocations) = engine.retained();
            peak.tasks = peak.tasks.max(tasks);
            peak.allocations = peak.allocations.max(allocations);
            peak.series_points = peak.series_points.max(engine.retained_series_points());
        }
        let bound = arrivals.get(arrived).copied().unwrap_or(SimTime::MAX);
        let stop = engine.step_while(bound, false).expect("steps");
        copy.sync(engine.cluster());
        match stop {
            Some(t) => {
                now = t;
                for &tid in engine.completions() {
                    let job = engine.task_job(tid);
                    remaining[job] -= 1;
                    if remaining[job] == 0 {
                        inflight -= 1;
                        served += 1;
                    }
                }
                engine.clear_completions();
                engine.clear_llm_metrics();
            }
            None if arrived < n => {
                now = bound;
                waiting.push_back(arrived);
                arrived += 1;
            }
            None => break,
        }
    }
    assert_eq!(served, n, "every request completes");
    let total: usize = graphs.iter().map(CompiledGraph::len).sum();
    let outcome = engine.finish(SimTime::ZERO).expect("settles");
    assert_eq!(outcome.tasks_completed, total);
    assert!(
        outcome.timeline.is_none(),
        "a serve cell records no timeline"
    );
    peak.recorded_points = copy
        .devices
        .iter()
        .map(|d| d.points.len())
        .max()
        .unwrap_or(0);
    assert!(
        outcome.pool_scale_downs > 0 && outcome.pool_scale_ups > 0,
        "the lulls scale pools down and back up: {} down, {} up",
        outcome.pool_scale_downs,
        outcome.pool_scale_ups
    );
    peak
}

/// Runs `n` workflows in one closed loop, timeline on, one event at a
/// time (`Engine::run` drains the same events in batches and ends in the
/// same state); returns the most points one device held after any
/// event, and the outcome.
fn closed_loop(n: usize) -> (usize, EngineOutcome) {
    let mut graph = TaskGraph::new();
    for i in 0..n {
        add_workflow(&mut graph, i);
    }
    let mut engine = engine(graph, true);
    let mut held = 0;
    while engine.step().expect("steps").is_some() {
        held = held.max(engine.retained_series_points());
    }
    (held, engine.finish(SimTime::ZERO).expect("settles"))
}

#[test]
fn retained_state_is_bounded_by_live_work() {
    let per_request = (0..8 * N)
        .map(|i| workflow(i).len())
        .max()
        .expect("requests");
    let task_bound = 4 * MAX_INFLIGHT * per_request;
    let short = serve(N);
    let long = serve(8 * N);
    for (n, peak) in [(N, &short), (8 * N, &long)] {
        assert!(
            peak.tasks <= task_bound,
            "{n} requests: {} task slots retained, bound {task_bound}",
            peak.tasks
        );
        assert!(
            peak.allocations <= DEPLOYMENT_ALLOCATIONS,
            "{n} requests: {} allocations in the table, bound {DEPLOYMENT_ALLOCATIONS}",
            peak.allocations
        );
    }
    assert!(
        long.tasks <= short.tasks
            && long.allocations <= short.allocations
            && long.series_points <= short.series_points,
        "retention grew with the request count: {short:?} at {N}, {long:?} at {}",
        8 * N
    );
}

#[test]
fn kept_series_grow_with_the_request_count() {
    // The gate above has teeth: the devices record several times more
    // change points in the longer run, so its flat count is the
    // settlement dropping them.
    let short = serve(N);
    let long = serve(8 * N);
    assert!(
        long.recorded_points > 4 * short.recorded_points
            && short.recorded_points > 2 * short.series_points,
        "{short:?} at {N} requests, {long:?} at {}",
        8 * N
    );
}

#[test]
fn closed_loop_timeline_grows_while_device_tails_stay_flat() {
    let (short_held, short) = closed_loop(N);
    let (long_held, long) = closed_loop(8 * N);
    let samples = |o: &EngineOutcome| {
        let timeline = o
            .timeline
            .as_ref()
            .expect("the closed loop records its timeline");
        assert_eq!(timeline.gpu_util.len(), timeline.cpu_util.len());
        timeline.gpu_util.len()
    };
    // One sample per second up to and including the makespan.
    for o in [&short, &long] {
        assert_eq!(
            samples(o),
            o.makespan.as_micros().div_ceil(1_000_000) as usize + 1
        );
    }
    assert!(
        samples(&long) > 4 * samples(&short),
        "the curves follow the makespan: {} samples at {N} workflows, {} at {}",
        samples(&short),
        samples(&long),
        8 * N
    );
    assert!(
        long_held <= short_held,
        "device tails grew with the run: {short_held} points at {N} workflows, \
         {long_held} at {}",
        8 * N
    );
}
