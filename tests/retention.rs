//! Resident serve state follows live work, not run length.
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
//! tasks and released allocations are retired, and utilization settled
//! online drops the points its readers are past, so no count can grow
//! with the number of requests served. The counts are simulation state,
//! not host measurements, so the gate is deterministic.

use std::collections::{BTreeMap, VecDeque};

use murakkab::engine::{CompiledGraph, Engine, EngineOptions, RouteSpec};
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

fn engine(settle_online: bool) -> Engine {
    let mut cluster = ClusterManager::new(PlacementPolicy::BestFit);
    for _ in 0..2 {
        cluster.add_node(catalog::nd96amsr_a100_v4());
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
        record_spans: false,
        settle_online,
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
    engine
}

/// Request `i`: per scene, frames feed detection and both detection and
/// transcription feed a scene summary; every scene summary and a web
/// search feed the final summary.
fn workflow(i: usize) -> CompiledGraph {
    let i = i as u32;
    let mut g = TaskGraph::new();
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
    CompiledGraph::from_graph(&g).expect("compiles")
}

/// What one run held at most, over every admission.
#[derive(Debug)]
struct Peak {
    tasks: usize,
    allocations: usize,
    series_points: usize,
}

/// Serves `n` requests arriving in bursts of eight, two seconds apart,
/// each burst followed by a two-minute lull, settling utilization online
/// or keeping every series; returns the peak retained counts.
fn serve(n: usize, settle_online: bool) -> Peak {
    let mut engine = engine(settle_online);
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
        match engine.step_while(bound, false).expect("steps") {
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
        outcome.pool_scale_downs > 0 && outcome.pool_scale_ups > 0,
        "the lulls scale pools down and back up: {} down, {} up",
        outcome.pool_scale_downs,
        outcome.pool_scale_ups
    );
    peak
}

#[test]
fn retained_state_is_bounded_by_live_work() {
    let per_request = (0..8 * N)
        .map(|i| workflow(i).len())
        .max()
        .expect("requests");
    let task_bound = 4 * MAX_INFLIGHT * per_request;
    let short = serve(N, true);
    let long = serve(8 * N, true);
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
    // The gate above has teeth: without online settlement a device keeps
    // every change point, so the longer run holds several times more.
    let short = serve(N, false);
    let long = serve(8 * N, false);
    assert!(
        long.series_points > 4 * short.series_points,
        "{} points at {N} requests, {} at {}",
        short.series_points,
        long.series_points,
        8 * N
    );
}
