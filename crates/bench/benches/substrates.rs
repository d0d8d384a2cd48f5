//! Microbenchmarks of the substrate crates: event queue, LLM serving
//! engine, cluster placement, DAG expansion. These bound the simulator's
//! own overhead (how many simulated events per wall-second the
//! reproduction sustains).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use murakkab_cluster::{ClusterManager, PlacementPolicy};
use murakkab_hardware::{catalog, HardwareTarget};
use murakkab_llmsim::{build_backend, BackendSpec, Request};
use murakkab_orchestrator::{decompose, expand, JobInputs, MediaInfo, SceneInfo};
use murakkab_sim::{EventQueue, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event-queue-10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_micros(black_box(i * 37 % 9_973)), i);
            }
            q.drain_ordered().len()
        })
    });
}

fn bench_llm_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("llmsim");
    g.sample_size(30);
    for (name, spec) in [
        (
            "drain-64-requests",
            BackendSpec::Colocated {
                gpus: 1,
                max_batch: 8,
            },
        ),
        (
            "drain-64-requests-disagg",
            BackendSpec::Disaggregated {
                prefill_gpus: 1,
                decode_gpus: 1,
                max_batch: 8,
            },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let sku = catalog::a100_80g();
                let mut ep = build_backend(
                    "bench",
                    murakkab_llmsim::model::llama3_8b(),
                    sku.clone(),
                    &spec,
                    sku.interconnect_gbps,
                )
                .expect("backend builds");
                for i in 0..64 {
                    ep.on_submit(Request::new(i, 512, 64), SimTime::ZERO)
                        .unwrap();
                }
                let (done, _) = ep.drain(SimTime::ZERO).expect("drains");
                assert_eq!(done.len(), 64);
            })
        });
    }
    g.finish();
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("cluster/allocate-release-1k", |b| {
        b.iter(|| {
            let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
            for _ in 0..4 {
                cm.add_node(catalog::nd96amsr_a100_v4());
            }
            for i in 0..1_000u64 {
                let t = SimTime::from_micros(i);
                let a = cm
                    .allocate(t, "bench", HardwareTarget::cpu_cores(8))
                    .unwrap();
                cm.release(t, a).unwrap();
            }
            cm
        })
    });
}

fn bench_expand(c: &mut Criterion) {
    let scenes = vec![
        SceneInfo {
            duration_s: 30.0,
            audio_s: 30.0,
            frames: 5,
        };
        64
    ];
    let inputs = JobInputs::videos(vec![MediaInfo {
        file: "big.mov".into(),
        scenes,
    }]);
    c.bench_function("orchestrator/expand-64-scenes", |b| {
        b.iter(|| {
            let g = expand(&decompose::video_understanding_plan(), black_box(&inputs)).unwrap();
            assert_eq!(g.len(), 64 * 6 + 64 * 5);
            g
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_llm_engine,
    bench_cluster,
    bench_expand
);
criterion_main!(benches);
