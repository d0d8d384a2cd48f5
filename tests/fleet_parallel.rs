//! Parallel-execution determinism: the `threads` knob must never move a
//! digest. Region workers are the only parallel path: the geo property
//! sweep drives random seeds, region counts and geo policies comparing
//! worker-thread runs against `threads(1)`. On a single region cells
//! step inline, so the remaining cases pin that the knob is inert
//! there: the single-region property sweep over every router and shard
//! count, the committed scenario files, and the trace fixture (a
//! capture taken at `threads(1)` replays bit-identically at
//! `threads(2)`).

use murakkab::fleet::CellPolicy;
use murakkab::scenario::Scenario;
use murakkab::{ElasticSpec, GeoPolicy, GeoSpec};
use murakkab_bench::{shard_sweep_log, shard_sweep_scenario};
use murakkab_trace::RunTrace;
use murakkab_traffic::ArrivalProcess;
use proptest::prelude::*;

const HORIZON_S: f64 = 120.0;
// Sixteen nodes keep a cell at two nodes even at eight shards — below
// that a cell cannot host the full agent set next to its serving stack.
const NODES: usize = 16;

fn digest_of(scenario: &Scenario) -> u64 {
    scenario.run().expect("scenario serves").digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed, shard count, router, steal margin and thread
    /// count, a single-region run produces the same report digest as at
    /// `threads(1)`: its cells always step inline.
    #[test]
    fn parallel_serve_matches_sequential_digest(
        seed in 0u64..1_000,
        shards_idx in 0usize..4,
        router_idx in 0usize..3,
        steal_margin in 1usize..4,
        threads in 2usize..=4,
    ) {
        let shards = [1usize, 2, 4, 8][shards_idx];
        let router =
            [CellPolicy::Hashed, CellPolicy::LeastLoaded, CellPolicy::SloAffine][router_idx];
        let log = shard_sweep_log(seed, HORIZON_S);
        let base = shard_sweep_scenario(seed, &log, shards, HORIZON_S, NODES)
            .router(router)
            .steal_margin(steal_margin);
        let sequential = digest_of(&base.clone().threads(1));
        let parallel = digest_of(&base.threads(threads));
        prop_assert_eq!(
            sequential, parallel,
            "threads={} diverged (seed {}, shards {}, router {:?}, margin {})",
            threads, seed, shards, router, steal_margin
        );
    }

    /// For any seed, two or three regions (with or without elastic spot
    /// cells), any geo policy and any region-worker count, the
    /// federated run produces the same digest as at `threads(1)`:
    /// regions only interact at sync-epoch boundaries and merge in
    /// region-index order, so thread scheduling is unobservable.
    #[test]
    fn region_workers_match_sequential_geo_digest(
        seed in 0u64..1_000,
        regions in 2usize..=3,
        policy_idx in 0usize..4,
        elastic in 0usize..2,
        threads in 2usize..=4,
    ) {
        let policy = GeoPolicy::ALL[policy_idx];
        let mut spec = GeoSpec::three_region(2, 1, 2)
            .policy(policy)
            .day_s(600.0)
            .sync_epoch_s(30.0);
        spec.regions.truncate(regions);
        spec.wan.rtt_ms.truncate(regions);
        for row in &mut spec.wan.rtt_ms {
            row.truncate(regions);
        }
        if elastic == 1 {
            spec = spec.elastic(ElasticSpec::default());
        }
        let nodes = spec.regions.iter().map(|r| r.nodes + r.spot_nodes).sum::<usize>();
        let base = Scenario::open_loop(
            "geo-workers",
            ArrivalProcess::Poisson { rate_per_s: 0.4 },
            HORIZON_S,
        )
        .seed(seed)
        .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), nodes)
        .geo(spec);
        let sequential = digest_of(&base.clone().threads(1));
        let parallel = digest_of(&base.threads(threads));
        prop_assert_eq!(
            sequential, parallel,
            "threads={} diverged (seed {}, {} regions, {:?}, elastic {})",
            threads, seed, regions, policy, elastic
        );
    }
}

/// Every committed single-region scenario file serves to the same
/// digest at `threads(1)` and `threads(3)` — the knob is inert on
/// exactly the configurations the repo's experiments are pinned to.
#[test]
fn committed_scenarios_are_thread_count_invariant() {
    for name in [
        "disagg_ab_colocated.json",
        "disagg_ab_disaggregated.json",
        "overload_open_loop.json",
    ] {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let scenario = Scenario::from_json_file(&path).expect("scenario parses");
        let sequential = digest_of(&scenario.clone().threads(1));
        let parallel = digest_of(&scenario.threads(3));
        assert_eq!(sequential, parallel, "{name} digest moved under threads=3");
    }
}

/// A trace captured at `threads(1)` replays bit-identically at
/// `threads(2)`: capture/replay and the thread knob compose.
#[test]
fn captured_trace_replays_identically_on_worker_threads() {
    let mut trace = RunTrace::from_json_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace_small.json"
    ))
    .expect("fixture trace parses and validates");
    let recorded = trace.digest.expect("fixture carries a digest");
    trace.scenario = trace.scenario.threads(2);
    let report = trace
        .verify_replay()
        .expect("parallel replay is bit-identical to the sequential capture");
    assert_eq!(report.digest(), recorded);
}
