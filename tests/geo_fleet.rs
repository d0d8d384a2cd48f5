//! Multi-region federation invariants: accounting identities on the
//! geo report, bit-identical digests across worker-thread counts and
//! region counts, and per-request capture of federated runs.

use murakkab::scenario::{Report, Scenario, Session};
use murakkab::{GeoPolicy, GeoSpec};
use murakkab_traffic::ArrivalProcess;

const HORIZON_S: f64 = 120.0;
// Compressed day: the 120s horizon sees a fifth of a diurnal cycle and
// the follow-the-sun weights actually move between sync epochs.
const DAY_S: f64 = 600.0;

fn geo_scenario(label: &str, seed: u64, spec: GeoSpec) -> Scenario {
    geo_scenario_at(label, seed, spec, 0.4)
}

fn geo_scenario_at(label: &str, seed: u64, spec: GeoSpec, rate_per_s: f64) -> Scenario {
    let nodes = spec.regions.iter().map(|r| r.nodes).sum::<usize>()
        + if spec.elastic.is_some() {
            spec.regions.iter().map(|r| r.spot_nodes).sum::<usize>()
        } else {
            0
        };
    Scenario::open_loop(label, ArrivalProcess::Poisson { rate_per_s }, HORIZON_S)
        .seed(seed)
        .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), nodes)
        .geo(spec)
}

fn run(scenario: &Scenario) -> Report {
    Session::new(scenario)
        .expect("session builds")
        .execute(scenario)
        .expect("geo scenario serves")
}

/// The federated report's books balance: every planned request
/// originates in exactly one region and is served in exactly one,
/// cross-region traffic is counted identically from both ends, and the
/// headline cost is compute plus WAN egress.
#[test]
fn three_region_accounting_identities() {
    let spec = GeoSpec::three_region(2, 1, 2)
        .policy(GeoPolicy::FollowTheSun)
        .day_s(DAY_S)
        .sync_epoch_s(30.0);
    let report = run(&geo_scenario("geo-accounting", 7, spec));
    let geo = report.geo().expect("geo detail");

    assert_eq!(geo.regions.len(), 3);
    let origins: u64 = geo.regions.iter().map(|r| r.origin_requests).sum();
    let served: u64 = geo.regions.iter().map(|r| r.served_requests).sum();
    assert_eq!(origins, geo.global.offered, "every request originates once");
    assert_eq!(origins, served, "every request is served exactly once");

    let out: u64 = geo.regions.iter().map(|r| r.escaped_out).sum();
    let inn: u64 = geo.regions.iter().map(|r| r.escaped_in).sum();
    assert_eq!(out, inn, "cross-region flows agree from both ends");
    assert_eq!(out, geo.cross_region_requests);

    let egress: f64 = geo.regions.iter().map(|r| r.wan_egress_usd).sum();
    assert!((egress - geo.wan_egress_usd).abs() < 1e-9);
    assert!(
        (geo.cost_usd - (geo.global.cost_usd + geo.wan_egress_usd)).abs() < 1e-9,
        "headline cost is compute plus WAN egress"
    );

    // The mode-independent core mirrors the global roll-up, so every
    // downstream consumer (trace diffs, score tables) works unchanged.
    assert_eq!(report.core.cost_usd, geo.cost_usd);
    assert_eq!(
        report.open_loop().expect("global roll-up").offered,
        geo.global.offered
    );
}

/// Same seed, same spec → the same digest at every worker-thread count
/// and for each region count: regions only interact at sync-epoch
/// boundaries and merge in region-index order, so thread scheduling is
/// unobservable.
#[test]
fn geo_digest_is_thread_count_invariant() {
    for (regions, spec) in [
        (2usize, {
            let mut s = GeoSpec::three_region(2, 1, 0)
                .day_s(DAY_S)
                .sync_epoch_s(30.0);
            s.regions.truncate(2);
            s.wan.rtt_ms = vec![vec![0.0, 80.0], vec![80.0, 0.0]];
            s
        }),
        (3usize, {
            GeoSpec::three_region(2, 1, 2)
                .policy(GeoPolicy::LatencyWeighted)
                .day_s(DAY_S)
                .sync_epoch_s(30.0)
        }),
    ] {
        let base = geo_scenario("geo-threads", 42, spec);
        let sequential = run(&base.clone().threads(1)).digest();
        for threads in 2..=4 {
            let digest = run(&base.clone().threads(threads)).digest();
            assert_eq!(
                sequential, digest,
                "threads={threads} moved the digest with {regions} regions"
            );
        }
    }
}

/// Every routing policy serves the same arrival stream at the same
/// spot schedule — the equal-cost contract behind policy sweeps.
#[test]
fn policies_share_offered_load_and_spot_hours() {
    let mut baseline: Option<(u64, f64)> = None;
    for policy in GeoPolicy::ALL {
        let spec = GeoSpec::three_region(2, 1, 2)
            .policy(policy)
            .day_s(DAY_S)
            .sync_epoch_s(30.0);
        let report = run(&geo_scenario("geo-policies", 11, spec));
        let geo = report.geo().unwrap();
        let key = (geo.global.offered, geo.spot_node_hours);
        match &baseline {
            None => baseline = Some(key),
            Some(prev) => {
                assert_eq!(prev.0, key.0, "{policy:?} saw different offered load");
                assert!(
                    (prev.1 - key.1).abs() < 1e-9,
                    "{policy:?} got a different spot schedule"
                );
            }
        }
    }
}

/// A single-region capture replays counterfactually across three
/// regions: the what-if geo knob pins the captured arrival instants,
/// resizes the cluster to the federation footprint, and the diff
/// compares the same request stream under both fleets.
#[test]
fn whatif_federates_a_single_region_capture() {
    use murakkab_trace::{whatif, RunTrace, WhatIf};

    let scenario = Scenario::open_loop(
        "geo-whatif",
        ArrivalProcess::Poisson { rate_per_s: 0.4 },
        HORIZON_S,
    )
    .seed(9)
    .cluster(murakkab_hardware::catalog::nd96amsr_a100_v4(), 6);
    let trace = RunTrace::capture(&scenario).expect("single-region capture");

    let spec = GeoSpec::three_region(2, 1, 0)
        .policy(GeoPolicy::NearestRegion)
        .day_s(DAY_S)
        .sync_epoch_s(30.0);
    let report = whatif(&trace, &WhatIf::named("three-region").geo(spec))
        .expect("federated counterfactual runs");

    let geo = report.variant.geo().expect("variant is federated");
    assert_eq!(geo.regions.len(), 3);
    assert_eq!(
        geo.global.offered,
        report.baseline.open_loop().unwrap().offered,
        "the counterfactual replays the captured stream verbatim"
    );
}

/// A federated run captures like a single-region one: every request
/// gets one outcome naming its serving region, steals stay in time
/// order, capture moves no digest, and the trace replays bit-identically
/// — at every region-worker count, with the same capture. Its regions
/// tick the advisory rebalancer, and the counts roll up cell → region →
/// global.
#[test]
fn geo_capture_replays() {
    use murakkab_trace::RunTrace;

    let spec = GeoSpec::three_region(4, 2, 4)
        .policy(GeoPolicy::LatencyWeighted)
        .day_s(DAY_S)
        .sync_epoch_s(30.0);
    let base = geo_scenario_at("geo-capture", 3, spec, 2.0);
    let mut first = None;
    for threads in [1, 3] {
        let scenario = base.clone().threads(threads);
        let session = Session::new(&scenario).expect("session builds");
        let trace = RunTrace::capture_with(&session, &scenario).expect("geo scenario captures");
        let uncaptured = session.execute(&scenario).expect("geo scenario serves");
        assert_eq!(
            trace.digest,
            Some(uncaptured.digest()),
            "capture moved the digest"
        );
        trace
            .verify_replay()
            .expect("geo trace replays bit-identically");

        let offered = uncaptured.open_loop().expect("global roll-up").offered;
        assert_eq!(trace.requests.len() as u64, offered);
        let mut routed = [0u64; 3];
        for r in &trace.requests {
            let o = r.outcome.as_ref().expect("every request has one outcome");
            match o.region {
                Some(g) if g < 3 => routed[g] += 1,
                g => panic!("request {} names region {g:?}", r.id),
            }
        }
        let geo = uncaptured.geo().expect("geo detail");
        for (g, region) in geo.regions.iter().enumerate() {
            assert_eq!(routed[g], region.served_requests, "region {g}'s outcomes");
            let cells: u64 = region.fleet.cells.iter().map(|c| c.rebalance_actions).sum();
            assert_eq!(
                region.fleet.rebalance_actions, cells,
                "region {g}'s rebalancer total"
            );
        }
        // Every region runs the rebalancer tick at its sync epochs.
        let regions: u64 = geo.regions.iter().map(|r| r.fleet.rebalance_actions).sum();
        assert!(regions > 0, "geo regions run the advisory rebalancer");
        assert_eq!(
            geo.global.rebalance_actions, regions,
            "global rebalancer roll-up"
        );
        // Steals in several regions, so the merge has to interleave.
        let stolen_in = |g| trace.steals.iter().any(|s| s.region == Some(g));
        assert!(
            (0..3).filter(|&g| stolen_in(g)).count() > 1,
            "the scenario should steal in more than one region"
        );
        assert!(
            trace.steals.windows(2).all(|w| w[0].at_s <= w[1].at_s),
            "steals are time-ordered"
        );
        let capture = (trace.requests, trace.steals);
        match &first {
            None => first = Some(capture),
            Some(prev) => assert_eq!(prev, &capture, "threads={threads} moved the capture"),
        }
    }
}
