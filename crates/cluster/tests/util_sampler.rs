//! Differential tests of the cluster utilization sampler against the
//! per-sample binary-search sampler it replaced, read over a test-side
//! copy of every device's whole series while the cluster folds and trims
//! its own.

mod common;

use common::{DeviceCopy, SeriesCopy};
use murakkab_cluster::{AllocationId, ClusterManager, NodeId, PlacementPolicy, UTIL_SAMPLE};
use murakkab_hardware::{catalog, DeviceKind, HardwareTarget};
use murakkab_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The replaced sampler, kept verbatim as the oracle on the report grid
/// (one sample per second from zero): one binary search per device per
/// sample.
fn oracle_aggregate_util(copy: &SeriesCopy, kind: DeviceKind, to: SimTime) -> Vec<(f64, f64)> {
    let devices: Vec<&DeviceCopy> = copy.of_kind(kind).collect();
    let total_cap: f64 = devices.iter().map(|d| d.capacity).sum();
    if total_cap == 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        let busy: f64 = devices.iter().map(|d| d.value_at(t) * d.capacity).sum();
        out.push((t.as_secs_f64(), 100.0 * busy / total_cap));
        if t >= to {
            break;
        }
        t = (t + UTIL_SAMPLE).min(to);
    }
    out
}

/// The mean the fleet report used to take of the oracle's samples.
fn oracle_average(samples: &[(f64, f64)]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&(_, v)| v).sum::<f64>() / samples.len() as f64
    }
}

/// Task targets, fractional GPU shares included.
fn task_target() -> impl Strategy<Value = HardwareTarget> {
    prop_oneof![
        (1u32..3, prop_oneof![Just(0.25), Just(0.5), Just(1.0)])
            .prop_map(|(count, share)| HardwareTarget::Gpu { count, share }),
        (1u32..49).prop_map(HardwareTarget::cpu_cores),
        (1u32..3, prop_oneof![Just(0.5), Just(1.0)], 1u32..17).prop_map(
            |(gpus, gpu_share, cores)| HardwareTarget::Hybrid {
                gpus,
                gpu_share,
                cores,
            }
        ),
    ]
}

/// One step of cluster activity, `dt_us` after the previous one.
#[derive(Debug, Clone)]
enum Op {
    /// Allocates a task that takes start/end activity.
    Task(HardwareTarget),
    /// Allocates whole exclusive GPUs driven by absolute levels, like an
    /// LLM endpoint.
    Endpoint(u32),
    /// Starts activity on a random idle task at a GPU utilization.
    Start(usize, f64),
    /// Ends activity on a random busy task.
    End(usize),
    /// Sets a random endpoint's activity level.
    Level(usize, f64),
    /// Spot-preempts a node.
    Preempt(usize),
    /// Brings a node back.
    Restore(usize),
    /// A task completes now: the frontier moves here.
    Complete,
    /// Folds at the current frontier, whatever the record count.
    Fold,
}

fn op() -> impl Strategy<Value = Op> {
    let frac = || (0u8..5).prop_map(|v| f64::from(v) * 0.25);
    prop_oneof![
        task_target().prop_map(Op::Task),
        (1u32..3).prop_map(Op::Endpoint),
        (0usize..64, frac()).prop_map(|(i, u)| Op::Start(i, u)),
        (0usize..64).prop_map(Op::End),
        (0usize..64, frac()).prop_map(|(i, l)| Op::Level(i, l)),
        (0usize..64, frac()).prop_map(|(i, l)| Op::Level(i, l)),
        (0usize..4).prop_map(Op::Preempt),
        (0usize..4).prop_map(Op::Restore),
        Just(Op::Complete),
        Just(Op::Fold),
    ]
}

/// Builds a cluster of `gpu_nodes` GPU nodes and `cpu_nodes` CPU-only
/// nodes recording its timeline, replays `ops` on it and copies every
/// series after each call; returns both.
fn build(gpu_nodes: usize, cpu_nodes: usize, ops: &[(u64, Op)]) -> (ClusterManager, SeriesCopy) {
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    cm.record_timeline().unwrap();
    for _ in 0..gpu_nodes {
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
    }
    for _ in 0..cpu_nodes {
        cm.add_node(catalog::cpu_only_f64s()).unwrap();
    }
    let mut copy = SeriesCopy::default();
    copy.sync(&cm);
    // Tasks with their running GPU utilization, if busy; endpoints.
    let mut tasks: Vec<(AllocationId, Option<f64>)> = Vec::new();
    let mut endpoints: Vec<AllocationId> = Vec::new();
    let mut now = SimTime::ZERO;
    for (dt_us, op) in ops {
        now += SimDuration::from_micros(*dt_us);
        tasks.retain(|(id, _)| cm.is_live(*id));
        endpoints.retain(|id| cm.is_live(*id));
        match op {
            Op::Task(target) => {
                if let Ok(id) = cm.allocate(now, "task", *target) {
                    tasks.push((id, None));
                }
            }
            Op::Endpoint(gpus) => {
                if let Ok(id) = cm.allocate(now, "endpoint", HardwareTarget::gpus(*gpus)) {
                    endpoints.push(id);
                }
            }
            Op::Start(i, util) if !tasks.is_empty() => {
                let n = tasks.len();
                let (id, running) = &mut tasks[i % n];
                if running.is_none() {
                    cm.activity_start(now, *id, *util).unwrap();
                    *running = Some(*util);
                }
            }
            Op::End(i) if !tasks.is_empty() => {
                let n = tasks.len();
                let (id, running) = &mut tasks[i % n];
                if let Some(util) = running.take() {
                    cm.activity_end(now, *id, util).unwrap();
                }
            }
            Op::Level(i, level) if !endpoints.is_empty() => {
                let id = endpoints[i % endpoints.len()];
                cm.set_gpu_activity_level(now, id, *level).unwrap();
            }
            Op::Preempt(i) => {
                let node = NodeId::from_raw((i % cm.nodes().len()) as u64);
                let _ = cm.preempt_node(now, node);
            }
            Op::Restore(i) => {
                let node = NodeId::from_raw((i % cm.nodes().len()) as u64);
                let _ = cm.restore_node(now, node);
            }
            Op::Complete => cm.advance_frontier(now),
            Op::Fold => cm.fold(),
            _ => {}
        }
        copy.sync(&cm);
    }
    (cm, copy)
}

/// Checks the timeline's samples closed at `to` and the mean up to `to`
/// against the oracle, bit for bit.
fn check_window(
    cm: &ClusterManager,
    copy: &SeriesCopy,
    kind: DeviceKind,
    to: SimTime,
) -> Result<(), String> {
    let want = oracle_aggregate_util(copy, kind, to);
    let timeline = cm.clone().close_timeline(to).unwrap().expect("recorded");
    let got = match kind {
        DeviceKind::Gpu => timeline.gpu_util,
        DeviceKind::CpuPool => timeline.cpu_util,
    };
    prop_assert_eq!(got.len(), want.len(), "{:?} to {:?}", kind, to);
    for (g, w) in got.iter().zip(&want) {
        prop_assert_eq!(g.0.to_bits(), w.0.to_bits(), "instant {}", w.0);
        prop_assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "at {}: {} vs {}",
            w.0,
            g.1,
            w.1
        );
    }
    let mean = cm.average_util(kind, to).unwrap();
    prop_assert_eq!(mean.to_bits(), oracle_average(&want).to_bits(), "mean");
    Ok(())
}

proptest! {
    /// Samples and means match the binary-search oracle over random
    /// activity, preemptions, frontier moves and folds, on windows that end off
    /// the grid, at the frontier, before the last event or past it; on
    /// idle clusters; and for GPUs on CPU-only clusters (no capacity).
    #[test]
    fn sampler_matches_binary_search_oracle(
        gpu_nodes in 0usize..3,
        cpu_nodes in 0usize..3,
        ops in prop::collection::vec(
            (
                prop_oneof![Just(0u64), 1u64..4_000_000, Just(1_000_000u64)],
                op(),
            ),
            0..160,
        ),
        windows in prop::collection::vec(0u64..240_000_000, 1..6),
    ) {
        // At least one node, so CPU capacity exists somewhere.
        let cpu_nodes = if gpu_nodes + cpu_nodes == 0 { 1 } else { cpu_nodes };
        let (cm, copy) = build(gpu_nodes, cpu_nodes, &ops);
        let end: u64 = ops.iter().map(|(dt, _)| dt).sum();
        // Windows end at or after the frontier, the last completion; the
        // fleet report's own window is the last event.
        let frontier = ops
            .iter()
            .scan(0u64, |at, (dt, op)| {
                *at += dt;
                Some(matches!(op, Op::Complete).then_some(*at))
            })
            .flatten()
            .last()
            .unwrap_or(0);
        let mut ends: Vec<u64> = windows.into_iter().map(|to| to.max(frontier)).collect();
        ends.extend([frontier, end]);
        for to in ends {
            for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
                check_window(&cm, &copy, kind, SimTime::from_micros(to))?;
            }
        }
    }
}

#[test]
fn gpu_query_on_cpu_only_cluster_has_no_samples() {
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    cm.record_timeline().unwrap();
    cm.add_node(catalog::cpu_only_f64s()).unwrap();
    let to = SimTime::from_secs(10);
    let timeline = cm.clone().close_timeline(to).unwrap().expect("recorded");
    assert!(timeline.gpu_util.is_empty());
    assert_eq!(timeline.energy_fleet_wh, 0.0);
    assert_eq!(cm.average_util(DeviceKind::Gpu, to).unwrap(), 0.0);
    let mut copy = SeriesCopy::default();
    copy.sync(&cm);
    check_window(&cm, &copy, DeviceKind::Gpu, to).unwrap();
    check_window(&cm, &copy, DeviceKind::CpuPool, to).unwrap();
}

#[test]
fn a_long_trimmed_run_matches_the_oracle() {
    // Thousands of level changes with the frontier close behind: the
    // cluster keeps a short tail, the copy the whole run.
    let mut ops = vec![
        (0, Op::Endpoint(2)),
        (0, Op::Task(HardwareTarget::cpu_cores(8))),
    ];
    for step in 0..3_000usize {
        let level = (step % 5) as f64 * 0.25;
        ops.push((300_000, Op::Level(0, level)));
        ops.push((
            0,
            if step % 2 == 0 {
                Op::Start(0, 0.0)
            } else {
                Op::End(0)
            },
        ));
        if step % 3 == 0 {
            ops.push((0, Op::Complete));
        }
    }
    let (cm, copy) = build(1, 1, &ops);
    let whole = copy.devices.iter().map(|d| d.points.len()).max().unwrap();
    assert!(
        cm.retained_points() < 100 && whole > 2_000,
        "{} points held, {whole} recorded",
        cm.retained_points()
    );
    let end = SimTime::from_micros(300_000 * 3_000);
    for to in [end, end + SimDuration::from_micros(1_700_000)] {
        for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
            check_window(&cm, &copy, kind, to).unwrap();
        }
    }
}
