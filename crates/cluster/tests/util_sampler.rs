//! Differential tests of the cluster utilization sampler against the
//! per-sample binary-search sampler it replaced.

use murakkab_cluster::{AllocationId, ClusterManager, PlacementPolicy};
use murakkab_hardware::{catalog, DeviceKind, HardwareTarget};
use murakkab_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The replaced sampler, kept verbatim as the oracle: one
/// `TimeSeries::value_at` binary search per device per sample.
fn oracle_aggregate_util(
    cm: &ClusterManager,
    kind: DeviceKind,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
) -> Vec<(f64, f64)> {
    let devices: Vec<&murakkab_hardware::Device> = cm
        .nodes()
        .iter()
        .flat_map(|n| match kind {
            DeviceKind::Gpu => n.gpus.iter().collect::<Vec<_>>(),
            DeviceKind::CpuPool => vec![&n.cpu],
        })
        .collect();
    let total_cap: f64 = devices.iter().map(|d| d.capacity()).sum();
    if total_cap == 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut t = from;
    loop {
        let busy: f64 = devices
            .iter()
            .map(|d| d.util_series().value_at(t) * d.capacity())
            .sum();
        out.push((t.as_secs_f64(), 100.0 * busy / total_cap));
        if t >= to {
            break;
        }
        t = (t + interval).min(to);
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
}

fn op() -> impl Strategy<Value = Op> {
    let frac = || (0u8..5).prop_map(|v| f64::from(v) * 0.25);
    prop_oneof![
        task_target().prop_map(Op::Task),
        (1u32..3).prop_map(Op::Endpoint),
        (0usize..64, frac()).prop_map(|(i, u)| Op::Start(i, u)),
        (0usize..64).prop_map(Op::End),
        (0usize..64, frac()).prop_map(|(i, l)| Op::Level(i, l)),
    ]
}

/// Builds a cluster of `gpu_nodes` GPU nodes and `cpu_nodes` CPU-only
/// nodes and replays `ops` on it; returns it with its last event time.
fn build(gpu_nodes: usize, cpu_nodes: usize, ops: &[(u64, Op)]) -> (ClusterManager, SimTime) {
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    for _ in 0..gpu_nodes {
        cm.add_node(catalog::nd96amsr_a100_v4());
    }
    for _ in 0..cpu_nodes {
        cm.add_node(catalog::cpu_only_f64s());
    }
    // Tasks with their running GPU utilization, if busy; endpoints.
    let mut tasks: Vec<(AllocationId, Option<f64>)> = Vec::new();
    let mut endpoints: Vec<AllocationId> = Vec::new();
    let mut now = SimTime::ZERO;
    for (dt_us, op) in ops {
        now += SimDuration::from_micros(*dt_us);
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
            _ => {}
        }
    }
    (cm, now)
}

/// Checks every sample and the mean of one window against the oracle,
/// bit for bit.
fn check_window(
    cm: &ClusterManager,
    kind: DeviceKind,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
) -> Result<(), String> {
    let want = oracle_aggregate_util(cm, kind, from, to, interval);
    let got = cm.aggregate_util(kind, from, to, interval).unwrap();
    prop_assert_eq!(got.len(), want.len(), "{:?} [{:?}, {:?}]", kind, from, to);
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
    let mean = cm.average_util(kind, from, to, interval).unwrap();
    prop_assert_eq!(mean.to_bits(), oracle_average(&want).to_bits(), "mean");
    Ok(())
}

proptest! {
    /// Samples and means match the binary-search oracle over random
    /// activity, on windows that start after zero, end off the interval
    /// grid, end before they start, or run past the last event; on idle
    /// clusters; and for GPUs on CPU-only clusters (no capacity).
    #[test]
    fn sampler_matches_binary_search_oracle(
        gpu_nodes in 0usize..3,
        cpu_nodes in 0usize..3,
        ops in prop::collection::vec(
            (
                prop_oneof![Just(0u64), 1u64..4_000_000, Just(1_000_000u64)],
                op(),
            ),
            0..80,
        ),
        windows in prop::collection::vec(
            (0u64..120_000_000, 0u64..120_000_000, 100_000u64..3_500_000),
            1..6,
        ),
    ) {
        // At least one node, so CPU capacity exists somewhere.
        let cpu_nodes = if gpu_nodes + cpu_nodes == 0 { 1 } else { cpu_nodes };
        let (cm, end) = build(gpu_nodes, cpu_nodes, &ops);
        let mut windows: Vec<(SimTime, SimTime, SimDuration)> = windows
            .into_iter()
            .map(|(from, to, every)| {
                (
                    SimTime::from_micros(from),
                    SimTime::from_micros(to),
                    SimDuration::from_micros(every),
                )
            })
            .collect();
        // The fleet report's own window: whole seconds up to the last
        // event.
        windows.push((SimTime::ZERO, end, SimDuration::from_secs(1)));
        for (from, to, interval) in windows {
            for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
                check_window(&cm, kind, from, to, interval)?;
            }
        }
    }
}

#[test]
fn gpu_query_on_cpu_only_cluster_has_no_samples() {
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    cm.add_node(catalog::cpu_only_f64s());
    let second = SimDuration::from_secs(1);
    let (from, to) = (SimTime::ZERO, SimTime::from_secs(10));
    assert!(cm
        .aggregate_util(DeviceKind::Gpu, from, to, second)
        .unwrap()
        .is_empty());
    assert_eq!(
        cm.average_util(DeviceKind::Gpu, from, to, second).unwrap(),
        0.0
    );
    check_window(&cm, DeviceKind::Gpu, from, to, second).unwrap();
    check_window(&cm, DeviceKind::CpuPool, from, to, second).unwrap();
}
