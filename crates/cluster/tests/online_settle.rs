//! Differential tests of online settlement: a cluster that folds device
//! utilization and allocation energy forward as time passes, and drops
//! the points it is past, must settle to the same bits as a cluster that
//! keeps every series and reads it after the fact.

use murakkab_cluster::{AllocationId, ClusterManager, NodeId, PlacementPolicy};
use murakkab_hardware::{catalog, DeviceKind, HardwareTarget, PowerCurve};
use murakkab_sim::{SimDuration, SimTime, TimeSeries};
use proptest::prelude::*;

const SECOND: SimDuration = SimDuration::from_secs(1);

/// The energy loop settlement ran before it was folded online, kept
/// verbatim as an oracle for the retained cluster.
fn oracle_energy_wh(util: &TimeSeries, curve: PowerCurve, from: SimTime, to: SimTime) -> f64 {
    if to <= from {
        return 0.0;
    }
    let mut joules = 0.0;
    let mut cursor = from;
    let mut u = util.value_at(from);
    let start = util.points().partition_point(|&(pt, _)| pt <= from);
    for &(pt, v) in &util.points()[start..] {
        if pt >= to {
            break;
        }
        joules += curve.watts(u) * (pt - cursor).as_secs_f64();
        cursor = pt;
        u = v;
    }
    joules += curve.watts(u) * (to - cursor).as_secs_f64();
    joules / 3600.0
}

/// The oracle's energy of a live allocation of the retained cluster.
fn oracle_allocation_wh(cm: &ClusterManager, id: AllocationId, to: SimTime) -> f64 {
    let alloc = cm.allocation(id).expect("live");
    let node = &cm.nodes()[alloc.node.raw() as usize];
    let mut wh = 0.0;
    for g in &alloc.gpu_devices {
        let d = node.gpu(g.device).expect("granted");
        wh +=
            oracle_energy_wh(d.util_series(), d.power_curve(), alloc.created, to) * alloc.gpu_share;
    }
    wh
}

/// Task targets, fractional GPU shares included.
fn task_target() -> impl Strategy<Value = HardwareTarget> {
    prop_oneof![
        (1u32..3, prop_oneof![Just(0.25), Just(0.5), Just(1.0)])
            .prop_map(|(count, share)| HardwareTarget::Gpu { count, share }),
        (1u32..49).prop_map(HardwareTarget::cpu_cores),
        (1u32..3, prop_oneof![Just(0.25), Just(0.5)], 1u32..17).prop_map(
            |(gpus, gpu_share, cores)| HardwareTarget::Hybrid {
                gpus,
                gpu_share,
                cores,
            }
        ),
    ]
}

/// One step of cluster activity.
#[derive(Debug, Clone)]
enum Op {
    /// Allocates a task that takes start/end activity.
    Task(HardwareTarget),
    /// Allocates whole exclusive GPUs driven by absolute levels.
    Endpoint(u32),
    /// Starts activity on a random idle task.
    Start(usize, f64),
    /// Ends activity on a random busy task.
    End(usize),
    /// Sets a random endpoint's level (repeats write unchanged values).
    Level(usize, f64),
    /// Ends a random allocation's activity and releases it, settling its
    /// energy first.
    Release(usize),
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
        (1u32..4).prop_map(Op::Endpoint),
        (0usize..64, frac()).prop_map(|(i, u)| Op::Start(i, u)),
        (0usize..64).prop_map(Op::End),
        (0usize..64, frac()).prop_map(|(i, l)| Op::Level(i, l)),
        (0usize..64, frac()).prop_map(|(i, l)| Op::Level(i, l)),
        (0usize..64).prop_map(Op::Release),
        (0usize..4).prop_map(Op::Preempt),
        (0usize..4).prop_map(Op::Restore),
        Just(Op::Complete),
        Just(Op::Complete),
        Just(Op::Fold),
    ]
}

/// Microseconds between two ops: often none (same-instant overwrites),
/// often a multiple of a quarter second, so records, completions and
/// folds land on the one-second sample grid.
fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(0u64),
        (1u64..9).prop_map(|k| k * 250_000),
        1u64..2_500_000,
    ]
}

/// The two clusters under test, driven in lockstep.
struct Pair {
    retained: ClusterManager,
    online: ClusterManager,
    /// Live tasks with their running GPU utilization, if busy.
    tasks: Vec<(AllocationId, Option<f64>)>,
    endpoints: Vec<AllocationId>,
    now: SimTime,
}

impl Pair {
    fn new(gpu_nodes: usize, cpu_nodes: usize) -> Self {
        let mut retained = ClusterManager::new(PlacementPolicy::BestFit);
        for _ in 0..gpu_nodes {
            retained.add_node(catalog::nd96amsr_a100_v4());
        }
        for _ in 0..cpu_nodes {
            retained.add_node(catalog::cpu_only_f64s());
        }
        let mut online = retained.clone();
        online.settle_online(SECOND).expect("settles online");
        Pair {
            retained,
            online,
            tasks: Vec::new(),
            endpoints: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Runs `f` on both clusters and checks they agree on success.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        mut f: impl FnMut(&mut ClusterManager) -> Result<T, murakkab_sim::SimError>,
    ) -> Result<Option<T>, String> {
        let a = f(&mut self.retained);
        let b = f(&mut self.online);
        prop_assert_eq!(a.is_ok(), b.is_ok(), "{:?} vs {:?}", a, b);
        let (a, b) = (a.ok(), b.ok());
        prop_assert_eq!(&a, &b);
        Ok(a)
    }

    /// Settles `id`'s energy up to `to` on both clusters and checks the
    /// bits against each other and the oracle.
    fn check_energy(&self, id: AllocationId, to: SimTime) -> Result<(), String> {
        let want = oracle_allocation_wh(&self.retained, id, to);
        let retained = self.retained.allocation_energy_wh(id, to).expect("live");
        let online = self.online.allocation_energy_wh(id, to).expect("live");
        prop_assert_eq!(
            retained.to_bits(),
            want.to_bits(),
            "{} retained vs oracle",
            id
        );
        prop_assert_eq!(online.to_bits(), want.to_bits(), "{} online vs oracle", id);
        Ok(())
    }

    /// Applies `op` `dt_us` after the previous one; a completion or a
    /// fold happens at the previous op's instant, where more records may
    /// follow.
    fn apply(&mut self, dt_us: u64, op: &Op, frontier_moves: bool) -> Result<(), String> {
        if !matches!(op, Op::Complete | Op::Fold) {
            self.now += SimDuration::from_micros(dt_us);
        }
        let now = self.now;
        self.tasks.retain(|(id, _)| self.retained.is_live(*id));
        self.endpoints.retain(|id| self.retained.is_live(*id));
        match op {
            Op::Task(target) => {
                if let Some(id) = self.both(|cm| cm.allocate(now, "task", *target))? {
                    self.tasks.push((id, None));
                }
            }
            Op::Endpoint(gpus) => {
                if let Some(id) =
                    self.both(|cm| cm.allocate(now, "ep", HardwareTarget::gpus(*gpus)))?
                {
                    self.endpoints.push(id);
                }
            }
            Op::Start(i, util) if !self.tasks.is_empty() => {
                let n = self.tasks.len();
                let (id, running) = self.tasks[i % n];
                if running.is_none() {
                    self.both(|cm| cm.activity_start(now, id, *util))?;
                    self.tasks[i % n].1 = Some(*util);
                }
            }
            Op::End(i) if !self.tasks.is_empty() => {
                let n = self.tasks.len();
                if let (id, Some(util)) = self.tasks[i % n] {
                    self.both(|cm| cm.activity_end(now, id, util))?;
                    self.tasks[i % n].1 = None;
                }
            }
            Op::Level(i, level) if !self.endpoints.is_empty() => {
                let id = self.endpoints[i % self.endpoints.len()];
                self.both(|cm| cm.set_gpu_activity_level(now, id, *level))?;
            }
            Op::Release(i) if !self.tasks.is_empty() || !self.endpoints.is_empty() => {
                let n = self.tasks.len() + self.endpoints.len();
                let id = if i % n < self.tasks.len() {
                    let (id, running) = self.tasks.remove(i % n);
                    if let Some(util) = running {
                        self.both(|cm| cm.activity_end(now, id, util))?;
                    }
                    id
                } else {
                    let id = self.endpoints.remove(i % n - self.tasks.len());
                    self.both(|cm| cm.set_gpu_activity_level(now, id, 0.0))?;
                    id
                };
                self.check_energy(id, now)?;
                self.both(|cm| cm.release(now, id))?;
            }
            Op::Preempt(i) => {
                let node = NodeId::from_raw((i % self.retained.nodes().len()) as u64);
                // Live allocations on the node settle first, as the
                // engine settles them.
                let dying: Vec<AllocationId> = self
                    .retained
                    .allocations()
                    .filter(|a| a.node == node)
                    .map(|a| a.id)
                    .collect();
                if self.retained.nodes()[node.raw() as usize].up {
                    for id in dying {
                        self.check_energy(id, now)?;
                    }
                }
                self.both(|cm| cm.preempt_node(now, node))?;
            }
            Op::Restore(i) => {
                let node = NodeId::from_raw((i % self.retained.nodes().len()) as u64);
                self.both(|cm| cm.restore_node(now, node))?;
            }
            Op::Complete if frontier_moves => {
                self.retained.advance_frontier(now);
                self.online.advance_frontier(now);
            }
            Op::Fold => {
                self.retained.fold();
                self.online.fold();
            }
            _ => {}
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Energy settled at every release and preemption, energy of the
    /// allocations still held at a makespan that records outlive, and
    /// both utilization means agree bit for bit between the online and
    /// the retained cluster, and with the energy oracle; and the online
    /// cluster never holds more points than the retained one.
    #[test]
    fn online_settlement_matches_the_retained_series(
        gpu_nodes in 1usize..3,
        cpu_nodes in 0usize..2,
        ops in prop::collection::vec(
            (
                gap(),
                op(),
            ),
            0..160,
        ),
        tail in prop::collection::vec(
            (
                gap(),
                op(),
            ),
            0..20,
        ),
    ) {
        let mut pair = Pair::new(gpu_nodes, cpu_nodes);
        for (dt_us, op) in &ops {
            pair.apply(*dt_us, op, true)?;
        }
        // The last completion: the settle windows end here. The tail's
        // records land after it and must not leak into the settlement.
        let makespan = pair.now;
        pair.retained.advance_frontier(makespan);
        pair.online.advance_frontier(makespan);
        for (dt_us, op) in &tail {
            pair.apply(*dt_us, op, false)?;
        }
        prop_assert!(pair.online.retained_points() <= pair.retained.retained_points());
        let held: Vec<AllocationId> = pair.retained.allocations().map(|a| a.id).collect();
        for id in held {
            pair.check_energy(id, makespan)?;
            pair.check_energy(id, pair.now)?;
        }
        for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
            for to in [makespan, pair.now] {
                let want = pair.retained.average_util(kind, SimTime::ZERO, to, SECOND).unwrap();
                let got = pair.online.average_util(kind, SimTime::ZERO, to, SECOND).unwrap();
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} to {:?}", kind, to);
            }
        }
    }
}

#[test]
fn a_long_endpoint_run_keeps_a_short_tail() {
    let mut pair = Pair::new(1, 0);
    pair.apply(0, &Op::Endpoint(8), true).unwrap();
    for step in 0..2_000usize {
        pair.apply(250_000, &Op::Level(0, (step % 5) as f64 * 0.25), true)
            .unwrap();
        if step % 3 == 0 {
            pair.apply(0, &Op::Complete, true).unwrap();
        }
    }
    assert!(pair.retained.retained_points() > 1_500);
    assert!(
        pair.online.retained_points() < 100,
        "{} points held online",
        pair.online.retained_points()
    );
    let id = pair.endpoints[0];
    pair.check_energy(id, pair.now).unwrap();
}
