//! Differential tests of online settlement: a cluster folds allocation
//! and fleet energy forward as time passes, and drops the points it is
//! past, yet must settle to the same bits as the energy loop it replaced,
//! run after the fact over a test-side copy of every device's whole
//! series.

mod common;

use common::{DeviceCopy, SeriesCopy};
use murakkab_cluster::{AllocationId, ClusterManager, NodeId, PlacementPolicy};
use murakkab_hardware::{catalog, DeviceKind, HardwareTarget};
use murakkab_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The energy loop settlement ran before it was folded online, kept
/// verbatim as an oracle over the copy of a device's whole series.
fn oracle_energy_wh(util: &DeviceCopy, from: SimTime, to: SimTime) -> f64 {
    if to <= from {
        return 0.0;
    }
    let curve = util.power;
    let mut joules = 0.0;
    let mut cursor = from;
    let mut u = util.value_at(from);
    let start = util.points.partition_point(|&(pt, _)| pt <= from);
    for &(pt, v) in &util.points[start..] {
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

/// The oracle's energy of a live allocation.
fn oracle_allocation_wh(
    cm: &ClusterManager,
    copy: &SeriesCopy,
    id: AllocationId,
    to: SimTime,
) -> f64 {
    let alloc = cm.allocation(id).expect("live");
    let mut wh = 0.0;
    for g in &alloc.gpu_devices {
        let d = &copy.devices[g.device.raw() as usize];
        wh += oracle_energy_wh(d, alloc.created, to) * alloc.gpu_share;
    }
    wh
}

/// The oracle's energy of every GPU from zero, in node then device
/// order, as whole-fleet energy was summed before it was folded online.
fn oracle_fleet_wh(copy: &SeriesCopy, to: SimTime) -> f64 {
    let mut wh = 0.0;
    for d in copy.of_kind(DeviceKind::Gpu) {
        wh += oracle_energy_wh(d, SimTime::ZERO, to);
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

/// The cluster under test, recording its timeline, and a copy of every
/// device's whole series, synced after each cluster call.
struct Run {
    cm: ClusterManager,
    copy: SeriesCopy,
    /// Live tasks with their running GPU utilization, if busy.
    tasks: Vec<(AllocationId, Option<f64>)>,
    endpoints: Vec<AllocationId>,
    now: SimTime,
}

impl Run {
    fn new(gpu_nodes: usize, cpu_nodes: usize) -> Self {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        cm.record_timeline().expect("records from the start");
        for _ in 0..gpu_nodes {
            cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        }
        for _ in 0..cpu_nodes {
            cm.add_node(catalog::cpu_only_f64s()).unwrap();
        }
        let mut copy = SeriesCopy::default();
        copy.sync(&cm);
        Run {
            cm,
            copy,
            tasks: Vec::new(),
            endpoints: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Runs `f` on the cluster, then syncs the copy.
    fn call<T>(
        &mut self,
        f: impl FnOnce(&mut ClusterManager) -> Result<T, murakkab_sim::SimError>,
    ) -> Option<T> {
        let out = f(&mut self.cm).ok();
        self.copy.sync(&self.cm);
        out
    }

    /// Settles `id`'s energy up to `to` and checks the bits against the
    /// oracle.
    fn check_energy(&self, id: AllocationId, to: SimTime) -> Result<(), String> {
        let want = oracle_allocation_wh(&self.cm, &self.copy, id, to);
        let got = self.cm.allocation_energy_wh(id, to).expect("live");
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs oracle", id);
        Ok(())
    }

    /// Closes a clone's timeline at `to` and checks its fleet energy
    /// against the oracle.
    fn check_fleet(&self, to: SimTime) -> Result<(), String> {
        let timeline = self
            .cm
            .clone()
            .close_timeline(to)
            .unwrap()
            .expect("recorded");
        let want = oracle_fleet_wh(&self.copy, to);
        prop_assert_eq!(
            timeline.energy_fleet_wh.to_bits(),
            want.to_bits(),
            "fleet to {:?}",
            to
        );
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
        self.tasks.retain(|(id, _)| self.cm.is_live(*id));
        self.endpoints.retain(|id| self.cm.is_live(*id));
        match op {
            Op::Task(target) => {
                if let Some(id) = self.call(|cm| cm.allocate(now, "task", *target)) {
                    self.tasks.push((id, None));
                }
            }
            Op::Endpoint(gpus) => {
                if let Some(id) =
                    self.call(|cm| cm.allocate(now, "ep", HardwareTarget::gpus(*gpus)))
                {
                    self.endpoints.push(id);
                }
            }
            Op::Start(i, util) if !self.tasks.is_empty() => {
                let n = self.tasks.len();
                let (id, running) = self.tasks[i % n];
                if running.is_none() {
                    self.call(|cm| cm.activity_start(now, id, *util));
                    self.tasks[i % n].1 = Some(*util);
                }
            }
            Op::End(i) if !self.tasks.is_empty() => {
                let n = self.tasks.len();
                if let (id, Some(util)) = self.tasks[i % n] {
                    self.call(|cm| cm.activity_end(now, id, util));
                    self.tasks[i % n].1 = None;
                }
            }
            Op::Level(i, level) if !self.endpoints.is_empty() => {
                let id = self.endpoints[i % self.endpoints.len()];
                self.call(|cm| cm.set_gpu_activity_level(now, id, *level));
            }
            Op::Release(i) if !self.tasks.is_empty() || !self.endpoints.is_empty() => {
                let n = self.tasks.len() + self.endpoints.len();
                let id = if i % n < self.tasks.len() {
                    let (id, running) = self.tasks.remove(i % n);
                    if let Some(util) = running {
                        self.call(|cm| cm.activity_end(now, id, util));
                    }
                    id
                } else {
                    let id = self.endpoints.remove(i % n - self.tasks.len());
                    self.call(|cm| cm.set_gpu_activity_level(now, id, 0.0));
                    id
                };
                self.check_energy(id, now)?;
                self.call(|cm| cm.release(now, id));
            }
            Op::Preempt(i) => {
                let node = NodeId::from_raw((i % self.cm.nodes().len()) as u64);
                // Live allocations on the node settle first, as the
                // engine settles them.
                let dying: Vec<AllocationId> = self
                    .cm
                    .allocations()
                    .filter(|a| a.node == node)
                    .map(|a| a.id)
                    .collect();
                if self.cm.nodes()[node.raw() as usize].up {
                    for id in dying {
                        self.check_energy(id, now)?;
                    }
                }
                self.call(|cm| cm.preempt_node(now, node));
            }
            Op::Restore(i) => {
                let node = NodeId::from_raw((i % self.cm.nodes().len()) as u64);
                self.call(|cm| cm.restore_node(now, node));
            }
            Op::Complete if frontier_moves => self.cm.advance_frontier(now),
            Op::Fold => {
                self.call(|cm| {
                    cm.fold();
                    Ok(())
                });
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
    /// whole-fleet energy agree bit for bit with the energy oracle over
    /// the copy; and the cluster never holds more points than the copy.
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
        let mut run = Run::new(gpu_nodes, cpu_nodes);
        for (dt_us, op) in &ops {
            run.apply(*dt_us, op, true)?;
        }
        // The last completion: the settle windows end here. The tail's
        // records land after it and must not leak into the settlement.
        let makespan = run.now;
        run.cm.advance_frontier(makespan);
        for (dt_us, op) in &tail {
            run.apply(*dt_us, op, false)?;
        }
        let whole = run.copy.devices.iter().map(|d| d.points.len()).max().unwrap_or(0);
        prop_assert!(run.cm.retained_points() <= whole);
        let held: Vec<AllocationId> = run.cm.allocations().map(|a| a.id).collect();
        for id in held {
            run.check_energy(id, makespan)?;
            run.check_energy(id, run.now)?;
        }
        run.check_fleet(makespan)?;
        run.check_fleet(run.now)?;
    }
}

#[test]
fn a_long_endpoint_run_keeps_a_short_tail() {
    let mut run = Run::new(1, 0);
    run.apply(0, &Op::Endpoint(8), true).unwrap();
    for step in 0..2_000usize {
        run.apply(250_000, &Op::Level(0, (step % 5) as f64 * 0.25), true)
            .unwrap();
        if step % 3 == 0 {
            run.apply(0, &Op::Complete, true).unwrap();
        }
    }
    assert!(run.copy.devices[0].points.len() > 1_500);
    assert!(
        run.cm.retained_points() < 100,
        "{} points held",
        run.cm.retained_points()
    );
    let id = run.endpoints[0];
    run.check_energy(id, run.now).unwrap();
    run.check_fleet(run.now).unwrap();
}
