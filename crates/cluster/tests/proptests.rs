//! Property-based tests for the cluster manager.

use std::collections::BTreeSet;

use murakkab_cluster::{AllocationId, ClusterManager, PlacementPolicy};
use murakkab_hardware::{catalog, HardwareTarget, VmPricing};
use murakkab_sim::{SimError, SimTime};
use proptest::prelude::*;

fn target_strategy() -> impl Strategy<Value = HardwareTarget> {
    prop_oneof![
        (1u32..9).prop_map(HardwareTarget::gpus),
        (1u32..97).prop_map(HardwareTarget::cpu_cores),
        (1u32..3, 1u32..49).prop_map(|(g, c)| HardwareTarget::Hybrid {
            gpus: g,
            gpu_share: 1.0,
            cores: c,
        }),
    ]
}

proptest! {
    /// Under any sequence of allocate/release operations the cluster
    /// never over-commits: free capacity stays within [0, total], and
    /// after releasing everything the cluster is exactly back to full.
    #[test]
    fn allocate_release_never_overcommits(
        ops in prop::collection::vec((any::<bool>(), target_strategy()), 1..120),
        policy in prop_oneof![
            Just(PlacementPolicy::FirstFit),
            Just(PlacementPolicy::BestFit),
            Just(PlacementPolicy::Spread),
        ],
    ) {
        let mut cm = ClusterManager::new(policy);
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        let (gpus_total, cores_total) = (16.0, 192.0);

        let mut live: Vec<AllocationId> = Vec::new();
        let mut t = 0u64;
        for (is_alloc, target) in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            if is_alloc || live.is_empty() {
                if let Ok(id) = cm.allocate(now, "prop", target) {
                    live.push(id);
                }
            } else {
                let id = live.remove(live.len() / 2);
                cm.release(now, id).unwrap();
            }
            let s = cm.stats(now);
            prop_assert!(s.gpus_free >= -1e-9 && s.gpus_free <= gpus_total + 1e-9);
            prop_assert!(s.cores_free >= -1e-9 && s.cores_free <= cores_total + 1e-9);
            // Ledger consistency: free + reserved-by-live-allocations =
            // total.
            let reserved_gpus: f64 = cm
                .allocations()
                .map(|a| a.gpu_share * a.gpu_devices.len() as f64)
                .sum();
            prop_assert!((s.gpus_free + reserved_gpus - gpus_total).abs() < 1e-6);
        }
        t += 1;
        for id in live {
            cm.release(SimTime::from_secs(t), id).unwrap();
        }
        let s = cm.stats(SimTime::from_secs(t));
        prop_assert!((s.gpus_free - gpus_total).abs() < 1e-9);
        prop_assert!((s.cores_free - cores_total).abs() < 1e-9);
    }

    /// A granted allocation always fits entirely on one node, with the
    /// requested device counts.
    #[test]
    fn grants_match_requests(targets in prop::collection::vec(target_strategy(), 1..30)) {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        for (i, target) in targets.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            if let Ok(id) = cm.allocate(now, "prop", target) {
                let a = cm.allocation(id).unwrap();
                let want_gpus = match target {
                    HardwareTarget::Gpu { count, .. } => count,
                    HardwareTarget::Hybrid { gpus, .. } => gpus,
                    HardwareTarget::Cpu { .. } => 0,
                };
                prop_assert_eq!(a.gpu_devices.len() as u32, want_gpus);
                prop_assert_eq!(a.cores, target.cpu_cores_used());
            }
        }
    }

    /// Preempting and restoring a node always returns the cluster to its
    /// full stated capacity (allocations die, hardware comes back).
    #[test]
    fn preempt_restore_roundtrip(
        targets in prop::collection::vec(target_strategy(), 1..20),
        victim in 0usize..2,
    ) {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        let n0 = cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        let n1 = cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        for (i, target) in targets.into_iter().enumerate() {
            let _ = cm.allocate(SimTime::from_secs(i as u64), "prop", target);
        }
        let node = if victim == 0 { n0 } else { n1 };
        let killed = cm.preempt_node(SimTime::from_secs(100), node).unwrap();
        for k in killed {
            prop_assert!(cm.allocation(k).is_err());
        }
        cm.restore_node(SimTime::from_secs(200), node).unwrap();
        // Release all survivors: capacity must be whole again.
        let survivors: Vec<AllocationId> = cm.allocations().map(|a| a.id).collect();
        for id in survivors {
            cm.release(SimTime::from_secs(300), id).unwrap();
        }
        let s = cm.stats(SimTime::from_secs(301));
        prop_assert!((s.gpus_free - 16.0).abs() < 1e-9);
        prop_assert!((s.cores_free - 192.0).abs() < 1e-9);
    }

    /// An allocation's energy is non-negative and monotone in the window
    /// end: settling later never reduces the integral, whether the folds
    /// have carried it to the frontier or not.
    #[test]
    fn energy_monotone_in_window(
        util in prop::collection::vec(0.0f64..1.0, 1..10),
        a in 0u64..500,
        b in 0u64..500,
        frontier in 0u64..100,
    ) {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        let alloc = cm
            .allocate(SimTime::ZERO, "prop", HardwareTarget::ONE_GPU)
            .unwrap();
        for (i, &u) in util.iter().enumerate() {
            cm.set_gpu_activity_level(SimTime::from_secs(i as u64 * 10), alloc, u)
                .unwrap();
        }
        cm.advance_frontier(SimTime::from_secs(frontier.min(10 * (util.len() as u64 - 1))));
        cm.fold();
        let (lo, hi) = (a.min(b).max(frontier), a.max(b).max(frontier));
        let narrow = cm.allocation_energy_wh(alloc, SimTime::from_secs(lo)).unwrap();
        let wide = cm.allocation_energy_wh(alloc, SimTime::from_secs(hi)).unwrap();
        prop_assert!(narrow >= 0.0);
        prop_assert!(wide + 1e-12 >= narrow);
    }

    /// The allocation table holds exactly the live allocations, in
    /// ascending id order, under any interleaving of grants, releases
    /// (of live and of already-gone ids), node preemptions and restores,
    /// and harvest resizes. Ids are never reused, and a gone id is
    /// neither live nor found.
    #[test]
    fn allocation_table_is_live_only_and_id_ordered(
        ops in prop::collection::vec((0u8..4, target_strategy(), 0usize..64, 8u32..97), 1..150),
    ) {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        let mut harvest = catalog::cpu_only_f64s();
        harvest.pricing = VmPricing::Harvest {
            discount: 0.2,
            min_cores: 8,
        };
        let harvest = cm.add_node(harvest).unwrap();
        let mut live: BTreeSet<AllocationId> = BTreeSet::new();
        let mut gone: Vec<AllocationId> = Vec::new();
        let mut last_issued: Option<AllocationId> = None;
        for (i, (op, target, pick, cores)) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            match op {
                0 => {
                    if let Ok(id) = cm.allocate(now, "prop", target) {
                        prop_assert!(last_issued.is_none_or(|last| id > last), "{id} reused");
                        last_issued = Some(id);
                        live.insert(id);
                    }
                }
                1 => {
                    let all: Vec<AllocationId> = live.iter().chain(&gone).copied().collect();
                    if let Some(&id) = all.get(pick % all.len().max(1)) {
                        let was_live = live.remove(&id);
                        prop_assert_eq!(cm.release(now, id).is_ok(), was_live);
                        if was_live {
                            gone.push(id);
                        }
                    }
                }
                2 => {
                    let node = cm.nodes()[pick % cm.nodes().len()].id;
                    if cm.nodes()[node.raw() as usize].up {
                        for id in cm.preempt_node(now, node).unwrap() {
                            prop_assert!(live.remove(&id), "{id} was not live");
                            gone.push(id);
                        }
                    } else {
                        cm.restore_node(now, node).unwrap();
                    }
                }
                _ => {
                    if cm.nodes()[harvest.raw() as usize].up {
                        for id in cm.resize_harvest_cores(now, harvest, cores).unwrap() {
                            prop_assert!(live.remove(&id), "{id} was not live");
                            gone.push(id);
                        }
                    }
                }
            }
            let table: Vec<AllocationId> = cm.allocations().map(|a| a.id).collect();
            prop_assert!(table.windows(2).all(|w| w[0] < w[1]), "out of id order: {table:?}");
            prop_assert_eq!(&table, &live.iter().copied().collect::<Vec<_>>());
            for &id in &gone {
                prop_assert!(!cm.is_live(id), "{id} is still live");
                prop_assert!(matches!(cm.allocation(id), Err(SimError::NotFound { .. })));
            }
        }
    }
}
