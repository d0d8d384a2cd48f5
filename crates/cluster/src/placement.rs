//! Placement policies.

use serde::{Deserialize, Serialize};

use murakkab_hardware::HardwareTarget;

use crate::node::{Node, NodeId};

/// How the manager picks a node for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// First node (by id) that fits.
    FirstFit,
    /// Node that fits with the least leftover capacity (tightest packing;
    /// minimises fragmentation — the paper's efficiency goal).
    #[default]
    BestFit,
    /// Node that fits with the *most* leftover capacity (spreads load).
    Spread,
}

impl PlacementPolicy {
    /// Chooses a node for `target` among `nodes`, or `None` if nothing
    /// fits. Deterministic: ties break toward the lower node id.
    pub fn choose(&self, nodes: &[Node], target: &HardwareTarget) -> Option<NodeId> {
        let fits = |n: &Node| -> bool { n.up && node_fits(n, target) };
        let leftover = |n: &Node| -> f64 {
            // Leftover capacity after placement, in GPU-equivalents
            // (1 GPU ~ 12 cores for comparability).
            let gpu_left = n.free_gpu_units() - target.gpu_units();
            let core_left = n.free_cores() - f64::from(target.cpu_cores_used());
            gpu_left + core_left / 12.0
        };
        let mut candidates = nodes.iter().filter(|n| fits(n));
        match self {
            PlacementPolicy::FirstFit => candidates.next().map(|n| n.id),
            PlacementPolicy::BestFit => candidates
                .min_by(|a, b| {
                    leftover(a)
                        .total_cmp(&leftover(b))
                        .then_with(|| a.id.cmp(&b.id))
                })
                .map(|n| n.id),
            PlacementPolicy::Spread => candidates
                .max_by(|a, b| {
                    leftover(a)
                        .total_cmp(&leftover(b))
                        .then_with(|| b.id.cmp(&a.id))
                })
                .map(|n| n.id),
        }
    }
}

/// Whether a single node can host the whole target.
///
/// GPU shares must be satisfiable per-device: `Gpu { count: 2, share: 0.5 }`
/// needs two devices with ≥0.5 free each, not 1.0 spread anywhere.
pub fn node_fits(node: &Node, target: &HardwareTarget) -> bool {
    let gpu_fit = |count: u32, share: f64| -> bool {
        node.gpus
            .iter()
            .filter(|d| d.free() + 1e-9 >= share)
            .count()
            >= count as usize
    };
    match *target {
        HardwareTarget::Gpu { count, share } => gpu_fit(count, share),
        HardwareTarget::Cpu { cores } => node.free_cores() + 1e-9 >= f64::from(cores),
        HardwareTarget::Hybrid {
            gpus,
            gpu_share,
            cores,
        } => gpu_fit(gpus, gpu_share) && node.free_cores() + 1e-9 >= f64::from(cores),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use murakkab_hardware::{catalog, DeviceId};

    fn mk_nodes() -> Vec<Node> {
        let mut raw = 0u64;
        let mut next = || {
            let d = DeviceId::from_raw(raw);
            raw += 1;
            d
        };
        vec![
            Node::from_shape(NodeId::from_raw(0), catalog::nd96amsr_a100_v4(), &mut next),
            Node::from_shape(NodeId::from_raw(1), catalog::nd96amsr_a100_v4(), &mut next),
            Node::from_shape(NodeId::from_raw(2), catalog::cpu_only_f64s(), &mut next),
        ]
    }

    #[test]
    fn cpu_request_best_fit_prefers_cpu_only_node() {
        let nodes = mk_nodes();
        // CPU-only node leaves the least leftover for a 64-core ask.
        let chosen = PlacementPolicy::BestFit
            .choose(&nodes, &HardwareTarget::cpu_cores(64))
            .unwrap();
        assert_eq!(chosen, NodeId::from_raw(2));
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let nodes = mk_nodes();
        let chosen = PlacementPolicy::FirstFit
            .choose(&nodes, &HardwareTarget::gpus(2))
            .unwrap();
        assert_eq!(chosen, NodeId::from_raw(0));
    }

    #[test]
    fn spread_takes_emptiest() {
        let mut nodes = mk_nodes();
        // Reserve 4 GPUs on node 0 to make node 1 emptier.
        for d in nodes[0].gpus.iter_mut().take(4) {
            d.reserve(1.0);
        }
        let chosen = PlacementPolicy::Spread
            .choose(&nodes, &HardwareTarget::gpus(2))
            .unwrap();
        assert_eq!(chosen, NodeId::from_raw(1));
    }

    #[test]
    fn oversized_request_fits_nowhere() {
        let nodes = mk_nodes();
        assert!(PlacementPolicy::BestFit
            .choose(&nodes, &HardwareTarget::gpus(9))
            .is_none());
        assert!(PlacementPolicy::BestFit
            .choose(&nodes, &HardwareTarget::cpu_cores(97))
            .is_none());
    }

    #[test]
    fn per_device_share_semantics() {
        let mut nodes = mk_nodes();
        // Occupy 0.6 of every GPU on both GPU nodes.
        for n in nodes.iter_mut().take(2) {
            for d in n.gpus.iter_mut() {
                d.reserve(0.6);
            }
        }
        // 0.5-share request cannot fit on any single device.
        assert!(PlacementPolicy::BestFit
            .choose(
                &nodes,
                &HardwareTarget::Gpu {
                    count: 1,
                    share: 0.5
                }
            )
            .is_none());
        // 0.4-share fits.
        assert!(PlacementPolicy::BestFit
            .choose(
                &nodes,
                &HardwareTarget::Gpu {
                    count: 1,
                    share: 0.4
                }
            )
            .is_some());
    }

    #[test]
    fn hybrid_needs_both_on_one_node() {
        let mut nodes = mk_nodes();
        // Node 0: GPUs free, cores gone. Node 1: cores free, GPUs gone.
        nodes[0].cpu.reserve(96.0);
        for d in nodes[1].gpus.iter_mut() {
            d.reserve(1.0);
        }
        let t = HardwareTarget::Hybrid {
            gpus: 1,
            gpu_share: 1.0,
            cores: 32,
        };
        assert!(PlacementPolicy::BestFit.choose(&nodes, &t).is_none());
        // Free node 0's cores: now it fits there.
        nodes[0].cpu.unreserve(96.0);
        assert_eq!(
            PlacementPolicy::BestFit.choose(&nodes, &t),
            Some(NodeId::from_raw(0))
        );
    }

    #[test]
    fn down_nodes_are_skipped() {
        let mut nodes = mk_nodes();
        nodes[0].up = false;
        let chosen = PlacementPolicy::FirstFit
            .choose(&nodes, &HardwareTarget::gpus(1))
            .unwrap();
        assert_eq!(chosen, NodeId::from_raw(1));
    }
}
