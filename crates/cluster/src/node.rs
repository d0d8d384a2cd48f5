//! Cluster nodes.

use serde::{Deserialize, Serialize};

use murakkab_hardware::{Device, DeviceId, VmShape};
use murakkab_sim::{define_id, SimError};

define_id!(NodeId, "node");

/// One VM in the cluster: a CPU pool plus zero or more GPUs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// The VM shape this node was provisioned from.
    pub shape: VmShape,
    /// GPU devices (empty for CPU-only shapes).
    pub gpus: Vec<Device>,
    /// The pooled CPU device.
    pub cpu: Device,
    /// Whether the node is currently up (spot nodes can be preempted).
    pub up: bool,
}

impl Node {
    /// Builds a node from a shape, drawing device ids from `next_dev`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] for a shape without CPU cores.
    pub fn from_shape(
        id: NodeId,
        shape: VmShape,
        next_dev: &mut impl FnMut() -> DeviceId,
    ) -> Result<Self, SimError> {
        let gpus = shape
            .gpu
            .as_ref()
            .map(|sku| {
                (0..shape.gpu_count)
                    .map(|_| Device::gpu(next_dev(), sku))
                    .collect()
            })
            .unwrap_or_default();
        let cpu = Device::cpu_pool(next_dev(), &shape.cpu, shape.vcpus)?;
        Ok(Node {
            id,
            shape,
            gpus,
            cpu,
            up: true,
        })
    }

    /// Free whole-GPU units on this node.
    pub fn free_gpu_units(&self) -> f64 {
        if !self.up {
            return 0.0;
        }
        self.gpus.iter().map(Device::free).sum()
    }

    /// Free CPU cores on this node.
    pub fn free_cores(&self) -> f64 {
        if !self.up {
            return 0.0;
        }
        self.cpu.free()
    }

    /// Total GPU units (up or not).
    pub fn total_gpu_units(&self) -> f64 {
        self.gpus.len() as f64
    }

    /// Looks up a GPU device by id.
    pub fn gpu(&self, id: DeviceId) -> Option<&Device> {
        self.gpus.iter().find(|d| d.id == id)
    }

    /// Looks up a GPU device by id, mutably.
    pub fn gpu_mut(&mut self, id: DeviceId) -> Option<&mut Device> {
        self.gpus.iter_mut().find(|d| d.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murakkab_hardware::catalog;

    fn mk(shape: VmShape) -> Node {
        let mut raw = 0u64;
        let mut next = || {
            let d = DeviceId::from_raw(raw);
            raw += 1;
            d
        };
        Node::from_shape(NodeId::from_raw(0), shape, &mut next).unwrap()
    }

    #[test]
    fn nd96_node_has_8_gpus_96_cores() {
        let n = mk(catalog::nd96amsr_a100_v4());
        assert_eq!(n.gpus.len(), 8);
        assert_eq!(n.free_gpu_units(), 8.0);
        assert_eq!(n.free_cores(), 96.0);
        assert!(n.up);
    }

    #[test]
    fn cpu_only_node_has_no_gpus() {
        let n = mk(catalog::cpu_only_f64s());
        assert!(n.gpus.is_empty());
        assert_eq!(n.free_gpu_units(), 0.0);
        assert_eq!(n.free_cores(), 64.0);
    }

    #[test]
    fn down_node_reports_zero_free() {
        let mut n = mk(catalog::nd96amsr_a100_v4());
        n.up = false;
        assert_eq!(n.free_gpu_units(), 0.0);
        assert_eq!(n.free_cores(), 0.0);
    }

    #[test]
    fn device_ids_are_unique() {
        let n = mk(catalog::nd96amsr_a100_v4());
        let mut ids: Vec<u64> = n.gpus.iter().map(|d| d.id.raw()).collect();
        ids.push(n.cpu.id.raw());
        let len = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), len);
    }
}
