//! The cluster manager proper.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::Serialize;

use murakkab_hardware::{DeviceId, DeviceKind, EnergyScope, HardwareTarget, VmShape};
use murakkab_sim::{define_id, SeriesCursor, SimDuration, SimError, SimTime};

use crate::node::{Node, NodeId};
use crate::placement::{node_fits, PlacementPolicy};
use crate::telemetry::ResourceStats;

define_id!(AllocationId, "alloc");

/// A granted resource allocation.
#[derive(Debug, Clone, Serialize)]
pub struct Allocation {
    /// Allocation id.
    pub id: AllocationId,
    /// Node hosting the allocation.
    pub node: NodeId,
    /// The requested target.
    pub target: HardwareTarget,
    /// GPU devices granted (each at `gpu_share`).
    pub gpu_devices: Vec<DeviceId>,
    /// Share reserved on each GPU device.
    pub gpu_share: f64,
    /// CPU cores reserved from the node's pool.
    pub cores: u32,
    /// Caller label ("whisper", "nvlm-text", ...), used by telemetry.
    /// Shared, so a pool that re-provisions its workers again and again
    /// hands every allocation the same string.
    pub label: Arc<str>,
    /// Creation time.
    pub created: SimTime,
}

/// A paired prefill/decode allocation for a disaggregated serving
/// deployment (see [`ClusterManager::allocate_paired`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairedAllocation {
    /// The prefill TP group's allocation.
    pub prefill: AllocationId,
    /// The decode TP group's allocation.
    pub decode: AllocationId,
    /// Whether both groups landed on one node (KV transfers ride NVLink
    /// instead of the cross-node network).
    pub same_node: bool,
}

/// The cluster manager: owns nodes/devices, grants allocations, injects
/// preemptions, scales, and answers telemetry/energy queries.
#[derive(Debug, Clone)]
pub struct ClusterManager {
    nodes: Vec<Node>,
    next_node: u64,
    next_dev: u64,
    next_alloc: u64,
    /// Live allocations only, in ascending id order: ids are issued
    /// monotonically and never reused, so a grant appends, a lookup is a
    /// binary search, and a release removes its entry — the table holds
    /// what is live, not everything the run ever granted.
    allocations: Vec<Allocation>,
    policy: PlacementPolicy,
    provision_delay: SimDuration,
    pending: Vec<(SimTime, VmShape)>,
}

/// The position of live allocation `id` in the id-ordered table.
fn live_index(allocations: &[Allocation], id: AllocationId) -> Result<usize, SimError> {
    allocations
        .binary_search_by_key(&id, |a| a.id)
        .map_err(|_| SimError::not_found("allocation", id.to_string()))
}

/// Borrows a live allocation out of the id-ordered table.
fn live_get(allocations: &[Allocation], id: AllocationId) -> Result<&Allocation, SimError> {
    live_index(allocations, id).map(|i| &allocations[i])
}

/// Mutably borrows the node with `id`. Nodes are only ever appended
/// with sequential ids, so the id doubles as the index; the linear scan
/// is a safety net, not the expected path.
fn node_mut(nodes: &mut [Node], id: NodeId) -> &mut Node {
    let i = id.raw() as usize;
    if nodes.get(i).is_some_and(|n| n.id == id) {
        return &mut nodes[i];
    }
    nodes
        .iter_mut()
        .find(|n| n.id == id)
        .expect("allocation references an existing node")
}

impl ClusterManager {
    /// Creates an empty cluster with the given placement policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        ClusterManager {
            nodes: Vec::new(),
            next_node: 0,
            next_dev: 0,
            next_alloc: 0,
            allocations: Vec::new(),
            policy,
            provision_delay: SimDuration::from_secs(90),
            pending: Vec::new(),
        }
    }

    /// The paper's testbed: two `Standard_ND96amsr_A100_v4` VMs.
    pub fn paper_testbed() -> Self {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        cm.add_node(murakkab_hardware::catalog::nd96amsr_a100_v4());
        cm.add_node(murakkab_hardware::catalog::nd96amsr_a100_v4());
        cm
    }

    /// Adds a node immediately (no provisioning delay) and returns its id.
    pub fn add_node(&mut self, shape: VmShape) -> NodeId {
        let id = NodeId::from_raw(self.next_node);
        self.next_node += 1;
        let mut next_dev = || {
            let d = DeviceId::from_raw(self.next_dev);
            self.next_dev += 1;
            d
        };
        self.nodes.push(Node::from_shape(id, shape, &mut next_dev));
        id
    }

    /// Sets the autoscaler's provisioning delay.
    pub fn set_provision_delay(&mut self, d: SimDuration) {
        self.provision_delay = d;
    }

    /// Requests a new node; it becomes available at the returned time once
    /// [`ClusterManager::process_provisioning`] is called at or after it.
    pub fn request_scale_out(&mut self, now: SimTime, shape: VmShape) -> SimTime {
        let ready = now + self.provision_delay;
        self.pending.push((ready, shape));
        ready
    }

    /// Materialises any pending nodes whose provisioning completed by
    /// `now`; returns the new node ids.
    pub fn process_provisioning(&mut self, now: SimTime) -> Vec<NodeId> {
        let (ready, still): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|(t, _)| *t <= now);
        self.pending = still;
        ready
            .into_iter()
            .map(|(_, shape)| self.add_node(shape))
            .collect()
    }

    /// Grants an allocation for `target`, choosing a node by policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResourceExhausted`] when no up node can host the
    /// target.
    pub fn allocate(
        &mut self,
        now: SimTime,
        label: impl Into<Arc<str>>,
        target: HardwareTarget,
    ) -> Result<AllocationId, SimError> {
        let node_id = self.policy.choose(&self.nodes, &target).ok_or_else(|| {
            SimError::exhausted(
                format!("cluster capacity for {target}"),
                target.gpu_units().ceil() as u64 + u64::from(target.cpu_cores_used()),
                self.free_gpu_units().floor() as u64 + self.free_cores().floor() as u64,
            )
        })?;
        Ok(self.allocate_on_node(now, label, target, node_id))
    }

    /// Grants an allocation for `target` on a specific node the caller
    /// has already verified fits (placement-policy bypass for paired
    /// placement).
    fn allocate_on_node(
        &mut self,
        now: SimTime,
        label: impl Into<Arc<str>>,
        target: HardwareTarget,
        node_id: NodeId,
    ) -> AllocationId {
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.id == node_id)
            .expect("policy returned an existing node");
        debug_assert!(node_fits(node, &target));

        let (gpu_count, gpu_share) = match target {
            HardwareTarget::Gpu { count, share } => (count, share),
            HardwareTarget::Cpu { .. } => (0, 0.0),
            HardwareTarget::Hybrid {
                gpus, gpu_share, ..
            } => (gpus, gpu_share),
        };
        let cores = target.cpu_cores_used();

        let mut gpu_devices = Vec::with_capacity(gpu_count as usize);
        for d in node.gpus.iter_mut() {
            if gpu_devices.len() == gpu_count as usize {
                break;
            }
            if d.free() + 1e-9 >= gpu_share {
                d.reserve(gpu_share);
                gpu_devices.push(d.id);
            }
        }
        assert_eq!(
            gpu_devices.len(),
            gpu_count as usize,
            "placement said fit but devices disagree"
        );
        if cores > 0 {
            node.cpu.reserve(f64::from(cores));
        }

        let id = AllocationId::from_raw(self.next_alloc);
        self.next_alloc += 1;
        self.allocations.push(Allocation {
            id,
            node: node_id,
            target,
            gpu_devices,
            gpu_share,
            cores,
            label: label.into(),
            created: now,
        });
        id
    }

    /// Grants a paired prefill/decode allocation for a disaggregated
    /// serving deployment. Placement prefers a single node that can host
    /// both TP groups — the KV transfer then rides the node's NVLink
    /// fabric — and falls back to independent placement (a cross-node
    /// pair) when no node holds the combined footprint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResourceExhausted`] when either group cannot
    /// be placed; a partially granted pair is rolled back.
    pub fn allocate_paired(
        &mut self,
        now: SimTime,
        label: impl Into<Arc<str>>,
        prefill: HardwareTarget,
        decode: HardwareTarget,
    ) -> Result<PairedAllocation, SimError> {
        let label = label.into();
        if let (
            HardwareTarget::Gpu {
                count: p,
                share: ps,
            },
            HardwareTarget::Gpu {
                count: d,
                share: ds,
            },
        ) = (prefill, decode)
        {
            if (ps - 1.0).abs() < 1e-9 && (ds - 1.0).abs() < 1e-9 {
                let combined = HardwareTarget::gpus(p + d);
                if let Some(node_id) = self.policy.choose(&self.nodes, &combined) {
                    let first = self.allocate_on_node(now, label.clone(), prefill, node_id);
                    let second = self.allocate_on_node(now, label, decode, node_id);
                    return Ok(PairedAllocation {
                        prefill: first,
                        decode: second,
                        same_node: true,
                    });
                }
            }
        }
        let first = self.allocate(now, label.clone(), prefill)?;
        let second = match self.allocate(now, label, decode) {
            Ok(second) => second,
            Err(e) => {
                self.release(now, first)?;
                return Err(e);
            }
        };
        let same_node = self.allocation(first)?.node == self.allocation(second)?.node;
        Ok(PairedAllocation {
            prefill: first,
            decode: second,
            same_node,
        })
    }

    /// Releases an allocation (its activity must already be zeroed by the
    /// caller).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown ids.
    pub fn release(&mut self, _now: SimTime, id: AllocationId) -> Result<(), SimError> {
        let alloc = self.allocations.remove(live_index(&self.allocations, id)?);
        let node = node_mut(&mut self.nodes, alloc.node);
        if node.up {
            for dev in &alloc.gpu_devices {
                if let Some(d) = node.gpu_mut(*dev) {
                    d.unreserve(alloc.gpu_share);
                }
            }
            if alloc.cores > 0 {
                node.cpu.unreserve(f64::from(alloc.cores));
            }
        }
        Ok(())
    }

    /// Whether `id` names a live allocation: granted and not yet
    /// released, preempted or evicted.
    pub fn is_live(&self, id: AllocationId) -> bool {
        live_index(&self.allocations, id).is_ok()
    }

    /// Looks up an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown ids.
    pub fn allocation(&self, id: AllocationId) -> Result<&Allocation, SimError> {
        live_get(&self.allocations, id)
    }

    /// Marks task activity on an allocation: `gpu_util` of each granted
    /// GPU share and all granted cores go busy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown ids.
    pub fn activity_start(
        &mut self,
        now: SimTime,
        id: AllocationId,
        gpu_util: f64,
    ) -> Result<(), SimError> {
        self.activity_delta(now, id, gpu_util, true)
    }

    /// Ends task activity started with the same `gpu_util`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown ids.
    pub fn activity_end(
        &mut self,
        now: SimTime,
        id: AllocationId,
        gpu_util: f64,
    ) -> Result<(), SimError> {
        self.activity_delta(now, id, gpu_util, false)
    }

    fn activity_delta(
        &mut self,
        now: SimTime,
        id: AllocationId,
        gpu_util: f64,
        start: bool,
    ) -> Result<(), SimError> {
        // Disjoint field borrows: the allocation is read while its
        // node's devices mutate — no per-event clone of the allocation
        // (its device list and label are heap-backed).
        let Self {
            nodes, allocations, ..
        } = self;
        let alloc = live_get(allocations, id)?;
        let node = node_mut(nodes, alloc.node);
        if !node.up {
            // The node died; its activity was zeroed at preemption.
            return Ok(());
        }
        let gpu_units = alloc.gpu_share * gpu_util.clamp(0.0, 1.0);
        for dev in &alloc.gpu_devices {
            let d = node.gpu_mut(*dev).expect("granted device exists");
            if start {
                d.activity_start(now, gpu_units);
            } else {
                d.activity_end(now, gpu_units);
            }
        }
        if alloc.cores > 0 {
            if start {
                node.cpu.activity_start(now, f64::from(alloc.cores));
            } else {
                node.cpu.activity_end(now, f64::from(alloc.cores));
            }
        }
        Ok(())
    }

    /// Sets the absolute activity level (fraction of the granted share) on
    /// an allocation's GPUs — LLM endpoints report level per batch step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown ids.
    pub fn set_gpu_activity_level(
        &mut self,
        now: SimTime,
        id: AllocationId,
        level: f64,
    ) -> Result<(), SimError> {
        let Self {
            nodes, allocations, ..
        } = self;
        let alloc = live_get(allocations, id)?;
        let node = node_mut(nodes, alloc.node);
        if !node.up {
            return Ok(());
        }
        for dev in &alloc.gpu_devices {
            let d = node.gpu_mut(*dev).expect("granted device exists");
            d.set_activity_level(now, alloc.gpu_share * level.clamp(0.0, 1.0));
        }
        Ok(())
    }

    /// Takes a node down (spot preemption), zeroing device activity and
    /// dropping its allocations. Returns the ids of the killed
    /// allocations so the runtime can reschedule their work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown nodes and
    /// [`SimError::InvalidState`] if the node is already down.
    pub fn preempt_node(
        &mut self,
        now: SimTime,
        id: NodeId,
    ) -> Result<Vec<AllocationId>, SimError> {
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or_else(|| SimError::not_found("node", id.to_string()))?;
        if !node.up {
            return Err(SimError::InvalidState(format!("{id} is already down")));
        }
        node.up = false;
        for d in node.gpus.iter_mut() {
            d.set_activity_level(now, 0.0);
            d.unreserve(d.reserved());
        }
        node.cpu.set_activity_level(now, 0.0);
        node.cpu.unreserve(node.cpu.reserved());

        let mut killed = Vec::new();
        self.allocations.retain(|a| {
            let dies = a.node == id;
            if dies {
                killed.push(a.id);
            }
            !dies
        });
        Ok(killed)
    }

    /// Resizes a Harvest node's CPU pool (Ambati et al., OSDI'20: harvest
    /// VMs grow and shrink with the host's leftover capacity). Shrinking
    /// below the currently reserved cores evicts nothing by itself — the
    /// caller receives the allocations that no longer fit and decides
    /// what to reschedule (mirroring the preemption contract).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown nodes,
    /// [`SimError::InvalidState`] for non-harvest nodes, and
    /// [`SimError::InvalidInput`] when shrinking below the pricing tier's
    /// guaranteed minimum.
    pub fn resize_harvest_cores(
        &mut self,
        now: SimTime,
        id: NodeId,
        new_cores: u32,
    ) -> Result<Vec<AllocationId>, SimError> {
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or_else(|| SimError::not_found("node", id.to_string()))?;
        let murakkab_hardware::VmPricing::Harvest { min_cores, .. } = node.shape.pricing else {
            return Err(SimError::InvalidState(format!("{id} is not a harvest VM")));
        };
        if new_cores < min_cores {
            return Err(SimError::InvalidInput(format!(
                "harvest resize below guaranteed minimum ({new_cores} < {min_cores})"
            )));
        }
        let old_capacity = node.cpu.capacity();
        let reserved = node.cpu.reserved();
        // Rebuild the pool device at the new size, carrying the
        // reservation level over (activity restarts at zero: the evicted
        // share stops drawing dynamic power).
        let kept_reserved = reserved.min(f64::from(new_cores));
        let mut fresh =
            murakkab_hardware::Device::cpu_pool(node.cpu.id, &node.shape.cpu, new_cores);
        if kept_reserved > 0.0 {
            fresh.reserve(kept_reserved);
        }
        node.cpu = fresh;
        node.shape.vcpus = new_cores;

        // Find allocations that no longer fit if we shrank.
        let mut squeezed = Vec::new();
        if f64::from(new_cores) < old_capacity && reserved > f64::from(new_cores) {
            let mut overflow = reserved - f64::from(new_cores);
            self.allocations.retain(|a| {
                let evict = a.node == id && a.cores > 0 && overflow > 0.0;
                if evict {
                    squeezed.push(a.id);
                    overflow -= f64::from(a.cores);
                }
                !evict
            });
        }
        let _ = now;
        Ok(squeezed)
    }

    /// Brings a preempted node back up.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] / [`SimError::InvalidState`].
    pub fn restore_node(&mut self, _now: SimTime, id: NodeId) -> Result<(), SimError> {
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or_else(|| SimError::not_found("node", id.to_string()))?;
        if node.up {
            return Err(SimError::InvalidState(format!("{id} is already up")));
        }
        node.up = true;
        Ok(())
    }

    /// Splits an idle cluster into `cells` disjoint sub-clusters, each
    /// owning a contiguous slice of nodes (the sharded fleet's cells).
    /// Node counts are balanced: the first `nodes % cells` cells get one
    /// extra node. Every cell inherits the parent's placement policy and
    /// provisioning delay; node and device ids are renumbered per cell
    /// (cells are independent schedulers and never exchange ids).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] when `cells` is zero or exceeds
    /// the node count, and [`SimError::InvalidState`] when the cluster
    /// has live allocations, down nodes, or pending provisioning —
    /// partitioning is a deployment-time operation, not a live migration.
    pub fn partition(self, cells: usize) -> Result<Vec<ClusterManager>, SimError> {
        if cells == 0 || cells > self.nodes.len() {
            return Err(SimError::InvalidInput(format!(
                "cannot partition {} nodes into {cells} cells",
                self.nodes.len()
            )));
        }
        if !self.allocations.is_empty() {
            return Err(SimError::InvalidState(
                "cannot partition a cluster with live allocations".into(),
            ));
        }
        if self.nodes.iter().any(|n| !n.up) || !self.pending.is_empty() {
            return Err(SimError::InvalidState(
                "cannot partition a cluster with down or pending nodes".into(),
            ));
        }
        let base = self.nodes.len() / cells;
        let extra = self.nodes.len() % cells;
        let mut shapes = self.nodes.into_iter().map(|n| n.shape);
        let mut out = Vec::with_capacity(cells);
        for cell in 0..cells {
            let take = base + usize::from(cell < extra);
            let mut cm = ClusterManager::new(self.policy);
            cm.set_provision_delay(self.provision_delay);
            for _ in 0..take {
                cm.add_node(shapes.next().expect("counts sum to node count"));
            }
            out.push(cm);
        }
        Ok(out)
    }

    /// Total free GPU units across up nodes.
    pub fn free_gpu_units(&self) -> f64 {
        self.nodes.iter().map(Node::free_gpu_units).sum()
    }

    /// Total free cores across up nodes.
    pub fn free_cores(&self) -> f64 {
        self.nodes.iter().map(Node::free_cores).sum()
    }

    /// The telemetry snapshot the orchestrator polls (§3.2
    /// "Resource-Aware Workflow Orchestration").
    pub fn stats(&self, now: SimTime) -> ResourceStats {
        let mut per_label: BTreeMap<String, f64> = BTreeMap::new();
        for a in &self.allocations {
            *per_label.entry(a.label.to_string()).or_insert(0.0) +=
                a.gpu_share * a.gpu_devices.len() as f64;
        }
        ResourceStats {
            at: now,
            gpus_total: self
                .nodes
                .iter()
                .filter(|n| n.up)
                .map(Node::total_gpu_units)
                .sum(),
            gpus_free: self.free_gpu_units(),
            cores_total: self
                .nodes
                .iter()
                .filter(|n| n.up)
                .map(|n| n.cpu.capacity())
                .sum(),
            cores_free: self.free_cores(),
            gpu_units_by_label: per_label,
            nodes_up: self.nodes.iter().filter(|n| n.up).count(),
            nodes_pending: self.pending.len(),
        }
    }

    /// Energy consumed over `[from, to)` by devices that were ever part of
    /// an allocation, under the given scope. This is the Table 2 quantity:
    /// the paper meters the GPUs the workflow engages, GPU-only by default.
    pub fn energy_wh(&self, from: SimTime, to: SimTime, scope: EnergyScope) -> f64 {
        self.energy_wh_inner(from, to, scope, true)
    }

    /// Energy over every device, allocated or not (whole-testbed view).
    pub fn energy_wh_all(&self, from: SimTime, to: SimTime, scope: EnergyScope) -> f64 {
        self.energy_wh_inner(from, to, scope, false)
    }

    /// GPU energy attributable to one live allocation over `[from, to)`:
    /// each granted device's energy weighted by the granted share. This is
    /// the "energy of the resources a configuration actually holds" view
    /// used for Murakkab's Table 2 rows (idle-but-held GPUs count; GPUs
    /// the workflow released or never took do not).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown allocations.
    pub fn allocation_energy_wh(
        &self,
        id: AllocationId,
        from: SimTime,
        to: SimTime,
    ) -> Result<f64, SimError> {
        let alloc = self.allocation(id)?;
        let node = self
            .nodes
            .iter()
            .find(|n| n.id == alloc.node)
            .expect("allocation references an existing node");
        let mut wh = 0.0;
        for dev in &alloc.gpu_devices {
            let d = node
                .gpus
                .iter()
                .find(|d| d.id == *dev)
                .expect("granted device exists");
            wh += d.energy_wh(from, to) * alloc.gpu_share;
        }
        Ok(wh)
    }

    fn energy_wh_inner(
        &self,
        from: SimTime,
        to: SimTime,
        scope: EnergyScope,
        touched_only: bool,
    ) -> f64 {
        let mut wh = 0.0;
        for n in &self.nodes {
            for d in &n.gpus {
                if !touched_only || d.touched() {
                    wh += d.energy_wh(from, to);
                }
            }
            if scope == EnergyScope::Full && (!touched_only || n.cpu.touched()) {
                wh += n.cpu.energy_wh(from, to);
            }
        }
        wh
    }

    /// Cluster-wide utilization samples in percent of all `kind`
    /// capacity — the CPU%/GPU% curves in Figure 3. One `(seconds,
    /// percent)` sample per instant of `from`, `from + interval`, ...,
    /// clamped to and including `to` (just `from` when `to <= from`);
    /// none if the cluster has no `kind` capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] for a zero `interval`.
    pub fn aggregate_util(
        &self,
        kind: DeviceKind,
        from: SimTime,
        to: SimTime,
        interval: SimDuration,
    ) -> Result<Vec<(f64, f64)>, SimError> {
        Ok(self
            .util_samples(kind, from, to, interval)?
            .map(|(t, pct)| (t.as_secs_f64(), pct))
            .collect())
    }

    /// The mean of the [`aggregate_util`](Self::aggregate_util) samples
    /// over the same grid (zero when there are none), bit for bit,
    /// without collecting them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] for a zero `interval`.
    pub fn average_util(
        &self,
        kind: DeviceKind,
        from: SimTime,
        to: SimTime,
        interval: SimDuration,
    ) -> Result<f64, SimError> {
        let mut n = 0usize;
        let sum: f64 = self
            .util_samples(kind, from, to, interval)?
            .inspect(|_| n += 1)
            .map(|(_, pct)| pct)
            .sum();
        Ok(if n == 0 { 0.0 } else { sum / n as f64 })
    }

    /// The sampler behind [`aggregate_util`](Self::aggregate_util) and
    /// [`average_util`](Self::average_util).
    fn util_samples(
        &self,
        kind: DeviceKind,
        from: SimTime,
        to: SimTime,
        interval: SimDuration,
    ) -> Result<UtilSamples<'_>, SimError> {
        if interval.is_zero() {
            return Err(SimError::InvalidInput(
                "utilization sample interval must be non-zero".into(),
            ));
        }
        let devices: Vec<(SeriesCursor<'_>, f64)> = self
            .nodes
            .iter()
            .flat_map(|n| match kind {
                DeviceKind::Gpu => n.gpus.as_slice(),
                DeviceKind::CpuPool => std::slice::from_ref(&n.cpu),
            })
            .map(|d| (d.util_series().cursor(), d.capacity()))
            .collect();
        let total_cap: f64 = devices.iter().map(|&(_, cap)| cap).sum();
        Ok(UtilSamples {
            devices,
            total_cap,
            next: (total_cap != 0.0).then_some(from),
            to,
            interval,
            last: None,
        })
    }

    /// Dollar cost of running the whole fleet over a window (on-demand or
    /// discounted rates per node shape).
    pub fn fleet_cost_usd(&self, window: SimDuration) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.shape.effective_hourly_usd() * window.as_hours_f64())
            .sum()
    }

    /// Immutable node access.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Live allocations in id order.
    pub fn allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.allocations.iter()
    }
}

/// Utilization samples over a fixed grid, walked forward once: each
/// device series is read through a [`SeriesCursor`], and while no device
/// changes between two sample instants the previous sample is emitted
/// again (same inputs, same arithmetic, same bits).
struct UtilSamples<'a> {
    /// Each device's cursor and capacity, in node then device order.
    devices: Vec<(SeriesCursor<'a>, f64)>,
    total_cap: f64,
    /// The next sample instant; `None` once the grid is exhausted.
    next: Option<SimTime>,
    to: SimTime,
    interval: SimDuration,
    /// The last computed sample and the earliest instant any device
    /// changes after it (`None`: no device changes again).
    last: Option<(f64, Option<SimTime>)>,
}

impl Iterator for UtilSamples<'_> {
    type Item = (SimTime, f64);

    fn next(&mut self) -> Option<(SimTime, f64)> {
        let t = self.next?;
        self.next = (t < self.to).then(|| (t + self.interval).min(self.to));
        let pct = match self.last {
            Some((pct, change)) if change.is_none_or(|c| t < c) => pct,
            _ => {
                let busy: f64 = self
                    .devices
                    .iter_mut()
                    .map(|(cursor, cap)| cursor.value_at(t) * *cap)
                    .sum();
                let pct = 100.0 * busy / self.total_cap;
                let change = self
                    .devices
                    .iter()
                    .filter_map(|(cursor, _)| cursor.next_change())
                    .min();
                self.last = Some((pct, change));
                pct
            }
        };
        Some((t, pct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murakkab_hardware::catalog;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn paper_testbed_has_16_gpus_192_cores() {
        let cm = ClusterManager::paper_testbed();
        let s = cm.stats(SimTime::ZERO);
        assert_eq!(s.gpus_total, 16.0);
        assert_eq!(s.cores_total, 192.0);
        assert_eq!(s.nodes_up, 2);
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm
            .allocate(t(0), "nvlm-text", HardwareTarget::gpus(8))
            .unwrap();
        let b = cm
            .allocate(t(0), "whisper", HardwareTarget::ONE_GPU)
            .unwrap();
        assert_eq!(cm.free_gpu_units(), 7.0);
        let stats = cm.stats(t(0));
        assert_eq!(stats.gpu_units_by_label["nvlm-text"], 8.0);
        assert_eq!(stats.gpu_units_by_label["whisper"], 1.0);
        cm.release(t(10), a).unwrap();
        cm.release(t(10), b).unwrap();
        assert_eq!(cm.free_gpu_units(), 16.0);
        assert!(cm.release(t(10), a).is_err(), "double release");
    }

    #[test]
    fn is_live_tracks_grants_releases_and_preemptions() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm.allocate(t(0), "a", HardwareTarget::ONE_GPU).unwrap();
        let b = cm.allocate(t(0), "b", HardwareTarget::ONE_GPU).unwrap();
        assert!(cm.is_live(a) && cm.is_live(b));
        cm.release(t(1), a).unwrap();
        assert!(!cm.is_live(a), "released");
        assert!(cm.is_live(b), "its neighbour stays live");
        let node = cm.allocation(b).unwrap().node;
        cm.preempt_node(t(2), node).unwrap();
        assert!(!cm.is_live(b), "preempted");
        // Ids past the last grant were never granted.
        assert!(!cm.is_live(AllocationId::from_raw(2)));
        assert!(!cm.is_live(AllocationId::from_raw(u64::MAX)));
        // Liveness agrees with the fallible lookup everywhere.
        for raw in 0..4 {
            let id = AllocationId::from_raw(raw);
            assert_eq!(cm.is_live(id), cm.allocation(id).is_ok(), "{id}");
        }
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut cm = ClusterManager::paper_testbed();
        cm.allocate(t(0), "a", HardwareTarget::gpus(8)).unwrap();
        cm.allocate(t(0), "b", HardwareTarget::gpus(8)).unwrap();
        let err = cm.allocate(t(0), "c", HardwareTarget::ONE_GPU).unwrap_err();
        assert!(matches!(err, SimError::ResourceExhausted { .. }));
    }

    #[test]
    fn hybrid_allocates_gpu_and_cores_on_one_node() {
        let mut cm = ClusterManager::paper_testbed();
        let id = cm
            .allocate(
                t(0),
                "whisper-hybrid",
                HardwareTarget::Hybrid {
                    gpus: 1,
                    gpu_share: 1.0,
                    cores: 64,
                },
            )
            .unwrap();
        let alloc = cm.allocation(id).unwrap();
        assert_eq!(alloc.gpu_devices.len(), 1);
        assert_eq!(alloc.cores, 64);
        let node = &cm.nodes()[alloc.node.raw() as usize];
        assert_eq!(node.free_cores(), 32.0);
    }

    #[test]
    fn activity_drives_energy() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm.allocate(t(0), "w", HardwareTarget::ONE_GPU).unwrap();
        cm.activity_start(t(0), a, 0.7).unwrap();
        cm.activity_end(t(3600), a, 0.7).unwrap();
        let wh = cm.energy_wh(t(0), t(3600), EnergyScope::GpuOnly);
        // One touched GPU at util 0.7 for an hour: 90 + 0.7*310 = 307 Wh.
        assert!((wh - 307.0).abs() < 0.1, "wh = {wh}");
        // Whole-fleet view adds 15 more idle GPUs.
        let all = cm.energy_wh_all(t(0), t(3600), EnergyScope::GpuOnly);
        assert!((all - (307.0 + 15.0 * 90.0)).abs() < 0.1, "all = {all}");
    }

    #[test]
    fn full_scope_counts_cpu_pools() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm
            .allocate(t(0), "clip", HardwareTarget::cpu_cores(48))
            .unwrap();
        cm.activity_start(t(0), a, 0.0).unwrap();
        cm.activity_end(t(3600), a, 0.0).unwrap();
        let gpu_only = cm.energy_wh(t(0), t(3600), EnergyScope::GpuOnly);
        let full = cm.energy_wh(t(0), t(3600), EnergyScope::Full);
        assert_eq!(gpu_only, 0.0, "no GPU touched");
        assert!(full > 0.0);
    }

    #[test]
    fn preemption_kills_allocations_and_zeroes_activity() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm.allocate(t(0), "x", HardwareTarget::gpus(8)).unwrap();
        cm.activity_start(t(0), a, 1.0).unwrap();
        let node = cm.allocation(a).unwrap().node;
        let killed = cm.preempt_node(t(100), node).unwrap();
        assert_eq!(killed, vec![a]);
        assert!(cm.allocation(a).is_err());
        // Node capacity is gone from stats.
        let s = cm.stats(t(100));
        assert_eq!(s.nodes_up, 1);
        assert_eq!(s.gpus_total, 8.0);
        // Double preemption is invalid.
        assert!(cm.preempt_node(t(101), node).is_err());
        // Restore brings capacity back.
        cm.restore_node(t(200), node).unwrap();
        assert_eq!(cm.stats(t(200)).gpus_total, 16.0);
    }

    #[test]
    fn autoscaling_has_provisioning_delay() {
        let mut cm = ClusterManager::paper_testbed();
        cm.set_provision_delay(SimDuration::from_secs(120));
        let ready = cm.request_scale_out(t(0), catalog::cpu_only_f64s());
        assert_eq!(ready, t(120));
        assert!(cm.process_provisioning(t(60)).is_empty());
        assert_eq!(cm.stats(t(60)).nodes_pending, 1);
        let added = cm.process_provisioning(t(120));
        assert_eq!(added.len(), 1);
        assert_eq!(cm.stats(t(120)).nodes_up, 3);
        assert_eq!(cm.stats(t(120)).cores_total, 256.0);
    }

    #[test]
    fn aggregate_util_reflects_activity() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm.allocate(t(0), "x", HardwareTarget::gpus(8)).unwrap();
        cm.activity_start(t(0), a, 1.0).unwrap();
        let samples = cm
            .aggregate_util(DeviceKind::Gpu, t(0), t(10), SimDuration::from_secs(5))
            .unwrap();
        // 8 of 16 GPUs fully busy: 50%.
        assert_eq!(samples.len(), 3);
        assert!((samples[0].1 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sample_interval_is_rejected() {
        let cm = ClusterManager::paper_testbed();
        for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
            assert!(matches!(
                cm.aggregate_util(kind, t(0), t(10), SimDuration::ZERO),
                Err(SimError::InvalidInput(_))
            ));
            assert!(matches!(
                cm.average_util(kind, t(0), t(10), SimDuration::ZERO),
                Err(SimError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn endpoint_level_updates() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm.allocate(t(0), "ep", HardwareTarget::gpus(2)).unwrap();
        cm.set_gpu_activity_level(t(0), a, 0.5).unwrap();
        let samples = cm
            .aggregate_util(DeviceKind::Gpu, t(0), t(1), SimDuration::from_secs(1))
            .unwrap();
        // 2 GPUs at 0.5 of 16 total: 6.25%.
        assert!((samples[0].1 - 6.25).abs() < 1e-9);
        cm.set_gpu_activity_level(t(5), a, 0.0).unwrap();
    }

    #[test]
    fn harvest_resize_grows_and_shrinks() {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        let mut shape = catalog::cpu_only_f64s();
        shape.pricing = murakkab_hardware::VmPricing::Harvest {
            discount: 0.2,
            min_cores: 8,
        };
        let node = cm.add_node(shape);
        let a = cm
            .allocate(t(0), "job", HardwareTarget::cpu_cores(48))
            .unwrap();
        // Grow: capacity rises, nothing evicted.
        let evicted = cm.resize_harvest_cores(t(10), node, 96).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(cm.stats(t(10)).cores_total, 96.0);
        assert_eq!(cm.stats(t(10)).cores_free, 48.0);
        // Shrink below the reservation: the allocation is squeezed out.
        let evicted = cm.resize_harvest_cores(t(20), node, 16).unwrap();
        assert_eq!(evicted, vec![a]);
        assert!(cm.allocation(a).is_err());
        // Shrinking below the guaranteed floor is rejected.
        assert!(matches!(
            cm.resize_harvest_cores(t(30), node, 4),
            Err(SimError::InvalidInput(_))
        ));
    }

    #[test]
    fn non_harvest_nodes_cannot_resize() {
        let mut cm = ClusterManager::paper_testbed();
        let node = cm.nodes()[0].id;
        assert!(matches!(
            cm.resize_harvest_cores(t(0), node, 48),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn partition_balances_nodes_and_preserves_capacity() {
        let mut cm = ClusterManager::new(PlacementPolicy::Spread);
        for _ in 0..5 {
            cm.add_node(catalog::nd96amsr_a100_v4());
        }
        let cells = cm.partition(2).unwrap();
        assert_eq!(cells.len(), 2);
        // 5 nodes into 2 cells: 3 + 2.
        assert_eq!(cells[0].nodes().len(), 3);
        assert_eq!(cells[1].nodes().len(), 2);
        let total: f64 = cells
            .iter()
            .map(|c| c.stats(SimTime::ZERO).gpus_total)
            .sum();
        assert_eq!(total, 40.0);
        // Cells are independently allocatable and inherit the policy.
        for mut cell in cells {
            let a = cell.allocate(t(0), "x", HardwareTarget::gpus(8)).unwrap();
            cell.release(t(1), a).unwrap();
        }
    }

    #[test]
    fn partition_rejects_bad_cell_counts_and_live_state() {
        let cm = ClusterManager::paper_testbed();
        assert!(matches!(
            cm.clone().partition(0),
            Err(SimError::InvalidInput(_))
        ));
        assert!(matches!(
            cm.clone().partition(3),
            Err(SimError::InvalidInput(_))
        ));
        let mut busy = cm.clone();
        busy.allocate(t(0), "x", HardwareTarget::ONE_GPU).unwrap();
        assert!(matches!(busy.partition(2), Err(SimError::InvalidState(_))));
        let mut down = cm.clone();
        let node = down.nodes()[0].id;
        down.preempt_node(t(0), node).unwrap();
        assert!(matches!(down.partition(2), Err(SimError::InvalidState(_))));
        let mut pending = cm;
        pending.request_scale_out(t(0), catalog::cpu_only_f64s());
        assert!(matches!(
            pending.partition(2),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn fleet_cost_scales_with_time() {
        let cm = ClusterManager::paper_testbed();
        let hour = cm.fleet_cost_usd(SimDuration::from_secs(3600));
        assert!((hour - 2.0 * 32.77).abs() < 1e-9);
        let half = cm.fleet_cost_usd(SimDuration::from_secs(1800));
        assert!((half - 32.77).abs() < 1e-9);
    }

    #[test]
    fn paired_allocation_prefers_one_node() {
        // 3 + 5 GPUs fit one 8-GPU node: the pair must land together.
        let mut cm = ClusterManager::paper_testbed();
        let pair = cm
            .allocate_paired(
                t(0),
                "nvlm",
                HardwareTarget::gpus(3),
                HardwareTarget::gpus(5),
            )
            .unwrap();
        assert!(pair.same_node);
        let a = cm.allocation(pair.prefill).unwrap().node;
        let b = cm.allocation(pair.decode).unwrap().node;
        assert_eq!(a, b);
        assert_eq!(cm.allocation(pair.prefill).unwrap().gpu_devices.len(), 3);
        assert_eq!(cm.allocation(pair.decode).unwrap().gpu_devices.len(), 5);
    }

    #[test]
    fn paired_allocation_splits_across_nodes_when_it_must() {
        // 6 + 6 GPUs exceed any single 8-GPU node but fit two.
        let mut cm = ClusterManager::paper_testbed();
        let pair = cm
            .allocate_paired(
                t(0),
                "big",
                HardwareTarget::gpus(6),
                HardwareTarget::gpus(6),
            )
            .unwrap();
        assert!(!pair.same_node);
        let a = cm.allocation(pair.prefill).unwrap().node;
        let b = cm.allocation(pair.decode).unwrap().node;
        assert_ne!(a, b);
    }

    #[test]
    fn paired_allocation_rolls_back_on_failure() {
        // 6 + 12 GPUs: the first leg fits, the second can never place;
        // the pair must leave no allocation behind.
        let mut cm = ClusterManager::paper_testbed();
        let before = cm.free_gpu_units();
        assert!(cm
            .allocate_paired(
                t(0),
                "huge",
                HardwareTarget::gpus(6),
                HardwareTarget::gpus(12),
            )
            .is_err());
        assert_eq!(cm.free_gpu_units(), before);
        assert_eq!(cm.allocations().count(), 0);
    }
}
