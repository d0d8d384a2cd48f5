//! The cluster manager proper.

use std::collections::BTreeMap;
use std::sync::Arc;

use murakkab_hardware::{Device, DeviceId, DeviceKind, EnergyIntegrator, HardwareTarget, VmShape};
use murakkab_sim::{define_id, SeriesCursor, SimDuration, SimError, SimTime};

use crate::node::{Node, NodeId};
use crate::placement::{node_fits, PlacementPolicy};
use crate::telemetry::ResourceStats;

define_id!(AllocationId, "alloc");

/// The utilization sample grid of every report: one sample per
/// simulated second from zero.
pub const UTIL_SAMPLE: SimDuration = SimDuration::from_secs(1);

/// A granted resource allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Allocation id.
    pub id: AllocationId,
    /// Node hosting the allocation.
    pub node: NodeId,
    /// The requested target.
    pub target: HardwareTarget,
    /// GPU devices granted (each at `gpu_share`).
    pub gpu_devices: Vec<GpuGrant>,
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

/// One GPU granted to an allocation, with the energy the device has
/// drawn since the grant, folded as far as the cluster has settled.
#[derive(Debug, Clone, Copy)]
pub struct GpuGrant {
    /// The granted device.
    pub device: DeviceId,
    energy: EnergyIntegrator,
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

/// A run's whole-run outputs (see [`ClusterManager::record_timeline`]).
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Cluster-wide GPU utilization in percent of all GPU capacity, one
    /// `(seconds, percent)` sample per [`UTIL_SAMPLE`] instant from zero,
    /// clamped to and including the window end (Figure 3's GPU% curve);
    /// none if the cluster has no GPUs.
    pub gpu_util: Vec<(f64, f64)>,
    /// The same for the CPU pools (Figure 3's CPU% curve).
    pub cpu_util: Vec<(f64, f64)>,
    /// Energy of every GPU, allocated or not, from zero to the window
    /// end, in Wh (the whole-testbed scope Table 2 uses for a rigid
    /// deployment).
    pub energy_fleet_wh: f64,
}

/// The timeline as it is recorded: what the folds have collected so far.
#[derive(Debug, Clone)]
struct Recording {
    /// The samples each utilization sampler has taken, GPU then CPU pool.
    curves: [Vec<(f64, f64)>; 2],
    /// One energy integral from zero per GPU, in node then device order.
    fleet: Vec<EnergyIntegrator>,
}

/// The cluster manager: owns nodes/devices, grants allocations, injects
/// preemptions, scales, and answers telemetry/energy queries.
///
/// Device utilization and allocation energy settle as simulated time
/// passes. The caller moves a frontier forward
/// ([`advance_frontier`](Self::advance_frontier)) before which it
/// records no more activity. Whenever some device's series reaches a few
/// dozen change points, the cluster [`fold`](Self::fold)s the energy of
/// every live allocation and one utilization sampler per device kind, on
/// the [`UTIL_SAMPLE`] grid from zero, up to the frontier, and drops the
/// change points both readers are past. Each device then holds an O(1)
/// tail plus the points after the frontier, however long the run, and
/// settlement reads the same bits as it would from the whole series:
/// [`allocation_energy_wh`](Self::allocation_energy_wh) closes the folded
/// integrals and [`average_util`](Self::average_util) finishes the folded
/// sampler.
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
    /// Every instant before this one is closed: the cluster refuses
    /// activity records before it, so no change point can still appear
    /// or change there, and both readers fold up to it.
    frontier: SimTime,
    /// The utilization sampler of each device kind, GPU then CPU pool.
    samplers: [UtilSampler; 2],
    /// The series length at which a record makes a fold due:
    /// [`FOLD_POINTS`], or half that past the longest series the last
    /// fold left when the frontier lagged behind.
    fold_at: usize,
    /// Whether any activity was recorded yet. Until then nodes may join
    /// and CPU pools be rebuilt freely: no series has been read.
    recorded: bool,
    /// A node joined or a CPU pool was rebuilt after the first activity
    /// record: the samplers' device set and capacity are stale, so
    /// folding stops and utilization reads fail.
    reshaped: bool,
    /// The whole-run outputs, once
    /// [`record_timeline`](Self::record_timeline) turned them on.
    timeline: Option<Recording>,
}

/// The change points one device may gather before a fold trims every
/// series. A fold walks every device once, so this also spaces folds by
/// at least half as many points on the busiest device.
const FOLD_POINTS: usize = 64;

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

/// Mutably borrows the node with `id`.
fn node_mut(nodes: &mut [Node], id: NodeId) -> &mut Node {
    let i = node_index(nodes, id);
    &mut nodes[i]
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
            frontier: SimTime::ZERO,
            samplers: [
                UtilSampler::new(DeviceKind::Gpu),
                UtilSampler::new(DeviceKind::CpuPool),
            ],
            fold_at: FOLD_POINTS,
            recorded: false,
            reshaped: false,
            timeline: None,
        }
    }

    /// The paper's testbed: two `Standard_ND96amsr_A100_v4` VMs.
    pub fn paper_testbed() -> Self {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        for _ in 0..2 {
            cm.add_node(murakkab_hardware::catalog::nd96amsr_a100_v4())
                .expect("the catalog shape has CPU cores");
        }
        cm
    }

    /// Adds a node immediately (no provisioning delay) and returns its
    /// id. A node added after the first activity record leaves
    /// utilization unreadable (see [`average_util`](Self::average_util)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] for a shape without CPU cores;
    /// the cluster is left as it was.
    pub fn add_node(&mut self, shape: VmShape) -> Result<NodeId, SimError> {
        let id = NodeId::from_raw(self.next_node);
        let mut next_dev = self.next_dev;
        let node = Node::from_shape(id, shape, &mut || {
            next_dev += 1;
            DeviceId::from_raw(next_dev - 1)
        })?;
        self.next_node += 1;
        self.next_dev = next_dev;
        if let Some(rec) = &mut self.timeline {
            rec.fleet.extend(
                node.gpus
                    .iter()
                    .map(|_| EnergyIntegrator::new(SimTime::ZERO)),
            );
        }
        self.nodes.push(node);
        self.reshaped |= self.recorded;
        Ok(id)
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
    ///
    /// # Errors
    ///
    /// As [`add_node`](Self::add_node); a shape that fails is dropped.
    pub fn process_provisioning(&mut self, now: SimTime) -> Result<Vec<NodeId>, SimError> {
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
        self.allocate_on_node(now, label, target, node_id)
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
    ) -> Result<AllocationId, SimError> {
        let node = node_mut(&mut self.nodes, node_id);
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
                d.reserve(gpu_share)?;
                gpu_devices.push(GpuGrant {
                    device: d.id,
                    energy: EnergyIntegrator::new(now),
                });
            }
        }
        assert_eq!(
            gpu_devices.len(),
            gpu_count as usize,
            "placement said fit but devices disagree"
        );
        if cores > 0 {
            node.cpu.reserve(f64::from(cores))?;
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
        Ok(id)
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
                    let first = self.allocate_on_node(now, label.clone(), prefill, node_id)?;
                    let second = self.allocate_on_node(now, label, decode, node_id)?;
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
    /// Returns [`SimError::NotFound`] for unknown ids and
    /// [`SimError::InvalidState`] for a reservation the node no longer
    /// holds.
    pub fn release(&mut self, _now: SimTime, id: AllocationId) -> Result<(), SimError> {
        let alloc = self.allocations.remove(live_index(&self.allocations, id)?);
        let node = node_mut(&mut self.nodes, alloc.node);
        if node.up {
            for g in &alloc.gpu_devices {
                if let Some(d) = node.gpu_mut(g.device) {
                    d.unreserve(alloc.gpu_share)?;
                }
            }
            if alloc.cores > 0 {
                node.cpu.unreserve(f64::from(alloc.cores))?;
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
    /// Returns [`SimError::NotFound`] for unknown ids and
    /// [`SimError::InvalidState`] for activity over capacity or before
    /// the last change or the settled frontier.
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
    /// Returns [`SimError::NotFound`] for unknown ids and
    /// [`SimError::InvalidState`] for activity below zero or before the
    /// last change or the settled frontier.
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
            nodes,
            allocations,
            frontier,
            recorded,
            ..
        } = self;
        let alloc = live_get(allocations, id)?;
        let node = node_mut(nodes, alloc.node);
        if !node.up {
            // The node died; its activity was zeroed at preemption.
            return Ok(());
        }
        check_frontier(*frontier, now)?;
        *recorded = true;
        let gpu_units = alloc.gpu_share * gpu_util.clamp(0.0, 1.0);
        let mut longest = 0;
        for g in &alloc.gpu_devices {
            let d = node.gpu_mut(g.device).expect("granted device exists");
            if start {
                d.activity_start(now, gpu_units)?;
            } else {
                d.activity_end(now, gpu_units)?;
            }
            longest = longest.max(d.util_series().points().len());
        }
        if alloc.cores > 0 {
            if start {
                node.cpu.activity_start(now, f64::from(alloc.cores))?;
            } else {
                node.cpu.activity_end(now, f64::from(alloc.cores))?;
            }
            longest = longest.max(node.cpu.util_series().points().len());
        }
        self.fold_if_due(longest);
        Ok(())
    }

    /// Sets the absolute activity level (fraction of the granted share) on
    /// an allocation's GPUs — LLM endpoints report level per batch step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown ids and
    /// [`SimError::InvalidState`] for a level before the last change or
    /// the settled frontier.
    pub fn set_gpu_activity_level(
        &mut self,
        now: SimTime,
        id: AllocationId,
        level: f64,
    ) -> Result<(), SimError> {
        let Self {
            nodes,
            allocations,
            frontier,
            recorded,
            ..
        } = self;
        let alloc = live_get(allocations, id)?;
        let node = node_mut(nodes, alloc.node);
        if !node.up {
            return Ok(());
        }
        check_frontier(*frontier, now)?;
        *recorded = true;
        let mut longest = 0;
        for g in &alloc.gpu_devices {
            let d = node.gpu_mut(g.device).expect("granted device exists");
            d.set_activity_level(now, alloc.gpu_share * level.clamp(0.0, 1.0))?;
            longest = longest.max(d.util_series().points().len());
        }
        self.fold_if_due(longest);
        Ok(())
    }

    /// Takes a node down (spot preemption), zeroing device activity and
    /// dropping its allocations. Returns the ids of the killed
    /// allocations so the runtime can reschedule their work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown nodes and
    /// [`SimError::InvalidState`] if the node is already down or `now` is
    /// before a device's last change or the settled frontier.
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
        check_frontier(self.frontier, now)?;
        self.recorded = true;
        for d in node.gpus.iter_mut() {
            d.set_activity_level(now, 0.0)?;
        }
        node.cpu.set_activity_level(now, 0.0)?;
        node.up = false;
        for d in node.gpus.iter_mut() {
            d.unreserve(d.reserved())?;
        }
        node.cpu.unreserve(node.cpu.reserved())?;

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
    /// [`SimError::InvalidState`] for non-harvest nodes or a resize to
    /// zero cores, and [`SimError::InvalidInput`] when shrinking below
    /// the pricing tier's guaranteed minimum. A resize after the first
    /// activity record leaves utilization unreadable (see
    /// [`average_util`](Self::average_util)).
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
        let mut fresh = Device::cpu_pool(node.cpu.id, &node.shape.cpu, new_cores)?;
        if kept_reserved > 0.0 {
            fresh.reserve(kept_reserved)?;
        }
        node.cpu = fresh;
        node.shape.vcpus = new_cores;
        self.reshaped |= self.recorded;

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
            cm.provision_delay = self.provision_delay;
            for _ in 0..take {
                cm.add_node(shapes.next().expect("counts sum to node count"))?;
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

    /// GPU energy attributable to one live allocation from its creation
    /// until `to`: each granted device's energy weighted by the granted
    /// share. This is the "energy of the resources a configuration
    /// actually holds" view used for Murakkab's Table 2 rows
    /// (idle-but-held GPUs count; GPUs the workflow released or never
    /// took do not). It closes the allocation's energy integrals, which
    /// the folds have carried up to the frontier.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for unknown allocations and
    /// [`SimError::InvalidState`] for a `to` before the frontier.
    pub fn allocation_energy_wh(&self, id: AllocationId, to: SimTime) -> Result<f64, SimError> {
        self.check_window_end(to)?;
        let alloc = self.allocation(id)?;
        let node = &self.nodes[node_index(&self.nodes, alloc.node)];
        let mut wh = 0.0;
        for g in &alloc.gpu_devices {
            let d = node.gpu(g.device).expect("granted device exists");
            wh += g.energy.close(d.power_curve(), d.util_series(), to) * alloc.gpu_share;
        }
        Ok(wh)
    }

    /// The mean cluster-wide utilization of `kind`, in percent of all
    /// `kind` capacity, over the [`UTIL_SAMPLE`] grid from zero clamped
    /// to and including `to` (zero if the cluster has no `kind`
    /// capacity). It takes the folded sampler's last steps to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] for a `to` before the frontier
    /// or a cluster reshaped after its first activity record.
    pub fn average_util(&self, kind: DeviceKind, to: SimTime) -> Result<f64, SimError> {
        self.check_util_window(to)?;
        let mut sampler = self.samplers[usize::from(kind == DeviceKind::CpuPool)].clone();
        sampler.walk(&self.nodes, Walk::Through(to), |_, _| {});
        Ok(sampler.mean())
    }

    /// Turns on the timeline: from now on the folds also keep every
    /// utilization sample they take and fold one energy integral from
    /// zero per GPU, allocated or not.
    /// [`close_timeline`](Self::close_timeline) hands them back. Only a
    /// closed-loop report reads them (Figure 3's curves and the
    /// whole-fleet energy); they grow with the run's length.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] once activity was recorded:
    /// the series no longer hold everything since zero.
    pub fn record_timeline(&mut self) -> Result<(), SimError> {
        if self.recorded {
            return Err(SimError::InvalidState(
                "the timeline must be recorded from before the first activity record".into(),
            ));
        }
        let gpus = devices_of(&self.nodes, DeviceKind::Gpu).count();
        self.timeline.get_or_insert_with(|| Recording {
            curves: [Vec::new(), Vec::new()],
            fleet: vec![EnergyIntegrator::new(SimTime::ZERO); gpus],
        });
        Ok(())
    }

    /// Closes the timeline at `to` and hands it back, or `None` if none
    /// is recorded. The curves end with the samples up to and including
    /// `to`, exactly as [`average_util`](Self::average_util) takes them,
    /// and the fleet energy covers `[0, to)`.
    ///
    /// # Errors
    ///
    /// As [`average_util`](Self::average_util); the timeline stays
    /// recorded then.
    pub fn close_timeline(&mut self, to: SimTime) -> Result<Option<Timeline>, SimError> {
        if self.timeline.is_some() {
            self.check_util_window(to)?;
        }
        let Some(Recording {
            curves: [mut gpu_util, mut cpu_util],
            fleet,
        }) = self.timeline.take()
        else {
            return Ok(None);
        };
        for (sampler, curve) in self.samplers.iter().zip([&mut gpu_util, &mut cpu_util]) {
            sampler
                .clone()
                .walk(&self.nodes, Walk::Through(to), |t, pct| {
                    curve.push((t.as_secs_f64(), pct));
                });
        }
        let mut energy_fleet_wh = 0.0;
        for (energy, d) in fleet
            .into_iter()
            .zip(devices_of(&self.nodes, DeviceKind::Gpu))
        {
            energy_fleet_wh += energy.close(d.power_curve(), d.util_series(), to);
        }
        Ok(Some(Timeline {
            gpu_util,
            cpu_util,
            energy_fleet_wh,
        }))
    }

    /// Moves the frontier to `frontier`, the caller's promise that it
    /// records no more activity before that instant (the engine passes
    /// its last task completion; every settle window ends at or after
    /// it). Activity records before the frontier are refused from then
    /// on.
    pub fn advance_frontier(&mut self, frontier: SimTime) {
        self.frontier = self.frontier.max(frontier);
    }

    /// [`fold`](Self::fold)s once a record has left some device with
    /// `longest` change points, at least the fold threshold.
    fn fold_if_due(&mut self, longest: usize) {
        if longest >= self.fold_at {
            self.fold();
        }
    }

    /// Folds every live allocation's energy, both utilization samplers
    /// and the timeline up to the frontier, then trims each device's
    /// series to what the readers still need. Activity records call this
    /// whenever a device's series reaches the fold threshold; a no-op on
    /// a cluster reshaped after its first activity record.
    pub fn fold(&mut self) {
        let Self {
            nodes,
            allocations,
            frontier,
            samplers,
            fold_at,
            reshaped,
            timeline,
            ..
        } = self;
        if *reshaped {
            return;
        }
        let frontier = *frontier;
        for alloc in allocations.iter_mut() {
            let node = &nodes[node_index(nodes, alloc.node)];
            for g in &mut alloc.gpu_devices {
                let d = node.gpu(g.device).expect("granted device exists");
                g.energy.advance(d.power_curve(), d.util_series(), frontier);
            }
        }
        if let Some(rec) = timeline.as_mut() {
            for (energy, d) in rec.fleet.iter_mut().zip(devices_of(nodes, DeviceKind::Gpu)) {
                energy.advance(d.power_curve(), d.util_series(), frontier);
            }
        }
        for (i, sampler) in samplers.iter_mut().enumerate() {
            let mut curve = timeline.as_mut().map(|rec| &mut rec.curves[i]);
            sampler.walk(nodes, Walk::Before(frontier), |t, pct| {
                if let Some(curve) = curve.as_mut() {
                    curve.push((t.as_secs_f64(), pct));
                }
            });
        }
        // Every reader now stands at the same frontier. An energy
        // integral has folded every point before it, so it reads only
        // later points (or, if it starts at or after the frontier, the
        // last point at or before its start); a sampler resumes at its
        // last computed sample, before the frontier. Keeping what the
        // sampler of the device's kind needs keeps them all.
        let [gpus, cpus] = &*samplers;
        let (gpu_keep, cpu_keep) = (gpus.resume_at(), cpus.resume_at());
        let mut longest = 0;
        for node in nodes.iter_mut() {
            for d in &mut node.gpus {
                d.trim_util_before(gpu_keep);
                longest = longest.max(d.util_series().points().len());
            }
            node.cpu.trim_util_before(cpu_keep);
            longest = longest.max(node.cpu.util_series().points().len());
        }
        // Points at or after the frontier stay; while it lags, wait for
        // half a threshold more before folding again.
        *fold_at = FOLD_POINTS.max(longest + FOLD_POINTS / 2);
    }

    /// The most utilization change points any one device holds: an O(1)
    /// tail plus the points after the frontier.
    pub fn retained_points(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.gpus.iter().chain(std::iter::once(&n.cpu)))
            .map(|d| d.util_series().points().len())
            .max()
            .unwrap_or(0)
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

    /// Settle windows end at or after the frontier: everything before it
    /// is already folded in.
    fn check_window_end(&self, to: SimTime) -> Result<(), SimError> {
        if to < self.frontier {
            return Err(SimError::InvalidState(format!(
                "settle window ends at {to:?}, before the frontier {:?}",
                self.frontier
            )));
        }
        Ok(())
    }

    /// Utilization reads also need the samplers' device set to be the
    /// cluster's.
    fn check_util_window(&self, to: SimTime) -> Result<(), SimError> {
        if self.reshaped {
            return Err(SimError::InvalidState(
                "the cluster was reshaped after its first activity record".into(),
            ));
        }
        self.check_window_end(to)
    }
}

/// The position of node `id` in the node table. Nodes are only ever
/// appended with sequential ids, so the id doubles as the index; the
/// linear scan is a safety net, not the expected path.
fn node_index(nodes: &[Node], id: NodeId) -> usize {
    let i = id.raw() as usize;
    if nodes.get(i).is_some_and(|n| n.id == id) {
        return i;
    }
    nodes
        .iter()
        .position(|n| n.id == id)
        .expect("allocation references an existing node")
}

/// Refuses an activity record at `now` before the frontier.
fn check_frontier(frontier: SimTime, now: SimTime) -> Result<(), SimError> {
    if now < frontier {
        return Err(SimError::InvalidState(format!(
            "activity at {now:?} is before the frontier {frontier:?}"
        )));
    }
    Ok(())
}

/// How far a [`UtilSampler`] walk goes.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// The grid instants strictly before this one: a fold.
    Before(SimTime),
    /// The rest of the grid, clamped to and including this window end.
    Through(SimTime),
}

/// The utilization sampler behind [`ClusterManager::average_util`] and
/// the timeline's curves: the [`UTIL_SAMPLE`] grid from zero of one
/// device kind, walked forward in one or more stretches. Each stretch
/// reads every device series through a [`SeriesCursor`] re-entered at
/// the last computed sample, and while no device changes before the next
/// sample instant it emits the previous sample again (same inputs, same
/// arithmetic, same bits). The running sum and count give the mean.
#[derive(Debug, Clone)]
struct UtilSampler {
    kind: DeviceKind,
    /// The next sample instant, not yet clamped to a window end; `None`
    /// once the grid is exhausted.
    next: Option<SimTime>,
    /// The instant and value of the last computed sample.
    last: Option<(SimTime, f64)>,
    sum: f64,
    count: usize,
    /// Each device's cursor and capacity during a walk, in node then
    /// device order; kept so folds reuse the buffer.
    cursors: Vec<(SeriesCursor, f64)>,
}

/// The devices of `kind` in node then device order.
fn devices_of(nodes: &[Node], kind: DeviceKind) -> impl Iterator<Item = &Device> {
    nodes.iter().flat_map(move |n| match kind {
        DeviceKind::Gpu => n.gpus.as_slice(),
        DeviceKind::CpuPool => std::slice::from_ref(&n.cpu),
    })
}

impl UtilSampler {
    fn new(kind: DeviceKind) -> Self {
        UtilSampler {
            kind,
            next: Some(SimTime::ZERO),
            last: None,
            // What `Iterator::sum` starts from, so the mean matches a sum
            // of the collected samples bit for bit.
            sum: -0.0,
            count: 0,
            cursors: Vec::new(),
        }
    }

    /// The earliest instant the sampler still reads: a device series
    /// must keep its last change point at or before it.
    fn resume_at(&self) -> SimTime {
        self.last
            .map(|(t, _)| t)
            .or(self.next)
            .unwrap_or(SimTime::MAX)
    }

    /// The mean of the samples taken (zero when there are none).
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Takes the grid samples `end` covers, in order, handing each to
    /// `emit`. A kind with no capacity has no samples.
    fn walk(&mut self, nodes: &[Node], end: Walk, mut emit: impl FnMut(SimTime, f64)) {
        let Some(mut t) = self.next else {
            return;
        };
        let anchor = self.last.map_or(t, |(at, _)| at);
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.extend(
            devices_of(nodes, self.kind).map(|d| (d.util_series().cursor_at(anchor), d.capacity())),
        );
        let total_cap: f64 = cursors.iter().map(|&(_, cap)| cap).sum();
        if total_cap == 0.0 {
            self.next = None;
            return;
        }
        // The earliest change after the last computed sample.
        let next_change = |cursors: &[(SeriesCursor, f64)]| {
            devices_of(nodes, self.kind)
                .zip(cursors)
                .filter_map(|(d, (c, _))| c.next_change(d.util_series()))
                .min()
        };
        let mut change = next_change(cursors);
        if let Walk::Through(to) = end {
            if self.count > 0 {
                t = t.min(to);
            }
        }
        loop {
            if let Walk::Before(bound) = end {
                if t >= bound {
                    self.next = Some(t);
                    return;
                }
            }
            let pct = match self.last {
                Some((_, pct)) if change.is_none_or(|c| t < c) => pct,
                _ => {
                    let busy: f64 = devices_of(nodes, self.kind)
                        .zip(cursors.iter_mut())
                        .map(|(d, (cursor, cap))| cursor.value_at(d.util_series(), t) * *cap)
                        .sum();
                    let pct = 100.0 * busy / total_cap;
                    change = next_change(cursors);
                    self.last = Some((t, pct));
                    pct
                }
            };
            self.sum += pct;
            self.count += 1;
            emit(t, pct);
            t = match end {
                // A fold stops before the window end, so the clamp waits
                // for the closing walk.
                Walk::Before(_) => t + UTIL_SAMPLE,
                Walk::Through(to) if t < to => (t + UTIL_SAMPLE).min(to),
                Walk::Through(_) => {
                    self.next = None;
                    return;
                }
            };
        }
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

    /// Closes `cm`'s timeline at `to`.
    fn timeline(cm: &mut ClusterManager, to: SimTime) -> Timeline {
        cm.close_timeline(to)
            .expect("closes")
            .expect("the timeline is recorded")
    }

    #[test]
    fn activity_drives_energy() {
        let mut cm = ClusterManager::paper_testbed();
        cm.record_timeline().unwrap();
        let a = cm.allocate(t(0), "w", HardwareTarget::ONE_GPU).unwrap();
        cm.activity_start(t(0), a, 0.7).unwrap();
        cm.activity_end(t(3600), a, 0.7).unwrap();
        let wh = cm.allocation_energy_wh(a, t(3600)).unwrap();
        // One allocated GPU at util 0.7 for an hour: 90 + 0.7*310 = 307 Wh.
        assert!((wh - 307.0).abs() < 0.1, "wh = {wh}");
        // Whole-fleet view adds 15 more idle GPUs.
        let all = timeline(&mut cm, t(3600)).energy_fleet_wh;
        assert!((all - (307.0 + 15.0 * 90.0)).abs() < 0.1, "all = {all}");
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
        cm.provision_delay = SimDuration::from_secs(120);
        let ready = cm.request_scale_out(t(0), catalog::cpu_only_f64s());
        assert_eq!(ready, t(120));
        assert!(cm.process_provisioning(t(60)).unwrap().is_empty());
        assert_eq!(cm.stats(t(60)).nodes_pending, 1);
        let added = cm.process_provisioning(t(120)).unwrap();
        assert_eq!(added.len(), 1);
        assert_eq!(cm.stats(t(120)).nodes_up, 3);
        assert_eq!(cm.stats(t(120)).cores_total, 256.0);
    }

    #[test]
    fn timeline_reflects_activity() {
        let mut cm = ClusterManager::paper_testbed();
        cm.record_timeline().unwrap();
        let a = cm.allocate(t(0), "x", HardwareTarget::gpus(8)).unwrap();
        cm.activity_start(t(0), a, 1.0).unwrap();
        let timeline = timeline(&mut cm, t(10));
        // 8 of 16 GPUs fully busy: 50%, one sample per second.
        assert_eq!(timeline.gpu_util.len(), 11);
        assert!(timeline.gpu_util.iter().all(|&(_, pct)| pct == 50.0));
        assert!(timeline.cpu_util.iter().all(|&(_, pct)| pct == 0.0));
        assert_eq!(cm.average_util(DeviceKind::Gpu, t(10)).unwrap(), 50.0);
        assert!(cm.close_timeline(t(10)).unwrap().is_none(), "closed once");
    }

    #[test]
    fn endpoint_level_updates() {
        let mut cm = ClusterManager::paper_testbed();
        cm.record_timeline().unwrap();
        let a = cm.allocate(t(0), "ep", HardwareTarget::gpus(2)).unwrap();
        cm.set_gpu_activity_level(t(0), a, 0.5).unwrap();
        cm.set_gpu_activity_level(t(5), a, 0.0).unwrap();
        let samples = timeline(&mut cm, t(6)).gpu_util;
        // 2 GPUs at 0.5 of 16 total: 6.25% until the level drops.
        assert!((samples[0].1 - 6.25).abs() < 1e-9);
        assert!((samples[4].1 - 6.25).abs() < 1e-9);
        assert_eq!(samples[5].1, 0.0);
    }

    #[test]
    fn harvest_resize_grows_and_shrinks() {
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        let mut shape = catalog::cpu_only_f64s();
        shape.pricing = murakkab_hardware::VmPricing::Harvest {
            discount: 0.2,
            min_cores: 8,
        };
        let node = cm.add_node(shape).unwrap();
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
            cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
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

    #[test]
    fn activity_errors_propagate_through_the_cluster() {
        let mut cm = ClusterManager::paper_testbed();
        let a = cm.allocate(t(0), "x", HardwareTarget::ONE_GPU).unwrap();
        cm.activity_start(t(5), a, 1.0).unwrap();
        assert!(matches!(
            cm.activity_end(t(4), a, 1.0),
            Err(SimError::InvalidState(_))
        ));
        assert!(matches!(
            cm.activity_start(t(6), a, 1.0),
            Err(SimError::InvalidState(_))
        ));
        cm.activity_end(t(7), a, 1.0).unwrap();
        assert!(matches!(
            cm.activity_end(t(8), a, 1.0),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn records_before_the_frontier_are_refused() {
        let mut cm = ClusterManager::paper_testbed();
        cm.record_timeline().unwrap();
        let a = cm.allocate(t(0), "ep", HardwareTarget::gpus(2)).unwrap();
        cm.set_gpu_activity_level(t(3), a, 0.5).unwrap();
        cm.advance_frontier(t(10));
        for err in [
            cm.set_gpu_activity_level(t(9), a, 1.0),
            cm.activity_start(t(9), a, 1.0),
            cm.preempt_node(t(9), NodeId::from_raw(1)).map(|_| ()),
        ] {
            assert!(matches!(err, Err(SimError::InvalidState(_))), "{err:?}");
        }
        // The refused records changed nothing; at the frontier is fine.
        cm.set_gpu_activity_level(t(10), a, 1.0).unwrap();
        assert!(cm.nodes().iter().all(|n| n.up));
        // Windows ending before the frontier cannot be settled.
        assert!(matches!(
            cm.allocation_energy_wh(a, t(9)),
            Err(SimError::InvalidState(_))
        ));
        assert!(cm.average_util(DeviceKind::Gpu, t(9)).is_err());
        assert!(cm.close_timeline(t(9)).is_err());
        // The refused close left the timeline recorded.
        assert_eq!(timeline(&mut cm, t(10)).gpu_util.len(), 11);
        // Recording a timeline starts before the first activity record.
        assert!(matches!(
            cm.record_timeline(),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn folding_trims_to_an_o1_tail_with_the_same_bits() {
        // A cluster whose frontier never moves folds nothing and keeps
        // every point: the reference.
        let mut retained = ClusterManager::paper_testbed();
        let mut folded = retained.clone();
        let mut ids = Vec::new();
        for cm in [&mut retained, &mut folded] {
            cm.record_timeline().unwrap();
            ids.push(cm.allocate(t(0), "ep", HardwareTarget::gpus(8)).unwrap());
        }
        for step in 0..400u64 {
            let level = (step % 7) as f64 / 7.0;
            let now = SimTime::from_micros(700_000 * step);
            for (cm, &id) in [&mut retained, &mut folded].into_iter().zip(&ids) {
                cm.set_gpu_activity_level(now, id, level).unwrap();
            }
            folded.advance_frontier(now);
        }
        assert!(retained.retained_points() >= 400);
        assert!(
            folded.retained_points() <= FOLD_POINTS,
            "{} points held",
            folded.retained_points()
        );
        let end = t(300);
        assert_eq!(
            retained
                .allocation_energy_wh(ids[0], end)
                .unwrap()
                .to_bits(),
            folded.allocation_energy_wh(ids[1], end).unwrap().to_bits()
        );
        for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
            assert_eq!(
                retained.average_util(kind, end).unwrap().to_bits(),
                folded.average_util(kind, end).unwrap().to_bits()
            );
        }
        let (want, got) = (timeline(&mut retained, end), timeline(&mut folded, end));
        assert_eq!(
            want.energy_fleet_wh.to_bits(),
            got.energy_fleet_wh.to_bits()
        );
        for (want, got) in [(want.gpu_util, got.gpu_util), (want.cpu_util, got.cpu_util)] {
            assert_eq!(want.len(), 301);
            let bits = |curve: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
                curve
                    .into_iter()
                    .map(|(s, pct)| (s.to_bits(), pct.to_bits()))
                    .collect()
            };
            assert_eq!(bits(want), bits(got));
        }
    }

    #[test]
    fn reshaping_an_online_cluster_stops_utilization_reads() {
        // Nodes may join before the first activity record: that is how
        // every cluster is built.
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        cm.record_timeline().unwrap();
        cm.add_node(catalog::nd96amsr_a100_v4()).unwrap();
        cm.add_node(catalog::cpu_only_f64s()).unwrap();
        let a = cm.allocate(t(0), "x", HardwareTarget::gpus(4)).unwrap();
        cm.activity_start(t(0), a, 1.0).unwrap();
        assert_eq!(cm.average_util(DeviceKind::Gpu, t(10)).unwrap(), 50.0);
        let mut joined = cm.clone();
        let fleet = timeline(&mut cm, t(10)).energy_fleet_wh;
        assert!(fleet > 0.0);
        // A node joining after it leaves the samplers' device set stale.
        joined.add_node(catalog::cpu_only_f64s()).unwrap();
        for kind in [DeviceKind::Gpu, DeviceKind::CpuPool] {
            assert!(matches!(
                joined.average_util(kind, t(10)),
                Err(SimError::InvalidState(_))
            ));
        }
        assert!(joined.close_timeline(t(10)).is_err());
        // So does a harvest pool rebuilt after it, but not before.
        let mut harvest = catalog::cpu_only_f64s();
        harvest.pricing = murakkab_hardware::VmPricing::Harvest {
            discount: 0.2,
            min_cores: 8,
        };
        let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
        let node = cm.add_node(harvest).unwrap();
        cm.resize_harvest_cores(t(0), node, 32).unwrap();
        let a = cm
            .allocate(t(0), "x", HardwareTarget::cpu_cores(16))
            .unwrap();
        cm.activity_start(t(1), a, 0.0).unwrap();
        assert_eq!(cm.average_util(DeviceKind::CpuPool, t(1)).unwrap(), 25.0);
        cm.resize_harvest_cores(t(2), node, 64).unwrap();
        assert!(matches!(
            cm.average_util(DeviceKind::CpuPool, t(2)),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn zero_core_pools_are_refused() {
        let mut cm = ClusterManager::paper_testbed();
        let mut empty = catalog::cpu_only_f64s();
        empty.vcpus = 0;
        assert!(matches!(cm.add_node(empty), Err(SimError::InvalidState(_))));
        assert_eq!(cm.nodes().len(), 2, "the refused node was not added");
        // Ids stay dense after a refusal.
        assert_eq!(
            cm.add_node(catalog::cpu_only_f64s()).unwrap(),
            NodeId::from_raw(2)
        );
        assert_eq!(cm.nodes()[2].cpu.id.raw(), 18);
        let mut harvest = catalog::cpu_only_f64s();
        harvest.pricing = murakkab_hardware::VmPricing::Harvest {
            discount: 0.2,
            min_cores: 0,
        };
        let node = cm.add_node(harvest).unwrap();
        assert!(matches!(
            cm.resize_harvest_cores(t(0), node, 0),
            Err(SimError::InvalidState(_))
        ));
        assert_eq!(cm.stats(t(0)).cores_total, 192.0 + 64.0 + 64.0);
    }
}
