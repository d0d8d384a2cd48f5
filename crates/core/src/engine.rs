//! The discrete-event execution engine.
//!
//! The engine runs one task graph to completion against:
//!
//! - **worker pools** for tool capabilities (frame extraction, STT, object
//!   detection, ...): N workers, each holding an allocation from the
//!   cluster manager and executing one task instance at a time;
//! - **LLM endpoints** for served capabilities (summarisation, embedding,
//!   generation): requests go through `murakkab-llmsim`'s continuous
//!   batcher, so queueing and batching behaviour — the thing the paper's
//!   parallel-summarisation optimisation exploits — is simulated
//!   faithfully;
//! - **external agents** (proprietary APIs): fixed latency, dollar cost,
//!   no local resources.
//!
//! Everything advances on one deterministic event queue. The engine is
//! policy-free: which agent/hardware serves each capability is decided by
//! the caller (the Murakkab runtime or the imperative baseline executor)
//! and passed in as [`RouteSpec`]s.
//!
//! # Hot-path layout
//!
//! [`Engine::new`] interns every route into dense indices: pools and
//! endpoints live in `Vec`s (sorted by agent name, preserving the old
//! `BTreeMap` iteration order), capabilities index a fixed
//! `CompiledRoute` table, and per-task state lives in a `Vec` arena
//! indexed by the dense [`TaskId`]. Event payloads carry those indices
//! — `Event<EngineEvent>` is `Copy` — so the steady-state event loop
//! does no string cloning, no tree walking and no per-event heap
//! allocation.
//!
//! Task graphs enter the engine as [`CompiledGraph`]s: capability, work
//! and indegree per task in id order, plus one flat successor list of
//! local indices. Both the closed-loop graph of [`Engine::new`] and every
//! workflow admitted mid-run with [`Engine::admit_graph_into`] are
//! appended onto the same task arena and successor list, so dispatch,
//! pool pumping, preemption resubmits and completion read a dense index
//! and never a `BTreeMap`. Task names are kept only while spans are
//! recorded.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use murakkab_agents::{AgentLibrary, AgentSpec, Backend, Capability, Work};
use murakkab_cluster::{AllocationId, ClusterManager};
use murakkab_hardware::{catalog, EnergyScope, GpuSku, HardwareTarget};
use murakkab_llmsim::{build_backend, BackendSpec, ModelSpec, Request, ServingBackend};
use murakkab_orchestrator::OrchestratorCost;
use murakkab_sim::{Event, EventQueue, SimDuration, SimError, SimTime, TraceLog};
use murakkab_workflow::{TaskGraph, TaskId};

/// Effective interconnect fraction available to a disaggregated pair
/// whose prefill and decode groups landed on different nodes (the KV
/// transfer rides the datacenter fabric instead of NVLink).
const CROSS_NODE_INTERCONNECT_FACTOR: f64 = 0.25;

/// Number of [`Capability`] variants — the size of the per-capability
/// route and lookahead tables.
const N_CAPS: usize = Capability::ALL.len();

/// How a capability's tasks are executed.
#[derive(Debug, Clone)]
pub enum RouteSpec {
    /// A pool of tool workers (one entry per worker, so hybrid pools can
    /// mix GPU and CPU workers — the paper's GPU+CPU STT configuration).
    Pool {
        /// Library agent name.
        agent: String,
        /// One hardware target per worker to try to allocate (≥1 must
        /// succeed).
        workers: Vec<HardwareTarget>,
    },
    /// A served-LLM endpoint (shared across capabilities that name the
    /// same agent). The deployment shape — colocated replica or a
    /// disaggregated prefill/decode pair — travels with the route; the
    /// engine only ever talks to the backend through the
    /// [`ServingBackend`] trait.
    Endpoint {
        /// Library agent name (must have an `LlmServed` backend).
        agent: String,
        /// Deployment shape consumed by the backend factory.
        backend: BackendSpec,
    },
    /// A third-party API call.
    External {
        /// Library agent name.
        agent: String,
    },
}

impl RouteSpec {
    /// The library agent this route uses.
    pub fn agent(&self) -> &str {
        match self {
            RouteSpec::Pool { agent, .. }
            | RouteSpec::Endpoint { agent, .. }
            | RouteSpec::External { agent } => agent,
        }
    }
}

/// A route compiled to dense indices at engine construction — what the
/// per-event dispatch path consults instead of the `BTreeMap` of
/// [`RouteSpec`]s.
#[derive(Debug, Clone, Copy)]
enum CompiledRoute {
    /// Index into [`Engine::pools`].
    Pool(u32),
    /// Index into [`Engine::endpoints`].
    Endpoint(u32),
    /// External call: latency and dollar cost per call.
    External {
        latency_s: f64,
        cost_per_call_usd: f64,
    },
}

/// One task of a [`CompiledGraph`].
#[derive(Debug, Clone, Copy)]
pub struct CompiledTask {
    /// Required capability.
    pub capability: Capability,
    /// Work the task carries.
    pub work: Work,
    /// Number of direct predecessors.
    pub indegree: u32,
    /// `start..end` of the task's successors in the graph's flat
    /// successor list.
    succ: (u32, u32),
}

/// A [`TaskGraph`] compiled to the form the engine executes: one entry
/// per task in task-id order plus one flat list of successor indices
/// (local to the graph, ascending per task). Built once per workflow;
/// the engine appends it onto its task arena without touching names,
/// stages or the graph's maps.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    tasks: Vec<CompiledTask>,
    succ: Vec<u32>,
}

/// `n` as a `u32` index or offset, or a typed error naming what
/// outgrew the engine's `u32` task indexing.
fn index_u32(n: usize, what: &str) -> Result<u32, SimError> {
    u32::try_from(n)
        .map_err(|_| SimError::InvalidState(format!("{what} ({n}) exceeds u32 indexing")))
}

impl CompiledGraph {
    /// Compiles `graph`. Local index `i` is the graph's `i`-th task in id
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if the task count or the edge
    /// count does not fit the `u32` indices and offsets.
    pub fn from_graph(graph: &TaskGraph) -> Result<Self, SimError> {
        let ids: Vec<TaskId> = graph.tasks().map(|n| n.id).collect();
        index_u32(ids.len(), "compiled graph task count")?;
        let local = |id: TaskId| ids.binary_search(&id).expect("edge endpoint is a task") as u32;
        let mut tasks = Vec::with_capacity(ids.len());
        let mut succ = Vec::new();
        let mut start = 0;
        for node in graph.tasks() {
            succ.extend(graph.successors(node.id).map(local));
            let end = index_u32(succ.len(), "compiled graph edge count")?;
            tasks.push(CompiledTask {
                capability: node.capability,
                work: node.work,
                indegree: graph.predecessors(node.id).count() as u32,
                succ: (start, end),
            });
            start = end;
        }
        Ok(CompiledGraph { tasks, succ })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// All tasks in local-index order.
    pub fn tasks(&self) -> &[CompiledTask] {
        &self.tasks
    }

    /// Local indices of task `i`'s direct successors, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: usize) -> &[u32] {
        let (start, end) = self.tasks[i].succ;
        &self.succ[start as usize..end as usize]
    }
}

/// Engine-level options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Release tool pools as soon as the DAG shows no more work for them
    /// (§3.2 workflow-aware cluster management). Off for the baseline.
    pub workflow_aware: bool,
    /// Orchestration LLM cost to charge before any task dispatches, and
    /// the endpoint agent that serves it.
    pub orchestration: Option<(OrchestratorCost, String)>,
    /// Spot preemptions to inject: `(time, node index)` pairs. At each
    /// instant the node dies; running tool tasks on it restart on
    /// surviving workers, and endpoints re-place onto surviving nodes
    /// (the run fails with a checked error if they cannot).
    pub preemptions: Vec<(SimTime, usize)>,
    /// GPU SKU of the cluster (drives endpoint roofline and prices).
    pub gpu_sku: murakkab_hardware::GpuSku,
    /// Speedup factor applied to tool work on pure-GPU targets relative
    /// to the A100 calibration (≈ sqrt of the FLOPS ratio: media tools
    /// are partly memory/IO bound, so they do not scale with raw FLOPS).
    pub gpu_speed_factor: f64,
    /// Record a per-task span into the outcome's [`TraceLog`]. On by
    /// default (closed-loop reporting renders the trace); the fleet
    /// driver turns it off — serve reports never read the trace, and
    /// skipping it removes a `String` clone per completed task from the
    /// hot path.
    pub record_spans: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workflow_aware: true,
            orchestration: None,
            preemptions: Vec::new(),
            gpu_sku: catalog::a100_80g(),
            gpu_speed_factor: 1.0,
            record_spans: true,
        }
    }
}

impl EngineOptions {
    /// Options for a cluster built from `sku` GPUs.
    pub fn for_gpu(sku: murakkab_hardware::GpuSku) -> Self {
        let factor = (sku.fp16_tflops / catalog::a100_80g().fp16_tflops).sqrt();
        EngineOptions {
            gpu_speed_factor: factor,
            gpu_sku: sku,
            ..EngineOptions::default()
        }
    }
}

/// What a finished run hands back for reporting.
#[derive(Debug)]
pub struct EngineOutcome {
    /// The cluster (with full utilization history) after the run.
    pub cluster: ClusterManager,
    /// Per-task spans by component lane.
    pub trace: TraceLog,
    /// Start of execution (after orchestration).
    pub started: SimTime,
    /// Completion time of the last task.
    pub makespan: SimTime,
    /// Time spent in orchestration (DAG creation) before execution.
    pub orchestration: SimDuration,
    /// GPU energy of held allocations over their hold windows, in Wh
    /// (Murakkab's Table 2 scope).
    pub energy_allocated_wh: f64,
    /// Dollar cost of held allocations plus external calls.
    pub cost_usd: f64,
    /// Tasks completed.
    pub tasks_completed: usize,
    /// Tool pools (re-)provisioned after an idle release (open-loop
    /// autoscale-up events).
    pub pool_scale_ups: u64,
    /// Tool pools released on idleness (autoscale-down events).
    pub pool_scale_downs: u64,
}

impl EngineOutcome {
    /// Whole-fleet GPU energy over the run window (the baseline's Table 2
    /// scope: a rigid deployment strands the entire testbed).
    pub fn energy_fleet_wh(&self) -> f64 {
        self.cluster
            .energy_wh_all(SimTime::ZERO, self.makespan, EnergyScope::GpuOnly)
    }
}

/// Event payloads carry dense indices only, keeping `Event<EngineEvent>`
/// `Copy` — nothing is cloned or freed per processed event.
#[derive(Debug, Clone, Copy)]
enum EngineEvent {
    ToolDone {
        task: TaskId,
        /// Index into [`Engine::pools`].
        pool: u32,
        /// Worker slot within the pool.
        worker: u32,
        gpu_util: f64,
    },
    LlmStep {
        /// Index into [`Engine::endpoints`].
        endpoint: u32,
        generation: u64,
    },
    ExternalDone {
        task: TaskId,
    },
    Preempt {
        node_idx: usize,
    },
}

#[derive(Debug)]
struct Worker {
    alloc: AllocationId,
    target: HardwareTarget,
    busy: bool,
    dead: bool,
}

#[derive(Debug)]
struct Pool {
    /// Library agent name (cluster allocation label; sort key of
    /// [`Engine::pools`]).
    agent: String,
    /// Cost-model snapshot of the agent (taken once at construction —
    /// replaces the per-task-start spec clone of the map-keyed engine).
    spec: AgentSpec,
    caps: Vec<Capability>,
    workers: Vec<Worker>,
    /// The originally requested worker targets — what a re-provision
    /// after an idle release tries to get back (open-loop serving).
    spec_workers: Vec<HardwareTarget>,
    queue: VecDeque<TaskId>,
    released: bool,
}

#[derive(Debug)]
struct EndpointHandle {
    /// Library agent name (sort key of [`Engine::endpoints`]).
    agent: String,
    backend: Box<dyn ServingBackend>,
    /// Deployment shape from the route — consulted when a preemption
    /// forces a re-placement.
    spec_backend: BackendSpec,
    /// One allocation for a colocated replica; `[prefill, decode]` for a
    /// disaggregated pair.
    allocs: Vec<AllocationId>,
    /// In-flight request slots: the request id IS the slot index, so a
    /// completion resolves its task with one bounds-checked load. Freed
    /// slots recycle LIFO; each entry remembers its submission sequence
    /// so preemption resubmits in original submission order.
    pending: Vec<Option<(TaskId, u64)>>,
    free_slots: Vec<u32>,
    /// Monotonic submission counter feeding `pending` entries.
    submit_seq: u64,
    orchestration_req: Option<u64>,
    /// Bumped when the endpoint is re-placed after preemption; stale step
    /// events armed for an earlier incarnation are dropped on arrival.
    generation: u64,
}

impl EndpointHandle {
    /// Claims a pending slot for `task` and returns the request id.
    fn claim_slot(&mut self, task: TaskId) -> u64 {
        let seq = self.submit_seq;
        self.submit_seq += 1;
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.pending.push(None);
            (self.pending.len() - 1) as u32
        });
        self.pending[slot as usize] = Some((task, seq));
        u64::from(slot)
    }
}

/// Per-task execution state, indexed by the dense [`TaskId`] — replaces
/// the `completed`/`scheduled` sets and the `indegree`/`started_at`
/// maps of the map-keyed engine.
#[derive(Debug, Clone, Copy)]
struct TaskState {
    capability: Capability,
    work: Work,
    /// Remaining-predecessor count; hits zero exactly when the task
    /// becomes schedulable (incremental ready tracking: dispatch is
    /// O(newly ready), not O(graph) — fleet graphs grow to thousands of
    /// tasks).
    indegree: u32,
    /// `start..end` of the task's successors in [`Engine::succ`].
    succ: (u32, u32),
    scheduled: bool,
    completed: bool,
    started_at: Option<SimTime>,
}

/// The execution engine (one run per instance).
#[derive(Debug)]
pub struct Engine {
    cluster: ClusterManager,
    /// Per-capability compiled routes — the event loop's only routing
    /// structure.
    route_table: [Option<CompiledRoute>; N_CAPS],
    /// Tool pools, sorted by agent name (the old `BTreeMap` iteration
    /// order, which pump/release/report paths depend on).
    pools: Vec<Pool>,
    /// LLM endpoints, sorted by agent name.
    endpoints: Vec<EndpointHandle>,
    options: EngineOptions,
    queue: EventQueue<EngineEvent>,
    /// Dense per-task arena indexed by `TaskId::raw()`.
    tasks: Vec<TaskState>,
    /// Successors of every task as engine-local task indices, one
    /// contiguous range per task.
    succ: Vec<u32>,
    /// Task names by arena index, kept only while spans are recorded
    /// (the closed-loop graph's names; admitted tasks fall back to
    /// their [`TaskId`]).
    names: Vec<String>,
    completed_count: usize,
    /// Tasks whose last predecessor completed, awaiting dispatch.
    ready_pending: Vec<TaskId>,
    /// Recycled buffer for draining `ready_pending` without
    /// re-allocating every dispatch.
    ready_scratch: Vec<TaskId>,
    /// Not-yet-completed task counts per capability (incrementally
    /// maintained DAG lookahead for pool release and the rebalancer).
    upcoming: [usize; N_CAPS],
    /// `(created, target)` per allocation, indexed by the dense
    /// [`AllocationId`]; entries stay after release (the settle paths
    /// check liveness against the cluster, as before).
    alloc_meta: Vec<Option<(SimTime, HardwareTarget)>>,
    /// `(task, ttft seconds, tpot seconds, absolute first-token
    /// instant seconds)` of finished endpoint tasks, drained by the
    /// fleet driver for per-class token-latency stats and capture.
    llm_metrics: Vec<(TaskId, f64, f64, f64)>,
    /// Tasks finished since the last [`Engine::clear_completions`],
    /// in completion order — the fleet driver maps these to jobs via a
    /// per-job remaining-task counter.
    completions_log: Vec<TaskId>,
    /// Events popped off the queue so far (the sim-speed denominator).
    events_processed: u64,
    trace: TraceLog,
    /// Latest task-completion instant — the makespan source when span
    /// recording is off.
    last_finish: SimTime,
    energy_ledger: f64,
    cost_ledger: f64,
    orchestrated: bool,
    orch_end: SimTime,
    pool_scale_ups: u64,
    pool_scale_downs: u64,
}

/// On-demand dollar rate of a hardware target under a given GPU SKU
/// (CPU cores billed at the EPYC catalog rate).
pub fn target_hourly_usd(target: &HardwareTarget, gpu: &murakkab_hardware::GpuSku) -> f64 {
    let core = catalog::epyc_7v12().hourly_usd_per_core;
    target.gpu_units() * gpu.hourly_usd + f64::from(target.cpu_cores_used()) * core
}

/// Prompt and output tokens of an endpoint task's work — checked to be
/// token work when the task was admitted.
fn token_work(work: Work) -> (u32, u32) {
    match work {
        Work::Tokens { prompt, output } => (prompt, output),
        other => unreachable!("endpoint task admitted with non-token work {other}"),
    }
}

/// Records `(created, target)` for `alloc` in the dense metadata arena.
fn alloc_meta_set(
    meta: &mut Vec<Option<(SimTime, HardwareTarget)>>,
    alloc: AllocationId,
    created: SimTime,
    target: HardwareTarget,
) {
    let i = alloc.raw() as usize;
    if meta.len() <= i {
        meta.resize(i + 1, None);
    }
    meta[i] = Some((created, target));
}

impl Engine {
    /// Builds an engine: allocates pools and endpoints on `cluster` at
    /// `start`, interning every route into dense indices.
    ///
    /// # Errors
    ///
    /// Fails when a route's agent is unknown, a backend mismatches its
    /// route kind, or the cluster cannot host even one worker / the
    /// endpoint group.
    pub fn new(
        mut cluster: ClusterManager,
        library: &AgentLibrary,
        graph: TaskGraph,
        routes: BTreeMap<Capability, RouteSpec>,
        options: EngineOptions,
        start: SimTime,
    ) -> Result<Self, SimError> {
        let mut pools: BTreeMap<String, Pool> = BTreeMap::new();
        let mut endpoints: BTreeMap<String, EndpointHandle> = BTreeMap::new();
        let mut external: BTreeMap<Capability, (f64, f64)> = BTreeMap::new();
        let mut alloc_meta = Vec::new();

        // Validate that every capability in the graph has a route.
        for node in graph.tasks() {
            if !routes.contains_key(&node.capability) {
                return Err(SimError::InvalidInput(format!(
                    "no route for capability {:?} (task {})",
                    node.capability, node.name
                )));
            }
        }

        // Endpoints first: model deployments are long-lived and sized
        // exactly; elastic tool pools then shrink into whatever remains
        // (partial pools are accepted).
        let ordered: Vec<(&Capability, &RouteSpec)> = routes
            .iter()
            .filter(|(_, r)| matches!(r, RouteSpec::Endpoint { .. }))
            .chain(
                routes
                    .iter()
                    .filter(|(_, r)| !matches!(r, RouteSpec::Endpoint { .. })),
            )
            .collect();
        for (&cap, route) in ordered {
            let spec = library.get(route.agent())?;
            match route {
                RouteSpec::Pool { agent, workers } => {
                    let Backend::Tool(_) = &spec.backend else {
                        return Err(SimError::InvalidInput(format!(
                            "{agent} is not a tool; cannot serve {cap:?} from a pool"
                        )));
                    };
                    if workers.is_empty() {
                        return Err(SimError::InvalidInput(format!(
                            "pool for {agent} has no workers"
                        )));
                    }
                    let pool = pools.entry(agent.clone()).or_insert_with(|| Pool {
                        agent: agent.clone(),
                        spec: spec.clone(),
                        caps: Vec::new(),
                        workers: Vec::new(),
                        spec_workers: workers.clone(),
                        queue: VecDeque::new(),
                        released: false,
                    });
                    pool.caps.push(cap);
                    if pool.workers.is_empty() {
                        for per_worker in workers {
                            match cluster.allocate(start, agent.clone(), *per_worker) {
                                Ok(alloc) => {
                                    alloc_meta_set(&mut alloc_meta, alloc, start, *per_worker);
                                    pool.workers.push(Worker {
                                        alloc,
                                        target: *per_worker,
                                        busy: false,
                                        dead: false,
                                    });
                                }
                                Err(e) => {
                                    if pool.workers.is_empty() {
                                        return Err(e);
                                    }
                                    break; // Partial pool: run with what fits.
                                }
                            }
                        }
                    }
                }
                RouteSpec::Endpoint { agent, backend } => {
                    let Backend::LlmServed { model, .. } = &spec.backend else {
                        return Err(SimError::InvalidInput(format!(
                            "{agent} is not LLM-served; cannot serve {cap:?} from an endpoint"
                        )));
                    };
                    if !endpoints.contains_key(agent) {
                        let (be, allocs) = Self::provision_backend(
                            &mut cluster,
                            agent,
                            model,
                            backend,
                            &options.gpu_sku,
                            start,
                            &mut alloc_meta,
                        )?;
                        endpoints.insert(
                            agent.clone(),
                            EndpointHandle {
                                agent: agent.clone(),
                                backend: be,
                                spec_backend: *backend,
                                allocs,
                                pending: Vec::new(),
                                free_slots: Vec::new(),
                                submit_seq: 0,
                                orchestration_req: None,
                                generation: 0,
                            },
                        );
                    }
                }
                RouteSpec::External { agent } => {
                    let Backend::External {
                        latency_s,
                        cost_per_call_usd,
                    } = &spec.backend
                    else {
                        return Err(SimError::InvalidInput(format!(
                            "{agent} is not external; bad route for {cap:?}"
                        )));
                    };
                    external.insert(cap, (*latency_s, *cost_per_call_usd));
                }
            }
        }

        // Freeze the sorted maps into index arenas and compile the
        // per-capability route table against them.
        let pools: Vec<Pool> = pools.into_values().collect();
        let endpoints: Vec<EndpointHandle> = endpoints.into_values().collect();
        let index_of = |list: &[String], name: &str| -> u32 {
            list.binary_search_by(|a| a.as_str().cmp(name))
                .expect("route agent was provisioned") as u32
        };
        let pool_names: Vec<String> = pools.iter().map(|p| p.agent.clone()).collect();
        let ep_names: Vec<String> = endpoints.iter().map(|h| h.agent.clone()).collect();
        let mut route_table: [Option<CompiledRoute>; N_CAPS] = [None; N_CAPS];
        for (cap, route) in &routes {
            route_table[*cap as usize] = Some(match route {
                RouteSpec::Pool { agent, .. } => CompiledRoute::Pool(index_of(&pool_names, agent)),
                RouteSpec::Endpoint { agent, .. } => {
                    CompiledRoute::Endpoint(index_of(&ep_names, agent))
                }
                RouteSpec::External { .. } => {
                    let (latency_s, cost_per_call_usd) = external[cap];
                    CompiledRoute::External {
                        latency_s,
                        cost_per_call_usd,
                    }
                }
            });
        }

        let compiled = CompiledGraph::from_graph(&graph)?;
        let names = if options.record_spans {
            graph.tasks().map(|n| n.name.clone()).collect()
        } else {
            Vec::new()
        };
        let mut engine = Engine {
            cluster,
            route_table,
            pools,
            endpoints,
            options,
            queue: EventQueue::new(),
            tasks: Vec::with_capacity(compiled.len()),
            succ: Vec::with_capacity(compiled.succ.len()),
            names,
            completed_count: 0,
            ready_pending: Vec::new(),
            ready_scratch: Vec::new(),
            upcoming: [0; N_CAPS],
            alloc_meta,
            llm_metrics: Vec::new(),
            completions_log: Vec::new(),
            events_processed: 0,
            trace: TraceLog::new(),
            last_finish: SimTime::ZERO,
            energy_ledger: 0.0,
            cost_ledger: 0.0,
            orchestrated: false,
            orch_end: start,
            pool_scale_ups: 0,
            pool_scale_downs: 0,
        };
        engine.check_admissible(&compiled)?;
        engine.append(&compiled)?;
        Ok(engine)
    }

    /// Runs the graph to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if the run deadlocks (graph
    /// incomplete with no pending events) — a routing/scheduling bug.
    pub fn run(mut self, start: SimTime) -> Result<EngineOutcome, SimError> {
        self.start(start)?;
        while self.step()?.is_some() {}
        self.finish(start)
    }

    /// Arms the engine at `start`: schedules injected preemptions, charges
    /// orchestration (DAG creation) before any task dispatches, and
    /// dispatches whatever is already ready. Drive the armed engine with
    /// [`Engine::step`] (or let [`Engine::run`] do it).
    ///
    /// # Errors
    ///
    /// Propagates endpoint/cluster errors.
    pub fn start(&mut self, start: SimTime) -> Result<(), SimError> {
        let now = start;
        self.orch_end = start;

        // Disjoint field borrows: options is read-only while the queue
        // fills — no clone of the preemption schedule.
        for &(at, node_idx) in &self.options.preemptions {
            self.queue
                .schedule(at.max(start), EngineEvent::Preempt { node_idx });
        }

        if let Some((cost, agent)) = &self.options.orchestration {
            let (prompt, output) = (cost.prompt_tokens, cost.output_tokens);
            let ei = self
                .endpoints
                .iter()
                .position(|h| h.agent == *agent)
                .ok_or_else(|| SimError::not_found("orchestrator endpoint", agent.clone()))?;
            let req = Request::new(u64::MAX, prompt.max(1), output.max(1));
            let armed = {
                let h = &mut self.endpoints[ei];
                h.orchestration_req = Some(req.id);
                h.backend.on_submit(req, now)?.map(|t| (t, h.generation))
            };
            if let Some((t, generation)) = armed {
                self.queue.schedule(
                    t,
                    EngineEvent::LlmStep {
                        endpoint: ei as u32,
                        generation,
                    },
                );
            }
            self.sync_endpoint_activity(now, ei)?;
        } else {
            self.orchestrated = true;
            self.dispatch(now)?;
        }
        Ok(())
    }

    /// Processes the next pending event and returns its instant, or `None`
    /// when the queue is empty. The open-loop fleet driver interleaves
    /// these steps with request admissions.
    ///
    /// # Errors
    ///
    /// Propagates endpoint/cluster errors.
    pub fn step(&mut self) -> Result<Option<SimTime>, SimError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(None);
        };
        self.process(ev).map(Some)
    }

    /// Applies one popped event.
    fn process(&mut self, ev: Event<EngineEvent>) -> Result<SimTime, SimError> {
        self.events_processed += 1;
        let now = ev.at;
        match ev.payload {
            EngineEvent::ToolDone {
                task,
                pool,
                worker,
                gpu_util,
            } => {
                let p = &mut self.pools[pool as usize];
                let w = &mut p.workers[worker as usize];
                w.busy = false;
                let (alloc, lost) = (w.alloc, w.dead);
                if lost {
                    // The worker died mid-task: the work is lost and
                    // the task goes back to the queue (activity was
                    // zeroed when the node went down).
                    p.queue.push_front(task);
                } else {
                    self.cluster.activity_end(now, alloc, gpu_util)?;
                    self.finish_task(task, now)?;
                }
                self.dispatch(now)?;
            }
            EngineEvent::LlmStep {
                endpoint,
                generation,
            } => {
                let ei = endpoint as usize;
                if self.endpoints[ei].generation != generation {
                    // Armed for an incarnation that died in a
                    // preemption; the replacement has its own
                    // step schedule.
                    return Ok(now);
                }
                let outcome = self.endpoints[ei].backend.on_step(now);
                for c in &outcome.completions {
                    let h = &mut self.endpoints[ei];
                    if h.orchestration_req == Some(c.id) {
                        h.orchestration_req = None;
                        self.trace
                            .record("Orchestrator", "dag-creation", c.submitted, c.finished);
                        self.orch_end = c.finished;
                        self.orchestrated = true;
                        continue;
                    }
                    let slot = c.id as usize;
                    let (task, _) = h.pending[slot]
                        .take()
                        .expect("completion matches a pending task");
                    h.free_slots.push(c.id as u32);
                    self.tasks[task.raw() as usize].started_at = Some(c.started);
                    self.llm_metrics.push((
                        task,
                        c.ttft().as_secs_f64(),
                        c.tpot().as_secs_f64(),
                        c.first_token.as_secs_f64(),
                    ));
                    self.finish_task(task, now)?;
                }
                if let Some(t) = outcome.next_step {
                    self.queue.schedule(
                        t,
                        EngineEvent::LlmStep {
                            endpoint,
                            generation,
                        },
                    );
                }
                self.sync_endpoint_activity(now, ei)?;
                self.dispatch(now)?;
            }
            EngineEvent::ExternalDone { task } => {
                self.finish_task(task, now)?;
                self.dispatch(now)?;
            }
            EngineEvent::Preempt { node_idx } => {
                self.handle_preemption(now, node_idx)?;
                self.dispatch(now)?;
            }
        }
        Ok(now)
    }

    /// Settles all ledgers after the queue has drained and hands back the
    /// outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if the run deadlocked (graph
    /// incomplete with no pending events) — a routing/scheduling bug.
    pub fn finish(mut self, start: SimTime) -> Result<EngineOutcome, SimError> {
        let orch_end = self.orch_end;
        if self.completed_count != self.tasks.len() {
            let stuck: Vec<String> = (0..self.tasks.len())
                .filter(|&i| !self.tasks[i].completed)
                .take(5)
                .map(|i| self.task_name(i))
                .collect();
            return Err(SimError::InvalidState(format!(
                "engine deadlock: {}/{} tasks done; stuck: {stuck:?}",
                self.completed_count,
                self.tasks.len()
            )));
        }

        // The makespan is the last task completion — not `now`, which a
        // trailing injected event (e.g. a post-completion preemption) may
        // have advanced past it. With span recording off the trace is
        // empty, so the incrementally tracked completion instant stands
        // in for it.
        let makespan = self.trace.makespan().max(self.last_finish).max(orch_end);
        // Release everything still held, settling energy and cost.
        for i in 0..self.alloc_meta.len() {
            if self.alloc_meta[i].is_none() {
                continue;
            }
            let alloc = AllocationId::from_raw(i as u64);
            if self.cluster.allocation(alloc).is_ok() {
                self.settle_allocation(alloc, makespan)?;
            }
        }

        Ok(EngineOutcome {
            cluster: self.cluster,
            trace: self.trace,
            started: orch_end,
            makespan,
            orchestration: orch_end.saturating_duration_since(start),
            energy_allocated_wh: self.energy_ledger,
            cost_usd: self.cost_ledger,
            tasks_completed: self.completed_count,
            pool_scale_ups: self.pool_scale_ups,
            pool_scale_downs: self.pool_scale_downs,
        })
    }

    /// The due time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Processes pending events up to `bound` (`<= bound` when
    /// `inclusive`, `< bound` otherwise) in one batched drain, stopping
    /// early after any event that completes at least one task so the
    /// caller can re-inject queued work at that instant. Returns the
    /// stop instant, or `None` once no pending event falls within the
    /// bound.
    ///
    /// # Errors
    ///
    /// Propagates endpoint/cluster errors.
    pub fn step_while(
        &mut self,
        bound: SimTime,
        inclusive: bool,
    ) -> Result<Option<SimTime>, SimError> {
        // `pop_before` fuses the bound check into the pop — one bucket
        // settle per event instead of a peek scan followed by a pop.
        loop {
            let Some(ev) = self.queue.pop_before(bound, inclusive) else {
                return Ok(None);
            };
            let before = self.completions_log.len();
            let now = self.process(ev)?;
            if self.completions_log.len() > before {
                return Ok(Some(now));
            }
        }
    }

    /// Tasks finished since the last [`Engine::clear_completions`], in
    /// completion order. Paired with `clear_completions` instead of a
    /// draining take so the log's buffer is reused across epochs — the
    /// fleet's harvest path stays allocation-free in steady state.
    pub fn completions(&self) -> &[TaskId] {
        &self.completions_log
    }

    /// Resets the completion log, keeping its capacity.
    pub fn clear_completions(&mut self) {
        self.completions_log.clear();
    }

    /// Events popped off this engine's queue so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total tasks in the (possibly growing) task arena.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Not-yet-completed task counts per capability (the DAG lookahead the
    /// rebalancer consumes; maintained incrementally, materialized to a
    /// map only at this advisory-cadence call).
    pub fn upcoming_by_capability(&self) -> BTreeMap<Capability, usize> {
        Capability::ALL
            .iter()
            .filter(|&&c| self.upcoming[c as usize] > 0)
            .map(|&c| (c, self.upcoming[c as usize]))
            .collect()
    }

    /// Live cluster stats at `now`.
    pub fn cluster_stats(&self, now: SimTime) -> murakkab_cluster::ResourceStats {
        self.cluster.stats(now)
    }

    /// Per-endpoint `(agent, gpus, queued + running requests)` snapshots.
    pub fn endpoint_loads(&self) -> Vec<(String, u32, usize)> {
        self.endpoints
            .iter()
            .map(|h| (h.agent.clone(), h.backend.gpu_count(), h.backend.load()))
            .collect()
    }

    /// The hottest admission-gating KV pool across this engine's
    /// endpoints, as an occupancy fraction — the fleet router's KV-aware
    /// tiebreak signal.
    pub fn max_kv_occupancy(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|h| h.backend.kv_occupancy())
            .fold(0.0, f64::max)
    }

    /// The accumulated `(task, ttft seconds, tpot seconds, absolute
    /// first-token instant seconds)` token-latency samples of finished
    /// endpoint tasks since the last [`Engine::clear_llm_metrics`].
    pub fn llm_metrics(&self) -> &[(TaskId, f64, f64, f64)] {
        &self.llm_metrics
    }

    /// Resets the token-latency sample log, keeping its capacity.
    pub fn clear_llm_metrics(&mut self) {
        self.llm_metrics.clear();
    }

    /// Aggregate per-phase serving effort across all endpoints:
    /// `(prefill busy GPU-seconds, prefill GPUs, decode busy
    /// GPU-seconds, decode GPUs)`. Colocated replicas count their group
    /// under both phases, split by where iteration time actually went.
    pub fn endpoint_phase_stats(&self) -> (f64, f64, f64, f64) {
        let mut out = (0.0, 0.0, 0.0, 0.0);
        for h in &self.endpoints {
            let (pb, db) = h.backend.phase_busy();
            let (pg, dg) = h.backend.phase_gpus();
            out.0 += pb.as_secs_f64() * f64::from(pg);
            out.1 += f64::from(pg);
            out.2 += db.as_secs_f64() * f64::from(dg);
            out.3 += f64::from(dg);
        }
        out
    }

    /// Per-pool `(agent, capability, GPU units held, queued + running
    /// tasks)` snapshots of live (non-released) pools, one entry per
    /// capability the pool serves — so advisory policies see tool agents
    /// as resident, not just LLM endpoints.
    pub fn pool_views(&self) -> Vec<(String, Capability, f64, usize)> {
        let mut out = Vec::new();
        for pool in &self.pools {
            if pool.released {
                continue;
            }
            let gpus: f64 = pool
                .workers
                .iter()
                .filter(|w| !w.dead)
                .map(|w| w.target.gpu_units())
                .sum();
            let load = pool.queue.len() + pool.workers.iter().filter(|w| w.busy && !w.dead).count();
            for &cap in &pool.caps {
                out.push((pool.agent.clone(), cap, gpus, load));
            }
        }
        out
    }

    /// Admits a compiled workflow mid-run (open-loop serving): appends
    /// it onto the task arena, re-provisions any tool pools that were
    /// released while idle and are needed again, and dispatches newly
    /// ready tasks at `now`. The admitted tasks take consecutive
    /// engine-local ids in `sub`'s task order, starting at the returned
    /// id.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if a capability in `sub` has no
    /// route or an endpoint-routed task carries non-token work (nothing
    /// is admitted then), [`SimError::ResourceExhausted`] if a required
    /// released pool cannot get any worker back, and
    /// [`SimError::InvalidState`] if the arena outgrows `u32` indexing.
    pub fn admit_graph_into(
        &mut self,
        now: SimTime,
        sub: &CompiledGraph,
    ) -> Result<TaskId, SimError> {
        let caps_needed = self.check_admissible(sub)?;

        // Autoscale-up: bring back released pools the new job needs.
        for pi in 0..self.pools.len() {
            let needed = {
                let pool = &self.pools[pi];
                pool.released && pool.caps.iter().any(|&c| caps_needed[c as usize])
            };
            if !needed {
                continue;
            }
            let mut fresh = Vec::new();
            for wi in 0..self.pools[pi].spec_workers.len() {
                let target = self.pools[pi].spec_workers[wi];
                match self
                    .cluster
                    .allocate(now, self.pools[pi].agent.clone(), target)
                {
                    Ok(alloc) => {
                        alloc_meta_set(&mut self.alloc_meta, alloc, now, target);
                        fresh.push(Worker {
                            alloc,
                            target,
                            busy: false,
                            dead: false,
                        });
                    }
                    Err(e) => {
                        if fresh.is_empty() {
                            return Err(e);
                        }
                        break; // Partial pool: serve with what fits.
                    }
                }
            }
            // Reuse idle dead slots (an idle dead worker can have no
            // in-flight ToolDone carrying its index) so the worker list
            // does not grow with every scale cycle of a long-running
            // serve engine.
            let pool = &mut self.pools[pi];
            let mut fresh = fresh.into_iter();
            for w in pool.workers.iter_mut() {
                if w.dead && !w.busy {
                    match fresh.next() {
                        Some(nw) => *w = nw,
                        None => break,
                    }
                }
            }
            pool.workers.extend(fresh);
            pool.released = false;
            self.pool_scale_ups += 1;
        }

        let first = self.append(sub)?;
        self.dispatch(now)?;
        Ok(first)
    }

    /// Checks that every task of `sub` has a route and that every
    /// endpoint-routed task carries token work; returns which
    /// capabilities `sub` needs.
    fn check_admissible(&self, sub: &CompiledGraph) -> Result<[bool; N_CAPS], SimError> {
        let mut needed = [false; N_CAPS];
        for (i, t) in sub.tasks.iter().enumerate() {
            match self.route_table[t.capability as usize] {
                None => {
                    return Err(SimError::InvalidInput(format!(
                        "no route for capability {:?} (task {i} of the graph)",
                        t.capability
                    )))
                }
                Some(CompiledRoute::Endpoint(_)) if !matches!(t.work, Work::Tokens { .. }) => {
                    return Err(SimError::InvalidInput(format!(
                        "endpoint task {i} of the graph ({:?}) carries non-token work {}",
                        t.capability, t.work
                    )))
                }
                Some(_) => {}
            }
            needed[t.capability as usize] = true;
        }
        Ok(needed)
    }

    /// Appends `sub` onto the task arena and the flat successor list,
    /// queueing its source tasks as ready. Returns the engine-local id
    /// of its first task.
    fn append(&mut self, sub: &CompiledGraph) -> Result<TaskId, SimError> {
        index_u32(self.tasks.len() + sub.tasks.len(), "engine task count")?;
        index_u32(self.succ.len() + sub.succ.len(), "engine edge count")?;
        // Both totals fit, so every index and offset below does too.
        let (base, succ_base) = (self.tasks.len() as u32, self.succ.len() as u32);
        self.succ.extend(sub.succ.iter().map(|&s| base + s));
        for (i, t) in sub.tasks.iter().enumerate() {
            self.tasks.push(TaskState {
                capability: t.capability,
                work: t.work,
                indegree: t.indegree,
                succ: (succ_base + t.succ.0, succ_base + t.succ.1),
                scheduled: false,
                completed: false,
                started_at: None,
            });
            if t.indegree == 0 {
                self.ready_pending
                    .push(TaskId::from_raw(u64::from(base) + i as u64));
            }
            self.upcoming[t.capability as usize] += 1;
        }
        Ok(TaskId::from_raw(u64::from(base)))
    }

    /// A task's name for spans and diagnostics: its graph name when
    /// names are kept, its engine-local id otherwise.
    fn task_name(&self, i: usize) -> String {
        self.names
            .get(i)
            .cloned()
            .unwrap_or_else(|| TaskId::from_raw(i as u64).to_string())
    }

    /// Marks a task complete, records its span and advances the
    /// incremental ready/lookahead state.
    fn finish_task(&mut self, task: TaskId, now: SimTime) -> Result<(), SimError> {
        let ti = task.raw() as usize;
        let capability = self.tasks[ti].capability;
        if self.options.record_spans {
            let started = self.tasks[ti].started_at.unwrap_or(now);
            let name = self.task_name(ti);
            self.trace
                .record(capability.lane_name(), name, started, now);
        }
        if self.tasks[ti].completed {
            return Ok(());
        }
        self.tasks[ti].completed = true;
        self.completed_count += 1;
        if now > self.last_finish {
            self.last_finish = now;
        }
        self.completions_log.push(task);
        let ci = capability as usize;
        self.upcoming[ci] = self.upcoming[ci].saturating_sub(1);
        // Split borrow: walk the flat successor list while mutating the
        // task arena — no per-finish successor Vec.
        let (start, end) = self.tasks[ti].succ;
        let Engine {
            succ,
            tasks,
            ready_pending,
            ..
        } = self;
        for &s in &succ[start as usize..end as usize] {
            let st = &mut tasks[s as usize];
            st.indegree -= 1;
            if st.indegree == 0 {
                ready_pending.push(TaskId::from_raw(u64::from(s)));
            }
        }
        Ok(())
    }

    /// Pushes ready tasks to their routes and pumps pools.
    fn dispatch(&mut self, now: SimTime) -> Result<(), SimError> {
        if !self.orchestrated {
            return Ok(());
        }
        if !self.ready_pending.is_empty() {
            // Ping-pong the two buffers so steady-state dispatch never
            // allocates; ascending id order matches the old
            // `BTreeSet<TaskId>` iteration order.
            let mut ready = std::mem::take(&mut self.ready_scratch);
            std::mem::swap(&mut ready, &mut self.ready_pending);
            ready.sort_unstable();
            for &tid in &ready {
                let ti = tid.raw() as usize;
                if self.tasks[ti].scheduled {
                    continue;
                }
                self.tasks[ti].scheduled = true;
                let route = self.route_table[self.tasks[ti].capability as usize]
                    .expect("routes validated at admission");
                match route {
                    CompiledRoute::Pool(pi) => {
                        self.pools[pi as usize].queue.push_back(tid);
                    }
                    CompiledRoute::Endpoint(ei) => {
                        let (prompt, output) = token_work(self.tasks[ti].work);
                        let h = &mut self.endpoints[ei as usize];
                        let req = Request::new(h.claim_slot(tid), prompt, output.max(1));
                        let generation = h.generation;
                        if let Some(t) = h.backend.on_submit(req, now)? {
                            self.queue.schedule(
                                t,
                                EngineEvent::LlmStep {
                                    endpoint: ei,
                                    generation,
                                },
                            );
                        }
                        self.sync_endpoint_activity(now, ei as usize)?;
                    }
                    CompiledRoute::External {
                        latency_s,
                        cost_per_call_usd,
                    } => {
                        self.cost_ledger += cost_per_call_usd;
                        self.tasks[ti].started_at = Some(now);
                        self.queue.schedule(
                            now + SimDuration::from_secs_f64(latency_s),
                            EngineEvent::ExternalDone { task: tid },
                        );
                    }
                }
            }
            ready.clear();
            self.ready_scratch = ready;
        }
        self.pump_pools(now)?;
        if self.options.workflow_aware {
            self.release_idle_pools(now)?;
        }
        Ok(())
    }

    /// Starts queued tasks on free workers.
    fn pump_pools(&mut self, now: SimTime) -> Result<(), SimError> {
        for pi in 0..self.pools.len() {
            loop {
                let (tid, wi, alloc, target) = {
                    let pool = &mut self.pools[pi];
                    if pool.released || pool.queue.is_empty() {
                        break;
                    }
                    let Some(wi) = pool.workers.iter().position(|w| !w.busy && !w.dead) else {
                        break;
                    };
                    let tid = pool.queue.pop_front().expect("checked non-empty");
                    pool.workers[wi].busy = true;
                    (tid, wi, pool.workers[wi].alloc, pool.workers[wi].target)
                };
                let (duration, gpu_util) = {
                    // The cost model lives on the pool's spec snapshot —
                    // no library lookup or spec clone per task start.
                    let work = self.tasks[tid.raw() as usize].work;
                    let spec = &self.pools[pi].spec;
                    let mut d = spec.estimate_latency(&work, &target)?;
                    // Newer GPU generations speed up pure-GPU tool work.
                    if matches!(target, HardwareTarget::Gpu { .. })
                        && self.options.gpu_speed_factor > 1.0
                    {
                        d = d.mul_f64(1.0 / self.options.gpu_speed_factor);
                    }
                    (d, spec.gpu_util())
                };
                self.cluster.activity_start(now, alloc, gpu_util)?;
                self.tasks[tid.raw() as usize].started_at = Some(now);
                self.queue.schedule(
                    now + duration,
                    EngineEvent::ToolDone {
                        task: tid,
                        pool: pi as u32,
                        worker: wi as u32,
                        gpu_util,
                    },
                );
            }
        }
        Ok(())
    }

    /// Releases pools whose capabilities have no remaining work.
    fn release_idle_pools(&mut self, now: SimTime) -> Result<(), SimError> {
        for pi in 0..self.pools.len() {
            let done = {
                let pool = &self.pools[pi];
                let no_demand = pool.caps.iter().all(|&c| self.upcoming[c as usize] == 0);
                let idle = pool.queue.is_empty() && pool.workers.iter().all(|w| !w.busy || w.dead);
                !pool.released && no_demand && idle
            };
            if done {
                let workers: Vec<AllocationId> = self.pools[pi]
                    .workers
                    .iter()
                    .filter(|w| !w.dead)
                    .map(|w| w.alloc)
                    .collect();
                for alloc in workers {
                    self.settle_allocation(alloc, now)?;
                }
                let pool = &mut self.pools[pi];
                pool.released = true;
                // The settled workers' allocations are gone; mark them dead
                // so a later re-provision (open-loop admission) never pumps
                // work onto a stale allocation.
                for w in pool.workers.iter_mut() {
                    w.dead = true;
                }
                self.pool_scale_downs += 1;
            }
        }
        Ok(())
    }

    /// Applies a spot preemption: settles the dying allocations' ledgers,
    /// takes the node down, marks affected pool workers dead (their
    /// in-flight tasks will requeue when their events fire), re-places
    /// affected endpoints on surviving nodes and resubmits their pending
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResourceExhausted`] if a killed endpoint cannot
    /// be re-placed (the workflow cannot continue without its LLM), and
    /// propagates cluster errors.
    fn handle_preemption(&mut self, now: SimTime, node_idx: usize) -> Result<(), SimError> {
        let node_id = self
            .cluster
            .nodes()
            .get(node_idx)
            .ok_or_else(|| SimError::not_found("node", node_idx.to_string()))?
            .id;

        // Settle energy/cost for every live allocation on the node up to
        // the preemption instant (the platform still bills for spot time
        // used).
        let dying: Vec<AllocationId> = self
            .cluster
            .allocations()
            .filter(|a| a.node == node_id)
            .map(|a| a.id)
            .collect();
        for &alloc in &dying {
            let (created, target) =
                self.alloc_meta[alloc.raw() as usize].expect("live allocation has metadata");
            self.energy_ledger += self.cluster.allocation_energy_wh(alloc, created, now)?;
            self.cost_ledger += target_hourly_usd(&target, &self.options.gpu_sku)
                * now.saturating_duration_since(created).as_hours_f64();
        }

        let killed: BTreeSet<AllocationId> = self
            .cluster
            .preempt_node(now, node_id)?
            .into_iter()
            .collect();

        // Pool workers on the dead node: mark dead and try to replace on
        // surviving capacity; queued work continues on what remains.
        for pi in 0..self.pools.len() {
            let mut replacements = Vec::new();
            for w in self.pools[pi].workers.iter_mut() {
                if !w.dead && killed.contains(&w.alloc) {
                    w.dead = true;
                    replacements.push(w.target);
                }
            }
            for target in replacements {
                if let Ok(alloc) = self
                    .cluster
                    .allocate(now, self.pools[pi].agent.clone(), target)
                {
                    alloc_meta_set(&mut self.alloc_meta, alloc, now, target);
                    self.pools[pi].workers.push(Worker {
                        alloc,
                        target,
                        busy: false,
                        dead: false,
                    });
                }
            }
        }

        // Endpoints touching the dead node: re-place the whole deployment
        // (both halves of a disaggregated pair — the KV cache died with
        // the GPUs) and resubmit everything that was in flight.
        for ei in 0..self.endpoints.len() {
            let dead = self.endpoints[ei].allocs.iter().any(|a| killed.contains(a));
            if !dead {
                continue;
            }
            let model = self.endpoints[ei].backend.model().clone();
            let spec = self.endpoints[ei].spec_backend;
            // A pair may lose only one half: give the surviving half
            // back (activity zeroed, then settled) before re-placing the
            // deployment whole — release() never clears activity, so a
            // mid-batch level would otherwise stick to the freed devices.
            for ai in 0..self.endpoints[ei].allocs.len() {
                let alloc = self.endpoints[ei].allocs[ai];
                if !killed.contains(&alloc) && self.cluster.allocation(alloc).is_ok() {
                    self.cluster.set_gpu_activity_level(now, alloc, 0.0)?;
                    self.settle_allocation(alloc, now)?;
                }
            }
            let (backend, allocs) = Self::provision_backend(
                &mut self.cluster,
                &self.endpoints[ei].agent,
                &model,
                &spec,
                &self.options.gpu_sku,
                now,
                &mut self.alloc_meta,
            )?;
            let h = &mut self.endpoints[ei];
            let old_pending = std::mem::take(&mut h.pending);
            let had_orchestration = h.orchestration_req.take().is_some();
            h.backend = backend;
            h.allocs = allocs;
            h.free_slots.clear();
            h.submit_seq = 0;
            h.generation += 1;
            // Resubmit lost work in original submission order (the old
            // monotonic-id iteration order): pending tasks map to fresh
            // request slots.
            let mut lost: Vec<(TaskId, u64)> = old_pending.into_iter().flatten().collect();
            lost.sort_unstable_by_key(|&(_, seq)| seq);
            for (task, _) in lost {
                let (prompt, output) = token_work(self.tasks[task.raw() as usize].work);
                let h = &mut self.endpoints[ei];
                let req = Request::new(h.claim_slot(task), prompt, output.max(1));
                let generation = h.generation;
                if let Some(t) = h.backend.on_submit(req, now)? {
                    self.queue.schedule(
                        t,
                        EngineEvent::LlmStep {
                            endpoint: ei as u32,
                            generation,
                        },
                    );
                }
            }
            if had_orchestration {
                let (cost, _) = self
                    .options
                    .orchestration
                    .as_ref()
                    .expect("orchestration was configured");
                let req = Request::new(
                    u64::MAX,
                    cost.prompt_tokens.max(1),
                    cost.output_tokens.max(1),
                );
                let h = &mut self.endpoints[ei];
                h.orchestration_req = Some(req.id);
                let generation = h.generation;
                if let Some(t) = h.backend.on_submit(req, now)? {
                    self.queue.schedule(
                        t,
                        EngineEvent::LlmStep {
                            endpoint: ei as u32,
                            generation,
                        },
                    );
                }
            }
            self.sync_endpoint_activity(now, ei)?;
        }
        Ok(())
    }

    /// Settles an allocation's energy/cost ledgers and releases it.
    fn settle_allocation(&mut self, alloc: AllocationId, now: SimTime) -> Result<(), SimError> {
        let (created, target) =
            self.alloc_meta[alloc.raw() as usize].expect("allocation has metadata");
        self.energy_ledger += self.cluster.allocation_energy_wh(alloc, created, now)?;
        self.cost_ledger += target_hourly_usd(&target, &self.options.gpu_sku)
            * now.saturating_duration_since(created).as_hours_f64();
        self.cluster.release(now, alloc)?;
        Ok(())
    }

    /// Mirrors an endpoint's utilization level onto its GPU devices —
    /// per phase for a disaggregated pair, combined for a colocated
    /// replica.
    fn sync_endpoint_activity(&mut self, now: SimTime, ei: usize) -> Result<(), SimError> {
        // Disjoint field borrows: the handle is read while the cluster
        // mutates — no clone of the allocation list.
        let h = &self.endpoints[ei];
        match *h.allocs.as_slice() {
            [one] => {
                let combined = h.backend.util_level();
                self.cluster.set_gpu_activity_level(now, one, combined)
            }
            [prefill, decode] => {
                let (prefill_level, decode_level) = h.backend.phase_levels();
                self.cluster
                    .set_gpu_activity_level(now, prefill, prefill_level)?;
                self.cluster
                    .set_gpu_activity_level(now, decode, decode_level)
            }
            ref other => {
                debug_assert!(other.is_empty(), "endpoints hold one or two allocations");
                Ok(())
            }
        }
    }

    /// Allocates and builds one serving deployment: a single TP group for
    /// a colocated replica, or a paired prefill/decode placement (one
    /// node when it fits, cross-node with degraded transfer bandwidth
    /// otherwise) for a disaggregated one.
    fn provision_backend(
        cluster: &mut ClusterManager,
        agent: &str,
        model: &ModelSpec,
        spec: &BackendSpec,
        sku: &GpuSku,
        now: SimTime,
        alloc_meta: &mut Vec<Option<(SimTime, HardwareTarget)>>,
    ) -> Result<(Box<dyn ServingBackend>, Vec<AllocationId>), SimError> {
        match *spec {
            BackendSpec::Colocated { gpus, .. } => {
                let target = HardwareTarget::gpus(gpus);
                let alloc = cluster.allocate(now, agent.to_string(), target)?;
                alloc_meta_set(alloc_meta, alloc, now, target);
                let be = build_backend(
                    agent,
                    model.clone(),
                    sku.clone(),
                    spec,
                    sku.interconnect_gbps,
                )?;
                Ok((be, vec![alloc]))
            }
            BackendSpec::Disaggregated {
                prefill_gpus,
                decode_gpus,
                ..
            } => {
                let prefill = HardwareTarget::gpus(prefill_gpus);
                let decode = HardwareTarget::gpus(decode_gpus);
                let pair = cluster.allocate_paired(now, agent.to_string(), prefill, decode)?;
                alloc_meta_set(alloc_meta, pair.prefill, now, prefill);
                alloc_meta_set(alloc_meta, pair.decode, now, decode);
                let bw = if pair.same_node {
                    sku.interconnect_gbps
                } else {
                    sku.interconnect_gbps * CROSS_NODE_INTERCONNECT_FACTOR
                };
                let be = build_backend(agent, model.clone(), sku.clone(), spec, bw)?;
                Ok((be, vec![pair.prefill, pair.decode]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murakkab_agents::library::stock_library;
    use murakkab_cluster::PlacementPolicy;

    fn tiny_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            "stt/x/s0",
            "stt",
            Capability::SpeechToText,
            Work::AudioSeconds(30.0),
        );
        let b = g.add_task(
            "sum/x/s0",
            "sum",
            Capability::Summarization,
            Work::Tokens {
                prompt: 600,
                output: 40,
            },
        );
        g.add_edge(a, b).expect("acyclic");
        g
    }

    fn routes() -> BTreeMap<Capability, RouteSpec> {
        BTreeMap::from([
            (
                Capability::SpeechToText,
                RouteSpec::Pool {
                    agent: "Whisper".into(),
                    workers: vec![HardwareTarget::ONE_GPU],
                },
            ),
            (
                Capability::Summarization,
                RouteSpec::Endpoint {
                    agent: "NVLM".into(),
                    backend: BackendSpec::Colocated {
                        gpus: 8,
                        max_batch: 3,
                    },
                },
            ),
        ])
    }

    #[test]
    fn minimal_graph_runs_to_completion() {
        let engine = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            tiny_graph(),
            routes(),
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect("engine builds");
        let outcome = engine.run(SimTime::ZERO).expect("runs");
        assert_eq!(outcome.tasks_completed, 2);
        // STT ~3.8s then a summarisation call: well under a minute.
        assert!(outcome.makespan.as_secs_f64() < 60.0);
        assert!(outcome.energy_allocated_wh > 0.0);
        assert!(outcome.cost_usd > 0.0);
        assert_eq!(outcome.trace.lane_spans("Speech-to-Text").len(), 1);
        assert_eq!(outcome.trace.lane_spans("LLM (Text)").len(), 1);
    }

    #[test]
    fn missing_route_is_rejected_at_construction() {
        let mut partial = routes();
        partial.remove(&Capability::Summarization);
        let err = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            tiny_graph(),
            partial,
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect_err("graph has an unroutable capability");
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn backend_route_mismatch_is_rejected() {
        let mut bad = routes();
        // NVLM is LLM-served; a pool route is a category error.
        bad.insert(
            Capability::Summarization,
            RouteSpec::Pool {
                agent: "NVLM".into(),
                workers: vec![HardwareTarget::gpus(8)],
            },
        );
        let err = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            tiny_graph(),
            bad,
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect_err("category error");
        assert!(err.to_string().contains("not a tool"));
    }

    #[test]
    fn empty_pool_is_rejected() {
        let mut bad = routes();
        bad.insert(
            Capability::SpeechToText,
            RouteSpec::Pool {
                agent: "Whisper".into(),
                workers: vec![],
            },
        );
        assert!(Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            tiny_graph(),
            bad,
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .is_err());
    }

    #[test]
    fn partial_pools_degrade_gracefully() {
        // Ask for 32 GPU workers on a 16-GPU cluster alongside an 8-GPU
        // endpoint: the pool accepts what fits and the run completes.
        let mut r = routes();
        r.insert(
            Capability::SpeechToText,
            RouteSpec::Pool {
                agent: "Whisper".into(),
                workers: vec![HardwareTarget::ONE_GPU; 32],
            },
        );
        let engine = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            tiny_graph(),
            r,
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect("partial pool accepted");
        assert_eq!(engine.run(SimTime::ZERO).expect("runs").tasks_completed, 2);
    }

    #[test]
    fn hourly_rates_scale_with_target_and_sku() {
        let a100 = catalog::a100_80g();
        let h100 = catalog::h100_80g();
        let gpu8 = HardwareTarget::gpus(8);
        let cores64 = HardwareTarget::cpu_cores(64);
        assert!((target_hourly_usd(&gpu8, &a100) - 8.0 * a100.hourly_usd).abs() < 1e-9);
        assert!(target_hourly_usd(&gpu8, &h100) > target_hourly_usd(&gpu8, &a100));
        assert!(
            (target_hourly_usd(&cores64, &a100) - 64.0 * catalog::epyc_7v12().hourly_usd_per_core)
                .abs()
                < 1e-9
        );
        let hybrid = HardwareTarget::Hybrid {
            gpus: 1,
            gpu_share: 0.5,
            cores: 8,
        };
        let expect = 0.5 * a100.hourly_usd + 8.0 * catalog::epyc_7v12().hourly_usd_per_core;
        assert!((target_hourly_usd(&hybrid, &a100) - expect).abs() < 1e-9);
    }

    #[test]
    fn for_gpu_speed_factor_is_sublinear_in_flops() {
        let h100 = EngineOptions::for_gpu(catalog::h100_80g());
        let ratio = catalog::h100_80g().fp16_tflops / catalog::a100_80g().fp16_tflops;
        assert!((h100.gpu_speed_factor - ratio.sqrt()).abs() < 1e-9);
        let a100 = EngineOptions::for_gpu(catalog::a100_80g());
        assert!((a100.gpu_speed_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn workflow_blind_holds_pools_to_the_end() {
        let run = |aware: bool| {
            let opts = EngineOptions {
                workflow_aware: aware,
                ..EngineOptions::default()
            };
            let engine = Engine::new(
                ClusterManager::paper_testbed(),
                &stock_library(),
                tiny_graph(),
                routes(),
                opts,
                SimTime::ZERO,
            )
            .expect("builds");
            engine.run(SimTime::ZERO).expect("runs")
        };
        let aware = run(true);
        let blind = run(false);
        assert_eq!(aware.tasks_completed, blind.tasks_completed);
        // Releasing the whisper GPU after STT saves allocated energy.
        assert!(aware.energy_allocated_wh < blind.energy_allocated_wh);
    }

    #[test]
    fn deadlock_reports_stuck_tasks() {
        // The only STT worker's node dies mid-task and the surviving node
        // is full with the endpoint: the requeued task can never run.
        let opts = EngineOptions {
            preemptions: vec![(SimTime::from_secs_f64(1.0), 1)],
            ..EngineOptions::default()
        };
        let engine = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            tiny_graph(),
            routes(),
            opts,
            SimTime::ZERO,
        )
        .expect("builds");
        let err = engine.run(SimTime::ZERO).expect_err("no STT capacity left");
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(
            msg.contains("stt/x/s0") && msg.contains("sum/x/s0"),
            "{msg}"
        );
    }

    /// An engine serving nothing yet, like a fleet cell's.
    fn serve_engine(record_spans: bool) -> Engine {
        let opts = EngineOptions {
            record_spans,
            ..EngineOptions::default()
        };
        let mut engine = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            TaskGraph::new(),
            routes(),
            opts,
            SimTime::ZERO,
        )
        .expect("builds");
        engine.start(SimTime::ZERO).expect("starts");
        engine
    }

    #[test]
    fn non_token_endpoint_work_is_rejected_at_admission() {
        let mut g = TaskGraph::new();
        g.add_task("bad", "bad", Capability::Summarization, Work::Items(3));
        let err = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            g.clone(),
            routes(),
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect_err("cannot run items on an LLM");
        assert!(matches!(err, SimError::InvalidInput(_)), "{err}");
        assert!(err.to_string().contains("non-token work"), "{err}");

        let mut engine = serve_engine(false);
        let compiled = CompiledGraph::from_graph(&g).expect("compiles");
        let err = engine
            .admit_graph_into(SimTime::ZERO, &compiled)
            .expect_err("rejected before dispatch");
        assert!(matches!(err, SimError::InvalidInput(_)), "{err}");
        assert_eq!(engine.task_count(), 0, "nothing was admitted");
    }

    /// Three STT chunks each feeding a summary, all feeding one final
    /// summary.
    fn fan_in_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let fin = g.add_task(
            "final",
            "final",
            Capability::Summarization,
            Work::Tokens {
                prompt: 900,
                output: 60,
            },
        );
        for i in 0..3 {
            let stt = g.add_task(
                format!("stt/{i}"),
                "stt",
                Capability::SpeechToText,
                Work::AudioSeconds(20.0 + 10.0 * f64::from(i)),
            );
            let sum = g.add_task(
                format!("sum/{i}"),
                "sum",
                Capability::Summarization,
                Work::Tokens {
                    prompt: 400,
                    output: 30,
                },
            );
            g.add_edge(stt, sum).expect("acyclic");
            g.add_edge(sum, fin).expect("acyclic");
        }
        g
    }

    #[test]
    fn admission_at_zero_matches_construction() {
        let drain = |engine: &mut Engine| {
            while engine.step().expect("steps").is_some() {}
            engine.completions().to_vec()
        };
        let mut built = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            fan_in_graph(),
            routes(),
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect("builds");
        built.start(SimTime::ZERO).expect("starts");
        let built_order = drain(&mut built);

        let mut admitted = serve_engine(true);
        let compiled = CompiledGraph::from_graph(&fan_in_graph()).expect("compiles");
        let first = admitted
            .admit_graph_into(SimTime::ZERO, &compiled)
            .expect("admits");
        assert_eq!(first, TaskId::from_raw(0));
        let admitted_order = drain(&mut admitted);

        assert_eq!(built_order.len(), 7);
        assert_eq!(built_order, admitted_order);
        let (a, b) = (
            built.finish(SimTime::ZERO).expect("settles"),
            admitted.finish(SimTime::ZERO).expect("settles"),
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tasks_completed, b.tasks_completed);
    }

    #[test]
    fn closed_loop_trace_carries_task_names() {
        let engine = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            fan_in_graph(),
            routes(),
            EngineOptions::default(),
            SimTime::ZERO,
        )
        .expect("builds");
        let trace = engine.run(SimTime::ZERO).expect("runs").trace;
        let chrome = trace.to_chrome_trace();
        for name in ["stt/0", "stt/2", "sum/1", "final"] {
            assert!(chrome.contains(&format!("\"{name}\"")), "{name} missing");
        }
    }

    #[test]
    fn u32_index_overflow_is_a_typed_error() {
        assert_eq!(index_u32(7, "tasks").expect("fits"), 7);
        let err = index_u32(u32::MAX as usize + 1, "engine task count").expect_err("too big");
        assert!(matches!(err, SimError::InvalidState(_)), "{err}");
        assert!(err.to_string().contains("engine task count"), "{err}");
    }

    #[test]
    fn routes_report_their_agents() {
        for (_, r) in routes() {
            assert!(!r.agent().is_empty());
        }
        assert_eq!(
            RouteSpec::External {
                agent: "GPT-4o".into()
            }
            .agent(),
            "GPT-4o"
        );
    }

    #[test]
    fn spans_can_be_disabled_without_changing_the_ledgers() {
        let run = |record_spans: bool| {
            let opts = EngineOptions {
                record_spans,
                ..EngineOptions::default()
            };
            let engine = Engine::new(
                ClusterManager::paper_testbed(),
                &stock_library(),
                tiny_graph(),
                routes(),
                opts,
                SimTime::ZERO,
            )
            .expect("builds");
            engine.run(SimTime::ZERO).expect("runs")
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.makespan, without.makespan);
        assert_eq!(with.tasks_completed, without.tasks_completed);
        assert!((with.energy_allocated_wh - without.energy_allocated_wh).abs() < 1e-12);
        assert!((with.cost_usd - without.cost_usd).abs() < 1e-12);
        assert!(without.trace.makespan() == SimTime::ZERO);
    }

    #[test]
    fn cluster_shortage_at_construction_is_checked() {
        let mut small = ClusterManager::new(PlacementPolicy::BestFit);
        small.add_node(catalog::cpu_only_f64s());
        assert!(matches!(
            Engine::new(
                small,
                &stock_library(),
                tiny_graph(),
                routes(),
                EngineOptions::default(),
                SimTime::ZERO,
            ),
            Err(SimError::ResourceExhausted { .. })
        ));
    }
}
