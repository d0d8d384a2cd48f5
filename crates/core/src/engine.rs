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
//! `CompiledRoute` table, and per-task state lives in a `Vec` window
//! over the dense [`TaskId`]s from the oldest retained task onward.
//! Event payloads carry those indices
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
//!
//! Finished work does not stay resident: each admission first retires
//! the window's completed prefix once it is at least half the window
//! (amortized O(1) per task), and the cluster keeps live allocations
//! only. Resident serve state follows live work, not run length.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use murakkab_agents::{AgentLibrary, AgentSpec, Backend, Capability, Work};
use murakkab_cluster::{AllocationId, ClusterManager, EndpointView, Timeline, Upcoming};
use murakkab_hardware::{catalog, GpuSku, HardwareTarget};
use murakkab_llmsim::{build_backend, BackendSpec, Completion, ModelSpec, Request, ServingBackend};
use murakkab_orchestrator::OrchestratorCost;
use murakkab_sim::{Event, EventQueue, SimDuration, SimError, SimTime, TraceLog};
use murakkab_workflow::{TaskGraph, TaskId};

/// Effective interconnect fraction available to a disaggregated pair
/// whose prefill and decode groups landed on different nodes (the KV
/// transfer rides the datacenter fabric instead of NVLink).
const CROSS_NODE_INTERCONNECT_FACTOR: f64 = 0.25;

/// Number of [`Capability`] variants — the size of the per-capability
/// route and lookahead tables.
pub(crate) const N_CAPS: usize = Capability::ALL.len();

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

    /// Replaces task `i`'s work, keeping its capability and edges: how a
    /// memoized plan takes on one request's scene durations.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn set_work(&mut self, i: usize, work: Work) {
        self.tasks[i].work = work;
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
    /// Record the closed-loop timeline: a per-task span into the
    /// outcome's [`TraceLog`], and the cluster's whole-run utilization
    /// curves and fleet energy into [`EngineOutcome::timeline`] (see
    /// [`ClusterManager::record_timeline`]). On by default: the
    /// closed-loop report renders all three. The fleet driver turns it
    /// off — serve reports read none of them, and skipping the spans
    /// removes a `String` clone per completed task from the hot path.
    pub timeline: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            workflow_aware: true,
            orchestration: None,
            preemptions: Vec::new(),
            gpu_sku: catalog::a100_80g(),
            gpu_speed_factor: 1.0,
            timeline: true,
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
    /// The cluster after the run, each device holding its settled tail.
    pub cluster: ClusterManager,
    /// Per-task spans by component lane.
    pub trace: TraceLog,
    /// Whole-run utilization curves and fleet energy up to the makespan,
    /// under [`EngineOptions::timeline`].
    pub timeline: Option<Timeline>,
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
    /// Library agent name (sort key of [`Engine::pools`]), shared as the
    /// cluster label of every worker allocation the pool takes.
    agent: Arc<str>,
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
    /// Library agent name (sort key of [`Engine::endpoints`]), shared
    /// as the label of the endpoint's rebalancer views.
    agent: Arc<str>,
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
    /// Bits of the `(prefill, decode)` levels last written to this
    /// incarnation's devices; `None` until the first write.
    synced_levels: Option<(u64, u64)>,
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
    /// Index of the job the task was admitted under (see
    /// [`Engine::task_job`]).
    job: u32,
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
    /// Per-task window: `tasks[i]` is task `base + i`. Starts at or
    /// before the oldest incomplete task; [`Engine::append`] retires
    /// the completed prefix.
    tasks: Vec<TaskState>,
    /// [`TaskId`] of `tasks[0]`.
    base: u64,
    /// Leading completed tasks of the window found so far (the next
    /// retirement's scan resumes here).
    done_prefix: usize,
    /// Successors of every retained task as window indices, one
    /// contiguous range per task in task order.
    succ: Vec<u32>,
    /// Task names by [`TaskId`], kept only while spans are recorded
    /// (the closed-loop graph's names; admitted tasks fall back to
    /// their [`TaskId`]).
    names: Vec<String>,
    completed_count: usize,
    /// Tasks whose last predecessor completed, awaiting dispatch.
    ready_pending: Vec<TaskId>,
    /// Recycled buffer for draining `ready_pending` without
    /// re-allocating every dispatch.
    ready_scratch: Vec<TaskId>,
    /// Recycled buffer an endpoint step hands its completions out
    /// through.
    step_completions: Vec<Completion>,
    /// Not-yet-completed task counts per capability (incrementally
    /// maintained DAG lookahead for pool release and the rebalancer).
    upcoming: [usize; N_CAPS],
    /// `(task, ttft seconds, tpot seconds, absolute first-token
    /// instant seconds)` of finished endpoint tasks, drained by the
    /// fleet driver for per-class token-latency stats and capture.
    llm_metrics: Vec<(TaskId, f64, f64, f64)>,
    /// Tasks finished since the last [`Engine::clear_completions`],
    /// in completion order — the fleet driver maps these to jobs via a
    /// per-job remaining-task counter.
    completions_log: Vec<TaskId>,
    /// Simulated events so far: queue pops plus the decode iterations
    /// an endpoint fast-forwarded inside one pop (the sim-speed
    /// denominator).
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
fn target_hourly_usd(target: &HardwareTarget, gpu: &murakkab_hardware::GpuSku) -> f64 {
    target.gpu_units() * gpu.hourly_usd
        + f64::from(target.cpu_cores_used()) * catalog::EPYC_7V12_USD_PER_CORE_HOUR
}

/// Prompt and output tokens of an endpoint task's work — checked to be
/// token work when the task was admitted.
fn token_work(work: Work) -> (u32, u32) {
    match work {
        Work::Tokens { prompt, output } => (prompt, output),
        other => unreachable!("endpoint task admitted with non-token work {other}"),
    }
}

impl Engine {
    /// Builds an engine: allocates pools and endpoints on `cluster` at
    /// `start`, interning every route into dense indices.
    ///
    /// # Errors
    ///
    /// Fails when a route's agent is unknown, a backend mismatches its
    /// route kind, or the cluster cannot host even one worker / the
    /// endpoint group, and with [`EngineOptions::timeline`] on a cluster
    /// that already recorded activity.
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
                        agent: Arc::from(agent.as_str()),
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
                            match cluster.allocate(start, Arc::clone(&pool.agent), *per_worker) {
                                Ok(alloc) => {
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
                        )?;
                        endpoints.insert(
                            agent.clone(),
                            EndpointHandle {
                                agent: Arc::from(agent.as_str()),
                                backend: be,
                                spec_backend: *backend,
                                allocs,
                                pending: Vec::new(),
                                free_slots: Vec::new(),
                                submit_seq: 0,
                                orchestration_req: None,
                                generation: 0,
                                synced_levels: None,
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
        let pool_names: Vec<String> = pools.iter().map(|p| p.agent.to_string()).collect();
        let ep_names: Vec<String> = endpoints.iter().map(|h| h.agent.to_string()).collect();
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

        if options.timeline {
            cluster.record_timeline()?;
        }
        let compiled = CompiledGraph::from_graph(&graph)?;
        let names = if options.timeline {
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
            base: 0,
            done_prefix: 0,
            succ: Vec::with_capacity(compiled.succ.len()),
            names,
            completed_count: 0,
            ready_pending: Vec::new(),
            ready_scratch: Vec::new(),
            step_completions: Vec::new(),
            upcoming: [0; N_CAPS],
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
        engine.append(&compiled, 0)?;
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
        while self.step_while(SimTime::MAX, true)?.is_some() {}
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
                .position(|h| *h.agent == **agent)
                .ok_or_else(|| SimError::not_found("orchestrator endpoint", agent.clone()))?;
            let req = Request::new(u64::MAX, prompt.max(1), output.max(1));
            self.endpoints[ei].orchestration_req = Some(req.id);
            self.submit_to_endpoint(ei, req, now)?;
            self.sync_endpoint_activity(now, ei)?;
        } else {
            self.orchestrated = true;
            self.dispatch(now)?;
        }
        Ok(())
    }

    /// Processes the next pending event and returns its instant, or `None`
    /// when the queue is empty.
    ///
    /// This is a single-event step: a decode iteration popped here runs
    /// alone, without fast-forwarding the ones after it, because the
    /// caller may act on the engine right after this one event. The
    /// fleet's telemetry tick relies on that: its rebalancer fires after
    /// exactly the one item that crosses the tick. Batched drains go
    /// through [`Engine::step_while`].
    ///
    /// # Errors
    ///
    /// Propagates endpoint/cluster errors.
    pub fn step(&mut self) -> Result<Option<SimTime>, SimError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(None);
        };
        let at = ev.at;
        self.process(ev, at).map(Some)
    }

    /// Applies one popped event. A decode iteration may fast-forward the
    /// ones after it whose boundaries fall strictly before both the next
    /// queued event and `limit`: the per-event loop would pop exactly
    /// those next, each completing nothing and changing nothing outside
    /// its endpoint.
    fn process(&mut self, ev: Event<EngineEvent>, limit: SimTime) -> Result<SimTime, SimError> {
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
                // Admitted work not yet dispatched would reach an
                // endpoint at `now`, after this step: no fast-forward
                // past it.
                let horizon = match self.queue.peek_time() {
                    _ if !self.ready_pending.is_empty() => now,
                    Some(next) => next.min(limit),
                    None => limit,
                };
                let mut completions = std::mem::take(&mut self.step_completions);
                let outcome = self.endpoints[ei]
                    .backend
                    .on_step(now, horizon, &mut completions)?;
                self.events_processed += outcome.iterations.saturating_sub(1);
                for c in &completions {
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
                    let ti = self.slot(task);
                    self.tasks[ti].started_at = Some(c.started);
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
                // A step that completed nothing readied no task and left
                // pools and lookahead as the last dispatch did: at its
                // fixed point.
                let completed = !completions.is_empty();
                completions.clear();
                self.step_completions = completions;
                if completed {
                    self.dispatch(now)?;
                }
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
        if self.completed_count != self.task_count() {
            let stuck: Vec<String> = (0..self.tasks.len())
                .filter(|&i| !self.tasks[i].completed)
                .take(5)
                .map(|i| self.task_name(self.base + i as u64))
                .collect();
            return Err(SimError::InvalidState(format!(
                "engine deadlock: {}/{} tasks done; stuck: {stuck:?}",
                self.completed_count,
                self.task_count()
            )));
        }

        // The makespan is the last task completion — not `now`, which a
        // trailing injected event (e.g. a post-completion preemption) may
        // have advanced past it. With span recording off the trace is
        // empty, so the incrementally tracked completion instant stands
        // in for it.
        let makespan = self.trace.makespan().max(self.last_finish).max(orch_end);
        // Release everything still held, in id order, settling energy
        // and cost.
        let held: Vec<AllocationId> = self.cluster.allocations().map(|a| a.id).collect();
        for alloc in held {
            self.settle_allocation(alloc, makespan)?;
        }
        let timeline = self.cluster.close_timeline(makespan)?;

        Ok(EngineOutcome {
            cluster: self.cluster,
            trace: self.trace,
            timeline,
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
    /// Decode iterations that complete nothing are fast-forwarded in
    /// place up to the next queued event and the bound (see
    /// [`Engine::events_processed`]); the drain ends in the same state
    /// as popping them one at a time.
    ///
    /// # Errors
    ///
    /// Propagates endpoint/cluster errors.
    pub fn step_while(
        &mut self,
        bound: SimTime,
        inclusive: bool,
    ) -> Result<Option<SimTime>, SimError> {
        // The exclusive instant fast-forwarded boundaries must stay
        // before: the first one the drain itself would not pop.
        let limit = if inclusive {
            bound + SimDuration::from_micros(1)
        } else {
            bound
        };
        // `pop_before` fuses the bound check into the pop — one bucket
        // settle per event instead of a peek scan followed by a pop.
        loop {
            let Some(ev) = self.queue.pop_before(bound, inclusive) else {
                return Ok(None);
            };
            let before = self.completions_log.len();
            let now = self.process(ev, limit)?;
            if self.completions_log.len() > before {
                return Ok(Some(now));
            }
        }
    }

    /// Tasks finished since the last [`Engine::clear_completions`], in
    /// completion order. Paired with `clear_completions` instead of a
    /// draining take so the log's buffer is reused across epochs — the
    /// fleet's harvest path stays allocation-free in steady state. Read
    /// their [`Engine::task_job`] before the next admission, which may
    /// retire them.
    pub fn completions(&self) -> &[TaskId] {
        &self.completions_log
    }

    /// Resets the completion log, keeping its capacity.
    pub fn clear_completions(&mut self) {
        self.completions_log.clear();
    }

    /// Simulated events so far: queue pops plus the decode iterations
    /// fast-forwarded inside one pop, each counted as the event it
    /// would have been. The count matches a loop that pops every
    /// iteration.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Tasks admitted so far, retired ones included (the retained
    /// window is [`Engine::retained`]'s first count).
    fn task_count(&self) -> usize {
        self.base as usize + self.tasks.len()
    }

    /// What the engine holds resident: `(retained task slots, live
    /// allocations in the cluster's table)`. Both follow live work, not
    /// the number of tasks or allocations the run has seen.
    pub fn retained(&self) -> (usize, usize) {
        (self.tasks.len(), self.cluster.allocations().count())
    }

    /// The most utilization change points any one device of the cluster
    /// holds ([`ClusterManager::retained_points`]): it follows device
    /// activity since the last task completion, not the run's length.
    pub fn retained_series_points(&self) -> usize {
        self.cluster.retained_points()
    }

    /// The cluster the engine runs on, read-only.
    pub fn cluster(&self) -> &ClusterManager {
        &self.cluster
    }

    /// The job index `task` was admitted under by
    /// [`Engine::admit_graph_into`] (0 for [`Engine::new`]'s graph).
    ///
    /// # Panics
    ///
    /// Panics if `task` was never admitted or has been retired: read a
    /// completion's or a token-latency sample's job before the next
    /// admission.
    pub fn task_job(&self, task: TaskId) -> usize {
        self.tasks[self.slot(task)].job as usize
    }

    /// The window index of a retained task.
    fn slot(&self, task: TaskId) -> usize {
        (task.raw() - self.base) as usize
    }

    /// The advisory rebalancer's inputs, read in one pass: refills
    /// `views` with every resident agent and returns the cluster's free
    /// GPU units (O(nodes)) with the incrementally maintained DAG
    /// lookahead (not-yet-completed tasks per capability). Endpoints come
    /// first, sorted by agent, once per capability the route table gives
    /// them in `Capability` order; then each live (non-released) pool
    /// once per capability it serves, so advisory policies see tool
    /// agents as resident too. Labels are refcounts of the agents' own
    /// names — nothing is allocated once `views` has grown.
    pub fn rebalance_inputs(&self, views: &mut Vec<EndpointView>) -> (f64, &Upcoming) {
        views.clear();
        for (ei, h) in self.endpoints.iter().enumerate() {
            let (gpus, load) = (f64::from(h.backend.gpu_count()), h.backend.load());
            let serves = |c: Capability| {
                let route = self.route_table[c as usize];
                matches!(route, Some(CompiledRoute::Endpoint(e)) if e as usize == ei)
            };
            views.extend(
                Capability::ALL
                    .into_iter()
                    .filter(|&c| serves(c))
                    .map(|capability| EndpointView {
                        label: Arc::clone(&h.agent),
                        capability,
                        gpus,
                        load,
                    }),
            );
        }
        for pool in self.pools.iter().filter(|p| !p.released) {
            let live = || pool.workers.iter().filter(|w| !w.dead);
            let gpus: f64 = live().map(|w| w.target.gpu_units()).sum();
            let load = pool.queue.len() + live().filter(|w| w.busy).count();
            views.extend(pool.caps.iter().map(|&capability| EndpointView {
                label: Arc::clone(&pool.agent),
                capability,
                gpus,
                load,
            }));
        }
        (self.cluster.free_gpu_units(), &self.upcoming)
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
    /// endpoint tasks since the last [`Engine::clear_llm_metrics`]. Like
    /// [`Engine::completions`], read them before the next admission.
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

    /// Admits a compiled workflow mid-run (open-loop serving) as job
    /// `job`: appends it onto the task window, re-provisions any tool
    /// pools that were released while idle and are needed again, and
    /// dispatches newly ready tasks at `now`. The admitted tasks take
    /// consecutive engine-local ids in `sub`'s task order, starting at
    /// the returned id, and report `job` through [`Engine::task_job`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if a capability in `sub` has no
    /// route or an endpoint-routed task carries non-token work (nothing
    /// is admitted then), [`SimError::ResourceExhausted`] if a required
    /// released pool cannot get any worker back, and
    /// [`SimError::InvalidState`] if `job` or the retained window
    /// outgrows `u32` indexing.
    pub fn admit_graph_into(
        &mut self,
        now: SimTime,
        sub: &CompiledGraph,
        job: usize,
    ) -> Result<TaskId, SimError> {
        let job = index_u32(job, "job index")?;
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
            // Fresh workers take idle dead slots first (an idle dead
            // worker can have no in-flight ToolDone carrying its index),
            // so the worker list does not grow with every scale cycle of
            // a long-running serve engine.
            let (mut granted, mut slot) = (0, 0);
            for wi in 0..self.pools[pi].spec_workers.len() {
                let pool = &self.pools[pi];
                let target = pool.spec_workers[wi];
                match self.cluster.allocate(now, Arc::clone(&pool.agent), target) {
                    Ok(alloc) => {
                        let fresh = Worker {
                            alloc,
                            target,
                            busy: false,
                            dead: false,
                        };
                        let workers = &mut self.pools[pi].workers;
                        match workers[slot..].iter().position(|w| w.dead && !w.busy) {
                            Some(offset) => {
                                slot += offset;
                                workers[slot] = fresh;
                            }
                            None => {
                                slot = workers.len();
                                workers.push(fresh);
                            }
                        }
                        granted += 1;
                    }
                    Err(e) => {
                        if granted == 0 {
                            return Err(e);
                        }
                        break; // Partial pool: serve with what fits.
                    }
                }
            }
            let pool = &mut self.pools[pi];
            pool.released = false;
            self.pool_scale_ups += 1;
        }

        let first = self.append(sub, job)?;
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

    /// Retires the window's completed prefix, then appends `sub` as job
    /// `job` onto the window and the flat successor list, queueing its
    /// source tasks as ready. Returns the engine-local id of its first
    /// task.
    ///
    /// Retiring here, at admission, is what keeps it safe: the fleet
    /// harvests every completion and token-latency sample before it
    /// admits again, so no retired task is still to be read.
    fn append(&mut self, sub: &CompiledGraph, job: u32) -> Result<TaskId, SimError> {
        self.retire_completed_prefix();
        index_u32(self.tasks.len() + sub.tasks.len(), "engine task count")?;
        index_u32(self.succ.len() + sub.succ.len(), "engine edge count")?;
        // Both totals fit, so every index and offset below does too.
        let (local, succ_base) = (self.tasks.len() as u32, self.succ.len() as u32);
        let first = self.base + u64::from(local);
        self.succ.extend(sub.succ.iter().map(|&s| local + s));
        for (i, t) in sub.tasks.iter().enumerate() {
            self.tasks.push(TaskState {
                capability: t.capability,
                work: t.work,
                indegree: t.indegree,
                succ: (succ_base + t.succ.0, succ_base + t.succ.1),
                scheduled: false,
                completed: false,
                started_at: None,
                job,
            });
            if t.indegree == 0 {
                self.ready_pending.push(TaskId::from_raw(first + i as u64));
            }
            self.upcoming[t.capability as usize] += 1;
        }
        Ok(TaskId::from_raw(first))
    }

    /// Drops the window's completed prefix once it is at least half the
    /// window (each task is dropped once and moved at most once per
    /// halving: amortized O(1)), rebasing the retained successor ranges
    /// and indices.
    fn retire_completed_prefix(&mut self) {
        while self
            .tasks
            .get(self.done_prefix)
            .is_some_and(|t| t.completed)
        {
            self.done_prefix += 1;
        }
        let drop = self.done_prefix;
        if drop == 0 || drop * 2 < self.tasks.len() {
            return;
        }
        // Ranges are laid out in task order, so the dropped tasks own
        // exactly the successor entries before the first kept range.
        let succ_drop = self
            .tasks
            .get(drop)
            .map_or(self.succ.len(), |t| t.succ.0 as usize);
        self.tasks.drain(..drop);
        self.succ.drain(..succ_drop);
        let (drop32, succ_drop32) = (drop as u32, succ_drop as u32);
        for t in &mut self.tasks {
            t.succ = (t.succ.0 - succ_drop32, t.succ.1 - succ_drop32);
        }
        // A kept task may point back at a retired successor only if it
        // has completed itself, and a completed task's successors are
        // never read again, so those entries may wrap.
        for s in &mut self.succ {
            *s = s.wrapping_sub(drop32);
        }
        self.base += drop as u64;
        self.done_prefix = 0;
    }

    /// A task's name for spans and diagnostics: its graph name when
    /// names are kept, its engine-local id otherwise.
    fn task_name(&self, id: u64) -> String {
        self.names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| TaskId::from_raw(id).to_string())
    }

    /// Marks a task complete, records its span and advances the
    /// incremental ready/lookahead state.
    fn finish_task(&mut self, task: TaskId, now: SimTime) -> Result<(), SimError> {
        let ti = self.slot(task);
        let capability = self.tasks[ti].capability;
        if self.options.timeline {
            let started = self.tasks[ti].started_at.unwrap_or(now);
            let name = self.task_name(task.raw());
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
            self.cluster.advance_frontier(now);
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
            base,
            ready_pending,
            ..
        } = self;
        for &s in &succ[start as usize..end as usize] {
            let st = &mut tasks[s as usize];
            st.indegree -= 1;
            if st.indegree == 0 {
                ready_pending.push(TaskId::from_raw(*base + u64::from(s)));
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
                let ti = self.slot(tid);
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
                        let ei = ei as usize;
                        let (prompt, output) = token_work(self.tasks[ti].work);
                        let slot = self.endpoints[ei].claim_slot(tid);
                        self.submit_to_endpoint(
                            ei,
                            Request::new(slot, prompt, output.max(1)),
                            now,
                        )?;
                        self.sync_endpoint_activity(now, ei)?;
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
                    let work = self.tasks[self.slot(tid)].work;
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
                let ti = self.slot(tid);
                self.tasks[ti].started_at = Some(now);
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
            // Cheapest checks first: the worker scan runs only for a
            // live pool with no demand left.
            let pool = &self.pools[pi];
            let done = !pool.released
                && pool.caps.iter().all(|&c| self.upcoming[c as usize] == 0)
                && pool.queue.is_empty()
                && pool.workers.iter().all(|w| !w.busy || w.dead);
            if !done {
                continue;
            }
            for wi in 0..self.pools[pi].workers.len() {
                let w = &self.pools[pi].workers[wi];
                if !w.dead {
                    let alloc = w.alloc;
                    self.settle_allocation(alloc, now)?;
                }
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
        for a in self.cluster.allocations().filter(|a| a.node == node_id) {
            self.energy_ledger += self.cluster.allocation_energy_wh(a.id, now)?;
            self.cost_ledger += target_hourly_usd(&a.target, &self.options.gpu_sku)
                * now.saturating_duration_since(a.created).as_hours_f64();
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
                if let Ok(alloc) =
                    self.cluster
                        .allocate(now, Arc::clone(&self.pools[pi].agent), target)
                {
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
                if !killed.contains(&alloc) && self.cluster.is_live(alloc) {
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
            )?;
            let h = &mut self.endpoints[ei];
            let old_pending = std::mem::take(&mut h.pending);
            let had_orchestration = h.orchestration_req.take().is_some();
            h.backend = backend;
            h.allocs = allocs;
            h.free_slots.clear();
            h.submit_seq = 0;
            h.generation += 1;
            h.synced_levels = None;
            // Resubmit lost work in original submission order (the old
            // monotonic-id iteration order): pending tasks map to fresh
            // request slots.
            let mut lost: Vec<(TaskId, u64)> = old_pending.into_iter().flatten().collect();
            lost.sort_unstable_by_key(|&(_, seq)| seq);
            for (task, _) in lost {
                let (prompt, output) = token_work(self.tasks[self.slot(task)].work);
                let slot = self.endpoints[ei].claim_slot(task);
                self.submit_to_endpoint(ei, Request::new(slot, prompt, output.max(1)), now)?;
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
                self.endpoints[ei].orchestration_req = Some(req.id);
                self.submit_to_endpoint(ei, req, now)?;
            }
            self.sync_endpoint_activity(now, ei)?;
        }
        Ok(())
    }

    /// Settles an allocation's energy/cost ledgers and releases it.
    fn settle_allocation(&mut self, alloc: AllocationId, now: SimTime) -> Result<(), SimError> {
        let a = self.cluster.allocation(alloc)?;
        let (created, target) = (a.created, a.target);
        self.energy_ledger += self.cluster.allocation_energy_wh(alloc, now)?;
        self.cost_ledger += target_hourly_usd(&target, &self.options.gpu_sku)
            * now.saturating_duration_since(created).as_hours_f64();
        self.cluster.release(now, alloc)?;
        Ok(())
    }

    /// Submits `req` to endpoint `ei` and schedules the step it arms.
    fn submit_to_endpoint(
        &mut self,
        ei: usize,
        req: Request,
        now: SimTime,
    ) -> Result<(), SimError> {
        let h = &mut self.endpoints[ei];
        if let Some(t) = h.backend.on_submit(req, now)? {
            self.queue.schedule(
                t,
                EngineEvent::LlmStep {
                    endpoint: ei as u32,
                    generation: h.generation,
                },
            );
        }
        Ok(())
    }

    /// Mirrors an endpoint's utilization level onto its GPU devices —
    /// per phase for a disaggregated pair, combined for a colocated
    /// replica.
    ///
    /// Levels equal to the last ones written to this incarnation are
    /// skipped: an endpoint holds whole GPUs, so nothing else writes
    /// those devices, and their series would drop the repeat anyway.
    fn sync_endpoint_activity(&mut self, now: SimTime, ei: usize) -> Result<(), SimError> {
        // Disjoint field borrows: the handle is read while the cluster
        // mutates — no clone of the allocation list.
        let h = &mut self.endpoints[ei];
        let (first, second) = match *h.allocs.as_slice() {
            [_] => {
                let combined = h.backend.util_level();
                (combined, combined)
            }
            _ => h.backend.phase_levels(),
        };
        let bits = Some((first.to_bits(), second.to_bits()));
        if h.synced_levels == bits {
            return Ok(());
        }
        h.synced_levels = bits;
        match *h.allocs.as_slice() {
            [one] => self.cluster.set_gpu_activity_level(now, one, first),
            [prefill, decode] => {
                self.cluster.set_gpu_activity_level(now, prefill, first)?;
                self.cluster.set_gpu_activity_level(now, decode, second)
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
    ) -> Result<(Box<dyn ServingBackend>, Vec<AllocationId>), SimError> {
        match *spec {
            BackendSpec::Colocated { gpus, .. } => {
                let target = HardwareTarget::gpus(gpus);
                let alloc = cluster.allocate(now, agent, target)?;
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
                let pair = cluster.allocate_paired(now, agent, prefill, decode)?;
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
    fn serve_engine(timeline: bool) -> Engine {
        serve_engine_on(routes(), timeline)
    }

    fn serve_engine_on(routes: BTreeMap<Capability, RouteSpec>, timeline: bool) -> Engine {
        let opts = EngineOptions {
            timeline,
            ..EngineOptions::default()
        };
        let mut engine = Engine::new(
            ClusterManager::paper_testbed(),
            &stock_library(),
            TaskGraph::new(),
            routes,
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
            .admit_graph_into(SimTime::ZERO, &compiled, 0)
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
            .admit_graph_into(SimTime::ZERO, &compiled, 0)
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

    /// `routes()` plus an external web search (0.8 s per call).
    fn routes_with_search() -> BTreeMap<Capability, RouteSpec> {
        let mut r = routes();
        r.insert(
            Capability::WebSearch,
            RouteSpec::External {
                agent: "WebSearch".into(),
            },
        );
        r
    }

    /// The fan-in workflow plus one long summary, so the endpoint
    /// decodes for a while with a steady batch.
    fn decode_heavy_graph() -> CompiledGraph {
        let mut g = fan_in_graph();
        g.add_task(
            "long",
            "long",
            Capability::Summarization,
            Work::Tokens {
                prompt: 800,
                output: 400,
            },
        );
        CompiledGraph::from_graph(&g).expect("compiles")
    }

    /// A search feeding a summary: the summary reaches the endpoint
    /// when the search returns.
    fn search_graph() -> CompiledGraph {
        let mut g = TaskGraph::new();
        let search = g.add_task("search", "search", Capability::WebSearch, Work::Items(1));
        let cite = g.add_task(
            "cite",
            "cite",
            Capability::Summarization,
            Work::Tokens {
                prompt: 300,
                output: 40,
            },
        );
        g.add_edge(search, cite).expect("acyclic");
        CompiledGraph::from_graph(&g).expect("compiles")
    }

    /// Everything observable about a drained serve engine.
    fn drained_state(engine: Engine) -> (u64, Vec<TaskId>, String, String) {
        let events = engine.events_processed();
        let order = engine.completions().to_vec();
        let metrics = format!("{:?}", engine.llm_metrics());
        let outcome = engine.finish(SimTime::ZERO).expect("settles");
        (events, order, metrics, format!("{outcome:?}"))
    }

    #[test]
    fn fast_forwarded_drains_match_single_event_steps() {
        // Decode boundaries of the decode-heavy graph alone: the
        // endpoint steps popped one at a time, as `step()` does, with
        // the limit at each event's own instant so none fast-forwards.
        let mut probe = serve_engine_on(routes_with_search(), false);
        probe
            .admit_graph_into(SimTime::ZERO, &decode_heavy_graph(), 0)
            .expect("admits");
        let mut boundaries = Vec::new();
        while let Some(ev) = probe.queue.pop() {
            if matches!(ev.payload, EngineEvent::LlmStep { .. }) {
                boundaries.push(ev.at);
            }
            probe.process(ev, ev.at).expect("steps");
        }
        // Admit a search whose 0.8 s latency ends exactly on a boundary
        // in the middle of a long decode run: the summary it unblocks
        // must join the batch at that boundary.
        let latency = SimDuration::from_secs_f64(0.8);
        let tie = boundaries[boundaries.len() * 2 / 3];
        assert!(tie > SimTime::ZERO + latency);
        let search_at = tie - latency;

        // One event at a time.
        let mut single = serve_engine_on(routes_with_search(), true);
        single
            .admit_graph_into(SimTime::ZERO, &decode_heavy_graph(), 0)
            .expect("admits");
        let mut instants = Vec::new();
        while single.peek_time().is_some_and(|t| t <= search_at) {
            instants.extend(single.step().expect("steps"));
        }
        single
            .admit_graph_into(search_at, &search_graph(), 0)
            .expect("admits");
        while let Some(t) = single.step().expect("steps") {
            instants.push(t);
        }
        assert!(
            instants.iter().filter(|&&t| t == tie).count() >= 2,
            "the search completes on a decode boundary"
        );

        // Batched drains under a ladder of small bounds, alternating
        // exclusive and inclusive, with the admission at its instant.
        let mut batched = serve_engine_on(routes_with_search(), true);
        batched
            .admit_graph_into(SimTime::ZERO, &decode_heavy_graph(), 0)
            .expect("admits");
        let drain_to = |e: &mut Engine, bound: SimTime, inclusive: bool| {
            while e.step_while(bound, inclusive).expect("drains").is_some() {}
        };
        let rung = SimDuration::from_millis(170);
        let mut bound = SimTime::ZERO;
        let mut admitted = false;
        for k in 0u32.. {
            bound += rung;
            if !admitted && bound >= search_at {
                drain_to(&mut batched, search_at, true);
                batched
                    .admit_graph_into(search_at, &search_graph(), 0)
                    .expect("admits");
                admitted = true;
            }
            drain_to(&mut batched, bound, k % 2 == 1);
            if admitted && batched.peek_time().is_none() {
                break;
            }
        }
        assert_eq!(drained_state(batched), drained_state(single));
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

        let mut engine = serve_engine(false);
        let compiled = CompiledGraph::from_graph(&fan_in_graph()).expect("compiles");
        let err = engine
            .admit_graph_into(SimTime::ZERO, &compiled, u32::MAX as usize + 1)
            .expect_err("job index too big");
        assert!(err.to_string().contains("job index"), "{err}");
        assert_eq!(engine.task_count(), 0, "nothing was admitted");
    }

    #[test]
    fn admission_retires_the_finished_prefix() {
        // Each workflow's short final summary (id 0) waits on a
        // transcription (id 2), while a long independent summary (id 1)
        // sits between them in id order. The final summary finishes
        // first, so a retirement can drop it while the kept, completed
        // transcription still lists it as a successor. Workflows overlap
        // two at a time.
        const JOBS: usize = 20;
        let mut g = TaskGraph::new();
        let fin = g.add_task(
            "final",
            "final",
            Capability::Summarization,
            Work::Tokens {
                prompt: 300,
                output: 10,
            },
        );
        g.add_task(
            "long",
            "long",
            Capability::Summarization,
            Work::Tokens {
                prompt: 800,
                output: 400,
            },
        );
        let stt = g.add_task(
            "stt",
            "stt",
            Capability::SpeechToText,
            Work::AudioSeconds(5.0),
        );
        g.add_edge(stt, fin).expect("acyclic");
        let compiled = CompiledGraph::from_graph(&g).expect("compiles");
        let mut engine = serve_engine(false);
        let mut done = [0usize; JOBS];
        let mut now = SimTime::ZERO;
        let step = |engine: &mut Engine, done: &mut [usize; JOBS]| {
            let stepped = engine.step_while(SimTime::MAX, true).expect("steps");
            for &tid in engine.completions() {
                done[engine.task_job(tid)] += 1;
            }
            engine.clear_completions();
            stepped
        };
        for job in 0..JOBS {
            let finished =
                |done: &[usize; JOBS]| done.iter().filter(|&&d| d == compiled.len()).count();
            while finished(&done) + 1 < job {
                now = step(&mut engine, &mut done).expect("work is pending");
            }
            engine
                .admit_graph_into(now, &compiled, job)
                .expect("admits");
            assert!(
                engine.retained().0 <= 6 * compiled.len(),
                "job {job}: {} tasks retained",
                engine.retained().0
            );
        }
        while step(&mut engine, &mut done).is_some() {}
        assert_eq!(
            done,
            [compiled.len(); JOBS],
            "every task ran under its own job"
        );
        assert_eq!(engine.task_count(), JOBS * compiled.len());
        let outcome = engine.finish(SimTime::ZERO).expect("settles");
        assert_eq!(outcome.tasks_completed, JOBS * compiled.len());
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
        let run = |timeline: bool| {
            let opts = EngineOptions {
                timeline,
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
        assert!(with.timeline.is_some() && without.timeline.is_none());
    }

    #[test]
    fn cluster_shortage_at_construction_is_checked() {
        let mut small = ClusterManager::new(PlacementPolicy::BestFit);
        small.add_node(catalog::cpu_only_f64s()).unwrap();
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
