//! The Murakkab adaptive runtime.
//!
//! This is the paper's contribution assembled: a declarative [`Job`] goes
//! through decomposition (simulated ReAct planning), instance-level
//! expansion, profile-driven agent/hardware selection under the job's
//! constraints (consulting live cluster telemetry), and execution on the
//! discrete-event engine with workflow-aware resource management.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use murakkab_agents::library::stock_library;
use murakkab_agents::profile::Objective;
use murakkab_agents::{AgentLibrary, Backend, Capability, ProfileStore, Profiler};
use murakkab_cluster::ClusterManager;
use murakkab_hardware::{HardwareTarget, VmShape};
use murakkab_llmsim::{plan_backend, ServingMode};
use murakkab_orchestrator::{expand, JobInputs, LogicalPlan, Planner};
use murakkab_sim::{SimError, SimTime};
use murakkab_workflow::Job;

use crate::engine::{Engine, EngineOptions, EngineOutcome, RouteSpec};
use crate::report::RunReport;

/// Which Speech-to-Text resource configuration to run (the Figure 3 /
/// Table 2 experiment axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SttChoice {
    /// Let the runtime pick from execution profiles under the job's
    /// constraints (the paper: `MIN_COST` ⇒ the CPU configuration).
    #[default]
    Auto,
    /// Whisper on 1 dedicated GPU (like the baseline's provisioning).
    Gpu,
    /// Whisper on 64 CPU cores (8 workers × 8 cores).
    Cpu,
    /// Whisper on 1 GPU plus 64 CPU cores.
    Hybrid,
}

/// The engine-facing projection of a [`Scenario`](crate::scenario::Scenario)'s
/// knobs, built only by `Scenario::run_options` (which zeroes the knobs
/// open-loop serving ignores).
#[derive(Debug)]
pub(crate) struct RunOptions {
    /// Report label.
    pub(crate) label: String,
    /// STT configuration override.
    pub(crate) stt: SttChoice,
    /// Workflow-aware cluster management (pool release on DAG lookahead).
    pub(crate) workflow_aware: bool,
    /// Maximum per-stage worker fan-out (task-parallelism lever).
    pub(crate) parallelism: u32,
    /// Pin the paper's agents (OpenCV/Whisper/CLIP/NVLM) instead of free
    /// library selection — keeps the §4 experiments faithful while other
    /// jobs still exercise full selection.
    pub(crate) pin_paper_agents: bool,
    /// Spot preemptions to inject: `(seconds, node index)`.
    pub(crate) preemptions: Vec<(f64, usize)>,
    /// Serving regime LLM endpoints deploy under (colocated continuous
    /// batching, or disaggregated prefill/decode pairs).
    pub(crate) serving: ServingMode,
    /// Extra selection constraints ANDed in *after* (below) the jobs'
    /// own constraints, so they tighten bounds without overriding a
    /// job's primary objective.
    pub(crate) constraints: Vec<murakkab_workflow::Constraint>,
}

/// Route-selection inputs shared by a closed-loop run, every serve cell
/// and the preflight analyzer: the archetypes requesting each
/// capability, the folded constraint set and the run options.
pub(crate) struct RoutePrep {
    pub(crate) cap_archetypes: BTreeMap<Capability, Vec<String>>,
    pub(crate) constraints: murakkab_workflow::ConstraintSet,
    pub(crate) run_opts: RunOptions,
}

impl RoutePrep {
    /// Folds decomposed jobs into selection inputs: every job's
    /// constraints in job order (so the strictest quality floor
    /// applies), then the options' extra constraints below them, and
    /// each capability's requesting archetypes (their agent filters
    /// intersect in selection).
    pub(crate) fn new<'a>(
        plans: impl IntoIterator<Item = (&'a Job, &'a LogicalPlan)>,
        run_opts: RunOptions,
    ) -> Self {
        let mut cap_archetypes: BTreeMap<Capability, Vec<String>> = BTreeMap::new();
        let mut constraints = murakkab_workflow::ConstraintSet::new();
        for (job, plan) in plans {
            for c in job.constraints.all() {
                constraints = constraints.and(*c);
            }
            for cap in plan.capabilities() {
                cap_archetypes
                    .entry(cap)
                    .or_default()
                    .push(plan.archetype.clone());
            }
        }
        for &c in &run_opts.constraints {
            constraints = constraints.and(c);
        }
        RoutePrep {
            cap_archetypes,
            constraints,
            run_opts,
        }
    }
}

/// The outcome of one selection/routing pass.
pub(crate) struct RoutePlan {
    pub(crate) routes: BTreeMap<Capability, RouteSpec>,
    pub(crate) selections: BTreeMap<Capability, murakkab_orchestrator::SelectedConfig>,
    pub(crate) orchestrator_agent: Option<String>,
}

/// The Murakkab runtime: library + profiles + a cluster template.
pub struct Runtime {
    seed: u64,
    library: AgentLibrary,
    profiles: ProfileStore,
    shape: VmShape,
    nodes: usize,
}

impl Runtime {
    /// The paper's testbed: two `Standard_ND96amsr_A100_v4` VMs, the
    /// stock agent library, profiles generated by the offline profiler.
    pub fn paper_testbed(seed: u64) -> Self {
        Self::with_shape(seed, murakkab_hardware::catalog::nd96amsr_a100_v4(), 2)
    }

    /// A runtime over `nodes` VMs of the given shape.
    pub fn with_shape(seed: u64, shape: VmShape, nodes: usize) -> Self {
        let library = stock_library();
        let profiles = Profiler::default().profile_library(&library);
        Runtime {
            seed,
            library,
            profiles,
            shape,
            nodes,
        }
    }

    /// The agent library.
    pub fn library(&self) -> &AgentLibrary {
        &self.library
    }

    /// The execution profiles.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The VM shape the cluster is built from.
    pub fn shape(&self) -> &VmShape {
        &self.shape
    }

    /// The number of cluster nodes the runtime provisions.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub(crate) fn build_cluster(&self) -> Result<ClusterManager, SimError> {
        self.build_cluster_of(self.nodes)
    }

    /// A fresh cluster of `nodes` VMs of this runtime's shape — the geo
    /// layer builds one per region slice (and per spot node) instead of
    /// partitioning the single scenario cluster evenly.
    pub(crate) fn build_cluster_of(&self, nodes: usize) -> Result<ClusterManager, SimError> {
        let mut cm = ClusterManager::new(murakkab_cluster::PlacementPolicy::BestFit);
        for _ in 0..nodes {
            cm.add_node(self.shape.clone())?;
        }
        Ok(cm)
    }

    /// The shared closed-loop pipeline behind every entry point: plan
    /// (decompose) → expand → select agent/hardware configs → execute on
    /// the discrete-event engine. One job runs as-is; several jobs are
    /// multi-tenant — their graphs merge under `w{i}/` prefixes, all
    /// workflows share agent deployments (one NVLM replica serves every
    /// tenant's summarisation and generation) and the engine interleaves
    /// their task graphs on the same event loop.
    ///
    /// Selection uses the merged constraint set (all tenants' constraints
    /// in job order, so the strictest quality floor applies) and the
    /// union of per-tenant agent filters.
    pub(crate) fn run_jobs(
        &self,
        jobs: &[(Job, JobInputs)],
        opts: RunOptions,
    ) -> Result<RunReport, SimError> {
        let multi_tenant = jobs.len() > 1;
        let cluster = self.build_cluster()?;
        let mut stats = cluster.stats(SimTime::ZERO);

        // Decompose and expand every job and accumulate orchestration
        // cost. Multi-tenant runs merge the graphs with per-tenant
        // prefixes; a solo run keeps its graph untouched.
        let mut graph = murakkab_workflow::TaskGraph::new();
        let mut plans = Vec::with_capacity(jobs.len());
        let mut total_cost = murakkab_orchestrator::OrchestratorCost {
            prompt_tokens: 0,
            output_tokens: 0,
        };
        for (i, (job, inputs)) in jobs.iter().enumerate() {
            let (plan, cost) = Planner.decompose(job, &self.library)?;
            let expanded = expand(&plan, inputs)?;
            if multi_tenant {
                graph.absorb_prefixed(&expanded, &format!("w{i}/"));
            } else {
                graph = expanded;
            }
            total_cost.prompt_tokens += cost.prompt_tokens;
            total_cost.output_tokens += cost.output_tokens;
            plans.push(plan);
        }
        let prep = RoutePrep::new(jobs.iter().map(|(job, _)| job).zip(&plans), opts);

        // One shared selection/routing pass over the union of
        // capabilities.
        let RoutePlan {
            routes,
            selections,
            orchestrator_agent,
        } = self.select_routes(&prep, &mut stats)?;

        let mut engine_opts = self.engine_options(&prep.run_opts);
        engine_opts.orchestration = orchestrator_agent.map(|a| (total_cost, a));

        let engine = Engine::new(
            cluster,
            &self.library,
            graph,
            routes,
            engine_opts,
            SimTime::ZERO,
        )?;
        let outcome = engine.run(SimTime::ZERO)?;
        let quality = murakkab_agents::quality::compose(
            &selections.values().map(|s| s.quality).collect::<Vec<_>>(),
        );
        report_from_outcome(
            &prep.run_opts.label,
            outcome,
            quality,
            false,
            &selections
                .iter()
                .map(|(c, s)| (c.to_string(), format!("{}@{}", s.agent, s.target)))
                .collect(),
        )
    }

    /// Engine options for a run: the cluster's GPU SKU plus the
    /// workflow-awareness and preemption schedule from the options —
    /// shared by the closed-loop pipeline and the fleet cells.
    pub(crate) fn engine_options(&self, opts: &RunOptions) -> EngineOptions {
        let mut engine_opts = EngineOptions::for_gpu(
            self.shape
                .gpu
                .clone()
                .unwrap_or_else(murakkab_hardware::catalog::a100_80g),
        );
        engine_opts.workflow_aware = opts.workflow_aware;
        engine_opts.preemptions = opts
            .preemptions
            .iter()
            .map(|&(s, n)| (SimTime::from_secs_f64(s), n))
            .collect();
        engine_opts
    }

    /// Agent/hardware selection and routing for a set of capabilities —
    /// the shared pass behind every closed-loop run and every serve
    /// cell.
    ///
    /// Selection is sequential and resource-aware: each choice debits the
    /// projected stats so later choices cannot jointly over-commit the
    /// cluster, and agents sharing an already-selected model count as
    /// resident (§3.2: prefer what is already running). Endpoints serving
    /// the same model weights are deduplicated — multiplexing one serving
    /// stack across stages/tenants is exactly the efficiency §3.2 argues
    /// for. Per-capability agent filters are intersected across the
    /// requesting archetypes (the strictest tenant wins).
    pub(crate) fn select_routes(
        &self,
        prep: &RoutePrep,
        stats: &mut murakkab_cluster::ResourceStats,
    ) -> Result<RoutePlan, SimError> {
        let RoutePrep {
            cap_archetypes,
            constraints,
            run_opts: opts,
        } = prep;
        let mut resident: BTreeSet<String> = BTreeSet::new();
        let mut resident_models: BTreeSet<String> = BTreeSet::new();
        let mut selections: BTreeMap<Capability, murakkab_orchestrator::SelectedConfig> =
            BTreeMap::new();
        let mut routes: BTreeMap<Capability, RouteSpec> = BTreeMap::new();
        let mut orchestrator_agent: Option<String> = None;
        let mut endpoint_by_model: BTreeMap<String, String> = BTreeMap::new();
        for (&cap, archetypes) in cap_archetypes {
            let mut allowed: Option<BTreeSet<String>> = None;
            for archetype in archetypes {
                if let Some(set) = self.allowed_agents(cap, archetype, opts.pin_paper_agents) {
                    allowed = Some(match allowed {
                        None => set,
                        Some(prev) => prev.intersection(&set).cloned().collect(),
                    });
                }
            }
            let sel = murakkab_orchestrator::select_config(
                cap,
                &self.profiles,
                constraints,
                Some(stats),
                &resident,
                allowed.as_ref(),
            )?;
            let spec = self.library.get(&sel.agent)?;
            let route = match &spec.backend {
                Backend::Tool(_) => {
                    let route = if cap == Capability::SpeechToText {
                        self.stt_route(&sel.agent, opts.stt, opts.parallelism, constraints)?
                    } else {
                        RouteSpec::Pool {
                            agent: sel.agent.clone(),
                            workers: pool_workers(cap, sel.target, opts.parallelism),
                        }
                    };
                    // Debit the projected stats with the route's real
                    // footprint so later selections cannot over-commit.
                    if let RouteSpec::Pool { workers, .. } = &route {
                        let gpus: f64 = workers.iter().map(HardwareTarget::gpu_units).sum();
                        let cores: u32 = workers.iter().map(HardwareTarget::cpu_cores_used).sum();
                        stats.gpus_free = (stats.gpus_free - gpus).max(0.0);
                        stats.cores_free = (stats.cores_free - f64::from(cores)).max(0.0);
                    }
                    route
                }
                Backend::LlmServed {
                    model,
                    default_gpus,
                    max_batch,
                } => {
                    let serving_agent = endpoint_by_model
                        .entry(model.name.clone())
                        .or_insert_with(|| sel.agent.clone())
                        .clone();
                    // KV-occupancy- and phase-aware deployment planning:
                    // the group grows until the model plus a working set
                    // fit, and under disaggregated serving the budget
                    // splits into a paired prefill/decode deployment.
                    let sku = self
                        .shape
                        .gpu
                        .clone()
                        .unwrap_or_else(murakkab_hardware::catalog::a100_80g);
                    let backend =
                        plan_backend(model, &sku, *default_gpus, *max_batch, opts.serving);
                    if resident_models.insert(model.name.clone()) {
                        stats.gpus_free =
                            (stats.gpus_free - f64::from(backend.gpus_total())).max(0.0);
                    }
                    // Every agent serving the same weights is now "already
                    // running" for later capabilities.
                    for a in self.library.all() {
                        if let Backend::LlmServed { model: m, .. } = &a.backend {
                            if m.name == model.name {
                                resident.insert(a.name.clone());
                            }
                        }
                    }
                    orchestrator_agent.get_or_insert_with(|| serving_agent.clone());
                    RouteSpec::Endpoint {
                        agent: serving_agent,
                        backend,
                    }
                }
                Backend::External { .. } => RouteSpec::External {
                    agent: sel.agent.clone(),
                },
            };
            routes.insert(cap, route);
            selections.insert(cap, sel);
        }
        Ok(RoutePlan {
            routes,
            selections,
            orchestrator_agent,
        })
    }

    /// The agent filter for a capability: paper pinning and/or the
    /// multimodality requirement of VLM summarisation.
    fn allowed_agents(
        &self,
        cap: Capability,
        archetype: &str,
        pin: bool,
    ) -> Option<BTreeSet<String>> {
        if pin && archetype == "video-understanding" {
            let name = match cap {
                Capability::FrameExtraction => "OpenCV",
                Capability::SpeechToText => "Whisper",
                Capability::ObjectDetection => "CLIP",
                Capability::Summarization | Capability::TextGeneration => "NVLM",
                Capability::Embedding => "NVLM-Embed",
                Capability::VectorStore => "VectorDB",
                _ => return None,
            };
            return Some([name.to_string()].into());
        }
        // Frame/scene summarisation in video jobs needs a multimodal model.
        if archetype == "video-understanding" && cap == Capability::Summarization {
            return Some(
                self.library
                    .candidates(cap)
                    .filter(|a| a.multimodal)
                    .map(|a| a.name.clone())
                    .collect(),
            );
        }
        None
    }

    /// The STT worker pool for a configuration choice.
    fn stt_route(
        &self,
        agent: &str,
        choice: SttChoice,
        parallelism: u32,
        constraints: &murakkab_workflow::ConstraintSet,
    ) -> Result<RouteSpec, SimError> {
        let choice = match choice {
            SttChoice::Auto => {
                // Rank the three paper configurations by the primary
                // objective using the agent's execution profiles
                // (§4: MIN_COST picks the CPU configuration).
                match constraints.primary_objective() {
                    Objective::Cost | Objective::Power => SttChoice::Cpu,
                    Objective::Latency | Objective::Quality => SttChoice::Gpu,
                }
            }
            c => c,
        };
        // The paper's CPU configuration is 64 cores = 8 workers x 8 cores;
        // the task-parallelism lever scales the worker count down from
        // there.
        let cpu_workers = || -> Vec<HardwareTarget> {
            vec![HardwareTarget::cpu_cores(8); parallelism.clamp(1, 8) as usize]
        };
        let workers = match choice {
            SttChoice::Gpu => vec![HardwareTarget::ONE_GPU],
            SttChoice::Cpu => cpu_workers(),
            SttChoice::Hybrid => {
                let mut w = vec![HardwareTarget::ONE_GPU];
                w.extend(cpu_workers());
                w
            }
            SttChoice::Auto => unreachable!("resolved above"),
        };
        Ok(RouteSpec::Pool {
            agent: agent.to_string(),
            workers,
        })
    }
}

/// Worker targets for a tool capability under the parallelism lever.
///
/// CPU workers are right-sized per capability so wide pools fit the
/// 192-core testbed alongside the 64-core STT pool (the profile's target
/// describes one *item's* resources; the pool decides fan-out).
fn pool_workers(cap: Capability, target: HardwareTarget, parallelism: u32) -> Vec<HardwareTarget> {
    let width = match cap {
        Capability::FrameExtraction => parallelism.min(16),
        Capability::ObjectDetection => parallelism.min(8),
        Capability::SpeechToText => parallelism.min(8),
        Capability::VectorStore => parallelism.min(2),
        _ => parallelism.min(4),
    }
    .max(1);
    let budget = match cap {
        Capability::FrameExtraction => 4,
        Capability::ObjectDetection => 2,
        Capability::VectorStore => 1,
        Capability::SpeechToText => 8,
        _ => 2,
    };
    let per_worker = match target {
        HardwareTarget::Cpu { cores } => HardwareTarget::cpu_cores(cores.min(budget).max(1)),
        HardwareTarget::Hybrid {
            gpus,
            gpu_share,
            cores,
        } => HardwareTarget::Hybrid {
            gpus,
            gpu_share,
            cores: cores.min(budget).max(1),
        },
        gpu => gpu,
    };
    vec![per_worker; width as usize]
}

/// Converts an engine outcome into a run report.
pub(crate) fn report_from_outcome(
    label: &str,
    outcome: EngineOutcome,
    quality: f64,
    rigid: bool,
    selections: &BTreeMap<String, String>,
) -> Result<RunReport, SimError> {
    let timeline = outcome
        .timeline
        .ok_or_else(|| SimError::InvalidState("a run report needs the engine's timeline".into()))?;
    Ok(RunReport {
        label: label.to_string(),
        makespan_s: outcome.makespan.as_secs_f64(),
        orchestration_s: outcome.orchestration.as_secs_f64(),
        energy_allocated_wh: outcome.energy_allocated_wh,
        energy_fleet_wh: timeline.energy_fleet_wh,
        cost_usd: outcome.cost_usd,
        quality,
        tasks: outcome.tasks_completed,
        rigid_deployment: rigid,
        trace: outcome.trace,
        gpu_util: timeline.gpu_util,
        cpu_util: timeline.cpu_util,
        selections: selections.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// Runs a closed-loop scenario (by default the paper's Video
    /// Understanding workload) through the shared pipeline.
    fn run(scenario: Scenario) -> Result<RunReport, SimError> {
        scenario.run()?.into_closed_loop()
    }

    #[test]
    fn video_understanding_runs_end_to_end() {
        let report = run(Scenario::closed_loop("murakkab-auto")).unwrap();
        // 16 scenes x (extract + stt + detect + scene-sum + embed + insert)
        // + 80 frame summaries.
        assert_eq!(report.tasks, 16 * 6 + 80);
        assert!(report.makespan_s > 10.0);
        assert!(report.makespan_s < 200.0, "{}", report.makespan_s);
        assert!(report.energy_allocated_wh > 0.0);
        assert!(report.quality >= 0.9);
        assert!(report.orchestration_s > 0.0);
        assert!(!report.trace.spans().is_empty());
    }

    #[test]
    fn stt_choices_change_the_outcome() {
        let gpu = run(Scenario::closed_loop("gpu").stt(SttChoice::Gpu)).unwrap();
        let cpu = run(Scenario::closed_loop("cpu").stt(SttChoice::Cpu)).unwrap();
        // The CPU configuration must not use the Whisper GPU; the GPU one
        // must.
        assert!(gpu.makespan_s != cpu.makespan_s);
        assert!(
            cpu.energy_allocated_wh < gpu.energy_allocated_wh,
            "cpu {} vs gpu {}",
            cpu.energy_allocated_wh,
            gpu.energy_allocated_wh
        );
    }

    #[test]
    fn auto_follows_min_cost_to_cpu() {
        // Listing 2 carries MIN_COST; Auto must behave like Cpu.
        let auto = run(Scenario::closed_loop("auto")).unwrap();
        let cpu = run(Scenario::closed_loop("cpu").stt(SttChoice::Cpu)).unwrap();
        assert!((auto.makespan_s - cpu.makespan_s).abs() < 1e-6);
        assert!((auto.energy_allocated_wh - cpu.energy_allocated_wh).abs() < 1e-6);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run(Scenario::closed_loop("a").seed(7).stt(SttChoice::Gpu)).unwrap();
        let b = run(Scenario::closed_loop("b").seed(7).stt(SttChoice::Gpu)).unwrap();
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.energy_allocated_wh, b.energy_allocated_wh);
        assert_eq!(a.trace.spans().len(), b.trace.spans().len());
    }

    #[test]
    fn newsfeed_job_runs_without_pinning() {
        let report = run(Scenario::closed_loop("newsfeed")
            .catalog_entry("newsfeed")
            .pin_paper_agents(false))
        .unwrap();
        assert_eq!(report.tasks, 3 * 12 + 2);
        assert!(report.makespan_s > 0.0);
    }
}
