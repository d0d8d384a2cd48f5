//! The imperative baseline executor (Listing 1 / OmAgent-derived).
//!
//! §4: "the baseline workflow specifies a fixed execution without any
//! intra-task parallelism or opportunity to utilize idle resources. Each
//! scene and its constituent frames are processed sequentially."
//!
//! The baseline runs the *same* task instances as Murakkab (output and
//! accuracy are the same in all comparisons), but: every task is chained
//! after the previous one in scene/frame order; every component is pinned
//! to the Listing 1 agent and resource spec; pools are held for the whole
//! run (no workflow-aware release); and the energy report uses the fleet
//! scope, because the rigid deployment strands both testbed VMs.

use std::collections::BTreeMap;

use murakkab_agents::library::stock_library;
use murakkab_agents::{calib, Capability};
use murakkab_cluster::ClusterManager;
use murakkab_hardware::HardwareTarget;
use murakkab_orchestrator::{decompose, expand, JobInputs};
use murakkab_sim::{SimError, SimTime};
use murakkab_workflow::{TaskGraph, TaskId};

use crate::engine::{Engine, EngineOptions, RouteSpec};
use crate::report::RunReport;
use crate::runtime::report_from_outcome;
use crate::workloads;

/// Adds serialization edges so tasks execute strictly in scene/frame
/// order — the baseline's "no intra-task parallelism".
///
/// # Errors
///
/// Returns [`SimError::NotFound`] if the graph does not contain the
/// expected task names (it must come from the video-understanding plan
/// expanded over `inputs`).
pub fn serialize_video_graph(graph: &mut TaskGraph, inputs: &JobInputs) -> Result<(), SimError> {
    let by_name: BTreeMap<String, TaskId> = graph.tasks().map(|t| (t.name.clone(), t.id)).collect();
    let lookup = |name: &str| -> Result<TaskId, SimError> {
        by_name
            .get(name)
            .copied()
            .ok_or_else(|| SimError::not_found("task", name))
    };

    let mut order: Vec<TaskId> = Vec::new();
    for media in &inputs.media {
        for (s, scene) in media.scenes.iter().enumerate() {
            let f = &media.file;
            order.push(lookup(&format!("extract/{f}/s{s}"))?);
            order.push(lookup(&format!("stt/{f}/s{s}"))?);
            order.push(lookup(&format!("detect/{f}/s{s}"))?);
            for k in 0..scene.frames {
                order.push(lookup(&format!("frame-summarize/{f}/s{s}/f{k}"))?);
            }
            order.push(lookup(&format!("scene-summarize/{f}/s{s}"))?);
            order.push(lookup(&format!("embed/{f}/s{s}"))?);
            order.push(lookup(&format!("vector-insert/{f}/s{s}"))?);
        }
    }
    for w in order.windows(2) {
        // Serialization edges follow dataflow order, so they can never
        // introduce a cycle; duplicates of existing edges are harmless.
        graph.add_edge(w[0], w[1])?;
    }
    Ok(())
}

/// Runs the Listing 1 Video Understanding workflow on the paper testbed
/// and returns its report (the Figure 3 "Baseline" row).
///
/// # Errors
///
/// Propagates expansion, placement and execution errors.
pub fn run_baseline_video_understanding(seed: u64) -> Result<RunReport, SimError> {
    let library = stock_library();
    let inputs = workloads::paper_video_inputs(seed);
    let plan = decompose::video_understanding_plan();
    let mut graph = expand(&plan, &inputs)?;
    serialize_video_graph(&mut graph, &inputs)?;

    // The routes come from Listing 1 itself: each component's explicit
    // model and resource spec is honoured verbatim, plus the two support
    // stages (embeddings / VectorDB) the paper's setup section pins
    // (2 GPUs for embeddings; inserts on a CPU core).
    let listing1 = murakkab_workflow::imperative::listing1_video_understanding();
    let routes = routes_from_listing1(&listing1)?;

    let opts = EngineOptions {
        workflow_aware: false, // Rigid: resources held start to finish.
        orchestration: None,   // The flow is hard-coded, not planned.
        ..EngineOptions::default()
    };

    let cluster = ClusterManager::paper_testbed();
    let engine = Engine::new(cluster, &library, graph, routes, opts, SimTime::ZERO)?;
    let outcome = engine.run(SimTime::ZERO)?;

    // Baseline quality: same agents as Murakkab's pinned run.
    let quality = murakkab_agents::quality::compose(&[0.98, 0.97, 0.90, 0.93, 0.90, 0.95]);
    let selections = BTreeMap::from([
        ("FrameExtraction".into(), "OpenCV@1xCPU".into()),
        ("SpeechToText".into(), "Whisper@1xGPU".into()),
        ("ObjectDetection".into(), "CLIP@2xCPU".into()),
        ("Summarization".into(), "NVLM@8xGPU".into()),
        ("Embedding".into(), "NVLM-Embed@2xGPU".into()),
        ("VectorStore".into(), "VectorDB@1xCPU".into()),
    ]);
    report_from_outcome("baseline", outcome, quality, true, &selections)
}

/// Translates Listing 1's explicit components into engine routes: the
/// rigidity of the imperative model is precisely that this mapping is
/// fixed before the workflow ever runs.
///
/// # Errors
///
/// Returns [`SimError::InvalidInput`] when a component names an agent the
/// library does not serve as declared (the imperative model fails late,
/// at deploy time — another §2 pain point).
pub fn routes_from_listing1(
    wf: &murakkab_workflow::ImperativeWorkflow,
) -> Result<BTreeMap<Capability, RouteSpec>, SimError> {
    let mut routes = BTreeMap::new();
    for component in wf.components() {
        let target = component.resources.target();
        let (cap, route) = match component.name.as_str() {
            "OpenCV" => (
                Capability::FrameExtraction,
                RouteSpec::Pool {
                    agent: component.name.clone(),
                    workers: vec![target],
                },
            ),
            "Whisper" => (
                Capability::SpeechToText,
                RouteSpec::Pool {
                    agent: component.name.clone(),
                    workers: vec![target],
                },
            ),
            "CLIP" => (
                Capability::ObjectDetection,
                RouteSpec::Pool {
                    agent: component.name.clone(),
                    workers: vec![target],
                },
            ),
            "NVLM" => (
                Capability::Summarization,
                RouteSpec::Endpoint {
                    agent: component.name.clone(),
                    // The rigid baseline always deploys colocated
                    // replicas — pluggable backends are Murakkab's lever.
                    backend: murakkab_llmsim::BackendSpec::Colocated {
                        gpus: match component.resources {
                            murakkab_workflow::ResourceSpec::Gpus { count } => count,
                            _ => calib::NVLM_TEXT_GPUS,
                        },
                        max_batch: calib::NVLM_TEXT_MAX_BATCH,
                    },
                },
            ),
            other => {
                return Err(SimError::InvalidInput(format!(
                    "Listing 1 names a component the library cannot deploy: {other}"
                )));
            }
        };
        routes.insert(cap, route);
    }
    // The §4 setup's support stages, equally fixed.
    routes.insert(
        Capability::Embedding,
        RouteSpec::Endpoint {
            agent: "NVLM-Embed".into(),
            backend: murakkab_llmsim::BackendSpec::Colocated {
                gpus: calib::EMBED_GPUS,
                max_batch: calib::EMBED_MAX_BATCH,
            },
        },
    );
    routes.insert(
        Capability::VectorStore,
        RouteSpec::Pool {
            agent: "VectorDB".into(),
            workers: vec![HardwareTarget::cpu_cores(1)],
        },
    );
    Ok(routes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_fully_serialized() {
        let inputs = workloads::paper_video_inputs(42);
        let plan = decompose::video_understanding_plan();
        let mut graph = expand(&plan, &inputs).unwrap();
        let edges_before = graph.edge_count();
        serialize_video_graph(&mut graph, &inputs).unwrap();
        assert!(graph.edge_count() > edges_before);
        // With chain edges, at most one task is ever ready at a time.
        let mut done = std::collections::BTreeSet::new();
        for _ in 0..graph.len() {
            let ready = graph.ready(&done);
            assert_eq!(ready.len(), 1, "baseline frontier must be single-file");
            done.insert(ready[0]);
        }
    }

    #[test]
    fn routes_come_from_listing1_verbatim() {
        let wf = murakkab_workflow::imperative::listing1_video_understanding();
        let routes = routes_from_listing1(&wf).unwrap();
        let RouteSpec::Pool { agent, workers } = &routes[&Capability::SpeechToText] else {
            panic!("STT must be a pool");
        };
        assert_eq!(agent, "Whisper");
        assert_eq!(workers, &vec![HardwareTarget::ONE_GPU]);
        let RouteSpec::Endpoint { agent, backend } = &routes[&Capability::Summarization] else {
            panic!("summarisation must be an endpoint");
        };
        assert_eq!(agent, "NVLM");
        assert_eq!(backend.gpus_total(), 8);
    }

    #[test]
    fn unknown_imperative_component_fails_at_deploy_time() {
        let wf = murakkab_workflow::ImperativeWorkflow::chain(vec![
            murakkab_workflow::imperative::Component::ml_model("Gemini-Ultra").build(),
        ])
        .unwrap();
        assert!(routes_from_listing1(&wf).is_err());
    }

    #[test]
    fn baseline_runs_and_is_slow() {
        let report = run_baseline_video_understanding(42).unwrap();
        assert_eq!(report.tasks, 16 * 6 + 80);
        assert!(
            report.makespan_s > 150.0,
            "baseline should be slow, got {}",
            report.makespan_s
        );
        assert!(report.rigid_deployment);
        assert!(report.energy_fleet_wh > report.energy_allocated_wh);
        assert_eq!(report.orchestration_s, 0.0);
    }
}
