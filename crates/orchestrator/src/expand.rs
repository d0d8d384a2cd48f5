//! Logical-plan expansion into an instance-level task graph.
//!
//! A [`LogicalPlan`] says "transcribe speech, one task per scene"; this
//! module turns that into sixteen concrete `TaskNode`s wired to the right
//! per-scene predecessors. Instance-level edges are what let the scheduler
//! exploit the paper's optimisation (a): "executes STT transcription for
//! multiple scenes in parallel (leveraging dataflow structure from the
//! DAG)".

use serde::{Deserialize, Serialize};

use murakkab_agents::{calib, Capability, Work};
use murakkab_sim::SimError;
use murakkab_workflow::TaskGraph;

use crate::decompose::{Granularity, LogicalPlan};

/// Per-scene media metadata (what the frame extractor would discover).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneInfo {
    /// Scene duration in seconds.
    pub duration_s: f64,
    /// Speech seconds within the scene.
    pub audio_s: f64,
    /// Frames sampled from the scene.
    pub frames: u32,
}

/// One input video's metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MediaInfo {
    /// File name.
    pub file: String,
    /// Scene list.
    pub scenes: Vec<SceneInfo>,
}

impl MediaInfo {
    /// Total scene count.
    pub fn scene_count(&self) -> usize {
        self.scenes.len()
    }
}

/// Concrete inputs a logical plan is expanded against.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JobInputs {
    /// Video inputs (video-understanding archetype).
    pub media: Vec<MediaInfo>,
    /// Generic item count (newsfeed posts, CoT paths, documents...).
    pub items: u32,
}

impl JobInputs {
    /// Inputs consisting only of videos.
    pub fn videos(media: Vec<MediaInfo>) -> Self {
        JobInputs { media, items: 0 }
    }

    /// Inputs consisting only of `n` items.
    pub fn items(n: u32) -> Self {
        JobInputs {
            media: Vec::new(),
            items: n,
        }
    }

    /// Total scenes across all media.
    pub fn total_scenes(&self) -> usize {
        self.media.iter().map(MediaInfo::scene_count).sum()
    }

    /// Total frames across all media.
    pub fn total_frames(&self) -> u32 {
        self.media
            .iter()
            .flat_map(|m| m.scenes.iter())
            .map(|s| s.frames)
            .sum()
    }
}

/// The scope an instance is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    Job,
    Video(usize),
    Scene(usize, usize),
    Frame(usize, usize, usize),
    Item(usize),
}

/// Whether a producer at scope `a` feeds a consumer at scope `b`: they
/// must agree on their common defined prefix (video/scene/frame or item).
fn compatible(a: Scope, b: Scope) -> bool {
    use Scope::*;
    match (a, b) {
        (Job, _) | (_, Job) => true,
        (Item(i), Item(j)) => i == j,
        (Item(_), _) | (_, Item(_)) => false,
        (Video(v1), Video(v2)) => v1 == v2,
        (Video(v1), Scene(v2, _)) | (Scene(v2, _), Video(v1)) => v1 == v2,
        (Video(v1), Frame(v2, _, _)) | (Frame(v2, _, _), Video(v1)) => v1 == v2,
        (Scene(v1, s1), Scene(v2, s2)) => (v1, s1) == (v2, s2),
        (Scene(v1, s1), Frame(v2, s2, _)) | (Frame(v2, s2, _), Scene(v1, s1)) => {
            (v1, s1) == (v2, s2)
        }
        (Frame(v1, s1, f1), Frame(v2, s2, f2)) => (v1, s1, f1) == (v2, s2, f2),
    }
}

/// Expands a validated logical plan against inputs into a task graph.
///
/// # Errors
///
/// Returns [`SimError::InvalidInput`] when the plan needs inputs the job
/// does not have (e.g. per-scene stages without media) or the plan fails
/// validation.
pub fn expand(plan: &LogicalPlan, inputs: &JobInputs) -> Result<TaskGraph, SimError> {
    plan.validate()?;
    let mut graph = TaskGraph::new();
    // Per-stage instance lists: (scope, task id).
    let mut instances: Vec<Vec<(Scope, murakkab_workflow::TaskId)>> =
        Vec::with_capacity(plan.stages.len());

    for stage in &plan.stages {
        let mut list = Vec::new();
        match stage.granularity {
            Granularity::Job => {
                let work = work_for(stage.capability, stage.granularity, None, inputs);
                let id = graph.add_task(
                    format!("{}/job", stage.name),
                    stage.name.clone(),
                    stage.capability,
                    work,
                );
                list.push((Scope::Job, id));
            }
            Granularity::PerVideo => {
                require_media(stage, inputs)?;
                for (v, m) in inputs.media.iter().enumerate() {
                    let work = work_for(stage.capability, stage.granularity, None, inputs);
                    let id = graph.add_task(
                        format!("{}/{}", stage.name, m.file),
                        stage.name.clone(),
                        stage.capability,
                        work,
                    );
                    list.push((Scope::Video(v), id));
                }
            }
            Granularity::PerScene => {
                require_media(stage, inputs)?;
                for (v, m) in inputs.media.iter().enumerate() {
                    for (s, scene) in m.scenes.iter().enumerate() {
                        let work =
                            work_for(stage.capability, stage.granularity, Some(scene), inputs);
                        let id = graph.add_task(
                            format!("{}/{}/s{}", stage.name, m.file, s),
                            stage.name.clone(),
                            stage.capability,
                            work,
                        );
                        list.push((Scope::Scene(v, s), id));
                    }
                }
            }
            Granularity::PerFrame => {
                require_media(stage, inputs)?;
                for (v, m) in inputs.media.iter().enumerate() {
                    for (s, scene) in m.scenes.iter().enumerate() {
                        for f in 0..scene.frames {
                            let work =
                                work_for(stage.capability, stage.granularity, Some(scene), inputs);
                            let id = graph.add_task(
                                format!("{}/{}/s{}/f{}", stage.name, m.file, s, f),
                                stage.name.clone(),
                                stage.capability,
                                work,
                            );
                            list.push((Scope::Frame(v, s, f as usize), id));
                        }
                    }
                }
            }
            Granularity::PerItem => {
                if inputs.items == 0 {
                    return Err(SimError::InvalidInput(format!(
                        "stage {} fans per item but the job has no items",
                        stage.name
                    )));
                }
                for i in 0..inputs.items {
                    let work = work_for(stage.capability, stage.granularity, None, inputs);
                    let id = graph.add_task(
                        format!("{}/i{}", stage.name, i),
                        stage.name.clone(),
                        stage.capability,
                        work,
                    );
                    list.push((Scope::Item(i as usize), id));
                }
            }
        }
        instances.push(list);
    }

    // Wire instance-level dataflow.
    for (si, stage) in plan.stages.iter().enumerate() {
        for &(scope, id) in &instances[si] {
            for &dep in &stage.deps {
                for &(dscope, did) in &instances[dep] {
                    if compatible(dscope, scope) {
                        graph.add_edge(did, id)?;
                    }
                }
            }
        }
    }
    Ok(graph)
}

fn require_media(stage: &crate::decompose::Stage, inputs: &JobInputs) -> Result<(), SimError> {
    if inputs.media.is_empty() {
        return Err(SimError::InvalidInput(format!(
            "stage {} needs video inputs but the job has none",
            stage.name
        )));
    }
    Ok(())
}

/// The work one instance of `capability` at `granularity` carries.
fn work_for(
    capability: Capability,
    granularity: Granularity,
    scene: Option<&SceneInfo>,
    inputs: &JobInputs,
) -> Work {
    match capability {
        Capability::FrameExtraction => Work::VideoSeconds(scene.map_or(30.0, |s| s.duration_s)),
        Capability::SpeechToText => Work::AudioSeconds(scene.map_or(30.0, |s| s.audio_s)),
        Capability::ObjectDetection => Work::Frames(scene.map_or(10, |s| s.frames)),
        Capability::Summarization => match granularity {
            Granularity::PerFrame => Work::Tokens {
                prompt: calib::FRAME_SUMMARY_PROMPT_TOKENS,
                output: calib::FRAME_SUMMARY_OUTPUT_TOKENS,
            },
            Granularity::PerItem => Work::Tokens {
                prompt: 300,
                output: 60,
            },
            _ => Work::Tokens {
                prompt: calib::SCENE_SUMMARY_PROMPT_TOKENS,
                output: calib::SCENE_SUMMARY_OUTPUT_TOKENS,
            },
        },
        Capability::Embedding => Work::Tokens {
            prompt: calib::EMBED_PROMPT_TOKENS,
            output: calib::EMBED_OUTPUT_TOKENS,
        },
        Capability::SentimentAnalysis | Capability::WebSearch | Capability::Calculation => {
            Work::Items(1)
        }
        Capability::VectorStore => Work::Items(1),
        Capability::Ranking => Work::Items(inputs.items.max(1)),
        Capability::TextGeneration => match granularity {
            Granularity::PerItem => Work::Tokens {
                prompt: 512,
                output: 384,
            },
            _ => Work::Tokens {
                prompt: 700,
                output: 150,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{cot_plan, newsfeed_plan, video_understanding_plan};

    fn scene() -> SceneInfo {
        SceneInfo {
            duration_s: 36.0,
            audio_s: 36.0,
            frames: 10,
        }
    }

    /// The paper's two videos: 6 and 10 scenes.
    fn vu_inputs() -> JobInputs {
        JobInputs::videos(vec![
            MediaInfo {
                file: "cats.mov".into(),
                scenes: vec![scene(); 6],
            },
            MediaInfo {
                file: "formula_1.mov".into(),
                scenes: vec![scene(); 10],
            },
        ])
    }

    #[test]
    fn video_understanding_expands_to_instance_dag() {
        let g = expand(&video_understanding_plan(), &vu_inputs()).unwrap();
        // 16 scenes: extract+stt+detect+scene-sum+embed+insert = 6*16,
        // plus 160 frame summaries.
        assert_eq!(g.len(), 6 * 16 + 160);
        g.topo_sort().unwrap();
        // A frame summary depends only on its scene's extraction.
        let frame_task = g
            .tasks()
            .find(|t| t.name == "frame-summarize/cats.mov/s2/f3")
            .unwrap();
        let preds: Vec<String> = g
            .predecessors(frame_task.id)
            .map(|p| g.task(p).unwrap().name.clone())
            .collect();
        assert_eq!(preds, vec!["extract/cats.mov/s2"]);
        // A scene summary waits for stt, detection and all 10 frames.
        let reduce = g
            .tasks()
            .find(|t| t.name == "scene-summarize/cats.mov/s2")
            .unwrap();
        assert_eq!(g.predecessors(reduce.id).count(), 2 + 10);
    }

    #[test]
    fn scene_work_amounts_flow_through() {
        let mut inputs = vu_inputs();
        inputs.media[0].scenes[0].audio_s = 99.0;
        let g = expand(&video_understanding_plan(), &inputs).unwrap();
        let stt = g.tasks().find(|t| t.name == "stt/cats.mov/s0").unwrap();
        assert_eq!(stt.work, Work::AudioSeconds(99.0));
    }

    #[test]
    fn newsfeed_expands_per_item() {
        let g = expand(&newsfeed_plan(), &JobInputs::items(12)).unwrap();
        // fetch+sentiment+summarize per item, rank + compose once.
        assert_eq!(g.len(), 3 * 12 + 2);
        let rank = g.tasks().find(|t| t.stage == "rank").unwrap();
        assert_eq!(g.predecessors(rank.id).count(), 24);
    }

    #[test]
    fn cot_paths_fan_into_vote() {
        let g = expand(&cot_plan(), &JobInputs::items(5)).unwrap();
        assert_eq!(g.len(), 6);
        let vote = g.tasks().find(|t| t.stage == "vote").unwrap();
        assert_eq!(g.predecessors(vote.id).count(), 5);
    }

    #[test]
    fn missing_inputs_are_rejected() {
        assert!(expand(&video_understanding_plan(), &JobInputs::items(4)).is_err());
        assert!(expand(&newsfeed_plan(), &JobInputs::items(0)).is_err());
    }

    #[test]
    fn totals_helpers() {
        let inputs = vu_inputs();
        assert_eq!(inputs.total_scenes(), 16);
        assert_eq!(inputs.total_frames(), 160);
    }
}
