//! The imperative (Listing 1) programming model.
//!
//! Reproduces today's style: explicit components with concrete models,
//! provider credentials, hyper-parameters and hard resource
//! specifications, wired into a fixed flow. The baseline executor in
//! `murakkab` interprets an [`ImperativeWorkflow`] literally — no agent
//! substitution, no intra-task parallelism, no idle-resource harvesting —
//! exactly the rigidity §2 describes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use murakkab_agents::toolcall::ArgValue;
use murakkab_hardware::HardwareTarget;
use murakkab_sim::SimError;

/// A hard resource specification, as written in Listing 1
/// (`resources={GPUs: 1, GPU_Type: H100}` / `{CPUs: 2}` / `{PTUs: 4}`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResourceSpec {
    /// Dedicated GPUs of an (optionally) named type.
    Gpus {
        /// Number of GPUs.
        count: u32,
    },
    /// Dedicated CPU cores.
    Cpus {
        /// Number of cores.
        count: u32,
    },
    /// Provisioned Throughput Units against a hosted endpoint.
    Ptus {
        /// Number of PTUs.
        count: u32,
    },
}

impl ResourceSpec {
    /// The hardware target this spec pins execution to. PTUs buy a share
    /// of a hosted GPU endpoint; we model 1 PTU ≈ a half-GPU share.
    pub fn target(&self) -> HardwareTarget {
        match *self {
            ResourceSpec::Gpus { count } => HardwareTarget::gpus(count),
            ResourceSpec::Cpus { count } => HardwareTarget::cpu_cores(count),
            ResourceSpec::Ptus { count } => HardwareTarget::Gpu {
                count: 1,
                share: (0.5 * f64::from(count)).min(1.0),
            },
        }
    }
}

/// The kind of component, mirroring Listing 1's `Tool` / `MLModel` / `LLM`
/// constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentKind {
    /// A classical tool (OpenCV, ffmpeg, ...).
    Tool,
    /// A non-LLM ML model (Whisper, CLIP, ...).
    MlModel,
    /// A large language model.
    Llm,
}

/// One explicitly configured workflow component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Component kind.
    pub kind: ComponentKind,
    /// Concrete model/tool name ("Whisper", "llama", ...).
    pub name: String,
    /// Provider credential handle (`OPENAI_API_KEY`, ...). Stored opaque;
    /// its presence is part of the coupling the paper criticises.
    pub key: Option<String>,
    /// Model/tool hyper-parameters (`sampling_rate: 15`,
    /// `context_len: 4096`, ...).
    pub params: BTreeMap<String, ArgValue>,
    /// Hard resource specification.
    pub resources: ResourceSpec,
    /// Optional system prompt (LLM components).
    pub system_prompt: Option<String>,
    /// Optional user prompt template (LLM components).
    pub user_prompt: Option<String>,
}

impl Component {
    /// Starts building a `Tool` component.
    pub fn tool(name: &str) -> ComponentBuilder {
        ComponentBuilder::new(ComponentKind::Tool, name)
    }

    /// Starts building an `MLModel` component.
    pub fn ml_model(name: &str) -> ComponentBuilder {
        ComponentBuilder::new(ComponentKind::MlModel, name)
    }

    /// Starts building an `LLM` component.
    pub fn llm(name: &str) -> ComponentBuilder {
        ComponentBuilder::new(ComponentKind::Llm, name)
    }
}

/// Builder for [`Component`].
#[derive(Debug, Clone)]
pub struct ComponentBuilder {
    c: Component,
}

impl ComponentBuilder {
    fn new(kind: ComponentKind, name: &str) -> Self {
        ComponentBuilder {
            c: Component {
                kind,
                name: name.to_string(),
                key: None,
                params: BTreeMap::new(),
                resources: ResourceSpec::Cpus { count: 1 },
                system_prompt: None,
                user_prompt: None,
            },
        }
    }

    /// Sets the provider credential handle.
    #[must_use]
    pub fn key(mut self, key: &str) -> Self {
        self.c.key = Some(key.to_string());
        self
    }

    /// Adds a hyper-parameter.
    #[must_use]
    pub fn param(mut self, name: &str, value: ArgValue) -> Self {
        self.c.params.insert(name.to_string(), value);
        self
    }

    /// Sets the resource specification.
    #[must_use]
    pub fn resources(mut self, spec: ResourceSpec) -> Self {
        self.c.resources = spec;
        self
    }

    /// Sets the system prompt.
    #[must_use]
    pub fn system_prompt(mut self, p: &str) -> Self {
        self.c.system_prompt = Some(p.to_string());
        self
    }

    /// Sets the user prompt.
    #[must_use]
    pub fn user_prompt(mut self, p: &str) -> Self {
        self.c.user_prompt = Some(p.to_string());
        self
    }

    /// Finishes the component.
    pub fn build(self) -> Component {
        self.c
    }
}

/// A fixed-flow imperative workflow: components plus an execution chain
/// (Listing 1 line 12: `Workflow(frame_ext -> stt -> obj_det -> summarize)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImperativeWorkflow {
    components: Vec<Component>,
    /// Edges as indices into `components`.
    flow: Vec<(usize, usize)>,
}

impl ImperativeWorkflow {
    /// Builds a linear chain in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] for an empty chain.
    pub fn chain(components: Vec<Component>) -> Result<Self, SimError> {
        if components.is_empty() {
            return Err(SimError::InvalidInput("empty workflow chain".into()));
        }
        let flow = (0..components.len().saturating_sub(1))
            .map(|i| (i, i + 1))
            .collect();
        Ok(ImperativeWorkflow { components, flow })
    }

    /// The components in declaration order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The flow edges (indices into [`ImperativeWorkflow::components`]).
    pub fn flow(&self) -> &[(usize, usize)] {
        &self.flow
    }

    /// Finds a component by model/tool name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] if absent.
    pub fn component(&self, name: &str) -> Result<&Component, SimError> {
        self.components
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| SimError::not_found("component", name))
    }
}

/// The paper's Listing 1: the Video Understanding workflow exactly as an
/// OmAgent-style deployment specifies it today.
pub fn listing1_video_understanding() -> ImperativeWorkflow {
    let frame_ext = Component::tool("OpenCV")
        .param("sampling_rate", ArgValue::Int(15))
        .key("ON_PREM_SSH_KEY")
        .resources(ResourceSpec::Cpus { count: 1 })
        .build();
    let stt = Component::ml_model("Whisper")
        .key("OPENAI_API_KEY")
        .resources(ResourceSpec::Gpus { count: 1 })
        .build();
    let obj_det = Component::ml_model("CLIP")
        .key("AWS_SSH_KEY")
        .resources(ResourceSpec::Cpus { count: 2 })
        .build();
    let summarize = Component::llm("NVLM")
        .key("DATABRICKS_API_KEY")
        .param("context_len", ArgValue::Int(4096))
        .resources(ResourceSpec::Gpus { count: 8 })
        .system_prompt("You are an agent that can describe images in detail.")
        .user_prompt("Summarize the scenes using frames, detected objects and transcripts.")
        .build();
    ImperativeWorkflow::chain(vec![frame_ext, stt, obj_det, summarize]).expect("non-empty chain")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_structure_matches_paper() {
        let wf = listing1_video_understanding();
        assert_eq!(wf.components().len(), 4);
        assert_eq!(wf.flow(), &[(0, 1), (1, 2), (2, 3)]);
        let stt = wf.component("Whisper").unwrap();
        assert_eq!(stt.resources, ResourceSpec::Gpus { count: 1 });
        let llm = wf.component("NVLM").unwrap();
        assert_eq!(llm.resources, ResourceSpec::Gpus { count: 8 });
        assert!(llm
            .system_prompt
            .as_ref()
            .unwrap()
            .contains("describe images"));
        assert_eq!(
            wf.component("OpenCV").unwrap().params["sampling_rate"],
            ArgValue::Int(15)
        );
    }

    #[test]
    fn resource_specs_map_to_targets() {
        assert_eq!(
            ResourceSpec::Gpus { count: 2 }.target(),
            HardwareTarget::gpus(2)
        );
        assert_eq!(
            ResourceSpec::Cpus { count: 8 }.target(),
            HardwareTarget::cpu_cores(8)
        );
        // 1 PTU = half a GPU; 4 PTUs cap at one full GPU share.
        assert_eq!(
            ResourceSpec::Ptus { count: 1 }.target(),
            HardwareTarget::Gpu {
                count: 1,
                share: 0.5
            }
        );
        assert_eq!(
            ResourceSpec::Ptus { count: 4 }.target(),
            HardwareTarget::Gpu {
                count: 1,
                share: 1.0
            }
        );
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(ImperativeWorkflow::chain(vec![]).is_err());
    }

    #[test]
    fn unknown_component_not_found() {
        let wf = listing1_video_understanding();
        assert!(wf.component("Gemini").is_err());
    }
}
