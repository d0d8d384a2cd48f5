//! Token-level LLM serving simulator.
//!
//! Murakkab's evaluation workflow leans on a shared LLM endpoint (NVLM on
//! 8 GPUs for text completion, 2 GPUs for embeddings). Whether parallelising
//! scene summarisation pays off depends on the *queueing and batching*
//! behaviour of that endpoint — so this crate simulates an LLM server at the
//! granularity that matters for scheduling:
//!
//! - a roofline cost model ([`cost`]) for prefill (compute-bound) and decode
//!   (memory-bandwidth-bound) phases on a tensor-parallel GPU group;
//! - a KV-cache pool ([`kv`]) with strict no-overcommit accounting;
//! - a continuous-batching engine ([`engine`]) with iteration-level
//!   admission, the scheduling policy used by modern inference servers.
//!
//! The engine is event-driven but owns no event loop: the embedding runtime
//! calls [`engine::Endpoint::on_submit`] and [`engine::Endpoint::on_step`]
//! and schedules the returned times on its own queue. That keeps the crate
//! deterministic and directly unit-testable.
//!
//! # Examples
//!
//! ```
//! use murakkab_hardware::catalog;
//! use murakkab_llmsim::{cost::TpGroup, engine::Endpoint, model, Request};
//! use murakkab_sim::SimTime;
//!
//! let tp = TpGroup::new(catalog::a100_80g(), 8);
//! let mut ep = Endpoint::new("nvlm-text", model::nvlm_72b(), tp, 16);
//! let next = ep.on_submit(Request::new(0, 1024, 256), SimTime::ZERO).unwrap();
//! assert!(next.is_some()); // engine was idle; first step scheduled
//! ```

pub mod backend;
pub mod cost;
pub mod disagg;
pub mod engine;
pub mod kv;
pub mod model;

pub use backend::{
    build_backend, disagg_split, plan_backend, BackendSpec, ServingBackend, ServingMode,
};
pub use cost::TpGroup;
pub use disagg::DisaggEndpoint;
pub use engine::{Completion, Endpoint, StepOutcome};
pub use kv::KvCachePool;
pub use model::ModelSpec;

use serde::{Deserialize, Serialize};

/// A generation request submitted to an [`Endpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen id, echoed back in the [`Completion`].
    pub id: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Number of tokens to generate.
    pub output_tokens: u32,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `output_tokens` is zero (a zero-output request would never
    /// complete a decode step).
    pub fn new(id: u64, prompt_tokens: u32, output_tokens: u32) -> Self {
        assert!(output_tokens > 0, "output_tokens must be positive");
        Request {
            id,
            prompt_tokens,
            output_tokens,
        }
    }

    /// Total KV-cache footprint at completion, in tokens.
    pub fn total_tokens(&self) -> u32 {
        self.prompt_tokens + self.output_tokens
    }
}
