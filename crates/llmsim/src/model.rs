//! Served-model specifications.

use serde::{Deserialize, Serialize};

/// Static description of a served transformer model.
///
/// Only the quantities the roofline cost model needs: parameter count
/// (FLOPs and weight bytes) and per-token KV-cache footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name, e.g. `"NVLM-D-72B"`.
    pub name: String,
    /// Parameter count in billions.
    pub params_b: f64,
    /// Bytes per weight (2 for fp16/bf16).
    pub dtype_bytes: f64,
    /// KV-cache bytes per token (across all layers, K and V).
    pub kv_bytes_per_token: f64,
    /// Baseline quality score in `[0, 1]` used by the quality model.
    pub quality: f64,
}

impl ModelSpec {
    /// FLOPs needed to process one token (forward pass ≈ 2 × params).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.params_b * 1e9
    }

    /// Total weight bytes.
    pub fn weight_bytes(&self) -> f64 {
        self.params_b * 1e9 * self.dtype_bytes
    }
}

/// NVLM-D 72B — the paper's orchestrator and summarisation LLM.
pub fn nvlm_72b() -> ModelSpec {
    ModelSpec {
        name: "NVLM-D-72B".to_string(),
        params_b: 72.0,
        dtype_bytes: 2.0,
        // 80 layers × 8 KV heads × 128 head-dim × 2 (K,V) × 2 bytes.
        kv_bytes_per_token: 80.0 * 8.0 * 128.0 * 2.0 * 2.0,
        quality: 0.93,
    }
}

/// Llama-3 70B — the baseline workflow's summariser.
pub fn llama3_70b() -> ModelSpec {
    ModelSpec {
        name: "Llama-3-70B".to_string(),
        params_b: 70.0,
        dtype_bytes: 2.0,
        kv_bytes_per_token: 80.0 * 8.0 * 128.0 * 2.0 * 2.0,
        quality: 0.92,
    }
}

/// Llama-3 8B — a small/cheap summariser option for the model lever.
pub fn llama3_8b() -> ModelSpec {
    ModelSpec {
        name: "Llama-3-8B".to_string(),
        params_b: 8.0,
        dtype_bytes: 2.0,
        kv_bytes_per_token: 32.0 * 8.0 * 128.0 * 2.0 * 2.0,
        quality: 0.84,
    }
}

/// A 7B-class embedding model (the paper's VectorDB ingestion path).
pub fn embedder_7b() -> ModelSpec {
    ModelSpec {
        name: "NVLM-Embed-7B".to_string(),
        params_b: 7.0,
        dtype_bytes: 2.0,
        kv_bytes_per_token: 32.0 * 8.0 * 128.0 * 2.0 * 2.0,
        quality: 0.90,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_scale_with_params() {
        let m = nvlm_72b();
        assert_eq!(m.flops_per_token(), 144e9);
    }

    #[test]
    fn weight_bytes_match_dtype() {
        let m = llama3_8b();
        assert_eq!(m.weight_bytes(), 16e9);
    }

    #[test]
    fn presets_have_sane_quality() {
        for m in [nvlm_72b(), llama3_70b(), llama3_8b(), embedder_7b()] {
            assert!((0.5..=1.0).contains(&m.quality), "{}", m.name);
        }
        assert!(nvlm_72b().quality > llama3_8b().quality);
    }
}
