//! The pluggable serving-backend layer.
//!
//! An LLM endpoint is no longer one concrete type: anything that speaks
//! the engine's event-loop contract — [`ServingBackend::on_submit`] when
//! a request arrives, [`ServingBackend::on_step`] when a scheduled step
//! event fires — can serve a model. The two stock backends are the
//! colocated continuous batcher ([`crate::engine::Endpoint`]) and the
//! disaggregated prefill/decode pair ([`crate::disagg::DisaggEndpoint`]);
//! future regimes (speculative decode, cache-affinity routing) slot in
//! behind the same seam.
//!
//! Event-loop contract: the host must schedule a step event for **every**
//! `Some(t)` a backend returns (from `on_submit` or `on_step`) and call
//! `on_step(t, horizon)` when it fires. Backends may re-arm earlier than a
//! previously returned time; they tolerate step calls at any time they
//! returned, even if nothing is due anymore. All backends are
//! seed-deterministic: identical call sequences produce identical
//! completions and levels.

use serde::{Deserialize, Serialize};

use murakkab_hardware::GpuSku;
use murakkab_sim::{SimDuration, SimError, SimTime};

use crate::cost::TpGroup;
use crate::disagg::DisaggEndpoint;
use crate::engine::{Completion, Endpoint, StepOutcome};
use crate::model::ModelSpec;
use crate::Request;

/// Smallest KV working set (tokens) a prefill instance must hold: room
/// for a handful of long prompts in flight between prefill and transfer.
pub const MIN_PREFILL_KV_TOKENS: u64 = 8_192;

/// Per-batch-lane KV floor (tokens) for sizing the decode instance: a
/// full batch of typical-context requests must fit resident.
pub const DECODE_KV_TOKENS_PER_LANE: u64 = 4_096;

/// How much wider a decode-only instance batches than a colocated
/// replica. The colocated iteration limit exists to bound prefill
/// head-of-line blocking (a long prompt charged into a shared iteration
/// stalls every lane); a decode-only instance has no prefill in its
/// iterations, and decode is weights-streaming-bound, so extra lanes
/// amortize the same HBM traffic nearly for free. KV capacity still
/// caps the width below.
pub const DISAGG_DECODE_BATCH_FACTOR: u32 = 4;

/// Which serving regime the runtime deploys endpoints under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ServingMode {
    /// One replica runs prefill and decode on the same TP group
    /// (continuous batching; the classical deployment).
    #[default]
    Colocated,
    /// Separate prefill and decode instances with a modeled KV transfer
    /// between them. Falls back to colocated per endpoint when the GPU
    /// budget cannot hold two instances of the model.
    Disaggregated,
}

impl ServingMode {
    /// A short stable tag for report labels and JSON keys.
    pub fn tag(&self) -> &'static str {
        match self {
            ServingMode::Colocated => "colocated",
            ServingMode::Disaggregated => "disaggregated",
        }
    }
}

/// Concrete deployment shape of one serving endpoint — what the backend
/// factory consumes and the routing layer carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// A single colocated replica.
    Colocated {
        /// GPUs in the tensor-parallel group.
        gpus: u32,
        /// Iteration batch limit.
        max_batch: u32,
    },
    /// A disaggregated prefill/decode pair.
    Disaggregated {
        /// GPUs in the prefill TP group.
        prefill_gpus: u32,
        /// GPUs in the decode TP group.
        decode_gpus: u32,
        /// Decode iteration batch limit.
        max_batch: u32,
    },
}

impl BackendSpec {
    /// Total GPUs the deployment holds.
    pub fn gpus_total(&self) -> u32 {
        match *self {
            BackendSpec::Colocated { gpus, .. } => gpus,
            BackendSpec::Disaggregated {
                prefill_gpus,
                decode_gpus,
                ..
            } => prefill_gpus + decode_gpus,
        }
    }

    /// The iteration batch limit.
    pub fn max_batch(&self) -> u32 {
        match *self {
            BackendSpec::Colocated { max_batch, .. }
            | BackendSpec::Disaggregated { max_batch, .. } => max_batch,
        }
    }

    /// The serving mode this spec deploys.
    pub fn mode(&self) -> ServingMode {
        match self {
            BackendSpec::Colocated { .. } => ServingMode::Colocated,
            BackendSpec::Disaggregated { .. } => ServingMode::Disaggregated,
        }
    }

    /// The GPU split as `(prefill, decode)` groups (a colocated replica
    /// is one group serving both phases).
    pub fn phase_gpus(&self) -> (u32, u32) {
        match *self {
            BackendSpec::Colocated { gpus, .. } => (gpus, gpus),
            BackendSpec::Disaggregated {
                prefill_gpus,
                decode_gpus,
                ..
            } => (prefill_gpus, decode_gpus),
        }
    }
}

/// A simulated model-serving endpoint behind the engine's event loop.
///
/// Object-safe: hosts hold `Box<dyn ServingBackend>` and never name the
/// concrete backend type. `Send` so an engine that owns backends can be
/// stepped on a worker thread between fleet synchronization epochs.
pub trait ServingBackend: std::fmt::Debug + Send {
    /// The served model.
    fn model(&self) -> &ModelSpec;

    /// Total GPUs this backend holds.
    fn gpu_count(&self) -> u32;

    /// Live + queued request count (load signal for routing policies).
    fn load(&self) -> usize;

    /// Current KV occupancy fraction of the pool that gates admission
    /// (the decode pool for disaggregated backends) — the KV-aware
    /// routing signal.
    fn kv_occupancy(&self) -> f64;

    /// Current combined GPU-activity level across the deployment.
    fn util_level(&self) -> f64;

    /// Current GPU-activity level per phase as `(prefill, decode)`.
    fn phase_levels(&self) -> (f64, f64) {
        let l = self.util_level();
        (l, l)
    }

    /// Cumulative busy time per phase as `(prefill, decode)`.
    fn phase_busy(&self) -> (SimDuration, SimDuration);

    /// GPUs per phase as `(prefill, decode)` (equal for colocated).
    fn phase_gpus(&self) -> (u32, u32);

    /// Submits a request; `Some(t)` asks the host to schedule a step
    /// event at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if the request can never fit.
    fn on_submit(&mut self, req: Request, now: SimTime) -> Result<Option<SimTime>, SimError>;

    /// Handles a step event scheduled for `now`, appending the requests
    /// that finish at `now` to `completions` — a buffer the host owns and
    /// reuses across steps. `horizon` is the
    /// exclusive instant before which nothing else touches the backend;
    /// a backend may run follow-on iterations that end before it in
    /// place and report them in [`StepOutcome::iterations`]. Passing
    /// `horizon = now` runs exactly one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] when the step breaks the
    /// backend's bookkeeping (e.g. no step was outstanding).
    fn on_step(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        completions: &mut Vec<Completion>,
    ) -> Result<StepOutcome, SimError>;

    /// Drains the backend synchronously, returning all completions.
    /// Test/measurement helper — production use goes through the event
    /// loop.
    ///
    /// # Errors
    ///
    /// Propagates [`on_step`](Self::on_step) errors.
    fn drain(&mut self, now: SimTime) -> Result<(Vec<Completion>, SimTime), SimError>;
}

/// Smallest TP group of `sku` GPUs whose KV capacity for `model` reaches
/// `floor` tokens, searching up to `cap` GPUs.
fn min_gpus_for_kv(model: &ModelSpec, sku: &GpuSku, floor: u64, cap: u32) -> Option<u32> {
    (1..=cap).find(|&n| TpGroup::new(sku.clone(), n).kv_capacity_tokens(model) >= floor)
}

/// KV-aware prefill/decode split of a `gpus`-GPU budget: the prefill
/// group is the smallest that holds the model plus a minimal in-flight
/// working set; decode takes the remainder and must hold a full batch of
/// typical contexts. `None` when the budget cannot hold two instances.
pub fn disagg_split(
    model: &ModelSpec,
    sku: &GpuSku,
    gpus: u32,
    max_batch: u32,
) -> Option<(u32, u32)> {
    let prefill = min_gpus_for_kv(model, sku, MIN_PREFILL_KV_TOKENS, gpus)?;
    let decode_floor = u64::from(max_batch) * DECODE_KV_TOKENS_PER_LANE;
    let decode_min = min_gpus_for_kv(model, sku, decode_floor, gpus)?;
    (prefill + decode_min <= gpus).then_some((prefill, gpus - prefill))
}

/// Plans the deployment shape for an endpoint: KV-occupancy-aware (the
/// group grows beyond `gpus` until the model plus a minimal working set
/// fit) and phase-aware (under [`ServingMode::Disaggregated`] the budget
/// splits into paired prefill/decode groups, falling back to colocated
/// when it cannot).
pub fn plan_backend(
    model: &ModelSpec,
    sku: &GpuSku,
    gpus: u32,
    max_batch: u32,
    mode: ServingMode,
) -> BackendSpec {
    let gpus = min_gpus_for_kv(model, sku, MIN_PREFILL_KV_TOKENS, gpus.max(1) * 4)
        .map_or(gpus, |min| min.max(gpus));
    match mode {
        ServingMode::Colocated => BackendSpec::Colocated { gpus, max_batch },
        ServingMode::Disaggregated => match disagg_split(model, sku, gpus, max_batch) {
            Some((prefill_gpus, decode_gpus)) => {
                let kv_lanes = (TpGroup::new(sku.clone(), decode_gpus).kv_capacity_tokens(model)
                    / DECODE_KV_TOKENS_PER_LANE)
                    .min(u64::from(u32::MAX)) as u32;
                BackendSpec::Disaggregated {
                    prefill_gpus,
                    decode_gpus,
                    max_batch: (max_batch * DISAGG_DECODE_BATCH_FACTOR)
                        .min(kv_lanes)
                        .max(max_batch),
                }
            }
            None => BackendSpec::Colocated { gpus, max_batch },
        },
    }
}

/// Builds a serving backend from its deployment spec — the single
/// construction seam every host goes through. `interconnect_gbps` is the
/// effective device-to-device bandwidth available for KV transfers
/// (ignored by colocated backends).
///
/// # Errors
///
/// Returns [`SimError::InvalidInput`] for shapes that cannot serve the
/// model (zero batch, groups too small for the weights).
pub fn build_backend(
    name: &str,
    model: ModelSpec,
    sku: GpuSku,
    spec: &BackendSpec,
    interconnect_gbps: f64,
) -> Result<Box<dyn ServingBackend>, SimError> {
    match *spec {
        BackendSpec::Colocated { gpus, max_batch } => Ok(Box::new(Endpoint::try_new(
            name,
            model,
            TpGroup::new(sku, gpus),
            max_batch,
        )?)),
        BackendSpec::Disaggregated {
            prefill_gpus,
            decode_gpus,
            max_batch,
        } => Ok(Box::new(DisaggEndpoint::try_new(
            name,
            model,
            TpGroup::new(sku.clone(), prefill_gpus),
            TpGroup::new(sku, decode_gpus),
            max_batch,
            interconnect_gbps,
        )?)),
    }
}

impl ServingBackend for Endpoint {
    fn model(&self) -> &ModelSpec {
        Endpoint::model(self)
    }

    fn gpu_count(&self) -> u32 {
        Endpoint::gpu_count(self)
    }

    fn load(&self) -> usize {
        Endpoint::load(self)
    }

    fn kv_occupancy(&self) -> f64 {
        Endpoint::kv_occupancy(self)
    }

    fn util_level(&self) -> f64 {
        Endpoint::util_level(self)
    }

    fn phase_busy(&self) -> (SimDuration, SimDuration) {
        Endpoint::phase_busy(self)
    }

    fn phase_gpus(&self) -> (u32, u32) {
        (Endpoint::gpu_count(self), Endpoint::gpu_count(self))
    }

    fn on_submit(&mut self, req: Request, now: SimTime) -> Result<Option<SimTime>, SimError> {
        Endpoint::on_submit(self, req, now)
    }

    fn on_step(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        completions: &mut Vec<Completion>,
    ) -> Result<StepOutcome, SimError> {
        Endpoint::on_step(self, now, horizon, completions)
    }

    fn drain(&mut self, now: SimTime) -> Result<(Vec<Completion>, SimTime), SimError> {
        Ok(Endpoint::drain(self, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use murakkab_hardware::catalog;

    #[test]
    fn split_conserves_the_gpu_budget() {
        let m = model::nvlm_72b();
        let sku = catalog::a100_80g();
        let (p, d) = disagg_split(&m, &sku, 8, 3).expect("72B splits on 8 GPUs");
        assert_eq!(p + d, 8);
        // 72B weights need 3 A100-80Gs before any KV fits.
        assert_eq!(p, 3);
        assert!(TpGroup::new(sku.clone(), p).kv_capacity_tokens(&m) >= MIN_PREFILL_KV_TOKENS);
        assert!(TpGroup::new(sku, d).kv_capacity_tokens(&m) >= 3 * DECODE_KV_TOKENS_PER_LANE);
    }

    #[test]
    fn small_budget_falls_back_to_colocated() {
        let m = model::llama3_8b();
        let sku = catalog::a100_80g();
        assert!(disagg_split(&m, &sku, 1, 16).is_none());
        let spec = plan_backend(&m, &sku, 1, 16, ServingMode::Disaggregated);
        assert_eq!(
            spec,
            BackendSpec::Colocated {
                gpus: 1,
                max_batch: 16
            }
        );
    }

    #[test]
    fn planning_grows_groups_that_cannot_hold_the_model() {
        // 1 GPU cannot hold 72B weights; KV-aware planning bumps it.
        let m = model::nvlm_72b();
        let sku = catalog::a100_80g();
        let spec = plan_backend(&m, &sku, 1, 4, ServingMode::Colocated);
        let BackendSpec::Colocated { gpus, .. } = spec else {
            panic!("colocated requested");
        };
        assert!(gpus >= 3, "planned {gpus} GPUs");
        assert!(TpGroup::new(sku, gpus).kv_capacity_tokens(&m) > 0);
    }

    #[test]
    fn factory_builds_both_backends() {
        let sku = catalog::a100_80g();
        let spec = plan_backend(&model::nvlm_72b(), &sku, 8, 3, ServingMode::Disaggregated);
        assert_eq!(spec.mode(), ServingMode::Disaggregated);
        assert_eq!(spec.gpus_total(), 8);
        let be = build_backend(
            "d",
            model::nvlm_72b(),
            sku.clone(),
            &spec,
            sku.interconnect_gbps,
        )
        .expect("builds");
        assert_eq!(be.gpu_count(), 8);
        assert_ne!(be.phase_gpus().0, be.phase_gpus().1);

        let co = BackendSpec::Colocated {
            gpus: 8,
            max_batch: 3,
        };
        let be = build_backend(
            "c",
            model::nvlm_72b(),
            sku.clone(),
            &co,
            sku.interconnect_gbps,
        )
        .expect("builds");
        assert_eq!(be.phase_gpus(), (8, 8));
    }

    #[test]
    fn factory_rejects_degenerate_shapes() {
        let sku = catalog::a100_80g();
        let zero_batch = BackendSpec::Colocated {
            gpus: 8,
            max_batch: 0,
        };
        assert!(build_backend(
            "bad",
            model::nvlm_72b(),
            sku.clone(),
            &zero_batch,
            sku.interconnect_gbps
        )
        .is_err());
        let too_small = BackendSpec::Disaggregated {
            prefill_gpus: 1,
            decode_gpus: 7,
            max_batch: 3,
        };
        assert!(build_backend(
            "bad",
            model::nvlm_72b(),
            sku.clone(),
            &too_small,
            sku.interconnect_gbps
        )
        .is_err());
    }
}
