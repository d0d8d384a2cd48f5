//! Continuous-batching serving engine.
//!
//! The engine advances in *iterations* (decode steps). New requests are
//! admitted at iteration boundaries if the batch has room and the KV pool
//! can hold their full footprint; an admitted request charges its prefill
//! time to the next iteration, then generates one token per iteration until
//! it reaches its output length (iteration-level / continuous batching).
//!
//! The engine owns no clock. The embedding event loop calls:
//!
//! 1. [`Endpoint::on_submit`] when a request arrives — if the engine was
//!    idle, the returned time must be scheduled as the next step event;
//! 2. [`Endpoint::on_step`] when that event fires — completions are
//!    appended to a buffer the caller owns and the next step time (if
//!    any) must be scheduled.
//!
//! A step may run more than one iteration. When the iteration ending at
//! `now` completes nothing, the iterations after it are pure functions
//! of `(batch, resident tokens)` until the next one that completes a
//! request: the batch does not change, so neither do the KV occupancy
//! or the utilization level. The host passes a `horizon` before which
//! nothing else can touch the endpoint, and the step runs those
//! iterations in place, O(1) each, stopping before the first boundary
//! at or past the horizon and before the first iteration that would
//! complete a request. `SimTime` is integer µs, so the sums match the
//! iteration-by-iteration path exactly.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use murakkab_sim::{SimDuration, SimError, SimTime};

use crate::cost::{decode_step_time, prefill_time, TpGroup};
use crate::kv::KvCachePool;
use crate::model::ModelSpec;
use crate::Request;

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Caller's request id.
    pub id: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Admission (start of prefill) time.
    pub started: SimTime,
    /// Instant the first output token left the model.
    pub first_token: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Tokens generated.
    pub output_tokens: u32,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_duration_since(self.submitted)
    }

    /// Time to first token (submission → first output token).
    pub fn ttft(&self) -> SimDuration {
        self.first_token.saturating_duration_since(self.submitted)
    }

    /// Mean time per output token after the first (zero for single-token
    /// outputs).
    pub fn tpot(&self) -> SimDuration {
        if self.output_tokens <= 1 {
            SimDuration::ZERO
        } else {
            self.finished
                .saturating_duration_since(self.first_token)
                .div_u64(u64::from(self.output_tokens - 1))
        }
    }
}

/// Result of one step event. The requests that finished at the step's
/// instant go to the completions buffer the caller passed in.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// When the next iteration ends, if the engine still has work.
    pub next_step: Option<SimTime>,
    /// Iterations the step ran: the one ending at its instant plus the
    /// follow-on iterations fast-forwarded before its horizon (at
    /// least 1).
    pub iterations: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    submitted: SimTime,
}

#[derive(Debug, Clone)]
struct Running {
    req: Request,
    submitted: SimTime,
    started: SimTime,
    first_token: Option<SimTime>,
    generated: u32,
}

/// GPU-group utilization while decoding a batch of the given size.
///
/// Decode is memory-bandwidth-bound: the compute units idle while HBM
/// streams weights, so measured decode *power* sits well below TDP
/// (~190-220 W on an A100) even though the GPU is "busy". The floor
/// models that; extra batch lanes push the compute units slightly
/// harder. Calibrated against Table 2 of the paper (see
/// murakkab-agents::calib). Shared by every serving backend.
pub(crate) fn decode_batch_util(batch: u32, max_batch: u32) -> f64 {
    if batch == 0 {
        0.0
    } else {
        (0.30 + 0.06 * f64::from(batch) / f64::from(max_batch)).min(1.0)
    }
}

/// A simulated LLM serving endpoint (one model replica on one TP group).
#[derive(Debug, Clone)]
pub struct Endpoint {
    name: String,
    model: ModelSpec,
    group: TpGroup,
    max_batch: u32,
    kv: KvCachePool,
    waiting: VecDeque<Pending>,
    running: Vec<Running>,
    step_pending: bool,
    armed_deadline: Option<SimTime>,
    pending_prefill: SimDuration,
    prefill_busy: SimDuration,
    decode_busy: SimDuration,
}

impl Endpoint {
    /// Creates an endpoint serving `model` on `group` with an iteration
    /// batch limit of `max_batch`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if the group cannot hold the
    /// model's weights (KV capacity zero) or `max_batch` is zero.
    pub fn try_new(
        name: impl Into<String>,
        model: ModelSpec,
        group: TpGroup,
        max_batch: u32,
    ) -> Result<Self, SimError> {
        if max_batch == 0 {
            return Err(SimError::InvalidInput("max_batch must be positive".into()));
        }
        let kv_tokens = group.kv_capacity_tokens(&model);
        if kv_tokens == 0 {
            return Err(SimError::InvalidInput(format!(
                "TP group of {} x {} cannot hold {}",
                group.n, group.sku.name, model.name
            )));
        }
        Ok(Endpoint {
            name: name.into(),
            model,
            group,
            max_batch,
            kv: KvCachePool::new(kv_tokens),
            waiting: VecDeque::new(),
            running: Vec::new(),
            step_pending: false,
            armed_deadline: None,
            pending_prefill: SimDuration::ZERO,
            prefill_busy: SimDuration::ZERO,
            decode_busy: SimDuration::ZERO,
        })
    }

    /// Creates an endpoint, panicking on invalid configuration (test
    /// convenience; production construction goes through
    /// [`Endpoint::try_new`] via the backend factory).
    ///
    /// # Panics
    ///
    /// Panics if the group cannot hold the model's weights (KV capacity
    /// zero) or `max_batch` is zero.
    pub fn new(name: impl Into<String>, model: ModelSpec, group: TpGroup, max_batch: u32) -> Self {
        Self::try_new(name, model, group, max_batch).expect("valid endpoint configuration")
    }

    /// The served model.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Number of GPUs this endpoint holds.
    pub fn gpu_count(&self) -> u32 {
        self.group.n
    }

    /// Live + queued request count (used by the orchestrator's
    /// resource-aware policy).
    pub fn load(&self) -> usize {
        self.waiting.len() + self.running.len()
    }

    /// Current KV occupancy fraction.
    pub fn kv_occupancy(&self) -> f64 {
        self.kv.occupancy()
    }

    /// Current GPU-activity level of the group: the running batch's
    /// decode level, zero when idle.
    pub fn util_level(&self) -> f64 {
        decode_batch_util(self.running.len() as u32, self.max_batch)
    }

    /// Submits a request.
    ///
    /// Returns `Some(t)` — the time of the next iteration boundary — if the
    /// engine was idle and the caller must now schedule a step event.
    /// Returns `None` if a step event is already outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if the request can never fit
    /// (footprint exceeds the whole KV pool).
    pub fn on_submit(&mut self, req: Request, now: SimTime) -> Result<Option<SimTime>, SimError> {
        if u64::from(req.total_tokens()) > self.kv.capacity() {
            return Err(SimError::InvalidInput(format!(
                "request {} needs {} KV tokens; endpoint {} holds {}",
                req.id,
                req.total_tokens(),
                self.name,
                self.kv.capacity()
            )));
        }
        self.waiting.push_back(Pending {
            req,
            submitted: now,
        });
        if self.step_pending {
            return Ok(None);
        }
        self.arm_next_step(now)
    }

    /// Handles the step event that was scheduled for `now`, appending
    /// the requests that finish at `now` to `completions` (a buffer the
    /// caller owns, so steady-state stepping allocates nothing).
    ///
    /// `horizon` is the exclusive instant before which nothing else
    /// touches this endpoint: no submission and no other event the host
    /// would order first. When the iteration ending at `now` completes
    /// nothing, the iterations whose boundaries fall before `horizon`
    /// run in place, up to (not including) the first one that would
    /// complete a request, and only the boundary after them is returned
    /// as `next_step`. `horizon <= now` runs exactly one iteration. A
    /// step that completes a request always runs one, since the host
    /// reacts to completions at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if no step event was
    /// outstanding (an event-loop bug) or a finishing request held no KV
    /// reservation.
    pub fn on_step(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        completions: &mut Vec<Completion>,
    ) -> Result<StepOutcome, SimError> {
        if !self.step_pending {
            return Err(SimError::InvalidState(format!(
                "{}: spurious step event",
                self.name
            )));
        }
        self.step_pending = false;
        self.armed_deadline = None;

        // Every running request produced one token this iteration; a
        // request whose prefill was charged to this iteration saw its
        // first token at the boundary. Finished requests are retained
        // out in place (order-preserving) — no batch-sized scratch Vec
        // per iteration.
        let finished_before = completions.len();
        let mut fault = None;
        let Self { running, kv, .. } = self;
        running.retain_mut(|r| {
            r.generated += 1;
            let first_token = *r.first_token.get_or_insert(now);
            if r.generated >= r.req.output_tokens {
                if let Err(e) = kv.release(r.req.id) {
                    fault.get_or_insert(SimError::InvalidState(format!(
                        "finishing request holds no KV reservation: {e}"
                    )));
                }
                completions.push(Completion {
                    id: r.req.id,
                    submitted: r.submitted,
                    started: r.started,
                    first_token,
                    finished: now,
                    output_tokens: r.generated,
                });
                false
            } else {
                true
            }
        });
        if let Some(e) = fault {
            return Err(e);
        }

        let mut next_step = self.arm_next_step(now)?;
        let mut iterations = 1;
        if let Some(deadline) = next_step.filter(|_| completions.len() == finished_before) {
            let (skipped, next) = self.fast_forward(deadline, horizon);
            iterations += skipped;
            next_step = Some(next);
        }
        Ok(StepOutcome {
            next_step,
            iterations,
        })
    }

    /// Admits what fits, computes the next iteration's duration, and
    /// returns the next boundary (or `None` when drained).
    fn arm_next_step(&mut self, now: SimTime) -> Result<Option<SimTime>, SimError> {
        // Admission: FIFO head-of-line (no reordering — determinism and
        // fairness over packing efficiency).
        while self.running.len() < self.max_batch as usize {
            let Some(head) = self.waiting.front() else {
                break;
            };
            let footprint = u64::from(head.req.total_tokens());
            if !self.kv.fits(footprint) {
                break;
            }
            let Some(p) = self.waiting.pop_front() else {
                break;
            };
            self.kv.reserve(p.req.id, footprint)?;
            self.pending_prefill += prefill_time(&self.model, &self.group, p.req.prompt_tokens);
            self.running.push(Running {
                req: p.req,
                submitted: p.submitted,
                started: now,
                first_token: None,
                generated: 0,
            });
        }

        if self.running.is_empty() {
            return Ok(None);
        }

        let batch = self.running.len() as u32;
        let prefill_part = std::mem::take(&mut self.pending_prefill);
        let decode_part = decode_step_time(&self.model, &self.group, batch, self.resident());
        self.prefill_busy += prefill_part;
        self.decode_busy += decode_part;
        let dur = prefill_part + decode_part;

        self.step_pending = true;
        let deadline = now + dur;
        self.armed_deadline = Some(deadline);
        Ok(Some(deadline))
    }

    /// Tokens resident in the running batch's KV (prompt plus output so
    /// far).
    fn resident(&self) -> u64 {
        self.running
            .iter()
            .map(|r| u64::from(r.req.prompt_tokens + r.generated))
            .sum()
    }

    /// Runs in place the iterations that follow the one armed to end at
    /// `deadline`, while their boundaries fall before `horizon` and none
    /// of them completes a request. Returns how many ran and the
    /// boundary left armed.
    ///
    /// Each skipped iteration is what [`Endpoint::on_step`] and
    /// [`Endpoint::arm_next_step`] would do at its boundary with nothing
    /// admitted and nothing finished: one token per running request,
    /// `batch` more resident tokens, and a decode-only duration. The
    /// batch and the KV reservations stay as they are, so
    /// [`Endpoint::util_level`] and [`Endpoint::kv_occupancy`] do too.
    fn fast_forward(&mut self, mut deadline: SimTime, horizon: SimTime) -> (u64, SimTime) {
        if deadline >= horizon {
            return (0, deadline);
        }
        // A waiting head that fits would join at the next boundary.
        // `arm_next_step` just admitted all it could and nothing is
        // released until a request finishes, so this only guards the
        // invariant.
        let admissible = self.waiting.front().is_some_and(|head| {
            self.running.len() < self.max_batch as usize
                && self.kv.fits(u64::from(head.req.total_tokens()))
        });
        // Tokens the closest-to-done request still needs: iteration
        // `k + 1` from here completes it when `k + 1 >= min_left`.
        let min_left = self
            .running
            .iter()
            .map(|r| r.req.output_tokens.saturating_sub(r.generated))
            .min();
        let Some(min_left) = min_left.filter(|_| !admissible) else {
            return (0, deadline);
        };
        let batch = self.running.len() as u32;
        let mut resident = self.resident();
        let first = deadline;
        let mut k = 0u32;
        while deadline < horizon && k + 1 < min_left {
            k += 1;
            resident += u64::from(batch);
            let dur = decode_step_time(&self.model, &self.group, batch, resident);
            self.decode_busy += dur;
            deadline += dur;
        }
        if k > 0 {
            for r in &mut self.running {
                r.generated += k;
                r.first_token.get_or_insert(first);
            }
            self.armed_deadline = Some(deadline);
        }
        (u64::from(k), deadline)
    }

    /// Cumulative busy time attributed to prefill vs decode across all
    /// iterations so far.
    pub fn phase_busy(&self) -> (SimDuration, SimDuration) {
        (self.prefill_busy, self.decode_busy)
    }

    /// Drains the endpoint synchronously: repeatedly steps until idle,
    /// returning all completions. Nothing else touches the endpoint, so
    /// every step fast-forwards as far as it can. Test/measurement
    /// helper — production use goes through the event loop.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint's own bookkeeping breaks (a step it armed
    /// is refused, or a finishing request holds no KV reservation).
    pub fn drain(&mut self, mut now: SimTime) -> (Vec<Completion>, SimTime) {
        let mut out = Vec::new();
        let mut next = if self.step_pending {
            // Honour the step armed by an earlier on_submit.
            self.armed_deadline
        } else {
            self.arm_next_step(now)
                .expect("admission reserves what fits")
        };
        while let Some(t) = next {
            now = t.max(now);
            next = self
                .on_step(now, SimTime::MAX, &mut out)
                .expect("drain steps only armed iterations")
                .next_step;
        }
        (out, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use murakkab_hardware::catalog;

    fn endpoint(max_batch: u32) -> Endpoint {
        Endpoint::new(
            "test",
            model::llama3_8b(),
            TpGroup::new(catalog::a100_80g(), 1),
            max_batch,
        )
    }

    #[test]
    fn single_request_completes() {
        let mut ep = endpoint(8);
        let t0 = SimTime::ZERO;
        let next = ep.on_submit(Request::new(1, 512, 64), t0).unwrap().unwrap();
        assert!(next > t0);
        let mut now = next;
        let mut done = Vec::new();
        loop {
            let o = ep.on_step(now, now, &mut done).unwrap();
            match o.next_step {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(done[0].output_tokens, 64);
        assert!(done[0].finished > t0);
        assert_eq!(ep.kv.used(), 0, "KV must be fully released");
        assert_eq!(ep.kv_occupancy(), 0.0);
    }

    #[test]
    fn batched_requests_share_iterations() {
        // Two identical requests submitted together should finish at the
        // same instant and far sooner than 2x the solo latency.
        let solo = {
            let mut ep = endpoint(8);
            ep.on_submit(Request::new(1, 256, 32), SimTime::ZERO)
                .unwrap();
            let (done, _) = ep.drain(SimTime::ZERO);
            done[0].latency()
        };
        let mut ep = endpoint(8);
        ep.on_submit(Request::new(1, 256, 32), SimTime::ZERO)
            .unwrap();
        ep.on_submit(Request::new(2, 256, 32), SimTime::ZERO)
            .unwrap();
        let (done, _) = ep.drain(SimTime::ZERO);
        assert_eq!(done.len(), 2);
        // The second request joins at the first iteration boundary, so it
        // trails the first by roughly one prefill+decode step — not by a
        // full solo latency.
        let gap = done[1].finished.saturating_duration_since(done[0].finished);
        assert!(
            gap.as_secs_f64() < 0.25 * solo.as_secs_f64(),
            "requests did not share the batch: gap {gap}, solo {solo}"
        );
        let pair = done[1].latency();
        assert!(
            pair.as_secs_f64() < 1.7 * solo.as_secs_f64(),
            "batching gave no speedup: solo {solo}, pair {pair}"
        );
    }

    #[test]
    fn max_batch_limits_concurrency() {
        let mut ep = endpoint(1);
        ep.on_submit(Request::new(1, 128, 16), SimTime::ZERO)
            .unwrap();
        ep.on_submit(Request::new(2, 128, 16), SimTime::ZERO)
            .unwrap();
        let (done, _) = ep.drain(SimTime::ZERO);
        assert_eq!(done.len(), 2);
        // Serialized: the second strictly after the first.
        assert!(done[1].finished > done[0].finished);
        assert!(done[1].started > done[1].submitted, "it queued");
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut ep = endpoint(8);
        let huge = Request::new(1, u32::MAX / 2, 1);
        assert!(matches!(
            ep.on_submit(huge, SimTime::ZERO),
            Err(SimError::InvalidInput(_))
        ));
    }

    #[test]
    fn submit_while_running_returns_none() {
        let mut ep = endpoint(8);
        let first = ep
            .on_submit(Request::new(1, 128, 16), SimTime::ZERO)
            .unwrap();
        assert!(first.is_some());
        let second = ep
            .on_submit(Request::new(2, 128, 16), SimTime::ZERO)
            .unwrap();
        assert!(second.is_none(), "step already armed");
    }

    #[test]
    fn spurious_step_is_a_typed_error() {
        let mut ep = endpoint(8);
        let err = ep
            .on_step(SimTime::ZERO, SimTime::MAX, &mut Vec::new())
            .expect_err("no step was armed");
        assert!(matches!(err, SimError::InvalidState(_)), "{err}");
        assert!(err.to_string().contains("spurious step event"), "{err}");
    }

    #[test]
    fn utilization_rises_with_batch_and_falls_idle() {
        let mut ep = endpoint(4);
        let mut armed = None;
        for i in 0..4 {
            armed = armed.or(ep
                .on_submit(Request::new(i, 128, 8), SimTime::ZERO)
                .unwrap());
        }
        // The first submission armed a one-lane iteration.
        assert!(ep.util_level() < 0.33, "one lane");
        let first = armed.expect("idle endpoint arms");
        ep.on_step(first, first, &mut Vec::new()).unwrap();
        // Full batch reaches the calibrated decode-power ceiling (0.36).
        assert!(ep.util_level() >= 0.355, "full batch util");
        ep.drain(first);
        assert_eq!(ep.util_level(), 0.0, "idle after drain");
    }

    #[test]
    fn kv_pressure_blocks_admission() {
        // Tiny model on 1 GPU: find a prompt size that fills most of KV.
        let m = model::llama3_8b();
        let g = TpGroup::new(catalog::a100_80g(), 1);
        let cap = g.kv_capacity_tokens(&m);
        let big = (cap as u32 / 3) * 2;
        let mut ep = Endpoint::new("kv", m, g, 8);
        ep.on_submit(Request::new(1, big, 8), SimTime::ZERO)
            .unwrap();
        ep.on_submit(Request::new(2, big, 8), SimTime::ZERO)
            .unwrap();
        let (done, _) = ep.drain(SimTime::ZERO);
        assert_eq!(done.len(), 2);
        // The second could not batch with the first (KV full): serialized.
        assert!(done[1].finished > done[0].finished);
    }

    #[test]
    fn throughput_batch_scaling_shape() {
        // 16 requests on max_batch 16 should take far less than 16x solo.
        let mk_reqs = |ep: &mut Endpoint| {
            for i in 0..16 {
                ep.on_submit(Request::new(i, 128, 32), SimTime::ZERO)
                    .unwrap();
            }
        };
        let mut wide = endpoint(16);
        mk_reqs(&mut wide);
        let (_, wide_end) = wide.drain(SimTime::ZERO);
        let mut narrow = endpoint(1);
        mk_reqs(&mut narrow);
        let (_, narrow_end) = narrow.drain(SimTime::ZERO);
        let speedup = narrow_end.as_secs_f64() / wide_end.as_secs_f64();
        assert!(
            speedup > 4.0,
            "continuous batching speedup only {speedup:.1}x"
        );
    }
}
