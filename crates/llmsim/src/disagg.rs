//! Disaggregated prefill/decode serving.
//!
//! [`DisaggEndpoint`] splits one logical endpoint into two instances:
//!
//! - a **prefill** instance (own TP group, own KV pool) that runs one
//!   compute-bound prompt pass at a time; the request's first token
//!   leaves the model when its prefill finishes;
//! - a **decode** instance (own TP group, own KV pool) running
//!   iteration-level continuous batching over transferred contexts.
//!
//! Between them sits a modeled KV transfer over the GPU interconnect
//! (NVLink-class bandwidth from `murakkab-hardware`): the prompt's KV
//! pages stream from prefill HBM to decode HBM, overlapping with both
//! instances' compute. Decode-side admission reserves only the decode
//! footprint — a request holds prefill KV just while prefilling and
//! transferring, so a backed-up decode queue never blocks time-to-first-
//! token the way a shared colocated pool does.
//!
//! The endpoint speaks the same event-loop contract as the colocated
//! engine ([`crate::backend::ServingBackend`]): one externally visible
//! step stream, internally multiplexed over the three sub-schedules
//! (prefill completion, transfer completion, decode iteration).

use std::collections::VecDeque;

use murakkab_sim::{SimDuration, SimError, SimTime};

use crate::backend::ServingBackend;
use crate::cost::{decode_step_time, prefill_time, TpGroup};
use crate::engine::{decode_batch_util, Completion, EndpointStats, StepOutcome};
use crate::kv::KvCachePool;
use crate::model::ModelSpec;
use crate::Request;

/// GPU-activity level of the prefill instance while a prompt pass runs
/// (compute-bound large GEMMs drive the part near TDP, unlike decode).
const PREFILL_ACTIVE_UTIL: f64 = 0.85;

/// Fraction of the raw interconnect bandwidth KV transfers achieve.
const TRANSFER_EFFICIENCY: f64 = 0.80;

/// Fixed per-transfer handshake latency in seconds (layer-wise pulls,
/// ring setup).
const TRANSFER_LATENCY_S: f64 = 0.002;

#[derive(Debug, Clone)]
struct Queued {
    req: Request,
    submitted: SimTime,
}

#[derive(Debug, Clone)]
struct Prefilling {
    req: Request,
    submitted: SimTime,
    started: SimTime,
    done_at: SimTime,
}

#[derive(Debug, Clone)]
struct Transferring {
    req: Request,
    submitted: SimTime,
    started: SimTime,
    first_token: SimTime,
    done_at: SimTime,
}

#[derive(Debug, Clone)]
struct Staged {
    req: Request,
    submitted: SimTime,
    started: SimTime,
    first_token: SimTime,
}

#[derive(Debug, Clone)]
struct Decoding {
    req: Request,
    submitted: SimTime,
    started: SimTime,
    first_token: SimTime,
    generated: u32,
}

/// Which internal sub-schedule owns the next due event (fixed priority
/// at equal instants, so event interleaving is deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Due {
    Prefill,
    Transfer(usize),
    Decode,
}

/// A disaggregated prefill/decode serving endpoint.
#[derive(Debug, Clone)]
pub struct DisaggEndpoint {
    name: String,
    model: ModelSpec,
    prefill_group: TpGroup,
    decode_group: TpGroup,
    max_batch: u32,
    /// Effective KV-transfer bandwidth in bytes/s.
    transfer_bw: f64,
    prefill_kv: KvCachePool,
    decode_kv: KvCachePool,
    waiting_prefill: VecDeque<Queued>,
    prefilling: Option<Prefilling>,
    transfers: Vec<Transferring>,
    waiting_decode: VecDeque<Staged>,
    decoding: Vec<Decoding>,
    decode_deadline: Option<SimTime>,
    armed: Option<SimTime>,
    prefill_busy: SimDuration,
    decode_busy: SimDuration,
    transfer_bytes: f64,
    /// Current activity levels of the prefill and decode groups (what
    /// [`ServingBackend::phase_levels`] reports).
    prefill_util: f64,
    decode_util: f64,
    stats: EndpointStats,
}

impl DisaggEndpoint {
    /// Creates a disaggregated endpoint serving `model` on a paired
    /// prefill/decode deployment. `interconnect_gbps` is the raw
    /// device-to-device bandwidth available for KV transfers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if either group cannot hold the
    /// model's weights, `max_batch` is zero, or the interconnect
    /// bandwidth is not a positive finite number.
    pub fn try_new(
        name: impl Into<String>,
        model: ModelSpec,
        prefill_group: TpGroup,
        decode_group: TpGroup,
        max_batch: u32,
        interconnect_gbps: f64,
    ) -> Result<Self, SimError> {
        if max_batch == 0 {
            return Err(SimError::InvalidInput("max_batch must be positive".into()));
        }
        if !interconnect_gbps.is_finite() || interconnect_gbps <= 0.0 {
            return Err(SimError::InvalidInput(format!(
                "interconnect bandwidth must be positive and finite, got {interconnect_gbps}"
            )));
        }
        let name = name.into();
        let mut pools = [0u64; 2];
        for (i, (phase, group)) in [("prefill", &prefill_group), ("decode", &decode_group)]
            .into_iter()
            .enumerate()
        {
            let kv = group.kv_capacity_tokens(&model);
            if kv == 0 {
                return Err(SimError::InvalidInput(format!(
                    "{phase} TP group of {} x {} cannot hold {}",
                    group.n, group.sku.name, model.name
                )));
            }
            pools[i] = kv;
        }
        Ok(DisaggEndpoint {
            prefill_util: 0.0,
            decode_util: 0.0,
            name,
            model,
            prefill_group,
            decode_group,
            max_batch,
            transfer_bw: interconnect_gbps * 1e9 * TRANSFER_EFFICIENCY,
            prefill_kv: KvCachePool::new(pools[0]),
            decode_kv: KvCachePool::new(pools[1]),
            waiting_prefill: VecDeque::new(),
            prefilling: None,
            transfers: Vec::new(),
            waiting_decode: VecDeque::new(),
            decoding: Vec::new(),
            decode_deadline: None,
            armed: None,
            prefill_busy: SimDuration::ZERO,
            decode_busy: SimDuration::ZERO,
            transfer_bytes: 0.0,
            stats: EndpointStats::default(),
        })
    }

    /// Creates a disaggregated endpoint, panicking on invalid
    /// configuration (test convenience).
    ///
    /// # Panics
    ///
    /// Panics where [`DisaggEndpoint::try_new`] errors.
    pub fn new(
        name: impl Into<String>,
        model: ModelSpec,
        prefill_group: TpGroup,
        decode_group: TpGroup,
        max_batch: u32,
        interconnect_gbps: f64,
    ) -> Self {
        Self::try_new(
            name,
            model,
            prefill_group,
            decode_group,
            max_batch,
            interconnect_gbps,
        )
        .expect("valid disaggregated endpoint configuration")
    }

    /// The prefill KV pool.
    pub fn prefill_kv(&self) -> &KvCachePool {
        &self.prefill_kv
    }

    /// The decode KV pool.
    pub fn decode_kv(&self) -> &KvCachePool {
        &self.decode_kv
    }

    /// Total KV bytes moved prefill → decode so far.
    pub fn transfer_bytes(&self) -> f64 {
        self.transfer_bytes
    }

    /// The earliest due internal event, with the fixed tie-break order
    /// prefill → transfer → decode.
    fn next_due(&self) -> Option<(SimTime, Due)> {
        let mut best: Option<(SimTime, Due)> = None;
        let mut consider = |t: SimTime, d: Due| match best {
            Some((bt, _)) if bt <= t => {}
            _ => best = Some((t, d)),
        };
        if let Some(p) = &self.prefilling {
            consider(p.done_at, Due::Prefill);
        }
        for (i, tr) in self.transfers.iter().enumerate() {
            consider(tr.done_at, Due::Transfer(i));
        }
        if let Some(t) = self.decode_deadline {
            consider(t, Due::Decode);
        }
        best
    }

    /// Starts the next queued prefill at `now` if the instance is idle
    /// and the prompt's KV fits the prefill pool.
    fn try_start_prefill(&mut self, now: SimTime) {
        if self.prefilling.is_none() {
            if let Some(head) = self.waiting_prefill.front() {
                let footprint = u64::from(head.req.prompt_tokens.max(1));
                if self.prefill_kv.fits(footprint) {
                    let q = self.waiting_prefill.pop_front().expect("front checked");
                    self.prefill_kv
                        .reserve(q.req.id, footprint)
                        .expect("fits() checked above");
                    let dur = prefill_time(&self.model, &self.prefill_group, q.req.prompt_tokens);
                    self.prefill_busy += dur;
                    self.prefilling = Some(Prefilling {
                        req: q.req,
                        submitted: q.submitted,
                        started: now,
                        done_at: now + dur,
                    });
                }
            }
        }
        self.prefill_util = if self.prefilling.is_some() {
            PREFILL_ACTIVE_UTIL
        } else {
            0.0
        };
    }

    /// Admits staged requests into the decode batch and arms the next
    /// decode iteration (mirrors the colocated engine's admission:
    /// FIFO head-of-line, full decode footprint reserved up front).
    fn arm_decode(&mut self, now: SimTime) {
        while self.decoding.len() < self.max_batch as usize {
            let Some(head) = self.waiting_decode.front() else {
                break;
            };
            let footprint = u64::from(head.req.total_tokens());
            if !self.decode_kv.fits(footprint) {
                break;
            }
            let s = self.waiting_decode.pop_front().expect("front checked");
            self.decode_kv
                .reserve(s.req.id, footprint)
                .expect("fits() checked above");
            self.decoding.push(Decoding {
                req: s.req,
                submitted: s.submitted,
                started: s.started,
                first_token: s.first_token,
                generated: 0,
            });
        }

        if self.decoding.is_empty() {
            self.decode_util = 0.0;
            self.decode_deadline = None;
            return;
        }
        let batch = self.decoding.len() as u32;
        let resident: u64 = self
            .decoding
            .iter()
            .map(|r| u64::from(r.req.prompt_tokens + r.generated))
            .sum();
        let dur = decode_step_time(&self.model, &self.decode_group, batch, resident);
        self.decode_busy += dur;
        self.decode_util = decode_batch_util(batch, self.max_batch);
        self.decode_deadline = Some(now + dur);
    }

    /// Processes every internal event due at or before `now`, in time
    /// order, appending completions to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] when a due event's request
    /// does not hold the KV reservation its phase implies.
    fn advance(&mut self, now: SimTime, out: &mut Vec<Completion>) -> Result<(), SimError> {
        while let Some((t, due)) = self.next_due().filter(|&(t, _)| t <= now) {
            match due {
                Due::Prefill => {
                    let p = self.prefilling.take().ok_or_else(|| {
                        SimError::InvalidState(format!(
                            "{}: prefill completion due with no prefill running",
                            self.name
                        ))
                    })?;
                    // The first output token leaves the prefill instance
                    // now; its KV pages start streaming to decode HBM.
                    let bytes =
                        self.model.kv_bytes_per_token * f64::from(p.req.prompt_tokens.max(1));
                    self.transfer_bytes += bytes;
                    let dur =
                        SimDuration::from_secs_f64(TRANSFER_LATENCY_S + bytes / self.transfer_bw);
                    self.transfers.push(Transferring {
                        req: p.req,
                        submitted: p.submitted,
                        started: p.started,
                        first_token: t,
                        done_at: t + dur,
                    });
                    self.try_start_prefill(t);
                }
                Due::Transfer(i) => {
                    let tr = self.transfers.remove(i);
                    self.prefill_kv.release(tr.req.id).map_err(|e| {
                        SimError::InvalidState(format!(
                            "{}: transferring request holds no prefill KV: {e}",
                            self.name
                        ))
                    })?;
                    self.waiting_decode.push_back(Staged {
                        req: tr.req,
                        submitted: tr.submitted,
                        started: tr.started,
                        first_token: tr.first_token,
                    });
                    // Freed prefill KV may unblock a stalled prompt.
                    self.try_start_prefill(t);
                    if self.decode_deadline.is_none() {
                        self.arm_decode(t);
                    }
                }
                Due::Decode => {
                    self.decode_deadline = None;
                    // Finished requests are retained out in place
                    // (order-preserving): no batch-sized Vec per step.
                    let mut fault = None;
                    let Self {
                        decoding,
                        decode_kv,
                        stats,
                        name,
                        ..
                    } = self;
                    decoding.retain_mut(|r| {
                        r.generated += 1;
                        stats.tokens_out.incr();
                        if r.generated < r.req.output_tokens {
                            return true;
                        }
                        if let Err(e) = decode_kv.release(r.req.id) {
                            fault.get_or_insert_with(|| {
                                SimError::InvalidState(format!(
                                    "{name}: finishing request holds no decode KV: {e}"
                                ))
                            });
                        }
                        let c = Completion {
                            id: r.req.id,
                            submitted: r.submitted,
                            started: r.started,
                            first_token: r.first_token,
                            finished: t,
                            output_tokens: r.generated,
                        };
                        stats.observe_completion(&c);
                        out.push(c);
                        false
                    });
                    if let Some(e) = fault {
                        return Err(e);
                    }
                    self.arm_decode(t);
                }
            }
        }
        Ok(())
    }
}

impl ServingBackend for DisaggEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn model(&self) -> &ModelSpec {
        &self.model
    }

    fn gpu_count(&self) -> u32 {
        self.prefill_group.n + self.decode_group.n
    }

    fn load(&self) -> usize {
        self.waiting_prefill.len()
            + usize::from(self.prefilling.is_some())
            + self.transfers.len()
            + self.waiting_decode.len()
            + self.decoding.len()
    }

    fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    fn kv_occupancy(&self) -> f64 {
        self.decode_kv.occupancy()
    }

    fn util_level(&self) -> f64 {
        let (p, d) = self.phase_levels();
        let (pg, dg) = (
            f64::from(self.prefill_group.n),
            f64::from(self.decode_group.n),
        );
        (p * pg + d * dg) / (pg + dg)
    }

    fn phase_levels(&self) -> (f64, f64) {
        (self.prefill_util, self.decode_util)
    }

    fn phase_busy(&self) -> (SimDuration, SimDuration) {
        (self.prefill_busy, self.decode_busy)
    }

    fn phase_gpus(&self) -> (u32, u32) {
        (self.prefill_group.n, self.decode_group.n)
    }

    fn on_submit(&mut self, req: Request, now: SimTime) -> Result<Option<SimTime>, SimError> {
        let prompt = u64::from(req.prompt_tokens.max(1));
        if prompt > self.prefill_kv.capacity() {
            return Err(SimError::InvalidInput(format!(
                "request {} needs {} prefill KV tokens; endpoint {} holds {}",
                req.id,
                prompt,
                self.name,
                self.prefill_kv.capacity()
            )));
        }
        if u64::from(req.total_tokens()) > self.decode_kv.capacity() {
            return Err(SimError::InvalidInput(format!(
                "request {} needs {} decode KV tokens; endpoint {} holds {}",
                req.id,
                req.total_tokens(),
                self.name,
                self.decode_kv.capacity()
            )));
        }
        self.stats.submitted.incr();
        self.waiting_prefill.push_back(Queued {
            req,
            submitted: now,
        });
        self.try_start_prefill(now);
        let next = self.next_due().map(|(t, _)| t);
        match (next, self.armed) {
            (Some(t), Some(a)) if t >= a => Ok(None),
            (Some(t), _) => {
                self.armed = Some(t);
                Ok(Some(t))
            }
            (None, _) => Ok(None),
        }
    }

    /// Runs one step per event: `horizon` is ignored, since the decode
    /// instance does not fast-forward yet.
    fn on_step(
        &mut self,
        now: SimTime,
        _horizon: SimTime,
        completions: &mut Vec<Completion>,
    ) -> Result<StepOutcome, SimError> {
        self.advance(now, completions)?;
        let next_step = self.next_due().map(|(t, _)| t);
        self.armed = next_step;
        Ok(StepOutcome {
            next_step,
            iterations: 1,
        })
    }

    fn drain(&mut self, mut now: SimTime) -> Result<(Vec<Completion>, SimTime), SimError> {
        let mut out = Vec::new();
        while let Some((t, _)) = self.next_due() {
            now = t.max(now);
            self.on_step(now, now, &mut out)?;
        }
        Ok((out, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::solo_latency;
    use crate::engine::Endpoint;
    use crate::model;
    use murakkab_hardware::catalog;

    fn disagg(max_batch: u32) -> DisaggEndpoint {
        DisaggEndpoint::new(
            "test-disagg",
            model::nvlm_72b(),
            TpGroup::new(catalog::a100_80g(), 3),
            TpGroup::new(catalog::a100_80g(), 5),
            max_batch,
            catalog::a100_80g().interconnect_gbps,
        )
    }

    #[test]
    fn single_request_completes_with_phases_in_order() {
        let mut ep = disagg(4);
        let next = ep
            .on_submit(Request::new(1, 512, 32), SimTime::ZERO)
            .unwrap()
            .expect("idle endpoint arms");
        assert!(next > SimTime::ZERO);
        let (done, end) = ep.drain(SimTime::ZERO).expect("drains");
        assert_eq!(done.len(), 1);
        let c = done[0];
        assert_eq!(c.output_tokens, 32);
        assert!(c.started <= c.first_token);
        assert!(c.first_token < c.finished);
        assert!(c.finished <= end);
        // Both pools fully drain.
        assert_eq!(ep.prefill_kv().used(), 0);
        assert_eq!(ep.decode_kv().used(), 0);
        assert_eq!(ep.stats().completed.get(), 1);
        assert!(ep.transfer_bytes() > 0.0);
    }

    #[test]
    fn ttft_tracks_prefill_not_decode_backlog() {
        // Saturate decode with a deep queue: later requests still get
        // their first token quickly because prefill is a separate
        // instance, while a colocated endpoint of the same total size
        // head-of-line blocks them.
        let n = 24;
        let mut dis = disagg(3);
        let mut co = Endpoint::new(
            "co",
            model::nvlm_72b(),
            TpGroup::new(catalog::a100_80g(), 8),
            3,
        );
        for i in 0..n {
            dis.on_submit(Request::new(i, 600, 48), SimTime::ZERO)
                .unwrap();
            co.on_submit(Request::new(i, 600, 48), SimTime::ZERO)
                .unwrap();
        }
        let (dis_done, _) = ServingBackend::drain(&mut dis, SimTime::ZERO).expect("drains");
        let (co_done, _) = co.drain(SimTime::ZERO);
        let p95 = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[(v.len() * 95).div_ceil(100).min(v.len()) - 1]
        };
        let dis_ttft = p95(dis_done.iter().map(|c| c.ttft().as_secs_f64()).collect());
        let co_ttft = p95(co_done.iter().map(|c| c.ttft().as_secs_f64()).collect());
        assert!(
            dis_ttft < co_ttft,
            "disaggregated TTFT p95 {dis_ttft:.2}s must beat colocated {co_ttft:.2}s"
        );
    }

    #[test]
    fn decode_admission_reserves_only_decode_footprint() {
        let mut ep = disagg(2);
        // Three requests: the third waits for decode admission, holding
        // no decode KV while staged.
        for i in 0..3 {
            ep.on_submit(Request::new(i, 256, 64), SimTime::ZERO)
                .unwrap();
        }
        // Step until two requests are decoding.
        let mut now = SimTime::ZERO;
        while ep.decoding.len() < 2 {
            let Some((t, _)) = ep.next_due() else { break };
            now = t;
            ep.on_step(now, now, &mut Vec::new()).expect("steps");
        }
        assert_eq!(ep.decoding.len(), 2);
        let expected: u64 = 2 * u64::from(Request::new(0, 256, 64).total_tokens());
        assert_eq!(ep.decode_kv().used(), expected);
        ServingBackend::drain(&mut ep, now).expect("drains");
        assert_eq!(ep.stats().completed.get(), 3);
    }

    #[test]
    fn steps_over_lost_kv_reservations_are_typed_errors() {
        // A transfer whose prefill KV is gone.
        let mut ep = disagg(4);
        ep.on_submit(Request::new(1, 512, 8), SimTime::ZERO)
            .unwrap();
        let (prefill_done, _) = ep.next_due().expect("prefill is due");
        ep.on_step(prefill_done, prefill_done, &mut Vec::new())
            .expect("prefill steps");
        let (transfer_done, _) = ep.next_due().expect("transfer is due");
        ep.prefill_kv.release(1).expect("held by the transfer");
        let err = ep
            .on_step(transfer_done, transfer_done, &mut Vec::new())
            .expect_err("spurious transfer step");
        assert!(matches!(err, SimError::InvalidState(_)), "{err}");
        assert!(err.to_string().contains("prefill KV"), "{err}");

        // A finishing decode whose KV is gone: the drain surfaces it.
        let mut ep = disagg(4);
        ep.on_submit(Request::new(2, 512, 1), SimTime::ZERO)
            .unwrap();
        let mut now = SimTime::ZERO;
        while ep.decoding.is_empty() {
            let (t, _) = ep.next_due().expect("work is due");
            now = t;
            ep.on_step(now, now, &mut Vec::new()).expect("steps");
        }
        ep.decode_kv.release(2).expect("held by the decode");
        let err = ServingBackend::drain(&mut ep, now).expect_err("spurious decode step");
        assert!(matches!(err, SimError::InvalidState(_)), "{err}");
        assert!(err.to_string().contains("decode KV"), "{err}");
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let mut ep = disagg(4);
        let huge = Request::new(1, u32::MAX / 2, 1);
        assert!(matches!(
            ep.on_submit(huge, SimTime::ZERO),
            Err(SimError::InvalidInput(_))
        ));
        assert_eq!(ep.load(), 0);
    }

    #[test]
    fn faster_interconnect_never_slows_completion() {
        let run = |gbps: f64| {
            let mut ep = DisaggEndpoint::new(
                "bw",
                model::nvlm_72b(),
                TpGroup::new(catalog::a100_80g(), 3),
                TpGroup::new(catalog::a100_80g(), 5),
                4,
                gbps,
            );
            for i in 0..8 {
                ep.on_submit(Request::new(i, 2_048, 16), SimTime::ZERO)
                    .unwrap();
            }
            let (_, end) = ServingBackend::drain(&mut ep, SimTime::ZERO).expect("drains");
            end
        };
        assert!(run(600.0) <= run(8.0), "NVLink must not lose to PCIe");
    }

    #[test]
    fn invalid_configurations_are_checked() {
        let m = model::nvlm_72b();
        let sku = catalog::a100_80g();
        // Prefill group too small for 72B weights.
        assert!(DisaggEndpoint::try_new(
            "bad",
            m.clone(),
            TpGroup::new(sku.clone(), 1),
            TpGroup::new(sku.clone(), 5),
            4,
            600.0
        )
        .is_err());
        // Zero batch.
        assert!(DisaggEndpoint::try_new(
            "bad",
            m.clone(),
            TpGroup::new(sku.clone(), 3),
            TpGroup::new(sku.clone(), 5),
            0,
            600.0
        )
        .is_err());
        // Degenerate interconnect.
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(DisaggEndpoint::try_new(
                "bad",
                m.clone(),
                TpGroup::new(sku.clone(), 3),
                TpGroup::new(sku.clone(), 5),
                4,
                bw
            )
            .is_err());
        }
    }

    #[test]
    fn deterministic_under_replay() {
        let run = || {
            let mut ep = disagg(3);
            for i in 0..12 {
                ep.on_submit(Request::new(i, 300 + 40 * i as u32, 24), SimTime::ZERO)
                    .unwrap();
            }
            let (done, end) = ServingBackend::drain(&mut ep, SimTime::ZERO).expect("drains");
            (done, end)
        };
        let (a, ea) = run();
        let (b, eb) = run();
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }

    #[test]
    fn solo_latency_is_dominated_by_model_time_not_transfer() {
        // With NVLink-class bandwidth the KV transfer is a rounding
        // error next to prefill+decode (the disaggregation literature's
        // premise).
        let mut ep = disagg(4);
        ep.on_submit(Request::new(1, 1_024, 32), SimTime::ZERO)
            .unwrap();
        let (done, _) = ServingBackend::drain(&mut ep, SimTime::ZERO).expect("drains");
        let lat = done[0].latency().as_secs_f64();
        let prefill = prefill_time(
            &model::nvlm_72b(),
            &TpGroup::new(catalog::a100_80g(), 3),
            1_024,
        );
        let decode_floor = solo_latency(
            &model::nvlm_72b(),
            &TpGroup::new(catalog::a100_80g(), 5),
            1_024,
            32,
        )
        .as_secs_f64()
            - prefill_time(
                &model::nvlm_72b(),
                &TpGroup::new(catalog::a100_80g(), 5),
                1_024,
            )
            .as_secs_f64();
        let model_time = prefill.as_secs_f64() + decode_floor;
        assert!(
            lat < model_time * 1.10,
            "latency {lat:.3}s vs model time {model_time:.3}s — transfer overhead too large"
        );
    }
}
