//! Property-based tests for the LLM serving simulator.

use murakkab_hardware::catalog;
use murakkab_llmsim::{
    cost, DisaggEndpoint, Endpoint, KvCachePool, Request, ServingBackend, TpGroup,
};
use murakkab_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Every admitted request completes with exactly its requested output
    /// tokens, and the KV pool drains to zero.
    #[test]
    fn drain_completes_everything_and_frees_kv(
        reqs in prop::collection::vec((1u32..2_000, 1u32..200), 1..40),
        max_batch in 1u32..16,
    ) {
        let mut ep = Endpoint::new(
            "prop",
            murakkab_llmsim::model::llama3_8b(),
            TpGroup::new(catalog::a100_80g(), 1),
            max_batch,
        );
        for (i, &(p, o)) in reqs.iter().enumerate() {
            ep.on_submit(Request::new(i as u64, p, o), SimTime::ZERO).unwrap();
        }
        let (done, end) = ep.drain(SimTime::ZERO);
        prop_assert_eq!(done.len(), reqs.len());
        for c in &done {
            prop_assert_eq!(c.output_tokens, reqs[c.id as usize].1);
            prop_assert!(c.started >= c.submitted);
            prop_assert!(c.finished > c.started);
            prop_assert!(c.finished <= end);
        }
        prop_assert_eq!(ep.util_level(), 0.0);
        prop_assert_eq!(ep.kv_occupancy(), 0.0);
    }

    /// The KV pool never over-commits and exactly balances reservations
    /// against releases under arbitrary operation sequences.
    #[test]
    fn kv_pool_conservation(
        ops in prop::collection::vec((any::<bool>(), 0u64..64, 1u64..5_000), 1..200),
        capacity in 1_000u64..100_000,
    ) {
        let mut pool = KvCachePool::new(capacity);
        let mut live: std::collections::BTreeMap<u64, u64> = Default::default();
        for &(is_reserve, id, tokens) in &ops {
            if is_reserve {
                match pool.reserve(id, tokens) {
                    Ok(()) => {
                        prop_assert!(!live.contains_key(&id));
                        live.insert(id, tokens);
                    }
                    Err(_) => {
                        // Either a duplicate or capacity exceeded.
                        let would = live.values().sum::<u64>() + tokens;
                        prop_assert!(live.contains_key(&id) || would > capacity);
                    }
                }
            } else {
                match pool.release(id) {
                    Ok(freed) => {
                        prop_assert_eq!(live.remove(&id), Some(freed));
                    }
                    Err(_) => prop_assert!(!live.contains_key(&id)),
                }
            }
            prop_assert_eq!(pool.used(), live.values().sum::<u64>());
            prop_assert!(pool.used() <= capacity);
        }
    }

    /// The peak watermark is exactly the running maximum of usage, never
    /// decreases, and always dominates current usage.
    #[test]
    fn kv_pool_peak_is_the_running_maximum(
        ops in prop::collection::vec((any::<bool>(), 0u64..32, 1u64..3_000), 1..150),
        capacity in 1_000u64..50_000,
    ) {
        let mut pool = KvCachePool::new(capacity);
        let mut expected_peak = 0u64;
        let mut last_peak = 0u64;
        for &(is_reserve, id, tokens) in &ops {
            if is_reserve {
                let _ = pool.reserve(id, tokens);
            } else {
                let _ = pool.release(id);
            }
            expected_peak = expected_peak.max(pool.used());
            prop_assert_eq!(pool.peak(), expected_peak);
            prop_assert!(pool.peak() >= pool.used());
            prop_assert!(pool.peak() >= last_peak, "peak must be monotone");
            last_peak = pool.peak();
        }
    }

    /// A second reservation under a live id is rejected without
    /// disturbing the first; releasing an id that holds nothing is
    /// rejected without disturbing anything.
    #[test]
    fn kv_pool_rejects_double_reserve_and_unknown_release(
        id in 0u64..64,
        first in 1u64..1_000,
        second in 1u64..1_000,
        ghost in 64u64..128,
    ) {
        let mut pool = KvCachePool::new(10_000);
        pool.reserve(id, first).unwrap();
        let before = pool.used();
        prop_assert!(pool.reserve(id, second).is_err(), "double reserve");
        prop_assert_eq!(pool.used(), before);
        prop_assert_eq!(pool.live_requests(), 1);
        prop_assert!(pool.release(ghost).is_err(), "unknown release");
        prop_assert_eq!(pool.used(), before);
        prop_assert_eq!(pool.release(id).unwrap(), first);
        prop_assert_eq!(pool.used(), 0);
    }

    /// The disaggregated backend completes every admitted request with
    /// its full output, drains both KV pools to zero, and orders every
    /// request's phase timestamps (prefill start ≤ first token < finish).
    #[test]
    fn disagg_drain_completes_everything_and_frees_both_pools(
        reqs in prop::collection::vec((1u32..2_000, 1u32..120), 1..30),
        max_batch in 1u32..12,
    ) {
        let mut ep = DisaggEndpoint::new(
            "prop-disagg",
            murakkab_llmsim::model::llama3_70b(),
            TpGroup::new(catalog::a100_80g(), 3),
            TpGroup::new(catalog::a100_80g(), 5),
            max_batch,
            catalog::a100_80g().interconnect_gbps,
        );
        for (i, &(p, o)) in reqs.iter().enumerate() {
            ep.on_submit(Request::new(i as u64, p, o), SimTime::ZERO).unwrap();
        }
        let (done, end) = ep.drain(SimTime::ZERO).unwrap();
        prop_assert_eq!(done.len(), reqs.len());
        for c in &done {
            prop_assert_eq!(c.output_tokens, reqs[c.id as usize].1);
            prop_assert!(c.started >= c.submitted);
            prop_assert!(c.started <= c.first_token);
            prop_assert!(c.first_token < c.finished);
            prop_assert!(c.finished <= end);
        }
        prop_assert_eq!(ep.prefill_kv().used(), 0);
        prop_assert_eq!(ep.decode_kv().used(), 0);
        prop_assert_eq!(ep.util_level(), 0.0);
    }

    /// Roofline costs are monotone: more prompt tokens never prefill
    /// faster; a bigger batch never decodes a step faster.
    #[test]
    fn cost_model_is_monotone(
        p1 in 1u32..8_000,
        p2 in 1u32..8_000,
        b1 in 1u32..32,
        b2 in 1u32..32,
        kv in 0u64..200_000,
    ) {
        let m = murakkab_llmsim::model::nvlm_72b();
        let g = TpGroup::new(catalog::a100_80g(), 8);
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        prop_assert!(cost::prefill_time(&m, &g, lo) <= cost::prefill_time(&m, &g, hi));
        let (bl, bh) = (b1.min(b2), b1.max(b2));
        prop_assert!(
            cost::decode_step_time(&m, &g, bl, kv) <= cost::decode_step_time(&m, &g, bh, kv)
        );
    }

    /// Batched throughput never loses to serial execution: draining N
    /// identical requests takes no longer than N times one request.
    #[test]
    fn batching_never_hurts(
        n in 2usize..24,
        prompt in 16u32..1_024,
        output in 1u32..128,
    ) {
        let mk = || Endpoint::new(
            "prop",
            murakkab_llmsim::model::llama3_8b(),
            TpGroup::new(catalog::a100_80g(), 1),
            16,
        );
        let mut solo = mk();
        solo.on_submit(Request::new(0, prompt, output), SimTime::ZERO).unwrap();
        let (_, solo_end) = solo.drain(SimTime::ZERO);

        let mut batch = mk();
        for i in 0..n {
            batch.on_submit(Request::new(i as u64, prompt, output), SimTime::ZERO).unwrap();
        }
        let (_, batch_end) = batch.drain(SimTime::ZERO);
        let serial = solo_end.as_secs_f64() * n as f64;
        prop_assert!(
            batch_end.as_secs_f64() <= serial * 1.05,
            "batched {} vs serial {}",
            batch_end.as_secs_f64(),
            serial
        );
    }
}
