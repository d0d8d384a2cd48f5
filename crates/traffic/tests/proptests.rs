//! Property-based tests for admission control: the invariants the
//! sharded fleet's front door leans on.

use murakkab_sim::SimTime;
use murakkab_traffic::{AdmissionConfig, AdmissionController, AdmissionDecision, TokenBucket};
use proptest::prelude::*;

fn t(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

/// Offers one request to `c` with `in_service` requests executing and
/// `queued` waiting, counting an admission into `queued` the way the
/// fleet enqueues it.
fn offer(
    c: &mut AdmissionController,
    queued: &mut usize,
    now: f64,
    deadline_s: f64,
    est_service_s: f64,
    in_service: usize,
) -> AdmissionDecision {
    let d = c.gate(
        t(now),
        deadline_s,
        est_service_s,
        *queued + in_service,
        *queued,
    );
    if d == AdmissionDecision::Admitted {
        *queued += 1;
    }
    d
}

proptest! {
    /// A burst at one instant never admits more than the bucket depth,
    /// regardless of rate, and the controller's counters conserve:
    /// admitted + rejected == offered.
    #[test]
    fn burst_never_exceeds_bucket_depth(
        rate in 0.01f64..50.0,
        burst in 1.0f64..32.0,
        offers in 1usize..200,
    ) {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: true,
            rate_per_s: rate,
            burst,
            max_queue: usize::MAX,
            slack_per_backlog: 0.0,
        })
        .expect("valid config");
        let mut queued = 0;
        for _ in 0..offers {
            offer(&mut c, &mut queued, 0.0, 1e12, 0.0, 0);
        }
        let s = c.stats();
        prop_assert!(
            s.admitted as f64 <= burst,
            "admitted {} from a depth-{burst} bucket at one instant",
            s.admitted
        );
        prop_assert_eq!(s.admitted + s.rejected(), offers as u64);
    }

    /// Over any offer schedule the admitted count is bounded by the
    /// bucket's refill law: burst + rate × elapsed.
    #[test]
    fn admitted_bounded_by_refill_law(
        rate in 0.05f64..20.0,
        burst in 1.0f64..16.0,
        gaps in prop::collection::vec(0.0f64..5.0, 1..150),
    ) {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: true,
            rate_per_s: rate,
            burst,
            max_queue: usize::MAX,
            slack_per_backlog: 0.0,
        })
        .expect("valid config");
        let mut now = 0.0;
        let mut queued = 0;
        for gap in &gaps {
            now += gap;
            offer(&mut c, &mut queued, now, 1e12, 0.0, 0);
        }
        let bound = burst + rate * now + 1e-6;
        prop_assert!(
            (c.stats().admitted as f64) <= bound,
            "admitted {} exceeds refill bound {bound}",
            c.stats().admitted
        );
    }

    /// The queue length never exceeds the configured bound, whatever the
    /// offer pattern.
    #[test]
    fn queue_length_bounded_by_config(
        max_queue in 0usize..12,
        offers in prop::collection::vec(0.0f64..100.0, 1..120),
    ) {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: true,
            rate_per_s: 50.0, // Bucket never binds: isolate the queue gate.
            burst: 1e6,
            max_queue,
            slack_per_backlog: 0.0,
        })
        .expect("valid config");
        let mut now = 0.0;
        let mut queued = 0;
        for gap in &offers {
            now += gap;
            offer(&mut c, &mut queued, now, 1e12, 0.0, 0);
            prop_assert!(queued <= max_queue, "queue {queued} over bound {max_queue}");
        }
        prop_assert_eq!(c.stats().admitted as usize, queued);
    }

    /// Offered = admitted + rejected holds across every gate mix, and the
    /// per-gate counters sum to the rejection total.
    #[test]
    fn stats_conserve_offers(
        cfg_rate in 0.05f64..5.0,
        burst in 1.0f64..8.0,
        max_queue in 0usize..8,
        offers in prop::collection::vec((0.0f64..40.0, 0.1f64..60.0, 0.0f64..30.0), 1..150),
    ) {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: true,
            rate_per_s: cfg_rate,
            burst,
            max_queue,
            slack_per_backlog: 0.5,
        })
        .expect("valid config");
        let mut now = 0.0;
        let mut queued = 0;
        for (i, &(gap, deadline, est)) in offers.iter().enumerate() {
            now += gap;
            offer(&mut c, &mut queued, now, deadline, est, i % 5);
        }
        let s = c.stats();
        prop_assert_eq!(s.admitted + s.rejected(), offers.len() as u64);
        prop_assert_eq!(
            s.rejected(),
            s.rejected_rate + s.rejected_deadline + s.rejected_queue_full
        );
        // Everything admitted is still queued (nothing popped here).
        prop_assert_eq!(s.admitted as usize, queued);
    }

    /// A disabled controller admits everything — hostile deadlines, huge
    /// backlogs, tiny queues, even degenerate bucket parameters that an
    /// enabled config would reject at construction.
    #[test]
    fn disabled_admits_everything(
        rate in prop_oneof![Just(0.0), Just(-1.0), Just(f64::NAN), Just(f64::INFINITY), 0.0f64..5.0],
        burst in prop_oneof![Just(0.0), Just(f64::NAN), 1.0f64..8.0],
        offers in 1usize..100,
        in_service in 0usize..64,
    ) {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: false,
            rate_per_s: rate,
            burst,
            max_queue: 0,
            slack_per_backlog: f64::NAN,
        })
        .expect("disabled configs are always constructible");
        let mut queued = 0;
        for _ in 0..offers {
            prop_assert_eq!(
                offer(&mut c, &mut queued, 0.0, 0.001, 1e9, in_service),
                AdmissionDecision::Admitted
            );
        }
        prop_assert_eq!(queued, offers);
        prop_assert_eq!(c.stats().rejected(), 0);
    }

    /// Enabled configs with degenerate bucket parameters fail loudly at
    /// construction instead of panicking or silently misbehaving later.
    #[test]
    fn invalid_enabled_configs_error(
        rate in prop_oneof![Just(0.0), Just(-2.5), Just(f64::NAN), Just(f64::INFINITY)],
    ) {
        let cfg = AdmissionConfig {
            enabled: true,
            rate_per_s: rate,
            ..AdmissionConfig::default()
        };
        prop_assert!(cfg.validate().is_err());
        prop_assert!(AdmissionController::new(cfg).is_err());
        prop_assert!(TokenBucket::try_new(rate, 4.0).is_err());
    }

    /// The token bucket's take count over any probe schedule obeys the
    /// refill law, and time regressions never mint tokens.
    #[test]
    fn token_bucket_refill_law(
        rate in 0.05f64..20.0,
        burst in 1.0f64..16.0,
        probes in prop::collection::vec(-2.0f64..5.0, 1..200),
    ) {
        let mut b = TokenBucket::new(rate, burst);
        let mut now = 0.0f64;
        let mut latest = 0.0f64;
        let mut taken = 0u64;
        for &step in &probes {
            // Steps may go backwards: saturating elapsed time means a
            // stale clock cannot refill the bucket.
            now = (now + step).max(0.0);
            latest = latest.max(now);
            if b.try_take(t(now)) {
                taken += 1;
            }
        }
        let bound = burst + rate * latest + 1e-6;
        prop_assert!(
            (taken as f64) <= bound,
            "took {taken} tokens, refill law allows {bound}"
        );
    }
}
