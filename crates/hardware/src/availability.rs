//! Spot / Harvest VM availability traces.
//!
//! §3.2 of the paper ("Resource Allocation") has Murakkab consume "dynamic
//! availability (e.g., Spot VMs, Harvest VMs)". We model availability as a
//! seeded alternating renewal process: a VM is *up* for an exponentially
//! distributed interval, then *preempted*, then restored after a recovery
//! interval. The cluster manager replays these events to take capacity away
//! from (and return it to) the scheduler mid-workflow.

use serde::{Deserialize, Serialize};

use murakkab_sim::{SimDuration, SimRng, SimTime};

/// One availability change for a preemptible VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AvailabilityEvent {
    /// The platform takes the VM back.
    Preempt,
    /// The VM (or an equivalent replacement) becomes available again.
    Restore,
}

/// A replayable availability trace for one preemptible VM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpotTrace {
    events: Vec<(SimTime, AvailabilityEvent)>,
}

impl SpotTrace {
    /// Generates a trace over `[0, horizon)`.
    ///
    /// * `mean_up` — mean up-time before a preemption;
    /// * `mean_down` — mean recovery time after a preemption.
    ///
    /// The VM starts available. Events strictly after `horizon` are not
    /// emitted.
    ///
    /// # Panics
    ///
    /// Panics if either mean duration is zero.
    pub fn generate(
        rng: &mut SimRng,
        horizon: SimTime,
        mean_up: SimDuration,
        mean_down: SimDuration,
    ) -> Self {
        assert!(
            !mean_up.is_zero() && !mean_down.is_zero(),
            "zero mean interval"
        );
        let mut events = Vec::new();
        let mut t = SimTime::ZERO;
        let mut up = true;
        loop {
            let mean = if up { mean_up } else { mean_down };
            let gap =
                SimDuration::from_secs_f64(rng.exponential(1.0 / mean.as_secs_f64()).max(1e-6));
            t += gap;
            if t >= horizon {
                break;
            }
            events.push((
                t,
                if up {
                    AvailabilityEvent::Preempt
                } else {
                    AvailabilityEvent::Restore
                },
            ));
            up = !up;
        }
        SpotTrace { events }
    }

    /// The ordered availability events.
    pub fn events(&self) -> &[(SimTime, AvailabilityEvent)] {
        &self.events
    }

    /// Whether the VM is available at instant `t`.
    pub fn available_at(&self, t: SimTime) -> bool {
        let before = self.events.partition_point(|&(et, _)| et <= t);
        match before.checked_sub(1).map(|i| self.events[i].1) {
            None => true, // No events yet: starts up.
            Some(AvailabilityEvent::Preempt) => false,
            Some(AvailabilityEvent::Restore) => true,
        }
    }

    /// Total available time in `[0, horizon)`.
    pub fn uptime(&self, horizon: SimTime) -> SimDuration {
        let mut up_since = Some(SimTime::ZERO);
        let mut total = SimDuration::ZERO;
        for &(t, ev) in &self.events {
            if t >= horizon {
                break;
            }
            match (ev, up_since) {
                (AvailabilityEvent::Preempt, Some(s)) => {
                    total += t - s;
                    up_since = None;
                }
                (AvailabilityEvent::Restore, None) => up_since = Some(t),
                // Duplicate transitions cannot happen by construction, but
                // tolerate them for robustness when traces are hand-built.
                _ => {}
            }
        }
        if let Some(s) = up_since {
            total += horizon.saturating_duration_since(s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_alternate_and_stay_in_horizon() {
        let mut rng = SimRng::new(11);
        let tr = SpotTrace::generate(
            &mut rng,
            t(100_000),
            SimDuration::from_secs(3_600),
            SimDuration::from_secs(600),
        );
        assert!(!tr.events().is_empty());
        let mut expect_preempt = true;
        for &(et, ev) in tr.events() {
            assert!(et < t(100_000));
            let want = if expect_preempt {
                AvailabilityEvent::Preempt
            } else {
                AvailabilityEvent::Restore
            };
            assert_eq!(ev, want);
            expect_preempt = !expect_preempt;
        }
    }

    #[test]
    fn availability_matches_events() {
        let mut rng = SimRng::new(12);
        let tr = SpotTrace::generate(
            &mut rng,
            t(50_000),
            SimDuration::from_secs(1_000),
            SimDuration::from_secs(500),
        );
        // Before first event the VM is up.
        let first = tr.events()[0].0;
        assert!(tr.available_at(first - SimDuration::from_secs(1)));
        // Right at/after a preempt it is down.
        assert!(!tr.available_at(first));
    }

    #[test]
    fn uptime_accounts_for_downtime() {
        let mut rng = SimRng::new(13);
        let horizon = t(200_000);
        let tr = SpotTrace::generate(
            &mut rng,
            horizon,
            SimDuration::from_secs(2_000),
            SimDuration::from_secs(1_000),
        );
        let up = tr.uptime(horizon);
        assert!(up < SimDuration::from_secs(200_000));
        assert!(up > SimDuration::ZERO);
        // Expect roughly 2/3 uptime for 2000/1000 means; allow wide band.
        let frac = up.as_secs_f64() / 200_000.0;
        assert!((0.4..=0.9).contains(&frac), "uptime fraction {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut rng = SimRng::new(99);
            SpotTrace::generate(
                &mut rng,
                t(10_000),
                SimDuration::from_secs(700),
                SimDuration::from_secs(300),
            )
        };
        assert_eq!(mk().events(), mk().events());
    }
}
