//! Admission control: token bucket, deadline feasibility, bounded
//! queue, and the priority-FIFO buffer queued work waits in.
//!
//! Open-loop overload cannot be scheduled away — work that cannot meet
//! its deadline must be rejected *at the door*, or it queues behind
//! everything else and drags the whole fleet's SLO attainment down. The
//! controller applies three gates in order:
//!
//! 1. **token bucket** — caps the sustained admission rate while allowing
//!    bursts up to the bucket depth;
//! 2. **deadline feasibility** — estimates completion as the idle-system
//!    service time inflated by the current backlog and rejects requests
//!    that would blow their deadline anyway;
//! 3. **bounded queue** — rejects requests once the caller's queue holds
//!    the configured maximum. The caller keeps the queue itself (the
//!    fleet's per-cell [`PriorityFifo`]s, pop order: priority, then
//!    FIFO).

use serde::{Deserialize, Serialize};

use murakkab_sim::{SimError, SimTime};

/// Token-bucket rate limiter over simulated time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenBucket {
    rate_per_s: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_s`, holding at most `burst` tokens
    /// (starts full).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; use [`TokenBucket::try_new`] for a
    /// checked constructor.
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        Self::try_new(rate_per_s, burst).expect("valid token-bucket parameters")
    }

    /// Checked constructor: the rate must be a finite positive number and
    /// the burst a finite value of at least one token. NaN, zero, negative
    /// and infinite rates are configuration errors, not panics — the
    /// refill arithmetic would otherwise silently poison every later
    /// admission decision.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] naming the offending parameter.
    pub fn try_new(rate_per_s: f64, burst: f64) -> Result<Self, SimError> {
        if !rate_per_s.is_finite() || rate_per_s <= 0.0 {
            return Err(SimError::InvalidInput(format!(
                "token rate must be finite and positive, got {rate_per_s}"
            )));
        }
        if !burst.is_finite() || burst < 1.0 {
            return Err(SimError::InvalidInput(format!(
                "token burst must be finite and admit at least one token, got {burst}"
            )));
        }
        Ok(TokenBucket {
            rate_per_s,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        })
    }

    /// Takes one token at `now` if available.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_s).min(self.burst);
        self.last = self.last.max(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Admission-controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Master switch: disabled means every request is admitted and the
    /// queue is unbounded (the no-admission baseline).
    pub enabled: bool,
    /// Sustained admission rate (requests per second).
    pub rate_per_s: f64,
    /// Token-bucket depth (burst tolerance).
    pub burst: f64,
    /// Maximum queued (admitted but not yet executing) requests.
    pub max_queue: usize,
    /// Backlog inflation per queued/in-service request applied to the
    /// idle-system service estimate when checking deadline feasibility.
    pub slack_per_backlog: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: true,
            rate_per_s: 0.5,
            burst: 8.0,
            max_queue: 16,
            slack_per_backlog: 0.5,
        }
    }
}

impl AdmissionConfig {
    /// The no-admission baseline: everything gets in.
    pub fn disabled() -> Self {
        AdmissionConfig {
            enabled: false,
            ..AdmissionConfig::default()
        }
    }

    /// Validates the gating parameters. A disabled config is always valid
    /// (no gate ever runs, so its parameters are inert); an enabled one
    /// needs a well-formed token bucket and a finite non-negative backlog
    /// slack.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.enabled {
            return Ok(());
        }
        TokenBucket::try_new(self.rate_per_s, self.burst)?;
        if !self.slack_per_backlog.is_finite() || self.slack_per_backlog < 0.0 {
            return Err(SimError::InvalidInput(format!(
                "backlog slack must be finite and non-negative, got {}",
                self.slack_per_backlog
            )));
        }
        Ok(())
    }
}

/// Why a request was (not) admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Queued for execution.
    Admitted,
    /// Token bucket empty: sustained rate exceeded.
    RejectedRate,
    /// Estimated completion would miss the deadline.
    RejectedDeadline,
    /// The bounded queue is full.
    RejectedQueueFull,
}

/// Running admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Rejections by the token bucket.
    pub rejected_rate: u64,
    /// Rejections by the deadline-feasibility gate.
    pub rejected_deadline: u64,
    /// Rejections because the queue was full.
    pub rejected_queue_full: u64,
}

impl AdmissionStats {
    /// Total rejections across all gates.
    pub fn rejected(&self) -> u64 {
        self.rejected_rate + self.rejected_deadline + self.rejected_queue_full
    }
}

#[derive(Debug, Clone)]
struct QueueEntry<T> {
    priority: u8,
    seq: u64,
    item: T,
}

/// A priority-FIFO buffer: pops the highest priority first, FIFO (by the
/// caller-supplied sequence number) within a priority. The sharded
/// fleet's per-cell queue.
#[derive(Debug, Clone)]
pub struct PriorityFifo<T> {
    entries: Vec<QueueEntry<T>>,
}

impl<T> Default for PriorityFifo<T> {
    fn default() -> Self {
        PriorityFifo {
            entries: Vec::new(),
        }
    }
}

impl<T> PriorityFifo<T> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an item. `seq` must be unique and monotone across pushes
    /// for the FIFO tie-break to mean arrival order.
    pub fn push(&mut self, priority: u8, seq: u64, item: T) {
        self.entries.push(QueueEntry {
            priority,
            seq,
            item,
        });
    }

    /// Index the next [`PriorityFifo::pop`] would take.
    fn first_idx(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.seq)))
            .map(|(i, _)| i)
    }

    /// Index of the entry `pop` would yield *last*.
    fn last_idx(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.seq)))
            .map(|(i, _)| i)
    }

    /// Removes the next entry: highest priority first, FIFO within a
    /// priority.
    pub fn pop(&mut self) -> Option<(u8, u64, T)> {
        let i = self.first_idx()?;
        let e = self.entries.remove(i);
        Some((e.priority, e.seq, e.item))
    }

    /// Removes the entry `pop` would yield last (lowest priority,
    /// youngest) — the best migration candidate when shedding work.
    pub fn pop_last(&mut self) -> Option<(u8, u64, T)> {
        let i = self.last_idx()?;
        let e = self.entries.remove(i);
        Some((e.priority, e.seq, e.item))
    }

    /// Priority of the entry `pop` would yield last.
    pub fn last_priority(&self) -> Option<u8> {
        self.last_idx().map(|i| self.entries[i].priority)
    }

    /// Queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The admission controller: the three gates and their counters.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    bucket: TokenBucket,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// Builds a controller from a config.
    ///
    /// A disabled config never constructs its token bucket (disabled
    /// admission must work even with degenerate rate parameters — it is
    /// the no-admission baseline, not a gate).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] for an enabled config with
    /// NaN/zero/negative/infinite bucket parameters or backlog slack.
    pub fn new(cfg: AdmissionConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let bucket = if cfg.enabled {
            TokenBucket::try_new(cfg.rate_per_s, cfg.burst)?
        } else {
            // Placeholder: every gate is skipped when disabled.
            TokenBucket::try_new(1.0, 1.0)?
        };
        Ok(AdmissionController {
            cfg,
            bucket,
            stats: AdmissionStats::default(),
        })
    }

    /// Runs the admission gates against caller-maintained queue state:
    /// `backlog` backs the deadline-feasibility estimate (queued +
    /// in-service requests wherever the caller keeps them) and `queued`
    /// is checked against the bounded-queue capacity. Stats are counted;
    /// enqueueing an admitted request is the caller's.
    ///
    /// A non-finite service estimate counts as infeasible (the estimator
    /// failed, so the deadline cannot be promised).
    pub fn gate(
        &mut self,
        now: SimTime,
        deadline_s: f64,
        est_service_s: f64,
        backlog: usize,
        queued: usize,
    ) -> AdmissionDecision {
        if self.cfg.enabled {
            if !self.bucket.try_take(now) {
                self.stats.rejected_rate += 1;
                return AdmissionDecision::RejectedRate;
            }
            let estimated = est_service_s * (1.0 + backlog as f64 * self.cfg.slack_per_backlog);
            if !estimated.is_finite() || estimated > deadline_s {
                self.stats.rejected_deadline += 1;
                return AdmissionDecision::RejectedDeadline;
            }
            if queued >= self.cfg.max_queue {
                self.stats.rejected_queue_full += 1;
                return AdmissionDecision::RejectedQueueFull;
            }
        }
        self.stats.admitted += 1;
        AdmissionDecision::Admitted
    }

    /// The running counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn token_bucket_rates_and_bursts() {
        let mut b = TokenBucket::new(1.0, 2.0);
        // Burst of 2 available immediately.
        assert!(b.try_take(t(0.0)));
        assert!(b.try_take(t(0.0)));
        assert!(!b.try_take(t(0.0)));
        // Refills at 1/s.
        assert!(!b.try_take(t(0.5)));
        assert!(b.try_take(t(1.5)));
    }

    #[test]
    fn gates_apply_in_order() {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: true,
            rate_per_s: 0.1,
            burst: 4.0,
            max_queue: 2,
            slack_per_backlog: 1.0,
        })
        .expect("valid config");
        let mut queued = 0;
        let mut offer = |c: &mut AdmissionController, deadline_s, est_service_s| {
            let d = c.gate(t(0.0), deadline_s, est_service_s, queued, queued);
            queued += usize::from(d == AdmissionDecision::Admitted);
            d
        };
        // Feasible, fits queue.
        assert_eq!(offer(&mut c, 100.0, 10.0), AdmissionDecision::Admitted);
        // Backlog 1 (one queued) -> estimate 10 * 2 = 20 > 15: deadline gate.
        assert_eq!(
            offer(&mut c, 15.0, 10.0),
            AdmissionDecision::RejectedDeadline
        );
        // Feasible again, fills the queue.
        assert_eq!(offer(&mut c, 100.0, 10.0), AdmissionDecision::Admitted);
        // Queue full.
        assert_eq!(
            offer(&mut c, 100.0, 1.0),
            AdmissionDecision::RejectedQueueFull
        );
        // Bucket empty after four takes (burst 4; rejected offers still
        // consume the token they were gated on).
        assert_eq!(offer(&mut c, 100.0, 1.0), AdmissionDecision::RejectedRate);
        let s = c.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.rejected(), 3);
        assert_eq!(
            (s.rejected_rate, s.rejected_deadline, s.rejected_queue_full),
            (1, 1, 1)
        );
    }

    #[test]
    fn pop_orders_by_priority_then_fifo() {
        let filled = || {
            let mut q = PriorityFifo::new();
            for (seq, (prio, item)) in
                [(0, "batch-1"), (2, "inter-1"), (1, "std-1"), (2, "inter-2")]
                    .into_iter()
                    .enumerate()
            {
                q.push(prio, seq as u64, item);
            }
            q
        };
        let mut q = filled();
        assert_eq!(q.last_priority(), Some(0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, item)| item)).collect();
        assert_eq!(order, vec!["inter-1", "inter-2", "std-1", "batch-1"]);
        assert!(q.is_empty());

        // `pop_last` yields the same order from the other end.
        let mut q = filled();
        let reversed: Vec<_> =
            std::iter::from_fn(|| q.pop_last().map(|(_, _, item)| item)).collect();
        assert_eq!(reversed, vec!["batch-1", "std-1", "inter-2", "inter-1"]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let mut c = AdmissionController::new(AdmissionConfig::disabled()).expect("valid config");
        for queued in 0..100 {
            // Infeasible deadline, zero-rate bucket pressure, tiny queue —
            // all ignored when disabled.
            assert_eq!(
                c.gate(t(0.0), 0.001, 1e6, queued + 50, queued),
                AdmissionDecision::Admitted
            );
        }
        assert_eq!(c.stats().admitted, 100);
        assert_eq!(c.stats().rejected(), 0);
    }

    #[test]
    fn in_service_counts_toward_feasibility() {
        let mut c = AdmissionController::new(AdmissionConfig {
            enabled: true,
            rate_per_s: 10.0,
            burst: 10.0,
            max_queue: 10,
            slack_per_backlog: 0.5,
        })
        .expect("valid config");
        // Empty system: 10 s estimate meets a 12 s deadline.
        assert_eq!(
            c.gate(t(0.0), 12.0, 10.0, 0, 0),
            AdmissionDecision::Admitted
        );
        // 4 in service + 1 queued -> 10 * (1 + 5*0.5) = 35 > 12.
        assert_eq!(
            c.gate(t(0.0), 12.0, 10.0, 4 + 1, 1),
            AdmissionDecision::RejectedDeadline
        );
    }
}
