//! High-level workflow constraints.
//!
//! Listing 2 attaches `constraints = MIN_COST` to a job; §3.1 notes "in
//! the future, we plan to support multiple constraints with a priority
//! ordering". [`ConstraintSet`] implements that ordering today: the first
//! objective constraint is the primary optimisation target, bound
//! constraints act as filters.

use serde::{Deserialize, Serialize};

use murakkab_agents::profile::Objective;
use murakkab_sim::SimDuration;

/// A single high-level constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// Minimise dollar cost (`MIN_COST` in Listing 2).
    MinCost,
    /// Minimise energy/power.
    MinPower,
    /// Minimise end-to-end latency.
    MinLatency,
    /// Maximise result quality.
    MaxQuality,
    /// Require end-to-end quality of at least this value.
    QualityAtLeast(f64),
    /// Require completion within this duration.
    LatencyUnder(SimDuration),
    /// A total-cost bound in dollars. Accepted so that specs can state
    /// it, but not enforced: route selection and serving ignore it, and
    /// the preflight analyzer warns wherever it appears (`ANZ107`).
    CostUnder(f64),
}

impl Constraint {
    /// The optimisation objective this constraint implies, if it is an
    /// objective (bounds return `None`).
    pub fn objective(&self) -> Option<Objective> {
        match self {
            Constraint::MinCost => Some(Objective::Cost),
            Constraint::MinPower => Some(Objective::Power),
            Constraint::MinLatency => Some(Objective::Latency),
            Constraint::MaxQuality => Some(Objective::Quality),
            _ => None,
        }
    }
}

/// An ordered list of constraints (earlier = higher priority).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// An empty set (defaults apply: minimise latency at default quality).
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// A set with a single constraint.
    pub fn single(c: Constraint) -> Self {
        ConstraintSet {
            constraints: vec![c],
        }
    }

    /// Appends a constraint at the lowest priority (builder style).
    #[must_use]
    pub fn and(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// The constraints in priority order.
    pub fn all(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The primary optimisation objective (highest-priority objective
    /// constraint), defaulting to latency.
    pub fn primary_objective(&self) -> Objective {
        self.constraints
            .iter()
            .find_map(Constraint::objective)
            .unwrap_or(Objective::Latency)
    }

    /// The effective quality floor: the strictest `QualityAtLeast` if one
    /// is given. Without an explicit floor, the default (0.90) applies —
    /// except under a `MaxQuality` primary objective, where the
    /// orchestrator maximises instead of filtering, so the floor is 0.
    pub fn quality_floor(&self) -> f64 {
        let explicit = self
            .constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::QualityAtLeast(q) => Some(*q),
                _ => None,
            })
            .fold(None::<f64>, |acc, q| Some(acc.map_or(q, |a| a.max(q))));
        if let Some(q) = explicit {
            return q;
        }
        if self.primary_objective() == Objective::Quality {
            0.0
        } else {
            murakkab_agents::quality::QualityTarget::default().min_quality
        }
    }

    /// The latency bound, if any (strictest wins).
    pub fn latency_bound(&self) -> Option<SimDuration> {
        self.constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::LatencyUnder(d) => Some(*d),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_defaults_to_latency_and_default_quality() {
        let s = ConstraintSet::new();
        assert_eq!(s.primary_objective(), Objective::Latency);
        assert!((s.quality_floor() - 0.90).abs() < 1e-12);
        assert!(s.latency_bound().is_none());
    }

    #[test]
    fn min_cost_is_listing2_spelling() {
        let s = ConstraintSet::single(Constraint::MinCost);
        assert_eq!(s.primary_objective(), Objective::Cost);
    }

    #[test]
    fn priority_order_picks_first_objective() {
        let s = ConstraintSet::single(Constraint::QualityAtLeast(0.95))
            .and(Constraint::MinPower)
            .and(Constraint::MinLatency);
        assert_eq!(s.primary_objective(), Objective::Power);
        assert_eq!(s.quality_floor(), 0.95);
    }

    #[test]
    fn strictest_bounds_win() {
        let s = ConstraintSet::new()
            .and(Constraint::LatencyUnder(SimDuration::from_secs(100)))
            .and(Constraint::LatencyUnder(SimDuration::from_secs(60)))
            .and(Constraint::CostUnder(5.0))
            .and(Constraint::CostUnder(2.0))
            .and(Constraint::QualityAtLeast(0.8))
            .and(Constraint::QualityAtLeast(0.92));
        assert_eq!(s.latency_bound(), Some(SimDuration::from_secs(60)));
        assert_eq!(s.quality_floor(), 0.92);
    }

    #[test]
    fn bounds_are_not_objectives() {
        assert_eq!(Constraint::QualityAtLeast(0.9).objective(), None);
        assert_eq!(Constraint::MinLatency.objective(), Some(Objective::Latency));
    }
}
