//! Energy integration.
//!
//! Table 2 of the paper reports GPU energy in watt-hours, integrated from
//! utilization traces ("for simplicity we only measure the GPU energy
//! consumption since that is the dominant source"). [`EnergyMeter`] computes
//! the same integral exactly from a device's utilization [`TimeSeries`] and
//! its [`PowerCurve`]: the series is piecewise-constant, so
//! `∫ P(u(t)) dt` is a finite sum with no quadrature error.

use serde::{Deserialize, Serialize};

use murakkab_sim::{SimTime, TimeSeries};

use crate::power::PowerCurve;

/// Which devices count toward an energy report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EnergyScope {
    /// GPU devices only — the paper's Table 2 convention.
    #[default]
    GpuOnly,
    /// GPUs plus CPU pools.
    Full,
}

/// Integrates power over a utilization series.
#[derive(Debug, Clone, Copy)]
pub struct EnergyMeter {
    curve: PowerCurve,
}

impl EnergyMeter {
    /// Creates a meter for a device with the given power curve.
    pub fn new(curve: PowerCurve) -> Self {
        EnergyMeter { curve }
    }

    /// Exact energy in watt-hours consumed over `[from, to)` given the
    /// device's utilization series (fraction of capacity in `[0, 1]`).
    pub fn energy_wh(&self, util: &TimeSeries, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut joules = 0.0;
        let mut cursor = from;
        let mut u = util.value_at(from);
        let start = util.points().partition_point(|&(pt, _)| pt <= from);
        for &(pt, v) in &util.points()[start..] {
            if pt >= to {
                break;
            }
            joules += self.curve.watts(u) * (pt - cursor).as_secs_f64();
            cursor = pt;
            u = v;
        }
        joules += self.curve.watts(u) * (to - cursor).as_secs_f64();
        joules / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn idle_device_draws_idle_power() {
        let meter = EnergyMeter::new(PowerCurve::new(60.0, 400.0, 1.0));
        let util = TimeSeries::new("u");
        // One hour fully idle: 60 Wh.
        let wh = meter.energy_wh(&util, t(0), t(3600));
        assert!((wh - 60.0).abs() < 1e-9);
    }

    #[test]
    fn busy_device_draws_peak_power() {
        let meter = EnergyMeter::new(PowerCurve::new(60.0, 400.0, 1.0));
        let mut util = TimeSeries::new("u");
        util.record(t(0), 1.0);
        let wh = meter.energy_wh(&util, t(0), t(3600));
        assert!((wh - 400.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_utilization_integrates_piecewise() {
        let meter = EnergyMeter::new(PowerCurve::new(100.0, 300.0, 1.0));
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.0);
        util.record(t(1800), 1.0); // Half hour idle, half hour busy.
        let wh = meter.energy_wh(&util, t(0), t(3600));
        assert!((wh - 200.0).abs() < 1e-9);
    }

    #[test]
    fn window_outside_series_uses_last_value() {
        let meter = EnergyMeter::new(PowerCurve::new(0.0, 100.0, 1.0));
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.5);
        let wh = meter.energy_wh(&util, t(7200), t(10800));
        assert!((wh - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_zero() {
        let meter = EnergyMeter::new(PowerCurve::new(60.0, 400.0, 1.0));
        let util = TimeSeries::new("u");
        assert_eq!(meter.energy_wh(&util, t(10), t(10)), 0.0);
        assert_eq!(meter.energy_wh(&util, t(10), t(5)), 0.0);
    }

    #[test]
    fn nonlinear_curve_integrates_at_change_points() {
        // alpha=0.5: P(0.25) = 50 over the busy half.
        let meter = EnergyMeter::new(PowerCurve::new(0.0, 100.0, 0.5));
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.25);
        util.record(t(1800), 0.0);
        let wh = meter.energy_wh(&util, t(0), t(3600));
        assert!((wh - 25.0).abs() < 1e-9);
    }
}
