//! Energy integration.
//!
//! Table 2 of the paper reports GPU energy in watt-hours, integrated from
//! utilization traces ("for simplicity we only measure the GPU energy
//! consumption since that is the dominant source"). [`EnergyIntegrator`]
//! computes the same integral exactly from a device's utilization
//! [`TimeSeries`] and its [`PowerCurve`]: the series is
//! piecewise-constant, so `∫ P(u(t)) dt` is a finite sum with no
//! quadrature error. It folds the sum forward, so a run can settle the
//! energy of a live allocation while it runs, or all at once at the end,
//! with the same terms in the same order.

use murakkab_sim::{SimTime, TimeSeries};

use crate::power::PowerCurve;

/// The energy one device draws from an instant on, folded forward over
/// its utilization series (fraction of capacity in `[0, 1]`).
///
/// Each change point `p` after the start adds `P(u) · (p − cursor)`,
/// where `u` is the utilization before `p`; closing at `to` adds the last
/// stretch. [`advance`](Self::advance) folds the points before a bound
/// and may run any number of times; [`close`](Self::close) finishes. The
/// result is bit for bit the same however the points were split between
/// calls, as long as the series never changes before a bound already
/// folded.
///
/// # Examples
///
/// ```
/// use murakkab_hardware::{EnergyIntegrator, PowerCurve};
/// use murakkab_sim::{SimTime, TimeSeries};
///
/// let curve = PowerCurve::new(100.0, 300.0, 1.0);
/// let mut util = TimeSeries::new("u");
/// util.record(SimTime::from_secs(1800), 1.0)?;
/// // Half an hour idle, half an hour busy: 200 Wh.
/// let mut e = EnergyIntegrator::new(SimTime::ZERO);
/// e.advance(curve, &util, SimTime::from_secs(2000));
/// let wh = e.close(curve, &util, SimTime::from_secs(3600));
/// assert!((wh - 200.0).abs() < 1e-9);
/// # Ok::<(), murakkab_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EnergyIntegrator {
    /// The instant up to which energy has been summed.
    cursor: SimTime,
    /// Utilization from `cursor` until the next change point; read from
    /// the series at the first fold, not at creation, because a record
    /// at the start instant may still overwrite it.
    value: Option<f64>,
    joules: f64,
}

impl EnergyIntegrator {
    /// An integral starting at `from`, with nothing summed yet.
    pub fn new(from: SimTime) -> Self {
        EnergyIntegrator {
            cursor: from,
            value: None,
            joules: 0.0,
        }
    }

    /// Folds the change points of `util` strictly between the cursor and
    /// `bound`, which then closes the segments before the last of them.
    pub fn advance(&mut self, curve: PowerCurve, util: &TimeSeries, bound: SimTime) {
        if bound <= self.cursor {
            return;
        }
        let mut u = match self.value {
            Some(u) => u,
            None => util.value_at(self.cursor),
        };
        let points = util.points();
        let start = points.partition_point(|&(pt, _)| pt <= self.cursor);
        for &(pt, v) in &points[start..] {
            if pt >= bound {
                break;
            }
            self.joules += curve.watts(u) * (pt - self.cursor).as_secs_f64();
            self.cursor = pt;
            u = v;
        }
        self.value = Some(u);
    }

    /// Energy in watt-hours over `[from, to)`, where `from` is the start
    /// given to [`new`](Self::new); zero when `to` is not after the
    /// cursor.
    pub fn close(mut self, curve: PowerCurve, util: &TimeSeries, to: SimTime) -> f64 {
        self.advance(curve, util, to);
        if let Some(u) = self.value {
            self.joules += curve.watts(u) * (to - self.cursor).as_secs_f64();
        }
        self.joules / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Energy of `util` under `curve` over `[from, to)`, in one close.
    fn energy_wh(curve: PowerCurve, util: &TimeSeries, from: SimTime, to: SimTime) -> f64 {
        EnergyIntegrator::new(from).close(curve, util, to)
    }

    #[test]
    fn idle_device_draws_idle_power() {
        let curve = PowerCurve::new(60.0, 400.0, 1.0);
        let util = TimeSeries::new("u");
        // One hour fully idle: 60 Wh.
        let wh = energy_wh(curve, &util, t(0), t(3600));
        assert!((wh - 60.0).abs() < 1e-9);
    }

    #[test]
    fn busy_device_draws_peak_power() {
        let curve = PowerCurve::new(60.0, 400.0, 1.0);
        let mut util = TimeSeries::new("u");
        util.record(t(0), 1.0).unwrap();
        let wh = energy_wh(curve, &util, t(0), t(3600));
        assert!((wh - 400.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_utilization_integrates_piecewise() {
        let curve = PowerCurve::new(100.0, 300.0, 1.0);
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.0).unwrap();
        util.record(t(1800), 1.0).unwrap(); // Half hour idle, half hour busy.
        let wh = energy_wh(curve, &util, t(0), t(3600));
        assert!((wh - 200.0).abs() < 1e-9);
    }

    #[test]
    fn window_outside_series_uses_last_value() {
        let curve = PowerCurve::new(0.0, 100.0, 1.0);
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.5).unwrap();
        let wh = energy_wh(curve, &util, t(7200), t(10800));
        assert!((wh - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_zero() {
        let curve = PowerCurve::new(60.0, 400.0, 1.0);
        let util = TimeSeries::new("u");
        assert_eq!(energy_wh(curve, &util, t(10), t(10)), 0.0);
        assert_eq!(energy_wh(curve, &util, t(10), t(5)), 0.0);
    }

    #[test]
    fn nonlinear_curve_integrates_at_change_points() {
        // alpha=0.5: P(0.25) = 50 over the busy half.
        let curve = PowerCurve::new(0.0, 100.0, 0.5);
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.25).unwrap();
        util.record(t(1800), 0.0).unwrap();
        let wh = energy_wh(curve, &util, t(0), t(3600));
        assert!((wh - 25.0).abs() < 1e-9);
    }

    #[test]
    fn folds_split_anywhere_match_one_close() {
        let curve = PowerCurve::new(60.0, 400.0, 0.7);
        let mut util = TimeSeries::new("u");
        for (s, v) in [(0, 0.2), (7, 0.9), (13, 0.0), (29, 0.55), (41, 1.0)] {
            util.record(t(s), v).unwrap();
        }
        let whole = energy_wh(curve, &util, t(3), t(50));
        for bounds in [
            vec![t(4)],
            vec![t(7), t(8)],
            vec![t(13), t(29), t(41)],
            vec![t(49)],
        ] {
            let mut e = EnergyIntegrator::new(t(3));
            for b in bounds {
                e.advance(curve, &util, b);
            }
            assert_eq!(e.close(curve, &util, t(50)).to_bits(), whole.to_bits());
        }
    }

    #[test]
    fn the_start_value_is_read_at_the_first_fold() {
        // A record at the start instant lands after the integral begins:
        // it must count, as it does for an integral begun afterwards.
        let curve = PowerCurve::new(0.0, 100.0, 1.0);
        let mut util = TimeSeries::new("u");
        util.record(t(0), 0.0).unwrap();
        let mut e = EnergyIntegrator::new(t(10));
        e.advance(curve, &util, t(10));
        util.record(t(10), 1.0).unwrap();
        let wh = e.close(curve, &util, t(3610));
        assert!((wh - 100.0).abs() < 1e-9, "{wh}");
    }
}
