//! Utilization-to-watts power curves.

use serde::{Deserialize, Serialize};

/// A monotone power curve `P(u) = idle + (peak - idle) · u^alpha`.
///
/// `alpha = 1` is the linear model used for the stock catalog; sub-linear
/// exponents (`alpha < 1`) model devices that reach high power at modest
/// utilization (common for memory-bound GPU kernels).
///
/// # Examples
///
/// ```
/// use murakkab_hardware::PowerCurve;
///
/// let pc = PowerCurve::new(60.0, 400.0, 1.0);
/// assert_eq!(pc.watts(0.0), 60.0);
/// assert_eq!(pc.watts(0.5), 230.0);
/// assert_eq!(pc.watts(1.0), 400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerCurve {
    idle_w: f64,
    peak_w: f64,
    alpha: f64,
}

impl PowerCurve {
    /// Creates a curve.
    ///
    /// # Panics
    ///
    /// Panics if `idle_w > peak_w`, either is negative, or `alpha <= 0`.
    pub fn new(idle_w: f64, peak_w: f64, alpha: f64) -> Self {
        assert!(idle_w >= 0.0 && peak_w >= idle_w, "bad power bounds");
        assert!(alpha > 0.0, "alpha must be positive");
        PowerCurve {
            idle_w,
            peak_w,
            alpha,
        }
    }

    /// Power draw in watts at utilization `u` (clamped to `[0, 1]`).
    pub fn watts(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * u.powf(self.alpha)
    }

    /// Idle draw in watts.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// The utilization exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_curve_interpolates() {
        let pc = PowerCurve::new(100.0, 300.0, 1.0);
        assert_eq!(pc.watts(0.25), 150.0);
        assert_eq!(pc.watts(-1.0), 100.0);
        assert_eq!(pc.watts(2.0), 300.0);
    }

    #[test]
    fn sublinear_curve_rises_fast() {
        let pc = PowerCurve::new(0.0, 100.0, 0.5);
        assert!(pc.watts(0.25) > 25.0);
        assert_eq!(pc.watts(1.0), 100.0);
    }

    #[test]
    fn curve_is_monotone() {
        let pc = PowerCurve::new(50.0, 700.0, 0.8);
        let mut prev = -1.0;
        for i in 0..=100 {
            let w = pc.watts(f64::from(i) / 100.0);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "bad power bounds")]
    fn rejects_idle_above_peak() {
        PowerCurve::new(500.0, 400.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_nonpositive_alpha() {
        PowerCurve::new(0.0, 1.0, 0.0);
    }
}
