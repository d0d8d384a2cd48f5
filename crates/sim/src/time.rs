//! Fixed-point simulated time.
//!
//! Simulated time is kept in integer microseconds so that event ordering is
//! exact and replayable. Floating-point seconds only appear at the edges
//! (cost models produce `f64` seconds; reports print `f64` seconds).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from floating-point seconds (rounded to the
    /// nearest microsecond; negative values clamp to zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; elapsed time in the
    /// simulator is always non-negative by construction, so a violation is
    /// a logic error worth failing loudly on.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from floating-point seconds (rounded to the
    /// nearest microsecond; negative values clamp to zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours as `f64` (used by the energy integrator, which reports Wh).
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Divides the duration into `n` equal slices, rounding down.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn div_u64(self, n: u64) -> SimDuration {
        assert!(n > 0, "cannot divide duration by zero");
        SimDuration(self.0 / n)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    if secs <= 0.0 || secs.is_nan() {
        return 0;
    }
    let micros = secs * MICROS_PER_SEC as f64;
    if micros >= u64::MAX as f64 {
        u64::MAX
    } else {
        round_positive(micros)
    }
}

/// `x.round() as u64` for `0 < x < 2^64`, without `f64::round` (a libm
/// call on the baseline x86-64 target). Below 2^53 the subtraction is
/// exact (Sterbenz), so the comparison sees the true fraction; from 2^52
/// up every f64 is an integer, the fraction is 0 and `whole` stands.
fn round_positive(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole + 1
    } else {
        whole
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(rhs.0 <= self.0, "duration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        self.div_u64(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_through_seconds() {
        let t = SimTime::from_secs_f64(283.125);
        assert_eq!(t.as_micros(), 283_125_000);
        assert!((t.as_secs_f64() - 283.125).abs() < 1e-9);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = SimTime::from_secs(10);
        let d = SimDuration::from_secs(5);
        let t1 = t0 + d;
        assert_eq!(t1, SimTime::from_secs(15));
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.duration_since(t0), d);
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_reversed_order() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2_500));
        assert_eq!(d.div_u64(4), SimDuration::from_millis(2_500));
    }

    #[test]
    fn hours_conversion_matches_wh_math() {
        // 400 W for 90 s is 10 Wh.
        let d = SimDuration::from_secs(90);
        assert!((400.0 * d.as_hours_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_and_display() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(format!("{a}"), "1.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.500s");
    }

    /// The conversion `secs_to_micros` replaced, built on `f64::round`.
    fn round_reference(secs: f64) -> u64 {
        if secs <= 0.0 || secs.is_nan() {
            return 0;
        }
        let micros = secs * MICROS_PER_SEC as f64;
        if micros >= u64::MAX as f64 {
            u64::MAX
        } else {
            micros.round() as u64
        }
    }

    fn assert_secs_match(secs: f64) {
        assert_eq!(
            secs_to_micros(secs),
            round_reference(secs),
            "secs {secs:e} (bits {:#018x})",
            secs.to_bits()
        );
    }

    fn assert_rounds_like_f64_round(x: f64) {
        assert_eq!(
            round_positive(x),
            x.round() as u64,
            "x {x:e} (bits {:#018x})",
            x.to_bits()
        );
    }

    proptest::proptest! {
        #[test]
        fn secs_to_micros_matches_f64_round_on_random_bits(
            bits in proptest::prelude::any::<u64>(),
        ) {
            assert_secs_match(f64::from_bits(bits));
        }

        /// Exact `.5` ties below 2^52 and their one-ulp neighbours.
        #[test]
        fn rounding_matches_f64_round_at_exact_ties(whole in 0u64..(1 << 52)) {
            let tie = whole as f64 + 0.5;
            proptest::prop_assert_eq!(tie - whole as f64, 0.5);
            for x in [tie.next_down(), tie, tie.next_up()] {
                assert_rounds_like_f64_round(x);
            }
        }

        /// From 2^52 up every f64 is an integer.
        #[test]
        fn rounding_matches_f64_round_on_integral_values(n in (1u64 << 52)..u64::MAX) {
            let x = n as f64;
            if x < u64::MAX as f64 {
                assert_rounds_like_f64_round(x);
            }
            assert_secs_match(x / MICROS_PER_SEC as f64);
        }
    }

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        for x in [
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64,
            (1u64 << 53) as f64,
            (u64::MAX as f64).next_down(),
        ] {
            assert_rounds_like_f64_round(x);
        }
        assert_eq!(round_positive(0.49999999999999994), 0);

        let near_max = u64::MAX as f64 / MICROS_PER_SEC as f64;
        let mut cases = vec![
            0.0,
            -0.0,
            -1.0,
            -1e-300,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            0.49999999999999994,
        ];
        let (mut up, mut down) = (near_max, near_max);
        for _ in 0..64 {
            cases.extend([up, down]);
            up = up.next_up();
            down = down.next_down();
        }
        for secs in cases {
            assert_secs_match(secs);
        }
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        let big = SimDuration::from_micros(u64::MAX);
        assert_eq!(big + SimDuration::from_secs(1), SimDuration::MAX);
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }
}
