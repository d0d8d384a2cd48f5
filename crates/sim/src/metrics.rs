//! Metrics recording over simulated time.
//!
//! The evaluation artifacts (Figure 3 utilization curves, Table 2 energy
//! integrals) are all derived from *step-function time series*: a value that
//! holds constant until the next recorded change. [`TimeSeries`] stores
//! those changes; integrals and window averages fall out exactly (no
//! sampling error), and fixed-interval samples for plotting walk a
//! [`SeriesCursor`] forward.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A right-continuous step function of simulated time.
///
/// # Examples
///
/// ```
/// use murakkab_sim::{SimTime, TimeSeries};
///
/// let mut ts = TimeSeries::new("gpu_util");
/// ts.record(SimTime::ZERO, 0.0);
/// ts.record(SimTime::from_secs(10), 1.0);
/// ts.record(SimTime::from_secs(20), 0.0);
/// // Integral of utilization over [0, 30): 10 seconds at 1.0.
/// let area = ts.integral(SimTime::ZERO, SimTime::from_secs(30));
/// assert!((area - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    /// Change points `(t, v)`: value is `v` on `[t, next_t)`.
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records that the value becomes `v` at time `t`.
    ///
    /// Recording at a time equal to the last change overwrites it (the
    /// value "at" an instant is the latest write). Recording identical
    /// consecutive values is a no-op to keep the series compact.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last recorded change.
    pub fn record(&mut self, t: SimTime, v: f64) {
        if let Some(&(last_t, last_v)) = self.points.last() {
            assert!(t >= last_t, "time series {} went backwards", self.name);
            if t == last_t {
                self.points.last_mut().expect("non-empty").1 = v;
                return;
            }
            if (last_v - v).abs() < f64::EPSILON {
                return;
            }
        }
        self.points.push((t, v));
    }

    /// The value at instant `t` (zero before the first change point).
    ///
    /// A binary search per call, for random access; forward scans walk a
    /// [`cursor`](Self::cursor) instead.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// A forward cursor over the series, positioned before the first
    /// change point.
    ///
    /// # Examples
    ///
    /// ```
    /// use murakkab_sim::{SimTime, TimeSeries};
    ///
    /// let mut ts = TimeSeries::new("x");
    /// ts.record(SimTime::from_secs(5), 1.0);
    /// let mut c = ts.cursor();
    /// assert_eq!(c.value_at(SimTime::from_secs(1)), 0.0);
    /// assert_eq!(c.next_change(), Some(SimTime::from_secs(5)));
    /// assert_eq!(c.value_at(SimTime::from_secs(5)), 1.0);
    /// assert_eq!(c.next_change(), None);
    /// ```
    pub fn cursor(&self) -> SeriesCursor<'_> {
        SeriesCursor {
            points: &self.points,
            next: 0,
            last_query: SimTime::ZERO,
        }
    }

    /// The last recorded value (zero if empty).
    pub fn last_value(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, v)| v)
    }

    /// Exact integral `∫ v dt` over `[from, to)` in value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        let mut value = self.value_at(from);
        // Walk change points strictly inside (from, to).
        let start = self.points.partition_point(|&(pt, _)| pt <= from);
        for &(pt, v) in &self.points[start..] {
            if pt >= to {
                break;
            }
            acc += value * (pt - cursor).as_secs_f64();
            cursor = pt;
            value = v;
        }
        acc += value * (to - cursor).as_secs_f64();
        acc
    }

    /// Time-weighted average over `[from, to)`; zero for empty windows.
    pub fn average(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_duration_since(from).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.integral(from, to) / span
        }
    }

    /// The maximum recorded value (zero if empty).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Raw change points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// True if no change points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A forward reader of a [`TimeSeries`]: answers the same question as
/// [`TimeSeries::value_at`] in amortized O(1) per query, for queries at
/// non-decreasing instants.
///
/// Created by [`TimeSeries::cursor`]. A walk of `q` queries over a series
/// of `p` change points costs `O(p + q)` in total, against `O(q log p)`
/// for one binary search per query.
#[derive(Debug, Clone)]
pub struct SeriesCursor<'a> {
    points: &'a [(SimTime, f64)],
    /// Index of the first change point after the last query.
    next: usize,
    last_query: SimTime,
}

impl SeriesCursor<'_> {
    /// The value at instant `t`: that of the last change point at or
    /// before `t`, else zero — bit for bit what
    /// [`TimeSeries::value_at`] returns.
    ///
    /// Queries must come at non-decreasing instants (the same instant
    /// twice is fine). Debug builds assert this; release builds answer an
    /// earlier instant with the value at the latest query instead.
    pub fn value_at(&mut self, t: SimTime) -> f64 {
        debug_assert!(
            t >= self.last_query,
            "series cursor queried backwards ({t:?} after {:?})",
            self.last_query
        );
        self.last_query = t;
        while self.points.get(self.next).is_some_and(|&(pt, _)| pt <= t) {
            self.next += 1;
        }
        match self.next {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// The first change point after the last query (the first point at
    /// all before any query), or `None` once past the last one. The
    /// value stays what the last query returned until this instant.
    pub fn next_change(&self) -> Option<SimTime> {
        self.points.get(self.next).map(|&(pt, _)| pt)
    }
}

/// Tracks busy capacity of a multi-unit resource (e.g. a 96-core CPU pool or
/// a bank of GPUs) and exposes a utilization [`TimeSeries`] in `[0, 1]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilizationTracker {
    capacity: f64,
    busy: f64,
    series: TimeSeries,
}

impl UtilizationTracker {
    /// Creates a tracker for a resource with the given total capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    pub fn new(name: impl Into<String>, capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        let mut series = TimeSeries::new(name);
        series.record(SimTime::ZERO, 0.0);
        UtilizationTracker {
            capacity,
            busy: 0.0,
            series,
        }
    }

    /// Marks `amount` units busy at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the busy amount would exceed capacity (over-commit is a
    /// scheduler bug, not a runtime condition).
    pub fn acquire(&mut self, t: SimTime, amount: f64) {
        let next = self.busy + amount;
        assert!(
            next <= self.capacity + 1e-9,
            "{}: over-commit ({next} > {})",
            self.series.name(),
            self.capacity
        );
        self.busy = next.min(self.capacity);
        self.series.record(t, self.busy / self.capacity);
    }

    /// Sets the busy level to an absolute `units` value at time `t`
    /// (used when an external component — e.g. an LLM serving engine —
    /// reports its own utilization level rather than deltas).
    ///
    /// # Panics
    ///
    /// Panics if `units` exceeds capacity.
    pub fn set_level(&mut self, t: SimTime, units: f64) {
        assert!(
            units <= self.capacity + 1e-9,
            "{}: level over capacity ({units} > {})",
            self.series.name(),
            self.capacity
        );
        self.busy = units.clamp(0.0, self.capacity);
        self.series.record(t, self.busy / self.capacity);
    }

    /// Releases `amount` units at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if releasing more than is busy.
    pub fn release(&mut self, t: SimTime, amount: f64) {
        assert!(
            amount <= self.busy + 1e-9,
            "{}: release underflow ({amount} > {})",
            self.series.name(),
            self.busy
        );
        self.busy = (self.busy - amount).max(0.0);
        self.series.record(t, self.busy / self.capacity);
    }

    /// Current busy amount.
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Free capacity.
    pub fn free(&self) -> f64 {
        (self.capacity - self.busy).max(0.0)
    }

    /// Current utilization fraction in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.busy / self.capacity
    }

    /// The utilization series (fraction of capacity over time).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A fixed-boundary histogram of `f64` observations.
///
/// Used for queueing-delay and latency distributions in endpoint stats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds;
    /// an implicit overflow bucket captures everything above the last bound.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
            max: 0.0,
        }
    }

    /// Histogram with exponentially growing bounds, handy for latencies.
    pub fn exponential(start: f64, factor: f64, buckets: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && buckets > 0);
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = start;
        for _ in 0..buckets {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(bounds)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (zero if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile (`q` in `[0,1]`), linearly interpolated within
    /// the winning bucket (observations are assumed uniform inside a
    /// bucket, the usual Prometheus-style estimator). The overflow bucket
    /// reports the largest observation, and no estimate exceeds it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= target {
                if i >= self.bounds.len() {
                    // Overflow bucket: unbounded above, so report the max.
                    return self.max;
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let frac = (target - seen) as f64 / c as f64;
                return (lower + frac * (upper - lower)).min(self.max);
            }
            seen += c;
        }
        self.max
    }

    /// The quantile estimates for each `q` in `qs` (convenience for the
    /// p50/p95/p99 triplets fleet reports are built from).
    pub fn percentiles(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn series_value_and_integral() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(0), 2.0);
        ts.record(t(10), 4.0);
        assert_eq!(ts.value_at(t(0)), 2.0);
        assert_eq!(ts.value_at(t(9)), 2.0);
        assert_eq!(ts.value_at(t(10)), 4.0);
        assert_eq!(ts.value_at(t(100)), 4.0);
        // 10s at 2 + 10s at 4 = 60.
        assert!((ts.integral(t(0), t(20)) - 60.0).abs() < 1e-9);
        assert!((ts.average(t(0), t(20)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn series_value_before_first_point_is_zero() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(5), 7.0);
        assert_eq!(ts.value_at(t(0)), 0.0);
        assert!((ts.integral(t(0), t(10)) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn series_same_time_overwrites_and_dedups() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(0), 1.0);
        ts.record(t(0), 2.0);
        assert_eq!(ts.points().len(), 1);
        assert_eq!(ts.value_at(t(0)), 2.0);
        ts.record(t(5), 2.0); // no change: dropped
        assert_eq!(ts.points().len(), 1);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn series_rejects_time_regression() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(10), 1.0);
        ts.record(t(5), 2.0);
    }

    #[test]
    fn series_integral_partial_windows() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(0), 1.0);
        ts.record(t(10), 0.0);
        assert!((ts.integral(t(5), t(15)) - 5.0).abs() < 1e-9);
        assert_eq!(ts.integral(t(15), t(5)), 0.0);
        assert_eq!(ts.integral(t(20), t(30)), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queried backwards")]
    fn series_cursor_rejects_backward_queries() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(0), 1.0);
        let mut c = ts.cursor();
        c.value_at(t(5));
        c.value_at(t(4));
    }

    #[test]
    fn utilization_tracker_acquire_release() {
        let mut u = UtilizationTracker::new("cpu", 96.0);
        u.acquire(t(0), 48.0);
        assert_eq!(u.utilization(), 0.5);
        assert_eq!(u.free(), 48.0);
        u.acquire(t(5), 48.0);
        assert_eq!(u.utilization(), 1.0);
        u.release(t(10), 96.0);
        assert_eq!(u.busy(), 0.0);
        assert!((u.series().average(t(0), t(10)) - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "over-commit")]
    fn utilization_tracker_rejects_overcommit() {
        let mut u = UtilizationTracker::new("gpu", 8.0);
        u.acquire(t(0), 9.0);
    }

    #[test]
    #[should_panic(expected = "release underflow")]
    fn utilization_tracker_rejects_underflow() {
        let mut u = UtilizationTracker::new("gpu", 8.0);
        u.release(t(0), 1.0);
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 138.875).abs() < 1e-9);
        assert_eq!(h.max(), 500.0);
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(1.0), 500.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_bucket() {
        // 100 observations of 1..=100, one per unit, on decade buckets:
        // the rank-r observation is r, so pXX should land within one
        // bucket-width step of XX rather than snapping to an upper bound.
        let mut h = Histogram::new(vec![10.0, 50.0, 100.0, 1000.0]);
        for v in 1..=100 {
            h.observe(f64::from(v));
        }
        let ps = h.percentiles(&[0.5, 0.95, 0.99]);
        // p50: rank 50 is the last of the (10, 50] bucket -> exactly 50.
        assert!((ps[0] - 50.0).abs() < 1e-9, "p50 {}", ps[0]);
        // p95: rank 95 is 45/50 through the (50, 100] bucket -> 95.
        assert!((ps[1] - 95.0).abs() < 1e-9, "p95 {}", ps[1]);
        // p99: 49/50 through the same bucket -> 99.
        assert!((ps[2] - 99.0).abs() < 1e-9, "p99 {}", ps[2]);
        // Estimates never exceed the largest observation.
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn histogram_first_bucket_interpolates_from_zero() {
        let mut h = Histogram::new(vec![8.0, 16.0]);
        h.observe(2.0);
        h.observe(6.0);
        // Two observations in (0, 8]: p50 is half-way through the bucket,
        // clamped by nothing (4.0 < max 6.0).
        assert!((h.quantile(0.5) - 4.0).abs() < 1e-9);
        // p100 interpolates to the bucket top but clamps to the max seen.
        assert!((h.quantile(1.0) - 6.0).abs() < 1e-9);
    }

    /// Exact nearest-rank quantile of a sorted sample (the reference the
    /// histogram estimator is checked against).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn histogram_quantiles_track_exact_sample_quantiles() {
        // Seeded pseudo-random inputs (LCG): the estimate must land in
        // the same bucket as the exact nearest-rank quantile, i.e. within
        // one bucket width below the next bound, for every probe.
        let bounds: Vec<f64> = (1..=20).map(|i| f64::from(i) * 5.0).collect();
        let mut h = Histogram::new(bounds);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut values = Vec::new();
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64 * 99.0 + 0.5;
            h.observe(v);
            values.push(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q);
            // Same bucket: the estimate may be off by at most the width
            // of the bucket holding the exact quantile (5.0 here).
            assert!(
                (est - exact).abs() <= 5.0 + 1e-9,
                "q={q}: estimate {est} vs exact {exact}"
            );
            assert!(est <= h.max() + 1e-9, "q={q}: estimate above max");
        }
        // percentiles() is elementwise quantile().
        let qs = [0.5, 0.95, 0.99];
        assert_eq!(h.percentiles(&qs), qs.map(|q| h.quantile(q)).to_vec());
    }

    #[test]
    fn histogram_empty_is_all_zeros() {
        let h = Histogram::new(vec![1.0, 10.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
        assert_eq!(h.percentiles(&[0.5, 0.99]), vec![0.0, 0.0]);
    }

    #[test]
    fn histogram_single_bucket_edge_cases() {
        // One bound: everything below it interpolates inside (0, b]; the
        // implicit overflow bucket reports the largest observation.
        let mut h = Histogram::new(vec![10.0]);
        for v in [2.0, 4.0, 6.0, 8.0] {
            h.observe(v);
        }
        // Rank r of 4 → r/4 through the (0, 10] bucket, clamped to max.
        assert!((h.quantile(0.25) - 2.5).abs() < 1e-9);
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 8.0).abs() < 1e-9, "clamped to max");
        // All mass in the overflow bucket: every quantile is the max.
        let mut o = Histogram::new(vec![1.0]);
        for v in [50.0, 70.0, 90.0] {
            o.observe(v);
        }
        for q in [0.1, 0.5, 1.0] {
            assert_eq!(o.quantile(q), 90.0, "q={q}");
        }
    }

    #[test]
    fn histogram_exponential_bounds() {
        let h = Histogram::exponential(0.001, 10.0, 4);
        assert_eq!(h.bounds, vec![0.001, 0.01, 0.1, 1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_bad_bounds() {
        Histogram::new(vec![1.0, 1.0]);
    }
}
