//! Property-based tests for the simulation substrate.

use murakkab_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime, TimeSeries};
use proptest::prelude::*;

/// Reference model of the pre-calendar event queue: a flat list popped
/// by minimum `(time, insertion sequence)` — exactly the binary heap
/// ordering the calendar queue replaced, FIFO tie-break included.
struct ModelQueue {
    events: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl ModelQueue {
    fn new() -> Self {
        ModelQueue {
            events: Vec::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: usize) {
        self.events.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.events.iter().map(|&(at, _, _)| at).min()
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let i = self
            .events
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(at, seq, _))| (at, seq))
            .map(|(i, _)| i)?;
        let (at, _, payload) = self.events.remove(i);
        Some((at, payload))
    }

    fn pop_before(&mut self, bound: SimTime, inclusive: bool) -> Option<(SimTime, usize)> {
        let head = self.peek_time()?;
        let within = if inclusive {
            head <= bound
        } else {
            head < bound
        };
        if within {
            self.pop()
        } else {
            None
        }
    }
}

proptest! {
    /// The calendar queue agrees with the heap model over arbitrary
    /// interleavings of schedules (near ties, far-future events crossing
    /// year refills), plain pops, and bounded pops — including
    /// re-schedules at the current instant after partial drains.
    #[test]
    fn calendar_queue_matches_heap_model(
        ops in prop::collection::vec((0u8..4, 0u64..5_000), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::new();
        let mut payload = 0usize;
        for &(kind, dt) in &ops {
            match kind {
                0 => {
                    // Near schedule: same-instant FIFO ties when dt = 0.
                    let at = q.now() + SimDuration::from_micros(dt);
                    q.schedule(at, payload);
                    model.schedule(at, payload);
                    payload += 1;
                }
                1 => {
                    // Far schedule: lands beyond the current bucket year,
                    // exercising the overflow heap and year refills.
                    let at = q.now() + SimDuration::from_micros(dt * 1_000);
                    q.schedule(at, payload);
                    model.schedule(at, payload);
                    payload += 1;
                }
                2 => {
                    let got = q.pop();
                    let want = model.pop();
                    prop_assert_eq!(got.map(|e| (e.at, e.payload)), want);
                }
                _ => {
                    let bound = q.now() + SimDuration::from_micros(dt / 2);
                    let inclusive = dt % 2 == 0;
                    let got = q.pop_before(bound, inclusive);
                    let want = model.pop_before(bound, inclusive);
                    prop_assert_eq!(got.map(|e| (e.at, e.payload)), want);
                }
            }
            prop_assert_eq!(q.peek_time(), model.peek_time());
            prop_assert_eq!(q.len(), model.events.len());
        }
        while let Some(e) = q.pop() {
            prop_assert_eq!(Some((e.at, e.payload)), model.pop());
        }
        prop_assert!(model.events.is_empty());
    }

    /// Popping the queue always yields non-decreasing timestamps, and ties
    /// preserve insertion order, for any schedule.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let events = q.drain_ordered();
        prop_assert_eq!(events.len(), times.len());
        for w in events.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
            if w[0].at == w[1].at {
                // Same timestamp: insertion (payload) order must hold.
                prop_assert!(w[0].payload < w[1].payload);
            }
        }
    }

    /// The integral over [a, c) equals integral [a, b) + [b, c) for any
    /// split point: the series integral is additive.
    #[test]
    fn series_integral_is_additive(
        mut pts in prop::collection::vec((0u64..10_000, -100.0f64..100.0), 1..50),
        a in 0u64..10_000,
        b in 0u64..10_000,
        c in 0u64..10_000,
    ) {
        pts.sort_by_key(|&(t, _)| t);
        pts.dedup_by_key(|&mut (t, _)| t);
        let mut ts = TimeSeries::new("p");
        for &(t, v) in &pts {
            ts.record(SimTime::from_micros(t), v).unwrap();
        }
        let mut cuts = [a, b, c];
        cuts.sort_unstable();
        let [a, b, c] = cuts.map(SimTime::from_micros);
        let whole = ts.integral(a, c);
        let split = ts.integral(a, b) + ts.integral(b, c);
        prop_assert!((whole - split).abs() < 1e-6, "{whole} != {split}");
    }

    /// value_at agrees with the last change point at or before t.
    #[test]
    fn series_value_at_matches_reference(
        mut pts in prop::collection::vec((0u64..1_000, -10.0f64..10.0), 1..30),
        probe in 0u64..1_200,
    ) {
        pts.sort_by_key(|&(t, _)| t);
        pts.dedup_by_key(|&mut (t, _)| t);
        let mut ts = TimeSeries::new("p");
        for &(t, v) in &pts {
            ts.record(SimTime::from_micros(t), v).unwrap();
        }
        let reference = pts
            .iter()
            .rev()
            .find(|&&(t, _)| t <= probe)
            .map_or(0.0, |&(_, v)| v);
        // The series dedups equal consecutive values, but value_at must
        // still agree with the reference step function.
        prop_assert_eq!(ts.value_at(SimTime::from_micros(probe)), reference);
    }

    /// SimTime arithmetic: (t + d) - t == d whenever no saturation occurs.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 2) {
        let t0 = SimTime::from_micros(t);
        let d0 = SimDuration::from_micros(d);
        prop_assert_eq!((t0 + d0) - t0, d0);
    }

    /// Forked RNG streams are reproducible functions of (seed, label).
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = SimRng::new(seed).fork(&label);
        let mut b = SimRng::new(seed).fork(&label);
        for _ in 0..8 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    /// Histogram count/mean bookkeeping is exact, and quantile(1.0) bounds
    /// every observation.
    #[test]
    fn histogram_bookkeeping(values in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let mut h = Histogram::exponential(1.0, 10.0, 7);
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6);
        let top = h.quantile(1.0);
        prop_assert!(values.iter().all(|&v| v <= top + 1e-9));
    }

    /// On uniform-width buckets, every quantile estimate lands within one
    /// bucket width of the exact nearest-rank sample quantile, is
    /// monotone in q, and never exceeds the largest observation.
    #[test]
    fn histogram_quantiles_bracket_exact_quantiles(
        mut values in prop::collection::vec(0.0f64..100.0, 1..120),
        probes in prop::collection::vec(0.0f64..1.0, 1..12),
    ) {
        const WIDTH: f64 = 10.0;
        let bounds: Vec<f64> = (1..=10).map(|i| f64::from(i) * WIDTH).collect();
        let mut h = Histogram::new(bounds);
        for &v in &values {
            h.observe(v);
        }
        values.sort_by(f64::total_cmp);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(f64::total_cmp);
        let mut last = 0.0f64;
        for &q in &sorted_probes {
            let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
            let exact = values[rank.min(values.len()) - 1];
            let est = h.quantile(q);
            prop_assert!(
                (est - exact).abs() <= WIDTH + 1e-9,
                "q={q}: estimate {est} vs exact {exact}"
            );
            prop_assert!(est <= h.max() + 1e-9);
            prop_assert!(est + 1e-9 >= last, "quantile must be monotone in q");
            last = est;
        }
    }

    /// A forward cursor answers every non-decreasing query exactly as
    /// the binary-search `value_at` does, bit for bit, and reports the
    /// first change point after the query as the next change. Series
    /// are built through `record`, so they include overwrites at one
    /// instant, dropped repeats of the same value, and no points at all;
    /// queries land before the first point, on change points (twice),
    /// just either side of them, and anywhere else.
    #[test]
    fn series_cursor_matches_value_at(
        start in 0u64..5_000_000,
        steps in prop::collection::vec(
            (
                prop_oneof![Just(0u64), 1u64..3_000_000],
                (0u8..4).prop_map(|v| f64::from(v) * 0.25),
            ),
            0..40,
        ),
        extra in prop::collection::vec(0u64..130_000_000, 0..30),
    ) {
        let mut ts = TimeSeries::new("x");
        let mut at = start;
        for &(dt, v) in &steps {
            at += dt;
            ts.record(SimTime::from_micros(at), v).unwrap();
        }
        let mut queries = extra;
        queries.push(0);
        for &(pt, _) in ts.points() {
            let us = pt.as_micros();
            queries.extend([us.saturating_sub(1), us, us, us + 1]);
        }
        queries.sort_unstable();
        let mut cursor = ts.cursor_at(SimTime::ZERO);
        for us in queries {
            let t = SimTime::from_micros(us);
            prop_assert_eq!(cursor.value_at(&ts, t).to_bits(), ts.value_at(t).to_bits(), "t={}", us);
            let next = ts.points().iter().map(|&(pt, _)| pt).find(|&pt| pt > t);
            prop_assert_eq!(cursor.next_change(&ts), next, "t={}", us);
        }
    }
}
