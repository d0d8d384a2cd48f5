//! Seeded, splittable randomness.
//!
//! All stochastic inputs (workload sizes, jitter, spot-preemption timing)
//! flow through [`SimRng`] so that a single `u64` seed reproduces an entire
//! experiment. Streams can be *forked* by label, which keeps independent
//! subsystems decoupled: adding a random draw in one subsystem does not
//! perturb another's sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random source for the simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a source from a root seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Forks an independent stream identified by `label`.
    ///
    /// The child seed mixes the parent seed with an FNV-1a hash of the
    /// label, so `fork("workload")` yields the same stream regardless of
    /// how many draws the parent made before the fork.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(self.seed ^ h.rotate_left(17))
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "int_range: lo > hi");
        self.rng.random_range(lo..=hi)
    }

    /// Truncated-normal sample: mean `mu`, std `sigma`, clamped to
    /// `[mu - 3 sigma, mu + 3 sigma]` and to zero from below.
    ///
    /// Uses a Box–Muller transform so the crate needs no extra
    /// distribution dependencies.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "normal: sigma must be non-negative");
        if sigma == 0.0 {
            return mu.max(0.0);
        }
        // Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = mu + sigma * z;
        v.clamp((mu - 3.0 * sigma).max(0.0), mu + 3.0 * sigma)
    }

    /// Exponential sample with the given rate (events per unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential: rate must be positive");
        let u = 1.0 - self.uniform();
        -u.ln() / rate
    }

    /// Short alias for [`SimRng::exponential`] — the inter-arrival sampler
    /// the open-loop traffic generators lean on.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exp(&mut self, rate: f64) -> f64 {
        self.exponential(rate)
    }

    /// Poisson sample with mean `lambda` (count of arrivals in a unit of
    /// time under rate `lambda`).
    ///
    /// Uses Knuth's product-of-uniforms method for small means and a
    /// rounded truncated-normal approximation for `lambda > 30` (where the
    /// Poisson is near-Gaussian and the exact method would need `O(λ)`
    /// draws).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "poisson: lambda must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            return self.normal(lambda, lambda.sqrt()).round().max(0.0) as u64;
        }
        let limit = (-lambda).exp();
        let mut product = 1.0;
        let mut count = 0u64;
        loop {
            product *= self.uniform();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.int_range(0, items.len() as u64 - 1) as usize;
            Some(&items[idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_draw_count() {
        let parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        // parent2 consumes some draws before forking.
        for _ in 0..10 {
            parent2.uniform();
        }
        let mut c1 = parent1.fork("workload");
        let mut c2 = parent2.fork("workload");
        assert_eq!(c1.uniform().to_bits(), c2.uniform().to_bits());
    }

    #[test]
    fn different_labels_differ() {
        let root = SimRng::new(7);
        let mut a = root.fork("a");
        let mut b = root.fork("b");
        let same = (0..16).all(|_| a.uniform().to_bits() == b.uniform().to_bits());
        assert!(!same, "fork streams for distinct labels should diverge");
    }

    #[test]
    fn normal_respects_clamp_and_mean() {
        let mut r = SimRng::new(1);
        let n = 10_000;
        let mu = 10.0;
        let sigma = 2.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.normal(mu, sigma);
            assert!(
                (4.0..=16.0).contains(&v),
                "sample {v} outside 3-sigma clamp"
            );
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - mu).abs() < 0.1, "mean {mean} too far from {mu}");
    }

    #[test]
    fn normal_zero_sigma_is_deterministic() {
        let mut r = SimRng::new(1);
        assert_eq!(r.normal(5.0, 0.0), 5.0);
        assert_eq!(r.normal(-5.0, 0.0), 0.0);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = SimRng::new(2);
        let n = 20_000;
        let rate = 0.5;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} should be near 2.0");
    }

    #[test]
    fn exp_matches_exponential_stream() {
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        for _ in 0..32 {
            assert_eq!(a.exp(0.25).to_bits(), b.exponential(0.25).to_bits());
        }
    }

    #[test]
    fn poisson_small_mean_and_variance() {
        let mut r = SimRng::new(12);
        let n = 20_000;
        let lambda = 4.0;
        let samples: Vec<u64> = (0..n).map(|_| r.poisson(lambda)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
        // Poisson variance equals the mean.
        assert!((var - lambda).abs() < 0.25, "variance {var}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_tail() {
        let mut r = SimRng::new(13);
        let n = 5_000;
        let lambda = 200.0;
        let mean = (0..n).map(|_| r.poisson(lambda)).sum::<u64>() as f64 / n as f64;
        assert!((mean - lambda).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut r = SimRng::new(14);
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    #[test]
    fn choose_picks_from_the_slice() {
        let mut r = SimRng::new(4);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));
    }
}
