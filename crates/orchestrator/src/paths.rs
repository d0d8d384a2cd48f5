//! Execution-path (chain-of-thought) quality/cost modelling.
//!
//! §3.2 "Execution Paths": "allocating more resources allows exploration
//! of additional reasoning paths, with the final result determined by
//! top-k outputs". Each extra path costs roughly one more generation but
//! lifts answer quality with diminishing returns (self-consistency
//! sampling).

/// Residual-error decay per extra path: each additional sampled path
/// resolves about a third of the remaining error mass.
pub const PATH_DECAY: f64 = 0.65;

/// Quality of top-k voting over `k` independent reasoning paths, given a
/// single-path quality `base`.
///
/// `q(k) = 1 - (1 - base) · PATH_DECAY^(k-1)` — monotone in `k`, equal to
/// `base` at `k = 1`, asymptoting below 1.
///
/// # Panics
///
/// Panics if `k` is zero.
///
/// # Examples
///
/// ```
/// use murakkab_orchestrator::paths::path_quality;
///
/// let one = path_quality(0.80, 1);
/// let five = path_quality(0.80, 5);
/// assert_eq!(one, 0.80);
/// assert!(five > 0.90 && five < 1.0);
/// ```
pub fn path_quality(base: f64, k: u32) -> f64 {
    assert!(k > 0, "at least one execution path is required");
    let base = base.clamp(0.0, 1.0);
    1.0 - (1.0 - base) * PATH_DECAY.powi(k as i32 - 1)
}

/// Cost multiplier of `k` paths relative to one (the vote call adds a
/// small fixed overhead).
pub fn path_cost_factor(k: u32) -> f64 {
    assert!(k > 0, "at least one execution path is required");
    if k == 1 {
        1.0
    } else {
        f64::from(k) + 0.15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_is_identity() {
        assert_eq!(path_quality(0.84, 1), 0.84);
        assert_eq!(path_cost_factor(1), 1.0);
    }

    #[test]
    fn quality_is_monotone_with_diminishing_returns() {
        let base = 0.8;
        let mut prev = path_quality(base, 1);
        let mut prev_gain = f64::MAX;
        for k in 2..8 {
            let q = path_quality(base, k);
            let gain = q - prev;
            assert!(q > prev, "k={k}");
            assert!(gain < prev_gain, "diminishing returns violated at k={k}");
            assert!(q < 1.0);
            prev = q;
            prev_gain = gain;
        }
    }

    #[test]
    fn cost_is_roughly_linear_in_paths() {
        assert!(path_cost_factor(4) > 4.0);
        assert!(path_cost_factor(4) < 4.5);
    }

    #[test]
    #[should_panic(expected = "at least one execution path")]
    fn zero_paths_rejected() {
        path_quality(0.9, 0);
    }
}
