//! Discrete distributions over task counts.
//!
//! The paper's models take the number of map and reduce tasks of a priority-`k` job
//! as discrete random variables with pmfs `p_m(t)` and `p_r(u)` supported on
//! `{1, …, N}` (§4.1). [`DiscreteDist`] is that object.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A probability distribution over `{1, …, N}` (1-based support, as in the paper).
///
/// # Examples
///
/// ```
/// use dias_stochastic::DiscreteDist;
///
/// // A job always has exactly 50 tasks:
/// let fixed = DiscreteDist::constant(50);
/// assert_eq!(fixed.max_value(), 50);
/// assert!((fixed.pmf(50) - 1.0).abs() < 1e-12);
/// assert!((fixed.mean() - 50.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscreteDist {
    /// `probs[i]` is the probability of value `i + 1`.
    probs: Vec<f64>,
}

impl DiscreteDist {
    /// Builds a distribution from weights over `{1, …, weights.len()}`; weights are
    /// normalized.
    ///
    /// # Errors
    ///
    /// Returns an error string if `weights` is empty, contains a negative entry, or
    /// sums to zero.
    pub fn from_weights(weights: &[f64]) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("need at least one weight".into());
        }
        if weights.iter().any(|&w| w < 0.0) {
            return Err("weights must be non-negative".into());
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err("weights must not all be zero".into());
        }
        Ok(DiscreteDist {
            probs: weights.iter().map(|w| w / total).collect(),
        })
    }

    /// A point mass at `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`; the support starts at 1.
    #[must_use]
    pub fn constant(value: usize) -> Self {
        assert!(value >= 1, "support starts at 1");
        let mut probs = vec![0.0; value];
        probs[value - 1] = 1.0;
        DiscreteDist { probs }
    }

    /// A binomial-like spread: truncated discretized normal around `center` with
    /// the given relative spread, clipped to `{1, …, max}`. Handy for "about 50
    /// partitions, give or take" task counts.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= center <= max` and `spread >= 0`.
    #[must_use]
    pub fn around(center: usize, spread: f64, max: usize) -> Self {
        assert!(center >= 1 && center <= max, "need 1 <= center <= max");
        assert!(spread >= 0.0, "spread must be non-negative");
        if spread == 0.0 {
            let mut d = DiscreteDist::constant(center);
            d.probs.resize(max, 0.0);
            return d;
        }
        let sigma = spread * center as f64;
        let mut weights = vec![0.0; max];
        for (i, w) in weights.iter_mut().enumerate() {
            let x = (i + 1) as f64 - center as f64;
            *w = (-0.5 * (x / sigma) * (x / sigma)).exp();
        }
        DiscreteDist::from_weights(&weights).expect("gaussian weights are valid")
    }

    /// Largest value with positive support (the paper's `N_m`/`N_r`).
    #[must_use]
    pub fn max_value(&self) -> usize {
        self.probs
            .iter()
            .rposition(|&p| p > 0.0)
            .map_or(1, |i| i + 1)
    }

    /// Probability of `value`.
    ///
    /// Returns 0 outside the support range.
    #[must_use]
    pub fn pmf(&self, value: usize) -> f64 {
        if value == 0 || value > self.probs.len() {
            0.0
        } else {
            self.probs[value - 1]
        }
    }

    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Expectation of `f(value)` under the distribution.
    pub fn expect<F: Fn(usize) -> f64>(&self, f: F) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| p * f(i + 1))
            .sum()
    }

    /// Iterates over `(value, probability)` pairs with positive probability.
    pub fn support(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(i, &p)| (i + 1, p))
    }

    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i + 1;
            }
        }
        self.max_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_weights_normalizes() {
        let d = DiscreteDist::from_weights(&[1.0, 3.0]).unwrap();
        assert!((d.pmf(1) - 0.25).abs() < 1e-12);
        assert!((d.pmf(2) - 0.75).abs() < 1e-12);
        assert!((d.mean() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(DiscreteDist::from_weights(&[]).is_err());
        assert!(DiscreteDist::from_weights(&[-1.0, 2.0]).is_err());
        assert!(DiscreteDist::from_weights(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn around_is_centered() {
        let d = DiscreteDist::around(50, 0.1, 80);
        assert!((d.mean() - 50.0).abs() < 0.5);
        assert!(d.pmf(50) > d.pmf(40));
        assert!(d.pmf(50) > d.pmf(60));
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = DiscreteDist::from_weights(&[0.2, 0.3, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[d.sample(&mut rng) - 1] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - d.pmf(i + 1)).abs() < 0.01, "value {}", i + 1);
        }
    }

    #[test]
    fn expectation_functional() {
        let d = DiscreteDist::from_weights(&[1.0, 1.0, 1.0]).unwrap();
        let second_moment = d.expect(|v| (v * v) as f64);
        assert!((second_moment - (1.0 + 4.0 + 9.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn support_iterator_skips_zeros() {
        let d = DiscreteDist::from_weights(&[0.0, 1.0, 1.0]).unwrap();
        let support: Vec<usize> = d.support().map(|(v, _)| v).collect();
        assert_eq!(support, vec![2, 3]);
    }
}
