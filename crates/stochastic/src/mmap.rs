//! Marked arrivals: the marked-Poisson case of the paper's `MMAP[K]`.
//!
//! The paper's queueing model takes a Marked Markovian Arrival Process with `K`
//! classes. Its experiments only ever feed it the simplest instance, the marked
//! Poisson process, where each class arrives in an independent Poisson stream;
//! [`MarkedPoisson`] is that process, and every stream, model and harness in the
//! workspace uses it.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sample_exp;

/// An arrival emitted by a marked process: at `time`, a job of class `class`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarkedArrival {
    /// Absolute arrival time in seconds.
    pub time: f64,
    /// Zero-based class index (the paper's priority index `k`).
    pub class: usize,
}

/// A marked Poisson process: class `k` arrives at rate `rates[k]`, independently.
///
/// # Examples
///
/// ```
/// use dias_stochastic::MarkedPoisson;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mp = MarkedPoisson::new(vec![0.9, 0.1]).unwrap();
/// assert!((mp.total_rate() - 1.0).abs() < 1e-12);
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = mp.sample_next(&mut rng, 0.0);
/// assert!(a.time > 0.0 && a.class < 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkedPoisson {
    rates: Vec<f64>,
}

impl MarkedPoisson {
    /// Creates the process from per-class rates (jobs per second).
    ///
    /// # Errors
    ///
    /// Returns an error string if `rates` is empty, contains a negative or
    /// non-finite rate, or sums to zero or to infinity.
    pub fn new(rates: Vec<f64>) -> Result<Self, String> {
        if rates.is_empty() {
            return Err("need at least one class".into());
        }
        if !rates.iter().all(|r| (0.0..f64::INFINITY).contains(r)) {
            return Err("rates must be finite and non-negative".into());
        }
        let total = rates.iter().sum::<f64>();
        if !(total > 0.0 && total.is_finite()) {
            return Err("total rate must be positive and finite".into());
        }
        Ok(MarkedPoisson { rates })
    }

    /// Per-class arrival rates.
    #[must_use]
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.rates.len()
    }

    /// Aggregate arrival rate.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Samples the next arrival strictly after `now`.
    pub fn sample_next<R: Rng + ?Sized>(&self, rng: &mut R, now: f64) -> MarkedArrival {
        let total = self.total_rate();
        let dt = sample_exp(rng, total);
        let mut u = rng.gen::<f64>() * total;
        let mut class = self.rates.len() - 1;
        for (k, &r) in self.rates.iter().enumerate() {
            if u < r {
                class = k;
                break;
            }
            u -= r;
        }
        MarkedArrival {
            time: now + dt,
            class,
        }
    }

    /// A reusable sampler caching the aggregate rate, for hot simulation
    /// loops. Its streams are bit-identical to [`MarkedPoisson::sample_next`].
    #[must_use]
    pub fn sampler(&self) -> MarkedPoissonSampler<'_> {
        MarkedPoissonSampler {
            rates: &self.rates,
            total: self.total_rate(),
        }
    }
}

/// Borrowed view of a [`MarkedPoisson`] with the aggregate rate precomputed,
/// so per-arrival sampling does not re-sum the class rates.
///
/// Produced by [`MarkedPoisson::sampler`]; the arithmetic is exactly that of
/// [`MarkedPoisson::sample_next`], so streams are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct MarkedPoissonSampler<'a> {
    rates: &'a [f64],
    total: f64,
}

impl MarkedPoissonSampler<'_> {
    /// Samples the next arrival strictly after `now`.
    pub fn sample_next<R: Rng + ?Sized>(&self, rng: &mut R, now: f64) -> MarkedArrival {
        let dt = sample_exp(rng, self.total);
        let mut u = rng.gen::<f64>() * self.total;
        let mut class = self.rates.len() - 1;
        for (k, &r) in self.rates.iter().enumerate() {
            if u < r {
                class = k;
                break;
            }
            u -= r;
        }
        MarkedArrival {
            time: now + dt,
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn marked_poisson_class_frequencies() {
        let mp = MarkedPoisson::new(vec![3.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let (mut now, mut class0) = (0.0, 0usize);
        for _ in 0..n {
            let a = mp.sample_next(&mut rng, now);
            now = a.time;
            class0 += usize::from(a.class == 0);
        }
        let frac = class0 as f64 / f64::from(n);
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
        // Inter-arrival mean should be 1/total_rate.
        let mean_gap = now / f64::from(n);
        assert!((mean_gap - 0.25).abs() < 0.01, "gap {mean_gap}");
    }

    #[test]
    fn marked_poisson_rejects_bad_input() {
        assert!(MarkedPoisson::new(vec![]).is_err());
        assert!(MarkedPoisson::new(vec![-1.0]).is_err());
        assert!(MarkedPoisson::new(vec![0.0, 0.0]).is_err());
        // NaN fails every comparison, so it must be rejected explicitly; an
        // infinite rate would emit arrivals at t = 0 forever.
        assert!(MarkedPoisson::new(vec![f64::NAN]).is_err());
        assert!(MarkedPoisson::new(vec![0.5, f64::NAN]).is_err());
        assert!(MarkedPoisson::new(vec![f64::INFINITY]).is_err());
        assert!(MarkedPoisson::new(vec![f64::NEG_INFINITY, 1.0]).is_err());
        assert!(MarkedPoisson::new(vec![f64::MAX, f64::MAX]).is_err());
    }
}
