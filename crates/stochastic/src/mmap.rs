//! Marked arrival processes: the MMAP[K] of the paper's queueing model.
//!
//! A Marked Markovian Arrival Process with `K` classes is parameterized by `K + 1`
//! matrices `(D0, D1, …, DK)`: `D0` holds phase transitions without arrivals and `Dk`
//! the transitions that emit a class-`k` arrival. The simplest non-trivial instance is
//! the marked Poisson process, where each class arrives in an independent Poisson
//! stream — exactly the arrival model used in the paper's experiments.

use rand::Rng;
use serde::{Deserialize, Serialize};

use dias_linalg::{stationary_distribution, Matrix};

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

    /// Generates the first `n` arrivals from time zero.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<MarkedArrival> {
        let mut out = Vec::with_capacity(n);
        let mut now = 0.0;
        for _ in 0..n {
            let a = self.sample_next(rng, now);
            now = a.time;
            out.push(a);
        }
        out
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

    /// The equivalent [`Mmap`] representation (one phase).
    #[must_use]
    pub fn to_mmap(&self) -> Mmap {
        let total = self.total_rate();
        let d0 = Matrix::from_rows(&[vec![-total]]);
        let dks = self
            .rates
            .iter()
            .map(|&r| Matrix::from_rows(&[vec![r]]))
            .collect();
        Mmap::new(d0, dks).expect("marked Poisson is a valid MMAP")
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

/// A Marked Markovian Arrival Process `(D0, D1, …, DK)`.
///
/// Supports correlated and bursty arrival streams (e.g. Markov-modulated Poisson
/// processes marked by class), generalizing [`MarkedPoisson`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mmap {
    d0: Matrix,
    dks: Vec<Matrix>,
}

impl Mmap {
    /// Builds an MMAP after validating that `D = D0 + ΣDk` is a CTMC generator,
    /// `Dk ≥ 0`, and the off-diagonal of `D0` is non-negative.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string if the matrices are inconsistent.
    pub fn new(d0: Matrix, dks: Vec<Matrix>) -> Result<Self, String> {
        if !d0.is_square() {
            return Err("D0 must be square".into());
        }
        if dks.is_empty() {
            return Err("need at least one class matrix".into());
        }
        let m = d0.rows();
        for (k, dk) in dks.iter().enumerate() {
            if dk.rows() != m || dk.cols() != m {
                return Err(format!("D{} has wrong shape", k + 1));
            }
            for i in 0..m {
                for j in 0..m {
                    if dk[(i, j)] < 0.0 {
                        return Err(format!("D{}({i},{j}) is negative", k + 1));
                    }
                }
            }
        }
        for i in 0..m {
            for j in 0..m {
                if i != j && d0[(i, j)] < 0.0 {
                    return Err(format!("D0({i},{j}) off-diagonal is negative"));
                }
            }
        }
        // Row sums of D must vanish.
        let mut d = d0.clone();
        for dk in &dks {
            d = &d + dk;
        }
        for (i, rs) in d.row_sums().iter().enumerate() {
            if rs.abs() > 1e-8 {
                return Err(format!("row {i} of D sums to {rs}, expected 0"));
            }
        }
        Ok(Mmap { d0, dks })
    }

    /// A one-phase marked Poisson MMAP from per-class rates.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`MarkedPoisson::new`].
    pub fn poisson(rates: Vec<f64>) -> Result<Self, String> {
        Ok(MarkedPoisson::new(rates)?.to_mmap())
    }

    /// A two-state Markov-modulated marked Poisson process: the environment toggles
    /// between states with rates `r01`/`r10`; in state `s` class `k` arrives at
    /// `rates_by_state[s][k]`. Captures the "time-varying arrival rates" the paper
    /// mentions for production traces.
    ///
    /// # Errors
    ///
    /// Returns an error string for non-positive switching rates or empty classes.
    pub fn mmpp2(r01: f64, r10: f64, rates_by_state: [Vec<f64>; 2]) -> Result<Self, String> {
        if r01 <= 0.0 || r10 <= 0.0 {
            return Err("switching rates must be positive".into());
        }
        let k = rates_by_state[0].len();
        if k == 0 || rates_by_state[1].len() != k {
            return Err("class rate vectors must be equal-length and non-empty".into());
        }
        let tot0: f64 = rates_by_state[0].iter().sum();
        let tot1: f64 = rates_by_state[1].iter().sum();
        let d0 = Matrix::from_rows(&[vec![-(r01 + tot0), r01], vec![r10, -(r10 + tot1)]]);
        let dks = (0..k)
            .map(|j| {
                Matrix::from_rows(&[
                    vec![rates_by_state[0][j], 0.0],
                    vec![0.0, rates_by_state[1][j]],
                ])
            })
            .collect();
        Mmap::new(d0, dks)
    }

    /// Number of phases of the modulating chain.
    #[must_use]
    pub fn phases(&self) -> usize {
        self.d0.rows()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.dks.len()
    }

    /// The matrix `D0`.
    #[must_use]
    pub fn d0(&self) -> &Matrix {
        &self.d0
    }

    /// The matrix `Dk` for 0-based class `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.classes()`.
    #[must_use]
    pub fn dk(&self, k: usize) -> &Matrix {
        &self.dks[k]
    }

    /// Stationary phase distribution of the modulating generator `D`.
    #[must_use]
    pub fn stationary_phase(&self) -> Vec<f64> {
        let mut d = self.d0.clone();
        for dk in &self.dks {
            d = &d + dk;
        }
        stationary_distribution(&d).expect("validated MMAP generator has a stationary vector")
    }

    /// Long-run arrival rate of class `k`: `π D_k 1`.
    #[must_use]
    pub fn class_rate(&self, k: usize) -> f64 {
        let pi = self.stationary_phase();
        let contrib = self.dks[k].row_sums();
        pi.iter().zip(&contrib).map(|(p, c)| p * c).sum()
    }

    /// Aggregate long-run arrival rate.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        (0..self.classes()).map(|k| self.class_rate(k)).sum()
    }

    /// Creates a stateful sampler starting from the stationary phase distribution.
    pub fn sampler<R: Rng + ?Sized>(&self, rng: &mut R) -> MmapSampler {
        let pi = self.stationary_phase();
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut phase = 0;
        for (i, &p) in pi.iter().enumerate() {
            acc += p;
            if u < acc {
                phase = i;
                break;
            }
        }
        MmapSampler {
            mmap: self.clone(),
            phase,
            now: 0.0,
        }
    }
}

/// Stateful sampler over an [`Mmap`], producing a stream of [`MarkedArrival`]s.
#[derive(Debug, Clone)]
pub struct MmapSampler {
    mmap: Mmap,
    phase: usize,
    now: f64,
}

impl MmapSampler {
    /// Current simulation time of the sampler.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the chain until the next marked arrival and returns it.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> MarkedArrival {
        loop {
            let i = self.phase;
            let exit_rate = -self.mmap.d0[(i, i)];
            self.now += sample_exp(rng, exit_rate);
            // Pick among D0 off-diagonal (hidden transition) and Dk rows (arrivals).
            let mut u = rng.gen::<f64>() * exit_rate;
            let m = self.mmap.phases();
            let mut chosen: Option<(usize, Option<usize>)> = None;
            'outer: {
                for j in 0..m {
                    if j == i {
                        continue;
                    }
                    let r = self.mmap.d0[(i, j)];
                    if u < r {
                        chosen = Some((j, None));
                        break 'outer;
                    }
                    u -= r;
                }
                for (k, dk) in self.mmap.dks.iter().enumerate() {
                    for j in 0..m {
                        let r = dk[(i, j)];
                        if u < r {
                            chosen = Some((j, Some(k)));
                            break 'outer;
                        }
                        u -= r;
                    }
                }
            }
            // Numeric slack: default to staying with an arrival of the last class.
            let (next_phase, mark) = chosen.unwrap_or((i, Some(self.mmap.classes() - 1)));
            self.phase = next_phase;
            if let Some(k) = mark {
                return MarkedArrival {
                    time: self.now,
                    class: k,
                };
            }
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
        let arrivals = mp.generate(&mut rng, 20_000);
        let class0 = arrivals.iter().filter(|a| a.class == 0).count();
        let frac = class0 as f64 / arrivals.len() as f64;
        assert!((frac - 0.75).abs() < 0.01, "frac {frac}");
        // Inter-arrival mean should be 1/total_rate.
        let mean_gap = arrivals.last().unwrap().time / arrivals.len() as f64;
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

    #[test]
    fn poisson_mmap_rates_match() {
        let mmap = Mmap::poisson(vec![0.9, 0.1]).unwrap();
        assert!((mmap.class_rate(0) - 0.9).abs() < 1e-12);
        assert!((mmap.class_rate(1) - 0.1).abs() < 1e-12);
        assert!((mmap.total_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mmpp2_rates_weighted_by_stationary() {
        // Symmetric switching: half time in each state.
        let mmap = Mmap::mmpp2(1.0, 1.0, [vec![2.0], vec![6.0]]).unwrap();
        assert!((mmap.class_rate(0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mmpp2_sampler_rate_empirical() {
        let mmap = Mmap::mmpp2(0.5, 1.5, [vec![1.0, 1.0], vec![8.0, 2.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sampler = mmap.sampler(&mut rng);
        let n = 40_000;
        let mut counts = [0usize; 2];
        for _ in 0..n {
            let a = sampler.next_arrival(&mut rng);
            counts[a.class] += 1;
        }
        let horizon = sampler.now();
        let rate0 = counts[0] as f64 / horizon;
        let rate1 = counts[1] as f64 / horizon;
        assert!(
            (rate0 - mmap.class_rate(0)).abs() / mmap.class_rate(0) < 0.05,
            "rate0 {rate0} vs {}",
            mmap.class_rate(0)
        );
        assert!(
            (rate1 - mmap.class_rate(1)).abs() / mmap.class_rate(1) < 0.05,
            "rate1 {rate1} vs {}",
            mmap.class_rate(1)
        );
    }

    #[test]
    fn mmap_validation_rejects_bad_matrices() {
        // Negative class matrix entry.
        let d0 = Matrix::from_rows(&[vec![-1.0]]);
        let bad = Matrix::from_rows(&[vec![-0.5]]);
        assert!(Mmap::new(d0.clone(), vec![bad]).is_err());
        // Row sums of D nonzero.
        let d1 = Matrix::from_rows(&[vec![2.0]]);
        assert!(Mmap::new(d0, vec![d1]).is_err());
        assert!(Mmap::mmpp2(0.0, 1.0, [vec![1.0], vec![1.0]]).is_err());
    }

    #[test]
    fn poisson_sampler_and_direct_agree_in_rate() {
        let mmap = Mmap::poisson(vec![2.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = mmap.sampler(&mut rng);
        let n = 20_000;
        for _ in 0..n {
            s.next_arrival(&mut rng);
        }
        let rate = n as f64 / s.now();
        assert!((rate - 2.0).abs() < 0.05, "rate {rate}");
    }
}
