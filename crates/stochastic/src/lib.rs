//! Phase-type distributions and arrival processes for the DiAS stochastic models.
//!
//! The DiAS paper (§4) models job processing times *bottom-up* as phase-type (PH)
//! distributions — first at the task level, then at the wave level — and feeds them
//! into an `MMAP[K]/PH[K]/1` priority queue. This crate provides the probabilistic
//! toolbox those models are built from:
//!
//! * [`Ph`] — phase-type distributions: constructors (exponential, Erlang,
//!   hyperexponential, Coxian), closure operations (convolution, mixture, scaling,
//!   minimum/maximum), exact moments, CDF evaluation by uniformization, quantiles,
//!   equilibrium and overshoot distributions, and sampling.
//! * [`MarkedPoisson`] — marked Poisson arrivals with one stream per priority
//!   class: the case of the paper's `MMAP[K]` arrivals that its experiments use.
//! * [`Dist`] — scalar distributions used by the engine simulator for task execution
//!   times, with exact means and second moments; [`Dist::compile`] gives the
//!   [`CompiledDist`] that repeated draws use.
//! * [`DiscreteDist`] — distributions over task counts (the paper's `p_m(t)`,
//!   `p_r(u)`).
//! * [`fit`] — moment-matching: fit a PH to a target mean and squared coefficient of
//!   variation.
//!
//! # Examples
//!
//! ```
//! use dias_stochastic::Ph;
//!
//! // A 3-phase Erlang with rate 6 per phase: mean 0.5, SCV 1/3.
//! let job = Ph::erlang(3, 6.0).unwrap();
//! assert!((job.mean() - 0.5).abs() < 1e-12);
//! assert!((job.scv() - 1.0 / 3.0).abs() < 1e-12);
//! // PH is closed under convolution:
//! let two_jobs = job.convolve(&job);
//! assert!((two_jobs.mean() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod discrete;
mod evaluator;
pub mod fit;
mod mmap;
mod ph;
mod scalar;

pub use discrete::DiscreteDist;
pub use evaluator::{PhEvaluator, PhSampler, QUANTILE_SATURATION};
pub use mmap::{MarkedArrival, MarkedPoisson, MarkedPoissonSampler};
pub use ph::{Ph, PhError};
pub use scalar::{CompiledDist, Dist, DistSampler, ZipfSampler};

/// Draws an exponential variate with the given `rate` using inverse transform.
///
/// # Panics
///
/// Panics if `rate <= 0`.
pub fn sample_exp<R: rand::Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Draws a standard normal variate via Box–Muller.
pub fn sample_std_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exp_sample_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| sample_exp(&mut rng, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_std_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
