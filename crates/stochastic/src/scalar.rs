//! Scalar distributions for task execution times and workload generation.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{sample_exp, sample_std_normal};

/// A scalar, non-negative distribution with closed-form first two moments.
///
/// The engine simulator samples task execution times, setup overheads and shuffle
/// durations from these; the models consume their exact moments. Keeping the enum
/// closed lets experiment configurations be serialized and replayed.
///
/// # Examples
///
/// ```
/// use dias_stochastic::Dist;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let d = Dist::erlang(4, 2.0);
/// assert!((d.mean() - 2.0).abs() < 1e-12);
/// let mut rng = StdRng::seed_from_u64(0);
/// assert!(d.sample(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// A point mass at `value`.
    Constant {
        /// The constant value.
        value: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Erlang-`k` with the given mean (sum of `k` exponentials).
    Erlang {
        /// Number of phases.
        k: u32,
        /// Mean of the distribution.
        mean: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Lognormal parameterized by the *target* mean and squared coefficient of
    /// variation (not the underlying normal's parameters).
    LogNormal {
        /// Mean of the distribution.
        mean: f64,
        /// Squared coefficient of variation.
        scv: f64,
    },
    /// Two-branch hyperexponential parameterized by mean and SCV ≥ 1 with balanced
    /// means, for bursty task times.
    HyperExp {
        /// Mean of the distribution.
        mean: f64,
        /// Squared coefficient of variation (must be ≥ 1).
        scv: f64,
    },
}

impl Dist {
    /// A point mass.
    #[must_use]
    pub fn constant(value: f64) -> Self {
        assert!(value >= 0.0, "constant must be non-negative");
        Dist::Constant { value }
    }

    /// Exponential with the given mean.
    #[must_use]
    pub fn exponential(mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Dist::Exponential { mean }
    }

    /// Erlang-`k` with the given mean.
    #[must_use]
    pub fn erlang(k: u32, mean: f64) -> Self {
        assert!(k >= 1, "erlang needs k >= 1");
        assert!(mean > 0.0, "mean must be positive");
        Dist::Erlang { k, mean }
    }

    /// Uniform on `[lo, hi]`.
    #[must_use]
    pub fn uniform(lo: f64, hi: f64) -> Self {
        assert!(0.0 <= lo && lo < hi, "need 0 <= lo < hi");
        Dist::Uniform { lo, hi }
    }

    /// Lognormal with the given mean and SCV.
    #[must_use]
    pub fn lognormal(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0 && scv > 0.0, "mean and scv must be positive");
        Dist::LogNormal { mean, scv }
    }

    /// Balanced-means hyperexponential with the given mean and SCV ≥ 1.
    #[must_use]
    pub fn hyperexp(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(scv >= 1.0, "hyperexponential needs scv >= 1");
        Dist::HyperExp { mean, scv }
    }

    /// The mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant { value } => value,
            Dist::Exponential { mean }
            | Dist::Erlang { mean, .. }
            | Dist::LogNormal { mean, .. }
            | Dist::HyperExp { mean, .. } => mean,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
        }
    }

    /// The second raw moment `E[X²]`.
    #[must_use]
    pub fn second_moment(&self) -> f64 {
        let m = self.mean();
        match *self {
            Dist::Constant { .. } => m * m,
            Dist::Exponential { .. } => 2.0 * m * m,
            Dist::Erlang { k, .. } => m * m * (1.0 + 1.0 / f64::from(k)),
            Dist::Uniform { lo, hi } => (hi * hi + hi * lo + lo * lo) / 3.0,
            Dist::LogNormal { scv, .. } | Dist::HyperExp { scv, .. } => m * m * (1.0 + scv),
        }
    }

    /// Variance.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        (self.second_moment() - m * m).max(0.0)
    }

    /// Squared coefficient of variation.
    #[must_use]
    pub fn scv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// Returns a copy with the mean multiplied by `factor` (same shape / SCV).
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Dist {
        assert!(factor > 0.0, "scale factor must be positive");
        match *self {
            Dist::Constant { value } => Dist::Constant {
                value: value * factor,
            },
            Dist::Exponential { mean } => Dist::Exponential {
                mean: mean * factor,
            },
            Dist::Erlang { k, mean } => Dist::Erlang {
                k,
                mean: mean * factor,
            },
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * factor,
                hi: hi * factor,
            },
            Dist::LogNormal { mean, scv } => Dist::LogNormal {
                mean: mean * factor,
                scv,
            },
            Dist::HyperExp { mean, scv } => Dist::HyperExp {
                mean: mean * factor,
                scv,
            },
        }
    }

    /// Draws a sample. Same as [`Dist::compile`] followed by
    /// [`CompiledDist::sample`], which repeated draws should use instead.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.compile().sample(rng)
    }

    /// Derives the distribution's sampling parameters once, for repeated
    /// draws.
    #[must_use]
    pub fn compile(&self) -> CompiledDist {
        let kind = match *self {
            Dist::Constant { value } => Kind::Constant { value },
            Dist::Exponential { mean } => Kind::Exponential { rate: 1.0 / mean },
            Dist::Erlang { k, mean } => Kind::Erlang {
                k,
                rate: f64::from(k) / mean,
            },
            Dist::Uniform { lo, hi } => Kind::Uniform { lo, hi },
            Dist::LogNormal { mean, scv } => {
                // If X = exp(μ + σZ): E[X] = exp(μ + σ²/2), SCV = exp(σ²) − 1.
                let sigma2 = (1.0 + scv).ln();
                Kind::LogNormal {
                    mu: mean.ln() - 0.5 * sigma2,
                    sigma: sigma2.sqrt(),
                }
            }
            Dist::HyperExp { mean, scv } => {
                // Balanced-means 2-phase fit.
                let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
                Kind::HyperExp {
                    p1: p,
                    r1: 2.0 * p / mean,
                    r2: 2.0 * (1.0 - p) / mean,
                }
            }
        };
        CompiledDist { kind }
    }
}

/// A [`Dist`] with its sampling parameters derived once, built by
/// [`Dist::compile`].
///
/// [`Dist::sample`] compiles on every call: for a lognormal that is two
/// logarithms and a square root per draw before any random number is
/// touched. A `CompiledDist` pays that once. Its draws consume the RNG
/// exactly as [`Dist::sample`] does and are bit-identical to it for every
/// shape, so seeded simulations keep their histories whichever they call.
///
/// # Examples
///
/// ```
/// use dias_stochastic::Dist;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let d = Dist::lognormal(35.0, 0.08);
/// let compiled = d.compile();
/// let mut a = StdRng::seed_from_u64(7);
/// let mut b = StdRng::seed_from_u64(7);
/// assert_eq!(compiled.sample(&mut a), d.sample(&mut b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledDist {
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Constant { value: f64 },
    Exponential { rate: f64 },
    Erlang { k: u32, rate: f64 },
    Uniform { lo: f64, hi: f64 },
    LogNormal { mu: f64, sigma: f64 },
    HyperExp { p1: f64, r1: f64, r2: f64 },
}

impl CompiledDist {
    /// Draws a sample.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.kind {
            Kind::Constant { value } => value,
            Kind::Exponential { rate } => sample_exp(rng, rate),
            Kind::Erlang { k, rate } => (0..k).map(|_| sample_exp(rng, rate)).sum(),
            Kind::Uniform { lo, hi } => rng.gen_range(lo..hi),
            Kind::LogNormal { mu, sigma } => (mu + sigma * sample_std_normal(rng)).exp(),
            Kind::HyperExp { p1, r1, r2 } => {
                if rng.gen::<f64>() < p1 {
                    sample_exp(rng, r1)
                } else {
                    sample_exp(rng, r2)
                }
            }
        }
    }
}

/// A repeated-draw sampler for one [`Dist`] that trades stream identity for
/// speed on the lognormal, and also draws antithetic pairs.
///
/// Draw streams: every shape except the lognormal draws through
/// [`CompiledDist::sample`], bit-identical to [`Dist::sample`]. The
/// lognormal uses Marsaglia's polar method and keeps both variates of each
/// accepted pair — roughly 1.3 uniforms and half a `ln`/`sqrt` per draw, and
/// none of Box–Muller's trigonometry — so its stream differs from
/// [`Dist::sample`]'s; the distribution is exact either way. Simulations that
/// must preserve their seeded histories sample through [`CompiledDist`]
/// (or [`Dist::sample`]).
///
/// # Examples
///
/// ```
/// use dias_stochastic::{Dist, DistSampler};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let d = Dist::erlang(4, 2.0);
/// let mut fast = DistSampler::new(&d);
/// let mut a = StdRng::seed_from_u64(7);
/// let mut b = StdRng::seed_from_u64(7);
/// assert_eq!(fast.sample(&mut a), d.sample(&mut b));
/// ```
#[derive(Debug, Clone)]
pub struct DistSampler {
    dist: CompiledDist,
    /// Lognormal only: `e^μ`, hoisted for the antithetic pair (`e^μ·t`,
    /// `e^μ/t`).
    scale: f64,
    /// Lognormal only: the second variate of the previous polar pair, if
    /// unused.
    spare: Option<f64>,
}

impl DistSampler {
    /// Precomputes the sampling parameters of `dist`.
    #[must_use]
    pub fn new(dist: &Dist) -> Self {
        let dist = dist.compile();
        let scale = match dist.kind {
            Kind::LogNormal { mu, .. } => mu.exp(),
            _ => 1.0,
        };
        DistSampler {
            dist,
            scale,
            spare: None,
        }
    }

    /// A standard normal variate by Marsaglia's polar method: one log and
    /// one sqrt per accepted pair, no trigonometry (Box–Muller's `sin_cos`
    /// is the costliest call in the pair). Acceptance is π/4, so ~2.55
    /// uniforms per pair; the pair's second variate is kept for the next
    /// call.
    fn polar_normal<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let (v1, v2, s) = loop {
            let v1 = 2.0 * rng.gen::<f64>() - 1.0;
            let v2 = 2.0 * rng.gen::<f64>() - 1.0;
            let s = v1 * v1 + v2 * v2;
            if s < 1.0 && s > 0.0 {
                break (v1, v2, s);
            }
        };
        let f = (-2.0 * s.ln() / s).sqrt();
        self.spare = Some(v2 * f);
        v1 * f
    }

    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        match self.dist.kind {
            Kind::LogNormal { mu, sigma } => (mu + sigma * self.polar_normal(rng)).exp(),
            _ => self.dist.sample(rng),
        }
    }

    /// Draws an **antithetic pair**: two samples coupled through mirrored
    /// uniforms (`u` and `1 − u`; for the lognormal, `z` and `−z`), each
    /// marginally distributed exactly as [`DistSampler::sample`].
    ///
    /// Because every `Dist` shape here is a monotone transform of its
    /// uniforms, the two halves are negatively correlated, and so is any
    /// componentwise-monotone statistic computed from paired draw vectors
    /// (Hoeffding) — a Monte-Carlo mean over both halves is never looser than
    /// one over the same number of independent draws, while consuming half
    /// the RNG words and transcendentals. This drives the variance-reduced
    /// profiling fits in `dias_models`.
    pub fn sample_antithetic<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (f64, f64) {
        fn exp_pair<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> (f64, f64) {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (-u.ln() / rate, -(1.0 - u).ln() / rate)
        }
        match self.dist.kind {
            Kind::Constant { value } => (value, value),
            Kind::Exponential { rate } => exp_pair(rng, rate),
            Kind::Erlang { k, rate } => {
                let (mut a, mut b) = (0.0, 0.0);
                for _ in 0..k {
                    let (x, y) = exp_pair(rng, rate);
                    a += x;
                    b += y;
                }
                (a, b)
            }
            Kind::Uniform { lo, hi } => {
                let x = rng.gen_range(lo..hi);
                (x, lo + hi - x)
            }
            Kind::LogNormal { sigma, .. } => {
                // One exp serves both halves: e^{μ+σz} = e^μ·t and
                // e^{μ−σz} = e^μ/t with t = e^{σz}, equal to the direct
                // forms up to an ulp — far below Monte-Carlo resolution.
                let t = (sigma * self.polar_normal(rng)).exp();
                (self.scale * t, self.scale / t)
            }
            Kind::HyperExp { p1, r1, r2 } => {
                let u: f64 = rng.gen();
                let ra = if u < p1 { r1 } else { r2 };
                let rb = if 1.0 - u < p1 { r1 } else { r2 };
                let w: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                (-w.ln() / ra, -(1.0 - w).ln() / rb)
            }
        }
    }
}

/// Samples an integer from a Zipf distribution on `{1, …, n}` with exponent `s`,
/// via inverted CDF over precomputed weights.
///
/// For repeated sampling prefer [`ZipfSampler`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler for ranks `1..=n` with exponent `s > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs n >= 1");
        assert!(s > 0.0, "zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the sampler has no ranks (never constructed; kept for API
    /// completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a 1-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// Probability of rank `r` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `r` is 0 or exceeds the number of ranks.
    #[must_use]
    pub fn pmf(&self, r: usize) -> f64 {
        assert!(r >= 1 && r <= self.cdf.len(), "rank out of bounds");
        if r == 1 {
            self.cdf[0]
        } else {
            self.cdf[r - 1] - self.cdf[r - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_moments(d: &Dist, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let m2 = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        (mean, m2)
    }

    #[test]
    fn moments_match_samples() {
        let cases = [
            Dist::constant(3.0),
            Dist::exponential(2.0),
            Dist::erlang(4, 2.0),
            Dist::uniform(1.0, 5.0),
            Dist::lognormal(2.0, 0.5),
            Dist::hyperexp(2.0, 4.0),
        ];
        for (i, d) in cases.iter().enumerate() {
            let (mean, m2) = empirical_moments(d, 60_000, 100 + i as u64);
            assert!(
                (mean - d.mean()).abs() / d.mean() < 0.03,
                "{d:?}: mean {mean} vs {}",
                d.mean()
            );
            assert!(
                (m2 - d.second_moment()).abs() / d.second_moment() < 0.08,
                "{d:?}: m2 {m2} vs {}",
                d.second_moment()
            );
        }
    }

    #[test]
    fn scaled_preserves_scv() {
        for d in [
            Dist::exponential(1.0),
            Dist::erlang(3, 2.0),
            Dist::lognormal(1.0, 2.0),
        ] {
            let s = d.scaled(0.4);
            assert!((s.mean() - 0.4 * d.mean()).abs() < 1e-12);
            assert!((s.scv() - d.scv()).abs() < 1e-12);
        }
    }

    #[test]
    fn dist_sampler_streams_bit_identical_except_lognormal() {
        for d in [
            Dist::constant(3.0),
            Dist::exponential(2.0),
            Dist::erlang(4, 2.0),
            Dist::uniform(1.0, 5.0),
            Dist::hyperexp(2.0, 4.0),
        ] {
            let mut fast = DistSampler::new(&d);
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            for i in 0..1000 {
                assert_eq!(fast.sample(&mut a), d.sample(&mut b), "{d:?} draw {i}");
            }
            // Same RNG consumption, so the generators stay in lockstep.
            assert_eq!(a, b, "{d:?} rng state diverged");
        }
    }

    #[test]
    fn dist_sampler_lognormal_moments_hold() {
        let d = Dist::lognormal(2.0, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut fast = DistSampler::new(&d);
        let n = 60_000;
        let xs: Vec<f64> = (0..n).map(|_| fast.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let m2 = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.03, "mean {mean}");
        assert!(
            (m2 - d.second_moment()).abs() / d.second_moment() < 0.08,
            "m2 {m2}"
        );
    }

    #[test]
    fn zipf_is_heavy_headed() {
        let z = ZipfSampler::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let ones = (0..n).filter(|_| z.sample(&mut rng) == 1).count();
        let expect = z.pmf(1);
        let got = ones as f64 / n as f64;
        assert!((got - expect).abs() < 0.01, "{got} vs {expect}");
        // pmf sums to 1.
        let total: f64 = (1..=1000).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scv >= 1")]
    fn hyperexp_requires_scv_at_least_one() {
        let _ = Dist::hyperexp(1.0, 0.5);
    }
}
