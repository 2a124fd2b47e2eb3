//! Cached evaluation and sampling of phase-type distributions.
//!
//! Every analytic quantity of a PH distribution funnels through products
//! `α · exp(A t)` — and almost every caller evaluates them *many times* for the
//! same `(α, A)`: quantile bisection, response-time CDFs on a grid of
//! percentiles, accuracy deflators probing drop ratios. [`PhEvaluator`]
//! computes the expensive state once and answers each query from it:
//!
//! * the uniformized matrix `P = I + A/λ` is built a single time
//!   ([`dias_linalg::Uniformized`]);
//! * the Poisson terms are collapsed to *scalars* — `s_k = α P^k 1` for the
//!   survival function and `d_k = α P^k a` for the density — extended lazily
//!   as larger horizons demand more terms, so one `sf`/`pdf`/`cdf` query costs
//!   a short dot product of Poisson weights against cached coefficients, with
//!   no matrix work and no allocation;
//! * the solve vectors `(−A)^{-k} 1` behind overshoot moments are cached per
//!   order.
//!
//! [`PhSampler`] is the sampling-side analogue: it precomputes the exit-rate
//! vector, the cumulative initial distribution and per-phase transition lists
//! so that each draw walks the chain without touching the matrix or the heap.
//! Its random streams are bit-identical to [`Ph::sample`]'s.

use rand::Rng;

use dias_linalg::{dot, sum, Matrix, Uniformized, POISSON_TAIL};

use crate::Ph;

/// Saturation point of [`PhEvaluator::quantile`] (and [`Ph::quantile`]): the
/// log-space bracket search clamps its upper endpoint to this horizon, and if
/// the CDF still has not reached `q` there, the horizon itself is returned.
/// Only distributions of extreme scale (means near `1e12`) or numerically
/// defective representations get that far; every other quantile is bracketed
/// and refined normally.
pub const QUANTILE_SATURATION: f64 = 1e12;

/// A reusable evaluator for one PH distribution's analytic queries.
///
/// Build once (via [`PhEvaluator::new`] or [`Ph::evaluator`]), then query
/// [`sf`](PhEvaluator::sf) / [`cdf`](PhEvaluator::cdf) /
/// [`pdf`](PhEvaluator::pdf) / [`quantile`](PhEvaluator::quantile) /
/// [`sf_grid`](PhEvaluator::sf_grid) /
/// [`overshoot_moment`](PhEvaluator::overshoot_moment) freely — all queries
/// share one cache. Methods take `&mut self` because the cache grows lazily;
/// results are identical no matter the query order.
///
/// [`Ph`]'s own methods are routed through a lazily built, internally shared
/// evaluator, so casual callers get the caching for free; hot loops that want
/// to avoid the synchronization of the shared cache hold their own instance.
///
/// # Examples
///
/// ```
/// use dias_stochastic::Ph;
///
/// let job = Ph::erlang(4, 2.0).unwrap();
/// let mut ev = job.evaluator();
/// let p95 = ev.quantile(0.95);
/// assert!((ev.cdf(p95) - 0.95).abs() < 1e-6);
/// // Grid evaluation shares the same cached Poisson terms.
/// let sf = ev.sf_grid(&[0.5, 1.0, 2.0, 4.0]);
/// assert!(sf.windows(2).all(|w| w[0] >= w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct PhEvaluator {
    alpha: Vec<f64>,
    exit: Vec<f64>,
    mass_at_zero: f64,
    mean: f64,
    uni: Uniformized,
    /// `s_k = α P^k 1` for `k = 0..sums.len()`.
    sums: Vec<f64>,
    /// `d_k = α P^k a` for `k = 0..dots.len()` (same length as `sums`).
    dots: Vec<f64>,
    /// The highest computed power `α P^{sums.len()-1}`.
    vk: Vec<f64>,
    /// Ping-pong scratch for extending `vk`.
    vk_next: Vec<f64>,
    /// Scratch for full-vector applications (overshoot moments).
    acc: Vec<f64>,
    /// `−A`, for extending the cached solve vectors.
    neg_a: Matrix,
    /// `(−A)^{-k} 1` at index `k − 1`, extended on demand.
    solves: Vec<Vec<f64>>,
}

impl PhEvaluator {
    /// Precomputes the evaluator state for `ph`.
    #[must_use]
    pub fn new(ph: &Ph) -> Self {
        let alpha = ph.alpha().to_vec();
        let exit = ph.exit_vector();
        let uni = Uniformized::new(ph.matrix());
        let n = alpha.len();
        let sums = vec![sum(&alpha)];
        let dots = vec![dot(&alpha, &exit)];
        PhEvaluator {
            vk: alpha.clone(),
            vk_next: vec![0.0; n],
            acc: vec![0.0; n],
            neg_a: ph.matrix().scaled(-1.0),
            solves: Vec::new(),
            mass_at_zero: ph.mass_at_zero(),
            mean: ph.mean(),
            alpha,
            exit,
            uni,
            sums,
            dots,
        }
    }

    /// Number of transient phases.
    #[must_use]
    pub fn order(&self) -> usize {
        self.alpha.len()
    }

    /// The distribution's mean (precomputed).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Probability mass at zero (precomputed).
    #[must_use]
    pub fn mass_at_zero(&self) -> f64 {
        self.mass_at_zero
    }

    /// Extends the cached scalar sequences through power `kmax`.
    fn ensure_powers(&mut self, kmax: usize) {
        while self.sums.len() <= kmax {
            self.uni.matrix().vec_mul_into(&self.vk, &mut self.vk_next);
            std::mem::swap(&mut self.vk, &mut self.vk_next);
            self.sums.push(sum(&self.vk));
            self.dots.push(dot(&self.vk, &self.exit));
        }
    }

    /// Poisson mixture of the cached coefficients: `Σ_k w_k(λt) c_k` where
    /// `c` is `sums` (survival) or `dots` (density).
    fn poisson_mix(&mut self, t: f64, density: bool) -> f64 {
        debug_assert!(t >= 0.0);
        let lt = self.uni.lambda() * t;
        let mut weight = (-lt).exp();
        if weight == 0.0 {
            // exp(-λt) underflowed: every Poisson term is exactly zero, just
            // as in the uncached term-by-term evaluation.
            return 0.0;
        }
        let kmax = dias_linalg::poisson_truncation(lt);
        self.ensure_powers(kmax);
        let coeffs = if density { &self.dots } else { &self.sums };
        let mut acc = weight * coeffs[0];
        let mut cum = weight;
        for (k, &c) in coeffs.iter().enumerate().take(kmax + 1).skip(1) {
            weight *= lt / k as f64;
            if weight > 0.0 {
                acc += weight * c;
                cum += weight;
            }
            if 1.0 - cum < POISSON_TAIL {
                break;
            }
        }
        acc
    }

    /// Survival function `P(X > t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    pub fn sf(&mut self, t: f64) -> f64 {
        assert!(t >= 0.0, "sf requires t >= 0");
        self.poisson_mix(t, false).clamp(0.0, 1.0)
    }

    /// Cumulative distribution function `P(X ≤ t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    pub fn cdf(&mut self, t: f64) -> f64 {
        1.0 - self.sf(t)
    }

    /// Probability density `f(t) = α e^{At} a`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    pub fn pdf(&mut self, t: f64) -> f64 {
        assert!(t >= 0.0, "pdf requires t >= 0");
        self.poisson_mix(t, true).max(0.0)
    }

    /// Survival function on a grid of times, evaluated against the shared
    /// Poisson-coefficient cache. Any ordering is fine: the largest point
    /// extends the cache once and every other point reuses a prefix of it.
    ///
    /// # Panics
    ///
    /// Panics if the grid contains a negative time.
    pub fn sf_grid(&mut self, ts: &[f64]) -> Vec<f64> {
        ts.iter().map(|&t| self.sf(t)).collect()
    }

    /// The `q`-quantile: log-space bracketing (doubling from the mean) then
    /// bisection, all against the shared cache.
    ///
    /// Saturates at [`QUANTILE_SATURATION`]: if the CDF has not reached `q`
    /// by that horizon (distributions of extreme scale or numerically
    /// defective representations), the saturation point itself is returned.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1)`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile must be in [0,1)");
        if q <= self.mass_at_zero {
            return 0.0;
        }
        // Log-space bracket: [lo, hi] with cdf(lo) < q ≤ cdf(hi).
        let mut lo = 0.0;
        let mut hi = self.mean.max(1e-9);
        while self.cdf(hi) < q {
            lo = hi;
            hi *= 2.0;
            if hi > QUANTILE_SATURATION {
                hi = QUANTILE_SATURATION;
                if self.cdf(hi) < q {
                    return hi; // documented saturation
                }
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < q {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-9 * hi.max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Extends the cached solve vectors `(−A)^{-k} 1` through order `k`.
    fn ensure_solves(&mut self, k: u32) {
        while self.solves.len() < k as usize {
            let prev = match self.solves.last() {
                Some(v) => v.clone(),
                None => vec![1.0; self.order()],
            };
            let next = self
                .neg_a
                .solve(&prev)
                .expect("validated sub-generator is nonsingular");
            self.solves.push(next);
        }
    }

    /// Unconditional overshoot moment `E[((X−t)^+)^k] = k!·(α e^{At})(−A)^{-k} 1`,
    /// with the solve vectors cached across calls.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`.
    pub fn overshoot_moment(&mut self, t: f64, k: u32) -> f64 {
        if k == 0 {
            return self.sf(t);
        }
        self.ensure_solves(k);
        self.uni.apply_into(&self.alpha, t, &mut self.acc);
        let mut factorial = 1.0;
        for i in 2..=k {
            factorial *= f64::from(i);
        }
        factorial * dot(&self.acc, &self.solves[k as usize - 1])
    }
}

/// A reusable, allocation-free sampler for one PH distribution.
///
/// Precomputes everything a draw needs — the cumulative initial distribution,
/// per-phase sojourn rates, the exit-rate vector and compact per-phase
/// transition lists — so simulating the absorbing chain touches neither the
/// sub-generator matrix nor the heap. For any fixed RNG state the sample
/// stream is **bit-identical** to [`Ph::sample`] (which is routed through a
/// lazily built instance of this type).
///
/// # Examples
///
/// ```
/// use dias_stochastic::{Ph, PhSampler};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let ph = Ph::erlang(3, 2.0).unwrap();
/// let sampler = PhSampler::new(&ph);
/// let mut a = StdRng::seed_from_u64(7);
/// let mut b = StdRng::seed_from_u64(7);
/// assert_eq!(sampler.sample(&mut a), ph.sample(&mut b));
/// ```
#[derive(Debug, Clone)]
pub struct PhSampler {
    /// Running prefix sums of `α`, in phase order.
    cum_alpha: Vec<f64>,
    /// Per-phase sojourn rate, exit rate and transition-list span, packed so
    /// one phase costs one bounds check in the walk.
    phases: Vec<PhasePlan>,
    /// Concatenated per-phase transition entries `(next phase, rate)`,
    /// excluding exact zeros (skipping them is a floating-point no-op).
    trans: Vec<(u32, f64)>,
    /// `Some((k, rate))` when the chain is a pure Erlang-`k` with sojourn
    /// `rate` per phase, enabling [`PhSampler::sample_fast`]'s
    /// product-of-uniforms shortcut (one `ln` instead of `k`).
    erlang: Option<(u32, f64)>,
}

/// Precomputed per-phase walk state: sojourn rate `−A[i][i]`, exit rate, and
/// the phase's span in [`PhSampler::trans`].
#[derive(Debug, Clone, Copy)]
struct PhasePlan {
    rate: f64,
    exit: f64,
    trans_start: u32,
    trans_end: u32,
    /// When a phase cannot exit (`exit ≤ 0`) and its single transition always
    /// wins the comparison for *every* representable draw, the successor is
    /// predetermined: the walk consumes the transition draw (stream parity)
    /// but skips the dead comparisons. `u32::MAX` means "walk normally".
    det_next: u32,
}

/// Largest value `rng.gen::<f64>()` can produce: `(2^53 − 1) / 2^53`.
const MAX_UNIT_DRAW: f64 = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;

impl PhSampler {
    /// Precomputes the sampler state for `ph`.
    #[must_use]
    pub fn new(ph: &Ph) -> Self {
        let n = ph.order();
        let a = ph.matrix();
        let exit = ph.exit_vector();
        let mut cum_alpha = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in ph.alpha() {
            acc += p;
            cum_alpha.push(acc);
        }
        let mut trans = Vec::new();
        let mut phases = Vec::with_capacity(n);
        for i in 0..n {
            let trans_start = trans.len() as u32;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let r = a[(i, j)];
                if r != 0.0 {
                    trans.push((j as u32, r));
                }
            }
            let rate = -a[(i, i)];
            let trans_end = trans.len() as u32;
            // The deterministic-successor shortcut is valid only if the
            // largest possible draw `u = fl(fl(MAX·rate) − exit)` still wins
            // `u < r` — the exact comparison the walk would make.
            let det_next = match trans[trans_start as usize..] {
                [(j, r)] if exit[i] <= 0.0 && (rate * MAX_UNIT_DRAW) - exit[i] < r => j,
                _ => u32::MAX,
            };
            phases.push(PhasePlan {
                rate,
                exit: exit[i],
                trans_start,
                trans_end,
                det_next,
            });
        }
        // Pure-Erlang detection: a point-mass start, a deterministic
        // successor chain with one common sojourn rate, and a tail phase
        // that only exits. Then the walk's k independent exponentials can
        // collapse into one log of a product of uniforms.
        let erlang = 'detect: {
            let alpha = ph.alpha();
            let Some(start) = alpha.iter().position(|&p| p == 1.0) else {
                break 'detect None;
            };
            let rate = phases[start].rate;
            if rate <= 0.0 {
                break 'detect None;
            }
            let mut i = start;
            let mut k = 0u32;
            loop {
                k += 1;
                if k as usize > n {
                    break 'detect None; // cycle: not an Erlang chain
                }
                let plan = phases[i];
                if plan.rate != rate {
                    break 'detect None;
                }
                if plan.det_next != u32::MAX {
                    i = plan.det_next as usize;
                } else if plan.trans_start == plan.trans_end && plan.exit == rate {
                    // Cap the order: the product of k uniforms underflows to
                    // subnormals/zero once Σ −ln(uᵢ) nears 708, which the
                    // clamp in `sample_fast` would turn into real truncation
                    // bias. At k = 256 the sum sits ~28σ below 708, so the
                    // clamp is unreachable in practice; larger chains walk
                    // normally.
                    break 'detect (k <= 256).then_some((k, rate));
                } else {
                    break 'detect None;
                }
            }
        };
        PhSampler {
            cum_alpha,
            phases,
            trans,
            erlang,
        }
    }

    /// Number of transient phases.
    #[must_use]
    pub fn order(&self) -> usize {
        self.phases.len()
    }

    /// Draws a sample by simulating the underlying Markov chain, without
    /// allocating.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Choose initial phase (or immediate absorption for deficient mass).
        let u: f64 = rng.gen();
        let mut phase = usize::MAX;
        for (i, &c) in self.cum_alpha.iter().enumerate() {
            if u < c {
                phase = i;
                break;
            }
        }
        if phase == usize::MAX {
            return 0.0; // atom at zero
        }
        let mut time = 0.0;
        loop {
            let plan = self.phases[phase];
            time += crate::sample_exp(rng, plan.rate);
            // Next transition: exit or another phase, proportional to rates.
            if plan.det_next != u32::MAX {
                // Predetermined successor: consume the transition draw to
                // keep the stream position, skip the dead comparisons.
                let _ = rng.gen::<f64>();
                phase = plan.det_next as usize;
                continue;
            }
            let mut u = rng.gen::<f64>() * plan.rate;
            if u < plan.exit {
                return time;
            }
            u -= plan.exit;
            let mut next = phase;
            for &(j, r) in &self.trans[plan.trans_start as usize..plan.trans_end as usize] {
                if u < r {
                    next = j as usize;
                    break;
                }
                u -= r;
            }
            phase = next;
        }
    }

    /// Draws a sample from the same distribution as [`PhSampler::sample`],
    /// trading the bit-pinned stream for speed.
    ///
    /// Two shortcuts over the pinned walk:
    ///
    /// * predetermined successors skip the dead parity draw `sample` must
    ///   spend to keep its stream position, and
    /// * a pure Erlang-`k` chain collapses its `k` exponential sojourns into
    ///   `−ln(u₁⋯u_k)/rate` — one `ln` instead of `k`, the dominant cost of a
    ///   draw on a fast RNG.
    ///
    /// The value stream therefore *differs* from [`PhSampler::sample`] (and
    /// advances the RNG differently); use it where only the distribution
    /// matters, e.g. Monte-Carlo evaluators, not where golden streams are
    /// pinned. Remains deterministic for a fixed RNG state.
    pub fn sample_fast<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if let Some((k, rate)) = self.erlang {
            let mut prod: f64 = rng.gen();
            for _ in 1..k {
                prod *= rng.gen::<f64>();
            }
            // A zero draw (or a vanishing product) would make ln blow up;
            // one clamp to the smallest positive normal keeps the sample
            // finite, exactly as `sample_exp`'s lower range bound does.
            return -prod.max(f64::MIN_POSITIVE).ln() / rate;
        }
        let u: f64 = rng.gen();
        let mut phase = usize::MAX;
        for (i, &c) in self.cum_alpha.iter().enumerate() {
            if u < c {
                phase = i;
                break;
            }
        }
        if phase == usize::MAX {
            return 0.0; // atom at zero
        }
        let mut time = 0.0;
        loop {
            let plan = self.phases[phase];
            time += crate::sample_exp(rng, plan.rate);
            if plan.det_next != u32::MAX {
                phase = plan.det_next as usize;
                continue;
            }
            let mut u = rng.gen::<f64>() * plan.rate;
            if u < plan.exit {
                return time;
            }
            u -= plan.exit;
            let mut next = phase;
            for &(j, r) in &self.trans[plan.trans_start as usize..plan.trans_end as usize] {
                if u < r {
                    next = j as usize;
                    break;
                }
                u -= r;
            }
            phase = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    fn mixture_fixture() -> Ph {
        let cox = Ph::coxian(&[3.0, 1.5, 0.8], &[0.7, 0.4]).unwrap();
        let hyper = Ph::hyperexponential(&[0.35, 0.65], &[0.9, 4.0]).unwrap();
        Ph::mixture(&[0.5, 0.5], &[cox, hyper]).unwrap()
    }

    #[test]
    fn evaluator_matches_ph_queries() {
        let ph = mixture_fixture();
        let mut ev = ph.evaluator();
        for t in [0.0, 0.2, 1.0, 3.5, 20.0] {
            assert_close(ev.sf(t), ph.sf(t), 1e-12);
            assert_close(ev.pdf(t), ph.pdf(t), 1e-12);
        }
        assert_close(
            ev.overshoot_moment(1.2, 1),
            ph.overshoot_moment(1.2, 1),
            1e-12,
        );
        assert_close(
            ev.overshoot_moment(1.2, 2),
            ph.overshoot_moment(1.2, 2),
            1e-12,
        );
        assert_close(ev.overshoot_moment(0.0, 1), ph.mean(), 1e-10);
    }

    #[test]
    fn query_order_does_not_change_results() {
        // The cache grows lazily; a large-t query first must not perturb the
        // small-t answers.
        let ph = mixture_fixture();
        let mut cold = ph.evaluator();
        let mut warm = ph.evaluator();
        let _ = warm.sf(50.0);
        for t in [0.1, 0.9, 4.0] {
            assert_eq!(cold.sf(t), warm.sf(t));
            assert_eq!(cold.pdf(t), warm.pdf(t));
        }
    }

    #[test]
    fn sf_grid_matches_pointwise() {
        let ph = mixture_fixture();
        let mut ev = ph.evaluator();
        let ts = [0.0, 0.3, 0.9, 2.7, 8.1];
        let grid = ev.sf_grid(&ts);
        for (j, &t) in ts.iter().enumerate() {
            assert_eq!(grid[j], ev.sf(t));
        }
    }

    #[test]
    fn quantile_inverts_cdf_on_evaluator() {
        let ph = mixture_fixture();
        let mut ev = ph.evaluator();
        for q in [0.05, 0.5, 0.9, 0.999] {
            let t = ev.quantile(q);
            assert_close(ev.cdf(t), q, 1e-6);
        }
    }

    #[test]
    fn quantile_saturates_at_documented_horizon() {
        // An extreme-scale distribution (mean 1e12) whose 0.9-quantile lies
        // beyond the documented horizon: the search must return exactly the
        // saturation point instead of silently returning an arbitrary
        // power-of-two bracket endpoint as the old bisection did.
        let ph = Ph::exponential(1e-12).unwrap();
        assert!(ph.mean() > QUANTILE_SATURATION / 2.0);
        assert_eq!(ph.evaluator().quantile(0.9), QUANTILE_SATURATION);
        assert_eq!(ph.quantile(0.9), QUANTILE_SATURATION);
        // Quantiles inside the horizon are still refined normally.
        let q01 = ph.quantile(0.01);
        assert!((ph.cdf(q01) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn sampler_is_bit_identical_to_ph_sample() {
        for ph in [
            Ph::coxian(&[3.0, 1.5, 0.8], &[0.7, 0.4]).unwrap(),
            Ph::hyperexponential(&[0.35, 0.65], &[0.9, 4.0]).unwrap(),
            Ph::erlang(4, 2.5).unwrap(),
            mixture_fixture(),
        ] {
            let sampler = PhSampler::new(&ph);
            let mut a = StdRng::seed_from_u64(0xD1A5);
            let mut b = StdRng::seed_from_u64(0xD1A5);
            for _ in 0..500 {
                assert_eq!(sampler.sample(&mut a), ph.sample(&mut b));
            }
        }
    }

    #[test]
    fn sampler_moments_match() {
        let ph = mixture_fixture();
        let sampler = PhSampler::new(&ph);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 40_000;
        let mean = (0..n).map(|_| sampler.sample(&mut rng)).sum::<f64>() / f64::from(n);
        assert_close(mean, ph.mean(), 0.03);
    }

    #[test]
    fn erlang_product_shortcut_detected_only_for_erlang_chains() {
        assert_eq!(
            PhSampler::new(&Ph::erlang(3, 2.0).unwrap()).erlang,
            Some((3, 2.0))
        );
        assert_eq!(
            PhSampler::new(&Ph::exponential(0.7).unwrap()).erlang,
            Some((1, 0.7))
        );
        // Distinct rates, mixtures and branching chains must walk normally.
        assert_eq!(
            PhSampler::new(&Ph::hyperexponential(&[0.35, 0.65], &[0.9, 4.0]).unwrap()).erlang,
            None
        );
        assert_eq!(
            PhSampler::new(&Ph::coxian(&[3.0, 1.5, 0.8], &[0.7, 0.4]).unwrap()).erlang,
            None
        );
        assert_eq!(PhSampler::new(&mixture_fixture()).erlang, None);
        // Chains long enough for the product of uniforms to risk underflow
        // (and hence truncation bias from the ln clamp) must walk normally.
        assert_eq!(PhSampler::new(&Ph::erlang(257, 1.0).unwrap()).erlang, None);
        assert_eq!(
            PhSampler::new(&Ph::erlang(256, 1.0).unwrap()).erlang,
            Some((256, 1.0))
        );
    }

    #[test]
    fn sample_fast_matches_distribution() {
        // Both the Erlang shortcut and the general parity-free walk must
        // reproduce the first two moments of the pinned sampler.
        for ph in [
            Ph::erlang(3, 3.0 / 147.0).unwrap(),
            mixture_fixture(),
            Ph::hyperexponential(&[0.35, 0.65], &[0.9, 4.0]).unwrap(),
        ] {
            let sampler = PhSampler::new(&ph);
            let mut rng = StdRng::seed_from_u64(23);
            let n = 60_000;
            let samples: Vec<f64> = (0..n).map(|_| sampler.sample_fast(&mut rng)).collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let var =
                samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
            assert_close(mean / ph.mean(), 1.0, 0.02);
            assert_close(var / ph.variance(), 1.0, 0.06);
            assert!(samples.iter().all(|&x| x.is_finite() && x >= 0.0));
        }
    }

    #[test]
    fn sample_fast_is_deterministic_for_fixed_seed() {
        let sampler = PhSampler::new(&Ph::erlang(4, 2.5).unwrap());
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(sampler.sample_fast(&mut a), sampler.sample_fast(&mut b));
        }
    }
}
