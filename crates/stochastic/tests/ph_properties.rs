//! Property-based tests of the phase-type algebra.

use proptest::prelude::*;

use dias_linalg::{dot, sum, Matrix};
use dias_stochastic::fit::ph_from_mean_scv;
use dias_stochastic::{Dist, MarkedPoisson, Ph};

/// Strategy for a small random PH distribution built from valid primitives.
fn arb_ph() -> impl Strategy<Value = Ph> {
    prop_oneof![
        (0.1f64..10.0).prop_map(|r| Ph::exponential(r).expect("valid rate")),
        (1usize..6, 0.1f64..10.0).prop_map(|(k, r)| Ph::erlang(k, r).expect("valid erlang")),
        (0.05f64..0.95, 0.1f64..5.0, 0.1f64..5.0).prop_map(|(p, r1, r2)| {
            Ph::hyperexponential(&[p, 1.0 - p], &[r1, r2]).expect("valid hyper")
        }),
    ]
}

/// Strategy for a random three-way Coxian/hyperexponential/Erlang mixture —
/// the block-diagonal shapes the wave-level models produce.
fn arb_mixture_ph() -> impl Strategy<Value = Ph> {
    (
        0.1f64..0.9,
        1usize..5,
        0.2f64..8.0,
        0.05f64..0.95,
        0.1f64..5.0,
        0.1f64..5.0,
        0.2f64..6.0,
        0.1f64..0.9,
    )
        .prop_map(|(w, k, er, p, r1, r2, cr, cp)| {
            let erl = Ph::erlang(k, er).expect("valid erlang");
            let hyper = Ph::hyperexponential(&[p, 1.0 - p], &[r1, r2]).expect("valid hyper");
            let cox = Ph::coxian(&[cr, cr * 1.7, cr * 0.6], &[cp, 1.0 - cp]).expect("valid coxian");
            let a = 0.5 * w;
            let b = 0.5 * (1.0 - w);
            let c = 1.0 - a - b;
            Ph::mixture(&[a, b, c], &[cox, hyper, erl]).expect("valid mixture")
        })
}

/// The pre-refactor scalar evaluation path: term-by-term uniformization with
/// no cached state, transcribed from the original `Matrix::expm_action`.
fn naive_expm_action(a: &Matrix, v: &[f64], t: f64) -> Vec<f64> {
    if t == 0.0 {
        return v.to_vec();
    }
    let n = a.rows();
    let lambda = (0..n)
        .map(|i| a[(i, i)].abs())
        .fold(0.0, f64::max)
        .max(1e-12);
    let mut p = a.scaled(1.0 / lambda);
    for i in 0..n {
        p[(i, i)] += 1.0;
    }
    let lt = lambda * t;
    let mut weight = (-lt).exp();
    let mut acc: Vec<f64> = v.iter().map(|x| x * weight).collect();
    let mut vk = v.to_vec();
    let mut cum = weight;
    let kmax = (lt + 12.0 * lt.sqrt() + 30.0).ceil() as usize;
    for k in 1..=kmax {
        vk = p.vec_mul(&vk);
        weight *= lt / k as f64;
        if weight > 0.0 {
            for (acc_i, x) in acc.iter_mut().zip(&vk) {
                *acc_i += weight * x;
            }
            cum += weight;
        }
        if 1.0 - cum < 1e-14 {
            break;
        }
    }
    acc
}

fn naive_sf(ph: &Ph, t: f64) -> f64 {
    sum(&naive_expm_action(ph.matrix(), ph.alpha(), t)).clamp(0.0, 1.0)
}

/// The pre-refactor `Ph::sample`: exit vector reallocated on every draw, the
/// sub-generator indexed per transition, every comparison in original order.
fn pre_refactor_sample<R: rand::Rng + ?Sized>(ph: &Ph, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let mut phase = usize::MAX;
    for (i, &p) in ph.alpha().iter().enumerate() {
        acc += p;
        if u < acc {
            phase = i;
            break;
        }
    }
    if phase == usize::MAX {
        return 0.0;
    }
    let a = ph.matrix();
    let exit = ph.exit_vector();
    let mut time = 0.0;
    loop {
        let rate = -a[(phase, phase)];
        time += dias_stochastic::sample_exp(rng, rate);
        let mut u = rng.gen::<f64>() * rate;
        if u < exit[phase] {
            return time;
        }
        u -= exit[phase];
        let mut next = phase;
        for j in 0..ph.order() {
            if j == phase {
                continue;
            }
            let r = a[(phase, j)];
            if u < r {
                next = j;
                break;
            }
            u -= r;
        }
        phase = next;
    }
}

fn naive_pdf(ph: &Ph, t: f64) -> f64 {
    dot(
        &naive_expm_action(ph.matrix(), ph.alpha(), t),
        &ph.exit_vector(),
    )
    .max(0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn moments_satisfy_cauchy_schwarz(ph in arb_ph()) {
        // E[X²] ≥ E[X]² and E[X³] ≥ 0 for any non-negative variable.
        let m1 = ph.moment(1);
        let m2 = ph.moment(2);
        prop_assert!(m1 > 0.0);
        prop_assert!(m2 >= m1 * m1 - 1e-12);
        prop_assert!(ph.moment(3) > 0.0);
    }

    #[test]
    fn survival_is_monotone(ph in arb_ph(), a in 0.0f64..10.0, b in 0.0f64..10.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(ph.sf(lo) + 1e-9 >= ph.sf(hi));
        prop_assert!(ph.sf(0.0) <= 1.0 + 1e-12);
    }

    #[test]
    fn scaling_scales_moments(ph in arb_ph(), factor in 0.01f64..100.0) {
        let scaled = ph.scaled(factor);
        prop_assert!((scaled.mean() - factor * ph.mean()).abs() / (factor * ph.mean()) < 1e-9);
        prop_assert!((scaled.scv() - ph.scv()).abs() < 1e-9);
    }

    #[test]
    fn convolution_is_commutative_in_distribution(a in arb_ph(), b in arb_ph()) {
        let ab = a.convolve(&b);
        let ba = b.convolve(&a);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.moment(2) - ba.moment(2)).abs() / ab.moment(2) < 1e-9);
        // CDFs agree at a few probe points.
        for t in [0.5 * ab.mean(), ab.mean(), 2.0 * ab.mean()] {
            prop_assert!((ab.cdf(t) - ba.cdf(t)).abs() < 1e-7);
        }
    }

    #[test]
    fn min_max_identity(a in arb_ph(), b in arb_ph()) {
        // E[min] + E[max] = E[X] + E[Y].
        let lhs = a.minimum(&b).mean() + a.maximum(&b).mean();
        let rhs = a.mean() + b.mean();
        prop_assert!((lhs - rhs).abs() / rhs < 1e-7);
        // min ≤ max in expectation.
        prop_assert!(a.minimum(&b).mean() <= a.maximum(&b).mean() + 1e-9);
    }

    #[test]
    fn equilibrium_mean_identity(ph in arb_ph()) {
        // E[X_e] = E[X²] / (2 E[X]).
        let eq = ph.equilibrium();
        let expect = ph.moment(2) / (2.0 * ph.moment(1));
        prop_assert!((eq.mean() - expect).abs() / expect < 1e-8);
    }

    #[test]
    fn overshoot_decreases_with_threshold(ph in arb_ph(), a in 0.0f64..5.0, b in 0.0f64..5.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(ph.overshoot_moment(hi, 1) <= ph.overshoot_moment(lo, 1) + 1e-9);
        // At zero threshold the overshoot is the plain moment.
        prop_assert!((ph.overshoot_moment(0.0, 1) - ph.moment(1)).abs() < 1e-9);
    }

    #[test]
    fn fit_then_requery_roundtrips(mean in 0.01f64..1e3, scv in 0.05f64..10.0) {
        let ph = ph_from_mean_scv(mean, scv);
        let refit = ph_from_mean_scv(ph.mean(), ph.scv());
        prop_assert!((refit.mean() - ph.mean()).abs() / ph.mean() < 1e-6);
    }

    #[test]
    fn dist_moments_nonnegative_variance(
        mean in 0.01f64..100.0,
        scv in 1.0f64..8.0,
        k in 1u32..8,
    ) {
        for d in [
            Dist::exponential(mean),
            Dist::erlang(k, mean),
            Dist::hyperexp(mean, scv),
            Dist::lognormal(mean, scv),
        ] {
            prop_assert!(d.variance() >= -1e-12);
            prop_assert!(d.second_moment() >= d.mean() * d.mean() - 1e-9);
        }
    }

    #[test]
    fn evaluator_matches_naive_scalar_path(ph in arb_mixture_ph()) {
        // The cached evaluator reorders floating-point accumulation but must
        // agree with the pre-refactor term-by-term path to 1e-9 everywhere.
        let mut ev = ph.evaluator();
        let m = ph.mean();
        let ts = [0.0, 0.1 * m, 0.5 * m, m, 2.0 * m, 5.0 * m];
        for &t in &ts {
            prop_assert!((ev.sf(t) - naive_sf(&ph, t)).abs() < 1e-9, "sf({t})");
            prop_assert!(
                (ev.cdf(t) - (1.0 - naive_sf(&ph, t))).abs() < 1e-9,
                "cdf({t})"
            );
            prop_assert!((ev.pdf(t) - naive_pdf(&ph, t)).abs() < 1e-9, "pdf({t})");
        }
        // The shared-cache grid path agrees point for point.
        let grid = ev.sf_grid(&ts);
        for (j, &t) in ts.iter().enumerate() {
            prop_assert!((grid[j] - naive_sf(&ph, t)).abs() < 1e-9, "sf_grid[{j}]");
        }
        // And `Ph`'s rewired methods go through the same cache.
        prop_assert!((ph.sf(m) - naive_sf(&ph, m)).abs() < 1e-9);
        prop_assert!((ph.pdf(m) - naive_pdf(&ph, m)).abs() < 1e-9);
    }

    #[test]
    fn evaluator_quantile_inverts_naive_cdf(ph in arb_mixture_ph(), q in 0.05f64..0.99) {
        let t = ph.quantile(q);
        prop_assert!((1.0 - naive_sf(&ph, t) - q).abs() < 1e-6, "cdf({t}) vs {q}");
    }

    #[test]
    fn sampler_stream_matches_pre_refactor_walk(ph in arb_mixture_ph(), seed in 0u64..1000) {
        // `Ph::sample` itself routes through `PhSampler`, so comparing the two
        // would be circular; the reference here is a transcription of the
        // pre-refactor chain walk (exit vector rebuilt per draw, matrix
        // indexed per transition), which the cached sampler — including its
        // deterministic-successor fast path — must reproduce bit for bit.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(ph.sample(&mut a) == pre_refactor_sample(&ph, &mut b));
        }
    }

    #[test]
    fn marked_poisson_rates_partition(r0 in 0.001f64..10.0, r1 in 0.001f64..10.0) {
        let mp = MarkedPoisson::new(vec![r0, r1]).expect("valid rates");
        prop_assert!((mp.total_rate() - (r0 + r1)).abs() < 1e-12);
    }
}
