//! Sprint-modified service times.
//!
//! DiAS sprints a dispatched job after a timeout `T_k`: the job runs at base speed
//! until `T_k`, then at `speedup × base` until completion (or budget depletion,
//! handled by the engine). If `S` is the base-speed service time, the sprinted
//! service time is
//!
//! ```text
//! S' = min(S, T) + (S − T)⁺ / s  =  S − (1 − 1/s)·(S − T)⁺
//! ```
//!
//! For PH-distributed `S` both moments of `S'` are available in closed form through
//! the overshoot moments `E[((S−T)⁺)^k]` (see [`dias_stochastic::Ph::overshoot_moment`]),
//! which is how the deflator scores sprint timeouts without simulation.

use serde::{Deserialize, Serialize};

use dias_stochastic::Ph;

/// A sprint configuration for one priority class: sprint begins `timeout` seconds
/// after dispatch and multiplies execution speed by `speedup`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SprintEffect {
    /// Seconds after dispatch at which the sprint starts (0 = sprint immediately).
    pub timeout: f64,
    /// Speed multiplier while sprinting (> 1). The paper's DVFS step from 800 MHz to
    /// 2.4 GHz yields an effective task speedup of ≈ 2.5 ("reduces the execution
    /// time of high priority jobs by up to 60%").
    pub speedup: f64,
}

impl SprintEffect {
    /// Creates a sprint effect.
    ///
    /// # Panics
    ///
    /// Panics if `timeout < 0` or `speedup <= 1`.
    #[must_use]
    pub fn new(timeout: f64, speedup: f64) -> Self {
        assert!(timeout >= 0.0, "timeout must be non-negative");
        assert!(speedup > 1.0, "speedup must exceed 1");
        SprintEffect { timeout, speedup }
    }

    /// Transforms a sampled base-speed service time into its sprinted duration.
    #[must_use]
    pub fn apply(&self, base_service: f64) -> f64 {
        if base_service <= self.timeout {
            base_service
        } else {
            self.timeout + (base_service - self.timeout) / self.speedup
        }
    }
}

/// First two moments `(E[S'], E[S'²])` of the sprinted service time for a
/// PH-distributed base service time.
///
/// Uses `S' = S − c·(S−T)⁺` with `c = 1 − 1/s`:
///
/// * `E[S'] = E[S] − c·E[(S−T)⁺]`
/// * `E[S'²] = E[S²] − 2c·(T·E[(S−T)⁺] + E[((S−T)⁺)²]) + c²·E[((S−T)⁺)²]`
///
/// # Examples
///
/// ```
/// use dias_models::sprint::{sprinted_moments, SprintEffect};
/// use dias_stochastic::Ph;
///
/// let base = Ph::exponential(0.01).unwrap(); // mean 100 s
/// // Sprint from dispatch at 2.5x: mean shrinks by 2.5.
/// let (m1, _) = sprinted_moments(&base, &SprintEffect::new(0.0, 2.5));
/// assert!((m1 - 40.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn sprinted_moments(base: &Ph, effect: &SprintEffect) -> (f64, f64) {
    let c = 1.0 - 1.0 / effect.speedup;
    let t = effect.timeout;
    let ov1 = base.overshoot_moment(t, 1);
    let ov2 = base.overshoot_moment(t, 2);
    let m1 = base.moment(1) - c * ov1;
    let m2 = base.moment(2) - 2.0 * c * (t * ov1 + ov2) + c * c * ov2;
    (m1, m2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn apply_piecewise() {
        let e = SprintEffect::new(65.0, 2.5);
        assert_eq!(e.apply(50.0), 50.0);
        assert!((e.apply(165.0) - (65.0 + 40.0)).abs() < 1e-12);
    }

    #[test]
    fn immediate_sprint_scales_time() {
        let e = SprintEffect::new(0.0, 2.0);
        assert!((e.apply(10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn moments_match_monte_carlo() {
        let base = Ph::erlang(3, 0.03).unwrap(); // mean 100 s, mild variability
        let effect = SprintEffect::new(65.0, 2.5);
        let (m1, m2) = sprinted_moments(&base, &effect);
        let mut rng = StdRng::seed_from_u64(17);
        let n = 60_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| effect.apply(base.sample(&mut rng)))
            .collect();
        let emp1 = samples.iter().sum::<f64>() / n as f64;
        let emp2 = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!(
            (emp1 - m1).abs() / m1 < 0.01,
            "mean: empirical {emp1} vs analytic {m1}"
        );
        assert!(
            (emp2 - m2).abs() / m2 < 0.02,
            "m2: empirical {emp2} vs analytic {m2}"
        );
    }

    #[test]
    fn infinite_timeout_leaves_moments_unchanged() {
        let base = Ph::erlang(2, 0.05).unwrap();
        let effect = SprintEffect::new(1e9, 3.0);
        let (m1, m2) = sprinted_moments(&base, &effect);
        assert!((m1 - base.moment(1)).abs() < 1e-6);
        assert!((m2 - base.moment(2)).abs() < 1e-3);
    }

    #[test]
    fn zero_timeout_scales_both_moments() {
        let base = Ph::exponential(0.01).unwrap();
        let s = 2.5;
        let effect = SprintEffect::new(0.0, s);
        let (m1, m2) = sprinted_moments(&base, &effect);
        assert!((m1 - base.moment(1) / s).abs() < 1e-9);
        assert!((m2 - base.moment(2) / (s * s)).abs() < 1e-6);
    }

    #[test]
    fn sprinting_shrinks_mean_monotonically_in_timeout() {
        let base = Ph::erlang(2, 0.02).unwrap(); // mean 100
        let mut last = 0.0;
        for t in [0.0, 20.0, 50.0, 100.0, 200.0] {
            let (m1, _) = sprinted_moments(&base, &SprintEffect::new(t, 2.5));
            assert!(m1 >= last - 1e-12, "mean must grow with later sprint start");
            last = m1;
        }
        assert!(last <= base.mean() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "speedup")]
    fn speedup_must_exceed_one() {
        let _ = SprintEffect::new(0.0, 1.0);
    }
}
