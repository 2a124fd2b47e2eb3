//! Exact mean-value analysis of the multi-class `M[K]/G/1` priority queue, plus the
//! exact M/PH/1 waiting-time distribution.
//!
//! With marked-Poisson arrivals (the paper's experimental arrival model) the
//! `MMAP[K]/PH[K]/1` queue reduces to a multi-class M/G/1 priority queue whose
//! per-class mean waiting times have classical closed forms:
//!
//! * **non-preemptive** (head-of-line): Cobham's formula — the discipline DiAS uses;
//! * **preemptive-resume**: the work-conserving preemption bound.
//!
//! Classes are indexed `0..K` with **higher index = higher priority**, matching the
//! paper's convention that a priority-`k` job has precedence over jobs of priority
//! `l < k`. Tail percentiles of the same model come from [`crate::mc::McQueue`].

use serde::{Deserialize, Serialize};

use dias_linalg::Matrix;
use dias_stochastic::Ph;

use crate::ModelError;

/// Per-class queue inputs: arrival rate and the first two service-time moments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassInput {
    /// Poisson arrival rate `λ_k` (jobs per second).
    pub lambda: f64,
    /// Mean service time `E[S_k]` (seconds).
    pub mean_service: f64,
    /// Second raw moment `E[S_k²]`.
    pub second_moment: f64,
}

impl ClassInput {
    /// Builds an input from an arrival rate and a PH service distribution.
    #[must_use]
    pub fn from_ph(lambda: f64, service: &Ph) -> Self {
        let m = service.moments(2);
        ClassInput {
            lambda,
            mean_service: m[0],
            second_moment: m[1],
        }
    }

    /// Offered load `ρ_k = λ_k · E[S_k]`.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.lambda * self.mean_service
    }
}

/// Per-class mean predictions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassMeans {
    /// Mean waiting (queueing) time.
    pub waiting: f64,
    /// Mean response time (waiting + service).
    pub response: f64,
    /// Offered load of the class.
    pub rho: f64,
}

fn validate(classes: &[ClassInput]) -> Result<(), ModelError> {
    if classes.is_empty() {
        return Err(ModelError::BadParameter("need at least one class".into()));
    }
    for (k, c) in classes.iter().enumerate() {
        if c.lambda < 0.0 || c.mean_service <= 0.0 || c.second_moment < c.mean_service.powi(2) {
            return Err(ModelError::BadParameter(format!(
                "class {k}: invalid rates or moments"
            )));
        }
    }
    let total_rho: f64 = classes.iter().map(ClassInput::rho).sum();
    if total_rho >= 1.0 {
        return Err(ModelError::Unstable {
            utilization: total_rho,
        });
    }
    Ok(())
}

/// Mean residual work contributed by all classes: `W₀ = Σ λ_j E[S_j²] / 2`.
fn residual_all(classes: &[ClassInput]) -> f64 {
    classes
        .iter()
        .map(|c| c.lambda * c.second_moment / 2.0)
        .sum()
}

/// Load of classes with strictly higher (`> k`) and higher-or-equal (`≥ k`) priority.
fn loads_at(classes: &[ClassInput], k: usize) -> (f64, f64) {
    let higher: f64 = classes.iter().skip(k + 1).map(ClassInput::rho).sum();
    (higher, higher + classes[k].rho())
}

/// Cobham's non-preemptive (head-of-line) priority means.
///
/// `W_k = W₀ / ((1 − σ_{>k})(1 − σ_{≥k}))`, `T_k = W_k + E[S_k]`, where `σ` sums the
/// loads of higher(-or-equal) priority classes. This is the discipline of DiAS
/// itself: a dispatched job is never evicted.
///
/// # Errors
///
/// Returns [`ModelError::Unstable`] when total load is ≥ 1 and
/// [`ModelError::BadParameter`] for invalid inputs.
///
/// # Examples
///
/// ```
/// use dias_models::priority::{non_preemptive_means, ClassInput};
///
/// // Single class reduces to Pollaczek–Khinchine.
/// let cls = [ClassInput { lambda: 0.5, mean_service: 1.0, second_moment: 2.0 }];
/// let m = non_preemptive_means(&cls).unwrap();
/// assert!((m[0].waiting - 1.0).abs() < 1e-12); // λE[S²]/2/(1-ρ) = 0.5/0.5
/// ```
pub fn non_preemptive_means(classes: &[ClassInput]) -> Result<Vec<ClassMeans>, ModelError> {
    validate(classes)?;
    let w0 = residual_all(classes);
    Ok(classes
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let (higher, higher_eq) = loads_at(classes, k);
            let waiting = w0 / ((1.0 - higher) * (1.0 - higher_eq));
            ClassMeans {
                waiting,
                response: waiting + c.mean_service,
                rho: c.rho(),
            }
        })
        .collect())
}

/// Preemptive-resume priority means:
/// `T_k = E[S_k]/(1 − σ_{>k}) + R_k/((1 − σ_{>k})(1 − σ_{≥k}))` with
/// `R_k = Σ_{j ≥ k} λ_j E[S_j²]/2`.
///
/// Under preemptive-resume, classes below `k` are invisible to class `k`. This is
/// the *optimistic* model of the production baseline: real eviction re-executes from
/// scratch (see [`crate::mc::Discipline::PreemptiveRepeatIdentical`]), which is
/// strictly worse.
///
/// # Errors
///
/// Returns [`ModelError::Unstable`] when total load is ≥ 1 and
/// [`ModelError::BadParameter`] for invalid inputs.
pub fn preemptive_resume_means(classes: &[ClassInput]) -> Result<Vec<ClassMeans>, ModelError> {
    validate(classes)?;
    Ok(classes
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let (higher, higher_eq) = loads_at(classes, k);
            let r_k: f64 = classes
                .iter()
                .skip(k)
                .map(|j| j.lambda * j.second_moment / 2.0)
                .sum();
            let response =
                c.mean_service / (1.0 - higher) + r_k / ((1.0 - higher) * (1.0 - higher_eq));
            ClassMeans {
                waiting: response - c.mean_service,
                response,
                rho: c.rho(),
            }
        })
        .collect())
}

/// Exact waiting-time distribution of the single-class M/PH/1 FCFS queue.
///
/// By the Pollaczek–Khinchine geometric-compound representation, the stationary
/// waiting time is phase-type with an atom `1−ρ` at zero and representation
/// `(ρ·α_e, A + ρ·a·α_e)` where `(α_e, A)` is the equilibrium service distribution
/// and `a` the exit-rate vector.
///
/// # Errors
///
/// Returns [`ModelError::Unstable`] if `λ·E[S] ≥ 1`.
///
/// # Examples
///
/// ```
/// use dias_models::priority::mph1_waiting_ph;
/// use dias_stochastic::Ph;
///
/// // M/M/1: waiting time is exp(µ−λ) with probability ρ.
/// let service = Ph::exponential(1.0).unwrap();
/// let w = mph1_waiting_ph(0.5, &service).unwrap();
/// assert!((w.mean() - 0.5 / (1.0 - 0.5)).abs() < 1e-9); // ρ/(µ−λ)
/// ```
pub fn mph1_waiting_ph(lambda: f64, service: &Ph) -> Result<Ph, ModelError> {
    let rho = lambda * service.mean();
    if rho >= 1.0 {
        return Err(ModelError::Unstable { utilization: rho });
    }
    if lambda < 0.0 {
        return Err(ModelError::BadParameter("negative arrival rate".into()));
    }
    let eq = service.equilibrium();
    let alpha_e = eq.alpha().to_vec();
    let a_mat = service.matrix();
    let exit = service.exit_vector();
    let n = service.order();
    let mut t = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            t[(i, j)] = a_mat[(i, j)] + rho * exit[i] * alpha_e[j];
        }
    }
    let alpha: Vec<f64> = alpha_e.iter().map(|x| rho * x).collect();
    Ph::new(alpha, t).map_err(ModelError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dias_stochastic::Ph;

    fn exp_class(lambda: f64, mean: f64) -> ClassInput {
        ClassInput {
            lambda,
            mean_service: mean,
            second_moment: 2.0 * mean * mean,
        }
    }

    #[test]
    fn single_class_is_pollaczek_khinchine() {
        let cls = [exp_class(0.4, 1.0)];
        let np = non_preemptive_means(&cls).unwrap();
        let pr = preemptive_resume_means(&cls).unwrap();
        let pk = 0.4 * 2.0 / 2.0 / (1.0 - 0.4);
        assert!((np[0].waiting - pk).abs() < 1e-12);
        assert!((pr[0].waiting - pk).abs() < 1e-12);
    }

    #[test]
    fn preemptive_high_class_ignores_low() {
        // Two M/M/1 classes; class 1 (high) must see only itself.
        let cls = [exp_class(0.25, 1.0), exp_class(0.25, 1.0)];
        let pr = preemptive_resume_means(&cls).unwrap();
        // M/M/1 with ρ=0.25: T = 1/(1−0.25).
        assert!((pr[1].response - 1.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn preemptive_work_conservation_two_identical_classes() {
        // With identical exponential classes, λ-weighted mean response must equal the
        // FCFS M/M/1 value (preemptive-resume is work-conserving and exponential
        // service is memoryless).
        let cls = [exp_class(0.25, 1.0), exp_class(0.25, 1.0)];
        let pr = preemptive_resume_means(&cls).unwrap();
        let avg = 0.5 * pr[0].response + 0.5 * pr[1].response;
        let mm1 = 1.0 / (1.0 - 0.5);
        assert!((avg - mm1).abs() < 1e-12, "avg {avg} vs {mm1}");
    }

    #[test]
    fn non_preemptive_kleinrock_conservation() {
        // Kleinrock's conservation law: Σ ρ_k W_k is invariant across
        // non-preemptive work-conserving disciplines; for M/G/1 it equals
        // ρ·W₀/(1−ρ) with W₀ = Σ λ E[S²]/2.
        let cls = [
            exp_class(0.2, 1.5),
            exp_class(0.3, 0.8),
            exp_class(0.1, 2.0),
        ];
        let np = non_preemptive_means(&cls).unwrap();
        let rho: f64 = cls.iter().map(ClassInput::rho).sum();
        let w0: f64 = cls.iter().map(|c| c.lambda * c.second_moment / 2.0).sum();
        let lhs: f64 = cls.iter().zip(&np).map(|(c, m)| c.rho() * m.waiting).sum();
        let rhs = rho * w0 / (1.0 - rho);
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn higher_priority_waits_less() {
        let cls = [
            exp_class(0.3, 1.0),
            exp_class(0.3, 1.0),
            exp_class(0.2, 1.0),
        ];
        for means in [
            non_preemptive_means(&cls).unwrap(),
            preemptive_resume_means(&cls).unwrap(),
        ] {
            assert!(means[2].waiting < means[1].waiting);
            assert!(means[1].waiting < means[0].waiting);
        }
    }

    #[test]
    fn unstable_load_detected() {
        let cls = [exp_class(0.8, 1.0), exp_class(0.4, 1.0)];
        assert!(matches!(
            non_preemptive_means(&cls),
            Err(ModelError::Unstable { .. })
        ));
        assert!(preemptive_resume_means(&cls).is_err());
    }

    #[test]
    fn bad_moments_rejected() {
        let cls = [ClassInput {
            lambda: 0.1,
            mean_service: 1.0,
            second_moment: 0.5, // < mean², impossible
        }];
        assert!(non_preemptive_means(&cls).is_err());
    }

    #[test]
    fn mph1_waiting_mm1_distribution() {
        // M/M/1: P(W > t) = ρ e^{-(µ-λ)t}.
        let service = Ph::exponential(2.0).unwrap();
        let lambda = 1.0;
        let w = mph1_waiting_ph(lambda, &service).unwrap();
        let rho: f64 = 0.5;
        for t in [0.0f64, 0.5, 1.0, 2.0] {
            let expect = rho * (-(2.0 - 1.0) * t).exp();
            assert!(
                (w.sf(t) - expect).abs() < 1e-9,
                "t={t}: {} vs {expect}",
                w.sf(t)
            );
        }
    }

    #[test]
    fn mph1_waiting_mean_matches_pk_for_erlang() {
        let service = Ph::erlang(3, 3.0).unwrap(); // mean 1, E[S²] = 12/9
        let lambda = 0.6;
        let w = mph1_waiting_ph(lambda, &service).unwrap();
        let pk = lambda * service.moment(2) / 2.0 / (1.0 - lambda * service.mean());
        assert!((w.mean() - pk).abs() < 1e-9, "{} vs {pk}", w.mean());
        // Atom at zero = 1 − ρ.
        assert!((w.mass_at_zero() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn mph1_response_p95_sane() {
        let service = Ph::erlang(2, 2.0).unwrap();
        let resp = mph1_waiting_ph(0.5, &service).unwrap().convolve(&service);
        let p95 = resp.quantile(0.95);
        assert!(
            p95 > resp.mean(),
            "p95 {p95} must exceed mean {}",
            resp.mean()
        );
        assert!((resp.cdf(p95) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn mph1_unstable_rejected() {
        let service = Ph::exponential(1.0).unwrap();
        assert!(matches!(
            mph1_waiting_ph(1.0, &service),
            Err(ModelError::Unstable { .. })
        ));
    }
}
