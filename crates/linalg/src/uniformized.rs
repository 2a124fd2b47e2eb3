//! Cached uniformization of a CTMC (sub-)generator.
//!
//! [`Matrix::expm_action`] rebuilds the uniformized stochastic matrix
//! `P = I + A/λ` and allocates fresh vectors on every call. Analytic paths that
//! evaluate `v · exp(A t)` many times for the *same* generator — CDF bisection,
//! grids of time points, repeated model queries — should instead build a
//! [`Uniformized`] operator once and reuse it: the matrix and the scratch
//! buffers are computed a single time, and every subsequent application is
//! allocation-free.

use crate::axpy_in_place;
use crate::matrix::Matrix;

/// Truncation point of the uniformization Poisson mixture at rate-time
/// product `lt = λt`: mean + 12 standard deviations plus a constant floor,
/// conservative enough for [`POISSON_TAIL`] mass at every `λt`.
///
/// Public so downstream caches of Poisson-term coefficients (e.g. the PH
/// evaluator) truncate identically to [`Uniformized::apply_into`].
#[must_use]
pub fn poisson_truncation(lt: f64) -> usize {
    (lt + 12.0 * lt.sqrt() + 30.0).ceil() as usize
}

pub(crate) use poisson_truncation as poisson_kmax;

/// Residual-mass threshold at which the Poisson accumulation of
/// [`Uniformized::apply_into`] (and downstream caches) stops.
pub const POISSON_TAIL: f64 = 1e-14;

/// A precomputed uniformization operator for `v · exp(A t)`.
///
/// Owns the stochastic matrix `P = I + A/λ`, the uniformization rate `λ`, and
/// reusable scratch buffers, so repeated applications neither rebuild the
/// matrix nor allocate. Produces results identical to [`Matrix::expm_action`]
/// (which is itself implemented on top of this type).
///
/// # Examples
///
/// ```
/// use dias_linalg::{Matrix, Uniformized};
///
/// let a = Matrix::from_rows(&[vec![-3.0, 2.0], vec![0.5, -1.5]]);
/// let mut op = Uniformized::new(&a);
/// let v = [0.3, 0.7];
/// let mut out = [0.0; 2];
/// op.apply_into(&v, 0.7, &mut out);
/// assert_eq!(out.to_vec(), a.expm_action(&v, 0.7));
/// ```
#[derive(Debug, Clone)]
pub struct Uniformized {
    /// The stochastic matrix `P = I + A/λ` (entrywise non-negative for a
    /// sub-generator).
    p: Matrix,
    /// Uniformization rate: the largest diagonal magnitude of `A`.
    lambda: f64,
    /// Scratch: the current Poisson term `v · P^k`.
    vk: Vec<f64>,
    /// Scratch: the next Poisson term, ping-ponged with `vk`.
    vk_next: Vec<f64>,
}

impl Uniformized {
    /// Precomputes the operator for the generator (or sub-generator) `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    #[must_use]
    pub fn new(a: &Matrix) -> Self {
        assert!(a.is_square(), "uniformization requires a square matrix");
        let n = a.rows();
        let lambda = (0..n)
            .map(|i| a[(i, i)].abs())
            .fold(0.0, f64::max)
            .max(1e-12);
        let mut p = a.scaled(1.0 / lambda);
        for i in 0..n {
            p[(i, i)] += 1.0;
        }
        Uniformized {
            p,
            lambda,
            vk: vec![0.0; n],
            vk_next: vec![0.0; n],
        }
    }

    /// The operator's dimension.
    #[must_use]
    pub fn order(&self) -> usize {
        self.p.rows()
    }

    /// The uniformization rate `λ`.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The precomputed stochastic matrix `P = I + A/λ`.
    #[must_use]
    pub fn matrix(&self) -> &Matrix {
        &self.p
    }

    /// Advances the cached term `vk ← vk · P` (ping-pong through the scratch
    /// buffer).
    fn advance(&mut self) {
        self.p.vec_mul_into(&self.vk, &mut self.vk_next);
        std::mem::swap(&mut self.vk, &mut self.vk_next);
    }

    /// Computes `v · exp(A t)` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0` or `v.len() != out.len() != self.order()`.
    pub fn apply_into(&mut self, v: &[f64], t: f64, out: &mut [f64]) {
        let n = self.order();
        assert!(t >= 0.0, "time must be non-negative");
        assert_eq!(v.len(), n, "vector length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");
        if t == 0.0 {
            out.copy_from_slice(v);
            return;
        }
        let lt = self.lambda * t;
        // Poisson weights exp(-lt) (lt)^k / k!, accumulated until mass ~ 1.
        let mut weight = (-lt).exp();
        if weight == 0.0 {
            // exp(-λt) underflowed: every term is exactly zero, as in the
            // term-by-term loop, so skip the matrix work.
            out.fill(0.0);
            return;
        }
        for (o, x) in out.iter_mut().zip(v) {
            *o = x * weight;
        }
        self.vk.copy_from_slice(v);
        let mut cum = weight;
        let kmax = poisson_kmax(lt);
        for k in 1..=kmax {
            self.advance();
            weight *= lt / k as f64;
            if weight > 0.0 {
                axpy_in_place(out, weight, &self.vk);
                cum += weight;
            }
            if 1.0 - cum < POISSON_TAIL {
                break;
            }
        }
    }

    /// Computes `v · exp(A t)` into a fresh vector. Prefer
    /// [`Uniformized::apply_into`] in loops.
    #[must_use]
    pub fn apply(&mut self, v: &[f64], t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.order()];
        self.apply_into(v, t, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub_generator() -> Matrix {
        Matrix::from_rows(&[
            vec![-3.0, 2.0, 0.5],
            vec![0.5, -1.5, 0.7],
            vec![0.0, 0.4, -2.2],
        ])
    }

    #[test]
    fn matches_expm_action_exactly() {
        let a = sub_generator();
        let mut op = Uniformized::new(&a);
        let v = [0.2, 0.5, 0.3];
        for t in [0.0, 0.1, 0.7, 3.0, 25.0] {
            let expect = a.expm_action(&v, t);
            let mut out = [0.0; 3];
            op.apply_into(&v, t, &mut out);
            assert_eq!(out.to_vec(), expect, "t = {t}");
        }
    }

    #[test]
    fn underflowed_horizon_is_zero() {
        let a = sub_generator();
        let mut op = Uniformized::new(&a);
        let mut out = [1.0; 3];
        op.apply_into(&[1.0, 0.0, 0.0], 1e9, &mut out);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    fn reuse_does_not_leak_state() {
        let a = sub_generator();
        let mut op = Uniformized::new(&a);
        let v = [1.0, 0.0, 0.0];
        let first = op.apply(&v, 0.9);
        for _ in 0..5 {
            let _ = op.apply(&v, 2.3);
        }
        assert_eq!(op.apply(&v, 0.9), first);
    }
}
