//! Small dense linear-algebra toolkit backing the DiAS stochastic models.
//!
//! Phase-type distributions need a handful of dense operations on modest
//! matrices (tens to a few hundred rows): products, LU solves, matrix
//! exponentials and their action by uniformization, and Kronecker products.
//! This crate implements exactly that set, with no external numeric dependencies.
//!
//! # Examples
//!
//! ```
//! use dias_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![4.0, 3.0], vec![6.0, 3.0]]);
//! let x = a.solve(&[10.0, 12.0]).unwrap();
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod uniformized;

pub use matrix::{LinalgError, LuFactors, Matrix};
pub use uniformized::{poisson_truncation, Uniformized, POISSON_TAIL};

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of the entries of a slice (`x · 1`).
#[must_use]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// In-place scaled add: `a += s * b`, element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy_in_place(a: &mut [f64], s: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy of unequal lengths");
    // Elements are independent, so the 4-wide unrolled form is bit-identical
    // to the scalar loop while exposing independent multiply-adds to SIMD.
    let mut xs = a.chunks_exact_mut(4);
    let mut ys = b.chunks_exact(4);
    for (xc, yc) in xs.by_ref().zip(ys.by_ref()) {
        xc[0] += s * yc[0];
        xc[1] += s * yc[1];
        xc[2] += s * yc[2];
        xc[3] += s * yc[3];
    }
    for (x, y) in xs.into_remainder().iter_mut().zip(ys.remainder()) {
        *x += s * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_sum() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn axpy_combines() {
        // Six entries: one unrolled chunk of four plus a remainder of two.
        let mut v = vec![1.0; 6];
        axpy_in_place(&mut v, 2.0, &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(v, vec![7.0, 9.0, 11.0, 13.0, 15.0, 17.0]);
    }

    #[test]
    fn axpy_in_place_matches_axpy() {
        let mut v = vec![1.0, 1.0];
        axpy_in_place(&mut v, 2.0, &[3.0, 4.0]);
        assert_eq!(v, vec![7.0, 9.0]);
    }
}
