//! Dense row-major matrices with the operations the stochastic models need.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically so) and cannot be factorized.
    Singular,
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// An iterative routine failed to converge.
    NoConvergence,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NoConvergence => write!(f, "iteration failed to converge"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense, row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use dias_linalg::Matrix;
///
/// let i = Matrix::identity(3);
/// let a = Matrix::from_rows(&[vec![1.0, 2.0, 0.0],
///                             vec![0.0, 1.0, 0.0],
///                             vec![0.0, 0.0, 1.0]]);
/// assert_eq!(&a * &i, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Scales every entry by `s`.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        for x in &mut m.data {
            *x *= s;
        }
        m
    }

    /// Row-vector times matrix: `v · self`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    #[must_use]
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.vec_mul_into(v, &mut out);
        out
    }

    /// Row-vector times matrix into a preallocated buffer: `out = v · self`.
    ///
    /// The allocation-free core of [`Matrix::vec_mul`]; identical arithmetic,
    /// for hot loops that reuse `out`. Rows are processed in cache-blocked
    /// groups of four with a 4-wide accumulator per output element (the
    /// crate-internal `gaxpy_blocked` kernel, shared with matrix–matrix
    /// multiply).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn vec_mul_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.rows, "vec_mul length mismatch");
        assert_eq!(out.len(), self.cols, "vec_mul output length mismatch");
        out.fill(0.0);
        gaxpy_blocked(out, v, &self.data, self.cols);
    }

    /// Sum of each row (`self · 1`).
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| crate::sum(self.row(i))).collect()
    }

    /// Maximum absolute entry.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// LU factorization with partial pivoting. Returns `(lu, perm, sign)`.
    ///
    /// The elimination works on row slices (one bounds check per row instead of
    /// one per element) but performs the exact per-element arithmetic of the
    /// classic textbook loop, so results are bit-identical to it.
    fn lu(&self) -> Result<(Matrix, Vec<usize>, f64), LinalgError> {
        assert!(self.is_square(), "LU requires a square matrix");
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Pivot selection on column k.
            let mut pivot = k;
            let mut max = lu.data[k * n + k].abs();
            for i in (k + 1)..n {
                let cand = lu.data[i * n + k].abs();
                if cand > max {
                    max = cand;
                    pivot = i;
                }
            }
            if max < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot != k {
                for j in 0..n {
                    lu.data.swap(k * n + j, pivot * n + j);
                }
                perm.swap(k, pivot);
                sign = -sign;
            }
            let (top, lower) = lu.data.split_at_mut((k + 1) * n);
            let prow = &top[k * n..(k + 1) * n];
            let piv = prow[k];
            for row in lower.chunks_exact_mut(n) {
                let f = row[k] / piv;
                row[k] = f;
                for (x, &p) in row[(k + 1)..].iter_mut().zip(&prow[(k + 1)..]) {
                    *x -= f * p;
                }
            }
        }
        Ok((lu, perm, sign))
    }

    /// LU-factorizes the matrix once for reuse across many solves.
    ///
    /// [`Matrix::solve`] factorizes on every call; paths that solve several
    /// right-hand sides against the same matrix (moment recursions, inverses)
    /// should factorize once and call [`LuFactors::solve`] repeatedly — the
    /// results are bit-identical to per-call [`Matrix::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix cannot be factorized.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn lu_factorize(&self) -> Result<LuFactors, LinalgError> {
        let (lu, perm, sign) = self.lu()?;
        Ok(LuFactors { lu, perm, sign })
    }

    /// Solves `self · x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix cannot be factorized.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        assert_eq!(b.len(), self.rows, "solve rhs length mismatch");
        let (lu, perm, _) = self.lu()?;
        Ok(lu_solve(&lu, &perm, b))
    }

    /// The determinant.
    ///
    /// Returns 0 if the matrix is numerically singular.
    #[must_use]
    pub fn determinant(&self) -> f64 {
        match self.lu() {
            Err(_) => 0.0,
            Ok((lu, _, sign)) => {
                let mut det = sign;
                for i in 0..self.rows {
                    det *= lu[(i, i)];
                }
                det
            }
        }
    }

    /// Matrix exponential `exp(self)` via scaling-and-squaring with a Taylor core.
    ///
    /// Suitable for the small generator matrices used by the models. For products
    /// `v · exp(self · t)` of CTMC sub-generators prefer [`Matrix::expm_action`]
    /// (uniformization), which is cheaper and unconditionally stable.
    #[must_use]
    pub fn expm(&self) -> Matrix {
        assert!(self.is_square(), "expm requires a square matrix");
        let n = self.rows;
        let norm = self.max_abs() * n as f64;
        let squarings = if norm > 0.5 {
            (norm / 0.5).log2().ceil() as u32
        } else {
            0
        };
        let a = self.scaled(0.5f64.powi(squarings as i32));
        // Taylor series on the scaled matrix; ‖a‖ ≤ 0.5 so ~20 terms reach 1e-16.
        let mut result = Matrix::identity(n);
        let mut term = Matrix::identity(n);
        for k in 1..=24 {
            term = &term * &a;
            term = term.scaled(1.0 / k as f64);
            result = &result + &term;
            if term.max_abs() < 1e-18 {
                break;
            }
        }
        for _ in 0..squarings {
            result = &result * &result;
        }
        result
    }

    /// Computes `v · exp(self · t)` by uniformization, where `self` is a CTMC
    /// generator or sub-generator (non-negative off-diagonal, row sums ≤ 0).
    ///
    /// Uniformization expresses the exponential as a Poisson mixture of powers of the
    /// stochastic matrix `P = I + self/λ`; all terms are non-negative, so there is no
    /// cancellation and probabilities stay probabilities.
    ///
    /// Rebuilds `P` on every call. When the same generator is applied many
    /// times (CDF bisection, time grids), build a [`crate::Uniformized`]
    /// operator once instead — it caches `P`, `λ` and the scratch buffers and
    /// produces identical results.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0` or `v.len() != self.rows()`.
    #[must_use]
    pub fn expm_action(&self, v: &[f64], t: f64) -> Vec<f64> {
        crate::Uniformized::new(self).apply(v, t)
    }

    /// Kronecker product `self ⊗ other`.
    #[must_use]
    pub fn kron(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == 0.0 {
                    continue;
                }
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Kronecker sum `self ⊕ other = self ⊗ I + I ⊗ other` (both square).
    ///
    /// # Panics
    ///
    /// Panics if either matrix is not square.
    #[must_use]
    pub fn kron_sum(&self, other: &Matrix) -> Matrix {
        assert!(
            self.is_square() && other.is_square(),
            "kron_sum requires square matrices"
        );
        let left = self.kron(&Matrix::identity(other.rows));
        let right = Matrix::identity(self.rows).kron(other);
        &left + &right
    }
}

/// A reusable LU factorization with partial pivoting.
///
/// Produced by [`Matrix::lu_factorize`]; every [`LuFactors::solve`] is
/// bit-identical to a fresh [`Matrix::solve`] on the original matrix.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl LuFactors {
    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A · x = b` against the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.order()`.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.order(), "solve rhs length mismatch");
        lu_solve(&self.lu, &self.perm, b)
    }

    /// The determinant of the factorized matrix.
    #[must_use]
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.order() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// `out += v · m` for a row-major matrix `m` with `cols` columns, processing
/// rows in blocks of four with a 4-wide accumulator per output element.
///
/// The blocked form turns the inner loop into four independent multiply-adds
/// per output element (SIMD-friendly, one pass over `out` per four rows of
/// `m`) and is the shared kernel behind [`Matrix::vec_mul_into`] and matrix
/// multiply. All-zero coefficient blocks are skipped, preserving the sparse
/// row shortcut of the old row-at-a-time loop.
fn gaxpy_blocked(out: &mut [f64], v: &[f64], m: &[f64], cols: usize) {
    debug_assert_eq!(m.len(), v.len() * cols);
    debug_assert_eq!(out.len(), cols);
    let mut blocks = v.chunks_exact(4);
    let mut base = 0usize;
    for vb in blocks.by_ref() {
        let (v0, v1, v2, v3) = (vb[0], vb[1], vb[2], vb[3]);
        if v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 {
            base += 4 * cols;
            continue;
        }
        let r0 = &m[base..base + cols];
        let r1 = &m[base + cols..base + 2 * cols];
        let r2 = &m[base + 2 * cols..base + 3 * cols];
        let r3 = &m[base + 3 * cols..base + 4 * cols];
        for (o, (((&a, &b), &c), &d)) in out.iter_mut().zip(r0.iter().zip(r1).zip(r2).zip(r3)) {
            *o += v0 * a + v1 * b + v2 * c + v3 * d;
        }
        base += 4 * cols;
    }
    for (i, &vi) in blocks.remainder().iter().enumerate() {
        if vi == 0.0 {
            continue;
        }
        let row = &m[base + i * cols..base + (i + 1) * cols];
        for (o, &r) in out.iter_mut().zip(row) {
            *o += vi * r;
        }
    }
}

fn lu_solve(lu: &Matrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.rows();
    // Apply permutation, then forward/backward substitution. Row slices keep
    // the per-element arithmetic (and thus the bits) of the indexed loop.
    let mut y: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
    for i in 1..n {
        let row = lu.row(i);
        let mut acc = y[i];
        for (&l, &yj) in row[..i].iter().zip(&y[..i]) {
            acc -= l * yj;
        }
        y[i] = acc;
    }
    for i in (0..n).rev() {
        let row = lu.row(i);
        let mut acc = y[i];
        for (&u, &yj) in row[(i + 1)..].iter().zip(&y[(i + 1)..]) {
            acc -= u * yj;
        }
        y[i] = acc / row[i];
    }
    y
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "mul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            gaxpy_blocked(orow, arow, &rhs.data, rhs.cols);
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn multiply_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 3.0, 1e-10);
        assert_close(x[2], -1.0, 1e-10);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinalgError::Singular));
        assert_eq!(a.determinant(), 0.0);
    }

    #[test]
    fn determinant_of_triangular() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 3.0]]);
        assert_close(a.determinant(), 6.0, 1e-12);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert!((&z.expm() - &Matrix::identity(3)).max_abs() < 1e-14);
    }

    #[test]
    fn expm_matches_scalar_exponential() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -2.0]]);
        let e = a.expm();
        assert_close(e[(0, 0)], 1.0f64.exp(), 1e-10);
        assert_close(e[(1, 1)], (-2.0f64).exp(), 1e-10);
        assert_close(e[(0, 1)], 0.0, 1e-12);
    }

    #[test]
    fn expm_nilpotent_exact() {
        // exp([[0,1],[0,0]]) = [[1,1],[0,1]]
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        let e = a.expm();
        assert_close(e[(0, 0)], 1.0, 1e-12);
        assert_close(e[(0, 1)], 1.0, 1e-12);
        assert_close(e[(1, 1)], 1.0, 1e-12);
    }

    #[test]
    fn expm_action_matches_expm() {
        // Sub-generator of a 2-phase PH.
        let a = Matrix::from_rows(&[vec![-3.0, 2.0], vec![0.5, -1.5]]);
        let t = 0.7;
        let full = a.scaled(t).expm();
        let v = vec![0.3, 0.7];
        let via_action = a.expm_action(&v, t);
        let via_expm = full.vec_mul(&v);
        for (x, y) in via_action.iter().zip(&via_expm) {
            assert_close(*x, *y, 1e-10);
        }
    }

    #[test]
    fn expm_action_preserves_nonnegativity() {
        let a = Matrix::from_rows(&[vec![-10.0, 10.0], vec![0.0, -0.1]]);
        let v = vec![1.0, 0.0];
        let out = a.expm_action(&v, 50.0);
        assert!(out.iter().all(|&x| x >= 0.0));
        // Mass can only leave through the exit vector; here row sums are 0 and -0.1.
        assert!(crate::sum(&out) <= 1.0 + 1e-12);
    }

    #[test]
    fn kron_product_shape_and_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![0.0, 3.0], vec![4.0, 0.0]]);
        let k = a.kron(&b);
        assert_eq!(k.rows(), 2);
        assert_eq!(k.cols(), 4);
        assert_eq!(k[(0, 1)], 3.0);
        assert_eq!(k[(1, 2)], 8.0);
    }

    #[test]
    fn kron_sum_of_generators_is_generator() {
        let a = Matrix::from_rows(&[vec![-1.0, 1.0], vec![2.0, -2.0]]);
        let b = Matrix::from_rows(&[vec![-3.0, 3.0], vec![0.5, -0.5]]);
        let s = a.kron_sum(&b);
        for rs in s.row_sums() {
            assert_close(rs, 0.0, 1e-12);
        }
    }

    #[test]
    fn vec_mul_and_mul_vec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.vec_mul(&[1.0, 1.0]), vec![4.0, 6.0]);
        // The column product `a · v` is `v · aᵀ`.
        assert_eq!(a.transpose().vec_mul(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn vec_mul_into_matches_vec_mul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 4.0]]);
        let v = [0.5, -1.5];
        let mut out = [9.0, 9.0]; // stale contents must be overwritten
        a.vec_mul_into(&v, &mut out);
        assert_eq!(out.to_vec(), a.vec_mul(&v));
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }
}
