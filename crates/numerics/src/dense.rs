//! Dense row-major matrices generic over a [`Scalar`].
//!
//! Circuit matrices in this tool chain are small (tens to a few
//! hundred unknowns), so a cache-friendly dense representation with a
//! robust pivoted LU is the pragmatic default; the FE assembly uses
//! the sparse types in [`crate::sparse`] instead.

use crate::complex::Complex64;
use crate::scalar::Scalar;
use crate::{NumericsError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix stored row-major.
///
/// ```
/// use mems_numerics::dense::DenseMatrix;
/// let mut m = DenseMatrix::<f64>::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m.diagonal(), vec![1.0, 2.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> DenseMatrix<S> {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[S]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in DenseMatrix::from_rows");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of a row.
    pub fn row(&self, i: usize) -> &[S] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of a row.
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The main diagonal.
    pub fn diagonal(&self) -> Vec<S> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Raw data slice, row-major.
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Heap bytes the entries keep, counted by capacity.
    pub fn bytes(&self) -> usize {
        self.data.capacity() * size_of::<S>()
    }

    /// Fills every entry with zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = S::zero();
        }
    }

    /// Overwrites every entry with `src`'s, keeping the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &DenseMatrix<S>) {
        assert!(
            self.rows == src.rows && self.cols == src.cols,
            "DenseMatrix::copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Adds `v` to entry `(i, j)` (the MNA "stamp" primitive).
    pub fn add_at(&mut self, i: usize, j: usize, v: S) {
        let c = self.cols;
        self.data[i * c + j] += v;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[S]) -> Result<Vec<S>> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![S::zero(); self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = S::zero();
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] on inner-dimension
    /// disagreement.
    pub fn mul_mat(&self, b: &DenseMatrix<S>) -> Result<DenseMatrix<S>> {
        if self.cols != b.rows {
            return Err(NumericsError::DimensionMismatch {
                expected: self.cols,
                found: b.rows,
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == S::zero() {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix<S> {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Maximum entry modulus (the `max |a_ij|` norm).
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.modulus()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Returns `true` if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite_scalar())
    }
}

impl DenseMatrix<f64> {
    /// Lifts a real matrix into the complex field.
    pub fn to_complex(&self) -> DenseMatrix<Complex64> {
        DenseMatrix::from_fn(self.rows, self.cols, |i, j| {
            Complex64::from_re(self[(i, j)])
        })
    }

    /// Symmetry defect `max |a_ij - a_ji|` (useful for SPD checks).
    pub fn symmetry_defect(&self) -> f64 {
        let mut d = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols.min(self.rows) {
                d = d.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        d
    }
}

impl<S: Scalar> Index<(usize, usize)> for DenseMatrix<S> {
    type Output = S;
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for DenseMatrix<S> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<S: Scalar> fmt::Debug for DenseMatrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

/// Dense vector helpers shared across the crate.
pub mod vecops {
    use crate::scalar::Scalar;

    /// Euclidean norm of a real vector.
    pub fn norm2(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm of a real vector.
    pub fn norm_inf(x: &[f64]) -> f64 {
        x.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Dot product of two real vectors.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// `y ← y + alpha·x`.
    pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * *xi;
        }
    }

    /// Component-wise difference `a - b`.
    pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
        a.iter().zip(b).map(|(x, y)| x - y).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(m.is_square());
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.mul_mat(&i).unwrap(), a);
        assert_eq!(i.mul_mat(&a).unwrap(), a);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        let y = a.mul_vec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn mul_vec_rejects_bad_dims() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.mul_vec(&[1.0, 2.0]),
            Err(NumericsError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0][..], &[-3.0, 0.5][..]]);
        assert_eq!(a.max_norm(), 3.0);
        assert_eq!(a.inf_norm(), 3.5);
        assert!(a.all_finite());
    }

    #[test]
    fn complex_lift() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let c = a.to_complex();
        assert_eq!(c[(1, 0)], Complex64::from_re(3.0));
    }

    #[test]
    fn stamping_accumulates() {
        let mut a = DenseMatrix::<f64>::zeros(2, 2);
        a.add_at(0, 0, 1.0);
        a.add_at(0, 0, 2.5);
        assert_eq!(a[(0, 0)], 3.5);
    }

    #[test]
    fn vecops_basics() {
        assert_eq!(vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((vecops::norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(vecops::norm_inf(&[-7.0, 2.0]), 7.0);
        let mut y = vec![1.0, 1.0];
        vecops::axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn symmetry_defect_detects_asymmetry() {
        let sym = DenseMatrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]]);
        assert_eq!(sym.symmetry_defect(), 0.0);
        let asym = DenseMatrix::from_rows(&[&[2.0, 1.0][..], &[0.0, 2.0][..]]);
        assert_eq!(asym.symmetry_defect(), 1.0);
    }
}
