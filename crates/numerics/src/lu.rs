//! LU factorization with partial pivoting, generic over [`Scalar`].
//!
//! This is the workhorse linear solver of the SPICE substrate: the
//! Newton loop refactors the Jacobian each iteration and solves for
//! the update, both in real arithmetic (DC/transient) and complex
//! arithmetic (AC).

use crate::dense::DenseMatrix;
use crate::scalar::Scalar;
use crate::{NumericsError, Result};

/// The factors `P·A = L·U` of a square matrix.
#[derive(Debug, Clone)]
pub struct LuFactors<S: Scalar = f64> {
    lu: DenseMatrix<S>,
    perm: Vec<usize>,
    /// Sign of the permutation (`+1` or `-1`), used by [`det`](Self::det).
    perm_sign: f64,
}

impl<S: Scalar> LuFactors<S> {
    /// Factors `a` with partial (row) pivoting into fresh storage.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::Singular`] when no usable pivot exists
    /// in a column, and [`NumericsError::InvalidInput`] for non-square
    /// input.
    pub fn factor(a: &DenseMatrix<S>) -> Result<Self> {
        let n = a.rows();
        let mut f = LuFactors {
            lu: DenseMatrix::zeros(n, n),
            perm: vec![0; n],
            perm_sign: 1.0,
        };
        f.factor_in_place(a)?;
        Ok(f)
    }

    /// [`factor`](Self::factor) into this storage, reusing its
    /// allocation: the Newton loop refactors its dense Jacobian this
    /// way every iteration. After an error the factors are invalid
    /// until the next successful call.
    ///
    /// # Errors
    ///
    /// As [`factor`](Self::factor), plus
    /// [`NumericsError::DimensionMismatch`] when `a` is not of this
    /// storage's order.
    pub fn factor_in_place(&mut self, a: &DenseMatrix<S>) -> Result<()> {
        if !a.is_square() {
            return Err(NumericsError::InvalidInput(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = self.order();
        if a.rows() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: n,
                found: a.rows(),
            });
        }
        self.lu.copy_from(a);
        let lu = &mut self.lu;
        for (k, p) in self.perm.iter_mut().enumerate() {
            *p = k;
        }
        self.perm_sign = 1.0;

        for k in 0..n {
            // Pivot search on column k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].modulus();
            for i in (k + 1)..n {
                let mag = lu[(i, k)].modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if !(pivot_mag > 0.0) || !pivot_mag.is_finite() {
                return Err(NumericsError::Singular { index: k });
            }
            if pivot_row != k {
                self.perm.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == S::zero() {
                    continue;
                }
                for j in (k + 1)..n {
                    let delta = m * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(())
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] when `b` has the
    /// wrong length.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        let mut x = vec![S::zero(); self.order()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Heap bytes the factors keep, counted by capacity.
    pub fn bytes(&self) -> usize {
        self.lu.bytes() + self.perm.capacity() * size_of::<usize>()
    }

    /// [`solve`](Self::solve) into the caller's `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] when `b` or `x`
    /// has the wrong length.
    pub fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<()> {
        let n = self.order();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(NumericsError::DimensionMismatch {
                    expected: n,
                    found: len,
                });
            }
        }
        // Apply permutation: y = P·b.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // Forward substitution L·y = P·b (unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution U·x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> S {
        let mut d = S::from_f64(self.perm_sign);
        for i in 0..self.order() {
            d = d * self.lu[(i, i)];
        }
        d
    }
}

/// One-shot dense solve `A·x = b`.
///
/// # Errors
///
/// Propagates factorization and dimension errors.
pub fn solve_dense<S: Scalar>(a: &DenseMatrix<S>, b: &[S]) -> Result<Vec<S>> {
    LuFactors::factor(a)?.solve(b)
}

/// Inverts a small dense matrix (used by two-port conversions).
///
/// # Errors
///
/// Returns [`NumericsError::Singular`] for singular input.
pub fn invert<S: Scalar>(a: &DenseMatrix<S>) -> Result<DenseMatrix<S>> {
    let n = a.rows();
    let lu = LuFactors::factor(a)?;
    let mut inv = DenseMatrix::zeros(n, n);
    let mut e = vec![S::zero(); n];
    for j in 0..n {
        e[j] = S::one();
        let col = lu.solve(&e)?;
        for i in 0..n {
            inv[(i, j)] = col[i];
        }
        e[j] = S::zero();
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    #[test]
    fn solves_small_real_system() {
        let a = DenseMatrix::from_rows(&[
            &[2.0, 1.0, -1.0][..],
            &[-3.0, -1.0, 2.0][..],
            &[-2.0, 1.0, 2.0][..],
        ]);
        let x = solve_dense(&a, &[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]);
        let x = solve_dense(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singularity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]);
        assert!(matches!(
            LuFactors::factor(&a),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            LuFactors::factor(&a),
            Err(NumericsError::InvalidInput(_))
        ));
    }

    #[test]
    fn determinant_with_permutation_sign() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert!((lu.det() - -1.0).abs() < 1e-14);
        let b = DenseMatrix::from_rows(&[&[3.0, 0.0][..], &[0.0, 2.0][..]]);
        assert!((LuFactors::factor(&b).unwrap().det() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn complex_solve_round_trip() {
        let j = Complex64::J;
        let a = DenseMatrix::from_rows(&[
            &[Complex64::new(1.0, 1.0), j][..],
            &[Complex64::new(2.0, -1.0), Complex64::new(0.0, 3.0)][..],
        ]);
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let x = solve_dense(&a, &b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((*axi - *bi).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, 7.0, 1.0][..],
            &[2.0, 6.0, -3.0][..],
            &[0.5, 1.0, 9.0][..],
        ]);
        let inv = invert(&a).unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        for i in 0..3 {
            for jj in 0..3 {
                let expect = if i == jj { 1.0 } else { 0.0 };
                assert!((prod[(i, jj)] - expect).abs() < 1e-12);
            }
        }
    }
}
