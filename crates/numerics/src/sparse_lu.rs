//! Sparse LU factorization with split symbolic/numeric phases.
//!
//! A left-looking Gilbert–Peierls factorization with threshold partial
//! pivoting over compressed-sparse-column input. The first call to
//! [`SparseLu::factor`] performs the full symbolic analysis (fill
//! pattern discovery by depth-first reachability) together with the
//! numeric elimination; [`SparseLu::refactor`] then re-runs the
//! numeric phase only, replaying the recorded pattern and pivot
//! sequence against new values on the *same* sparsity pattern. This is
//! the classic SPICE-matrix work split: a Newton iteration (or a
//! `.STEP`/`.MC` batch point with identical topology) changes values,
//! not structure, so the expensive reachability analysis is paid once.
//!
//! [`SparseLu::factor_ordered`] additionally accepts a fill-reducing
//! *column* pre-ordering (e.g. [`crate::ordering::amd_order`]):
//! columns are eliminated in the permuted order while the
//! threshold/diagonal-preference row pivoting stays in charge of
//! stability, factoring `P·A·Q = L·U`. [`SparseLu::refactor`] replays
//! whichever order was analyzed.
//!
//! Generic over [`Scalar`], so the same kernel factors the real
//! DC/transient Jacobian and the complex AC system.

use crate::scalar::Scalar;
use crate::{NumericsError, Result};

/// Threshold-pivoting tolerance: at factorization the natural
/// diagonal entry is kept as pivot when its magnitude is at least
/// this fraction of the column's best candidate (reduces fill and
/// pivot churn on the diagonally-dominant rows MNA produces), and at
/// [`SparseLu::refactor`] a replayed pivot below this fraction of its
/// column maximum is rejected so the caller re-pivots.
pub const PIVOT_TAU: f64 = 1e-3;

/// A borrowed compressed-sparse-column matrix view.
///
/// Column `j` holds rows `row_idx[col_ptr[j]..col_ptr[j+1]]` with
/// matching `values`; rows within a column need not be sorted.
#[derive(Debug, Clone, Copy)]
pub struct CscView<'a, S: Scalar = f64> {
    /// Matrix order (square).
    pub n: usize,
    /// Column start offsets, length `n + 1`.
    pub col_ptr: &'a [usize],
    /// Row index per stored entry.
    pub row_idx: &'a [usize],
    /// Value per stored entry.
    pub values: &'a [S],
}

impl<'a, S: Scalar> CscView<'a, S> {
    /// Stored entry count.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }
}

const EMPTY: usize = usize::MAX;

/// Sparse LU factors `P·A = L·U` with recorded symbolic structure.
///
/// `L` is unit-lower-triangular (unit diagonal implicit), stored
/// column-wise with *original* row indices; `U` is upper-triangular,
/// stored column-wise with pivot-step indices in elimination replay
/// order, its diagonal kept separately.
#[derive(Debug, Clone)]
pub struct SparseLu<S: Scalar = f64> {
    n: usize,
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<S>,
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<S>,
    udiag: Vec<S>,
    /// `perm[k]` = original row pivoted at elimination step `k`.
    perm: Vec<usize>,
    /// Inverse permutation: `pinv[perm[k]] == k`.
    pinv: Vec<usize>,
    /// Column pre-ordering: `cperm[k]` = original column eliminated at
    /// step `k`. `None` means natural order.
    cperm: Option<Vec<usize>>,
}

impl<S: Scalar> SparseLu<S> {
    /// Full factorization: symbolic analysis + numeric elimination,
    /// eliminating columns in their natural order.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Singular`] when a column has no usable pivot
    /// (structurally or numerically singular), and
    /// [`NumericsError::InvalidInput`] for malformed input.
    pub fn factor(a: &CscView<'_, S>) -> Result<Self> {
        Self::factor_impl(a, None)
    }

    /// [`factor`](Self::factor) with a fill-reducing column
    /// pre-ordering: `col_order[k]` names the original column
    /// eliminated at step `k` (typically
    /// [`crate::ordering::amd_order`] of the pattern). Row pivoting
    /// (threshold + diagonal preference, where "diagonal" means the
    /// original diagonal entry of the eliminated column) is unchanged,
    /// so the ordering trades fill, never stability.
    /// [`refactor`](Self::refactor) and [`solve`](Self::solve)
    /// transparently replay/undo the permutation.
    ///
    /// # Errors
    ///
    /// As [`factor`](Self::factor), plus
    /// [`NumericsError::InvalidInput`] when `col_order` is not a
    /// permutation of `0..n`.
    pub fn factor_ordered(a: &CscView<'_, S>, col_order: &[usize]) -> Result<Self> {
        if !crate::ordering::is_permutation(col_order, a.n) {
            return Err(NumericsError::InvalidInput(format!(
                "column order is not a permutation of 0..{}",
                a.n
            )));
        }
        Self::factor_impl(a, Some(col_order))
    }

    fn factor_impl(a: &CscView<'_, S>, col_order: Option<&[usize]>) -> Result<Self> {
        let n = a.n;
        if a.col_ptr.len() != n + 1 || a.row_idx.len() != a.values.len() {
            return Err(NumericsError::InvalidInput(
                "inconsistent CSC arrays".into(),
            ));
        }
        let nnz = a.nnz();
        let mut f = SparseLu {
            n,
            lp: Vec::with_capacity(n + 1),
            li: Vec::with_capacity(nnz),
            lx: Vec::with_capacity(nnz),
            up: Vec::with_capacity(n + 1),
            ui: Vec::with_capacity(nnz),
            ux: Vec::with_capacity(nnz),
            udiag: vec![S::zero(); n],
            perm: vec![EMPTY; n],
            pinv: vec![EMPTY; n],
            cperm: col_order.map(<[usize]>::to_vec),
        };
        f.lp.push(0);
        f.up.push(0);

        // Dense accumulator (by original row), DFS marks, and stacks.
        let mut x = vec![S::zero(); n];
        let mut mark = vec![0usize; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::with_capacity(n);

        for k in 0..n {
            // Original column eliminated at this step.
            let j = col_order.map_or(k, |q| q[k]);
            let stamp = k + 1;
            pattern.clear();
            // Reachability DFS from the pattern of A[:,j] through the
            // columns of L built so far. Postorder gives reverse
            // topological order.
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                let root = a.row_idx[p];
                if root >= n {
                    return Err(NumericsError::InvalidInput(format!(
                        "row index {root} out of bounds in column {j}"
                    )));
                }
                if mark[root] == stamp {
                    continue;
                }
                mark[root] = stamp;
                dfs_stack.push((root, 0));
                while let Some(&(node, child)) = dfs_stack.last() {
                    let k = f.pinv[node];
                    let (lo, hi) = if k == EMPTY {
                        (0, 0)
                    } else {
                        (f.lp[k], f.lp[k + 1])
                    };
                    let mut ci = child;
                    let mut descended = false;
                    while lo + ci < hi {
                        let next = f.li[lo + ci];
                        ci += 1;
                        if mark[next] != stamp {
                            mark[next] = stamp;
                            dfs_stack.last_mut().expect("nonempty stack").1 = ci;
                            dfs_stack.push((next, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        dfs_stack.pop();
                        pattern.push(node);
                    }
                }
            }
            // Scatter A[:,j] numerically.
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                x[a.row_idx[p]] += a.values[p];
            }
            // Numeric sparse triangular solve in topological order
            // (reverse postorder), recording U entries as we go.
            for &i in pattern.iter().rev() {
                let k = f.pinv[i];
                if k == EMPTY {
                    continue;
                }
                let xk = x[i];
                f.ui.push(k);
                f.ux.push(xk);
                if xk != S::zero() {
                    for p in f.lp[k]..f.lp[k + 1] {
                        let r = f.li[p];
                        let delta = f.lx[p] * xk;
                        x[r] -= delta;
                    }
                }
            }
            // Pivot among the not-yet-pivotal rows of the pattern.
            let mut best = EMPTY;
            let mut best_mag = 0.0f64;
            let mut diag_mag = -1.0f64;
            for &i in &pattern {
                if f.pinv[i] != EMPTY {
                    continue;
                }
                let m = x[i].modulus();
                if !m.is_finite() {
                    return Err(NumericsError::Singular { index: j });
                }
                if m > best_mag {
                    best_mag = m;
                    best = i;
                }
                if i == j {
                    diag_mag = m;
                }
            }
            if best == EMPTY || best_mag == 0.0 {
                // Dirty accumulator is irrelevant: the factors are
                // abandoned on error.
                return Err(NumericsError::Singular { index: j });
            }
            let pivot_row = if diag_mag >= PIVOT_TAU * best_mag {
                j
            } else {
                best
            };
            let pivot = x[pivot_row];
            f.perm[k] = pivot_row;
            f.pinv[pivot_row] = k;
            f.udiag[k] = pivot;
            // Remaining non-pivotal pattern rows become L[:,j].
            for &i in &pattern {
                if f.pinv[i] == EMPTY {
                    f.li.push(i);
                    f.lx.push(x[i] / pivot);
                }
                x[i] = S::zero();
            }
            f.lp.push(f.li.len());
            f.up.push(f.ui.len());
        }
        Ok(f)
    }

    /// Numeric-only refactorization: new values, same sparsity pattern
    /// and pivot sequence as the original [`factor`](Self::factor).
    ///
    /// The input **must** have the exact CSC pattern that was
    /// factored; only values may differ. The replayed pivot is held to
    /// the same threshold-pivoting standard as a fresh factorization
    /// (it must be within [`PIVOT_TAU`] of its column's best eligible
    /// candidate): if the new values have drifted far enough that the
    /// recorded pivot order is no longer stable, the factors are left
    /// invalid and the caller should fall back to a fresh full
    /// factorization, which re-pivots.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Singular`] on a dead or unstable replayed
    /// pivot; [`NumericsError::InvalidInput`] on a pattern-size
    /// mismatch.
    pub fn refactor(&mut self, a: &CscView<'_, S>) -> Result<()> {
        if a.n != self.n || a.col_ptr.len() != self.n + 1 {
            return Err(NumericsError::InvalidInput(format!(
                "refactor pattern mismatch: factored order {}, got {}",
                self.n, a.n
            )));
        }
        let mut x = vec![S::zero(); self.n];
        for k in 0..self.n {
            // Original column eliminated at step `k`.
            let j = self.cperm.as_ref().map_or(k, |q| q[k]);
            for p in a.col_ptr[j]..a.col_ptr[j + 1] {
                x[a.row_idx[p]] += a.values[p];
            }
            // Replay the recorded elimination order.
            for q in self.up[k]..self.up[k + 1] {
                let s = self.ui[q];
                let xk = x[self.perm[s]];
                self.ux[q] = xk;
                if xk != S::zero() {
                    for p in self.lp[s]..self.lp[s + 1] {
                        let r = self.li[p];
                        let delta = self.lx[p] * xk;
                        x[r] -= delta;
                    }
                }
            }
            let pivot_row = self.perm[k];
            let pivot = x[pivot_row];
            // Stability guard: the replayed pivot must still dominate
            // its column the way threshold pivoting would demand —
            // values that drift far from the analyzed ones (a wide AC
            // sweep's reactive stamps, a homotopy ramp) would
            // otherwise cause silent element growth.
            let mut col_max = pivot.modulus();
            for p in self.lp[k]..self.lp[k + 1] {
                col_max = col_max.max(x[self.li[p]].modulus());
            }
            let pm = pivot.modulus();
            if !(pm > 0.0) || !pm.is_finite() || pm < PIVOT_TAU * col_max {
                return Err(NumericsError::Singular { index: j });
            }
            self.udiag[k] = pivot;
            for p in self.lp[k]..self.lp[k + 1] {
                let r = self.li[p];
                self.lx[p] = x[r] / pivot;
                x[r] = S::zero();
            }
            // Clear the U part of the accumulator.
            for q in self.up[k]..self.up[k + 1] {
                x[self.perm[self.ui[q]]] = S::zero();
            }
            x[pivot_row] = S::zero();
        }
        Ok(())
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Stored nonzeros `(nnz(L), nnz(U))` including the U diagonal.
    pub fn nnz(&self) -> (usize, usize) {
        (self.li.len(), self.ui.len() + self.n)
    }

    /// The column order the factors were analyzed with (`None` =
    /// natural order).
    pub fn col_order(&self) -> Option<&[usize]> {
        self.cperm.as_deref()
    }

    /// Solves `A·x = b` using the current factors.
    ///
    /// # Errors
    ///
    /// [`NumericsError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        let n = self.n;
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Forward: L·y = P·b, accumulating in original-row coordinates.
        let mut z: Vec<S> = b.to_vec();
        let mut y = vec![S::zero(); n];
        for k in 0..n {
            let yk = z[self.perm[k]];
            y[k] = yk;
            if yk != S::zero() {
                for p in self.lp[k]..self.lp[k + 1] {
                    let delta = self.lx[p] * yk;
                    z[self.li[p]] -= delta;
                }
            }
        }
        // Backward: U·x = y, in pivot-step coordinates.
        for j in (0..n).rev() {
            let xj = y[j] / self.udiag[j];
            y[j] = xj;
            if xj != S::zero() {
                for q in self.up[j]..self.up[j + 1] {
                    let delta = self.ux[q] * xj;
                    y[self.ui[q]] -= delta;
                }
            }
        }
        // Undo the column pre-ordering: step `k` solved for original
        // unknown `cperm[k]`.
        match &self.cperm {
            None => Ok(y),
            Some(q) => {
                let mut out = vec![S::zero(); n];
                for (k, &j) in q.iter().enumerate() {
                    out[j] = y[k];
                }
                Ok(out)
            }
        }
    }
}

/// Owned CSC storage (builder for [`CscView`]).
#[derive(Debug, Clone, Default)]
pub struct CscMatrix<S: Scalar = f64> {
    /// Matrix order.
    pub n: usize,
    /// Column offsets, length `n + 1`.
    pub col_ptr: Vec<usize>,
    /// Row index per entry.
    pub row_idx: Vec<usize>,
    /// Value per entry.
    pub values: Vec<S>,
}

impl<S: Scalar> CscMatrix<S> {
    /// Borrow as a [`CscView`].
    pub fn view(&self) -> CscView<'_, S> {
        CscView {
            n: self.n,
            col_ptr: &self.col_ptr,
            row_idx: &self.row_idx,
            values: &self.values,
        }
    }

    /// Builds CSC storage from `(row, col, value)` triplets, summing
    /// duplicates. Entries must be in range; the matrix is `n × n`.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, S)]) -> Self {
        let mut sorted: Vec<(usize, usize, S)> =
            triplets.iter().map(|&(r, c, v)| (c, r, v)).collect();
        sorted.sort_unstable_by_key(|&(c, r, _)| (c, r));
        let mut merged: Vec<(usize, usize, S)> = Vec::with_capacity(sorted.len());
        for (c, r, v) in sorted {
            match merged.last_mut() {
                Some((pc, pr, pv)) if *pc == c && *pr == r => *pv += v,
                _ => merged.push((c, r, v)),
            }
        }
        let mut col_ptr = vec![0usize; n + 1];
        for &(c, _, _) in &merged {
            col_ptr[c + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let row_idx = merged.iter().map(|&(_, r, _)| r).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        CscMatrix {
            n,
            col_ptr,
            row_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dense::DenseMatrix;
    use crate::lu::LuFactors;

    fn dense_to_csc(a: &DenseMatrix<f64>) -> CscMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                if a[(i, j)] != 0.0 {
                    t.push((i, j, a[(i, j)]));
                }
            }
        }
        CscMatrix::from_triplets(a.rows(), &t)
    }

    /// Deterministic LCG for reproducible pseudo-random tests.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    #[test]
    fn solves_small_system() {
        let a = DenseMatrix::from_rows(&[
            &[2.0, 1.0, -1.0][..],
            &[-3.0, -1.0, 2.0][..],
            &[-2.0, 1.0, 2.0][..],
        ]);
        let csc = dense_to_csc(&a);
        let lu = SparseLu::factor(&csc.view()).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // MNA-style saddle matrix: voltage-source branch row has a
        // structural zero diagonal.
        let a = DenseMatrix::from_rows(&[
            &[1e-3, 0.0, 1.0][..],
            &[0.0, 2e-3, -1.0][..],
            &[1.0, -1.0, 0.0][..],
        ]);
        let csc = dense_to_csc(&a);
        let lu = SparseLu::factor(&csc.view()).unwrap();
        let b = [0.0, 0.0, 5.0];
        let x = lu.solve(&b).unwrap();
        let dense = LuFactors::factor(&a).unwrap().solve(&b).unwrap();
        for (xs, xd) in x.iter().zip(&dense) {
            assert!((xs - xd).abs() < 1e-12, "{x:?} vs {dense:?}");
        }
    }

    #[test]
    fn random_systems_match_dense_lu() {
        let mut rng = Lcg(42);
        for n in [5usize, 17, 40] {
            // ~30% fill plus a strong-ish diagonal.
            let mut a = DenseMatrix::<f64>::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let u = rng.next_f64();
                    if u.abs() < 0.3 {
                        a[(i, j)] = rng.next_f64();
                    }
                }
                a[(i, i)] += 2.0;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let csc = dense_to_csc(&a);
            let lu = SparseLu::factor(&csc.view()).unwrap();
            let xs = lu.solve(&b).unwrap();
            let xd = LuFactors::factor(&a).unwrap().solve(&b).unwrap();
            for (s, d) in xs.iter().zip(&xd) {
                assert!((s - d).abs() < 1e-9, "n = {n}: {s} vs {d}");
            }
        }
    }

    #[test]
    fn refactor_matches_fresh_factor() {
        let mut rng = Lcg(7);
        let n = 25;
        let mut pattern = Vec::new();
        for i in 0..n {
            pattern.push((i, i));
            for j in 0..n {
                if i != j && rng.next_f64().abs() < 0.2 {
                    pattern.push((i, j));
                }
            }
        }
        let values_a: Vec<f64> = pattern
            .iter()
            .map(|&(i, j)| {
                if i == j {
                    3.0 + rng.next_f64()
                } else {
                    rng.next_f64()
                }
            })
            .collect();
        let values_b: Vec<f64> = pattern
            .iter()
            .map(|&(i, j)| {
                if i == j {
                    4.0 + rng.next_f64()
                } else {
                    rng.next_f64()
                }
            })
            .collect();
        let t_a: Vec<_> = pattern
            .iter()
            .zip(&values_a)
            .map(|(&(i, j), &v)| (i, j, v))
            .collect();
        let t_b: Vec<_> = pattern
            .iter()
            .zip(&values_b)
            .map(|(&(i, j), &v)| (i, j, v))
            .collect();
        let csc_a = CscMatrix::from_triplets(n, &t_a);
        let csc_b = CscMatrix::from_triplets(n, &t_b);
        let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();

        let mut lu = SparseLu::factor(&csc_a.view()).unwrap();
        lu.refactor(&csc_b.view()).unwrap();
        let x_refactor = lu.solve(&b).unwrap();
        let x_fresh = SparseLu::factor(&csc_b.view()).unwrap().solve(&b).unwrap();
        for (r, f) in x_refactor.iter().zip(&x_fresh) {
            assert!((r - f).abs() < 1e-10, "{r} vs {f}");
        }
        // And refactoring back to the original values round-trips.
        lu.refactor(&csc_a.view()).unwrap();
        let x_back = lu.solve(&b).unwrap();
        let x_orig = SparseLu::factor(&csc_a.view()).unwrap().solve(&b).unwrap();
        for (r, f) in x_back.iter().zip(&x_orig) {
            assert!((r - f).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]);
        let csc = dense_to_csc(&a);
        assert!(matches!(
            SparseLu::factor(&csc.view()),
            Err(NumericsError::Singular { .. })
        ));
        // Structurally singular: an empty column.
        let csc = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        assert!(matches!(
            SparseLu::<f64>::factor(&csc.view()),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn refactor_reports_dead_pivot() {
        let csc_ok = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let mut lu = SparseLu::factor(&csc_ok.view()).unwrap();
        let csc_dead = CscMatrix::from_triplets(2, &[(0, 0, 0.0), (1, 1, 1.0)]);
        assert!(matches!(
            lu.refactor(&csc_dead.view()),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn refactor_rejects_unstable_pivot_drift() {
        // Diagonally dominant at analysis time: (0,0) is the pivot.
        let csc_a = CscMatrix::from_triplets(2, &[(0, 0, 4.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let mut lu = SparseLu::factor(&csc_a.view()).unwrap();
        // New values shrink the replayed pivot far below its column
        // max: numerically alive, but unstable — must be rejected so
        // the caller re-pivots with a full factorization.
        let csc_b = CscMatrix::from_triplets(2, &[(0, 0, 1e-9), (1, 0, 1.0), (1, 1, 3.0)]);
        assert!(matches!(
            lu.refactor(&csc_b.view()),
            Err(NumericsError::Singular { .. })
        ));
        let fresh = SparseLu::factor(&csc_b.view()).unwrap();
        let x = fresh.solve(&[1e-9, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 1.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn complex_systems_solve() {
        let j = Complex64::J;
        let entries = [
            (0usize, 0usize, Complex64::new(1.0, 1.0)),
            (0, 1, j),
            (1, 0, Complex64::new(2.0, -1.0)),
            (1, 1, Complex64::new(0.0, 3.0)),
        ];
        let csc = CscMatrix::from_triplets(2, &entries);
        let lu = SparseLu::factor(&csc.view()).unwrap();
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let x = lu.solve(&b).unwrap();
        // Residual check A·x = b.
        let ax0 = entries[0].2 * x[0] + entries[1].2 * x[1];
        let ax1 = entries[2].2 * x[0] + entries[3].2 * x[1];
        assert!((ax0 - b[0]).abs() < 1e-12);
        assert!((ax1 - b[1]).abs() < 1e-12);
    }

    #[test]
    fn ordered_factor_matches_natural_and_dense() {
        let mut rng = Lcg(99);
        for n in [6usize, 20, 45] {
            let mut a = DenseMatrix::<f64>::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if rng.next_f64().abs() < 0.25 {
                        a[(i, j)] = rng.next_f64();
                    }
                }
                a[(i, i)] += 3.0;
            }
            let csc = dense_to_csc(&a);
            let order = crate::ordering::amd_order(n, &csc.col_ptr, &csc.row_idx);
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let x_ord = SparseLu::factor_ordered(&csc.view(), &order)
                .unwrap()
                .solve(&b)
                .unwrap();
            let x_nat = SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap();
            let x_dense = LuFactors::factor(&a).unwrap().solve(&b).unwrap();
            for i in 0..n {
                assert!((x_ord[i] - x_dense[i]).abs() < 1e-9, "n = {n} col {i}");
                assert!((x_ord[i] - x_nat[i]).abs() < 1e-9, "n = {n} col {i}");
            }
        }
    }

    #[test]
    fn ordered_refactor_replays_the_permutation() {
        // Arrow pattern: natural order fills completely, AMD leaves
        // the hub last. Refactor with fresh values must match a fresh
        // ordered factorization.
        let n = 20;
        let mut pattern = vec![];
        for i in 0..n {
            pattern.push((i, i));
            if i > 0 {
                pattern.push((0, i));
                pattern.push((i, 0));
            }
        }
        let mut rng = Lcg(3);
        let vals = |rng: &mut Lcg| -> Vec<f64> {
            pattern
                .iter()
                .map(|&(i, j)| {
                    if i == j {
                        5.0 + rng.next_f64()
                    } else {
                        rng.next_f64()
                    }
                })
                .collect()
        };
        let va = vals(&mut rng);
        let vb = vals(&mut rng);
        let t = |vs: &[f64]| -> Vec<(usize, usize, f64)> {
            pattern
                .iter()
                .zip(vs)
                .map(|(&(i, j), &v)| (i, j, v))
                .collect()
        };
        let csc_a = CscMatrix::from_triplets(n, &t(&va));
        let csc_b = CscMatrix::from_triplets(n, &t(&vb));
        let order = crate::ordering::amd_order(n, &csc_a.col_ptr, &csc_a.row_idx);
        let mut lu = SparseLu::factor_ordered(&csc_a.view(), &order).unwrap();
        let (lnz_ord, _) = lu.nnz();
        let (lnz_nat, _) = SparseLu::factor(&csc_a.view()).unwrap().nnz();
        assert!(
            lnz_ord < lnz_nat,
            "ordered fill {lnz_ord} must beat natural {lnz_nat}"
        );
        lu.refactor(&csc_b.view()).unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = SparseLu::factor_ordered(&csc_b.view(), &order)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (r, f) in x_re.iter().zip(&x_fresh) {
            assert!((r - f).abs() < 1e-10, "{r} vs {f}");
        }
    }

    #[test]
    fn ordered_factor_rejects_bad_permutations() {
        let csc = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        for bad in [&[0usize, 0][..], &[0][..], &[1, 2][..]] {
            assert!(matches!(
                SparseLu::<f64>::factor_ordered(&csc.view(), bad),
                Err(NumericsError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn ordered_complex_systems_solve() {
        let j = Complex64::J;
        let entries = [
            (0usize, 0usize, Complex64::new(1.0, 1.0)),
            (0, 1, j),
            (1, 0, Complex64::new(2.0, -1.0)),
            (1, 1, Complex64::new(0.0, 3.0)),
        ];
        let csc = CscMatrix::from_triplets(2, &entries);
        let lu = SparseLu::factor_ordered(&csc.view(), &[1, 0]).unwrap();
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let x = lu.solve(&b).unwrap();
        let ax0 = entries[0].2 * x[0] + entries[1].2 * x[1];
        let ax1 = entries[2].2 * x[0] + entries[3].2 * x[1];
        assert!((ax0 - b[0]).abs() < 1e-12);
        assert!((ax1 - b[1]).abs() < 1e-12);
    }

    #[test]
    fn tridiagonal_has_no_fill() {
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        let csc = CscMatrix::from_triplets(n, &t);
        let lu = SparseLu::factor(&csc.view()).unwrap();
        let (lnz, unz) = lu.nnz();
        // Diagonal pivoting keeps a tridiagonal factor: n-1 in L,
        // (n-1) + n in U.
        assert_eq!(lnz, n - 1);
        assert_eq!(unz, 2 * n - 1);
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        let dense = {
            let mut d = DenseMatrix::<f64>::zeros(n, n);
            for &(i, j, v) in &t {
                d[(i, j)] = v;
            }
            LuFactors::factor(&d).unwrap().solve(&b).unwrap()
        };
        for (s, d) in x.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-12);
        }
    }
}
