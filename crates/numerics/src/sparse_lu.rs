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
//!
//! The factors keep every index — column starts, row indices and
//! permutations — as a `u32`, and a fresh factorization trims its
//! arrays to their length, so an `f64` `L` entry costs 12 bytes and a
//! complex one 20. A factorization whose `L` or `U` would pass
//! `u32::MAX` stored entries (over 50 GB of factors) is refused with
//! [`NumericsError::InvalidInput`].

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

const EMPTY: u32 = u32::MAX;

/// `count` as a stored `u32` index, or the error that refuses a
/// factorization too large for 32-bit indices.
fn index(count: usize, what: &str) -> Result<u32> {
    u32::try_from(count).map_err(|_| {
        NumericsError::InvalidInput(format!(
            "{what} {count} passes the 32-bit index limit of {}",
            u32::MAX
        ))
    })
}

/// Sparse LU factors `P·A = L·U` with recorded symbolic structure.
///
/// `L` is unit-lower-triangular (unit diagonal implicit) and `U` is
/// upper-triangular with its diagonal kept separately; both are
/// stored column-wise with *pivot-step* row indices (`U` in
/// elimination replay order), so [`refactor`](Self::refactor) and
/// [`solve_into`](Self::solve_into) index their vectors directly.
/// Every index is a `u32` (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SparseLu<S: Scalar = f64> {
    n: usize,
    lp: Vec<u32>,
    li: Vec<u32>,
    lx: Vec<S>,
    up: Vec<u32>,
    ui: Vec<u32>,
    ux: Vec<S>,
    udiag: Vec<S>,
    /// `perm[k]` = original row pivoted at elimination step `k`.
    perm: Vec<u32>,
    /// Inverse permutation: `pinv[perm[k]] == k`.
    pinv: Vec<u32>,
    /// Column pre-ordering: `cperm[k]` = original column eliminated at
    /// step `k`. `None` means natural order.
    cperm: Option<Vec<u32>>,
    /// The nontrivial cycles of `cperm` (see [`cycle_walk`]), so a
    /// solve can undo the column order in place.
    cycles: Vec<u32>,
    /// The dense refactor accumulator, by pivot step; all-zero
    /// between calls.
    work: Vec<S>,
}

impl<S: Scalar> SparseLu<S> {
    /// Full factorization: symbolic analysis + numeric elimination,
    /// eliminating columns in their natural order.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Singular`] when a column has no usable pivot
    /// (structurally or numerically singular), and
    /// [`NumericsError::InvalidInput`] for malformed input or factors
    /// past the 32-bit index limit.
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
        // Steps and rows are `u32`s below `EMPTY`.
        index(n, "matrix order")?;
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
            cperm: col_order.map(|q| q.iter().map(|&c| c as u32).collect()),
            cycles: col_order.map_or_else(Vec::new, cycle_walk),
            work: Vec::new(),
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
                        (f.lp[k as usize] as usize, f.lp[k as usize + 1] as usize)
                    };
                    let mut ci = child;
                    let mut descended = false;
                    while lo + ci < hi {
                        let next = f.li[lo + ci] as usize;
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
                    let k = k as usize;
                    for p in f.lp[k] as usize..f.lp[k + 1] as usize {
                        let r = f.li[p] as usize;
                        let delta = f.lx[p] * xk;
                        x[r] -= delta;
                    }
                }
            }
            // Pivot among the not-yet-pivotal rows of the pattern.
            let mut best = usize::MAX;
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
            if best == usize::MAX || best_mag == 0.0 {
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
            f.perm[k] = pivot_row as u32;
            f.pinv[pivot_row] = k as u32;
            f.udiag[k] = pivot;
            // Remaining non-pivotal pattern rows become L[:,j].
            for &i in &pattern {
                if f.pinv[i] == EMPTY {
                    f.li.push(i as u32);
                    f.lx.push(x[i] / pivot);
                }
                x[i] = S::zero();
            }
            f.lp.push(index(f.li.len(), "L entry count")?);
            f.up.push(index(f.ui.len(), "U entry count")?);
        }
        // Every row is pivotal now: renumber L into pivot steps, keep
        // the (all-zero) accumulator for the refactors, and give back
        // the slack the entry arrays grew.
        for r in &mut f.li {
            *r = f.pinv[*r as usize];
        }
        f.work = x;
        f.li.shrink_to_fit();
        f.lx.shrink_to_fit();
        f.ui.shrink_to_fit();
        f.ux.shrink_to_fit();
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
    /// Every sum is formed in the order the fresh factorization formed
    /// it, so refactoring the analyzed values reproduces its factors
    /// bit for bit. The elimination runs over an accumulator allocated
    /// once by the fresh factorization; each step zeroes the entries
    /// it reads, so the accumulator is all-zero again on return from
    /// every path — including a rejected pivot — and a refactor never
    /// allocates.
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
        let (lp, li, up, ui) = (&self.lp[..], &self.li[..], &self.up[..], &self.ui[..]);
        let (lx, ux) = (&mut self.lx[..], &mut self.ux[..]);
        let x = &mut self.work[..];
        let cperm = self.cperm.as_deref();
        for k in 0..self.n {
            // Original column eliminated at step `k`.
            let j = cperm.map_or(k, |q| q[k] as usize);
            let (a0, a1) = (a.col_ptr[j], a.col_ptr[j + 1]);
            for (&r, &v) in a.row_idx[a0..a1].iter().zip(&a.values[a0..a1]) {
                x[self.pinv[r] as usize] += v;
            }
            // Replay the recorded elimination order. Topological order
            // means no later entry updates `x[s]` once it is read.
            let (u0, u1) = (up[k] as usize, up[k + 1] as usize);
            for (&s, uq) in ui[u0..u1].iter().zip(&mut ux[u0..u1]) {
                let s = s as usize;
                let xs = std::mem::replace(&mut x[s], S::zero());
                *uq = xs;
                if xs != S::zero() {
                    let (l0, l1) = (lp[s] as usize, lp[s + 1] as usize);
                    for (&r, &l) in li[l0..l1].iter().zip(&lx[l0..l1]) {
                        let delta = l * xs;
                        x[r as usize] -= delta;
                    }
                }
            }
            let pivot = std::mem::replace(&mut x[k], S::zero());
            let pm = pivot.modulus();
            // Scale the L column, tracking its largest entry for the
            // stability guard: the replayed pivot must still dominate
            // its column the way threshold pivoting would demand —
            // values that drift far from the analyzed ones (a wide AC
            // sweep's reactive stamps, a homotopy ramp) would
            // otherwise cause silent element growth.
            let mut col_max = pm;
            let (l0, l1) = (lp[k] as usize, lp[k + 1] as usize);
            for (&r, l) in li[l0..l1].iter().zip(&mut lx[l0..l1]) {
                let v = std::mem::replace(&mut x[r as usize], S::zero());
                col_max = col_max.max(v.modulus());
                *l = v / pivot;
            }
            if !(pm > 0.0) || !pm.is_finite() || pm < PIVOT_TAU * col_max {
                return Err(NumericsError::Singular { index: j });
            }
            self.udiag[k] = pivot;
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

    /// Heap bytes the factors keep, counted by capacity.
    pub fn bytes(&self) -> usize {
        let idx = self.lp.capacity()
            + self.li.capacity()
            + self.up.capacity()
            + self.ui.capacity()
            + self.perm.capacity()
            + self.pinv.capacity()
            + self.cperm.as_ref().map_or(0, Vec::capacity)
            + self.cycles.capacity();
        let vals =
            self.lx.capacity() + self.ux.capacity() + self.udiag.capacity() + self.work.capacity();
        idx * size_of::<u32>() + vals * size_of::<S>()
    }

    /// Solves `A·x = b` using the current factors.
    ///
    /// # Errors
    ///
    /// [`NumericsError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        let mut x = vec![S::zero(); self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`solve`](Self::solve) into the caller's `x`, with no other
    /// storage: both triangular solves run in pivot-step coordinates
    /// in `x`, and the column pre-ordering is undone in place.
    ///
    /// # Errors
    ///
    /// [`NumericsError::DimensionMismatch`] for a wrong-length `b` or
    /// `x`.
    pub fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<()> {
        let n = self.n;
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(NumericsError::DimensionMismatch {
                    expected: n,
                    found: len,
                });
            }
        }
        let (lp, li, lx) = (&self.lp[..], &self.li[..], &self.lx[..]);
        let (up, ui, ux) = (&self.up[..], &self.ui[..], &self.ux[..]);
        // Forward: L·y = P·b.
        for (xk, &r) in x.iter_mut().zip(&self.perm) {
            *xk = b[r as usize];
        }
        for k in 0..n {
            let yk = x[k];
            if yk != S::zero() {
                let (l0, l1) = (lp[k] as usize, lp[k + 1] as usize);
                for (&r, &l) in li[l0..l1].iter().zip(&lx[l0..l1]) {
                    let delta = l * yk;
                    x[r as usize] -= delta;
                }
            }
        }
        // Backward: U·z = y.
        for j in (0..n).rev() {
            let xj = x[j] / self.udiag[j];
            x[j] = xj;
            if xj != S::zero() {
                let (u0, u1) = (up[j] as usize, up[j + 1] as usize);
                for (&r, &u) in ui[u0..u1].iter().zip(&ux[u0..u1]) {
                    let delta = u * xj;
                    x[r as usize] -= delta;
                }
            }
        }
        // Undo the column pre-ordering: step `k` solved for original
        // unknown `cperm[k]`. Walk each cycle, carrying one value.
        let mut walk = self.cycles.iter();
        while let Some(&start) = walk.next() {
            let mut carry = x[start as usize];
            for &k in walk.by_ref() {
                std::mem::swap(&mut carry, &mut x[k as usize]);
                if k == start {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// The nontrivial cycles of the permutation `q`, concatenated: each
/// lists a step `s`, then `q[s]`, `q[q[s]]`, …, and repeats `s` to
/// close. Walking it moves each value to its image with independent
/// loads, where following `q` itself would chain them.
fn cycle_walk(q: &[usize]) -> Vec<u32> {
    let mut seen = vec![false; q.len()];
    let mut walk = Vec::new();
    for start in 0..q.len() {
        if seen[start] || q[start] == start {
            continue;
        }
        let mut k = start;
        while !seen[k] {
            seen[k] = true;
            walk.push(k as u32);
            k = q[k];
        }
        walk.push(start as u32);
    }
    walk
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

    /// A 12×12 pattern whose trailing 2×2 block couples to earlier
    /// columns, with values from `block` in that block.
    fn coupled_pattern(block: [f64; 4], couple: f64) -> Vec<(usize, usize, f64)> {
        let n = 12;
        let mut t = Vec::new();
        let mut rng = Lcg(5);
        for i in 0..n - 2 {
            t.push((i, i, 4.0 + rng.next_f64()));
            if i + 1 < n - 2 {
                t.push((i, i + 1, rng.next_f64()));
                t.push((i + 1, i, rng.next_f64()));
            }
        }
        for (k, &(i, j)) in [(10, 10), (10, 11), (11, 10), (11, 11)].iter().enumerate() {
            t.push((i, j, block[k]));
        }
        for &i in &[2, 5, 8] {
            t.push((10, i, couple));
            t.push((i, 11, couple));
        }
        t
    }

    fn bits<S: Scalar>(x: &[S]) -> Vec<String> {
        x.iter().map(|v| format!("{v:?}")).collect()
    }

    /// `refactor` replays the analyzed sums exactly, and leaves its
    /// accumulator all-zero even when it rejects a pivot.
    fn refactor_is_exact_and_leaves_a_clean_accumulator<S: Scalar>(lift: impl Fn(f64) -> S) {
        let csc = |t: &[(usize, usize, f64)]| {
            let t: Vec<_> = t.iter().map(|&(i, j, v)| (i, j, lift(v))).collect();
            CscMatrix::from_triplets(12, &t)
        };
        let a = csc(&coupled_pattern([2.0, 1.0, 1.0, 2.0], 0.5));
        // Column 0's pivot is zero while its L entry is not: dead at
        // the first step in natural order.
        let mut dead_first = coupled_pattern([2.0, 1.0, 1.0, 2.0], 0.5);
        dead_first[0].2 = 0.0;
        // Dead at a later step: the trailing block is exactly singular
        // once the first of its columns is eliminated.
        let dead_later = coupled_pattern([1.0, 1.0, 1.0, 1.0], 0.0);
        let b: Vec<S> = (0..12).map(|i| lift(1.0 + i as f64 * 0.37)).collect();
        let order = crate::ordering::amd_order(12, &a.col_ptr, &a.row_idx);
        for ordered in [false, true] {
            let fresh = || {
                if ordered {
                    SparseLu::factor_ordered(&a.view(), &order)
                } else {
                    SparseLu::factor(&a.view())
                }
                .unwrap()
            };
            let expected = bits(&fresh().solve(&b).unwrap());
            let mut lu = fresh();
            lu.refactor(&a.view()).unwrap();
            assert_eq!(bits(&lu.solve(&b).unwrap()), expected, "ordered {ordered}");
            for dead in [&dead_first, &dead_later] {
                assert!(matches!(
                    lu.refactor(&csc(dead).view()),
                    Err(NumericsError::Singular { .. })
                ));
                assert!(lu.work.iter().all(|v| *v == S::zero()), "dirty accumulator");
                lu.refactor(&a.view()).unwrap();
                assert_eq!(bits(&lu.solve(&b).unwrap()), expected, "ordered {ordered}");
            }
        }
    }

    #[test]
    fn real_refactor_is_exact_and_leaves_a_clean_accumulator() {
        refactor_is_exact_and_leaves_a_clean_accumulator(|v| v);
    }

    #[test]
    fn complex_refactor_is_exact_and_leaves_a_clean_accumulator() {
        refactor_is_exact_and_leaves_a_clean_accumulator(|v| Complex64::new(v, 0.25 * v));
    }

    #[test]
    fn counts_past_u32_max_are_refused() {
        let max = u32::MAX as usize;
        assert_eq!(index(max, "L entry count").unwrap(), u32::MAX);
        match index(max + 1, "L entry count") {
            Err(NumericsError::InvalidInput(msg)) => {
                assert!(msg.contains("L entry count 4294967296"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fresh_factors_keep_no_slack() {
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            for j in [(i * 7 + 3) % n, (i * 11 + 5) % n] {
                t.push((i, j, -0.5));
                t.push((j, i, -0.25));
            }
        }
        let csc = CscMatrix::from_triplets(n, &t);
        let lu = SparseLu::factor(&csc.view()).unwrap();
        for (len, cap) in [
            (lu.li.len(), lu.li.capacity()),
            (lu.lx.len(), lu.lx.capacity()),
            (lu.ui.len(), lu.ui.capacity()),
            (lu.ux.len(), lu.ux.capacity()),
        ] {
            assert_eq!(len, cap);
        }
        let (l, u) = lu.nnz();
        assert!(l + u > csc.view().nnz(), "the pattern fills in");
        // Twelve bytes per stored f64 entry, plus O(n) columns,
        // permutations and accumulator.
        assert_eq!(
            lu.bytes(),
            12 * (l + u - n) + 8 * n + 4 * (2 * (n + 1) + 2 * n) + 8 * n
        );
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
