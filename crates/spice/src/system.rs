//! The backend-agnostic system matrix: every analysis stamps its MNA
//! Jacobian (or complex AC admittance matrix) through the
//! [`SystemMatrix`] trait and solves through the same interface, so
//! the choice between a dense LU and the sparse
//! Gilbert–Peierls factorization is a per-circuit policy decision, not
//! a per-analysis code path.
//!
//! Two implementations:
//!
//! - [`DenseSystem`]: a [`DenseMatrix`] refactored from scratch each
//!   [`factor`](SystemMatrix::factor) — the right default for the
//!   paper-scale circuits of a few dozen unknowns.
//! - [`SparseSystem`]: a growable sparsity pattern over
//!   [`SparseLu`], with split symbolic/numeric factorization. The
//!   pattern is discovered from the stamps themselves (a stamp at a
//!   new coordinate grows the pattern and invalidates the symbolic
//!   analysis), and once the pattern is stable every subsequent
//!   [`factor`](SystemMatrix::factor) is a numeric-only
//!   [`SparseLu::refactor`] — the hot path for Newton iterations,
//!   transient steps, AC frequency points, and `.STEP`/`.MC` batch
//!   points that share one topology.
//!
//! Backend selection is [`MatrixBackend`]: `Auto` switches to sparse
//! at [`AUTO_SPARSE_THRESHOLD`] unknowns, and
//! [`SimOptions::matrix`](crate::solver::SimOptions) (deck option
//! `sparse=0/1`) overrides it either way.
//!
//! The sparse backend additionally applies a fill-reducing
//! [`FillOrdering`] at symbolic time: whenever the pattern is rebuilt,
//! a column order is computed once — AMD
//! ([`mems_numerics::ordering::amd_order`]) for moderate systems,
//! multilevel nested dissection ([`mems_numerics::ordering::nd_order`])
//! at scale — through the machine-wide ordering cache
//! ([`mems_numerics::ordering::order_cached`]), and every
//! factorization — first and replayed — eliminates in that order.
//! Deck option `order=nd|amd|natural|auto` (default `auto`) selects
//! the policy. A replayed pivot that dies makes the refactor fall back
//! to a fresh, re-pivoting factorization under the same order.
//! [`SolverStats`] snapshots what the backend actually did (counts,
//! fill, timings) for `mems run --json` and the serve job metadata.

use mems_numerics::dense::DenseMatrix;
use mems_numerics::lu::LuFactors;
use mems_numerics::ordering::order_cached;
use mems_numerics::scalar::Scalar;
use mems_numerics::sparse_lu::{CscView, SparseLu};
use mems_numerics::{NumericsError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub use mems_numerics::ordering::FillOrdering;

/// Unknown count at which `Auto` switches from dense to sparse.
///
/// Dense LU is `O(n³)` with a small constant; the sparse path wins
/// once the Jacobian is big *and* mostly structural zeros, which for
/// MNA matrices (a handful of entries per device) is around here.
pub const AUTO_SPARSE_THRESHOLD: usize = 50;

/// Which linear-algebra backend assembles and solves the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixBackend {
    /// Pick by unknown count ([`AUTO_SPARSE_THRESHOLD`]).
    #[default]
    Auto,
    /// Force the dense LU path.
    Dense,
    /// Force the sparse LU path.
    Sparse,
}

impl MatrixBackend {
    /// Resolves `Auto` against an unknown count.
    pub fn resolve(self, n: usize) -> MatrixBackend {
        match self {
            MatrixBackend::Auto => {
                if n >= AUTO_SPARSE_THRESHOLD {
                    MatrixBackend::Sparse
                } else {
                    MatrixBackend::Dense
                }
            }
            other => other,
        }
    }
}

/// Has no effect; kept only because the `perfbench` benchmark names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorKind {
    /// Resolves to [`FactorKind::Scalar`].
    #[default]
    Auto,
    /// The scalar sparse LU, the only engine.
    Scalar,
    /// Resolves to [`FactorKind::Scalar`].
    Supernodal,
}

impl FactorKind {
    /// Always [`FactorKind::Scalar`], the only engine.
    pub fn resolve(self, _n: usize) -> FactorKind {
        FactorKind::Scalar
    }
}

/// What the solver actually did: a copyable snapshot for reports
/// (`mems run --json`, serve job metadata) and regressions tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// `"dense"` or `"sparse"`.
    pub backend: &'static str,
    /// `"dense"`, `"scalar"`, or `"none"` before the first successful
    /// factor.
    pub factor_path: &'static str,
    /// Ordering *policy* name: `"amd"`, `"nd"`, `"natural"`, or
    /// `"auto"` (sparse only).
    pub ordering: &'static str,
    /// Where the fill order actually came from:
    /// `"amd"` / `"nd"` / `"natural"` when computed, `"cached"` on a
    /// machine-wide ordering-cache hit, `"none"` before the first
    /// factor.
    pub order_source: &'static str,
    /// Microseconds the last symbolic analysis spent computing the
    /// fill order — 0 on a cache hit, which is how a warm ordering
    /// cache is proven end to end.
    pub order_us: u64,
    /// Matrix order.
    pub n: usize,
    /// Structural nonzeros of the assembled pattern.
    pub pattern_nnz: usize,
    /// Stored factor entries (L + U) of the last factorization.
    pub factor_nnz: usize,
    /// Always 0; kept only because the `perfbench` benchmark reads it.
    pub supernodes: usize,
    /// Always 1; kept only because the `perfbench` benchmark reads it.
    pub threads: usize,
    /// Fresh (symbolic + numeric) factorizations performed.
    pub factors: u64,
    /// Numeric-only refactorizations performed.
    pub refactors: u64,
    /// Times a numeric refactor gave up for a fresh re-pivoting
    /// factor.
    pub fallbacks: u64,
    /// Wall time of the last fresh factorization, microseconds.
    pub last_factor_us: u64,
    /// Wall time of the last refactorization, microseconds.
    pub last_refactor_us: u64,
}

impl Default for SolverStats {
    fn default() -> Self {
        SolverStats {
            backend: "none",
            factor_path: "none",
            ordering: "natural",
            order_source: "none",
            order_us: 0,
            n: 0,
            pattern_nnz: 0,
            factor_nnz: 0,
            supernodes: 0,
            threads: 1,
            factors: 0,
            refactors: 0,
            fallbacks: 0,
            last_factor_us: 0,
            last_refactor_us: 0,
        }
    }
}

impl SolverStats {
    /// Factor fill ratio `factor_nnz / pattern_nnz` (0 when unknown).
    pub fn fill_ratio(&self) -> f64 {
        if self.pattern_nnz == 0 {
            0.0
        } else {
            self.factor_nnz as f64 / self.pattern_nnz as f64
        }
    }
}

/// A square system matrix that devices stamp into and analyses solve
/// through.
///
/// The lifecycle per solve is `clear → add… → factor → solve…`;
/// implementations may cache whatever structure survives between
/// cycles (the sparse backend keeps its sparsity pattern and symbolic
/// factorization).
pub trait SystemMatrix<S: Scalar>: Send {
    /// Matrix order.
    fn n(&self) -> usize;

    /// Zeroes all values, keeping cached structure.
    fn clear(&mut self);

    /// Accumulates `v` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, v: S);

    /// `true` when every stored value is finite.
    fn all_finite(&self) -> bool;

    /// Factorizes the current values.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Singular`] for singular systems.
    fn factor(&mut self) -> Result<()>;

    /// Solves `A·x = b` against the last [`factor`](Self::factor).
    ///
    /// # Errors
    ///
    /// Dimension mismatches, or calling before a successful factor.
    fn solve(&self, b: &[S]) -> Result<Vec<S>>;

    /// Which concrete backend this is, for reports and tests.
    fn backend(&self) -> MatrixBackend;

    /// Value at `(row, col)` — diagnostic/test accessor, zero when
    /// unstamped.
    fn get(&self, row: usize, col: usize) -> S;

    /// Snapshot of solver counters and last timings; backends that
    /// don't track them return the empty default.
    fn solver_stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

/// Builds a system matrix of order `n` for the (resolved) backend,
/// with the sparse fill-reducing `ordering` (ignored by the dense
/// backend).
pub fn new_system<S: Scalar + Send + Sync + 'static>(
    n: usize,
    backend: MatrixBackend,
    ordering: FillOrdering,
) -> Box<dyn SystemMatrix<S>> {
    match backend.resolve(n) {
        MatrixBackend::Sparse => Box::new(SparseSystem::with_ordering(n, ordering)),
        _ => Box::new(DenseSystem::new(n)),
    }
}

/// [`new_system`] for the `perfbench` benchmark, which is the only
/// reason it exists; `_factor` and `_factor_threads` are ignored.
pub fn new_system_solver<S: Scalar + Send + Sync + 'static>(
    n: usize,
    backend: MatrixBackend,
    ordering: FillOrdering,
    _factor: FactorKind,
    _factor_threads: usize,
) -> Box<dyn SystemMatrix<S>> {
    new_system(n, backend, ordering)
}

/// Dense backend: [`DenseMatrix`] + full pivoted LU per factor.
pub struct DenseSystem<S: Scalar> {
    m: DenseMatrix<S>,
    lu: Option<LuFactors<S>>,
    factors: u64,
    last_factor_us: u64,
}

impl<S: Scalar> DenseSystem<S> {
    /// Zero-filled dense system of order `n`.
    pub fn new(n: usize) -> Self {
        DenseSystem {
            m: DenseMatrix::zeros(n, n),
            lu: None,
            factors: 0,
            last_factor_us: 0,
        }
    }
}

impl<S: Scalar + Send + 'static> SystemMatrix<S> for DenseSystem<S> {
    fn n(&self) -> usize {
        self.m.rows()
    }

    fn clear(&mut self) {
        self.m.fill_zero();
        self.lu = None;
    }

    fn add(&mut self, row: usize, col: usize, v: S) {
        self.m.add_at(row, col, v);
    }

    fn all_finite(&self) -> bool {
        self.m.all_finite()
    }

    fn factor(&mut self) -> Result<()> {
        let t0 = Instant::now();
        self.lu = Some(LuFactors::factor(&self.m)?);
        self.factors += 1;
        self.last_factor_us = t0.elapsed().as_micros() as u64;
        Ok(())
    }

    fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        match &self.lu {
            Some(lu) => lu.solve(b),
            None => Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            )),
        }
    }

    fn backend(&self) -> MatrixBackend {
        MatrixBackend::Dense
    }

    fn get(&self, row: usize, col: usize) -> S {
        self.m[(row, col)]
    }

    fn solver_stats(&self) -> SolverStats {
        let n = self.m.rows();
        SolverStats {
            backend: "dense",
            factor_path: if self.lu.is_some() { "dense" } else { "none" },
            n,
            pattern_nnz: n * n,
            factor_nnz: if self.lu.is_some() { n * n } else { 0 },
            factors: self.factors,
            last_factor_us: self.last_factor_us,
            ..SolverStats::default()
        }
    }
}

/// Sparse backend: growable stamp pattern + split symbolic/numeric LU.
pub struct SparseSystem<S: Scalar> {
    n: usize,
    /// `(row << 32 | col)` → slot in [`vals`](Self::vals).
    slots: HashMap<u64, usize>,
    /// Slot → coordinate, in insertion order.
    coords: Vec<(u32, u32)>,
    /// Assembled values, by slot.
    vals: Vec<S>,
    /// CSC image of the pattern (rebuilt when the pattern grows).
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    csc_vals: Vec<S>,
    /// Slot → position in the CSC value array.
    slot_to_pos: Vec<usize>,
    pattern_dirty: bool,
    lu: Option<SparseLu<S>>,
    factored: bool,
    /// Fill-reducing ordering policy for this system.
    ordering: FillOrdering,
    /// Column elimination order of the current pattern, computed when
    /// the pattern is rebuilt (`None` under a natural resolution).
    /// Shared with the machine-wide ordering cache.
    col_order: Option<Arc<Vec<usize>>>,
    stat_factors: u64,
    stat_refactors: u64,
    stat_fallbacks: u64,
    stat_last_factor_us: u64,
    stat_last_refactor_us: u64,
    /// Ordering cost/source of the last analysis.
    stat_order_us: u64,
    stat_order_source: &'static str,
}

impl<S: Scalar> SparseSystem<S> {
    /// Empty sparse system of order `n` (pattern grows with stamps)
    /// with the default fill-reducing ordering.
    pub fn new(n: usize) -> Self {
        Self::with_ordering(n, FillOrdering::default())
    }

    /// [`new`](Self::new) with an explicit ordering policy.
    pub fn with_ordering(n: usize, ordering: FillOrdering) -> Self {
        SparseSystem {
            n,
            slots: HashMap::new(),
            coords: Vec::new(),
            vals: Vec::new(),
            col_ptr: Vec::new(),
            row_idx: Vec::new(),
            csc_vals: Vec::new(),
            slot_to_pos: Vec::new(),
            pattern_dirty: true,
            lu: None,
            factored: false,
            ordering,
            col_order: None,
            stat_factors: 0,
            stat_refactors: 0,
            stat_fallbacks: 0,
            stat_last_factor_us: 0,
            stat_last_refactor_us: 0,
            stat_order_us: 0,
            stat_order_source: "none",
        }
    }

    /// Structural nonzero count of the current pattern.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The ordering policy this system eliminates with.
    pub fn ordering(&self) -> FillOrdering {
        self.ordering
    }

    /// Nonzeros `(nnz(L), nnz(U))` of the last factorization, `None`
    /// before the first successful factor — the fill diagnostic the
    /// ordering benches report.
    pub fn factor_nnz(&self) -> Option<(usize, usize)> {
        self.lu.as_ref().map(SparseLu::nnz)
    }

    /// `true` when the next factor can replay the recorded symbolic
    /// factorization (pattern stable and analyzed).
    pub fn has_symbolic(&self) -> bool {
        !self.pattern_dirty && self.lu.is_some()
    }

    fn rebuild_csc(&mut self) {
        // Sort slots by (col, row) to build the CSC image, remembering
        // where each slot landed.
        let mut order: Vec<usize> = (0..self.coords.len()).collect();
        order.sort_unstable_by_key(|&s| (self.coords[s].1, self.coords[s].0));
        self.col_ptr = vec![0; self.n + 1];
        self.row_idx = Vec::with_capacity(order.len());
        self.csc_vals = vec![S::zero(); order.len()];
        self.slot_to_pos = vec![0; order.len()];
        for (pos, &slot) in order.iter().enumerate() {
            let (r, c) = self.coords[slot];
            self.col_ptr[c as usize + 1] += 1;
            self.row_idx.push(r as usize);
            self.slot_to_pos[slot] = pos;
        }
        for c in 0..self.n {
            self.col_ptr[c + 1] += self.col_ptr[c];
        }
        self.pattern_dirty = false;
        self.lu = None;
        self.order_columns();
    }

    /// Symbolic-time ordering: computed once per (stable) pattern
    /// through the machine-wide ordering cache and reused by every
    /// subsequent factor/refactor.
    fn order_columns(&mut self) {
        let resolved = self.ordering.resolve(self.n);
        self.col_order = match resolved {
            FillOrdering::Amd | FillOrdering::Nd if self.n > 1 => {
                let lookup = order_cached(resolved, self.n, &self.col_ptr, &self.row_idx);
                self.stat_order_us = lookup.order_us;
                self.stat_order_source = if lookup.hit {
                    "cached"
                } else {
                    resolved.name()
                };
                Some(lookup.perm)
            }
            _ => {
                self.stat_order_us = 0;
                self.stat_order_source = "natural";
                None
            }
        };
    }
}

impl<S: Scalar + Send + Sync + 'static> SystemMatrix<S> for SparseSystem<S> {
    fn n(&self) -> usize {
        self.n
    }

    fn clear(&mut self) {
        self.vals.iter_mut().for_each(|v| *v = S::zero());
        self.factored = false;
    }

    fn add(&mut self, row: usize, col: usize, v: S) {
        debug_assert!(row < self.n && col < self.n, "stamp out of bounds");
        let key = ((row as u64) << 32) | col as u64;
        match self.slots.get(&key) {
            Some(&slot) => self.vals[slot] += v,
            None => {
                let slot = self.vals.len();
                self.slots.insert(key, slot);
                self.coords.push((row as u32, col as u32));
                self.vals.push(v);
                // A new structural entry invalidates the symbolic
                // analysis; the pattern only ever grows, so devices
                // whose Jacobian entries come and go (HDL models with
                // locally-zero derivatives) converge on a stable
                // superset after the first few assemblies.
                self.pattern_dirty = true;
            }
        }
    }

    fn all_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite_scalar())
    }

    fn factor(&mut self) -> Result<()> {
        self.factored = false;
        if self.pattern_dirty {
            self.rebuild_csc();
        }
        for (slot, &pos) in self.slot_to_pos.iter().enumerate() {
            self.csc_vals[pos] = self.vals[slot];
        }
        let view = CscView {
            n: self.n,
            col_ptr: &self.col_ptr,
            row_idx: &self.row_idx,
            values: &self.csc_vals,
        };
        let t0 = Instant::now();
        let order = self.col_order.as_deref().map(Vec::as_slice);
        let fresh = |view: &CscView<'_, S>| match order {
            Some(q) => SparseLu::factor_ordered(view, q),
            None => SparseLu::factor(view),
        };
        let mut replayed = true;
        match &mut self.lu {
            Some(lu) => {
                // Numeric-only replay; a dead pivot means the values
                // moved too far from the analyzed ones — fall back to
                // a full re-pivoting factorization (under the same
                // column order: the fallback re-picks rows only).
                if lu.refactor(&view).is_err() {
                    self.lu = Some(fresh(&view)?);
                    self.stat_fallbacks += 1;
                    replayed = false;
                }
            }
            None => {
                self.lu = Some(fresh(&view)?);
                replayed = false;
            }
        }
        let us = t0.elapsed().as_micros() as u64;
        if replayed {
            self.stat_refactors += 1;
            self.stat_last_refactor_us = us;
        } else {
            self.stat_factors += 1;
            self.stat_last_factor_us = us;
        }
        self.factored = true;
        Ok(())
    }

    fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        if !self.factored {
            return Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            ));
        }
        match &self.lu {
            Some(lu) => lu.solve(b),
            None => Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            )),
        }
    }

    fn backend(&self) -> MatrixBackend {
        MatrixBackend::Sparse
    }

    fn get(&self, row: usize, col: usize) -> S {
        let key = ((row as u64) << 32) | col as u64;
        self.slots
            .get(&key)
            .map_or_else(S::zero, |&slot| self.vals[slot])
    }

    fn solver_stats(&self) -> SolverStats {
        let (factor_path, factor_nnz, order_source, order_us) = match &self.lu {
            Some(lu) => {
                let (l, u) = lu.nnz();
                ("scalar", l + u, self.stat_order_source, self.stat_order_us)
            }
            None => ("none", 0, "none", 0),
        };
        SolverStats {
            backend: "sparse",
            factor_path,
            ordering: self.ordering.name(),
            order_source,
            order_us,
            n: self.n,
            pattern_nnz: self.vals.len(),
            factor_nnz,
            factors: self.stat_factors,
            refactors: self.stat_refactors,
            fallbacks: self.stat_fallbacks,
            last_factor_us: self.stat_last_factor_us,
            last_refactor_us: self.stat_last_refactor_us,
            ..SolverStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp_all<S: Scalar + 'static>(
        sys: &mut dyn SystemMatrix<S>,
        entries: &[(usize, usize, S)],
    ) {
        for &(r, c, v) in entries {
            sys.add(r, c, v);
        }
    }

    #[test]
    fn dense_and_sparse_agree_on_a_small_solve() {
        let entries = [
            (0usize, 0usize, 2.0),
            (0, 1, 1.0),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, 0.5),
            (2, 2, 1.5),
        ];
        let b = [1.0, -2.0, 3.0];
        let mut dense = DenseSystem::<f64>::new(3);
        let mut sparse = SparseSystem::<f64>::new(3);
        stamp_all(&mut dense, &entries);
        stamp_all(&mut sparse, &entries);
        dense.factor().unwrap();
        sparse.factor().unwrap();
        let xd = dense.solve(&b).unwrap();
        let xs = sparse.solve(&b).unwrap();
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-13, "{xd:?} vs {xs:?}");
        }
        assert_eq!(dense.get(0, 1), 1.0);
        assert_eq!(sparse.get(0, 1), 1.0);
        assert_eq!(sparse.get(2, 0), 0.0);
    }

    #[test]
    fn sparse_reuses_symbolic_across_value_changes() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 2.0);
        sys.add(1, 1, 4.0);
        sys.add(0, 1, 1.0);
        sys.factor().unwrap();
        assert!(sys.has_symbolic());
        sys.clear();
        sys.add(0, 0, 3.0);
        sys.add(1, 1, 5.0);
        sys.add(0, 1, 1.0);
        assert!(sys.has_symbolic(), "clear must keep the pattern");
        sys.factor().unwrap();
        let x = sys.solve(&[7.0, 10.0]).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[0] - (7.0 - 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_growth_invalidates_symbolic() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.factor().unwrap();
        sys.clear();
        sys.add(0, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.add(1, 0, 0.5); // new structural entry
        assert!(!sys.has_symbolic());
        sys.factor().unwrap();
        let x = sys.solve(&[1.0, 1.5]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert_eq!(sys.nnz(), 3);
    }

    #[test]
    fn singular_sparse_system_errors() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 2.0);
        sys.add(1, 0, 2.0);
        sys.add(1, 1, 4.0);
        assert!(matches!(sys.factor(), Err(NumericsError::Singular { .. })));
        assert!(sys.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn refactor_falls_back_to_full_factor_on_dead_pivot() {
        let mut sys = SparseSystem::<f64>::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 3.0);
        sys.factor().unwrap();
        // New values make the replayed (0,0) pivot exactly zero; the
        // fallback full factorization must re-pivot and still solve.
        sys.clear();
        sys.add(0, 0, 0.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 3.0);
        sys.factor().unwrap();
        let x = sys.solve(&[2.0, 5.0]).unwrap();
        assert!((x[0] + 1.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn ordering_reduces_fill_and_agrees_with_natural() {
        // Arrow pattern: natural elimination fills the whole matrix,
        // AMD keeps it sparse. Same solution either way.
        let n = 24;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0 + i as f64 * 0.1));
            if i > 0 {
                entries.push((0, i, 0.5));
                entries.push((i, 0, 0.25));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut amd = SparseSystem::<f64>::with_ordering(n, FillOrdering::Amd);
        let mut nat = SparseSystem::<f64>::with_ordering(n, FillOrdering::Natural);
        stamp_all(&mut amd, &entries);
        stamp_all(&mut nat, &entries);
        amd.factor().unwrap();
        nat.factor().unwrap();
        let (l_amd, _) = amd.factor_nnz().unwrap();
        let (l_nat, _) = nat.factor_nnz().unwrap();
        assert!(l_amd < l_nat, "AMD fill {l_amd} vs natural {l_nat}");
        let xa = amd.solve(&b).unwrap();
        let xn = nat.solve(&b).unwrap();
        for (a, n) in xa.iter().zip(&xn) {
            assert!((a - n).abs() < 1e-11, "{xa:?} vs {xn:?}");
        }
        // Symbolic (and the ordering) survive a value-only refactor.
        amd.clear();
        stamp_all(&mut amd, &entries);
        assert!(amd.has_symbolic());
        amd.factor().unwrap();
        let xa2 = amd.solve(&b).unwrap();
        assert_eq!(xa, xa2);
    }

    #[test]
    fn ordered_dead_pivot_falls_back_to_full_refactor() {
        let mut sys = SparseSystem::<f64>::with_ordering(3, FillOrdering::Amd);
        let entries = [
            (0usize, 0usize, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (2, 2, 1.0),
        ];
        stamp_all(&mut sys, &entries);
        sys.factor().unwrap();
        // Kill the replayed pivot; the fallback re-pivots rows under
        // the same column order and must still solve.
        sys.clear();
        sys.add(0, 0, 0.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 3.0);
        sys.add(2, 2, 1.0);
        sys.factor().unwrap();
        let x = sys.solve(&[2.0, 5.0, 1.0]).unwrap();
        assert!((x[0] + 1.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-12, "{x:?}");
        assert!((x[2] - 1.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn auto_backend_resolves_by_size() {
        assert_eq!(MatrixBackend::Auto.resolve(10), MatrixBackend::Dense);
        assert_eq!(
            MatrixBackend::Auto.resolve(AUTO_SPARSE_THRESHOLD),
            MatrixBackend::Sparse
        );
        assert_eq!(MatrixBackend::Dense.resolve(1000), MatrixBackend::Dense);
        assert_eq!(MatrixBackend::Sparse.resolve(2), MatrixBackend::Sparse);
        let sys = new_system::<f64>(100, MatrixBackend::Auto, FillOrdering::default());
        assert_eq!(sys.backend(), MatrixBackend::Sparse);
        let sys = new_system::<f64>(10, MatrixBackend::Auto, FillOrdering::default());
        assert_eq!(sys.backend(), MatrixBackend::Dense);
    }
}
