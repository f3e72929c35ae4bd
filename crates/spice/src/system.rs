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
//!   [`factor`](SystemMatrix::factor), in place into factor storage
//!   allocated once — the right default for the paper-scale circuits
//!   of a few dozen unknowns.
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
//! **Stamp replay.** Assembly stamps in the same order every Newton
//! iteration, so the sparse backend records the slot each
//! [`add`](SystemMatrix::add) resolved to on a tape, and
//! [`clear`](SystemMatrix::clear) rewinds it. A later `add` costs one
//! coordinate compare against the taped slot — the binding SPICE3
//! makes once per device at setup, learned here instead of declared.
//! A stamp that does not match (a device whose Jacobian entries come
//! and go) is looked up by binary search in its column of the
//! pattern's CSC, and the tape is re-recorded from that point. A
//! coordinate the CSC lacks gets a provisional slot of its own, one
//! per stamp; the next pattern rebuild sorts the slots into CSC order
//! and merges the provisional slots of one coordinate in slot order,
//! which is stamp order. Every value is therefore the sum of its
//! terms in the order they were stamped, so neither replay nor a
//! pattern rebuild changes a sum, and no map from coordinates to
//! slots is kept beside the CSC. With the in-place factorizations and
//! [`SystemMatrix::solve_into`], a steady-state Newton iteration does
//! no lookup and no heap allocation on either backend.
//! [`SolverStats::stamps`] and [`SolverStats::stamp_misses`] report
//! how much of the assembly the tape served, and
//! [`SolverStats::bytes`] what the system keeps.
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

/// Whether `sys` serves `n` unknowns under `backend` and `ordering` as
/// it is: same order, same resolved backend, and the same ordering
/// policy unless the backend is dense, which has none.
/// [`Workspace::ensure`](crate::solver::Workspace::ensure) and a deck
/// run's shared `.AC` system keep their cached structure (pattern,
/// ordering, symbolic factor) by this one rule.
pub fn reusable<S: Scalar>(
    sys: &dyn SystemMatrix<S>,
    n: usize,
    backend: MatrixBackend,
    ordering: FillOrdering,
) -> bool {
    sys.n() == n
        && sys.backend() == backend.resolve(n)
        && sys.ordering().is_none_or(|o| o == ordering)
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
    /// Wall time of a fresh factorization, microseconds: the last one
    /// on the sparse backend, and on the dense backend the first, the
    /// cold factor that allocates its factor storage. Later dense
    /// factors are counted in [`factors`](Self::factors) but not
    /// timed.
    pub last_factor_us: u64,
    /// Wall time of the last refactorization, microseconds (sparse
    /// only).
    pub last_refactor_us: u64,
    /// Stamps ([`SystemMatrix::add`] calls) since the system was
    /// created (0 on the dense backend).
    pub stamps: u64,
    /// Stamps the replay tape could not serve, which were looked up
    /// in the pattern instead (0 on the dense backend).
    pub stamp_misses: u64,
    /// Heap bytes the system keeps for its values, pattern, tape and
    /// factors, counted by capacity: a level, not a counter. The fill
    /// order, shared with the machine-wide ordering cache, is not
    /// counted.
    pub bytes: usize,
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
            stamps: 0,
            stamp_misses: 0,
            bytes: 0,
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
/// The lifecycle per solve is `clear → add… → factor → solve_into…`;
/// implementations may cache whatever structure survives between
/// cycles. The sparse backend keeps its sparsity pattern, symbolic
/// factorization and stamp tape, so a cycle that stamps the
/// coordinates of the previous one in the same order replays their
/// slots; the dense backend keeps its factor storage. Once both are
/// warm, a cycle through [`solve_into`](Self::solve_into) allocates
/// nothing.
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

    /// Solves `A·x = b` against the last [`factor`](Self::factor),
    /// writing the solution into `x`.
    ///
    /// # Errors
    ///
    /// Dimension mismatches, or calling before a successful factor.
    fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<()>;

    /// [`solve_into`](Self::solve_into) a new vector.
    ///
    /// # Errors
    ///
    /// As [`solve_into`](Self::solve_into).
    fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        let mut x = vec![S::zero(); self.n()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Which concrete backend this is, for reports and tests.
    fn backend(&self) -> MatrixBackend;

    /// The fill-reducing ordering policy the system was built with;
    /// `None` on the dense backend, which has none.
    fn ordering(&self) -> Option<FillOrdering> {
        None
    }

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
    /// Factor storage, allocated by the first factor and refactored in
    /// place by every later one.
    lu: Option<LuFactors<S>>,
    /// `lu` holds the factors of the current values.
    factored: bool,
    factors: u64,
    /// Wall time of the cold factor that allocated `lu`.
    cold_factor_us: u64,
}

impl<S: Scalar> DenseSystem<S> {
    /// Zero-filled dense system of order `n`.
    pub fn new(n: usize) -> Self {
        DenseSystem {
            m: DenseMatrix::zeros(n, n),
            lu: None,
            factored: false,
            factors: 0,
            cold_factor_us: 0,
        }
    }
}

impl<S: Scalar + Send + 'static> SystemMatrix<S> for DenseSystem<S> {
    fn n(&self) -> usize {
        self.m.rows()
    }

    fn clear(&mut self) {
        self.m.fill_zero();
        self.factored = false;
    }

    fn add(&mut self, row: usize, col: usize, v: S) {
        self.m.add_at(row, col, v);
    }

    fn all_finite(&self) -> bool {
        self.m.all_finite()
    }

    fn factor(&mut self) -> Result<()> {
        self.factored = false;
        match &mut self.lu {
            // Counted, not timed: a paper-scale warm factor takes less
            // than the clock reads that would time it.
            Some(lu) => lu.factor_in_place(&self.m)?,
            None => {
                let t0 = Instant::now();
                self.lu = Some(LuFactors::factor(&self.m)?);
                self.cold_factor_us = t0.elapsed().as_micros() as u64;
            }
        }
        self.factored = true;
        self.factors += 1;
        Ok(())
    }

    fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<()> {
        match &self.lu {
            Some(lu) if self.factored => lu.solve_into(b, x),
            _ => Err(NumericsError::InvalidInput(
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
            factor_path: if self.factored { "dense" } else { "none" },
            n,
            pattern_nnz: n * n,
            factor_nnz: if self.factored { n * n } else { 0 },
            factors: self.factors,
            last_factor_us: self.cold_factor_us,
            bytes: self.m.bytes() + self.lu.as_ref().map_or(0, LuFactors::bytes),
            ..SolverStats::default()
        }
    }
}

/// Sparse backend: growable stamp pattern + split symbolic/numeric LU.
pub struct SparseSystem<S: Scalar> {
    n: usize,
    /// Slot → coordinate `(row, col)`. The first
    /// [`row_idx`](Self::row_idx)`.len()` slots are the CSC of the
    /// last pattern rebuild, by column and then row. The rest are
    /// provisional: every stamp of a coordinate that CSC lacks appends
    /// one, so a coordinate may own several until the next rebuild
    /// merges them.
    coords: Vec<(u32, u32)>,
    /// Assembled values, by slot: the factorization's CSC values
    /// whenever the pattern is clean.
    vals: Vec<S>,
    /// Slot of each stamp since [`clear`](SystemMatrix::clear), as
    /// recorded by the last assembly that got this far.
    tape: Vec<u32>,
    /// Stamps since `clear`: the next stamp replays `tape[cursor]`.
    cursor: usize,
    /// Stamps before the last `clear`.
    stat_stamps: u64,
    stat_stamp_misses: u64,
    /// CSC structure of the pattern (rebuilt when the pattern grows);
    /// rows ascend within each column, so a tape miss finds its slot
    /// by binary search.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
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
            coords: Vec::new(),
            vals: Vec::new(),
            tape: Vec::new(),
            cursor: 0,
            stat_stamps: 0,
            stat_stamp_misses: 0,
            col_ptr: Vec::new(),
            row_idx: Vec::new(),
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
        let csc = self.row_idx.len();
        csc + self.merged(csc, |_, _| {}).0.len()
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

    /// The slot of `(row, col)` in the CSC of the last pattern
    /// rebuild, if it has one.
    fn csc_slot(&self, row: usize, col: usize) -> Option<usize> {
        let (lo, hi) = (*self.col_ptr.get(col)?, self.col_ptr[col + 1]);
        let pos = self.row_idx[lo..hi].binary_search(&row).ok()?;
        Some(lo + pos)
    }

    /// Heap bytes kept for values, pattern, tape and factors.
    fn bytes(&self) -> usize {
        self.coords.capacity() * size_of::<(u32, u32)>()
            + self.vals.capacity() * size_of::<S>()
            + self.tape.capacity() * size_of::<u32>()
            + (self.col_ptr.capacity() + self.row_idx.capacity()) * size_of::<usize>()
            + self.lu.as_ref().map_or(0, SparseLu::bytes)
    }

    /// The tape's miss path: resolves the stamp in the CSC, or gives
    /// it a provisional slot, and re-records the tape from here on.
    #[cold]
    fn add_untaped(&mut self, row: usize, col: usize, v: S) {
        let slot = match self.csc_slot(row, col) {
            Some(slot) => {
                self.vals[slot] += v;
                slot
            }
            None => {
                let slot = self.vals.len();
                self.coords.push((row as u32, col as u32));
                self.vals.push(v);
                // A new structural entry invalidates the symbolic
                // analysis; the pattern only ever grows, so devices
                // whose Jacobian entries come and go (HDL models with
                // locally-zero derivatives) converge on a stable
                // superset after the first few assemblies.
                self.pattern_dirty = true;
                slot
            }
        };
        self.stat_stamp_misses += 1;
        self.tape.truncate(self.cursor);
        self.tape
            .push(u32::try_from(slot).expect("fewer than 2^32 stamp slots"));
        self.cursor += 1;
    }

    /// The slots `from..` merged into one entry per coordinate, in CSC
    /// order: each coordinate's value is the sum of its slots' values
    /// in slot order. `each(slot, entry)` hears where every slot went.
    ///
    /// Merging in slot order sums in stamp order: the slots a pass
    /// creates come in stamp order, and a tape lists a coordinate's
    /// provisional slots in the order their stamps came, so each
    /// merged value is what one accumulating slot would hold.
    fn merged(&self, from: usize, mut each: impl FnMut(usize, usize)) -> (Vec<(u32, u32)>, Vec<S>) {
        let end = u32::try_from(self.coords.len()).expect("fewer than 2^32 stamp slots");
        let mut order: Vec<u32> = (from as u32..end).collect();
        order.sort_unstable_by_key(|&s| {
            let (r, c) = self.coords[s as usize];
            (c, r, s)
        });
        let mut coords: Vec<(u32, u32)> = Vec::with_capacity(order.len());
        let mut vals: Vec<S> = Vec::with_capacity(order.len());
        for slot in order.into_iter().map(|s| s as usize) {
            let (coord, v) = (self.coords[slot], self.vals[slot]);
            match (coords.last(), vals.last_mut()) {
                (Some(&last), Some(sum)) if last == coord => *sum += v,
                _ => {
                    coords.push(coord);
                    vals.push(v);
                }
            }
            each(slot, coords.len() - 1);
        }
        coords.shrink_to_fit();
        vals.shrink_to_fit();
        (coords, vals)
    }

    /// Sorts and merges every slot (see [`merged`](Self::merged)), so
    /// that [`vals`](Self::vals) is the factorization's input as it
    /// stands, and rebuilds the column structure.
    fn rebuild_csc(&mut self) {
        let mut renumber = vec![0u32; self.coords.len()];
        (self.coords, self.vals) = self.merged(0, |slot, entry| renumber[slot] = entry as u32);
        for slot in &mut self.tape {
            *slot = renumber[*slot as usize];
        }
        self.col_ptr.clear();
        self.col_ptr.resize(self.n + 1, 0);
        self.row_idx.clear();
        self.row_idx.reserve_exact(self.coords.len());
        for &(r, c) in &self.coords {
            self.col_ptr[c as usize + 1] += 1;
            self.row_idx.push(r as usize);
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
        self.stat_stamps += self.cursor as u64;
        self.cursor = 0;
        self.factored = false;
    }

    fn add(&mut self, row: usize, col: usize, v: S) {
        debug_assert!(row < self.n && col < self.n, "stamp out of bounds");
        if let Some(&slot) = self.tape.get(self.cursor) {
            let slot = slot as usize;
            if self.coords[slot] == (row as u32, col as u32) {
                self.vals[slot] += v;
                self.cursor += 1;
                return;
            }
        }
        self.add_untaped(row, col, v);
    }

    fn all_finite(&self) -> bool {
        // Two finite provisional slots can merge into an overflow, so
        // they are checked as the sums the next rebuild forms.
        let csc = self.row_idx.len();
        self.vals[..csc].iter().all(|v| v.is_finite_scalar())
            && self
                .merged(csc, |_, _| {})
                .1
                .iter()
                .all(|v| v.is_finite_scalar())
    }

    fn factor(&mut self) -> Result<()> {
        self.factored = false;
        if self.pattern_dirty {
            self.rebuild_csc();
        }
        let view = CscView {
            n: self.n,
            col_ptr: &self.col_ptr,
            row_idx: &self.row_idx,
            values: &self.vals,
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

    fn solve_into(&self, b: &[S], x: &mut [S]) -> Result<()> {
        match &self.lu {
            Some(lu) if self.factored => lu.solve_into(b, x),
            _ => Err(NumericsError::InvalidInput(
                "solve called before factor".into(),
            )),
        }
    }

    fn backend(&self) -> MatrixBackend {
        MatrixBackend::Sparse
    }

    fn ordering(&self) -> Option<FillOrdering> {
        Some(self.ordering)
    }

    fn get(&self, row: usize, col: usize) -> S {
        if let Some(slot) = self.csc_slot(row, col) {
            return self.vals[slot];
        }
        let (coords, vals) = self.merged(self.row_idx.len(), |_, _| {});
        let key = (row as u32, col as u32);
        coords
            .iter()
            .position(|&c| c == key)
            .map_or_else(S::zero, |i| vals[i])
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
            pattern_nnz: self.nnz(),
            factor_nnz,
            factors: self.stat_factors,
            refactors: self.stat_refactors,
            fallbacks: self.stat_fallbacks,
            last_factor_us: self.stat_last_factor_us,
            last_refactor_us: self.stat_last_refactor_us,
            stamps: self.stat_stamps + self.cursor as u64,
            stamp_misses: self.stat_stamp_misses,
            bytes: self.bytes(),
            ..SolverStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_numerics::Complex64;
    use proptest::prelude::*;

    fn stamp_all<S: Scalar + 'static>(
        sys: &mut dyn SystemMatrix<S>,
        entries: &[(usize, usize, S)],
    ) {
        for &(r, c, v) in entries {
            sys.add(r, c, v);
        }
    }

    #[test]
    fn reuse_needs_order_backend_and_sparse_ordering() {
        use FillOrdering::{Amd, Nd};
        use MatrixBackend::{Auto, Dense, Sparse};
        let big = AUTO_SPARSE_THRESHOLD;
        let small = new_system::<f64>(10, Auto, Amd);
        assert!(reusable(small.as_ref(), 10, Dense, Nd));
        assert!(!reusable(small.as_ref(), 11, Auto, Amd));
        assert!(!reusable(small.as_ref(), 10, Sparse, Amd));
        let sparse = new_system::<f64>(big, Auto, Amd);
        assert!(reusable(sparse.as_ref(), big, Sparse, Amd));
        assert!(!reusable(sparse.as_ref(), big, Sparse, Nd));
        assert!(!reusable(sparse.as_ref(), big, Dense, Amd));
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

    /// Stamps `base`, then `pass` twice, into one system, checking
    /// after each `pass` that every entry equals, bit for bit, a fresh
    /// system fed the same stamps, and that only the first `pass`
    /// misses the tape.
    fn replay_diverging_pass<S: Scalar + Send + Sync + 'static>(
        base: &[(usize, usize, S)],
        pass: &[(usize, usize, S)],
    ) {
        let n = 4;
        let misses = |sys: &SparseSystem<S>| sys.solver_stats().stamp_misses;
        let mut sys = SparseSystem::<S>::new(n);
        stamp_all(&mut sys, base);
        assert_eq!(
            misses(&sys),
            base.len() as u64,
            "an empty tape serves nothing"
        );
        sys.factor().unwrap();
        sys.clear();
        stamp_all(&mut sys, base);
        assert_eq!(misses(&sys), base.len() as u64, "the same order replays");
        let mut expected_misses = base.len() as u64;
        for round in 0..2 {
            sys.clear();
            stamp_all(&mut sys, pass);
            let mut fresh = SparseSystem::<S>::new(n);
            stamp_all(&mut fresh, pass);
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(
                        format!("{:?}", sys.get(r, c)),
                        format!("{:?}", fresh.get(r, c)),
                        "round {round} ({r}, {c})"
                    );
                }
            }
            let now = misses(&sys);
            if round == 0 {
                assert!(now > expected_misses, "the diverging pass must miss");
                expected_misses = now;
            } else {
                assert_eq!(now, expected_misses, "repeating the new order replays");
            }
            sys.factor().unwrap();
        }
        let stamps = (2 * base.len() + 2 * pass.len()) as u64;
        assert_eq!(sys.solver_stats().stamps, stamps);
    }

    /// A stamp sequence with repeated coordinates, whose sums depend
    /// on the order they are formed in.
    fn tape_base() -> Vec<(usize, usize, f64)> {
        vec![
            (0, 0, 0.1),
            (0, 1, -0.25),
            (1, 1, 2.0),
            (0, 0, 0.2),
            (1, 0, 0.1),
            (2, 2, 3.0),
            (0, 0, 0.3),
            (3, 3, 1.0),
            (2, 3, -0.7),
            (3, 2, 0.3),
            (1, 1, 1e-17),
        ]
    }

    #[test]
    fn stamp_tape_survives_every_kind_of_divergence() {
        let base = tape_base();
        let mut reordered = base.clone();
        reordered.reverse();
        let mut extra = base.clone();
        extra.insert(4, (3, 0, 0.9));
        let mut missing = base.clone();
        missing.remove(3);
        for pass in [&reordered, &extra, &missing] {
            replay_diverging_pass(&base, pass);
            // The complex (AC) system replays the same way.
            let lift = |t: &[(usize, usize, f64)]| -> Vec<(usize, usize, Complex64)> {
                t.iter()
                    .map(|&(r, c, v)| (r, c, Complex64::new(v, -0.5 * v)))
                    .collect()
            };
            replay_diverging_pass(&lift(&base), &lift(pass));
        }
    }

    /// Each stamp of a coordinate new to the pattern has its own slot
    /// until the next factor merges them; two finite halves of an
    /// overflowing sum must still read as non-finite, as the one
    /// accumulated entry of a dense matrix does.
    #[test]
    fn provisional_slots_are_checked_as_their_sums() {
        let mut sparse = SparseSystem::<f64>::new(2);
        let mut dense = DenseSystem::<f64>::new(2);
        let passes: [&[(usize, usize, f64)]; 3] = [
            &[(0, 0, 1e308), (1, 1, 1.0), (0, 0, 1e308)],
            &[(0, 0, 1.0), (1, 1, 1.0)],
            &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 1e308), (0, 1, 1e308)],
        ];
        for (i, pass) in passes.into_iter().enumerate() {
            sparse.clear();
            dense.clear();
            stamp_all(&mut sparse, pass);
            stamp_all(&mut dense, pass);
            assert_eq!(sparse.all_finite(), dense.all_finite(), "pass {i}");
            assert_eq!(sparse.all_finite(), i == 1, "pass {i}");
            assert_eq!(sparse.get(0, 1), dense.get(0, 1), "pass {i}");
            if i == 1 {
                sparse.factor().unwrap();
            }
        }
    }

    /// Stamps a full, diagonally dominant `n`×`n` matrix whose
    /// off-diagonal values depend on `round`.
    fn stamp_dense_block(sys: &mut dyn SystemMatrix<f64>, n: usize, round: usize) {
        sys.clear();
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    2.0 * n as f64
                } else {
                    1.0 / (1 + i.abs_diff(j) + round) as f64
                };
                sys.add(i, j, v);
            }
        }
    }

    #[test]
    fn dense_times_only_its_cold_factor() {
        let n = 120;
        let mut sys = DenseSystem::<f64>::new(n);
        let mut cold_us = None;
        for round in 0..21 {
            stamp_dense_block(&mut sys, n, round);
            sys.factor().unwrap();
            let st = sys.solver_stats();
            assert_eq!(st.factors, round as u64 + 1);
            let cold_us = *cold_us.get_or_insert(st.last_factor_us);
            assert!(cold_us > 0, "the cold factor is timed: {st:?}");
            assert_eq!(
                st.last_factor_us, cold_us,
                "warm factor {round} is counted, not timed"
            );
        }
    }

    #[test]
    fn sparse_times_every_refactor() {
        let n = 120;
        let mut sys = SparseSystem::<f64>::new(n);
        stamp_dense_block(&mut sys, n, 0);
        sys.factor().unwrap();
        let cold = sys.solver_stats();
        assert_eq!((cold.factors, cold.refactors), (1, 0));
        assert!(cold.last_factor_us > 0, "{cold:?}");
        assert_eq!(cold.last_refactor_us, 0, "{cold:?}");
        for round in 1..4 {
            stamp_dense_block(&mut sys, n, round);
            sys.factor().unwrap();
            let st = sys.solver_stats();
            assert_eq!((st.factors, st.refactors), (1, round as u64), "{st:?}");
            assert!(st.last_refactor_us > 0, "refactor {round} is timed: {st:?}");
        }
    }

    #[test]
    fn dense_systems_report_no_stamps() {
        let mut sys = DenseSystem::<f64>::new(4);
        stamp_all(&mut sys, &tape_base());
        let st = sys.solver_stats();
        assert_eq!((st.stamps, st.stamp_misses), (0, 0));
    }

    /// Feeds a sparse and a dense system the same sequence of passes,
    /// each derived from the last by one edit — replayed as is, two
    /// stamps swapped, a stamp skipped, a stamp repeated, or a
    /// coordinate (usually new to the pattern) inserted mid-pass — and
    /// factors after about two passes in three, so the others end
    /// without a factor as a failed Newton assembly does. After every
    /// factor each entry must be bit-equal between the two, and the
    /// sparse system must have missed exactly the stamps a model tape
    /// misses. No value is −0.0, whose first stamp a new sparse slot
    /// keeps while the dense matrix adds it to +0.0.
    fn sparse_matches_dense_over_passes<S: Scalar + Send + Sync + 'static>(
        n: usize,
        draws: &[f64],
        lift: impl Fn(f64, f64) -> S,
        bits: impl Fn(S) -> (u64, u64),
    ) -> std::result::Result<(), TestCaseError> {
        let mut draw = draws.iter().copied().cycle();
        let mut unit = move || draw.next().expect("cycled");
        let pick = |k: usize, u: f64| ((u * k as f64) as usize).min(k - 1);
        // The diagonal, stamped first with a dominant value, keeps
        // both factorizations clear of pivoting trouble.
        let mut pass: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..2 * n {
            let (r, c) = (pick(n, unit()), pick(n, unit()));
            pass.push((r, c));
        }
        let mut sparse = SparseSystem::<S>::new(n);
        let mut dense = DenseSystem::<S>::new(n);
        let (mut tape, mut misses, mut stamps) = (Vec::new(), 0u64, 0u64);
        for round in 0..12 {
            if round > 0 {
                let at = n + pick(pass.len() - n + 1, unit());
                match pick(5, unit()) {
                    0 => {}
                    1 if at < pass.len() => {
                        let other = n + pick(pass.len() - n, unit());
                        pass.swap(at, other);
                    }
                    2 if at < pass.len() => {
                        pass.remove(at);
                    }
                    3 if at < pass.len() => pass.insert(at, pass[at]),
                    _ => {
                        let (r, c) = (pick(n, unit()), pick(n, unit()));
                        pass.insert(at, (r, c));
                    }
                }
            }
            sparse.clear();
            dense.clear();
            for (cursor, &(r, c)) in pass.iter().enumerate() {
                // Mixed magnitudes make every sum depend on its order.
                let scale = [1e-17, 1e-3, 0.1, 1.0][pick(4, unit())];
                let (re, im) = ((2.0 * unit() - 1.0) * scale, (2.0 * unit() - 1.0) * scale);
                let v = if r == c && cursor < n {
                    lift(8.0 * n as f64 + re, im)
                } else {
                    lift(re, im)
                };
                sparse.add(r, c, v);
                dense.add(r, c, v);
                stamps += 1;
                if tape.get(cursor) != Some(&(r, c)) {
                    misses += 1;
                    tape.truncate(cursor);
                    tape.push((r, c));
                }
            }
            let st = sparse.solver_stats();
            prop_assert_eq!((st.stamps, st.stamp_misses), (stamps, misses));
            if round < 11 && pick(3, unit()) == 0 {
                continue;
            }
            sparse.factor().map_err(|e| TestCaseError(format!("{e}")))?;
            dense.factor().map_err(|e| TestCaseError(format!("{e}")))?;
            for r in 0..n {
                for c in 0..n {
                    let (sv, dv) = (bits(sparse.get(r, c)), bits(dense.get(r, c)));
                    prop_assert!(sv == dv, "round {round} ({r}, {c}): {sv:?} vs {dv:?}");
                }
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn sparse_assembly_matches_dense_bit_for_bit(
            n in 2usize..7,
            draws in proptest::collection::vec(0.0f64..1.0, 1024),
        ) {
            sparse_matches_dense_over_passes(n, &draws, |re, _| re, |v: f64| (v.to_bits(), 0))?;
            sparse_matches_dense_over_passes(
                n,
                &draws,
                Complex64::new,
                |v: Complex64| (v.re.to_bits(), v.im.to_bits()),
            )?;
        }
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
