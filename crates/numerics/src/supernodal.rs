//! Supernodal, level-scheduled sparse LU with static pivoting.
//!
//! The scalar [`crate::sparse_lu::SparseLu`] factors column by column
//! with a reachability DFS per column — exact, re-pivoting, and fast
//! up to a few thousand unknowns, but quadratic-ish on meshed MNA
//! systems beyond that. This module is the scale tier above it:
//!
//! - **Symbolic analysis once** ([`crate::etree`]): a value-aware
//!   maximum transversal row-matches the matrix so every diagonal is
//!   structurally *and numerically* viable (MNA saddle matrices have
//!   structurally zero diagonals on source-branch rows, and nonlinear
//!   Jacobian slots can be numerically zero at the first Newton
//!   iterate), AMD reorders the symmetrized pattern, and
//!   elimination-tree postorder + column counts replace the
//!   per-column DFS entirely.
//! - **Supernodes**: contiguous postordered columns with (nearly)
//!   identical below-diagonal structure are grouped into dense panels
//!   (amalgamation bounded by [`MAX_SUPER`]), so the inner loop is a
//!   pair of small dense GEMMs per updater instead of scattered CSC
//!   updates. Panel positions outside a column's exact fill hold
//!   *exact* zeros (every contribution to them has an exactly-zero
//!   factor), so amalgamation affects speed and memory, never values.
//! - **Level scheduling**: supernodes at the same elimination-tree
//!   level are independent; each level is fanned across `std::thread`
//!   workers (budget from [`crate::par`], shared with the batch
//!   engine). Each supernode applies its own updater list in a fixed
//!   order, so results are bitwise identical for every thread count.
//! - **Row equilibration + static pivots with the drift guard**: the
//!   numeric phase factors `D·A` where `D = diag(1/maxⱼ|aᵢⱼ|)` scales
//!   every row to unit infinity-norm (MNA mixes conductances ~1e-3
//!   with spring stiffnesses ~1e2; without equilibration a perfectly
//!   solvable matched diagonal can look 10⁻⁶× smaller than its column
//!   max). Pivots are the matched diagonal of the scaled matrix,
//!   accepted only when `|pivot| ≥ PIVOT_TAU × colmax` of the
//!   remaining panel column — the same threshold
//!   [`crate::sparse_lu::PIVOT_TAU`] the scalar refactor enforces.
//!   [`SupernodalLu::solve`] applies the same scales to `b`, so `x` is
//!   unchanged. A rejected pivot aborts with
//!   [`NumericsError::Singular`] and the caller (e.g. `SparseSystem`)
//!   falls back to the scalar re-pivoting path, so this code can cost
//!   speed but never correctness. Scales are recomputed from the input
//!   values on every (re)factor, serially — results stay bitwise
//!   identical across thread counts.
//!
//! [`SupernodalLu::factor`] runs analysis + numerics;
//! [`SupernodalLu::refactor`] replays the numeric phase on new values
//! with the same pivots, exactly like the scalar split.

use crate::cache::{Lru, LruStats};
use crate::etree::{self, NONE};
use crate::ordering::cache::pattern_fingerprint;
use crate::ordering::{order_cached, FillOrdering};
use crate::par::resolve_factor_threads;
use crate::scalar::Scalar;
use crate::sparse_lu::{CscView, PIVOT_TAU};
use crate::{NumericsError, Result};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// Hard cap on supernode width: bounds dense-panel memory and keeps
/// the in-panel elimination cache-resident.
pub const MAX_SUPER: usize = 32;

/// Relaxed-amalgamation bound: a whole etree subtree with at most
/// this many columns is grouped into one supernode (SuperLU's `relax`
/// parameter). Meshed MNA hangs a 2-column velocity/force-branch leg
/// off the electrical grid per cell edge — without subtree relaxation
/// those legs pin the mean supernode width near 2 and the dense
/// panels buy nothing.
pub const RELAX_SUBTREE: usize = 8;

/// High bit of an assembly-plan entry: destination is the U store.
const UBIT: u64 = 1 << 63;

/// Amalgamation padding budget, as a fraction `PAD_NUM/PAD_DEN` of a
/// candidate supernode's *exact* fill (from
/// [`etree::lu_col_counts`]): a merge is accepted only while the dense
/// panels stay within 10% of the exact factor cells, which is what
/// keeps total supernodal storage at parity with the scalar engine
/// instead of the 1.4–1.5× the old `zest` estimate allowed.
const PAD_NUM: usize = 11;
const PAD_DEN: usize = 10;
/// Small absolute slack on top: lets near-empty leaf columns (MNA
/// velocity/force legs, exact fill of a handful of cells) amalgamate
/// at all. Bounded by `PAD_SLACK × nsuper` in total, which is noise
/// next to the fill of any matrix large enough to route here.
const PAD_SLACK: usize = 2;

/// A level is worth spawning workers for only past this many panels…
const PAR_MIN_ITEMS: usize = 2;
/// …and this many stored panel entries (thread spawn ≈ tens of µs).
const PAR_MIN_WORK: usize = 50_000;

/// Structural data shared by every numeric (re)factorization of one
/// pattern. All labels below are *permuted* (elimination order) unless
/// suffixed otherwise.
struct Symbolic {
    n: usize,
    /// `colperm[k]` = original column eliminated at step `k`.
    colperm: Vec<usize>,
    /// `rowperm[k]` = original row pivoted at step `k`.
    rowperm: Vec<usize>,
    nsuper: usize,
    nlevels: usize,
    /// Supernode `s` spans permuted columns `first_col[s]..first_col[s+1]`.
    first_col: Vec<usize>,
    /// Below-diagonal row structure per supernode (sorted, permuted labels).
    rows_ptr: Vec<usize>,
    rows: Vec<u32>,
    /// Panel offsets into the L / U stores (assigned in (level, s) order
    /// so each level's panels are contiguous).
    l_off: Vec<usize>,
    u_off: Vec<usize>,
    /// Store boundaries per level.
    l_lvl: Vec<usize>,
    u_lvl: Vec<usize>,
    /// Supernode ids grouped by level, ascending within a level.
    level_ptr: Vec<usize>,
    level_items: Vec<u32>,
    /// Per supernode `s`: updaters `(t, p0, p1)` — supernode `t` has
    /// rows `rows[t][p0..p1]` inside `s`'s column range (positions are
    /// relative to `rows[t]`). Ascending in `t`: the fixed application
    /// order that makes results thread-count invariant.
    upd_ptr: Vec<usize>,
    updaters: Vec<(u32, u32, u32)>,
    /// Per input nonzero: destination offset, `UBIT` flags the U store.
    plan: Vec<u64>,
    l_size: usize,
    u_size: usize,
    /// Exact factor entries `(L incl. diagonal, strict U)` from
    /// [`etree::lu_col_counts`] — the padding-free figure the panel
    /// stores are measured against.
    exact_l: usize,
    exact_u: usize,
}

impl Symbolic {
    #[inline]
    fn shape(&self, s: usize) -> (usize, usize, usize, usize) {
        let c0 = self.first_col[s];
        let w = self.first_col[s + 1] - c0;
        let m = self.rows_ptr[s + 1] - self.rows_ptr[s];
        (c0, w, m, w + m)
    }

    /// Approximate heap footprint, for the symbolic-cache budget.
    fn approx_bytes(&self) -> usize {
        8 * (self.colperm.len()
            + self.rowperm.len()
            + self.first_col.len()
            + self.rows_ptr.len()
            + self.l_off.len()
            + self.u_off.len()
            + self.l_lvl.len()
            + self.u_lvl.len()
            + self.level_ptr.len()
            + self.upd_ptr.len()
            + self.plan.len())
            + 4 * (self.rows.len() + self.level_items.len())
            + 12 * self.updaters.len()
    }
}

/// Supernodal LU factorization (see module docs). Generic over
/// [`Scalar`] so transient (f64) and AC (Complex64) systems ride the
/// same kernels.
pub struct SupernodalLu<S: Scalar> {
    /// Shared with the machine-wide symbolic cache — immutable after
    /// analysis; the numeric phase only reads it.
    sym: std::sync::Arc<Symbolic>,
    lstore: Vec<S>,
    ustore: Vec<S>,
    /// Row-equilibration scales, *original* row labels: the factor is
    /// of `D·A` with `D = diag(row_scale)`. Recomputed per (re)factor.
    row_scale: Vec<f64>,
    threads_req: usize,
    threads_used: usize,
    /// Microseconds the analysis spent computing the fill order (0
    /// when the order — or the whole analysis — came from a cache).
    order_us: u64,
    /// `"cached"` / `"amd"` / `"nd"` / `"natural"`.
    order_source: &'static str,
}

/// A level-schedule work item: supernode id plus exclusive mutable
/// views of its L and U panels. The `Mutex` only satisfies `Sync` —
/// the scheduler's atomic counter guarantees exclusive access.
type PanelChunk<'a, S> = Mutex<(usize, &'a mut [S], &'a mut [S])>;

/// Per-worker scratch: the target-row map, a dense GEMM buffer, and
/// the per-updater resolved target indices.
struct Scratch<S> {
    map: Vec<u32>,
    tmp: Vec<S>,
    lidx: Vec<u32>,
}

impl<S: Scalar> Scratch<S> {
    fn new(n: usize) -> Self {
        Scratch {
            map: vec![u32::MAX; n],
            tmp: Vec::new(),
            lidx: Vec::new(),
        }
    }
}

/// Byte budget for the machine-wide symbolic cache. A symbolic
/// analysis is a pure function of (pattern, row matching, resolved
/// ordering), and real workloads — a serve daemon re-running decks,
/// `.STEP`/`.MC` batches, AC after OP — present the same MNA pattern
/// over and over. Caching the whole [`Symbolic`] (not just the
/// permutation) is what puts a known pattern's cold factor near
/// refactor cost: ordering, etree, exact counts, grouping, schedule,
/// and assembly plan are all skipped. Entries larger than half the
/// budget are not cached (a 10⁶-unknown analysis is ~200 MB; pinning
/// two of those would evict everything else for little gain).
const SYM_CACHE_BYTES: usize = 192 << 20;

/// An analysis larger than half the budget weighs more than the whole
/// budget, so the cache hands it back without keeping it.
fn sym_weight(sym: &std::sync::Arc<Symbolic>) -> usize {
    match sym.approx_bytes() {
        bytes if bytes > SYM_CACHE_BYTES / 2 => usize::MAX,
        bytes => bytes,
    }
}

static SYM_CACHE: Lru<std::sync::Arc<Symbolic>> = Lru::new(SYM_CACHE_BYTES, sym_weight);

/// Lifetime counters of the machine-wide symbolic cache.
pub fn symbolic_cache_stats() -> LruStats {
    SYM_CACHE.stats()
}

/// Empties the symbolic cache (counters keep running) — for tests
/// that need a cold start.
pub fn clear_symbolic_cache() {
    SYM_CACHE.clear();
}

fn validate<S: Scalar>(a: &CscView<'_, S>) -> Result<()> {
    if a.col_ptr.len() != a.n + 1
        || a.col_ptr[a.n] != a.row_idx.len()
        || a.row_idx.len() != a.values.len()
    {
        return Err(NumericsError::InvalidInput(
            "inconsistent CSC arrays".into(),
        ));
    }
    for j in 0..a.n {
        if a.col_ptr[j] > a.col_ptr[j + 1] {
            return Err(NumericsError::InvalidInput("col_ptr not monotone".into()));
        }
    }
    if a.row_idx.iter().any(|&i| i >= a.n) {
        return Err(NumericsError::InvalidInput("row index out of range".into()));
    }
    Ok(())
}

/// Value-aware maximum transversal (a light take on MC64): match the
/// diagonal using only entries that would *survive the static pivot
/// guard* — `|a| ≥ PIVOT_TAU × colmax` after the same row
/// equilibration the numeric phase applies. A purely structural
/// matching happily lands on an entry that is structurally present
/// but numerically zero at analysis time (Jacobian slots of nonlinear
/// devices linearized at `x = 0`), which no amount of scaling can
/// rescue. Numerically empty columns keep their full structure; if
/// the filtered pattern has no complete matching the structural one
/// is used as-is (the drift guard still protects correctness).
fn weighted_transversal<S: Scalar>(a: &CscView<'_, S>) -> Option<Vec<usize>> {
    let n = a.n;
    let mut rs = vec![0.0f64; n];
    for (p, v) in a.values.iter().enumerate() {
        let m = v.modulus();
        if m > rs[a.row_idx[p]] {
            rs[a.row_idx[p]] = m;
        }
    }
    for s in rs.iter_mut() {
        *s = if *s > 0.0 && s.is_finite() {
            1.0 / *s
        } else {
            1.0
        };
    }
    let mut fp = Vec::with_capacity(n + 1);
    let mut fi = Vec::with_capacity(a.row_idx.len());
    fp.push(0usize);
    for j in 0..n {
        let (lo, hi) = (a.col_ptr[j], a.col_ptr[j + 1]);
        let mut cmax = 0.0f64;
        for p in lo..hi {
            let m = a.values[p].modulus() * rs[a.row_idx[p]];
            if m > cmax {
                cmax = m;
            }
        }
        if cmax > 0.0 && cmax.is_finite() {
            // Diagonal first: the matcher's cheap-assignment pass takes
            // the first viable row, so a viable diagonal yields the
            // identity matching — which keeps the symmetrized pattern
            // (and with it the supernodal fill) minimal on the
            // structurally symmetric matrices MNA produces.
            for p in lo..hi {
                if a.row_idx[p] == j && a.values[p].modulus() * rs[j] >= PIVOT_TAU * cmax {
                    fi.push(j);
                }
            }
            for p in lo..hi {
                if a.row_idx[p] != j && a.values[p].modulus() * rs[a.row_idx[p]] >= PIVOT_TAU * cmax
                {
                    fi.push(a.row_idx[p]);
                }
            }
        } else {
            fi.extend_from_slice(&a.row_idx[lo..hi]);
        }
        fp.push(fi.len());
    }
    etree::max_transversal(n, &fp, &fi).or_else(|| etree::max_transversal(n, a.col_ptr, a.row_idx))
}

/// One-shot structural analysis: ordering, etree, supernode grouping,
/// level schedule, and the assembly plan for this exact pattern (the
/// row matching is computed by the caller from the values).
/// Returns the analysis plus `(order_us, order_from_cache)` for the
/// caller's stats.
fn analyze(
    n: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
    imatch: Vec<usize>,
    ordering: FillOrdering,
) -> Result<(Symbolic, u64, bool)> {
    let internal = || NumericsError::InvalidInput("supernodal symbolic invariant violated".into());
    let debug = std::env::var_os("MEMS_SNL_DEBUG").is_some();
    let mut t_stage = std::time::Instant::now();
    let mut stage = |label: &str| {
        if debug {
            eprintln!(
                "supernodal analyze: {label} {:.1} ms",
                t_stage.elapsed().as_secs_f64() * 1e3
            );
        }
        t_stage = std::time::Instant::now();
    };
    let mut rinv0 = vec![0usize; n];
    for j in 0..n {
        rinv0[imatch[j]] = j;
    }
    let (sp, si) = etree::symmetrize(n, col_ptr, row_idx, Some(&rinv0));
    // Fill ordering through the machine-wide cache: `Auto` resolves to
    // ND past [`crate::ordering::ND_AUTO_THRESHOLD`], and a pattern
    // seen before skips ordering entirely (`order_us == 0`).
    stage("symmetrize");
    let resolved = ordering.resolve(n);
    let lookup = order_cached(resolved, n, &sp, &si);
    let q: &[usize] = &lookup.perm;
    stage("order");
    let (bp, bi) = etree::permute_sym(n, &sp, &si, q);
    let parent = etree::etree(n, &bp, &bi);
    let post = etree::postorder(&parent);
    let (cp, ci) = etree::permute_sym(n, &bp, &bi, &post);
    let mut postinv = vec![0usize; n];
    for (k, &p) in post.iter().enumerate() {
        postinv[p] = k;
    }
    let mut parent2 = vec![NONE; n];
    for k in 0..n {
        let pj = parent[post[k]];
        if pj != NONE {
            parent2[k] = postinv[pj];
        }
    }
    let counts = etree::col_counts(n, &cp, &ci, &parent2);

    let mut colperm = vec![0usize; n];
    let mut cinv = vec![0usize; n];
    for k in 0..n {
        colperm[k] = q[post[k]];
        cinv[colperm[k]] = k;
    }
    let mut rowperm = vec![0usize; n];
    let mut rinv = vec![0usize; n];
    for k in 0..n {
        rowperm[k] = imatch[colperm[k]];
        rinv[rowperm[k]] = k;
    }

    // Exact unsymmetric LU column counts on the row-matched, permuted
    // pattern ([`etree::lu_col_counts`]). `counts` above is the
    // Cholesky count of the *symmetrized* pattern — an overestimate on
    // unsymmetric inputs and blind to amalgamation padding either way.
    // The exact counts are what the padding test below and the fill
    // stats report are measured against.
    let mut pcp = vec![0usize; n + 1];
    for k in 0..n {
        let j = colperm[k];
        pcp[k + 1] = pcp[k] + (col_ptr[j + 1] - col_ptr[j]);
    }
    let mut pri = vec![0usize; col_ptr[n]];
    for k in 0..n {
        let j = colperm[k];
        for (w, p) in (pcp[k]..).zip(col_ptr[j]..col_ptr[j + 1]) {
            pri[w] = rinv[row_idx[p]];
        }
    }
    stage("etree+counts");
    let (lcnt, ucnt) = etree::lu_col_counts(n, &pcp, &pri);
    stage("lu_col_counts");
    // Prefix sums of exact stored cells per column (L + U, diagonal
    // once), so any column range's exact fill is O(1).
    let mut tpre = vec![0usize; n + 1];
    for j in 0..n {
        tpre[j + 1] = tpre[j] + lcnt[j] + ucnt[j] - 1;
    }

    // Supernode grouping, two rules — both keep every group a
    // contiguous postorder range whose last column is an etree
    // ancestor of all the others, which is what the level schedule
    // relies on (updates only ever flow to sup-tree ancestors):
    //
    // 1. *Relaxed bottom subtrees* (the SuperLU `relax` heuristic): a
    //    maximal etree subtree with at most [`RELAX_SUBTREE`] columns
    //    becomes one supernode. Subtrees are postorder-contiguous, have
    //    no external updaters, and merging sibling branches costs only
    //    exact-zero padding (module docs) — this is what widens panels
    //    on meshed MNA, where each cell's velocity/force legs are tiny
    //    subtrees dangling off the electrical grid.
    // 2. *Chain merges* above them: `parent2[j-1] == j` extends a
    //    group while the padding stays within budget.
    //
    // Both rules share one *exact* padding test. For any candidate
    // range `[a, b)` whose last column is an ancestor of the rest, the
    // union of member structures below row `b-1` is exactly column
    // `b-1`'s symbolic structure (the etree path theorem), so the
    // panel costs `w·(w + 2m)` cells with `m = counts[b-1] - 1` — no
    // union needs materializing to price a merge. That is compared
    // against the exact unsymmetric fill `tpre[b] - tpre[a]`.
    let pad_ok = |a: usize, b: usize| -> bool {
        let w = b - a;
        let m = counts[b - 1] - 1;
        let stored = w * (w + 2 * m);
        let exact = tpre[b] - tpre[a];
        stored * PAD_DEN <= exact * PAD_NUM + PAD_SLACK * PAD_DEN
    };
    let mut subtree = vec![1usize; n];
    for j in 0..n {
        if parent2[j] != NONE {
            subtree[parent2[j]] += subtree[j];
        }
    }
    // start_of[j] = start of the maximal relaxed subtree rooted at j.
    let mut relaxed_start = vec![NONE; n];
    for r in 0..n {
        if subtree[r] <= RELAX_SUBTREE
            && (parent2[r] == NONE || subtree[parent2[r]] > RELAX_SUBTREE)
        {
            relaxed_start[r + 1 - subtree[r]] = r;
        }
    }
    let mut first_col: Vec<usize> = vec![0];
    if n > 0 {
        let mut j = 0usize;
        while j < n {
            // A relaxed subtree merges as one supernode only if its
            // padding clears the budget; otherwise its columns fall
            // through to chain merging (relaxed_start is only set at
            // the subtree's first column, so the chain rule is free to
            // regroup the interior).
            let mut end = if relaxed_start[j] != NONE && pad_ok(j, relaxed_start[j] + 1) {
                relaxed_start[j] + 1
            } else {
                j + 1
            };
            // Chain-extend past single-column steps (a relaxed group
            // only extends through its own root's parent link).
            while end < n
                && parent2[end - 1] == end
                && relaxed_start[end] == NONE
                && end - j < MAX_SUPER
                && pad_ok(j, end + 1)
            {
                end += 1;
            }
            first_col.push(end);
            j = end;
        }
    }
    let nsuper = first_col.len() - 1;

    let mut sup_of = vec![0u32; n];
    for s in 0..nsuper {
        for j in first_col[s]..first_col[s + 1] {
            sup_of[j] = s as u32;
        }
    }
    let mut parent_sup = vec![NONE; nsuper];
    for s in 0..nsuper {
        let p = parent2[first_col[s + 1] - 1];
        if p != NONE {
            parent_sup[s] = sup_of[p] as usize;
        }
    }
    let mut child_head = vec![NONE; nsuper];
    let mut child_next = vec![NONE; nsuper];
    for s in (0..nsuper).rev() {
        if parent_sup[s] != NONE {
            child_next[s] = child_head[parent_sup[s]];
            child_head[parent_sup[s]] = s;
        }
    }

    // Below-diagonal structures, children-before-parents: union of the
    // supernode's own symmetrized-A rows and its children's structures
    // (a superset of the exact fill; the surplus holds exact zeros).
    let mut rows_ptr = vec![0usize; nsuper + 1];
    let mut rows: Vec<u32> = Vec::new();
    let mut stamp = vec![u32::MAX; n];
    let mut buf: Vec<u32> = Vec::new();
    for s in 0..nsuper {
        let (a, b) = (first_col[s], first_col[s + 1]);
        buf.clear();
        for j in a..b {
            for &r in &ci[cp[j]..cp[j + 1]] {
                if r >= b && stamp[r] != s as u32 {
                    stamp[r] = s as u32;
                    buf.push(r as u32);
                }
            }
        }
        let mut c = child_head[s];
        while c != NONE {
            let (lo, hi) = (rows_ptr[c], rows_ptr[c + 1]);
            let from = lo + rows[lo..hi].partition_point(|&r| (r as usize) < b);
            for idx in from..hi {
                let r = rows[idx] as usize;
                if stamp[r] != s as u32 {
                    stamp[r] = s as u32;
                    buf.push(r as u32);
                }
            }
            c = child_next[c];
        }
        buf.sort_unstable();
        rows.extend_from_slice(&buf);
        rows_ptr[s + 1] = rows.len();
    }
    stage("grouping+rows");

    // Level = height above the leaves in the supernode tree; children
    // always precede parents, so one ascending pass settles it.
    let mut level = vec![0usize; nsuper];
    let mut nlevels = 0usize;
    for s in 0..nsuper {
        if parent_sup[s] != NONE {
            let p = parent_sup[s];
            level[p] = level[p].max(level[s] + 1);
        }
        nlevels = nlevels.max(level[s] + 1);
    }
    let mut level_ptr = vec![0usize; nlevels + 1];
    for s in 0..nsuper {
        level_ptr[level[s] + 1] += 1;
    }
    for l in 0..nlevels {
        level_ptr[l + 1] += level_ptr[l];
    }
    let mut level_items = vec![0u32; nsuper];
    let mut cursor = level_ptr.clone();
    for s in 0..nsuper {
        level_items[cursor[level[s]]] = s as u32;
        cursor[level[s]] += 1;
    }

    // Storage offsets in (level, supernode) order: each level's panels
    // are contiguous, which is what lets the scheduler hand disjoint
    // `&mut` chunks to workers without unsafe code.
    let mut l_off = vec![0usize; nsuper];
    let mut u_off = vec![0usize; nsuper];
    let mut l_lvl = vec![0usize; nlevels + 1];
    let mut u_lvl = vec![0usize; nlevels + 1];
    let (mut lacc, mut uacc) = (0usize, 0usize);
    for l in 0..nlevels {
        l_lvl[l] = lacc;
        u_lvl[l] = uacc;
        for &su in &level_items[level_ptr[l]..level_ptr[l + 1]] {
            let s = su as usize;
            let w = first_col[s + 1] - first_col[s];
            let m = rows_ptr[s + 1] - rows_ptr[s];
            l_off[s] = lacc;
            lacc += (w + m) * w;
            u_off[s] = uacc;
            uacc += w * m;
        }
    }
    l_lvl[nlevels] = lacc;
    u_lvl[nlevels] = uacc;

    // Updater lists: supernode t updates s iff t has structure rows in
    // s's column range. rows[t] is sorted, so the runs come out grouped
    // and, iterating t ascending, each list is ascending in t.
    let mut upd_lists: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); nsuper];
    for t in 0..nsuper {
        let (lo, hi) = (rows_ptr[t], rows_ptr[t + 1]);
        let mut p = lo;
        while p < hi {
            let s = sup_of[rows[p] as usize] as usize;
            let send = first_col[s + 1];
            let mut pe = p;
            while pe < hi && (rows[pe] as usize) < send {
                pe += 1;
            }
            upd_lists[s].push((t as u32, (p - lo) as u32, (pe - lo) as u32));
            p = pe;
        }
    }
    let mut upd_ptr = vec![0usize; nsuper + 1];
    let mut updaters: Vec<(u32, u32, u32)> = Vec::new();
    for (s, list) in upd_lists.iter().enumerate() {
        updaters.extend_from_slice(list);
        upd_ptr[s + 1] = updaters.len();
    }

    // Assembly plan: one destination per input nonzero. Every entry is
    // covered because the structures above are supersets of the
    // symmetrized pattern.
    let nnz = col_ptr[n];
    let mut plan = vec![0u64; nnz];
    for j in 0..n {
        let ck = cinv[j];
        for p in col_ptr[j]..col_ptr[j + 1] {
            let rk = rinv[row_idx[p]];
            let s = sup_of[ck] as usize;
            let (a, b) = (first_col[s], first_col[s + 1]);
            plan[p] = if rk >= a {
                // Diagonal block or below: the column's supernode.
                let (w, m) = (b - a, rows_ptr[s + 1] - rows_ptr[s]);
                let li = if rk < b {
                    rk - a
                } else {
                    let rlo = rows_ptr[s];
                    w + rows[rlo..rows_ptr[s + 1]]
                        .binary_search(&(rk as u32))
                        .map_err(|_| internal())?
                };
                (l_off[s] + (ck - a) * (w + m) + li) as u64
            } else {
                // Above the diagonal block: the row's supernode, either
                // inside its diagonal block or in its U panel.
                let t = sup_of[rk] as usize;
                let (ta, tb) = (first_col[t], first_col[t + 1]);
                let (wt, mt) = (tb - ta, rows_ptr[t + 1] - rows_ptr[t]);
                if ck < tb {
                    (l_off[t] + (ck - ta) * (wt + mt) + (rk - ta)) as u64
                } else {
                    let rlo = rows_ptr[t];
                    let x = rows[rlo..rows_ptr[t + 1]]
                        .binary_search(&(ck as u32))
                        .map_err(|_| internal())?;
                    UBIT | (u_off[t] + x * wt + (rk - ta)) as u64
                }
            };
        }
    }

    stage("schedule+plan");
    let sym = Symbolic {
        n,
        colperm,
        rowperm,
        nsuper,
        nlevels,
        first_col,
        rows_ptr,
        rows,
        l_off,
        u_off,
        l_lvl,
        u_lvl,
        level_ptr,
        level_items,
        upd_ptr,
        updaters,
        plan,
        l_size: lacc,
        u_size: uacc,
        exact_l: lcnt.iter().sum(),
        exact_u: ucnt.iter().sum::<usize>() - n,
    };
    Ok((sym, lookup.order_us, lookup.hit))
}

/// Dense in-place LU of one panel (`h×w`, column-major, leading
/// dimension `h`) with static diagonal pivots: unit-lower L below the
/// diagonal (including the below-block rows, already divided), U on
/// and above it. Returns the failing local column on a rejected pivot.
fn panel_getrf<S: Scalar>(lp: &mut [S], h: usize, w: usize) -> std::result::Result<(), usize> {
    for k in 0..w {
        let colbase = k * h;
        let mut cmax = 0.0f64;
        for i in k..h {
            let a = lp[colbase + i].modulus();
            if !(a <= cmax) {
                cmax = a;
            }
        }
        let piv = lp[colbase + k];
        let pm = piv.modulus();
        if !(pm > 0.0) || !pm.is_finite() || !cmax.is_finite() || pm < PIVOT_TAU * cmax {
            return Err(k);
        }
        let inv = S::one() / piv;
        for i in k + 1..h {
            lp[colbase + i] = lp[colbase + i] * inv;
        }
        for j in k + 1..w {
            let (head, tail) = lp.split_at_mut(j * h);
            let ukj = tail[k];
            if ukj != S::zero() {
                let acol = &head[colbase + k + 1..colbase + h];
                let ccol = &mut tail[k + 1..h];
                for (c, &a) in ccol.iter_mut().zip(acol) {
                    *c -= a * ukj;
                }
            }
        }
    }
    Ok(())
}

/// Assembles and factors one supernode: apply every updater's two
/// dense GEMMs, then the in-panel elimination and the U-panel
/// triangular solve. Reads completed panels from `l_done`/`u_done`
/// (global offsets — updaters always live in strictly lower levels).
fn factor_supernode<S: Scalar>(
    sym: &Symbolic,
    s: usize,
    l_done: &[S],
    u_done: &[S],
    lp: &mut [S],
    up: &mut [S],
    scratch: &mut Scratch<S>,
) -> Result<()> {
    let (c0, w, m, h) = sym.shape(s);
    let c1 = c0 + w;
    let srows = &sym.rows[sym.rows_ptr[s]..sym.rows_ptr[s + 1]];
    for (x, &r) in srows.iter().enumerate() {
        scratch.map[r as usize] = (w + x) as u32;
    }
    for &(tu, p0u, p1u) in &sym.updaters[sym.upd_ptr[s]..sym.upd_ptr[s + 1]] {
        let (t, p0, p1) = (tu as usize, p0u as usize, p1u as usize);
        let (_, wt, mt, ht) = sym.shape(t);
        let trows = &sym.rows[sym.rows_ptr[t]..sym.rows_ptr[t + 1]];
        let lt = &l_done[sym.l_off[t]..sym.l_off[t] + ht * wt];
        let ut = &u_done[sym.u_off[t]..sym.u_off[t] + wt * mt];
        let rtotal = mt - p0;
        let nj = p1 - p0;
        // Resolve every target row of this updater once (`u32::MAX`
        // marks rows outside s's structure — their contribution is an
        // exact zero, see module docs); the scatter loops below then
        // run branch-light.
        if scratch.lidx.len() < rtotal {
            scratch.lidx.resize(rtotal, u32::MAX);
        }
        for i in 0..rtotal {
            let r = trows[p0 + i] as usize;
            scratch.lidx[i] = if r < c1 {
                (r - c0) as u32
            } else {
                scratch.map[r]
            };
        }
        let lidx = &scratch.lidx[..rtotal];
        // GEMM 1: rows of t at/below s's columns × t's U columns inside
        // s — lands in s's diagonal block and L panel.
        let c1n = rtotal * nj;
        if scratch.tmp.len() < c1n {
            scratch.tmp.resize(c1n, S::zero());
        }
        let tmp = &mut scratch.tmp[..c1n];
        for v in tmp.iter_mut() {
            *v = S::zero();
        }
        for y in 0..nj {
            let out = &mut tmp[y * rtotal..(y + 1) * rtotal];
            for q in 0..wt {
                let bq = ut[q + (p0 + y) * wt];
                if bq != S::zero() {
                    let acol = &lt[q * ht + wt + p0..q * ht + wt + p0 + rtotal];
                    for (o, &a) in out.iter_mut().zip(acol) {
                        *o += a * bq;
                    }
                }
            }
        }
        for y in 0..nj {
            let colbase = (trows[p0 + y] as usize - c0) * h;
            let tcol = &tmp[y * rtotal..(y + 1) * rtotal];
            for (i, &li) in lidx.iter().enumerate() {
                if li != u32::MAX {
                    lp[colbase + li as usize] -= tcol[i];
                }
            }
        }
        // GEMM 2: the same J rows of t × t's U columns beyond s — lands
        // in s's U panel.
        let nk = mt - p1;
        if nj > 0 && nk > 0 {
            let c2n = nj * nk;
            if scratch.tmp.len() < c2n {
                scratch.tmp.resize(c2n, S::zero());
            }
            let tmp = &mut scratch.tmp[..c2n];
            for v in tmp.iter_mut() {
                *v = S::zero();
            }
            for y in 0..nk {
                let out = &mut tmp[y * nj..(y + 1) * nj];
                for q in 0..wt {
                    let bq = ut[q + (p1 + y) * wt];
                    if bq != S::zero() {
                        let acol = &lt[q * ht + wt + p0..q * ht + wt + p0 + nj];
                        for (o, &a) in out.iter_mut().zip(acol) {
                            *o += a * bq;
                        }
                    }
                }
            }
            for y in 0..nk {
                let mm = lidx[nj + y];
                if mm == u32::MAX {
                    continue;
                }
                let ubase = (mm as usize - w) * w;
                for i in 0..nj {
                    up[ubase + (trows[p0 + i] as usize - c0)] -= tmp[i + y * nj];
                }
            }
        }
    }
    let res = panel_getrf(lp, h, w);
    if let Ok(()) = res {
        // U panel: forward-substitute each beyond-column with the unit
        // lower diagonal block.
        for x in 0..m {
            let col = &mut up[x * w..(x + 1) * w];
            for q in 0..w {
                let vq = col[q];
                if vq != S::zero() {
                    for k in q + 1..w {
                        col[k] -= lp[k + q * h] * vq;
                    }
                }
            }
        }
    }
    for &r in srows {
        scratch.map[r as usize] = u32::MAX;
    }
    res.map_err(|k| NumericsError::Singular {
        index: sym.colperm[c0 + k],
    })
}

impl<S: Scalar + Send + Sync> SupernodalLu<S> {
    /// Full factorization: symbolic analysis for this pattern plus the
    /// numeric phase. `threads` = 0 means auto (see [`crate::par`]).
    pub fn factor(a: &CscView<'_, S>, ordering: FillOrdering, threads: usize) -> Result<Self> {
        validate(a)?;
        let imatch = weighted_transversal(a).ok_or_else(|| {
            NumericsError::InvalidInput(
                "structurally singular pattern (no full transversal)".into(),
            )
        })?;
        // Machine-wide symbolic cache: the analysis is a pure function
        // of (resolved ordering, pattern, matching), so a known
        // fingerprint skips ordering, etree, exact counts, grouping,
        // and the assembly plan — cold factors of a seen pattern run
        // at allocate + numeric, i.e. near refactor cost.
        let resolved = ordering.resolve(a.n);
        let key = pattern_fingerprint(resolved, a.n, a.col_ptr, a.row_idx).words(&imatch);
        let mut analyzed = (0, true);
        let (sym, hit) = SYM_CACHE.get_or_insert_with(key, || {
            let (sym, order_us, order_hit) = analyze(a.n, a.col_ptr, a.row_idx, imatch, ordering)?;
            analyzed = (order_us, order_hit);
            Ok(std::sync::Arc::new(sym))
        })?;
        let (order_us, from_cache) = if hit { (0, true) } else { analyzed };
        let mut lu = SupernodalLu {
            lstore: vec![S::zero(); sym.l_size],
            ustore: vec![S::zero(); sym.u_size],
            row_scale: vec![1.0; a.n],
            threads_req: threads,
            threads_used: 1,
            order_us,
            order_source: if from_cache {
                "cached"
            } else {
                resolved.name()
            },
            sym,
        };
        lu.numeric(a.values, a.row_idx)?;
        Ok(lu)
    }

    /// Numeric-only refactorization on new values with the pattern and
    /// static pivots of the original [`factor`](Self::factor) call.
    /// The per-pivot drift guard is identical to the fresh factor's,
    /// so a pivot that decayed past `PIVOT_TAU × colmax` fails here
    /// exactly as it would there.
    pub fn refactor(&mut self, a: &CscView<'_, S>) -> Result<()> {
        if a.n != self.sym.n || a.values.len() != self.sym.plan.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: self.sym.plan.len(),
                found: a.values.len(),
            });
        }
        self.numeric(a.values, a.row_idx)
    }

    fn numeric(&mut self, values: &[S], row_idx: &[usize]) -> Result<()> {
        let n = self.sym.n;
        self.threads_used = resolve_factor_threads(self.threads_req).max(1);
        if n == 0 {
            return Ok(());
        }
        // Row equilibration: infinity-norm scale per original row,
        // recomputed from this call's values (serial → deterministic).
        self.row_scale.iter_mut().for_each(|s| *s = 0.0);
        for (p, v) in values.iter().enumerate() {
            let a = v.modulus();
            let r = &mut self.row_scale[row_idx[p]];
            if a > *r {
                *r = a;
            }
        }
        for s in self.row_scale.iter_mut() {
            *s = if *s > 0.0 && s.is_finite() {
                1.0 / *s
            } else {
                1.0
            };
        }
        let sym = &self.sym;
        for v in self.lstore.iter_mut() {
            *v = S::zero();
        }
        for v in self.ustore.iter_mut() {
            *v = S::zero();
        }
        let scale = &self.row_scale;
        for (p, &enc) in sym.plan.iter().enumerate() {
            let off = (enc & !UBIT) as usize;
            let v = values[p] * S::from_f64(scale[row_idx[p]]);
            if enc & UBIT != 0 {
                self.ustore[off] += v;
            } else {
                self.lstore[off] += v;
            }
        }
        let nw = self.threads_used;
        let lstore = self.lstore.as_mut_slice();
        let ustore = self.ustore.as_mut_slice();
        let mut seq_scratch = Scratch::new(n);
        for lvl in 0..sym.nlevels {
            let items = &sym.level_items[sym.level_ptr[lvl]..sym.level_ptr[lvl + 1]];
            let (l_done, l_rest) = lstore.split_at_mut(sym.l_lvl[lvl]);
            let l_cur = &mut l_rest[..sym.l_lvl[lvl + 1] - sym.l_lvl[lvl]];
            let (u_done, u_rest) = ustore.split_at_mut(sym.u_lvl[lvl]);
            let u_cur = &mut u_rest[..sym.u_lvl[lvl + 1] - sym.u_lvl[lvl]];
            if nw <= 1 || items.len() < PAR_MIN_ITEMS || l_cur.len() < PAR_MIN_WORK {
                let (mut loff, mut uoff) = (0usize, 0usize);
                for &su in items {
                    let s = su as usize;
                    let (_, w, m, h) = sym.shape(s);
                    let lp = &mut l_cur[loff..loff + h * w];
                    let up = &mut u_cur[uoff..uoff + w * m];
                    loff += h * w;
                    uoff += w * m;
                    factor_supernode(sym, s, l_done, u_done, lp, up, &mut seq_scratch)?;
                }
            } else {
                // Hand each worker disjoint panel chunks; the Mutex
                // only satisfies `Sync` — the atomic counter already
                // guarantees exclusive access per item.
                let mut chunks: Vec<PanelChunk<'_, S>> = Vec::with_capacity(items.len());
                let mut l_remain: &mut [S] = l_cur;
                let mut u_remain: &mut [S] = u_cur;
                for &su in items {
                    let s = su as usize;
                    let (_, w, m, h) = sym.shape(s);
                    let (lp, lr) = std::mem::take(&mut l_remain).split_at_mut(h * w);
                    l_remain = lr;
                    let (up, ur) = std::mem::take(&mut u_remain).split_at_mut(w * m);
                    u_remain = ur;
                    chunks.push(Mutex::new((s, lp, up)));
                }
                let next = AtomicUsize::new(0);
                let failed = AtomicBool::new(false);
                let failure: Mutex<Option<NumericsError>> = Mutex::new(None);
                let l_done_ref: &[S] = l_done;
                let u_done_ref: &[S] = u_done;
                std::thread::scope(|sc| {
                    for _ in 0..nw.min(chunks.len()) {
                        sc.spawn(|| {
                            let mut scratch = Scratch::new(n);
                            loop {
                                if failed.load(AtomicOrdering::Relaxed) {
                                    break;
                                }
                                let k = next.fetch_add(1, AtomicOrdering::SeqCst);
                                if k >= chunks.len() {
                                    break;
                                }
                                let mut guard = chunks[k].lock().unwrap();
                                let (s, ref mut lp, ref mut up) = *guard;
                                if let Err(e) = factor_supernode(
                                    sym,
                                    s,
                                    l_done_ref,
                                    u_done_ref,
                                    &mut lp[..],
                                    &mut up[..],
                                    &mut scratch,
                                ) {
                                    failed.store(true, AtomicOrdering::Relaxed);
                                    *failure.lock().unwrap() = Some(e);
                                    break;
                                }
                            }
                        });
                    }
                });
                if let Some(e) = failure.into_inner().unwrap() {
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl<S: Scalar> SupernodalLu<S> {
    /// Solves `A x = b`, returning `x` (same convention as
    /// [`crate::sparse_lu::SparseLu::solve`]).
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>> {
        let sym = &self.sym;
        let n = sym.n;
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Gather in pivot order, applying the same row scales the
        // factor applied to A (we factored D·A, so solve D·A x = D·b).
        let mut z: Vec<S> = (0..n)
            .map(|k| {
                let r = sym.rowperm[k];
                b[r] * S::from_f64(self.row_scale[r])
            })
            .collect();
        // Forward: unit-lower L, supernodes ascending.
        for s in 0..sym.nsuper {
            let (c0, w, _, h) = sym.shape(s);
            let srows = &sym.rows[sym.rows_ptr[s]..sym.rows_ptr[s + 1]];
            let lp = &self.lstore[sym.l_off[s]..sym.l_off[s] + h * w];
            for k in 0..w {
                let v = z[c0 + k];
                if v != S::zero() {
                    let col = &lp[k * h..(k + 1) * h];
                    for i in k + 1..w {
                        z[c0 + i] -= col[i] * v;
                    }
                    for (x, &r) in srows.iter().enumerate() {
                        z[r as usize] -= col[w + x] * v;
                    }
                }
            }
        }
        // Backward: U, supernodes descending.
        for s in (0..sym.nsuper).rev() {
            let (c0, w, m, h) = sym.shape(s);
            let srows = &sym.rows[sym.rows_ptr[s]..sym.rows_ptr[s + 1]];
            let up = &self.ustore[sym.u_off[s]..sym.u_off[s] + w * m];
            for (x, &r) in srows.iter().enumerate() {
                let vr = z[r as usize];
                if vr != S::zero() {
                    let col = &up[x * w..(x + 1) * w];
                    for k in 0..w {
                        z[c0 + k] -= col[k] * vr;
                    }
                }
            }
            let lp = &self.lstore[sym.l_off[s]..sym.l_off[s] + h * w];
            for k in (0..w).rev() {
                let mut v = z[c0 + k];
                for j in k + 1..w {
                    v -= lp[k + j * h] * z[c0 + j];
                }
                z[c0 + k] = v / lp[k + k * h];
            }
        }
        let mut x = vec![S::zero(); n];
        for k in 0..n {
            x[sym.colperm[k]] = z[k];
        }
        Ok(x)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.sym.n
    }

    /// Stored factor entries `(L, U)` — dense panel storage, i.e. the
    /// honest memory figure including amalgamation padding. The
    /// diagonal block (holding both unit-L and U) is counted once,
    /// under L.
    pub fn nnz(&self) -> (usize, usize) {
        (self.lstore.len(), self.ustore.len())
    }

    /// Exact factor entries `(L, U)` — the padding-free fill from the
    /// exact unsymmetric column counts, same diagonal convention as
    /// [`nnz`](Self::nnz). `nnz() ≥ exact_nnz()` always; the ratio is
    /// the amalgamation padding the analysis accepted.
    pub fn exact_nnz(&self) -> (usize, usize) {
        (self.sym.exact_l, self.sym.exact_u)
    }

    /// Microseconds the analysis spent computing the fill order — 0
    /// when the permutation (or the entire symbolic analysis) came
    /// from a machine-wide cache.
    pub fn order_us(&self) -> u64 {
        self.order_us
    }

    /// Where the fill order came from: `"cached"` on an ordering- or
    /// symbolic-cache hit, else the resolved ordering's name
    /// (`"amd"`, `"nd"`, `"natural"`).
    pub fn order_source(&self) -> &'static str {
        self.order_source
    }

    /// Number of supernodes (dense panels).
    pub fn supernodes(&self) -> usize {
        self.sym.nsuper
    }

    /// Depth of the level schedule.
    pub fn levels(&self) -> usize {
        self.sym.nlevels
    }

    /// Worker threads the last numeric phase resolved to.
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::sparse_lu::{CscMatrix, SparseLu};

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
        }
    }

    /// Random square pattern with a strong-ish but not dominant
    /// diagonal plus off-diagonal spray; optionally pattern-symmetric.
    fn random_csc(seed: u64, n: usize, per_col: usize, symmetric: bool) -> CscMatrix<f64> {
        let mut rng = Lcg(seed);
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        for j in 0..n {
            trips.push((j, j, 4.0 + rng.next()));
            for _ in 0..per_col {
                let i = ((rng.next().abs() * n as f64) as usize).min(n - 1);
                let v = rng.next();
                trips.push((i, j, v));
                if symmetric {
                    trips.push((j, i, v * 0.5));
                }
            }
        }
        CscMatrix::from_triplets(n, &trips)
    }

    fn solve_both(m: &CscMatrix<f64>, b: &[f64], threads: usize) -> (Vec<f64>, Vec<f64>) {
        let view = m.view();
        let scalar = SparseLu::factor(&view).expect("scalar factor");
        let snl = SupernodalLu::factor(&view, FillOrdering::Amd, threads).expect("snl factor");
        (scalar.solve(b).unwrap(), snl.solve(b).unwrap())
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        let scale = a.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
        for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * scale,
                "solutions differ at {k}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_scalar_on_random_patterns() {
        for seed in 0..8u64 {
            let n = 40 + 7 * seed as usize;
            let m = random_csc(seed + 1, n, 3, seed % 2 == 0);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let (xs, xn) = solve_both(&m, &b, 1);
            assert_close(&xs, &xn, 1e-10);
        }
    }

    #[test]
    fn refactor_matches_fresh_factor_bitwise() {
        let n = 60;
        let m = random_csc(11, n, 4, false);
        let view = m.view();
        let mut snl = SupernodalLu::<f64>::factor(&view, FillOrdering::Amd, 1).unwrap();
        // New values on the same pattern.
        let mut m2 = m.clone();
        for (k, v) in m2.values.iter_mut().enumerate() {
            *v += 0.01 * ((k % 7) as f64 - 3.0) * 0.1;
        }
        let v2 = m2.view();
        snl.refactor(&v2).expect("refactor");
        let fresh = SupernodalLu::<f64>::factor(&v2, FillOrdering::Amd, 1).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let xa = snl.solve(&b).unwrap();
        let xb = fresh.solve(&b).unwrap();
        assert_eq!(xa, xb, "refactor is the same numeric phase, bit for bit");
        let scalar = SparseLu::factor(&v2).unwrap();
        assert_close(&scalar.solve(&b).unwrap(), &xa, 1e-10);
    }

    #[test]
    fn thread_count_is_bitwise_invariant() {
        // Big enough that the parallel branch actually engages.
        let n = 700;
        let m = random_csc(5, n, 4, true);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let view = m.view();
        let mut gold: Option<Vec<f64>> = None;
        for threads in [1usize, 2, 8] {
            let snl = SupernodalLu::factor(&view, FillOrdering::Amd, threads).unwrap();
            let x = snl.solve(&b).unwrap();
            match &gold {
                None => gold = Some(x),
                Some(g) => assert_eq!(g, &x, "threads={threads} changed bits"),
            }
        }
    }

    #[test]
    fn zero_diagonal_saddle_is_handled_by_matching() {
        // MNA-style: a voltage-source branch row with a structural zero
        // diagonal. Static diagonal pivoting without the transversal
        // would be impossible.
        //   [ 2  1  1 ] [x]   [1]
        //   [ 1  3  0 ] [y] = [2]
        //   [ 1  0  0 ] [z]   [3]
        let m = CscMatrix::from_triplets(
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
            ],
        );
        let b = [1.0, 2.0, 3.0];
        let (xs, xn) = solve_both(&m, &b, 1);
        assert_close(&xs, &xn, 1e-12);
    }

    #[test]
    fn complex_systems_ride_the_same_kernels() {
        let n = 48;
        let base = random_csc(21, n, 3, false);
        let mut trips: Vec<(usize, usize, Complex64)> = Vec::new();
        let view = base.view();
        let mut rng = Lcg(99);
        for j in 0..n {
            for p in view.col_ptr[j]..view.col_ptr[j + 1] {
                trips.push((
                    view.row_idx[p],
                    j,
                    Complex64::new(view.values[p], 0.3 * rng.next()),
                ));
            }
        }
        let mc = CscMatrix::from_triplets(n, &trips);
        let vc = mc.view();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0 + i as f64 * 0.1, -0.2 * i as f64))
            .collect();
        let scalar = SparseLu::factor(&vc).unwrap();
        let snl = SupernodalLu::factor(&vc, FillOrdering::Amd, 2).unwrap();
        let xs = scalar.solve(&b).unwrap();
        let xn = snl.solve(&b).unwrap();
        let scale = xs.iter().fold(1.0f64, |acc, v| acc.max(v.modulus()));
        for (x, y) in xs.iter().zip(&xn) {
            assert!((*x - *y).modulus() <= 1e-10 * scale);
        }
    }

    #[test]
    fn pivot_drift_is_rejected_on_refactor() {
        let n = 30;
        let m = random_csc(3, n, 3, false);
        let view = m.view();
        let mut snl = SupernodalLu::<f64>::factor(&view, FillOrdering::Amd, 1).unwrap();
        // Collapse one diagonal entry so its static pivot decays far
        // below the column max.
        let mut m2 = m.clone();
        {
            let target = 17usize;
            let v = m2.view();
            let range = v.col_ptr[target]..v.col_ptr[target + 1];
            let mut diag_pos = None;
            for p in range {
                if v.row_idx[p] == target {
                    diag_pos = Some(p);
                }
            }
            let p = diag_pos.expect("diagonal present");
            m2.values[p] = 1e-14;
        }
        let v2 = m2.view();
        match snl.refactor(&v2) {
            Ok(()) => {
                // The drifted pivot may still pass if AMD moved the
                // column somewhere harmless — then the answer must
                // still be right.
                let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let scalar = SparseLu::factor(&v2).unwrap();
                assert_close(&scalar.solve(&b).unwrap(), &snl.solve(&b).unwrap(), 1e-7);
            }
            Err(NumericsError::Singular { .. }) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn structurally_singular_is_reported() {
        // Empty column 1.
        let m = CscMatrix::from_triplets(3, &[(0, 0, 1.0), (2, 0, 1.0), (2, 2, 1.0), (0, 2, 1.0)]);
        let view = m.view();
        assert!(SupernodalLu::<f64>::factor(&view, FillOrdering::Amd, 1).is_err());
    }

    #[test]
    fn weighted_matching_dodges_tiny_diagonal() {
        // |a00| is 12 orders below its column max: a structural
        // matching would pivot on it and trip the drift guard, but the
        // value-aware transversal matches column 0 to row 1 instead.
        let m =
            CscMatrix::from_triplets(2, &[(0, 0, 1e-12), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]);
        let view = m.view();
        let snl = SupernodalLu::<f64>::factor(&view, FillOrdering::Natural, 1).unwrap();
        let x = snl.solve(&[1.0, 2.0]).unwrap();
        // Exact solution → [1, 1] as eps → 0.
        assert!(
            (x[0] - 1.0).abs() < 1e-6 && (x[1] - 1.0).abs() < 1e-6,
            "{x:?}"
        );
    }

    #[test]
    fn badly_row_scaled_mna_is_equilibrated() {
        // Spring-stiffness rows (~1e2) against conductance rows
        // (~1e-3): without row equilibration the matched diagonal of
        // the stiff row looks 1e-5× its column max and the static
        // pivot guard rejects a perfectly solvable system.
        let g = 1e-3;
        let k = 50.0;
        let m = CscMatrix::from_triplets(
            3,
            &[
                (0, 0, 2.0 * g),
                (1, 0, -g),
                (0, 1, -g),
                (1, 1, 2.0 * g),
                (2, 1, k),
                (1, 2, -g),
                (2, 2, k),
            ],
        );
        let view = m.view();
        let snl = SupernodalLu::<f64>::factor(&view, FillOrdering::Amd, 1).unwrap();
        let scalar = SparseLu::factor(&view).unwrap();
        let b = [1.0, 2.0, 3.0];
        assert_close(&scalar.solve(&b).unwrap(), &snl.solve(&b).unwrap(), 1e-10);
    }

    #[test]
    fn tridiagonal_and_grid_patterns() {
        // Tridiagonal: deep etree chain, exercises amalgamation.
        let n = 120;
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 4.0));
            if i + 1 < n {
                trips.push((i, i + 1, -1.0));
                trips.push((i + 1, i, -1.2));
            }
        }
        let m = CscMatrix::from_triplets(n, &trips);
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let (xs, xn) = solve_both(&m, &b, 2);
        assert_close(&xs, &xn, 1e-11);

        // 2-D grid Laplacian-ish with asymmetry: wide etree, many
        // independent subtrees per level.
        let (r, c) = (14, 15);
        let n = r * c;
        let mut trips = Vec::new();
        let idx = |i: usize, j: usize| i * c + j;
        for i in 0..r {
            for j in 0..c {
                trips.push((idx(i, j), idx(i, j), 4.5));
                if i + 1 < r {
                    trips.push((idx(i, j), idx(i + 1, j), -1.0));
                    trips.push((idx(i + 1, j), idx(i, j), -0.9));
                }
                if j + 1 < c {
                    trips.push((idx(i, j), idx(i, j + 1), -1.1));
                    trips.push((idx(i, j + 1), idx(i, j), -1.0));
                }
            }
        }
        let m = CscMatrix::from_triplets(n, &trips);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let (xs, xn) = solve_both(&m, &b, 8);
        assert_close(&xs, &xn, 1e-10);
    }

    #[test]
    fn stats_are_plausible() {
        let m = random_csc(7, 200, 3, true);
        let snl = SupernodalLu::<f64>::factor(&m.view(), FillOrdering::Amd, 1).unwrap();
        assert!(snl.supernodes() >= 1 && snl.supernodes() <= 200);
        assert!(snl.levels() >= 1 && snl.levels() <= snl.supernodes());
        let (lnz, unz) = snl.nnz();
        assert!(lnz >= 200, "diag blocks alone give n entries");
        assert!(unz < 200 * 200);
        assert_eq!(snl.threads_used(), 1);
    }
}
