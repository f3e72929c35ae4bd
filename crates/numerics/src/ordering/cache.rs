//! Machine-wide ordering cache keyed on the sparsity pattern.
//!
//! Computing a fill-reducing order is a pure function of the pattern,
//! and real workloads (a daemon re-serving decks, `.STEP`/`.MC`
//! batches, AC after OP) present the same MNA pattern over and over.
//! [`order_cached`] memoizes [`amd_order`](super::amd_order) /
//! [`nd_order`](super::nd_order) results in a process-wide
//! [`Lru`] keyed on the pattern's [`Fingerprint`] (ordering kind, n,
//! nnz, `col_ptr`, `row_idx`), so any pattern seen before skips
//! ordering entirely and pays only the symbolic + numeric factor.
//!
//! Permutations are shared as `Arc<Vec<usize>>` (a hit copies a
//! pointer, not O(n) memory). The cache's counters are exposed for the
//! `mems serve` metrics endpoint.

use super::FillOrdering;
use crate::cache::{Fingerprint, Lru, LruStats};
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// Patterns retained; least-recently-used beyond this are dropped.
/// Each entry holds one `Vec<usize>` of length n — at the 10⁶ tier
/// that is 8 MB, so the cap keeps worst-case residency modest.
const CACHE_CAP: usize = 48;

static CACHE: Lru<Arc<Vec<usize>>> = Lru::new(CACHE_CAP);

/// Result of an ordering lookup.
pub struct OrderLookup {
    /// The permutation (`perm[k]` = column eliminated at step `k`).
    pub perm: Arc<Vec<usize>>,
    /// Whether the pattern was already resident.
    pub hit: bool,
    /// Microseconds spent computing the order — 0 on a hit, which is
    /// exactly what `SolverStats.order_us` reports so callers (and
    /// the serve tests) can prove a cache hit end to end.
    pub order_us: u64,
}

/// Fingerprint of a pattern under a resolved ordering kind. A
/// collision could only cost fill (any permutation factors
/// correctly), never accuracy.
fn pattern_fingerprint(
    kind: FillOrdering,
    n: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
) -> Fingerprint {
    Fingerprint::new()
        .word(kind as u64)
        .word(n as u64)
        .word(col_ptr.len() as u64)
        .word(row_idx.len() as u64)
        .words(col_ptr)
        .words(row_idx)
}

/// Returns the fill-reducing order for the pattern under the given
/// (already resolved) ordering kind, serving repeats from the cache.
/// `FillOrdering::Natural` and `Auto` are caller errors in spirit —
/// they compute nothing and return the identity uncached.
pub fn order_cached(
    kind: FillOrdering,
    n: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
) -> OrderLookup {
    let kind = kind.resolve(n);
    if n <= 1 || !matches!(kind, FillOrdering::Amd | FillOrdering::Nd) {
        return OrderLookup {
            perm: Arc::new((0..n).collect()),
            hit: false,
            order_us: 0,
        };
    }
    let mut order_us = 0;
    let Ok((perm, hit)) =
        CACHE.get_or_insert_with(pattern_fingerprint(kind, n, col_ptr, row_idx), || {
            let start = Instant::now();
            let perm = match kind {
                FillOrdering::Nd => super::nd_order(n, col_ptr, row_idx),
                _ => super::amd_order(n, col_ptr, row_idx),
            };
            order_us = (start.elapsed().as_micros() as u64).max(1);
            Ok::<_, Infallible>(Arc::new(perm))
        });
    OrderLookup {
        perm,
        hit,
        order_us: if hit { 0 } else { order_us },
    }
}

/// Lifetime counters of the process-wide cache.
pub fn cache_stats() -> LruStats {
    CACHE.stats()
}

/// Empties the cache (counters keep running) — for tests that need a
/// cold start.
pub fn clear_cache() {
    CACHE.clear();
}

#[cfg(test)]
mod tests {
    use super::super::{amd_order, nd_order};
    use super::*;

    fn chain_pattern(n: usize) -> (Vec<usize>, Vec<usize>) {
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        for j in 0..n {
            let mut rows = vec![j];
            if j > 0 {
                rows.push(j - 1);
            }
            if j + 1 < n {
                rows.push(j + 1);
            }
            rows.sort_unstable();
            row_idx.extend(rows);
            col_ptr.push(row_idx.len());
        }
        (col_ptr, row_idx)
    }

    #[test]
    fn second_lookup_hits_and_reports_zero_cost() {
        let (cp, ri) = chain_pattern(37);
        let first = order_cached(FillOrdering::Amd, 37, &cp, &ri);
        let again = order_cached(FillOrdering::Amd, 37, &cp, &ri);
        assert!(again.hit);
        assert_eq!(again.order_us, 0);
        assert!(first.order_us >= 1);
        assert_eq!(*again.perm, *first.perm);
        assert_eq!(*first.perm, amd_order(37, &cp, &ri));
    }

    #[test]
    fn kinds_key_separately() {
        let (cp, ri) = chain_pattern(41);
        let amd = order_cached(FillOrdering::Amd, 41, &cp, &ri);
        let nd = order_cached(FillOrdering::Nd, 41, &cp, &ri);
        assert_eq!(*nd.perm, nd_order(41, &cp, &ri));
        assert_eq!(*amd.perm, amd_order(41, &cp, &ri));
    }

    #[test]
    fn natural_is_identity_and_uncached() {
        let (cp, ri) = chain_pattern(5);
        let l = order_cached(FillOrdering::Natural, 5, &cp, &ri);
        assert_eq!(*l.perm, vec![0, 1, 2, 3, 4]);
        assert!(!l.hit);
        assert_eq!(l.order_us, 0);
    }

    #[test]
    fn distinct_patterns_do_not_collide() {
        let (cp_a, ri_a) = chain_pattern(12);
        let mut ri_b = ri_a.clone();
        // Perturb one entry (still in range, still sorted enough for
        // the orderer) — the fingerprint must differ.
        ri_b[0] = 2;
        let a = order_cached(FillOrdering::Amd, 12, &cp_a, &ri_a);
        let b = order_cached(FillOrdering::Amd, 12, &cp_a, &ri_b);
        assert_eq!(*b.perm, amd_order(12, &cp_a, &ri_b));
        assert!(is_perm(&a.perm, 12) && is_perm(&b.perm, 12));
    }

    fn is_perm(p: &[usize], n: usize) -> bool {
        super::super::is_permutation(p, n)
    }
}
