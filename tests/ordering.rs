//! Property tests for the fill-reducing orderings: on random sparse
//! patterns — diagonally-dominant SPD-ish and plainly unsymmetric —
//! the AMD and nested-dissection permutations must always be valid
//! bijections, permuted factor/refactor solves must agree with
//! natural-order solves to ≤ 1e-12 and with the dense backend to
//! ≤ 1e-10 (in f64 and, for the AC path, in Complex64), and the
//! dead-pivot → full re-pivot fallback must keep working under a
//! permutation.

use mems::numerics::ordering::{amd_order, is_permutation, nd_order, FillOrdering};
use mems::numerics::sparse_lu::{CscMatrix, SparseLu};
use mems::numerics::{Complex64, Scalar};
use mems::spice::system::{DenseSystem, SparseSystem, SystemMatrix};
use proptest::prelude::*;

/// Deterministic pattern + values from a seed: `n`-node matrix with
/// full diagonal and ~`density` off-diagonal fill.
fn random_matrix(seed: u64, n: usize, density: f64, symmetric: bool) -> Vec<(usize, usize, f64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut t = Vec::new();
    for i in 0..n {
        // Strong diagonal keeps the systems comfortably conditioned,
        // so a 1e-12 cross-ordering tolerance is meaningful.
        t.push((i, i, 6.0 + 2.0 * next()));
        for j in 0..n {
            if i != j && next() < density {
                let v = 2.0 * next() - 1.0;
                t.push((i, j, v));
                if symmetric {
                    t.push((j, i, v));
                }
            }
        }
    }
    t
}

/// The dense backend's solve of the same stamps: the reference every
/// sparse solve must reproduce.
fn dense_solve<S: Scalar + Send + 'static>(
    triplets: &[(usize, usize, S)],
    n: usize,
    b: &[S],
) -> Vec<S> {
    let mut sys = DenseSystem::<S>::new(n);
    for &(i, j, v) in triplets {
        sys.add(i, j, v);
    }
    sys.factor().unwrap();
    sys.solve(b).unwrap()
}

/// Natural-order, AMD-ordered and dense solves of one system.
fn solve_both_orders(triplets: &[(usize, usize, f64)], n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let csc = CscMatrix::from_triplets(n, triplets);
    let order = amd_order(n, &csc.col_ptr, &csc.row_idx);
    assert!(is_permutation(&order, n), "invalid AMD permutation");
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
    let x_nat = SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap();
    let x_amd = SparseLu::factor_ordered(&csc.view(), &order)
        .unwrap()
        .solve(&b)
        .unwrap();
    (x_nat, x_amd, dense_solve(triplets, n, &b))
}

proptest! {
    /// SPD-ish (symmetric, diagonally dominant) patterns.
    #[test]
    fn amd_matches_natural_on_symmetric_patterns(
        seed in 0i64..1_000_000,
        n in 5usize..60,
        density in 0.02f64..0.3,
    ) {
        let t = random_matrix(seed as u64, n, density, true);
        let (x_nat, x_amd, x_dense) = solve_both_orders(&t, n);
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for ((a, b), d) in x_nat.iter().zip(&x_amd).zip(&x_dense) {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b} (scale {scale})");
            prop_assert!((b - d).abs() <= 1e-10 * scale, "amd {b} vs dense {d}");
        }
    }

    /// Unsymmetric patterns (the ordering works on the symmetrized
    /// graph; the factorization itself stays unsymmetric).
    #[test]
    fn amd_matches_natural_on_unsymmetric_patterns(
        seed in 0i64..1_000_000,
        n in 5usize..60,
        density in 0.02f64..0.3,
    ) {
        let t = random_matrix(seed as u64 ^ 0xdead_beef, n, density, false);
        let (x_nat, x_amd, x_dense) = solve_both_orders(&t, n);
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for ((a, b), d) in x_nat.iter().zip(&x_amd).zip(&x_dense) {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b} (scale {scale})");
            prop_assert!((b - d).abs() <= 1e-10 * scale, "amd {b} vs dense {d}");
        }
    }

    /// Refactor with drifted-but-stable values agrees with a fresh
    /// ordered factorization to machine precision, and the solution
    /// still matches the natural-order one to 1e-12.
    #[test]
    fn ordered_refactor_matches_fresh_factor(
        seed in 0i64..1_000_000,
        n in 5usize..40,
    ) {
        let t_a = random_matrix(seed as u64, n, 0.15, false);
        // Same pattern, perturbed values (keeps the pivots stable).
        let t_b: Vec<(usize, usize, f64)> = t_a
            .iter()
            .map(|&(i, j, v)| (i, j, v * 1.25 + if i == j { 0.5 } else { 0.0 }))
            .collect();
        let csc_a = CscMatrix::from_triplets(n, &t_a);
        let csc_b = CscMatrix::from_triplets(n, &t_b);
        let order = amd_order(n, &csc_a.col_ptr, &csc_a.row_idx);
        prop_assert!(is_permutation(&order, n));
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut lu = SparseLu::factor_ordered(&csc_a.view(), &order).unwrap();
        lu.refactor(&csc_b.view()).unwrap();
        let x_re = lu.solve(&b).unwrap();
        let x_fresh = SparseLu::factor_ordered(&csc_b.view(), &order)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x_nat = SparseLu::factor(&csc_b.view()).unwrap().solve(&b).unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!((x_re[i] - x_fresh[i]).abs() <= 1e-12 * scale);
            prop_assert!((x_re[i] - x_nat[i]).abs() <= 1e-12 * scale);
        }
    }

    /// Nested dissection on random sym/unsym patterns: the permutation
    /// is always a valid bijection, and ND-permuted solves agree with
    /// natural order and AMD to ≤ 1e-12 and with the dense backend to
    /// ≤ 1e-10.
    #[test]
    fn nd_is_a_valid_permutation_and_matches_natural_and_amd(
        seed in 0i64..1_000_000,
        n in 5usize..60,
        density in 0.02f64..0.3,
        symmetric in 0usize..2,
    ) {
        let t = random_matrix(seed as u64 ^ 0x4e44, n, density, symmetric == 1);
        let csc = CscMatrix::from_triplets(n, &t);
        let nd = nd_order(n, &csc.col_ptr, &csc.row_idx);
        prop_assert!(is_permutation(&nd, n), "invalid ND permutation");
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) % 13) as f64 - 6.0).collect();
        let x_nat = SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap();
        let x_nd = SparseLu::factor_ordered(&csc.view(), &nd)
            .unwrap()
            .solve(&b)
            .unwrap();
        let amd = amd_order(n, &csc.col_ptr, &csc.row_idx);
        let x_amd = SparseLu::factor_ordered(&csc.view(), &amd)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x_dense = dense_solve(&t, n, &b);
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!((x_nat[i] - x_nd[i]).abs() <= 1e-12 * scale,
                "nd {} vs natural {}", x_nd[i], x_nat[i]);
            prop_assert!((x_amd[i] - x_nd[i]).abs() <= 1e-12 * scale,
                "nd {} vs amd {}", x_nd[i], x_amd[i]);
            prop_assert!((x_dense[i] - x_nd[i]).abs() <= 1e-10 * scale,
                "nd {} vs dense {}", x_nd[i], x_dense[i]);
        }
    }

    /// The f64 instantiation (the DC and transient path): natural, AMD
    /// and ND sparse solves, and the sparse backend's factor and
    /// refactor, agree with the dense backend to ≤ 1e-10 on random
    /// symmetric and unsymmetric systems.
    #[test]
    fn sparse_solves_match_dense(
        seed in 0i64..1_000_000,
        n in 5usize..70,
        density in 0.02f64..0.3,
        symmetric in 0usize..2,
    ) {
        let t = random_matrix(seed as u64, n, density, symmetric == 1);
        let csc = CscMatrix::from_triplets(n, &t);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let x_dense = dense_solve(&t, n, &b);
        let scale = x_dense.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        let amd = amd_order(n, &csc.col_ptr, &csc.row_idx);
        let nd = nd_order(n, &csc.col_ptr, &csc.row_idx);
        let solves = [
            ("natural", SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap()),
            ("amd", SparseLu::factor_ordered(&csc.view(), &amd).unwrap().solve(&b).unwrap()),
            ("nd", SparseLu::factor_ordered(&csc.view(), &nd).unwrap().solve(&b).unwrap()),
        ];
        for (name, x) in &solves {
            for i in 0..n {
                prop_assert!((x[i] - x_dense[i]).abs() <= 1e-10 * scale,
                    "{name} {} vs dense {}", x[i], x_dense[i]);
            }
        }
        // Through the backend: a fresh factor, then a numeric-only
        // refactor of drifted values on the same pattern.
        let drifted: Vec<(usize, usize, f64)> = t
            .iter()
            .map(|&(i, j, v)| (i, j, v * 1.25 + if i == j { 0.5 } else { 0.0 }))
            .collect();
        let mut sys = SparseSystem::<f64>::with_ordering(n, FillOrdering::Auto);
        for (pass, t) in [t, drifted].iter().enumerate() {
            sys.clear();
            for &(i, j, v) in t {
                sys.add(i, j, v);
            }
            sys.factor().unwrap();
            let x = sys.solve(&b).unwrap();
            let x_dense = dense_solve(t, n, &b);
            let scale = x_dense.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                prop_assert!((x[i] - x_dense[i]).abs() <= 1e-10 * scale,
                    "system pass {pass}: {} vs dense {}", x[i], x_dense[i]);
            }
        }
    }

    /// The Complex64 instantiation (the AC path): natural, AMD and ND
    /// sparse solves, and the sparse backend's factor and refactor,
    /// agree with the dense backend to ≤ 1e-10 on random complex
    /// systems.
    #[test]
    fn complex_sparse_solves_match_dense(
        seed in 0i64..1_000_000,
        n in 5usize..50,
        density in 0.05f64..0.25,
    ) {
        let complexify = |t: &[(usize, usize, f64)]| -> Vec<(usize, usize, Complex64)> {
            t.iter()
                .map(|&(i, j, v)| {
                    let im = if i == j { 0.5 } else { -0.3 * v };
                    (i, j, Complex64::new(v, im))
                })
                .collect()
        };
        let t_re = random_matrix(seed as u64 ^ 0xac, n, density, false);
        let t = complexify(&t_re);
        let csc = CscMatrix::from_triplets(n, &t);
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.31).cos(), (i as f64 * 0.17).sin()))
            .collect();
        let x_dense = dense_solve(&t, n, &b);
        let scale = x_dense.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        let amd = amd_order(n, &csc.col_ptr, &csc.row_idx);
        let nd = nd_order(n, &csc.col_ptr, &csc.row_idx);
        let solves = [
            ("natural", SparseLu::factor(&csc.view()).unwrap().solve(&b).unwrap()),
            ("amd", SparseLu::factor_ordered(&csc.view(), &amd).unwrap().solve(&b).unwrap()),
            ("nd", SparseLu::factor_ordered(&csc.view(), &nd).unwrap().solve(&b).unwrap()),
        ];
        for (name, x) in &solves {
            for i in 0..n {
                prop_assert!((x[i] - x_dense[i]).abs() <= 1e-10 * scale,
                    "{name} {:?} vs dense {:?}", x[i], x_dense[i]);
            }
        }
        // Through the backend, as the AC analysis drives it: a fresh
        // factor, then a numeric-only refactor of drifted values on
        // the same pattern.
        let drifted: Vec<(usize, usize, f64)> = t_re
            .iter()
            .map(|&(i, j, v)| (i, j, v * 1.25 + if i == j { 0.5 } else { 0.0 }))
            .collect();
        let mut sys = SparseSystem::<Complex64>::with_ordering(n, FillOrdering::Auto);
        for (pass, t) in [t, complexify(&drifted)].iter().enumerate() {
            sys.clear();
            for &(i, j, v) in t {
                sys.add(i, j, v);
            }
            sys.factor().unwrap();
            let x = sys.solve(&b).unwrap();
            let x_dense = dense_solve(t, n, &b);
            let scale = x_dense.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                prop_assert!((x[i] - x_dense[i]).abs() <= 1e-10 * scale,
                    "system pass {pass}: {:?} vs dense {:?}", x[i], x_dense[i]);
            }
        }
    }

    /// Full-backend agreement under ND: factor + refactor through
    /// `SparseSystem` with `order=nd` matches the natural-order
    /// backend on the same stamps (exercises the ordering path and
    /// the machine-wide ordering cache end to end).
    #[test]
    fn nd_system_factor_and_refactor_match_natural(
        seed in 0i64..1_000_000,
        n in 5usize..40,
    ) {
        let t = random_matrix(seed as u64 ^ 0x0d15_5ec7, n, 0.15, false);
        let mut nd_sys = SparseSystem::<f64>::with_ordering(n, FillOrdering::Nd);
        let mut nat_sys = SparseSystem::<f64>::with_ordering(n, FillOrdering::Natural);
        for &(i, j, v) in &t {
            nd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        nd_sys.factor().unwrap();
        nat_sys.factor().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let x_nd = nd_sys.solve(&b).unwrap();
        let x_nat = nat_sys.solve(&b).unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for (a, c) in x_nd.iter().zip(&x_nat) {
            prop_assert!((a - c).abs() <= 1e-12 * scale, "{a} vs {c}");
        }
        // Same pattern, perturbed values: the numeric-only refactor
        // replay under ND must track natural order too.
        nd_sys.clear();
        nat_sys.clear();
        for &(i, j, v) in &t {
            let v = v * 1.5 + if i == j { 0.25 } else { 0.0 };
            nd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        nd_sys.factor().unwrap();
        nat_sys.factor().unwrap();
        let x_nd = nd_sys.solve(&b).unwrap();
        let x_nat = nat_sys.solve(&b).unwrap();
        let scale = x_nat.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for (a, c) in x_nd.iter().zip(&x_nat) {
            prop_assert!((a - c).abs() <= 1e-12 * scale, "{a} vs {c}");
        }
    }

    /// The sparse backend's dead-pivot fallback (refactor fails → full
    /// re-pivoting factorization under the same column order) holds
    /// under AMD: zeroing a diagonal entry after the symbolic analysis
    /// must still solve, and agree with the natural-order backend.
    #[test]
    fn dead_pivot_fallback_survives_permutation(
        seed in 0i64..1_000_000,
        n in 6usize..30,
        kill in 0usize..6,
    ) {
        let t = random_matrix(seed as u64 ^ 0x5eed, n, 0.2, false);
        let kill = kill % n;
        let mut amd_sys = SparseSystem::<f64>::with_ordering(n, FillOrdering::Amd);
        let mut nat_sys = SparseSystem::<f64>::with_ordering(n, FillOrdering::Natural);
        for &(i, j, v) in &t {
            amd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        amd_sys.factor().unwrap();
        nat_sys.factor().unwrap();
        // Same pattern, dead diagonal at `kill`: the replayed pivot
        // dies (or drifts), forcing the full re-pivot fallback.
        amd_sys.clear();
        nat_sys.clear();
        for &(i, j, v) in &t {
            let v = if i == kill && j == kill { 0.0 } else { v };
            amd_sys.add(i, j, v);
            nat_sys.add(i, j, v);
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
        // A zeroed diagonal in a random matrix is (almost surely)
        // still nonsingular thanks to the off-diagonal entries; if
        // either backend calls it singular, both must.
        match (amd_sys.factor(), nat_sys.factor()) {
            (Ok(()), Ok(())) => {
                let xa = amd_sys.solve(&b).unwrap();
                let xn = nat_sys.solve(&b).unwrap();
                let scale = xn.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
                for (a, c) in xa.iter().zip(&xn) {
                    prop_assert!((a - c).abs() <= 1e-10 * scale, "{a} vs {c}");
                }
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "fallback asymmetry: {other:?}"),
        }
    }
}
