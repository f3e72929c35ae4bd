//! Dense vs sparse backend agreement: the two [`SystemMatrix`]
//! implementations must be interchangeable on real workloads.
//!
//! The deck option `sparse=0/1` forces the backend, so each test runs
//! the identical deck through both linear-algebra paths and compares
//! the physics to tight tolerances (the backends factor in different
//! orders, so bit-equality is not expected — 1e-10 relative is).

use mems::netlist::{run_deck, AnalysisOutcome, Deck, DeckRun};
use mems::numerics::sparse_lu::{CscMatrix, SparseLu};
use mems::numerics::NumericsError;
use mems::spice::analysis::dcop;
use mems::spice::circuit::Circuit;
use mems::spice::devices::Resistor;
use mems::spice::solver::SimOptions;
use mems::spice::system::{DenseSystem, SparseSystem, SystemMatrix};
use mems::spice::{MatrixBackend, SpiceError};

fn load_deck(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/decks")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Injects a `.options sparse=…` line after the title line.
fn with_backend(src: &str, sparse: bool) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    let opt = if sparse {
        ".options sparse=1"
    } else {
        ".options sparse=0"
    };
    lines.insert(1, opt);
    lines.join("\n")
}

/// Runs the deck on one backend with its `.PRINT` cards removed, so
/// `.TRAN` and `.AC` record (and the tests compare) every unknown.
fn run_backend(src: &str, sparse: bool) -> DeckRun {
    let src = with_backend(src, sparse);
    let mut deck = Deck::parse(&src).unwrap_or_else(|e| panic!("{}", e.render(&src)));
    deck.prints.clear();
    run_deck(&deck).unwrap_or_else(|e| panic!("{}", e.render(&src)))
}

fn outcomes(run: DeckRun) -> Vec<(String, AnalysisOutcome)> {
    run.outcomes
        .into_iter()
        .map(|(card, outcome)| (card.kind_name().to_string(), outcome))
        .collect()
}

fn run_variant(src: &str, sparse: bool) -> Vec<(String, AnalysisOutcome)> {
    outcomes(run_backend(src, sparse))
}

/// Asserts two traces agree to `rel` relative to the trace scale.
fn assert_traces_agree(label: &str, a: &[f64], b: &[f64], rel: f64) {
    assert_eq!(a.len(), b.len(), "{label}: trace lengths differ");
    let scale = a
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= rel * scale,
            "{label}[{i}]: dense {x:e} vs sparse {y:e} (scale {scale:e})"
        );
    }
}

#[test]
fn eletran_deck_backends_agree() {
    // Fixed-step transient so both backends take the identical step
    // sequence; the adaptive controller's accept/reject decisions
    // could otherwise diverge on last-bit differences. It spans the
    // deck's whole 90 ms, so the replayed share below is measured
    // well past the pulse edge.
    let src = load_deck("eletran_transient.cir").replace(".TRAN 0.2m 90m", ".TRAN 0.2m 90m fixed");
    assert!(src.contains("fixed"), "replacement failed: deck changed?");
    let dense = run_variant(&src, false);
    let sparse_run = run_backend(&src, true);
    // The force's dV entries are exactly 0 at the 0 V operating
    // point, so they join the sparse pattern only when the pulse
    // starts at 2 ms: the stamp tape must miss there and replay the
    // rest.
    let (name, st) = &sparse_run.solver[0];
    assert_eq!(name, "real");
    assert!(st.stamp_misses > 0, "{st:?}");
    let replayed = 1.0 - st.stamp_misses as f64 / st.stamps as f64;
    assert!(replayed > 0.99, "replayed share {replayed} ({st:?})");
    let sparse = outcomes(sparse_run);
    assert_eq!(dense.len(), sparse.len());
    for ((_, d), (_, s)) in dense.iter().zip(&sparse) {
        match (d, s) {
            (AnalysisOutcome::Tran(td), AnalysisOutcome::Tran(ts)) => {
                assert_traces_agree("time", &td.time, &ts.time, 1e-12);
                for label in ["v(vel)", "i(kk1,0)", "v(drive)"] {
                    let a = td.trace(label).unwrap_or_else(|| panic!("{label} missing"));
                    let b = ts.trace(label).unwrap_or_else(|| panic!("{label} missing"));
                    assert_traces_agree(label, &a, &b, 1e-10);
                }
            }
            other => panic!("unexpected outcome pair {other:?}"),
        }
    }
}

#[test]
fn relay_pull_in_sweep_backends_agree() {
    let src = load_deck("relay_pull_in.cir");
    let dense = run_variant(&src, false);
    let sparse = run_variant(&src, true);
    for ((_, d), (_, s)) in dense.iter().zip(&sparse) {
        match (d, s) {
            (AnalysisOutcome::Dc { result: rd, .. }, AnalysisOutcome::Dc { result: rs, .. }) => {
                assert_eq!(rd.values, rs.values);
                // Plate displacement is the relay's internal unknown —
                // the stiff quantity that would expose factorization
                // differences first.
                for label in ["i(xrelay,0)", "v(drive)"] {
                    let a = rd.trace(label).unwrap_or_else(|| panic!("{label} missing"));
                    let b = rs.trace(label).unwrap_or_else(|| panic!("{label} missing"));
                    assert_traces_agree(label, &a, &b, 1e-10);
                }
            }
            other => panic!("unexpected outcome pair {other:?}"),
        }
    }
}

#[test]
fn speaker_ac_backends_agree() {
    // Complex (AC) assembly goes through the same SystemMatrix
    // abstraction — check it too.
    let src = load_deck("speaker_ac.cir");
    let dense = run_variant(&src, false);
    let sparse = run_variant(&src, true);
    for ((_, d), (_, s)) in dense.iter().zip(&sparse) {
        match (d, s) {
            (AnalysisOutcome::Ac(ad), AnalysisOutcome::Ac(as_)) => {
                assert_eq!(ad.freqs, as_.freqs);
                for label in &ad.labels {
                    let (Some(md), Some(ms)) = (ad.magnitude(label), as_.magnitude(label)) else {
                        continue;
                    };
                    assert_traces_agree(label, &md, &ms, 1e-10);
                }
            }
            other => panic!("unexpected outcome pair {other:?}"),
        }
    }
}

#[test]
fn randomly_stamped_spd_system_agrees() {
    // A pseudo-random symmetric positive-definite system stamped
    // through both backends must solve to the same vector.
    let n = 120;
    let mut lcg = 0x12345678u64;
    let mut rand = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((lcg >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    // B with ~5 entries per row; A = Bᵀ·B + n·I is SPD.
    let mut b_entries: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n {
        b_entries.push((i, i, 2.0 + rand()));
        for _ in 0..4 {
            let j = ((rand().abs() * n as f64) as usize).min(n - 1);
            b_entries.push((i, j, rand()));
        }
    }
    let mut a = vec![vec![0.0f64; n]; n];
    for &(i, j, v) in &b_entries {
        for &(i2, j2, v2) in &b_entries {
            if i == i2 {
                a[j][j2] += v * v2;
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += n as f64;
    }
    let rhs: Vec<f64> = (0..n).map(|_| rand()).collect();

    let mut dense = DenseSystem::<f64>::new(n);
    let mut sparse = SparseSystem::<f64>::new(n);
    for (i, row) in a.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                dense.add(i, j, v);
                sparse.add(i, j, v);
            }
        }
    }
    dense.factor().unwrap();
    sparse.factor().unwrap();
    let xd = dense.solve(&rhs).unwrap();
    let xs = sparse.solve(&rhs).unwrap();
    assert_traces_agree("spd solve", &xd, &xs, 1e-12);

    // Re-stamp with perturbed values: the sparse side replays its
    // symbolic factorization (numeric-only refactor) and must still
    // agree with a from-scratch dense factorization.
    assert!(sparse.has_symbolic());
    dense.clear();
    sparse.clear();
    for (i, row) in a.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                let v = v * 1.25 + if i == j { 1.0 } else { 0.0 };
                dense.add(i, j, v);
                sparse.add(i, j, v);
            }
        }
    }
    assert!(sparse.has_symbolic(), "clear must keep the pattern");
    dense.factor().unwrap();
    sparse.factor().unwrap();
    let xd = dense.solve(&rhs).unwrap();
    let xs = sparse.solve(&rhs).unwrap();
    assert_traces_agree("spd refactor solve", &xd, &xs, 1e-12);
}

#[test]
fn singular_circuit_errors_on_both_backends() {
    for backend in [MatrixBackend::Dense, MatrixBackend::Sparse] {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        let _ = b; // floating node
        let mut opts = SimOptions {
            gmin: 0.0, // no leak: the floating node is singular
            ..SimOptions::default()
        };
        opts.matrix = backend;
        let err = dcop::solve(&mut c, &opts);
        match err {
            Err(SpiceError::NoConvergence { detail, .. }) => {
                assert!(
                    detail.contains("singular"),
                    "{backend:?}: expected a singular-system detail, got {detail}"
                );
            }
            other => panic!("{backend:?}: expected failure, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------
// Fill-reducing ordering: AMD-permuted elimination must be a pure
// perf lever — identical physics on every shipped deck and on the
// generated meshed tier.
// ---------------------------------------------------------------

/// Runs a deck with explicit backend/order options forced on. Options
/// apply in source order with later entries winning, so the forced
/// line goes *last* (before any `.end`, which stops parsing) — a
/// deck-local `.options sparse=1` (e.g. `grid_cells.cir`) must not
/// override the variant under test. The deck's `.PRINT` cards are
/// removed, so `.TRAN` and `.AC` record every unknown.
fn run_ordered(src: &str, opts: &str) -> Vec<(String, AnalysisOutcome)> {
    let mut lines: Vec<&str> = src.lines().collect();
    let opt = format!(".options {opts}");
    let end = lines
        .iter()
        .position(|l| l.trim().eq_ignore_ascii_case(".end"))
        .unwrap_or(lines.len());
    lines.insert(end, &opt);
    let src = lines.join("\n");
    let mut deck = {
        let mut resolver = mems::netlist::FsResolver {
            base: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/decks"),
        };
        Deck::parse_with_includes(&src, &mut resolver)
            .unwrap_or_else(|e| panic!("{}", e.render(&src)))
    };
    deck.prints.clear();
    let run = run_deck(&deck).unwrap_or_else(|e| panic!("{}", e.render(&src)));
    run.outcomes
        .into_iter()
        .map(|(card, outcome)| (card.kind_name().to_string(), outcome))
        .collect()
}

/// Compares two runs of the same deck outcome-by-outcome to `rel`.
fn assert_outcomes_agree(
    what: &str,
    a: &[(String, AnalysisOutcome)],
    b: &[(String, AnalysisOutcome)],
    rel: f64,
) {
    assert_eq!(a.len(), b.len(), "{what}: outcome counts differ");
    for ((ka, oa), (kb, ob)) in a.iter().zip(b) {
        assert_eq!(ka, kb, "{what}: analysis kinds differ");
        match (oa, ob) {
            (AnalysisOutcome::Op(pa), AnalysisOutcome::Op(pb)) => {
                assert_traces_agree(&format!("{what}/op"), &pa.x, &pb.x, rel);
            }
            (AnalysisOutcome::Dc { result: ra, .. }, AnalysisOutcome::Dc { result: rb, .. }) => {
                assert_eq!(ra.values, rb.values, "{what}: sweep grids differ");
                assert_eq!(ra.labels, rb.labels, "{what}: dc labels differ");
                assert_eq!(ra.samples.len(), rb.samples.len(), "{what}: dc rows");
                for (pa, pb) in ra.samples.iter().zip(&rb.samples) {
                    assert_traces_agree(&format!("{what}/dc"), pa, pb, rel);
                }
            }
            (AnalysisOutcome::Ac(aa), AnalysisOutcome::Ac(ab)) => {
                assert_eq!(aa.freqs, ab.freqs, "{what}: frequency grids differ");
                for label in &aa.labels {
                    let (Some(ma), Some(mb)) = (aa.magnitude(label), ab.magnitude(label)) else {
                        continue;
                    };
                    assert_traces_agree(&format!("{what}/ac {label}"), &ma, &mb, rel);
                }
            }
            (AnalysisOutcome::Tran(ta), AnalysisOutcome::Tran(tb)) => {
                assert_traces_agree(&format!("{what}/time"), &ta.time, &tb.time, 1e-12);
                for label in &ta.labels {
                    let (Some(xa), Some(xb)) = (ta.trace(label), tb.trace(label)) else {
                        continue;
                    };
                    assert_traces_agree(&format!("{what}/tran {label}"), &xa, &xb, rel);
                }
            }
            other => panic!("{what}: unexpected outcome pair {other:?}"),
        }
    }
}

/// Every shipped deck: forced-sparse AMD ≡ forced-sparse ND ≡
/// forced-sparse natural ≡ dense to ≤ 1e-10. Adaptive `.TRAN` cards
/// are pinned to fixed stepping so all variants walk the identical
/// time grid.
#[test]
fn shipped_decks_agree_across_orderings_and_dense() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/decks");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/decks exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "cir") {
            continue;
        }
        seen += 1;
        let raw = std::fs::read_to_string(&path).unwrap();
        // Pin adaptive transients to a fixed grid (and shorten the
        // long ones: agreement, not physics, is under test here).
        let src: String = raw
            .lines()
            .map(|l| {
                let low = l.trim_start().to_ascii_lowercase();
                if low.starts_with(".tran") && !low.contains("fixed") {
                    format!("{l} fixed")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let amd = run_ordered(&src, "sparse=1 order=amd");
        let nd = run_ordered(&src, "sparse=1 order=nd");
        let natural = run_ordered(&src, "sparse=1 order=natural");
        let dense = run_ordered(&src, "sparse=0");
        assert_outcomes_agree(&format!("{name}: amd vs natural"), &amd, &natural, 1e-10);
        assert_outcomes_agree(&format!("{name}: nd vs natural"), &nd, &natural, 1e-10);
        assert_outcomes_agree(&format!("{name}: amd vs dense"), &amd, &dense, 1e-10);
    }
    assert!(seen >= 6, "expected the shipped decks, found {seen}");
}

/// The meshed scale tier: a generated grid deck (~340 unknowns, well
/// past the dense comfort zone) through dense, sparse-natural,
/// sparse-AMD, and sparse-ND — `.OP` and `.AC` agree to 1e-10.
#[test]
fn grid_deck_orderings_agree() {
    let src = mems::netlist::gen::grid_deck_with(
        8,
        9,
        &mems::netlist::gen::GridDeckOptions {
            options: String::new(), // injected per variant below
            ac: true,
            tran: false,
            step_points: 0,
        },
    );
    let amd = run_ordered(&src, "sparse=1 order=amd");
    let nd = run_ordered(&src, "sparse=1 order=nd");
    let natural = run_ordered(&src, "sparse=1 order=natural");
    let dense = run_ordered(&src, "sparse=0");
    assert_outcomes_agree("grid: amd vs natural", &amd, &natural, 1e-10);
    assert_outcomes_agree("grid: nd vs natural", &nd, &natural, 1e-10);
    assert_outcomes_agree("grid: amd vs dense", &amd, &dense, 1e-10);
}

/// Ordering composes with the `.STEP` batch engine:
/// AMD vs natural per-point metrics agree to 1e-10 on the grid deck,
/// across thread counts.
#[test]
fn grid_step_batch_orderings_agree() {
    use mems::netlist::{run_batch, BatchOptions};
    let mk = |order: &str| {
        let src = mems::netlist::gen::grid_deck_with(
            6,
            6,
            &mems::netlist::gen::GridDeckOptions {
                options: format!("sparse=1 order={order}"),
                ac: false,
                tran: false,
                step_points: 5,
            },
        );
        Deck::parse(&src).unwrap()
    };
    let amd = run_batch(&mk("amd"), &BatchOptions::with_threads(2)).unwrap();
    let natural = run_batch(&mk("natural"), &BatchOptions::with_threads(1)).unwrap();
    assert_eq!(amd.ok_count(), 5);
    assert_eq!(natural.ok_count(), 5);
    for (a, b) in amd.points.iter().zip(&natural.points) {
        let (ma, mb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        for (x, y) in ma.iter().zip(mb) {
            assert_eq!(x.name, y.name);
            let scale = x.value.abs().max(y.value.abs()).max(f64::MIN_POSITIVE);
            assert!(
                (x.value - y.value).abs() <= 1e-10 * scale,
                "{}: {} vs {}",
                x.name,
                x.value,
                y.value
            );
        }
    }
}

#[test]
fn singular_sparse_lu_reports_column() {
    // Rank-1 2×2 matrix: the sparse LU itself must flag singularity.
    let csc = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
    match SparseLu::<f64>::factor(&csc.view()) {
        Err(NumericsError::Singular { index }) => assert_eq!(index, 1),
        other => panic!("expected singular, got {other:?}"),
    }
}

/// The batch engine's warm worker context composes with the
/// forced-sparse backend: each point of a single-worker `.STEP` batch
/// (its workspace replaying the pivots of the first point) matches
/// the same point run on a fresh context to 1e-9 relative.
#[test]
fn sparse_batch_points_match_fresh_runs() {
    use mems::netlist::{extract_metrics, run_batch, run_deck_with, BatchOptions};
    use std::fmt::Write as _;
    // A 60-section nonlinear ladder, well past the sparse threshold.
    let mut src =
        String::from("sparse ladder step\n.options sparse=1\n.param rload=1k\nVs n0 0 5\n");
    for i in 1..=60 {
        let _ = writeln!(src, "R{i} n{} n{i} 100", i - 1);
    }
    let _ = writeln!(src, "Bq n60 0 n60 0 n60 0 1e-4");
    let _ = writeln!(src, "Rl n60 0 {{rload}}");
    src.push_str(".op\n.print op v(n60)\n.step param rload 500 2000 250\n");
    let deck = Deck::parse(&src).unwrap();

    let batch = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
    assert_eq!(batch.ok_count(), 7);
    for p in &batch.points {
        let overrides = p.point.overrides.iter().cloned().collect();
        let fresh = extract_metrics(&deck, &run_deck_with(&deck, &overrides).unwrap());
        let warm = p.outcome.as_ref().unwrap();
        assert_eq!(warm.len(), fresh.len());
        for (x, y) in warm.iter().zip(&fresh) {
            assert_eq!(x.name, y.name);
            let scale = x.value.abs().max(y.value.abs()).max(f64::MIN_POSITIVE);
            assert!(
                (x.value - y.value).abs() <= 1e-9 * scale,
                "point {}: {}: {} vs {}",
                p.point.index,
                x.name,
                x.value,
                y.value
            );
        }
    }
}
