//! Batch `.STEP` throughput: the sparse backend with shared symbolic
//! factorization against the per-point dense re-factor baseline.
//!
//! The workload is a 120-section nonlinear RC ladder (121 node
//! unknowns + the source branch — well past the dense comfort zone)
//! swept over 100 `.STEP` points of its load resistance. Every point
//! has identical topology, so the sparse path analyzes the Jacobian
//! structure once per worker and replays the numeric factorization
//! for all remaining Newton iterations and batch points; the dense
//! path pays a full `O(n³)` factorization per iteration per point.
//!
//! A second group times the raw kernels on a banded system:
//! dense factor vs sparse full factor vs sparse numeric-only
//! refactor.
//!
//! A third group times the warm dense Newton cycle (assemble →
//! factor → solve) of two shipped paper-scale decks, the inner loop
//! of `.STEP`/`.MC` batches and served jobs.

use criterion::{criterion_group, criterion_main, Criterion};
use mems_netlist::elab::sim_options;
use mems_netlist::{run_batch, BatchOptions, Deck, Elaborator, ParamEnv};
use mems_numerics::dense::DenseMatrix;
use mems_numerics::lu::LuFactors;
use mems_numerics::ode::IntegrationMethod;
use mems_numerics::sparse_lu::{CscMatrix, SparseLu};
use mems_spice::analysis::dcop;
use mems_spice::device::LoadKind;
use mems_spice::solver::{assemble, Workspace};
use mems_spice::MatrixBackend;
use std::fmt::Write as _;

const SECTIONS: usize = 120;
const STEP_POINTS: usize = 100;

/// Generates the ladder deck, optionally forcing a backend.
fn ladder_deck(sections: usize, sparse: bool) -> String {
    let mut d = String::new();
    let _ = writeln!(d, "nonlinear rc ladder .step sweep");
    let _ = writeln!(d, ".options sparse={}", if sparse { 1 } else { 0 });
    let _ = writeln!(d, ".param rload=1k");
    let _ = writeln!(d, "Vs n0 0 5");
    for i in 1..=sections {
        let _ = writeln!(d, "R{i} n{} n{i} 100", i - 1);
        let _ = writeln!(d, "C{i} n{i} 0 1n");
    }
    // Quadratic sink at the ladder tail: keeps the operating point
    // nonlinear so each batch point costs several Newton iterations.
    let _ = writeln!(d, "Bq n{sections} 0 n{sections} 0 n{sections} 0 1e-4");
    let _ = writeln!(d, "Rl n{sections} 0 {{rload}}");
    let _ = writeln!(d, ".op");
    let _ = writeln!(d, ".print op v(n{sections})");
    // 100 inclusive points: 500 Ω → 2480 Ω in 20 Ω steps.
    let step = 1980 / (STEP_POINTS - 1);
    let _ = writeln!(
        d,
        ".step param rload 500 {} {}",
        500 + step * (STEP_POINTS - 1),
        step
    );
    d
}

fn bench_batch(c: &mut Criterion) {
    mems_bench::print_banner(
        "batch .STEP sweep",
        "sparse + shared-symbolic batch path vs per-point dense re-factor",
    );
    for (id, sparse) in [("dense_per_point", false), ("sparse_shared_symbolic", true)] {
        let src = ladder_deck(SECTIONS, sparse);
        let deck = Deck::parse(&src).expect("ladder deck parses");
        // Sanity outside the timed region: every point must simulate.
        let check = run_batch(&deck, &BatchOptions::with_threads(1)).expect("batch runs");
        assert_eq!(check.ok_count(), STEP_POINTS, "{id}: points failed");
        let mut group = c.benchmark_group("step_sweep_100pt_121unknowns");
        group.sample_size(10);
        group.bench_function(id, |b| {
            b.iter(|| run_batch(&deck, &BatchOptions::with_threads(1)).expect("batch runs"))
        });
        group.finish();
    }
}

fn bench_kernels(c: &mut Criterion) {
    mems_bench::print_banner(
        "LU kernels",
        "dense factor vs sparse full factor vs sparse numeric refactor",
    );
    // Banded SPD-ish system, n = 400, bandwidth 4.
    let n = 400;
    let mut triplets = Vec::new();
    for i in 0..n {
        triplets.push((i, i, 8.0 + (i % 7) as f64));
        for k in 1..=4usize {
            if i >= k {
                triplets.push((i, i - k, -1.0 / k as f64));
                triplets.push((i - k, i, -1.0 / k as f64));
            }
        }
    }
    let csc = CscMatrix::from_triplets(n, &triplets);
    let mut dense = DenseMatrix::<f64>::zeros(n, n);
    for &(i, j, v) in &triplets {
        dense[(i, j)] += v;
    }

    let mut group = c.benchmark_group("lu_banded_n400");
    group.sample_size(10);
    group.bench_function("dense_factor", |b| {
        b.iter(|| LuFactors::factor(&dense).expect("factors"))
    });
    group.bench_function("sparse_full_factor", |b| {
        b.iter(|| SparseLu::factor(&csc.view()).expect("factors"))
    });
    let mut lu = SparseLu::factor(&csc.view()).expect("factors");
    group.bench_function("sparse_numeric_refactor", |b| {
        b.iter(|| lu.refactor(&csc.view()).expect("refactors"))
    });
    group.finish();
}

/// One warm `assemble → factor → solve_into` cycle on the circuit of
/// the shipped deck `file`, set up as `tests/newton_alloc.rs` sets it
/// up: at the operating point, on the dense backend, after two cycles
/// that allocate the factor storage.
fn warm_newton_cycle(file: &str) -> impl FnMut() {
    let path = format!("{}/../../examples/decks/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("shipped deck");
    let deck = Deck::parse(&src).expect("deck parses");
    let elab = Elaborator::new(&deck).expect("deck elaborates");
    let (mut ckt, env) = elab.build(&ParamEnv::new(), None).expect("circuit builds");
    let sim = sim_options(&deck, &env).expect("options");
    let op = dcop::solve(&mut ckt, &sim).expect("operating point");
    let n = op.layout.n_unknowns;
    let mut ws = Workspace::new(n);
    ws.ensure(n, sim.matrix, sim.ordering);
    assert_eq!(ws.sys.backend(), MatrixBackend::Dense, "{file}");
    let kind = LoadKind::Transient {
        t: 1e-4,
        h: 1e-5,
        method: IntegrationMethod::Trapezoidal,
    };
    let rhs = vec![1.0; n];
    let mut dx = vec![0.0; n];
    let mut cycle = move || {
        assemble(&mut ckt, &op.layout, kind, sim.gmin, &op.x, &mut ws).expect("assembles");
        ws.sys.factor().expect("factors");
        ws.sys.solve_into(&rhs, &mut dx).expect("solves");
    };
    cycle();
    cycle();
    cycle
}

fn bench_newton_cycle(c: &mut Criterion) {
    mems_bench::print_banner(
        "dense Newton cycle",
        "one warm assemble → factor → solve on paper-scale decks",
    );
    let mut group = c.benchmark_group("newton_cycle_dense");
    group.sample_size(50);
    for (id, file) in [
        ("resonator_step_n2", "resonator_step.cir"),
        ("eletran_transient_n4", "eletran_transient.cir"),
    ] {
        let mut cycle = warm_newton_cycle(file);
        group.bench_function(id, |b| b.iter(&mut cycle));
    }
    group.finish();
}

criterion_group!(benches, bench_batch, bench_kernels, bench_newton_cycle);
criterion_main!(benches);
