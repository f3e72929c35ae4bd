//! Fill-reducing ordering on the meshed scale tiers: natural-order vs
//! AMD-permuted scalar LU at n ≈ 100 / 400 / 1600, then AMD vs nested
//! dissection at n ≈ 6.4k (3-D grid), 8.2k (FEM quad mesh), 12.8k and
//! 50.6k (2-D grids).
//!
//! Kernel groups factor the MNA matrix of a grid of electromechanical
//! cells (the same structure `mems_netlist::gen::grid_deck` /
//! `grid3d_deck` elaborate: an electrical stencil with a
//! gyrator-coupled velocity node and spring-force branch per edge),
//! timing the full symbolic+numeric factorization and the
//! numeric-only refactor. The fill (nnz of L and U) is printed per
//! size — the quantity the ordering actually optimizes.
//!
//! A deck-level group runs the generated grid deck end-to-end
//! (`.OP` through the netlist frontend) with `order=natural` vs
//! `order=amd` vs `order=nd` on the forced-sparse backend.
//!
//! The scale tiers carry two cold-factor series per ordering: the
//! true-cold path (ordering cache cleared every iteration — what a
//! never-seen pattern costs end to end) and the cached path (ordering
//! cache warm — what a resubmitted pattern costs). The scale group
//! adds the n ≈ 2·10⁵ 3-D tier with its ND series and times the
//! ordering alone at n ≈ 10⁶.

use criterion::{criterion_group, criterion_main, Criterion};
use mems_fem::mesh::StructuredQuadMesh;
use mems_netlist::gen::{grid_deck_with, GridDeckOptions};
use mems_netlist::{run_deck, Deck};
use mems_numerics::ordering::{amd_order, clear_cache, nd_order, order_cached, FillOrdering};
use mems_numerics::sparse_lu::{CscMatrix, CscView, SparseLu};

/// Assembles the DC/transient-style MNA matrix of an
/// electromechanical cell graph over `nn` electrical nodes and the
/// given edge list: per edge an R‖C link (conductance stamp), a
/// gyrator coupling into a private velocity unknown (mass/damper on
/// the diagonal), and a spring-force branch row. Matches the sparsity
/// structure the deck generators produce, at `n = nn + 2·edges`.
fn edges_mna(nn: usize, edges: &[(usize, usize)]) -> (usize, CscMatrix<f64>) {
    let n = nn + 2 * edges.len();
    let (g, gm, alpha, m_h, k_h) = (1e-3, 2e-4, 2e-3, 1e-2, 5e-2);
    let mut t: Vec<(usize, usize, f64)> = Vec::with_capacity(12 * edges.len());
    for (e, &(a, b)) in edges.iter().enumerate() {
        let vel = nn + 2 * e;
        let fb = nn + 2 * e + 1;
        // Electrical link.
        t.push((a, a, g));
        t.push((b, b, g));
        t.push((a, b, -g));
        t.push((b, a, -g));
        // Gyrator coupling (skew): current into the electrical nodes
        // from the velocity, force into the velocity from the
        // electrical across.
        t.push((vel, a, gm));
        t.push((vel, b, -gm));
        t.push((a, vel, -gm));
        t.push((b, vel, gm));
        // Mass + damper on the velocity diagonal.
        t.push((vel, vel, alpha + m_h));
        // Spring-force branch: vel row carries the force, the branch
        // row relates force and integrated velocity.
        t.push((vel, fb, 1.0));
        t.push((fb, vel, -k_h));
        t.push((fb, fb, 1.0));
    }
    // Drive tie at one corner, load at the other: keeps the system
    // nonsingular exactly like the deck's source + load do.
    t.push((0, 0, 1.0));
    t.push((nn - 1, nn - 1, 1e-3));
    (n, CscMatrix::from_triplets(n, &t))
}

/// 5-point-stencil edge list of a `rows × cols` grid.
fn grid_edges(rows: usize, cols: usize) -> (usize, Vec<(usize, usize)>) {
    let node = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((node(r, c), node(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((node(r, c), node(r + 1, c)));
            }
        }
    }
    (rows * cols, edges)
}

/// 7-point-stencil edge list of an `nx × ny × nz` grid — the
/// structure `grid3d_deck` elaborates.
fn grid3d_edges(nx: usize, ny: usize, nz: usize) -> (usize, Vec<(usize, usize)>) {
    let node = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut edges = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((node(x, y, z), node(x + 1, y, z)));
                }
                if y + 1 < ny {
                    edges.push((node(x, y, z), node(x, y + 1, z)));
                }
                if z + 1 < nz {
                    edges.push((node(x, y, z), node(x, y, z + 1)));
                }
            }
        }
    }
    (nx * ny * nz, edges)
}

/// Unique element edges of a structured FEM quad mesh — the
/// "imported mesh" tier: cells riding a mesh that came from the
/// plate/membrane discretization rather than a synthetic grid.
fn fem_mesh_edges(nx: usize, ny: usize) -> (usize, Vec<(usize, usize)>) {
    let mesh = StructuredQuadMesh::rectangle(0.0, 0.0, 1.0, 1.0, nx, ny);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for quad in mesh.elems() {
        for k in 0..4 {
            let (a, b) = (quad[k], quad[(k + 1) % 4]);
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (mesh.n_nodes(), edges)
}

/// Grid MNA by grid shape (the historic n ≈ 100/400/1600 tiers).
fn grid_mna(rows: usize, cols: usize) -> (usize, CscMatrix<f64>) {
    let (nn, edges) = grid_edges(rows, cols);
    edges_mna(nn, &edges)
}

fn bench_kernels(c: &mut Criterion) {
    mems_bench::print_banner(
        "batch_ordering",
        "natural vs AMD fill/factor/refactor on grid-cell MNA matrices",
    );
    // n = rows·cols + 2·edges ⇒ 105 / 412 / 1636 unknowns.
    for (rows, cols) in [(5usize, 5usize), (9, 10), (18, 19)] {
        let (n, csc) = grid_mna(rows, cols);
        let order = amd_order(n, &csc.col_ptr, &csc.row_idx);
        let lu_nat = SparseLu::factor(&csc.view()).expect("natural factors");
        let lu_amd = SparseLu::factor_ordered(&csc.view(), &order).expect("amd factors");
        let (ln, un) = lu_nat.nnz();
        let (la, ua) = lu_amd.nnz();
        eprintln!(
            "  n={n} ({rows}x{cols} grid): fill natural L+U = {} | amd L+U = {} ({:.2}x less)",
            ln + un,
            la + ua,
            (ln + un) as f64 / (la + ua) as f64
        );
        let mut group = c.benchmark_group(&format!("ordering_lu_n{n}"));
        group.sample_size(10);
        group.bench_function("natural_factor", |b| {
            b.iter(|| SparseLu::factor(&csc.view()).expect("factors"))
        });
        group.bench_function("amd_factor", |b| {
            b.iter(|| SparseLu::factor_ordered(&csc.view(), &order).expect("factors"))
        });
        group.bench_function("amd_order_symbolic", |b| {
            b.iter(|| amd_order(n, &csc.col_ptr, &csc.row_idx))
        });
        let mut nat = lu_nat.clone();
        group.bench_function("natural_refactor", |b| {
            b.iter(|| nat.refactor(&csc.view()).expect("refactors"))
        });
        let mut amd = lu_amd.clone();
        group.bench_function("amd_refactor", |b| {
            b.iter(|| amd.refactor(&csc.view()).expect("refactors"))
        });
        group.finish();
    }
}

/// Scalar LU under the `kind` order served by the machine-wide
/// ordering cache — what `SparseSystem` does on a fresh pattern.
fn cached_factor(view: &CscView<'_, f64>, kind: FillOrdering) -> SparseLu<f64> {
    let order = order_cached(kind, view.n, view.col_ptr, view.row_idx);
    SparseLu::factor_ordered(view, &order.perm).expect("factors")
}

/// Times one ordering on one mesh: the ordering alone, the factor
/// under it, the numeric-only refactor, and the true-cold and cached
/// factors.
fn bench_ordered_lu(
    group: &mut criterion::BenchmarkGroup<'_>,
    tag: &str,
    csc: &CscMatrix<f64>,
    kind: FillOrdering,
) {
    let (n, view, name) = (csc.n, csc.view(), kind.name());
    let order_fn = match kind {
        FillOrdering::Amd => amd_order,
        _ => nd_order,
    };
    let order = order_fn(n, &csc.col_ptr, &csc.row_idx);
    let mut warm = SparseLu::factor_ordered(&view, &order).expect("factors");
    let (l, u) = warm.nnz();
    eprintln!("  n={n} ({tag}): scalar-{name} fill L+U = {}", l + u);
    group.bench_function(&format!("{name}_order_symbolic"), |b| {
        b.iter(|| order_fn(n, &csc.col_ptr, &csc.row_idx))
    });
    group.bench_function(&format!("scalar_{name}_factor"), |b| {
        b.iter(|| SparseLu::factor_ordered(&view, &order).expect("factors"))
    });
    group.bench_function(&format!("scalar_{name}_refactor"), |b| {
        b.iter(|| warm.refactor(&view).expect("refactors"))
    });
    group.bench_function(&format!("scalar_{name}_cold_factor"), |b| {
        b.iter(|| {
            clear_cache();
            cached_factor(&view, kind)
        })
    });
    // The cold series left this pattern's order in the cache.
    group.bench_function(&format!("scalar_{name}_cached_factor"), |b| {
        b.iter(|| cached_factor(&view, kind))
    });
}

/// The scale tiers: AMD vs ND scalar LU on meshed MNA systems at
/// n ≈ 6.4k–50k.
fn bench_scale(c: &mut Criterion) {
    mems_bench::print_banner(
        "scale tiers",
        "AMD vs nested-dissection scalar LU on large meshed MNA",
    );
    let tiers = vec![
        ("grid3d_10", grid3d_edges(10, 10, 10)),
        ("femquad_40", fem_mesh_edges(40, 40)),
        ("grid_51", grid_edges(51, 51)),
        ("grid_101", grid_edges(101, 101)),
    ];
    for (tag, (nn, edges)) in &tiers {
        let (n, csc) = edges_mna(*nn, edges);
        let mut group = c.benchmark_group(&format!("ordering_lu_n{n}_{tag}"));
        group.sample_size(10);
        for kind in [FillOrdering::Amd, FillOrdering::Nd] {
            bench_ordered_lu(&mut group, tag, &csc, kind);
        }
        group.finish();
    }
}

/// The tiers the ND ordering exists for: 3-D meshes at n ≈ 2·10⁵ and
/// ~10⁶, where minimum degree's ordering time and separator-tree fill
/// both fall behind nested dissection. The AMD ordering is out of
/// reach here (it alone takes ~24 s at n ≈ 2·10⁵ on one core), so the
/// n ≈ 2·10⁵ tier runs the ND series only and the ~10⁶ tier times its
/// ordering alone.
fn bench_scale_tiers(c: &mut Criterion) {
    mems_bench::print_banner(
        "ND scale tiers",
        "nested-dissection scalar LU on a 3-D mesh at n = 2e5, ordering alone at n = 1e6",
    );
    {
        let (nn, edges) = grid3d_edges(31, 31, 31);
        let (n, csc) = edges_mna(nn, &edges);
        let mut group = c.benchmark_group(&format!("ordering_lu_n{n}_grid3d_31"));
        group.sample_size(10);
        bench_ordered_lu(&mut group, "grid3d_31", &csc, FillOrdering::Nd);
        group.finish();
    }
    {
        let (nn, edges) = grid3d_edges(52, 52, 52);
        let (n, csc) = edges_mna(nn, &edges);
        let mut group = c.benchmark_group(&format!("ordering_lu_n{n}_grid3d_52"));
        group.sample_size(10);
        group.bench_function("nd_order_symbolic", |b| {
            b.iter(|| nd_order(n, &csc.col_ptr, &csc.row_idx))
        });
        group.finish();
    }
}

fn bench_grid_deck(c: &mut Criterion) {
    mems_bench::print_banner(
        "grid deck .OP",
        "end-to-end generated grid deck, sparse backend, order=natural vs amd vs nd",
    );
    for order in ["natural", "amd", "nd"] {
        let src = grid_deck_with(
            18,
            19,
            &GridDeckOptions {
                options: format!("sparse=1 order={order}"),
                ac: false,
                tran: false,
                step_points: 0,
            },
        );
        let deck = Deck::parse(&src).expect("grid deck parses");
        run_deck(&deck).expect("grid deck solves"); // sanity, untimed
        let mut group = c.benchmark_group("grid_deck_op_1637unknowns");
        group.sample_size(10);
        group.bench_function(&format!("order_{order}"), |b| {
            b.iter(|| run_deck(&deck).expect("solves"))
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_kernels,
    bench_scale,
    bench_scale_tiers,
    bench_grid_deck
);
criterion_main!(benches);
