//! A steady-state Newton iteration makes no heap allocation.
//!
//! Once the sparse pattern, stamp tape and symbolic factorization (or
//! the dense factor storage) are warm, one `assemble → factor →
//! solve_into` cycle must run without touching the allocator on
//! either backend. A counting global allocator checks it; the file
//! holds a single test so no other test thread allocates while it
//! counts. On the dense backend the warm cycles read no clock either:
//! `last_factor_us` keeps the cold factor's time.

use mems::netlist::elab::sim_options;
use mems::netlist::gen::{grid_deck_with, GridDeckOptions};
use mems::netlist::{Deck, Elaborator, ParamEnv};
use mems::numerics::ode::IntegrationMethod;
use mems::spice::analysis::dcop;
use mems::spice::device::LoadKind;
use mems::spice::solver::{assemble, Workspace};
use mems::spice::MatrixBackend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by 100 warm Newton cycles on `src`'s circuit,
/// after asserting it runs on `backend`.
fn steady_state_allocations(src: &str, backend: MatrixBackend) -> usize {
    let deck = Deck::parse(src).expect("deck parses");
    let elab = Elaborator::new(&deck).expect("deck elaborates");
    let (mut ckt, env) = elab.build(&ParamEnv::new(), None).expect("circuit builds");
    let sim = sim_options(&deck, &env).expect("options");
    let op = dcop::solve(&mut ckt, &sim).expect("operating point");
    let layout = op.layout;
    let n = layout.n_unknowns;
    let mut ws = Workspace::new(n);
    ws.ensure(n, sim.matrix, sim.ordering);
    assert_eq!(ws.sys.backend(), backend);
    let kind = LoadKind::Transient {
        t: 1e-4,
        h: 1e-5,
        method: IntegrationMethod::Trapezoidal,
    };
    let rhs = vec![1.0; n];
    let mut dx = vec![0.0; n];
    let mut cycle = |ws: &mut Workspace| {
        assemble(&mut ckt, &layout, kind, sim.gmin, &op.x, ws).expect("assembles");
        ws.sys.factor().expect("factors");
        ws.sys.solve_into(&rhs, &mut dx).expect("solves");
    };
    let cold = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2 {
        cycle(&mut ws);
    }
    let cold_factor_us = ws.sys.solver_stats().last_factor_us;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > cold, "the cold cycle's allocations are counted");
    for _ in 0..100 {
        cycle(&mut ws);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let st = ws.sys.solver_stats();
    assert_eq!(st.factors + st.refactors, 102, "{st:?}");
    if backend == MatrixBackend::Dense {
        assert_eq!(
            st.last_factor_us, cold_factor_us,
            "warm dense factors are counted, not timed"
        );
    }
    allocations
}

#[test]
fn warm_newton_cycles_do_not_allocate() {
    let grid = grid_deck_with(
        25,
        25,
        &GridDeckOptions {
            tran: true,
            ..Default::default()
        },
    );
    assert_eq!(steady_state_allocations(&grid, MatrixBackend::Sparse), 0);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/decks/resonator_step.cir");
    let resonator = std::fs::read_to_string(&path).expect("shipped deck");
    assert_eq!(
        steady_state_allocations(&resonator, MatrixBackend::Dense),
        0
    );
}
