//! A steady-state Newton iteration makes no heap allocation, and a
//! warm transient step allocates only its recorded row.
//!
//! Once the sparse pattern, stamp tape and symbolic factorization (or
//! the dense factor storage) are warm, one `assemble → factor →
//! solve_into` cycle must run without touching the allocator on
//! either backend, and `transient::run_in` may grow its allocations by
//! at most one per accepted step. A counting global allocator checks
//! both; each test holds [`SERIAL`] while it counts, so no other test
//! thread allocates. On the dense backend the warm cycles read no
//! clock either: `last_factor_us` keeps the cold factor's time.

use mems::netlist::elab::sim_options;
use mems::netlist::gen::{grid_deck_with, GridDeckOptions};
use mems::netlist::{Deck, Elaborator, ParamEnv};
use mems::numerics::ode::IntegrationMethod;
use mems::spice::analysis::dcop;
use mems::spice::analysis::transient::{run_in, TranOptions};
use mems::spice::device::LoadKind;
use mems::spice::output::Record;
use mems::spice::solver::{assemble, Workspace};
use mems::spice::MatrixBackend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Held by each test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

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

fn grid_tran_deck() -> String {
    grid_deck_with(
        25,
        25,
        &GridDeckOptions {
            tran: true,
            ..Default::default()
        },
    )
}

fn resonator_deck() -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/decks/resonator_step.cir");
    std::fs::read_to_string(&path).expect("shipped deck")
}

#[test]
fn warm_newton_cycles_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        steady_state_allocations(&grid_tran_deck(), MatrixBackend::Sparse),
        0
    );
    assert_eq!(
        steady_state_allocations(&resonator_deck(), MatrixBackend::Dense),
        0
    );
}

/// Asserts that a warm `transient::run_in` on `src`'s circuit, with
/// `.TRAN tstep` steps, allocates at most one block per accepted step
/// beyond a horizon-independent cost. It runs to `horizons[1]` once to
/// warm one workspace, then counts runs to both horizons on it: their
/// difference may be the extra recorded rows, plus the reallocations
/// of the growing `time` and `samples` vectors (at most one per
/// doubling each).
fn assert_one_allocation_per_step(
    src: &str,
    tstep: f64,
    horizons: [f64; 2],
    backend: MatrixBackend,
) {
    let deck = Deck::parse(src).expect("deck parses");
    let elab = Elaborator::new(&deck).expect("deck elaborates");
    let (mut ckt, env) = elab.build(&ParamEnv::new(), None).expect("circuit builds");
    let sim = sim_options(&deck, &env).expect("options");
    let opts = |t_stop: f64| TranOptions {
        h_init: Some(tstep),
        h_max: Some(tstep),
        record: Record::Unknowns(vec![0]),
        ..TranOptions::new(t_stop)
    };
    let mut ws = Workspace::new(0);
    run_in(&mut ckt, &opts(horizons[1]), &sim, None, &mut ws).expect("warm-up run");
    assert_eq!(ws.sys.backend(), backend);
    let mut counted = |t_stop: f64| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let res = run_in(&mut ckt, &opts(t_stop), &sim, None, &mut ws).expect("run");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, res.time.len() - 1)
    };
    let (short, short_steps) = counted(horizons[0]);
    let (long, long_steps) = counted(horizons[1]);
    let steps = long_steps - short_steps;
    assert!(steps > 100, "{short_steps} → {long_steps} steps");
    let regrowth = 2 * (usize::BITS - long_steps.leading_zeros()) as usize;
    assert!(
        long - short <= steps + regrowth,
        "{} more allocations for {steps} more steps ({short} for {short_steps} steps, \
         {long} for {long_steps})",
        long - short
    );
}

#[test]
fn warm_transient_steps_allocate_only_their_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_one_allocation_per_step(
        &resonator_deck(),
        0.5e-3,
        [20e-3, 40e-3],
        MatrixBackend::Dense,
    );
    assert_one_allocation_per_step(
        &grid_tran_deck(),
        0.2e-3,
        [1e-3, 2e-3],
        MatrixBackend::Sparse,
    );
}
