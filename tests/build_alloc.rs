//! Names are resolved once per deck, not once per circuit.
//!
//! `Elaborator::new` interns every flattened node name and instance
//! path; `Elaborator::build` then makes a circuit that shares them, so
//! it allocates little more than the devices themselves. A counting
//! global allocator bounds both phases per device on the generated
//! 25×25 grid deck (8,403 devices, most inside 1,200 `.SUBCKT`
//! instances). The file holds a single test so no other test thread
//! allocates while it counts.

use mems::netlist::gen::{grid_deck_with, GridDeckOptions};
use mems::netlist::{Deck, Elaborator, ParamEnv};
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

/// The value and the allocations `f` made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn names_are_resolved_once_per_deck() {
    let opts = GridDeckOptions {
        tran: true,
        ..GridDeckOptions::default()
    };
    let src = grid_deck_with(25, 25, &opts);
    let deck = Deck::parse(&src).expect("deck parses");
    let (elab, new_allocs) = counted(|| Elaborator::new(&deck).expect("deck elaborates"));
    let (built, build_allocs) = counted(|| elab.build(&ParamEnv::new(), None));
    let (ckt, _) = built.expect("circuit builds");
    let devices = ckt.devices().len();
    assert_eq!(devices, 8_403);
    let per_device = |allocs: usize| allocs as f64 / devices as f64;
    assert!(
        per_device(build_allocs) <= 2.0,
        "Elaborator::build: {build_allocs} allocations for {devices} devices"
    );
    assert!(
        per_device(new_allocs) <= 3.0,
        "Elaborator::new: {new_allocs} allocations for {devices} devices"
    );
}
