//! A deck run keeps what the deck prints, and its solver keeps lean
//! storage.
//!
//! `run_elaborated_ctx` records, for each `.TRAN`, `.AC` and `.DC`
//! card, only the unknowns `Deck::print_labels` selects (every unknown
//! when no `.PRINT` matches), so a run's result memory is points ×
//! printed columns instead of points × unknowns. A counting global allocator
//! tracks the live-byte high-water mark of a printed run and of the
//! same deck with its `.PRINT` cards cleared, on small generated grid
//! decks, and the bytes a `RunCtx` keeps after a run. Each test holds
//! [`SERIAL`] while it counts, so no other test thread allocates.

use mems::netlist::gen::{grid_deck, grid_deck_with, GridDeckOptions};
use mems::netlist::{
    run_deck, run_elaborated_ctx, AnalysisOutcome, Deck, DeckRun, Elaborator, ParamEnv, RunCtx,
};
use mems::numerics::Complex64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Held by each test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// [`System`], tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The value `f` returns and the most bytes live above the starting
/// level while it ran (the value itself included).
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let value = f();
    (value, PEAK.load(Ordering::Relaxed) - base)
}

/// Every unknown's label (from the `.OP` outcome, which keeps the
/// whole layout), and the `kind` outcome's labels, row widths and
/// row count.
fn columns(run: &DeckRun, kind: &str) -> (Vec<String>, Vec<String>, Vec<usize>) {
    let mut all = None;
    let mut recorded = None;
    for (card, outcome) in &run.outcomes {
        match outcome {
            AnalysisOutcome::Op(op) => all = Some(op.layout.labels.clone()),
            AnalysisOutcome::Tran(tr) if card.kind_name() == kind => {
                recorded = Some((tr.labels.clone(), tr.samples.iter().map(Vec::len).collect()));
            }
            AnalysisOutcome::Ac(ac) if card.kind_name() == kind => {
                recorded = Some((ac.labels.clone(), ac.data.iter().map(Vec::len).collect()));
            }
            AnalysisOutcome::Dc { result, .. } if card.kind_name() == kind => {
                let widths = result.samples.iter().map(Vec::len).collect();
                recorded = Some((result.labels.clone(), widths));
            }
            _ => {}
        }
    }
    let (labels, widths) = recorded.unwrap_or_else(|| panic!("no .{kind} outcome"));
    (all.expect("the grid deck has an .OP card"), labels, widths)
}

#[test]
fn runs_keep_only_the_printed_columns() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tran = GridDeckOptions {
        tran: true,
        ..GridDeckOptions::default()
    };
    let ac = GridDeckOptions {
        ac: true,
        ..GridDeckOptions::default()
    };
    // The `.AC` card gets 100 points per decade (301 frequencies), so
    // its result, not the first complex factor, sets the peak. The
    // `.DC` card sweeps the drive over 201 values.
    let dc = ".print op v(n7_7)\n.dc vs 0 5 0.025\n.print dc v(n7_7)\n";
    let cases = [
        ("tran", grid_deck_with(8, 8, &tran), size_of::<f64>()),
        (
            "ac",
            grid_deck_with(8, 8, &ac).replace(".ac dec 3 10 10k", ".ac dec 100 10 10k"),
            size_of::<Complex64>(),
        ),
        (
            "dc",
            grid_deck(8, 8).replace(".print op v(n7_7)\n", dc),
            size_of::<f64>(),
        ),
    ];
    for (kind, src, value_size) in cases {
        let printed = Deck::parse(&src).expect("deck parses");
        let mut every = printed.clone();
        every.prints.clear();
        // Fill the machine-wide ordering cache first, so neither
        // measured run pays for its entry.
        drop(run_deck(&printed).expect("deck runs"));

        let (run_printed, peak_printed) = peak_during(|| run_deck(&printed).expect("deck runs"));
        let (run_every, peak_every) = peak_during(|| run_deck(&every).expect("deck runs"));

        let (all, labels, widths) = columns(&run_printed, kind);
        assert_eq!(labels, printed.print_labels(kind, &all), "{kind}");
        assert!(labels.len() < all.len(), "{kind}: the deck prints a subset");
        assert!(widths.iter().all(|&w| w == labels.len()), "{kind}");

        let (all_every, labels_every, widths_every) = columns(&run_every, kind);
        assert_eq!(all_every, all, "{kind}");
        assert_eq!(labels_every, all, "{kind}: without .PRINT, every unknown");
        assert!(widths_every.iter().all(|&w| w == all.len()), "{kind}");

        let rows = widths.len();
        assert_eq!(widths_every.len(), rows, "{kind}");
        let saved = rows * (all.len() - labels.len()) * value_size;
        assert!(
            peak_every.saturating_sub(peak_printed) >= saved / 10 * 9,
            "{kind}: {rows} rows × {} unknowns, {} printed: peak {peak_printed} B printed vs \
             {peak_every} B for every unknown; expected a gap of at least 90% of {saved} B",
            all.len(),
            labels.len(),
        );
    }
}

/// After an `.OP` + `.AC` run of a generated 30×30 grid, the heap its
/// `RunCtx` keeps — the real and complex systems' values, pattern,
/// tape and factors, and the workspace vectors — stays under 50 bytes
/// per stored factor entry (41.3 now). Factors with 32-bit indices,
/// trimmed to their length, cost 12 bytes per real entry and 20 per
/// complex one; with 64-bit indices, growth slack and a coordinate
/// hash map beside each pattern, the same run kept 67.2.
#[test]
fn solver_storage_per_factor_entry_stays_lean() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ac = GridDeckOptions {
        ac: true,
        ..GridDeckOptions::default()
    };
    let deck = Deck::parse(&grid_deck_with(30, 30, &ac)).expect("deck parses");
    let elab = Elaborator::new(&deck).expect("deck elaborates");
    let overrides = ParamEnv::default();
    // Fill the machine-wide ordering cache first, so the measured
    // context shares its orders instead of adding entries.
    drop(run_elaborated_ctx(&elab, &overrides, &mut RunCtx::default()).expect("deck runs"));

    let base = LIVE.load(Ordering::Relaxed);
    let mut ctx = RunCtx::default();
    drop(run_elaborated_ctx(&elab, &overrides, &mut ctx).expect("deck runs"));
    let kept = LIVE.load(Ordering::Relaxed) - base;
    let systems = ctx.solver_snapshot();
    assert_eq!(
        systems.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
        ["real", "ac"]
    );
    let entries: usize = systems.iter().map(|(_, st)| st.factor_nnz).sum();
    let per_entry = kept as f64 / entries as f64;
    assert!(
        per_entry < 50.0,
        "the context keeps {kept} B for {entries} factor entries: {per_entry:.1} B each; {systems:?}"
    );
    drop(ctx);
}
