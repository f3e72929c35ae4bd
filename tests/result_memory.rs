//! A deck run keeps what the deck prints.
//!
//! `run_elaborated_ctx` records, for each `.TRAN` and `.AC` card, only
//! the unknowns `Deck::print_labels` selects (every unknown when no
//! `.PRINT` matches), so a run's result memory is points × printed
//! columns instead of points × unknowns. A counting global allocator
//! tracks the live-byte high-water mark of a printed run and of the
//! same deck with its `.PRINT` cards cleared, on small generated grid
//! decks. The file holds a single test so no other test thread
//! allocates while it counts.

use mems::netlist::gen::{grid_deck_with, GridDeckOptions};
use mems::netlist::{run_deck, AnalysisOutcome, Deck, DeckRun};
use mems::numerics::Complex64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
            _ => {}
        }
    }
    let (labels, widths) = recorded.unwrap_or_else(|| panic!("no .{kind} outcome"));
    (all.expect("the grid deck has an .OP card"), labels, widths)
}

#[test]
fn runs_keep_only_the_printed_columns() {
    let tran = GridDeckOptions {
        tran: true,
        ..GridDeckOptions::default()
    };
    let ac = GridDeckOptions {
        ac: true,
        ..GridDeckOptions::default()
    };
    // The `.AC` card gets 100 points per decade (301 frequencies), so
    // its result, not the first complex factor, sets the peak.
    let cases = [
        ("tran", grid_deck_with(8, 8, &tran), size_of::<f64>()),
        (
            "ac",
            grid_deck_with(8, 8, &ac).replace(".ac dec 3 10 10k", ".ac dec 100 10 10k"),
            size_of::<Complex64>(),
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
