//! # mems-netlist — SPICE-deck frontend and batch scenario runner
//!
//! The paper's premise is that "SPICE simulators may be used as lumped
//! parameter analog solvers" for electromechanical transducers — and a
//! SPICE simulator is *driven by decks*. This crate turns the
//! `mems-spice` library into a tool: a deck parser with spanned
//! diagnostics, an elaborator lowering decks to
//! [`mems_spice::Circuit`]s, analysis dispatch, and a parallel
//! `.STEP`/`.MC` batch engine with deterministic seeded sampling.
//!
//! ## Deck format
//!
//! Line-oriented SPICE style: first line is the title, `*` comments,
//! `;` trailing comments, `+` continuations, `.END` stops parsing.
//! Values take SPICE magnitude suffixes (`1k`, `10MEG`, `2.5u`) and
//! `{…}` parameter expressions.
//!
//! Device cards (letters are case-insensitive):
//!
//! | card | device |
//! |------|--------|
//! | `Rxx a b v` / `Cxx` / `Lxx` | resistor / capacitor / inductor |
//! | `Vxx a b <wave>` / `Ixx` | sources (`DC`, `PULSE`, `SIN`, `PWL`, `EXP`; optional `AC mag [phase]`) |
//! | `Exx`/`Gxx`/`Fxx`/`Hxx o+ o− c+ c− g` | the four controlled sources |
//! | `Bxx o+ o− c1+ c1− c2+ c2− k` | product source `i = k·v1·v2` |
//! | `Mxx v 0 m` / `Kxx` / `Dxx` | mass / spring / damper (mechanical sugar; nodes default to `mechanical1`) |
//! | `Txx p1 n1 p2 n2 n` / `Yxx … g` | ideal transformer / gyrator |
//! | `Xxx n1 … callee [p=v …]` | subcircuit or HDL-A entity instance |
//!
//! Dot cards: `.PARAM name=expr`, `.NODE <nature> n…` (typed
//! multi-nature nodes), `.SUBCKT`/`.ENDS` (hierarchical definitions,
//! below), `.HDL`/`.ENDHDL` (inline HDL-A source), `.INCLUDE "file"`
//! (HDL-A source *or* a deck-fragment library from disk), `.OP`,
//! `.DC`, `.AC`, `.TRAN`, `.PRINT`, `.OPTIONS`, `.STEP`, `.MC`,
//! `.END`.
//!
//! ## Hierarchy: `.SUBCKT` / `.ENDS`
//!
//! ```text
//! .SUBCKT cell drive vel PARAMS: m=1e-4 k=200
//! Rs drive mid 10          ; `mid` is private: flattens to x1.mid
//! Kk vel 0 {k}             ; flattens to x1.kk
//! .param kk2={k*2}         ; local .PARAM, shadows any outer `kk2`
//! .ENDS cell
//! X1 in v1 cell k=250      ; named overrides; `in`/`v1` bind the ports
//! ```
//!
//! An `X` card is a unified call: positional nodes, then named
//! parameter overrides. The callee resolves to a `.SUBCKT` definition
//! first, else to an HDL-A entity. Subcircuits flatten recursively
//! (cycles, port-arity mismatches, and unknown parameter names are
//! spanned diagnostics) with per-instance **parameter scopes**:
//! formals (call-site args evaluated in the caller's scope; defaults
//! in the instance scope) and body `.PARAM`s shadow outer names,
//! while unshadowed outer parameters stay visible. Ground (`0`/`gnd`)
//! is shared; every other body node is private per instance and
//! surfaces as `x1.mid` — addressable from `.PRINT`, probes, and CSV/
//! JSON reports. `.STEP`/`.MC`/`.DC PARAM` accept hierarchical
//! parameter paths (`x1.k`, `x1.xleg.gap`) and `.DC` sweeps sources
//! by path (`x1.vs`); the hierarchy is flattened once per batch and
//! every point builds its circuit from that flattening.
//!
//! `.SUBCKT` definitions (nested ones included) are hoisted into one
//! global, duplicate-checked table. `.INCLUDE` accepts library
//! fragments — files whose first card is a dot card — holding
//! `.SUBCKT`/`.PARAM`/`.HDL` cards; fragments are spliced into the
//! deck's virtual source, so their diagnostics carry real excerpts.
//!
//! ## Example
//!
//! ```
//! use mems_netlist::{Deck, run_deck, AnalysisOutcome};
//!
//! # fn main() -> mems_netlist::Result<()> {
//! let deck = Deck::parse(
//!     "paper fig. 3 resonator\n\
//!      .param k=200 m=1e-4 alpha=40e-3\n\
//!      Is 0 vel PWL(0 0 0.1m 1u)   ; 1 uN step force\n\
//!      Mm1 vel 0 {m}\n\
//!      Kk1 vel 0 {k}\n\
//!      Dd1 vel 0 {alpha}\n\
//!      .tran 0.5m 50m\n\
//!      .print tran v(vel)\n",
//! )?;
//! let run = run_deck(&deck)?;
//! match &run.outcomes[0].1 {
//!     AnalysisOutcome::Tran(tr) => {
//!         let x = tr.integrated_trace("v(vel)", 0.0).unwrap();
//!         assert!((x.last().unwrap() - 5e-9).abs() < 1e-9); // F/k
//!     }
//!     _ => unreachable!(),
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The batch engine ([`run_batch`]) expands `.STEP` sweeps and `.MC`
//! Monte Carlo into a point list and runs points across worker
//! threads — the deck is flattened once per batch, every worker
//! borrows that flattening and builds each point's circuit fresh,
//! keeping its own solver workspace warm, and every point runs through
//! [`run_points`]; sampling is keyed on `(seed, point, variable)` so
//! results are independent of thread count.

pub mod ast;
pub mod batch;
pub mod elab;
pub mod error;
pub mod expr;
pub mod gen;
pub mod parser;
pub mod report;
pub mod token;

pub use ast::{AnalysisCard, Deck, DeviceCard};
pub use batch::{
    batch_points, batch_points_with, extract_metrics, run_batch, run_points, warm_start_chain,
    BatchOptions, BatchPoint, BatchResult, CancelToken, Metric, PointResult, CANCELLED_POINT,
};
pub use elab::{
    deck_fingerprint, run_deck, run_deck_with, run_elaborated, run_elaborated_ctx, AnalysisOutcome,
    DeckRun, Elaborator, ParamEnv, RunCtx, RunStats,
};
pub use error::{NetlistError, Result};
pub use mems_spice::system::SolverStats;
pub use parser::{FsResolver, IncludeResolver, NoIncludes};
