//! Analyses: DC operating point, transient, AC, DC sweep.

pub mod ac;
pub mod dcop;
pub mod sweep;
pub mod transient;

/// Most points one analysis may produce or visit: output points of an
/// analysis card and points of a `.STEP`/`.MC` batch, counted before
/// anything is allocated, and the waveform breakpoints one transient
/// snaps to (see [`Waveform::breakpoints`](crate::wave::Waveform::breakpoints)).
/// A run asking for more is refused with an error rather than
/// exhausting memory.
pub const MAX_POINTS: usize = 1_000_000;
