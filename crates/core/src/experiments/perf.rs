//! The paper's performance observation: "The drawback is a strong
//! penalty in simulation performance (a factor of 10 was observed)"
//! for behavioral HDL models versus native equivalent-circuit
//! elements.
//!
//! This experiment times the same Fig. 3 transient with (a) the
//! interpreted behavioral HDL-A transducer and (b) the native
//! linearized equivalent circuit, under identical fixed-step
//! trapezoidal integration so both do the same number of steps.

use crate::energy::ElectricalStyle;
use crate::system::{TransducerResonatorSystem, TransducerVariant};
use crate::transducers::LinearizedKind;
use mems_spice::analysis::transient::{run, TranOptions};
use mems_spice::solver::SimOptions;
use mems_spice::Result;
use std::time::Instant;

/// Timing results.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Wall time of the behavioral-model run \[s\].
    pub behavioral_seconds: f64,
    /// Wall time of the native equivalent-circuit run \[s\].
    pub native_seconds: f64,
    /// Slowdown factor (paper observed ≈ 10).
    pub slowdown: f64,
    /// Accepted steps (identical for both by construction).
    pub steps: usize,
}

/// Runs the comparison: `repeats` timed transients per variant over
/// `t_stop` with a fixed step `h`.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run_comparison(t_stop: f64, h: f64, repeats: usize) -> Result<PerfResult> {
    let sys = TransducerResonatorSystem::table4(TransducerResonatorSystem::fig5_pulse(10.0));
    let sim = SimOptions::default();
    let opts = TranOptions::fixed_step(t_stop, h);

    // Warm-up + build outside the timed region.
    let mut behavioral_seconds = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..repeats {
        let mut ckt = sys.build(TransducerVariant::Behavioral(ElectricalStyle::PaperStyle))?;
        let start = Instant::now();
        let res = run(&mut ckt, &opts, &sim)?;
        behavioral_seconds = behavioral_seconds.min(start.elapsed().as_secs_f64());
        steps = res.time.len();
    }
    let mut native_seconds = f64::INFINITY;
    for _ in 0..repeats {
        let mut ckt = sys.build(TransducerVariant::Linearized(LinearizedKind::Secant))?;
        let start = Instant::now();
        run(&mut ckt, &opts, &sim)?;
        native_seconds = native_seconds.min(start.elapsed().as_secs_f64());
    }
    Ok(PerfResult {
        behavioral_seconds,
        native_seconds,
        slowdown: behavioral_seconds / native_seconds,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavioral_model_is_slower_than_native() {
        // A short run is enough to see the interpretation overhead.
        let r = run_comparison(10e-3, 10e-6, 2).unwrap();
        assert!(r.steps > 500);
        assert!(
            r.slowdown > 1.2,
            "behavioral {} s vs native {} s (x{:.1})",
            r.behavioral_seconds,
            r.native_seconds,
            r.slowdown
        );
    }
}
