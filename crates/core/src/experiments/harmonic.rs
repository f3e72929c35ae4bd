//! The §PXT harmonic workflow: harmonic FE analysis of a cantilever,
//! rational-function fit ("a polynomial filter is fitted"), data-flow
//! HDL-A model generation, and AC round-trip verification in the
//! circuit simulator.

use mems_fem::beam::CantileverBeam;
use mems_fem::FrequencyResponse;
use mems_numerics::Complex64;
use mems_pxt::codegen::dataflow::generate_dataflow_model;
use mems_pxt::verify::verify_admittance_ac;
use mems_pxt::{fit_rational, stabilize, PxtError, Result};

/// Results of the harmonic extraction workflow.
#[derive(Debug, Clone)]
pub struct HarmonicResult {
    /// First natural frequency of the beam \[Hz\].
    pub f1: f64,
    /// Rational-fit relative error over the sampled response.
    pub fit_error: f64,
    /// AC verification error of the generated model in the simulator.
    pub ac_roundtrip_error: f64,
    /// Fitted model order.
    pub order: usize,
    /// Generated HDL-A source.
    pub generated_source: String,
}

/// Runs the workflow on a silicon cantilever.
///
/// # Errors
///
/// Propagates FE, fitting and verification failures.
pub fn run() -> Result<HarmonicResult> {
    // 500 µm silicon cantilever with light damping.
    let length = 500e-6_f64;
    let width = 50e-6_f64;
    let thickness = 5e-6_f64;
    let youngs = 169e9_f64;
    let rho = 2329.0_f64;
    let inertia = width * thickness.powi(3) / 12.0;
    let undamped = CantileverBeam::new(length, youngs, inertia, rho * width * thickness, 10);
    let f1 = undamped.natural_frequencies(1).map_err(PxtError::from)?[0];
    // Set mass-proportional Rayleigh damping for ζ₁ ≈ 0.1 (a gentle
    // Q ≈ 5 peak that a modest frequency grid resolves well).
    let w1 = 2.0 * std::f64::consts::PI * f1;
    let beam = undamped.with_rayleigh_damping(0.2 * w1, 0.0);

    // Harmonic FE sweep around the first mode (linear, well below the
    // second mode at ≈ 6.27·f1).
    let freqs: Vec<f64> = (0..60)
        .map(|i| f1 * (0.2 + 1.8 * i as f64 / 59.0))
        .collect();
    let h = beam.harmonic_tip_response(&freqs).map_err(PxtError::from)?;
    let response = FrequencyResponse::new(freqs.clone(), h);

    // Fit a second-order rational function; the degree-2 numerator
    // absorbs the quasi-static contribution of the higher modes.
    let fit = fit_rational(&response, 2, 2)?;
    let fit = stabilize(&fit, &response)?;

    // Generate the data-flow model and verify it by AC analysis.
    let model = generate_dataflow_model("beamtf", &fit)?;
    let reference: Vec<Complex64> = freqs.iter().map(|&f| fit.eval(f)).collect();
    let ac_roundtrip_error = verify_admittance_ac(&model.source, "beamtf", &freqs, &reference)?;

    Ok(HarmonicResult {
        f1,
        fit_error: fit.max_rel_error,
        ac_roundtrip_error,
        order: model.order,
        generated_source: model.source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_workflow_round_trips() {
        let r = run().unwrap();
        assert!(r.f1 > 1e3, "f1 = {}", r.f1);
        assert_eq!(r.order, 2);
        // Single mode dominates near resonance: the fit is tight.
        assert!(r.fit_error < 0.05, "fit error {}", r.fit_error);
        // The generated model reproduces the fitted response in AC.
        assert!(
            r.ac_roundtrip_error < 1e-6,
            "AC roundtrip {}",
            r.ac_roundtrip_error
        );
        assert!(r.generated_source.contains("UNKNOWN x1, x2"));
    }
}
