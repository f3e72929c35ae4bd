//! Figure 6 reproduction: PXT extracting the electrostatic force from
//! a finite-element field solution, validating against the analytic
//! Table 3 force, then generating and round-trip-verifying an HDL-A
//! model.

use crate::transducers::TransverseElectrostatic;
use mems_pxt::codegen::poly::generate_poly_capacitance_model;
use mems_pxt::recipes::{capacitance_vs_displacement, PlateGapDut};
use mems_pxt::verify::verify_static_force;
use mems_pxt::Result;

/// Results of the Fig. 6 workflow.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// FE-extracted force at `(10 V, x = 0)` \[N\].
    pub force_fe: f64,
    /// Analytic Table 3 force at the same point \[N\].
    pub force_analytic: f64,
    /// Relative FE-vs-analytic error.
    pub force_rel_error: f64,
    /// Fit error of the generated `C(x)` polynomial model.
    pub cap_fit_error: f64,
    /// Worst force error of the generated model against the analytic
    /// transducer over the verification samples.
    pub roundtrip_error: f64,
    /// The generated HDL-A source.
    pub generated_source: String,
}

/// Runs the Fig. 6 workflow on the Table 4 device.
///
/// # Errors
///
/// Propagates FE, fitting and verification failures.
pub fn run() -> Result<Fig6Result> {
    let dut = PlateGapDut::table4();
    let analytic = TransverseElectrostatic::table4();

    // Step 1 (the figure itself): FE force at 10 V, x = 0.
    let force_fe = dut.force(10.0, 0.0)?;
    let force_analytic = analytic.force(10.0, 0.0);
    let force_rel_error = (force_fe - force_analytic).abs() / force_analytic.abs();

    // Step 2: "By repeating this procedure for different voltages and
    // displacements, a behavioral model is generated."
    let displacements: Vec<f64> = (0..9).map(|i| -2e-5 + 1e-5 * i as f64).collect();
    let cap = capacitance_vs_displacement(&dut, &displacements)?;
    let model = generate_poly_capacitance_model("pxtgen", &cap, 4, 1e-4)?;

    // Step 3: round-trip verification against the analytic transducer.
    let samples: Vec<(f64, f64, f64)> = [(5.0, 0.0), (10.0, 1e-5), (15.0, -1e-5)]
        .iter()
        .map(|&(v, x)| (v, x, analytic.force(v, x)))
        .collect();
    let roundtrip_error = verify_static_force(&model.source, "pxtgen", &samples)?;

    Ok(Fig6Result {
        force_fe,
        force_analytic,
        force_rel_error,
        cap_fit_error: model.max_rel_error,
        roundtrip_error,
        generated_source: model.source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_force_extraction_matches_table3() {
        let r = run().unwrap();
        // "the fringe field was not modeled" → the uniform-gap FE
        // solution reproduces the analytic force almost exactly.
        assert!(
            r.force_rel_error < 1e-6,
            "FE force error {}",
            r.force_rel_error
        );
        assert!((r.force_analytic + 1.9676e-6).abs() < 1e-9);
        assert!(r.cap_fit_error < 1e-4);
        assert!(r.roundtrip_error < 5e-3, "roundtrip {}", r.roundtrip_error);
        assert!(r.generated_source.contains("ENTITY pxtgen"));
    }
}
