//! DC parameter sweeps.
//!
//! The caller builds the circuit for each sweep value; each point is
//! warm-started from the previous solution.

use crate::circuit::Circuit;
use crate::error::Result;
use crate::output::OpSolution;
use crate::solver::{SimOptions, Workspace};

/// Result of a DC sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Swept parameter values.
    pub values: Vec<f64>,
    /// Operating point per value.
    pub points: Vec<OpSolution>,
}

impl SweepResult {
    /// Extracts one unknown (by label) across the sweep.
    pub fn trace(&self, label: &str) -> Option<Vec<f64>> {
        self.points
            .iter()
            .map(|op| op.by_label(label))
            .collect::<Option<Vec<f64>>>()
    }
}

/// Runs a DC sweep: `build(value)` constructs the circuit for each
/// point, and the operating point is solved per point.
///
/// # Errors
///
/// Propagates build and convergence failures (the failing sweep value
/// is included in the error detail).
pub fn dc_sweep(
    build: impl FnMut(f64) -> Result<Circuit>,
    values: &[f64],
    sim: &SimOptions,
) -> Result<SweepResult> {
    let mut ws = Workspace::new(0);
    dc_sweep_in(build, values, sim, &mut ws)
}

/// [`dc_sweep`] over a caller-owned [`Workspace`]: besides the
/// warm-start, every point shares one assembly workspace (and, on the
/// sparse backend, one symbolic factorization — the rebuilt circuits
/// have identical topology).
///
/// # Errors
///
/// As [`dc_sweep`].
pub fn dc_sweep_in(
    mut build: impl FnMut(f64) -> Result<Circuit>,
    values: &[f64],
    sim: &SimOptions,
    ws: &mut Workspace,
) -> Result<SweepResult> {
    let mut result = SweepResult {
        values: values.to_vec(),
        points: Vec::with_capacity(values.len()),
    };
    let mut prev: Option<Vec<f64>> = None;
    for &v in values {
        let mut ckt = build(v)?;
        let op = super::dcop::solve_in(&mut ckt, sim, prev.as_deref(), ws).map_err(|e| {
            crate::error::SpiceError::NoConvergence {
                analysis: format!("dc sweep at value {v}"),
                detail: e.to_string(),
            }
        })?;
        prev = Some(op.x.clone());
        result.points.push(op);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::controlled::ProductVccs;
    use crate::devices::passive::Resistor;
    use crate::devices::sources::VoltageSource;
    use crate::wave::Waveform;

    /// A strongly nonlinear one-node circuit: source → resistor →
    /// node loaded by a quadratic sink `i = k·v(out)²`.
    fn quadratic_circuit(v: f64) -> crate::error::Result<Circuit> {
        let mut c = Circuit::new();
        let a = c.enode("a")?;
        let out = c.enode("out")?;
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(v)))?;
        c.add(Resistor::new("r1", a, out, 1.0))?;
        c.add(Resistor::new("rleak", out, g, 1e6))?;
        c.add(ProductVccs::new("q1", out, g, out, g, out, g, 2.0))?;
        Ok(c)
    }

    /// Analytic solution of v + 2·v² ·1 = vs (ignoring the 1 MΩ leak):
    /// the stable root of 2v² + v − vs = 0.
    fn quadratic_expect(vs: f64) -> f64 {
        (-1.0 + (1.0 + 8.0 * vs).sqrt()) / 4.0
    }

    #[test]
    fn warm_start_reuses_previous_point() {
        let values: Vec<f64> = (0..21).map(|i| i as f64 * 0.5).collect();
        let sim = SimOptions::default();
        let result = dc_sweep(quadratic_circuit, &values, &sim).unwrap();

        // Solutions are right regardless of starting point.
        let out = result.trace("v(out)").unwrap();
        for (vs, v) in values.iter().zip(&out) {
            assert!(
                (v - quadratic_expect(*vs)).abs() < 1e-5,
                "vs {vs}: {v} vs {}",
                quadratic_expect(*vs)
            );
        }

        // Warm starting must not cost more Newton iterations than
        // cold-starting every point — and on this quadratic it is
        // strictly cheaper overall.
        let warm_total: usize = result.points.iter().map(|p| p.iterations).sum();
        let cold_total: usize = values
            .iter()
            .map(|&v| {
                let mut c = quadratic_circuit(v).unwrap();
                super::super::dcop::solve(&mut c, &sim).unwrap().iterations
            })
            .sum();
        assert!(
            warm_total < cold_total,
            "warm {warm_total} vs cold {cold_total}"
        );

        // Warm-started points match the cold solutions exactly (same
        // converged solution, not a drifted one).
        for (&v, p) in values.iter().zip(&result.points) {
            let mut c = quadratic_circuit(v).unwrap();
            let cold = super::super::dcop::solve(&mut c, &sim).unwrap();
            let a = p.by_label("v(out)").unwrap();
            let b = cold.by_label("v(out)").unwrap();
            assert!((a - b).abs() < 1e-9, "vs {v}: warm {a} vs cold {b}");
        }
    }

    #[test]
    fn warm_start_guess_of_wrong_length_is_ignored() {
        let mut c = quadratic_circuit(2.0).unwrap();
        let sim = SimOptions::default();
        let bad_guess = vec![1.0; 99];
        let op = super::super::dcop::solve_from(&mut c, &sim, Some(&bad_guess)).unwrap();
        assert!((op.by_label("v(out)").unwrap() - quadratic_expect(2.0)).abs() < 1e-5);
    }

    #[test]
    fn trace_with_missing_label_is_none() {
        let result = dc_sweep(
            |v| {
                let mut c = Circuit::new();
                let a = c.enode("a")?;
                let g = c.ground();
                c.add(VoltageSource::new("v1", a, g, Waveform::Dc(v)))?;
                c.add(Resistor::new("r1", a, g, 1e3))?;
                Ok(c)
            },
            &[1.0, 2.0],
            &SimOptions::default(),
        )
        .unwrap();
        assert!(result.trace("v(a)").is_some());
        assert!(result.trace("v(nope)").is_none());
        assert!(result.trace("").is_none());
        // An empty sweep yields empty traces, not None.
        let empty = SweepResult {
            values: vec![],
            points: vec![],
        };
        assert_eq!(empty.trace("v(a)"), Some(vec![]));
    }

    #[test]
    fn sweeps_a_divider() {
        let result = dc_sweep(
            |v| {
                let mut c = Circuit::new();
                let a = c.enode("a")?;
                let b = c.enode("b")?;
                let g = c.ground();
                c.add(VoltageSource::new("v1", a, g, Waveform::Dc(v)))?;
                c.add(Resistor::new("r1", a, b, 1e3))?;
                c.add(Resistor::new("r2", b, g, 1e3))?;
                Ok(c)
            },
            &[0.0, 1.0, 2.0, 5.0],
            &SimOptions::default(),
        )
        .unwrap();
        let vb = result.trace("v(b)").unwrap();
        assert_eq!(vb.len(), 4);
        for (v, expect) in vb.iter().zip(&[0.0, 0.5, 1.0, 2.5]) {
            assert!((v - expect).abs() < 1e-6);
        }
    }
}
