//! Euler–Bernoulli beam finite elements: static deflection, natural
//! frequencies, and damped harmonic response.
//!
//! This is the structural half of the "ANSYS substitute": the paper's
//! PXT builds data-flow models by fitting a polynomial filter to a
//! *harmonic FE analysis* — a cantilever beam gives a frequency
//! response with exact analytic reference values for validation.

use mems_numerics::dense::DenseMatrix;
use mems_numerics::lu::LuFactors;
use mems_numerics::{Complex64, NumericsError, Result};

/// A prismatic cantilever discretized into equal Euler–Bernoulli
/// elements (2 nodes × 2 DOFs: deflection `w`, rotation `θ`).
#[derive(Debug, Clone)]
pub struct CantileverBeam {
    /// Beam length \[m\].
    pub length: f64,
    /// Young's modulus \[Pa\].
    pub youngs: f64,
    /// Second moment of area \[m⁴\].
    pub inertia: f64,
    /// Mass per unit length [kg/m].
    pub mass_per_length: f64,
    /// Number of elements.
    pub n_elems: usize,
    /// Rayleigh damping `C = a·M + b·K`.
    pub rayleigh: (f64, f64),
}

impl CantileverBeam {
    /// Creates a rectangular-section silicon-like cantilever.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn new(
        length: f64,
        youngs: f64,
        inertia: f64,
        mass_per_length: f64,
        n_elems: usize,
    ) -> Self {
        assert!(
            length > 0.0 && youngs > 0.0 && inertia > 0.0 && mass_per_length > 0.0,
            "beam parameters must be positive"
        );
        assert!(n_elems >= 1, "need at least one element");
        CantileverBeam {
            length,
            youngs,
            inertia,
            mass_per_length,
            n_elems,
            rayleigh: (0.0, 0.0),
        }
    }

    /// Sets Rayleigh damping coefficients `C = a·M + b·K`.
    pub fn with_rayleigh_damping(mut self, a: f64, b: f64) -> Self {
        self.rayleigh = (a, b);
        self
    }

    /// Number of free DOFs (clamped root eliminated).
    pub fn n_dofs(&self) -> usize {
        2 * self.n_elems
    }

    /// Index of the tip deflection DOF in the reduced system.
    pub fn tip_dof(&self) -> usize {
        self.n_dofs() - 2
    }

    fn element_matrices(&self) -> ([[f64; 4]; 4], [[f64; 4]; 4]) {
        let l = self.length / self.n_elems as f64;
        let ei = self.youngs * self.inertia;
        let k = ei / (l * l * l);
        let ke = [
            [12.0 * k, 6.0 * l * k, -12.0 * k, 6.0 * l * k],
            [6.0 * l * k, 4.0 * l * l * k, -6.0 * l * k, 2.0 * l * l * k],
            [-12.0 * k, -6.0 * l * k, 12.0 * k, -6.0 * l * k],
            [6.0 * l * k, 2.0 * l * l * k, -6.0 * l * k, 4.0 * l * l * k],
        ];
        let m = self.mass_per_length * l / 420.0;
        let me = [
            [156.0 * m, 22.0 * l * m, 54.0 * m, -13.0 * l * m],
            [
                22.0 * l * m,
                4.0 * l * l * m,
                13.0 * l * m,
                -3.0 * l * l * m,
            ],
            [54.0 * m, 13.0 * l * m, 156.0 * m, -22.0 * l * m],
            [
                -13.0 * l * m,
                -3.0 * l * l * m,
                -22.0 * l * m,
                4.0 * l * l * m,
            ],
        ];
        (ke, me)
    }

    /// Assembles the reduced (clamped) stiffness and mass matrices.
    pub fn assemble(&self) -> (DenseMatrix<f64>, DenseMatrix<f64>) {
        let n = self.n_dofs();
        let mut kg = DenseMatrix::zeros(n, n);
        let mut mg = DenseMatrix::zeros(n, n);
        let (ke, me) = self.element_matrices();
        for e in 0..self.n_elems {
            // Global DOFs of the element: node e (w, θ), node e+1.
            // Node 0 is clamped; its DOFs are dropped (index < 0).
            let gdof = |local: usize| -> Option<usize> {
                let node = e + local / 2;
                if node == 0 {
                    None
                } else {
                    Some(2 * (node - 1) + local % 2)
                }
            };
            for a in 0..4 {
                let Some(ra) = gdof(a) else { continue };
                for b in 0..4 {
                    let Some(cb) = gdof(b) else { continue };
                    kg.add_at(ra, cb, ke[a][b]);
                    mg.add_at(ra, cb, me[a][b]);
                }
            }
        }
        (kg, mg)
    }

    /// Static deflection under a transverse tip force [m per DOF].
    ///
    /// # Errors
    ///
    /// Propagates a singular stiffness matrix (cannot happen for valid
    /// parameters).
    pub fn static_tip_load(&self, force: f64) -> Result<Vec<f64>> {
        let (kg, _) = self.assemble();
        let mut f = vec![0.0; self.n_dofs()];
        f[self.tip_dof()] = force;
        LuFactors::factor(&kg)?.solve(&f)
    }

    /// Lowest `n_modes` natural frequencies \[Hz\] by shifted inverse
    /// power iteration with mass-orthogonal deflation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NoConvergence`] if an iteration stalls.
    pub fn natural_frequencies(&self, n_modes: usize) -> Result<Vec<f64>> {
        let (kg, mg) = self.assemble();
        let n = self.n_dofs();
        let lu = LuFactors::factor(&kg)?;
        let mut modes: Vec<Vec<f64>> = Vec::new();
        let mut freqs = Vec::new();
        for _ in 0..n_modes.min(n) {
            // Deterministic start vector.
            let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.37).collect();
            let mut lambda_prev = 0.0;
            let mut converged = false;
            for it in 0..500 {
                // M-orthogonalize against found modes.
                for m in &modes {
                    let mm = mass_dot(&mg, m, &x)?;
                    for (xi, mi) in x.iter_mut().zip(m) {
                        *xi -= mm * mi;
                    }
                }
                // Power step: x ← K⁻¹ M x.
                let mx = mg.mul_vec(&x)?;
                let y = lu.solve(&mx)?;
                // Rayleigh quotient λ = (xᵀKx)/(xᵀMx) on the new vector.
                let ky = kg.mul_vec(&y)?;
                let num = dot(&y, &ky);
                let my = mg.mul_vec(&y)?;
                let den = dot(&y, &my);
                let lambda = num / den;
                // M-normalize.
                let scale = 1.0 / den.sqrt();
                x = y.iter().map(|v| v * scale).collect();
                if it > 2 && (lambda - lambda_prev).abs() < 1e-12 * lambda.abs() {
                    lambda_prev = lambda;
                    converged = true;
                    break;
                }
                lambda_prev = lambda;
            }
            if !converged {
                return Err(NumericsError::NoConvergence {
                    iterations: 500,
                    residual: lambda_prev,
                });
            }
            freqs.push(lambda_prev.sqrt() / (2.0 * std::f64::consts::PI));
            modes.push(x.clone());
        }
        Ok(freqs)
    }

    /// Damped harmonic response: tip deflection phasor per unit tip
    /// force, at each frequency \[Hz\].
    ///
    /// Solves `(K + jωC − ω²M)·u = F` with Rayleigh damping.
    ///
    /// # Errors
    ///
    /// Propagates singular complex systems.
    pub fn harmonic_tip_response(&self, freqs: &[f64]) -> Result<Vec<Complex64>> {
        let (kg, mg) = self.assemble();
        let n = self.n_dofs();
        let (ra, rb) = self.rayleigh;
        let mut out = Vec::with_capacity(freqs.len());
        let mut f = vec![Complex64::ZERO; n];
        f[self.tip_dof()] = Complex64::ONE;
        for &freq in freqs {
            let w = 2.0 * std::f64::consts::PI * freq;
            let a = DenseMatrix::from_fn(n, n, |i, j| {
                let k = kg[(i, j)];
                let m = mg[(i, j)];
                Complex64::new(k - w * w * m, w * (ra * m + rb * k))
            });
            let u = LuFactors::factor(&a)?.solve(&f)?;
            out.push(u[self.tip_dof()]);
        }
        Ok(out)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn mass_dot(m: &DenseMatrix<f64>, a: &[f64], b: &[f64]) -> Result<f64> {
    let mb = m.mul_vec(b)?;
    Ok(dot(a, &mb))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 500 µm × 50 µm × 5 µm silicon cantilever.
    fn si_cantilever(n: usize) -> CantileverBeam {
        let l = 500e-6;
        let w = 50e-6;
        let t = 5e-6;
        let e = 169e9; // [110] silicon
        let rho = 2329.0;
        let inertia = w * t * t * t / 12.0;
        CantileverBeam::new(l, e, inertia, rho * w * t, n)
    }

    #[test]
    fn static_tip_deflection_matches_pl3_over_3ei() {
        let beam = si_cantilever(8);
        let p = 1e-6; // 1 µN
        let u = beam.static_tip_load(p).unwrap();
        let tip = u[beam.tip_dof()];
        let expect = p * beam.length.powi(3) / (3.0 * beam.youngs * beam.inertia);
        // Hermite elements are exact for point loads.
        assert!(
            (tip - expect).abs() < expect * 1e-9,
            "{tip:e} vs {expect:e}"
        );
    }

    #[test]
    fn first_frequency_matches_analytic() {
        let beam = si_cantilever(12);
        let freqs = beam.natural_frequencies(2).unwrap();
        // ω₁ = (1.8751)²·√(EI/(ρA·L⁴))
        let lam1 = 1.875_104_068_711_961_f64;
        let w1 = lam1
            * lam1
            * (beam.youngs * beam.inertia / (beam.mass_per_length * beam.length.powi(4))).sqrt();
        let f1 = w1 / (2.0 * std::f64::consts::PI);
        assert!(
            (freqs[0] - f1).abs() < f1 * 1e-4,
            "f1 = {} vs {f1}",
            freqs[0]
        );
        // Second mode: λ₂ = 4.69409.
        let lam2 = 4.694_091_132_974_175_f64;
        let f2 = f1 * (lam2 / lam1).powi(2);
        assert!(
            (freqs[1] - f2).abs() < f2 * 1e-3,
            "f2 = {} vs {f2}",
            freqs[1]
        );
    }

    #[test]
    fn harmonic_response_peaks_at_resonance() {
        let beam = si_cantilever(8).with_rayleigh_damping(50.0, 1e-9);
        let f1 = beam.natural_frequencies(1).unwrap()[0];
        let freqs = [f1 * 0.5, f1, f1 * 2.0];
        let h = beam.harmonic_tip_response(&freqs).unwrap();
        assert!(h[1].abs() > h[0].abs());
        assert!(h[1].abs() > h[2].abs());
        // Low-frequency magnitude approaches the static compliance.
        let static_c = beam.length.powi(3) / (3.0 * beam.youngs * beam.inertia);
        let h_low = beam.harmonic_tip_response(&[f1 * 1e-3]).unwrap()[0];
        assert!(
            (h_low.abs() - static_c).abs() < static_c * 1e-3,
            "{} vs {static_c}",
            h_low.abs()
        );
    }

    #[test]
    fn phase_crosses_minus_ninety_at_resonance() {
        let beam = si_cantilever(8).with_rayleigh_damping(100.0, 1e-9);
        let f1 = beam.natural_frequencies(1).unwrap()[0];
        let h = beam
            .harmonic_tip_response(&[f1 * 0.9, f1, f1 * 1.1])
            .unwrap();
        let phases: Vec<f64> = h.iter().map(|z| z.arg().to_degrees()).collect();
        assert!(phases[0] > -90.0);
        assert!(phases[2] < -90.0);
    }

    #[test]
    fn mesh_refinement_converges() {
        let coarse = si_cantilever(2).natural_frequencies(1).unwrap()[0];
        let fine = si_cantilever(16).natural_frequencies(1).unwrap()[0];
        // Consistent-mass Hermite beams converge from above.
        assert!(coarse >= fine * 0.999);
        assert!((coarse - fine).abs() < fine * 0.01);
    }
}
