//! Concrete FE-backed extraction recipes for the paper's transducer:
//! capacitance vs displacement and force vs (voltage, displacement),
//! from electrostatic field solutions of the plate-gap problem.
//!
//! This is the paper's Fig. 6 workflow: "Figure 6 shows PXT being used
//! to calculate the electrostatic force on the movable electrode of
//! the electrostatic transducer of figure 2a."

use crate::error::Result;
use crate::extract::{extract_1d, extract_2d, Extraction1d, Extraction2d};
use mems_fem::maxwell::{maxwell_force_y, parallel_plate_problem};

/// Geometry/meshing description of the plate-gap device under test.
#[derive(Debug, Clone)]
pub struct PlateGapDut {
    /// Plate width \[m\] (in-plane).
    pub width: f64,
    /// Out-of-plane depth \[m\]; area `A = width × depth`.
    pub depth: f64,
    /// Rest gap `d` \[m\].
    pub gap: f64,
    /// Elements across the width.
    pub nx: usize,
    /// Elements across the gap.
    pub ny: usize,
}

impl PlateGapDut {
    /// The paper's Table 4 device: `A = 1 cm²` (1 cm × 1 cm plate),
    /// `d = 0.15 mm`, meshed 10 × 8.
    pub fn table4() -> Self {
        PlateGapDut {
            width: 0.01,
            depth: 0.01,
            gap: 0.15e-3,
            nx: 10,
            ny: 8,
        }
    }

    /// Plate area \[m²\].
    pub fn area(&self) -> f64 {
        self.width * self.depth
    }

    /// Solves the field at a given displacement and voltage, returning
    /// the total force on the moving plate \[N\] (negative = attraction
    /// opposing gap opening, matching Table 3's sign).
    ///
    /// # Errors
    ///
    /// Propagates FE failures.
    pub fn force(&self, voltage: f64, displacement: f64) -> Result<f64> {
        let g = self.gap + displacement;
        let problem = parallel_plate_problem(self.width, g, self.nx, self.ny, 0.0, voltage)?;
        let field = problem.solve()?;
        let per_depth = maxwell_force_y(&field, g * 0.5);
        Ok(per_depth * self.depth)
    }

    /// Solves the field and returns the capacitance \[F\] at a given
    /// displacement.
    ///
    /// # Errors
    ///
    /// Propagates FE failures.
    pub fn capacitance(&self, displacement: f64) -> Result<f64> {
        let g = self.gap + displacement;
        let v_probe = 1.0;
        let problem = parallel_plate_problem(self.width, g, self.nx, self.ny, 0.0, v_probe)?;
        let field = problem.solve()?;
        Ok(field.capacitance_per_depth(v_probe) * self.depth)
    }
}

/// Extracts `C(x)` over a displacement sweep.
///
/// # Errors
///
/// Propagates sweep and FE failures.
pub fn capacitance_vs_displacement(
    dut: &PlateGapDut,
    displacements: &[f64],
) -> Result<Extraction1d> {
    extract_1d("displacement", "capacitance", displacements, |x| {
        dut.capacitance(x)
    })
}

/// Extracts `F(V, x)` over a (voltage, displacement) grid.
///
/// # Errors
///
/// Propagates sweep and FE failures.
pub fn force_vs_voltage_displacement(
    dut: &PlateGapDut,
    voltages: &[f64],
    displacements: &[f64],
) -> Result<Extraction2d> {
    extract_2d(
        "voltage",
        "displacement",
        "force",
        voltages,
        displacements,
        |v, x| dut.force(v, x),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_fem::EPS0;

    #[test]
    fn fig6_force_matches_table3_at_zero_displacement() {
        // "The result obtained using the parameters in table 4 and
        // zero displacement (x=0) corresponds to the force in table 3."
        let dut = PlateGapDut::table4();
        let f = dut.force(10.0, 0.0).unwrap();
        let expect = -EPS0 * dut.area() * 100.0 / (2.0 * dut.gap * dut.gap);
        assert!(
            (f - expect).abs() < expect.abs() * 1e-9,
            "{f:e} vs {expect:e}"
        );
    }

    #[test]
    fn capacitance_matches_analytic_over_sweep() {
        let dut = PlateGapDut::table4();
        let xs = [-2e-5, 0.0, 2e-5, 5e-5];
        let e = capacitance_vs_displacement(&dut, &xs).unwrap();
        for (x, c) in e.xs.iter().zip(&e.ys) {
            let expect = EPS0 * dut.area() / (dut.gap + x);
            assert!(
                (c - expect).abs() < expect * 1e-6,
                "C({x}) = {c:e} vs {expect:e}"
            );
        }
    }

    #[test]
    fn force_grid_follows_v2_over_g2() {
        let dut = PlateGapDut {
            nx: 6,
            ny: 6,
            ..PlateGapDut::table4()
        };
        let grid = force_vs_voltage_displacement(&dut, &[5.0, 10.0], &[0.0, 3e-5]).unwrap();
        let f = |v: f64, x: f64| -EPS0 * dut.area() * v * v / (2.0 * (dut.gap + x).powi(2));
        for (i, &v) in grid.xs.iter().enumerate() {
            for (j, &x) in grid.ys.iter().enumerate() {
                let got = grid.zs[i * grid.ys.len() + j];
                let expect = f(v, x);
                assert!(
                    (got - expect).abs() < expect.abs() * 1e-8,
                    "F({v},{x}) = {got:e} vs {expect:e}"
                );
            }
        }
    }
}
