//! Tables 1–4 reproduction: generalized variables, transducer
//! impedances/energies, derived efforts, and the bias quantities of
//! the transducer–resonator system.

use crate::analogy;
use crate::transducers::{
    ElectrodynamicVoiceCoil, ElectromagneticGap, LinearizedKind, ParallelPlateElectrostatic,
    TransverseElectrostatic,
};
use mems_hdl::symbolic::eval_closed;
use mems_numerics::Result;

/// Table 1 rendering (delegates to [`crate::analogy`]).
pub fn table1_text() -> String {
    analogy::render_table1()
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Transducer label (paper's a–d).
    pub label: &'static str,
    /// Impedance description.
    pub impedance_desc: String,
    /// Impedance value at the reference operating point.
    pub impedance_value: f64,
    /// Internal (co-)energy value at the reference operating point.
    pub energy_value: f64,
}

/// Computes Table 2 at reference operating points (Table 4 values for
/// the transverse device; the module examples for the others).
pub fn table2() -> Vec<Table2Row> {
    let a = TransverseElectrostatic::table4();
    let b = ParallelPlateElectrostatic::example();
    let c = ElectromagneticGap::example();
    let d = ElectrodynamicVoiceCoil::example();
    vec![
        Table2Row {
            label: "a) transverse electrostatic",
            impedance_desc: "C = e0·er·A/(d+x) [F]".into(),
            impedance_value: a.capacitance(0.0),
            energy_value: a.coenergy(10.0, 0.0),
        },
        Table2Row {
            label: "b) parallel electrostatic",
            impedance_desc: "C = e0·er·h·(l−x)/d [F]".into(),
            impedance_value: b.capacitance(0.0),
            energy_value: b.coenergy(10.0, 0.0),
        },
        Table2Row {
            label: "c) electromagnetic",
            impedance_desc: "L = µ0·A·N²/(2(d+x)) [H]".into(),
            impedance_value: c.inductance(0.0),
            energy_value: c.coenergy(0.1, 0.0),
        },
        Table2Row {
            label: "d) electrodynamic",
            impedance_desc: "L = µ0·N·r/2 [H]".into(),
            impedance_value: d.inductance(),
            energy_value: d.energy(0.1),
        },
    ]
}

/// One row of the Table 3 verification: the symbolic derivative of the
/// Table 2 energy versus the closed-form effort expression.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Transducer label.
    pub label: &'static str,
    /// Force from the energy derivation \[N\].
    pub force_derived: f64,
    /// Force from the closed form (Table 3) \[N\].
    pub force_closed: f64,
    /// Relative error between the two.
    pub rel_error: f64,
}

/// Verifies Table 3: derives every transducer's force symbolically
/// from its energy and compares with the closed forms.
///
/// # Errors
///
/// Propagates symbolic evaluation failures.
pub fn table3() -> Result<Vec<Table3Row>> {
    let mut rows = Vec::new();
    let a = TransverseElectrostatic::table4();
    {
        let derived = a
            .energy_model()
            .derive()
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let bindings = [
            ("v", 10.0),
            ("x", 0.0),
            ("area", a.area),
            ("d", a.gap),
            ("er", a.eps_r),
        ];
        let fd = eval_closed(&derived.force, &bindings)
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let fc = a.force(10.0, 0.0);
        rows.push(Table3Row {
            label: "a) transverse electrostatic",
            force_derived: fd,
            force_closed: fc,
            rel_error: (fd - fc).abs() / fc.abs(),
        });
    }
    let b = ParallelPlateElectrostatic::example();
    {
        let derived = b
            .energy_model()
            .derive()
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let bindings = [
            ("v", 10.0),
            ("x", 1e-4),
            ("h", b.height),
            ("l", b.length),
            ("d", b.gap),
            ("er", b.eps_r),
        ];
        let fd = eval_closed(&derived.force, &bindings)
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let fc = b.force(10.0, 1e-4);
        rows.push(Table3Row {
            label: "b) parallel electrostatic",
            force_derived: fd,
            force_closed: fc,
            rel_error: (fd - fc).abs() / fc.abs(),
        });
    }
    let c = ElectromagneticGap::example();
    {
        let derived = c
            .energy_model()
            .derive()
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let bindings = [
            ("i", 0.1),
            ("x", 0.0),
            ("area", c.area),
            ("d", c.gap),
            ("n", c.turns),
        ];
        let fd = eval_closed(&derived.force, &bindings)
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let fc = c.force(0.1, 0.0);
        rows.push(Table3Row {
            label: "c) electromagnetic",
            force_derived: fd,
            force_closed: fc,
            rel_error: (fd - fc).abs() / fc.abs(),
        });
    }
    let d = ElectrodynamicVoiceCoil::example();
    {
        let derived = d
            .energy_model()
            .derive()
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let bindings = [
            ("i", 0.1),
            ("x", 0.0),
            ("n", d.turns),
            ("r", d.radius),
            ("b", d.b_field),
        ];
        let fd = eval_closed(&derived.force, &bindings)
            .map_err(|e| mems_numerics::NumericsError::InvalidInput(e.to_string()))?;
        let fc = d.force(0.1);
        rows.push(Table3Row {
            label: "d) electrodynamic",
            force_derived: fd,
            force_closed: fc,
            rel_error: (fd - fc).abs() / fc.abs(),
        });
    }
    Ok(rows)
}

/// The Table 4 derived quantities: paper values vs computed.
#[derive(Debug, Clone)]
pub struct Table4Derived {
    /// Computed static displacement `x₀` \[m\] (paper: 1.0e-8).
    pub x0: f64,
    /// Computed bias capacitance `C₀` \[F\] (paper: 5.8637e-12).
    pub c0: f64,
    /// Secant transduction factor [N/V].
    pub gamma_secant: f64,
    /// Tangent transduction factor [N/V] (paper prints 3.34675e-9,
    /// inconsistent with its own parameters; see EXPERIMENTS.md).
    pub gamma_tangent: f64,
    /// Bias force \[N\].
    pub f0: f64,
}

/// Paper-printed values for comparison.
pub struct Table4Paper;

impl Table4Paper {
    /// Paper's `x0`.
    pub const X0: f64 = 1.0e-8;
    /// Paper's `C0`.
    pub const C0: f64 = 5.8637e-12;
    /// Paper's printed Γ.
    pub const GAMMA: f64 = 3.34675e-9;
}

/// Computes the Table 4 derived quantities from the table's input
/// parameters.
///
/// # Errors
///
/// Propagates the static-equilibrium solve.
pub fn table4() -> Result<Table4Derived> {
    let t = TransverseElectrostatic::table4();
    let x0 = t.static_displacement(10.0, 200.0)?;
    let lin = t.linearized(10.0, x0, LinearizedKind::Secant);
    Ok(Table4Derived {
        x0,
        c0: lin.c0,
        gamma_secant: lin.gamma_secant,
        gamma_tangent: lin.gamma_tangent,
        f0: lin.f0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders() {
        let t = table1_text();
        assert!(t.contains("electrical"));
        assert!(t.contains("hydraulic"));
    }

    #[test]
    fn table2_values_match_closed_forms() {
        let rows = table2();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].impedance_value - 5.9028e-12).abs() < 1e-15);
        // Energy = ½CV² consistency on every capacitive/inductive row.
        assert!((rows[0].energy_value - 0.5 * rows[0].impedance_value * 100.0).abs() < 1e-22);
        assert!((rows[2].energy_value - 0.5 * rows[2].impedance_value * 0.01).abs() < 1e-18);
    }

    #[test]
    fn table3_derivations_are_exact() {
        for row in table3().unwrap() {
            assert!(
                row.rel_error < 1e-10,
                "{}: rel error {}",
                row.label,
                row.rel_error
            );
        }
    }

    #[test]
    fn table4_derived_quantities() {
        let d = table4().unwrap();
        // x0 matches the paper.
        assert!((d.x0 - Table4Paper::X0).abs() < 2e-10);
        // C0 close to the paper's print (0.7 % discrepancy documented).
        assert!((d.c0 - Table4Paper::C0).abs() / Table4Paper::C0 < 0.01);
        // The printed Γ is *not* reproduced by the formula — document,
        // don't hide: both our factors differ from it by >50×.
        assert!(d.gamma_tangent / Table4Paper::GAMMA > 50.0);
        assert!((d.gamma_tangent - 3.9345e-7).abs() < 1e-10);
        // Secant factor gives the bias force exactly.
        assert!((d.gamma_secant * 10.0 + d.f0).abs() < d.f0.abs() * 1e-9);
    }
}
