//! Fig. 2d: the electrodynamic (voice-coil) transducer — `N` turns of
//! radius `r` in a radial field `B`; force proportional to current
//! (Table 3d: `F = 2π·N·r·B·i`), constant inductance (Table 2d).

use super::MU0;
use crate::energy::{ElectricalKind, ElectricalStyle, EnergyTransducer};
use mems_hdl::ast::Expr;
use mems_hdl::Result;

/// The voice-coil transducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectrodynamicVoiceCoil {
    /// Coil turns `N`.
    pub turns: f64,
    /// Coil radius `r` \[m\].
    pub radius: f64,
    /// Radial flux density `B` \[T\].
    pub b_field: f64,
}

impl ElectrodynamicVoiceCoil {
    /// A miniature-speaker-scale example: 50 turns, 5 mm radius,
    /// 0.8 T.
    pub fn example() -> Self {
        ElectrodynamicVoiceCoil {
            turns: 50.0,
            radius: 5e-3,
            b_field: 0.8,
        }
    }

    /// Input inductance (Table 2d, displacement-independent):
    /// `L = µ0·N·r/2` per the paper's table.
    pub fn inductance(&self) -> f64 {
        MU0 * self.turns * self.radius / 2.0
    }

    /// Wire length in the field: `l = 2π·N·r`.
    pub fn wire_length(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.turns * self.radius
    }

    /// Motor constant `B·l` [N/A] (= back-EMF constant [V·s/m]).
    pub fn bl(&self) -> f64 {
        self.b_field * self.wire_length()
    }

    /// Internal magnetic energy `W = µ0·N·r·i²/4` (Table 2d).
    pub fn energy(&self, i: f64) -> f64 {
        0.5 * self.inductance() * i * i
    }

    /// Transducer force (Table 3d): `F = 2π·N·r·B·i` — linear in the
    /// current, sign following the current direction.
    pub fn force(&self, i: f64) -> f64 {
        self.bl() * i
    }

    /// Back EMF at plate velocity `s`: `e = B·l·s`.
    ///
    /// (The paper's Table 3 prints only the `L·di/dt` term; the
    /// motional EMF is required for a conservative two-port and is
    /// included by the `Full` generated model.)
    pub fn back_emf(&self, s: f64) -> f64 {
        self.bl() * s
    }

    /// The energy-methodology description. The co-energy
    /// `W* = ½L·i² + B·l·i·x` yields `F = ∂W*/∂x = B·l·i` and
    /// `λ = ∂W*/∂i = L·i + B·l·x` (whose `ddt` produces the motional
    /// EMF automatically).
    pub fn energy_model(&self) -> EnergyTransducer {
        EnergyTransducer {
            entity: "dyntran".into(),
            generics: vec![
                ("n".into(), Some(self.turns)),
                ("r".into(), Some(self.radius)),
                ("b".into(), Some(self.b_field)),
            ],
            // µ0·n·r·i²/4 + 2π·n·r·b·i·x
            coenergy: Expr::add(
                Expr::div(
                    Expr::mul(
                        Expr::mul(
                            Expr::num(MU0),
                            Expr::mul(Expr::ident("n"), Expr::ident("r")),
                        ),
                        Expr::mul(Expr::ident("i"), Expr::ident("i")),
                    ),
                    Expr::num(4.0),
                ),
                Expr::mul(
                    Expr::mul(
                        Expr::num(2.0 * std::f64::consts::PI),
                        Expr::mul(Expr::ident("n"), Expr::ident("r")),
                    ),
                    Expr::mul(
                        Expr::ident("b"),
                        Expr::mul(Expr::ident("i"), Expr::ident("x")),
                    ),
                ),
            ),
            electrical: ElectricalKind::CurrentControlled,
            electrical_symbol: "i".into(),
        }
    }

    /// Generates the HDL-A model source.
    ///
    /// # Errors
    ///
    /// Propagates generation failures. Note `PaperStyle` drops the
    /// motional EMF (as the paper's Table 3 does); `Full` keeps it.
    pub fn hdl_source(&self, style: ElectricalStyle) -> Result<String> {
        self.energy_model().to_hdl_source(style)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_d_inductance() {
        let t = ElectrodynamicVoiceCoil::example();
        let expect = MU0 * 50.0 * 5e-3 / 2.0;
        assert!((t.inductance() - expect).abs() < expect * 1e-12);
        assert!((t.energy(0.3) - 0.5 * expect * 0.09).abs() < 1e-18);
    }

    #[test]
    fn table3_row_d_force_is_linear_in_current() {
        let t = ElectrodynamicVoiceCoil::example();
        let expect = 2.0 * std::f64::consts::PI * 50.0 * 5e-3 * 0.8;
        assert!((t.force(1.0) - expect).abs() < expect * 1e-12);
        assert!((t.force(-2.0) + 2.0 * expect).abs() < expect * 1e-12);
    }

    #[test]
    fn energy_derivation_matches_table3_row_d() {
        let t = ElectrodynamicVoiceCoil::example();
        let derived = t.energy_model().derive().unwrap();
        let bindings = [
            ("i", 0.7),
            ("x", 1e-3),
            ("n", t.turns),
            ("r", t.radius),
            ("b", t.b_field),
        ];
        let f = mems_hdl::symbolic::eval_closed(&derived.force, &bindings).unwrap();
        assert!((f - t.force(0.7)).abs() < f.abs() * 1e-12);
        // λ = L·i + B·l·x → its time derivative carries the back EMF.
        let lam = mems_hdl::symbolic::eval_closed(&derived.state_conjugate, &bindings).unwrap();
        let expect = t.inductance() * 0.7 + t.bl() * 1e-3;
        assert!((lam - expect).abs() < expect.abs() * 1e-12);
    }

    #[test]
    fn hdl_model_compiles() {
        let t = ElectrodynamicVoiceCoil::example();
        let src = t.hdl_source(ElectricalStyle::Full).unwrap();
        let model = mems_hdl::HdlModel::compile(&src, "dyntran", None).unwrap();
        assert_eq!(model.compiled().n_unknowns, 1);
    }

    #[test]
    fn motor_and_emf_constants_match() {
        // B·l reciprocity: force per ampere equals EMF per m/s.
        let t = ElectrodynamicVoiceCoil::example();
        assert!((t.force(1.0) - t.back_emf(1.0)).abs() < 1e-12);
    }
}
