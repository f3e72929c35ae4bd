//! Fig. 2c: the electromagnetic (variable-reluctance) transducer — a
//! coil of `N` turns on a fixed yoke attracting a free plate across a
//! gap `d + x`.

use super::MU0;
use crate::energy::{ElectricalKind, ElectricalStyle, EnergyTransducer};
use mems_hdl::ast::Expr;
use mems_hdl::Result;
use mems_numerics::rootfind::brent;

/// The variable-gap reluctance transducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectromagneticGap {
    /// Magnetic cross-section `A` \[m²\].
    pub area: f64,
    /// Rest gap `d` \[m\].
    pub gap: f64,
    /// Coil turns `N`.
    pub turns: f64,
}

impl ElectromagneticGap {
    /// A small-relay-scale example: 1 mm² core, 0.1 mm gap, 500 turns.
    pub fn example() -> Self {
        ElectromagneticGap {
            area: 1e-6,
            gap: 1e-4,
            turns: 500.0,
        }
    }

    /// Input inductance at displacement `x` (Table 2c):
    /// `L = µ0·A·N²/(2(d + x))`.
    pub fn inductance(&self, x: f64) -> f64 {
        MU0 * self.area * self.turns * self.turns / (2.0 * (self.gap + x))
    }

    /// Co-energy `W* = µ0·A·N²·i²/(4(d + x))` (Table 2c).
    pub fn coenergy(&self, i: f64, x: f64) -> f64 {
        0.5 * self.inductance(x) * i * i
    }

    /// Transducer force (Table 3c):
    /// `F = −µ0·A·N²·i²/(4(d + x)²)` — attraction closing the gap.
    pub fn force(&self, i: f64, x: f64) -> f64 {
        let g = self.gap + x;
        -MU0 * self.area * self.turns * self.turns * i * i / (4.0 * g * g)
    }

    /// Flux linkage `λ = L(x)·i`.
    pub fn flux_linkage(&self, i: f64, x: f64) -> f64 {
        self.inductance(x) * i
    }

    /// Static displacement against a spring `k` (solves
    /// `k·x = |F(i, x)|`).
    ///
    /// # Errors
    ///
    /// Propagates bracketing failures.
    pub fn static_displacement(&self, i: f64, k: f64) -> mems_numerics::Result<f64> {
        brent(
            |x| k * x + self.force(i, x),
            0.0,
            self.gap * 0.999,
            self.gap * 1e-15,
        )
    }

    /// The energy-methodology description (current-controlled:
    /// realized with an `UNKNOWN` current plus an implicit voltage
    /// equation).
    pub fn energy_model(&self) -> EnergyTransducer {
        EnergyTransducer {
            entity: "magtran".into(),
            generics: vec![
                ("area".into(), Some(self.area)),
                ("d".into(), Some(self.gap)),
                ("n".into(), Some(self.turns)),
            ],
            coenergy: Expr::div(
                Expr::mul(
                    Expr::mul(
                        Expr::mul(Expr::num(MU0), Expr::ident("area")),
                        Expr::mul(Expr::ident("n"), Expr::ident("n")),
                    ),
                    Expr::mul(Expr::ident("i"), Expr::ident("i")),
                ),
                Expr::mul(
                    Expr::num(4.0),
                    Expr::add(Expr::ident("d"), Expr::ident("x")),
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
    /// Propagates generation failures.
    pub fn hdl_source(&self, style: ElectricalStyle) -> Result<String> {
        self.energy_model().to_hdl_source(style)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_c_inductance_and_energy() {
        let t = ElectromagneticGap::example();
        let l = t.inductance(0.0);
        let expect = MU0 * 1e-6 * 250000.0 / (2.0 * 1e-4);
        assert!((l - expect).abs() < expect * 1e-12);
        assert!((t.coenergy(0.1, 0.0) - 0.5 * l * 0.01).abs() < 1e-18);
    }

    #[test]
    fn table3_row_c_force() {
        let t = ElectromagneticGap::example();
        let f = t.force(0.1, 0.0);
        let expect = -MU0 * 1e-6 * 250000.0 * 0.01 / (4.0 * 1e-8);
        assert!((f - expect).abs() < expect.abs() * 1e-12, "{f} vs {expect}");
        // Quadratic in current, attractive either polarity.
        assert!((t.force(-0.1, 0.0) - f).abs() < f.abs() * 1e-12);
    }

    #[test]
    fn energy_derivation_matches_closed_forms() {
        let t = ElectromagneticGap::example();
        let derived = t.energy_model().derive().unwrap();
        let bindings = [
            ("i", 0.2),
            ("x", 1e-5),
            ("area", t.area),
            ("d", t.gap),
            ("n", t.turns),
        ];
        let lam = mems_hdl::symbolic::eval_closed(&derived.state_conjugate, &bindings).unwrap();
        assert!((lam - t.flux_linkage(0.2, 1e-5)).abs() < lam.abs() * 1e-12);
        let f = mems_hdl::symbolic::eval_closed(&derived.force, &bindings).unwrap();
        assert!((f - t.force(0.2, 1e-5)).abs() < f.abs() * 1e-12);
    }

    #[test]
    fn hdl_model_compiles_with_unknown_current() {
        let t = ElectromagneticGap::example();
        for style in [ElectricalStyle::Full, ElectricalStyle::PaperStyle] {
            let src = t.hdl_source(style).unwrap();
            let model = mems_hdl::HdlModel::compile(&src, "magtran", None).unwrap();
            assert_eq!(model.compiled().n_unknowns, 1);
        }
    }

    #[test]
    fn static_displacement_exists_below_pull_in() {
        let t = ElectromagneticGap::example();
        let x = t.static_displacement(0.05, 5000.0).unwrap();
        assert!(x > 0.0 && x < t.gap);
        // Equilibrium holds.
        assert!((5000.0 * x + t.force(0.05, x)).abs() < 1e-9);
    }
}
