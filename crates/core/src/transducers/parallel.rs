//! Fig. 2b: the parallel-motion (sliding-plate) electrostatic
//! transducer — the plate slides sideways, changing the overlap
//! length `l − x` at constant gap `d`.

use super::EPS0;
use crate::energy::{ElectricalKind, ElectricalStyle, EnergyTransducer};
use mems_hdl::ast::Expr;
use mems_hdl::Result;

/// The sliding-plate electrostatic transducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelPlateElectrostatic {
    /// Plate depth `h` \[m\] (out of plane).
    pub height: f64,
    /// Overlap length at rest `l` \[m\].
    pub length: f64,
    /// Gap `d` \[m\].
    pub gap: f64,
    /// Relative permittivity `εr`.
    pub eps_r: f64,
}

impl ParallelPlateElectrostatic {
    /// A representative comb-like device: 1 mm × 1 mm plates, 2 µm gap.
    pub fn example() -> Self {
        ParallelPlateElectrostatic {
            height: 1e-3,
            length: 1e-3,
            gap: 2e-6,
            eps_r: 1.0,
        }
    }

    /// Input capacitance at displacement `x` (Table 2b):
    /// `C = ε0·εr·h·(l − x)/d`.
    pub fn capacitance(&self, x: f64) -> f64 {
        EPS0 * self.eps_r * self.height * (self.length - x) / self.gap
    }

    /// Co-energy `W* = ε0·εr·h·(l − x)·v²/(2d)` (Table 2b).
    pub fn coenergy(&self, v: f64, x: f64) -> f64 {
        0.5 * self.capacitance(x) * v * v
    }

    /// Transducer force (Table 3b): `F = −ε0·εr·h·v²/(2d)` —
    /// independent of `x` (constant force pulling the plate *into*
    /// overlap), the defining property of comb drives.
    pub fn force(&self, v: f64, _x: f64) -> f64 {
        -EPS0 * self.eps_r * self.height * v * v / (2.0 * self.gap)
    }

    /// Port voltage in the charge formulation (Table 3b):
    /// `v = q·d/(ε0·εr·h·(l − x))`.
    pub fn voltage_of_charge(&self, q: f64, x: f64) -> f64 {
        q / self.capacitance(x)
    }

    /// The energy-methodology description.
    pub fn energy_model(&self) -> EnergyTransducer {
        EnergyTransducer {
            entity: "partran".into(),
            generics: vec![
                ("h".into(), Some(self.height)),
                ("l".into(), Some(self.length)),
                ("d".into(), Some(self.gap)),
                ("er".into(), Some(self.eps_r)),
            ],
            coenergy: Expr::div(
                Expr::mul(
                    Expr::mul(
                        Expr::mul(Expr::num(EPS0), Expr::ident("er")),
                        Expr::mul(
                            Expr::ident("h"),
                            Expr::sub(Expr::ident("l"), Expr::ident("x")),
                        ),
                    ),
                    Expr::mul(Expr::ident("v"), Expr::ident("v")),
                ),
                Expr::mul(Expr::num(2.0), Expr::ident("d")),
            ),
            electrical: ElectricalKind::VoltageControlled,
            electrical_symbol: "v".into(),
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
    fn capacitance_shrinks_with_sliding_out() {
        let t = ParallelPlateElectrostatic::example();
        assert!(t.capacitance(0.0) > t.capacitance(1e-4));
        let expect = EPS0 * 1e-3 * 1e-3 / 2e-6;
        assert!((t.capacitance(0.0) - expect).abs() < expect * 1e-12);
    }

    #[test]
    fn force_is_displacement_independent() {
        let t = ParallelPlateElectrostatic::example();
        let f1 = t.force(10.0, 0.0);
        let f2 = t.force(10.0, 5e-4);
        assert_eq!(f1, f2);
        let expect = -EPS0 * 1e-3 * 100.0 / (2.0 * 2e-6);
        assert!((f1 - expect).abs() < expect.abs() * 1e-12);
    }

    #[test]
    fn energy_derivation_matches_table3_row_b() {
        let t = ParallelPlateElectrostatic::example();
        let derived = t.energy_model().derive().unwrap();
        let bindings = [
            ("v", 10.0),
            ("x", 1e-4),
            ("h", t.height),
            ("l", t.length),
            ("d", t.gap),
            ("er", 1.0),
        ];
        let f_sym = mems_hdl::symbolic::eval_closed(&derived.force, &bindings).unwrap();
        assert!((f_sym - t.force(10.0, 1e-4)).abs() < f_sym.abs() * 1e-12);
        let q_sym = mems_hdl::symbolic::eval_closed(&derived.state_conjugate, &bindings).unwrap();
        assert!((q_sym - t.capacitance(1e-4) * 10.0).abs() < q_sym.abs() * 1e-12);
    }

    #[test]
    fn hdl_model_compiles() {
        let t = ParallelPlateElectrostatic::example();
        let src = t.hdl_source(ElectricalStyle::PaperStyle).unwrap();
        let model = mems_hdl::HdlModel::compile(&src, "partran", None).unwrap();
        assert_eq!(model.compiled().pins.len(), 4);
    }

    #[test]
    fn voltage_of_charge_round_trip() {
        let t = ParallelPlateElectrostatic::example();
        let q = t.capacitance(2e-4) * 7.5;
        assert!((t.voltage_of_charge(q, 2e-4) - 7.5).abs() < 1e-12);
    }
}
