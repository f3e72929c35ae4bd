//! Fig. 2a: the transverse electrostatic transducer — the paper's
//! worked example (Listing 1, Tables 2–4, Fig. 5).
//!
//! Plate of area `A`, rest gap `d`, relative permittivity `εr`; the
//! displacement `x` opens the gap to `d + x`.

use super::linear::{LinearizedKind, LinearizedTransducer};
use super::EPS0;
use crate::energy::{ElectricalKind, ElectricalStyle, EnergyTransducer};
use mems_hdl::ast::Expr;
use mems_hdl::Result;
use mems_numerics::rootfind::brent;

/// The transverse electrostatic transducer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransverseElectrostatic {
    /// Active plate area `A` \[m²\].
    pub area: f64,
    /// Rest gap `d` \[m\].
    pub gap: f64,
    /// Relative permittivity `εr`.
    pub eps_r: f64,
}

impl TransverseElectrostatic {
    /// The paper's Table 4 device: `A = 1 cm²`, `d = 0.15 mm`,
    /// `εr = 1`.
    pub fn table4() -> Self {
        TransverseElectrostatic {
            area: 1.0e-4,
            gap: 0.15e-3,
            eps_r: 1.0,
        }
    }

    /// Input capacitance at displacement `x` (Table 2a):
    /// `C = ε0·εr·A/(d + x)`.
    pub fn capacitance(&self, x: f64) -> f64 {
        EPS0 * self.eps_r * self.area / (self.gap + x)
    }

    /// Internal co-energy at voltage `v`, displacement `x` (Table 2a):
    /// `W* = ε0·εr·A·v²/(2(d + x))`.
    pub fn coenergy(&self, v: f64, x: f64) -> f64 {
        0.5 * self.capacitance(x) * v * v
    }

    /// Stored energy in the charge formulation,
    /// `W = q²·(d + x)/(2·ε0·εr·A)`.
    pub fn energy_of_charge(&self, q: f64, x: f64) -> f64 {
        q * q / (2.0 * self.capacitance(x))
    }

    /// Transducer force at `(v, x)` (Table 3a):
    /// `F = −ε0·εr·A·v²/(2(d + x)²)` — negative: the plates attract,
    /// opposing gap opening.
    pub fn force(&self, v: f64, x: f64) -> f64 {
        let g = self.gap + x;
        -EPS0 * self.eps_r * self.area * v * v / (2.0 * g * g)
    }

    /// Port voltage in the charge formulation (Table 3a):
    /// `v = q·(d + x)/(ε0·εr·A)`.
    pub fn voltage_of_charge(&self, q: f64, x: f64) -> f64 {
        q / self.capacitance(x)
    }

    /// Charge at `(v, x)`.
    pub fn charge(&self, v: f64, x: f64) -> f64 {
        self.capacitance(x) * v
    }

    /// Static displacement against a spring `k`: solves
    /// `k·x = |F(v, x)|` (Table 4's `x₀` for `v = 10 V`, `k = 200`).
    ///
    /// # Errors
    ///
    /// Propagates root bracketing failures (e.g. pull-in — no stable
    /// equilibrium below `d`).
    pub fn static_displacement(&self, v: f64, k: f64) -> mems_numerics::Result<f64> {
        brent(
            |x| k * x + self.force(v, x),
            0.0,
            self.gap * 0.999,
            self.gap * 1e-15,
        )
    }

    /// The energy-methodology description (recipe steps 1–2): the
    /// co-energy expression over `(v, x)` with symbolic generics.
    pub fn energy_model(&self) -> EnergyTransducer {
        EnergyTransducer {
            entity: "eletran".into(),
            generics: vec![
                ("area".into(), Some(self.area)),
                ("d".into(), Some(self.gap)),
                ("er".into(), Some(self.eps_r)),
            ],
            coenergy: Expr::div(
                Expr::mul(
                    Expr::mul(
                        Expr::mul(Expr::num(EPS0), Expr::ident("er")),
                        Expr::ident("area"),
                    ),
                    Expr::mul(Expr::ident("v"), Expr::ident("v")),
                ),
                Expr::mul(
                    Expr::num(2.0),
                    Expr::add(Expr::ident("d"), Expr::ident("x")),
                ),
            ),
            electrical: ElectricalKind::VoltageControlled,
            electrical_symbol: "v".into(),
        }
    }

    /// Generates the HDL-A model source (PaperStyle reproduces
    /// Listing 1's equations).
    ///
    /// # Errors
    ///
    /// Propagates generation failures.
    pub fn hdl_source(&self, style: ElectricalStyle) -> Result<String> {
        self.energy_model().to_hdl_source(style)
    }

    /// Linearized equivalent circuit about a bias `(v0, x0)`.
    pub fn linearized(&self, v0: f64, x0: f64, kind: LinearizedKind) -> LinearizedTransducer {
        let g0 = self.gap + x0;
        let c0 = EPS0 * self.eps_r * self.area / g0;
        let f0 = self.force(v0, x0);
        // Tangent transduction factor |∂F/∂v| = ε0·εr·A·v0/g0².
        let gamma_tangent = EPS0 * self.eps_r * self.area * v0 / (g0 * g0);
        // Secant factor |F0|/v0 = ε0·εr·A·v0/(2g0²).
        let gamma_secant = gamma_tangent / 2.0;
        // Electrostatic spring constant |∂F/∂x| (softening toward
        // closing, stiffening toward opening in this convention).
        let k_e = EPS0 * self.eps_r * self.area * v0 * v0 / (g0 * g0 * g0);
        LinearizedTransducer {
            kind,
            c0,
            gamma_secant,
            gamma_tangent,
            k_e,
            v0,
            x0,
            f0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_a_values() {
        let t = TransverseElectrostatic::table4();
        // C at x = 0: ε0·A/d ≈ 5.9028 pF (paper prints 5.8637 pF; see
        // EXPERIMENTS.md for the 0.7 % discrepancy note).
        let c = t.capacitance(0.0);
        assert!((c - 5.9028e-12).abs() < 1e-15, "C = {c:e}");
        // Energy at 10 V: ½CV² ≈ 2.95e-10 J.
        let w = t.coenergy(10.0, 0.0);
        assert!((w - 0.5 * c * 100.0).abs() < 1e-24);
    }

    #[test]
    fn table3_row_a_force_and_voltage() {
        let t = TransverseElectrostatic::table4();
        let f = t.force(10.0, 0.0);
        assert!((f + 1.9676e-6).abs() < 1e-9, "F = {f:e}");
        // Charge/voltage round trip.
        let q = t.charge(10.0, 0.0);
        assert!((t.voltage_of_charge(q, 0.0) - 10.0).abs() < 1e-12);
        // Energy identity: W(q) + W*(v) = q·v for the linear capacitor.
        let w_sum = t.energy_of_charge(q, 0.0) + t.coenergy(10.0, 0.0);
        assert!((w_sum - q * 10.0).abs() < q * 10.0 * 1e-12);
    }

    #[test]
    fn table4_static_displacement() {
        let t = TransverseElectrostatic::table4();
        let x0 = t.static_displacement(10.0, 200.0).unwrap();
        assert!((x0 - 1.0e-8).abs() < 2e-10, "x0 = {x0:e}");
    }

    #[test]
    fn linearization_factors() {
        let t = TransverseElectrostatic::table4();
        let x0 = t.static_displacement(10.0, 200.0).unwrap();
        let lin = t.linearized(10.0, x0, LinearizedKind::Secant);
        // Γ_tan = ε0·A·v0/(d+x0)² ≈ 3.935e-7 N/V; Γ_sec is half.
        assert!((lin.gamma_tangent - 3.9345e-7).abs() < 1e-10);
        assert!((lin.gamma_secant * 2.0 - lin.gamma_tangent).abs() < 1e-20);
        // Secant factor reproduces the bias force exactly.
        assert!((lin.gamma_secant * 10.0 + lin.f0).abs() < lin.f0.abs() * 1e-9);
        // C0 ≈ 5.902 pF at the bias gap.
        assert!((lin.c0 - 5.9024e-12).abs() < 1e-15, "C0 = {:e}", lin.c0);
        // Spring softening constant is small vs k = 200 N/m.
        assert!(lin.k_e < 0.05, "k_e = {}", lin.k_e);
    }

    #[test]
    fn energy_model_derives_same_force() {
        let t = TransverseElectrostatic::table4();
        let derived = t.energy_model().derive().unwrap();
        let f_sym = mems_hdl::symbolic::eval_closed(
            &derived.force,
            &[
                ("v", 7.0),
                ("x", 2e-5),
                ("area", t.area),
                ("d", t.gap),
                ("er", t.eps_r),
            ],
        )
        .unwrap();
        let f_closed = t.force(7.0, 2e-5);
        assert!((f_sym - f_closed).abs() < f_closed.abs() * 1e-12);
    }

    #[test]
    fn hdl_sources_generate() {
        let t = TransverseElectrostatic::table4();
        let paper = t.hdl_source(ElectricalStyle::PaperStyle).unwrap();
        assert!(paper.contains("ENTITY eletran"));
        assert!(paper.contains("ddt(vv)"));
        let full = t.hdl_source(ElectricalStyle::Full).unwrap();
        assert!(full.contains("ddt("));
    }
}
