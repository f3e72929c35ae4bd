//! Linearized equivalent-circuit transducer models — the classical
//! approach the paper compares against ("Usually, all components are
//! linearized around an operating (bias) point, limiting the validity
//! of these models to small-signal analysis").
//!
//! Under the force–current analogy the electrostatic transducer
//! linearizes to a capacitor `C₀` plus an electromechanical coupling
//! with transduction factor `Γ` (a gyrator between the electrical
//! voltage port and the mechanical velocity port). Two flavours of
//! `Γ` are provided:
//!
//! - [`LinearizedKind::Secant`]: `Γ = |F₀|/v₀ = ε₀εrA·v₀/(2(d+x₀)²)`.
//!   Driven by the *full* source voltage it reproduces the bias force
//!   exactly at `v₀`, overshoots below and undershoots above — the
//!   behaviour Fig. 5 describes.
//! - [`LinearizedKind::TangentBias`]: the textbook small-signal
//!   two-port (Tilmans, the paper's ref. [1]): `Γ = ∂F/∂v = 2·Γ_sec`,
//!   driven by the *deviation* `v − v₀`, with the bias force `F₀` and
//!   the electrostatic spring constant `k_e` included.

use mems_spice::circuit::{Circuit, NodeId};
use mems_spice::devices::{Capacitor, CurrentSource, Gyrator, Spring, VoltageSource};
use mems_spice::wave::Waveform;
use mems_spice::Result;

/// Which linearization the equivalent circuit realizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearizedKind {
    /// Secant transduction factor, full-voltage drive.
    Secant,
    /// Tangent factor around the bias, deviation drive, with bias
    /// force and electrostatic spring.
    TangentBias,
}

/// A linearized transducer two-port about a bias `(v₀, x₀)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearizedTransducer {
    /// Which realization to build.
    pub kind: LinearizedKind,
    /// Bias capacitance `C₀` [F].
    pub c0: f64,
    /// Secant transduction factor [N/V].
    pub gamma_secant: f64,
    /// Tangent transduction factor `∂F/∂v` [N/V].
    pub gamma_tangent: f64,
    /// Electrostatic spring constant `|∂F/∂x|` [N/m].
    pub k_e: f64,
    /// Bias voltage [V].
    pub v0: f64,
    /// Bias displacement [m].
    pub x0: f64,
    /// Bias force [N] (negative: attraction).
    pub f0: f64,
}

impl LinearizedTransducer {
    /// The active transduction factor for this realization.
    pub fn gamma(&self) -> f64 {
        match self.kind {
            LinearizedKind::Secant => self.gamma_secant,
            LinearizedKind::TangentBias => self.gamma_tangent,
        }
    }

    /// Builds the equivalent circuit between an electrical node and a
    /// mechanical (velocity) node, adding devices prefixed with
    /// `name`.
    ///
    /// For [`LinearizedKind::TangentBias`] an internal node carrying
    /// `v − v₀` is created (series `−v₀` source), the bias force is a
    /// constant mechanical current source, and `k_e` is a spring on
    /// the mechanical node.
    ///
    /// # Errors
    ///
    /// Propagates circuit-building failures.
    pub fn build(
        &self,
        circuit: &mut Circuit,
        name: &str,
        elec: NodeId,
        mech: NodeId,
    ) -> Result<()> {
        let gnd = circuit.ground();
        circuit.add(Capacitor::new(format!("{name}_c0"), elec, gnd, self.c0))?;
        match self.kind {
            LinearizedKind::Secant => {
                // i₁ = Γ·(velocity) on the electrical side,
                // F = +Γ·v delivered to the mechanical node.
                circuit.add(Gyrator::new(
                    format!("{name}_gy"),
                    elec,
                    gnd,
                    mech,
                    gnd,
                    self.gamma(),
                ))?;
            }
            LinearizedKind::TangentBias => {
                // Deviation node: v_dev = v − v₀.
                let dev = circuit.node(&format!("{name}_dev"), mems_hdl::Nature::Electrical)?;
                circuit.add(VoltageSource::new(
                    format!("{name}_vbias"),
                    elec,
                    dev,
                    Waveform::Dc(self.v0),
                ))?;
                circuit.add(Gyrator::new(
                    format!("{name}_gy"),
                    dev,
                    gnd,
                    mech,
                    gnd,
                    self.gamma(),
                ))?;
                // Bias force |F₀| pushing the node positive (the
                // Listing-1 convention's settled direction).
                circuit.add(CurrentSource::new(
                    format!("{name}_f0"),
                    gnd,
                    mech,
                    Waveform::Dc(-self.f0),
                ))?;
                // Electrostatic spring.
                if self.k_e > 0.0 {
                    circuit.add(Spring::new(format!("{name}_ke"), mech, gnd, self.k_e))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transducers::TransverseElectrostatic;
    use mems_spice::analysis::transient::{run, TranOptions};
    use mems_spice::devices::{Damper, Mass};
    use mems_spice::solver::SimOptions;

    fn fig3_linear(kind: LinearizedKind, level: f64) -> (Circuit, f64) {
        let t = TransverseElectrostatic::table4();
        let x0 = t.static_displacement(10.0, 200.0).unwrap();
        let lin = t.linearized(10.0, x0, kind);
        let mut ckt = Circuit::new();
        let e = ckt.enode("drive").unwrap();
        let vel = ckt.mnode("vel").unwrap();
        let gnd = ckt.ground();
        ckt.add(VoltageSource::new(
            "vsrc",
            e,
            gnd,
            Waveform::Pulse {
                v1: 0.0,
                v2: level,
                delay: 2e-3,
                rise: 5e-3,
                fall: 5e-3,
                width: 120e-3,
                period: 0.0,
            },
        ))
        .unwrap();
        lin.build(&mut ckt, "lin", e, vel).unwrap();
        ckt.add(Mass::new("m1", vel, gnd, 1e-4)).unwrap();
        ckt.add(Spring::new("k1", vel, gnd, 200.0)).unwrap();
        ckt.add(Damper::new("d1", vel, gnd, 40e-3)).unwrap();
        (ckt, x0)
    }

    fn settled_displacement(ckt: &mut Circuit) -> f64 {
        let res = run(ckt, &TranOptions::new(90e-3), &SimOptions::default()).unwrap();
        let f = res.trace("i(k1,0)").unwrap();
        mems_numerics::stats::settled_value(&f.iter().map(|v| v / 200.0).collect::<Vec<_>>(), 0.05)
    }

    #[test]
    fn secant_matches_bias_exactly_at_10v() {
        let (mut ckt, x0) = fig3_linear(LinearizedKind::Secant, 10.0);
        let x = settled_displacement(&mut ckt);
        assert!((x - x0).abs() < x0 * 0.01, "x = {x:e} vs x0 = {x0:e}");
    }

    #[test]
    fn secant_overshoots_at_5v_and_undershoots_at_15v() {
        let t = TransverseElectrostatic::table4();
        // Nonlinear settled references.
        let x5 = t.static_displacement(5.0, 200.0).unwrap();
        let x15 = t.static_displacement(15.0, 200.0).unwrap();
        let (mut c5, _) = fig3_linear(LinearizedKind::Secant, 5.0);
        let (mut c15, _) = fig3_linear(LinearizedKind::Secant, 15.0);
        let xl5 = settled_displacement(&mut c5);
        let xl15 = settled_displacement(&mut c15);
        assert!(xl5 > x5 * 1.5, "linear {xl5:e} vs nonlinear {x5:e}");
        assert!(xl15 < x15 * 0.75, "linear {xl15:e} vs nonlinear {x15:e}");
    }

    #[test]
    fn tangent_bias_matches_bias_point() {
        let (mut ckt, x0) = fig3_linear(LinearizedKind::TangentBias, 10.0);
        let x = settled_displacement(&mut ckt);
        assert!((x - x0).abs() < x0 * 0.02, "x = {x:e} vs x0 = {x0:e}");
    }

    #[test]
    fn gamma_selection() {
        let t = TransverseElectrostatic::table4();
        let lin_s = t.linearized(10.0, 0.0, LinearizedKind::Secant);
        let lin_t = t.linearized(10.0, 0.0, LinearizedKind::TangentBias);
        assert!((lin_t.gamma() - 2.0 * lin_s.gamma()).abs() < lin_t.gamma() * 1e-12);
    }
}
