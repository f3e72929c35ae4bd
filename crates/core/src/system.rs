//! The Fig. 3 system: an electrostatic transducer coupled to a
//! mechanical resonator, built either with the behavioral HDL-A model
//! (Listing 1) or with a linearized equivalent circuit (Fig. 4).

use crate::energy::ElectricalStyle;
use crate::resonator::MechanicalResonator;
use crate::transducers::{LinearizedKind, TransverseElectrostatic};
use mems_hdl::HdlModel;
use mems_spice::analysis::transient::{run, TranOptions};
use mems_spice::circuit::Circuit;
use mems_spice::devices::{HdlDevice, VoltageSource};
use mems_spice::solver::SimOptions;
use mems_spice::wave::Waveform;
use mems_spice::{Result, SpiceError};

/// Which transducer realization drives the resonator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransducerVariant {
    /// Non-linear behavioral HDL-A model (the paper's approach).
    Behavioral(ElectricalStyle),
    /// Linearized equivalent circuit biased at the system's
    /// `(v0, x0)`.
    Linearized(LinearizedKind),
}

/// The complete Fig. 3 system description.
#[derive(Debug, Clone)]
pub struct TransducerResonatorSystem {
    /// The transducer (Table 4 geometry by default).
    pub transducer: TransverseElectrostatic,
    /// The resonator (Table 4 values by default).
    pub resonator: MechanicalResonator,
    /// Drive waveform.
    pub drive: Waveform,
    /// Linearization bias voltage (Table 4's `v0 = 10 V`).
    pub bias_voltage: f64,
}

/// A simulated displacement trace.
#[derive(Debug, Clone)]
pub struct DisplacementTrace {
    /// Time points \[s\].
    pub time: Vec<f64>,
    /// Displacement `x(t)` \[m\] (spring force / k).
    pub x: Vec<f64>,
    /// Drive voltage `v(t)` \[V\].
    pub v: Vec<f64>,
    /// Solver statistics: total Newton iterations.
    pub newton_iterations: usize,
}

impl TransducerResonatorSystem {
    /// The paper's Table 4 system with a given drive.
    pub fn table4(drive: Waveform) -> Self {
        TransducerResonatorSystem {
            transducer: TransverseElectrostatic::table4(),
            resonator: MechanicalResonator::table4(),
            drive,
            bias_voltage: 10.0,
        }
    }

    /// The Fig. 5 pulse at a given level: 5 ms rise/fall, 120 ms top,
    /// starting at 2 ms.
    pub fn fig5_pulse(level: f64) -> Waveform {
        Waveform::Pulse {
            v1: 0.0,
            v2: level,
            delay: 2e-3,
            rise: 5e-3,
            fall: 5e-3,
            width: 120e-3,
            period: 0.0,
        }
    }

    /// Builds the circuit for a variant.
    ///
    /// # Errors
    ///
    /// Propagates model-generation and circuit-building failures.
    pub fn build(&self, variant: TransducerVariant) -> Result<Circuit> {
        let mut ckt = Circuit::new();
        let e = ckt.enode("drive")?;
        let vel = ckt.mnode("vel")?;
        let gnd = ckt.ground();
        ckt.add(VoltageSource::new("vsrc", e, gnd, self.drive.clone()))?;
        match variant {
            TransducerVariant::Behavioral(style) => {
                let src = self
                    .transducer
                    .hdl_source(style)
                    .map_err(|err| SpiceError::Build(format!("model generation: {err}")))?;
                let model = HdlModel::compile(&src, "eletran", None)
                    .map_err(|err| SpiceError::Build(format!("model compile: {err}")))?;
                ckt.add(HdlDevice::new("xducer", &model, &[], &[e, gnd, vel, gnd])?)?;
            }
            TransducerVariant::Linearized(kind) => {
                let x0 = self
                    .transducer
                    .static_displacement(self.bias_voltage, self.resonator.stiffness)
                    .map_err(|err| SpiceError::Build(format!("bias solve: {err}")))?;
                let lin = self.transducer.linearized(self.bias_voltage, x0, kind);
                lin.build(&mut ckt, "lin", e, vel)?;
            }
        }
        self.resonator.build(&mut ckt, "res", vel)?;
        Ok(ckt)
    }

    /// Simulates a variant to `t_stop`, returning the displacement
    /// trace (read from the resonator spring, as the paper plots the
    /// "integrals of velocities").
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulate(
        &self,
        variant: TransducerVariant,
        t_stop: f64,
        sim: &SimOptions,
    ) -> Result<DisplacementTrace> {
        let mut ckt = self.build(variant)?;
        let result = run(&mut ckt, &TranOptions::new(t_stop), sim)?;
        let spring_force = result
            .trace("i(res_k,0)")
            .ok_or_else(|| SpiceError::Build("missing spring force trace".into()))?;
        let v = result
            .node_trace("drive")
            .ok_or_else(|| SpiceError::Build("missing drive trace".into()))?;
        Ok(DisplacementTrace {
            time: result.time,
            x: spring_force
                .iter()
                .map(|f| f / self.resonator.stiffness)
                .collect(),
            v,
            newton_iterations: result.total_newton_iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_numerics::stats::settled_value;

    #[test]
    fn behavioral_and_secant_linear_agree_at_bias() {
        let sys = TransducerResonatorSystem::table4(TransducerResonatorSystem::fig5_pulse(10.0));
        let sim = SimOptions::default();
        let nl = sys
            .simulate(
                TransducerVariant::Behavioral(ElectricalStyle::PaperStyle),
                90e-3,
                &sim,
            )
            .unwrap();
        let lin = sys
            .simulate(
                TransducerVariant::Linearized(LinearizedKind::Secant),
                90e-3,
                &sim,
            )
            .unwrap();
        let xs_nl = settled_value(&nl.x, 0.05);
        let xs_lin = settled_value(&lin.x, 0.05);
        assert!(
            (xs_nl - xs_lin).abs() < xs_nl.abs() * 0.02,
            "nl {xs_nl:e} vs lin {xs_lin:e}"
        );
        // Both settle at the Table 4 static displacement.
        assert!((xs_nl - 1.0e-8).abs() < 5e-10, "x = {xs_nl:e}");
    }

    #[test]
    fn full_style_behavioral_matches_paper_style() {
        // The motional current term is negligible here; both styles
        // give the same mechanical response.
        let sys = TransducerResonatorSystem::table4(TransducerResonatorSystem::fig5_pulse(10.0));
        let sim = SimOptions::default();
        let a = sys
            .simulate(
                TransducerVariant::Behavioral(ElectricalStyle::PaperStyle),
                40e-3,
                &sim,
            )
            .unwrap();
        let b = sys
            .simulate(
                TransducerVariant::Behavioral(ElectricalStyle::Full),
                40e-3,
                &sim,
            )
            .unwrap();
        let xa = settled_value(&a.x, 0.2);
        let xb = settled_value(&b.x, 0.2);
        assert!((xa - xb).abs() < xa.abs() * 0.01);
    }
}
