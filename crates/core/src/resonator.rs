//! The mechanical resonator of Fig. 3: mass, spring, damper on one
//! velocity node, realized through the force–current analogy
//! (Fig. 4: `C = m`, `R = 1/α`, `L = 1/K`).

use mems_spice::circuit::{Circuit, NodeId};
use mems_spice::devices::{Damper, Mass, Spring};
use mems_spice::Result;

/// A 1-DOF mass–spring–damper resonator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanicalResonator {
    /// Mass `m` \[kg\].
    pub mass: f64,
    /// Spring constant `k` [N/m].
    pub stiffness: f64,
    /// Damping coefficient `α` [N·s/m].
    pub damping: f64,
}

impl MechanicalResonator {
    /// The paper's Table 4 resonator: `m = 1e-4 kg`, `k = 200 N/m`,
    /// `α = 40e-3 N·s/m`.
    pub fn table4() -> Self {
        MechanicalResonator {
            mass: 1.0e-4,
            stiffness: 200.0,
            damping: 40e-3,
        }
    }

    /// Undamped natural frequency \[Hz\] (≈ 225 Hz for Table 4).
    pub fn natural_frequency(&self) -> f64 {
        (self.stiffness / self.mass).sqrt() / (2.0 * std::f64::consts::PI)
    }

    /// Damping ratio ζ (≈ 0.141 for Table 4: under-critical, as the
    /// paper notes).
    pub fn damping_ratio(&self) -> f64 {
        self.damping / (2.0 * (self.stiffness * self.mass).sqrt())
    }

    /// Damped ringing frequency \[Hz\].
    pub fn damped_frequency(&self) -> f64 {
        let z = self.damping_ratio();
        self.natural_frequency() * (1.0 - z * z).sqrt()
    }

    /// Static deflection under a force \[m\].
    pub fn static_deflection(&self, force: f64) -> f64 {
        force / self.stiffness
    }

    /// Adds the resonator to a circuit on the given velocity node.
    /// Devices are named `{name}_m`, `{name}_k`, `{name}_a`; the
    /// spring's branch unknown label `i({name}_k,0)` carries the
    /// spring force (displacement × k).
    ///
    /// # Errors
    ///
    /// Propagates circuit-building failures.
    pub fn build(&self, circuit: &mut Circuit, name: &str, vel: NodeId) -> Result<()> {
        let gnd = circuit.ground();
        circuit.add(Mass::new(format!("{name}_m"), vel, gnd, self.mass))?;
        circuit.add(Spring::new(format!("{name}_k"), vel, gnd, self.stiffness))?;
        circuit.add(Damper::new(format!("{name}_a"), vel, gnd, self.damping))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_characteristics() {
        let r = MechanicalResonator::table4();
        assert!((r.natural_frequency() - 225.079).abs() < 0.01);
        assert!((r.damping_ratio() - 0.1414).abs() < 1e-3);
        assert!(r.damping_ratio() < 1.0, "under-critical, as the paper says");
        assert!(r.damped_frequency() < r.natural_frequency());
        assert!((r.static_deflection(2e-6) - 1e-8).abs() < 1e-12);
    }

    #[test]
    fn builds_into_circuit() {
        let r = MechanicalResonator::table4();
        let mut c = Circuit::new();
        let vel = c.mnode("vel").unwrap();
        r.build(&mut c, "res", vel).unwrap();
        assert!(c.device_index("res_m").is_some());
        assert!(c.device_index("res_k").is_some());
        assert!(c.device_index("res_a").is_some());
    }
}
