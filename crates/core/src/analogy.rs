//! Table 1: generalized variables for different physical domains, and
//! the force–voltage / force–current analogies.
//!
//! "It is possible to derive two analogies relating the dynamic
//! behavior of electrical and mechanical systems, the force-voltage
//! (FV) and the force-current (FI) analogy. The FI analogy is used
//! here for all models as the mechanical and electrical nets have the
//! same topology."

use mems_hdl::Nature;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainVariables {
    /// The physical domain.
    pub nature: Nature,
    /// Effort variable (name, unit).
    pub effort: (&'static str, &'static str),
    /// Flow variable (name, unit).
    pub flow: (&'static str, &'static str),
    /// Momentum variable (name, unit).
    pub momentum: (&'static str, &'static str),
    /// State variable (name, unit).
    pub state: (&'static str, &'static str),
}

/// Returns Table 1 (all domains, paper order).
pub fn table1() -> Vec<DomainVariables> {
    Nature::ALL
        .iter()
        .map(|&nature| DomainVariables {
            nature,
            effort: nature.effort_desc(),
            flow: nature.flow_desc(),
            momentum: nature.momentum_desc(),
            state: nature.state_desc(),
        })
        .collect()
}

/// Renders Table 1 as aligned text (used by the Table 1 bench).
pub fn render_table1() -> String {
    let rows = table1();
    let mut out =
        String::from("Domain                  Effort              Flow                 State\n");
    for r in rows {
        out.push_str(&format!(
            "{:<22}  {:<18}  {:<19}  {} [{}]\n",
            r.nature.name(),
            format!("{} [{}]", r.effort.0, r.effort.1),
            format!("{} [{}]", r.flow.0, r.flow.1),
            r.state.0,
            r.state.1,
        ));
    }
    out
}

/// Which electrical analogy maps a mechanical network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanicalAnalogy {
    /// Force ↔ voltage: mass → inductor, spring → capacitor `1/k`,
    /// damper → resistor `α`; mechanical *loops* become electrical
    /// loops (topology changes).
    ForceVoltage,
    /// Force ↔ current (the paper's choice): mass → capacitor `m`,
    /// spring → inductor `1/k`, damper → resistor `1/α`; mechanical
    /// and electrical nets share topology.
    ForceCurrent,
}

/// The electrical element equivalent to a mechanical one under an
/// analogy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ElectricalEquivalent {
    /// A resistor with the given resistance \[Ω\].
    Resistor(f64),
    /// A capacitor with the given capacitance \[F\].
    Capacitor(f64),
    /// An inductor with the given inductance \[H\].
    Inductor(f64),
}

/// Maps a point mass `m` \[kg\].
pub fn map_mass(analogy: MechanicalAnalogy, m: f64) -> ElectricalEquivalent {
    match analogy {
        MechanicalAnalogy::ForceVoltage => ElectricalEquivalent::Inductor(m),
        MechanicalAnalogy::ForceCurrent => ElectricalEquivalent::Capacitor(m),
    }
}

/// Maps a spring of stiffness `k` [N/m].
pub fn map_spring(analogy: MechanicalAnalogy, k: f64) -> ElectricalEquivalent {
    match analogy {
        MechanicalAnalogy::ForceVoltage => ElectricalEquivalent::Capacitor(1.0 / k),
        MechanicalAnalogy::ForceCurrent => ElectricalEquivalent::Inductor(1.0 / k),
    }
}

/// Maps a viscous damper `α` [N·s/m].
pub fn map_damper(analogy: MechanicalAnalogy, alpha: f64) -> ElectricalEquivalent {
    match analogy {
        MechanicalAnalogy::ForceVoltage => ElectricalEquivalent::Resistor(alpha),
        MechanicalAnalogy::ForceCurrent => ElectricalEquivalent::Resistor(1.0 / alpha),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_paper_domains() {
        let t = table1();
        assert_eq!(t.len(), 6);
        let mech = t
            .iter()
            .find(|r| r.nature == Nature::MechanicalTranslation)
            .unwrap();
        assert_eq!(mech.effort.0, "force");
        assert_eq!(mech.flow.0, "velocity");
        assert_eq!(mech.state.0, "translation");
        let elec = t.iter().find(|r| r.nature == Nature::Electrical).unwrap();
        assert_eq!(elec.effort.0, "voltage");
        assert_eq!(elec.state.0, "charge");
        assert_eq!(elec.momentum.0, "flux linkage");
        let hyd = t.iter().find(|r| r.nature == Nature::Hydraulic).unwrap();
        assert_eq!(hyd.effort.0, "pressure");
        assert_eq!(hyd.flow.0, "volume flow rate");
    }

    #[test]
    fn fi_analogy_matches_fig4() {
        // Fig. 4: C = m, R = 1/α, L = 1/K.
        assert_eq!(
            map_mass(MechanicalAnalogy::ForceCurrent, 1e-4),
            ElectricalEquivalent::Capacitor(1e-4)
        );
        assert_eq!(
            map_spring(MechanicalAnalogy::ForceCurrent, 200.0),
            ElectricalEquivalent::Inductor(1.0 / 200.0)
        );
        assert_eq!(
            map_damper(MechanicalAnalogy::ForceCurrent, 40e-3),
            ElectricalEquivalent::Resistor(25.0)
        );
    }

    #[test]
    fn fv_analogy_is_the_dual() {
        assert_eq!(
            map_mass(MechanicalAnalogy::ForceVoltage, 2.0),
            ElectricalEquivalent::Inductor(2.0)
        );
        assert_eq!(
            map_spring(MechanicalAnalogy::ForceVoltage, 4.0),
            ElectricalEquivalent::Capacitor(0.25)
        );
        assert_eq!(
            map_damper(MechanicalAnalogy::ForceVoltage, 3.0),
            ElectricalEquivalent::Resistor(3.0)
        );
    }

    #[test]
    fn rendered_table_lines_up() {
        let s = render_table1();
        assert!(s.contains("mechanical1"));
        assert!(s.contains("voltage [V]"));
        assert!(s.contains("charge [C]"));
        assert_eq!(s.lines().count(), 7);
    }

    #[test]
    fn effort_times_flow_is_power_in_every_domain() {
        // Dimensional spot checks for the power product of Table 1.
        let units: Vec<(&str, &str)> = table1().iter().map(|r| (r.effort.1, r.flow.1)).collect();
        assert!(units.contains(&("N", "m/s")));
        assert!(units.contains(&("V", "A")));
        assert!(units.contains(&("Pa", "m³/s")));
        assert!(units.contains(&("N·m", "rad/s")));
    }
}
