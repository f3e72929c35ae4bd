//! Physical natures and their branch quantities.
//!
//! This module encodes Table 1 of the paper (generalized variables
//! for different physical domains). Each nature names its *across*
//! (effort) and *through* (flow) quantities; `mems-spice` shares this
//! vocabulary, and the force–current analogy in `mems-core` maps
//! mechanical elements onto electrical primitives using it.

use std::fmt;

/// A physical discipline a pin can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Nature {
    /// Electrical: across = voltage `v` \[V\], through = current `i` \[A\].
    Electrical,
    /// Translational mechanics (the paper's `mechanical1`):
    /// across = velocity `tv` [m/s], through = force `f` \[N\].
    MechanicalTranslation,
    /// Rotational mechanics: across = angular velocity `av` [rad/s],
    /// through = torque `trq` [N·m].
    MechanicalRotation,
    /// Hydraulic: across = pressure `p` \[Pa\], through = volume flow
    /// rate `flow` [m³/s].
    Hydraulic,
    /// Thermal: across = temperature `temp` \[K\], through = heat flow
    /// `hflow` \[W\].
    Thermal,
    /// Magnetic: across = magnetomotive force `mmf` [A·turns],
    /// through = flux rate `phidot` [Wb/s].
    Magnetic,
}

impl Nature {
    /// All natures, in Table 1 order (electrical and the mechanical
    /// pair first, as the paper lists them).
    pub const ALL: [Nature; 6] = [
        Nature::MechanicalTranslation,
        Nature::MechanicalRotation,
        Nature::Electrical,
        Nature::Hydraulic,
        Nature::Thermal,
        Nature::Magnetic,
    ];

    /// Parses the source-level nature name used in `PIN` declarations.
    pub fn from_name(name: &str) -> Option<Nature> {
        Some(match name {
            "electrical" => Nature::Electrical,
            "mechanical1" | "mechanical" | "translational" => Nature::MechanicalTranslation,
            "mechanical_rot" | "rotational" => Nature::MechanicalRotation,
            "hydraulic" | "fluidic" => Nature::Hydraulic,
            "thermal" | "thermal1" => Nature::Thermal,
            "magnetic" => Nature::Magnetic,
            _ => return None,
        })
    }

    /// Canonical source-level name.
    pub fn name(self) -> &'static str {
        match self {
            Nature::Electrical => "electrical",
            Nature::MechanicalTranslation => "mechanical1",
            Nature::MechanicalRotation => "mechanical_rot",
            Nature::Hydraulic => "hydraulic",
            Nature::Thermal => "thermal",
            Nature::Magnetic => "magnetic",
        }
    }

    /// Name of the across quantity accessor, e.g. `v` in `[a, b].v`.
    ///
    /// Under the force–current analogy the paper adopts, the across
    /// quantity of a mechanical pin is the *velocity* (Table 1's flow
    /// variable): mechanical and electrical nets then share topology.
    pub fn across_quantity(self) -> &'static str {
        match self {
            Nature::Electrical => "v",
            Nature::MechanicalTranslation => "tv",
            Nature::MechanicalRotation => "av",
            Nature::Hydraulic => "p",
            Nature::Thermal => "temp",
            Nature::Magnetic => "mmf",
        }
    }

    /// Name of the through quantity accessor, e.g. `i` in
    /// `[a, b].i %= …`.
    ///
    /// Under the force–current analogy, the through quantity of a
    /// mechanical pin is the *force* (Table 1's effort variable).
    pub fn through_quantity(self) -> &'static str {
        match self {
            Nature::Electrical => "i",
            Nature::MechanicalTranslation => "f",
            Nature::MechanicalRotation => "trq",
            Nature::Hydraulic => "flow",
            Nature::Thermal => "hflow",
            Nature::Magnetic => "phidot",
        }
    }

    /// Human-readable effort name and SI unit (Table 1, "Effort" row).
    pub fn effort_desc(self) -> (&'static str, &'static str) {
        match self {
            Nature::Electrical => ("voltage", "V"),
            Nature::MechanicalTranslation => ("force", "N"),
            Nature::MechanicalRotation => ("torque", "N·m"),
            Nature::Hydraulic => ("pressure", "Pa"),
            Nature::Thermal => ("temperature", "K"),
            Nature::Magnetic => ("magnetomotive force", "A"),
        }
    }

    /// Human-readable flow name and SI unit (Table 1, "Flow" row).
    pub fn flow_desc(self) -> (&'static str, &'static str) {
        match self {
            Nature::Electrical => ("current", "A"),
            Nature::MechanicalTranslation => ("velocity", "m/s"),
            Nature::MechanicalRotation => ("angular velocity", "rad/s"),
            Nature::Hydraulic => ("volume flow rate", "m³/s"),
            Nature::Thermal => ("heat flow", "W"),
            Nature::Magnetic => ("flux rate", "Wb/s"),
        }
    }

    /// Human-readable state name and SI unit (Table 1, "State" row).
    ///
    /// The state variable is the time integral of the flow for the
    /// force–current convention used throughout the paper.
    pub fn state_desc(self) -> (&'static str, &'static str) {
        match self {
            Nature::Electrical => ("charge", "C"),
            Nature::MechanicalTranslation => ("translation", "m"),
            Nature::MechanicalRotation => ("angle", "rad"),
            Nature::Hydraulic => ("volume", "m³"),
            Nature::Thermal => ("heat", "J"),
            Nature::Magnetic => ("flux linkage", "Wb"),
        }
    }

    /// Human-readable momentum name and SI unit (Table 1, "Momentum"
    /// row).
    pub fn momentum_desc(self) -> (&'static str, &'static str) {
        match self {
            Nature::Electrical => ("flux linkage", "Wb"),
            Nature::MechanicalTranslation => ("momentum", "kg·m/s"),
            Nature::MechanicalRotation => ("angular momentum", "kg·m²/s"),
            Nature::Hydraulic => ("pressure momentum", "Pa·s"),
            Nature::Thermal => ("(none)", "-"),
            Nature::Magnetic => ("(none)", "-"),
        }
    }

    /// Resolves a branch quantity name against this nature.
    pub fn quantity_kind(self, q: &str) -> Option<QuantityKind> {
        if q == self.across_quantity() {
            Some(QuantityKind::Across)
        } else if q == self.through_quantity() {
            Some(QuantityKind::Through)
        } else {
            None
        }
    }
}

impl fmt::Display for Nature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a branch access names the across or the through quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantityKind {
    /// Effort difference between two pins (readable).
    Across,
    /// Flow through the branch (contributable).
    Through,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names_resolve() {
        assert_eq!(Nature::from_name("electrical"), Some(Nature::Electrical));
        assert_eq!(
            Nature::from_name("mechanical1"),
            Some(Nature::MechanicalTranslation)
        );
        assert_eq!(Nature::from_name("bogus"), None);
    }

    #[test]
    fn quantity_resolution_matches_listing1() {
        // Listing 1 reads [a,b].v and [c,d].tv, contributes .i and .f.
        let e = Nature::Electrical;
        let m = Nature::MechanicalTranslation;
        assert_eq!(e.quantity_kind("v"), Some(QuantityKind::Across));
        assert_eq!(e.quantity_kind("i"), Some(QuantityKind::Through));
        assert_eq!(m.quantity_kind("tv"), Some(QuantityKind::Across));
        assert_eq!(m.quantity_kind("f"), Some(QuantityKind::Through));
        assert_eq!(e.quantity_kind("f"), None);
        assert_eq!(m.quantity_kind("v"), None);
    }

    #[test]
    fn round_trip_names() {
        for n in Nature::ALL {
            assert_eq!(Nature::from_name(n.name()), Some(n));
        }
    }

    #[test]
    fn table1_descriptions_are_complete() {
        for n in Nature::ALL {
            assert!(!n.effort_desc().0.is_empty());
            assert!(!n.flow_desc().0.is_empty());
            assert!(!n.state_desc().0.is_empty());
            assert!(!n.momentum_desc().0.is_empty());
        }
    }

    #[test]
    fn effort_flow_product_is_power_dimensionally() {
        // Spot-check the Table 1 pairs used by the paper's examples.
        assert_eq!(Nature::Electrical.effort_desc().1, "V");
        assert_eq!(Nature::Electrical.flow_desc().1, "A");
        assert_eq!(Nature::MechanicalTranslation.effort_desc().1, "N");
        assert_eq!(Nature::MechanicalTranslation.flow_desc().1, "m/s");
    }
}
