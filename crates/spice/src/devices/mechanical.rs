//! Mechanical elements under the force–current analogy.
//!
//! The paper (Fig. 4) maps the resonator onto electrical primitives:
//! mass → capacitor `C = m`, damper → resistor `R = 1/α`, spring →
//! inductor `L = 1/k`. These wrappers keep the mechanical parameter
//! names and delegate to the electrical stamps, so netlists read like
//! the physics.

use crate::circuit::{NodeId, UnknownLayout};
use crate::device::{AcLoadCtx, CommitKind, Device, LoadCtx};
use crate::devices::passive::{Capacitor, Inductor, Resistor};
use crate::error::Result;
use std::sync::Arc;

/// A point mass attached to a velocity node (second terminal is the
/// inertial reference, i.e. ground): force `F = m·dv/dt`.
#[derive(Debug, Clone)]
pub struct Mass {
    inner: Capacitor,
    mass: f64,
}

impl Mass {
    /// Creates a mass of `m` kilograms on velocity node `v`,
    /// referenced to `reference` (normally ground).
    pub fn new(name: impl Into<Arc<str>>, v: NodeId, reference: NodeId, m: f64) -> Self {
        Mass {
            inner: Capacitor::new(name, v, reference, m),
            mass: m,
        }
    }

    /// The mass [kg].
    pub fn mass(&self) -> f64 {
        self.mass
    }
}

impl Device for Mass {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pins(&self) -> &[NodeId] {
        self.inner.pins()
    }
    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        self.inner.load(ctx)
    }
    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        self.inner.load_ac(ctx)
    }
    fn commit(&mut self, x: &[f64], layout: &UnknownLayout, kind: CommitKind) {
        self.inner.commit(x, layout, kind);
    }
}

/// A linear spring between two velocity nodes: `F = k·∫(v_a − v_b)dt`.
///
/// Its branch unknown *is the spring force*, so the displacement is
/// `x = F/k` — the quantity plotted in Fig. 5.
#[derive(Debug, Clone)]
pub struct Spring {
    inner: Inductor,
    stiffness: f64,
}

impl Spring {
    /// Creates a spring of stiffness `k` [N/m].
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, k: f64) -> Self {
        Spring {
            inner: Inductor::new(name, a, b, 1.0 / k),
            stiffness: k,
        }
    }

    /// The stiffness [N/m].
    pub fn stiffness(&self) -> f64 {
        self.stiffness
    }

    /// Global unknown index of the spring force (branch current).
    pub fn force_unknown(&self) -> usize {
        self.inner.branch_unknown()
    }
}

impl Device for Spring {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pins(&self) -> &[NodeId] {
        self.inner.pins()
    }
    fn n_internal(&self) -> usize {
        self.inner.n_internal()
    }
    fn set_internal_base(&mut self, base: usize) {
        self.inner.set_internal_base(base);
    }
    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        self.inner.load(ctx)
    }
    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        self.inner.load_ac(ctx)
    }
    fn commit(&mut self, x: &[f64], layout: &UnknownLayout, kind: CommitKind) {
        self.inner.commit(x, layout, kind);
    }
}

/// A linear (viscous) damper: `F = α·(v_a − v_b)`.
#[derive(Debug, Clone)]
pub struct Damper {
    inner: Resistor,
    damping: f64,
}

impl Damper {
    /// Creates a damper with coefficient `alpha` [N·s/m].
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, alpha: f64) -> Self {
        Damper {
            inner: Resistor::new(name, a, b, 1.0 / alpha),
            damping: alpha,
        }
    }

    /// The damping coefficient [N·s/m].
    pub fn damping(&self) -> f64 {
        self.damping
    }
}

impl Device for Damper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pins(&self) -> &[NodeId] {
        self.inner.pins()
    }
    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        self.inner.load(ctx)
    }
    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        self.inner.load_ac(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn fi_analogy_parameter_mapping() {
        let mut c = Circuit::new();
        let v = c.mnode("vel").unwrap();
        let g = c.ground();
        let m = Mass::new("m1", v, g, 1.0e-4);
        assert_eq!(m.mass(), 1.0e-4);
        let s = Spring::new("k1", v, g, 200.0);
        assert_eq!(s.stiffness(), 200.0);
        let d = Damper::new("a1", v, g, 40e-3);
        assert_eq!(d.damping(), 40e-3);
        // Table 4 mapping: C = m, L = 1/k, R = 1/α.
        assert_eq!(s.inner.inductance(), 1.0 / 200.0);
        assert_eq!(d.inner.resistance(), 1.0 / 40e-3);
    }
}
