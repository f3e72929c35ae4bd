//! Two-port coupling elements: ideal transformer and gyrator.
//!
//! Linearized electromechanical transducers reduce to exactly these
//! elements (Tilmans' equivalent circuits, the paper's reference \[1\]):
//! under the force–current analogy an electrostatic transducer
//! linearizes to a *transformer*-coupled two-port with transduction
//! factor Γ, an electrodynamic one to a *gyrator*.

use crate::circuit::{NodeId, UnknownLayout};
use crate::device::{AcLoadCtx, CommitKind, Device, LoadCtx};
use crate::error::{Result, SpiceError};
use mems_numerics::Complex64;
use std::sync::Arc;

/// Ideal transformer: `v1 = n·v2`, `i2 = −n·i1` (power conserving).
#[derive(Debug, Clone)]
pub struct IdealTransformer {
    name: Arc<str>,
    pins: [NodeId; 4],
    ratio: f64,
    base: usize,
}

impl IdealTransformer {
    /// Primary `(p1, n1)`, secondary `(p2, n2)`, turns ratio
    /// `n = v1/v2`.
    pub fn new(
        name: impl Into<Arc<str>>,
        p1: NodeId,
        n1: NodeId,
        p2: NodeId,
        n2: NodeId,
        ratio: f64,
    ) -> Self {
        IdealTransformer {
            name: name.into(),
            pins: [p1, n1, p2, n2],
            ratio,
            base: usize::MAX,
        }
    }

    /// The turns ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Device for IdealTransformer {
    fn name(&self) -> &str {
        &self.name
    }

    fn pins(&self) -> &[NodeId] {
        &self.pins
    }

    fn n_internal(&self) -> usize {
        1
    }

    fn set_internal_base(&mut self, base: usize) {
        self.base = base;
    }

    fn is_linear(&self) -> bool {
        true
    }

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        if self.base == usize::MAX {
            return Err(SpiceError::Device {
                device: self.name.to_string(),
                detail: "layout() was not run before load".into(),
            });
        }
        let [p1, n1, p2, n2] = self.pins;
        let j = ctx.unknown(self.base); // primary current
        let row_j = Some(self.base);
        // Primary carries j; secondary carries −n·j (out of p2).
        ctx.through(p1, n1, j, &[(row_j, 1.0)]);
        ctx.through(p2, n2, -self.ratio * j, &[(row_j, -self.ratio)]);
        // Constraint: v1 − n·v2 = 0.
        ctx.residual(
            row_j,
            ctx.v(p1) - ctx.v(n1) - self.ratio * (ctx.v(p2) - ctx.v(n2)),
        );
        let (a1, b1) = (ctx.node_unknown(p1), ctx.node_unknown(n1));
        let (a2, b2) = (ctx.node_unknown(p2), ctx.node_unknown(n2));
        ctx.stamp(row_j, a1, 1.0);
        ctx.stamp(row_j, b1, -1.0);
        ctx.stamp(row_j, a2, -self.ratio);
        ctx.stamp(row_j, b2, self.ratio);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let [p1, n1, p2, n2] = self.pins;
        let row_j = Some(self.base);
        let (a1, b1) = (ctx.node_unknown(p1), ctx.node_unknown(n1));
        let (a2, b2) = (ctx.node_unknown(p2), ctx.node_unknown(n2));
        let n = Complex64::from_re(self.ratio);
        ctx.stamp(a1, row_j, Complex64::ONE);
        ctx.stamp(b1, row_j, -Complex64::ONE);
        ctx.stamp(a2, row_j, -n);
        ctx.stamp(b2, row_j, n);
        ctx.stamp(row_j, a1, Complex64::ONE);
        ctx.stamp(row_j, b1, -Complex64::ONE);
        ctx.stamp(row_j, a2, -n);
        ctx.stamp(row_j, b2, n);
        Ok(())
    }

    fn commit(&mut self, _x: &[f64], _layout: &UnknownLayout, _kind: CommitKind) {}
}

/// Ideal gyrator: `i1 = g·v2`, `i2 = −g·v1` (power conserving).
#[derive(Debug, Clone)]
pub struct Gyrator {
    name: Arc<str>,
    pins: [NodeId; 4],
    g: f64,
}

impl Gyrator {
    /// Port 1 `(p1, n1)`, port 2 `(p2, n2)`, gyration conductance `g`.
    pub fn new(
        name: impl Into<Arc<str>>,
        p1: NodeId,
        n1: NodeId,
        p2: NodeId,
        n2: NodeId,
        g: f64,
    ) -> Self {
        Gyrator {
            name: name.into(),
            pins: [p1, n1, p2, n2],
            g,
        }
    }

    /// The gyration conductance.
    pub fn conductance(&self) -> f64 {
        self.g
    }
}

impl Device for Gyrator {
    fn name(&self) -> &str {
        &self.name
    }

    fn pins(&self) -> &[NodeId] {
        &self.pins
    }

    fn is_linear(&self) -> bool {
        true
    }

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        let [p1, n1, p2, n2] = self.pins;
        let v1 = ctx.v(p1) - ctx.v(n1);
        let v2 = ctx.v(p2) - ctx.v(n2);
        let (a1, b1) = (ctx.node_unknown(p1), ctx.node_unknown(n1));
        let (a2, b2) = (ctx.node_unknown(p2), ctx.node_unknown(n2));
        ctx.through(p1, n1, self.g * v2, &[(a2, self.g), (b2, -self.g)]);
        ctx.through(p2, n2, -self.g * v1, &[(a1, -self.g), (b1, self.g)]);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let [p1, n1, p2, n2] = self.pins;
        let g = Complex64::from_re(self.g);
        let (a1, b1) = (ctx.node_unknown(p1), ctx.node_unknown(n1));
        let (a2, b2) = (ctx.node_unknown(p2), ctx.node_unknown(n2));
        // i1 = g·v2
        ctx.stamp(a1, a2, g);
        ctx.stamp(a1, b2, -g);
        ctx.stamp(b1, a2, -g);
        ctx.stamp(b1, b2, g);
        // i2 = −g·v1
        ctx.stamp(a2, a1, -g);
        ctx.stamp(a2, b1, g);
        ctx.stamp(b2, a1, g);
        ctx.stamp(b2, b1, -g);
        Ok(())
    }
}
