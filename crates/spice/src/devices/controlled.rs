//! Controlled sources: the four linear SPICE types plus the nonlinear
//! product-controlled current source the paper mentions as the
//! equivalent-circuit escape hatch ("a controlled source
//! `I = const·V1·V2` SPICE primitive").

use crate::circuit::{NodeId, UnknownLayout};
use crate::device::{AcLoadCtx, CommitKind, Device, LoadCtx};
use crate::error::{Result, SpiceError};
use mems_numerics::Complex64;
use std::sync::Arc;

/// Voltage-controlled current source: `i(out) = gm·(v_cp − v_cn)`.
#[derive(Debug, Clone)]
pub struct Vccs {
    name: Arc<str>,
    pins: [NodeId; 4],
    gm: f64,
}

impl Vccs {
    /// `out_p → out_n` current controlled by `(cp, cn)` across value.
    pub fn new(
        name: impl Into<Arc<str>>,
        out_p: NodeId,
        out_n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Self {
        Vccs {
            name: name.into(),
            pins: [out_p, out_n, cp, cn],
            gm,
        }
    }

    /// Transconductance \[S\] (or [N·s/m], … depending on natures).
    pub fn gm(&self) -> f64 {
        self.gm
    }
}

impl Device for Vccs {
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
        let [op, on, cp, cn] = self.pins;
        let vc = ctx.v(cp) - ctx.v(cn);
        let ccp = ctx.node_unknown(cp);
        let ccn = ctx.node_unknown(cn);
        ctx.through(op, on, self.gm * vc, &[(ccp, self.gm), (ccn, -self.gm)]);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let [op, on, cp, cn] = self.pins;
        let g = Complex64::from_re(self.gm);
        let (ro, rn) = (ctx.node_unknown(op), ctx.node_unknown(on));
        let (ccp, ccn) = (ctx.node_unknown(cp), ctx.node_unknown(cn));
        ctx.stamp(ro, ccp, g);
        ctx.stamp(ro, ccn, -g);
        ctx.stamp(rn, ccp, -g);
        ctx.stamp(rn, ccn, g);
        Ok(())
    }
}

/// Voltage-controlled voltage source: `v(out) = gain·(v_cp − v_cn)`.
#[derive(Debug, Clone)]
pub struct Vcvs {
    name: Arc<str>,
    pins: [NodeId; 4],
    gain: f64,
    base: usize,
}

impl Vcvs {
    /// `v(out_p, out_n) = gain·v(cp, cn)`.
    pub fn new(
        name: impl Into<Arc<str>>,
        out_p: NodeId,
        out_n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Self {
        Vcvs {
            name: name.into(),
            pins: [out_p, out_n, cp, cn],
            gain,
            base: usize::MAX,
        }
    }

    /// The voltage gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Device for Vcvs {
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
        let [op, on, cp, cn] = self.pins;
        let j = ctx.unknown(self.base);
        let row_j = Some(self.base);
        ctx.through(op, on, j, &[(row_j, 1.0)]);
        // v(op,on) − gain·v(cp,cn) = 0
        ctx.residual(
            row_j,
            ctx.v(op) - ctx.v(on) - self.gain * (ctx.v(cp) - ctx.v(cn)),
        );
        let (o1, o2) = (ctx.node_unknown(op), ctx.node_unknown(on));
        let (c1, c2) = (ctx.node_unknown(cp), ctx.node_unknown(cn));
        ctx.stamp(row_j, o1, 1.0);
        ctx.stamp(row_j, o2, -1.0);
        ctx.stamp(row_j, c1, -self.gain);
        ctx.stamp(row_j, c2, self.gain);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let [op, on, cp, cn] = self.pins;
        let row_j = Some(self.base);
        let (o1, o2) = (ctx.node_unknown(op), ctx.node_unknown(on));
        let (c1, c2) = (ctx.node_unknown(cp), ctx.node_unknown(cn));
        ctx.stamp(o1, row_j, Complex64::ONE);
        ctx.stamp(o2, row_j, -Complex64::ONE);
        ctx.stamp(row_j, o1, Complex64::ONE);
        ctx.stamp(row_j, o2, -Complex64::ONE);
        ctx.stamp(row_j, c1, Complex64::from_re(-self.gain));
        ctx.stamp(row_j, c2, Complex64::from_re(self.gain));
        Ok(())
    }

    fn commit(&mut self, _x: &[f64], _layout: &UnknownLayout, _kind: CommitKind) {}
}

/// Current-controlled current source: `i(out) = gain·i(sense)`, where
/// the sense branch is a zero-volt source inserted by this device.
#[derive(Debug, Clone)]
pub struct Cccs {
    name: Arc<str>,
    pins: [NodeId; 4],
    gain: f64,
    base: usize,
}

impl Cccs {
    /// Current from `out_p` to `out_n` equals `gain` times the current
    /// flowing from `sense_p` to `sense_n` through this device's
    /// internal zero-volt sense branch.
    pub fn new(
        name: impl Into<Arc<str>>,
        out_p: NodeId,
        out_n: NodeId,
        sense_p: NodeId,
        sense_n: NodeId,
        gain: f64,
    ) -> Self {
        Cccs {
            name: name.into(),
            pins: [out_p, out_n, sense_p, sense_n],
            gain,
            base: usize::MAX,
        }
    }

    /// The current gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Device for Cccs {
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
        let [op, on, sp, sn] = self.pins;
        let j = ctx.unknown(self.base);
        let row_j = Some(self.base);
        // Sense branch: zero-volt source carrying j.
        ctx.through(sp, sn, j, &[(row_j, 1.0)]);
        ctx.residual(row_j, ctx.v(sp) - ctx.v(sn));
        let (s1, s2) = (ctx.node_unknown(sp), ctx.node_unknown(sn));
        ctx.stamp(row_j, s1, 1.0);
        ctx.stamp(row_j, s2, -1.0);
        // Output current.
        ctx.through(op, on, self.gain * j, &[(row_j, self.gain)]);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let [op, on, sp, sn] = self.pins;
        let row_j = Some(self.base);
        let (s1, s2) = (ctx.node_unknown(sp), ctx.node_unknown(sn));
        let (o1, o2) = (ctx.node_unknown(op), ctx.node_unknown(on));
        ctx.stamp(s1, row_j, Complex64::ONE);
        ctx.stamp(s2, row_j, -Complex64::ONE);
        ctx.stamp(row_j, s1, Complex64::ONE);
        ctx.stamp(row_j, s2, -Complex64::ONE);
        ctx.stamp(o1, row_j, Complex64::from_re(self.gain));
        ctx.stamp(o2, row_j, Complex64::from_re(-self.gain));
        Ok(())
    }
}

/// Current-controlled voltage source: `v(out) = r·i(sense)`.
#[derive(Debug, Clone)]
pub struct Ccvs {
    name: Arc<str>,
    pins: [NodeId; 4],
    r: f64,
    base: usize,
}

impl Ccvs {
    /// `v(out_p, out_n) = r · i(sense_p → sense_n)`.
    pub fn new(
        name: impl Into<Arc<str>>,
        out_p: NodeId,
        out_n: NodeId,
        sense_p: NodeId,
        sense_n: NodeId,
        r: f64,
    ) -> Self {
        Ccvs {
            name: name.into(),
            pins: [out_p, out_n, sense_p, sense_n],
            r,
            base: usize::MAX,
        }
    }

    /// The transresistance.
    pub fn transresistance(&self) -> f64 {
        self.r
    }
}

impl Device for Ccvs {
    fn name(&self) -> &str {
        &self.name
    }

    fn pins(&self) -> &[NodeId] {
        &self.pins
    }

    fn n_internal(&self) -> usize {
        2
    }

    fn set_internal_base(&mut self, base: usize) {
        self.base = base;
    }

    fn is_linear(&self) -> bool {
        true
    }

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        let [op, on, sp, sn] = self.pins;
        let js = ctx.unknown(self.base); // sense current
        let jo = ctx.unknown(self.base + 1); // output current
        let row_s = Some(self.base);
        let row_o = Some(self.base + 1);
        // Sense zero-volt branch.
        ctx.through(sp, sn, js, &[(row_s, 1.0)]);
        ctx.residual(row_s, ctx.v(sp) - ctx.v(sn));
        let (s1, s2) = (ctx.node_unknown(sp), ctx.node_unknown(sn));
        ctx.stamp(row_s, s1, 1.0);
        ctx.stamp(row_s, s2, -1.0);
        // Output branch.
        ctx.through(op, on, jo, &[(row_o, 1.0)]);
        ctx.residual(row_o, ctx.v(op) - ctx.v(on) - self.r * js);
        let (o1, o2) = (ctx.node_unknown(op), ctx.node_unknown(on));
        ctx.stamp(row_o, o1, 1.0);
        ctx.stamp(row_o, o2, -1.0);
        ctx.stamp(row_o, row_s, -self.r);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let [op, on, sp, sn] = self.pins;
        let row_s = Some(self.base);
        let row_o = Some(self.base + 1);
        let (s1, s2) = (ctx.node_unknown(sp), ctx.node_unknown(sn));
        let (o1, o2) = (ctx.node_unknown(op), ctx.node_unknown(on));
        ctx.stamp(s1, row_s, Complex64::ONE);
        ctx.stamp(s2, row_s, -Complex64::ONE);
        ctx.stamp(row_s, s1, Complex64::ONE);
        ctx.stamp(row_s, s2, -Complex64::ONE);
        ctx.stamp(o1, row_o, Complex64::ONE);
        ctx.stamp(o2, row_o, -Complex64::ONE);
        ctx.stamp(row_o, o1, Complex64::ONE);
        ctx.stamp(row_o, o2, -Complex64::ONE);
        ctx.stamp(row_o, row_s, Complex64::from_re(-self.r));
        Ok(())
    }
}

/// Nonlinear product-controlled current source
/// `i(out) = k·v(c1)·v(c2)` — the SPICE-primitive workaround the paper
/// suggests for improving linearized equivalent circuits.
#[derive(Debug, Clone)]
pub struct ProductVccs {
    name: Arc<str>,
    pins: [NodeId; 6],
    k: f64,
}

impl ProductVccs {
    /// `i(out_p → out_n) = k · v(c1p, c1n) · v(c2p, c2n)`.
    // Six pins + name + coefficient: inherent to a three-port device.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<Arc<str>>,
        out_p: NodeId,
        out_n: NodeId,
        c1p: NodeId,
        c1n: NodeId,
        c2p: NodeId,
        c2n: NodeId,
        k: f64,
    ) -> Self {
        ProductVccs {
            name: name.into(),
            pins: [out_p, out_n, c1p, c1n, c2p, c2n],
            k,
        }
    }

    /// The product coefficient.
    pub fn coefficient(&self) -> f64 {
        self.k
    }
}

impl Device for ProductVccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn pins(&self) -> &[NodeId] {
        &self.pins
    }

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        let [op, on, c1p, c1n, c2p, c2n] = self.pins;
        let v1 = ctx.v(c1p) - ctx.v(c1n);
        let v2 = ctx.v(c2p) - ctx.v(c2n);
        let i = self.k * v1 * v2;
        if !i.is_finite() {
            return Err(SpiceError::Device {
                device: self.name.to_string(),
                detail: "non-finite output current".into(),
            });
        }
        let g1 = self.k * v2;
        let g2 = self.k * v1;
        let (a1, b1) = (ctx.node_unknown(c1p), ctx.node_unknown(c1n));
        let (a2, b2) = (ctx.node_unknown(c2p), ctx.node_unknown(c2n));
        ctx.through(op, on, i, &[(a1, g1), (b1, -g1), (a2, g2), (b2, -g2)]);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        // Small-signal: i ≈ k·V2₀·Δv1 + k·V1₀·Δv2.
        let [op, on, c1p, c1n, c2p, c2n] = self.pins;
        let v1 = ctx.op_v(c1p) - ctx.op_v(c1n);
        let v2 = ctx.op_v(c2p) - ctx.op_v(c2n);
        let g1 = Complex64::from_re(self.k * v2);
        let g2 = Complex64::from_re(self.k * v1);
        let (ro, rn) = (ctx.node_unknown(op), ctx.node_unknown(on));
        for (ctrl_p, ctrl_n, g) in [(c1p, c1n, g1), (c2p, c2n, g2)] {
            let (cp, cn) = (ctx.node_unknown(ctrl_p), ctx.node_unknown(ctrl_n));
            ctx.stamp(ro, cp, g);
            ctx.stamp(ro, cn, -g);
            ctx.stamp(rn, cp, -g);
            ctx.stamp(rn, cn, g);
        }
        Ok(())
    }
}
