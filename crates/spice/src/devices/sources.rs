//! Independent sources with waveforms and AC specifications.

use crate::circuit::{NodeId, UnknownLayout};
use crate::device::{AcLoadCtx, CommitKind, Device, LoadCtx};
use crate::error::{Result, SpiceError};
use crate::wave::Waveform;
use mems_numerics::Complex64;
use std::sync::Arc;

/// Small-signal stimulus specification (magnitude, phase in degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcSpec {
    /// Magnitude of the phasor.
    pub mag: f64,
    /// Phase in degrees.
    pub phase_deg: f64,
}

impl AcSpec {
    /// Unit stimulus (1∠0°).
    pub fn unit() -> Self {
        AcSpec {
            mag: 1.0,
            phase_deg: 0.0,
        }
    }

    /// The complex phasor.
    pub fn phasor(self) -> Complex64 {
        Complex64::from_polar(self.mag, self.phase_deg.to_radians())
    }
}

/// Independent voltage source (nature-agnostic "across source": also
/// serves as a velocity source on mechanical nodes under the FI
/// analogy).
#[derive(Debug, Clone)]
pub struct VoltageSource {
    name: Arc<str>,
    pins: [NodeId; 2],
    wave: Waveform,
    ac: Option<AcSpec>,
    base: usize,
}

impl VoltageSource {
    /// Creates a source forcing `v_a − v_b = wave(t)`.
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, wave: Waveform) -> Self {
        VoltageSource {
            name: name.into(),
            pins: [a, b],
            wave,
            ac: None,
            base: usize::MAX,
        }
    }

    /// Attaches an AC stimulus.
    pub fn with_ac(mut self, spec: AcSpec) -> Self {
        self.ac = Some(spec);
        self
    }

    /// The waveform.
    pub fn waveform(&self) -> &Waveform {
        &self.wave
    }

    /// Global unknown index of the branch current.
    pub fn branch_unknown(&self) -> usize {
        self.base
    }
}

impl Device for VoltageSource {
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

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        if self.base == usize::MAX {
            return Err(SpiceError::Device {
                device: self.name.to_string(),
                detail: "layout() was not run before load".into(),
            });
        }
        let (a, b) = (self.pins[0], self.pins[1]);
        let j = ctx.unknown(self.base);
        let row_j = Some(self.base);
        ctx.through(a, b, j, &[(row_j, 1.0)]);
        let target = self.wave.at(ctx.kind.time()) * ctx.kind.source_scale();
        let ca = ctx.node_unknown(a);
        let cb = ctx.node_unknown(b);
        ctx.residual(row_j, ctx.v(a) - ctx.v(b) - target);
        ctx.stamp(row_j, ca, 1.0);
        ctx.stamp(row_j, cb, -1.0);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let (a, b) = (self.pins[0], self.pins[1]);
        let row_j = Some(self.base);
        let ca = ctx.node_unknown(a);
        let cb = ctx.node_unknown(b);
        ctx.stamp(ca, row_j, Complex64::ONE);
        ctx.stamp(cb, row_j, -Complex64::ONE);
        ctx.stamp(row_j, ca, Complex64::ONE);
        ctx.stamp(row_j, cb, -Complex64::ONE);
        let phasor = self.ac.map_or(Complex64::ZERO, AcSpec::phasor);
        ctx.rhs(row_j, phasor);
        Ok(())
    }

    fn commit(&mut self, _x: &[f64], _layout: &UnknownLayout, _kind: CommitKind) {}

    fn breakpoints(&self, t_end: f64) -> Vec<f64> {
        self.wave.breakpoints(t_end)
    }
}

/// Independent current source (a force source on mechanical nodes
/// under the FI analogy): pushes `wave(t)` from pin `a` through itself
/// to pin `b`.
#[derive(Debug, Clone)]
pub struct CurrentSource {
    name: Arc<str>,
    pins: [NodeId; 2],
    wave: Waveform,
    ac: Option<AcSpec>,
}

impl CurrentSource {
    /// Creates a source forcing current `wave(t)` from `a` to `b`.
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, wave: Waveform) -> Self {
        CurrentSource {
            name: name.into(),
            pins: [a, b],
            wave,
            ac: None,
        }
    }

    /// Attaches an AC stimulus.
    pub fn with_ac(mut self, spec: AcSpec) -> Self {
        self.ac = Some(spec);
        self
    }

    /// The waveform.
    pub fn waveform(&self) -> &Waveform {
        &self.wave
    }
}

impl Device for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn pins(&self) -> &[NodeId] {
        &self.pins
    }

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        let i = self.wave.at(ctx.kind.time()) * ctx.kind.source_scale();
        ctx.through(self.pins[0], self.pins[1], i, &[]);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        // Constant (x-independent) term moves to the RHS with opposite
        // sign: J·X = B.
        let phasor = self.ac.map_or(Complex64::ZERO, AcSpec::phasor);
        let ra = ctx.node_unknown(self.pins[0]);
        let rb = ctx.node_unknown(self.pins[1]);
        ctx.rhs(ra, -phasor);
        ctx.rhs(rb, phasor);
        Ok(())
    }

    fn breakpoints(&self, t_end: f64) -> Vec<f64> {
        self.wave.breakpoints(t_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ac_spec_phasor() {
        let p = AcSpec {
            mag: 2.0,
            phase_deg: 90.0,
        }
        .phasor();
        assert!(p.re.abs() < 1e-12);
        assert!((p.im - 2.0).abs() < 1e-12);
        assert_eq!(AcSpec::unit().mag, 1.0);
    }
}
