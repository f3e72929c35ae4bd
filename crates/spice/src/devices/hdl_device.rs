//! The behavioral device: hosts a compiled HDL-A model instance.
//!
//! This is the paper's central mechanism — "system-level simulation is
//! performed in the SPICE simulator using behavioral models of the
//! transducers". The device maps the instance's pins onto circuit
//! nodes, exposes the model's `UNKNOWN` objects as extra MNA unknowns,
//! and converts dual-number contributions into residual/Jacobian
//! stamps.

use crate::circuit::{NodeId, UnknownLayout};
use crate::device::{AcLoadCtx, CommitKind, Device, LoadCtx, LoadKind};
use crate::error::{Result, SpiceError};
use mems_hdl::compile::BranchInfo;
use mems_hdl::eval::{DualComplex, DualReal, EvalEnv};
use mems_hdl::model::{HdlModel, Instance};
use mems_numerics::Complex64;

/// A behavioral device wrapping an elaborated HDL-A instance.
pub struct HdlDevice {
    instance: Instance,
    pins: Vec<NodeId>,
    branches: Vec<BranchInfo>,
    n_unknowns: usize,
    base: usize,
    /// Reports collected during the last evaluation.
    pub last_reports: Vec<String>,
}

impl std::fmt::Debug for HdlDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdlDevice")
            .field("name", &self.instance.name())
            .field("model", &self.instance.model().name)
            .field("pins", &self.pins)
            .finish()
    }
}

impl HdlDevice {
    /// Builds a behavioral device.
    ///
    /// `nodes` are positional, matching the entity's pin declaration
    /// order; `generics` override model parameters by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Build`] for a pin-count mismatch and
    /// propagates elaboration failures.
    pub fn new(
        name: &str,
        model: &HdlModel,
        generics: &[(&str, f64)],
        nodes: &[NodeId],
    ) -> Result<Self> {
        let compiled = model.compiled();
        if nodes.len() != compiled.pins.len() {
            return Err(SpiceError::Build(format!(
                "model `{}` has {} pins but {} nodes were supplied",
                compiled.name,
                compiled.pins.len(),
                nodes.len()
            )));
        }
        let instance = model
            .instantiate(name, generics)
            .map_err(|e| SpiceError::Device {
                device: name.to_string(),
                detail: e.to_string(),
            })?;
        let branches = compiled.branches.clone();
        let n_unknowns = compiled.n_unknowns;
        Ok(HdlDevice {
            instance,
            pins: nodes.to_vec(),
            branches,
            n_unknowns,
            base: usize::MAX,
            last_reports: Vec::new(),
        })
    }

    /// The hosted instance (model introspection, state access).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Mutable access to the hosted instance (evaluator selection,
    /// state manipulation in tests).
    pub fn instance_mut(&mut self) -> &mut Instance {
        &mut self.instance
    }

    /// Local gradient slot count: one per pin, then one per unknown.
    fn n_local(&self) -> usize {
        self.pins.len() + self.n_unknowns
    }
}

/// Real-valued evaluation adapter.
struct RealEnv<'a, 'b> {
    dev_pins: &'a [NodeId],
    branches: &'a [BranchInfo],
    base: usize,
    n_local: usize,
    ctx: &'a mut LoadCtx<'b>,
    reports: Vec<String>,
}

impl<'a, 'b> RealEnv<'a, 'b> {
    fn map_slot(&self, slot: usize) -> Option<usize> {
        if slot < self.dev_pins.len() {
            self.ctx.node_unknown(self.dev_pins[slot])
        } else {
            Some(self.base + (slot - self.dev_pins.len()))
        }
    }
}

impl<'a, 'b> EvalEnv<DualReal> for RealEnv<'a, 'b> {
    fn n_grad(&self) -> usize {
        self.n_local
    }

    fn across(&self, branch: usize) -> DualReal {
        let info = self.branches[branch];
        let va = self.ctx.v(self.dev_pins[info.pin_a]);
        let vb = self.ctx.v(self.dev_pins[info.pin_b]);
        let mut g = vec![0.0; self.n_local];
        g[info.pin_a] += 1.0;
        g[info.pin_b] -= 1.0;
        DualReal { v: va - vb, g }
    }

    fn unknown(&self, index: usize) -> DualReal {
        DualReal::variable(
            self.ctx.unknown(self.base + index),
            self.n_local,
            self.dev_pins.len() + index,
        )
    }

    fn contribute(&mut self, branch: usize, value: DualReal) {
        let info = self.branches[branch];
        let a = self.dev_pins[info.pin_a];
        let b = self.dev_pins[info.pin_b];
        let di: Vec<(Option<usize>, f64)> = value
            .g
            .iter()
            .enumerate()
            .filter(|(_, g)| **g != 0.0)
            .map(|(slot, g)| (self.map_slot(slot), *g))
            .collect();
        self.ctx.through(a, b, value.v, &di);
    }

    fn residual(&mut self, index: usize, value: DualReal) {
        let row = Some(self.base + index);
        self.ctx.residual(row, value.v);
        for (slot, g) in value.g.iter().enumerate() {
            if *g != 0.0 {
                self.ctx.stamp(row, self.map_slot(slot), *g);
            }
        }
    }

    fn report(&mut self, message: &str) {
        self.reports.push(message.to_string());
    }
}

/// Complex-valued (AC) evaluation adapter.
struct AcEnv<'a, 'b> {
    dev_pins: &'a [NodeId],
    branches: &'a [BranchInfo],
    base: usize,
    n_local: usize,
    ctx: &'a mut AcLoadCtx<'b>,
}

impl<'a, 'b> AcEnv<'a, 'b> {
    fn map_slot(&self, slot: usize) -> Option<usize> {
        if slot < self.dev_pins.len() {
            self.ctx.node_unknown(self.dev_pins[slot])
        } else {
            Some(self.base + (slot - self.dev_pins.len()))
        }
    }
}

impl<'a, 'b> EvalEnv<DualComplex> for AcEnv<'a, 'b> {
    fn n_grad(&self) -> usize {
        self.n_local
    }

    fn across(&self, branch: usize) -> DualComplex {
        let info = self.branches[branch];
        let va = self.ctx.op_v(self.dev_pins[info.pin_a]);
        let vb = self.ctx.op_v(self.dev_pins[info.pin_b]);
        let mut g = vec![Complex64::ZERO; self.n_local];
        g[info.pin_a] += Complex64::ONE;
        g[info.pin_b] -= Complex64::ONE;
        DualComplex { v: va - vb, g }
    }

    fn unknown(&self, index: usize) -> DualComplex {
        DualComplex::variable(
            self.ctx.op_unknown(self.base + index),
            self.n_local,
            self.dev_pins.len() + index,
        )
    }

    fn contribute(&mut self, branch: usize, value: DualComplex) {
        let info = self.branches[branch];
        let ra = self.ctx.node_unknown(self.dev_pins[info.pin_a]);
        let rb = self.ctx.node_unknown(self.dev_pins[info.pin_b]);
        for (slot, g) in value.g.iter().enumerate() {
            if *g != Complex64::ZERO {
                let col = self.map_slot(slot);
                self.ctx.stamp(ra, col, *g);
                self.ctx.stamp(rb, col, -*g);
            }
        }
    }

    fn residual(&mut self, index: usize, value: DualComplex) {
        let row = Some(self.base + index);
        for (slot, g) in value.g.iter().enumerate() {
            if *g != Complex64::ZERO {
                self.ctx.stamp(row, self.map_slot(slot), *g);
            }
        }
    }

    fn report(&mut self, _message: &str) {}
}

impl Device for HdlDevice {
    fn name(&self) -> &str {
        self.instance.name()
    }

    fn pins(&self) -> &[NodeId] {
        &self.pins
    }

    fn n_internal(&self) -> usize {
        self.n_unknowns
    }

    fn set_internal_base(&mut self, base: usize) {
        self.base = base;
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
        if self.n_unknowns > 0 && self.base == usize::MAX {
            return Err(SpiceError::Device {
                device: self.instance.name().to_string(),
                detail: "layout() was not run before load".into(),
            });
        }
        let kind = ctx.kind;
        let mut env = RealEnv {
            dev_pins: &self.pins,
            branches: &self.branches,
            base: self.base,
            n_local: self.n_local(),
            ctx,
            reports: Vec::new(),
        };
        let result = match kind {
            LoadKind::Dc { .. } => self.instance.eval_dc(&mut env),
            LoadKind::Transient { t, h, method } => {
                self.instance.eval_transient(t, h, method, &mut env)
            }
        };
        self.last_reports = env.reports;
        result.map_err(|e| SpiceError::Device {
            device: self.instance.name().to_string(),
            detail: e.to_string(),
        })
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let omega = ctx.omega;
        let mut env = AcEnv {
            dev_pins: &self.pins,
            branches: &self.branches,
            base: self.base,
            n_local: self.n_local(),
            ctx,
        };
        self.instance
            .eval_ac(omega, &mut env)
            .map_err(|e| SpiceError::Device {
                device: self.instance.name().to_string(),
                detail: e.to_string(),
            })
    }

    fn commit(&mut self, _x: &[f64], _layout: &UnknownLayout, kind: CommitKind) {
        if kind.is_dc {
            self.instance.commit_dc();
        } else {
            self.instance.commit_transient(kind.h);
        }
    }
}
