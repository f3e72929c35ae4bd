//! Linear passives: resistor, capacitor, inductor.

use crate::circuit::{NodeId, UnknownLayout};
use crate::device::{AcLoadCtx, CommitKind, Device, LoadCtx, LoadKind};
use crate::error::{Result, SpiceError};
use mems_numerics::ode::DiffFormula;
use mems_numerics::Complex64;
use std::sync::Arc;

/// Linear resistor `i = (v_a − v_b)/R`.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: Arc<str>,
    pins: [NodeId; 2],
    resistance: f64,
}

impl Resistor {
    /// Creates a resistor; `resistance` must be nonzero and finite.
    ///
    /// # Panics
    ///
    /// Panics on zero/non-finite resistance (programming error).
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, resistance: f64) -> Self {
        let name = name.into();
        assert!(
            resistance != 0.0 && resistance.is_finite(),
            "resistor `{name}` needs a nonzero finite resistance"
        );
        Resistor {
            name,
            pins: [a, b],
            resistance,
        }
    }

    /// The resistance \[Ω\].
    pub fn resistance(&self) -> f64 {
        self.resistance
    }
}

impl Device for Resistor {
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
        ctx.conductance(self.pins[0], self.pins[1], 1.0 / self.resistance);
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        ctx.admittance(
            self.pins[0],
            self.pins[1],
            Complex64::from_re(1.0 / self.resistance),
        );
        Ok(())
    }
}

/// Linear capacitor `i = C·d(v_a − v_b)/dt`.
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: Arc<str>,
    pins: [NodeId; 2],
    capacitance: f64,
    /// Committed voltage and its derivative (for TR history).
    v_prev: f64,
    dvdt_prev: f64,
    v_prev2: f64,
    h_prev: f64,
    primed2: bool,
    /// Formula of the in-flight step (committed on accept).
    last_formula: Option<DiffFormula>,
}

impl Capacitor {
    /// Creates a capacitor; `capacitance` must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics on non-positive/non-finite capacitance.
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, capacitance: f64) -> Self {
        let name = name.into();
        assert!(
            capacitance > 0.0 && capacitance.is_finite(),
            "capacitor `{name}` needs a positive capacitance"
        );
        Capacitor {
            name,
            pins: [a, b],
            capacitance,
            v_prev: 0.0,
            dvdt_prev: 0.0,
            v_prev2: 0.0,
            h_prev: 0.0,
            primed2: false,
            last_formula: None,
        }
    }

    /// The capacitance \[F\].
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }
}

impl Device for Capacitor {
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
        match ctx.kind {
            LoadKind::Dc { .. } => {
                // Open at DC; nothing to stamp.
                self.last_formula = None;
                Ok(())
            }
            LoadKind::Transient { h, method, .. } => {
                let f = DiffFormula::new(
                    method,
                    h,
                    self.v_prev,
                    self.dvdt_prev,
                    self.v_prev2,
                    self.h_prev,
                    self.primed2,
                );
                self.last_formula = Some(f);
                let (a, b) = (self.pins[0], self.pins[1]);
                let v = ctx.v(a) - ctx.v(b);
                let i = self.capacitance * f.ddt(v);
                let g = self.capacitance * f.c0;
                let ca = ctx.node_unknown(a);
                let cb = ctx.node_unknown(b);
                ctx.through(a, b, i, &[(ca, g), (cb, -g)]);
                Ok(())
            }
        }
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        ctx.admittance(
            self.pins[0],
            self.pins[1],
            Complex64::new(0.0, ctx.omega * self.capacitance),
        );
        Ok(())
    }

    fn commit(&mut self, x: &[f64], layout: &UnknownLayout, kind: CommitKind) {
        let v = layout.node_value(x, self.pins[0]) - layout.node_value(x, self.pins[1]);
        if kind.is_dc {
            self.v_prev = v;
            self.dvdt_prev = 0.0;
            self.v_prev2 = v;
            self.h_prev = 0.0;
            self.primed2 = false;
        } else {
            self.v_prev2 = self.v_prev;
            self.primed2 = true;
            let dvdt = match self.last_formula {
                Some(f) => f.ddt(v),
                None => 0.0,
            };
            self.v_prev = v;
            self.dvdt_prev = dvdt;
            self.h_prev = kind.h;
        }
    }
}

/// Linear inductor `v_a − v_b = L·di/dt` with a branch-current
/// unknown (MNA group 2).
#[derive(Debug, Clone)]
pub struct Inductor {
    name: Arc<str>,
    pins: [NodeId; 2],
    inductance: f64,
    base: usize,
    i_prev: f64,
    didt_prev: f64,
    i_prev2: f64,
    h_prev: f64,
    primed2: bool,
    last_formula: Option<DiffFormula>,
}

impl Inductor {
    /// Creates an inductor; `inductance` must be positive and finite.
    ///
    /// # Panics
    ///
    /// Panics on non-positive/non-finite inductance.
    pub fn new(name: impl Into<Arc<str>>, a: NodeId, b: NodeId, inductance: f64) -> Self {
        let name = name.into();
        assert!(
            inductance > 0.0 && inductance.is_finite(),
            "inductor `{name}` needs a positive inductance"
        );
        Inductor {
            name,
            pins: [a, b],
            inductance,
            base: usize::MAX,
            i_prev: 0.0,
            didt_prev: 0.0,
            i_prev2: 0.0,
            h_prev: 0.0,
            primed2: false,
            last_formula: None,
        }
    }

    /// The inductance \[H\].
    pub fn inductance(&self) -> f64 {
        self.inductance
    }

    /// Global unknown index of the branch current.
    pub fn branch_unknown(&self) -> usize {
        self.base
    }
}

impl Device for Inductor {
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
        let (a, b) = (self.pins[0], self.pins[1]);
        let j = ctx.unknown(self.base);
        let row_j = Some(self.base);
        // KCL: branch current enters at a, leaves at b.
        ctx.through(a, b, j, &[(row_j, 1.0)]);
        let va = ctx.v(a);
        let vb = ctx.v(b);
        let ca = ctx.node_unknown(a);
        let cb = ctx.node_unknown(b);
        match ctx.kind {
            LoadKind::Dc { .. } => {
                // Short at DC: v_a − v_b = 0, regularized with a
                // vanishing series resistance so parallel inductors
                // (e.g. two springs on one mechanical node) do not
                // make the DC system exactly singular. The resistance
                // is proportional to L so parallel inductors divide DC
                // current ∝ 1/L — the physical split (spring forces
                // ∝ stiffness).
                let r_reg = 1e-6 * self.inductance;
                self.last_formula = None;
                ctx.residual(row_j, va - vb - r_reg * j);
                ctx.stamp(row_j, ca, 1.0);
                ctx.stamp(row_j, cb, -1.0);
                ctx.stamp(row_j, row_j, -r_reg);
            }
            LoadKind::Transient { h, method, .. } => {
                let f = DiffFormula::new(
                    method,
                    h,
                    self.i_prev,
                    self.didt_prev,
                    self.i_prev2,
                    self.h_prev,
                    self.primed2,
                );
                self.last_formula = Some(f);
                // v_a − v_b − L·(c0·j + hist) = 0
                ctx.residual(row_j, va - vb - self.inductance * f.ddt(j));
                ctx.stamp(row_j, ca, 1.0);
                ctx.stamp(row_j, cb, -1.0);
                ctx.stamp(row_j, row_j, -self.inductance * f.c0);
            }
        }
        Ok(())
    }

    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()> {
        let (a, b) = (self.pins[0], self.pins[1]);
        let row_j = Some(self.base);
        let ca = ctx.node_unknown(a);
        let cb = ctx.node_unknown(b);
        // KCL.
        ctx.stamp(ca, row_j, Complex64::ONE);
        ctx.stamp(cb, row_j, -Complex64::ONE);
        // Branch: V_a − V_b − jωL·J = 0.
        ctx.stamp(row_j, ca, Complex64::ONE);
        ctx.stamp(row_j, cb, -Complex64::ONE);
        ctx.stamp(
            row_j,
            row_j,
            Complex64::new(0.0, -ctx.omega * self.inductance),
        );
        Ok(())
    }

    fn commit(&mut self, x: &[f64], _layout: &UnknownLayout, kind: CommitKind) {
        let j = x[self.base];
        if kind.is_dc {
            self.i_prev = j;
            self.didt_prev = 0.0;
            self.i_prev2 = j;
            self.h_prev = 0.0;
            self.primed2 = false;
        } else {
            self.i_prev2 = self.i_prev;
            self.primed2 = true;
            let didt = match self.last_formula {
                Some(f) => f.ddt(j),
                None => 0.0,
            };
            self.i_prev = j;
            self.didt_prev = didt;
            self.h_prev = kind.h;
        }
    }
}
