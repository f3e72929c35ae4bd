//! The device abstraction and the stamping contexts.
//!
//! Every analysis is formulated as `F(x) = 0` solved by Newton:
//! devices add their residual terms and Jacobian entries through
//! [`LoadCtx`]. Conventions:
//!
//! - KCL rows: a through quantity flowing *out of* node `a` *into* the
//!   device adds `+i` to row `a` and `−i` to row `b`.
//! - Branch rows (device-internal unknowns) hold the device's own
//!   constitutive equation, e.g. `v_a − v_b − V(t) = 0`.
//!
//! AC analysis assembles the complex linear system `J·X = B` via
//! [`AcLoadCtx`]; the Jacobian entries are the same conductances plus
//! `jωC` terms, and `B` collects small-signal source phasors.

use crate::circuit::{NodeId, UnknownLayout};
use crate::error::Result;
use crate::system::SystemMatrix;
use mems_numerics::ode::IntegrationMethod;
use mems_numerics::Complex64;

/// What the (real-valued) load pass is computing.
#[derive(Debug, Clone, Copy)]
pub enum LoadKind {
    /// DC operating point. `gmin` leaks every node to ground;
    /// `source_scale` ramps independent sources during source stepping.
    Dc {
        /// Leak conductance added from every node to ground.
        gmin: f64,
        /// Source scale factor in `[0, 1]`.
        source_scale: f64,
    },
    /// Transient step to time `t` with step `h`.
    Transient {
        /// New (end-of-step) time.
        t: f64,
        /// Step size.
        h: f64,
        /// Integration method.
        method: IntegrationMethod,
    },
}

impl LoadKind {
    /// Source scale factor (1 except during source stepping).
    pub fn source_scale(&self) -> f64 {
        match self {
            LoadKind::Dc { source_scale, .. } => *source_scale,
            LoadKind::Transient { .. } => 1.0,
        }
    }

    /// The time sources should be evaluated at.
    pub fn time(&self) -> f64 {
        match self {
            LoadKind::Dc { .. } => 0.0,
            LoadKind::Transient { t, .. } => *t,
        }
    }
}

/// Real-valued stamping context (DC and transient Newton iterations).
pub struct LoadCtx<'a> {
    /// What is being computed.
    pub kind: LoadKind,
    layout: &'a UnknownLayout,
    x: &'a [f64],
    jac: &'a mut dyn SystemMatrix<f64>,
    resid: &'a mut [f64],
    row_scale: &'a mut [f64],
}

impl<'a> LoadCtx<'a> {
    /// Creates a context over freshly zeroed assembly storage.
    pub fn new(
        kind: LoadKind,
        layout: &'a UnknownLayout,
        x: &'a [f64],
        jac: &'a mut dyn SystemMatrix<f64>,
        resid: &'a mut [f64],
        row_scale: &'a mut [f64],
    ) -> Self {
        LoadCtx {
            kind,
            layout,
            x,
            jac,
            resid,
            row_scale,
        }
    }

    /// The unknown layout.
    pub fn layout(&self) -> &UnknownLayout {
        self.layout
    }

    /// Across value of a node under the current iterate.
    pub fn v(&self, n: NodeId) -> f64 {
        self.layout.node_value(self.x, n)
    }

    /// Value of an arbitrary unknown.
    pub fn unknown(&self, index: usize) -> f64 {
        self.x[index]
    }

    /// Unknown index of a node (`None` = ground).
    pub fn node_unknown(&self, n: NodeId) -> Option<usize> {
        self.layout.node_unknown(n)
    }

    /// Adds `g` to the Jacobian at `(row, col)`; ground rows/cols are
    /// silently dropped.
    pub fn stamp(&mut self, row: Option<usize>, col: Option<usize>, g: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.jac.add(r, c, g);
        }
    }

    /// Adds `f` to the residual row (and tracks the row scale for
    /// convergence checks).
    pub fn residual(&mut self, row: Option<usize>, f: f64) {
        if let Some(r) = row {
            self.resid[r] += f;
            self.row_scale[r] += f.abs();
        }
    }

    /// Stamps a through quantity `i` flowing from node `a` into the
    /// device and out at node `b`, with Jacobian entries
    /// `di_d[(unknown, ∂i/∂unknown)]`.
    pub fn through(&mut self, a: NodeId, b: NodeId, i: f64, di_d: &[(Option<usize>, f64)]) {
        let ra = self.node_unknown(a);
        let rb = self.node_unknown(b);
        self.residual(ra, i);
        self.residual(rb, -i);
        for &(col, g) in di_d {
            self.stamp(ra, col, g);
            if let Some(r) = rb {
                self.stamp(Some(r), col, -g);
            }
        }
    }

    /// Convenience: linear conductance `g` between `a` and `b`
    /// (current `g·(v_a − v_b)` from `a` to `b`).
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let va = self.v(a);
        let vb = self.v(b);
        let ca = self.node_unknown(a);
        let cb = self.node_unknown(b);
        self.through(a, b, g * (va - vb), &[(ca, g), (cb, -g)]);
    }
}

/// Complex stamping context for the AC small-signal system `J·X = B`.
pub struct AcLoadCtx<'a> {
    /// Angular frequency [rad/s].
    pub omega: f64,
    layout: &'a UnknownLayout,
    /// DC operating-point solution.
    op: &'a [f64],
    jac: &'a mut dyn SystemMatrix<Complex64>,
    rhs: &'a mut [Complex64],
}

impl<'a> AcLoadCtx<'a> {
    /// Creates a context over zeroed complex storage.
    pub fn new(
        omega: f64,
        layout: &'a UnknownLayout,
        op: &'a [f64],
        jac: &'a mut dyn SystemMatrix<Complex64>,
        rhs: &'a mut [Complex64],
    ) -> Self {
        AcLoadCtx {
            omega,
            layout,
            op,
            jac,
            rhs,
        }
    }

    /// The unknown layout.
    pub fn layout(&self) -> &UnknownLayout {
        self.layout
    }

    /// Operating-point across value of a node.
    pub fn op_v(&self, n: NodeId) -> f64 {
        self.layout.node_value(self.op, n)
    }

    /// Operating-point value of an arbitrary unknown.
    pub fn op_unknown(&self, index: usize) -> f64 {
        self.op[index]
    }

    /// Unknown index of a node (`None` = ground).
    pub fn node_unknown(&self, n: NodeId) -> Option<usize> {
        self.layout.node_unknown(n)
    }

    /// Adds a complex admittance entry.
    pub fn stamp(&mut self, row: Option<usize>, col: Option<usize>, y: Complex64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.jac.add(r, c, y);
        }
    }

    /// Adds to the right-hand side (independent source phasors).
    pub fn rhs(&mut self, row: Option<usize>, b: Complex64) {
        if let Some(r) = row {
            self.rhs[r] += b;
        }
    }

    /// Stamps the standard two-terminal admittance pattern.
    pub fn admittance(&mut self, a: NodeId, b: NodeId, y: Complex64) {
        let ra = self.node_unknown(a);
        let rb = self.node_unknown(b);
        self.stamp(ra, ra, y);
        self.stamp(rb, rb, y);
        self.stamp(ra, rb, -y);
        self.stamp(rb, ra, -y);
    }
}

/// Information passed to devices when a solution is accepted.
#[derive(Debug, Clone, Copy)]
pub struct CommitKind {
    /// `true` when committing the DC operating point (histories seed
    /// with zero time derivatives), `false` for a transient step.
    pub is_dc: bool,
    /// Step size (0 for DC).
    pub h: f64,
}

/// A circuit element.
///
/// Implementations stamp residuals/Jacobians in [`Device::load`]
/// (DC + transient) and complex admittances in [`Device::load_ac`].
///
/// `Send` is a supertrait: circuits are built on one thread and run
/// on another (batch workers, the `mems serve` artifact cache), so
/// every device must be transferable across threads.
pub trait Device: Send {
    /// Instance name. Elaborated decks keep it unique; a circuit does
    /// not check.
    fn name(&self) -> &str;

    /// Connected nodes.
    fn pins(&self) -> &[NodeId];

    /// Number of internal unknowns (branch currents, HDL unknowns).
    fn n_internal(&self) -> usize {
        0
    }

    /// Receives the global index of the first internal unknown.
    fn set_internal_base(&mut self, _base: usize) {}

    /// Stamps the DC/transient residual and Jacobian.
    ///
    /// # Errors
    ///
    /// Returns a device error when evaluation fails (the Newton loop
    /// treats this as a rejected iterate).
    fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()>;

    /// Stamps the AC system.
    ///
    /// # Errors
    ///
    /// Returns a device error when evaluation fails.
    fn load_ac(&mut self, ctx: &mut AcLoadCtx<'_>) -> Result<()>;

    /// Whether the device's contribution to `F` is affine in the
    /// unknowns for every [`LoadKind`]: its Jacobian entries do not
    /// depend on the iterate, and its residual moves by exactly `J·Δx`
    /// (up to rounding). A circuit of such devices lets Newton accept
    /// its first undamped update (see
    /// [`newton_in`](crate::solver::newton_in)).
    ///
    /// It is a constant of the device type, not of its parameter
    /// values or state, and it defaults to `false`, so a new device
    /// is solved as nonlinear until it opts in. An implementation
    /// that returns `true` must pass the linearity property test in
    /// `tests/device_linearity.rs`.
    fn is_linear(&self) -> bool {
        false
    }

    /// Accepts the converged solution `x` (update histories).
    fn commit(&mut self, _x: &[f64], _layout: &UnknownLayout, _kind: CommitKind) {}

    /// Waveform breakpoints strictly inside `(0, t_end)` the transient
    /// engine must not step across, at most
    /// [`MAX_POINTS`](crate::analysis::MAX_POINTS) + 1 of them (see
    /// [`Waveform::breakpoints`](crate::wave::Waveform::breakpoints)).
    fn breakpoints(&self, _t_end: f64) -> Vec<f64> {
        Vec::new()
    }
}
