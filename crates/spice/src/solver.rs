//! Shared Newton–Raphson machinery.
//!
//! Every analysis formulates `F(x) = 0` over the unknown vector and
//! iterates `J·Δ = −F`. Convergence uses SPICE-style mixed criteria:
//! per-unknown update tolerances (with per-kind absolute floors) and
//! residual tolerances scaled by the magnitude of the terms that were
//! summed into each row.

use crate::circuit::{Circuit, UnknownKind, UnknownLayout};
use crate::device::{LoadCtx, LoadKind};
use crate::error::{Result, SpiceError};
use crate::system::{new_system, reusable, FactorKind, FillOrdering, MatrixBackend, SystemMatrix};
use mems_hdl::Nature;

/// Global simulator options (tolerances, iteration budgets).
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Relative tolerance on unknown updates and residuals.
    pub reltol: f64,
    /// Absolute tolerance for electrical node voltages \[V\].
    pub abstol_voltage: f64,
    /// Absolute tolerance for non-electrical across quantities
    /// (velocities m/s, pressures Pa, …).
    pub abstol_across: f64,
    /// Absolute tolerance for internal unknowns (currents A, forces N).
    pub abstol_internal: f64,
    /// Newton iteration budget per solve.
    pub max_iter: usize,
    /// Leak conductance from every node to ground.
    pub gmin: f64,
    /// Maximum per-iteration update magnitude (Newton damping); `0`
    /// disables limiting.
    pub max_step: f64,
    /// Linear-algebra backend (deck option `sparse=0/1`; `Auto`
    /// switches to sparse at
    /// [`AUTO_SPARSE_THRESHOLD`](crate::system::AUTO_SPARSE_THRESHOLD)
    /// unknowns).
    pub matrix: MatrixBackend,
    /// Fill-reducing column ordering for the sparse backend (deck
    /// option `order=nd|amd|natural|auto`; `Auto` by default). Ignored
    /// by the dense backend.
    pub ordering: FillOrdering,
    /// Has no effect; kept only because the `perfbench` benchmark reads it.
    pub factor: FactorKind,
    /// Has no effect; kept only because the `perfbench` benchmark reads it.
    pub factor_threads: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            reltol: 1e-6,
            abstol_voltage: 1e-9,
            abstol_across: 1e-12,
            abstol_internal: 1e-12,
            max_iter: 100,
            gmin: 1e-12,
            max_step: 0.0,
            matrix: MatrixBackend::Auto,
            ordering: FillOrdering::default(),
            factor: FactorKind::default(),
            factor_threads: 0,
        }
    }
}

impl SimOptions {
    /// Absolute tolerance for one unknown kind.
    pub fn abstol(&self, kind: UnknownKind) -> f64 {
        match kind {
            UnknownKind::NodeAcross(Nature::Electrical) => self.abstol_voltage,
            UnknownKind::NodeAcross(_) => self.abstol_across,
            UnknownKind::Internal => self.abstol_internal,
        }
    }
}

/// Reusable assembly storage (avoids reallocating each iteration —
/// and, on the sparse backend, carries the sparsity pattern, stamp
/// tape and symbolic factorization across Newton iterations, transient
/// steps, analyses, and batch points with identical structure).
pub struct Workspace {
    /// System (Jacobian) matrix behind the backend-agnostic trait.
    pub sys: Box<dyn SystemMatrix<f64>>,
    /// Residual vector.
    pub resid: Vec<f64>,
    /// Row scales (sums of |terms| per row).
    pub row_scale: Vec<f64>,
    /// Newton right-hand side `−F`.
    rhs: Vec<f64>,
    /// Newton update `Δ`, solved into in place.
    delta: Vec<f64>,
}

impl Workspace {
    /// Allocates a workspace for `n` unknowns with automatic backend
    /// selection and the default fill-reducing ordering. Analyses
    /// re-target it with [`ensure`](Self::ensure).
    pub fn new(n: usize) -> Self {
        Self::build(n, MatrixBackend::Auto, FillOrdering::default())
    }

    /// [`new`](Self::new) with explicit backend and ordering policies,
    /// for the `perfbench` benchmark, which is the only reason it
    /// exists; `_factor` and `_factor_threads` are ignored.
    pub fn with_solver(
        n: usize,
        backend: MatrixBackend,
        ordering: FillOrdering,
        _factor: FactorKind,
        _factor_threads: usize,
    ) -> Self {
        Self::build(n, backend, ordering)
    }

    fn build(n: usize, backend: MatrixBackend, ordering: FillOrdering) -> Self {
        Workspace {
            sys: new_system(n, backend, ordering),
            resid: vec![0.0; n],
            row_scale: vec![0.0; n],
            rhs: vec![0.0; n],
            delta: vec![0.0; n],
        }
    }

    /// Unknown count the workspace is sized for.
    pub fn n(&self) -> usize {
        self.sys.n()
    }

    /// Re-targets the workspace to `n` unknowns under `backend` and
    /// `ordering`, keeping all cached structure (sparsity pattern,
    /// column ordering, symbolic factorization) while the system is
    /// [`reusable`]. This is the reuse hook for sweeps and
    /// `.STEP`/`.MC` batches: same topology → same layout → the
    /// expensive analysis happens once.
    pub fn ensure(&mut self, n: usize, backend: MatrixBackend, ordering: FillOrdering) {
        if !reusable(self.sys.as_ref(), n, backend, ordering) {
            *self = Workspace::build(n, backend, ordering);
        }
    }
}

/// Assembles `F` and `J` at iterate `x`.
///
/// # Errors
///
/// Propagates device evaluation failures.
pub fn assemble(
    circuit: &mut Circuit,
    layout: &UnknownLayout,
    kind: LoadKind,
    gmin: f64,
    x: &[f64],
    ws: &mut Workspace,
) -> Result<()> {
    ws.sys.clear();
    ws.resid.iter_mut().for_each(|v| *v = 0.0);
    ws.row_scale.iter_mut().for_each(|v| *v = 0.0);
    {
        let mut ctx = LoadCtx::new(
            kind,
            layout,
            x,
            ws.sys.as_mut(),
            &mut ws.resid,
            &mut ws.row_scale,
        );
        for dev in circuit.devices_mut() {
            dev.load(&mut ctx)?;
        }
    }
    // gmin leak on node rows keeps floating nodes solvable.
    if gmin > 0.0 {
        for (k, kind) in layout.kinds.iter().enumerate() {
            if matches!(kind, UnknownKind::NodeAcross(_)) {
                ws.resid[k] += gmin * x[k];
                ws.sys.add(k, k, gmin);
            }
        }
    }
    Ok(())
}

/// Newton solve outcome.
#[derive(Debug, Clone)]
pub struct NewtonOutcome {
    /// The converged solution.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
}

/// Runs the Newton iteration from `x0`.
///
/// # Errors
///
/// - [`SpiceError::NoConvergence`] when the budget is exhausted or an
///   update or residual is not finite;
/// - [`SpiceError::Singular`] from the linear solver;
/// - device errors from assembly.
pub fn newton(
    circuit: &mut Circuit,
    layout: &UnknownLayout,
    kind: LoadKind,
    gmin: f64,
    opts: &SimOptions,
    x0: &[f64],
    ws: &mut Workspace,
) -> Result<NewtonOutcome> {
    let n = layout.n_unknowns;
    let mut x = x0.to_vec();
    for it in 0..opts.max_iter {
        assemble(circuit, layout, kind, gmin, &x, ws)?;
        if !ws.sys.all_finite() {
            return Err(SpiceError::Device {
                device: "<assembly>".into(),
                detail: "non-finite Jacobian entry".into(),
            });
        }
        ws.sys.factor().map_err(|e| {
            SpiceError::Singular(format!(
                "{e} (unknowns: {})",
                worst_rows(layout, &ws.row_scale)
            ))
        })?;
        for (r, f) in ws.rhs.iter_mut().zip(&ws.resid) {
            *r = -f;
        }
        ws.sys.solve_into(&ws.rhs, &mut ws.delta)?;
        let delta = &mut ws.delta;

        // Optional damping.
        if opts.max_step > 0.0 {
            let worst = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            if worst > opts.max_step {
                let k = opts.max_step / worst;
                delta.iter_mut().for_each(|d| *d *= k);
            }
        }

        let mut converged = true;
        for k in 0..n {
            // A NaN passes no `>` test below, so a non-finite update or
            // residual would read as converged.
            if !(delta[k].is_finite() && ws.resid[k].is_finite()) {
                return Err(SpiceError::NoConvergence {
                    analysis: "newton".into(),
                    detail: format!(
                        "non-finite update or residual at {} in iteration {}",
                        layout.labels[k],
                        it + 1
                    ),
                });
            }
            let x_new = x[k] + delta[k];
            let tol = opts.reltol * x[k].abs().max(x_new.abs()) + opts.abstol(layout.kinds[k]);
            if delta[k].abs() > tol {
                converged = false;
            }
            x[k] = x_new;
        }
        // Residual criterion on the *pre-update* residual: a row must
        // be small relative to the terms that built it.
        if converged {
            for k in 0..n {
                let tol = opts.reltol * ws.row_scale[k] + opts.abstol(layout.kinds[k]);
                if ws.resid[k].abs() > tol {
                    converged = false;
                    break;
                }
            }
        }
        if converged {
            return Ok(NewtonOutcome {
                x,
                iterations: it + 1,
            });
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton".into(),
        detail: format!("{} iterations exhausted", opts.max_iter),
    })
}

fn worst_rows(layout: &UnknownLayout, row_scale: &[f64]) -> String {
    let mut idx: Vec<usize> = (0..row_scale.len()).collect();
    idx.sort_by(|&a, &b| row_scale[a].total_cmp(&row_scale[b]));
    idx.iter()
        .take(3)
        .map(|&i| layout.labels[i].as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, NodeId};
    use crate::device::{Device, LoadCtx};
    use crate::devices::controlled::ProductVccs;
    use crate::devices::passive::Resistor;
    use crate::devices::sources::{CurrentSource, VoltageSource};
    use crate::wave::Waveform;

    fn dc_kind() -> LoadKind {
        LoadKind::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        }
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(10.0)))
            .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Resistor::new("r2", b, g, 3e3)).unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            opts.gmin,
            &opts,
            &vec![0.0; layout.n_unknowns],
            &mut ws,
        )
        .unwrap();
        let va = layout.node_value(&out.x, a);
        let vb = layout.node_value(&out.x, b);
        assert!((va - 10.0).abs() < 1e-9);
        assert!((vb - 7.5).abs() < 1e-8);
        // Branch current of the source: −10 V across 4 kΩ total.
        let j = out.x[2];
        assert!((j + 2.5e-3).abs() < 1e-9, "source current {j}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(CurrentSource::new("i1", g, a, Waveform::Dc(1e-3)))
            .unwrap();
        c.add(Resistor::new("r1", a, g, 2e3)).unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            opts.gmin,
            &opts,
            &[0.0],
            &mut ws,
        )
        .unwrap();
        // 1 mA pushed into node a across 2 kΩ → 2 V (gmin shifts ~nV).
        assert!((out.x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn nonlinear_product_source_converges() {
        // i = k·v·v with a 1 A pull-up: v² = 1/k → v = sqrt(1/k).
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(CurrentSource::new("i1", g, a, Waveform::Dc(1.0)))
            .unwrap();
        c.add(ProductVccs::new("q1", a, g, a, g, a, g, 0.25))
            .unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            opts.gmin,
            &opts,
            &[1.0],
            &mut ws,
        )
        .unwrap();
        assert!((out.x[0] - 2.0).abs() < 1e-9, "v = {}", out.x[0]);
        assert!(out.iterations < 20);
    }

    /// Stamps a finite conductance from its node to ground and a NaN
    /// residual: an evaluation that went wrong without an error.
    struct NanResidual {
        pins: [NodeId; 1],
    }

    impl Device for NanResidual {
        fn name(&self) -> &str {
            "nan"
        }

        fn pins(&self) -> &[NodeId] {
            &self.pins
        }

        fn load(&mut self, ctx: &mut LoadCtx<'_>) -> Result<()> {
            let row = ctx.node_unknown(self.pins[0]);
            ctx.stamp(row, row, 1.0);
            ctx.residual(row, f64::NAN);
            Ok(())
        }

        fn load_ac(&mut self, _ctx: &mut crate::device::AcLoadCtx<'_>) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn nan_residual_is_not_convergence() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        c.add(NanResidual { pins: [a] }).unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(&mut c, &layout, dc_kind(), 0.0, &opts, &[0.0], &mut ws);
        match out {
            Err(SpiceError::NoConvergence { detail, .. }) => {
                assert!(
                    detail.contains("non-finite update or residual at v(a)"),
                    "{detail}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nan_row_scale_on_a_singular_matrix_is_reported() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let _floating = c.enode("b").unwrap();
        c.add(NanResidual { pins: [a] }).unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(&mut c, &layout, dc_kind(), 0.0, &opts, &[0.0; 2], &mut ws);
        match out {
            Err(SpiceError::Singular(m)) => assert!(m.contains("v(b), v(a)"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn floating_node_is_singular_without_gmin() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        // b floats.
        let _ = b;
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let err = newton(
            &mut c,
            &layout,
            dc_kind(),
            0.0,
            &opts,
            &vec![0.0; layout.n_unknowns],
            &mut ws,
        );
        assert!(matches!(err, Err(SpiceError::Singular(_))));
        // With gmin it solves (b pulled to 0).
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            1e-12,
            &opts,
            &vec![0.0; layout.n_unknowns],
            &mut ws,
        )
        .unwrap();
        assert_eq!(out.x[1], 0.0);
    }
}
