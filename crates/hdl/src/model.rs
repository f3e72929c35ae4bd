//! Public façade: parse → compile → elaborate → evaluate.
//!
//! ```
//! use mems_hdl::model::HdlModel;
//!
//! # fn main() -> Result<(), mems_hdl::HdlError> {
//! let src = r#"
//! ENTITY res IS
//!   GENERIC (r : analog := 1.0e3);
//!   PIN (p, q : electrical);
//! END ENTITY res;
//! ARCHITECTURE a OF res IS
//! BEGIN
//!   RELATION
//!     PROCEDURAL FOR dc, ac, transient =>
//!       [p, q].i %= [p, q].v / r;
//!   END RELATION;
//! END ARCHITECTURE a;
//! "#;
//! let model = HdlModel::compile(src, "res", None)?;
//! let instance = model.instantiate("r1", &[("r", 2.0e3)])?;
//! assert_eq!(instance.generics()[0], 2.0e3);
//! # Ok(())
//! # }
//! ```

use crate::ast::ObjectKind;
use crate::bytecode::{run_pass_bytecode, BytecodeModel, RegBank};
use crate::compile::{fold_binop, fold_builtin, CExpr, CStmt, CompiledModel};
use crate::error::{HdlError, Result};
use crate::eval::{run_pass, Analysis, DualComplex, DualReal, EvalEnv, InstanceState};
use crate::parser::parse;
use crate::sema;
use mems_numerics::ode::IntegrationMethod;
use mems_numerics::pwl::Pwl1;
use std::sync::Arc;

/// Which evaluator an [`Instance`] runs its analysis passes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// The flat bytecode VM with reusable register banks (default —
    /// the per-Newton-iteration hot path).
    #[default]
    Bytecode,
    /// The reference tree-walking interpreter (differential testing,
    /// benchmarking).
    TreeWalk,
}

/// A compiled HDL-A model ready for instantiation.
#[derive(Debug, Clone)]
pub struct HdlModel {
    compiled: Arc<CompiledModel>,
    bytecode: Arc<BytecodeModel>,
    source: Arc<str>,
}

impl HdlModel {
    /// Parses `src` and compiles `entity` (first architecture unless
    /// `arch` names one).
    ///
    /// # Errors
    ///
    /// Propagates lex/parse/sema errors; call
    /// [`HdlError::render`] with the same source to get a
    /// caret-annotated message.
    pub fn compile(src: &str, entity: &str, arch: Option<&str>) -> Result<Self> {
        let module = parse(src)?;
        let compiled = sema::compile(&module, entity, arch)?;
        Ok(HdlModel {
            source: Arc::from(src),
            ..HdlModel::from(compiled)
        })
    }

    /// The compiled representation.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// The compiled bytecode tapes.
    pub fn bytecode(&self) -> &BytecodeModel {
        &self.bytecode
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Elaborates an instance, binding generics.
    ///
    /// Unspecified generics fall back to their declared defaults.
    ///
    /// # Errors
    ///
    /// Returns [`HdlError::Elab`] for unknown/missing generics, table
    /// breakpoints that do not form a strictly increasing axis, or
    /// failures in the `init` program.
    pub fn instantiate(
        &self,
        name: impl Into<Arc<str>>,
        generics: &[(&str, f64)],
    ) -> Result<Instance> {
        let bound = self.bind_generics(generics)?;
        let init_values = self.init_values(&bound)?;
        let tables = self.fold_tables(&bound, &init_values)?;

        // Seed committed state values from their initializers.
        let mut state = InstanceState::for_model(&self.compiled);
        for (i, obj) in self.compiled.objects.iter().enumerate() {
            if obj.kind == ObjectKind::State {
                state.committed[i] = init_values[i].unwrap_or(0.0);
            }
        }

        Ok(Instance {
            model: Arc::clone(&self.compiled),
            bytecode: Arc::clone(&self.bytecode),
            name: name.into(),
            generics: bound,
            init_values,
            tables,
            state,
            mode: EvalMode::default(),
            bank_real: RegBank::default(),
            bank_complex: RegBank::default(),
        })
    }

    /// Binds generic values in declaration order, falling back to
    /// declared defaults.
    ///
    /// # Errors
    ///
    /// [`HdlError::Elab`] for unknown generics and for generics with
    /// neither a value nor a default.
    fn bind_generics(&self, generics: &[(&str, f64)]) -> Result<Vec<f64>> {
        let mut values: Vec<Option<f64>> =
            self.compiled.generics.iter().map(|g| g.default).collect();
        for (gname, gval) in generics {
            let idx = self.compiled.generic_index(gname).ok_or_else(|| {
                HdlError::Elab(format!(
                    "model `{}` has no generic `{gname}`",
                    self.compiled.name
                ))
            })?;
            values[idx] = Some(*gval);
        }
        let mut bound = Vec::with_capacity(values.len());
        for (g, v) in self.compiled.generics.iter().zip(values) {
            bound.push(v.ok_or_else(|| {
                HdlError::Elab(format!(
                    "generic `{}` of `{}` has no value and no default",
                    g.name, self.compiled.name
                ))
            })?);
        }
        Ok(bound)
    }

    /// Computes the per-object init-value vector for bound generics:
    /// declaration initializers folded in order, then the `init`
    /// program.
    ///
    /// # Errors
    ///
    /// Initializer folding failures, unassigned-object reads,
    /// unsupported `init` statements, and failed `init` assertions.
    fn init_values(&self, bound: &[f64]) -> Result<Vec<Option<f64>>> {
        let mut init_values: Vec<Option<f64>> = vec![None; self.compiled.objects.len()];
        for (i, obj) in self.compiled.objects.iter().enumerate() {
            if let Some(init) = &obj.init {
                let v = fold_with_objects(init, bound, &init_values).map_err(|e| {
                    HdlError::Elab(format!(
                        "initializer of `{}` in `{}`: {e}",
                        obj.name, self.compiled.name
                    ))
                })?;
                init_values[i] = Some(v);
            }
        }
        run_init_program(
            &self.compiled.init_program,
            bound,
            &mut init_values,
            &self.compiled,
        )?;
        Ok(init_values)
    }

    /// Folds the model's `table1d` breakpoint tables for bound
    /// generics and init values.
    ///
    /// # Errors
    ///
    /// Unassigned-object reads, non-constant breakpoint expressions,
    /// and axes that are not strictly increasing.
    fn fold_tables(&self, bound: &[f64], init_values: &[Option<f64>]) -> Result<Vec<Pwl1>> {
        let mut tables = Vec::with_capacity(self.compiled.tables.len());
        for spec in &self.compiled.tables {
            let mut xs = Vec::with_capacity(spec.breakpoints.len());
            let mut ys = Vec::with_capacity(spec.breakpoints.len());
            for (bx, by) in &spec.breakpoints {
                xs.push(fold_with_objects(bx, bound, init_values)?);
                ys.push(fold_with_objects(by, bound, init_values)?);
            }
            tables.push(Pwl1::new(xs, ys).map_err(|e| {
                HdlError::Elab(format!(
                    "invalid table1d breakpoints in `{}`: {e}",
                    self.compiled.name
                ))
            })?);
        }
        Ok(tables)
    }
}

/// Wraps an already compiled model, for example one built by hand,
/// with its bytecode. Its source text is empty.
impl From<CompiledModel> for HdlModel {
    fn from(compiled: CompiledModel) -> Self {
        HdlModel {
            bytecode: Arc::new(BytecodeModel::compile(&compiled)),
            compiled: Arc::new(compiled),
            source: Arc::from(""),
        }
    }
}

/// An elaborated model instance with bound generics and history.
#[derive(Debug, Clone)]
pub struct Instance {
    model: Arc<CompiledModel>,
    bytecode: Arc<BytecodeModel>,
    name: Arc<str>,
    generics: Vec<f64>,
    init_values: Vec<Option<f64>>,
    tables: Vec<Pwl1>,
    /// Run-time state (histories, committed values, reports).
    pub state: InstanceState,
    mode: EvalMode,
    bank_real: RegBank<DualReal>,
    bank_complex: RegBank<DualComplex>,
}

impl Instance {
    /// The compiled model this instance elaborates.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Instance name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bound generic values, in declaration order.
    pub fn generics(&self) -> &[f64] {
        &self.generics
    }

    /// Number of extra scalar unknowns this instance adds to the
    /// enclosing system.
    pub fn n_unknowns(&self) -> usize {
        self.model.n_unknowns
    }

    /// The evaluator this instance runs with.
    pub fn eval_mode(&self) -> EvalMode {
        self.mode
    }

    /// Selects the evaluator (bytecode VM by default; the tree walk
    /// is kept for differential testing and benchmarking).
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// Evaluates one real-gradient analysis pass under the selected
    /// evaluator.
    fn eval_real(&mut self, analysis: Analysis, env: &mut dyn EvalEnv<DualReal>) -> Result<()> {
        match self.mode {
            EvalMode::Bytecode => run_pass_bytecode(
                &self.model,
                &self.bytecode,
                analysis,
                &self.generics,
                &self.init_values,
                &self.tables,
                &mut self.state,
                &mut self.bank_real,
                env,
            ),
            EvalMode::TreeWalk => run_pass(
                &self.model,
                analysis,
                &self.generics,
                &self.init_values,
                &self.tables,
                &mut self.state,
                env,
            ),
        }
    }

    /// Evaluates the DC program.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (non-finite values, assertions).
    pub fn eval_dc(&mut self, env: &mut dyn EvalEnv<DualReal>) -> Result<()> {
        self.eval_real(Analysis::Dc, env)
    }

    /// Evaluates the transient program at time `t` with step `h`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn eval_transient(
        &mut self,
        t: f64,
        h: f64,
        method: IntegrationMethod,
        env: &mut dyn EvalEnv<DualReal>,
    ) -> Result<()> {
        self.eval_real(Analysis::Transient { t, h, method }, env)
    }

    /// Evaluates the AC program at angular frequency `omega`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn eval_ac(&mut self, omega: f64, env: &mut dyn EvalEnv<DualComplex>) -> Result<()> {
        let analysis = Analysis::Ac { omega };
        match self.mode {
            EvalMode::Bytecode => run_pass_bytecode(
                &self.model,
                &self.bytecode,
                analysis,
                &self.generics,
                &self.init_values,
                &self.tables,
                &mut self.state,
                &mut self.bank_complex,
                env,
            ),
            EvalMode::TreeWalk => run_pass(
                &self.model,
                analysis,
                &self.generics,
                &self.init_values,
                &self.tables,
                &mut self.state,
                env,
            ),
        }
    }

    /// Commits the latest converged DC evaluation as initial history.
    pub fn commit_dc(&mut self) {
        self.state.commit_dc();
    }

    /// Commits the latest converged transient evaluation (step `h`).
    pub fn commit_transient(&mut self, h: f64) {
        self.state.commit_transient(h);
    }
}

/// Folds a constant expression allowing reads of already-folded
/// objects (constants in declaration order).
fn fold_with_objects(expr: &CExpr, generics: &[f64], objects: &[Option<f64>]) -> Result<f64> {
    Ok(match expr {
        CExpr::Const(v) => *v,
        CExpr::Generic(i) => generics[*i],
        CExpr::Object(i) => objects[*i].ok_or_else(|| {
            HdlError::Elab("initializer references an object with no value yet".into())
        })?,
        CExpr::Unary(op, e) => {
            let v = fold_with_objects(e, generics, objects)?;
            match op {
                crate::ast::UnOp::Neg => -v,
                crate::ast::UnOp::Not => f64::from(v == 0.0),
            }
        }
        CExpr::Binary(op, a, b) => fold_binop(
            *op,
            fold_with_objects(a, generics, objects)?,
            fold_with_objects(b, generics, objects)?,
        ),
        CExpr::Call(b, args) => {
            let vals: Vec<f64> = args
                .iter()
                .map(|a| fold_with_objects(a, generics, objects))
                .collect::<Result<_>>()?;
            fold_builtin(*b, &vals)
        }
        other => {
            return Err(HdlError::Elab(format!(
                "not a constant expression: {other:?}"
            )))
        }
    })
}

/// Runs the `init` program with plain f64 semantics, updating
/// `init_values` in place.
fn run_init_program(
    program: &[CStmt],
    generics: &[f64],
    init_values: &mut Vec<Option<f64>>,
    model: &CompiledModel,
) -> Result<()> {
    for stmt in program {
        match stmt {
            CStmt::Assign { object, value } => {
                let v = fold_with_objects(value, generics, init_values)?;
                init_values[*object] = Some(v);
            }
            CStmt::If { arms, otherwise } => {
                let mut taken = false;
                for (cond, body) in arms {
                    if fold_with_objects(cond, generics, init_values)? != 0.0 {
                        run_init_program(body, generics, init_values, model)?;
                        taken = true;
                        break;
                    }
                }
                if !taken {
                    run_init_program(otherwise, generics, init_values, model)?;
                }
            }
            CStmt::Assert { cond, message } => {
                if fold_with_objects(cond, generics, init_values)? == 0.0 {
                    return Err(HdlError::Elab(format!(
                        "init assertion failed in `{}`: {message}",
                        model.name
                    )));
                }
            }
            CStmt::Report { .. } => {}
            other => {
                return Err(HdlError::Elab(format!(
                    "unsupported statement in init program: {other:?}"
                )))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mems_numerics::Complex64;

    /// The paper's Listing 1.
    const LISTING1: &str = r#"
ENTITY eletran IS
 GENERIC (A, d, er : analog);
 PIN (a, b : electrical; c, d : mechanical1);
END ENTITY eletran;
ARCHITECTURE a OF eletran IS
VARIABLE e0, x : analog;
STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, d].tv;
      x := integ(S);
      [a, b].i %= e0*er*A/(d + x)*ddt(V);
      [c, d].f %= -e0*er*A*V*V/(2.0*(d+x)*(d+x));
  END RELATION;
END ARCHITECTURE a;
"#;

    /// Test double for the simulator side: two unknowns, slot 0 = the
    /// electrical across, slot 1 = the mechanical across.
    struct MockEnv {
        v_elec: f64,
        v_mech: f64,
        contributions: Vec<(usize, DualReal)>,
        residuals: Vec<(usize, DualReal)>,
        unknowns: Vec<f64>,
        reports: Vec<String>,
    }

    impl MockEnv {
        fn new(v_elec: f64, v_mech: f64) -> Self {
            MockEnv {
                v_elec,
                v_mech,
                contributions: Vec::new(),
                residuals: Vec::new(),
                unknowns: Vec::new(),
                reports: Vec::new(),
            }
        }

        fn contribution(&self, branch: usize) -> &DualReal {
            &self
                .contributions
                .iter()
                .rev()
                .find(|(b, _)| *b == branch)
                .expect("branch contributed")
                .1
        }
    }

    impl EvalEnv<DualReal> for MockEnv {
        fn n_grad(&self) -> usize {
            2 + self.unknowns.len()
        }
        fn across(&self, branch: usize) -> DualReal {
            match branch {
                0 => DualReal::variable(self.v_elec, self.n_grad(), 0),
                1 => DualReal::variable(self.v_mech, self.n_grad(), 1),
                _ => panic!("unexpected branch"),
            }
        }
        fn unknown(&self, index: usize) -> DualReal {
            DualReal::variable(self.unknowns[index], self.n_grad(), 2 + index)
        }
        fn contribute(&mut self, branch: usize, value: DualReal) {
            self.contributions.push((branch, value));
        }
        fn residual(&mut self, index: usize, value: DualReal) {
            self.residuals.push((index, value));
        }
        fn report(&mut self, message: &str) {
            self.reports.push(message.to_string());
        }
    }

    fn eletran() -> Instance {
        HdlModel::compile(LISTING1, "eletran", None)
            .unwrap()
            .instantiate("x1", &[("a", 1.0e-4), ("d", 0.15e-3), ("er", 1.0)])
            .unwrap()
    }

    const E0: f64 = 8.8542e-12;
    const AREA: f64 = 1.0e-4;
    const GAP: f64 = 0.15e-3;

    #[test]
    fn init_block_sets_e0() {
        let inst = eletran();
        // Object order: e0, x, V, S.
        assert_eq!(inst.init_values[0], Some(E0));
        assert_eq!(inst.init_values[1], None);
    }

    #[test]
    fn dc_force_matches_table3_expression() {
        let mut inst = eletran();
        let mut env = MockEnv::new(10.0, 0.0);
        inst.eval_dc(&mut env).unwrap();
        // Branch 0 = electrical, current = C·dV/dt = 0 at DC.
        let i = env.contribution(0);
        assert_eq!(i.v, 0.0);
        // Branch 1 = mechanical, force = −ε0·εr·A·V²/(2(d+x)²), x = 0.
        let f = env.contribution(1);
        let expect = -E0 * AREA * 100.0 / (2.0 * GAP * GAP);
        assert!(
            (f.v - expect).abs() < expect.abs() * 1e-12,
            "{} vs {expect}",
            f.v
        );
        // ∂F/∂V = −ε0·A·V/(d+x)² — the (negated) transduction factor.
        let dfdv = f.g[0];
        let gamma = E0 * AREA * 10.0 / (GAP * GAP);
        assert!((dfdv + gamma).abs() < gamma * 1e-12, "{dfdv} vs -{gamma}");
    }

    #[test]
    fn transient_current_is_c_dvdt() {
        let mut inst = eletran();
        // Prime history at V = 0.
        let mut env0 = MockEnv::new(0.0, 0.0);
        inst.eval_dc(&mut env0).unwrap();
        inst.commit_dc();
        // One BE step to V = 1 V over h = 1 µs: i = C·ΔV/h.
        let h = 1e-6;
        let mut env = MockEnv::new(1.0, 0.0);
        inst.eval_transient(h, h, IntegrationMethod::BackwardEuler, &mut env)
            .unwrap();
        let c0 = E0 * AREA / GAP;
        let i = env.contribution(0);
        let expect = c0 * 1.0 / h;
        assert!((i.v - expect).abs() < expect * 1e-9, "{} vs {expect}", i.v);
        // ∂i/∂V = C/h (through the ddt site).
        assert!((i.g[0] - c0 / h).abs() < c0 / h * 1e-9);
    }

    #[test]
    fn displacement_integrates_velocity() {
        let mut inst = eletran();
        let mut env0 = MockEnv::new(0.0, 0.0);
        inst.eval_dc(&mut env0).unwrap();
        inst.commit_dc();
        // Constant velocity 1 µm/s for 3 BE steps of 1 ms: x = 3 nm
        // (gap grows), so capacitance shrinks.
        let h = 1e-3;
        let vel = 1e-6;
        for k in 1..=3 {
            let mut env = MockEnv::new(10.0, vel);
            inst.eval_transient(k as f64 * h, h, IntegrationMethod::BackwardEuler, &mut env)
                .unwrap();
            inst.commit_transient(h);
        }
        // x committed inside the instance: read back through force.
        let mut env = MockEnv::new(10.0, 0.0);
        inst.eval_dc(&mut env).unwrap();
        let f = env.contribution(1);
        let x = 3.0 * h * vel;
        let expect = -E0 * AREA * 100.0 / (2.0 * (GAP + x) * (GAP + x));
        assert!(
            (f.v - expect).abs() < expect.abs() * 1e-9,
            "{} vs {expect}",
            f.v
        );
    }

    #[test]
    fn ac_linearization_gives_jwc_admittance() {
        let mut inst = eletran();
        // Operating point: V = 10 V.
        let mut env0 = MockEnv::new(10.0, 0.0);
        inst.eval_dc(&mut env0).unwrap();
        inst.commit_dc();

        struct AcEnv {
            contributions: Vec<(usize, DualComplex)>,
        }
        impl EvalEnv<DualComplex> for AcEnv {
            fn n_grad(&self) -> usize {
                2
            }
            fn across(&self, branch: usize) -> DualComplex {
                match branch {
                    0 => DualComplex::variable(10.0, 2, 0),
                    1 => DualComplex::variable(0.0, 2, 1),
                    _ => panic!(),
                }
            }
            fn unknown(&self, _index: usize) -> DualComplex {
                unreachable!()
            }
            fn contribute(&mut self, branch: usize, value: DualComplex) {
                self.contributions.push((branch, value));
            }
            fn residual(&mut self, _index: usize, _value: DualComplex) {}
            fn report(&mut self, _message: &str) {}
        }

        let omega = 2.0 * std::f64::consts::PI * 1000.0;
        let mut env = AcEnv {
            contributions: Vec::new(),
        };
        inst.eval_ac(omega, &mut env).unwrap();
        let c0 = E0 * AREA / GAP;
        // Electrical branch: ∂i/∂v = jωC.
        let (_, i) = &env.contributions[0];
        let di_dv = i.g[0];
        assert!((di_dv - Complex64::new(0.0, omega * c0)).abs() < omega * c0 * 1e-9);
        // Mechanical branch: ∂F/∂v = −Γ (real), ∂F/∂(velocity) via
        // integ: −k_soft/(jω) where k_soft = ∂F/∂x.
        let (_, f) = &env.contributions[1];
        let gamma = E0 * AREA * 10.0 / (GAP * GAP);
        assert!((f.g[0].re + gamma).abs() < gamma * 1e-9);
        // ∂F/∂x = +ε0·A·V²/(d+x)³ = k_soft; ∂F/∂(vel) = k_soft/(jω) = −j·k_soft/ω.
        let k_soft = E0 * AREA * 100.0 / (GAP * GAP * GAP);
        let expect = Complex64::new(0.0, -k_soft / omega);
        let got = f.g[1];
        assert!(
            (got - expect).abs() < k_soft / omega * 1e-9,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn missing_generic_is_reported() {
        let model = HdlModel::compile(LISTING1, "eletran", None).unwrap();
        let err = model.instantiate("x1", &[("a", 1.0)]).unwrap_err();
        assert!(err.to_string().contains("no value and no default"));
        let err = model.instantiate("x1", &[("zz", 1.0)]).unwrap_err();
        assert!(err.to_string().contains("no generic"));
    }

    #[test]
    fn table_model_evaluates_with_slope_jacobian() {
        let src = r#"
ENTITY twoseg IS
  PIN (p, q : electrical);
END ENTITY twoseg;
ARCHITECTURE a OF twoseg IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= table1d([p, q].v, 0.0, 0.0, 1.0, 2.0, 2.0, 3.0);
  END RELATION;
END ARCHITECTURE a;
"#;
        let model = HdlModel::compile(src, "twoseg", None).unwrap();
        let mut inst = model.instantiate("t1", &[]).unwrap();
        let mut env = MockEnv::new(0.5, 0.0);
        inst.eval_dc(&mut env).unwrap();
        let i = env.contribution(0);
        assert!((i.v - 1.0).abs() < 1e-12);
        assert!((i.g[0] - 2.0).abs() < 1e-12);
        // Second segment has slope 1.
        let mut env = MockEnv::new(1.5, 0.0);
        inst.eval_dc(&mut env).unwrap();
        let i = env.contribution(0);
        assert!((i.v - 2.5).abs() < 1e-12);
        assert!((i.g[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equation_block_residuals_flow_to_env() {
        let src = r#"
ENTITY sq IS
  GENERIC (k : analog := 1.0);
  PIN (p, q : electrical);
END ENTITY sq;
ARCHITECTURE a OF sq IS
UNKNOWN u : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= u;
    EQUATION FOR dc, ac, transient =>
      u * u == k * [p, q].v;
  END RELATION;
END ARCHITECTURE a;
"#;
        let model = HdlModel::compile(src, "sq", None).unwrap();
        let mut inst = model.instantiate("s1", &[("k", 4.0)]).unwrap();
        assert_eq!(inst.n_unknowns(), 1);
        let mut env = MockEnv::new(9.0, 0.0);
        env.unknowns = vec![5.0];
        inst.eval_dc(&mut env).unwrap();
        // Residual = u² − k·v = 25 − 36 = −11.
        let (_, r) = &env.residuals[0];
        assert!((r.v + 11.0).abs() < 1e-12);
        // ∂res/∂u = 2u = 10 (gradient slot 2).
        assert!((r.g[2] - 10.0).abs() < 1e-12);
        // ∂res/∂v = −k = −4.
        assert!((r.g[0] + 4.0).abs() < 1e-12);
        // The current contribution is u itself.
        let i = env.contribution(0);
        assert_eq!(i.v, 5.0);
        assert_eq!(i.g[2], 1.0);
    }

    #[test]
    fn assert_statement_fails_eval() {
        let src = r#"
ENTITY guard IS
  GENERIC (gap : analog := 1.0e-6);
  PIN (c, d : mechanical1);
END ENTITY guard;
ARCHITECTURE a OF guard IS
VARIABLE x : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      x := integ([c, d].tv);
      ASSERT x < gap REPORT "gap closed";
      [c, d].f %= 0.0;
  END RELATION;
END ARCHITECTURE a;
"#;
        let model = HdlModel::compile(src, "guard", None).unwrap();
        let mut inst = model.instantiate("g1", &[("gap", 1.0e-9)]).unwrap();
        let mut env0 = MockEnv::new(0.0, 0.0);
        inst.eval_dc(&mut env0).unwrap();
        inst.commit_dc();
        // Integrate a large velocity so x exceeds the gap. The model
        // has a single (mechanical) branch, so it gets mock slot 0.
        let h = 1.0;
        let mut env = MockEnv::new(1.0, 0.0);
        let err = inst
            .eval_transient(h, h, IntegrationMethod::BackwardEuler, &mut env)
            .unwrap_err();
        assert!(err.to_string().contains("gap closed"));
    }

    #[test]
    fn trapezoidal_first_step_falls_back_to_be() {
        let mut inst = eletran();
        let mut env0 = MockEnv::new(0.0, 0.0);
        inst.eval_dc(&mut env0).unwrap();
        inst.commit_dc();
        let h = 1e-6;
        let mut env = MockEnv::new(1.0, 0.0);
        // TR needs dx_prev; first step after DC commit has it (= 0),
        // so TR is usable: i = 2C/h·ΔV − C·0.
        inst.eval_transient(h, h, IntegrationMethod::Trapezoidal, &mut env)
            .unwrap();
        let c0 = E0 * AREA / GAP;
        let i = env.contribution(0);
        assert!((i.v - 2.0 * c0 / h).abs() < c0 / h * 1e-9);
    }

    #[test]
    fn reports_are_collected() {
        let src = r#"
ENTITY noisy IS PIN (p, q : electrical); END ENTITY noisy;
ARCHITECTURE a OF noisy IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      REPORT "hello from the model";
      [p, q].i %= 0.0;
  END RELATION;
END ARCHITECTURE a;
"#;
        let model = HdlModel::compile(src, "noisy", None).unwrap();
        let mut inst = model.instantiate("n1", &[]).unwrap();
        let mut env = MockEnv::new(0.0, 0.0);
        inst.eval_dc(&mut env).unwrap();
        assert_eq!(env.reports, vec!["hello from the model"]);
        assert_eq!(inst.state.reports, vec!["hello from the model"]);
    }
}
