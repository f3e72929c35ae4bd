//! Differential harness: the bytecode VM must be indistinguishable
//! from the tree-walking evaluator.
//!
//! Random compiled models — arithmetic, builtins, `if`/branch
//! contributions, `ddt`/`integ` call sites, table lookups, implicit
//! residuals — are evaluated by both evaluators over identical
//! environments. Every contribution/residual value AND every gradient
//! entry must agree to ≤ 1e-12 (they are bit-identical in practice:
//! the VM shares the tree walk's scalar kernels), scratch state must
//! match after each pass, committed history must match across
//! DC → transient chains, and runtime *errors* (failed assertions,
//! unassigned reads, non-finite contributions) must fire with the
//! same messages. Both AD scalar types are covered: [`DualReal`]
//! (DC/transient) and [`DualComplex`] (AC).

use mems::hdl::ast::{BinOp, ObjectKind, UnOp};
use mems::hdl::bytecode::{run_pass_bytecode, BytecodeModel, RegBank};
use mems::hdl::compile::{
    BranchInfo, Builtin, CExpr, CStmt, CompiledModel, GenericInfo, ObjectInfo, PinInfo,
};
use mems::hdl::eval::{run_pass, Analysis, DualComplex, DualReal, EvalEnv, InstanceState};
use mems::hdl::model::{EvalMode, HdlModel};
use mems::hdl::Nature;
use mems::numerics::ode::IntegrationMethod;
use mems::numerics::pwl::Pwl1;
use mems::numerics::Complex64;
use proptest::prelude::*;

const TOL: f64 = 1e-12;

// ---------------------------------------------------------------
// Random model generation
// ---------------------------------------------------------------

const N_GENERICS: usize = 2;
const N_BRANCHES: usize = 2;
const MAX_SITES: usize = 3;

struct Gen {
    rng: TestRng,
    n_ddt: usize,
    n_integ: usize,
    n_tables: usize,
    has_unknown: bool,
    /// Object slots surely assigned at the current program point.
    readable: Vec<usize>,
    n_objects: usize,
}

impl Gen {
    fn f(&mut self) -> f64 {
        self.rng.next_f64()
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n.max(1) as u64) as usize
    }

    fn leaf(&mut self) -> CExpr {
        match self.pick(12) {
            0 | 1 => CExpr::Const((self.f() - 0.5) * 6.0),
            2 | 3 => CExpr::Generic(self.pick(N_GENERICS)),
            4 => CExpr::Time,
            5..=8 => CExpr::Across(self.pick(N_BRANCHES)),
            _ => {
                // Mostly surely-assigned objects; rarely an arbitrary
                // slot, exercising the unassigned-read error path in
                // both evaluators.
                if !self.readable.is_empty() && self.pick(10) != 0 {
                    let i = self.pick(self.readable.len());
                    CExpr::Object(self.readable[i])
                } else {
                    CExpr::Object(self.pick(self.n_objects))
                }
            }
        }
    }

    fn expr(&mut self, depth: usize) -> CExpr {
        if depth == 0 {
            return self.leaf();
        }
        match self.pick(10) {
            0 | 1 => self.leaf(),
            2 => {
                let op = if self.pick(4) == 0 {
                    UnOp::Not
                } else {
                    UnOp::Neg
                };
                CExpr::Unary(op, Box::new(self.expr(depth - 1)))
            }
            3..=5 => {
                let op = match self.pick(12) {
                    0 | 1 => BinOp::Add,
                    2 | 3 => BinOp::Sub,
                    4 | 5 => BinOp::Mul,
                    6 => BinOp::Div,
                    7 => BinOp::Pow,
                    8 => BinOp::Lt,
                    9 => BinOp::Ge,
                    10 => BinOp::And,
                    _ => BinOp::Or,
                };
                CExpr::Binary(
                    op,
                    Box::new(self.expr(depth - 1)),
                    Box::new(self.expr(depth - 1)),
                )
            }
            6 | 7 => {
                let (b, arity) = match self.pick(14) {
                    0 => (Builtin::Abs, 1),
                    1 => (Builtin::Sqrt, 1),
                    2 => (Builtin::Exp, 1),
                    3 => (Builtin::Ln, 1),
                    4 => (Builtin::Sin, 1),
                    5 => (Builtin::Cos, 1),
                    6 => (Builtin::Tanh, 1),
                    7 => (Builtin::Atan, 1),
                    8 => (Builtin::Sgn, 1),
                    9 => (Builtin::Floor, 1),
                    10 => (Builtin::Atan2, 2),
                    11 => (Builtin::Min, 2),
                    12 => (Builtin::Max, 2),
                    _ => (Builtin::Limit, 3),
                };
                let args = (0..arity).map(|_| self.expr(depth - 1)).collect();
                CExpr::Call(b, args)
            }
            8 => {
                if self.n_ddt < MAX_SITES {
                    let site = self.n_ddt;
                    self.n_ddt += 1;
                    CExpr::Ddt {
                        site,
                        arg: Box::new(self.expr(depth - 1)),
                    }
                } else if self.n_integ < MAX_SITES {
                    let site = self.n_integ;
                    self.n_integ += 1;
                    CExpr::Integ {
                        site,
                        arg: Box::new(self.expr(depth - 1)),
                        ic: (self.f() - 0.5) * 2.0,
                    }
                } else {
                    self.leaf()
                }
            }
            _ => {
                if self.n_tables < MAX_SITES {
                    let site = self.n_tables;
                    self.n_tables += 1;
                    // `Pwl1` rejects NaN abscissae (it panics in both
                    // evaluators, which would abort the comparison),
                    // so table arguments are clamped through the
                    // selection builtins — whose runtime semantics
                    // map NaN to the clamp bound.
                    let clamped = CExpr::Call(
                        Builtin::Min,
                        vec![
                            CExpr::Call(
                                Builtin::Max,
                                vec![self.expr(depth - 1), CExpr::Const(-2.0)],
                            ),
                            CExpr::Const(2.5),
                        ],
                    );
                    CExpr::Table {
                        site,
                        arg: Box::new(clamped),
                    }
                } else if self.n_integ < MAX_SITES {
                    let site = self.n_integ;
                    self.n_integ += 1;
                    CExpr::Integ {
                        site,
                        arg: Box::new(self.expr(depth - 1)),
                        ic: (self.f() - 0.5) * 2.0,
                    }
                } else {
                    self.leaf()
                }
            }
        }
    }

    fn stmts(&mut self, n: usize, nesting: usize) -> Vec<CStmt> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.pick(8) {
                0..=2 => {
                    let object = self.pick(self.n_objects);
                    let value = self.expr(3);
                    out.push(CStmt::Assign { object, value });
                    if !self.readable.contains(&object) {
                        self.readable.push(object);
                    }
                }
                3 | 4 => out.push(CStmt::Contribute {
                    branch: self.pick(N_BRANCHES),
                    value: self.expr(3),
                }),
                5 if nesting > 0 => {
                    // Arm-local assignments are not surely assigned
                    // afterwards: snapshot and restore the readable
                    // set around each body.
                    let n_arms = 1 + self.pick(2);
                    let mut arms = Vec::with_capacity(n_arms);
                    for _ in 0..n_arms {
                        let cond = self.expr(2);
                        let saved = self.readable.clone();
                        let body_len = 1 + self.pick(2);
                        let body = self.stmts(body_len, nesting - 1);
                        self.readable = saved;
                        arms.push((cond, body));
                    }
                    let saved = self.readable.clone();
                    let else_len = self.pick(2);
                    let otherwise = self.stmts(else_len, nesting - 1);
                    self.readable = saved;
                    out.push(CStmt::If { arms, otherwise });
                }
                5 => out.push(CStmt::Report {
                    message: "tick".into(),
                }),
                6 if self.has_unknown => out.push(CStmt::Residual {
                    index: 0,
                    lhs: self.expr(2),
                    rhs: self.expr(2),
                }),
                6 => out.push(CStmt::Contribute {
                    branch: self.pick(N_BRANCHES),
                    value: self.expr(2),
                }),
                _ => {
                    // A rarely failing assertion exercises the error
                    // path; the comparison is usually true.
                    out.push(CStmt::Assert {
                        cond: CExpr::Binary(
                            BinOp::Lt,
                            Box::new(self.expr(2)),
                            Box::new(CExpr::Const(1e6)),
                        ),
                        message: "guard".into(),
                    });
                }
            }
        }
        out
    }
}

/// One random model plus everything needed to evaluate it.
struct Case {
    model: CompiledModel,
    code: BytecodeModel,
    generics: Vec<f64>,
    init_values: Vec<Option<f64>>,
    tables: Vec<Pwl1>,
    across: Vec<f64>,
    unknowns: Vec<f64>,
}

fn build_case(seed: i64) -> Case {
    let mut rng = TestRng::deterministic(&format!("bytecode-case-{seed}"));
    let has_unknown = rng.next_u64().is_multiple_of(2);
    let n_objects = 4 + usize::from(has_unknown);
    let mut g = Gen {
        rng,
        n_ddt: 0,
        n_integ: 0,
        n_tables: 0,
        has_unknown,
        // Slots 0 (initialized variable), 2 (state), and the unknown
        // are readable from the start; slots 1/3 need assignment.
        readable: if has_unknown {
            vec![0, 2, 4]
        } else {
            vec![0, 2]
        },
        n_objects,
    };
    let n_stmts = 4 + g.pick(4);
    let program = g.stmts(n_stmts, 2);

    let mut objects = vec![
        ObjectInfo {
            name: "w0".into(),
            kind: ObjectKind::Variable,
            init: None,
            unknown_index: None,
        },
        ObjectInfo {
            name: "w1".into(),
            kind: ObjectKind::Variable,
            init: None,
            unknown_index: None,
        },
        ObjectInfo {
            name: "s0".into(),
            kind: ObjectKind::State,
            init: None,
            unknown_index: None,
        },
        ObjectInfo {
            name: "w3".into(),
            kind: ObjectKind::Variable,
            init: None,
            unknown_index: None,
        },
    ];
    if has_unknown {
        objects.push(ObjectInfo {
            name: "u0".into(),
            kind: ObjectKind::Unknown,
            init: None,
            unknown_index: Some(0),
        });
    }

    let pins: Vec<PinInfo> = (0..4)
        .map(|i| PinInfo {
            name: format!("p{i}"),
            nature: Nature::Electrical,
        })
        .collect();
    let branches = vec![
        BranchInfo {
            pin_a: 0,
            pin_b: 1,
            nature: Nature::Electrical,
        },
        BranchInfo {
            pin_a: 2,
            pin_b: 3,
            nature: Nature::Electrical,
        },
    ];

    let model = CompiledModel {
        name: "randmodel".into(),
        arch: "a".into(),
        generics: (0..N_GENERICS)
            .map(|i| GenericInfo {
                name: format!("g{i}"),
                default: None,
            })
            .collect(),
        pins,
        branches,
        objects,
        n_unknowns: usize::from(has_unknown),
        n_ddt_sites: g.n_ddt,
        n_integ_sites: g.n_integ,
        tables: Vec::new(),
        init_program: Vec::new(),
        dc_program: program.clone(),
        ac_program: program.clone(),
        tran_program: program,
    };
    let code = BytecodeModel::compile(&model);

    let tables = (0..g.n_tables)
        .map(|_| {
            let xs = vec![-2.0, -0.5, 0.0, 1.0, 2.5];
            let ys: Vec<f64> = (0..5).map(|_| (g.f() - 0.5) * 4.0).collect();
            Pwl1::new(xs, ys).expect("strictly increasing axis")
        })
        .collect();

    let generics: Vec<f64> = (0..N_GENERICS).map(|_| (g.f() - 0.5) * 4.0).collect();
    let init_values =
        vec![Some((g.f() - 0.5) * 2.0), None, None, None, None][..model.objects.len()].to_vec();
    let across: Vec<f64> = (0..N_BRANCHES).map(|_| (g.f() - 0.5) * 3.0).collect();
    let unknowns: Vec<f64> = (0..model.n_unknowns).map(|_| (g.f() - 0.5) * 2.0).collect();

    Case {
        model,
        code,
        generics,
        init_values,
        tables,
        across,
        unknowns,
    }
}

// ---------------------------------------------------------------
// Capture environments and comparison
// ---------------------------------------------------------------

/// Everything an evaluation pass hands the simulator, recorded in
/// order.
enum Event<S> {
    Contribute(usize, S),
    Residual(usize, S),
    Report(String),
}

struct CaptureEnv<S> {
    n: usize,
    across: Vec<f64>,
    unknowns: Vec<f64>,
    events: Vec<Event<S>>,
}

impl<S> CaptureEnv<S> {
    fn new(n: usize, across: &[f64], unknowns: &[f64]) -> Self {
        CaptureEnv {
            n,
            across: across.to_vec(),
            unknowns: unknowns.to_vec(),
            events: Vec::new(),
        }
    }
}

impl EvalEnv<DualReal> for CaptureEnv<DualReal> {
    fn n_grad(&self) -> usize {
        self.n
    }
    fn across(&self, branch: usize) -> DualReal {
        DualReal::variable(self.across[branch], self.n, branch)
    }
    fn unknown(&self, index: usize) -> DualReal {
        DualReal::variable(self.unknowns[index], self.n, self.across.len() + index)
    }
    fn contribute(&mut self, branch: usize, value: DualReal) {
        self.events.push(Event::Contribute(branch, value));
    }
    fn residual(&mut self, index: usize, value: DualReal) {
        self.events.push(Event::Residual(index, value));
    }
    fn report(&mut self, message: &str) {
        self.events.push(Event::Report(message.to_string()));
    }
}

impl EvalEnv<DualComplex> for CaptureEnv<DualComplex> {
    fn n_grad(&self) -> usize {
        self.n
    }
    fn across(&self, branch: usize) -> DualComplex {
        DualComplex::variable(self.across[branch], self.n, branch)
    }
    fn unknown(&self, index: usize) -> DualComplex {
        DualComplex::variable(self.unknowns[index], self.n, self.across.len() + index)
    }
    fn contribute(&mut self, branch: usize, value: DualComplex) {
        self.events.push(Event::Contribute(branch, value));
    }
    fn residual(&mut self, index: usize, value: DualComplex) {
        self.events.push(Event::Residual(index, value));
    }
    fn report(&mut self, message: &str) {
        self.events.push(Event::Report(message.to_string()));
    }
}

/// NaN/∞-tolerant closeness: bitwise-equal specials count as
/// agreeing (`inf − inf` is NaN, so the difference test alone would
/// reject matching infinities).
fn close(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan()) || (a - b).abs() <= TOL * 1.0_f64.max(a.abs().max(b.abs()))
}

trait GradDual {
    fn val(&self) -> f64;
    fn grad_close(&self, other: &Self) -> bool;
}

impl GradDual for DualReal {
    fn val(&self) -> f64 {
        self.v
    }
    fn grad_close(&self, other: &Self) -> bool {
        self.g.len() == other.g.len() && self.g.iter().zip(&other.g).all(|(a, b)| close(*a, *b))
    }
}

impl GradDual for DualComplex {
    fn val(&self) -> f64 {
        self.v
    }
    fn grad_close(&self, other: &Self) -> bool {
        self.g.len() == other.g.len()
            && self
                .g
                .iter()
                .zip(&other.g)
                .all(|(a, b)| close(a.re, b.re) && close(a.im, b.im))
    }
}

fn events_match<S: GradDual>(tree: &[Event<S>], byte: &[Event<S>]) -> Result<(), String> {
    if tree.len() != byte.len() {
        return Err(format!("event count {} vs {}", tree.len(), byte.len()));
    }
    for (i, (a, b)) in tree.iter().zip(byte).enumerate() {
        let ok = match (a, b) {
            (Event::Contribute(ba, va), Event::Contribute(bb, vb)) => {
                ba == bb && close(va.val(), vb.val()) && va.grad_close(vb)
            }
            (Event::Residual(ia, va), Event::Residual(ib, vb)) => {
                ia == ib && close(va.val(), vb.val()) && va.grad_close(vb)
            }
            (Event::Report(ma), Event::Report(mb)) => ma == mb,
            _ => false,
        };
        if !ok {
            return Err(format!("event {i} diverges"));
        }
    }
    Ok(())
}

fn scratch_match(a: &InstanceState, b: &InstanceState) -> Result<(), String> {
    for (i, (x, y)) in a.scratch_objects.iter().zip(&b.scratch_objects).enumerate() {
        if !close(*x, *y) {
            return Err(format!("scratch object {i}: {x} vs {y}"));
        }
    }
    for (i, (x, y)) in a.scratch_ddt.iter().zip(&b.scratch_ddt).enumerate() {
        if !(close(x.0, y.0) && close(x.1, y.1)) {
            return Err(format!("ddt scratch {i}: {x:?} vs {y:?}"));
        }
    }
    for (i, (x, y)) in a.scratch_integ.iter().zip(&b.scratch_integ).enumerate() {
        if !(close(x.0, y.0) && close(x.1, y.1)) {
            return Err(format!("integ scratch {i}: {x:?} vs {y:?}"));
        }
    }
    if a.reports != b.reports {
        return Err("reports diverge".into());
    }
    Ok(())
}

/// Runs one analysis through both evaluators and compares everything.
/// Returns `Ok(true)` when both succeeded (the chain may continue),
/// `Ok(false)` when both failed identically, `Err` on divergence.
#[allow(clippy::too_many_arguments)]
fn compare_real(
    case: &Case,
    analysis: Analysis,
    st_tree: &mut InstanceState,
    st_byte: &mut InstanceState,
    bank: &mut RegBank<DualReal>,
) -> Result<bool, String> {
    let n = N_BRANCHES + case.unknowns.len();
    let mut env_tree = CaptureEnv::<DualReal>::new(n, &case.across, &case.unknowns);
    let mut env_byte = CaptureEnv::<DualReal>::new(n, &case.across, &case.unknowns);
    let r_tree = run_pass(
        &case.model,
        analysis,
        &case.generics,
        &case.init_values,
        &case.tables,
        st_tree,
        &mut env_tree,
    );
    let r_byte = run_pass_bytecode(
        &case.model,
        &case.code,
        analysis,
        &case.generics,
        &case.init_values,
        &case.tables,
        st_byte,
        bank,
        &mut env_byte,
    );
    match (r_tree, r_byte) {
        (Ok(()), Ok(())) => {
            events_match(&env_tree.events, &env_byte.events)?;
            scratch_match(st_tree, st_byte)?;
            Ok(true)
        }
        (Err(a), Err(b)) => {
            if a.to_string() == b.to_string() {
                Ok(false)
            } else {
                Err(format!("different errors: `{a}` vs `{b}`"))
            }
        }
        (Ok(()), Err(e)) => Err(format!("only bytecode failed: {e}")),
        (Err(e), Ok(())) => Err(format!("only tree walk failed: {e}")),
    }
}

fn compare_ac(
    case: &Case,
    omega: f64,
    st_tree: &mut InstanceState,
    st_byte: &mut InstanceState,
    bank: &mut RegBank<DualComplex>,
) -> Result<bool, String> {
    let n = N_BRANCHES + case.unknowns.len();
    let mut env_tree = CaptureEnv::<DualComplex>::new(n, &case.across, &case.unknowns);
    let mut env_byte = CaptureEnv::<DualComplex>::new(n, &case.across, &case.unknowns);
    let analysis = Analysis::Ac { omega };
    let r_tree = run_pass(
        &case.model,
        analysis,
        &case.generics,
        &case.init_values,
        &case.tables,
        st_tree,
        &mut env_tree,
    );
    let r_byte = run_pass_bytecode(
        &case.model,
        &case.code,
        analysis,
        &case.generics,
        &case.init_values,
        &case.tables,
        st_byte,
        bank,
        &mut env_byte,
    );
    match (r_tree, r_byte) {
        (Ok(()), Ok(())) => {
            events_match(&env_tree.events, &env_byte.events)?;
            Ok(true)
        }
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(false),
        (a, b) => Err(format!("divergent outcomes: {a:?} vs {b:?}")),
    }
}

// ---------------------------------------------------------------
// The differential properties
// ---------------------------------------------------------------

proptest! {
    /// Full DC → transient chain: both evaluators agree pass by pass,
    /// through commits, across integration methods — with one bank
    /// reused for every pass (shape changes included).
    #[test]
    fn dc_and_transient_chains_agree(seed in 0i64..1_000_000_000) {
        let case = build_case(seed);
        let mut st_tree = InstanceState::for_model(&case.model);
        let mut st_byte = InstanceState::for_model(&case.model);
        // Seed the STATE object's committed value identically.
        st_tree.committed[2] = 0.25;
        st_byte.committed[2] = 0.25;
        let mut bank = RegBank::<DualReal>::default();

        let dc = compare_real(&case, Analysis::Dc, &mut st_tree, &mut st_byte, &mut bank)
            .map_err(|e| TestCaseError(format!("seed {seed}, dc: {e}")))?;
        if dc {
            st_tree.commit_dc();
            st_byte.commit_dc();
            let h = 1e-4;
            let steps = [
                (h, h, IntegrationMethod::BackwardEuler),
                (2.0 * h, h, IntegrationMethod::Trapezoidal),
                (3.0 * h, h, IntegrationMethod::Gear2),
            ];
            for (t, h, method) in steps {
                let ok = compare_real(
                    &case,
                    Analysis::Transient { t, h, method },
                    &mut st_tree,
                    &mut st_byte,
                    &mut bank,
                )
                .map_err(|e| TestCaseError(format!("seed {seed}, tran t={t}: {e}")))?;
                if !ok {
                    break;
                }
                st_tree.commit_transient(h);
                st_byte.commit_transient(h);
                for (a, b) in st_tree.committed.iter().zip(&st_byte.committed) {
                    prop_assert!(close(*a, *b), "committed diverges: {a} vs {b}");
                }
            }
        }
    }

    /// AC small-signal linearization: complex gradients agree entry
    /// by entry (after a shared DC commit priming the histories).
    #[test]
    fn ac_linearizations_agree(seed in 0i64..1_000_000_000) {
        let case = build_case(seed);
        let mut st_tree = InstanceState::for_model(&case.model);
        let mut st_byte = InstanceState::for_model(&case.model);
        st_tree.committed[2] = -0.5;
        st_byte.committed[2] = -0.5;
        let mut bank_r = RegBank::<DualReal>::default();
        let mut bank_c = RegBank::<DualComplex>::default();

        let dc = compare_real(&case, Analysis::Dc, &mut st_tree, &mut st_byte, &mut bank_r)
            .map_err(|e| TestCaseError(format!("seed {seed}, dc: {e}")))?;
        if dc {
            st_tree.commit_dc();
            st_byte.commit_dc();
            for omega in [1.0, 6.28e3] {
                let ok = compare_ac(&case, omega, &mut st_tree, &mut st_byte, &mut bank_c)
                    .map_err(|e| TestCaseError(format!("seed {seed}, ac ω={omega}: {e}")))?;
                if !ok {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Deterministic fixtures
// ---------------------------------------------------------------

/// The paper's Listing 1 through the full `HdlModel` front end: one
/// instance per evaluator, driven through a DC → transient → AC
/// sequence; contributions must match exactly.
#[test]
fn eletran_instance_modes_agree() {
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
    let model = HdlModel::compile(LISTING1, "eletran", None).unwrap();
    let generics = [("a", 1.0e-4), ("d", 0.15e-3), ("er", 1.0)];
    let mut tree = model.instantiate("x1", &generics).unwrap();
    tree.set_eval_mode(EvalMode::TreeWalk);
    let mut byte = model.instantiate("x2", &generics).unwrap();
    assert_eq!(byte.eval_mode(), EvalMode::Bytecode);

    let run = |inst: &mut mems::hdl::Instance, volts: f64, vel: f64, step: Option<f64>| {
        let mut env = CaptureEnv::<DualReal>::new(2, &[volts, vel], &[]);
        match step {
            None => inst.eval_dc(&mut env).unwrap(),
            Some(h) => inst
                .eval_transient(h, h, IntegrationMethod::BackwardEuler, &mut env)
                .unwrap(),
        }
        env.events
    };

    // DC at 10 V.
    let (a, b) = (
        run(&mut tree, 10.0, 0.0, None),
        run(&mut byte, 10.0, 0.0, None),
    );
    events_match(&a, &b).unwrap();
    tree.commit_dc();
    byte.commit_dc();

    // Three transient steps with a closing gap.
    for k in 1..=3 {
        let h = 1e-5;
        let (a, b) = (
            run(&mut tree, 10.0 + k as f64, 1e-6, Some(h)),
            run(&mut byte, 10.0 + k as f64, 1e-6, Some(h)),
        );
        events_match(&a, &b).unwrap_or_else(|e| panic!("step {k}: {e}"));
        tree.commit_transient(h);
        byte.commit_transient(h);
    }

    // AC at 1 kHz on the committed operating point.
    let omega = 2.0 * std::f64::consts::PI * 1e3;
    let mut env_a = CaptureEnv::<DualComplex>::new(2, &[10.0, 0.0], &[]);
    let mut env_b = CaptureEnv::<DualComplex>::new(2, &[10.0, 0.0], &[]);
    tree.eval_ac(omega, &mut env_a).unwrap();
    byte.eval_ac(omega, &mut env_b).unwrap();
    events_match(&env_a.events, &env_b.events).unwrap();
    // Sanity anchor: the electrical branch admittance is jωC (the
    // committed displacement of ~3e-11 m shifts C by ~2e-7 relative,
    // hence the loose bound).
    let c0 = 8.8542e-12 * 1.0e-4 / 0.15e-3;
    match &env_b.events[0] {
        Event::Contribute(0, v) => {
            let di_dv = v.g[0];
            assert!((di_dv - Complex64::new(0.0, omega * c0)).abs() < omega * c0 * 1e-4);
        }
        _ => panic!("expected the electrical contribution first"),
    }
}

/// Table lookups, selection builtins, and `if`/`elsif` chains through
/// the HDL front end: both evaluators, same numbers.
#[test]
fn table_and_branch_model_modes_agree() {
    const SRC: &str = r#"
ENTITY shaper IS
  GENERIC (k : analog := 2.0);
  PIN (p, q : electrical);
END ENTITY shaper;
ARCHITECTURE a OF shaper IS
VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      y := table1d([p, q].v, -1.0, -2.0, 0.0, 0.5, 1.0, 3.0);
      IF [p, q].v < 0.0 THEN
        y := y + limit([p, q].v, -0.25, 0.25);
      ELSIF [p, q].v > 2.0 THEN
        y := max(y, k);
      ELSE
        y := min(y, k * [p, q].v);
      END IF;
      [p, q].i %= y;
  END RELATION;
END ARCHITECTURE a;
"#;
    let model = HdlModel::compile(SRC, "shaper", None).unwrap();
    let mut tree = model.instantiate("t", &[]).unwrap();
    tree.set_eval_mode(EvalMode::TreeWalk);
    let mut byte = model.instantiate("b", &[]).unwrap();

    for v in [-1.5, -0.6, -0.1, 0.0, 0.3, 0.9, 1.4, 2.5, 7.0] {
        let mut env_t = CaptureEnv::<DualReal>::new(1, &[v], &[]);
        let mut env_b = CaptureEnv::<DualReal>::new(1, &[v], &[]);
        tree.eval_dc(&mut env_t).unwrap();
        byte.eval_dc(&mut env_b).unwrap();
        events_match(&env_t.events, &env_b.events).unwrap_or_else(|e| panic!("v = {v}: {e}"));
    }
}

/// The three runtime error classes carry identical messages through
/// both evaluators.
#[test]
fn runtime_errors_match() {
    // 1. Failed assertion.
    let assert_model = CompiledModel {
        name: "guard".into(),
        arch: "a".into(),
        generics: vec![],
        pins: vec![
            PinInfo {
                name: "p".into(),
                nature: Nature::Electrical,
            },
            PinInfo {
                name: "q".into(),
                nature: Nature::Electrical,
            },
        ],
        branches: vec![BranchInfo {
            pin_a: 0,
            pin_b: 1,
            nature: Nature::Electrical,
        }],
        objects: vec![ObjectInfo {
            name: "x".into(),
            kind: ObjectKind::Variable,
            init: None,
            unknown_index: None,
        }],
        n_unknowns: 0,
        n_ddt_sites: 0,
        n_integ_sites: 0,
        tables: Vec::new(),
        init_program: vec![],
        dc_program: vec![CStmt::Assert {
            cond: CExpr::Binary(
                BinOp::Lt,
                Box::new(CExpr::Across(0)),
                Box::new(CExpr::Const(0.0)),
            ),
            message: "gap closed".into(),
        }],
        ac_program: vec![],
        tran_program: vec![],
    };

    // 2. Read of an unassigned variable.
    let mut unassigned_model = assert_model.clone();
    unassigned_model.dc_program = vec![CStmt::Contribute {
        branch: 0,
        value: CExpr::Object(0),
    }];

    // 3. Non-finite contribution (1/0).
    let mut nonfinite_model = assert_model.clone();
    nonfinite_model.dc_program = vec![CStmt::Contribute {
        branch: 0,
        value: CExpr::Binary(
            BinOp::Div,
            Box::new(CExpr::Const(1.0)),
            Box::new(CExpr::Binary(
                BinOp::Sub,
                Box::new(CExpr::Across(0)),
                Box::new(CExpr::Across(0)),
            )),
        ),
    }];

    for model in [&assert_model, &unassigned_model, &nonfinite_model] {
        let code = BytecodeModel::compile(model);
        let mut st_a = InstanceState::for_model(model);
        let mut st_b = InstanceState::for_model(model);
        let mut env_a = CaptureEnv::<DualReal>::new(1, &[1.0], &[]);
        let mut env_b = CaptureEnv::<DualReal>::new(1, &[1.0], &[]);
        let mut bank = RegBank::<DualReal>::default();
        let ea = run_pass(
            model,
            Analysis::Dc,
            &[],
            &[None],
            &[],
            &mut st_a,
            &mut env_a,
        )
        .unwrap_err();
        let eb = run_pass_bytecode(
            model,
            &code,
            Analysis::Dc,
            &[],
            &[None],
            &[],
            &mut st_b,
            &mut bank,
            &mut env_b,
        )
        .unwrap_err();
        assert_eq!(ea.to_string(), eb.to_string());
    }
}

// ---------------------------------------------------------------
// `init` programs and table1d breakpoints run once per instance, on
// the tree folder: checked through `HdlModel::instantiate`
// ---------------------------------------------------------------

/// The DC current a one-branch model contributes at `volts`.
fn dc_current(inst: &mut mems::hdl::Instance, volts: f64) -> f64 {
    let mut env = CaptureEnv::<DualReal>::new(1, &[volts], &[]);
    inst.eval_dc(&mut env).unwrap();
    match env.events.as_slice() {
        [Event::Contribute(0, i)] => i.v,
        _ => panic!("expected one contribution on branch 0"),
    }
}

/// The elaboration error of instantiating `model` under `generics`.
fn elab_error(model: &HdlModel, generics: &[(&str, f64)]) -> String {
    model.instantiate("x1", generics).unwrap_err().to_string()
}

const GAPCELL: &str = r#"
ENTITY gapcell IS
  GENERIC (g0, mode : analog);
  PIN (p, q : electrical);
END ENTITY gapcell;
ARCHITECTURE a OF gapcell IS
VARIABLE e0, gap, c0, guard : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
      IF mode > 1.5 THEN
        gap := g0 * 2.0;
      ELSIF mode > 0.5 THEN
        gap := limit(g0, 1.0e-6, 1.0e-3);
      ELSE
        gap := max(g0, 1.0e-6);
      END IF;
      guard := min(gap, 1.0e-3);
      ASSERT gap > 0.0 REPORT "gap must be positive";
      c0 := e0 / gap;
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= c0 * [p, q].v;
  END RELATION;
END ARCHITECTURE a;
"#;

#[test]
fn init_folds_branchy_programs() {
    // Branches on generics, shadowed assignments, selection builtins,
    // derived constants — the shapes `init` blocks actually take. The
    // current at 1 V is c0 = e0 / gap.
    let model = HdlModel::compile(GAPCELL, "gapcell", None).unwrap();
    for (g0, mode, gap) in [
        (0.15e-3, 0.0, 0.15e-3),
        (0.15e-3, 1.0, 0.15e-3),
        (0.15e-3, 2.0, 0.15e-3 * 2.0),
        (1.0e-9, 1.0, 1.0e-6),        // limit() clamps up
        (f64::INFINITY, 1.0, 1.0e-3), // limit() clamps down
        (-1.0, 0.0, 1.0e-6),          // max() keeps the gap positive
        (f64::NAN, 0.0, 1.0e-6),      // max(NaN, x) selects x
    ] {
        let mut inst = model
            .instantiate("g1", &[("g0", g0), ("mode", mode)])
            .unwrap();
        let c0 = dc_current(&mut inst, 1.0);
        assert_eq!(c0, 8.8542e-12 / gap, "g0 = {g0}, mode = {mode}");
    }
    assert_eq!(
        elab_error(&model, &[("g0", -1.0), ("mode", 2.0)]),
        "elaboration error: init assertion failed in `gapcell`: gap must be positive"
    );
}

#[test]
fn init_unassigned_read_has_no_value_yet() {
    // `gap` is read before any assignment.
    let src = r#"
ENTITY broken IS
  GENERIC (g0 : analog := 1.0);
  PIN (p, q : electrical);
END ENTITY broken;
ARCHITECTURE a OF broken IS
VARIABLE gap, c0 : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      c0 := gap * g0;
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= c0 * [p, q].v;
  END RELATION;
END ARCHITECTURE a;
"#;
    let model = HdlModel::compile(src, "broken", None).unwrap();
    assert_eq!(
        elab_error(&model, &[]),
        "elaboration error: initializer references an object with no value yet"
    );
}

#[test]
fn unsupported_init_statements_are_refused() {
    // Sema never lowers these into an `init` program; a hand-edited
    // compiled model that holds one gets a diagnostic, not a panic.
    let model = HdlModel::compile(GAPCELL, "gapcell", None).unwrap();
    let generics = [("g0", 1.0e-4), ("mode", 0.0)];
    let mut contribute = model.compiled().clone();
    contribute.init_program = vec![CStmt::Contribute {
        branch: 0,
        value: CExpr::Const(1.0),
    }];
    let err = elab_error(&HdlModel::from(contribute), &generics);
    assert!(
        err.starts_with("elaboration error: unsupported statement in init program"),
        "{err}"
    );
    let mut across = model.compiled().clone();
    across.init_program = vec![CStmt::Assign {
        object: 0,
        value: CExpr::Across(0),
    }];
    assert_eq!(
        elab_error(&HdlModel::from(across), &generics),
        "elaboration error: not a constant expression: Across(0)"
    );
}

#[test]
fn table_breakpoints_fold_and_bad_axes_are_refused() {
    // Breakpoints over generics and init-derived objects: the table is
    // the line y = gain / span · x on [−span, span].
    let src = r#"
ENTITY tcell IS
  GENERIC (scale, span : analog);
  PIN (p, q : electrical);
END ENTITY tcell;
ARCHITECTURE a OF tcell IS
VARIABLE x0, gain : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      x0 := 0.0 - span;
      gain := max(scale, 0.1);
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= table1d([p, q].v,
        x0, 0.0 - gain,
        x0 * 0.5, 0.0 - gain * 0.5,
        0.0, 0.0,
        span * 0.5, gain * 0.5,
        span, gain);
  END RELATION;
END ARCHITECTURE a;
"#;
    let model = HdlModel::compile(src, "tcell", None).unwrap();
    for (scale, span, v, expect) in [
        (1.0, 1.0, 0.25, 0.25),
        (2.5, 0.5, -0.375, -1.875),
        (0.0, 2.0, 0.5, 0.025),       // gain clamps at 0.1
        (f64::NAN, 1.0, 0.75, 0.075), // max(NaN, 0.1) selects 0.1
    ] {
        let mut inst = model
            .instantiate("t1", &[("scale", scale), ("span", span)])
            .unwrap();
        let i = dc_current(&mut inst, v);
        assert!(
            (i - expect).abs() <= 1e-14 * expect.abs(),
            "scale = {scale}, span = {span}: {i} vs {expect}"
        );
    }
    let axis = "elaboration error: invalid table1d breakpoints in `tcell`: \
                invalid input: PWL breakpoints must be strictly increasing";
    // An inverted axis, then duplicate breakpoints.
    assert_eq!(
        elab_error(&model, &[("scale", 1.0), ("span", -1.0)]),
        format!("{axis}: 1 then 0.5")
    );
    assert_eq!(
        elab_error(&model, &[("scale", 1.0), ("span", 0.0)]),
        format!("{axis}: 0 then 0")
    );
}

#[test]
fn breakpoint_unassigned_read_has_no_value_yet() {
    // A breakpoint reads a variable only the analysis programs assign.
    let src = r#"
ENTITY tlate IS
  GENERIC (g : analog := 1.0);
  PIN (p, q : electrical);
END ENTITY tlate;
ARCHITECTURE a OF tlate IS
VARIABLE never : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      never := [p, q].v;
      [p, q].i %= table1d([p, q].v, never, 0.0, g, 1.0);
  END RELATION;
END ARCHITECTURE a;
"#;
    let model = HdlModel::compile(src, "tlate", None).unwrap();
    assert_eq!(
        elab_error(&model, &[]),
        "elaboration error: initializer references an object with no value yet"
    );
}

#[test]
fn runtime_breakpoint_is_not_a_constant_expression() {
    // Sema only lowers constant breakpoints; a hand-edited compiled
    // model with a branch read in one gets a diagnostic.
    let src = r#"
ENTITY tok IS
  PIN (p, q : electrical);
END ENTITY tok;
ARCHITECTURE a OF tok IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= table1d([p, q].v, 0.0, 0.0, 1.0, 2.0);
  END RELATION;
END ARCHITECTURE a;
"#;
    let model = HdlModel::compile(src, "tok", None).unwrap();
    let mut inst = model.instantiate("t1", &[]).unwrap();
    assert_eq!(dc_current(&mut inst, 0.5), 1.0);
    let mut broken = model.compiled().clone();
    broken.tables[0].breakpoints[0].0 = CExpr::Across(0);
    assert_eq!(
        elab_error(&HdlModel::from(broken), &[]),
        "elaboration error: not a constant expression: Across(0)"
    );
}
