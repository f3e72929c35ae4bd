//! Flat bytecode for compiled models: the behavioral hot path.
//!
//! The tree-walking evaluator in [`crate::eval`] re-walks the
//! [`CStmt`] list and allocates a fresh dense gradient per expression
//! node on every Newton iteration. This module compiles each analysis
//! program once into a linear stack-machine tape ([`Tape`]) and
//! executes it over a preallocated register bank ([`RegBank`]) whose
//! value/gradient buffers are reused across iterations, time steps,
//! and `.STEP`/`.MC` batch points.
//!
//! Equivalence with the tree walk is a hard contract (enforced by the
//! differential harness in `tests/bytecode_equivalence.rs`): the VM
//! reuses the same scalar kernels (`eval::plan_ddt` / `plan_integ` /
//! `chain_coeffs` / `pow_coeffs` / [`fold_binop`]), applies them
//! through in-place [`AdScalar`] operations that perform the identical
//! floating-point operations in the identical order, and reproduces
//! the tree walk's runtime errors (unassigned reads, non-finite
//! contributions, failed assertions) with the same messages.
//!
//! Constant subexpressions (literals only — generics bind per
//! instance and stay symbolic) are folded at compile time through
//! [`fold_binop`]/[`fold_builtin`], whose selection semantics are
//! aligned with the runtime evaluator so folding cannot diverge from
//! interpretation even on NaN operands.

use crate::ast::{BinOp, ObjectKind, UnOp};
use crate::compile::{fold_binop, fold_builtin, Builtin, CExpr, CStmt, CompiledModel};
use crate::error::{HdlError, Result};
use crate::eval::{
    chain_coeffs, plan_ddt, plan_integ, pow_coeffs, AdScalar, Analysis, DdtPlan, EvalEnv,
    InstanceState, IntegPlan,
};
use mems_numerics::pwl::Pwl1;

/// One stack-machine instruction.
///
/// Pushes grow the evaluation stack by one; operators consume their
/// operands in place (the result lands in the first operand's slot),
/// so no *operator* allocates a gradient buffer. The remaining
/// allocations sit at the [`EvalEnv`] boundary, whose contract is
/// by-value: `Across` receives an owned scalar from the environment,
/// and `Contribute`/`Residual` hand one over — a handful per pass
/// (one per branch reference/contribution), versus the tree walk's
/// one per expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push a literal (or compile-time-folded) constant.
    Const(f64),
    /// Push a generic parameter by slot.
    Generic(u32),
    /// Push an object register (runtime error when unassigned).
    /// `UNKNOWN` objects also flow through here: their registers are
    /// seeded from [`EvalEnv::unknown`] before execution.
    Object(u32),
    /// Push the across quantity of a branch.
    Across(u32),
    /// Push the analysis time (0 in DC/AC).
    Time,
    /// Negate the top of stack.
    Neg,
    /// Logical-not the top of stack (0/1 constant result).
    Not,
    /// Binary operator over the top two entries.
    Bin(BinOp),
    /// One-argument builtin.
    Call1(Builtin),
    /// Two-argument builtin.
    Call2(Builtin),
    /// Three-argument builtin (`limit`).
    Call3(Builtin),
    /// `ddt` call site over the top of stack.
    Ddt {
        /// History slot.
        site: u32,
    },
    /// `integ` call site over the top of stack.
    Integ {
        /// History slot.
        site: u32,
        /// Initial condition.
        ic: f64,
    },
    /// `table1d` lookup over the top of stack.
    Table {
        /// Table slot.
        site: u32,
    },
    /// Pop into an object register (marks it assigned).
    Store(u32),
    /// Pop a through contribution into a branch.
    Contribute(u32),
    /// Pop `rhs` then `lhs`; emit the residual `lhs − rhs`.
    Residual(u32),
    /// Pop a condition; error with the message when it is zero.
    Assert(u32),
    /// Emit a diagnostic message.
    Report(u32),
    /// Pop a condition; jump to the operand when it is zero.
    JumpIfZero(u32),
    /// Unconditional jump.
    Jump(u32),
}

/// A compiled analysis program: linear instruction list plus the
/// interned `ASSERT`/`REPORT` messages and the stack high-water mark.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tape {
    ops: Vec<Op>,
    messages: Vec<String>,
    max_stack: usize,
}

impl Tape {
    /// The instruction list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Deepest evaluation-stack use of any execution path.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }
}

/// The compiled tapes of one [`CompiledModel`]: its three analysis
/// programs. The `init` program and the `table1d` breakpoints run once
/// per instantiation, never inside Newton, so [`crate::model`] folds
/// them with the tree interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct BytecodeModel {
    /// DC program tape.
    pub dc: Tape,
    /// AC program tape.
    pub ac: Tape,
    /// Transient program tape.
    pub tran: Tape,
}

impl BytecodeModel {
    /// Compiles the analysis programs of a model.
    pub fn compile(model: &CompiledModel) -> Self {
        BytecodeModel {
            dc: compile_program(&model.dc_program),
            ac: compile_program(&model.ac_program),
            tran: compile_program(&model.tran_program),
        }
    }

    /// The tape the given analysis runs (same selection rule as the
    /// tree walk).
    pub fn tape(&self, analysis: Analysis) -> &Tape {
        match analysis {
            Analysis::Dc => &self.dc,
            Analysis::Transient { .. } => &self.tran,
            Analysis::Ac { .. } => &self.ac,
        }
    }
}

/// Compiles one statement list into a tape.
pub fn compile_program(program: &[CStmt]) -> Tape {
    let mut c = Compiler {
        tape: Tape::default(),
        depth: 0,
    };
    c.block(program);
    debug_assert_eq!(c.depth, 0, "statements must be stack-neutral");
    c.tape
}

struct Compiler {
    tape: Tape,
    depth: usize,
}

impl Compiler {
    /// Emits an op, tracking the stack effect.
    fn op(&mut self, op: Op, stack_effect: isize) {
        self.tape.ops.push(op);
        self.depth = self
            .depth
            .checked_add_signed(stack_effect)
            .expect("stack underflow in bytecode compiler");
        self.tape.max_stack = self.tape.max_stack.max(self.depth);
    }

    fn msg(&mut self, text: &str) -> u32 {
        if let Some(i) = self.tape.messages.iter().position(|m| m == text) {
            return i as u32;
        }
        self.tape.messages.push(text.to_string());
        (self.tape.messages.len() - 1) as u32
    }

    fn block(&mut self, stmts: &[CStmt]) {
        for stmt in stmts {
            match stmt {
                CStmt::Assign { object, value } => {
                    self.expr(value);
                    self.op(Op::Store(*object as u32), -1);
                }
                CStmt::Contribute { branch, value } => {
                    self.expr(value);
                    self.op(Op::Contribute(*branch as u32), -1);
                }
                CStmt::If { arms, otherwise } => self.if_stmt(arms, otherwise),
                CStmt::Assert { cond, message } => {
                    self.expr(cond);
                    let m = self.msg(message);
                    self.op(Op::Assert(m), -1);
                }
                CStmt::Report { message } => {
                    let m = self.msg(message);
                    self.op(Op::Report(m), 0);
                }
                CStmt::Residual { index, lhs, rhs } => {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.op(Op::Residual(*index as u32), -2);
                }
            }
        }
    }

    fn if_stmt(&mut self, arms: &[(CExpr, Vec<CStmt>)], otherwise: &[CStmt]) {
        let mut end_jumps: Vec<usize> = Vec::new();
        let mut statically_taken = false;
        for (cond, body) in arms {
            // A constant condition either selects this arm at compile
            // time (ending arm evaluation, like the tree walk's first
            // nonzero condition) or drops it entirely. Folded
            // conditions contain no call sites, so skipping their
            // evaluation loses no side effects.
            if let Some(v) = try_fold(cond) {
                if v != 0.0 {
                    self.block(body);
                    statically_taken = true;
                    break;
                }
                continue;
            }
            self.expr(cond);
            let jz = self.tape.ops.len();
            self.op(Op::JumpIfZero(u32::MAX), -1);
            self.block(body);
            let jend = self.tape.ops.len();
            self.op(Op::Jump(u32::MAX), 0);
            end_jumps.push(jend);
            let here = self.tape.ops.len() as u32;
            self.tape.ops[jz] = Op::JumpIfZero(here);
        }
        if !statically_taken {
            self.block(otherwise);
        }
        let end = self.tape.ops.len() as u32;
        for j in end_jumps {
            self.tape.ops[j] = Op::Jump(end);
        }
    }

    /// Emits code leaving exactly one new stack entry for `e`,
    /// collapsing constant subtrees into a single [`Op::Const`].
    fn expr(&mut self, e: &CExpr) {
        if let Some(v) = try_fold(e) {
            self.op(Op::Const(v), 1);
            return;
        }
        match e {
            // Foldable heads are handled above; reaching one of these
            // arms means at least one operand is runtime-dependent.
            CExpr::Const(v) => self.op(Op::Const(*v), 1),
            CExpr::Generic(i) => self.op(Op::Generic(*i as u32), 1),
            CExpr::Object(i) => self.op(Op::Object(*i as u32), 1),
            CExpr::Across(b) => self.op(Op::Across(*b as u32), 1),
            CExpr::Time => self.op(Op::Time, 1),
            CExpr::Unary(op, inner) => {
                self.expr(inner);
                match op {
                    UnOp::Neg => self.op(Op::Neg, 0),
                    UnOp::Not => self.op(Op::Not, 0),
                }
            }
            CExpr::Binary(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.op(Op::Bin(*op), -1);
            }
            CExpr::Call(builtin, args) => {
                for a in args {
                    self.expr(a);
                }
                match args.len() {
                    1 => self.op(Op::Call1(*builtin), 0),
                    2 => self.op(Op::Call2(*builtin), -1),
                    3 => self.op(Op::Call3(*builtin), -2),
                    n => unreachable!("builtin with arity {n}"),
                }
            }
            CExpr::Ddt { site, arg } => {
                self.expr(arg);
                self.op(Op::Ddt { site: *site as u32 }, 0);
            }
            CExpr::Integ { site, arg, ic } => {
                self.expr(arg);
                self.op(
                    Op::Integ {
                        site: *site as u32,
                        ic: *ic,
                    },
                    0,
                );
            }
            CExpr::Table { site, arg } => {
                self.expr(arg);
                self.op(Op::Table { site: *site as u32 }, 0);
            }
        }
    }
}

/// Folds a literal-constant expression to its runtime value, or
/// `None` when any part is runtime-dependent. Uses
/// [`fold_binop`]/[`fold_builtin`], which match the runtime
/// evaluator's value semantics operator by operator.
fn try_fold(e: &CExpr) -> Option<f64> {
    Some(match e {
        CExpr::Const(v) => *v,
        CExpr::Unary(UnOp::Neg, inner) => -try_fold(inner)?,
        CExpr::Unary(UnOp::Not, inner) => f64::from(try_fold(inner)? == 0.0),
        CExpr::Binary(op, a, b) => fold_binop(*op, try_fold(a)?, try_fold(b)?),
        CExpr::Call(builtin, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(try_fold(a)?);
            }
            fold_builtin(*builtin, &vals)
        }
        _ => return None,
    })
}

/// Reusable evaluation storage: object registers plus the expression
/// stack, all preallocated at the instance's gradient width. One bank
/// serves every evaluation pass of an instance (per AD scalar type).
#[derive(Debug, Clone)]
pub struct RegBank<S> {
    objects: Vec<S>,
    assigned: Vec<bool>,
    stack: Vec<S>,
    n_grad: usize,
}

impl<S: AdScalar> Default for RegBank<S> {
    fn default() -> Self {
        RegBank {
            objects: Vec::new(),
            assigned: Vec::new(),
            stack: Vec::new(),
            n_grad: 0,
        }
    }
}

impl<S: AdScalar> RegBank<S> {
    /// Sizes the bank for a model/tape/gradient-width combination,
    /// reusing existing buffers whenever the width matches.
    fn prepare(&mut self, n_objects: usize, max_stack: usize, n: usize) {
        if self.n_grad != n {
            self.objects.clear();
            self.stack.clear();
            self.n_grad = n;
        }
        let zero = S::constant(0.0, n);
        self.objects.resize(n_objects, zero.clone());
        if self.stack.len() < max_stack {
            self.stack.resize(max_stack, zero);
        }
        self.assigned.clear();
        self.assigned.resize(n_objects, false);
    }
}

/// Executes one analysis pass of `model` through its bytecode,
/// mirroring [`crate::eval::run_pass`] contract for contract: same
/// [`EvalEnv`] callbacks, same [`InstanceState`] scratch updates, same
/// errors.
///
/// # Errors
///
/// Returns [`HdlError::Eval`] on non-finite contributions, failed
/// assertions, or reads of never-assigned variables — the same
/// conditions (and messages) as the tree walk.
#[allow(clippy::too_many_arguments)]
pub fn run_pass_bytecode<S: AdScalar>(
    model: &CompiledModel,
    code: &BytecodeModel,
    analysis: Analysis,
    generics: &[f64],
    init_values: &[Option<f64>],
    tables: &[Pwl1],
    state: &mut InstanceState,
    bank: &mut RegBank<S>,
    env: &mut dyn EvalEnv<S>,
) -> Result<()> {
    let n = env.n_grad();
    let tape = code.tape(analysis);
    bank.prepare(model.objects.len(), tape.max_stack, n);

    // Object register initialization — the bytecode twin of the slot
    // setup in `run_pass`.
    for (i, obj) in model.objects.iter().enumerate() {
        match obj.kind {
            ObjectKind::Constant | ObjectKind::Variable => match init_values[i] {
                Some(v) => {
                    bank.objects[i].set_constant(v);
                    bank.assigned[i] = true;
                }
                None => bank.assigned[i] = false,
            },
            ObjectKind::State => {
                bank.objects[i].set_constant(state.committed[i]);
                bank.assigned[i] = true;
            }
            ObjectKind::Unknown => {
                bank.objects[i] = env.unknown(obj.unknown_index.expect("unknown has index"));
                bank.assigned[i] = true;
            }
        }
    }
    state.reports.clear();

    let time = match analysis {
        Analysis::Transient { t, .. } => t,
        _ => 0.0,
    };
    let ops = &tape.ops;
    let mut pc = 0usize;
    let mut sp = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::Const(v) => {
                bank.stack[sp].set_constant(*v);
                sp += 1;
            }
            Op::Generic(i) => {
                bank.stack[sp].set_constant(generics[*i as usize]);
                sp += 1;
            }
            Op::Object(i) => {
                let i = *i as usize;
                if !bank.assigned[i] {
                    return Err(HdlError::Eval(format!(
                        "read of unassigned variable `{}` in model `{}`",
                        model.objects[i].name, model.name
                    )));
                }
                let obj = &bank.objects[i];
                bank.stack[sp].clone_from(obj);
                sp += 1;
            }
            Op::Across(b) => {
                bank.stack[sp] = env.across(*b as usize);
                sp += 1;
            }
            Op::Time => {
                bank.stack[sp].set_constant(time);
                sp += 1;
            }
            Op::Neg => bank.stack[sp - 1].neg_assign(),
            Op::Not => {
                let v = f64::from(bank.stack[sp - 1].value() == 0.0);
                bank.stack[sp - 1].set_constant(v);
            }
            Op::Bin(op) => {
                let (lo, hi) = bank.stack.split_at_mut(sp - 1);
                let a = &mut lo[sp - 2];
                let b = &hi[0];
                match op {
                    BinOp::Add => a.add_assign(b),
                    BinOp::Sub => a.sub_assign(b),
                    BinOp::Mul => a.mul_assign(b),
                    BinOp::Div => a.div_assign(b),
                    BinOp::Pow => {
                        let (f, dfa, dfb) = pow_coeffs(a.value(), b.value());
                        a.chain2_assign(f, dfa, dfb, b);
                    }
                    // Boolean-valued: constant 0/1, zero gradient.
                    _ => a.set_constant(fold_binop(*op, a.value(), b.value())),
                }
                sp -= 1;
            }
            Op::Call1(b) => {
                let x = &mut bank.stack[sp - 1];
                let (f, df) = chain_coeffs(*b, x.value());
                match b {
                    Builtin::Sgn | Builtin::Floor | Builtin::Ceil => x.set_constant(f),
                    _ => x.chain_assign(f, df),
                }
            }
            Op::Call2(b) => {
                let (lo, hi) = bank.stack.split_at_mut(sp - 1);
                let a = &mut lo[sp - 2];
                let b2 = &hi[0];
                match b {
                    Builtin::Atan2 => {
                        let y = a.value();
                        let x = b2.value();
                        let denom = x * x + y * y;
                        a.chain2_assign(y.atan2(x), x / denom, -y / denom, b2);
                    }
                    Builtin::Pow => {
                        let (f, dfa, dfb) = pow_coeffs(a.value(), b2.value());
                        a.chain2_assign(f, dfa, dfb, b2);
                    }
                    // Selection semantics matching the tree walk: the
                    // kept operand's gradient passes through; NaN
                    // comparisons select the second operand.
                    Builtin::Min => {
                        if a.value() <= b2.value() {
                            // keep `a` (gradient passes through)
                        } else {
                            a.clone_from(b2);
                        }
                    }
                    Builtin::Max => {
                        if a.value() >= b2.value() {
                            // keep `a`
                        } else {
                            a.clone_from(b2);
                        }
                    }
                    other => unreachable!("{other:?} is not a two-argument builtin"),
                }
                sp -= 1;
            }
            Op::Call3(b) => {
                debug_assert_eq!(*b, Builtin::Limit);
                let v0 = bank.stack[sp - 3].value();
                let lo_v = bank.stack[sp - 2].value();
                let hi_v = bank.stack[sp - 1].value();
                if v0 < lo_v {
                    let (lo, hi) = bank.stack.split_at_mut(sp - 2);
                    lo[sp - 3].clone_from(&hi[0]);
                } else if v0 > hi_v {
                    let (lo, hi) = bank.stack.split_at_mut(sp - 1);
                    lo[sp - 3].clone_from(&hi[0]);
                }
                sp -= 2;
            }
            Op::Ddt { site } => {
                let site = *site as usize;
                let x = &mut bank.stack[sp - 1];
                match plan_ddt(analysis, &state.ddt_sites[site], x.value()) {
                    DdtPlan::DcZero => {
                        state.scratch_ddt[site] = (x.value(), 0.0);
                        x.set_constant(0.0);
                    }
                    DdtPlan::Chain { f, df } => {
                        state.scratch_ddt[site] = (x.value(), f);
                        x.chain_assign(f, df);
                    }
                    DdtPlan::Ac { omega } => x.ac_ddt_assign(omega),
                }
            }
            Op::Integ { site, ic } => {
                let site = *site as usize;
                let x = &mut bank.stack[sp - 1];
                match plan_integ(analysis, &state.integ_sites[site], x.value(), *ic) {
                    IntegPlan::DcConst { y } => {
                        state.scratch_integ[site] = (y, x.value());
                        x.set_constant(y);
                    }
                    IntegPlan::Chain { f, gain } => {
                        state.scratch_integ[site] = (f, x.value());
                        x.chain_assign(f, gain);
                    }
                    IntegPlan::Ac { omega, y0 } => x.ac_integ_assign(omega, y0),
                }
            }
            Op::Table { site } => {
                let x = &mut bank.stack[sp - 1];
                let table = &tables[*site as usize];
                let f = table.eval(x.value());
                let df = table.deriv(x.value());
                x.chain_assign(f, df);
            }
            Op::Store(i) => {
                sp -= 1;
                let i = *i as usize;
                let src = &bank.stack[sp];
                bank.objects[i].clone_from(src);
                bank.assigned[i] = true;
            }
            Op::Contribute(branch) => {
                sp -= 1;
                let v = bank.stack[sp].clone();
                if !v.is_finite() {
                    return Err(HdlError::Eval(format!(
                        "non-finite contribution in model `{}`",
                        model.name
                    )));
                }
                env.contribute(*branch as usize, v);
            }
            Op::Residual(index) => {
                {
                    let (lo, hi) = bank.stack.split_at_mut(sp - 1);
                    lo[sp - 2].sub_assign(&hi[0]);
                }
                sp -= 2;
                env.residual(*index as usize, bank.stack[sp].clone());
            }
            Op::Assert(m) => {
                sp -= 1;
                if bank.stack[sp].value() == 0.0 {
                    return Err(HdlError::Eval(format!(
                        "assertion failed in model `{}`: {}",
                        model.name, tape.messages[*m as usize]
                    )));
                }
            }
            Op::Report(m) => {
                let msg = &tape.messages[*m as usize];
                state.reports.push(msg.clone());
                env.report(msg);
            }
            Op::JumpIfZero(target) => {
                sp -= 1;
                if bank.stack[sp].value() == 0.0 {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::Jump(target) => {
                pc = *target as usize;
                continue;
            }
        }
        pc += 1;
    }

    // Record object values for commit (assigned registers only, like
    // the tree walk's `Some` slots).
    for (i, obj) in bank.objects.iter().enumerate() {
        if bank.assigned[i] {
            state.scratch_objects[i] = obj.value();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
        CExpr::Binary(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn constant_subtrees_collapse_to_one_op() {
        // (2 + 3) * across(0)  →  Const(5), Across(0), Mul
        let e = bin(
            BinOp::Mul,
            bin(BinOp::Add, CExpr::Const(2.0), CExpr::Const(3.0)),
            CExpr::Across(0),
        );
        let tape = compile_program(&[CStmt::Contribute {
            branch: 0,
            value: e,
        }]);
        assert_eq!(
            tape.ops(),
            &[
                Op::Const(5.0),
                Op::Across(0),
                Op::Bin(BinOp::Mul),
                Op::Contribute(0),
            ]
        );
        assert_eq!(tape.max_stack(), 2);
    }

    #[test]
    fn folding_matches_runtime_selection_semantics() {
        // min(NaN, 1) picks the second operand at runtime; the folder
        // must agree.
        let nan = f64::NAN;
        assert_eq!(
            try_fold(&CExpr::Call(
                Builtin::Min,
                vec![CExpr::Const(nan), CExpr::Const(1.0)]
            )),
            Some(1.0)
        );
        assert_eq!(
            try_fold(&CExpr::Call(
                Builtin::Max,
                vec![CExpr::Const(nan), CExpr::Const(-1.0)]
            )),
            Some(-1.0)
        );
        // limit with an inverted window must not panic (runtime
        // compares, it does not clamp — the `v0 < lo` test wins).
        assert_eq!(
            try_fold(&CExpr::Call(
                Builtin::Limit,
                vec![CExpr::Const(0.5), CExpr::Const(1.0), CExpr::Const(-1.0)]
            )),
            Some(1.0)
        );
        // Generics never fold (they bind per instance).
        assert_eq!(try_fold(&CExpr::Generic(0)), None);
    }

    #[test]
    fn if_chains_emit_patched_jumps() {
        // if across(0) { x := 1 } else { x := 2 }
        let stmt = CStmt::If {
            arms: vec![(
                CExpr::Across(0),
                vec![CStmt::Assign {
                    object: 0,
                    value: CExpr::Const(1.0),
                }],
            )],
            otherwise: vec![CStmt::Assign {
                object: 0,
                value: CExpr::Const(2.0),
            }],
        };
        let tape = compile_program(&[stmt]);
        assert_eq!(
            tape.ops(),
            &[
                Op::Across(0),
                Op::JumpIfZero(5),
                Op::Const(1.0),
                Op::Store(0),
                Op::Jump(7),
                Op::Const(2.0),
                Op::Store(0),
            ]
        );
    }

    #[test]
    fn statically_dead_arms_are_dropped() {
        // if 0 { report } elsif 1 { x := 3 } else { report } — only
        // the taken arm survives.
        let stmt = CStmt::If {
            arms: vec![
                (
                    CExpr::Const(0.0),
                    vec![CStmt::Report {
                        message: "dead".into(),
                    }],
                ),
                (
                    CExpr::Const(1.0),
                    vec![CStmt::Assign {
                        object: 0,
                        value: CExpr::Const(3.0),
                    }],
                ),
            ],
            otherwise: vec![CStmt::Report {
                message: "also dead".into(),
            }],
        };
        let tape = compile_program(&[stmt]);
        assert_eq!(tape.ops(), &[Op::Const(3.0), Op::Store(0)]);
    }

    #[test]
    fn residual_and_call_arity_track_stack_depth() {
        let stmt = CStmt::Residual {
            index: 0,
            lhs: CExpr::Call(
                Builtin::Limit,
                vec![CExpr::Across(0), CExpr::Const(-1.0), CExpr::Const(1.0)],
            ),
            rhs: CExpr::Call(Builtin::Atan2, vec![CExpr::Across(0), CExpr::Across(1)]),
        };
        let tape = compile_program(&[stmt]);
        // lhs needs 3 slots; rhs adds 2 on top of lhs's 1 → max 3.
        assert_eq!(tape.max_stack(), 3);
        assert_eq!(tape.ops().last(), Some(&Op::Residual(0)));
    }
}
