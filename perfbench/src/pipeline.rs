//! The traced run's view of the pipeline: the body of
//! `mems_netlist::run_elaborated_ctx` re-driven through the same public
//! layer calls, with a span around each (`Elaborator::build`/`patch`,
//! `dcop::solve_in`, `ac::run_with_op_in`, `transient::run_in`), plus
//! the probes that time single numerics and HDL calls. Workloads check
//! that the traced replica returns exactly what the untraced pipeline
//! returned, so the spans describe the code `mems run` executes.

use crate::trace::Recorder;
use crate::util::{median, secs};
use mems_hdl::eval::{DualReal, EvalEnv};
use mems_hdl::model::HdlModel;
use mems_netlist::ast::AcSweepSpec;
use mems_netlist::elab::{param_env, sim_options};
use mems_netlist::{AnalysisCard, AnalysisOutcome, DeckRun, Elaborator, ParamEnv, RunStats};
use mems_numerics::ode::IntegrationMethod;
use mems_numerics::Complex64;
use mems_spice::analysis::ac::{run_with_op_in, FreqSweep};
use mems_spice::analysis::dcop;
use mems_spice::analysis::transient::{run_in as run_tran_in, TranOptions};
use mems_spice::circuit::Circuit;
use mems_spice::device::LoadKind;
use mems_spice::solver::{assemble, SimOptions, Workspace};
use mems_spice::system::{new_system_solver, SolverStats, SystemMatrix};
use std::collections::HashMap;
use std::time::Instant;

/// Span names, one per public entry point the replica brackets.
pub mod names {
    /// `Deck::parse` / `parse_with_includes`.
    pub const PARSE: &str = "netlist.parser";
    /// `Elaborator::new`.
    pub const ELAB_NEW: &str = "netlist.elab.new";
    /// `Elaborator::build`.
    pub const ELAB_BUILD: &str = "netlist.elab.build";
    /// `Elaborator::patch`.
    pub const ELAB_PATCH: &str = "netlist.elab.patch";
    /// `dcop::solve_in`.
    pub const OP: &str = "spice.analysis.op";
    /// `ac::run_with_op_in`.
    pub const AC: &str = "spice.analysis.ac";
    /// `transient::run_in`.
    pub const TRAN: &str = "spice.analysis.tran";
}

/// Reusable state of the replica — the traced twin of `RunCtx`.
#[derive(Default)]
pub struct TracedCtx {
    /// Shared real workspace (Newton, transient).
    pub ws: Option<Workspace>,
    /// Shared complex system for `.AC`.
    pub ac_sys: Option<Box<dyn SystemMatrix<Complex64>>>,
    /// Cached circuits per analysis slot, patched in place.
    pub ckts: HashMap<usize, Circuit>,
    /// Newton guess for operating points.
    pub op_guess: Option<Vec<f64>>,
    /// Build/patch counters.
    pub stats: RunStats,
}

impl TracedCtx {
    /// LU factorizations (`factors + refactors`) over the context's
    /// real and AC systems so far.
    pub fn lu_total(&self) -> u64 {
        let (real, ac) = self.snapshot();
        real.factors + real.refactors + ac.factors + ac.refactors
    }

    fn snapshot(&self) -> (SolverStats, SolverStats) {
        (
            self.ws
                .as_ref()
                .map_or_else(SolverStats::default, |ws| ws.sys.solver_stats()),
            self.ac_sys
                .as_ref()
                .map_or_else(SolverStats::default, |s| s.solver_stats()),
        )
    }
}

fn obtain(
    elab: &Elaborator<'_>,
    ctx: &mut TracedCtx,
    slot: usize,
    overrides: &ParamEnv,
    rec: &mut Recorder,
) -> Result<Circuit, String> {
    if let Some(mut ckt) = ctx.ckts.remove(&slot) {
        let patched = rec
            .time(names::ELAB_PATCH, || elab.patch(&mut ckt, overrides, None))
            .map_err(|e| e.to_string())?;
        if patched {
            ctx.stats.circuits_patched += 1;
            return Ok(ckt);
        }
    }
    let (ckt, _) = rec
        .time(names::ELAB_BUILD, || elab.build(overrides, None))
        .map_err(|e| e.to_string())?;
    ctx.stats.circuits_built += 1;
    Ok(ckt)
}

/// Records the solver-counter deltas an analysis span caused.
fn record_solver(
    rec: &mut Recorder,
    span: usize,
    before: &(SolverStats, SolverStats),
    after: &(SolverStats, SolverStats),
) {
    let (rb, ab) = before;
    let (ra, aa) = after;
    rec.count(span, "real_factors", (ra.factors - rb.factors) as f64);
    rec.count(span, "real_refactors", (ra.refactors - rb.refactors) as f64);
    rec.count(span, "real_last_factor_us", ra.last_factor_us as f64);
    rec.count(span, "real_last_refactor_us", ra.last_refactor_us as f64);
    rec.count(
        span,
        "ac_factors",
        aa.factors.saturating_sub(ab.factors) as f64,
    );
    rec.count(
        span,
        "ac_refactors",
        aa.refactors.saturating_sub(ab.refactors) as f64,
    );
    rec.count(span, "ac_last_factor_us", aa.last_factor_us as f64);
    rec.count(span, "ac_last_refactor_us", aa.last_refactor_us as f64);
}

fn workspace<'a>(ws: &'a mut Option<Workspace>, sim: &SimOptions) -> &'a mut Workspace {
    ws.get_or_insert_with(|| {
        Workspace::with_solver(0, sim.matrix, sim.ordering, sim.factor, sim.factor_threads)
    })
}

/// Runs every analysis card of the elaborated deck, like
/// `run_elaborated_ctx`, with a span around each layer call. `.DC`
/// cards are not replicated (no traced workload runs one).
///
/// # Errors
///
/// Elaboration and simulation failures, rendered as text.
pub fn run_traced(
    elab: &Elaborator<'_>,
    overrides: &ParamEnv,
    ctx: &mut TracedCtx,
    rec: &mut Recorder,
) -> Result<DeckRun, String> {
    let deck = elab.deck();
    let err = |e: mems_netlist::NetlistError| e.to_string();
    let env = param_env(deck, overrides).map_err(err)?;
    let sim = sim_options(deck, &env).map_err(err)?;
    let mut outcomes = Vec::new();
    for (slot, card) in deck.analyses.iter().enumerate() {
        let outcome = match card {
            AnalysisCard::Op { .. } => {
                let mut ckt = obtain(elab, ctx, slot, overrides, rec)?;
                let guess = ctx.op_guess.clone();
                let before = ctx.snapshot();
                let span = rec.begin(names::OP);
                let op = dcop::solve_in(
                    &mut ckt,
                    &sim,
                    guess.as_deref(),
                    workspace(&mut ctx.ws, &sim),
                );
                rec.end(span);
                record_solver(rec, span, &before, &ctx.snapshot());
                let op = op.map_err(|e| e.to_string())?;
                rec.count(span, "points", 1.0);
                ctx.ckts.insert(slot, ckt);
                AnalysisOutcome::Op(op)
            }
            AnalysisCard::Dc { .. } => {
                return Err("the traced replica does not run `.DC` cards".into());
            }
            AnalysisCard::Ac { sweep, .. } => {
                let fs = match sweep {
                    AcSweepSpec::Decade { n, fstart, fstop } => FreqSweep::Decade {
                        start: fstart.eval(&env).map_err(err)?,
                        stop: fstop.eval(&env).map_err(err)?,
                        points_per_decade: n.eval(&env).map_err(err)?.round().max(1.0) as usize,
                    },
                    AcSweepSpec::Linear { n, fstart, fstop } => FreqSweep::Linear {
                        start: fstart.eval(&env).map_err(err)?,
                        stop: fstop.eval(&env).map_err(err)?,
                        points: n.eval(&env).map_err(err)?.round().max(2.0) as usize,
                    },
                    AcSweepSpec::List(fs) => FreqSweep::List(
                        fs.iter()
                            .map(|f| f.eval(&env))
                            .collect::<Result<_, _>>()
                            .map_err(err)?,
                    ),
                };
                let mut ckt = obtain(elab, ctx, slot, overrides, rec)?;
                let freqs = fs.frequencies().map_err(|e| e.to_string())?;
                let guess = ctx.op_guess.clone();
                let before = ctx.snapshot();
                let span = rec.begin(names::OP);
                let op = dcop::solve_in(
                    &mut ckt,
                    &sim,
                    guess.as_deref(),
                    workspace(&mut ctx.ws, &sim),
                );
                rec.end(span);
                let after = ctx.snapshot();
                record_solver(rec, span, &before, &after);
                let op = op.map_err(|e| e.to_string())?;
                rec.count(span, "points", 1.0);
                let n = op.layout.n_unknowns;
                if ctx.ac_sys.as_ref().is_none_or(|s| s.n() != n) {
                    ctx.ac_sys = Some(new_system_solver(
                        n,
                        sim.matrix,
                        sim.ordering,
                        sim.factor,
                        sim.factor_threads,
                    ));
                }
                let sys = ctx.ac_sys.as_mut().expect("just ensured").as_mut();
                let span = rec.begin(names::AC);
                let ac = run_with_op_in(&mut ckt, &freqs, &op, sys);
                rec.end(span);
                record_solver(rec, span, &after, &ctx.snapshot());
                let ac = ac.map_err(|e| e.to_string())?;
                rec.count(span, "points", ac.freqs.len() as f64);
                ctx.ckts.insert(slot, ckt);
                AnalysisOutcome::Ac(ac)
            }
            AnalysisCard::Tran {
                tstep,
                tstop,
                fixed,
                ..
            } => {
                let (h, t1) = (
                    tstep.eval(&env).map_err(err)?,
                    tstop.eval(&env).map_err(err)?,
                );
                if !(h > 0.0 && t1 > 0.0 && h < t1) {
                    return Err(format!("bad `.TRAN` times (tstep {h:.3e}, tstop {t1:.3e})"));
                }
                let opts = if *fixed {
                    TranOptions::fixed_step(t1, h)
                } else {
                    let mut o = TranOptions::new(t1);
                    o.h_init = Some(h);
                    o.h_max = Some(h);
                    o
                };
                let mut ckt = obtain(elab, ctx, slot, overrides, rec)?;
                let guess = ctx.op_guess.clone();
                let before = ctx.snapshot();
                let span = rec.begin(names::TRAN);
                let tr = run_tran_in(
                    &mut ckt,
                    &opts,
                    &sim,
                    guess.as_deref(),
                    workspace(&mut ctx.ws, &sim),
                );
                rec.end(span);
                record_solver(rec, span, &before, &ctx.snapshot());
                let tr = tr.map_err(|e| e.to_string())?;
                rec.count(span, "points", tr.time.len() as f64);
                rec.count(span, "newton", tr.total_newton_iterations as f64);
                ctx.ckts.insert(slot, ckt);
                AnalysisOutcome::Tran(tr)
            }
        };
        outcomes.push((card.clone(), outcome));
    }
    let (real, ac) = ctx.snapshot();
    let solver = [("real", real), ("ac", ac)]
        .into_iter()
        .filter(|(_, st)| st.factors + st.refactors > 0)
        .map(|(name, st)| (name.to_string(), st))
        .collect();
    Ok(DeckRun {
        title: deck.title.clone(),
        outcomes,
        solver,
    })
}

/// LU factorizations (`factors + refactors`, real and AC) a run's
/// contexts report.
pub fn lu_factorizations(run: &DeckRun) -> u64 {
    run.solver
        .iter()
        .map(|(_, st)| st.factors + st.refactors)
        .sum()
}

/// Times `f` at least `reps` times and for at least `min_s` seconds
/// (capped at `max_reps`); returns the median per-call seconds.
fn per_call<E>(
    reps: usize,
    min_s: f64,
    max_reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, E> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < max_reps && (times.len() < reps || secs(started) < min_s) {
        let t0 = Instant::now();
        f()?;
        times.push(secs(t0));
    }
    Ok(median(&times))
}

/// What the numerics probe measured on one system.
#[derive(Debug, Clone)]
pub struct SolverProbe {
    /// Median warm numeric refactor at the final iterate, µs.
    pub refactor_us: f64,
    /// Median triangular solve at the final iterate, µs.
    pub solve_us: f64,
    /// Median `solver::assemble` call (every device `load`), µs.
    pub assemble_us: f64,
    /// Ordering time of the cold factor (`SolverStats::order_us`), s.
    pub order_s: f64,
    /// Wall time of one cold factor on a fresh workspace with the
    /// machine-wide ordering and symbolic caches cleared, s.
    pub factor_cold_s: f64,
    /// Solver statistics after the cold factor.
    pub cold: SolverStats,
}

/// Times single numerics calls on the public workspace: refactor and
/// solve warm on `warm` (whose matrix holds the run's last assembly),
/// then assembly and one cold factor on a fresh workspace after
/// clearing the ordering and symbolic caches. Leaves those caches
/// cold, so probe after the iterations that should find them warm.
///
/// # Errors
///
/// Assembly or factorization failures, rendered as text.
pub fn probe_solver(
    ckt: &mut Circuit,
    x: &[f64],
    kind: LoadKind,
    sim: &SimOptions,
    warm: &mut Workspace,
) -> Result<SolverProbe, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let refactor_s = per_call(5, 0.2, 200, || warm.sys.factor()).map_err(|e| err(&e))?;
    let b = vec![1.0; warm.n()];
    let solve_s = per_call(5, 0.1, 500, || warm.sys.solve(&b).map(drop)).map_err(|e| err(&e))?;
    let layout = ckt.layout();
    mems_numerics::ordering::clear_cache();
    mems_numerics::supernodal::clear_symbolic_cache();
    let mut fresh = Workspace::with_solver(
        layout.n_unknowns,
        sim.matrix,
        sim.ordering,
        sim.factor,
        sim.factor_threads,
    );
    // The first assembly grows the sparsity pattern; time the rest.
    assemble(ckt, &layout, kind, sim.gmin, x, &mut fresh).map_err(|e| err(&e))?;
    let assemble_s = per_call(5, 0.2, 200, || {
        assemble(ckt, &layout, kind, sim.gmin, x, &mut fresh)
    })
    .map_err(|e| err(&e))?;
    let t0 = Instant::now();
    fresh.sys.factor().map_err(|e| err(&e))?;
    let factor_cold_s = secs(t0);
    let cold = fresh.sys.solver_stats();
    Ok(SolverProbe {
        refactor_us: refactor_s * 1e6,
        solve_us: solve_s * 1e6,
        assemble_us: assemble_s * 1e6,
        order_s: cold.order_us as f64 * 1e-6,
        factor_cold_s,
        cold,
    })
}

/// The load kind of a run's final Newton system: DC at an operating
/// point, or the last transient step.
pub fn final_load_kind(outcome: &AnalysisOutcome, sim: &SimOptions) -> (LoadKind, Vec<f64>) {
    match outcome {
        AnalysisOutcome::Tran(tr) => {
            let k = tr.time.len();
            let (t, h) = if k >= 2 {
                (tr.time[k - 1], tr.time[k - 1] - tr.time[k - 2])
            } else {
                (0.0, 0.0)
            };
            let x = tr.samples.last().cloned().unwrap_or_default();
            if h > 0.0 {
                return (
                    LoadKind::Transient {
                        t,
                        h,
                        method: IntegrationMethod::Trapezoidal,
                    },
                    x,
                );
            }
            (dc_kind(sim), x)
        }
        AnalysisOutcome::Op(op) => (dc_kind(sim), op.x.clone()),
        _ => (dc_kind(sim), Vec::new()),
    }
}

fn dc_kind(sim: &SimOptions) -> LoadKind {
    LoadKind::Dc {
        gmin: sim.gmin,
        source_scale: 1.0,
    }
}

/// What the HDL probe measured.
#[derive(Debug, Clone)]
pub struct HdlProbe {
    /// Median `HdlModel::compile` of the entity, seconds.
    pub compile_s: f64,
    /// Mean `Instance::eval_transient` pass, µs.
    pub eval_pass_us: f64,
}

/// Stand-in simulator side of one HDL evaluation: two across
/// quantities in, contributions summed into a sink.
struct SinkEnv {
    v_elec: f64,
    v_mech: f64,
    sink: f64,
}

impl EvalEnv<DualReal> for SinkEnv {
    fn n_grad(&self) -> usize {
        2
    }
    fn across(&self, branch: usize) -> DualReal {
        let v = if branch == 0 {
            self.v_elec
        } else {
            self.v_mech
        };
        DualReal::variable(v, 2, branch)
    }
    fn unknown(&self, _index: usize) -> DualReal {
        DualReal::variable(0.0, 2, 0)
    }
    fn contribute(&mut self, _branch: usize, value: DualReal) {
        self.sink += value.v + value.g[0] + value.g[1];
    }
    fn residual(&mut self, _index: usize, _value: DualReal) {}
    fn report(&mut self, _message: &str) {}
}

/// Compiles the Listing-1 `eletran` entity from `hdl_src` and times one
/// transient evaluation pass of a primed instance (the per-Newton-
/// iteration cost of the behavioral device).
///
/// # Errors
///
/// Compilation or evaluation failures, rendered as text.
pub fn probe_hdl(hdl_src: &str) -> Result<HdlProbe, String> {
    let mut model = None;
    let compile_s = per_call(5, 0.1, 200, || {
        model = Some(HdlModel::compile(hdl_src, "eletran", None)?);
        Ok::<(), mems_hdl::HdlError>(())
    })
    .map_err(|e| e.render(hdl_src))?;
    let model = model.expect("compiled at least once");
    let mut inst = model
        .instantiate("x1", &[("a", 1e-4), ("d", 0.15e-3), ("er", 1.0)])
        .map_err(|e| e.render(hdl_src))?;
    let mut env = SinkEnv {
        v_elec: 0.0,
        v_mech: 0.0,
        sink: 0.0,
    };
    inst.eval_dc(&mut env).map_err(|e| e.render(hdl_src))?;
    inst.commit_dc();
    env.v_mech = 1e-6;
    let h = 1e-6;
    let passes = 20_000u32;
    let t0 = Instant::now();
    for k in 0..passes {
        env.v_elec = 5.0 + f64::from(k % 7);
        inst.eval_transient(h, h, IntegrationMethod::Trapezoidal, &mut env)
            .map_err(|e| e.render(hdl_src))?;
    }
    let eval_pass_us = secs(t0) / f64::from(passes) * 1e6;
    std::hint::black_box(env.sink);
    Ok(HdlProbe {
        compile_s,
        eval_pass_us,
    })
}
