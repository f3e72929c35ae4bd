//! `grid_cold` and `grid_tran`: one `mems run` of a generated grid deck
//! per iteration — `Deck::parse`, `Elaborator::new`, then
//! `run_elaborated_ctx` on a fresh context, as the CLI does. `grid_cold`
//! clears the machine-wide ordering and symbolic caches before every
//! iteration, so each pays what a fresh process pays; `grid_tran` leaves
//! them warm.

use super::{analysis_estimates, probes_of, systems_meta};
use crate::goldens::{check_snapshot, probe, Checks, Probes};
use crate::inputs::{self, GridShape};
use crate::oracle;
use crate::pipeline::{self, names, probe_solver, run_traced, TracedCtx};
use crate::trace::{Recorder, TraceReport, ITERATION};
use crate::util::{median, peak_rss_mb, percentile, repeat_setup, secs, timed_loop, J};
use crate::{Outcome, RunArgs};
use mems_netlist::elab::{param_env, sim_options};
use mems_netlist::{
    run_elaborated_ctx, AnalysisOutcome, Deck, DeckRun, Elaborator, ParamEnv, RunCtx,
};
use mems_spice::system::FactorKind;
use std::time::Instant;

fn clear_caches() {
    mems_numerics::ordering::clear_cache();
    mems_numerics::supernodal::clear_symbolic_cache();
}

/// `mems run` on deck text: parse, elaborate, run every analysis on a
/// fresh context.
fn mems_run(src: &str) -> Result<(Deck, DeckRun), String> {
    let deck = Deck::parse(src).map_err(|e| e.render(src))?;
    let run = {
        let elab = Elaborator::new(&deck).map_err(|e| e.render(src))?;
        run_elaborated_ctx(&elab, &ParamEnv::new(), &mut RunCtx::default())
            .map_err(|e| e.render(src))?
    };
    Ok((deck, run))
}

/// Name of the far-corner node, where the deck prints.
fn corner(shape: GridShape) -> String {
    format!("n{}_{}", shape.rows - 1, shape.cols - 1)
}

/// The checks every grid run's output must pass.
fn check(args: &RunArgs, shape: GridShape, probes: &Probes) -> Checks {
    let mut checks = Checks::default();
    check_snapshot(&mut checks, args.workload.name(), probes, &args.snapshot());
    let c = corner(shape);
    if shape.tran {
        // The pulse is 0–5 V and the network is passive, so the corner
        // stays inside the drive's range.
        let peak = probe(probes, &format!("tran:v({c}):peak")).unwrap_or(f64::NAN);
        checks.that(
            "corner peak within the 0..5 V drive",
            peak > 0.0 && peak <= 5.0,
            || format!("peak {peak:e}"),
        );
    } else {
        let rcell = inputs::grid_params(args.seed).rcell as f64;
        let want = oracle::grid_dc_corner(shape.rows, shape.cols, rcell, 1e-12);
        let got = probe(probes, &format!("op:v({c})")).unwrap_or(f64::NAN);
        checks.close(
            "corner DC voltage vs independent nodal solve",
            got,
            want,
            1e-6,
        );
    }
    checks
}

/// Runs `grid_cold` (`cold`) or `grid_tran`.
///
/// # Errors
///
/// A deck that fails to generate, parse or run.
pub fn run(args: &RunArgs, shape: GridShape, cold: bool) -> Result<Outcome, String> {
    let (src, setup_s) = repeat_setup(
        5,
        0.5,
        50,
        || {
            let src = inputs::grid_deck(shape, args.seed)?;
            let deck = Deck::parse(&src).map_err(|e| e.render(&src))?;
            Elaborator::new(&deck).map_err(|e| e.render(&src))?;
            Ok(src)
        },
        drop,
    )?;

    let mut runs: Vec<Probes> = Vec::new();
    let mut solver = Vec::new();
    let times = timed_loop(args.untraced_seconds(), || {
        if cold {
            clear_caches();
        }
        let t0 = Instant::now();
        let (deck, run) = mems_run(&src)?;
        let dt = secs(t0);
        solver.clone_from(&run.solver);
        runs.push(probes_of(&deck, &run));
        Ok(dt)
    })?;

    let mut out = Outcome {
        attempted: times.len() as u64,
        probes: runs[0].clone(),
        ..Outcome::default()
    };
    let reference = &runs[0];
    out.apply_checks(times.len() as u64, &check(args, shape, reference));
    for (i, p) in runs.iter().enumerate().skip(1) {
        if p != reference {
            out.fail(1, format!("iteration {i}: output differs from iteration 0"));
        }
    }
    let lu = probe(reference, "lu_factorizations").unwrap_or(0.0);
    let points = probe(reference, "points").unwrap_or(0.0);
    let p50 = median(&times);
    out.set("setup_s", setup_s);
    out.set("iter_p50_s", p50);
    out.set("job_p99_s", percentile(&times, 99.0));
    out.set(
        "points_per_s",
        points * times.len() as f64 / times.iter().sum::<f64>(),
    );
    out.set("lu_factorizations", lu);
    out.set("us_per_newton_iter", p50 * 1e6 / lu.max(1.0));
    out.set("peak_rss_mb", peak_rss_mb());
    let params = inputs::grid_params(args.seed);
    out.meta = vec![
        ("rows".into(), J::Int(shape.rows as u64)),
        ("cols".into(), J::Int(shape.cols as u64)),
        ("rcell".into(), J::Int(params.rcell)),
        ("gm".into(), J::Num(params.gm_e7 as f64 * 1e-7)),
        ("caches_cleared_per_iteration".into(), J::Bool(cold)),
        ("iterations".into(), J::Int(times.len() as u64)),
        (
            "iteration_s".into(),
            J::Arr(times.iter().map(|t| J::Num(*t)).collect()),
        ),
        ("systems".into(), systems_meta(&solver)),
    ];

    if args.trace {
        traced(args, cold, &src, reference.clone(), p50, &mut out)?;
    }
    Ok(out)
}

/// The traced half of a traced run: iterations through the replica,
/// then the numerics probes, then the per-layer metrics and report.
fn traced(
    args: &RunArgs,
    cold: bool,
    src: &str,
    reference: Probes,
    untraced_p50: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rec = Recorder::new();
    let mut last: Option<(Deck, TracedCtx, DeckRun)> = None;
    let traced_times = timed_loop(args.traced_seconds(), || {
        if cold {
            clear_caches();
        }
        let it = rec.begin(ITERATION);
        let deck = rec
            .time(names::PARSE, || Deck::parse(src))
            .map_err(|e| e.render(src))?;
        let mut ctx = TracedCtx::default();
        let run = {
            let elab = rec
                .time(names::ELAB_NEW, || Elaborator::new(&deck))
                .map_err(|e| e.render(src))?;
            run_traced(&elab, &ParamEnv::new(), &mut ctx, &mut rec)?
        };
        last = Some((deck, ctx, run));
        rec.end(it);
        Ok(rec.spans()[it].dur_s)
    })?;
    out.attempted += traced_times.len() as u64;
    let (deck, mut ctx, run) = last.expect("timed_loop runs at least once");
    if probes_of(&deck, &run) != reference {
        out.fail(
            traced_times.len() as u64,
            "traced replica output differs from the untraced run".into(),
        );
    }

    // Probe the system the run ended on: the transient's last step, or
    // the operating point of the first `.OP`.
    let (slot, outcome) = run
        .outcomes
        .iter()
        .enumerate()
        .rev()
        .find(|(_, (_, o))| matches!(o, AnalysisOutcome::Tran(_)))
        .or_else(|| {
            run.outcomes
                .iter()
                .enumerate()
                .find(|(_, (_, o))| matches!(o, AnalysisOutcome::Op(_)))
        })
        .map(|(slot, (_, o))| (slot, o))
        .ok_or("grid deck ran no .OP or .TRAN")?;
    let env = param_env(&deck, &ParamEnv::new()).map_err(|e| e.to_string())?;
    let sim = sim_options(&deck, &env).map_err(|e| e.to_string())?;
    let (kind, x) = pipeline::final_load_kind(outcome, &sim);
    let mut ckt = ctx.ckts.remove(&slot).ok_or("no cached circuit to probe")?;
    let ws = ctx.ws.as_mut().ok_or("no workspace to probe")?;
    let run_stats = ws.sys.solver_stats();
    let probe = probe_solver(&mut ckt, &x, kind, &sim, ws)?;

    let mut report =
        TraceReport::from_spans(args.workload.name(), args.seed, &rec, untraced_p50, None);
    analysis_estimates(&mut report, &rec, Some(&probe));
    let per = report.iterations.max(1) as f64;
    let lu = rec.counter(names::OP, "real_factors")
        + rec.counter(names::OP, "real_refactors")
        + rec.counter(names::TRAN, "real_factors")
        + rec.counter(names::TRAN, "real_refactors");
    let solved_points = rec.counter(names::OP, "points") + rec.counter(names::TRAN, "points");
    out.set("trace.wall_s", report.wall_s);
    out.set("trace.remainder_s", report.remainder_s());
    out.set("trace.overhead_s", report.overhead_s());
    out.set("netlist.parser.s", report.total(names::PARSE));
    out.set("netlist.elab.new_s", report.total(names::ELAB_NEW));
    out.set("netlist.elab.build_s", report.total(names::ELAB_BUILD));
    out.set("netlist.elab.patch_s", report.total(names::ELAB_PATCH));
    out.set(
        "netlist.elab.circuits_built",
        ctx.stats.circuits_built as f64,
    );
    out.set(
        "netlist.elab.circuits_patched",
        ctx.stats.circuits_patched as f64,
    );
    out.set("spice.analysis.op_s", report.total(names::OP));
    out.set("spice.analysis.ac_s", report.total(names::AC));
    out.set("spice.analysis.tran_s", report.total(names::TRAN));
    out.set(
        "spice.analysis.tran_points",
        rec.counter(names::TRAN, "points") / per,
    );
    out.set("spice.solver.assemble_us", probe.assemble_us);
    out.set(
        "spice.solver.newton_iters_per_point",
        lu / solved_points.max(1.0),
    );
    out.set("numerics.order_s", probe.order_s);
    out.set("numerics.factor_cold_s", probe.factor_cold_s);
    out.set("numerics.refactor_us", probe.refactor_us);
    out.set("numerics.solve_us", probe.solve_us);
    out.set("numerics.fill_ratio", run_stats.fill_ratio());
    out.set("numerics.fallbacks", run_stats.fallbacks as f64);
    out.set("numerics.supernodes", run_stats.supernodes as f64);

    let n = run_stats.n;
    let policy = FactorKind::Auto.resolve(n);
    report.labels = vec![
        ("n".into(), n.to_string()),
        ("pattern_nnz".into(), run_stats.pattern_nnz.to_string()),
        (
            "factor_policy".into(),
            format!("{policy:?} (FactorKind::Auto at n={n})"),
        ),
        ("factor_path".into(), run_stats.factor_path.to_string()),
        ("order_source".into(), run_stats.order_source.to_string()),
        (
            "cold_probe.factor_path".into(),
            probe.cold.factor_path.to_string(),
        ),
        (
            "cold_probe.order_source".into(),
            probe.cold.order_source.to_string(),
        ),
        (
            "cold_probe.supernodes".into(),
            probe.cold.supernodes.to_string(),
        ),
    ];
    let factors = rec.counter(names::OP, "real_factors") + rec.counter(names::TRAN, "real_factors");
    let refactors = lu - factors;
    report.notes.push(format!(
        "real system per iteration: {:.0} fresh factor(s), cold probe {:.6} s each (ordering {:.6} s), \
         vs {:.0} numeric refactors at {:.1} us each = {:.6} s",
        factors / per,
        probe.factor_cold_s,
        probe.order_s,
        refactors / per,
        probe.refactor_us,
        refactors / per * probe.refactor_us * 1e-6
    ));
    if policy == FactorKind::Supernodal && run_stats.factor_path != "supernodal" {
        report.notes.push(format!(
            "supernodal -> {} fallback: Auto picks the supernodal engine at n={n}, \
             the run ended on the {} path after {} fallback(s)",
            run_stats.factor_path, run_stats.factor_path, run_stats.fallbacks
        ));
    }
    out.report = Some(report);
    Ok(())
}
