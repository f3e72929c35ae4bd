//! `hdl_mc`: one `mems sweep` per iteration — `Deck::parse` then
//! `run_batch` on 2 threads — of the Listing-1 `eletran` transient deck
//! with a seeded `.MC 200 … vbias TOL=0.1 k TOL=0.05` card.
//!
//! After the measured window the batch is replayed once through the
//! traced replica of the batch engine (the same point list, warm-start
//! chain and per-worker reusable contexts), which must return exactly
//! what `run_batch` returned and supplies the exact LU count. A traced
//! run times those replays layer by layer.

use super::{analysis_estimates, systems_meta};
use crate::goldens::{check_snapshot, probe, Checks, Probes};
use crate::inputs;
use crate::oracle::eletran_balance_residual;
use crate::pipeline::{self, names, probe_hdl, probe_solver, run_traced, TracedCtx};
use crate::trace::{Recorder, TraceReport, ITERATION};
use crate::util::{median, peak_rss_mb, percentile, repeat_setup, secs, timed_loop, J};
use crate::{Outcome, RunArgs};
use mems_netlist::elab::{param_env, sim_options};
use mems_netlist::{
    batch_points_with, extract_metrics, run_batch, warm_start_chain, BatchOptions, BatchPoint,
    CancelToken, Deck, DeckRun, Elaborator, Metric, ParamEnv,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Batch worker threads (the container's core count).
pub const THREADS: usize = 2;

/// Settled force-balance tolerance: the settled value is the mean of
/// the last 10% of the transient, where the ring-down has decayed by
/// ~e⁻¹⁶; what remains is the integrators' discretisation error
/// (≤ 2.3e-5 over the default seed's 200 points).
const BALANCE_RTOL: f64 = 2e-4;

const POINTS_SPAN: &str = "netlist.batch.points";
const CHAIN_SPAN: &str = "netlist.batch.warm_chain";
const POOL_SPAN: &str = "netlist.batch.pool";
const POINT_SPAN: &str = "netlist.batch.point";

/// Probes of one batch point: its parameters and every metric, or a
/// failure marker.
fn point_probes(probes: &mut Probes, point: &BatchPoint, outcome: &Result<Vec<Metric>, String>) {
    let i = point.index;
    for (name, v) in &point.overrides {
        probes.push((format!("p{i}:param:{name}"), *v));
    }
    match outcome {
        Ok(metrics) => {
            for m in metrics {
                probes.push((format!("p{i}:{}", m.name), m.value));
            }
        }
        Err(_) => probes.push((format!("p{i}:failed"), 1.0)),
    }
}

/// The checks every batch's output must pass.
fn check(args: &RunArgs, points: usize, probes: &Probes) -> Checks {
    let mut checks = Checks::default();
    check_snapshot(&mut checks, args.workload.name(), probes, &args.snapshot());
    for i in 0..points {
        if probe(probes, &format!("p{i}:failed")).is_some() {
            checks.that(&format!("point {i}"), false, || "simulation failed".into());
            continue;
        }
        let get = |n: &str| probe(probes, &format!("p{i}:{n}")).unwrap_or(f64::NAN);
        let (f, v, k) = (
            get("tran:i(kk1,0):settled"),
            get("param:vbias"),
            get("param:k"),
        );
        let resid = eletran_balance_residual(f, v, k);
        checks.that(
            &format!("point {i} settled force balance k*x = eps0*A*V^2/(2(d+x)^2)"),
            resid <= BALANCE_RTOL,
            || format!("relative residual {resid:e} at V={v}, k={k}, F={f:e}"),
        );
    }
    checks
}

/// What one replayed batch returned.
struct Replica {
    probes: Probes,
    lu: u64,
    circuits_built: u64,
    circuits_patched: u64,
    /// Worker 0's context and last run, for the solver probe.
    probe_target: Option<(TracedCtx, DeckRun)>,
}

/// One worker of the replayed batch.
struct Worker {
    rec: Recorder,
    results: Vec<(usize, Result<Vec<Metric>, String>)>,
    ctx: TracedCtx,
    last: Option<DeckRun>,
}

fn worker(
    deck: &Deck,
    points: &[BatchPoint],
    guesses: Option<&Vec<Option<Vec<f64>>>>,
    next: &AtomicUsize,
) -> Result<Worker, String> {
    let mut rec = Recorder::new();
    let elab = rec
        .time(names::ELAB_NEW, || Elaborator::new(deck))
        .map_err(|e| e.render(&deck.source))?;
    let mut w = Worker {
        rec: Recorder::new(),
        results: Vec::new(),
        ctx: TracedCtx::default(),
        last: None,
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(point) = points.get(i) else { break };
        w.ctx.op_guess = guesses.and_then(|g| g[i].clone());
        let env: ParamEnv = point.overrides.iter().cloned().collect();
        let span = rec.begin(POINT_SPAN);
        let run = run_traced(&elab, &env, &mut w.ctx, &mut rec);
        rec.end(span);
        let outcome = run.map(|run| {
            let metrics = extract_metrics(deck, &run);
            w.last = Some(run);
            metrics
        });
        w.results.push((i, outcome));
    }
    w.rec = rec;
    Ok(w)
}

/// Replays `run_batch` through the traced replica.
fn replay(deck: &Deck, rec: &mut Recorder) -> Result<Replica, String> {
    let render = |e: mems_netlist::NetlistError| e.render(&deck.source);
    let elab = rec
        .time(names::ELAB_NEW, || Elaborator::new(deck))
        .map_err(render)?;
    let points = rec
        .time(POINTS_SPAN, || batch_points_with(&elab))
        .map_err(render)?;
    let guesses = rec.time(CHAIN_SPAN, || {
        warm_start_chain(deck, &elab, &points, false, &CancelToken::new())
    });
    let next = AtomicUsize::new(0);
    let pool = rec.begin(POOL_SPAN);
    let workers: Vec<Result<Worker, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| worker(deck, &points, guesses.as_ref(), &next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker does not panic"))
            .collect()
    });
    rec.end(pool);
    let mut results = Vec::new();
    let mut replica = Replica {
        probes: Vec::new(),
        lu: 0,
        circuits_built: 0,
        circuits_patched: 0,
        probe_target: None,
    };
    for w in workers {
        let w = w?;
        replica.lu += w.ctx.lu_total();
        replica.circuits_built += w.ctx.stats.circuits_built;
        replica.circuits_patched += w.ctx.stats.circuits_patched;
        rec.absorb(w.rec, Some(pool));
        results.extend(w.results);
        if replica.probe_target.is_none() {
            replica.probe_target = w.last.map(|run| (w.ctx, run));
        }
    }
    results.sort_by_key(|(i, _)| *i);
    for (i, outcome) in &results {
        point_probes(&mut replica.probes, &points[*i], outcome);
    }
    Ok(replica)
}

/// Runs `hdl_mc`.
///
/// # Errors
///
/// A deck that fails to generate, parse or expand.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let points = args.scale.mc_points;
    let (src, setup_s) = repeat_setup(
        5,
        0.3,
        100,
        || {
            let src = inputs::hdl_mc_deck(args.seed, points)?;
            let deck = Deck::parse(&src).map_err(|e| e.render(&src))?;
            let elab = Elaborator::new(&deck).map_err(|e| e.render(&src))?;
            let n = batch_points_with(&elab).map_err(|e| e.render(&src))?.len();
            if n != points {
                return Err(format!("expected {points} .MC points, got {n}"));
            }
            Ok(src)
        },
        drop,
    )?;

    let opts = BatchOptions::with_threads(THREADS);
    let mut batches: Vec<Probes> = Vec::new();
    let mut threads_used = 0;
    let times = timed_loop(args.untraced_seconds(), || {
        let t0 = Instant::now();
        let deck = Deck::parse(&src).map_err(|e| e.render(&src))?;
        let result = run_batch(&deck, &opts).map_err(|e| e.render(&src))?;
        let dt = secs(t0);
        threads_used = result.threads_used;
        let mut probes = Vec::new();
        for p in &result.points {
            point_probes(&mut probes, &p.point, &p.outcome);
        }
        batches.push(probes);
        Ok(dt)
    })?;

    let mut out = Outcome {
        attempted: times.len() as u64,
        probes: batches[0].clone(),
        ..Outcome::default()
    };
    let reference = &batches[0];
    out.apply_checks(times.len() as u64, &check(args, points, reference));
    for (i, b) in batches.iter().enumerate().skip(1) {
        if b != reference {
            out.fail(1, format!("batch {i}: output differs from batch 0"));
        }
    }

    // Replay: exact LU count, and the replica must match `run_batch`.
    let deck = Deck::parse(&src).map_err(|e| e.render(&src))?;
    let replica = if args.trace {
        traced(args, &deck, reference, median(&times), &mut out)?
    } else {
        let replica = replay(&deck, &mut Recorder::new())?;
        if &replica.probes != reference {
            out.fail(1, "replayed batch differs from run_batch".into());
        }
        replica
    };
    let solver = replica
        .probe_target
        .as_ref()
        .map(|(_, run)| run.solver.clone())
        .unwrap_or_default();

    let p50 = median(&times);
    let lu = replica.lu as f64;
    out.set("setup_s", setup_s);
    out.set("iter_p50_s", p50);
    out.set("job_p99_s", percentile(&times, 99.0));
    out.set(
        "points_per_s",
        (points * times.len()) as f64 / times.iter().sum::<f64>(),
    );
    out.set("lu_factorizations", lu);
    out.set("us_per_newton_iter", p50 * 1e6 / lu.max(1.0));
    out.set("peak_rss_mb", peak_rss_mb());
    out.meta = vec![
        ("mc_points".into(), J::Int(points as u64)),
        ("mc_seed".into(), J::Int(inputs::mc_seed(args.seed))),
        ("threads_used".into(), J::Int(threads_used as u64)),
        ("iterations".into(), J::Int(times.len() as u64)),
        (
            "iteration_s".into(),
            J::Arr(times.iter().map(|t| J::Num(*t)).collect()),
        ),
        ("systems".into(), systems_meta(&solver)),
    ];
    Ok(out)
}

/// Traced replays for the traced window, then the HDL and solver
/// probes and the per-layer metrics.
fn traced(
    args: &RunArgs,
    deck: &Deck,
    reference: &Probes,
    untraced_p50: f64,
    out: &mut Outcome,
) -> Result<Replica, String> {
    let mut rec = Recorder::new();
    let mut last = None;
    let traced_times = timed_loop(args.traced_seconds(), || {
        let it = rec.begin(ITERATION);
        let parsed = rec
            .time(names::PARSE, || Deck::parse(&deck.source))
            .map_err(|e| e.render(&deck.source))?;
        last = Some(replay(&parsed, &mut rec)?);
        rec.end(it);
        Ok(rec.spans()[it].dur_s)
    })?;
    out.attempted += traced_times.len() as u64;
    let mut replica = last.expect("timed_loop runs at least once");
    if &replica.probes != reference {
        out.fail(
            traced_times.len() as u64,
            "traced replay differs from run_batch".into(),
        );
    }

    let hdl = probe_hdl(
        &deck
            .hdl_blocks
            .first()
            .ok_or("deck has no .HDL block")?
            .text,
    )?;
    let (mut ctx, run) = replica.probe_target.take().ok_or("no batch point ran")?;
    let env = param_env(deck, &ParamEnv::new()).map_err(|e| e.to_string())?;
    let sim = sim_options(deck, &env).map_err(|e| e.to_string())?;
    let slot = run
        .outcomes
        .len()
        .checked_sub(1)
        .ok_or("batch point ran no analysis")?;
    let outcome = &run.outcomes[slot].1;
    let (kind, x) = pipeline::final_load_kind(outcome, &sim);
    let mut ckt = ctx.ckts.remove(&slot).ok_or("no cached circuit to probe")?;
    let ws = ctx.ws.as_mut().ok_or("no workspace to probe")?;
    let run_stats = ws.sys.solver_stats();
    let probe = probe_solver(&mut ckt, &x, kind, &sim, ws)?;
    replica.probe_target = Some((ctx, run));

    let mut report = TraceReport::from_spans(
        args.workload.name(),
        args.seed,
        &rec,
        untraced_p50,
        Some(POOL_SPAN),
    );
    analysis_estimates(&mut report, &rec, Some(&probe));
    let per = report.iterations.max(1) as f64;
    let lu = rec.counter(names::TRAN, "real_factors") + rec.counter(names::TRAN, "real_refactors");
    let tran_points = rec.counter(names::TRAN, "points");
    let point_times = rec.durations(POINT_SPAN);
    let pool_s = rec.total_s(POOL_SPAN);
    out.set("trace.wall_s", report.wall_s);
    out.set("trace.remainder_s", report.remainder_s());
    out.set("trace.overhead_s", report.overhead_s());
    out.set("netlist.parser.s", report.total(names::PARSE));
    out.set("netlist.elab.new_s", report.total(names::ELAB_NEW));
    out.set("netlist.elab.build_s", report.total(names::ELAB_BUILD));
    out.set("netlist.elab.patch_s", report.total(names::ELAB_PATCH));
    out.set("netlist.elab.circuits_built", replica.circuits_built as f64);
    out.set(
        "netlist.elab.circuits_patched",
        replica.circuits_patched as f64,
    );
    out.set("hdl.compile_s", hdl.compile_s);
    out.set("hdl.eval_pass_us", hdl.eval_pass_us);
    out.set("spice.analysis.op_s", report.total(names::OP));
    out.set("spice.analysis.tran_s", report.total(names::TRAN));
    out.set("spice.analysis.tran_points", tran_points / per);
    out.set("spice.solver.assemble_us", probe.assemble_us);
    out.set(
        "spice.solver.newton_iters_per_point",
        lu / tran_points.max(1.0),
    );
    out.set("numerics.order_s", probe.order_s);
    out.set("numerics.factor_cold_s", probe.factor_cold_s);
    out.set("numerics.refactor_us", probe.refactor_us);
    out.set("numerics.solve_us", probe.solve_us);
    out.set("numerics.fill_ratio", run_stats.fill_ratio());
    out.set("numerics.fallbacks", run_stats.fallbacks as f64);
    out.set("numerics.supernodes", run_stats.supernodes as f64);
    out.set("netlist.batch.point_p50_s", median(&point_times));
    out.set("netlist.batch.warm_chain_s", report.total(CHAIN_SPAN));
    out.set(
        "netlist.batch.parallel_eff",
        point_times.iter().sum::<f64>() / (THREADS as f64 * pool_s),
    );
    report.labels = vec![
        ("threads".into(), THREADS.to_string()),
        ("n".into(), run_stats.n.to_string()),
        ("factor_path".into(), run_stats.factor_path.to_string()),
        ("hdl.compile_s".into(), format!("{:.6}", hdl.compile_s)),
        (
            "hdl.eval_pass_us".into(),
            format!("{:.3}", hdl.eval_pass_us),
        ),
    ];
    report.notes.push(format!(
        "{:.0} Newton iterations over {:.0} transient points per batch; \
         HDL eval share ~ {:.0} passes x {:.3} us = {:.4} s (one pass per Newton iteration)",
        lu / per,
        tran_points / per,
        lu / per,
        hdl.eval_pass_us,
        lu / per * hdl.eval_pass_us * 1e-6
    ));
    out.report = Some(report);
    Ok(replica)
}
