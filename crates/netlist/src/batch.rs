//! Batch scenario engine: `.STEP` parameter sweeps and `.MC` Monte
//! Carlo, running points in parallel across threads. Each worker
//! flattens the deck and compiles its HDL models once, then builds
//! every point's circuits fresh through
//! [`crate::elab::Elaborator::build`] while its [`RunCtx`] keeps the
//! assembly workspace (and the sparse pattern inside it) warm.
//!
//! Determinism: every point's parameter values are derived from a
//! splitmix64 hash of `(seed, point index, variable index)` — never
//! from execution order — and transient warm-start guesses come from
//! a sequential pre-chain, so on the dense matrix backend results are
//! bit-identical for any thread count. (On the forced-sparse backend
//! a worker's pivot order is chosen at its first factorization and
//! replayed for its later points, so multi-threaded sparse batches
//! are deterministic to solver tolerance rather than to the last
//! bit.) Per-point failures (non-convergence, pull-in asserts, …) are
//! recorded and the batch continues: a Monte Carlo run that loses a
//! few collapsed points still reports yield.

use crate::ast::{AnalysisCard, Deck, McDist, StepValues};
use crate::elab::{
    run_elaborated_ctx, sim_options, AnalysisOutcome, DeckRun, Elaborator, ParamEnv, RunCtx,
    MAX_POINTS,
};
use crate::error::{NetlistError, Result};
use mems_numerics::stats::{self, TraceStats};
use mems_spice::analysis::dcop;
use mems_spice::solver::Workspace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cooperative cancellation handle: an `Arc<AtomicBool>` the batch
/// engine (and the `mems serve` job runner) checks **between points**
/// — a running Newton solve or transient integration is never torn
/// down mid-step, so cancellation lands on the next point boundary.
/// Clones share the flag; `cancel()` is sticky.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (visible to every clone, irrevocable).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Batch execution options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Cooperative cancellation: when the token trips, workers (and
    /// the sequential warm-start pre-chain) stop at the next point
    /// boundary; unvisited points are recorded as cancelled failures
    /// and [`BatchResult::cancelled`] is set.
    pub cancel: Option<CancelToken>,
}

impl BatchOptions {
    /// Options with a fixed worker count.
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads,
            ..BatchOptions::default()
        }
    }
}

/// One batch point's parameter assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPoint {
    /// Point index (stable across thread counts).
    pub index: usize,
    /// Ordered `(param, value)` overrides for this point.
    pub overrides: Vec<(String, f64)>,
}

impl BatchPoint {
    fn env(&self) -> ParamEnv {
        self.overrides.iter().cloned().collect()
    }
}

/// A scalar extracted from one point's analyses, e.g.
/// `tran:v(out):settled`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`analysis:label:statistic`).
    pub name: String,
    /// Value at this point.
    pub value: f64,
}

/// Outcome of one batch point.
#[derive(Debug)]
pub struct PointResult {
    /// The parameter assignment.
    pub point: BatchPoint,
    /// Extracted metrics, or the failure description.
    pub outcome: std::result::Result<Vec<Metric>, String>,
}

/// The failure message recorded for points a [`CancelToken`] stopped
/// before they ran (and matched on by the CLI's partial-batch
/// reporting).
pub const CANCELLED_POINT: &str = "cancelled before simulation";

/// A finished batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-point results, ordered by point index.
    pub points: Vec<PointResult>,
    /// Thread count actually used.
    pub threads_used: usize,
    /// Whether a [`CancelToken`] stopped the batch early; unvisited
    /// points carry [`CANCELLED_POINT`] failures.
    pub cancelled: bool,
}

impl BatchResult {
    /// Points that simulated successfully.
    pub fn ok_count(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_ok()).count()
    }

    /// Aggregates each metric across successful points
    /// (name → statistics), sorted by metric name.
    pub fn aggregate(&self) -> Vec<(String, TraceStats)> {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for p in &self.points {
            if let Ok(metrics) = &p.outcome {
                for m in metrics {
                    by_name.entry(m.name.clone()).or_default().push(m.value);
                }
            }
        }
        by_name
            .into_iter()
            .filter_map(|(name, values)| stats::stats(&values).map(|s| (name, s)))
            .collect()
    }
}

/// Expands the deck's `.STEP`/`.MC` cards into the point list.
///
/// `.STEP` alone yields its range/list; `.MC` alone yields `n`
/// sampled points; both together yield the cross product (each sweep
/// value Monte-Carlo'd). Swept/perturbed parameters may be
/// hierarchical (`x1.gap`, `x1.xcell.k`), addressing a formal or
/// local `.PARAM` of a subcircuit instance.
///
/// # Errors
///
/// [`NetlistError::Elab`] when the deck has neither card, when a
/// swept/perturbed parameter is declared in no scope of the
/// hierarchy, when a range is malformed, or when `.STEP` × `.MC`
/// exceeds 10⁶ points.
pub fn batch_points(deck: &Deck) -> Result<Vec<BatchPoint>> {
    batch_points_with(&Elaborator::new(deck)?)
}

/// [`batch_points`] against an existing [`Elaborator`]: its flattened
/// hierarchy supplies parameter validation and `.MC` nominal values,
/// so callers that already elaborated (the batch engine, `mems
/// check`) skip a second flatten-and-compile pass.
///
/// # Errors
///
/// As [`batch_points`].
pub fn batch_points_with(elab: &Elaborator<'_>) -> Result<Vec<BatchPoint>> {
    let deck = elab.deck();
    let nominal = crate::elab::param_env(deck, &ParamEnv::new())?;
    let step: Option<(&str, Vec<f64>)> = match &deck.step {
        Some(card) => {
            // Structural check only: a default-less formal is fine to
            // sweep — every point supplies its value — so nothing is
            // *evaluated* here.
            if !elab.declares_param(&card.param) {
                return Err(NetlistError::elab_at(
                    format!("`.STEP` sweeps undeclared parameter `{}`", card.param),
                    card.span,
                ));
            }
            let values = match &card.values {
                StepValues::Range { start, stop, step } => {
                    let (v0, v1, dv) = (
                        start.eval(&nominal)?,
                        stop.eval(&nominal)?,
                        step.eval(&nominal)?,
                    );
                    let (count, values) = crate::elab::linear_range(v0, v1, dv)
                        .ok_or_else(|| NetlistError::elab_at("bad `.STEP` range", card.span))?;
                    crate::elab::within_point_limit(".STEP", count, card.span)?;
                    values.collect()
                }
                StepValues::List(exprs) => {
                    let mut out = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        out.push(e.eval(&nominal)?);
                    }
                    out
                }
            };
            Some((card.param.as_str(), values))
        }
        None => None,
    };

    let mc_sets: Vec<Vec<(String, f64)>> = match &deck.mc {
        Some(card) => {
            let n = card.n.eval(&nominal)?.round();
            if !(1.0..=MAX_POINTS as f64).contains(&n) {
                return Err(NetlistError::elab_at(
                    format!("`.MC` point count must be in 1..={MAX_POINTS}, got {n}"),
                    card.span,
                ));
            }
            let n = n as usize;
            // Each card is bounded on its own; their cross product is
            // bounded too, before any point is materialized.
            if let Some((_, values)) = &step {
                let total = values.len() * n;
                if total > MAX_POINTS {
                    return Err(NetlistError::elab_at(
                        format!(
                            "`.STEP` × `.MC` would run {} × {n} = {total} points; \
                             a batch may run at most {MAX_POINTS}",
                            values.len()
                        ),
                        card.span,
                    ));
                }
            }
            let seed = match &card.seed {
                Some(e) => e.eval(&nominal)?.abs() as u64,
                None => 1,
            };
            // `.MC` perturbs *around a nominal*, so here every scope
            // is evaluated: bare deck `.PARAM`s plus qualified
            // `path.name` instance parameters. (Evaluated only for
            // `.MC` decks — a `.STEP`-only sweep of a default-less
            // formal must not trip scope evaluation.)
            let qualified = elab.qualified_param_env(&ParamEnv::new())?;
            let mut vars = Vec::with_capacity(card.vars.len());
            for v in &card.vars {
                let nominal_value = *qualified.get(&v.param).ok_or_else(|| {
                    NetlistError::elab_at(
                        format!("`.MC` perturbs undeclared parameter `{}`", v.param),
                        card.span,
                    )
                })?;
                vars.push((
                    v.param.clone(),
                    nominal_value,
                    v.tol.eval(&nominal)?,
                    v.dist,
                ));
            }
            (0..n)
                .map(|i| {
                    vars.iter()
                        .enumerate()
                        .map(|(j, (name, nom, tol, dist))| {
                            (name.clone(), sample(seed, i, j, *nom, *tol, *dist))
                        })
                        .collect()
                })
                .collect()
        }
        None => vec![Vec::new()],
    };

    if deck.step.is_none() && deck.mc.is_none() {
        return Err(NetlistError::Elab {
            message: "deck has no `.STEP` or `.MC` card to batch over".into(),
            span: None,
        });
    }

    let step_sets: Vec<Vec<(String, f64)>> = match step {
        Some((param, values)) => values
            .into_iter()
            .map(|v| vec![(param.to_string(), v)])
            .collect(),
        None => vec![Vec::new()],
    };

    let mut points = Vec::with_capacity(step_sets.len() * mc_sets.len());
    for s in &step_sets {
        for m in &mc_sets {
            let mut overrides = s.clone();
            overrides.extend(m.iter().cloned());
            points.push(BatchPoint {
                index: points.len(),
                overrides,
            });
        }
    }
    Ok(points)
}

/// Deterministic per-(seed, point, variable) sample.
fn sample(seed: u64, point: usize, var: usize, nominal: f64, tol: f64, dist: McDist) -> f64 {
    let key = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((point as u64) << 20)
        .wrapping_add(var as u64);
    match dist {
        McDist::Uniform => {
            let u = unit(splitmix64(key));
            nominal * (1.0 + tol * (2.0 * u - 1.0))
        }
        McDist::Gauss => {
            // Box–Muller; tol is the 3σ bound.
            let u1 = unit(splitmix64(key)).max(1e-12);
            let u2 = unit(splitmix64(key.wrapping_add(0x5bf0_3635)));
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            nominal * (1.0 + tol / 3.0 * z)
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(raw: u64) -> f64 {
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs the deck's batch: expands points, simulates them across
/// worker threads, and extracts metrics.
///
/// # Errors
///
/// Point-expansion errors abort; per-point simulation failures are
/// recorded in the result instead.
pub fn run_batch(deck: &Deck, opts: &BatchOptions) -> Result<BatchResult> {
    // Flattening the hierarchy doubles as the fail-fast check on
    // decks whose subcircuits or models don't elaborate at all.
    let chain_elab = Elaborator::new(deck)?;
    let points = batch_points_with(&chain_elab)?;

    // Transient warm-start chain: a transient run's own integration
    // dwarfs its initial DC solve, so for `.TRAN` decks the operating
    // points are pre-solved *sequentially*, each warm-started from the
    // previous point's solution, and handed to the workers as Newton
    // guesses. Doing this on one thread (rather than letting each
    // worker warm-start from whatever point it happened to finish
    // last) keeps every point's guess — and therefore its converged
    // bits — independent of the thread count.
    let cancel = opts.cancel.clone().unwrap_or_default();
    let op_guesses = warm_start_chain(deck, &chain_elab, &points, false, &cancel);

    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    }
    .min(points.len().max(1));

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<PointResult>>> = {
        let mut v = Vec::with_capacity(points.len());
        v.resize_with(points.len(), || None);
        Mutex::new(v)
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Each worker compiles its own model set: HdlModel is
                // cheap to build and this keeps the hot path lock-free.
                let elab = match Elaborator::new(deck) {
                    Ok(e) => e,
                    Err(_) => return, // already surfaced by the fail-fast above
                };
                // One reusable context per worker: all points share a
                // topology, so the assembly workspace — including the
                // sparse backend's pattern and ordering — carries
                // across every point this worker simulates.
                let mut ctx = RunCtx::default();
                loop {
                    if cancel.is_cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let point = points[i].clone();
                    ctx.op_guess = op_guesses.as_ref().and_then(|g| g[i].clone());
                    let outcome = simulate_point(&elab, &point, &mut ctx);
                    results.lock().expect("no poisoned batch lock")[i] =
                        Some(PointResult { point, outcome });
                }
            });
        }
    });

    // Cancellation leaves gaps: record them as failed points so the
    // partial batch still reports its yield with stable indices.
    let cancelled = cancel.is_cancelled();
    let points = results
        .into_inner()
        .expect("no poisoned batch lock")
        .into_iter()
        .zip(points)
        .map(|(done, point)| {
            done.unwrap_or_else(|| PointResult {
                point,
                outcome: Err(CANCELLED_POINT.to_string()),
            })
        })
        .collect();
    Ok(BatchResult {
        points,
        threads_used: threads,
        cancelled,
    })
}

/// Pre-solves each point's DC operating point sequentially (previous
/// point's solution as Newton guess) for decks with `.TRAN` cards.
/// Returns `None` when the deck has no transient analysis or only one
/// point; per-point failures yield `None` guesses (the point itself
/// will surface its error when simulated). The chain builds each
/// point's circuit fresh, shares one workspace across the points, and
/// checks `cancel` between points, leaving the remaining guesses
/// `None`.
///
/// Public because the `mems serve` job runner pre-chains the same
/// guesses before chunking a sweep across its workers, keeping served
/// results bit-identical to `mems sweep` for any worker count. The
/// `bool` argument has no effect; it is kept only because the
/// `perfbench` benchmark passes it.
pub fn warm_start_chain(
    deck: &Deck,
    elab: &Elaborator<'_>,
    points: &[BatchPoint],
    _ignored: bool,
    cancel: &CancelToken,
) -> Option<Vec<Option<Vec<f64>>>> {
    let has_tran = deck
        .analyses
        .iter()
        .any(|c| matches!(c, AnalysisCard::Tran { .. }));
    if !has_tran || points.len() < 2 {
        return None;
    }
    let mut ws: Option<Workspace> = None;
    let mut prev: Option<Vec<f64>> = None;
    let mut guesses = Vec::with_capacity(points.len());
    for point in points {
        if cancel.is_cancelled() {
            guesses.resize(points.len(), None);
            break;
        }
        let overrides = point.env();
        let guess = elab.build(&overrides, None).ok().and_then(|(mut ckt, _)| {
            let env = crate::elab::param_env(deck, &overrides).ok()?;
            let sim = sim_options(deck, &env).ok()?;
            let ws = ws.get_or_insert_with(|| Workspace::new(0));
            let op = dcop::solve_in(&mut ckt, &sim, prev.as_deref(), ws).ok()?;
            Some(op.x)
        });
        if guess.is_some() {
            prev.clone_from(&guess);
        }
        guesses.push(guess);
    }
    Some(guesses)
}

fn simulate_point(
    elab: &Elaborator<'_>,
    point: &BatchPoint,
    ctx: &mut RunCtx,
) -> std::result::Result<Vec<Metric>, String> {
    match run_elaborated_ctx(elab, &point.env(), ctx) {
        Ok(run) => Ok(extract_metrics(elab.deck(), &run)),
        Err(e) => Err(e.to_string()),
    }
}

/// Flattens a point's analyses into scalar metrics (the per-point
/// payload of `mems sweep` reports and of served sweep jobs).
pub fn extract_metrics(deck: &Deck, run: &DeckRun) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: String, value: f64| out.push(Metric { name, value });
    for (card, outcome) in &run.outcomes {
        let kind = card.kind_name();
        match outcome {
            AnalysisOutcome::Op(op) => {
                for label in deck.print_labels(kind, &op.layout.labels) {
                    if let Some(v) = op.by_label(&label) {
                        push(format!("op:{label}"), v);
                    }
                }
            }
            AnalysisOutcome::Dc { result, .. } => {
                for label in deck.print_labels(kind, &result.labels) {
                    if let Some(trace) = result.trace(&label) {
                        if let Some(last) = trace.last() {
                            push(format!("dc:{label}:last"), *last);
                        }
                        if let Some((_, peak)) = stats::peak(&trace) {
                            push(format!("dc:{label}:peak"), peak);
                        }
                    }
                }
            }
            AnalysisOutcome::Ac(ac) => {
                for label in deck.print_labels(kind, &ac.labels) {
                    if let Some(mag) = ac.magnitude(&label) {
                        if let Some((i, peak)) = stats::peak(&mag) {
                            push(format!("ac:{label}:peak_mag"), peak.abs());
                            push(format!("ac:{label}:f_peak"), ac.freqs[i]);
                        }
                    }
                }
            }
            AnalysisOutcome::Tran(tr) => {
                for label in deck.print_labels(kind, &tr.labels) {
                    if let Some(trace) = tr.trace(&label) {
                        push(
                            format!("tran:{label}:settled"),
                            stats::settled_value(&trace, 0.1),
                        );
                        if let Some((_, peak)) = stats::peak(&trace) {
                            push(format!("tran:{label}:peak"), peak);
                        }
                        if let Some(s) = stats::stats(&trace) {
                            push(format!("tran:{label}:rms"), s.rms);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEP_DECK: &str = "\
stepped divider
.param vin=10 rbot=1k
Vs in 0 {vin}
R1 in out 1k
R2 out 0 {rbot}
.op
.print op v(out)
.step param rbot 500 2000 500
";

    #[test]
    fn step_points_expand_inclusively() {
        let deck = Deck::parse(STEP_DECK).unwrap();
        let points = batch_points(&deck).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].overrides, vec![("rbot".to_string(), 500.0)]);
        assert_eq!(points[3].overrides, vec![("rbot".to_string(), 2000.0)]);
    }

    #[test]
    fn step_batch_matches_analytic_divider() {
        let deck = Deck::parse(STEP_DECK).unwrap();
        let result = run_batch(&deck, &BatchOptions::with_threads(2)).unwrap();
        assert_eq!(result.ok_count(), 4);
        for p in &result.points {
            let rbot = p.point.overrides[0].1;
            let expect = 10.0 * rbot / (1000.0 + rbot);
            let metrics = p.outcome.as_ref().unwrap();
            let vout = metrics
                .iter()
                .find(|m| m.name == "op:v(out)")
                .expect("metric present");
            assert!((vout.value - expect).abs() < 1e-6);
        }
        let agg = result.aggregate();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].1.n, 4);
    }

    #[test]
    fn mc_points_are_deterministic_and_within_tolerance() {
        let deck = Deck::parse(
            "mc divider\n.param r=1000\nVs in 0 5\nR1 in out {r}\nR2 out 0 1k\n.op\n.mc 40 seed=9 r tol=0.05\n",
        )
        .unwrap();
        let a = batch_points(&deck).unwrap();
        let b = batch_points(&deck).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        for p in &a {
            let r = p.overrides[0].1;
            assert!((950.0..=1050.0).contains(&r), "r = {r}");
        }
        // Not all identical.
        assert!(a.iter().any(|p| p.overrides[0].1 != a[0].overrides[0].1));
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let deck = Deck::parse(
            "mc divider\n.param r=1000\nVs in 0 5\nR1 in out {r}\nR2 out 0 1k\n.op\n.print op v(out)\n.mc 32 seed=3 r tol=0.1\n",
        )
        .unwrap();
        let one = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
        let many = run_batch(&deck, &BatchOptions::with_threads(8)).unwrap();
        assert_eq!(one.points.len(), 32);
        assert_eq!(one.threads_used, 1);
        for (p1, pn) in one.points.iter().zip(&many.points) {
            assert_eq!(p1.point, pn.point);
            let (m1, mn) = (p1.outcome.as_ref().unwrap(), pn.outcome.as_ref().unwrap());
            assert_eq!(m1.len(), mn.len());
            for (a, b) in m1.iter().zip(mn) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
            }
        }
    }

    #[test]
    fn tran_step_warm_start_is_thread_count_invariant() {
        // A `.TRAN` batch triggers the sequential DC warm-start
        // pre-chain; the chain (not worker completion order) supplies
        // every point's Newton guess, so results stay bit-identical
        // for any thread count on the dense backend.
        let deck = Deck::parse(
            "warm\n.param k=200\nId 0 vel PWL(0 0 1m 1u)\n.node mechanical1 vel\n\
             Mm vel 0 1e-4\nKk vel 0 {k}\nDd vel 0 40m\n.tran 1m 20m\n\
             .print tran i(kk,0)\n.step param k 150 250 25\n",
        )
        .unwrap();
        let chain = warm_start_chain(
            &deck,
            &Elaborator::new(&deck).unwrap(),
            &batch_points(&deck).unwrap(),
            false,
            &CancelToken::new(),
        )
        .expect("tran deck builds a warm-start chain");
        assert_eq!(chain.len(), 5);
        assert!(chain.iter().all(Option::is_some), "all points solve");
        let one = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
        let many = run_batch(&deck, &BatchOptions::with_threads(4)).unwrap();
        assert_eq!(one.ok_count(), 5);
        for (p1, pn) in one.points.iter().zip(&many.points) {
            let (m1, mn) = (p1.outcome.as_ref().unwrap(), pn.outcome.as_ref().unwrap());
            for (a, b) in m1.iter().zip(mn) {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
            }
            // The settled spring force equals the 1 µN drive.
            let settled = m1
                .iter()
                .find(|m| m.name == "tran:i(kk,0):settled")
                .expect("settled metric");
            assert!((settled.value - 1e-6).abs() < 2e-8, "{}", settled.value);
        }
    }

    #[test]
    fn step_times_mc_is_a_cross_product() {
        let deck = Deck::parse(
            "x\n.param a=1 b=2\nVs in 0 {a}\nR1 in 0 {b}\n.op\n.step param a 1 3 1\n.mc 4 b tol=0.1\n",
        )
        .unwrap();
        let points = batch_points(&deck).unwrap();
        assert_eq!(points.len(), 12);
        assert_eq!(points[0].overrides.len(), 2);
    }

    #[test]
    fn step_times_mc_over_a_million_points_is_a_spanned_error() {
        // 1001 × 1000 is one card within its own bound each, but one
        // batch past 10⁶ points.
        let src = "x\n.param a=1 b=2\nVs in 0 {a}\nR1 in 0 {b}\n.op\n\
                   .step param a 1 1001 1\n.mc 1000 b tol=0.1\n";
        let deck = Deck::parse(src).unwrap();
        let err = batch_points(&deck).unwrap_err();
        let r = err.render(src);
        assert!(r.contains("1001 × 1000 = 1001000 points"), "{r}");
        assert!(r.contains("line 7"), "{r}");
    }

    #[test]
    fn step_range_past_the_limit_names_its_count() {
        // It used to read "bad `.STEP` range", like a malformed one.
        let src = "st\n.param r=1k\nVs in 0 1\nR1 in 0 {r}\n.op\n.step param r 1 2000000 1\n";
        let r = batch_points(&Deck::parse(src).unwrap())
            .unwrap_err()
            .render(src);
        assert!(r.contains("`.STEP` would produce 2000000 points"), "{r}");
        assert!(r.contains("line 6"), "{r}");
    }

    #[test]
    fn gauss_sampling_stays_reasonable() {
        let deck = Deck::parse(
            "g\n.param m=1\nVs in 0 1\nR1 in 0 {m}\n.op\n.mc 200 m tol=0.09 dist=gauss\n",
        )
        .unwrap();
        let points = batch_points(&deck).unwrap();
        let vals: Vec<f64> = points.iter().map(|p| p.overrides[0].1).collect();
        let s = stats::stats(&vals).unwrap();
        assert!((s.mean - 1.0).abs() < 0.01, "mean = {}", s.mean);
        // σ = 0.03 ⇒ essentially everything within ±5σ.
        assert!(s.min > 0.85 && s.max < 1.15, "range [{}, {}]", s.min, s.max);
    }

    const HIER_DECK: &str = "\
hier divider batch
.param vin=10
.subckt div in out PARAMS: rbot=1k
Rt in out 1k
Rb out 0 {rbot}
.ends
Vs in 0 {vin}
X1 in out div
.op
.print op v(out)
";

    #[test]
    fn hierarchical_step_addresses_instance_params() {
        let src = format!("{HIER_DECK}.step param x1.rbot 500 2000 500\n");
        let deck = Deck::parse(&src).unwrap();
        let points = batch_points(&deck).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].overrides[0].0, "x1.rbot");
        let result = run_batch(&deck, &BatchOptions::with_threads(2)).unwrap();
        assert_eq!(result.ok_count(), 4);
        for p in &result.points {
            let rbot = p.point.overrides[0].1;
            let expect = 10.0 * rbot / (1000.0 + rbot);
            let vout = p.outcome.as_ref().unwrap()[..]
                .iter()
                .find(|m| m.name == "op:v(out)")
                .unwrap();
            assert!((vout.value - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn hierarchical_mc_samples_around_instance_nominal() {
        // The nominal of `x1.rbot` is the formal's default (1k); the
        // MC spread must straddle it.
        let src = format!("{HIER_DECK}.mc 24 seed=5 x1.rbot tol=0.1\n");
        let deck = Deck::parse(&src).unwrap();
        let points = batch_points(&deck).unwrap();
        assert_eq!(points.len(), 24);
        for p in &points {
            let r = p.overrides[0].1;
            assert!((900.0..=1100.0).contains(&r), "r = {r}");
        }
        let result = run_batch(&deck, &BatchOptions::with_threads(2)).unwrap();
        assert_eq!(result.ok_count(), 24);
    }

    #[test]
    fn step_may_sweep_a_defaultless_formal() {
        // `rbot` has no default and no call-site value — only the
        // `.STEP` supplies it. Point expansion must not evaluate the
        // scope, and every point binds the formal through its
        // override.
        let deck = Deck::parse(
            "d\n.subckt div in out PARAMS: rbot\nRt in out 1k\nRb out 0 {rbot}\n.ends\n\
             Vs in 0 10\nX1 in out div\n.op\n.print op v(out)\n\
             .step param x1.rbot 1k 2k 1k\n",
        )
        .unwrap();
        let points = batch_points(&deck).unwrap();
        assert_eq!(points.len(), 2);
        let result = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
        assert_eq!(result.ok_count(), 2);
        let vout = result.points[1].outcome.as_ref().unwrap()[..]
            .iter()
            .find(|m| m.name == "op:v(out)")
            .unwrap();
        assert!((vout.value - 10.0 * 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn undeclared_hierarchical_step_param_is_diagnosed() {
        let src = format!("{HIER_DECK}.step param x1.bogus 1 2 1\n");
        let deck = Deck::parse(&src).unwrap();
        let err = batch_points(&deck).expect_err("undeclared param");
        assert!(
            err.to_string().contains("undeclared parameter `x1.bogus`"),
            "{err}"
        );
    }

    #[test]
    fn batch_without_cards_is_an_error() {
        let deck = Deck::parse("t\nR1 a 0 1\n.op\n").unwrap();
        assert!(batch_points(&deck).is_err());
    }

    #[test]
    fn pre_cancelled_batch_visits_no_points() {
        let deck = Deck::parse(
            "c\n.param r=1000\nVs in 0 5\nR1 in out {r}\nR2 out 0 1k\n.op\n.print op v(out)\n.mc 16 seed=2 r tol=0.1\n",
        )
        .unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = run_batch(
            &deck,
            &BatchOptions {
                threads: 2,
                cancel: Some(cancel),
            },
        )
        .unwrap();
        assert!(result.cancelled);
        assert_eq!(result.points.len(), 16);
        assert_eq!(result.ok_count(), 0);
        for p in &result.points {
            assert_eq!(p.outcome.as_ref().unwrap_err(), CANCELLED_POINT);
        }
    }

    #[test]
    fn mid_batch_cancellation_stops_at_a_point_boundary() {
        // A worker-side hook is hard to time deterministically, so
        // trip the token from a watcher thread while a single-threaded
        // `.MC` batch with a real transient per point grinds: the
        // batch must stop early, keep every completed point intact,
        // and mark the rest cancelled.
        let deck = Deck::parse(
            "c\n.param k=200\nId 0 vel PWL(0 0 1m 1u)\n.node mechanical1 vel\n\
             Mm vel 0 1e-4\nKk vel 0 {k}\nDd vel 0 40m\n.tran 0.2m 30m\n\
             .print tran i(kk,0)\n.mc 400 seed=7 k tol=0.1\n",
        )
        .unwrap();
        let cancel = CancelToken::new();
        let watcher = {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(60));
                cancel.cancel();
            })
        };
        let result = run_batch(
            &deck,
            &BatchOptions {
                threads: 1,
                cancel: Some(cancel),
            },
        )
        .unwrap();
        watcher.join().unwrap();
        assert!(result.cancelled);
        assert_eq!(result.points.len(), 400);
        let cancelled = result
            .points
            .iter()
            .filter(|p| p.outcome.as_ref().is_err_and(|e| e == CANCELLED_POINT))
            .count();
        assert!(cancelled > 0, "cancellation raced past the whole batch");
        // Completed points carry real metrics.
        for p in result.points.iter().filter(|p| p.outcome.is_ok()) {
            assert!(!p.outcome.as_ref().unwrap().is_empty());
        }
    }

    #[test]
    fn failed_points_are_recorded_not_fatal() {
        // rbot sweeps through 0 ⇒ that point fails to build.
        let deck = Deck::parse(
            "f\n.param rbot=1k\nVs in 0 1\nR1 in out 1k\nR2 out 0 {rbot}\n.op\n.step param rbot LIST 1k 0 2k\n",
        )
        .unwrap();
        let result = run_batch(&deck, &BatchOptions::with_threads(2)).unwrap();
        assert_eq!(result.points.len(), 3);
        assert_eq!(result.ok_count(), 2);
        assert!(result.points[1].outcome.is_err());
    }
}
