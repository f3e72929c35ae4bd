//! Rendering deck and batch results as aligned text tables and CSV.

use crate::ast::Deck;
use crate::batch::BatchResult;
use crate::elab::{AnalysisOutcome, DeckRun};
use mems_spice::analysis::sweep::SweepResult;
use mems_spice::output::TranResult;
use std::fmt::Write as _;

/// Renders an aligned table: header row + data rows.
fn table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>width$}", width = widths[i]);
        }
        out.push('\n');
    };
    render_row(&mut out, headers);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

fn fmt_val(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

/// A swept outcome — `.DC` values or `.TRAN` times as its x-axis, one
/// recorded row per x — with the columns to render: each chosen label
/// and its index in a row. `.DC` and `.TRAN` render through its
/// methods alike; they differ only in their title or header line and
/// in JSON's leading fields.
struct Swept<'a> {
    xs: &'a [f64],
    rows: &'a [Vec<f64>],
    columns: Vec<(String, usize)>,
}

impl<'a> Swept<'a> {
    /// The `chosen` labels' columns out of the recorded `labels`, which
    /// hold every chosen one ([`Deck::print_labels`] and `plot_labels`
    /// choose from them).
    fn new(xs: &'a [f64], labels: &[String], rows: &'a [Vec<f64>], chosen: Vec<String>) -> Self {
        let columns = chosen
            .into_iter()
            .map(|l| {
                let k = labels.iter().position(|r| *r == l);
                (l, k.expect("a chosen label is a recorded one"))
            })
            .collect();
        Swept { xs, rows, columns }
    }

    fn dc(result: &'a SweepResult, chosen: Vec<String>) -> Self {
        Swept::new(&result.values, &result.labels, &result.samples, chosen)
    }

    fn tran(tr: &'a TranResult, chosen: Vec<String>) -> Self {
        Swept::new(&tr.time, &tr.labels, &tr.samples, chosen)
    }

    /// An aligned table: the x column, headed `x_head` and formatted
    /// by `fmt_x`, then one column per chosen label.
    fn table(&self, x_head: &str, fmt_x: fn(f64) -> String) -> String {
        let mut headers = vec![x_head.to_string()];
        headers.extend(self.columns.iter().map(|(l, _)| l.clone()));
        let rows: Vec<Vec<String>> = self
            .xs
            .iter()
            .zip(self.rows)
            .map(|(&x, row)| {
                let mut cells = vec![fmt_x(x)];
                cells.extend(self.columns.iter().map(|&(_, k)| fmt_val(row[k])));
                cells
            })
            .collect();
        table(&headers, &rows)
    }

    /// CSV: the header line `x_head,label,…`, then one line per x.
    fn csv(&self, x_head: &str) -> String {
        let mut out = x_head.to_string();
        for (l, _) in &self.columns {
            let _ = write!(out, ",{l}");
        }
        out.push('\n');
        for (x, row) in self.xs.iter().zip(self.rows) {
            let _ = write!(out, "{x:.9e}");
            for &(_, k) in &self.columns {
                let _ = write!(out, ",{:.9e}", row[k]);
            }
            out.push('\n');
        }
        out
    }

    /// Each chosen label with its values along the x-axis.
    fn traces(&self) -> Vec<(String, Vec<f64>)> {
        self.columns
            .iter()
            .map(|(l, k)| (l.clone(), self.rows.iter().map(|row| row[*k]).collect()))
            .collect()
    }

    /// Every trace as one ASCII plot under `title`.
    fn plot(&self, title: &str, rows: usize, cols: usize) -> String {
        render_plot(title, self.xs, self.traces(), rows, cols)
    }

    /// A JSON object: the `lead` fields, the x-axis under `x_key`, then
    /// the traces.
    fn json(&self, lead: &str, x_key: &str) -> String {
        format!(
            "{{{lead},\"{x_key}\":{},\"traces\":{}}}",
            json_num_array(self.xs),
            json_trace_object(&self.traces())
        )
    }
}

/// Renders one analysis outcome as an aligned table.
pub fn outcome_table(deck: &Deck, outcome: &AnalysisOutcome) -> String {
    match outcome {
        AnalysisOutcome::Op(op) => {
            let labels = deck.print_labels("op", &op.layout.labels);
            let rows: Vec<Vec<String>> = labels
                .iter()
                .filter_map(|l| op.by_label(l).map(|v| vec![l.clone(), fmt_val(v)]))
                .collect();
            format!(
                "operating point ({} iterations)\n{}",
                op.iterations,
                table(&["unknown".into(), "value".into()], &rows)
            )
        }
        AnalysisOutcome::Dc { var, result } => {
            let swept = Swept::dc(result, deck.print_labels("dc", &result.labels));
            format!("dc sweep over {var}\n{}", swept.table(var, fmt_val))
        }
        AnalysisOutcome::Ac(ac) => {
            let labels = deck.print_labels("ac", &ac.labels);
            let mut headers = vec!["freq [Hz]".to_string()];
            for l in &labels {
                headers.push(format!("|{l}|"));
                headers.push(format!("arg({l}) [deg]"));
            }
            let mags: Vec<Vec<f64>> = labels.iter().filter_map(|l| ac.magnitude(l)).collect();
            let phases: Vec<Vec<f64>> = labels.iter().filter_map(|l| ac.phase_deg(l)).collect();
            let rows: Vec<Vec<String>> = ac
                .freqs
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let mut row = vec![fmt_val(*f)];
                    for (m, p) in mags.iter().zip(&phases) {
                        row.push(fmt_val(m[i]));
                        row.push(format!("{:+.2}", p[i]));
                    }
                    row
                })
                .collect();
            format!(
                "ac sweep ({} points)\n{}",
                ac.freqs.len(),
                table(&headers, &rows)
            )
        }
        AnalysisOutcome::Tran(tr) => {
            let swept = Swept::tran(tr, deck.print_labels("tran", &tr.labels));
            format!(
                "transient ({} accepted steps, {} newton iterations, {} rejected)\n{}",
                tr.time.len(),
                tr.total_newton_iterations,
                tr.rejected_steps,
                swept.table("time [s]", |t| format!("{t:.6e}"))
            )
        }
    }
}

/// Renders one analysis outcome as CSV.
pub fn outcome_csv(deck: &Deck, outcome: &AnalysisOutcome) -> String {
    match outcome {
        AnalysisOutcome::Op(op) => {
            let labels = deck.print_labels("op", &op.layout.labels);
            let mut out = String::from("unknown,value\n");
            for l in &labels {
                if let Some(v) = op.by_label(l) {
                    let _ = writeln!(out, "{l},{v:.9e}");
                }
            }
            out
        }
        AnalysisOutcome::Dc { var, result } => {
            Swept::dc(result, deck.print_labels("dc", &result.labels)).csv(var)
        }
        AnalysisOutcome::Ac(ac) => {
            let labels = deck.print_labels("ac", &ac.labels);
            let mut out = String::from("freq");
            for l in &labels {
                let _ = write!(out, ",mag({l}),phase_deg({l})");
            }
            out.push('\n');
            let mags: Vec<Vec<f64>> = labels.iter().filter_map(|l| ac.magnitude(l)).collect();
            let phases: Vec<Vec<f64>> = labels.iter().filter_map(|l| ac.phase_deg(l)).collect();
            for (i, f) in ac.freqs.iter().enumerate() {
                let _ = write!(out, "{f:.9e}");
                for (m, p) in mags.iter().zip(&phases) {
                    let _ = write!(out, ",{:.9e},{:.9e}", m[i], p[i]);
                }
                out.push('\n');
            }
            out
        }
        AnalysisOutcome::Tran(tr) => {
            Swept::tran(tr, deck.print_labels("tran", &tr.labels)).csv("time")
        }
    }
}

/// Renders the whole run (all analyses) as tables.
pub fn run_report(deck: &Deck, run: &DeckRun) -> String {
    let mut out = format!("deck: {}\n", run.title);
    for (card, outcome) in &run.outcomes {
        let _ = writeln!(out, "\n== .{} ==", card.kind_name());
        out.push_str(&outcome_table(deck, outcome));
    }
    out
}

/// Renders a batch result: per-point table + aggregate statistics.
pub fn batch_report(result: &BatchResult) -> String {
    let mut param_names: Vec<String> = Vec::new();
    let mut metric_names: Vec<String> = Vec::new();
    for p in &result.points {
        for (name, _) in &p.point.overrides {
            if !param_names.contains(name) {
                param_names.push(name.clone());
            }
        }
        if let Ok(metrics) = &p.outcome {
            for m in metrics {
                if !metric_names.contains(&m.name) {
                    metric_names.push(m.name.clone());
                }
            }
        }
    }
    let mut headers = vec!["#".to_string()];
    headers.extend(param_names.iter().cloned());
    headers.extend(metric_names.iter().cloned());
    headers.push("status".into());
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|p| {
            let mut row = vec![p.point.index.to_string()];
            for name in &param_names {
                let v = p.point.overrides.iter().find(|(n, _)| n == name);
                row.push(v.map_or("-".into(), |(_, v)| fmt_val(*v)));
            }
            match &p.outcome {
                Ok(metrics) => {
                    for name in &metric_names {
                        let m = metrics.iter().find(|m| &m.name == name);
                        row.push(m.map_or("-".into(), |m| fmt_val(m.value)));
                    }
                    row.push("ok".into());
                }
                Err(e) => {
                    for _ in &metric_names {
                        row.push("-".into());
                    }
                    row.push(format!("FAIL: {e}"));
                }
            }
            row
        })
        .collect();
    let mut out = format!(
        "batch: {} points, {} ok, {} threads\n{}",
        result.points.len(),
        result.ok_count(),
        result.threads_used,
        table(&headers, &rows)
    );
    let agg = result.aggregate();
    if !agg.is_empty() {
        out.push_str("\naggregate statistics (ok points)\n");
        let headers = ["metric", "min", "max", "mean", "rms", "n"].map(String::from);
        let rows: Vec<Vec<String>> = agg
            .iter()
            .map(|(name, s)| {
                vec![
                    name.clone(),
                    fmt_val(s.min),
                    fmt_val(s.max),
                    fmt_val(s.mean),
                    fmt_val(s.rms),
                    s.n.to_string(),
                ]
            })
            .collect();
        out.push_str(&table(&headers, &rows));
    }
    out
}

// ---------------------------------------------------------------
// ASCII plots (`mems plot`)
// ---------------------------------------------------------------

/// Normalizes a `--probe` argument into a trace label: full labels
/// (`v(x1.mid)`, `i(kk,0)`) pass through, bare (possibly
/// hierarchical) node paths get wrapped as `v(…)`.
pub fn normalize_probe(probe: &str) -> String {
    let p = probe.to_ascii_lowercase();
    if p.contains('(') {
        p
    } else {
        format!("v({p})")
    }
}

/// Resolves the labels one analysis should plot: explicit probes
/// (every one must exist) or the deck's `.PRINT` selection.
fn plot_labels(
    deck: &Deck,
    kind: &str,
    all: &[String],
    probes: &[String],
) -> Result<Vec<String>, String> {
    if probes.is_empty() {
        return Ok(deck.print_labels(kind, all));
    }
    let chosen: Vec<String> = probes.iter().map(|p| normalize_probe(p)).collect();
    for c in &chosen {
        if !all.contains(c) {
            return Err(format!(
                "probe `{c}` does not name a trace of the .{kind} analysis (available: {})",
                all.join(", ")
            ));
        }
    }
    Ok(chosen)
}

/// Rendering options for `mems plot`.
#[derive(Debug, Clone)]
pub struct PlotOptions {
    /// Plot height in character rows.
    pub rows: usize,
    /// Plot width in character columns.
    pub cols: usize,
    /// `.AC` only: plot magnitude over `log10(frequency)` instead of
    /// the raw frequency axis (`--log-x`). Non-positive frequencies
    /// are dropped from the plot.
    pub log_x: bool,
    /// `.AC` only: plot magnitude in dB, `20·log10(|·|)` (`--db`).
    pub db: bool,
}

impl Default for PlotOptions {
    fn default() -> Self {
        PlotOptions {
            rows: 16,
            cols: 72,
            log_x: false,
            db: false,
        }
    }
}

/// Magnitude floor for the dB axis: a structural zero plots at
/// −360 dB instead of collapsing the plot to `-inf`.
const DB_FLOOR_MAG: f64 = 1e-18;

/// Renders one analysis outcome as an ASCII plot
/// ([`mems_spice::output::ascii_plot`]): traces over time for
/// `.TRAN`, magnitude over frequency for `.AC` (optionally with
/// log-frequency x-axis and/or dB y-axis), traces over the swept
/// variable for `.DC`. `.OP` has no axis and falls back to its table.
/// A probe can only name a trace the outcome recorded: a deck run
/// records the printed ones, so plot probes from a run of the deck
/// with its `prints` cleared, which records every unknown.
///
/// # Errors
///
/// A message when a probe matches no trace of the analysis.
pub fn outcome_plot(
    deck: &Deck,
    outcome: &AnalysisOutcome,
    probes: &[String],
    opts: &PlotOptions,
) -> Result<String, String> {
    let (rows, cols) = (opts.rows, opts.cols);
    match outcome {
        AnalysisOutcome::Op(_) => Ok(outcome_table(deck, outcome)),
        AnalysisOutcome::Dc { var, result } => {
            let labels = plot_labels(deck, "dc", &result.labels, probes)?;
            Ok(Swept::dc(result, labels).plot(&format!("dc sweep over {var}"), rows, cols))
        }
        AnalysisOutcome::Ac(ac) => {
            let labels = plot_labels(deck, "ac", &ac.labels, probes)?;
            // Axis transforms: keep the (frequency, magnitude) pairs
            // aligned when `log_x` drops non-positive frequencies.
            let keep: Vec<usize> = ac
                .freqs
                .iter()
                .enumerate()
                .filter(|(_, &f)| !opts.log_x || f > 0.0)
                .map(|(i, _)| i)
                .collect();
            let xs: Vec<f64> = keep
                .iter()
                .map(|&i| {
                    if opts.log_x {
                        ac.freqs[i].log10()
                    } else {
                        ac.freqs[i]
                    }
                })
                .collect();
            let traces: Vec<(String, Vec<f64>)> = labels
                .iter()
                .filter_map(|l| {
                    ac.magnitude(l).map(|m| {
                        let ys: Vec<f64> = keep
                            .iter()
                            .map(|&i| {
                                if opts.db {
                                    20.0 * m[i].max(DB_FLOOR_MAG).log10()
                                } else {
                                    m[i]
                                }
                            })
                            .collect();
                        let name = if opts.db {
                            format!("dB({l})")
                        } else {
                            format!("|{l}|")
                        };
                        (name, ys)
                    })
                })
                .collect();
            let axes = match (opts.log_x, opts.db) {
                (true, true) => "dB over log10(f)",
                (true, false) => "magnitude over log10(f)",
                (false, true) => "dB",
                (false, false) => "magnitude",
            };
            Ok(render_plot(
                &format!("ac sweep ({} points, {axes})", xs.len()),
                &xs,
                traces,
                rows,
                cols,
            ))
        }
        AnalysisOutcome::Tran(tr) => {
            let labels = plot_labels(deck, "tran", &tr.labels, probes)?;
            let title = format!("transient ({} steps)", tr.time.len());
            Ok(Swept::tran(tr, labels).plot(&title, rows, cols))
        }
    }
}

/// Feeds named traces through [`mems_spice::output::ascii_plot`] (the
/// owned-to-borrowed series conversion all three sweep kinds share).
fn render_plot(
    title: &str,
    xs: &[f64],
    traces: Vec<(String, Vec<f64>)>,
    rows: usize,
    cols: usize,
) -> String {
    let series: Vec<(&str, &[f64])> = traces
        .iter()
        .map(|(l, t)| (l.as_str(), t.as_slice()))
        .collect();
    mems_spice::output::ascii_plot(title, xs, &series, rows, cols)
}

/// Renders every analysis of a run as ASCII plots (`mems plot`).
///
/// # Errors
///
/// The first unmatched probe.
pub fn run_plot(
    deck: &Deck,
    run: &DeckRun,
    probes: &[String],
    opts: &PlotOptions,
) -> Result<String, String> {
    let mut out = format!("deck: {}\n", run.title);
    for (card, outcome) in &run.outcomes {
        let _ = writeln!(out, "\n== .{} ==", card.kind_name());
        out.push_str(&outcome_plot(deck, outcome, probes, opts)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------
// JSON rendering (hand-rolled: the offline workspace has no serde).
// ---------------------------------------------------------------

/// Escapes a string for a JSON string literal (without the enclosing
/// quotes). Control characters become `\uXXXX` escapes; non-ASCII
/// text (hierarchical node names, deck titles) passes through as
/// UTF-8. Public because the `mems serve` protocol writes
/// user-supplied strings — deck titles, probe labels, error logs —
/// through the same writer the CLI reports use.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON value (`null` for NaN/infinite, which
/// JSON cannot represent).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.12e}")
    } else {
        "null".to_string()
    }
}

fn json_num_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// `{"label": [..], ...}` from label → trace pairs.
fn json_trace_object(traces: &[(String, Vec<f64>)]) -> String {
    let items: Vec<String> = traces
        .iter()
        .map(|(l, vs)| format!("\"{}\":{}", json_escape(l), json_num_array(vs)))
        .collect();
    format!("{{{}}}", items.join(","))
}

/// Renders one analysis outcome as a JSON object.
pub fn outcome_json(deck: &Deck, outcome: &AnalysisOutcome) -> String {
    match outcome {
        AnalysisOutcome::Op(op) => {
            let labels = deck.print_labels("op", &op.layout.labels);
            let values: Vec<String> = labels
                .iter()
                .filter_map(|l| {
                    op.by_label(l)
                        .map(|v| format!("\"{}\":{}", json_escape(l), json_num(v)))
                })
                .collect();
            format!(
                "{{\"kind\":\"op\",\"iterations\":{},\"values\":{{{}}}}}",
                op.iterations,
                values.join(",")
            )
        }
        AnalysisOutcome::Dc { var, result } => {
            let lead = format!("\"kind\":\"dc\",\"var\":\"{}\"", json_escape(var));
            Swept::dc(result, deck.print_labels("dc", &result.labels)).json(&lead, "values")
        }
        AnalysisOutcome::Ac(ac) => {
            let labels = deck.print_labels("ac", &ac.labels);
            let mags: Vec<(String, Vec<f64>)> = labels
                .iter()
                .filter_map(|l| ac.magnitude(l).map(|m| (l.clone(), m)))
                .collect();
            let phases: Vec<(String, Vec<f64>)> = labels
                .iter()
                .filter_map(|l| ac.phase_deg(l).map(|p| (l.clone(), p)))
                .collect();
            format!(
                "{{\"kind\":\"ac\",\"freqs\":{},\"magnitude\":{},\"phase_deg\":{}}}",
                json_num_array(&ac.freqs),
                json_trace_object(&mags),
                json_trace_object(&phases)
            )
        }
        AnalysisOutcome::Tran(tr) => {
            let lead = format!(
                "\"kind\":\"tran\",\"newton_iterations\":{},\"rejected_steps\":{}",
                tr.total_newton_iterations, tr.rejected_steps
            );
            Swept::tran(tr, deck.print_labels("tran", &tr.labels)).json(&lead, "time")
        }
    }
}

/// Renders one [`SolverStats`](mems_spice::system::SolverStats)
/// snapshot as a JSON object. Shared by `mems run --json` and the
/// `mems serve` job metadata so both report the linear solver the same
/// way.
pub fn solver_stats_json(st: &mems_spice::system::SolverStats) -> String {
    format!(
        "{{\"backend\":\"{}\",\"factor_path\":\"{}\",\"ordering\":\"{}\",\
         \"order_source\":\"{}\",\"order_us\":{},\
         \"n\":{},\"pattern_nnz\":{},\"factor_nnz\":{},\"fill_ratio\":{},\
         \"factors\":{},\"refactors\":{},\"fallbacks\":{},\
         \"last_factor_us\":{},\"last_refactor_us\":{},\
         \"stamps\":{},\"stamp_misses\":{},\"bytes\":{}}}",
        json_escape(st.backend),
        json_escape(st.factor_path),
        json_escape(st.ordering),
        json_escape(st.order_source),
        st.order_us,
        st.n,
        st.pattern_nnz,
        st.factor_nnz,
        json_num(st.fill_ratio()),
        st.factors,
        st.refactors,
        st.fallbacks,
        st.last_factor_us,
        st.last_refactor_us,
        st.stamps,
        st.stamp_misses,
        st.bytes
    )
}

/// Renders a whole deck run as a JSON document:
/// `{"deck": …, "analyses": […], "solver": {…}}`.
pub fn run_json(deck: &Deck, run: &DeckRun) -> String {
    let analyses: Vec<String> = run
        .outcomes
        .iter()
        .map(|(_, outcome)| outcome_json(deck, outcome))
        .collect();
    let solver: Vec<String> = run
        .solver
        .iter()
        .map(|(name, st)| format!("\"{}\":{}", json_escape(name), solver_stats_json(st)))
        .collect();
    format!(
        "{{\"deck\":\"{}\",\"analyses\":[{}],\"solver\":{{{}}}}}\n",
        json_escape(&run.title),
        analyses.join(","),
        solver.join(",")
    )
}

/// Renders one batch point as a JSON object — the per-point record
/// both `mems sweep --json` and the `mems serve` results stream emit,
/// byte-identical, so served jobs can be diffed against CLI sweeps.
pub fn point_json(p: &crate::batch::PointResult) -> String {
    let params: Vec<String> = p
        .point
        .overrides
        .iter()
        .map(|(n, v)| format!("\"{}\":{}", json_escape(n), json_num(*v)))
        .collect();
    let body = match &p.outcome {
        Ok(metrics) => {
            let ms: Vec<String> = metrics
                .iter()
                .map(|m| format!("\"{}\":{}", json_escape(&m.name), json_num(m.value)))
                .collect();
            format!("\"status\":\"ok\",\"metrics\":{{{}}}", ms.join(","))
        }
        Err(e) => format!("\"status\":\"fail\",\"error\":\"{}\"", json_escape(e)),
    };
    format!(
        "{{\"index\":{},\"params\":{{{}}},{}}}",
        p.point.index,
        params.join(","),
        body
    )
}

/// Renders a batch result as a JSON document: per-point parameter
/// overrides, metrics or failure log, and aggregate statistics.
pub fn batch_json(result: &BatchResult) -> String {
    let points: Vec<String> = result.points.iter().map(point_json).collect();
    let agg: Vec<String> = result
        .aggregate()
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{}\":{{\"min\":{},\"max\":{},\"mean\":{},\"rms\":{},\"n\":{}}}",
                json_escape(name),
                json_num(s.min),
                json_num(s.max),
                json_num(s.mean),
                json_num(s.rms),
                s.n
            )
        })
        .collect();
    format!(
        "{{\"total\":{},\"ok\":{},\"threads\":{},\"points\":[{}],\"aggregate\":{{{}}}}}\n",
        result.points.len(),
        result.ok_count(),
        result.threads_used,
        points.join(","),
        agg.join(",")
    )
}

/// Renders a batch result as CSV (one row per point).
pub fn batch_csv(result: &BatchResult) -> String {
    let mut param_names: Vec<String> = Vec::new();
    let mut metric_names: Vec<String> = Vec::new();
    for p in &result.points {
        for (name, _) in &p.point.overrides {
            if !param_names.contains(name) {
                param_names.push(name.clone());
            }
        }
        if let Ok(metrics) = &p.outcome {
            for m in metrics {
                if !metric_names.contains(&m.name) {
                    metric_names.push(m.name.clone());
                }
            }
        }
    }
    let mut out = String::from("point");
    for n in &param_names {
        let _ = write!(out, ",{n}");
    }
    for n in &metric_names {
        let _ = write!(out, ",{n}");
    }
    out.push_str(",status\n");
    for p in &result.points {
        let _ = write!(out, "{}", p.point.index);
        for name in &param_names {
            match p.point.overrides.iter().find(|(n, _)| n == name) {
                Some((_, v)) => {
                    let _ = write!(out, ",{v:.9e}");
                }
                None => out.push_str(",nan"),
            }
        }
        match &p.outcome {
            Ok(metrics) => {
                for name in &metric_names {
                    match metrics.iter().find(|m| &m.name == name) {
                        Some(m) => {
                            let _ = write!(out, ",{:.9e}", m.value);
                        }
                        None => out.push_str(",nan"),
                    }
                }
                out.push_str(",ok\n");
            }
            Err(e) => {
                for _ in &metric_names {
                    out.push_str(",nan");
                }
                let _ = writeln!(out, ",\"{}\"", e.replace('"', "'"));
            }
        }
    }
    out
}

// ---------------------------------------------------------------
// Machine-readable diagnostics (`mems check --json`,
// `mems serve --check-only`, and serve's 400 responses all emit this
// one format, so editor/service integrations never scrape the human
// caret excerpts).
// ---------------------------------------------------------------

/// One structured diagnostic: severity, message, and (when the
/// failing card is known) a byte span into the deck source.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// `"error"` (the deck frontend currently has no warnings; the
    /// field exists so the wire format won't change when it does).
    pub severity: String,
    /// Human-readable description, without source excerpts.
    pub message: String,
    /// Byte span into the (include-spliced) deck source.
    pub span: Option<mems_hdl::span::Span>,
}

impl Diagnostic {
    /// Converts a deck-frontend error into a diagnostic, preserving
    /// its span when it has one.
    pub fn from_error(e: &crate::error::NetlistError) -> Self {
        Diagnostic {
            severity: "error".to_string(),
            message: e.to_string(),
            span: e.span(),
        }
    }
}

/// 1-based `(line, column)` of a byte offset in `src` (column counts
/// characters, not bytes, so multibyte node names report sensibly).
fn line_col(src: &str, pos: usize) -> (usize, usize) {
    let pos = pos.min(src.len());
    let before = &src[..pos];
    let line = before.matches('\n').count() + 1;
    let col = before.rfind('\n').map_or(before.chars().count(), |nl| {
        before[nl + 1..].chars().count()
    }) + 1;
    (line, col)
}

/// Renders one diagnostic as a JSON object:
/// `{"severity","message","span":{"start","end","line","col"}|null}`.
pub fn diagnostic_json(src: &str, d: &Diagnostic) -> String {
    let span = match d.span {
        Some(s) => {
            let (line, col) = line_col(src, s.start);
            format!(
                "{{\"start\":{},\"end\":{},\"line\":{line},\"col\":{col}}}",
                s.start, s.end
            )
        }
        None => "null".to_string(),
    };
    format!(
        "{{\"severity\":\"{}\",\"message\":\"{}\",\"span\":{span}}}",
        json_escape(&d.severity),
        json_escape(&d.message)
    )
}

/// Renders a diagnostic list as a JSON array — the shared payload of
/// `mems check --json`, `mems serve --check-only`, and serve's
/// invalid-deck responses.
pub fn diagnostics_json(src: &str, diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(|d| diagnostic_json(src, d)).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_batch, BatchOptions};
    use crate::elab::run_deck;

    #[test]
    fn op_table_and_csv_render() {
        let deck = Deck::parse("t\nVs in 0 2\nR1 in out 1k\nR2 out 0 1k\n.op\n.print op v(out)\n")
            .unwrap();
        let run = run_deck(&deck).unwrap();
        let report = run_report(&deck, &run);
        assert!(report.contains("v(out)"), "{report}");
        assert!(report.contains("1.000000"), "{report}");
        let csv = outcome_csv(&deck, &run.outcomes[0].1);
        assert!(csv.starts_with("unknown,value\n"));
        assert!(csv.contains("v(out),"), "{csv}");
    }

    #[test]
    fn swept_csv_has_header_and_rows() {
        let (xs, rows) = ([0.0, 1e-3], [vec![1.0, 2.0], vec![3.0, 4.0]]);
        let labels = ["v(a)".to_string(), "v(b)".to_string()];
        let csv = Swept::new(&xs, &labels, &rows, vec!["v(b)".into()]).csv("time");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            [
                "time,v(b)",
                "0.000000000e0,2.000000000e0",
                "1.000000000e-3,4.000000000e0"
            ]
        );
    }

    #[test]
    fn run_json_is_wellformed_and_has_values() {
        let deck = Deck::parse(
            "json \"deck\"\nVs in 0 2\nR1 in out 1k\nR2 out 0 1k\n.op\n.print op v(out)\n",
        )
        .unwrap();
        let run = run_deck(&deck).unwrap();
        let json = run_json(&deck, &run);
        assert!(json.contains("\"kind\":\"op\""), "{json}");
        assert!(json.contains("\"v(out)\":9.99999999"), "{json}");
        // The quote in the title must be escaped.
        assert!(json.contains("json \\\"deck\\\""), "{json}");
        assert_json_balanced(&json);
    }

    #[test]
    fn batch_json_reports_failures_and_aggregate() {
        let deck = Deck::parse(
            "f\n.param r=1k\nVs in 0 1\nR1 in out 1k\nR2 out 0 {r}\n.op\n.print op v(out)\n.step param r LIST 1k 0 3k\n",
        )
        .unwrap();
        let result = run_batch(&deck, &BatchOptions::with_threads(2)).unwrap();
        let json = batch_json(&result);
        assert!(json.contains("\"total\":3"), "{json}");
        assert!(json.contains("\"ok\":2"), "{json}");
        assert!(json.contains("\"status\":\"fail\""), "{json}");
        assert!(json.contains("\"error\":"), "{json}");
        assert!(json.contains("\"aggregate\""), "{json}");
        assert!(json.contains("\"op:v(out)\""), "{json}");
        assert_json_balanced(&json);
    }

    #[test]
    fn json_numbers_handle_non_finite() {
        assert_eq!(super::json_num(f64::NAN), "null");
        assert_eq!(super::json_num(f64::INFINITY), "null");
        assert!(super::json_num(1.5).starts_with("1.5"));
    }

    #[test]
    fn json_escape_covers_the_two_char_escapes() {
        assert_eq!(json_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("line1\nline2"), "line1\\nline2");
        assert_eq!(json_escape("cr\rtab\t"), "cr\\rtab\\t");
    }

    #[test]
    fn json_escape_hexifies_control_chars() {
        assert_eq!(json_escape("\u{0}"), "\\u0000");
        assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
        assert_eq!(json_escape("esc\u{1b}[0m"), "esc\\u001b[0m");
        // 0x7f DEL is not in the JSON mandatory-escape set and passes
        // through, as does everything from 0x20 up.
        assert_eq!(json_escape("\u{7f}"), "\u{7f}");
    }

    #[test]
    fn json_escape_passes_non_ascii_through_as_utf8() {
        // Hierarchical node names and deck titles are user-supplied
        // and may carry any UTF-8; the writer must not mangle them.
        assert_eq!(json_escape("x1.mid"), "x1.mid");
        assert_eq!(json_escape("xµ.gap"), "xµ.gap");
        assert_eq!(json_escape("共振器 β→γ"), "共振器 β→γ");
        assert_eq!(json_escape("emoji \u{1f300} node"), "emoji \u{1f300} node");
    }

    #[test]
    fn escaped_strings_embed_in_wellformed_json() {
        let nasty = "t\u{1}tle \"q\" \\ \n xµ.共振";
        let doc = format!("{{\"title\":\"{}\"}}", json_escape(nasty));
        assert_json_balanced(&doc);
        assert!(!doc.contains('\n'), "{doc}");
    }

    #[test]
    fn point_json_matches_batch_json_points() {
        let deck = Deck::parse(
            "p\n.param r=1k\nVs in 0 1\nR1 in out 1k\nR2 out 0 {r}\n.op\n.print op v(out)\n.step param r 1k 2k 500\n",
        )
        .unwrap();
        let result = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
        let doc = batch_json(&result);
        for p in &result.points {
            let one = point_json(p);
            assert!(doc.contains(&one), "{one} not embedded in {doc}");
            assert_json_balanced(&one);
        }
    }

    #[test]
    fn diagnostics_json_carries_span_line_col() {
        let src = "title\nR1 a b 1k\nbogus card here\n";
        let err = Deck::parse(src).unwrap_err();
        let diags = vec![Diagnostic::from_error(&err)];
        let json = diagnostics_json(src, &diags);
        assert_json_balanced(&json);
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"line\":3"), "{json}");
        assert!(json.contains("\"start\":"), "{json}");
        // Spanless errors serialize with `"span":null`.
        let io = crate::error::NetlistError::Io("gone".into());
        let json = diagnostics_json(src, &[Diagnostic::from_error(&io)]);
        assert!(json.contains("\"span\":null"), "{json}");
    }

    #[test]
    fn line_col_is_one_based_and_counts_chars() {
        let src = "ab\ncdé f\n";
        assert_eq!(super::line_col(src, 0), (1, 1));
        assert_eq!(super::line_col(src, 3), (2, 1));
        // é is 2 bytes; the column after it counts characters.
        let pos = src.find(" f").unwrap();
        assert_eq!(super::line_col(src, pos), (2, 4));
    }

    /// Cheap structural check: braces/brackets balance outside strings.
    fn assert_json_balanced(json: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON: {json}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
        assert!(!in_str, "unterminated string: {json}");
    }

    #[test]
    fn probe_normalization_wraps_bare_node_paths() {
        assert_eq!(normalize_probe("x1.mid"), "v(x1.mid)");
        assert_eq!(normalize_probe("V(X1.MID)"), "v(x1.mid)");
        assert_eq!(normalize_probe("i(kk,0)"), "i(kk,0)");
    }

    #[test]
    fn plots_render_for_every_analysis_kind() {
        let deck = Deck::parse(
            "p\n.subckt div a b\nRt a m 1k\nRb m b 1k\n.ends\n\
             Vs in 0 SIN(0 1 1k) AC 1 0\nX1 in 0 div\n\
             .op\n.dc vs 0 2 1\n.ac lin 5 10 1k\n.tran 0.1m 2m\n",
        )
        .unwrap();
        let run = run_deck(&deck).unwrap();
        let small = PlotOptions {
            rows: 8,
            cols: 40,
            ..PlotOptions::default()
        };
        // Default selection renders all four analyses.
        let all = run_plot(&deck, &run, &[], &small).unwrap();
        assert!(all.contains("== .tran =="), "{all}");
        assert!(all.contains("dc sweep over v(vs)"), "{all}");
        assert!(all.contains("magnitude"), "{all}");
        // A hierarchical bare-node probe resolves the private node.
        let hier = run_plot(&deck, &run, &["x1.m".to_string()], &small).unwrap();
        assert!(hier.contains("v(x1.m)"), "{hier}");
        // Unknown probes list what exists.
        let err = run_plot(&deck, &run, &["nope".to_string()], &small).unwrap_err();
        assert!(err.contains("probe `v(nope)`"), "{err}");
        assert!(err.contains("available"), "{err}");
    }

    #[test]
    fn ac_plot_log_axis_and_db() {
        let deck = Deck::parse(
            "lowpass\nVs in 0 0 AC 1\nR1 in out 1k\nC1 out 0 1u\n\
             .ac dec 3 10 10k\n.print ac v(out)\n",
        )
        .unwrap();
        let run = run_deck(&deck).unwrap();
        let log_db = PlotOptions {
            rows: 8,
            cols: 40,
            log_x: true,
            db: true,
        };
        let plot = run_plot(&deck, &run, &[], &log_db).unwrap();
        assert!(plot.contains("dB over log10(f)"), "{plot}");
        assert!(plot.contains("dB(v(out))"), "{plot}");
        // x axis runs in decades now: log10(10) = 1 .. log10(10k) = 4.
        assert!(plot.contains("x: 1.000e0 .. 4.000e0"), "{plot}");
        // The dB axis is negative-valued past the corner.
        let y_line = plot
            .lines()
            .find(|l| l.contains("y:"))
            .expect("y range line");
        assert!(y_line.contains("-"), "{y_line}");
        // log-x alone keeps the linear magnitude axis.
        let log_only = PlotOptions {
            rows: 8,
            cols: 40,
            log_x: true,
            db: false,
        };
        let plot = run_plot(&deck, &run, &[], &log_only).unwrap();
        assert!(plot.contains("magnitude over log10(f)"), "{plot}");
        assert!(plot.contains("|v(out)|"), "{plot}");
    }

    #[test]
    fn batch_report_includes_stats_and_failures() {
        let deck = Deck::parse(
            "f\n.param r=1k\nVs in 0 1\nR1 in out 1k\nR2 out 0 {r}\n.op\n.print op v(out)\n.step param r LIST 1k 0 3k\n",
        )
        .unwrap();
        let result = run_batch(&deck, &BatchOptions::with_threads(2)).unwrap();
        let report = batch_report(&result);
        assert!(report.contains("3 points, 2 ok"), "{report}");
        assert!(report.contains("FAIL"), "{report}");
        assert!(report.contains("aggregate statistics"), "{report}");
        let csv = batch_csv(&result);
        assert!(csv.lines().count() == 4, "{csv}");
        assert!(csv.contains(",ok"));
    }
}
