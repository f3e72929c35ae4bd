//! The four workloads and what they share.

pub mod grid;
pub mod hdl_mc;
pub mod serve_mix;

use crate::goldens::Probes;
use crate::pipeline::lu_factorizations;
use crate::trace::{Recorder, TraceReport};
use crate::util::J;
use mems_netlist::{extract_metrics, AnalysisOutcome, DeckRun, SolverStats};

/// The probed outputs of one deck run: every metric `mems sweep`
/// extracts, plus the run's exact counts.
pub fn probes_of(deck: &mems_netlist::Deck, run: &DeckRun) -> Probes {
    let mut probes: Probes = extract_metrics(deck, run)
        .into_iter()
        .map(|m| (m.name, m.value))
        .collect();
    probes.push(("lu_factorizations".into(), lu_factorizations(run) as f64));
    probes.push(("points".into(), result_points(run) as f64));
    probes
}

/// Result points a run produced: operating points, `.DC` values, AC
/// frequencies and accepted transient time points.
pub fn result_points(run: &DeckRun) -> usize {
    run.outcomes
        .iter()
        .map(|(_, o)| match o {
            AnalysisOutcome::Op(_) => 1,
            AnalysisOutcome::Dc { result, .. } => result.values.len(),
            AnalysisOutcome::Ac(ac) => ac.freqs.len(),
            AnalysisOutcome::Tran(tr) => tr.time.len(),
        })
        .sum()
}

/// The per-system metadata block: size, pattern and solver path.
pub fn systems_meta(solver: &[(String, SolverStats)]) -> J {
    J::Arr(
        solver
            .iter()
            .map(|(name, st)| {
                J::Obj(vec![
                    ("system".into(), J::s(name.clone())),
                    ("backend".into(), J::s(st.backend)),
                    ("n".into(), J::Int(st.n as u64)),
                    ("pattern_nnz".into(), J::Int(st.pattern_nnz as u64)),
                    ("factor_path".into(), J::s(st.factor_path)),
                    ("ordering".into(), J::s(st.ordering)),
                    ("order_source".into(), J::s(st.order_source)),
                    ("fallbacks".into(), J::Int(st.fallbacks)),
                    ("supernodes".into(), J::Int(st.supernodes as u64)),
                    ("factor_threads".into(), J::Int(st.threads as u64)),
                    ("factors".into(), J::Int(st.factors)),
                    ("refactors".into(), J::Int(st.refactors)),
                ])
            })
            .collect(),
    )
}

/// Sum over the spans named `name` of `counter_a × counter_b`.
pub fn counter_product(rec: &Recorder, name: &str, a: &str, b: &str) -> f64 {
    rec.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let get = |k: &str| {
                s.counts
                    .iter()
                    .find(|(n, _)| *n == k)
                    .map_or(0.0, |(_, v)| *v)
            };
            get(a) * get(b)
        })
        .sum()
}

/// Adds the per-call-cost × count estimate rows under each analysis
/// span: assembly, real factor/refactor/solve (from the probe's per-call
/// costs and `SolverStats`' last fresh-factor time) and the AC system's
/// factor/refactor (from its `SolverStats` timings).
pub fn analysis_estimates(
    report: &mut TraceReport,
    rec: &Recorder,
    probe: Option<&crate::pipeline::SolverProbe>,
) {
    use crate::pipeline::names;
    let per = report.iterations.max(1) as f64;
    for name in [names::OP, names::AC, names::TRAN] {
        if rec.calls(name) == 0 {
            continue;
        }
        let factors = rec.counter(name, "real_factors") / per;
        let refactors = rec.counter(name, "real_refactors") / per;
        let ac_factors = rec.counter(name, "ac_factors") / per;
        let ac_refactors = rec.counter(name, "ac_refactors") / per;
        if let Some(p) = probe {
            let lu = factors + refactors;
            if lu > 0.0 {
                report.estimate(name, "spice.solver.assemble", lu, lu * p.assemble_us * 1e-6);
                report.estimate(name, "numerics.solve", lu, lu * p.solve_us * 1e-6);
                report.estimate(
                    name,
                    "numerics.refactor",
                    refactors,
                    refactors * p.refactor_us * 1e-6,
                );
            }
        }
        if factors > 0.0 {
            // A dense factor has no symbolic phase and takes under the
            // microsecond `SolverStats` resolves, so it costs what the
            // probe's warm factor costs.
            let total = match probe {
                Some(p) if p.cold.backend == "dense" => factors * p.refactor_us * 1e-6,
                _ => counter_product(rec, name, "real_factors", "real_last_factor_us") * 1e-6 / per,
            };
            report.estimate(name, "numerics.factor_fresh", factors, total);
        }
        if ac_factors > 0.0 {
            let total = counter_product(rec, name, "ac_factors", "ac_last_factor_us") * 1e-6 / per;
            report.estimate(name, "numerics.ac_factor_fresh", ac_factors, total);
        }
        if ac_refactors > 0.0 {
            let total =
                counter_product(rec, name, "ac_refactors", "ac_last_refactor_us") * 1e-6 / per;
            report.estimate(name, "numerics.ac_refactor", ac_refactors, total);
        }
    }
}
