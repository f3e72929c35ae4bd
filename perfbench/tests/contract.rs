//! The benchmark's own contract: seeded inputs, repeatable counts,
//! failures that cannot pass silently, well-formed names, and a
//! `BENCHMARK.json` that matches the code.

use mems_perfbench::goldens::Golden;
use mems_perfbench::inputs::{self, GridShape, Submission, SubmissionStream};
use mems_perfbench::{run, Outcome, RunArgs, Scale, Workload, END_TO_END, PER_LAYER};
use mems_serve::Json;

/// Down-scaled workloads: the same code paths in well under a second.
fn small() -> Scale {
    Scale {
        grid_cold: GridShape {
            rows: 5,
            cols: 5,
            tran: false,
        },
        grid_tran: GridShape {
            rows: 4,
            cols: 4,
            tran: true,
        },
        mc_points: 6,
    }
}

fn run_small(workload: Workload, seed: u64, trace: bool, goldens: Option<Vec<Golden>>) -> Outcome {
    let args = RunArgs {
        scale: small(),
        goldens,
        ..RunArgs::new(workload, seed, 0.05, trace)
    };
    run(&args).unwrap_or_else(|e| panic!("{} fails to run: {e}", workload.name()))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn same_seed_gives_identical_inputs() {
    for shape in [inputs::GRID_COLD, inputs::GRID_TRAN] {
        assert_eq!(inputs::grid_deck(shape, 7), inputs::grid_deck(shape, 7));
    }
    assert_eq!(inputs::hdl_mc_deck(7, 200), inputs::hdl_mc_deck(7, 200));
    let texts = |seed| -> Vec<String> {
        SubmissionStream::new(seed, 0)
            .take(48)
            .map(|s: Submission| s.text())
            .collect()
    };
    assert_eq!(texts(7), texts(7));
}

#[test]
fn different_seeds_change_the_inputs() {
    for shape in [inputs::GRID_COLD, inputs::GRID_TRAN] {
        assert_ne!(inputs::grid_deck(shape, 1), inputs::grid_deck(shape, 2));
    }
    assert_ne!(inputs::hdl_mc_deck(1, 200), inputs::hdl_mc_deck(2, 200));
    let decks = |seed| -> Vec<usize> {
        SubmissionStream::new(seed, 0)
            .take(24)
            .map(|s| s.deck)
            .collect()
    };
    assert_ne!(decks(1), decks(2));
}

#[test]
fn count_metrics_repeat_exactly_for_a_seed() {
    const COUNTS: [&str; 3] = [
        "spice.analysis.tran_points",
        "netlist.elab.circuits_built",
        "netlist.elab.circuits_patched",
    ];
    for workload in [Workload::GridCold, Workload::GridTran, Workload::HdlMc] {
        let a = run_small(workload, 3, true, None);
        let b = run_small(workload, 3, true, None);
        assert_eq!(a.failed, 0, "{}: {:?}", workload.name(), a.failures);
        for name in COUNTS {
            assert_eq!(a.get(name), b.get(name), "{} {name}", workload.name());
        }
        let (a, b) = (
            run_small(workload, 3, false, None),
            run_small(workload, 3, false, None),
        );
        let lu = a.get("lu_factorizations").expect("reported");
        assert!(lu > 0.0, "{}", workload.name());
        assert_eq!(Some(lu), b.get("lu_factorizations"), "{}", workload.name());
    }
}

#[test]
fn a_wrong_golden_counts_as_a_failure() {
    let right = run_small(Workload::GridCold, 1, false, None);
    assert_eq!(right.failed, 0, "{:?}", right.failures);
    let (probe, value) = right
        .probes
        .iter()
        .find(|(n, _)| n.starts_with("op:v("))
        .cloned()
        .expect("the grid deck prints its corner");
    let golden = |value: f64| {
        Some(vec![Golden {
            workload: "grid_cold".into(),
            probe: probe.clone(),
            value,
        }])
    };
    assert_eq!(
        run_small(Workload::GridCold, 1, false, golden(value)).failed,
        0
    );
    let wrong = run_small(Workload::GridCold, 1, false, golden(value * (1.0 + 1e-6)));
    assert!(wrong.attempted > 0);
    assert_eq!(
        wrong.failed, wrong.attempted,
        "every iteration shares the wrong answer"
    );

    let missing = Some(vec![Golden {
        workload: "hdl_mc".into(),
        probe: "p0:no-such-probe".into(),
        value: 1.0,
    }]);
    let out = run_small(Workload::HdlMc, 1, false, missing);
    assert!(out.failed > 0, "a golden naming a missing probe fails");
}

#[test]
fn served_jobs_match_the_cli_and_pass_their_checks() {
    let out = run_small(Workload::ServeMix, 5, false, None);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    let metrics = out.metrics(false).expect("every end-to-end metric");
    assert!(metrics.iter().all(|(_, v)| v.is_finite()));
}

#[test]
fn every_name_is_well_formed() {
    for w in Workload::ALL {
        assert!(is_name(w.name()), "{}", w.name());
        assert!(!w.why().contains('\n') && w.why().len() <= 200);
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(name), "metric `{name}`");
        assert!(seen.insert(*name), "metric `{name}` declared twice");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit `{unit}`"
        );
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("valid JSON");
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("`{key}` is a list"),
    };
    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("why"))
        })
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = list(key);
        assert_eq!(declared.len(), specs.len(), "{key}");
        for (entry, (name, unit, better)) in declared.iter().zip(specs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
            let b = if *better == mems_perfbench::Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(b),
                "{name}"
            );
            if key == "end_to_end" {
                let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            }
        }
    }
}
