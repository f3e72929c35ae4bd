//! End-to-end golden answers for the shipped decks.
//!
//! `tests/golden/<deck>.csv` holds, for every batch point of each
//! deck in `examples/decks` (the nominal run as point 0 for a deck
//! without `.STEP`/`.MC`), its status and every metric
//! `extract_metrics` reports, with values in shortest round-trip
//! form. The test re-runs each deck and compares: a status must
//! match exactly, and a value within 1e-9 relative, the tolerance of
//! the benchmark's snapshot goldens.
//!
//! `cargo test --test golden_answers -- --ignored` rewrites the files
//! from the current tree; do that only for a change meant to move the
//! answers, and say so where the change is recorded.

use mems::netlist::{
    batch_points, extract_metrics, run_batch, run_deck, BatchOptions, Deck, FsResolver,
};

/// Relative tolerance of a golden value.
const RTOL: f64 = 1e-9;

fn decks_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/decks")
}

fn golden_path(deck: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(deck.replace(".cir", ".csv"))
}

/// The shipped decks' file names, sorted.
fn shipped_decks() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(decks_dir())
        .expect("examples/decks exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".cir"))
        .collect();
    names.sort();
    names
}

/// One golden row: a metric of an ok point, or a failed point's
/// status with no metric.
#[derive(Debug, PartialEq)]
struct Row {
    point: usize,
    status: String,
    metric: String,
    value: Option<f64>,
}

/// Runs `name` and returns its rows: each point's metrics in order,
/// or one row carrying its failure.
fn answers(name: &str) -> Vec<Row> {
    let src = std::fs::read_to_string(decks_dir().join(name)).expect("deck reads");
    let mut resolver = FsResolver { base: decks_dir() };
    let deck = Deck::parse_with_includes(&src, &mut resolver)
        .unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)));
    let outcomes = if batch_points(&deck).is_ok() {
        run_batch(&deck, &BatchOptions::with_threads(1))
            .unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)))
            .points
            .into_iter()
            .map(|p| (p.point.index, p.outcome))
            .collect()
    } else {
        let outcome = run_deck(&deck)
            .map(|run| extract_metrics(&deck, &run))
            .map_err(|e| e.to_string());
        vec![(0, outcome)]
    };
    let mut rows = Vec::new();
    for (point, outcome) in outcomes {
        match outcome {
            Ok(metrics) => rows.extend(metrics.into_iter().map(|m| Row {
                point,
                status: "ok".into(),
                metric: m.name,
                value: Some(m.value),
            })),
            Err(status) => rows.push(Row {
                point,
                status,
                metric: String::new(),
                value: None,
            }),
        }
    }
    rows
}

/// Quotes a CSV field (RFC 4180): metric names hold commas.
fn quoted(field: &str) -> String {
    format!("\"{}\"", field.replace('"', "\"\""))
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from("point,status,metric,value\n");
    for r in rows {
        let value = r.value.map_or_else(String::new, |v| format!("{v:e}"));
        out.push_str(&format!(
            "{},{},{},{value}\n",
            r.point,
            quoted(&r.status),
            quoted(&r.metric)
        ));
    }
    out
}

/// Splits one CSV line into fields, undoing [`quoted`].
fn fields(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                out.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(String::new()),
            c => out.last_mut().unwrap().push(c),
        }
    }
    out
}

fn parse(csv: &str) -> Vec<Row> {
    csv.lines()
        .skip(1)
        .map(|line| {
            let f = fields(line);
            assert_eq!(f.len(), 4, "malformed golden row {line}");
            Row {
                point: f[0].parse().expect("point index"),
                status: f[1].clone(),
                metric: f[2].clone(),
                value: (!f[3].is_empty()).then(|| f[3].parse().expect("value")),
            }
        })
        .collect()
}

#[test]
fn shipped_decks_reproduce_their_golden_answers() {
    let decks = shipped_decks();
    assert_eq!(decks.len(), 7, "{decks:?}");
    for name in &decks {
        let path = golden_path(name);
        let golden = parse(
            &std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display())),
        );
        let got = answers(name);
        assert_eq!(got.len(), golden.len(), "{name}: row count");
        for (g, w) in got.iter().zip(&golden) {
            let at = format!("{name} point {} {}", w.point, w.metric);
            assert_eq!(
                (g.point, &g.status, &g.metric),
                (w.point, &w.status, &w.metric),
                "{at}"
            );
            match (g.value, w.value) {
                (Some(got), Some(want)) => assert!(
                    (got - want).abs() <= RTOL * want.abs(),
                    "{at}: got {got:e}, want {want:e}"
                ),
                (got, want) => assert_eq!(got, want, "{at}"),
            }
        }
    }
}

#[test]
fn golden_rows_round_trip() {
    let rows = vec![
        Row {
            point: 3,
            status: "ok".into(),
            metric: "tran:i(kk,0):settled".into(),
            value: Some(-1.655947473e-9),
        },
        Row {
            point: 4,
            status: "singular matrix: \"v(a)\", v(b)".into(),
            metric: String::new(),
            value: None,
        },
    ];
    assert_eq!(parse(&render(&rows)), rows);
}

/// Rewrites every golden file from the current tree.
#[test]
#[ignore = "rewrites tests/golden; run by hand only for a change meant to move the answers"]
fn regenerate_golden_answers() {
    let dir = golden_path("x.cir").parent().unwrap().to_path_buf();
    std::fs::create_dir_all(&dir).unwrap();
    for name in shipped_decks() {
        std::fs::write(golden_path(&name), render(&answers(&name))).unwrap();
    }
}
