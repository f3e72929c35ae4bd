//! The traced run's span recorder and its per-layer report.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (the program itself is not instrumented),
//! kept in memory, and aggregated when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover;
//! the traced iteration's own self time is the unattributed remainder,
//! so the self times plus the remainder add up to the iteration's wall
//! time by construction. Costs the benchmark cannot bracket from
//! outside (assembly, refactor and solve inside Newton) are reported as
//! per-call cost × count and marked as estimates; they do not enter the
//! accounting.

use crate::util::J;
use std::time::Instant;

/// The root span of one traced iteration.
pub const ITERATION: &str = "iteration";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`netlist.parser`, `spice.analysis.op`, …).
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Duration, seconds.
    pub dur_s: f64,
    /// Counters recorded at this boundary (factor counts, points, …).
    pub counts: Vec<(&'static str, f64)>,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|(p, _)| *p),
            dur_s: 0.0,
            counts: Vec::new(),
        });
        self.open.push((id, Instant::now()));
        id
    }

    /// Closes the innermost open span (which must be `id`).
    pub fn end(&mut self, id: usize) {
        let (top, t0) = self.open.pop().expect("a span is open");
        debug_assert_eq!(top, id, "spans close innermost first");
        self.spans[top].dur_s = t0.elapsed().as_secs_f64();
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-closed span of `dur_s` seconds nested in the
    /// innermost open one (for intervals bounded by events, such as the
    /// arrival of a stream's first record).
    pub fn record(&mut self, name: &'static str, dur_s: f64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|(p, _)| *p),
            dur_s,
            counts: Vec::new(),
        });
    }

    /// Attaches a counter to span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans in (e.g. a worker thread's),
    /// re-rooting them under `parent`.
    pub fn absorb(&mut self, other: Recorder, parent: Option<usize>) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// Sum of a counter over every span of `name`.
    pub fn counter(&self, name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Total duration of every span of `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Number of spans of `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations of every span of `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }
}

/// Whether a report row was bracketed by the recorder or derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Timed around a public call on the iteration's critical path.
    Measured,
    /// Timed on a worker thread that runs beside the main one; summed
    /// over workers, so it is not part of the wall-time accounting.
    Worker,
    /// Per-call cost × count.
    Estimate,
}

/// One layer row of the traced report, averaged per traced iteration.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer name.
    pub name: String,
    /// Calls per iteration.
    pub calls: f64,
    /// Total seconds per iteration.
    pub total_s: f64,
    /// Self seconds per iteration (total minus measured children).
    pub self_s: f64,
    /// Row provenance.
    pub kind: RowKind,
    /// Nesting depth, for the table's indentation.
    pub depth: usize,
}

/// The traced run's per-layer report for one workload.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced iterations averaged over.
    pub iterations: usize,
    /// Mean traced iteration wall time, seconds.
    pub wall_s: f64,
    /// Median untraced iteration time of the same run, seconds.
    pub untraced_s: f64,
    /// Layer rows in first-seen order.
    pub rows: Vec<LayerRow>,
    /// Labels (factor path, ordering source, …).
    pub labels: Vec<(String, String)>,
    /// Free-form findings printed under the table.
    pub notes: Vec<String>,
}

impl TraceReport {
    /// Aggregates `rec`'s spans: one row per distinct span name under
    /// the [`ITERATION`] roots (rows of spans outside any iteration —
    /// worker threads re-rooted under a pool span — are kept as
    /// [`RowKind::Worker`] rows when `worker_root` names their root).
    pub fn from_spans(
        workload: &str,
        seed: u64,
        rec: &Recorder,
        untraced_s: f64,
        worker_root: Option<&str>,
    ) -> TraceReport {
        let spans = rec.spans();
        let iterations = spans.iter().filter(|s| s.name == ITERATION).count();
        let per = iterations.max(1) as f64;
        // Worker spans run beside their root, so they do not reduce
        // its self time.
        let mut child_s = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| Some(spans[p].name) != worker_root) {
                child_s[p] += s.dur_s;
            }
        }
        let depth = |mut i: usize| {
            let mut d = 0usize;
            while let Some(p) = spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let worker = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                if Some(spans[p].name) == worker_root {
                    return true;
                }
                i = p;
            }
            false
        };
        let mut rows: Vec<LayerRow> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.name == ITERATION {
                continue;
            }
            let kind = if worker(i) {
                RowKind::Worker
            } else {
                RowKind::Measured
            };
            let row = match rows.iter_mut().find(|r| r.name == s.name && r.kind == kind) {
                Some(r) => r,
                None => {
                    rows.push(LayerRow {
                        name: s.name.to_string(),
                        calls: 0.0,
                        total_s: 0.0,
                        self_s: 0.0,
                        kind,
                        depth: depth(i).saturating_sub(1),
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += 1.0 / per;
            row.total_s += s.dur_s / per;
            row.self_s += (s.dur_s - child_s[i]) / per;
        }
        let wall_s = rec.total_s(ITERATION) / per;
        TraceReport {
            workload: workload.to_string(),
            seed,
            iterations,
            wall_s,
            untraced_s,
            rows,
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds an estimate row nested under the row named `parent`.
    pub fn estimate(&mut self, parent: &str, name: &str, calls: f64, total_s: f64) {
        let (at, depth) = match self.rows.iter().rposition(|r| r.name == parent) {
            Some(i) => (i + 1, self.rows[i].depth + 1),
            None => (self.rows.len(), 0),
        };
        // Keep estimates in insertion order below their parent.
        let mut at = at;
        while at < self.rows.len() && self.rows[at].depth >= depth {
            at += 1;
        }
        self.rows.insert(
            at,
            LayerRow {
                name: name.to_string(),
                calls,
                total_s,
                self_s: total_s,
                kind: RowKind::Estimate,
                depth,
            },
        );
    }

    /// Wall time no measured span covers, per iteration.
    pub fn remainder_s(&self) -> f64 {
        let covered: f64 = self
            .rows
            .iter()
            .filter(|r| r.kind == RowKind::Measured)
            .map(|r| r.self_s)
            .sum();
        self.wall_s - covered
    }

    /// Tracing overhead: traced minus untraced iteration time.
    pub fn overhead_s(&self) -> f64 {
        self.wall_s - self.untraced_s
    }

    /// Total seconds per iteration of the measured row `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.name == name && r.kind != RowKind::Estimate)
            .map(|r| r.total_s)
            .sum()
    }

    /// Human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "traced per-layer report: {} (seed {}), {} traced iteration(s)\n",
            self.workload, self.seed, self.iterations
        );
        out.push_str(&format!(
            "{:<40} {:>10} {:>12} {:>12}  {}\n",
            "layer", "calls/it", "total s/it", "self s/it", "kind"
        ));
        for r in &self.rows {
            let name = format!("{}{}", "  ".repeat(r.depth), r.name);
            let kind = match r.kind {
                RowKind::Measured => "measured",
                RowKind::Worker => "worker (summed over threads)",
                RowKind::Estimate => "estimate (per-call cost x count)",
            };
            out.push_str(&format!(
                "{name:<40} {:>10.2} {:>12.6} {:>12.6}  {kind}\n",
                r.calls, r.total_s, r.self_s
            ));
        }
        out.push_str(&format!(
            "{:<40} {:>10} {:>12} {:>12.6}  wall - measured self times\n",
            "(unattributed remainder)",
            "",
            "",
            self.remainder_s()
        ));
        out.push_str(&format!(
            "traced iteration wall {:.6} s; untraced iter_p50 {:.6} s; tracing overhead {:+.6} s\n",
            self.wall_s,
            self.untraced_s,
            self.overhead_s()
        ));
        for (k, v) in &self.labels {
            out.push_str(&format!("  {k} = {v}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> J {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                J::Obj(vec![
                    ("layer".into(), J::s(r.name.clone())),
                    ("depth".into(), J::Int(r.depth as u64)),
                    ("calls_per_iter".into(), J::Num(r.calls)),
                    ("total_s_per_iter".into(), J::Num(r.total_s)),
                    ("self_s_per_iter".into(), J::Num(r.self_s)),
                    (
                        "kind".into(),
                        J::s(match r.kind {
                            RowKind::Measured => "measured",
                            RowKind::Worker => "worker",
                            RowKind::Estimate => "estimate",
                        }),
                    ),
                ])
            })
            .collect();
        J::Obj(vec![
            ("workload".into(), J::s(self.workload.clone())),
            ("seed".into(), J::Int(self.seed)),
            ("iterations".into(), J::Int(self.iterations as u64)),
            ("wall_s".into(), J::Num(self.wall_s)),
            ("untraced_iter_p50_s".into(), J::Num(self.untraced_s)),
            ("remainder_s".into(), J::Num(self.remainder_s())),
            ("overhead_s".into(), J::Num(self.overhead_s())),
            ("layers".into(), J::Arr(rows)),
            (
                "labels".into(),
                J::Obj(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), J::s(v.clone())))
                        .collect(),
                ),
            ),
            (
                "notes".into(),
                J::Arr(self.notes.iter().map(|n| J::s(n.clone())).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_remainder_account_for_the_wall() {
        let mut rec = Recorder::new();
        for _ in 0..2 {
            let it = rec.begin(ITERATION);
            let a = rec.begin("a");
            rec.time("b", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
            rec.end(a);
            std::thread::sleep(std::time::Duration::from_millis(1));
            rec.end(it);
        }
        let mut report = TraceReport::from_spans("t", 1, &rec, 0.0, None);
        report.estimate("a", "a.est", 3.0, 0.001);
        let self_sum: f64 = report
            .rows
            .iter()
            .filter(|r| r.kind == RowKind::Measured)
            .map(|r| r.self_s)
            .sum();
        assert!((self_sum + report.remainder_s() - report.wall_s).abs() < 1e-12);
        assert!(report.remainder_s() > 0.0);
        let b = report.rows.iter().find(|r| r.name == "b").unwrap();
        assert_eq!(b.depth, 1);
        assert_eq!(b.calls, 1.0);
        assert_eq!(report.rows[2].name, "a.est");
    }
}
