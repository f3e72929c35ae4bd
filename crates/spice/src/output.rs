//! Analysis results: operating points, transient waveforms, AC sweeps;
//! terminal ASCII plotting.

use crate::circuit::{NodeId, UnknownLayout};
use mems_numerics::quad::cumtrapz;
use mems_numerics::Complex64;
use std::fmt::Write as _;

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct OpSolution {
    /// Unknown values.
    pub x: Vec<f64>,
    /// Unknown layout (labels, node mapping).
    pub layout: UnknownLayout,
    /// Newton iterations used.
    pub iterations: usize,
}

impl OpSolution {
    /// Across value of a node.
    pub fn v(&self, n: NodeId) -> f64 {
        self.layout.node_value(&self.x, n)
    }

    /// Value of an unknown by label (e.g. `v(out)` or `i(v1,0)`).
    pub fn by_label(&self, label: &str) -> Option<f64> {
        self.layout
            .labels
            .iter()
            .position(|l| l == label)
            .map(|i| self.x[i])
    }
}

/// The unknowns a `.TRAN`, `.AC` or `.DC` run stores at each point, as
/// [`TranOptions::record`](crate::analysis::transient::TranOptions::record),
/// [`ac::run_recorded_in`](crate::analysis::ac::run_recorded_in) and
/// [`sweep::dc_sweep_in`](crate::analysis::sweep::dc_sweep_in) take it.
/// A run's result memory is points × recorded columns, so recording
/// only what a caller reads bounds it by that, not by the circuit size.
#[derive(Debug, Clone)]
pub enum Record {
    /// Every unknown, in layout order.
    All,
    /// These unknown indices, in this order (repeats allowed).
    Unknowns(Vec<usize>),
}

impl Record {
    /// Checks every index against a layout of `n` unknowns.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadOptions`](crate::SpiceError::BadOptions) naming
    /// the first index at or past `n`.
    pub(crate) fn check(&self, n: usize) -> crate::Result<()> {
        match self {
            Record::Unknowns(ks) => match ks.iter().find(|&&k| k >= n) {
                Some(k) => Err(crate::SpiceError::BadOptions(format!(
                    "recorded unknown {k} is out of range for {n} unknowns"
                ))),
                None => Ok(()),
            },
            Record::All => Ok(()),
        }
    }

    /// The recorded columns' labels, out of every unknown's.
    pub(crate) fn labels(&self, all: &[String]) -> Vec<String> {
        match self {
            Record::All => all.to_vec(),
            Record::Unknowns(ks) => ks.iter().map(|&k| all[k].clone()).collect(),
        }
    }

    /// The recorded columns of one solution vector.
    pub(crate) fn row<T: Copy>(&self, x: &[T]) -> Vec<T> {
        match self {
            Record::All => x.to_vec(),
            Record::Unknowns(ks) => ks.iter().map(|&k| x[k]).collect(),
        }
    }
}

/// A transient simulation result: one row per accepted time point.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Accepted time points.
    pub time: Vec<f64>,
    /// Labels of the recorded columns ([`TranOptions::record`]): every
    /// unknown by default, the deck's `.PRINT` selection when a deck
    /// runs it.
    ///
    /// [`TranOptions::record`]: crate::analysis::transient::TranOptions::record
    pub labels: Vec<String>,
    /// Sample rows (`samples[i][k]` = column `k` at `time[i]`), one
    /// entry per label.
    pub samples: Vec<Vec<f64>>,
    /// Total Newton iterations across all steps.
    pub total_newton_iterations: usize,
    /// Number of rejected steps.
    pub rejected_steps: usize,
}

impl TranResult {
    /// Extracts one column as a trace.
    pub fn trace(&self, label: &str) -> Option<Vec<f64>> {
        let c = self.labels.iter().position(|l| l == label)?;
        Some(self.samples.iter().map(|row| row[c]).collect())
    }

    /// Node trace by node name (label `v(name)`).
    pub fn node_trace(&self, node_name: &str) -> Option<Vec<f64>> {
        self.trace(&format!("v({node_name})"))
    }

    /// Integrates a trace over time (trapezoid), e.g. velocity →
    /// displacement, as the paper plots ("displacements (integrals of
    /// velocities)").
    pub fn integrated_trace(&self, label: &str, y0: f64) -> Option<Vec<f64>> {
        let y = self.trace(label)?;
        Some(cumtrapz(&self.time, &y, y0))
    }

    /// Resamples a trace onto a uniform grid (linear interpolation) —
    /// useful when comparing adaptive-step runs.
    pub fn resample(&self, label: &str, n: usize) -> Option<(Vec<f64>, Vec<f64>)> {
        let y = self.trace(label)?;
        if self.time.len() < 2 || n < 2 {
            return None;
        }
        let t0 = *self.time.first().expect("nonempty");
        let t1 = *self.time.last().expect("nonempty");
        let mut ts = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut idx = 0usize;
        for i in 0..n {
            let t = t0 + (t1 - t0) * (i as f64) / ((n - 1) as f64);
            while idx + 2 < self.time.len() && self.time[idx + 1] < t {
                idx += 1;
            }
            let (ta, tb) = (self.time[idx], self.time[idx + 1]);
            let (ya, yb) = (y[idx], y[idx + 1]);
            let frac = if tb > ta { (t - ta) / (tb - ta) } else { 0.0 };
            ts.push(t);
            ys.push(ya + (yb - ya) * frac.clamp(0.0, 1.0));
        }
        Some((ts, ys))
    }
}

/// An AC sweep result.
#[derive(Debug, Clone)]
pub struct AcResult {
    /// Sweep frequencies, in Hz.
    pub freqs: Vec<f64>,
    /// Labels of the recorded columns (the [`Record`] passed to
    /// [`ac::run_recorded_in`]): every unknown by default, the deck's
    /// `.PRINT` selection when a deck runs it.
    ///
    /// [`ac::run_recorded_in`]: crate::analysis::ac::run_recorded_in
    pub labels: Vec<String>,
    /// `data[i][k]` = phasor of column `k` at `freqs[i]`, one entry
    /// per label.
    pub data: Vec<Vec<Complex64>>,
}

impl AcResult {
    /// Column index of a label.
    pub fn column(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Magnitude trace of one unknown.
    pub fn magnitude(&self, label: &str) -> Option<Vec<f64>> {
        let c = self.column(label)?;
        Some(self.data.iter().map(|row| row[c].abs()).collect())
    }

    /// Phase trace \[degrees\].
    pub fn phase_deg(&self, label: &str) -> Option<Vec<f64>> {
        let c = self.column(label)?;
        Some(
            self.data
                .iter()
                .map(|row| row[c].arg().to_degrees())
                .collect(),
        )
    }

    /// Complex trace of one unknown.
    pub fn phasors(&self, label: &str) -> Option<Vec<Complex64>> {
        let c = self.column(label)?;
        Some(self.data.iter().map(|row| row[c]).collect())
    }
}

/// Renders traces as a terminal ASCII plot (rows × cols characters).
///
/// Each series gets a glyph; series are drawn in order, later ones
/// overwrite. Returns a multi-line string.
pub fn ascii_plot(
    title: &str,
    xs: &[f64],
    series: &[(&str, &[f64])],
    rows: usize,
    cols: usize,
) -> String {
    let glyphs = ['*', '+', 'o', 'x', '#', '@'];
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, ys) in series {
        for &y in *ys {
            lo = lo.min(y);
            hi = hi.max(y);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return format!("{title}: <no data>\n");
    }
    if hi - lo < 1e-300 {
        hi = lo + 1.0;
    }
    let (x0, x1) = (
        xs.first().copied().unwrap_or(0.0),
        xs.last().copied().unwrap_or(1.0),
    );
    let mut grid = vec![vec![' '; cols]; rows];
    for (si, (_, ys)) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for (x, y) in xs.iter().zip(*ys) {
            let cx = if x1 > x0 {
                ((x - x0) / (x1 - x0) * (cols as f64 - 1.0)).round() as usize
            } else {
                0
            };
            let cy = ((hi - y) / (hi - lo) * (rows as f64 - 1.0)).round() as usize;
            grid[cy.min(rows - 1)][cx.min(cols - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", glyphs[i % glyphs.len()]))
        .collect();
    let _ = writeln!(out, "[{}]  y: {lo:.3e} .. {hi:.3e}", legend.join("  "));
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "|{line}|");
    }
    let _ = writeln!(out, "x: {x0:.3e} .. {x1:.3e}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::passive::Resistor;

    fn layout_for_test() -> UnknownLayout {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1.0)).unwrap();
        c.layout()
    }

    #[test]
    fn op_lookup() {
        let layout = layout_for_test();
        let op = OpSolution {
            x: vec![5.0],
            layout,
            iterations: 2,
        };
        assert_eq!(op.by_label("v(a)"), Some(5.0));
        assert_eq!(op.by_label("zz"), None);
    }

    #[test]
    fn tran_traces_and_integration() {
        let r = TranResult {
            time: vec![0.0, 1.0, 2.0],
            labels: vec!["v(a)".into()],
            samples: vec![vec![0.0], vec![1.0], vec![2.0]],
            total_newton_iterations: 3,
            rejected_steps: 0,
        };
        assert_eq!(r.trace("v(a)").unwrap(), vec![0.0, 1.0, 2.0]);
        assert_eq!(r.node_trace("a").unwrap(), vec![0.0, 1.0, 2.0]);
        // ∫ t dt = t²/2 → [0, 0.5, 2.0]
        assert_eq!(
            r.integrated_trace("v(a)", 0.0).unwrap(),
            vec![0.0, 0.5, 2.0]
        );
        assert!(r.trace("nope").is_none());
    }

    #[test]
    fn resample_linear() {
        let r = TranResult {
            time: vec![0.0, 1.0, 3.0],
            labels: vec!["v(a)".into()],
            samples: vec![vec![0.0], vec![2.0], vec![6.0]],
            total_newton_iterations: 0,
            rejected_steps: 0,
        };
        let (ts, ys) = r.resample("v(a)", 4).unwrap();
        assert_eq!(ts, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ys, vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn ac_mag_phase() {
        let layoutless = AcResult {
            freqs: vec![1.0],
            labels: vec!["v(a)".into()],
            data: vec![vec![Complex64::new(0.0, 2.0)]],
        };
        assert_eq!(layoutless.magnitude("v(a)").unwrap(), vec![2.0]);
        assert!((layoutless.phase_deg("v(a)").unwrap()[0] - 90.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_plot_renders() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x / 8.0).sin()).collect();
        let plot = ascii_plot("test", &xs, &[("sin", &ys)], 10, 60);
        assert!(plot.contains("test"));
        assert!(plot.contains('*'));
        assert!(plot.lines().count() >= 12);
    }
}
