//! Figure 5 reproduction: transient comparison of the linearized
//! equivalent circuit against the behavioral HDL-A model for 5, 10
//! and 15 V excitation pulses.
//!
//! Expected shape (paper): "The displacements converge perfectly for
//! a quasi-static load of 10 V …, which was the linearization point.
//! For a lower exciting voltage (5 V), the linear model overshoots
//! …, and undershoots for a greater voltage (15 V)."

use crate::energy::ElectricalStyle;
use crate::system::{TransducerResonatorSystem, TransducerVariant};
use crate::transducers::LinearizedKind;
use mems_numerics::stats::settled_value;
use mems_spice::solver::SimOptions;
use mems_spice::{Result, Waveform};

/// Options for the Fig. 5 run.
#[derive(Debug, Clone)]
pub struct Fig5Options {
    /// Pulse levels \[V\] (paper: 5, 10, 15).
    pub levels: Vec<f64>,
    /// Simulation horizon per level \[s\].
    pub t_stop: f64,
    /// Linearization flavour (see `DESIGN.md` §6; `Secant` reproduces
    /// the figure's described over/undershoot pattern in the settled
    /// displacements).
    pub linearized: LinearizedKind,
    /// Electrical style of the behavioral model.
    pub style: ElectricalStyle,
}

impl Default for Fig5Options {
    fn default() -> Self {
        Fig5Options {
            levels: vec![5.0, 10.0, 15.0],
            t_stop: 90e-3,
            linearized: LinearizedKind::Secant,
            style: ElectricalStyle::PaperStyle,
        }
    }
}

impl Fig5Options {
    /// A faster variant for doc tests and smoke tests.
    pub fn fast() -> Self {
        Fig5Options {
            t_stop: 50e-3,
            ..Fig5Options::default()
        }
    }
}

/// One level of the comparison.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Pulse level \[V\].
    pub level: f64,
    /// Settled displacement of the behavioral (non-linear) model \[m\].
    pub x_nonlinear: f64,
    /// Settled displacement of the linearized model \[m\].
    pub x_linear: f64,
    /// Peak displacement of the behavioral model \[m\].
    pub peak_nonlinear: f64,
    /// Peak displacement of the linearized model \[m\].
    pub peak_linear: f64,
    /// Behavioral trace (time, x).
    pub trace_nonlinear: (Vec<f64>, Vec<f64>),
    /// Linearized trace (time, x).
    pub trace_linear: (Vec<f64>, Vec<f64>),
}

impl Fig5Row {
    /// Relative settled-displacement error of the linear model.
    pub fn static_rel_err(&self) -> f64 {
        (self.x_linear - self.x_nonlinear).abs() / self.x_nonlinear.abs().max(1e-300)
    }

    /// Ratio `x_linear / x_nonlinear` (> 1 = linear overshoots).
    pub fn linear_over_nonlinear(&self) -> f64 {
        self.x_linear / self.x_nonlinear
    }
}

/// The full Fig. 5 result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One row per level.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Result {
    /// Looks up the row for a level.
    pub fn row(&self, level: f64) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| (r.level - level).abs() < 1e-9)
    }

    /// Renders the comparison as a Markdown-ish table (used by the
    /// bench and EXPERIMENTS.md).
    pub fn render(&self) -> String {
        let mut out = String::from("level [V]  x_nonlinear [m]  x_linear [m]   lin/nl   verdict\n");
        for r in &self.rows {
            let ratio = r.linear_over_nonlinear();
            let verdict = if (ratio - 1.0).abs() < 0.05 {
                "match"
            } else if ratio > 1.0 {
                "linear overshoots"
            } else {
                "linear undershoots"
            };
            out.push_str(&format!(
                "{:>8.1}   {:>14.6e}  {:>13.6e}  {:>6.3}  {}\n",
                r.level, r.x_nonlinear, r.x_linear, ratio, verdict
            ));
        }
        out
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(opts: &Fig5Options) -> Result<Fig5Result> {
    let sim = SimOptions::default();
    let mut rows = Vec::with_capacity(opts.levels.len());
    for &level in &opts.levels {
        let sys = TransducerResonatorSystem::table4(TransducerResonatorSystem::fig5_pulse(level));
        let nl = sys.simulate(TransducerVariant::Behavioral(opts.style), opts.t_stop, &sim)?;
        let lin = sys.simulate(
            TransducerVariant::Linearized(opts.linearized),
            opts.t_stop,
            &sim,
        )?;
        let x_nonlinear = settled_value(&nl.x, 0.05);
        let x_linear = settled_value(&lin.x, 0.05);
        let peak = |xs: &[f64]| xs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        rows.push(Fig5Row {
            level,
            x_nonlinear,
            x_linear,
            peak_nonlinear: peak(&nl.x),
            peak_linear: peak(&lin.x),
            trace_nonlinear: (nl.time, nl.x),
            trace_linear: (lin.time, lin.x),
        });
    }
    Ok(Fig5Result { rows })
}

/// Builds the paper's single-timeline drive: three consecutive pulses
/// at 5, 10 and 15 V over 0.18 s (as the upper plot of Fig. 5 shows).
pub fn paper_timeline_drive() -> Waveform {
    // Each pulse: 10 ms rise, 30 ms top, 10 ms fall, 10 ms rest.
    let mut pts = vec![(0.0, 0.0)];
    let mut t = 5e-3;
    for level in [5.0, 10.0, 15.0] {
        pts.push((t, 0.0));
        pts.push((t + 10e-3, level));
        pts.push((t + 40e-3, level));
        pts.push((t + 50e-3, 0.0));
        t += 55e-3;
    }
    Waveform::Pwl(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let result = run(&Fig5Options::default()).unwrap();
        // 10 V: perfect convergence at the linearization point.
        let r10 = result.row(10.0).unwrap();
        assert!(
            r10.static_rel_err() < 0.02,
            "10 V mismatch: {}",
            r10.static_rel_err()
        );
        // 5 V: linear overshoots (secant model gives 2× settled).
        let r5 = result.row(5.0).unwrap();
        assert!(
            r5.linear_over_nonlinear() > 1.5,
            "5 V: lin/nl = {}",
            r5.linear_over_nonlinear()
        );
        // 15 V: linear undershoots (2/3 of nonlinear).
        let r15 = result.row(15.0).unwrap();
        assert!(
            r15.linear_over_nonlinear() < 0.75,
            "15 V: lin/nl = {}",
            r15.linear_over_nonlinear()
        );
        // Quantitative: settled ratios follow V²/V-scaling: 1/2, 1, 3/2
        // for linear vs 1/4, 1, 9/4 for nonlinear (up to gap change).
        assert!((r5.linear_over_nonlinear() - 2.0).abs() < 0.1);
        assert!((r15.linear_over_nonlinear() - 2.0 / 3.0).abs() < 0.05);
        // The table renders all three verdicts.
        let table = result.render();
        assert!(table.contains("match"));
        assert!(table.contains("overshoots"));
        assert!(table.contains("undershoots"));
    }

    #[test]
    fn paper_timeline_covers_three_pulses() {
        let w = paper_timeline_drive();
        assert_eq!(w.at(0.0), 0.0);
        assert!((w.at(30e-3) - 5.0).abs() < 1e-12);
        assert!((w.at(85e-3) - 10.0).abs() < 1e-12);
        assert!((w.at(140e-3) - 15.0).abs() < 1e-12);
        assert_eq!(w.at(0.18), 0.0);
    }
}
