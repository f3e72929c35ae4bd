//! Transient analysis: implicit integration with Newton at each step,
//! adaptive step control by local-truncation-error estimation, and
//! waveform-breakpoint snapping.

use super::MAX_POINTS;
use crate::circuit::Circuit;
use crate::device::{CommitKind, LoadKind};
use crate::error::{Result, SpiceError};
use crate::output::{OpSolution, Record, TranResult};
use crate::solver::{newton_in, SimOptions, Workspace};
use mems_numerics::ode::IntegrationMethod;

/// Options for a transient run.
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Stop time \[s\].
    pub t_stop: f64,
    /// Initial step (default `t_stop / 1000`).
    pub h_init: Option<f64>,
    /// Maximum step (default `t_stop / 50`).
    pub h_max: Option<f64>,
    /// Minimum step before giving up (default `t_stop × 1e-12`).
    pub h_min: Option<f64>,
    /// Integration method (default trapezoidal, as in SPICE).
    pub method: IntegrationMethod,
    /// Enable LTE-based step adaptation (default true). When false the
    /// engine marches at `h_init` (still snapping to breakpoints).
    pub adaptive: bool,
    /// LTE target relative to the convergence tolerances (default 50:
    /// the step error may be 50× looser than Newton's tolerance).
    pub lte_factor: f64,
    /// The unknowns stored at each accepted step (default every one).
    /// The step controller still sees the whole state; only
    /// [`TranResult::samples`] narrows, so a run keeps steps × recorded
    /// columns of values.
    pub record: Record,
}

impl TranOptions {
    /// Sensible defaults for a run to `t_stop`.
    pub fn new(t_stop: f64) -> Self {
        TranOptions {
            t_stop,
            h_init: None,
            h_max: None,
            h_min: None,
            method: IntegrationMethod::Trapezoidal,
            adaptive: true,
            lte_factor: 50.0,
            record: Record::All,
        }
    }

    /// Fixed-step variant (useful for benchmarks and convergence
    /// studies).
    pub fn fixed_step(t_stop: f64, h: f64) -> Self {
        TranOptions {
            t_stop,
            h_init: Some(h),
            h_max: Some(h),
            h_min: Some(h * 1e-6),
            method: IntegrationMethod::Trapezoidal,
            adaptive: false,
            lte_factor: 50.0,
            record: Record::All,
        }
    }
}

/// Runs a transient analysis: DC operating point at `t = 0`, then
/// steps to `t_stop`.
///
/// # Errors
///
/// - propagates DC convergence failures;
/// - [`SpiceError::StepUnderflow`] when step halving bottoms out;
/// - [`SpiceError::BadOptions`] for a non-positive horizon, a recorded
///   unknown past the circuit's last, or more than
///   [`MAX_POINTS`] waveform breakpoints before `t_stop`.
pub fn run(circuit: &mut Circuit, opts: &TranOptions, sim: &SimOptions) -> Result<TranResult> {
    run_from(circuit, opts, sim, None)
}

/// [`run`] with a Newton guess for the initial DC operating point
/// (e.g. the previous `.STEP` batch point's operating point — same
/// topology, nearby parameter values). A wrong-length guess is
/// ignored; a bad guess only costs the usual homotopy fallbacks.
///
/// # Errors
///
/// As [`run`].
pub fn run_from(
    circuit: &mut Circuit,
    opts: &TranOptions,
    sim: &SimOptions,
    op_guess: Option<&[f64]>,
) -> Result<TranResult> {
    let mut ws = Workspace::new(0);
    run_in(circuit, opts, sim, op_guess, &mut ws)
}

/// [`run_from`] over a caller-owned [`Workspace`] (see
/// [`dcop::solve_in`](super::dcop::solve_in) for the reuse contract).
/// The DC operating point and every transient step share the
/// workspace, so the sparse backend analyzes the Jacobian structure
/// once for the whole run.
///
/// # Errors
///
/// As [`run`].
pub fn run_in(
    circuit: &mut Circuit,
    opts: &TranOptions,
    sim: &SimOptions,
    op_guess: Option<&[f64]>,
    ws: &mut Workspace,
) -> Result<TranResult> {
    // `!(x > 0.0)` (rather than `x <= 0.0`) also rejects a NaN horizon.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(opts.t_stop > 0.0) {
        return Err(SpiceError::BadOptions(format!(
            "t_stop must be positive, got {}",
            opts.t_stop
        )));
    }
    let h_init = opts.h_init.unwrap_or(opts.t_stop / 1000.0);
    let h_max = opts.h_max.unwrap_or(opts.t_stop / 50.0).max(h_init);
    let h_min = opts.h_min.unwrap_or(opts.t_stop * 1e-12);

    let breakpoints = breakpoints(circuit, opts.t_stop)?;

    // Operating point at t = 0 (also commits device histories).
    let OpSolution {
        mut x,
        layout,
        iterations,
    } = super::dcop::solve_in(circuit, sim, op_guess, ws)?;
    let record = &opts.record;
    record.check(layout.n_unknowns)?;

    let mut result = TranResult {
        time: vec![0.0],
        labels: record.labels(&layout.labels),
        samples: vec![record.row(&x)],
        total_newton_iterations: iterations,
        rejected_steps: 0,
    };

    // Three state vectors rotate through the loop, so a step
    // allocates only its recorded row: `x` is the accepted state at
    // `t`, `x_new` the candidate Newton iterates in place, and
    // `x_prev` the state one step before `x` (valid while `h_prev` is
    // set).
    let mut x_new = x.clone();
    let mut x_prev = x.clone();
    let mut h_prev: Option<f64> = None;
    let mut t = 0.0f64;
    let mut h = h_init.min(h_max);
    let mut bp_idx = 0usize;
    // Restart integration with backward Euler on the first step and
    // after every breakpoint: trapezoidal needs a consistent
    // derivative history, and a waveform corner invalidates it (the
    // classic TR "ringing" failure).
    let mut be_restart = true;
    // Set by a failed Newton solve until a step is accepted (see the
    // snap).
    let mut retrying = false;

    while t < opts.t_stop * (1.0 - 1e-12) {
        // Snap to the next breakpoint or the horizon, also when the
        // step would stop less than `4·h_min` short of it, so no step
        // is a sliver: a failed step is quartered, and a failed
        // remainder of at least `4·h_min` then stays above `h_min`.
        // Until a step is accepted, a retry after a failed solve is
        // stretched only over a rounding sliver, or it could repeat
        // the step that failed, forever.
        let mut h_attempt = h.min(h_max);
        let next_bp = breakpoints.get(bp_idx).copied().unwrap_or(f64::INFINITY);
        let limit = next_bp.min(opts.t_stop);
        let rounding = 1e-15 * limit.abs().max(1.0);
        let sliver = if retrying {
            rounding
        } else {
            (4.0 * h_min).max(rounding)
        };
        let mut snapped = false;
        if t + h_attempt >= limit - sliver {
            h_attempt = limit - t;
            snapped = true;
        }
        if h_attempt < h_min {
            // Forced tiny step onto a breakpoint is fine; anything else
            // means the controller collapsed.
            if !snapped {
                return Err(SpiceError::StepUnderflow {
                    time: t,
                    h: h_attempt,
                });
            }
        }

        let t_new = t + h_attempt;
        let method = if be_restart {
            IntegrationMethod::BackwardEuler
        } else {
            opts.method
        };
        let kind = LoadKind::Transient {
            t: t_new,
            h: h_attempt,
            method,
        };
        x_new.copy_from_slice(&x);
        let solve = newton_in(circuit, &layout, kind, sim.gmin, sim, &mut x_new, ws);
        match solve {
            Ok(iterations) => {
                result.total_newton_iterations += iterations;
                // LTE estimate: compare with the linear predictor.
                if opts.adaptive {
                    if let Some(h_prev) = h_prev {
                        let mut worst: f64 = 0.0;
                        for k in 0..layout.n_unknowns {
                            let slope = (x[k] - x_prev[k]) / h_prev;
                            let pred = x[k] + slope * h_attempt;
                            let tol = opts.lte_factor
                                * (sim.reltol * x[k].abs().max(x_new[k].abs())
                                    + sim.abstol(layout.kinds[k]));
                            let err = (x_new[k] - pred).abs() / tol;
                            worst = worst.max(err);
                        }
                        if worst > 1.0 && h_attempt > h_min && !snapped {
                            // Reject and retry with a smaller step.
                            result.rejected_steps += 1;
                            let order = opts.method.order() as f64;
                            let shrink = (1.0 / worst).powf(1.0 / (order + 1.0)).clamp(0.1, 0.9);
                            h = (h_attempt * shrink).max(h_min);
                            continue;
                        }
                        // Accepted: adapt the next step.
                        let order = opts.method.order() as f64;
                        let grow = if worst > 0.0 {
                            (1.0 / worst).powf(1.0 / (order + 1.0)).min(2.0)
                        } else {
                            2.0
                        };
                        h = (h_attempt * grow.max(0.5) * 0.9).clamp(h_min, h_max);
                    } else {
                        h = (h_attempt * 1.5).clamp(h_min, h_max);
                    }
                }
                // Commit.
                for dev in circuit.devices_mut() {
                    dev.commit(
                        &x_new,
                        &layout,
                        CommitKind {
                            is_dc: false,
                            h: h_attempt,
                        },
                    );
                }
                // x_prev ← x ← x_new; the old x_prev is the next scratch.
                std::mem::swap(&mut x_prev, &mut x);
                std::mem::swap(&mut x, &mut x_new);
                h_prev = Some(h_attempt);
                t = t_new;
                be_restart = false;
                retrying = false;
                if snapped && (t - next_bp).abs() < 1e-15 * next_bp.abs().max(1.0) {
                    bp_idx += 1;
                    // Restart small, with BE, after a slope discontinuity.
                    h = h_init.min(h_max);
                    h_prev = None;
                    be_restart = true;
                }
                result.time.push(t);
                result.samples.push(record.row(&x));
            }
            Err(SpiceError::NoConvergence { .. }) | Err(SpiceError::Device { .. }) => {
                result.rejected_steps += 1;
                let h_new = h_attempt / 4.0;
                if h_new < h_min {
                    return Err(SpiceError::StepUnderflow { time: t, h: h_new });
                }
                h = h_new;
                retrying = true;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(result)
}

/// The waveform breakpoints strictly inside `(0, t_stop)`, sorted and
/// deduplicated, or an error naming the device that takes them past
/// [`MAX_POINTS`]: each would force a step. Each device lists at most
/// [`MAX_POINTS`] + 1, and the gathered list is compacted whenever it
/// passes [`MAX_POINTS`], so it never holds much more than twice that.
fn breakpoints(circuit: &Circuit, t_stop: f64) -> Result<Vec<f64>> {
    fn compact(bps: &mut Vec<f64>) {
        bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        bps.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    }
    let mut bps = Vec::new();
    for d in circuit.devices() {
        let listed = d.breakpoints(t_stop);
        // A list past the limit was cut short, so its device alone
        // has too many, whatever compaction leaves.
        let n_listed = listed.len();
        bps.extend(listed.into_iter().filter(|t| *t > 0.0 && *t < t_stop));
        if bps.len() > MAX_POINTS {
            compact(&mut bps);
            if n_listed > MAX_POINTS || bps.len() > MAX_POINTS {
                return Err(SpiceError::BadOptions(format!(
                    "at least {} waveform breakpoints before t = {t_stop:.6e} s, counted \
                     through device `{}`; the limit is {MAX_POINTS}",
                    bps.len().max(n_listed),
                    d.name()
                )));
            }
        }
    }
    compact(&mut bps);
    Ok(bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mechanical::{Damper, Mass, Spring};
    use crate::devices::passive::{Capacitor, Resistor};
    use crate::devices::sources::{CurrentSource, VoltageSource};
    use crate::wave::Waveform;

    #[test]
    fn rc_step_response_matches_analytic() {
        // R = 1 kΩ, C = 1 µF, step 1 V at t = 0 through PWL ramp.
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new(
            "v1",
            a,
            g,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 1.0)]),
        ))
        .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
        let tau = 1e-3;
        let opts = TranOptions::new(5.0 * tau);
        let res = run(&mut c, &opts, &SimOptions::default()).unwrap();
        let vb = res.node_trace("b").unwrap();
        let t_end = *res.time.last().unwrap();
        let expect = 1.0 - (-t_end / tau).exp();
        let got = *vb.last().unwrap();
        assert!(
            (got - expect).abs() < 2e-3,
            "v(b) at {t_end}: {got} vs {expect}"
        );
        // Also check a mid-trace point against the analytic solution.
        let mid = res.time.len() / 2;
        let tm = res.time[mid];
        if tm > 2e-6 {
            let em = 1.0 - (-(tm - 1e-6) / tau).exp();
            assert!(
                (vb[mid] - em).abs() < 5e-3,
                "v(b) at {tm}: {} vs {em}",
                vb[mid]
            );
        }
    }

    #[test]
    fn resonator_rings_at_natural_frequency() {
        // Table 4 resonator: m = 1e-4 kg, k = 200 N/m, α = 40e-3 →
        // f0 ≈ 225 Hz, ζ ≈ 0.14 (under-damped).
        let mut c = Circuit::new();
        let v = c.mnode("vel").unwrap();
        let g = c.ground();
        c.add(Mass::new("m1", v, g, 1e-4)).unwrap();
        c.add(Spring::new("k1", v, g, 200.0)).unwrap();
        c.add(Damper::new("d1", v, g, 40e-3)).unwrap();
        // Force step of 1 µN.
        c.add(CurrentSource::new(
            "f1",
            g,
            v,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-5, 1e-6)]),
        ))
        .unwrap();
        let opts = TranOptions::new(60e-3);
        let res = run(&mut c, &opts, &SimOptions::default()).unwrap();
        // Displacement = spring force / k; spring force is i(k1,0).
        let f_spring = res.trace("i(k1,0)").unwrap();
        let x: Vec<f64> = f_spring.iter().map(|f| f / 200.0).collect();
        // Static deflection 1µN/200 = 5e-9 m.
        let settled = mems_numerics::stats::settled_value(&x, 0.1);
        assert!(
            (settled - 5e-9).abs() < 5e-10,
            "settled displacement {settled}"
        );
        // Ring frequency ≈ damped natural frequency.
        let f_est = mems_numerics::stats::crossing_frequency(&res.time, &x).expect("oscillates");
        let wn = (200.0f64 / 1e-4).sqrt();
        let zeta = 40e-3 / (2.0 * (200.0f64 * 1e-4).sqrt());
        let fd = wn * (1.0 - zeta * zeta).sqrt() / (2.0 * std::f64::consts::PI);
        assert!(
            (f_est - fd).abs() < fd * 0.05,
            "rings at {f_est} Hz, expected {fd}"
        );
        // Peak overshoot exists (under-damped).
        let peak = x.iter().fold(0.0f64, |m, v| m.max(*v));
        assert!(peak > settled * 1.3, "peak {peak} vs settled {settled}");
    }

    #[test]
    fn fixed_step_equals_adaptive_for_linear_rc() {
        let build = || {
            let mut c = Circuit::new();
            let a = c.enode("a").unwrap();
            let b = c.enode("b").unwrap();
            let g = c.ground();
            c.add(VoltageSource::new(
                "v1",
                a,
                g,
                Waveform::Sin {
                    offset: 0.0,
                    ampl: 1.0,
                    freq: 100.0,
                    delay: 0.0,
                    theta: 0.0,
                },
            ))
            .unwrap();
            c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
            c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
            c
        };
        let sim = SimOptions::default();
        let mut c1 = build();
        let r1 = run(&mut c1, &TranOptions::fixed_step(0.02, 2e-5), &sim).unwrap();
        let mut c2 = build();
        let r2 = run(&mut c2, &TranOptions::new(0.02), &sim).unwrap();
        let (_, y1) = r1.resample("v(b)", 200).unwrap();
        let (_, y2) = r2.resample("v(b)", 200).unwrap();
        let diff = mems_numerics::stats::max_abs_diff(&y1, &y2);
        assert!(diff < 5e-3, "fixed vs adaptive diverge: {diff}");
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new(
            "v1",
            a,
            g,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 3e-3,
                rise: 1e-3,
                fall: 1e-3,
                width: 2e-3,
                period: 0.0,
            },
        ))
        .unwrap();
        c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        let res = run(&mut c, &TranOptions::new(10e-3), &SimOptions::default()).unwrap();
        for bp in [3e-3, 4e-3, 6e-3, 7e-3] {
            assert!(
                res.time.iter().any(|t| (t - bp).abs() < 1e-12),
                "breakpoint {bp} missed"
            );
        }
    }

    #[test]
    fn recorded_columns_match_the_full_run() {
        let build = || {
            let mut c = Circuit::new();
            let a = c.enode("a").unwrap();
            let b = c.enode("b").unwrap();
            let g = c.ground();
            c.add(VoltageSource::new(
                "v1",
                a,
                g,
                Waveform::Pwl(vec![(0.0, 0.0), (1e-4, 1.0)]),
            ))
            .unwrap();
            c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
            c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
            c
        };
        let sim = SimOptions::default();
        let full = run(&mut build(), &TranOptions::new(5e-3), &sim).unwrap();
        assert_eq!(full.labels, ["v(a)", "v(b)", "i(v1,0)"]);
        let opts = TranOptions {
            record: Record::Unknowns(vec![1, 1, 2]),
            ..TranOptions::new(5e-3)
        };
        let some = run(&mut build(), &opts, &sim).unwrap();
        assert_eq!(some.labels, ["v(b)", "v(b)", "i(v1,0)"]);
        assert_eq!(some.time, full.time);
        assert_eq!(some.total_newton_iterations, full.total_newton_iterations);
        for (row, all) in some.samples.iter().zip(&full.samples) {
            assert_eq!(row, &[all[1], all[1], all[2]]);
        }
        let bad = TranOptions {
            record: Record::Unknowns(vec![3]),
            ..TranOptions::new(5e-3)
        };
        assert!(matches!(
            run(&mut build(), &bad, &sim),
            Err(SpiceError::BadOptions(_))
        ));
    }

    /// `V1 1 0 PULSE(0 1 0 1m 1m 100m 300m)`, `R1 1 2 1k`, `C1 2 0 1u`.
    fn pulsed_rc() -> Circuit {
        let mut c = Circuit::new();
        let a = c.enode("1").unwrap();
        let b = c.enode("2").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new(
            "v1",
            a,
            g,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-3,
                fall: 1e-3,
                width: 100e-3,
                period: 300e-3,
            },
        ))
        .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
        c
    }

    #[test]
    fn fixed_steps_snap_over_rounding_slivers() {
        // `.tran 1u 0.403 fixed`: the accumulated 1 µs steps stop
        // 2.7e-14 s short of the 0.301 s and 0.402 s corners, below
        // `h_min`, and 1.19e-12 s and 2.68e-12 s short of 0.3 s and
        // 0.401 s, just above it. Taken as a step of its own, the
        // 0.402 s sliver failed with a time step underflow, and the
        // other two ran as steps; now the step before each snaps onto
        // the corner.
        let opts = TranOptions {
            record: Record::Unknowns(vec![1]),
            ..TranOptions::fixed_step(0.403, 1e-6)
        };
        let res = run(&mut pulsed_rc(), &opts, &SimOptions::default()).unwrap();
        for bp in [0.301, 0.402, 0.403] {
            assert!(
                res.time.iter().any(|t| (t - bp).abs() < 1e-12),
                "breakpoint {bp} missed"
            );
        }
        // No step is shorter than `4·h_min` (h_min = 1e-12 s).
        let shortest = res
            .time
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        assert!(shortest >= 4e-12, "a {shortest:e} s step");
        assert_eq!(res.time.len(), 403_001);
    }

    /// A conductance whose load fails on any step longer than `h_max`
    /// that ends inside `window`.
    struct FailsLongStepsIn {
        pins: [crate::circuit::NodeId; 2],
        window: std::ops::RangeInclusive<f64>,
        h_max: f64,
    }

    impl crate::device::Device for FailsLongStepsIn {
        fn name(&self) -> &str {
            "fails"
        }

        fn pins(&self) -> &[crate::circuit::NodeId] {
            &self.pins
        }

        fn load(&mut self, ctx: &mut crate::device::LoadCtx<'_>) -> Result<()> {
            if let LoadKind::Transient { t, h, .. } = ctx.kind {
                if self.window.contains(&t) && h > self.h_max {
                    return Err(SpiceError::Device {
                        device: "fails".into(),
                        detail: format!("step {h:e} too long"),
                    });
                }
            }
            ctx.conductance(self.pins[0], self.pins[1], 1e-3);
            Ok(())
        }

        fn load_ac(&mut self, _ctx: &mut crate::device::AcLoadCtx<'_>) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_remainder_step_is_cut_not_retried_whole() {
        // 1 µs fixed steps (h_min = 1e-12 s) before a corner 4.5e-12 s
        // past the first step: the second step is the 4.5e-12 s
        // remainder, which fails. Its quartered retry must not be
        // stretched back over the same remainder, or the run would
        // repeat the failing step forever.
        let bp = 1e-6 + 4.5e-12;
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        let wave = Waveform::Pwl(vec![(0.0, 0.0), (bp, 1.0), (1.0, 1.0)]);
        c.add(VoltageSource::new("v1", a, g, wave)).unwrap();
        c.add(FailsLongStepsIn {
            pins: [a, g],
            window: 1e-6 + 1e-12..=bp + 1e-18,
            h_max: 4e-12,
        })
        .unwrap();
        let res = run(
            &mut c,
            &TranOptions::fixed_step(3e-6, 1e-6),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(res.rejected_steps, 1);
        let steps: Vec<f64> = res.time.windows(2).map(|w| w[1] - w[0]).collect();
        assert!((steps[1] - 1.125e-12).abs() < 1e-20, "{steps:?}");
        assert!((steps[2] - 3.375e-12).abs() < 1e-20, "{steps:?}");
        assert!(res.time.iter().any(|t| (t - bp).abs() < 1e-18));
    }

    #[test]
    fn breakpoints_past_the_limit_are_refused() {
        // One corner per nanosecond (`PULSE(0 1 0 1n 1n 1n 4n)`), from
        // `delay` on, on its own node.
        let sources = |delays: &[f64]| {
            let mut c = Circuit::new();
            let g = c.ground();
            for (i, &delay) in delays.iter().enumerate() {
                let n = c.enode(&format!("n{i}")).unwrap();
                let wave = Waveform::Pulse {
                    v1: 0.0,
                    v2: 1.0,
                    delay,
                    rise: 1e-9,
                    fall: 1e-9,
                    width: 1e-9,
                    period: 4e-9,
                };
                c.add(VoltageSource::new(format!("v{i}"), n, g, wave))
                    .unwrap();
                c.add(Resistor::new(format!("r{i}"), n, g, 1e3)).unwrap();
            }
            c
        };
        // 10⁹ corners before 1 s: refused before anything is solved.
        let err = run(
            &mut sources(&[0.0]),
            &TranOptions::new(1.0),
            &SimOptions::default(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("device `v0`") && msg.contains("the limit is 1000000"),
            "{msg}"
        );
        // Two sources with the same 6·10⁵ corners stay within the
        // limit; shifted half a nanosecond apart, they pass it.
        let one = breakpoints(&sources(&[0.0]), 6e-4).unwrap().len();
        assert!(one > MAX_POINTS / 2, "{one}");
        let same = breakpoints(&sources(&[0.0, 0.0]), 6e-4).unwrap().len();
        assert_eq!(same, one);
        let err = breakpoints(&sources(&[0.0, 0.5e-9]), 6e-4).unwrap_err();
        assert!(err.to_string().contains("device `v1`"), "{err}");
    }

    #[test]
    fn rejects_bad_horizon() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1.0)).unwrap();
        assert!(matches!(
            run(&mut c, &TranOptions::new(0.0), &SimOptions::default()),
            Err(SpiceError::BadOptions(_))
        ));
    }
}
