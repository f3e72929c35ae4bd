//! DC operating-point analysis with gmin and source stepping.

use crate::circuit::Circuit;
use crate::device::{CommitKind, LoadKind};
use crate::error::{Result, SpiceError};
use crate::output::OpSolution;
use crate::solver::{newton, SimOptions, Workspace};

/// Solves the DC operating point and commits it to every device
/// (histories seed for a following transient or AC analysis).
///
/// Strategy: plain Newton from zero → gmin stepping (leak decades from
/// 1e-3 down to `opts.gmin`) → source stepping (ramp sources 0 → 1).
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when every homotopy fails.
pub fn solve(circuit: &mut Circuit, opts: &SimOptions) -> Result<OpSolution> {
    solve_from(circuit, opts, None)
}

/// [`solve`] warm-started from a previous solution: plain Newton runs
/// from `guess` first (a sweep's previous point is usually a few
/// iterations away), falling back to the cold-start homotopies when it
/// diverges. A `guess` of the wrong length is ignored.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_from(
    circuit: &mut Circuit,
    opts: &SimOptions,
    guess: Option<&[f64]>,
) -> Result<OpSolution> {
    let mut ws = Workspace::new(0);
    solve_in(circuit, opts, guess, &mut ws)
}

/// [`solve_from`] over a caller-owned [`Workspace`], the reuse hook
/// for sweeps, transients, and `.STEP`/`.MC` batch points: when the
/// workspace already matches the circuit's unknown count (same
/// topology), its cached structure — notably the sparse backend's
/// sparsity pattern and symbolic factorization — carries over and
/// only the numeric factorization is redone.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_in(
    circuit: &mut Circuit,
    opts: &SimOptions,
    guess: Option<&[f64]>,
    ws: &mut Workspace,
) -> Result<OpSolution> {
    let layout = circuit.layout();
    ws.ensure(layout.n_unknowns, opts.matrix, opts.ordering);
    let x0 = match guess {
        Some(g) if g.len() == layout.n_unknowns => g.to_vec(),
        _ => vec![0.0; layout.n_unknowns],
    };

    // 1. Plain Newton.
    let direct = newton(
        circuit,
        &layout,
        LoadKind::Dc {
            gmin: opts.gmin,
            source_scale: 1.0,
        },
        opts.gmin,
        opts,
        &x0,
        ws,
    );
    let outcome = match direct {
        Ok(o) => Ok(o),
        Err(_) => {
            // Homotopies always restart from zero: a bad warm-start
            // guess must not poison the fallback path.
            let zeros = vec![0.0; layout.n_unknowns];
            gmin_stepping(circuit, &layout, opts, &zeros, ws)
                .or_else(|_| source_stepping(circuit, &layout, opts, &zeros, ws))
        }
    };
    let outcome = outcome.map_err(|e| SpiceError::NoConvergence {
        analysis: "dc operating point".into(),
        detail: e.to_string(),
    })?;

    for dev in circuit.devices_mut() {
        dev.commit(
            &outcome.x,
            &layout,
            CommitKind {
                is_dc: true,
                h: 0.0,
            },
        );
    }
    Ok(OpSolution {
        x: outcome.x,
        layout,
        iterations: outcome.iterations,
    })
}

fn gmin_stepping(
    circuit: &mut Circuit,
    layout: &crate::circuit::UnknownLayout,
    opts: &SimOptions,
    x0: &[f64],
    ws: &mut Workspace,
) -> Result<crate::solver::NewtonOutcome> {
    let mut x = x0.to_vec();
    let mut gmin = 1e-3;
    let mut last = None;
    while gmin >= opts.gmin.max(1e-15) {
        let out = newton(
            circuit,
            layout,
            LoadKind::Dc {
                gmin,
                source_scale: 1.0,
            },
            gmin,
            opts,
            &x,
            ws,
        )?;
        x = out.x.clone();
        last = Some(out);
        gmin /= 10.0;
    }
    // Final solve at the target gmin.
    let out = newton(
        circuit,
        layout,
        LoadKind::Dc {
            gmin: opts.gmin,
            source_scale: 1.0,
        },
        opts.gmin,
        opts,
        &x,
        ws,
    )?;
    let _ = last;
    Ok(out)
}

fn source_stepping(
    circuit: &mut Circuit,
    layout: &crate::circuit::UnknownLayout,
    opts: &SimOptions,
    x0: &[f64],
    ws: &mut Workspace,
) -> Result<crate::solver::NewtonOutcome> {
    let mut x = x0.to_vec();
    let steps = 20;
    for k in 1..=steps {
        let scale = k as f64 / steps as f64;
        let out = newton(
            circuit,
            layout,
            LoadKind::Dc {
                gmin: opts.gmin,
                source_scale: scale,
            },
            opts.gmin,
            opts,
            &x,
            ws,
        )?;
        x = out.x.clone();
        if k == steps {
            return Ok(out);
        }
    }
    unreachable!("loop returns at k == steps")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::coupling::{Gyrator, IdealTransformer};
    use crate::devices::passive::{Capacitor, Inductor, Resistor};
    use crate::devices::sources::VoltageSource;
    use crate::wave::Waveform;

    #[test]
    fn rc_ladder_op() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(5.0)))
            .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Capacitor::new("c1", b, g, 1e-9)).unwrap();
        let op = solve(&mut c, &SimOptions::default()).unwrap();
        // Capacitor open at DC → no drop across r1.
        assert!((op.v(a) - 5.0).abs() < 1e-9);
        assert!((op.v(b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn inductor_shorts_at_dc() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(1.0)))
            .unwrap();
        c.add(Resistor::new("r1", a, b, 100.0)).unwrap();
        c.add(Inductor::new("l1", b, g, 1e-3)).unwrap();
        let op = solve(&mut c, &SimOptions::default()).unwrap();
        assert!(op.v(b).abs() < 1e-8);
        // Inductor current = 1 V / 100 Ω.
        let il = op.by_label("i(l1,0)").unwrap();
        assert!((il - 0.01).abs() < 1e-9);
    }

    #[test]
    fn transformer_reflects_voltage() {
        let mut c = Circuit::new();
        let p = c.enode("p").unwrap();
        let s = c.enode("s").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", p, g, Waveform::Dc(8.0)))
            .unwrap();
        c.add(IdealTransformer::new("t1", p, g, s, g, 4.0)).unwrap();
        c.add(Resistor::new("rl", s, g, 50.0)).unwrap();
        let op = solve(&mut c, &SimOptions::default()).unwrap();
        // v1 = n·v2 → v2 = 2 V.
        assert!((op.v(s) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gyrator_converts_voltage_to_current() {
        let mut c = Circuit::new();
        let p = c.enode("p").unwrap();
        let s = c.enode("s").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", p, g, Waveform::Dc(2.0)))
            .unwrap();
        c.add(Gyrator::new("g1", p, g, s, g, 0.1)).unwrap();
        c.add(Resistor::new("rl", s, g, 10.0)).unwrap();
        let op = solve(&mut c, &SimOptions::default()).unwrap();
        // Port 2: i2 = −g·v1 = −0.2 A delivered into node s → v(s) = 2 V.
        assert!((op.v(s) - 2.0).abs() < 1e-9, "v(s) = {}", op.v(s));
    }
}
