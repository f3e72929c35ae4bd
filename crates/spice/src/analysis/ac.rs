//! Small-signal AC analysis: complex MNA around the DC operating
//! point.

use crate::circuit::Circuit;
use crate::device::AcLoadCtx;
use crate::error::{Result, SpiceError};
use crate::output::{AcResult, OpSolution};
use crate::solver::SimOptions;
use crate::system::{new_system, FillOrdering, MatrixBackend, SystemMatrix};
use mems_numerics::Complex64;

/// Frequency sweep specification.
#[derive(Debug, Clone)]
pub enum FreqSweep {
    /// Logarithmic sweep with `points_per_decade` points from `start`
    /// to `stop` [Hz].
    Decade {
        /// Start frequency [Hz] (> 0).
        start: f64,
        /// Stop frequency [Hz].
        stop: f64,
        /// Points per decade.
        points_per_decade: usize,
    },
    /// Linear sweep with `points` samples.
    Linear {
        /// Start frequency [Hz].
        start: f64,
        /// Stop frequency [Hz].
        stop: f64,
        /// Total points (≥ 2).
        points: usize,
    },
    /// Explicit frequency list [Hz].
    List(Vec<f64>),
}

impl FreqSweep {
    /// How many frequencies [`frequencies`](Self::frequencies)
    /// returns, counted without expanding the sweep (saturating at
    /// `usize::MAX`), so a caller can bound it first.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadOptions`] for non-positive or
    /// non-finite log sweeps, empty or reversed linear sweeps, and
    /// empty lists.
    pub fn point_count(&self) -> Result<usize> {
        match self {
            FreqSweep::Decade {
                start,
                stop,
                points_per_decade,
            } => {
                if !(*start > 0.0 && start <= stop && stop.is_finite()) || *points_per_decade == 0 {
                    return Err(SpiceError::BadOptions(format!(
                        "bad decade sweep [{start}, {stop}] x{points_per_decade}"
                    )));
                }
                // The expansion keeps grid points 0..=n while they stay
                // within `stop`, then appends `stop` itself unless the
                // last kept point already is it.
                let ppd = *points_per_decade as f64;
                let n = ((stop / start).log10() * ppd).ceil();
                let grid = |i: f64| start * 10f64.powf(i / ppd);
                let kept = if grid(n) > stop * (1.0 + 1e-12) {
                    n
                } else {
                    n + 1.0
                };
                let appends_stop = (grid(kept - 1.0) - stop).abs() > stop * 1e-9;
                Ok((if appends_stop { kept + 1.0 } else { kept }) as usize)
            }
            FreqSweep::Linear {
                start,
                stop,
                points,
            } => {
                if *points < 2 || !(start < stop && start.is_finite() && stop.is_finite()) {
                    return Err(SpiceError::BadOptions(format!(
                        "bad linear sweep [{start}, {stop}] x{points}"
                    )));
                }
                Ok(*points)
            }
            FreqSweep::List(fs) => {
                if fs.is_empty() {
                    return Err(SpiceError::BadOptions("empty frequency list".into()));
                }
                Ok(fs.len())
            }
        }
    }

    /// Expands the sweep into a frequency list.
    ///
    /// # Errors
    ///
    /// As [`point_count`](Self::point_count).
    pub fn frequencies(&self) -> Result<Vec<f64>> {
        self.point_count()?;
        Ok(match self {
            FreqSweep::Decade {
                start,
                stop,
                points_per_decade,
            } => {
                let mut out = Vec::new();
                let decades = (stop / start).log10();
                let n = (decades * *points_per_decade as f64).ceil() as usize;
                for i in 0..=n {
                    let f = start * 10f64.powf(i as f64 / *points_per_decade as f64);
                    if f > stop * (1.0 + 1e-12) {
                        break;
                    }
                    out.push(f);
                }
                if out.last().is_none_or(|f| (f - stop).abs() > stop * 1e-9) {
                    out.push(*stop);
                }
                out
            }
            FreqSweep::Linear {
                start,
                stop,
                points,
            } => (0..*points)
                .map(|i| start + (stop - start) * i as f64 / (*points as f64 - 1.0))
                .collect(),
            FreqSweep::List(fs) => fs.clone(),
        })
    }
}

/// Runs an AC sweep. Solves the DC operating point first (committing
/// it into the devices), then one complex solve per frequency, on the
/// backend and fill ordering `sim` selects.
///
/// # Errors
///
/// Propagates DC failures and singular complex systems.
pub fn run(circuit: &mut Circuit, sweep: &FreqSweep, sim: &SimOptions) -> Result<AcResult> {
    let freqs = sweep.frequencies()?;
    let op = super::dcop::solve(circuit, sim)?;
    let mut sys = new_system::<Complex64>(op.layout.n_unknowns, sim.matrix, sim.ordering);
    run_with_op_in(circuit, &freqs, &op, sys.as_mut())
}

/// Runs the sweep against an already-solved operating point (automatic
/// backend selection). The complex system is assembled through
/// [`SystemMatrix`], so all frequency points share one sparsity
/// pattern — on the sparse backend the symbolic factorization from the
/// first point is replayed numeric-only for every further point.
///
/// # Errors
///
/// Returns singular-system and device errors.
pub fn run_with_op(circuit: &mut Circuit, freqs: &[f64], op: &OpSolution) -> Result<AcResult> {
    let mut sys = new_system::<Complex64>(
        op.layout.n_unknowns,
        MatrixBackend::Auto,
        FillOrdering::default(),
    );
    run_with_op_in(circuit, freqs, op, sys.as_mut())
}

/// [`run_with_op`] over a caller-owned complex system matrix: batch
/// engines hand the same system to every `.STEP`/`.MC` point, so the
/// sparse backend's pattern discovery and symbolic analysis happen
/// once per worker rather than once per point. The system's order
/// must match the operating point's unknown count.
///
/// # Errors
///
/// As [`run_with_op`], plus a build error on an order mismatch.
pub fn run_with_op_in(
    circuit: &mut Circuit,
    freqs: &[f64],
    op: &OpSolution,
    sys: &mut dyn SystemMatrix<Complex64>,
) -> Result<AcResult> {
    let layout = &op.layout;
    let n = layout.n_unknowns;
    if sys.n() != n {
        return Err(SpiceError::Build(format!(
            "AC system matrix order {} does not match {} unknowns",
            sys.n(),
            n
        )));
    }
    let mut result = AcResult {
        freqs: freqs.to_vec(),
        labels: layout.labels.clone(),
        data: Vec::with_capacity(freqs.len()),
    };
    let mut rhs = vec![Complex64::ZERO; n];
    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        sys.clear();
        rhs.iter_mut().for_each(|v| *v = Complex64::ZERO);
        {
            let mut ctx = AcLoadCtx::new(omega, layout, &op.x, &mut *sys, &mut rhs);
            for dev in circuit.devices_mut() {
                dev.load_ac(&mut ctx)?;
            }
        }
        // gmin on node diagonals keeps floating nodes benign.
        for (k, kind) in layout.kinds.iter().enumerate() {
            if matches!(kind, crate::circuit::UnknownKind::NodeAcross(_)) {
                sys.add(k, k, Complex64::from_re(1e-12));
            }
        }
        sys.factor()
            .map_err(|e| SpiceError::Singular(format!("AC at {f} Hz: {e}")))?;
        let mut x = vec![Complex64::ZERO; n];
        sys.solve_into(&rhs, &mut x)?;
        result.data.push(x);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::passive::{Capacitor, Inductor, Resistor};
    use crate::devices::sources::{AcSpec, VoltageSource};
    use crate::wave::Waveform;

    #[test]
    fn point_count_matches_the_expansion() {
        let mut sweeps = vec![
            FreqSweep::List(vec![1.0, 5.0]),
            FreqSweep::Linear {
                start: 0.0,
                stop: 10.0,
                points: 7,
            },
        ];
        // Round decade spans and a deterministic scatter of odd ones.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (start, stop, ppd) in [(1.0, 1.0, 3), (1.0, 1e3, 10), (20.0, 2e3, 30)] {
            sweeps.push(FreqSweep::Decade {
                start,
                stop,
                points_per_decade: ppd,
            });
        }
        for _ in 0..500 {
            let start = 10f64.powf(6.0 * uniform() - 3.0);
            sweeps.push(FreqSweep::Decade {
                start,
                stop: start * 10f64.powf(5.0 * uniform()),
                points_per_decade: 1 + (200.0 * uniform()) as usize,
            });
        }
        for sweep in &sweeps {
            let fs = sweep.frequencies().unwrap();
            assert_eq!(sweep.point_count().unwrap(), fs.len(), "{sweep:?}");
        }
        // Counted, never expanded: a sweep that could not be held in
        // memory is still a number.
        let huge = FreqSweep::Decade {
            start: 1.0,
            stop: 1e9,
            points_per_decade: 1_000_000_000_000,
        };
        assert!(huge.point_count().unwrap() > 8_000_000_000_000);
        for bad in [
            FreqSweep::Linear {
                start: 0.0,
                stop: 0.0,
                points: 2,
            },
            FreqSweep::Decade {
                start: 1.0,
                stop: f64::INFINITY,
                points_per_decade: 3,
            },
        ] {
            assert!(bad.point_count().is_err(), "{bad:?}");
            assert!(bad.frequencies().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_expansion() {
        let fs = FreqSweep::Decade {
            start: 1.0,
            stop: 1000.0,
            points_per_decade: 10,
        }
        .frequencies()
        .unwrap();
        assert_eq!(fs.len(), 31);
        assert!((fs[0] - 1.0).abs() < 1e-12);
        assert!((fs.last().unwrap() - 1000.0).abs() < 1e-6);
        let fs = FreqSweep::Linear {
            start: 0.0,
            stop: 10.0,
            points: 3,
        }
        .frequencies()
        .unwrap();
        assert_eq!(fs, vec![0.0, 5.0, 10.0]);
        assert!(FreqSweep::List(vec![]).frequencies().is_err());
        assert!(FreqSweep::Decade {
            start: 0.0,
            stop: 1.0,
            points_per_decade: 5
        }
        .frequencies()
        .is_err());
    }

    #[test]
    fn rc_lowpass_corner() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(0.0)).with_ac(AcSpec::unit()))
            .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
        // Corner at 1/(2πRC) ≈ 159.15 Hz.
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6);
        let res = run(
            &mut c,
            &FreqSweep::List(vec![fc / 100.0, fc, fc * 100.0]),
            &SimOptions::default(),
        )
        .unwrap();
        let mag = res.magnitude("v(b)").unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3);
        assert!((mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!(mag[2] < 0.011);
        let ph = res.phase_deg("v(b)").unwrap();
        assert!((ph[1] + 45.0).abs() < 0.1);
    }

    #[test]
    fn rlc_series_resonance() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let d = c.enode("d").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(0.0)).with_ac(AcSpec::unit()))
            .unwrap();
        c.add(Resistor::new("r1", a, b, 10.0)).unwrap();
        c.add(Inductor::new("l1", b, d, 1e-3)).unwrap();
        c.add(Capacitor::new("c1", d, g, 1e-6)).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-6).sqrt());
        let res = run(&mut c, &FreqSweep::List(vec![f0]), &SimOptions::default()).unwrap();
        // At resonance the current is v/R → 0.1 A.
        let i = res.magnitude("i(l1,0)").unwrap()[0];
        assert!((i - 0.1).abs() < 1e-6, "resonant current {i}");
    }
}
