//! Source waveforms: DC, pulse, sine, piecewise linear, exponential.
//!
//! The Fig. 5 experiment drives the transducer with "a voltage source
//! with a finite rise and fall time" — [`Waveform::Pulse`] — and the
//! transient engine collects [`Waveform::breakpoints`] so steps land
//! exactly on the corners.

use crate::analysis::MAX_POINTS;

/// A time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style pulse train.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first rise.
        delay: f64,
        /// Rise time (> 0 for the paper's "finite rise time").
        rise: f64,
        /// Fall time.
        fall: f64,
        /// Width of the flat top.
        width: f64,
        /// Period (0 = single pulse).
        period: f64,
    },
    /// Sinusoid `offset + ampl·sin(2πf(t−delay))` for `t ≥ delay`.
    Sin {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency \[Hz\].
        freq: f64,
        /// Start delay.
        delay: f64,
        /// Exponential damping factor [1/s].
        theta: f64,
    },
    /// Piecewise-linear `(t, v)` corners (t strictly increasing).
    Pwl(Vec<(f64, f64)>),
    /// Single exponential rise/fall.
    Exp {
        /// Initial value.
        v1: f64,
        /// Target value.
        v2: f64,
        /// Rise start delay.
        td1: f64,
        /// Rise time constant.
        tau1: f64,
        /// Fall start delay.
        td2: f64,
        /// Fall time constant.
        tau2: f64,
    },
}

impl Waveform {
    /// Source value at time `t` (transient analyses).
    pub fn at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tp = t - delay;
                if *period > 0.0 {
                    tp %= period;
                }
                if tp < *rise {
                    if *rise == 0.0 {
                        *v2
                    } else {
                        v1 + (v2 - v1) * tp / rise
                    }
                } else if tp < rise + width {
                    *v2
                } else if tp < rise + width + fall {
                    if *fall == 0.0 {
                        *v1
                    } else {
                        v2 + (v1 - v2) * (tp - rise - width) / fall
                    }
                } else {
                    *v1
                }
            }
            Waveform::Sin {
                offset,
                ampl,
                freq,
                delay,
                theta,
            } => {
                if t < *delay {
                    *offset
                } else {
                    let dt = t - delay;
                    let damp = if *theta != 0.0 {
                        (-dt * theta).exp()
                    } else {
                        1.0
                    };
                    offset + ampl * damp * (2.0 * std::f64::consts::PI * freq * dt).sin()
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("nonempty").1
            }
            Waveform::Exp {
                v1,
                v2,
                td1,
                tau1,
                td2,
                tau2,
            } => {
                let mut v = *v1;
                if t >= *td1 {
                    v += (v2 - v1) * (1.0 - (-(t - td1) / tau1).exp());
                }
                if t >= *td2 {
                    v += (v1 - v2) * (1.0 - (-(t - td2) / tau2).exp());
                }
                v
            }
        }
    }

    /// The DC (t = 0⁻) value used by the operating-point analysis.
    pub fn dc_value(&self) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse { v1, .. } => *v1,
            Waveform::Sin { offset, .. } => *offset,
            Waveform::Pwl(points) => points.first().map_or(0.0, |p| p.1),
            Waveform::Exp { v1, .. } => *v1,
        }
    }

    /// Time points strictly inside `(0, t_end)` where the waveform has
    /// slope discontinuities; the transient engine snaps steps onto
    /// these. A corner equal to the one listed before it is listed
    /// once, and the list stops at [`MAX_POINTS`] + 1 corners (a
    /// periodic pulse is walked for at most that many periods), so a
    /// caller can tell a waveform with too many corners without the
    /// list growing with the horizon.
    pub fn breakpoints(&self, t_end: f64) -> Vec<f64> {
        let corners: Box<dyn Iterator<Item = f64> + '_> = match self {
            Waveform::Dc(_) | Waveform::Sin { .. } => Box::new(std::iter::empty()),
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let corners = [
                    *delay,
                    delay + rise,
                    delay + rise + width,
                    delay + rise + width + fall,
                ];
                // A single pulse is the first period of a periodic one.
                let periods = if *period > 0.0 { MAX_POINTS + 1 } else { 1 };
                let starts = std::iter::successors(Some(0.0), move |base| Some(base + period));
                Box::new(
                    starts
                        .take(periods)
                        .take_while(move |base| delay + base <= t_end)
                        .flat_map(move |base| corners.map(|c| c + base)),
                )
            }
            Waveform::Pwl(points) => Box::new(points.iter().map(|p| p.0)),
            Waveform::Exp { td1, td2, .. } => Box::new([*td1, *td2].into_iter()),
        };
        let mut bps = Vec::new();
        for t in corners.filter(|t| *t > 0.0 && *t < t_end) {
            if bps.last() != Some(&t) {
                bps.push(t);
                if bps.len() > MAX_POINTS {
                    break;
                }
            }
        }
        bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_pulse(level: f64) -> Waveform {
        // A 10 ms rise, 40 ms top, 10 ms fall pulse like Fig. 5's.
        Waveform::Pulse {
            v1: 0.0,
            v2: level,
            delay: 5e-3,
            rise: 10e-3,
            fall: 10e-3,
            width: 40e-3,
            period: 0.0,
        }
    }

    #[test]
    fn pulse_shape() {
        let p = fig5_pulse(10.0);
        assert_eq!(p.at(0.0), 0.0);
        assert_eq!(p.at(5e-3), 0.0);
        assert!((p.at(10e-3) - 5.0).abs() < 1e-12); // mid-rise
        assert_eq!(p.at(20e-3), 10.0);
        assert_eq!(p.at(50e-3), 10.0);
        assert!((p.at(60e-3) - 5.0).abs() < 1e-12); // mid-fall
        assert_eq!(p.at(80e-3), 0.0);
        assert_eq!(p.dc_value(), 0.0);
    }

    #[test]
    fn pulse_periodic_repeats() {
        let p = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.3,
            period: 1.0,
        };
        assert!((p.at(0.05) - p.at(1.05)).abs() < 1e-12);
        assert!((p.at(0.2) - 1.0).abs() < 1e-12);
        assert!((p.at(1.2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rise_pulse_steps() {
        let p = Waveform::Pulse {
            v1: 1.0,
            v2: 2.0,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: 1.0,
            period: 0.0,
        };
        assert_eq!(p.at(0.0), 2.0);
        assert_eq!(p.at(0.5), 2.0);
        assert_eq!(p.at(1.5), 1.0);
    }

    #[test]
    fn sin_with_damping() {
        let s = Waveform::Sin {
            offset: 1.0,
            ampl: 2.0,
            freq: 50.0,
            delay: 0.0,
            theta: 10.0,
        };
        assert_eq!(s.at(0.0), 1.0);
        let quarter = 1.0 / 200.0;
        let expect = 1.0 + 2.0 * (-quarter * 10.0f64).exp();
        assert!((s.at(quarter) - expect).abs() < 1e-12);
        assert_eq!(s.dc_value(), 1.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 10.0), (2.0, -10.0)]);
        assert_eq!(w.at(-1.0), 0.0);
        assert_eq!(w.at(0.5), 5.0);
        assert_eq!(w.at(1.5), 0.0);
        assert_eq!(w.at(3.0), -10.0);
    }

    #[test]
    fn exp_waveform() {
        let e = Waveform::Exp {
            v1: 0.0,
            v2: 1.0,
            td1: 0.0,
            tau1: 1.0,
            td2: 5.0,
            tau2: 1.0,
        };
        assert!((e.at(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!(e.at(10.0) < 0.1);
    }

    #[test]
    fn breakpoints_cover_pulse_corners() {
        let p = fig5_pulse(10.0);
        let bps = p.breakpoints(0.18);
        assert_eq!(bps, vec![5e-3, 15e-3, 55e-3, 65e-3]);
        // Truncated horizon drops later corners.
        let bps = p.breakpoints(20e-3);
        assert_eq!(bps, vec![5e-3, 15e-3]);
    }

    #[test]
    fn breakpoints_of_periodic_pulse() {
        let p = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.2,
            period: 1.0,
        };
        let bps = p.breakpoints(2.0);
        assert!(bps.contains(&0.1));
        assert!(bps.contains(&1.1));
        assert!(bps.iter().all(|t| *t > 0.0 && *t < 2.0), "{bps:?}");
    }

    #[test]
    fn periodic_pulse_corners_are_bounded() {
        let pulse = |delay, rise, width, period| Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay,
            rise,
            fall: rise,
            width,
            period,
        };
        // 10⁹ corners before t = 1: the list stops one past the limit.
        let bps = pulse(0.0, 1e-9, 1e-9, 4e-9).breakpoints(1.0);
        assert_eq!(bps.len(), MAX_POINTS + 1);
        // A square wave's coinciding corners are listed once.
        let bps = pulse(0.0, 0.0, 1.0, 2.0).breakpoints(10.0);
        assert_eq!(bps, (1..10).map(f64::from).collect::<Vec<_>>());
        // A period below the resolution of its start time stops too.
        let bps = pulse(0.5, 0.0, 0.0, 1e-300).breakpoints(1.0);
        assert_eq!(bps, [0.5]);
    }
}
