//! Closed-form and independent answers the goldens check against, each
//! derived from the deck's physics rather than from the program.

/// Vacuum permittivity as the decks write it.
pub const EPS0: f64 = 8.8542e-12;

/// Listing-1 plate area and gap (`eletran_transient`, `cells.lib`).
pub const ELETRAN_AREA: f64 = 1e-4;
/// Listing-1 plate gap.
pub const ELETRAN_GAP: f64 = 0.15e-3;

/// Relative residual of the settled electrostatic force balance
/// `k·x = ε₀·A·V²/(2(d+x)²)` with `x = F/k`, given the settled spring
/// force `f` (either sign) at bias `v` and stiffness `k`.
pub fn eletran_balance_residual(f: f64, v: f64, k: f64) -> f64 {
    let f = f.abs();
    let x = f / k;
    let fel = EPS0 * ELETRAN_AREA * v * v / (2.0 * (ELETRAN_GAP + x).powi(2));
    (f - fel).abs() / fel
}

/// `|v(cone)|` per volt of the `speaker_ac` loudspeaker at `f` Hz:
/// `bl / ((R + jωL)(jωm + d + k/(jω)) + bl²)`.
pub fn speaker_velocity(f: f64) -> f64 {
    let (bl, l, r) = (1.2566, 2e-3, 7.2);
    let (m, k, d) = (0.4e-3, 600.0, 0.05);
    let w = std::f64::consts::TAU * f;
    // Zm = d + j(ωm − k/ω); Ze = R + jωL.
    let (zm_re, zm_im) = (d, w * m - k / w);
    let (ze_re, ze_im) = (r, w * l);
    let den_re = ze_re * zm_re - ze_im * zm_im + bl * bl;
    let den_im = ze_re * zm_im + ze_im * zm_re;
    bl / den_re.hypot(den_im)
}

/// Static plate displacement of the `relay_pull_in` actuator at bias
/// `v`: the stable root of `k·x = ε₀·A·V²/(2(d−x)²)` on `[0, d/3]`.
pub fn relay_displacement(v: f64) -> f64 {
    let (area, d, k) = (4e-8, 2e-6, 5.0);
    let g = |x: f64| k * x - EPS0 * area * v * v / (2.0 * (d - x).powi(2));
    let (mut lo, mut hi) = (0.0, d / 3.0);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// DC voltage at the far corner of a generated `rows × cols` grid deck,
/// solved independently of the program: at DC every cell's mechanical
/// branch is shorted by its spring (zero velocity, so the gyrators
/// inject nothing) and its capacitor is open, leaving a resistor grid
/// with `rcell` per edge, 5 V at the driven corner, and a 1 kΩ load
/// plus the `1e-4·v²` sink at the far corner. Node leaks of `gmin`
/// mirror the simulator's. Newton outer loop, conjugate gradients
/// inside (the Jacobian is symmetric positive definite).
pub fn grid_dc_corner(rows: usize, cols: usize, rcell: f64, gmin: f64) -> f64 {
    let n = rows * cols;
    let g = 1.0 / rcell;
    let sink = n - 1;
    let (vs, gl, kq) = (5.0, 1e-3, 1e-4);
    let neighbours = |i: usize| {
        let (r, c) = (i / cols, i % cols);
        let mut out = [usize::MAX; 4];
        if r > 0 {
            out[0] = i - cols;
        }
        if r + 1 < rows {
            out[1] = i + cols;
        }
        if c > 0 {
            out[2] = i - 1;
        }
        if c + 1 < cols {
            out[3] = i + 1;
        }
        out
    };
    // Node 0 is held at `vs`; unknowns live at 1..n (index 0 unused).
    let mut v = vec![0.0; n];
    v[0] = vs;
    for _ in 0..50 {
        let mut resid = vec![0.0; n];
        for i in 1..n {
            let mut r = gmin * v[i];
            for j in neighbours(i).into_iter().filter(|&j| j != usize::MAX) {
                r += g * (v[i] - v[j]);
            }
            if i == sink {
                r += gl * v[i] + kq * v[i] * v[i];
            }
            resid[i] = -r;
        }
        let diag_sink = gl + 2.0 * kq * v[sink];
        let apply = |x: &[f64], out: &mut [f64]| {
            for i in 1..n {
                let mut y = gmin * x[i];
                for j in neighbours(i).into_iter().filter(|&j| j != usize::MAX) {
                    let xj = if j == 0 { 0.0 } else { x[j] };
                    y += g * (x[i] - xj);
                }
                if i == sink {
                    y += diag_sink * x[i];
                }
                out[i] = y;
            }
        };
        let delta = conjugate_gradient(&apply, &resid);
        let step = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        for i in 1..n {
            v[i] += delta[i];
        }
        if step < 1e-15 * vs {
            break;
        }
    }
    v[sink]
}

/// Unpreconditioned CG on an SPD operator (index 0 is inert).
fn conjugate_gradient(apply: &dyn Fn(&[f64], &mut [f64]), b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let stop = rr * 1e-30;
    for _ in 0..20 * n {
        if rr <= stop || rr == 0.0 {
            break;
        }
        apply(&p, &mut ap);
        let alpha = rr / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eletran_table4_bias_balances() {
        // Table 4: 10 V on the Listing-1 plates deflects the 200 N/m
        // suspension by ~1e-8 m; the residual of the exact root is 0.
        let fel = EPS0 * ELETRAN_AREA * 100.0 / (2.0 * ELETRAN_GAP * ELETRAN_GAP);
        assert!((fel / 200.0 - 9.84e-9).abs() < 1e-10);
        assert!(eletran_balance_residual(fel, 10.0, 200.0) < 1e-3);
    }

    #[test]
    fn speaker_peaks_near_216_hz() {
        let grid: Vec<f64> = (0..=60)
            .map(|k| 20.0 * 10f64.powf(k as f64 / 30.0))
            .collect();
        let peak = grid
            .iter()
            .copied()
            .max_by(|a, b| speaker_velocity(*a).total_cmp(&speaker_velocity(*b)))
            .unwrap();
        assert!((peak - 216.0).abs() < 216.0 * 0.05, "peak at {peak} Hz");
    }

    #[test]
    fn relay_stays_below_pull_in() {
        let x = relay_displacement(5.5);
        assert!(x > 4e-7 && x < 2e-6 / 3.0, "x = {x}");
    }

    #[test]
    fn tiny_grid_matches_hand_solution() {
        // 1×2 grid: 5 V — r — corner, corner loaded by 1 kΩ and the
        // quadratic sink: (5 − v)/r = v/1000 + 1e-4·v².
        let v = grid_dc_corner(1, 2, 1000.0, 0.0);
        let resid = (5.0 - v) / 1000.0 - v / 1000.0 - 1e-4 * v * v;
        assert!(resid.abs() < 1e-15, "residual {resid}");
    }
}
