//! Rational transfer-function fitting of sampled frequency responses
//! (Levy's weighted linear least squares), with pole-stability
//! checking via polynomial roots.
//!
//! The paper: "Harmonic FE analysis produces real and imaginary data
//! of DOFs as discrete functions of frequencies … A polynomial filter
//! is fitted to such a macro model, and thus generating a data flow
//! HDL-A model."

use crate::error::{PxtError, Result};
use mems_fem::FrequencyResponse;
use mems_numerics::dense::DenseMatrix;
use mems_numerics::poly::Polynomial;
use mems_numerics::qr::least_squares;
use mems_numerics::Complex64;

/// A fitted rational transfer function
/// `H(s) = num(s) / den(s)` with `den(0) = 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct RationalFit {
    /// Numerator coefficients (ascending powers of `s`).
    pub num: Polynomial,
    /// Denominator coefficients (ascending, constant term 1).
    pub den: Polynomial,
    /// Maximum relative magnitude error over the fitted samples.
    pub max_rel_error: f64,
}

impl RationalFit {
    /// Evaluates the fit at a frequency \[Hz\].
    pub fn eval(&self, freq: f64) -> Complex64 {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * freq);
        self.num.eval_complex(s) / self.den.eval_complex(s)
    }

    /// The poles (roots of the denominator).
    ///
    /// # Errors
    ///
    /// Propagates root-finding failures.
    pub fn poles(&self) -> Result<Vec<Complex64>> {
        Ok(self.den.roots()?)
    }

    /// Returns `true` when every pole lies strictly in the left half
    /// plane.
    ///
    /// # Errors
    ///
    /// Propagates root-finding failures.
    pub fn is_stable(&self) -> Result<bool> {
        Ok(self.poles()?.iter().all(|p| p.re < 0.0))
    }

    /// Evaluates the fit over a frequency grid.
    pub fn response(&self, freqs: &[f64]) -> FrequencyResponse {
        FrequencyResponse::new(
            freqs.to_vec(),
            freqs.iter().map(|&f| self.eval(f)).collect(),
        )
    }
}

/// Fits `H(s) = N(s)/D(s)` with `deg N = num_deg`, `deg D = den_deg`
/// to a sampled response, using Levy's linearization with relative
/// weighting and internal frequency scaling for conditioning.
///
/// # Errors
///
/// - [`PxtError::BadRequest`] when there are too few samples;
/// - fitting failures from the least-squares solve.
pub fn fit_rational(
    response: &FrequencyResponse,
    num_deg: usize,
    den_deg: usize,
) -> Result<RationalFit> {
    let n_unknowns = (num_deg + 1) + den_deg;
    if response.len() * 2 < n_unknowns {
        return Err(PxtError::BadRequest(format!(
            "{} samples cannot determine {} coefficients",
            response.len(),
            n_unknowns
        )));
    }
    if den_deg == 0 {
        return Err(PxtError::BadRequest(
            "denominator degree must be at least 1".into(),
        ));
    }
    // Frequency scaling: s' = s / w_ref keeps the Vandermonde terms
    // of similar magnitude.
    let w_ref = reference_omega(&response.freqs);
    let rows = response.len() * 2;
    let mut a = DenseMatrix::zeros(rows, n_unknowns);
    let mut b = vec![0.0; rows];
    for (k, (&f, &h)) in response.freqs.iter().zip(&response.h).enumerate() {
        let w = 2.0 * std::f64::consts::PI * f / w_ref;
        let s = Complex64::new(0.0, w);
        // Relative weighting tames dynamic range.
        let weight = 1.0 / h.abs().max(1e-300);
        // Σ b_j s^j − H·Σ_{i≥1} d_i s^i = H
        let mut s_pow = Complex64::ONE;
        for j in 0..=num_deg {
            a[(2 * k, j)] = s_pow.re * weight;
            a[(2 * k + 1, j)] = s_pow.im * weight;
            s_pow *= s;
        }
        let mut s_pow = s;
        for i in 0..den_deg {
            let t = -(h * s_pow);
            a[(2 * k, num_deg + 1 + i)] = t.re * weight;
            a[(2 * k + 1, num_deg + 1 + i)] = t.im * weight;
            s_pow *= s;
        }
        b[2 * k] = h.re * weight;
        b[2 * k + 1] = h.im * weight;
    }
    let coeffs = least_squares(&a, &b)?;
    // Unscale: b_j ← b_j / w_ref^j, d_i ← d_i / w_ref^i.
    let mut num = Vec::with_capacity(num_deg + 1);
    for (j, c) in coeffs[..=num_deg].iter().enumerate() {
        num.push(c / w_ref.powi(j as i32));
    }
    let mut den = vec![1.0];
    for (i, c) in coeffs[num_deg + 1..].iter().enumerate() {
        den.push(c / w_ref.powi(i as i32 + 1));
    }
    let mut fit = RationalFit {
        num: Polynomial::new(num),
        den: Polynomial::new(den),
        max_rel_error: 0.0,
    };
    fit.max_rel_error = fit.response(&response.freqs).max_rel_error(response);
    Ok(fit)
}

/// Reflects unstable poles into the left half plane (a vector-fitting
/// style repair) and refits the numerator only.
///
/// # Errors
///
/// Propagates root-finding and least-squares failures.
pub fn stabilize(fit: &RationalFit, response: &FrequencyResponse) -> Result<RationalFit> {
    let poles = fit.poles()?;
    if poles.iter().all(|p| p.re < 0.0) {
        return Ok(fit.clone());
    }
    let flipped: Vec<Complex64> = poles
        .iter()
        .map(|p| {
            if p.re >= 0.0 {
                Complex64::new(-p.re.max(1e-6 * p.abs()), p.im)
            } else {
                *p
            }
        })
        .collect();
    // Rebuild the denominator from the flipped poles (monic → scale to
    // den(0) = 1).
    let mut den = vec![Complex64::ONE];
    for p in &flipped {
        // den ← den·(s − p)
        let mut next = vec![Complex64::ZERO; den.len() + 1];
        for (i, &c) in den.iter().enumerate() {
            next[i + 1] += c;
            next[i] += c * (-*p);
        }
        den = next;
    }
    let d0 = den[0];
    let den_real: Vec<f64> = den.iter().map(|c| (*c / d0).re).collect();
    let den_poly = Polynomial::new(den_real);
    // Refit numerator with the denominator frozen: N(s) = H·D(s).
    let num_deg = fit.num.degree();
    let rows = response.len() * 2;
    let mut a = DenseMatrix::zeros(rows, num_deg + 1);
    let mut b = vec![0.0; rows];
    for (k, (&f, &h)) in response.freqs.iter().zip(&response.h).enumerate() {
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        let weight = 1.0 / h.abs().max(1e-300);
        let mut s_pow = Complex64::ONE;
        for j in 0..=num_deg {
            a[(2 * k, j)] = s_pow.re * weight;
            a[(2 * k + 1, j)] = s_pow.im * weight;
            s_pow *= s;
        }
        let target = h * den_poly.eval_complex(s);
        b[2 * k] = target.re * weight;
        b[2 * k + 1] = target.im * weight;
    }
    let num = least_squares(&a, &b)?;
    let mut out = RationalFit {
        num: Polynomial::new(num),
        den: den_poly,
        max_rel_error: 0.0,
    };
    out.max_rel_error = out.response(&response.freqs).max_rel_error(response);
    Ok(out)
}

fn reference_omega(freqs: &[f64]) -> f64 {
    // Geometric mean of the positive frequencies.
    let logs: Vec<f64> = freqs
        .iter()
        .filter(|f| **f > 0.0)
        .map(|f| (2.0 * std::f64::consts::PI * f).ln())
        .collect();
    if logs.is_empty() {
        1.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(h: impl Fn(Complex64) -> Complex64, freqs: &[f64]) -> FrequencyResponse {
        FrequencyResponse::new(
            freqs.to_vec(),
            freqs
                .iter()
                .map(|&f| h(Complex64::new(0.0, 2.0 * std::f64::consts::PI * f)))
                .collect(),
        )
    }

    fn log_freqs(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| lo * (hi / lo).powf(i as f64 / (n as f64 - 1.0)))
            .collect()
    }

    #[test]
    fn recovers_first_order_lowpass() {
        let tau = 1e-3;
        let resp = sample(
            |s| (s * tau + Complex64::ONE).recip(),
            &log_freqs(1.0, 1e4, 25),
        );
        let fit = fit_rational(&resp, 0, 1).unwrap();
        assert!(fit.max_rel_error < 1e-9, "err {}", fit.max_rel_error);
        assert!((fit.num.coeffs()[0] - 1.0).abs() < 1e-9);
        assert!((fit.den.coeffs()[1] - tau).abs() < tau * 1e-9);
        assert!(fit.is_stable().unwrap());
    }

    #[test]
    fn recovers_second_order_resonator() {
        // The Table 4 resonator compliance: X/F = 1/(m s² + α s + k).
        let (m, alpha, k) = (1e-4, 40e-3, 200.0);
        let resp = sample(
            |s| (s * s * m + s * alpha + Complex64::from_re(k)).recip(),
            &log_freqs(10.0, 2e3, 40),
        );
        let fit = fit_rational(&resp, 0, 2).unwrap();
        assert!(fit.max_rel_error < 1e-8, "err {}", fit.max_rel_error);
        // den(0)=1 normalization → den = [1, α/k, m/k].
        let d = fit.den.coeffs();
        assert!((d[1] - alpha / k).abs() < alpha / k * 1e-6);
        assert!((d[2] - m / k).abs() < m / k * 1e-6);
        // Poles at the damped resonance.
        let poles = fit.poles().unwrap();
        let wd = (k / m - (alpha / (2.0 * m)).powi(2)).sqrt();
        for p in poles {
            assert!(p.re < 0.0);
            assert!((p.im.abs() - wd).abs() < wd * 1e-6);
        }
    }

    #[test]
    fn fits_with_zeros() {
        // Band-stop-ish: H = (1 + s²·τ²)/(1 + 3sτ + s²τ²).
        let tau = 1e-4;
        let resp = sample(
            |s| {
                let st = s * tau;
                (st * st + Complex64::ONE) / (st * st + st * 3.0 + Complex64::ONE)
            },
            &log_freqs(10.0, 1e5, 40),
        );
        let fit = fit_rational(&resp, 2, 2).unwrap();
        assert!(fit.max_rel_error < 1e-8, "err {}", fit.max_rel_error);
    }

    #[test]
    fn rejects_underdetermined() {
        let resp = sample(|_| Complex64::ONE, &[1.0, 2.0]);
        assert!(fit_rational(&resp, 3, 3).is_err());
        assert!(fit_rational(&resp, 0, 0).is_err());
    }

    #[test]
    fn stabilize_flips_poles() {
        // Construct a fit with a RHP pole by hand: den = 1 − s·τ.
        let tau = 1e-3;
        let resp = sample(
            |s| (s * tau + Complex64::ONE).recip(),
            &log_freqs(1.0, 1e4, 30),
        );
        let bad = RationalFit {
            num: Polynomial::new(vec![1.0]),
            den: Polynomial::new(vec![1.0, -tau]),
            max_rel_error: f64::NAN,
        };
        assert!(!bad.is_stable().unwrap());
        let fixed = stabilize(&bad, &resp).unwrap();
        assert!(fixed.is_stable().unwrap());
        // The repaired fit matches the (stable) reference response.
        assert!(fixed.max_rel_error < 1e-6, "err {}", fixed.max_rel_error);
    }
}
