//! Polynomials: evaluation, differentiation, least-squares fitting
//! (with domain scaling for conditioning) and Durand–Kerner root
//! finding.
//!
//! The PXT model generator fits `C(x)` and `F(V, x) = V²·p(x)` as
//! polynomials and emits closed-form HDL-A expressions; the rational
//! transfer-function fitter needs denominator roots for stability
//! checking.

use crate::complex::Complex64;
use crate::dense::DenseMatrix;
use crate::qr;
use crate::{NumericsError, Result};

/// A real polynomial in ascending coefficient order:
/// `p(x) = c₀ + c₁·x + … + cₙ·xⁿ`.
///
/// ```
/// use mems_numerics::poly::Polynomial;
/// let p = Polynomial::new(vec![1.0, 0.0, 1.0]); // 1 + x²
/// assert_eq!(p.eval(2.0), 5.0);
/// assert_eq!(p.derivative().eval(2.0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Builds a polynomial from ascending coefficients.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Polynomial { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![0.0] }
    }

    fn trim(&mut self) {
        while self.coeffs.len() > 1 && self.coeffs.last() == Some(&0.0) {
            self.coeffs.pop();
        }
        if self.coeffs.is_empty() {
            self.coeffs.push(0.0);
        }
    }

    /// Degree (0 for constants, including the zero polynomial).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Ascending coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Horner evaluation.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Horner evaluation at a complex point.
    pub fn eval_complex(&self, z: Complex64) -> Complex64 {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex64::ZERO, |acc, &c| acc * z + Complex64::from_re(c))
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() <= 1 {
            return Polynomial::zero();
        }
        Polynomial::new(
            self.coeffs[1..]
                .iter()
                .enumerate()
                .map(|(i, &c)| c * (i as f64 + 1.0))
                .collect(),
        )
    }

    /// All complex roots via Durand–Kerner iteration.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::NoConvergence`] if the iteration fails
    /// (rare for the modest degrees used here) and
    /// [`NumericsError::InvalidInput`] for the zero polynomial.
    pub fn roots(&self) -> Result<Vec<Complex64>> {
        let n = self.degree();
        if n == 0 {
            return if self.coeffs[0] == 0.0 {
                Err(NumericsError::InvalidInput(
                    "zero polynomial has indeterminate roots".into(),
                ))
            } else {
                Ok(Vec::new())
            };
        }
        // Monic normalization.
        let lead = self.coeffs[n];
        let monic: Vec<f64> = self.coeffs.iter().map(|c| c / lead).collect();
        let poly = Polynomial { coeffs: monic };
        // Initial guesses on a non-real circle (Aberth-style).
        let radius = 1.0 + poly.coeffs[..n].iter().map(|c| c.abs()).fold(0.0, f64::max);
        let mut z: Vec<Complex64> = (0..n)
            .map(|k| {
                let angle = 2.0 * std::f64::consts::PI * (k as f64) / (n as f64) + 0.4;
                Complex64::from_polar(radius * 0.8, angle)
            })
            .collect();
        let max_iter = 500;
        for it in 0..max_iter {
            let mut max_step = 0.0f64;
            for i in 0..n {
                let mut denom = Complex64::ONE;
                for j in 0..n {
                    if i != j {
                        denom *= z[i] - z[j];
                    }
                }
                if denom.abs() == 0.0 {
                    // Perturb coincident estimates.
                    z[i] += Complex64::new(1e-8, 1e-8);
                    continue;
                }
                let step = poly.eval_complex(z[i]) / denom;
                z[i] -= step;
                max_step = max_step.max(step.abs());
            }
            if max_step < 1e-13 * radius.max(1.0) {
                return Ok(z);
            }
            if it == max_iter - 1 {
                return Err(NumericsError::NoConvergence {
                    iterations: max_iter,
                    residual: max_step,
                });
            }
        }
        unreachable!()
    }
}

/// A polynomial fitted on a scaled domain `u = (x − shift)/scale`,
/// which keeps Vandermonde systems well conditioned.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledPolynomial {
    /// Polynomial in the scaled variable `u`.
    pub poly: Polynomial,
    /// Domain shift (midpoint of the fitted data).
    pub shift: f64,
    /// Domain scale (half-width of the fitted data).
    pub scale: f64,
}

impl ScaledPolynomial {
    /// Evaluates at an unscaled point.
    pub fn eval(&self, x: f64) -> f64 {
        self.poly.eval((x - self.shift) / self.scale)
    }

    /// Derivative with respect to the unscaled variable.
    pub fn deriv(&self, x: f64) -> f64 {
        self.poly.derivative().eval((x - self.shift) / self.scale) / self.scale
    }

    /// Expands into an unscaled-variable [`Polynomial`].
    ///
    /// Only sensible for modest degrees (used by code generation to
    /// print closed-form expressions).
    pub fn expand(&self) -> Polynomial {
        // Compose p((x - shift)/scale) by repeated synthetic substitution.
        let mut result = Polynomial::zero();
        // powers of (x - shift)/scale built iteratively.
        let base = Polynomial::new(vec![-self.shift / self.scale, 1.0 / self.scale]);
        let mut pow = Polynomial::new(vec![1.0]);
        for &c in self.poly.coeffs() {
            let term: Vec<f64> = pow.coeffs().iter().map(|v| v * c).collect();
            result = poly_add(&result, &Polynomial::new(term));
            pow = poly_mul(&pow, &base);
        }
        result
    }
}

/// Adds two polynomials.
pub fn poly_add(a: &Polynomial, b: &Polynomial) -> Polynomial {
    let n = a.coeffs().len().max(b.coeffs().len());
    let mut c = vec![0.0; n];
    for (i, &v) in a.coeffs().iter().enumerate() {
        c[i] += v;
    }
    for (i, &v) in b.coeffs().iter().enumerate() {
        c[i] += v;
    }
    Polynomial::new(c)
}

/// Multiplies two polynomials.
pub fn poly_mul(a: &Polynomial, b: &Polynomial) -> Polynomial {
    let mut c = vec![0.0; a.coeffs().len() + b.coeffs().len() - 1];
    for (i, &ai) in a.coeffs().iter().enumerate() {
        for (j, &bj) in b.coeffs().iter().enumerate() {
            c[i + j] += ai * bj;
        }
    }
    Polynomial::new(c)
}

/// Least-squares fits a degree-`deg` polynomial through `(x, y)` data
/// on a scaled domain.
///
/// # Errors
///
/// - [`NumericsError::InvalidInput`] when there are fewer points than
///   coefficients or the x-range is degenerate;
/// - factorization errors from the QR solve.
pub fn polyfit(xs: &[f64], ys: &[f64], deg: usize) -> Result<ScaledPolynomial> {
    if xs.len() != ys.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: xs.len(),
            found: ys.len(),
        });
    }
    if xs.len() < deg + 1 {
        return Err(NumericsError::InvalidInput(format!(
            "need at least {} points for degree {deg}, got {}",
            deg + 1,
            xs.len()
        )));
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let shift = 0.5 * (lo + hi);
    let scale = if hi > lo { 0.5 * (hi - lo) } else { 1.0 };
    if deg > 0 && hi == lo {
        return Err(NumericsError::InvalidInput(
            "degenerate x-range for polynomial fit".into(),
        ));
    }
    let a = DenseMatrix::from_fn(xs.len(), deg + 1, |i, j| {
        ((xs[i] - shift) / scale).powi(j as i32)
    });
    let coeffs = qr::least_squares(&a, ys)?;
    Ok(ScaledPolynomial {
        poly: Polynomial::new(coeffs),
        shift,
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_derivative() {
        let p = Polynomial::new(vec![1.0, -2.0, 3.0]); // 1 - 2x + 3x²
        assert_eq!(p.eval(2.0), 9.0);
        assert_eq!(p.derivative().coeffs(), &[-2.0, 6.0]);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn trim_removes_leading_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        let z = Polynomial::new(vec![]);
        assert_eq!(z.coeffs(), &[0.0]);
    }

    #[test]
    fn polyfit_recovers_exact_cubic() {
        let xs: Vec<f64> = (0..20).map(|i| 1.0 + 0.05 * i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 0.5 - x + 2.0 * x * x - 0.25 * x * x * x)
            .collect();
        let fit = polyfit(&xs, &ys, 3).unwrap();
        for &x in &xs {
            assert!((fit.eval(x) - (0.5 - x + 2.0 * x * x - 0.25 * x * x * x)).abs() < 1e-10);
        }
        // Derivative of the fit matches analytic derivative.
        let x = 1.3;
        let d_true = -1.0 + 4.0 * x - 0.75 * x * x;
        assert!((fit.deriv(x) - d_true).abs() < 1e-8);
    }

    #[test]
    fn expanded_polynomial_matches_scaled_eval() {
        let xs: Vec<f64> = (0..10).map(|i| -2.0 + 0.5 * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 3.0 * x - 0.5 * x * x).collect();
        let fit = polyfit(&xs, &ys, 2).unwrap();
        let expanded = fit.expand();
        for &x in &xs {
            assert!((expanded.eval(x) - fit.eval(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn polyfit_on_microscale_domain_is_well_conditioned() {
        // Displacements are ~1e-8 m: raw Vandermonde would be abysmal.
        let xs: Vec<f64> = (0..15).map(|i| 1e-8 * (i as f64 - 7.0)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5e-12 * (1.0 + x / 1.5e-4)).collect();
        let fit = polyfit(&xs, &ys, 2).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((fit.eval(x) - y).abs() < y.abs() * 1e-9);
        }
    }

    #[test]
    fn polyfit_rejects_insufficient_points() {
        assert!(matches!(
            polyfit(&[1.0, 2.0], &[1.0, 2.0], 2),
            Err(NumericsError::InvalidInput(_))
        ));
    }

    #[test]
    fn roots_of_quadratic() {
        // (x-2)(x+3) = x² + x − 6
        let p = Polynomial::new(vec![-6.0, 1.0, 1.0]);
        let mut roots = p.roots().unwrap();
        roots.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        assert!((roots[0].re - -3.0).abs() < 1e-9 && roots[0].im.abs() < 1e-9);
        assert!((roots[1].re - 2.0).abs() < 1e-9 && roots[1].im.abs() < 1e-9);
    }

    #[test]
    fn roots_of_complex_pair() {
        // x² + 1 → ±j
        let p = Polynomial::new(vec![1.0, 0.0, 1.0]);
        let roots = p.roots().unwrap();
        for r in &roots {
            assert!(r.re.abs() < 1e-9);
            assert!((r.im.abs() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn roots_of_damped_resonator_denominator() {
        // m s² + α s + k with Table-4 values: poles in the left half plane.
        let (m, alpha, k) = (1e-4, 40e-3, 200.0);
        let p = Polynomial::new(vec![k, alpha, m]);
        let roots = p.roots().unwrap();
        assert_eq!(roots.len(), 2);
        for r in &roots {
            assert!(r.re < 0.0, "pole {r} not stable");
            // |im| ≈ ω_d = sqrt(k/m - (α/2m)²)
            let wd = (k / m - (alpha / (2.0 * m)).powi(2)).sqrt();
            assert!((r.im.abs() - wd).abs() < wd * 1e-6);
        }
    }

    #[test]
    fn poly_mul_and_add() {
        let a = Polynomial::new(vec![1.0, 1.0]); // 1 + x
        let b = Polynomial::new(vec![-1.0, 1.0]); // -1 + x
        assert_eq!(poly_mul(&a, &b).coeffs(), &[-1.0, 0.0, 1.0]);
        assert_eq!(poly_add(&a, &b).coeffs(), &[0.0, 2.0]);
    }
}
