//! Implicit integration coefficients.
//!
//! The transient engine discretizes `ddt(x)` at time `t_{n+1}` as
//! `ddt(x) ≈ c0·x_{n+1} + history`, where `c0` and the history depend
//! on the [`IntegrationMethod`]. This mirrors the companion-model
//! formulation of classic SPICE implementations and is shared by the
//! native reactive devices and the HDL `ddt`/`integ` call sites.

/// The implicit integration method for transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Backward Euler: L-stable, first order, damps oscillations.
    BackwardEuler,
    /// Trapezoidal: A-stable, second order; the SPICE default and the
    /// method used for the Fig. 5 reproduction (under-damped resonator).
    #[default]
    Trapezoidal,
    /// Gear-2 (BDF2): stiffly stable, second order.
    Gear2,
}

impl IntegrationMethod {
    /// Local truncation error order.
    pub fn order(self) -> usize {
        match self {
            IntegrationMethod::BackwardEuler => 1,
            IntegrationMethod::Trapezoidal | IntegrationMethod::Gear2 => 2,
        }
    }
}

/// Per-step differentiation formula `x' ≈ c0·x + hist`.
///
/// For a quantity with previous value `x_prev`, previous derivative
/// `dx_prev`, and previous-previous value `x_prev2` (Gear-2 only):
///
/// - BE:   `x' = (x − x_prev)/h`                      → `c0 = 1/h`
/// - TR:   `x' = 2(x − x_prev)/h − dx_prev`           → `c0 = 2/h`
/// - BDF2: `x' = (3x − 4x_prev + x_prev2)/(2h)`       → `c0 = 3/(2h)`
///   (equal steps; variable-step BDF2 coefficients are produced by
///   [`DiffFormula::gear2_variable`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffFormula {
    /// Coefficient of the *new* value in the derivative formula.
    pub c0: f64,
    /// Everything else (a constant during one Newton solve).
    pub hist: f64,
}

impl DiffFormula {
    /// Builds the formula for `method` with step `h`.
    ///
    /// `x_prev` / `dx_prev` / `x_prev2` are the stored history values;
    /// unused ones are ignored by the simpler methods. `h_prev` is the
    /// previous step length (Gear-2 variable-step only).
    pub fn new(
        method: IntegrationMethod,
        h: f64,
        x_prev: f64,
        dx_prev: f64,
        x_prev2: f64,
        h_prev: f64,
        have_two_points: bool,
    ) -> Self {
        match method {
            IntegrationMethod::BackwardEuler => DiffFormula {
                c0: 1.0 / h,
                hist: -x_prev / h,
            },
            IntegrationMethod::Trapezoidal => DiffFormula {
                c0: 2.0 / h,
                hist: -2.0 * x_prev / h - dx_prev,
            },
            IntegrationMethod::Gear2 => {
                if have_two_points {
                    Self::gear2_variable(h, h_prev, x_prev, x_prev2)
                } else {
                    // First step falls back to BE.
                    DiffFormula {
                        c0: 1.0 / h,
                        hist: -x_prev / h,
                    }
                }
            }
        }
    }

    /// Variable-step BDF2 coefficients.
    pub fn gear2_variable(h: f64, h_prev: f64, x_prev: f64, x_prev2: f64) -> Self {
        let r = h / h_prev;
        let c0 = (1.0 + 2.0 * r) / (h * (1.0 + r));
        let c1 = -(1.0 + r) / h;
        let c2 = r * r / (h * (1.0 + r));
        DiffFormula {
            c0,
            hist: c1 * x_prev + c2 * x_prev2,
        }
    }

    /// Applies the formula: derivative of the new value `x`.
    pub fn ddt(&self, x: f64) -> f64 {
        self.c0 * x + self.hist
    }
}

/// Per-step integration formula `∫x ≈ (1/c0)·x + hist` (the inverse
/// view used by HDL `integ` sites): `y_{n+1} = y_n + step(x)`.
///
/// - BE: `y += h·x`
/// - TR: `y += h/2·(x + x_prev)`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegFormula {
    /// Coefficient of the new integrand value.
    pub gain: f64,
    /// Constant part (previous integral plus weighted old integrand).
    pub hist: f64,
}

impl IntegFormula {
    /// Builds the formula for `method` with step `h`, previous
    /// integral `y_prev` and previous integrand `x_prev`.
    pub fn new(method: IntegrationMethod, h: f64, y_prev: f64, x_prev: f64) -> Self {
        match method {
            IntegrationMethod::BackwardEuler | IntegrationMethod::Gear2 => IntegFormula {
                gain: h,
                hist: y_prev,
            },
            IntegrationMethod::Trapezoidal => IntegFormula {
                gain: 0.5 * h,
                hist: y_prev + 0.5 * h * x_prev,
            },
        }
    }

    /// Applies the formula: integral value given the new integrand `x`.
    pub fn integ(&self, x: f64) -> f64 {
        self.gain * x + self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_formula_differentiates_linear_ramp() {
        // x(t) = 3t sampled at h = 0.1: derivative 3 exactly.
        let h = 0.1;
        let f = DiffFormula::new(IntegrationMethod::BackwardEuler, h, 0.3, 0.0, 0.0, h, false);
        assert!((f.ddt(0.3 + 3.0 * h) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tr_formula_is_second_order_on_quadratic() {
        // x(t) = t²: TR derivative at t+h given exact history is exact
        // for quadratics: x' = 2(x_new - x_old)/h - x'_old.
        let h = 0.05;
        let t = 1.0;
        let f = DiffFormula::new(
            IntegrationMethod::Trapezoidal,
            h,
            t * t,
            2.0 * t,
            0.0,
            h,
            true,
        );
        let t1 = t + h;
        assert!((f.ddt(t1 * t1) - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn gear2_exact_on_quadratic_equal_steps() {
        let h = 0.1;
        let x = |t: f64| t * t;
        let t2 = 1.0;
        let f = DiffFormula::gear2_variable(h, h, x(t2 - h), x(t2 - 2.0 * h));
        assert!((f.ddt(x(t2)) - 2.0 * t2).abs() < 1e-10);
    }

    #[test]
    fn gear2_exact_on_quadratic_variable_steps() {
        let (h, hp) = (0.1, 0.07);
        let x = |t: f64| 3.0 * t * t - t;
        let tn = 2.0;
        let f = DiffFormula::gear2_variable(h, hp, x(tn - h), x(tn - h - hp));
        assert!((f.ddt(x(tn)) - (6.0 * tn - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn integ_formulas_accumulate() {
        let h = 0.2;
        // BE: y1 = y0 + h·x1
        let f = IntegFormula::new(IntegrationMethod::BackwardEuler, h, 1.0, 0.0);
        assert!((f.integ(5.0) - 2.0).abs() < 1e-14);
        // TR: y1 = y0 + h/2 (x1 + x0)
        let f = IntegFormula::new(IntegrationMethod::Trapezoidal, h, 1.0, 3.0);
        assert!((f.integ(5.0) - (1.0 + 0.1 * 8.0)).abs() < 1e-14);
    }

    #[test]
    fn orders() {
        assert_eq!(IntegrationMethod::BackwardEuler.order(), 1);
        assert_eq!(IntegrationMethod::Trapezoidal.order(), 2);
        assert_eq!(IntegrationMethod::Gear2.order(), 2);
    }
}
