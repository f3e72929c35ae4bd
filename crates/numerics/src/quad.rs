//! Numerical quadrature: Gauss–Legendre rules (used by the FE element
//! integrals and the Maxwell-stress contour integration) and composite
//! trapezoid/Simpson rules (used to integrate velocity traces into the
//! displacements plotted in Fig. 5).

/// Gauss–Legendre abscissae and weights on `[-1, 1]`.
///
/// Supported orders: 1–5 (exact for polynomials of degree `2n − 1`).
///
/// # Panics
///
/// Panics for unsupported orders.
pub fn gauss_legendre(order: usize) -> &'static [(f64, f64)] {
    // (abscissa, weight)
    const P1: [(f64, f64); 1] = [(0.0, 2.0)];
    const P2: [(f64, f64); 2] = [
        (-0.577_350_269_189_625_8, 1.0),
        (0.577_350_269_189_625_8, 1.0),
    ];
    const P3: [(f64, f64); 3] = [
        (-0.774_596_669_241_483_4, 0.555_555_555_555_555_6),
        (0.0, 0.888_888_888_888_889),
        (0.774_596_669_241_483_4, 0.555_555_555_555_555_6),
    ];
    const P4: [(f64, f64); 4] = [
        (-0.861_136_311_594_052_6, 0.347_854_845_137_453_9),
        (-0.339_981_043_584_856_3, 0.652_145_154_862_546_1),
        (0.339_981_043_584_856_3, 0.652_145_154_862_546_1),
        (0.861_136_311_594_052_6, 0.347_854_845_137_453_9),
    ];
    const P5: [(f64, f64); 5] = [
        (-0.906_179_845_938_664, 0.236_926_885_056_189_08),
        (-0.538_469_310_105_683, 0.478_628_670_499_366_47),
        (0.0, 0.568_888_888_888_888_9),
        (0.538_469_310_105_683, 0.478_628_670_499_366_47),
        (0.906_179_845_938_664, 0.236_926_885_056_189_08),
    ];
    match order {
        1 => &P1,
        2 => &P2,
        3 => &P3,
        4 => &P4,
        5 => &P5,
        _ => panic!("unsupported Gauss-Legendre order {order}"),
    }
}

/// Composite trapezoid rule over sampled data (irregular spacing OK).
///
/// Returns `0` for fewer than two samples.
pub fn trapezoid(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "trapezoid needs matching samples");
    xs.windows(2)
        .zip(ys.windows(2))
        .map(|(x, y)| 0.5 * (x[1] - x[0]) * (y[0] + y[1]))
        .sum()
}

/// Cumulative trapezoid integral (same length as the input, starts at
/// `y0`). This is how the experiment harness converts velocity traces
/// into displacement traces, mirroring the paper's "displacements
/// (integrals of velocities)".
pub fn cumtrapz(xs: &[f64], ys: &[f64], y0: f64) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len(), "cumtrapz needs matching samples");
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = y0;
    out.push(acc);
    for i in 1..xs.len() {
        acc += 0.5 * (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]);
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_rules_integrate_polynomials_exactly() {
        // ∫_{-1}^{1} f as the rule's sum of w·f(x).
        let integrate = |f: &dyn Fn(f64) -> f64, order| {
            gauss_legendre(order)
                .iter()
                .map(|&(x, w)| w * f(x))
                .sum::<f64>()
        };
        // order n is exact through degree 2n-1.
        for order in 1..=5 {
            let deg = 2 * order - 1;
            // deg = 2·order − 1 is odd, and ∫_{-1}^{1} x^odd dx = 0;
            // the even-degree check below uses x^(deg-1).
            let exact = 0.0;
            let got = integrate(&|x| x.powi(deg as i32), order);
            assert!((got - exact).abs() < 1e-13, "order {order} deg {deg}");
            let even = deg - 1;
            let exact_even = 2.0 / (even as f64 + 1.0);
            let got_even = integrate(&|x| x.powi(even as i32), order);
            assert!(
                (got_even - exact_even).abs() < 1e-12,
                "order {order} deg {even}: {got_even} vs {exact_even}"
            );
        }
    }

    #[test]
    fn gauss_weights_sum_to_two() {
        for order in 1..=5 {
            let s: f64 = gauss_legendre(order).iter().map(|&(_, w)| w).sum();
            assert!((s - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn trapezoid_linear_exact() {
        let xs = [0.0, 0.5, 2.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((trapezoid(&xs, &ys) - (3.0 * 2.0 / 2.0 * 2.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn cumtrapz_recovers_antiderivative() {
        let n = 1000;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n as f64 - 1.0)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.cos()).collect();
        let integral = cumtrapz(&xs, &ys, 0.0);
        for (x, v) in xs.iter().zip(&integral) {
            assert!((v - x.sin()).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn unsupported_order_panics() {
        gauss_legendre(9);
    }
}
