//! # mems-numerics
//!
//! Self-contained numerical substrate for the MEMS transducer tool
//! chain. Everything the simulator, the HDL interpreter, the FE solver
//! and the parameter extractor need lives here so the workspace has no
//! external numerical dependencies:
//!
//! - [`complex`] — a `Complex64` type with the usual field operations;
//! - [`dense`] — dense row-major matrices generic over a [`Scalar`];
//! - [`lu`] — LU factorization with partial pivoting (real and complex);
//! - [`qr`] — Householder QR and least-squares solves;
//! - [`sparse`] — triplet/CSR sparse matrices and products;
//! - [`cg`] — preconditioned conjugate gradient for SPD systems;
//! - [`dual`] — scalar forward-mode dual numbers;
//! - [`poly`] — polynomial evaluation, fitting, and Durand–Kerner roots;
//! - [`pwl`] — piecewise-linear and bilinear interpolation tables;
//! - [`quad`] — Gauss–Legendre and composite quadrature;
//! - [`rootfind`] — bisection and Brent's method;
//! - [`ode`] — integrator coefficients (BE/TR/BDF2) and an RK4
//!   reference integrator used by the test suites;
//! - [`cache`] — the stable 128-bit [`cache::Fingerprint`] and the one
//!   LRU cache ([`cache::Lru`]) behind every memo table;
//! - [`ordering`] — AMD-style fill-reducing elimination orderings for
//!   the sparse LU;
//! - [`etree`] — elimination-tree symbolic analysis (maximum
//!   transversal, postorder, column counts) for the supernodal path;
//! - [`supernodal`] — supernodal, level-scheduled parallel sparse LU
//!   for meshed systems beyond n ≈ 10³;
//! - [`par`] — the thread budget shared between parallel numeric
//!   kernels and outer sweep engines;
//! - [`stats`] — trace statistics shared by the experiment harness.
//!
//! # Example
//!
//! ```
//! use mems_numerics::dense::DenseMatrix;
//! use mems_numerics::lu::LuFactors;
//!
//! # fn main() -> Result<(), mems_numerics::NumericsError> {
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0][..], &[1.0, 3.0][..]]);
//! let lu = LuFactors::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// Index-based loops mirror the textbook matrix math they implement,
// and `!(x > y)` comparisons are deliberate NaN-rejecting guards.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]

pub mod cache;
pub mod cg;
pub mod complex;
pub mod dense;
pub mod dual;
pub mod etree;
pub mod lu;
pub mod ode;
pub mod ordering;
pub mod par;
pub mod poly;
pub mod pwl;
pub mod qr;
pub mod quad;
pub mod rootfind;
pub mod scalar;
pub mod sparse;
pub mod sparse_lu;
pub mod stats;
pub mod supernodal;

pub use complex::Complex64;
pub use dense::DenseMatrix;
pub use dual::Dual64;
pub use scalar::Scalar;

use std::fmt;

/// Errors produced by the numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A matrix was singular (or numerically singular) at the given
    /// pivot/column index.
    Singular { index: usize },
    /// Dimensions of the operands do not agree.
    DimensionMismatch { expected: usize, found: usize },
    /// An iterative method failed to converge within its budget.
    NoConvergence { iterations: usize, residual: f64 },
    /// The input violates a documented precondition.
    InvalidInput(String),
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::Singular { index } => {
                write!(f, "matrix is singular at pivot {index}")
            }
            NumericsError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumericsError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            NumericsError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for NumericsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NumericsError>;

/// Returns `true` when `a` and `b` agree to `rel` relative or `abs`
/// absolute tolerance, whichever is looser.
///
/// ```
/// assert!(mems_numerics::approx_eq(1.0, 1.0 + 1e-13, 1e-9, 1e-12));
/// ```
pub fn approx_eq(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}
