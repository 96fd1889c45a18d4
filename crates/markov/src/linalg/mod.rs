//! Dense linear algebra primitives used by the Markov-chain solvers.
//!
//! The configuration models of the paper only ever need moderately sized
//! dense systems: a workflow CTMC has as many states as the workflow has
//! activities (tens), and the availability CTMC has `Π (Y_x + 1)` states,
//! which stays in the low thousands for realistic replication degrees.
//! A small, dependency-free dense implementation is therefore both
//! sufficient and easy to audit against the formulas in the paper.
//!
//! Provided here:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual algebra.
//! * [`lu`] — LU decomposition with partial pivoting (direct solves).
//! * [`iterative`] — the options of the Gauss–Seidel steady-state sweep
//!   the paper names (Sec. 5.2), plus power iteration for stochastic
//!   matrices.
//! * [`sparse`] — compressed-sparse-row matrices for the transient
//!   kernels.

pub mod iterative;
pub mod lu;
pub mod matrix;
pub mod sparse;

pub use iterative::{power_iteration, GaussSeidelOptions, IterativeError, IterativeSolution};
pub use lu::{LuDecomposition, LuError};
pub use matrix::{Matrix, MatrixError};
pub use sparse::{CsrMatrix, SparseError};

/// Maximum relative difference between two vectors, `max_i |a_i - b_i| /
/// max(1, |b_i|)`.
///
/// Used as the convergence criterion of the iterative solvers and by the
/// test-suite when comparing solver families against each other.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn relative_difference(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / y.abs().max(1.0))
        .fold(0.0, f64::max)
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Maximum-magnitude (infinity) norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Sum of the entries of a vector (the L1 "mass" of a probability vector).
pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Normalizes `v` in place so its entries sum to one.
///
/// Returns `false` (leaving `v` untouched) when the sum is zero or not
/// finite, which would make the normalization meaningless.
pub fn normalize_probabilities(v: &mut [f64]) -> bool {
    let s = sum(v);
    if s <= 0.0 || !s.is_finite() {
        return false;
    }
    for x in v.iter_mut() {
        *x /= s;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_identical_vectors_is_zero() {
        assert_eq!(relative_difference(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn relative_difference_scales_by_reference_magnitude() {
        // |11 - 10| / 10 = 0.1
        let d = relative_difference(&[11.0], &[10.0]);
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_difference_uses_absolute_error_for_small_entries() {
        // Reference entry below 1 in magnitude -> denominator clamps to 1.
        let d = relative_difference(&[0.3], &[0.1]);
        assert!((d - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn relative_difference_rejects_length_mismatch() {
        relative_difference(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms_agree_on_simple_vectors() {
        let v = [3.0, -4.0];
        assert!((norm2(&v) - 5.0).abs() < 1e-12);
        assert_eq!(norm_inf(&v), 4.0);
        assert_eq!(sum(&v), -1.0);
    }

    #[test]
    fn normalize_probabilities_produces_unit_mass() {
        let mut v = [2.0, 6.0];
        assert!(normalize_probabilities(&mut v));
        assert_eq!(v, [0.25, 0.75]);
    }

    #[test]
    fn normalize_probabilities_rejects_zero_mass() {
        let mut v = [0.0, 0.0];
        assert!(!normalize_probabilities(&mut v));
        assert_eq!(v, [0.0, 0.0]);
    }

    #[test]
    fn normalize_probabilities_rejects_nan_mass() {
        let mut v = [f64::NAN, 1.0];
        assert!(!normalize_probabilities(&mut v));
    }
}
