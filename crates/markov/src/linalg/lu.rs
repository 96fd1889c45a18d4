//! LU decomposition with partial pivoting.
//!
//! The direct-solver counterpart to the paper's Gauss–Seidel: both the
//! first-passage system of Sec. 4.1 and the steady-state system of
//! Sec. 5.2 are small enough that an `O(n^3)` factorization is often the
//! fastest *and* most robust option. The test-suite and the solver bench
//! cross-check the two families against each other.

use std::fmt;

use super::matrix::Matrix;

/// Errors raised by the LU factorization and solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuError {
    /// The matrix to factor is not square.
    NotSquare {
        /// Offending shape.
        shape: (usize, usize),
    },
    /// A pivot smaller than the singularity threshold was encountered.
    Singular {
        /// Elimination column at which the factorization broke down.
        column: usize,
    },
    /// The right-hand side length does not match the system size.
    RhsLengthMismatch {
        /// System size.
        n: usize,
        /// Supplied right-hand-side length.
        rhs_len: usize,
    },
}

impl fmt::Display for LuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuError::NotSquare { shape } => {
                write!(
                    f,
                    "cannot LU-factor non-square {}x{} matrix",
                    shape.0, shape.1
                )
            }
            LuError::Singular { column } => {
                write!(
                    f,
                    "matrix is singular to working precision (pivot column {column})"
                )
            }
            LuError::RhsLengthMismatch { n, rhs_len } => {
                write!(
                    f,
                    "right-hand side of length {rhs_len} for a system of size {n}"
                )
            }
        }
    }
}

impl std::error::Error for LuError {}

/// Pivot magnitudes below this are treated as singular.
const PIVOT_EPSILON: f64 = 1e-13;

/// An LU factorization `P·A = L·U` with partial pivoting, stored compactly
/// (strict lower triangle of `L` and full `U` share one matrix).
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    /// `perm[i]` is the row of the original matrix that ended up in row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
}

impl LuDecomposition {
    /// Factors `a` as `P·A = L·U`.
    ///
    /// # Errors
    /// * [`LuError::NotSquare`] when `a` is not square.
    /// * [`LuError::Singular`] when a zero (within tolerance) pivot appears.
    pub fn new(a: &Matrix) -> Result<Self, LuError> {
        if !a.is_square() {
            return Err(LuError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k at/below row k.
            let Some((pivot_row, pivot_abs)) = (k..n)
                .map(|r| (r, lu[(r, k)].abs()))
                .max_by(|x, y| x.1.total_cmp(&y.1))
            else {
                return Err(LuError::Singular { column: k });
            };
            if pivot_abs < PIVOT_EPSILON || !pivot_abs.is_finite() {
                return Err(LuError::Singular { column: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    lu[(r, c)] -= factor * lu[(k, c)];
                }
            }
        }
        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
        })
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    /// Returns [`LuError::RhsLengthMismatch`] when `b.len() != self.n()`.
    #[allow(clippy::needless_range_loop)] // triangular index ranges read clearer
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        let n = self.n();
        if b.len() != n {
            return Err(LuError::RhsLengthMismatch {
                n,
                rhs_len: b.len(),
            });
        }
        // Apply permutation, then forward-substitute through L (unit diagonal).
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // Back-substitute through U.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s / self.lu[(i, i)];
        }
        Ok(y)
    }

    /// Determinant of the factored matrix.
    pub fn determinant(&self) -> f64 {
        let n = self.n();
        (0..n).fold(self.perm_sign, |acc, i| acc * self.lu[(i, i)])
    }
}

/// Convenience one-shot solve of `A x = b` via LU.
///
/// # Errors
/// See [`LuDecomposition::new`] and [`LuDecomposition::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LuError> {
    // Failpoint `linalg.dense-lu`: error injection surfaces as a singular
    // factorization, NaN injection poisons the solution vector.
    let mut poison_solution = false;
    match wfms_fault::point!("linalg.dense-lu") {
        Some(wfms_fault::Injection::Error) => return Err(LuError::Singular { column: 0 }),
        Some(wfms_fault::Injection::Nan) => poison_solution = true,
        None => {}
    }
    let mut x = LuDecomposition::new(a)?.solve(b)?;
    if poison_solution && !x.is_empty() {
        x[0] = f64::NAN;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::relative_difference;

    #[test]
    fn solves_a_small_system_exactly() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_nested(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!(relative_difference(&x, &[1.0, 3.0]) < 1e-12);
    }

    #[test]
    fn solve_requires_matching_rhs_length() {
        let a = Matrix::identity(3);
        let err = solve(&a, &[1.0]).unwrap_err();
        assert_eq!(err, LuError::RhsLengthMismatch { n: 3, rhs_len: 1 });
    }

    #[test]
    fn rejects_non_square_input() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LuError::NotSquare { .. })
        ));
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_nested(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LuError::Singular { .. })
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting the (0,0) zero would break elimination.
        let a = Matrix::from_nested(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!(relative_difference(&x, &[3.0, 2.0]) < 1e-12);
    }

    #[test]
    fn determinant_matches_closed_form() {
        let a = Matrix::from_nested(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_accounts_for_row_swaps() {
        let a = Matrix::from_nested(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn solves_moderately_sized_diagonally_dominant_system() {
        // Construct a 40x40 diagonally dominant system with known solution.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = if r == c {
                    n as f64
                } else {
                    1.0 / (1.0 + (r + c) as f64)
                };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(relative_difference(&x, &x_true) < 1e-10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
            let mut m = Matrix::from_rows(n, n, data).unwrap();
            for i in 0..n {
                // Force strict diagonal dominance so the system is well-posed.
                let off: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
                m[(i, i)] = off + 1.0;
            }
            m
        })
    }

    proptest! {
        #[test]
        fn lu_solve_recovers_planted_solution(
            m in diag_dominant_matrix(8),
            x in proptest::collection::vec(-5.0f64..5.0, 8),
        ) {
            let b = m.mul_vec(&x).unwrap();
            let solved = solve(&m, &b).unwrap();
            prop_assert!(crate::linalg::relative_difference(&solved, &x) < 1e-8);
        }
    }
}
