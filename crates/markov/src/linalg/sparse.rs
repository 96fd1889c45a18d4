//! Compressed-sparse-row matrices and sparse steady-state solvers.
//!
//! The availability CTMC has `Π (Y_x + 1)` states but only
//! `O(k)` transitions per state, so its generator is extremely sparse.
//! The dense path ([`crate::linalg::Matrix`]) is fine up to a few
//! thousand states; beyond that, this module provides a CSR
//! representation and an iterative solver that only needs row access:
//! Gauss–Seidel sweeps on `πQ = 0`.

use crate::linalg::iterative::{GaussSeidelOptions, IterativeError, IterativeSolution};
use crate::linalg::Matrix;

/// A compressed-sparse-row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

/// Errors raised by sparse construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A triplet references an out-of-range row or column.
    IndexOutOfRange {
        /// The offending row.
        row: usize,
        /// The offending column.
        col: usize,
        /// Matrix shape.
        shape: (usize, usize),
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfRange { row, col, shape } => write!(
                f,
                "triplet ({row},{col}) out of range for {}x{} matrix",
                shape.0, shape.1
            ),
        }
    }
}

impl std::error::Error for SparseError {}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets; duplicate
    /// positions are summed, explicit zeros dropped.
    ///
    /// # Errors
    /// [`SparseError::IndexOutOfRange`] for out-of-range triplets.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, SparseError> {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for (r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfRange {
                    row: r,
                    col: c,
                    shape: (rows, cols),
                });
            }
            if v != 0.0 {
                per_row[r].push((c, v));
            }
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in per_row.iter_mut() {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = row.iter().peekable();
            while let Some(&(c, v)) = iter.next() {
                let mut sum = v;
                while let Some(&&(c2, v2)) = iter.peek() {
                    if c2 == c {
                        sum += v2;
                        iter.next();
                    } else {
                        break;
                    }
                }
                if sum != 0.0 {
                    indices.push(c);
                    values.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// The non-zero entries of a dense matrix, in CSR form.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut indptr = Vec::with_capacity(m.rows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: m.rows(),
            cols: m.cols(),
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    /// Panics when `r` is out of range.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row {r} out of range");
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// The `(columns, values)` slices of every row, in row order.
    pub(crate) fn row_slices(&self) -> impl Iterator<Item = (&[usize], &[f64])> + '_ {
        self.indptr
            .windows(2)
            .map(|w| (&self.indices[w[0]..w[1]], &self.values[w[0]..w[1]]))
    }

    /// Entry lookup (binary search within the row).
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        match self.indices[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `A · v`.
    ///
    /// # Panics
    /// Panics on a length mismatch (internal use; callers size correctly).
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "length mismatch");
        (0..self.rows)
            .map(|r| self.row(r).map(|(c, a)| a * v[c]).sum())
            .collect()
    }
}

/// Solves `πQ = 0, Σπ = 1` by Gauss–Seidel sweeps, given the *transposed*
/// generator `Q^T` in CSR form (row `i` holds the inflow rates `q_ji`)
/// and the departure rates `departure[i] = -q_ii > 0`.
///
/// # Errors
/// [`IterativeError::NotConverged`] / [`IterativeError::ZeroDiagonal`].
pub fn sparse_steady_state_gauss_seidel(
    qt: &CsrMatrix,
    departure: &[f64],
    opts: GaussSeidelOptions,
) -> Result<IterativeSolution, IterativeError> {
    let n = qt.rows();
    assert_eq!(departure.len(), n, "departure vector length mismatch");
    for (i, &d) in departure.iter().enumerate() {
        if d <= 0.0 {
            return Err(IterativeError::ZeroDiagonal { row: i });
        }
    }
    // Failpoint `linalg.sparse-gs`: error injection surfaces as the
    // solver's own `NotConverged`, NaN injection poisons the solution.
    let mut poison_solution = false;
    match wfms_fault::point!("linalg.sparse-gs") {
        Some(wfms_fault::Injection::Error) => {
            return Err(IterativeError::NotConverged {
                iterations: 0,
                last_residual: f64::INFINITY,
            });
        }
        Some(wfms_fault::Injection::Nan) => poison_solution = true,
        None => {}
    }
    let mut pi = vec![1.0 / n as f64; n];
    for sweep in 1..=opts.max_iterations {
        let mut max_change = 0.0f64;
        for i in 0..n {
            let mut inflow = 0.0;
            for (j, q_ji) in qt.row(i) {
                if j != i {
                    inflow += pi[j] * q_ji;
                }
            }
            let new = inflow / departure[i];
            max_change = max_change.max((new - pi[i]).abs() / new.abs().max(1e-300));
            pi[i] = new;
        }
        // Renormalize to unit mass.
        let mass: f64 = pi.iter().sum();
        if mass > 0.0 {
            for v in pi.iter_mut() {
                *v /= mass;
            }
        }
        if max_change <= opts.tolerance {
            if poison_solution && !pi.is_empty() {
                pi[0] = f64::NAN;
            }
            return Ok(IterativeSolution {
                x: pi,
                iterations: sweep,
                residual: max_change,
            });
        }
        if sweep == opts.max_iterations {
            return Err(IterativeError::NotConverged {
                iterations: sweep,
                last_residual: max_change,
            });
        }
    }
    // audit:allow(A009, reason = "the sweep loop returns on convergence and errors on sweep == max_iterations, so the loop exit is unreachable")
    unreachable!("loop returns or errors on the final sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    #[test]
    fn from_triplets_builds_and_indexes() {
        let m = CsrMatrix::from_triplets(
            2,
            3,
            vec![
                (0, 1, 2.0),
                (1, 0, -1.0),
                (0, 1, 3.0),
                (1, 2, 4.0),
                (0, 0, 0.0),
            ],
        )
        .unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 1), 5.0, "duplicates sum");
        assert_eq!(m.get(0, 0), 0.0, "explicit zeros dropped");
        assert_eq!(m.get(1, 2), 4.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn from_triplets_rejects_out_of_range() {
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]),
            Err(SparseError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn products_match_dense() {
        let dense = Matrix::from_nested(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        let mut triplets = Vec::new();
        for r in 0..2 {
            for c in 0..3 {
                triplets.push((r, c, dense[(r, c)]));
            }
        }
        let sparse = CsrMatrix::from_triplets(2, 3, triplets).unwrap();
        let v3 = [1.0, 2.0, 3.0];
        assert_eq!(sparse.mul_vec(&v3), dense.mul_vec(&v3).unwrap());
    }

    #[test]
    fn row_iteration_is_sorted() {
        let m =
            CsrMatrix::from_triplets(1, 5, vec![(0, 4, 1.0), (0, 1, 2.0), (0, 3, 3.0)]).unwrap();
        let cols: Vec<usize> = m.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3, 4]);
    }

    #[test]
    fn sparse_steady_state_matches_closed_form_repair_chain() {
        // Two-state machine-repair chain: Q = [[-l, l], [m, -m]].
        let (l, m) = (0.02, 0.5);
        let qt = CsrMatrix::from_triplets(2, 2, vec![(0, 0, -l), (0, 1, m), (1, 0, l), (1, 1, -m)])
            .unwrap();
        let sol =
            sparse_steady_state_gauss_seidel(&qt, &[l, m], GaussSeidelOptions::default()).unwrap();
        let expect = [m / (l + m), l / (l + m)];
        for (got, want) in sol.x.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn sparse_steady_state_rejects_absorbing_states() {
        let qt = CsrMatrix::from_triplets(2, 2, vec![(1, 0, 1.0)]).unwrap();
        assert!(matches!(
            sparse_steady_state_gauss_seidel(&qt, &[1.0, 0.0], GaussSeidelOptions::default()),
            Err(IterativeError::ZeroDiagonal { row: 1 })
        ));
    }

    #[test]
    fn sparse_steady_state_reports_non_convergence() {
        // Asymmetric rates so the uniform start is NOT already stationary.
        let qt = CsrMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, -0.3), (0, 1, 0.7), (1, 0, 0.3), (1, 1, -0.7)],
        )
        .unwrap();
        let res = sparse_steady_state_gauss_seidel(
            &qt,
            &[0.3, 0.7],
            GaussSeidelOptions {
                max_iterations: 1,
                tolerance: 1e-30,
                ..Default::default()
            },
        );
        assert!(matches!(res, Err(IterativeError::NotConverged { .. })));
    }
}
