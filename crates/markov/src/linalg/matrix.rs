//! Row-major dense `f64` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Errors raised by matrix constructors and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The supplied data length does not match `rows * cols`.
    DataShapeMismatch {
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
        /// Length of the data actually supplied.
        data_len: usize,
    },
    /// The operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation.
        op: &'static str,
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand (vectors reported as `(len, 1)`).
        right: (usize, usize),
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DataShapeMismatch {
                rows,
                cols,
                data_len,
            } => write!(
                f,
                "matrix data of length {data_len} cannot fill a {rows}x{cols} matrix"
            ),
            MatrixError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense, row-major matrix of `f64` values.
///
/// This is deliberately minimal: exactly the operations the Markov-chain
/// analyses need, each shape-checked. Storage is a single contiguous
/// `Vec<f64>` so row traversals are cache-friendly, which matters for the
/// Gauss–Seidel sweeps and the repeated vector–matrix products of the
/// uniformized transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`MatrixError::DataShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::DataShapeMismatch {
                rows,
                cols,
                data_len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a nested slice-of-rows literal, mainly for tests
    /// and examples.
    ///
    /// # Panics
    /// Panics when the rows have differing lengths.
    pub fn from_nested(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in matrix literal");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
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

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    /// Panics when `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds for {} columns",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    /// Returns [`MatrixError::ShapeMismatch`] when `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if v.len() != self.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "mul_vec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Vector–matrix product `v * self` (row vector times matrix), the natural
    /// orientation for probability-vector propagation.
    ///
    /// # Errors
    /// Returns [`MatrixError::ShapeMismatch`] when `v.len() != self.rows()`.
    pub fn vec_mul(&self, v: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if v.len() != self.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "vec_mul",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            for (c, &m) in self.row(r).iter().enumerate() {
                out[c] += vr * m;
            }
        }
        Ok(out)
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`MatrixError::ShapeMismatch`] when the inner dimensions differ.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "mul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Elementwise sum `self + other`.
    ///
    /// # Errors
    /// Returns [`MatrixError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "add",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Maximum absolute row sum (the induced infinity norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// True when every entry is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// True when the matrix is row-stochastic within tolerance `tol`:
    /// non-negative entries and every row summing to one.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.rows).all(|r| {
            let row = self.row(r);
            row.iter().all(|&x| x >= -tol) && (row.iter().sum::<f64>() - 1.0).abs() <= tol
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity_have_expected_entries() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert!(i.is_square());
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_validates_data_length() {
        let err = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::DataShapeMismatch {
                rows: 2,
                cols: 2,
                data_len: 3
            }
        );
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 5.0;
        m[(1, 0)] = -2.0;
        assert_eq!(m[(0, 1)], 5.0);
        assert_eq!(m[(1, 0)], -2.0);
        assert_eq!(m.row(0), &[0.0, 5.0]);
        assert_eq!(m.col(0), vec![0.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_swaps_shape_and_entries() {
        let m = Matrix::from_nested(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t[(1, 1)], 5.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mul_vec_computes_matrix_vector_product() {
        let m = Matrix::from_nested(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn vec_mul_computes_row_vector_product() {
        let m = Matrix::from_nested(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.vec_mul(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn vec_mul_and_mul_vec_agree_through_transpose() {
        let m = Matrix::from_nested(&[&[1.0, 2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let v = [0.25, 0.75];
        assert_eq!(m.vec_mul(&v).unwrap(), m.transpose().mul_vec(&v).unwrap());
    }

    #[test]
    fn mul_matches_hand_computed_product() {
        let a = Matrix::from_nested(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_nested(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let ab = a.mul(&b).unwrap();
        assert_eq!(ab, Matrix::from_nested(&[&[2.0, 1.0], &[4.0, 3.0]]));
    }

    #[test]
    fn mul_by_identity_is_noop() {
        let a = Matrix::from_nested(&[&[1.5, -2.0], &[0.0, 4.0]]);
        assert_eq!(a.mul(&Matrix::identity(2)).unwrap(), a);
        assert_eq!(Matrix::identity(2).mul(&a).unwrap(), a);
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(MatrixError::ShapeMismatch { op: "mul", .. })
        ));
        assert!(matches!(
            a.mul_vec(&[1.0]),
            Err(MatrixError::ShapeMismatch { op: "mul_vec", .. })
        ));
        assert!(matches!(
            a.vec_mul(&[1.0]),
            Err(MatrixError::ShapeMismatch { op: "vec_mul", .. })
        ));
        let c = Matrix::zeros(3, 2);
        assert!(matches!(
            a.add(&c),
            Err(MatrixError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn add_and_scale_are_elementwise() {
        let a = Matrix::from_nested(&[&[1.0, 2.0]]);
        let b = Matrix::from_nested(&[&[3.0, -2.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_nested(&[&[4.0, 0.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_nested(&[&[2.0, 4.0]]));
    }

    #[test]
    fn norm_inf_is_max_abs_row_sum() {
        let m = Matrix::from_nested(&[&[1.0, -2.0], &[0.5, 0.5]]);
        assert_eq!(m.norm_inf(), 3.0);
    }

    #[test]
    fn row_stochastic_check() {
        let p = Matrix::from_nested(&[&[0.5, 0.5], &[0.0, 1.0]]);
        assert!(p.is_row_stochastic(1e-12));
        let q = Matrix::from_nested(&[&[0.5, 0.6], &[0.0, 1.0]]);
        assert!(!q.is_row_stochastic(1e-12));
        let neg = Matrix::from_nested(&[&[-0.1, 1.1]]);
        assert!(!neg.is_row_stochastic(1e-12));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::identity(2);
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("1.000000"));
        assert_eq!(s.lines().count(), 2);
    }
}
