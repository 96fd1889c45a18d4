//! Discrete-time Markov chains.
//!
//! The workflow CTMCs of the paper are analyzed through their *embedded
//! jump chain* (which transition fires next, ignoring how long each state
//! holds) and through the *uniformized chain* (Sec. 4.2.1). Both are
//! discrete-time chains; this module validates them and provides state
//! propagation and stationary distributions. The expected visits before
//! absorption are [`crate::ctmc::Ctmc::expected_visits`].

use crate::error::ChainError;
use crate::linalg::{self, Matrix};

/// Tolerance used when validating that rows are probability distributions.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;

/// A finite discrete-time Markov chain given by a row-stochastic matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    p: Matrix,
    labels: Vec<String>,
}

impl Dtmc {
    /// Builds a chain from a row-stochastic transition matrix.
    ///
    /// # Errors
    /// * [`ChainError::NotSquare`] / [`ChainError::Empty`] on bad shapes.
    /// * [`ChainError::NotStochastic`] when a row has negative entries or
    ///   does not sum to one (tolerance [`STOCHASTIC_TOLERANCE`]).
    pub fn new(p: Matrix) -> Result<Self, ChainError> {
        let n = validate_stochastic(&p)?;
        let labels = (0..n).map(|i| format!("s{i}")).collect();
        Ok(Dtmc { p, labels })
    }

    /// Builds a chain with explicit state labels.
    ///
    /// # Errors
    /// As [`Dtmc::new`], plus [`ChainError::LengthMismatch`] when the label
    /// count differs from the state count.
    pub fn with_labels(p: Matrix, labels: Vec<String>) -> Result<Self, ChainError> {
        let n = validate_stochastic(&p)?;
        if labels.len() != n {
            return Err(ChainError::LengthMismatch {
                what: "labels",
                expected: n,
                actual: labels.len(),
            });
        }
        Ok(Dtmc { p, labels })
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.p.rows()
    }

    /// The transition matrix.
    pub fn transition_matrix(&self) -> &Matrix {
        &self.p
    }

    /// State labels, index-aligned with the matrix.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Transition probability from `i` to `j`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[(i, j)]
    }

    /// True when state `i` is absorbing (`p_ii = 1`).
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn is_absorbing(&self, i: usize) -> bool {
        (self.p[(i, i)] - 1.0).abs() <= STOCHASTIC_TOLERANCE
    }

    /// Indices of all absorbing states.
    pub fn absorbing_states(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.is_absorbing(i)).collect()
    }

    /// Propagates a distribution one step: `row · P`.
    ///
    /// # Errors
    /// [`ChainError::LengthMismatch`] when the distribution length is wrong.
    pub fn step(&self, distribution: &[f64]) -> Result<Vec<f64>, ChainError> {
        if distribution.len() != self.n() {
            return Err(ChainError::LengthMismatch {
                what: "distribution",
                expected: self.n(),
                actual: distribution.len(),
            });
        }
        Ok(self.p.vec_mul(distribution)?)
    }

    /// Stationary distribution of an ergodic chain by power iteration.
    ///
    /// # Errors
    /// Propagates [`ChainError::Iterative`] on non-convergence (e.g. for a
    /// periodic or reducible chain).
    pub fn stationary_distribution(&self) -> Result<Vec<f64>, ChainError> {
        let sol = linalg::power_iteration(&self.p, 1e-13, 200_000)?;
        Ok(sol.x)
    }
}

fn validate_stochastic(p: &Matrix) -> Result<usize, ChainError> {
    if !p.is_square() {
        return Err(ChainError::NotSquare { shape: p.shape() });
    }
    let n = p.rows();
    if n == 0 {
        return Err(ChainError::Empty);
    }
    for i in 0..n {
        let row = p.row(i);
        let sum: f64 = row.iter().sum();
        if !(sum - 1.0).abs().le(&STOCHASTIC_TOLERANCE)
            || row.iter().any(|&x| x < -STOCHASTIC_TOLERANCE)
        {
            return Err(ChainError::NotStochastic {
                row: i,
                row_sum: sum,
            });
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::relative_difference;

    fn simple_absorbing() -> Dtmc {
        // 0 -> 1 w.p. 1; 1 -> 0 w.p. 0.3, 1 -> 2 (absorbing) w.p. 0.7
        Dtmc::new(Matrix::from_nested(&[
            &[0.0, 1.0, 0.0],
            &[0.3, 0.0, 0.7],
            &[0.0, 0.0, 1.0],
        ]))
        .unwrap()
    }

    #[test]
    fn new_validates_stochastic_rows() {
        let bad = Matrix::from_nested(&[&[0.5, 0.4], &[0.0, 1.0]]);
        assert!(matches!(
            Dtmc::new(bad),
            Err(ChainError::NotStochastic { row: 0, .. })
        ));
        let neg = Matrix::from_nested(&[&[-0.1, 1.1], &[0.0, 1.0]]);
        assert!(matches!(
            Dtmc::new(neg),
            Err(ChainError::NotStochastic { row: 0, .. })
        ));
        assert!(matches!(
            Dtmc::new(Matrix::zeros(2, 3)),
            Err(ChainError::NotSquare { .. })
        ));
        assert!(matches!(
            Dtmc::new(Matrix::zeros(0, 0)),
            Err(ChainError::Empty)
        ));
    }

    #[test]
    fn with_labels_validates_count() {
        let p = Matrix::identity(2);
        let err = Dtmc::with_labels(p, vec!["a".into()]).unwrap_err();
        assert!(matches!(
            err,
            ChainError::LengthMismatch {
                what: "labels",
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn absorbing_detection() {
        let c = simple_absorbing();
        assert!(!c.is_absorbing(0));
        assert!(!c.is_absorbing(1));
        assert!(c.is_absorbing(2));
        assert_eq!(c.absorbing_states(), vec![2]);
    }

    #[test]
    fn step_propagates_distribution() {
        let c = simple_absorbing();
        let d1 = c.step(&[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(d1, vec![0.0, 1.0, 0.0]);
        let d2 = c.step(&d1).unwrap();
        assert!(relative_difference(&d2, &[0.3, 0.0, 0.7]) < 1e-12);
        assert!(matches!(
            c.step(&[1.0]),
            Err(ChainError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn stationary_distribution_of_ergodic_chain() {
        let c = Dtmc::new(Matrix::from_nested(&[&[0.9, 0.1], &[0.5, 0.5]])).unwrap();
        let pi = c.stationary_distribution().unwrap();
        assert!(relative_difference(&pi, &[5.0 / 6.0, 1.0 / 6.0]) < 1e-8);
    }

    #[test]
    fn default_labels_are_indexed() {
        let c = simple_absorbing();
        assert_eq!(c.labels(), &["s0".to_string(), "s1".into(), "s2".into()]);
    }
}
