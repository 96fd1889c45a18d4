//! The system-state space of the availability CTMC and its integer
//! encoding (Sec. 5.2 of the paper):
//!
//! ```text
//! (X_1, …, X_k)  ↦  Σ_j X_j · Π_{l<j} (Y_l + 1)
//! ```
//!
//! i.e. a mixed-radix number with digit `j` ranging over `0 … Y_j`.

use wfms_statechart::Configuration;

use crate::error::AvailError;

/// The finite set `{ X | 0 ≤ X_x ≤ Y_x }` with the paper's encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSpace {
    /// `Y_x + 1` per server type (the mixed radix).
    dims: Vec<usize>,
}

impl StateSpace {
    /// Builds the state space of a configuration.
    pub fn new(config: &Configuration) -> Self {
        StateSpace {
            dims: config.as_slice().iter().map(|&y| y + 1).collect(),
        }
    }

    /// Number of server types `k`.
    pub fn k(&self) -> usize {
        self.dims.len()
    }

    /// Total number of system states `Π (Y_x + 1)`.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True for a degenerate zero-type space.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Encodes an availability vector to its integer state id.
    ///
    /// # Errors
    /// [`AvailError::StateOutOfRange`] when the vector has the wrong
    /// length or a component exceeds its configured maximum.
    pub fn encode(&self, x: &[usize]) -> Result<usize, AvailError> {
        if x.len() != self.dims.len() {
            return Err(AvailError::StateOutOfRange {
                state: x.to_vec(),
                dims: self.dims.clone(),
            });
        }
        let mut idx = 0;
        let mut stride = 1;
        for (j, (&xj, &dim)) in x.iter().zip(&self.dims).enumerate() {
            if xj >= dim {
                return Err(AvailError::StateOutOfRange {
                    state: x.to_vec(),
                    dims: self.dims.clone(),
                });
            }
            let _ = j;
            idx += xj * stride;
            stride *= dim;
        }
        Ok(idx)
    }

    /// Decodes an integer state id back to its availability vector.
    ///
    /// # Errors
    /// [`AvailError::IndexOutOfRange`] for `idx ≥ len()`.
    pub fn decode(&self, idx: usize) -> Result<Vec<usize>, AvailError> {
        if idx >= self.len() {
            return Err(AvailError::IndexOutOfRange {
                index: idx,
                len: self.len(),
            });
        }
        let mut rest = idx;
        let mut out = Vec::with_capacity(self.dims.len());
        for &dim in &self.dims {
            out.push(rest % dim);
            rest /= dim;
        }
        Ok(out)
    }

    /// Iterates all states in encoding order as availability vectors.
    pub fn iter(&self) -> StateIter<'_> {
        StateIter {
            space: self,
            next: 0,
        }
    }

    /// True when the state vector is operational (every component ≥ 1).
    pub fn is_operational(x: &[usize]) -> bool {
        x.iter().all(|&v| v > 0)
    }

    /// The WFMS availability under a stationary distribution `pi`: the
    /// mass of the operational states, summed in encoding order. Every
    /// availability backend that materializes `pi` reports this sum.
    ///
    /// # Errors
    /// [`AvailError::LengthMismatch`] unless `pi` has one entry per state.
    pub fn operational_mass(&self, pi: &[f64]) -> Result<f64, AvailError> {
        if pi.len() != self.len() {
            return Err(AvailError::LengthMismatch {
                expected: self.len(),
                actual: pi.len(),
            });
        }
        let mut up = 0.0;
        for (idx, x) in self.iter() {
            if Self::is_operational(&x) {
                up += pi[idx];
            }
        }
        Ok(up)
    }
}

/// Iterator over all states of a [`StateSpace`].
#[derive(Debug)]
pub struct StateIter<'a> {
    space: &'a StateSpace,
    next: usize,
}

impl Iterator for StateIter<'_> {
    type Item = (usize, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.space.len() {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        // audit:allow(A008, reason = "idx < space.len() is checked two lines above, so decode cannot be out of range")
        Some((idx, self.space.decode(idx).expect("iterating in range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_statechart::{paper_section52_registry, Configuration};

    fn space(y: &[usize]) -> StateSpace {
        let reg = paper_section52_registry();
        StateSpace::new(&Configuration::new(&reg, y.to_vec()).unwrap())
    }

    #[test]
    fn encoding_matches_paper_example() {
        // "for a CTMC with three server types, two servers each we encode the
        // states (0,0,0), (1,0,0), (2,0,0), (0,1,0) etc. as integers 0, 1, 2,
        // 3, and so on."
        let s = space(&[2, 2, 2]);
        assert_eq!(s.encode(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.encode(&[1, 0, 0]).unwrap(), 1);
        assert_eq!(s.encode(&[2, 0, 0]).unwrap(), 2);
        assert_eq!(s.encode(&[0, 1, 0]).unwrap(), 3);
        assert_eq!(s.encode(&[2, 2, 2]).unwrap(), 26);
        assert_eq!(s.len(), 27);
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = space(&[2, 1, 3]);
        assert_eq!(s.len(), 3 * 2 * 4);
        for idx in 0..s.len() {
            let x = s.decode(idx).unwrap();
            assert_eq!(s.encode(&x).unwrap(), idx);
        }
    }

    #[test]
    fn encode_validates_bounds() {
        let s = space(&[2, 2, 2]);
        assert!(matches!(
            s.encode(&[3, 0, 0]),
            Err(AvailError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            s.encode(&[0, 0]),
            Err(AvailError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            s.decode(27),
            Err(AvailError::IndexOutOfRange { index: 27, len: 27 })
        ));
    }

    #[test]
    fn iter_covers_all_states_once() {
        let s = space(&[1, 2, 1]);
        let states: Vec<_> = s.iter().collect();
        assert_eq!(states.len(), s.len());
        assert_eq!(states[0], (0, vec![0, 0, 0]));
        assert_eq!(states.last().unwrap(), &(s.len() - 1, vec![1, 2, 1]));
        // All unique.
        let mut seen: Vec<Vec<usize>> = states.iter().map(|(_, x)| x.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), s.len());
    }

    #[test]
    fn operational_check() {
        assert!(StateSpace::is_operational(&[1, 1, 1]));
        assert!(!StateSpace::is_operational(&[1, 0, 2]));
    }
}
