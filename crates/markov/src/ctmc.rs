//! Continuous-time Markov chains.
//!
//! The paper uses CTMCs in two distinct roles:
//!
//! * **Workflow chains** (Sec. 3): one state per workflow execution state,
//!   plus a single absorbing termination state. These are *non-ergodic* and
//!   analyzed transiently (first-passage time = turnaround time, Sec. 4.1;
//!   Markov reward until absorption = induced load, Sec. 4.2).
//! * **Availability chains** (Sec. 5): one state per system state
//!   `(X_1 … X_k)` of currently-running replicas. These are *ergodic* and
//!   analyzed in steady state.
//!
//! A [`Ctmc`] is stored in the paper's native parameterization — the jump
//! (embedded) chain `P = (p_ij)` plus the mean residence times `H = (H_i)`
//! — and can equally be built from an infinitesimal generator `Q`.

use crate::error::ChainError;
use crate::linalg::{self, lu, GaussSeidelOptions, Matrix};

/// Tolerance used when validating that rows are probability distributions.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;

/// A finite continuous-time Markov chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    /// Embedded jump chain; absorbing states carry a self-loop of one.
    jump: Matrix,
    /// Mean residence time per state; `f64::INFINITY` marks absorbing states.
    residence: Vec<f64>,
    labels: Vec<String>,
}

/// Which method computes the stationary distribution of an ergodic chain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SteadyStateMethod {
    /// Direct solve of `πQ = 0, Σπ = 1` with one equation replaced by the
    /// normalization constraint.
    #[default]
    Lu,
    /// Gauss–Seidel sweeps on `πQ = 0` with per-sweep renormalization — the
    /// method the paper names in Sec. 5.2.
    GaussSeidel(GaussSeidelOptions),
    /// Power iteration on the uniformized jump matrix.
    Power {
        /// Convergence threshold on the max-norm iterate change.
        tolerance: f64,
        /// Maximum number of iterations.
        max_iterations: usize,
    },
}

impl Ctmc {
    /// Builds a CTMC from its embedded jump chain and mean residence times
    /// (the paper's `P` and `H`, Sec. 3.2).
    ///
    /// A state is absorbing iff its residence time is `f64::INFINITY`; its
    /// jump row must then be the identity row. Non-absorbing states must
    /// have strictly positive finite residence times and no self-loop.
    ///
    /// # Errors
    /// * [`ChainError::NotSquare`] / [`ChainError::Empty`] on bad shapes.
    /// * [`ChainError::NotStochastic`] when a jump row has negative
    ///   entries or does not sum to one (tolerance
    ///   [`STOCHASTIC_TOLERANCE`]).
    /// * [`ChainError::LengthMismatch`], [`ChainError::SelfLoop`] and
    ///   [`ChainError::InvalidResidenceTime`].
    pub fn from_jump_chain(jump: Matrix, residence: Vec<f64>) -> Result<Self, ChainError> {
        let n = validate_stochastic(&jump)?;
        if residence.len() != n {
            return Err(ChainError::LengthMismatch {
                what: "residence times",
                expected: n,
                actual: residence.len(),
            });
        }
        for i in 0..n {
            let h = residence[i];
            if h == f64::INFINITY {
                if (jump[(i, i)] - 1.0).abs() > STOCHASTIC_TOLERANCE {
                    return Err(ChainError::InvalidResidenceTime { state: i, value: h });
                }
            } else {
                if !(h.is_finite() && h > 0.0) {
                    return Err(ChainError::InvalidResidenceTime { state: i, value: h });
                }
                if jump[(i, i)].abs() > STOCHASTIC_TOLERANCE {
                    return Err(ChainError::SelfLoop { state: i });
                }
            }
        }
        let labels = (0..n).map(|i| format!("s{i}")).collect();
        Ok(Ctmc {
            jump,
            residence,
            labels,
        })
    }

    /// Builds a CTMC from an infinitesimal generator matrix `Q`
    /// (non-negative off-diagonals, rows summing to zero). States whose
    /// departure rate is zero become absorbing.
    ///
    /// # Errors
    /// [`ChainError::InvalidGenerator`] for malformed rows, plus shape
    /// errors.
    pub fn from_generator(q: &Matrix) -> Result<Self, ChainError> {
        if !q.is_square() {
            return Err(ChainError::NotSquare { shape: q.shape() });
        }
        let n = q.rows();
        if n == 0 {
            return Err(ChainError::Empty);
        }
        let mut jump = Matrix::zeros(n, n);
        let mut residence = Vec::with_capacity(n);
        for i in 0..n {
            let row = q.row(i);
            let off_sum: f64 = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &v)| v)
                .sum();
            let bad_off = row
                .iter()
                .enumerate()
                .any(|(j, &v)| j != i && v < -STOCHASTIC_TOLERANCE);
            // Generator row condition: q_ii = -Σ_{j≠i} q_ij.
            let scale = off_sum.abs().max(row[i].abs()).max(1.0);
            if bad_off || (row[i] + off_sum).abs() > STOCHASTIC_TOLERANCE * scale {
                return Err(ChainError::InvalidGenerator { row: i });
            }
            let rate = off_sum;
            if rate <= 0.0 {
                jump[(i, i)] = 1.0;
                residence.push(f64::INFINITY);
            } else {
                for (j, &v) in row.iter().enumerate() {
                    if j != i {
                        jump[(i, j)] = (v / rate).max(0.0);
                    }
                }
                residence.push(1.0 / rate);
            }
        }
        let labels = (0..n).map(|i| format!("s{i}")).collect();
        Ok(Ctmc {
            jump,
            residence,
            labels,
        })
    }

    /// Replaces the state labels.
    ///
    /// # Errors
    /// [`ChainError::LengthMismatch`] on a wrong label count.
    pub fn with_labels(mut self, labels: Vec<String>) -> Result<Self, ChainError> {
        if labels.len() != self.n() {
            return Err(ChainError::LengthMismatch {
                what: "labels",
                expected: self.n(),
                actual: labels.len(),
            });
        }
        self.labels = labels;
        Ok(self)
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.jump.rows()
    }

    /// State labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The embedded jump-chain transition matrix (`p_ij`).
    pub fn jump_matrix(&self) -> &Matrix {
        &self.jump
    }

    /// Mean residence times (`H_i`); infinite for absorbing states.
    pub fn residence_times(&self) -> &[f64] {
        &self.residence
    }

    /// Departure rate `v_i = 1 / H_i`; zero for absorbing states.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn departure_rate(&self, i: usize) -> f64 {
        let h = self.residence[i];
        if h == f64::INFINITY {
            0.0
        } else {
            1.0 / h
        }
    }

    /// Maximum departure rate over all states — the paper's uniformization
    /// rate `v = max_a v_a` (Sec. 4.2.1). Zero for a chain of only
    /// absorbing states.
    pub fn max_departure_rate(&self) -> f64 {
        (0..self.n())
            .map(|i| self.departure_rate(i))
            .fold(0.0, f64::max)
    }

    /// True when state `i` is absorbing.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn is_absorbing(&self, i: usize) -> bool {
        self.residence[i] == f64::INFINITY
    }

    /// Indices of absorbing states.
    pub fn absorbing_states(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.is_absorbing(i)).collect()
    }

    /// Transition rate `q_ij = v_i · p_ij` (for `i ≠ j`).
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        if i == j {
            -self.departure_rate(i)
        } else {
            self.departure_rate(i) * self.jump[(i, j)]
        }
    }

    /// Assembles the infinitesimal generator matrix `Q`.
    pub fn generator(&self) -> Matrix {
        let n = self.n();
        let mut q = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                q[(i, j)] = self.rate(i, j);
            }
        }
        q
    }

    /// Expected number of visits to each state before absorption,
    /// starting from `start` and counting the start as one visit: row
    /// `start` of the fundamental matrix `N = (I − Q)⁻¹`, where `Q` is the
    /// jump chain restricted to the transient states. Absorbing states
    /// report zero, and from an absorbing `start` every count is zero.
    ///
    /// One dense LU solve of `(I − Q)ᵀ·v = e_start` gives the row. For a
    /// workflow chain the visits yield both measures of Sec. 4: the mean
    /// turnaround `R_t = Σ_i v_i·H_i` (the transient states' residence
    /// times) and the expected reward `Σ_i v_i·L_i` of any reward per
    /// entry `L` (the request counts `r_{x,t}`).
    ///
    /// # Errors
    /// * [`ChainError::StateOutOfRange`] on a bad `start`.
    /// * [`ChainError::NoAbsorbingState`] when no state is absorbing.
    /// * [`ChainError::AbsorptionNotCertain`] for the first transient state
    ///   from which no absorbing state is reachable, or for the first
    ///   transient state when the factorization fails anyway.
    /// * [`ChainError::Lu`] on any other factorization failure.
    pub fn expected_visits(&self, start: usize) -> Result<Vec<f64>, ChainError> {
        let n = self.n();
        if start >= n {
            return Err(ChainError::StateOutOfRange { state: start, n });
        }
        let _obs_span = wfms_obs::span!("first-passage", states = n);
        let (absorbing, transient): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| self.is_absorbing(i));
        if absorbing.is_empty() {
            return Err(ChainError::NoAbsorbingState);
        }
        // The walk also catches an `I − Q` that is singular in exact
        // arithmetic but still factors in floating point.
        if let Some(state) = first_state_not_absorbed(&self.jump, &absorbing) {
            return Err(ChainError::AbsorptionNotCertain { state });
        }
        // Row `r` of `(I − Q)ᵀ` is column `transient[r]` of `I − Q`.
        let mut a = Matrix::identity(transient.len());
        let mut e_start = vec![0.0; transient.len()];
        for (r, &j) in transient.iter().enumerate() {
            for (c, &i) in transient.iter().enumerate() {
                a[(r, c)] -= self.jump[(i, j)];
            }
            if j == start {
                e_start[r] = 1.0;
            }
        }
        let row = lu::solve(&a, &e_start).map_err(|e| match (e, transient.first()) {
            (lu::LuError::Singular { .. }, Some(&state)) => {
                ChainError::AbsorptionNotCertain { state }
            }
            (other, _) => ChainError::Lu(other),
        })?;
        let mut visits = vec![0.0; n];
        for (&state, v) in transient.iter().zip(row) {
            visits[state] = v;
        }
        Ok(visits)
    }

    /// Mean first-passage times `m_{i,target}` into `target` from every
    /// state, by solving the paper's linear system (Sec. 4.1) with a
    /// dense LU factorization:
    ///
    /// ```text
    /// -v_i · m_i + Σ_{j≠target, j≠i} q_ij · m_j = -1     for i ≠ target
    /// ```
    ///
    /// Entry `target` of the returned vector is zero.
    ///
    /// For a workflow chain, `target` is the absorbing state and
    /// `m_{0,target}` is the mean turnaround time `R_t`.
    ///
    /// # Errors
    /// * [`ChainError::StateOutOfRange`] on a bad `target`.
    /// * [`ChainError::AbsorptionNotCertain`] when some state other than
    ///   `target` is absorbing (its passage time would be infinite) or the
    ///   system is singular because `target` is unreachable.
    /// * [`ChainError::Lu`] on any other factorization failure, and on
    ///   any failure of the empty system of a chain that is `target`
    ///   alone.
    pub fn mean_first_passage(&self, target: usize) -> Result<Vec<f64>, ChainError> {
        let n = self.n();
        if target >= n {
            return Err(ChainError::StateOutOfRange { state: target, n });
        }
        let _obs_span = wfms_obs::span!("first-passage", states = n);
        for i in 0..n {
            if i != target && self.is_absorbing(i) {
                return Err(ChainError::AbsorptionNotCertain { state: i });
            }
        }
        let others: Vec<usize> = (0..n).filter(|&i| i != target).collect();
        let m = others.len();
        let mut a = Matrix::zeros(m, m);
        let b = vec![-1.0; m];
        for (ri, &i) in others.iter().enumerate() {
            a[(ri, ri)] = -self.departure_rate(i);
            for (rj, &j) in others.iter().enumerate() {
                if rj != ri {
                    a[(ri, rj)] = self.rate(i, j);
                }
            }
        }
        let x = lu::solve(&a, &b).map_err(|e| match (e, others.first()) {
            (lu::LuError::Singular { .. }, Some(&state)) => {
                ChainError::AbsorptionNotCertain { state }
            }
            (other, _) => ChainError::Lu(other),
        })?;
        debug_assert!(
            x.iter().all(|m| m.is_finite() && *m >= -1e-9),
            "mean first-passage times must be finite and non-negative"
        );
        let mut out = vec![0.0; n];
        for (ri, &i) in others.iter().enumerate() {
            out[i] = x[ri];
        }
        Ok(out)
    }

    /// Stationary distribution `π` of an ergodic chain: `πQ = 0, Σπ = 1`.
    ///
    /// # Errors
    /// * [`ChainError::NoAbsorbingState`] is *not* relevant here; instead an
    ///   absorbing state makes the chain non-ergodic and is reported as
    ///   [`ChainError::AbsorptionNotCertain`] (the stationary distribution
    ///   would be degenerate).
    /// * Solver failures per [`ChainError`].
    pub fn steady_state(&self, method: SteadyStateMethod) -> Result<Vec<f64>, ChainError> {
        let n = self.n();
        if let Some(&a) = self.absorbing_states().first() {
            return Err(ChainError::AbsorptionNotCertain { state: a });
        }
        let mut obs_span = wfms_obs::span!("steady-state", states = n);
        obs_span.record(
            "method",
            match method {
                SteadyStateMethod::Lu => "lu",
                SteadyStateMethod::GaussSeidel(_) => "gauss-seidel",
                SteadyStateMethod::Power { .. } => "power",
            },
        );
        match method {
            SteadyStateMethod::Lu => {
                // Solve Q^T x = 0 with the first equation replaced by Σx = 1.
                let q = self.generator();
                let mut a = q.transpose();
                for c in 0..n {
                    a[(0, c)] = 1.0;
                }
                let mut b = vec![0.0; n];
                b[0] = 1.0;
                let mut pi = lu::solve(&a, &b)?;
                // Guard against tiny negative round-off.
                for v in pi.iter_mut() {
                    if *v < 0.0 && *v > -1e-12 {
                        *v = 0.0;
                    }
                }
                linalg::normalize_probabilities(&mut pi);
                Ok(pi)
            }
            SteadyStateMethod::GaussSeidel(opts) => self.steady_state_gauss_seidel(opts),
            SteadyStateMethod::Power {
                tolerance,
                max_iterations,
            } => {
                // Uniformize with a strictly larger rate so the chain gains
                // self-loops, which makes it aperiodic and power iteration safe.
                let v = self.max_departure_rate() * 1.05;
                let p_bar = self.uniformized_jump(v)?;
                let sol = linalg::power_iteration(&p_bar, tolerance, max_iterations)?;
                obs_span.record("iterations", sol.iterations);
                Ok(sol.x)
            }
        }
    }

    /// Gauss–Seidel steady-state sweeps: repeatedly set
    /// `π_i ← Σ_{j≠i} π_j q_ji / (-q_ii)` and renormalize (the standard
    /// Gauss–Seidel scheme for `πQ = 0` named in Sec. 5.2 of the paper).
    fn steady_state_gauss_seidel(&self, opts: GaussSeidelOptions) -> Result<Vec<f64>, ChainError> {
        let n = self.n();
        let q = self.generator();
        let mut pi = vec![1.0 / n as f64; n];
        for sweep in 1..=opts.max_iterations {
            let mut max_change = 0.0f64;
            for i in 0..n {
                let mut s = 0.0;
                for j in 0..n {
                    if j != i {
                        s += pi[j] * q[(j, i)];
                    }
                }
                let denom = -q[(i, i)];
                debug_assert!(denom > 0.0, "ergodic chain has positive departure rates");
                let new = s / denom;
                max_change = max_change.max((new - pi[i]).abs() / new.abs().max(1.0));
                pi[i] = new;
            }
            linalg::normalize_probabilities(&mut pi);
            if max_change <= opts.tolerance {
                wfms_obs::histogram("markov.steady-state.iterations", sweep as u64);
                return Ok(pi);
            }
            if sweep == opts.max_iterations {
                return Err(ChainError::Iterative(
                    linalg::IterativeError::NotConverged {
                        iterations: sweep,
                        last_residual: max_change,
                    },
                ));
            }
        }
        // audit:allow(A009, reason = "the sweep loop returns on convergence and errors on sweep == max_iterations, so the loop exit is unreachable")
        unreachable!("loop either returns or errors on the last sweep")
    }

    /// Uniformized one-step transition matrix `P̄` for rate `v`
    /// (Sec. 4.2.1): `p̄_ab = (v_a / v) p_ab` for `b ≠ a` and
    /// `p̄_aa = 1 - v_a / v`; absorbing states keep their identity row.
    ///
    /// # Errors
    /// [`ChainError::InvalidGenerator`] when `v` is not at least the maximum
    /// departure rate (row 0 reported) or not positive.
    pub fn uniformized_jump(&self, v: f64) -> Result<Matrix, ChainError> {
        let vmax = self.max_departure_rate();
        if v <= 0.0 || v.is_nan() || v + STOCHASTIC_TOLERANCE < vmax {
            return Err(ChainError::InvalidGenerator { row: 0 });
        }
        let n = self.n();
        let mut p_bar = Matrix::zeros(n, n);
        for a in 0..n {
            if self.is_absorbing(a) {
                p_bar[(a, a)] = 1.0;
                continue;
            }
            let ratio = self.departure_rate(a) / v;
            for b in 0..n {
                if b == a {
                    p_bar[(a, b)] = 1.0 - ratio;
                } else {
                    p_bar[(a, b)] = ratio * self.jump[(a, b)];
                }
            }
        }
        debug_assert!(
            p_bar.is_row_stochastic(1e-9),
            "uniformized jump matrix must be row-stochastic"
        );
        Ok(p_bar)
    }
}

/// The first state, in index order, from which no state of `absorbing`
/// is reachable over jump probabilities above [`STOCHASTIC_TOLERANCE`],
/// if any: a backward worklist from the absorbing set that scans each
/// reached state's column of `jump` once.
fn first_state_not_absorbed(jump: &Matrix, absorbing: &[usize]) -> Option<usize> {
    let mut reaches = vec![false; jump.rows()];
    for &a in absorbing {
        reaches[a] = true;
    }
    let mut pending = absorbing.to_vec();
    while let Some(j) = pending.pop() {
        for (i, reached) in reaches.iter_mut().enumerate() {
            if !*reached && jump[(i, j)] > STOCHASTIC_TOLERANCE {
                *reached = true;
                pending.push(i);
            }
        }
    }
    reaches.iter().position(|&reached| !reached)
}

/// Checks that `p` is a non-empty square matrix whose rows are
/// probability distributions, and returns its size.
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

    /// Two-state machine repair model: up (fails at rate λ), down (repairs
    /// at rate μ). Stationary availability = μ/(λ+μ).
    fn repair_model(lambda: f64, mu: f64) -> Ctmc {
        let q = Matrix::from_nested(&[&[-lambda, lambda], &[mu, -mu]]);
        Ctmc::from_generator(&q).unwrap()
    }

    /// Three-state workflow: 0 -> 1 -> 2(absorbing), residence 2 and 3 min.
    fn linear_workflow() -> Ctmc {
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 1.0]]);
        Ctmc::from_jump_chain(jump, vec![2.0, 3.0, f64::INFINITY]).unwrap()
    }

    #[test]
    fn from_jump_chain_validates_residence_times() {
        let jump = Matrix::from_nested(&[&[0.0, 1.0], &[0.0, 1.0]]);
        // Finite residence on the absorbing state (jump row is identity)
        // is rejected: an absorbing state must have infinite residence.
        assert!(matches!(
            Ctmc::from_jump_chain(jump.clone(), vec![1.0, -3.0]),
            Err(ChainError::InvalidResidenceTime { state: 1, .. })
        ));
        assert!(matches!(
            Ctmc::from_jump_chain(jump.clone(), vec![0.0, f64::INFINITY]),
            Err(ChainError::InvalidResidenceTime { state: 0, .. })
        ));
        assert!(matches!(
            Ctmc::from_jump_chain(jump, vec![1.0]),
            Err(ChainError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn from_jump_chain_validates_stochastic_rows() {
        let chain = |jump| Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY]);
        let bad = Matrix::from_nested(&[&[0.5, 0.4], &[0.0, 1.0]]);
        assert!(matches!(
            chain(bad),
            Err(ChainError::NotStochastic { row: 0, .. })
        ));
        let neg = Matrix::from_nested(&[&[-0.1, 1.1], &[0.0, 1.0]]);
        assert!(matches!(
            chain(neg),
            Err(ChainError::NotStochastic { row: 0, .. })
        ));
        assert!(matches!(
            chain(Matrix::zeros(2, 3)),
            Err(ChainError::NotSquare { .. })
        ));
        assert!(matches!(chain(Matrix::zeros(0, 0)), Err(ChainError::Empty)));
    }

    #[test]
    fn from_jump_chain_rejects_self_loop_on_transient_state() {
        let jump = Matrix::from_nested(&[&[0.5, 0.5], &[0.0, 1.0]]);
        assert!(matches!(
            Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY]),
            Err(ChainError::SelfLoop { state: 0 })
        ));
    }

    #[test]
    fn from_jump_chain_requires_identity_row_for_absorbing() {
        let jump = Matrix::from_nested(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(matches!(
            Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY]),
            Err(ChainError::InvalidResidenceTime { state: 1, .. })
        ));
    }

    #[test]
    fn from_generator_round_trips_to_jump_chain() {
        let c = repair_model(0.1, 2.0);
        assert_eq!(c.n(), 2);
        assert!((c.departure_rate(0) - 0.1).abs() < 1e-12);
        assert!((c.departure_rate(1) - 2.0).abs() < 1e-12);
        assert_eq!(c.jump_matrix()[(0, 1)], 1.0);
        assert_eq!(c.jump_matrix()[(1, 0)], 1.0);
        let q = c.generator();
        assert!((q[(0, 0)] + 0.1).abs() < 1e-12);
        assert!((q[(1, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn from_generator_rejects_bad_rows() {
        let bad_sum = Matrix::from_nested(&[&[-1.0, 0.5], &[1.0, -1.0]]);
        assert!(matches!(
            Ctmc::from_generator(&bad_sum),
            Err(ChainError::InvalidGenerator { row: 0 })
        ));
        let neg_off = Matrix::from_nested(&[&[1.0, -1.0], &[1.0, -1.0]]);
        assert!(matches!(
            Ctmc::from_generator(&neg_off),
            Err(ChainError::InvalidGenerator { row: 0 })
        ));
    }

    #[test]
    fn generator_zero_rate_state_becomes_absorbing() {
        let q = Matrix::from_nested(&[&[-1.0, 1.0], &[0.0, 0.0]]);
        let c = Ctmc::from_generator(&q).unwrap();
        assert!(c.is_absorbing(1));
        assert_eq!(c.absorbing_states(), vec![1]);
        assert_eq!(c.residence_times()[1], f64::INFINITY);
    }

    #[test]
    fn steady_state_matches_closed_form_availability() {
        let lambda = 1.0 / (1440.0); // one failure per day (per minute rates)
        let mu = 1.0 / 10.0; // ten-minute repairs
        let c = repair_model(lambda, mu);
        let expect = [mu / (lambda + mu), lambda / (lambda + mu)];
        for method in [
            SteadyStateMethod::Lu,
            SteadyStateMethod::GaussSeidel(GaussSeidelOptions::default()),
            SteadyStateMethod::Power {
                tolerance: 1e-13,
                max_iterations: 2_000_000,
            },
        ] {
            let pi = c.steady_state(method).unwrap();
            assert!(
                relative_difference(&pi, &expect) < 1e-6,
                "method {method:?}: {pi:?} vs {expect:?}"
            );
        }
    }

    #[test]
    fn steady_state_methods_agree_on_three_state_cycle() {
        let q = Matrix::from_nested(&[&[-2.0, 1.5, 0.5], &[0.3, -1.3, 1.0], &[2.0, 0.1, -2.1]]);
        let c = Ctmc::from_generator(&q).unwrap();
        let lu = c.steady_state(SteadyStateMethod::Lu).unwrap();
        let gs = c
            .steady_state(SteadyStateMethod::GaussSeidel(GaussSeidelOptions::default()))
            .unwrap();
        let pw = c
            .steady_state(SteadyStateMethod::Power {
                tolerance: 1e-13,
                max_iterations: 500_000,
            })
            .unwrap();
        assert!(relative_difference(&lu, &gs) < 1e-7);
        assert!(relative_difference(&lu, &pw) < 1e-5);
        // πQ = 0 verification.
        let residual = c.generator().vec_mul(&lu).unwrap();
        assert!(residual.iter().all(|r| r.abs() < 1e-9));
    }

    #[test]
    fn steady_state_rejects_absorbing_chain() {
        let c = linear_workflow();
        assert!(matches!(
            c.steady_state(SteadyStateMethod::Lu),
            Err(ChainError::AbsorptionNotCertain { state: 2 })
        ));
    }

    #[test]
    fn mean_first_passage_on_linear_workflow_is_sum_of_residences() {
        let c = linear_workflow();
        let m = c.mean_first_passage(2).unwrap();
        assert!((m[0] - 5.0).abs() < 1e-10, "turnaround from 0: {}", m[0]);
        assert!((m[1] - 3.0).abs() < 1e-10);
        assert_eq!(m[2], 0.0);
    }

    #[test]
    fn mean_first_passage_with_loop_matches_geometric_expectation() {
        // 0 -> 1 ; 1 -> 0 w.p. 0.3, 1 -> 2 w.p. 0.7. Expected visits to each
        // of 0 and 1 is 1/0.7; each visit costs its residence time.
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[0.3, 0.0, 0.7], &[0.0, 0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![2.0, 3.0, f64::INFINITY]).unwrap();
        let m = c.mean_first_passage(2).unwrap();
        let expect = (2.0 + 3.0) / 0.7;
        assert!((m[0] - expect).abs() < 1e-9, "{} vs {}", m[0], expect);
    }

    #[test]
    fn mean_first_passage_rejects_other_absorbing_states() {
        // Two absorbing states: passage to one may be infinite via the other.
        let jump = Matrix::from_nested(&[&[0.0, 0.5, 0.5], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY, f64::INFINITY]).unwrap();
        assert!(matches!(
            c.mean_first_passage(2),
            Err(ChainError::AbsorptionNotCertain { state: 1 })
        ));
    }

    #[test]
    fn mean_first_passage_detects_unreachable_target() {
        // Target 2 unreachable from the closed 0<->1 cycle.
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, 1.0, f64::INFINITY]).unwrap();
        assert!(matches!(
            c.mean_first_passage(2),
            Err(ChainError::AbsorptionNotCertain { .. })
        ));
    }

    #[test]
    fn mean_first_passage_validates_target() {
        let c = linear_workflow();
        assert!(matches!(
            c.mean_first_passage(7),
            Err(ChainError::StateOutOfRange { state: 7, n: 3 })
        ));
    }

    #[test]
    fn uniformized_jump_is_stochastic_and_preserves_rates() {
        let c = linear_workflow();
        let v = c.max_departure_rate();
        assert!((v - 0.5).abs() < 1e-12); // fastest state has H = 2
        let p_bar = c.uniformized_jump(v).unwrap();
        assert!(p_bar.is_row_stochastic(1e-9));
        // State 0 departs at the uniformization rate: no self-loop.
        assert!((p_bar[(0, 0)] - 0.0).abs() < 1e-12);
        assert!((p_bar[(0, 1)] - 1.0).abs() < 1e-12);
        // State 1 departs at rate 1/3 < 1/2: self-loop of 1 - (1/3)/(1/2).
        assert!((p_bar[(1, 1)] - (1.0 - (1.0 / 3.0) / 0.5)).abs() < 1e-12);
        // Absorbing row is identity.
        assert!((p_bar[(2, 2)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniformized_jump_rejects_too_small_rate() {
        let c = linear_workflow();
        assert!(c.uniformized_jump(0.1).is_err());
        assert!(c.uniformized_jump(0.0).is_err());
        assert!(c.uniformized_jump(-1.0).is_err());
    }

    /// 0 -> 1 w.p. 1; 1 -> 0 w.p. 0.3, 1 -> 2 (absorbing) w.p. 0.7.
    fn loopy_workflow() -> Ctmc {
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[0.3, 0.0, 0.7], &[0.0, 0.0, 1.0]]);
        Ctmc::from_jump_chain(jump, vec![2.0, 3.0, f64::INFINITY]).unwrap()
    }

    #[test]
    fn expected_visits_match_geometric_closed_form() {
        // Starting at 0: visits to 0 form a geometric series with return
        // probability 0.3, so E[visits 0] = 1/(1-0.3), E[visits 1] = same.
        let v = loopy_workflow().expected_visits(0).unwrap();
        let expect = 1.0 / 0.7;
        assert!((v[0] - expect).abs() < 1e-12);
        assert!((v[1] - expect).abs() < 1e-12);
        assert_eq!(v[2], 0.0);
        // From the absorbing state nothing is visited.
        assert_eq!(loopy_workflow().expected_visits(2).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn expected_visits_require_an_absorbing_state() {
        let c = repair_model(1.0, 1.0);
        assert!(matches!(
            c.expected_visits(0),
            Err(ChainError::NoAbsorbingState)
        ));
    }

    #[test]
    fn expected_visits_detect_unreachable_absorption() {
        // 1 and 2 form a closed cycle; 3 is absorbing, reachable from 0
        // only. The first state that cannot absorb is named.
        let jump = Matrix::from_nested(&[
            &[0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, 1.0, 1.0, f64::INFINITY]).unwrap();
        assert!(matches!(
            c.expected_visits(0),
            Err(ChainError::AbsorptionNotCertain { state: 1 })
        ));
    }

    #[test]
    fn expected_visits_validate_start() {
        assert!(matches!(
            loopy_workflow().expected_visits(9),
            Err(ChainError::StateOutOfRange { state: 9, n: 3 })
        ));
    }

    #[test]
    fn labels_round_trip() {
        let c = linear_workflow()
            .with_labels(vec!["NewOrder".into(), "Ship".into(), "Done".into()])
            .unwrap();
        assert_eq!(c.labels()[0], "NewOrder");
        assert!(linear_workflow().with_labels(vec!["x".into()]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::linalg::relative_difference;
    use proptest::prelude::*;

    /// Random ergodic generator with strictly positive off-diagonal rates.
    fn ergodic_generator(n: usize) -> impl Strategy<Value = Ctmc> {
        proptest::collection::vec(0.05f64..3.0, n * n).prop_map(move |w| {
            let mut q = Matrix::zeros(n, n);
            for i in 0..n {
                let mut sum = 0.0;
                for j in 0..n {
                    if j != i {
                        q[(i, j)] = w[i * n + j];
                        sum += w[i * n + j];
                    }
                }
                q[(i, i)] = -sum;
            }
            Ctmc::from_generator(&q).expect("valid generator")
        })
    }

    proptest! {
        #[test]
        fn steady_state_solvers_agree(c in ergodic_generator(5)) {
            let lu = c.steady_state(SteadyStateMethod::Lu).unwrap();
            let gs = c.steady_state(SteadyStateMethod::GaussSeidel(GaussSeidelOptions::default())).unwrap();
            prop_assert!(relative_difference(&lu, &gs) < 1e-6);
            prop_assert!((lu.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(lu.iter().all(|&p| p >= -1e-12));
        }

        #[test]
        fn steady_state_satisfies_balance_equations(c in ergodic_generator(4)) {
            let pi = c.steady_state(SteadyStateMethod::Lu).unwrap();
            let residual = c.generator().vec_mul(&pi).unwrap();
            prop_assert!(residual.iter().all(|r| r.abs() < 1e-8));
        }

        #[test]
        fn uniformization_preserves_stationary_distribution(c in ergodic_generator(4)) {
            // π of the CTMC is also stationary for P̄ = I + Q/v.
            let pi = c.steady_state(SteadyStateMethod::Lu).unwrap();
            let v = c.max_departure_rate() * 1.25;
            let p_bar = c.uniformized_jump(v).unwrap();
            let prop = p_bar.vec_mul(&pi).unwrap();
            prop_assert!(relative_difference(&prop, &pi) < 1e-8);
        }
    }
}
