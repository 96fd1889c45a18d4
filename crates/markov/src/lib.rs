//! Markov-chain machinery for WFMS performance, availability, and
//! performability models.
//!
//! This crate is the mathematical core of the reproduction of
//! *"Performance and Availability Assessment for the Configuration of
//! Distributed Workflow Management Systems"* (Gillmann, Weissenfels,
//! Weikum, Kraiss — EDBT 2000). It provides, dependency-free:
//!
//! * [`linalg`] — dense matrices, LU, power iteration, CSR matrices;
//! * [`ctmc`] — continuous-time chains in the paper's `(P, H)`
//!   parameterization, generators, steady state, first-passage times,
//!   and the expected visits before absorption (one row of the
//!   fundamental matrix, from one solve);
//! * [`transient`] — uniformization, taboo probabilities, `z_max`
//!   selection, Poisson-weighted transient distributions;
//! * [`reward`] — Markov reward models (reward-until-absorption both via
//!   the paper's truncated formula and exactly; steady-state reward);
//! * [`phase_type`] — two-moment phase-type fitting for refining
//!   non-exponential states (Sec. 5.1 of the paper);
//! * [`checks`] — the `M0xx` generator lint pass of the `wfms-analysis`
//!   diagnostics engine.
//!
//! # Example: turnaround time of a tiny workflow
//!
//! ```
//! use wfms_markov::ctmc::Ctmc;
//! use wfms_markov::linalg::Matrix;
//!
//! // NewOrder (2 min) -> Ship (3 min) -> done.
//! let jump = Matrix::from_nested(&[
//!     &[0.0, 1.0, 0.0],
//!     &[0.0, 0.0, 1.0],
//!     &[0.0, 0.0, 1.0],
//! ]);
//! let wf = Ctmc::from_jump_chain(jump, vec![2.0, 3.0, f64::INFINITY]).unwrap();
//! let turnaround = wf.mean_first_passage(2).unwrap()[0];
//! assert!((turnaround - 5.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod checks;
pub mod ctmc;
pub mod error;
pub mod linalg;
pub mod phase_type;
pub mod reward;
pub mod transient;

pub use checks::{lint_ctmc, lint_generator};
pub use ctmc::{Ctmc, SteadyStateMethod};
pub use error::ChainError;
pub use phase_type::{PhaseType, PhaseTypeError};
pub use reward::{
    reward_until_absorption_exact, reward_until_absorption_uniformized, steady_state_reward,
    TruncatedReward, TruncationOptions,
};
pub use transient::{AbsorptionSequence, SquaringTable, Uniformized};
