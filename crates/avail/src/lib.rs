//! The WFMS availability model (Sec. 5 of the EDBT 2000 paper).
//!
//! A CTMC over the system states `X ≤ Y` (currently available replicas
//! per server type) with failure transitions at rate `X_x · λ_x` and
//! repair transitions per a configurable [`model::RepairPolicy`]. The
//! steady-state analysis yields the probability of every degraded state,
//! the availability of the entire WFMS, and its expected downtime — the
//! quantities behind the paper's Sec. 5.2 example (71 h/year for the
//! unreplicated system, ~10 s/year for 3-way replication, under a minute
//! for the asymmetric (2,2,3) configuration).

#![warn(missing_docs)]

pub mod blocks;
pub mod error;
pub mod model;
pub mod phase;
pub mod product_form;
pub mod sparse_model;
pub mod state_space;

pub use blocks::BirthDeathBlock;
pub use error::AvailError;
pub use model::{
    closed_form_unavailability, AvailabilityModel, RepairPolicy, DEFAULT_STATE_CAP,
    MINUTES_PER_YEAR,
};
pub use phase::{single_repairman_type_unavailability, system_unavailability_with_repair_phases};
pub use product_form::{
    availability_gain, select_backend, steady_state_marginal, AvailBackend, ProductFormModel,
};
pub use sparse_model::{SparseAvailabilityModel, SPARSE_STATE_CAP};
pub use state_space::StateSpace;
