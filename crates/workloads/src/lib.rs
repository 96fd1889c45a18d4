//! Reference workflow specifications for the WFMS configuration models.
//!
//! * [`ep`] — the paper's electronic-purchase workflow (Fig. 3), whose
//!   top level maps to the eight-state CTMC of Fig. 4, against the
//!   three-server-type registry of Sec. 5.2.
//! * [`enterprise`] — a five-server-type scenario (one ORB, two
//!   workflow-engine types, two application-server types, as in Fig. 2)
//!   with TPC-C-style order fulfillment, insurance-claim, and
//!   loan-approval workflow types.
//! * [`shapes`] — generated sequential and fan charts of any size, for
//!   scaling measurements.

#![warn(missing_docs)]

pub mod enterprise;
pub mod ep;
pub mod shapes;

pub use enterprise::{
    enterprise_mix, enterprise_registry, insurance_claim_workflow, loan_approval_workflow,
    order_fulfillment_workflow,
};
pub use ep::{ep_workflow, validated_ep_workflow, EP_DEFAULT_ARRIVAL_RATE, EP_SIM_ARRIVAL_RATE};
pub use shapes::{fan_workflow, sequential_workflow};
