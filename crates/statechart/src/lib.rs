//! Workflow specification language and architectural model for the
//! distributed-WFMS configuration models.
//!
//! Reproduces Secs. 2 and 3 of *"Performance and Availability Assessment
//! for the Configuration of Distributed Workflow Management Systems"*
//! (EDBT 2000):
//!
//! * [`arch`] — the architectural model: server types (communication
//!   server, workflow engines, application servers) with failure/repair
//!   rates and service-time moments; configurations `Y` and system
//!   states `X`.
//! * [`spec`] — state charts with ECA rules, nesting, orthogonal
//!   components, probability-annotated transitions, and activity tables
//!   with per-server-type load vectors.
//! * [`builder`] — name-based chart construction.
//! * [`validate`] — fail-first validation of the stochastic-model
//!   assumptions.
//! * [`lint`] — the complete diagnostics walk behind [`validate`]
//!   (`W0xx` codes; see the `wfms-analysis` crate for the other passes).
//! * [`mapping`] — the Sec. 3.2 translation of a chart into the skeleton
//!   of its workflow CTMC (Fig. 3 → Fig. 4).

#![warn(missing_docs)]

pub mod arch;
pub mod builder;
pub mod dot;
pub mod error;
pub mod lint;
pub mod mapping;
pub mod spec;
pub mod validate;

pub use arch::{
    paper_section52_registry, ArchError, Configuration, ServerType, ServerTypeId, ServerTypeKind,
    ServerTypeRegistry, SystemState, MAX_REPLICAS,
};
pub use builder::ChartBuilder;
pub use dot::{chart_to_dot, mapping_to_dot};
pub use error::SpecError;
pub use lint::{lint_chart, lint_spec};
pub use mapping::{map_chart, ChartMapping, MappedKind};
pub use spec::{
    Action, ActivityKind, ActivitySpec, ChartState, CondExpr, EcaRule, StateChart, StateId,
    StateKind, Transition, WorkflowSpec,
};
pub use validate::{validate_chart, validate_spec};
