//! The WFMS performance model (Sec. 4 of the EDBT 2000 paper).
//!
//! Four stages:
//!
//! 1. **Turnaround time** `R_t` of each workflow type by first-passage
//!    analysis of its CTMC ([`workflow::analyze_workflow`]).
//! 2. **Load per instance** `r_{x,t}` — expected service requests per
//!    server type — by a Markov reward model (same entry point; choose
//!    exact or the paper's truncated uniformization via
//!    [`workflow::RequestMethod`]). The exact route computes the
//!    expected visits once per chart and dots them with each type's
//!    load row.
//! 3. **Total load and maximum sustainable throughput** over the whole
//!    workload mix ([`system::aggregate_load`],
//!    [`system::max_sustainable_throughput`]).
//! 4. **Waiting times** per server replica via M/G/1
//!    ([`system::waiting_times`], including degraded system states and
//!    the shared-machine generalization
//!    [`system::waiting_times_colocated`]).

#![warn(missing_docs)]

pub mod distribution;
pub mod error;
pub mod system;
pub mod workflow;

pub use distribution::TurnaroundDistribution;
pub use error::PerfError;
pub use system::{
    aggregate_load, max_sustainable_throughput, type_waiting_time, waiting_times,
    waiting_times_colocated, waiting_times_heterogeneous, ColocationGroup, SystemLoad,
    ThroughputReport, WaitingOutcome, WorkloadItem,
};
pub use workflow::{
    analyze_chart, analyze_workflow, AnalysisOptions, RequestMethod, WorkflowAnalysis,
};
