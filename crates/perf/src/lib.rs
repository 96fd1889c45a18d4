//! The WFMS performance model (Sec. 4 of the EDBT 2000 paper).
//!
//! Four stages:
//!
//! 1. **Turnaround time** `R_t` of each workflow type: one solve per
//!    chart level gives the expected visits `v_i` to each state before
//!    absorption, and `R_t = Σ_i v_i·H_i` ([`workflow::analyze_workflow`]).
//! 2. **Load per instance** `r_{x,t}` — expected service requests per
//!    server type — by a Markov reward model (same entry point; choose
//!    exact or the paper's truncated uniformization via
//!    [`workflow::RequestMethod`]). The exact route dots the same visits
//!    with each type's load row, `r_{x,t} = Σ_i v_i·L_{x,i}`.
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
