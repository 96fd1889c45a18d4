//! # wfms-core
//!
//! Performability-driven configuration of distributed workflow management
//! systems — a Rust reproduction of Gillmann, Weissenfels, Weikum, and
//! Kraiss, *"Performance and Availability Assessment for the
//! Configuration of Distributed Workflow Management Systems"* (EDBT 2000).
//!
//! This crate is the facade: it re-exports the whole toolkit and offers
//! the high-level [`ConfigurationTool`].
//!
//! ```
//! use wfms_core::{ConfigurationTool, Goals, SearchOptions};
//! use wfms_core::statechart::paper_section52_registry;
//! use wfms_core::workloads::ep_workflow;
//!
//! let mut tool = ConfigurationTool::new(paper_section52_registry());
//! tool.add_workflow(ep_workflow(), 0.5).unwrap();
//! // Ask for a configuration with sub-3-second waits and 99.99 % availability.
//! let goals = Goals::new(0.05, 0.9999).unwrap();
//! let rec = tool.recommend(&goals, &SearchOptions::default()).unwrap();
//! assert!(rec.assessment.meets_goals());
//! ```
//!
//! The layers underneath, each usable on its own:
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`diag`] | — | diagnostic codes, severities, locations |
//! | [`analysis`] | all | multi-pass static diagnostics engine (`wfms lint`) |
//! | [`markov`] | 3, 4.1–4.2, 5.2 | CTMCs, uniformization, rewards, solvers |
//! | [`statechart`] | 2, 3 | architecture model, spec language, mapping |
//! | [`queueing`] | 4.4 | M/G/1, service moments, stream aggregation |
//! | [`perf`] | 4 | turnaround, load, throughput, waiting times |
//! | [`avail`] | 5 | system-state CTMC, availability, downtime |
//! | [`performability`] | 6 | degradation-aware expected waiting times |
//! | [`config`] | 7 | goals, greedy/exhaustive search, calibration |
//! | [`fault`] | — | failpoint registry for fault-injection testing |
//! | [`sim`] | (validation) | discrete-event WFMS simulator |
//! | [`workloads`] | 3.1 | EP workflow (Figs. 3–4) and enterprise mixes |

#![warn(missing_docs)]

mod tool;

pub use tool::{AvailabilityFigures, ConfigurationTool};

pub use wfms_analysis as analysis;
pub use wfms_avail as avail;
pub use wfms_config as config;
pub use wfms_diag as diag;
pub use wfms_fault as fault;
pub use wfms_markov as markov;
pub use wfms_perf as perf;
pub use wfms_performability as performability;
pub use wfms_queueing as queueing;
pub use wfms_sim as sim;
pub use wfms_statechart as statechart;
pub use wfms_workloads as workloads;

pub use wfms_avail::AvailBackend;
pub use wfms_config::{
    Assessment, AssessmentEngine, CacheStats, ConfigError, DegradationReport, DegradedStateRecord,
    GoalCheck, Goals, QuarantinedCandidate, SearchOptions, SearchOptionsBuilder, SearchResult,
};
pub use wfms_performability::{DegradedPolicy, PerformabilityReport};
pub use wfms_statechart::{Configuration, ServerTypeRegistry, SystemState, WorkflowSpec};
