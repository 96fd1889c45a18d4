//! The WFMS configuration tool (Sec. 7 of the EDBT 2000 paper).
//!
//! Four components, mirroring the paper's architecture:
//!
//! * **Mapping** — workflow specifications are translated into CTMC
//!   models by `wfms-statechart` / `wfms-perf`; this crate consumes the
//!   resulting [`wfms_perf::SystemLoad`].
//! * **Calibration** ([`calibrate`]) — transition probabilities,
//!   residence times, and service moments estimated from audit trails
//!   and online statistics.
//! * **Evaluation** ([`AssessmentEngine::assess`], reporting an
//!   [`assess::Assessment`]) — availability (Sec. 5) and performability
//!   (Sec. 6) of a candidate configuration against administrator
//!   [`goals::Goals`].
//! * **Recommendation** ([`AssessmentEngine::greedy`] and its sibling
//!   searches, tuned by [`search::SearchOptions`]) — the greedy
//!   minimum-cost heuristic of Sec. 7.2, plus exact baselines for
//!   validating it.
//!
//! Both run on one [`AssessmentEngine`]; its results are bit-identical
//! to the `jobs = 1` path for every worker count.
//!
//! A fifth, cross-cutting component is the **decision journal**
//! ([`journal`]): every search emits a structured [`journal::DecisionEvent`]
//! per candidate (goal margins, cache provenance, degradation summary, accept/reject reason from a stable vocabulary), which the
//! CLI persists as JSONL and `wfms explain` replays.

#![warn(missing_docs)]

pub mod annealing;
pub mod assess;
pub mod calibrate;
pub mod engine;
pub mod error;
pub mod goals;
pub mod journal;
pub mod moves;
pub mod search;
pub mod sensitivity;

pub use annealing::AnnealingOptions;
pub use assess::{Assessment, DegradationReport, DegradedStateRecord, DEGRADATION_DETAIL_CAP};
pub use calibrate::{
    apply_to_spec, calibrate_from_traces, ApplyOptions, ApplyReport, CalibratedChart, StateVisit,
    WorkflowTrace, TRACE_FINAL,
};
pub use engine::{AssessmentEngine, CacheStats};
pub use error::ConfigError;
pub use goals::{GoalCheck, Goals};
pub use journal::{
    CacheProvenance, DecisionEvent, DegradationSummary, GoalMargins, JournalSnapshot,
};
pub use moves::{move_sensitivities, MoveSensitivity};
pub use search::{
    goal_lower_bounds, minimum_stable_replicas, QuarantinedCandidate, SearchOptions,
    SearchOptionsBuilder, SearchResult,
};
pub use sensitivity::{sensitivity, Parameter, SensitivityEntry, SensitivityOptions};
