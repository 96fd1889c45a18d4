//! The search decision journal: a structured record of every candidate
//! the [`AssessmentEngine`](crate::AssessmentEngine) evaluated and what
//! the search decided about it.
//!
//! The paper's pitch is *configuration by assessment* — a planner should
//! be able to see **why** a configuration won, not just that it did.
//! Observability spans answer "where did the time go"; this journal
//! answers "why was each candidate accepted, rejected, or quarantined":
//! per candidate it records the replica vector `Y`, cost, predicted
//! availability and worst waiting time, the relative goal slacks, the
//! engine-cache provenance of the assessment (record/block hit vs miss),
//! the degradation summary, and the decision outcome with a stable
//! reason name.
//!
//! The journal is process-global and **off by default** — each emission
//! point costs one relaxed atomic load while disabled, the same
//! contract as spans, timeline events, and failpoints. The CLI enables
//! it for `--journal <file>` and persists the events as JSONL
//! ([`to_jsonl`]); `wfms explain` replays that file ([`from_jsonl`]).
//!
//! # Stable vocabulary
//!
//! Outcome and reason names (the `pub const` strings below) are a
//! stable interface like span names and diagnostic codes; they are
//! machine-checked against the DESIGN.md §7 and README tables by
//! `wfms-audit`. Every emission also drops a matching
//! `decision-<outcome>` instant marker on the timeline, so Perfetto
//! shows the decisions in between the solver spans.
//!
//! # Determinism
//!
//! Events carry **no timestamps**, and the deterministic searches emit
//! them at their in-order consumption points, so two identical runs
//! produce byte-identical JSONL (`wfms explain` output is byte-stable).
//! One caveat: when several threads search one shared engine (the
//! daemon's workers on one tenant), *which* thread fills a shared
//! record first is a race, so the per-candidate hit/miss split may vary
//! between runs (the assessment numbers do not — see the engine's
//! determinism contract).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::assess::Assessment;
use crate::goals::Goals;

/// Outcome name: the candidate met every goal and the search took it.
pub const OUTCOME_ACCEPT: &str = "accept";
/// Outcome name: the candidate was assessed and passed over.
pub const OUTCOME_REJECT: &str = "reject";
/// Outcome name: the candidate's assessment failed irrecoverably and
/// the search skipped it (mirrors `config.quarantined`).
pub const OUTCOME_QUARANTINE: &str = "quarantine";
/// Outcome name: the terminal event naming the configuration the search
/// returned (deterministic searches duplicate their last accept;
/// annealing names the cheapest feasible configuration visited).
pub const OUTCOME_WINNER: &str = "winner";

/// Reason: every configured goal holds.
pub const REASON_GOALS_MET: &str = "goals-met";
/// Reason: a waiting-time goal (global or per-type) is violated.
pub const REASON_WAITING_UNMET: &str = "waiting-time-goal-unmet";
/// Reason: the availability goal is violated.
pub const REASON_AVAILABILITY_UNMET: &str = "availability-goal-unmet";
/// Reason: both the waiting-time and availability goals are violated.
pub const REASON_GOALS_UNMET: &str = "goals-unmet";
/// Reason: the candidate saturates (no finite waiting time exists), so
/// the waiting-time goal cannot hold.
pub const REASON_SATURATED: &str = "saturated";
/// Reason: annealing's Metropolis rule accepted the move (the walk
/// moved here; goal satisfaction is reported separately via
/// `goals_met`).
pub const REASON_METROPOLIS_ACCEPTED: &str = "metropolis-accepted";
/// Reason: annealing's Metropolis rule rejected the move.
pub const REASON_METROPOLIS_REJECTED: &str = "metropolis-rejected";
/// Reason: the assessment itself failed (quarantine; the event's
/// `error` field carries the rendered error).
pub const REASON_ASSESSMENT_FAILED: &str = "assessment-failed";

/// Timeline instant-event name emitted with an accept decision.
pub const EVENT_DECISION_ACCEPT: &str = "decision-accept";
/// Timeline instant-event name emitted with a reject decision.
pub const EVENT_DECISION_REJECT: &str = "decision-reject";
/// Timeline instant-event name emitted with a quarantine decision.
pub const EVENT_DECISION_QUARANTINE: &str = "decision-quarantine";
/// Timeline instant-event name emitted with the winner event.
pub const EVENT_DECISION_WINNER: &str = "decision-winner";

/// Cap on journaled events; protects unbounded walks from unbounded
/// memory. Events past the cap are counted in the snapshot's disclosed
/// `dropped_decisions`, never silently lost.
pub const DECISION_CAP: usize = 262_144;

/// Where each cache answer of one assessment came from (see the engine
/// module docs): the per-type `(type, Y_x)` records and the birth–death
/// blocks behind them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheProvenance {
    /// Per-type records answered from the cache.
    pub state_hits: u64,
    /// Per-type records filled.
    pub state_misses: u64,
    /// Birth–death blocks answered from the cache (only a record fill
    /// looks one up).
    pub block_hits: u64,
    /// Birth–death blocks that had to be built.
    pub block_misses: u64,
    /// `"hit"` when every record replayed from the cache, `"miss"` when
    /// some record had to be filled, `"unknown"` when no record was
    /// reached (quarantine before the lookup).
    pub solution: String,
}

impl Default for CacheProvenance {
    fn default() -> Self {
        CacheProvenance {
            state_hits: 0,
            state_misses: 0,
            block_hits: 0,
            block_misses: 0,
            solution: "unknown".to_string(),
        }
    }
}

/// Relative slack of each configured goal: positive means satisfied
/// with room, negative means violated, `None` means the goal is not
/// configured (or, for waiting, that the candidate saturates).
///
/// The slacks are normalized so they are directly comparable — the
/// **binding** goal of a winner is the one with the smallest slack:
/// * waiting: `min_x (threshold_x − w_x) / threshold_x` over the types
///   with a threshold;
/// * availability: `(availability − min) / (1 − min)` (the unavailability
///   budget left, in units of the allowed unavailability).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GoalMargins {
    /// Relative waiting-time slack (worst type).
    pub waiting: Option<f64>,
    /// Relative availability slack.
    pub availability: Option<f64>,
}

impl GoalMargins {
    /// Computes the slacks of `assessment` against `goals`.
    pub fn compute(assessment: &Assessment, goals: &Goals) -> Self {
        let waiting = assessment.expected_waiting.as_ref().and_then(|waits| {
            waits
                .iter()
                .enumerate()
                .filter_map(|(x, &w)| {
                    goals
                        .waiting_threshold_for(x)
                        .map(|threshold| (threshold - w) / threshold)
                })
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        });
        let availability = goals.min_availability.map(|min| {
            if min < 1.0 {
                (assessment.availability - min) / (1.0 - min)
            } else {
                assessment.availability - min
            }
        });
        GoalMargins {
            waiting,
            availability,
        }
    }

    /// The binding goal: the configured goal with the smallest relative
    /// slack (`"waiting-time"`, `"availability"`, or `None` when no
    /// goal produced a slack).
    pub fn binding_goal(&self) -> Option<&'static str> {
        match (self.waiting, self.availability) {
            (Some(w), Some(a)) => Some(if w <= a {
                "waiting-time"
            } else {
                "availability"
            }),
            (Some(_), None) => Some("waiting-time"),
            (None, Some(_)) => Some("availability"),
            (None, None) => None,
        }
    }
}

/// Compact graceful-degradation summary carried on an event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationSummary {
    /// Evaluations charged at their pessimistic caps, one per
    /// `(type, up-count)`.
    pub failed_states: usize,
    /// Stationary mass those evaluations touch.
    pub charged_mass: f64,
}

/// One journaled decision. See the module docs for the vocabulary and
/// the determinism caveat on `cache`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionEvent {
    /// Emission sequence number (0-based, process-wide since the last
    /// journal reset).
    pub seq: u64,
    /// Which search decided: `greedy`, `exhaustive`, `bnb`,
    /// `annealing`, or `assess` (single-shot assessment).
    pub search: String,
    /// The candidate replica vector `Y`.
    pub candidate: Vec<usize>,
    /// Total servers of the candidate.
    pub cost: usize,
    /// Predicted availability (absent on quarantine).
    pub availability: Option<f64>,
    /// Predicted worst per-type expected waiting time (absent on
    /// saturation and quarantine).
    pub w_max: Option<f64>,
    /// True when every configured goal holds.
    pub goals_met: bool,
    /// Outcome name (`OUTCOME_*`).
    pub outcome: String,
    /// Reason name (`REASON_*`).
    pub reason: String,
    /// Rendered assessment error (quarantine only).
    pub error: Option<String>,
    /// Relative goal slacks.
    pub margins: GoalMargins,
    /// Engine-cache provenance of the assessment.
    pub cache: CacheProvenance,
    /// Degradation summary, when the assessment degraded.
    pub degradation: Option<DegradationSummary>,
}

/// Everything the journal collected.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Events in emission order.
    pub events: Vec<DecisionEvent>,
    /// Events dropped because [`DECISION_CAP`] was reached.
    pub dropped_decisions: u64,
}

impl JournalSnapshot {
    /// True when nothing was recorded (and nothing was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped_decisions == 0
    }
}

#[derive(Default)]
struct JournalState {
    events: Vec<DecisionEvent>,
    dropped: u64,
    next_seq: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<JournalState>> = Mutex::new(None);

fn lock_state() -> std::sync::MutexGuard<'static, Option<JournalState>> {
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts journaling decisions (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Stops journaling; already-recorded events are kept until [`take`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// True while the journal is collecting. This is the single relaxed
/// atomic load every emission point pays while disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes everything collected so far, leaving the journal empty and the
/// sequence counter at zero.
pub fn take() -> JournalSnapshot {
    match lock_state().take() {
        Some(state) => JournalSnapshot {
            events: state.events,
            dropped_decisions: state.dropped,
        },
        None => JournalSnapshot::default(),
    }
}

fn push(event_seq_placeholder: DecisionEvent) {
    let mut guard = lock_state();
    let state = guard.get_or_insert_with(JournalState::default);
    let mut event = event_seq_placeholder;
    event.seq = state.next_seq;
    state.next_seq += 1;
    if state.events.len() < DECISION_CAP {
        state.events.push(event);
    } else {
        state.dropped += 1;
    }
}

fn degradation_summary(assessment: &Assessment) -> Option<DegradationSummary> {
    assessment.degradation.as_ref().map(|d| DegradationSummary {
        failed_states: d.failed_states,
        charged_mass: d.charged_mass,
    })
}

/// The stable reject reason for an assessed-but-rejected candidate.
pub fn rejection_reason(assessment: &Assessment, goals: &Goals) -> &'static str {
    let any_waiting_goal = goals.max_waiting_time.is_some() || !goals.per_type_waiting.is_empty();
    match (
        assessment.goals.waiting_time_met,
        assessment.goals.availability_met,
    ) {
        (true, true) => REASON_GOALS_MET,
        (false, true) => {
            if any_waiting_goal && assessment.expected_waiting.is_none() {
                REASON_SATURATED
            } else {
                REASON_WAITING_UNMET
            }
        }
        (true, false) => REASON_AVAILABILITY_UNMET,
        (false, false) => REASON_GOALS_UNMET,
    }
}

fn instant_for(outcome: &str) {
    let name = if outcome == OUTCOME_ACCEPT {
        EVENT_DECISION_ACCEPT
    } else if outcome == OUTCOME_QUARANTINE {
        EVENT_DECISION_QUARANTINE
    } else if outcome == OUTCOME_WINNER {
        EVENT_DECISION_WINNER
    } else {
        EVENT_DECISION_REJECT
    };
    wfms_obs::instant(name);
}

/// Journals one assessed candidate. `outcome`/`reason` of `None` derive
/// the goal-based decision (accept on goals met, else the reject
/// reason); annealing passes its Metropolis verdict explicitly.
pub(crate) fn record_assessed(
    search: &'static str,
    assessment: &Assessment,
    goals: &Goals,
    cache: CacheProvenance,
    outcome_override: Option<(&'static str, &'static str)>,
) {
    if !is_enabled() {
        return;
    }
    let goals_met = assessment.meets_goals();
    let (outcome, reason) = outcome_override.unwrap_or_else(|| {
        if goals_met {
            (OUTCOME_ACCEPT, REASON_GOALS_MET)
        } else {
            (OUTCOME_REJECT, rejection_reason(assessment, goals))
        }
    });
    instant_for(outcome);
    push(DecisionEvent {
        seq: 0,
        search: search.to_string(),
        candidate: assessment.replicas.clone(),
        cost: assessment.cost,
        availability: Some(assessment.availability),
        w_max: assessment.max_expected_waiting,
        goals_met,
        outcome: outcome.to_string(),
        reason: reason.to_string(),
        error: None,
        margins: GoalMargins::compute(assessment, goals),
        cache,
        degradation: degradation_summary(assessment),
    });
}

/// Journals a quarantined candidate (assessment failed irrecoverably).
pub(crate) fn record_quarantined(search: &'static str, replicas: &[usize], error: &str) {
    if !is_enabled() {
        return;
    }
    instant_for(OUTCOME_QUARANTINE);
    push(DecisionEvent {
        seq: 0,
        search: search.to_string(),
        candidate: replicas.to_vec(),
        cost: replicas.iter().sum(),
        availability: None,
        w_max: None,
        goals_met: false,
        outcome: OUTCOME_QUARANTINE.to_string(),
        reason: REASON_ASSESSMENT_FAILED.to_string(),
        error: Some(error.to_string()),
        margins: GoalMargins::default(),
        cache: CacheProvenance::default(),
        degradation: None,
    });
}

/// Journals the terminal winner event of a search.
pub(crate) fn record_winner(search: &'static str, assessment: &Assessment, goals: &Goals) {
    if !is_enabled() {
        return;
    }
    record_assessed(
        search,
        assessment,
        goals,
        CacheProvenance::default(),
        Some((OUTCOME_WINNER, REASON_GOALS_MET)),
    );
}

/// Renders a snapshot as JSONL: one compact JSON object per event, plus
/// (only when events were dropped) a trailing
/// `{"dropped_decisions": N}` footer so truncation is disclosed in the
/// file itself.
pub fn to_jsonl(snapshot: &JournalSnapshot) -> String {
    let mut out = String::new();
    for event in &snapshot.events {
        match serde_json::to_string(event) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => continue,
        }
    }
    if snapshot.dropped_decisions > 0 {
        out.push_str(&format!(
            "{{\"dropped_decisions\": {}}}\n",
            snapshot.dropped_decisions
        ));
    }
    out
}

#[derive(Deserialize)]
struct JournalFooter {
    dropped_decisions: u64,
}

/// Parses JSONL produced by [`to_jsonl`]. Blank lines are skipped; a
/// line that is neither an event nor the footer fails with its
/// 1-based line number.
pub fn from_jsonl(text: &str) -> Result<JournalSnapshot, String> {
    let mut snapshot = JournalSnapshot::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<DecisionEvent>(line) {
            Ok(event) => snapshot.events.push(event),
            Err(event_err) => match serde_json::from_str::<JournalFooter>(line) {
                Ok(footer) => snapshot.dropped_decisions += footer.dropped_decisions,
                Err(_) => {
                    return Err(format!("line {}: {event_err}", idx + 1));
                }
            },
        }
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goals::GoalCheck;

    fn sample_assessment(goals_met: bool) -> Assessment {
        Assessment {
            replicas: vec![2, 1, 3],
            cost: 6,
            availability: 0.9995,
            downtime_minutes_per_year: 262.8,
            expected_waiting: Some(vec![0.004, 0.002, 0.008]),
            max_expected_waiting: Some(0.008),
            probability_saturated: 0.0,
            degradation: None,
            goals: GoalCheck {
                waiting_time_met: goals_met,
                availability_met: true,
            },
        }
    }

    #[test]
    fn margins_pick_the_binding_goal() {
        let goals = Goals::new(0.01, 0.999).unwrap();
        let margins = GoalMargins::compute(&sample_assessment(true), &goals);
        // waiting slack: (0.01 - 0.008) / 0.01 = 0.2
        assert!((margins.waiting.unwrap() - 0.2).abs() < 1e-12);
        // availability slack: (0.9995 - 0.999) / 0.001 = 0.5
        assert!((margins.availability.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(margins.binding_goal(), Some("waiting-time"));
    }

    #[test]
    fn rejection_reasons_are_stable_names() {
        let goals = Goals::new(0.001, 0.999).unwrap();
        let mut a = sample_assessment(false);
        assert_eq!(rejection_reason(&a, &goals), REASON_WAITING_UNMET);
        a.goals.availability_met = false;
        assert_eq!(rejection_reason(&a, &goals), REASON_GOALS_UNMET);
        a.goals.waiting_time_met = true;
        assert_eq!(rejection_reason(&a, &goals), REASON_AVAILABILITY_UNMET);
        a.goals.waiting_time_met = false;
        a.goals.availability_met = true;
        a.expected_waiting = None;
        a.max_expected_waiting = None;
        assert_eq!(rejection_reason(&a, &goals), REASON_SATURATED);
    }

    #[test]
    fn jsonl_round_trips_events_and_footer() {
        let goals = Goals::new(0.01, 0.999).unwrap();
        let assessment = sample_assessment(true);
        let event = DecisionEvent {
            seq: 0,
            search: "greedy".to_string(),
            candidate: assessment.replicas.clone(),
            cost: assessment.cost,
            availability: Some(assessment.availability),
            w_max: assessment.max_expected_waiting,
            goals_met: true,
            outcome: OUTCOME_ACCEPT.to_string(),
            reason: REASON_GOALS_MET.to_string(),
            error: None,
            margins: GoalMargins::compute(&assessment, &goals),
            cache: CacheProvenance::default(),
            degradation: Some(DegradationSummary {
                failed_states: 2,
                charged_mass: 4.627e-4,
            }),
        };
        let snapshot = JournalSnapshot {
            events: vec![event],
            dropped_decisions: 3,
        };
        let jsonl = to_jsonl(&snapshot);
        assert_eq!(jsonl.lines().count(), 2);
        let parsed = from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn from_jsonl_reports_the_failing_line() {
        let err = from_jsonl("\n{not json}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "got {err}");
    }

    #[test]
    fn disabled_journal_records_nothing() {
        // The journal is process-global; tests in this binary that
        // enable it use their own locking, and this one only asserts
        // the disabled path.
        if is_enabled() {
            return;
        }
        record_quarantined("greedy", &[1, 1, 1], "boom");
        assert!(take().is_empty());
    }
}
