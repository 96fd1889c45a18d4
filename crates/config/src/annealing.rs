//! Simulated-annealing configuration search.
//!
//! Sec. 7.2 of the paper: "While this may eventually entail full-fledged
//! algorithms for mathematical optimization such as branch-and-bound or
//! simulated annealing, our first version of the tool uses a simple
//! greedy heuristics." This module is that eventual extension: a
//! Metropolis walk over replication vectors with a penalized-cost
//! objective, useful when goal structures (per-type thresholds, many
//! server types) create local minima the greedy path cannot escape.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use wfms_statechart::Configuration;

use crate::assess::Assessment;
use crate::engine::{AssessmentEngine, RecordTable};
use crate::error::ConfigError;
use crate::goals::Goals;
use crate::journal;
use crate::search::{QuarantinedCandidate, SearchResult};

/// Annealing schedule and move parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingOptions {
    /// Number of Metropolis steps.
    pub steps: usize,
    /// Initial temperature, in cost units (servers).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied each step (`0 < c < 1`).
    pub cooling: f64,
    /// RNG seed — equal seeds give identical searches.
    pub seed: u64,
    /// Upper bound on replicas of any single type. The bound on the
    /// total is the engine's
    /// [`SearchOptions::max_total_servers`](crate::SearchOptions).
    pub max_replicas_per_type: usize,
}

impl Default for AnnealingOptions {
    fn default() -> Self {
        AnnealingOptions {
            steps: 400,
            initial_temperature: 4.0,
            cooling: 0.99,
            seed: 42,
            max_replicas_per_type: 16,
        }
    }
}

/// Penalty weight per unit of goal violation (in cost units). Must
/// dominate any realistic cost difference so infeasible configurations
/// never beat feasible ones.
const PENALTY_WEIGHT: f64 = 1_000.0;

/// Penalized objective: cost plus goal-violation penalties.
fn objective(assessment: &Assessment, goals: &Goals) -> f64 {
    let mut value = assessment.cost as f64;
    if let Some(min_avail) = goals.min_availability {
        let shortfall = (1.0 - assessment.availability) / (1.0 - min_avail);
        if shortfall > 1.0 {
            // Log scale: each missing "nine" costs the same.
            value += PENALTY_WEIGHT * shortfall.log10().max(0.01);
        }
    }
    let any_waiting_goal = goals.max_waiting_time.is_some() || !goals.per_type_waiting.is_empty();
    if any_waiting_goal {
        match &assessment.expected_waiting {
            None => value += 10.0 * PENALTY_WEIGHT, // saturated
            Some(waits) => {
                for (x, &w) in waits.iter().enumerate() {
                    if let Some(threshold) = goals.waiting_threshold_for(x) {
                        let ratio = w / threshold;
                        if ratio > 1.0 {
                            value += PENALTY_WEIGHT * (ratio - 1.0).min(10.0);
                        }
                    }
                }
            }
        }
    }
    value
}

/// The Metropolis walk behind [`AssessmentEngine::annealing`],
/// assessing candidates through the engine's records. The walk is
/// sequential: each step depends on the previous accept/reject.
///
/// Because the walk moves one ±1-replica coordinate at a time, every
/// assessment after the first fills at most one new per-type record
/// and replays the other `k−1` from the walk's record table, with no
/// annealing-specific code. The walk is deliberately
/// *not* reordered by the closed-form move ranking
/// ([`crate::moves`]): proposals are RNG-pinned, and reordering them
/// would change the trace for every seed.
pub(crate) fn annealing_walk(
    engine: &AssessmentEngine,
    opts: &AnnealingOptions,
) -> Result<SearchResult, ConfigError> {
    let registry = engine.registry();
    let goals = engine.goals();
    let budget = engine.options().max_total_servers;
    let mut obs_span = wfms_obs::span!(
        "annealing-search",
        steps = opts.steps,
        seed = opts.seed,
        budget = budget
    );
    let k = registry.len();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let mut table = RecordTable::new(k);
    let mut current = Configuration::minimal(registry);
    let (initial, initial_provenance) = engine.assess_in(current.clone(), &mut table)?;
    journal::record_assessed("annealing", &initial, goals, initial_provenance, None);
    let mut current_obj = objective(&initial, goals);
    let mut evaluations = 1;
    // The cheapest feasible assessment so far, with its provenance.
    let mut best_feasible = initial
        .meets_goals()
        .then(|| (initial.clone(), initial_provenance));
    let mut trace = vec![initial];

    let mut temperature = opts.initial_temperature;
    let mut accepted: u64 = 0;
    let mut rejected: u64 = 0;
    let mut quarantined: Vec<QuarantinedCandidate> = Vec::new();
    let strict = engine.options().strict;
    for _ in 0..opts.steps {
        // Propose: ±1 replica of a random type, within bounds.
        let x = rng.gen_range(0..k);
        let grow = rng.gen_bool(0.5);
        let mut replicas = current.as_slice().to_vec();
        if grow {
            if replicas[x] >= opts.max_replicas_per_type || replicas.iter().sum::<usize>() >= budget
            {
                temperature *= opts.cooling;
                continue;
            }
            replicas[x] += 1;
        } else {
            if replicas[x] <= 1 {
                temperature *= opts.cooling;
                continue;
            }
            replicas[x] -= 1;
        }
        let candidate = Configuration::new(registry, replicas)?;
        let (assessment, provenance) = match engine.assess_in(candidate.clone(), &mut table) {
            Ok(assessed) => assessed,
            Err(e) if !strict && e.is_candidate_local() => {
                // Quarantine the irrecoverable candidate and treat the
                // move as rejected: the walk stays at `current` and the
                // RNG stream is unaffected for later steps.
                wfms_obs::counter("config.quarantined", 1);
                let error = e.to_string();
                journal::record_quarantined("annealing", candidate.as_slice(), &error);
                quarantined.push(QuarantinedCandidate {
                    replicas: candidate.as_slice().to_vec(),
                    error,
                });
                rejected += 1;
                temperature *= opts.cooling;
                continue;
            }
            Err(e) => return Err(e),
        };
        evaluations += 1;
        let obj = objective(&assessment, goals);

        let accept = obj <= current_obj
            || rng.gen::<f64>() < ((current_obj - obj) / temperature.max(1e-9)).exp();
        journal::record_assessed(
            "annealing",
            &assessment,
            goals,
            provenance,
            Some(if accept {
                (journal::OUTCOME_ACCEPT, journal::REASON_METROPOLIS_ACCEPTED)
            } else {
                (journal::OUTCOME_REJECT, journal::REASON_METROPOLIS_REJECTED)
            }),
        );
        if accept {
            accepted += 1;
            current = candidate;
            current_obj = obj;
            if assessment.meets_goals()
                && best_feasible
                    .as_ref()
                    .is_none_or(|(best, _)| assessment.cost < best.cost)
            {
                best_feasible = Some((assessment.clone(), provenance));
            }
            trace.push(assessment);
        } else {
            rejected += 1;
        }
        temperature *= opts.cooling;
    }

    obs_span.record("evaluations", evaluations as u64);
    obs_span.record("accepted", accepted);
    obs_span.record("rejected", rejected);
    wfms_obs::counter("config.annealing.accepted", accepted);
    wfms_obs::counter("config.annealing.rejected", rejected);
    match best_feasible {
        Some((assessment, provenance)) => {
            journal::record_winner("annealing", &assessment, goals, provenance);
            Ok(SearchResult {
                assessment,
                trace,
                evaluations,
                quarantined,
            })
        }
        None => Err(ConfigError::GoalsUnreachable {
            budget,
            last_candidate: current.as_slice().to_vec(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchOptions;
    use wfms_perf::SystemLoad;
    use wfms_statechart::{paper_section52_registry, ServerTypeRegistry};

    fn load_at(rho_single: f64, reg: &ServerTypeRegistry) -> SystemLoad {
        let rates: Vec<f64> = reg
            .iter()
            .map(|(_, t)| rho_single / t.service_time_mean)
            .collect();
        SystemLoad {
            request_rates: rates,
            total_arrival_rate: 1.0,
            active_instances: vec![],
        }
    }

    /// An engine with a total-server budget of `budget` and every other
    /// option at its default.
    fn budget_engine(
        reg: &ServerTypeRegistry,
        load: &SystemLoad,
        goals: &Goals,
        budget: usize,
    ) -> AssessmentEngine {
        let search = SearchOptions::builder().max_total_servers(budget).build();
        AssessmentEngine::new(reg, load, goals, search).unwrap()
    }

    #[test]
    fn annealing_finds_a_feasible_configuration() {
        let reg = paper_section52_registry();
        let load = load_at(1.5, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let result = budget_engine(&reg, &load, &goals, 64)
            .annealing(&AnnealingOptions::default())
            .unwrap();
        assert!(result.assessment.meets_goals());
    }

    #[test]
    fn annealing_is_close_to_greedy_cost() {
        let reg = paper_section52_registry();
        let load = load_at(1.5, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let greedy = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default())
            .unwrap()
            .greedy()
            .unwrap();
        let annealed = budget_engine(&reg, &load, &goals, 64)
            .annealing(&AnnealingOptions::default())
            .unwrap();
        assert!(
            annealed.cost() <= greedy.cost() + 2,
            "annealing {} vs greedy {}",
            annealed.cost(),
            greedy.cost()
        );
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::availability_only(0.9999).unwrap();
        let opts = AnnealingOptions::default();
        let a = budget_engine(&reg, &load, &goals, 64)
            .annealing(&opts)
            .unwrap();
        let b = budget_engine(&reg, &load, &goals, 64)
            .annealing(&opts)
            .unwrap();
        assert_eq!(a.assessment, b.assessment);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn annealing_reports_unreachable_goals() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::availability_only(0.999_999_999_999).unwrap();
        let opts = AnnealingOptions {
            steps: 50,
            max_replicas_per_type: 2,
            ..AnnealingOptions::default()
        };
        assert!(matches!(
            budget_engine(&reg, &load, &goals, 6).annealing(&opts),
            Err(ConfigError::GoalsUnreachable { .. })
        ));
    }

    #[test]
    fn annealing_handles_per_type_goals() {
        let reg = paper_section52_registry();
        let load = load_at(1.8, &reg);
        // Demand a very fast application server but be lenient elsewhere.
        let goals = Goals::waiting_time_only(0.05)
            .unwrap()
            .with_type_waiting(2, 0.001)
            .unwrap();
        let result = budget_engine(&reg, &load, &goals, 64)
            .annealing(&AnnealingOptions::default())
            .unwrap();
        assert!(result.assessment.meets_goals());
        let y = &result.assessment.replicas;
        assert!(y[2] >= y[0], "app type must be replicated hardest: {y:?}");
    }

    #[test]
    fn objective_penalizes_violations_above_any_cost() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::availability_only(0.999_999).unwrap();
        let engine = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let cheap_bad = engine.assess(&Configuration::minimal(&reg)).unwrap();
        let pricey_good = engine
            .assess(&Configuration::uniform(&reg, 3).unwrap())
            .unwrap();
        assert!(objective(&cheap_bad, &goals) > objective(&pricey_good, &goals));
    }
}
