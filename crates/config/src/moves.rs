//! Closed-form configuration-move sensitivities: what one more replica
//! of each type buys, `∂A/∂Y_x` and `∂W_x/∂Y_x`, without assessing the
//! neighbour configurations.
//!
//! Under the product decomposition (independent repair) a move
//! `Y_x → Y_x + 1` multiplies the availability by the factor
//! `(1 − m'_x[0]) / (1 − m_x[0])` ([`wfms_avail::availability_gain`]),
//! so the availability gained is `A · (factor − 1)` — exact, no chain
//! solve. The waiting-time side uses the *failure-blind* full-strength
//! M/G/1 wait at per-server rate `l_x / Y_x` — the same necessary-
//! condition model [`crate::search::goal_lower_bounds`] prunes with.
//! Both are ranking signals, not assessments: degraded states couple
//! the true `W_x` to every type's replica count, which is exactly why
//! the engine re-assesses exactly before accepting any winner.
//!
//! # Where ranking applies
//!
//! * **Greedy** — a screened step that proves a waiting violation but
//!   not the critical type can grow the ranked argmax
//!   ([`crate::SearchOptions::rank_moves`]).
//! * **Exhaustive / branch & bound** — the frontier is deliberately
//!   *not* reordered: candidates are scanned in enumeration order so
//!   the first hit is cost-optimal and the trace contract ("every
//!   candidate assessed, in order") holds; the adaptive-ε screen,
//!   rather than reordering, is what removes wasted exact work there.
//! * **Annealing** — the Metropolis walk is RNG-pinned; reordering its
//!   proposals would change the walk, so sensitivities are exposed for
//!   post-hoc explanation only.

use serde::{Deserialize, Serialize};

use wfms_avail::{availability_gain, BirthDeathBlock, RepairPolicy};
use wfms_perf::SystemLoad;
use wfms_statechart::{Configuration, ServerTypeRegistry};

use crate::error::ConfigError;

/// What adding one replica to a single server type buys — the
/// closed-form sensitivities behind move ranking and
/// `wfms sensitivity --moves`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoveSensitivity {
    /// Index of the server type the move grows.
    pub type_index: usize,
    /// The server type's name.
    pub name: String,
    /// Current replica count `Y_x` (the move is `Y_x → Y_x + 1`).
    pub replicas: usize,
    /// Multiplicative availability factor of the move,
    /// `(1 − m'_x[0]) / (1 − m_x[0])` — exact under independent repair.
    pub availability_factor: f64,
    /// Absolute availability gained, `A · (factor − 1)` — the discrete
    /// `∂A/∂Y_x`.
    pub availability_delta: f64,
    /// Failure-blind full-strength M/G/1 wait at `Y_x` replicas;
    /// `None` when the type is unstable there (`ρ ≥ 1`).
    pub waiting_before: Option<f64>,
    /// The same wait at `Y_x + 1` replicas.
    pub waiting_after: Option<f64>,
    /// The discrete `∂W_x/∂Y_x`, `waiting_after − waiting_before`
    /// (negative = improvement); `None` when either side is unstable —
    /// a move that *stabilizes* a type shows `waiting_before: None`
    /// with a finite `waiting_after`.
    pub waiting_delta: Option<f64>,
}

/// The failure-blind full-strength M/G/1 wait of type `st` under
/// per-type arrival rate `l_x` split over `y` replicas; `None` when
/// unstable.
fn full_strength_wait(
    st: &wfms_statechart::ServerType,
    l_x: f64,
    y: usize,
) -> Result<Option<f64>, ConfigError> {
    let per_server = l_x / y as f64;
    let service =
        wfms_queueing::ServiceMoments::new(st.service_time_mean, st.service_time_second_moment)
            .map_err(wfms_perf::PerfError::Queue)?;
    let queue =
        wfms_queueing::Mg1::new(per_server, service).map_err(wfms_perf::PerfError::Queue)?;
    Ok(queue.mean_waiting_time().ok())
}

/// Computes every one-replica move's closed-form sensitivities for
/// `config`, in type order. See the module docs for the models and
/// their (deliberate) limits.
///
/// # Errors
/// [`ConfigError`] on registry/load/configuration mismatches.
pub fn move_sensitivities(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    config: &Configuration,
) -> Result<Vec<MoveSensitivity>, ConfigError> {
    if load.request_rates.len() != registry.len() {
        return Err(ConfigError::Perf(wfms_perf::PerfError::LengthMismatch {
            what: "request rates",
            expected: registry.len(),
            actual: load.request_rates.len(),
        }));
    }
    if config.k() != registry.len() {
        return Err(ConfigError::Arch(
            wfms_statechart::ArchError::LengthMismatch {
                what: "configuration",
                expected: registry.len(),
                actual: config.k(),
            },
        ));
    }
    // The incumbent's exact availability and per-type all-down masses,
    // from the same birth–death marginals the product backend uses.
    let mut all_down = Vec::with_capacity(registry.len());
    let mut availability = 1.0;
    for (id, st) in registry.iter() {
        let block =
            BirthDeathBlock::for_type(st, config.as_slice()[id.0], RepairPolicy::Independent);
        let m0 = block.marginal_distribution()[0];
        availability *= 1.0 - m0;
        all_down.push(m0);
    }
    let mut out = Vec::with_capacity(registry.len());
    for (id, st) in registry.iter() {
        let y = config.as_slice()[id.0];
        let grown = BirthDeathBlock::for_type(st, y + 1, RepairPolicy::Independent);
        let factor = availability_gain(all_down[id.0], grown.marginal_distribution()[0]);
        let l_x = load.request_rates[id.0];
        let waiting_before = full_strength_wait(st, l_x, y)?;
        let waiting_after = full_strength_wait(st, l_x, y + 1)?;
        let waiting_delta = match (waiting_before, waiting_after) {
            (Some(before), Some(after)) => Some(after - before),
            _ => None,
        };
        out.push(MoveSensitivity {
            type_index: id.0,
            name: st.name.clone(),
            replicas: y,
            availability_factor: factor,
            availability_delta: availability * (factor - 1.0),
            waiting_before,
            waiting_after,
            waiting_delta,
        });
    }
    Ok(out)
}

/// The move index with the largest availability gain — the closed-form
/// twin of the greedy search's availability-critical-type ranking
/// (first index wins ties, like every search tie-break).
pub fn best_availability_move(moves: &[MoveSensitivity]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for m in moves {
        if best.is_none_or(|(_, g)| m.availability_delta > g) {
            best = Some((m.type_index, m.availability_delta));
        }
    }
    best.map(|(i, _)| i)
}

/// The move index with the largest waiting-time improvement
/// (most negative `waiting_delta`; a stabilizing move — `None` before,
/// finite after — outranks every already-stable move). `None` when no
/// move changes a finite wait.
pub fn best_waiting_move(moves: &[MoveSensitivity]) -> Option<usize> {
    let mut stabilizing: Option<usize> = None;
    let mut best: Option<(usize, f64)> = None;
    for m in moves {
        if m.waiting_before.is_none() && m.waiting_after.is_some() && stabilizing.is_none() {
            stabilizing = Some(m.type_index);
        }
        if let Some(delta) = m.waiting_delta {
            if best.is_none_or(|(_, d)| delta < d) {
                best = Some((m.type_index, delta));
            }
        }
    }
    stabilizing.or(best.map(|(i, _)| i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_statechart::paper_section52_registry;

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

    #[test]
    fn sensitivities_predict_the_recomputed_neighbour_availability() {
        let reg = paper_section52_registry();
        let load = load_at(0.6, &reg);
        let config = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        let moves = move_sensitivities(&reg, &load, &config).unwrap();
        assert_eq!(moves.len(), reg.len());
        for m in &moves {
            assert!(m.availability_factor > 1.0, "a replica always helps");
            assert!(m.availability_delta > 0.0);
            // Cross-check against the recomputed neighbour product.
            let mut grown = config.as_slice().to_vec();
            grown[m.type_index] += 1;
            let neighbour = Configuration::new(&reg, grown).unwrap();
            let a0 = wfms_avail::ProductFormModel::new(&reg, &config)
                .unwrap()
                .availability();
            let a1 = wfms_avail::ProductFormModel::new(&reg, &neighbour)
                .unwrap()
                .availability();
            assert!(
                ((a0 + m.availability_delta) - a1).abs() < 1e-14,
                "type {}: predicted {:e}, exact {:e}",
                m.type_index,
                a0 + m.availability_delta,
                a1 - a0
            );
        }
    }

    #[test]
    fn waiting_deltas_are_improvements_and_stabilizing_moves_rank_first() {
        let reg = paper_section52_registry();
        // Overload: one server of each type is unstable at ρ = 1.4.
        let load = load_at(1.4, &reg);
        let minimal = Configuration::minimal(&reg);
        let moves = move_sensitivities(&reg, &load, &minimal).unwrap();
        for m in &moves {
            assert!(m.waiting_before.is_none(), "ρ > 1 at one replica");
            assert!(m.waiting_after.is_some(), "ρ = 0.7 at two replicas");
        }
        assert_eq!(best_waiting_move(&moves), Some(0), "first stabilizer wins");

        // A comfortably stable system: every move strictly improves.
        let stable = Configuration::new(&reg, vec![3, 3, 3]).unwrap();
        let load = load_at(0.8, &reg);
        let moves = move_sensitivities(&reg, &load, &stable).unwrap();
        for m in &moves {
            assert!(m.waiting_delta.unwrap() < 0.0, "more replicas, less wait");
        }
        assert!(best_waiting_move(&moves).is_some());
        assert!(best_availability_move(&moves).is_some());
    }
}
