//! The availability CTMC over system states (Sec. 5).
//!
//! Each CTMC state is a replica-availability vector `X ≤ Y`. A failure of
//! one of the `X_x` running servers of type `x` moves the chain to the
//! state with `X_x - 1`; a completed repair moves it to `X_x + 1`. The
//! chain is ergodic; its stationary distribution gives the probability of
//! every system state, and summing over the states where some server type
//! is completely down yields the WFMS unavailability.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use wfms_markov::ctmc::{Ctmc, SteadyStateMethod};
use wfms_markov::linalg::Matrix;
use wfms_statechart::{Configuration, ServerTypeRegistry, SystemState};

use crate::blocks::BirthDeathBlock;
use crate::error::AvailError;
use crate::state_space::StateSpace;

/// Minutes per (365-day) year, for downtime reporting.
pub const MINUTES_PER_YEAR: f64 = 525_600.0;

/// How failed servers are repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RepairPolicy {
    /// Every failed server is repaired concurrently: the repair transition
    /// rate from `X_x` to `X_x + 1` is `(Y_x - X_x) · μ_x`. Under this
    /// policy replicas behave independently, which is the assumption that
    /// reproduces the paper's Sec. 5.2 numbers.
    #[default]
    Independent,
    /// One repair crew per server type: the repair rate is `μ_x` whenever
    /// at least one server of the type is down.
    SingleRepairmanPerType,
}

/// The assembled availability model for one configuration.
#[derive(Debug, Clone)]
pub struct AvailabilityModel {
    config: Configuration,
    space: StateSpace,
    ctmc: Ctmc,
    policy: RepairPolicy,
}

/// Safety cap on the dense state space: the generator is materialized as
/// an `n x n` dense matrix, so this bounds memory at ~130 MB. The
/// product form ([`crate::ProductFormModel`]) answers any size exactly.
pub const DEFAULT_STATE_CAP: usize = 4_096;

impl AvailabilityModel {
    /// Builds the availability CTMC for `config` with the default
    /// (paper-faithful) independent-repair policy.
    ///
    /// # Errors
    /// See [`AvailabilityModel::with_policy`].
    pub fn new(registry: &ServerTypeRegistry, config: &Configuration) -> Result<Self, AvailError> {
        Self::with_policy(registry, config, RepairPolicy::Independent)
    }

    /// Builds the availability CTMC with an explicit repair policy.
    ///
    /// # Errors
    /// * [`AvailError::StateSpaceTooLarge`] beyond [`DEFAULT_STATE_CAP`].
    /// * [`AvailError::Arch`] / [`AvailError::Chain`] on malformed inputs.
    pub fn with_policy(
        registry: &ServerTypeRegistry,
        config: &Configuration,
        policy: RepairPolicy,
    ) -> Result<Self, AvailError> {
        let n = StateSpace::new(config).len();
        if n > DEFAULT_STATE_CAP {
            return Err(AvailError::StateSpaceTooLarge {
                states: n,
                cap: DEFAULT_STATE_CAP,
            });
        }
        let mut blocks = Vec::with_capacity(config.k());
        for (j, &y) in config.as_slice().iter().enumerate() {
            let st = registry.get(wfms_statechart::ServerTypeId(j))?;
            blocks.push(Arc::new(BirthDeathBlock::for_type(st, y, policy)));
        }
        Self::from_blocks(config, &blocks, policy)
    }

    /// Builds the availability CTMC from pre-tabulated per-type
    /// birth–death blocks: for a neighbouring candidate `Y + e_k`, only
    /// the block of type `k` is new.
    ///
    /// Block rates are the same float products the direct assembly
    /// computes, so the resulting generator — and everything solved from
    /// it — is bit-identical to [`AvailabilityModel::with_policy`].
    ///
    /// # Errors
    /// * [`AvailError::StateSpaceTooLarge`] beyond [`DEFAULT_STATE_CAP`].
    /// * [`AvailError::BlockMismatch`] / [`AvailError::Arch`] when the
    ///   blocks do not match `config` (count, replicas, or policy).
    pub fn from_blocks(
        config: &Configuration,
        blocks: &[Arc<BirthDeathBlock>],
        policy: RepairPolicy,
    ) -> Result<Self, AvailError> {
        let space = StateSpace::new(config);
        let n = space.len();
        if n > DEFAULT_STATE_CAP {
            return Err(AvailError::StateSpaceTooLarge {
                states: n,
                cap: DEFAULT_STATE_CAP,
            });
        }
        let k = space.k();
        if blocks.len() != k {
            return Err(AvailError::Arch(
                wfms_statechart::ArchError::LengthMismatch {
                    what: "birth-death blocks",
                    expected: k,
                    actual: blocks.len(),
                },
            ));
        }
        for (j, block) in blocks.iter().enumerate() {
            if block.replicas() != config.as_slice()[j] || block.policy() != policy {
                return Err(AvailError::BlockMismatch {
                    type_index: j,
                    block_replicas: block.replicas(),
                    config_replicas: config.as_slice()[j],
                });
            }
        }
        let _obs_span = wfms_obs::span!("avail-build", states = n, types = k, backend = "dense");
        wfms_obs::gauge("avail.state-space.size", n as f64);
        let mut q = Matrix::zeros(n, n);
        for (idx, x) in space.iter() {
            let mut departure = 0.0;
            for (j, block) in blocks.iter().enumerate() {
                // Failure: one of the X_j running servers fails.
                if x[j] > 0 {
                    let rate = block.failure_rate(x[j]);
                    let mut to = x.clone();
                    to[j] -= 1;
                    let to_idx = space.encode(&to)?;
                    q[(idx, to_idx)] += rate;
                    departure += rate;
                }
                // Repair: a failed server of type j comes back.
                let failed = config.as_slice()[j] - x[j];
                if failed > 0 {
                    let rate = block.repair_rate(failed);
                    let mut to = x.clone();
                    to[j] += 1;
                    let to_idx = space.encode(&to)?;
                    q[(idx, to_idx)] += rate;
                    departure += rate;
                }
            }
            q[(idx, idx)] = -departure;
        }
        let ctmc = Ctmc::from_generator(&q)?;
        Ok(AvailabilityModel {
            config: config.clone(),
            space,
            ctmc,
            policy,
        })
    }

    /// The underlying state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.space
    }

    /// The configuration this model was built for.
    pub fn configuration(&self) -> &Configuration {
        &self.config
    }

    /// The repair policy in effect.
    pub fn repair_policy(&self) -> RepairPolicy {
        self.policy
    }

    /// The availability CTMC itself.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// Stationary distribution over system states.
    ///
    /// # Errors
    /// Solver failures as [`AvailError::Chain`];
    /// [`AvailError::FaultInjected`] under error injection at
    /// `avail.steady-state`.
    pub fn steady_state(&self, method: SteadyStateMethod) -> Result<Vec<f64>, AvailError> {
        let _obs_span = wfms_obs::span!(
            "avail-steady-state",
            states = self.space.len(),
            backend = "dense"
        );
        // Failpoint `avail.steady-state`: error injection surfaces as
        // `FaultInjected`, NaN injection poisons the distribution.
        let mut poison_solution = false;
        match wfms_fault::point!("avail.steady-state") {
            Some(wfms_fault::Injection::Error) => {
                return Err(AvailError::FaultInjected {
                    site: "avail.steady-state",
                });
            }
            Some(wfms_fault::Injection::Nan) => poison_solution = true,
            None => {}
        }
        let mut pi = self.ctmc.steady_state(method)?;
        if poison_solution {
            // Poison the full-strength state (last in encoding order): it
            // is always an up state, so the NaN reaches the availability
            // sum rather than hiding in the all-down state's mass.
            if let Some(last) = pi.last_mut() {
                *last = f64::NAN;
            }
        }
        Ok(pi)
    }

    /// Probability that the entire WFMS is available (every server type
    /// has at least one running replica), given a stationary distribution.
    ///
    /// # Errors
    /// [`AvailError::LengthMismatch`] on a wrong `pi` length.
    pub fn availability(&self, pi: &[f64]) -> Result<f64, AvailError> {
        self.space.operational_mass(pi)
    }

    /// `1 - availability`.
    ///
    /// # Errors
    /// As [`AvailabilityModel::availability`].
    pub fn unavailability(&self, pi: &[f64]) -> Result<f64, AvailError> {
        Ok(1.0 - self.availability(pi)?)
    }

    /// Expected downtime in minutes per year.
    ///
    /// # Errors
    /// As [`AvailabilityModel::availability`].
    pub fn downtime_minutes_per_year(&self, pi: &[f64]) -> Result<f64, AvailError> {
        Ok(self.unavailability(pi)? * MINUTES_PER_YEAR)
    }

    /// Stationary probability of one specific system state.
    ///
    /// # Errors
    /// [`AvailError`] on a foreign state or wrong `pi` length.
    pub fn state_probability(&self, pi: &[f64], state: &SystemState) -> Result<f64, AvailError> {
        if pi.len() != self.space.len() {
            return Err(AvailError::LengthMismatch {
                expected: self.space.len(),
                actual: pi.len(),
            });
        }
        let idx = self.space.encode(state.as_slice())?;
        Ok(pi[idx])
    }

    /// Iterates `(state_vector, probability)` pairs of a distribution.
    ///
    /// # Errors
    /// [`AvailError::LengthMismatch`] on a wrong `pi` length.
    pub fn distribution<'a>(
        &'a self,
        pi: &'a [f64],
    ) -> Result<impl Iterator<Item = (Vec<usize>, f64)> + 'a, AvailError> {
        if pi.len() != self.space.len() {
            return Err(AvailError::LengthMismatch {
                expected: self.space.len(),
                actual: pi.len(),
            });
        }
        Ok(self.space.iter().map(move |(idx, x)| (x, pi[idx])))
    }
}

/// Closed-form unavailability under the independent-repair policy: each
/// replica of type `x` is independently down with probability
/// `q_x = λ_x / (λ_x + μ_x)`, the type is down with `q_x^{Y_x}`, and
///
/// ```text
/// U = 1 - Π_x (1 - q_x^{Y_x})
/// ```
///
/// Exact for [`RepairPolicy::Independent`]: the test oracle for the
/// product form and the CTMC solve, and EXP-A1's closed form. No
/// production path reads it; assessments multiply the engine's
/// birth–death marginals instead.
///
/// # Errors
/// [`AvailError::Arch`] on a registry/configuration mismatch.
pub fn closed_form_unavailability(
    registry: &ServerTypeRegistry,
    config: &Configuration,
) -> Result<f64, AvailError> {
    if config.k() != registry.len() {
        return Err(AvailError::Arch(
            wfms_statechart::ArchError::LengthMismatch {
                what: "configuration",
                expected: registry.len(),
                actual: config.k(),
            },
        ));
    }
    let mut availability = 1.0;
    for (id, st) in registry.iter() {
        let q = st.failure_rate / (st.failure_rate + st.repair_rate);
        let y = config.replicas(id)? as i32;
        availability *= 1.0 - q.powi(y);
    }
    Ok(1.0 - availability)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_statechart::paper_section52_registry;

    fn model(y: &[usize]) -> AvailabilityModel {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, y.to_vec()).unwrap();
        AvailabilityModel::new(&reg, &config).unwrap()
    }

    fn solve(m: &AvailabilityModel) -> Vec<f64> {
        m.steady_state(SteadyStateMethod::Lu).unwrap()
    }

    #[test]
    fn paper_unreplicated_downtime_is_71_hours_per_year() {
        let m = model(&[1, 1, 1]);
        let pi = solve(&m);
        let downtime_hours = m.downtime_minutes_per_year(&pi).unwrap() / 60.0;
        assert!(
            (downtime_hours - 71.0).abs() < 1.0,
            "expected ≈71 h/year, got {downtime_hours:.2}"
        );
    }

    #[test]
    fn paper_three_way_replication_downtime_is_about_10_seconds() {
        let m = model(&[3, 3, 3]);
        let pi = solve(&m);
        let downtime_seconds = m.downtime_minutes_per_year(&pi).unwrap() * 60.0;
        assert!(
            downtime_seconds > 5.0 && downtime_seconds < 15.0,
            "expected ≈10 s/year, got {downtime_seconds:.2}"
        );
    }

    #[test]
    fn paper_asymmetric_config_is_under_a_minute() {
        let m = model(&[2, 2, 3]);
        let pi = solve(&m);
        let downtime_seconds = m.downtime_minutes_per_year(&pi).unwrap() * 60.0;
        assert!(
            downtime_seconds < 60.0,
            "expected < 60 s/year, got {downtime_seconds:.2}"
        );
        assert!(downtime_seconds > 10.0, "sanity: {downtime_seconds:.2}");
    }

    #[test]
    fn ctmc_matches_closed_form_for_independent_repair() {
        let reg = paper_section52_registry();
        for y in [[1, 1, 1], [2, 1, 1], [2, 2, 3], [3, 3, 3], [1, 2, 3]] {
            let config = Configuration::new(&reg, y.to_vec()).unwrap();
            let m = AvailabilityModel::new(&reg, &config).unwrap();
            let pi = solve(&m);
            let ctmc_u = m.unavailability(&pi).unwrap();
            let closed = closed_form_unavailability(&reg, &config).unwrap();
            assert!(
                (ctmc_u - closed).abs() < 1e-10 * closed.max(1e-12),
                "Y={y:?}: CTMC {ctmc_u:e} vs closed form {closed:e}"
            );
        }
    }

    #[test]
    fn steady_state_methods_agree() {
        let m = model(&[2, 2, 2]);
        let lu = m.steady_state(SteadyStateMethod::Lu).unwrap();
        let gs = m
            .steady_state(SteadyStateMethod::GaussSeidel(Default::default()))
            .unwrap();
        let diff = wfms_markov::linalg::relative_difference(&lu, &gs);
        assert!(diff < 1e-6, "LU vs Gauss-Seidel diff {diff}");
    }

    #[test]
    fn fully_up_state_dominates() {
        let m = model(&[2, 2, 2]);
        let pi = solve(&m);
        let full = m.state_space().encode(&[2, 2, 2]).unwrap();
        assert!(pi[full] > 0.98, "full-up probability {}", pi[full]);
        // And it is the modal state.
        let max = pi.iter().cloned().fold(0.0, f64::max);
        assert_eq!(pi[full], max);
    }

    #[test]
    fn replication_monotonically_improves_availability() {
        let reg = paper_section52_registry();
        let mut last_u = f64::INFINITY;
        for y in 1..=3 {
            let config = Configuration::uniform(&reg, y).unwrap();
            let m = AvailabilityModel::new(&reg, &config).unwrap();
            let pi = solve(&m);
            let u = m.unavailability(&pi).unwrap();
            assert!(u < last_u, "Y={y}: {u} !< {last_u}");
            last_u = u;
        }
    }

    #[test]
    fn replicating_least_reliable_type_helps_most() {
        let reg = paper_section52_registry();
        let base = Configuration::new(&reg, vec![1, 1, 1]).unwrap();
        let mut improvements = Vec::new();
        for j in 0..3 {
            let cfg = base
                .with_added_replica(wfms_statechart::ServerTypeId(j))
                .unwrap();
            let u = closed_form_unavailability(&reg, &cfg).unwrap();
            improvements.push(u);
        }
        // Adding to the application server (most failure-prone) must yield
        // the lowest residual unavailability.
        assert!(improvements[2] < improvements[1]);
        assert!(improvements[1] < improvements[0]);
    }

    #[test]
    fn single_repairman_policy_is_worse_for_big_outages() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 3).unwrap();
        let ind = AvailabilityModel::with_policy(&reg, &config, RepairPolicy::Independent).unwrap();
        let single =
            AvailabilityModel::with_policy(&reg, &config, RepairPolicy::SingleRepairmanPerType)
                .unwrap();
        let u_ind = ind.unavailability(&solve(&ind)).unwrap();
        let u_single = single.unavailability(&solve(&single)).unwrap();
        assert!(
            u_single > u_ind,
            "single repairman {u_single:e} !> independent {u_ind:e}"
        );
    }

    #[test]
    fn state_probability_and_distribution_queries() {
        let m = model(&[1, 1, 1]);
        let pi = solve(&m);
        let full = SystemState::new(m.configuration(), vec![1, 1, 1]).unwrap();
        let p = m.state_probability(&pi, &full).unwrap();
        assert!(p > 0.99);
        let total: f64 = m.distribution(&pi).unwrap().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(matches!(
            m.state_probability(&[0.5], &full),
            Err(AvailError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn state_cap_is_enforced() {
        let mut reg = ServerTypeRegistry::new();
        for i in 0..8 {
            reg.register(wfms_statechart::ServerType::with_exponential_service(
                format!("t{i}"),
                wfms_statechart::ServerTypeKind::ApplicationServer,
                1e-4,
                0.1,
                0.001,
            ))
            .unwrap();
        }
        let config = Configuration::uniform(&reg, 9).unwrap(); // 10^8 states
        assert!(matches!(
            AvailabilityModel::new(&reg, &config),
            Err(AvailError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn generator_rows_balance() {
        let m = model(&[2, 1, 2]);
        let q = m.ctmc().generator();
        for i in 0..q.rows() {
            let sum: f64 = q.row(i).iter().sum();
            assert!(sum.abs() < 1e-12, "row {i} sums to {sum}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_statechart::{ServerType, ServerTypeKind, ServerTypeRegistry};

    fn arbitrary_registry_and_config() -> impl Strategy<Value = (ServerTypeRegistry, Configuration)>
    {
        let types = proptest::collection::vec((1e-5f64..1e-2, 0.01f64..1.0), 1..4);
        let reps = proptest::collection::vec(1usize..4, 1..4);
        (types, reps).prop_map(|(params, mut reps)| {
            let mut reg = ServerTypeRegistry::new();
            for (i, (lambda, mu)) in params.iter().enumerate() {
                reg.register(ServerType::with_exponential_service(
                    format!("t{i}"),
                    ServerTypeKind::WorkflowEngine,
                    *lambda,
                    *mu,
                    0.01,
                ))
                .unwrap();
            }
            reps.resize(reg.len(), 1);
            let config = Configuration::new(&reg, reps).unwrap();
            (reg, config)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ctmc_and_closed_form_agree((reg, config) in arbitrary_registry_and_config()) {
            let m = AvailabilityModel::new(&reg, &config).unwrap();
            let pi = m.steady_state(SteadyStateMethod::Lu).unwrap();
            let u = m.unavailability(&pi).unwrap();
            let closed = closed_form_unavailability(&reg, &config).unwrap();
            prop_assert!((u - closed).abs() < 1e-11 + 1e-6 * closed,
                "CTMC {u:e} vs closed {closed:e} for {config}");
        }

        #[test]
        fn stationary_distribution_is_proper((reg, config) in arbitrary_registry_and_config()) {
            let m = AvailabilityModel::new(&reg, &config).unwrap();
            let pi = m.steady_state(SteadyStateMethod::Lu).unwrap();
            prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(pi.iter().all(|&p| p >= -1e-12));
        }
    }
}
