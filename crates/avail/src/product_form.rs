//! Product-form availability solver (Sec. 5).
//!
//! Under both [`RepairPolicy`] variants the availability CTMC is a
//! *product* of per-type reversible birth–death chains: the stationary
//! probability of a system state `X` factorizes into
//!
//! ```text
//! π(X) = Π_x  m_x[X_x]
//! ```
//!
//! where `m_x` is the truncated birth–death marginal of type `x` (see
//! [`BirthDeathBlock::marginal_distribution`]). [`ProductFormModel`]
//! exploits that: it computes the `k` marginals in closed form —
//! `O(Σ_x Y_x)` work — instead of assembling and solving the
//! `Π_x (Y_x + 1)`-state generator, and answers
//!
//! * the exact WFMS availability `Π_x (1 − m_x[0])` (the closed form of
//!   [`crate::model::closed_form_unavailability`], reached through the
//!   same marginals the state probabilities use),
//! * the probability of any individual system state, and
//! * one type's marginal on its own ([`steady_state_marginal`]) — the
//!   assessment engine's availability solve, which folds the
//!   performability reward one type at a time and never materializes
//!   the `Π_x (Y_x + 1)` joint states.
//!
//! The model reads every marginal through [`steady_state_marginal`], so
//! its availability is bit-identical to the engine's, and it is the
//! only availability solver production code runs; the dense LU model
//! ([`crate::AvailabilityModel`]) is its test oracle.

use std::sync::Arc;

use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::blocks::BirthDeathBlock;
use crate::error::AvailError;
use crate::model::{RepairPolicy, DEFAULT_STATE_CAP};
use crate::state_space::StateSpace;

/// The solver names of the benchmark harness's replay, which checks
/// that every candidate it replays resolves to `Dense`. No production
/// path picks a solver: every availability chain is answered in product
/// form ([`ProductFormModel`]). This enum and [`select_backend`] stay
/// only until that replay stops naming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvailBackend {
    /// Resolve by [`select_backend`]'s rule.
    Auto,
    /// The dense generator and LU solve over every state
    /// ([`crate::AvailabilityModel`]).
    Dense,
    /// A sparse Gauss–Seidel solve, since removed: the name `Auto`
    /// resolves to past [`DEFAULT_STATE_CAP`] states.
    Sparse,
    /// Closed-form per-type marginals ([`ProductFormModel`]).
    Product,
}

/// Resolves a requested backend for a chain with `states` system states
/// under `policy`, given a truncation tolerance `epsilon`: the rule the
/// assessment engine followed before it answered every candidate in
/// product form.
///
/// `Auto` is `Product` for independent repair at `ε > 0`, else `Dense`
/// up to [`DEFAULT_STATE_CAP`] states and `Sparse` beyond. An explicit
/// `Product` under single-repairman repair resolves to `Sparse`.
///
/// Kept only for the benchmark harness's replay; see [`AvailBackend`].
pub fn select_backend(
    requested: AvailBackend,
    policy: RepairPolicy,
    states: usize,
    epsilon: f64,
) -> AvailBackend {
    let resolved = match requested {
        AvailBackend::Auto => {
            if policy == RepairPolicy::Independent && epsilon > 0.0 {
                AvailBackend::Product
            } else if states > DEFAULT_STATE_CAP {
                AvailBackend::Sparse
            } else {
                AvailBackend::Dense
            }
        }
        explicit => explicit,
    };
    if resolved == AvailBackend::Product && policy != RepairPolicy::Independent {
        AvailBackend::Sparse
    } else {
        resolved
    }
}

/// Product-form availability model: the `k` closed-form per-type
/// marginals of the availability chain. See the module docs.
#[derive(Debug, Clone)]
pub struct ProductFormModel {
    config: Configuration,
    space: StateSpace,
    /// `marginals[x][u]` = P(exactly `u` of the `Y_x` replicas up).
    marginals: Vec<Vec<f64>>,
}

impl ProductFormModel {
    /// Builds the model for `config`, tabulating fresh independent-repair
    /// blocks per type.
    ///
    /// # Errors
    /// [`AvailError::Arch`] on a registry/configuration mismatch.
    pub fn new(registry: &ServerTypeRegistry, config: &Configuration) -> Result<Self, AvailError> {
        if config.k() != registry.len() {
            return Err(AvailError::Arch(
                wfms_statechart::ArchError::LengthMismatch {
                    what: "configuration",
                    expected: registry.len(),
                    actual: config.k(),
                },
            ));
        }
        let mut blocks = Vec::with_capacity(config.k());
        for (j, &y) in config.as_slice().iter().enumerate() {
            let st = registry.get(ServerTypeId(j))?;
            blocks.push(Arc::new(BirthDeathBlock::for_type(
                st,
                y,
                RepairPolicy::Independent,
            )));
        }
        Self::from_blocks(config, &blocks)
    }

    /// Builds the model from pre-tabulated blocks of either repair
    /// policy, reading each type's marginal through
    /// [`steady_state_marginal`].
    ///
    /// # Errors
    /// * [`AvailError::BlockMismatch`] / [`AvailError::Arch`] when the
    ///   blocks do not match `config`.
    /// * [`AvailError::Chain`] under error injection at
    ///   `avail.steady-state`.
    pub fn from_blocks(
        config: &Configuration,
        blocks: &[Arc<BirthDeathBlock>],
    ) -> Result<Self, AvailError> {
        let space = StateSpace::new(config);
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
            if block.replicas() != config.as_slice()[j] {
                return Err(AvailError::BlockMismatch {
                    type_index: j,
                    block_replicas: block.replicas(),
                    config_replicas: config.as_slice()[j],
                });
            }
        }
        let _obs_span = wfms_obs::span!("avail-product-form", states = space.len(), types = k);
        wfms_obs::gauge("avail.state-space.size", space.len() as f64);
        let marginals = blocks
            .iter()
            .map(|b| steady_state_marginal(b))
            .collect::<Result<_, _>>()?;
        Ok(ProductFormModel {
            config: config.clone(),
            space,
            marginals,
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

    /// The per-type up-count marginals: `marginals()[x][u]` is the
    /// stationary probability that exactly `u` of the `Y_x` replicas of
    /// type `x` are up.
    pub fn marginals(&self) -> &[Vec<f64>] {
        &self.marginals
    }

    /// Exact WFMS availability, `Π_x (1 − m_x[0])` — no enumeration.
    pub fn availability(&self) -> f64 {
        let mut a = 1.0;
        for m in &self.marginals {
            a *= 1.0 - m[0];
        }
        a
    }

    /// `1 - availability` (exact).
    pub fn unavailability(&self) -> f64 {
        1.0 - self.availability()
    }

    /// Stationary probability of one system state, `Π_x m_x[X_x]`.
    ///
    /// # Errors
    /// [`AvailError::StateOutOfRange`] on a foreign state vector.
    pub fn state_probability(&self, state: &[usize]) -> Result<f64, AvailError> {
        self.space.encode(state)?;
        let mut p = 1.0;
        for (x, m) in state.iter().zip(&self.marginals) {
            p *= m[*x];
        }
        Ok(p)
    }
}

/// The stationary up-count marginal of one type's birth–death block,
/// `m[u]` = P(exactly `u` of the `Y_x` replicas up): the per-type factor
/// of the product form, and the whole availability solve of the
/// assessment engine for that type.
///
/// Shares the `avail.steady-state` failpoint with the dense model: error
/// injection surfaces as a solver non-convergence, NaN
/// injection poisons the all-down entry `m[0]`, which always reaches the
/// availability product `Π_x (1 − m_x[0])`.
///
/// # Errors
/// [`AvailError::Chain`] under error injection.
pub fn steady_state_marginal(block: &BirthDeathBlock) -> Result<Vec<f64>, AvailError> {
    let _obs_span = wfms_obs::span!(
        "avail-steady-state",
        states = block.replicas() + 1,
        backend = "product"
    );
    let mut poison_solution = false;
    match wfms_fault::point!("avail.steady-state") {
        Some(wfms_fault::Injection::Error) => {
            return Err(AvailError::Chain(wfms_markov::ChainError::Iterative(
                wfms_markov::linalg::IterativeError::NotConverged {
                    iterations: 0,
                    last_residual: f64::INFINITY,
                },
            )));
        }
        Some(wfms_fault::Injection::Nan) => poison_solution = true,
        None => {}
    }
    let mut marginal = block.marginal_distribution();
    if poison_solution {
        marginal[0] = f64::NAN;
    }
    Ok(marginal)
}

/// The multiplicative factor a one-coordinate move `Y_x → Y'_x` applies
/// to the product-form availability: `A' = A · (1 − m'_x[0]) / (1 − m_x[0])`
/// where `m_x[0]` / `m'_x[0]` are the all-down marginal entries before
/// and after the move (`q_x^{Y_x}` under independent repair). This is
/// the closed-form kernel behind `∂A/∂Y_x` move ranking: the factor
/// exceeds `1` exactly when the move raises availability, and
/// `A · (gain − 1)` is the availability gained.
pub fn availability_gain(all_down_before: f64, all_down_after: f64) -> f64 {
    (1.0 - all_down_after) / (1.0 - all_down_before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{closed_form_unavailability, AvailabilityModel};
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_statechart::paper_section52_registry;

    #[test]
    fn backend_selection_rules() {
        use AvailBackend::*;
        use RepairPolicy::*;
        // Auto, exact: dense under the cap, sparse above.
        assert_eq!(select_backend(Auto, Independent, 27, 0.0), Dense);
        assert_eq!(
            select_backend(Auto, Independent, DEFAULT_STATE_CAP + 1, 0.0),
            Sparse
        );
        // Auto, truncated, factorizing policy: product regardless of size.
        assert_eq!(select_backend(Auto, Independent, 27, 1e-9), Product);
        assert_eq!(select_backend(Auto, Independent, 1_000_000, 1e-9), Product);
        // Single repairman never reaches the product form.
        assert_eq!(
            select_backend(Auto, SingleRepairmanPerType, 27, 1e-9),
            Dense
        );
        assert_eq!(
            select_backend(Product, SingleRepairmanPerType, 27, 1e-9),
            Sparse
        );
        // Explicit requests stick.
        assert_eq!(select_backend(Sparse, Independent, 27, 0.0), Sparse);
        assert_eq!(select_backend(Product, Independent, 27, 0.0), Product);
    }

    #[test]
    fn product_availability_matches_closed_form_exactly_in_structure() {
        let reg = paper_section52_registry();
        for y in [vec![1, 1, 1], vec![2, 2, 3], vec![3, 3, 3]] {
            let config = Configuration::new(&reg, y).unwrap();
            let model = ProductFormModel::new(&reg, &config).unwrap();
            let closed = closed_form_unavailability(&reg, &config).unwrap();
            assert!(
                (model.unavailability() - closed).abs() < 1e-15 + 1e-12 * closed,
                "{config}: product {:e} vs closed {closed:e}",
                model.unavailability()
            );
        }
    }

    #[test]
    fn availability_gain_matches_the_recomputed_product() {
        let reg = paper_section52_registry();
        let before = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let after = Configuration::new(&reg, vec![2, 3, 2]).unwrap();
        let a0 = ProductFormModel::new(&reg, &before).unwrap();
        let a1 = ProductFormModel::new(&reg, &after).unwrap();
        let gain = availability_gain(a0.marginals()[1][0], a1.marginals()[1][0]);
        assert!(gain > 1.0, "adding a replica raises availability");
        let predicted = a0.availability() * gain;
        assert!(
            (predicted - a1.availability()).abs() < 1e-15,
            "patched {predicted:e} vs recomputed {:e}",
            a1.availability()
        );
    }

    #[test]
    fn product_steady_state_matches_dense_lu() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 1, 3]).unwrap();
        let dense = AvailabilityModel::new(&reg, &config).unwrap();
        let pi_lu = dense.steady_state(SteadyStateMethod::Lu).unwrap();
        let product = ProductFormModel::new(&reg, &config).unwrap();
        for (idx, x) in product.state_space().iter() {
            let p = product.state_probability(&x).unwrap();
            assert!(
                (pi_lu[idx] - p).abs() < 1e-10,
                "state {x:?}: LU {} vs product {p}",
                pi_lu[idx]
            );
        }
    }

    #[test]
    fn single_repairman_product_matches_dense_lu() {
        // One repair crew per type changes each type's marginal, not the
        // factorization: the types still share no transition.
        let reg = paper_section52_registry();
        let policy = RepairPolicy::SingleRepairmanPerType;
        for y in [vec![2, 1, 3], vec![3, 3, 3], vec![1, 4, 2], vec![5, 2, 4]] {
            let config = Configuration::new(&reg, y).unwrap();
            let blocks: Vec<Arc<BirthDeathBlock>> = reg
                .iter()
                .map(|(id, st)| {
                    Arc::new(BirthDeathBlock::for_type(
                        st,
                        config.as_slice()[id.0],
                        policy,
                    ))
                })
                .collect();
            let product = ProductFormModel::from_blocks(&config, &blocks).unwrap();
            let dense = AvailabilityModel::with_policy(&reg, &config, policy).unwrap();
            let pi_lu = dense.steady_state(SteadyStateMethod::Lu).unwrap();
            for (idx, x) in product.state_space().iter() {
                let p = product.state_probability(&x).unwrap();
                assert!(
                    (pi_lu[idx] - p).abs() <= 1e-15,
                    "{config} state {x:?}: LU {:e} vs product {p:e}",
                    pi_lu[idx]
                );
            }
            let lu_availability = dense.availability(&pi_lu).unwrap();
            assert!(
                (product.availability() - lu_availability).abs() <= 1e-15,
                "{config}: product {:e} vs LU {lu_availability:e}",
                product.availability()
            );
        }
    }

    #[test]
    fn mismatched_blocks_are_rejected() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let blocks: Vec<Arc<BirthDeathBlock>> = reg
            .iter()
            .map(|(_, st)| Arc::new(BirthDeathBlock::for_type(st, 3, RepairPolicy::Independent)))
            .collect();
        assert!(matches!(
            ProductFormModel::from_blocks(&config, &blocks),
            Err(AvailError::BlockMismatch { type_index: 0, .. })
        ));
        assert!(matches!(
            ProductFormModel::from_blocks(&config, &blocks[..2]),
            Err(AvailError::Arch(_))
        ));
    }

    #[test]
    fn steady_state_marginal_is_the_blocks_marginal() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 1, 3]).unwrap();
        let model = ProductFormModel::new(&reg, &config).unwrap();
        for (id, st) in reg.iter() {
            let block =
                BirthDeathBlock::for_type(st, config.as_slice()[id.0], RepairPolicy::Independent);
            let marginal = steady_state_marginal(&block).unwrap();
            assert_eq!(marginal, model.marginals()[id.0]);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::model::{closed_form_unavailability, AvailabilityModel};
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

        /// The product-form π matches the dense LU solve element-wise
        /// under both repair policies.
        #[test]
        fn product_pi_matches_dense_lu(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            for policy in [RepairPolicy::Independent, RepairPolicy::SingleRepairmanPerType] {
                let blocks: Vec<Arc<BirthDeathBlock>> = reg
                    .iter()
                    .map(|(id, st)| {
                        Arc::new(BirthDeathBlock::for_type(st, config.as_slice()[id.0], policy))
                    })
                    .collect();
                let product = ProductFormModel::from_blocks(&config, &blocks).unwrap();
                let dense = AvailabilityModel::with_policy(&reg, &config, policy).unwrap();
                let pi_lu = dense.steady_state(SteadyStateMethod::Lu).unwrap();
                for (idx, x) in product.state_space().iter() {
                    let p = product.state_probability(&x).unwrap();
                    prop_assert!((p - pi_lu[idx]).abs() < 1e-9,
                        "{policy:?} idx {idx}: product {p:e} vs LU {:e}", pi_lu[idx]);
                }
            }
        }

        /// `closed_form_unavailability` and the product backend agree.
        #[test]
        fn closed_form_agrees_with_product_backend(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            let product = ProductFormModel::new(&reg, &config).unwrap();
            let closed = closed_form_unavailability(&reg, &config).unwrap();
            prop_assert!(
                (product.unavailability() - closed).abs() < 1e-14 + 1e-10 * closed,
                "product {:e} vs closed {closed:e}", product.unavailability()
            );
        }
    }
}
