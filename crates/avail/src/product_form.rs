//! Product-form availability solver for independent repair (Sec. 5).
//!
//! Under [`RepairPolicy::Independent`] the availability CTMC is a
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
//! * the probability of any individual system state,
//! * one type's marginal on its own ([`steady_state_marginal`]) — the
//!   assessment engine's exact (`ε = 0`) solve, which folds the
//!   performability reward one type at a time and never materializes
//!   the `Π_x (Y_x + 1)` joint states, and
//! * a lazy best-first enumeration of system states in **descending
//!   `π` order** ([`ProductFormModel::enumerate_descending`]) — the
//!   primitive behind ε-truncated performability evaluation, which
//!   visits only the handful of near-fully-up states carrying almost
//!   all the mass.
//!
//! # Enumeration order (proof sketch)
//!
//! Sort each marginal descending into `v_x[0] ≥ v_x[1] ≥ … ≥ 0` and
//! identify a state with its *rank vector* `r` (`π = Π_x v_x[r_x]`).
//! Raising any single rank multiplies the score by a factor ≤ 1, so
//! scores are monotone non-increasing along the child relation
//! `r → r + e_x`. The enumerator keeps a max-heap seeded with `r = 0`
//! and, on popping `r`, pushes its `k` children. By induction every
//! not-yet-emitted state has an ancestor (under the child relation) in
//! the heap, and that ancestor's score is an upper bound on the
//! state's — hence the heap maximum is the global maximum of all
//! remaining states, and states are emitted in descending `π` order.
//!
//! The single-repairman policy does **not** factorize per replica;
//! [`select_backend`] routes such chains to the sparse Gauss–Seidel
//! model instead.

// audit:allow-file(A006, reason = "the best-first frontier's `seen` set is membership-only dedup; enumeration order comes from the BinaryHeap score ordering, so hash order never reaches results")
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::blocks::BirthDeathBlock;
use crate::error::AvailError;
use crate::model::{RepairPolicy, DEFAULT_STATE_CAP};
use crate::state_space::StateSpace;

/// Which steady-state solver evaluates the availability chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum AvailBackend {
    /// Pick automatically: the product form when the policy factorizes
    /// and the caller tolerates truncation (`ε > 0`), else the exact
    /// dense path up to [`DEFAULT_STATE_CAP`] states, else sparse
    /// Gauss–Seidel.
    #[default]
    Auto,
    /// The exact solve over every state. The assessment engine
    /// (independent repair) answers it from the product form's per-type
    /// marginals ([`steady_state_marginal`]), with no generator, no LU
    /// solve and no materialized joint vector;
    /// [`crate::AvailabilityModel`]'s dense generator and LU solve
    /// remain its test oracle.
    Dense,
    /// Transposed-CSR generator + sparse Gauss–Seidel sweeps.
    Sparse,
    /// Closed-form per-type marginals; exact availability and lazy
    /// descending-`π` state enumeration. Independent repair only.
    Product,
}

impl std::fmt::Display for AvailBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AvailBackend::Auto => "auto",
            AvailBackend::Dense => "dense",
            AvailBackend::Sparse => "sparse",
            AvailBackend::Product => "product",
        };
        write!(f, "{name}")
    }
}

impl FromStr for AvailBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(AvailBackend::Auto),
            "dense" => Ok(AvailBackend::Dense),
            "sparse" => Ok(AvailBackend::Sparse),
            "product" => Ok(AvailBackend::Product),
            other => Err(format!(
                "unknown availability backend '{other}' (expected auto, dense, sparse, or product)"
            )),
        }
    }
}

/// Resolves a requested backend to a concrete one for a chain with
/// `states` system states under `policy`, given the caller's truncation
/// tolerance `epsilon`.
///
/// `Auto` prefers the product form whenever the policy factorizes and
/// the caller opted into truncation (`ε > 0`); with `ε = 0` it keeps
/// the exact, exhaustive dense path while it fits under
/// [`DEFAULT_STATE_CAP`], falling back to the sparse model beyond.
/// An explicit `Product` request under a non-factorizing policy
/// degrades to `Sparse` — the documented single-repairman fallback.
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
/// marginals of an independent-repair chain. See the module docs.
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

    /// Builds the model from pre-tabulated blocks (the assessment
    /// engine's incremental path; only new `(type, Y_x)` pairs cost a
    /// tabulation).
    ///
    /// # Errors
    /// * [`AvailError::UnsupportedPolicy`] when any block encodes a
    ///   non-independent repair ladder — the chain then has no product
    ///   form (use the sparse model).
    /// * [`AvailError::BlockMismatch`] / [`AvailError::Arch`] when the
    ///   blocks do not match `config`.
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
            if block.policy() != RepairPolicy::Independent {
                return Err(AvailError::UnsupportedPolicy { backend: "product" });
            }
            if block.replicas() != config.as_slice()[j] {
                return Err(AvailError::BlockMismatch {
                    type_index: j,
                    block_replicas: block.replicas(),
                    config_replicas: config.as_slice()[j],
                });
            }
        }
        let _obs_span = wfms_obs::span!("avail-product-form", states = space.len(), types = k);
        let marginals = blocks.iter().map(|b| b.marginal_distribution()).collect();
        Ok(ProductFormModel {
            config: config.clone(),
            space,
            marginals,
        })
    }

    /// Builds the model directly from per-type marginals — the
    /// assessment engine's one-coordinate *delta* path: for a move
    /// `Y → Y ± e_x` it clones the incumbent's marginals, replaces only
    /// type `x`'s with the freshly tabulated one, and skips the `k − 1`
    /// untouched recurrences entirely. Because
    /// [`BirthDeathBlock::marginal_distribution`] is a deterministic
    /// function of `(type, replicas, policy)`, the result is
    /// bit-identical to [`ProductFormModel::from_blocks`] over fresh
    /// blocks for the same configuration.
    ///
    /// # Errors
    /// [`AvailError::Arch`] when the marginal count or any marginal's
    /// length (`Y_x + 1` entries for type `x`) does not match `config`.
    pub fn from_marginals(
        config: &Configuration,
        marginals: Vec<Vec<f64>>,
    ) -> Result<Self, AvailError> {
        let space = StateSpace::new(config);
        let k = space.k();
        if marginals.len() != k {
            return Err(AvailError::Arch(
                wfms_statechart::ArchError::LengthMismatch {
                    what: "per-type marginals",
                    expected: k,
                    actual: marginals.len(),
                },
            ));
        }
        for (j, m) in marginals.iter().enumerate() {
            let expected = config.as_slice()[j] + 1;
            if m.len() != expected {
                return Err(AvailError::Arch(
                    wfms_statechart::ArchError::LengthMismatch {
                        what: "marginal up-count entries",
                        expected,
                        actual: m.len(),
                    },
                ));
            }
        }
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
        Ok(self.unchecked_probability(state))
    }

    fn unchecked_probability(&self, state: &[usize]) -> f64 {
        let mut p = 1.0;
        for (x, m) in state.iter().zip(&self.marginals) {
            p *= m[*x];
        }
        p
    }

    /// Lazily yields `(state, π)` pairs in descending `π` order (ties
    /// broken deterministically). Pull only as many states as needed:
    /// each step costs `O(k log heap)` and the heap grows by at most
    /// `k - 1` entries per emitted state.
    pub fn enumerate_descending(&self) -> BestFirstStates {
        BestFirstStates::new(&self.marginals)
    }
}

/// The stationary up-count marginal of one type's birth–death block,
/// `m[u]` = P(exactly `u` of the `Y_x` replicas up): the per-type factor
/// of the product form, and the whole availability solve of the
/// assessment engine's exact default path for that type.
///
/// Shares the `avail.steady-state` failpoint with the dense and sparse
/// models: error injection surfaces as a solver non-convergence, NaN
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
///
/// Note the engine's *delta assessment* deliberately does **not** patch
/// a cached availability with this factor — a float divide is not
/// bitwise-invertible — it re-folds the product over the replaced
/// marginals instead ([`ProductFormModel::from_marginals`]); the gain
/// factor is for *ranking*, where closed-form speed matters and
/// bit-identity does not.
pub fn availability_gain(all_down_before: f64, all_down_after: f64) -> f64 {
    (1.0 - all_down_after) / (1.0 - all_down_before)
}

/// Heap entry of the best-first enumeration: a rank vector into the
/// descending-sorted marginals and its score `Π_x v_x[r_x]`.
#[derive(Debug)]
struct Frontier {
    score: f64,
    ranks: Vec<u32>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on score; equal scores pop in lexicographic rank
        // order so the emission sequence is fully deterministic.
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.ranks.cmp(&self.ranks))
    }
}

/// Best-first iterator over system states in descending stationary
/// probability — see [`ProductFormModel::enumerate_descending`] and the
/// module-level proof sketch.
#[derive(Debug)]
pub struct BestFirstStates {
    /// Per type: up-counts sorted by descending marginal probability.
    orders: Vec<Vec<usize>>,
    /// `values[x][r]` = marginal probability at rank `r` of type `x`.
    values: Vec<Vec<f64>>,
    heap: BinaryHeap<Frontier>,
    seen: HashSet<Vec<u32>>,
}

impl BestFirstStates {
    fn new(marginals: &[Vec<f64>]) -> Self {
        let mut orders = Vec::with_capacity(marginals.len());
        let mut values = Vec::with_capacity(marginals.len());
        for m in marginals {
            let mut order: Vec<usize> = (0..m.len()).collect();
            // Descending by probability, up-count as the deterministic
            // tie-break.
            order.sort_by(|&a, &b| m[b].total_cmp(&m[a]).then(a.cmp(&b)));
            values.push(order.iter().map(|&u| m[u]).collect());
            orders.push(order);
        }
        let root = vec![0u32; marginals.len()];
        let mut heap = BinaryHeap::new();
        let mut seen = HashSet::new();
        seen.insert(root.clone());
        heap.push(Frontier {
            score: Self::score_of(&values, &root),
            ranks: root,
        });
        BestFirstStates {
            orders,
            values,
            heap,
            seen,
        }
    }

    /// `Π_x values[x][ranks[x]]`, multiplied in type order — the same
    /// float product as [`ProductFormModel::state_probability`].
    fn score_of(values: &[Vec<f64>], ranks: &[u32]) -> f64 {
        let mut p = 1.0;
        for (v, &r) in values.iter().zip(ranks) {
            p *= v[r as usize];
        }
        p
    }
}

impl Iterator for BestFirstStates {
    type Item = (Vec<usize>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let top = self.heap.pop()?;
        for x in 0..top.ranks.len() {
            let next_rank = top.ranks[x] as usize + 1;
            if next_rank < self.orders[x].len() {
                let mut child = top.ranks.clone();
                child[x] += 1;
                if self.seen.insert(child.clone()) {
                    self.heap.push(Frontier {
                        score: Self::score_of(&self.values, &child),
                        ranks: child,
                    });
                }
            }
        }
        let state = top
            .ranks
            .iter()
            .zip(&self.orders)
            .map(|(&r, order)| order[r as usize])
            .collect();
        Some((state, top.score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{closed_form_unavailability, AvailabilityModel};
    use crate::sparse_model::SparseAvailabilityModel;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_markov::linalg::GaussSeidelOptions;
    use wfms_statechart::paper_section52_registry;

    fn gs() -> GaussSeidelOptions {
        GaussSeidelOptions {
            tolerance: 1e-12,
            max_iterations: 100_000,
            relaxation: 1.0,
        }
    }

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
    fn backend_parses_and_displays_round_trip() {
        for b in [
            AvailBackend::Auto,
            AvailBackend::Dense,
            AvailBackend::Sparse,
            AvailBackend::Product,
        ] {
            assert_eq!(b.to_string().parse::<AvailBackend>().unwrap(), b);
        }
        assert!("gauss".parse::<AvailBackend>().is_err());
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
    fn from_marginals_replacement_is_bit_identical_to_from_blocks() {
        // The engine's delta path: take a neighbour's marginals, replace
        // only the moved type's, and get the exact model `from_blocks`
        // would build for the new configuration — bit for bit.
        let reg = paper_section52_registry();
        let incumbent = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        let neighbour = Configuration::new(&reg, vec![2, 3, 3]).unwrap();
        let base = ProductFormModel::new(&reg, &incumbent).unwrap();
        let mut marginals = base.marginals().to_vec();
        let moved = BirthDeathBlock::for_type(
            reg.get(ServerTypeId(1)).unwrap(),
            3,
            RepairPolicy::Independent,
        );
        marginals[1] = moved.marginal_distribution();
        let patched = ProductFormModel::from_marginals(&neighbour, marginals).unwrap();
        let fresh = ProductFormModel::new(&reg, &neighbour).unwrap();
        assert_eq!(patched.marginals(), fresh.marginals());
        assert_eq!(
            patched.availability().to_bits(),
            fresh.availability().to_bits()
        );
        let lazy_patched: Vec<(Vec<usize>, f64)> = patched.enumerate_descending().collect();
        let lazy_fresh: Vec<(Vec<usize>, f64)> = fresh.enumerate_descending().collect();
        assert_eq!(lazy_patched, lazy_fresh);
    }

    #[test]
    fn from_marginals_rejects_mismatched_shapes() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let model = ProductFormModel::new(&reg, &config).unwrap();
        // Wrong marginal count.
        let short = model.marginals()[..2].to_vec();
        assert!(ProductFormModel::from_marginals(&config, short).is_err());
        // Wrong entry count for one type (Y_x + 1 expected).
        let mut bad = model.marginals().to_vec();
        bad[0].pop();
        assert!(ProductFormModel::from_marginals(&config, bad).is_err());
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
    fn enumeration_is_descending_complete_and_consistent() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        let model = ProductFormModel::new(&reg, &config).unwrap();
        let emitted: Vec<(Vec<usize>, f64)> = model.enumerate_descending().collect();
        let n = model.state_space().len();
        assert_eq!(emitted.len(), n, "every state exactly once");
        let mut seen = std::collections::HashSet::new();
        let mut last = f64::INFINITY;
        let mut total = 0.0;
        for (state, p) in &emitted {
            assert!(seen.insert(state.clone()), "duplicate {state:?}");
            assert!(*p <= last, "ascending step at {state:?}: {p} > {last}");
            // The emitted score is the same float product the point
            // query computes.
            assert_eq!(model.state_probability(state).unwrap(), *p);
            last = *p;
            total += *p;
        }
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // The first state is the modal (fully-up, for realistic rates).
        assert_eq!(emitted[0].0, vec![2, 2, 3]);
    }

    #[test]
    fn enumeration_prefix_covers_almost_all_mass_quickly() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 3).unwrap(); // 64 states
        let model = ProductFormModel::new(&reg, &config).unwrap();
        let mut covered = 0.0;
        let mut pulled = 0;
        for (_, p) in model.enumerate_descending() {
            covered += p;
            pulled += 1;
            if covered >= 1.0 - 1e-9 {
                break;
            }
        }
        assert!(
            pulled < 64,
            "descending enumeration should reach 1 - 1e-9 before exhausting \
             the space, needed {pulled}/64"
        );
    }

    #[test]
    fn single_repairman_blocks_are_rejected() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let blocks: Vec<Arc<BirthDeathBlock>> = reg
            .iter()
            .map(|(id, st)| {
                Arc::new(BirthDeathBlock::for_type(
                    st,
                    config.as_slice()[id.0],
                    RepairPolicy::SingleRepairmanPerType,
                ))
            })
            .collect();
        assert!(matches!(
            ProductFormModel::from_blocks(&config, &blocks),
            Err(AvailError::UnsupportedPolicy { backend: "product" })
        ));
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
    fn product_matches_sparse_gauss_seidel() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![3, 2, 3]).unwrap();
        let sparse =
            SparseAvailabilityModel::new(&reg, &config, RepairPolicy::Independent).unwrap();
        let pi_gs = sparse.steady_state(gs()).unwrap();
        let product = ProductFormModel::new(&reg, &config).unwrap();
        for (idx, x) in product.state_space().iter() {
            assert!((pi_gs[idx] - product.state_probability(&x).unwrap()).abs() < 1e-9);
        }
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
    use crate::sparse_model::SparseAvailabilityModel;
    use proptest::prelude::*;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_markov::linalg::GaussSeidelOptions;
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

        /// Satellite invariant: the product-form π matches both the
        /// dense LU solve and the sparse Gauss–Seidel solve element-wise
        /// under independent repair.
        #[test]
        fn product_pi_matches_dense_and_sparse(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            let product = ProductFormModel::new(&reg, &config).unwrap();

            let dense = AvailabilityModel::new(&reg, &config).unwrap();
            let pi_lu = dense.steady_state(SteadyStateMethod::Lu).unwrap();

            let sparse = SparseAvailabilityModel::new(
                &reg, &config, RepairPolicy::Independent,
            ).unwrap();
            let pi_gs = sparse.steady_state(GaussSeidelOptions {
                tolerance: 1e-12,
                max_iterations: 100_000,
                relaxation: 1.0,
            }).unwrap();

            for (idx, x) in product.state_space().iter() {
                let p = product.state_probability(&x).unwrap();
                prop_assert!((p - pi_lu[idx]).abs() < 1e-9,
                    "idx {idx}: product {p:e} vs LU {:e}", pi_lu[idx]);
                prop_assert!((p - pi_gs[idx]).abs() < 1e-9,
                    "idx {idx}: product {p:e} vs GS {:e}", pi_gs[idx]);
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

        /// The best-first enumeration is a descending permutation of the
        /// state space whose scores match the point query.
        #[test]
        fn enumeration_is_a_descending_permutation(
            (reg, config) in arbitrary_registry_and_config()
        ) {
            let model = ProductFormModel::new(&reg, &config).unwrap();
            let emitted: Vec<(Vec<usize>, f64)> =
                model.enumerate_descending().collect();
            prop_assert_eq!(emitted.len(), model.state_space().len());
            let mut last = f64::INFINITY;
            let mut seen = std::collections::HashSet::new();
            for (state, p) in &emitted {
                prop_assert!(seen.insert(state.clone()));
                prop_assert!(*p <= last);
                prop_assert_eq!(model.state_probability(state).unwrap(), *p);
                last = *p;
            }
        }
    }
}
