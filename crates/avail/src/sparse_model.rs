//! Sparse availability model for large state spaces.
//!
//! The dense [`crate::model::AvailabilityModel`] materializes the full
//! `n × n` generator and is capped at a few thousand system states. Real
//! deployments with many server types and high replication degrees blow
//! past that (`Π (Y_x + 1)` grows geometrically), but the generator has
//! only `O(k)` transitions per state. This model builds the *transposed*
//! generator directly in CSR form and solves the steady state with the
//! sparse Gauss–Seidel sweeps of
//! [`wfms_markov::linalg::sparse`] — the same algorithm the paper names,
//! now in its scalable form.

use std::sync::Arc;

use wfms_markov::linalg::sparse::{sparse_steady_state_gauss_seidel, CsrMatrix};
use wfms_markov::linalg::GaussSeidelOptions;
use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::blocks::BirthDeathBlock;
use crate::error::AvailError;
use crate::model::RepairPolicy;
use crate::state_space::StateSpace;

/// Safety cap for the sparse model (states; memory is `O(states · k)`).
pub const SPARSE_STATE_CAP: usize = 2_000_000;

/// Sparse-storage availability CTMC.
#[derive(Debug, Clone)]
pub struct SparseAvailabilityModel {
    space: StateSpace,
    /// Transposed generator: row `i` holds the inflow rates `q_ji`.
    qt: CsrMatrix,
    /// Departure rates `-q_ii`.
    departure: Vec<f64>,
}

impl SparseAvailabilityModel {
    /// Builds the sparse availability CTMC, tabulating fresh per-type
    /// [`BirthDeathBlock`] rate ladders and delegating to
    /// [`SparseAvailabilityModel::from_blocks`]. The ladders hold the
    /// same float products the generator used to compute inline, so the
    /// model — and everything solved from it — is unchanged.
    ///
    /// # Errors
    /// [`AvailError::StateSpaceTooLarge`] beyond [`SPARSE_STATE_CAP`];
    /// architectural errors otherwise.
    pub fn new(
        registry: &ServerTypeRegistry,
        config: &Configuration,
        policy: RepairPolicy,
    ) -> Result<Self, AvailError> {
        let mut blocks = Vec::with_capacity(config.k());
        for (j, &y) in config.as_slice().iter().enumerate() {
            let st = registry.get(ServerTypeId(j))?;
            blocks.push(Arc::new(BirthDeathBlock::for_type(st, y, policy)));
        }
        Self::from_blocks(config, &blocks, policy)
    }

    /// Builds the sparse availability CTMC from pre-tabulated per-type
    /// birth–death blocks — the shared assembly path with the dense
    /// [`crate::model::AvailabilityModel::from_blocks`], so a
    /// neighbouring candidate `Y + e_k` pays only one new block.
    ///
    /// # Errors
    /// * [`AvailError::StateSpaceTooLarge`] beyond [`SPARSE_STATE_CAP`].
    /// * [`AvailError::BlockMismatch`] / [`AvailError::Arch`] when the
    ///   blocks do not match `config` (count, replicas, or policy).
    pub fn from_blocks(
        config: &Configuration,
        blocks: &[Arc<BirthDeathBlock>],
        policy: RepairPolicy,
    ) -> Result<Self, AvailError> {
        let space = StateSpace::new(config);
        let n = space.len();
        if n > SPARSE_STATE_CAP {
            return Err(AvailError::StateSpaceTooLarge {
                states: n,
                cap: SPARSE_STATE_CAP,
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
        let _obs_span = wfms_obs::span!("avail-build", states = n, types = k, backend = "sparse");
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(n * 2 * k);
        let mut departure = vec![0.0; n];
        let y = config.as_slice();
        for (idx, x) in space.iter() {
            // Strides let us compute neighbor indices without re-encoding.
            let mut stride = 1;
            for (j, block) in blocks.iter().enumerate() {
                if x[j] > 0 {
                    let rate = block.failure_rate(x[j]);
                    // Failure: transposed entry (to, from).
                    triplets.push((idx - stride, idx, rate));
                    departure[idx] += rate;
                }
                let failed = y[j] - x[j];
                if failed > 0 {
                    let rate = block.repair_rate(failed);
                    triplets.push((idx + stride, idx, rate));
                    departure[idx] += rate;
                }
                stride *= y[j] + 1;
            }
        }
        let qt = CsrMatrix::from_triplets(n, n, triplets).map_err(|_| {
            AvailError::IndexOutOfRange { index: n, len: n } // unreachable by construction
        })?;
        Ok(SparseAvailabilityModel {
            space,
            qt,
            departure,
        })
    }

    /// The underlying state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.space
    }

    /// Number of stored transitions.
    pub fn transitions(&self) -> usize {
        self.qt.nnz()
    }

    /// Stationary distribution via sparse Gauss–Seidel.
    ///
    /// # Errors
    /// [`AvailError::Chain`] on non-convergence.
    pub fn steady_state(&self, opts: GaussSeidelOptions) -> Result<Vec<f64>, AvailError> {
        let mut obs_span = wfms_obs::span!(
            "avail-steady-state",
            states = self.space.len(),
            backend = "sparse"
        );
        // Failpoint `avail.steady-state`: shared with the dense model, so
        // a single spec covers either backend. The inner sparse sweep has
        // its own `linalg.sparse-gs` site.
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
        let sol = sparse_steady_state_gauss_seidel(&self.qt, &self.departure, opts)
            .map_err(wfms_markov::ChainError::Iterative)?;
        obs_span.record("iterations", sol.iterations);
        let mut pi = sol.x;
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

    /// WFMS availability given a stationary distribution.
    ///
    /// # Errors
    /// [`AvailError::LengthMismatch`] on a wrong `pi` length.
    pub fn availability(&self, pi: &[f64]) -> Result<f64, AvailError> {
        self.space.operational_mass(pi)
    }

    /// `1 - availability`.
    ///
    /// # Errors
    /// As [`SparseAvailabilityModel::availability`].
    pub fn unavailability(&self, pi: &[f64]) -> Result<f64, AvailError> {
        Ok(1.0 - self.availability(pi)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{closed_form_unavailability, AvailabilityModel};
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_statechart::{paper_section52_registry, ServerType, ServerTypeKind};

    fn gs() -> GaussSeidelOptions {
        GaussSeidelOptions {
            tolerance: 1e-12,
            max_iterations: 100_000,
            relaxation: 1.0,
        }
    }

    #[test]
    fn sparse_matches_dense_on_paper_scenario() {
        let reg = paper_section52_registry();
        for y in [vec![1, 1, 1], vec![2, 2, 3], vec![3, 3, 3]] {
            let config = Configuration::new(&reg, y).unwrap();
            let dense = AvailabilityModel::new(&reg, &config).unwrap();
            let pi_d = dense.steady_state(SteadyStateMethod::Lu).unwrap();
            let u_dense = dense.unavailability(&pi_d).unwrap();

            let sparse =
                SparseAvailabilityModel::new(&reg, &config, RepairPolicy::Independent).unwrap();
            let pi_s = sparse.steady_state(gs()).unwrap();
            let u_sparse = sparse.unavailability(&pi_s).unwrap();
            assert!(
                (u_dense - u_sparse).abs() < 1e-10 + 1e-6 * u_dense,
                "{config}: dense {u_dense:e} vs sparse {u_sparse:e}"
            );
        }
    }

    #[test]
    fn sparse_matches_dense_for_single_repairman_policy() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 3).unwrap();
        let dense =
            AvailabilityModel::with_policy(&reg, &config, RepairPolicy::SingleRepairmanPerType)
                .unwrap();
        let pi_d = dense.steady_state(SteadyStateMethod::Lu).unwrap();
        let u_dense = dense.unavailability(&pi_d).unwrap();
        let sparse =
            SparseAvailabilityModel::new(&reg, &config, RepairPolicy::SingleRepairmanPerType)
                .unwrap();
        let pi_s = sparse.steady_state(gs()).unwrap();
        let u_sparse = sparse.unavailability(&pi_s).unwrap();
        assert!((u_dense - u_sparse).abs() < 1e-10 + 1e-6 * u_dense);
    }

    /// A registry with `k` types of varied failure rates.
    fn big_registry(k: usize) -> ServerTypeRegistry {
        let mut reg = ServerTypeRegistry::new();
        for i in 0..k {
            reg.register(ServerType::with_exponential_service(
                format!("t{i}"),
                ServerTypeKind::ApplicationServer,
                1.0 / (1_440.0 * (1 + i % 3) as f64),
                0.1,
                0.01,
            ))
            .unwrap();
        }
        reg
    }

    #[test]
    fn sparse_scales_past_the_dense_cap_and_matches_closed_form() {
        // k = 8 types, 4 replicas each: 5^8 = 390 625 states — far beyond
        // any dense representation, solved in seconds sparsely.
        let reg = big_registry(8);
        let config = Configuration::uniform(&reg, 4).unwrap();
        assert!(config.system_state_count() > crate::model::DEFAULT_STATE_CAP);
        let sparse =
            SparseAvailabilityModel::new(&reg, &config, RepairPolicy::Independent).unwrap();
        assert_eq!(sparse.state_space().len(), 390_625);
        let pi = sparse
            .steady_state(GaussSeidelOptions {
                tolerance: 1e-10,
                max_iterations: 10_000,
                relaxation: 1.0,
            })
            .unwrap();
        let u = sparse.unavailability(&pi).unwrap();
        let expect = closed_form_unavailability(&reg, &config).unwrap();
        assert!(
            (u - expect).abs() < 1e-10 + 1e-4 * expect,
            "sparse {u:e} vs closed form {expect:e}"
        );
    }

    #[test]
    fn sparse_cap_is_enforced() {
        let reg = big_registry(10);
        let config = Configuration::uniform(&reg, 9).unwrap(); // 10^10 states
        assert!(matches!(
            SparseAvailabilityModel::new(&reg, &config, RepairPolicy::Independent),
            Err(AvailError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn from_blocks_matches_direct_assembly_bitwise() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 1, 3]).unwrap();
        for policy in [
            RepairPolicy::Independent,
            RepairPolicy::SingleRepairmanPerType,
        ] {
            let direct = SparseAvailabilityModel::new(&reg, &config, policy).unwrap();
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
            let shared = SparseAvailabilityModel::from_blocks(&config, &blocks, policy).unwrap();
            assert_eq!(
                direct.steady_state(gs()).unwrap(),
                shared.steady_state(gs()).unwrap(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn from_blocks_rejects_policy_mismatch() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let blocks: Vec<Arc<BirthDeathBlock>> = reg
            .iter()
            .map(|(id, st)| {
                Arc::new(BirthDeathBlock::for_type(
                    st,
                    config.as_slice()[id.0],
                    RepairPolicy::Independent,
                ))
            })
            .collect();
        assert!(matches!(
            SparseAvailabilityModel::from_blocks(
                &config,
                &blocks,
                RepairPolicy::SingleRepairmanPerType
            ),
            Err(AvailError::BlockMismatch { .. })
        ));
    }

    #[test]
    fn transition_count_is_linear_in_states_and_types() {
        let reg = big_registry(4);
        let config = Configuration::uniform(&reg, 2).unwrap();
        let sparse =
            SparseAvailabilityModel::new(&reg, &config, RepairPolicy::Independent).unwrap();
        let n = sparse.state_space().len();
        // Each state has at most 2k outgoing transitions.
        assert!(sparse.transitions() <= n * 2 * 4);
        assert!(
            sparse.transitions() >= n,
            "every state has at least one transition"
        );
    }
}
