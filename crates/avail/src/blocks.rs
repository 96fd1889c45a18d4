//! Per-type birth–death blocks of the availability CTMC.
//!
//! Under both repair policies the availability chain is a product of
//! independent per-type birth–death processes on the up-count
//! `X_x ∈ {0, …, Y_x}`: failures move down at `X_x · λ_x`, repairs move
//! up at a rate depending only on the number failed. A
//! [`BirthDeathBlock`] tabulates those two rate ladders for one server
//! type once, so assembling the generator for a neighbouring candidate
//! `Y + e_k` reuses the blocks of every unchanged type verbatim. The
//! configuration-search engine builds a block when it fills a type's
//! `(type, Y_x)` record and keeps only the stationary marginal read
//! from it.
//!
//! The tabulated rates are the *same float products* the direct
//! generator assembly computes (`x as f64 * λ`, `failed as f64 * μ`),
//! so a model built from blocks is bit-identical to one built from
//! scratch.

use wfms_statechart::ServerType;

use crate::model::RepairPolicy;

/// The largest unnormalized ratio the marginal walk keeps; a larger one
/// rescales the walk. The sum of `MAX_REPLICAS + 1` entries below it is
/// still far below `f64::MAX`.
const RESCALE_ABOVE: f64 = 1e280;

/// The failure/repair rate ladders of one server type's birth–death
/// process, for a fixed replica count `Y_x` and repair policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeathBlock {
    replicas: usize,
    policy: RepairPolicy,
    /// `failure_rates[x]` is the transition rate from up-count `x` to
    /// `x - 1`, i.e. `x · λ`; entry 0 is zero.
    failure_rates: Vec<f64>,
    /// `repair_rates[f]` is the transition rate from `f` failed servers
    /// to `f - 1`, per the policy; entry 0 is zero.
    repair_rates: Vec<f64>,
}

impl BirthDeathBlock {
    /// Tabulates the rate ladders for `replicas` servers of type `st`.
    pub fn for_type(st: &ServerType, replicas: usize, policy: RepairPolicy) -> Self {
        let failure_rates = (0..=replicas).map(|x| x as f64 * st.failure_rate).collect();
        let repair_rates = (0..=replicas)
            .map(|failed| {
                if failed == 0 {
                    0.0
                } else {
                    match policy {
                        RepairPolicy::Independent => failed as f64 * st.repair_rate,
                        RepairPolicy::SingleRepairmanPerType => st.repair_rate,
                    }
                }
            })
            .collect();
        BirthDeathBlock {
            replicas,
            policy,
            failure_rates,
            repair_rates,
        }
    }

    /// The replica count `Y_x` this block was built for.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The repair policy the repair ladder encodes.
    pub fn policy(&self) -> RepairPolicy {
        self.policy
    }

    /// Failure rate out of up-count `up` (towards `up - 1`).
    ///
    /// # Panics
    /// When `up > replicas`.
    pub fn failure_rate(&self, up: usize) -> f64 {
        self.failure_rates[up]
    }

    /// Repair rate with `failed` servers down (towards `failed - 1`).
    ///
    /// # Panics
    /// When `failed > replicas`.
    pub fn repair_rate(&self, failed: usize) -> f64 {
        self.repair_rates[failed]
    }

    /// The stationary distribution of this type's up-count, from the
    /// closed-form birth–death balance `π_{x+1} · (x+1)λ = π_x · μ(f)`:
    /// `marginal[x]` is the probability that exactly `x` of the `Y_x`
    /// replicas are up.
    ///
    /// Because types fail and repair independently, the product of the
    /// per-type marginals is the stationary distribution of the full
    /// chain — a cross-check for the global solve (exact under both
    /// policies, since the chain is a product of reversible blocks).
    ///
    /// The walk runs on unnormalized ratios. When one passes 10²⁸⁰,
    /// every entry computed so far is divided by it, which keeps their
    /// ratios (an entry that underflows is negligible next to it), so
    /// the walk and its sum stay finite at any replica count. A walk
    /// that stays below 10²⁸⁰ is never rescaled.
    pub fn marginal_distribution(&self) -> Vec<f64> {
        let y = self.replicas;
        let mut unnormalized = vec![0.0; y + 1];
        // Entries at and above `live` have underflowed to zero, so a
        // rescale need not touch them.
        let mut live = y + 1;
        // Walk down from the fully-up state: balance across the cut
        // between x and x+1 gives π_x = π_{x+1} · λ(x+1) / μ(Y-x).
        unnormalized[y] = 1.0;
        for x in (0..y).rev() {
            let up_rate = self.repair_rates[y - x]; // x -> x+1
            let down_rate = self.failure_rates[x + 1]; // x+1 -> x
            let mut next = if up_rate > 0.0 {
                unnormalized[x + 1] * down_rate / up_rate
            } else {
                0.0
            };
            if next > RESCALE_ABOVE {
                for p in &mut unnormalized[x + 1..live] {
                    *p /= next;
                }
                while live > x + 1 && unnormalized[live - 1] == 0.0 {
                    live -= 1;
                }
                next = 1.0;
            }
            unnormalized[x] = next;
        }
        let total: f64 = unnormalized.iter().sum();
        unnormalized.into_iter().map(|p| p / total).collect()
    }

    /// Probability that at least one replica is up (`1 - marginal[0]`).
    pub fn availability(&self) -> f64 {
        1.0 - self.marginal_distribution()[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AvailabilityModel;
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_statechart::{paper_section52_registry, Configuration, ServerTypeId};

    #[test]
    fn ladders_match_direct_generator_products() {
        let reg = paper_section52_registry();
        let st = reg.get(ServerTypeId(0)).unwrap();
        let block = BirthDeathBlock::for_type(st, 3, RepairPolicy::Independent);
        for x in 0..=3 {
            assert_eq!(block.failure_rate(x), x as f64 * st.failure_rate);
            assert_eq!(block.repair_rate(x), x as f64 * st.repair_rate);
        }
        let single = BirthDeathBlock::for_type(st, 3, RepairPolicy::SingleRepairmanPerType);
        assert_eq!(single.repair_rate(0), 0.0);
        assert_eq!(single.repair_rate(1), st.repair_rate);
        assert_eq!(single.repair_rate(3), st.repair_rate);
    }

    #[test]
    fn marginal_matches_independent_closed_form() {
        let reg = paper_section52_registry();
        let st = reg.get(ServerTypeId(2)).unwrap();
        let q = st.failure_rate / (st.failure_rate + st.repair_rate);
        for y in 1..=4 {
            let block = BirthDeathBlock::for_type(st, y, RepairPolicy::Independent);
            // Independent repair => binomial marginal over up-counts.
            let marginal = block.marginal_distribution();
            assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            let p_all_down = q.powi(y as i32);
            assert!(
                (marginal[0] - p_all_down).abs() < 1e-15,
                "Y={y}: marginal[0]={:e} vs q^Y={p_all_down:e}",
                marginal[0]
            );
            assert!((block.availability() - (1.0 - p_all_down)).abs() < 1e-15);
        }
    }

    /// Past f64's range of the unnormalized walk, every entry matches
    /// the binomial marginal walked in log space, where nothing
    /// overflows.
    #[test]
    fn marginal_past_the_walks_range_matches_a_log_space_walk() {
        let st = wfms_statechart::ServerType::with_exponential_service(
            "flaky",
            wfms_statechart::ServerTypeKind::ApplicationServer,
            0.1,
            0.0002,
            0.01,
        );
        let y = 5_000;
        let marginal =
            BirthDeathBlock::for_type(&st, y, RepairPolicy::Independent).marginal_distribution();
        assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let q = st.failure_rate / (st.failure_rate + st.repair_rate);
        let mut ln_pmf = y as f64 * q.ln();
        let mut checked = 0;
        for (x, &m) in marginal.iter().enumerate() {
            let expected = ln_pmf.exp();
            if expected > 1e-300 {
                assert!(
                    (m - expected).abs() <= 1e-9 * expected,
                    "x={x}: {m:e} vs {expected:e}"
                );
                checked += 1;
            }
            ln_pmf += ((y - x) as f64 / (x + 1) as f64).ln() + ((1.0 - q) / q).ln();
        }
        assert!(checked > 100, "{checked} entries above 1e-300");
    }

    #[test]
    fn product_of_marginals_matches_full_chain() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 1, 3]).unwrap();
        let model = AvailabilityModel::new(&reg, &config).unwrap();
        let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
        let marginals: Vec<Vec<f64>> = reg
            .iter()
            .map(|(id, st)| {
                BirthDeathBlock::for_type(st, config.as_slice()[id.0], RepairPolicy::Independent)
                    .marginal_distribution()
            })
            .collect();
        for (idx, x) in model.state_space().iter() {
            let product: f64 = x.iter().zip(&marginals).map(|(&up, m)| m[up]).product();
            assert!(
                (pi[idx] - product).abs() < 1e-10,
                "state {x:?}: pi={} vs product {product}",
                pi[idx]
            );
        }
    }
}
