//! Turnaround-time *distributions* (an extension beyond the paper's
//! means-only analysis).
//!
//! The paper's Sec. 4.1 derives the mean turnaround `R_t`; the same
//! uniformized transient analysis also yields the full distribution of
//! the time to absorption — `P(T ≤ t)` — and hence percentiles such as
//! "90 % of purchases finish within two days", which is how service-level
//! agreements are usually phrased. This module wraps
//! [`wfms_markov::transient::SquaringTable`], the exponential of the
//! taboo generator by scaling and squaring, behind a workflow-centric API
//! with a safeguarded Newton percentile solver: one percentile builds
//! the table once, and each Newton probe reads the CDF and its density
//! from it in `⌈log₂ v·t⌉` dense products of the taboo block.

use wfms_markov::transient::{SquaringTable, Uniformized};
use wfms_markov::ChainError;

use crate::error::PerfError;
use crate::workflow::WorkflowAnalysis;

/// The relative step at which [`TurnaroundDistribution::percentile`]
/// stops. Newton converges quadratically near the root, so the answer
/// it returns lies well inside this band.
const PERCENTILE_TOLERANCE: f64 = 1e-7;

/// The most CDF probes one percentile runs.
const PERCENTILE_PROBES: usize = 64;

/// Turnaround-time distribution of one workflow type.
#[derive(Debug, Clone)]
pub struct TurnaroundDistribution {
    uniformized: Uniformized,
    start: usize,
    mean: f64,
    epsilon: f64,
}

impl TurnaroundDistribution {
    /// Builds the distribution from a workflow analysis.
    ///
    /// `epsilon` bounds the truncation error of each CDF evaluation
    /// (`1e-9` is plenty; the paper's 99 %-quantile spirit corresponds to
    /// `1e-2`).
    ///
    /// # Errors
    /// [`PerfError::Chain`] when the workflow CTMC cannot be uniformized.
    pub fn new(analysis: &WorkflowAnalysis, epsilon: f64) -> Result<Self, PerfError> {
        let _obs_span = wfms_obs::span!(
            "turnaround-distribution",
            states = analysis.ctmc.n(),
            epsilon = epsilon
        );
        Ok(TurnaroundDistribution {
            uniformized: Uniformized::new(&analysis.ctmc)?,
            start: analysis.start,
            mean: analysis.mean_turnaround,
            epsilon,
        })
    }

    /// Mean turnaround `R_t` (from the workflow analysis).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// `P(turnaround ≤ t)`.
    ///
    /// # Errors
    /// [`PerfError::Chain`] on internal failures.
    pub fn cdf(&self, t: f64) -> Result<f64, PerfError> {
        if t <= 0.0 {
            return Ok(0.0);
        }
        Ok(self.table(t)?.cdf(t))
    }

    /// The `q`-percentile of the turnaround time: the root of
    /// `F(t) = q`, by Newton's method on the log survival
    /// `ln(1 − F(t)) − ln(1 − q)` to a relative step of `1e-7`. That
    /// function is linear in `t` on an exponential tail, and near the
    /// root its step equals the step on `F(t) − q`.
    ///
    /// The search starts at `−mean·ln(1 − q)`, the `q`-quantile of an
    /// exponential with the chain's mean, and keeps a bracket `[lo, hi]`
    /// around the root. Each probe reads `F(t)` and its density `f(t)`
    /// from one squaring table, built for the time bound below. A Newton
    /// step that leaves the bracket is replaced by bisection; while `hi`
    /// is still open it is replaced by doubling `t`, and no step goes
    /// past the time bound. The search stops once a step moves `t` by at
    /// most `1e-7·t`, or after 64 probes.
    ///
    /// `q` must lie in `(0, 1 − ε)`: each CDF evaluation may err by up to
    /// `ε`, so the computed CDF never reliably reaches a higher `q`. The
    /// search is bounded by Markov's inequality, with a factor 2 of slack
    /// for rounding: a chain that absorbs with this mean has
    /// `P(T > t) ≤ (1 − ε − q) / 2` at `t = 2·mean / (1 − ε − q)`, so its
    /// CDF has passed `q` there. A chain whose CDF has not absorbs less
    /// than its mean says — its absorbed mass stalls — and the search
    /// stops instead of probing without limit.
    ///
    /// # Errors
    /// [`PerfError::InvalidQuantile`] when `q` is outside `(0, 1 − ε)`;
    /// [`PerfError::Chain`] with [`ChainError::AbsorptionNotCertain`]
    /// when the search breaks the bound, and on internal failures.
    pub fn percentile(&self, q: f64) -> Result<f64, PerfError> {
        if !(q > 0.0 && q < 1.0 - self.epsilon) {
            return Err(PerfError::InvalidQuantile {
                q,
                epsilon: self.epsilon,
            });
        }
        let not_certain =
            || PerfError::Chain(ChainError::AbsorptionNotCertain { state: self.start });
        if !self.mean.is_finite() {
            return Err(not_certain());
        }
        let time_bound = 2.0 * self.mean / (1.0 - self.epsilon - q);
        let mut table = self.table(time_bound)?;
        let mut t = -self.mean * (1.0 - q).ln();
        let (mut lo, mut hi) = (0.0, f64::INFINITY);
        for _ in 0..PERCENTILE_PROBES {
            let (cdf, density) = table.cdf_and_density(t);
            if cdf < q {
                if hi == f64::INFINITY && t >= time_bound {
                    return Err(not_certain());
                }
                lo = t;
            } else {
                hi = t;
            }
            // While `hi` is open, doubling stands in for bisection.
            let cap = if hi < f64::INFINITY {
                hi
            } else {
                (2.0 * t).min(time_bound)
            };
            let newton = t + ((1.0 - cdf) / (1.0 - q)).ln() * (1.0 - cdf) / density;
            let next = if newton > lo && newton < cap {
                newton
            } else if hi < f64::INFINITY {
                0.5 * (lo + hi)
            } else {
                cap
            };
            if (next - t).abs() <= PERCENTILE_TOLERANCE * t {
                return Ok(next);
            }
            t = next;
        }
        Ok(t)
    }

    /// A fresh squaring table from the start state, accurate to `ε` up
    /// to `horizon`.
    fn table(&self, horizon: f64) -> Result<SquaringTable, PerfError> {
        Ok(self
            .uniformized
            .squaring_table(self.start, horizon, self.epsilon)?)
    }

    /// A fresh absorbed-mass sequence from the start state: the stepping
    /// kernel the tests check the table against.
    #[cfg(test)]
    fn sequence(&self) -> Result<wfms_markov::AbsorptionSequence<'_>, PerfError> {
        Ok(self.uniformized.absorption_sequence(self.start)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{analyze_workflow, AnalysisOptions};
    use wfms_markov::linalg::Matrix;
    use wfms_markov::Ctmc;
    use wfms_statechart::{
        paper_section52_registry, ActivityKind, ActivitySpec, ChartBuilder, EcaRule,
        ServerTypeRegistry, WorkflowSpec,
    };
    use wfms_workloads::{
        enterprise_registry, ep_workflow, fan_workflow, insurance_claim_workflow,
        loan_approval_workflow, order_fulfillment_workflow, sequential_workflow,
    };

    fn exponential_workflow(mean: f64) -> WorkflowSpec {
        let chart = ChartBuilder::new("E")
            .initial("i")
            .activity_state("a", "A")
            .final_state("f")
            .transition("i", "a", 1.0, EcaRule::default())
            .transition("a", "f", 1.0, EcaRule::default())
            .build()
            .unwrap();
        WorkflowSpec::new(
            "E",
            chart,
            [ActivitySpec::new(
                "A",
                ActivityKind::Automated,
                mean,
                vec![1.0, 1.0, 1.0],
            )],
        )
    }

    fn distribution_of(spec: &WorkflowSpec) -> TurnaroundDistribution {
        let reg = paper_section52_registry();
        let analysis = analyze_workflow(spec, &reg, &AnalysisOptions::default()).unwrap();
        TurnaroundDistribution::new(&analysis, 1e-10).unwrap()
    }

    #[test]
    fn exponential_workflow_has_exponential_cdf() {
        let d = distribution_of(&exponential_workflow(4.0));
        for t in [1.0, 4.0, 10.0] {
            let expect = 1.0 - (-t / 4.0f64).exp();
            let got = d.cdf(t).unwrap();
            assert!((got - expect).abs() < 1e-8, "t={t}: {got} vs {expect}");
        }
        assert_eq!(d.cdf(0.0).unwrap(), 0.0);
        assert_eq!(d.cdf(-1.0).unwrap(), 0.0);
    }

    #[test]
    fn percentiles_match_exponential_closed_form() {
        let d = distribution_of(&exponential_workflow(4.0));
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let expect = -4.0 * (1.0 - q).ln();
            let got = d.percentile(q).unwrap();
            assert!(
                (got - expect).abs() < 1e-3 * expect.max(0.1),
                "q={q}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn percentile_is_monotone_and_brackets_mean() {
        let d = distribution_of(&exponential_workflow(2.0));
        let p50 = d.percentile(0.5).unwrap();
        let p90 = d.percentile(0.9).unwrap();
        let p99 = d.percentile(0.99).unwrap();
        assert!(p50 < p90 && p90 < p99);
        // Exponential: median < mean < p90.
        assert!(p50 < d.mean() && d.mean() < p90);
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        let d = distribution_of(&exponential_workflow(1.0));
        for q in [0.0, 1.0, -0.5, f64::NAN, 1.0 - 1e-10, 1.0 - 1e-11] {
            assert!(
                matches!(d.percentile(q), Err(PerfError::InvalidQuantile { epsilon, .. }) if epsilon == 1e-10),
                "q = {q}"
            );
        }
    }

    #[test]
    fn distribution_stays_clone_send_sync() {
        // Each percentile or CDF call builds its own squaring table;
        // nothing is cached behind `&self`, so the type can be shared
        // across threads.
        fn shareable<T: Clone + Send + Sync>() {}
        shareable::<TurnaroundDistribution>();
    }

    #[test]
    fn percentile_past_the_truncated_cdf_fails_fast() {
        // q = 1 − 1e-10 lies above 1 − ε, where the ε-truncated CDF tops
        // out; the bracket used to double its window forever.
        let reg = paper_section52_registry();
        let analysis = analyze_workflow(&ep_workflow(), &reg, &AnalysisOptions::default()).unwrap();
        let d = TurnaroundDistribution::new(&analysis, 1e-9).unwrap();
        let started = std::time::Instant::now();
        let err = d.percentile(1.0 - 1e-10).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert!(matches!(err, PerfError::InvalidQuantile { .. }), "{err}");
        assert!(
            err.to_string().contains("outside (0, 1 - 0.000000001)"),
            "{err}"
        );
        // Just inside the domain still resolves.
        assert!(d.percentile(1.0 - 1e-8).unwrap() > d.percentile(0.99).unwrap());
    }

    #[test]
    fn stalled_absorption_is_not_certain() {
        // From state 0 half the mass is absorbed (state 3) and half is
        // trapped in the 1 ↔ 2 cycle, whatever mean the analysis claims.
        let jump = Matrix::from_nested(&[
            &[0.0, 0.5, 0.0, 0.5],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let ctmc = Ctmc::from_jump_chain(jump, vec![1.0, 1.0, 1.0, f64::INFINITY]).unwrap();
        let analysis = WorkflowAnalysis {
            name: "stall".into(),
            mean_turnaround: 2.0,
            expected_requests: vec![],
            ctmc,
            start: 0,
            absorbing: 3,
            state_loads: Matrix::zeros(0, 4),
        };
        let d = TurnaroundDistribution::new(&analysis, 1e-9).unwrap();
        assert!(d.percentile(0.4).is_ok());
        for q in [0.6, 0.99, 1.0 - 2e-9] {
            assert!(
                matches!(
                    d.percentile(q),
                    Err(PerfError::Chain(ChainError::AbsorptionNotCertain {
                        state: 0
                    }))
                ),
                "q = {q}"
            );
        }
    }

    /// The percentile as the production code found it before Newton:
    /// exponential bracketing from the mean, then bisection, here run to
    /// `rel_tol` relative on one absorbed-mass sequence and its
    /// ε-bounded Poisson windows: a kernel independent of the squaring
    /// table the production CDF reads.
    pub(super) fn bisection_percentile(d: &TurnaroundDistribution, q: f64, rel_tol: f64) -> f64 {
        let mut sequence = d.sequence().unwrap();
        let mut hi = d.mean.max(1e-9);
        while sequence.cdf(hi, d.epsilon) < q {
            hi *= 2.0;
        }
        let mut lo = 0.0;
        while hi - lo > rel_tol * hi {
            let mid = 0.5 * (lo + hi);
            if sequence.cdf(mid, d.epsilon) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The five chains the percentile is checked on (ep, the three
    /// enterprise workflows and the ladder-M chart), each with p50, p90
    /// and p99 at ε = 1e-9 as the bisection reported them before Newton
    /// replaced it (to its `1e-4·t` band).
    fn percentile_cases() -> Vec<(WorkflowSpec, ServerTypeRegistry, [u64; 3])> {
        vec![
            (
                ep_workflow(),
                paper_section52_registry(),
                [
                    4630954746457285928,
                    4661597071340505594,
                    4669739905314634692,
                ],
            ),
            (
                order_fulfillment_workflow(),
                enterprise_registry(),
                [
                    4631253120249850216,
                    4639773420284435032,
                    4646491013275867738,
                ],
            ),
            (
                insurance_claim_workflow(),
                enterprise_registry(),
                [
                    4652906528796311552,
                    4660048912374038528,
                    4664295164607463424,
                ],
            ),
            (
                loan_approval_workflow(),
                enterprise_registry(),
                [
                    4635665122154386554,
                    4646910820288917667,
                    4653002097720201050,
                ],
            ),
            (
                sequential_workflow(30),
                paper_section52_registry(),
                [
                    4654130802988504406,
                    4657207984641452716,
                    4659182071064472236,
                ],
            ),
        ]
    }

    #[test]
    fn percentiles_match_the_bisection_oracle() {
        let mut worst = (0.0f64, 0.0f64);
        for (spec, reg, before) in percentile_cases() {
            let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
            let d = TurnaroundDistribution::new(&analysis, 1e-9).unwrap();
            for (q, before) in [0.5, 0.9, 0.99].into_iter().zip(before.map(f64::from_bits)) {
                let got = d.percentile(q).unwrap();
                let oracle = bisection_percentile(&d, q, 1e-13);
                let vs_oracle = (got - oracle).abs() / oracle;
                let vs_before = (got - before).abs() / before;
                assert!(
                    vs_oracle <= 1e-6,
                    "{} p{q}: {got} vs the oracle's {oracle}",
                    spec.name
                );
                // The bisection's answer was only good to its band.
                assert!(
                    vs_before <= 1e-4,
                    "{} p{q}: {got} vs {before} before",
                    spec.name
                );
                worst = (worst.0.max(vs_oracle), worst.1.max(vs_before));
            }
        }
        eprintln!(
            "max relative |Δ|: {:.1e} against the oracle, {:.1e} against the bisection",
            worst.0, worst.1
        );
    }

    #[test]
    fn squaring_cdf_is_within_epsilon_of_stepping_on_the_percentile_chains() {
        let fan = (fan_workflow(50), paper_section52_registry(), [0; 3]);
        for (spec, reg, _) in percentile_cases().into_iter().chain([fan]) {
            let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
            let d = TurnaroundDistribution::new(&analysis, 1e-9).unwrap();
            let horizon = 2.0 * d.percentile(0.99).unwrap();
            let mut seq = d.sequence().unwrap();
            let mut table = d.table(horizon).unwrap();
            let mut t = 0.01 * d.mean();
            while t <= horizon {
                let (stepping, squaring) = (seq.cdf(t, d.epsilon), table.cdf(t));
                assert!(
                    (squaring - stepping).abs() <= d.epsilon + 1e-12,
                    "{} at t = {t}: {squaring} vs {stepping}",
                    spec.name
                );
                t *= 1.25;
            }
        }
    }

    #[test]
    fn a_wide_fan_chart_matches_the_bisection_oracle() {
        // 52 states that absorb in about 100 uniformized steps: the shape
        // on which the table's `n_T³` squarings cost the most against the
        // `v·t` steps of the absorbed-mass sequence.
        let reg = paper_section52_registry();
        let analysis =
            analyze_workflow(&fan_workflow(50), &reg, &AnalysisOptions::default()).unwrap();
        let d = TurnaroundDistribution::new(&analysis, 1e-9).unwrap();
        for q in [0.5, 0.9, 0.99] {
            let (got, oracle) = (d.percentile(q).unwrap(), bisection_percentile(&d, q, 1e-13));
            assert!(
                (got - oracle).abs() <= 1e-6 * oracle,
                "p{q}: {got} vs the oracle's {oracle}"
            );
        }
    }

    #[test]
    fn absorbed_mass_matches_the_unflushed_dense_recursion() {
        // 60,000 steps run far into the range where each chain's unflushed
        // taboo vector holds subnormals (from step ≈ 6,700 on ep), which
        // the sequence flushes to zero.
        const STEPS: usize = 60_000;
        for (spec, reg, _) in percentile_cases() {
            let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
            let u = Uniformized::new(&analysis.ctmc).unwrap();
            let mut seq = u.absorption_sequence(analysis.start).unwrap();
            seq.cdf(STEPS as f64 / u.rate(), 1e-9);
            assert!(seq.absorbed().len() > STEPS, "{}", spec.name);
            let mut dist = vec![0.0; u.n()];
            dist[analysis.start] = 1.0;
            let mut absorbed = 0.0f64;
            let mut subnormals = 0;
            for (z, &got) in seq.absorbed()[..=STEPS].iter().enumerate() {
                assert_eq!(got.to_bits(), absorbed.to_bits(), "{}: z = {z}", spec.name);
                dist = u.p_bar().vec_mul(&dist).unwrap();
                absorbed += std::mem::take(&mut dist[analysis.absorbing]);
                subnormals += dist.iter().filter(|x| x.is_subnormal()).count();
            }
            assert!(subnormals > 0, "{} never turns subnormal", spec.name);
        }
    }

    #[test]
    fn ep_like_branching_sla_question() {
        // A branchy workflow: 80% finish fast (1 min), 20% take a slow path
        // (100 min). The 0.75-percentile must sit on the fast side and the
        // 0.95-percentile on the slow side.
        let chart = ChartBuilder::new("B")
            .initial("i")
            .activity_state("fast", "Fast")
            .activity_state("slow", "Slow")
            .final_state("f")
            .transition("i", "fast", 1.0, EcaRule::default())
            .transition("fast", "f", 0.8, EcaRule::default())
            .transition("fast", "slow", 0.2, EcaRule::default())
            .transition("slow", "f", 1.0, EcaRule::default())
            .build()
            .unwrap();
        let spec = WorkflowSpec::new(
            "B",
            chart,
            [
                ActivitySpec::new("Fast", ActivityKind::Automated, 1.0, vec![1.0, 1.0, 1.0]),
                ActivitySpec::new("Slow", ActivityKind::Automated, 100.0, vec![1.0, 1.0, 1.0]),
            ],
        );
        let d = distribution_of(&spec);
        let p75 = d.percentile(0.75).unwrap();
        let p95 = d.percentile(0.95).unwrap();
        assert!(p75 < 10.0, "p75 = {p75}");
        assert!(p95 > 50.0, "p95 = {p95}");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::bisection_percentile;
    use super::*;
    use proptest::prelude::*;
    use wfms_markov::linalg::Matrix;
    use wfms_markov::Ctmc;

    /// A random workflow-shaped chain over `n` states: the last state
    /// absorbs, every other state jumps into it with some probability,
    /// and about a third of the other jumps are structurally zero.
    fn random_workflow(n: usize, weights: &[f64], residence: &[f64]) -> Ctmc {
        let mut jump = Matrix::zeros(n, n);
        let mut h = residence.to_vec();
        jump[(n - 1, n - 1)] = 1.0;
        h[n - 1] = f64::INFINITY;
        for i in 0..n - 1 {
            let mut row: Vec<f64> = (0..n)
                .map(|j| {
                    let w = weights[i * n + j];
                    if j == i || w < 0.35 {
                        0.0
                    } else {
                        w
                    }
                })
                .collect();
            row[n - 1] += 0.05;
            let total: f64 = row.iter().sum();
            for (j, w) in row.into_iter().enumerate() {
                jump[(i, j)] = w / total;
            }
        }
        Ctmc::from_jump_chain(jump, h).expect("valid chain")
    }

    /// A random workflow analysis from a transient start state.
    fn workflow_case() -> impl Strategy<Value = WorkflowAnalysis> {
        (2usize..=8).prop_flat_map(|n| {
            (
                collection::vec(0.0f64..1.0, n * n),
                collection::vec(0.1f64..10.0, n),
                0..n - 1,
            )
                .prop_map(move |(w, h, start)| {
                    let ctmc = random_workflow(n, &w, &h);
                    let mean_turnaround = ctmc.mean_first_passage(n - 1).unwrap()[start];
                    WorkflowAnalysis {
                        name: "random".into(),
                        mean_turnaround,
                        expected_requests: vec![],
                        ctmc,
                        start,
                        absorbing: n - 1,
                        state_loads: Matrix::zeros(0, n),
                    }
                })
        })
    }

    proptest! {
        #[test]
        fn newton_matches_the_bisection_oracle(analysis in workflow_case(), q in 0.01f64..0.999) {
            let d = TurnaroundDistribution::new(&analysis, 1e-9).unwrap();
            let got = d.percentile(q).unwrap();
            let oracle = bisection_percentile(&d, q, 1e-13);
            prop_assert!(
                (got - oracle).abs() <= 1e-6 * oracle,
                "q = {}: {} vs the oracle's {}", q, got, oracle
            );
        }
    }
}
