//! Transient analysis of CTMCs by uniformization.
//!
//! Implements the machinery of Sec. 4.2.1 of the paper: the uniformized
//! one-step chain `P̄`, the taboo-probability recursion
//! `p̄_0a(z)` (probability of being in state `a` after `z` uniformized
//! steps without having visited the taboo/absorbing state), the
//! data-driven choice of the truncation depth `z_max` (the number of steps
//! not exceeded with e.g. 99 % probability), and — as an extension — the
//! Poisson-weighted absorption probability at a wall-clock time `t`,
//! which yields the full turnaround-time *distribution* rather than only
//! its mean.
//!
//! All four share one stepping kernel, [`AbsorptionSequence`]: the taboo
//! recursion run once, lazily, which records the absorbed mass
//! `a_z = P(absorbed within z uniformized steps)`. A turnaround CDF is
//! then the dot product `Σ_z PoissonPmf(v·t, z) · a_z`, so any number of
//! CDF evaluations over one chain cost a single pass of `P̄` products.

use crate::ctmc::Ctmc;
use crate::error::ChainError;
use crate::linalg::{CsrMatrix, Matrix};

/// A CTMC together with its uniformized one-step jump matrix.
#[derive(Debug, Clone)]
pub struct Uniformized {
    rate: f64,
    p_bar: Matrix,
    /// `P̄ᵀ` in CSR form, for the stepping kernel: row `c` lists column
    /// `c` of `P̄` in ascending row order, and workflow chains have a
    /// handful of predecessors per state.
    p_bar_t: CsrMatrix,
    absorbing: Vec<usize>,
}

impl Uniformized {
    /// Uniformizes `ctmc` at its maximum departure rate (the paper's choice
    /// `v = max_a v_a`).
    ///
    /// # Errors
    /// [`ChainError::InvalidGenerator`] when every state is absorbing (the
    /// uniformization rate would be zero).
    pub fn new(ctmc: &Ctmc) -> Result<Self, ChainError> {
        Self::with_rate(ctmc, ctmc.max_departure_rate())
    }

    /// Uniformizes at an explicit rate `v ≥ max_a v_a`.
    ///
    /// # Errors
    /// [`ChainError::InvalidGenerator`] when `v` is not positive or below
    /// the maximum departure rate.
    pub fn with_rate(ctmc: &Ctmc, v: f64) -> Result<Self, ChainError> {
        let _obs_span = wfms_obs::span!("uniformize", states = ctmc.n(), rate = v);
        let p_bar = ctmc.uniformized_jump(v)?;
        Ok(Uniformized {
            rate: v,
            p_bar_t: CsrMatrix::from_dense(&p_bar.transpose()),
            p_bar,
            absorbing: ctmc.absorbing_states(),
        })
    }

    /// The uniformization rate `v`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The uniformized one-step matrix `P̄`.
    pub fn p_bar(&self) -> &Matrix {
        &self.p_bar
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.p_bar.rows()
    }

    /// The absorbed-mass sequence of `start` with the chain's absorbing
    /// states as the taboo set: `a_z` is the probability that the chain
    /// has been absorbed within `z` uniformized steps. The sequence is
    /// local to its caller and grows as its CDF evaluations need more
    /// terms; it opens one `transient-distribution` span, whose `terms`
    /// field is the number of `P̄` products it ran.
    ///
    /// # Errors
    /// [`ChainError::StateOutOfRange`] on a bad start,
    /// [`ChainError::NoAbsorbingState`] for a chain without absorbing
    /// states.
    pub fn absorption_sequence(&self, start: usize) -> Result<AbsorptionSequence<'_>, ChainError> {
        if self.absorbing.is_empty() {
            return Err(ChainError::NoAbsorbingState);
        }
        let mut sequence = self.taboo_sequence(start, &self.absorbing)?;
        sequence.obs_span = Some(wfms_obs::span!("transient-distribution", terms = 0_u64));
        Ok(sequence)
    }

    /// The taboo recursion from `start` with taboo set `taboo`, not yet
    /// stepped.
    fn taboo_sequence(
        &self,
        start: usize,
        taboo: &[usize],
    ) -> Result<AbsorptionSequence<'_>, ChainError> {
        let n = self.n();
        if start >= n {
            return Err(ChainError::StateOutOfRange { state: start, n });
        }
        let mut is_taboo = vec![false; n];
        for &t in taboo {
            if t >= n {
                return Err(ChainError::StateOutOfRange { state: t, n });
            }
            is_taboo[t] = true;
        }
        let mut dist = vec![0.0; n];
        dist[start] = 1.0;
        let mut absorbed = 0.0;
        if is_taboo[start] {
            // Starting in the taboo set: absorbed before the first step.
            dist[start] = 0.0;
            absorbed = 1.0;
        }
        Ok(AbsorptionSequence {
            rate: self.rate,
            p_bar_t: &self.p_bar_t,
            is_taboo,
            dist,
            next: vec![0.0; n],
            absorbed: vec![absorbed],
            obs_span: None,
        })
    }

    /// Taboo probabilities `p̄_{start,a}(z)` for `z = 0 … z_max`: element
    /// `[z][a]` is the probability of being in state `a` after `z`
    /// uniformized steps without having visited any state in `taboo`,
    /// starting from `start`. Entries that fall below `f64::MIN_POSITIVE`
    /// read `0.0` (see [`AbsorptionSequence`]).
    ///
    /// # Errors
    /// [`ChainError::StateOutOfRange`] on bad indices.
    pub fn taboo_probabilities(
        &self,
        start: usize,
        taboo: &[usize],
        z_max: usize,
    ) -> Result<Vec<Vec<f64>>, ChainError> {
        let mut sequence = self.taboo_sequence(start, taboo)?;
        let mut out = Vec::with_capacity(z_max + 1);
        out.push(sequence.distribution().to_vec());
        for _ in 0..z_max {
            sequence.step();
            out.push(sequence.distribution().to_vec());
        }
        Ok(out)
    }

    /// The truncation depth `z_max` of Sec. 4.2.1: the smallest number of
    /// uniformized steps within which the chain has entered the taboo
    /// (absorbing) set with probability at least `quantile`, starting from
    /// `start`. Returns `hard_cap` if the quantile is not reached earlier.
    ///
    /// # Errors
    /// [`ChainError::StateOutOfRange`] on bad indices.
    pub fn steps_quantile(
        &self,
        start: usize,
        taboo: &[usize],
        quantile: f64,
        hard_cap: usize,
    ) -> Result<usize, ChainError> {
        let mut sequence = self.taboo_sequence(start, taboo)?;
        let mut z_max = hard_cap;
        for z in 0..hard_cap {
            if sequence.absorbed()[z] >= quantile {
                z_max = z;
                break;
            }
            sequence.step();
        }
        wfms_obs::histogram("markov.poisson.truncation-steps", z_max as u64);
        Ok(z_max)
    }

    /// Transient state distribution at wall-clock time `t`, starting from
    /// distribution `initial`:
    /// `π(t) = Σ_z PoissonPmf(v·t, z) · initial · P̄^z`,
    /// truncated when the remaining Poisson tail mass drops below
    /// `epsilon`.
    ///
    /// This is the direct dense evaluation, one full power series per
    /// call, with no flushing of tiny entries. The production CDF path
    /// ([`Self::absorption_cdf`], [`AbsorptionSequence::cdf`]) never calls
    /// it; it stays as the reference the absorbed-mass sequence is tested
    /// against. It takes the same Poisson window as the CDF: the terms
    /// below the window's first nonzero weight are stepped, not summed.
    ///
    /// # Errors
    /// [`ChainError::LengthMismatch`] on a wrong `initial` length.
    pub fn transient_distribution(
        &self,
        initial: &[f64],
        t: f64,
        epsilon: f64,
    ) -> Result<Vec<f64>, ChainError> {
        let n = self.n();
        if initial.len() != n {
            return Err(ChainError::LengthMismatch {
                what: "initial distribution",
                expected: n,
                actual: initial.len(),
            });
        }
        if t <= 0.0 {
            return Ok(initial.to_vec());
        }
        let window = poisson_window(self.rate * t, epsilon);
        let mut dist = initial.to_vec();
        for _ in 0..window.left {
            dist = self.p_bar.vec_mul(&dist)?;
        }
        let mut out = vec![0.0; n];
        for (i, &w) in window.weights.iter().enumerate() {
            if i > 0 {
                dist = self.p_bar.vec_mul(&dist)?;
            }
            for (o, &d) in out.iter_mut().zip(&dist) {
                *o += w * d;
            }
        }
        Ok(out)
    }

    /// Probability that the chain has reached any absorbing state by time
    /// `t`, starting from state `start` — the turnaround-time CDF of a
    /// workflow chain. One evaluation builds its own
    /// [`AbsorptionSequence`]; callers evaluating many times (a
    /// percentile search) should keep one sequence instead.
    ///
    /// # Errors
    /// [`ChainError::StateOutOfRange`] on a bad start,
    /// [`ChainError::NoAbsorbingState`] for a chain without absorbing
    /// states.
    pub fn absorption_cdf(&self, start: usize, t: f64, epsilon: f64) -> Result<f64, ChainError> {
        Ok(self.absorption_sequence(start)?.cdf(t, epsilon))
    }
}

/// The absorbed-mass sequence `a_z` of one start state: Sec. 4.2.1's
/// taboo recursion `p̄(z+1) = p̄(z) · P̄` with the taboo entries dropped
/// after each step, and `a_{z+1} = a_z + (mass dropped in step z+1)`.
///
/// It is extended lazily and never shrinks, so a caller that evaluates
/// the CDF at many times pays for the longest Poisson window only once.
/// The two step buffers are reused; each step gathers every entry of
/// `p̄(z+1)` from one column of `P̄`.
///
/// After each step, a transient entry below `f64::MIN_POSITIVE` is
/// flushed to `+0.0`; taboo entries are dropped into `a_z` first, so no
/// absorbed mass is flushed. Without the flush a subnormal can stick: a
/// self-loop of 0.9 maps `2⁻¹⁰⁷⁴` back onto itself, and every later
/// step pays for subnormal arithmetic. A flushed entry is below
/// `2⁻¹⁰²²`, so it can change a later sum only where that sum's other
/// terms are below about `2⁻⁹⁶⁹` or the sum falls on an exact rounding
/// tie. That is not a proof of exactness, but every `a_z` stays
/// bit-identical to the unflushed recursion on every chain tested.
///
/// With a single taboo state at the last index — every workflow chain,
/// whose absorbing state `StateMapping` puts last — each `a_z` is
/// bit-identical to the absorbing entry of
/// [`Uniformized::transient_distribution`]'s power series on every chain
/// tested, and so is [`AbsorptionSequence::cdf`]: both sum the same
/// products in the same order (see DESIGN.md §5, "Transient analysis").
pub struct AbsorptionSequence<'a> {
    rate: f64,
    p_bar_t: &'a CsrMatrix,
    /// `is_taboo[s]`: whether state `s` is in the taboo set.
    is_taboo: Vec<bool>,
    /// The taboo sub-distribution after `absorbed.len() - 1` steps.
    dist: Vec<f64>,
    /// Scratch buffer the next step writes into.
    next: Vec<f64>,
    /// `absorbed[z] = a_z`; never empty.
    absorbed: Vec<f64>,
    obs_span: Option<wfms_obs::Span<'static>>,
}

impl AbsorptionSequence<'_> {
    /// The terms computed so far: `a_0 … a_z`.
    pub fn absorbed(&self) -> &[f64] {
        &self.absorbed
    }

    /// The taboo sub-distribution after the last computed step.
    fn distribution(&self) -> &[f64] {
        &self.dist
    }

    /// `P̄` products run so far.
    fn products(&self) -> usize {
        self.absorbed.len() - 1
    }

    /// One uniformized step; appends the next `a_z`.
    ///
    /// `next[c]` folds column `c` of `P̄` from `0.0` in ascending row
    /// order, the order in which the row-by-row dense product accumulates
    /// it, so the two round alike; the rows with `dist[r] = 0`, which the
    /// dense product skips, add `+0.0`, which leaves a non-negative sum
    /// unchanged. The taboo mass is summed in ascending state order.
    fn step(&mut self) {
        let dist = &self.dist;
        let mut dropped = 0.0;
        let columns = self.p_bar_t.row_slices().zip(&self.is_taboo);
        for (next, ((rows, probs), &taboo)) in self.next.iter_mut().zip(columns) {
            let mass = rows
                .iter()
                .zip(probs)
                .fold(0.0, |sum, (&r, &p)| sum + dist[r] * p);
            *next = if taboo {
                dropped += mass;
                0.0
            } else if mass < f64::MIN_POSITIVE {
                0.0
            } else {
                mass
            };
        }
        debug_assert!(
            self.next.iter().all(|x| x.is_finite() && *x >= -1e-9),
            "taboo step produced an invalid sub-distribution"
        );
        std::mem::swap(&mut self.dist, &mut self.next);
        let a = self.absorbed.last().copied().unwrap_or(0.0) + dropped;
        self.absorbed.push(a);
    }

    /// Extends the sequence until it holds at least `terms` values.
    fn extend_to(&mut self, terms: usize) {
        while self.absorbed.len() < terms {
            self.step();
        }
    }

    /// `P(absorbed by time t) = Σ_z PoissonPmf(v·t, z) · a_z`, with the
    /// Poisson weights truncated once their tail mass is below `epsilon`.
    /// Only the nonzero weights are summed, in `z` order; the sequence is
    /// first extended to the truncation point, so its length bounds the
    /// steps any probe so far has needed. `t ≤ 0` gives `a_0`.
    pub fn cdf(&mut self, t: f64, epsilon: f64) -> f64 {
        if t <= 0.0 {
            return self.absorbed[0];
        }
        let window = poisson_window(self.rate * t, epsilon);
        self.extend_to(window.end);
        window
            .weights
            .iter()
            .zip(&self.absorbed[window.left..])
            .fold(0.0, |sum, (&w, &a)| sum + w * a)
    }
}

impl Drop for AbsorptionSequence<'_> {
    fn drop(&mut self) {
        let products = self.products() as u64;
        if let Some(span) = self.obs_span.as_mut() {
            span.record("terms", products);
        }
    }
}

/// The nonzero Poisson probabilities `PoissonPmf(mean, z)` for
/// `z ∈ [left, left + weights.len())`, truncated at `end`: the first `z`
/// at which their accumulated mass reaches `1 − ε`, plus one. Every
/// weight outside the window is exactly zero, so a sum over the window
/// equals the sum over `0..end` bit for bit. When the mass never reaches
/// `1 − ε`, `end` is one past the support bound `mode + 12√mean + 30`.
struct PoissonWindow {
    left: usize,
    weights: Vec<f64>,
    end: usize,
}

/// The Poisson window of `mean` truncated at tail mass `epsilon`, from a
/// mode-centred, overflow-safe recursion, so large means (long
/// workflows) are fine. Records `end` as `markov.poisson.terms`.
fn poisson_window(mean: f64, epsilon: f64) -> PoissonWindow {
    assert!(mean >= 0.0, "Poisson mean must be non-negative");
    assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0, 1)");
    if mean == 0.0 {
        return PoissonWindow {
            left: 0,
            weights: vec![1.0],
            end: 1,
        };
    }
    // Unnormalized weights outwards from the mode, each side until a
    // weight drops below 1e-280 (it never reaches zero first) or the
    // side hits the support bound `hi`: mean + 12 sqrt(mean) + 30 covers
    // far beyond any epsilon >= 1e-15. The two sides are independent
    // chains of dependent divisions, so they run side by side. `below`
    // has room for the whole window, so it grows into it without
    // reallocating.
    let mode = mean.floor() as usize;
    let hi = mode + (12.0 * mean.sqrt()) as usize + 30;
    let (mut below, mut above) = (Vec::with_capacity(hi + 1), Vec::with_capacity(hi - mode));
    let (mut left, mut right) = (mode, mode);
    let (mut down, mut up) = (1.0f64, 1.0f64);
    let (mut down_open, mut up_open) = (left > 0, right < hi);
    while down_open || up_open {
        if down_open {
            left -= 1;
            down = down * ((left + 1) as f64) / mean;
            below.push(down);
            down_open = left > 0 && down >= 1e-280;
        }
        if up_open {
            right += 1;
            up = up * mean / (right as f64);
            above.push(up);
            up_open = right < hi && up >= 1e-280;
        }
    }
    let mut weights = below;
    weights.reverse();
    weights.push(1.0);
    weights.append(&mut above);
    // Normalize in index order, up to the point where the accumulated
    // mass reaches 1 - epsilon.
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut end = hi + 1;
    for (i, w) in weights.iter_mut().enumerate() {
        *w /= total;
        acc += *w;
        if acc >= 1.0 - epsilon {
            end = left + i + 1;
            break;
        }
    }
    weights.truncate(end - left);
    wfms_obs::histogram("markov.poisson.terms", end as u64);
    PoissonWindow { left, weights, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    fn loopy_workflow() -> Ctmc {
        // 0 -> 1 ; 1 -> 0 (0.3) or absorb (0.7); H = (2, 3, inf).
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[0.3, 0.0, 0.7], &[0.0, 0.0, 1.0]]);
        Ctmc::from_jump_chain(jump, vec![2.0, 3.0, f64::INFINITY]).unwrap()
    }

    #[test]
    fn uniformized_uses_max_rate_by_default() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        assert!((u.rate() - 0.5).abs() < 1e-12);
        assert!(u.p_bar().is_row_stochastic(1e-9));
    }

    #[test]
    fn with_rate_rejects_insufficient_rate() {
        let c = loopy_workflow();
        assert!(Uniformized::with_rate(&c, 0.4).is_err());
        assert!(Uniformized::with_rate(&c, 0.6).is_ok());
    }

    #[test]
    fn taboo_probabilities_start_as_point_mass() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let tp = u.taboo_probabilities(0, &[2], 5).unwrap();
        assert_eq!(tp[0], vec![1.0, 0.0, 0.0]);
        // Mass is non-increasing as it leaks into the taboo state.
        let mass: Vec<f64> = tp.iter().map(|d| d.iter().sum()).collect();
        for w in mass.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // Taboo entries stay zero at all steps.
        for d in &tp {
            assert_eq!(d[2], 0.0);
        }
    }

    #[test]
    fn taboo_probabilities_validate_indices() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        assert!(matches!(
            u.taboo_probabilities(9, &[2], 3),
            Err(ChainError::StateOutOfRange { state: 9, .. })
        ));
        assert!(matches!(
            u.taboo_probabilities(0, &[9], 3),
            Err(ChainError::StateOutOfRange { state: 9, .. })
        ));
    }

    #[test]
    fn steps_quantile_grows_with_quantile() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let z90 = u.steps_quantile(0, &[2], 0.90, 100_000).unwrap();
        let z99 = u.steps_quantile(0, &[2], 0.99, 100_000).unwrap();
        let z999 = u.steps_quantile(0, &[2], 0.999, 100_000).unwrap();
        assert!(z90 <= z99 && z99 <= z999);
        assert!(z90 >= 2, "needs at least two jumps to absorb, got {z90}");
    }

    #[test]
    fn steps_quantile_respects_hard_cap() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        assert_eq!(u.steps_quantile(0, &[2], 0.999999, 3).unwrap(), 3);
    }

    #[test]
    fn transient_distribution_sums_to_one() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        for t in [0.5, 2.0, 10.0, 50.0] {
            let d = u
                .transient_distribution(&[1.0, 0.0, 0.0], t, 1e-12)
                .unwrap();
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "t={t}: mass {total}");
        }
    }

    #[test]
    fn transient_distribution_at_time_zero_is_initial() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let d = u
            .transient_distribution(&[0.2, 0.8, 0.0], 0.0, 1e-10)
            .unwrap();
        assert_eq!(d, vec![0.2, 0.8, 0.0]);
    }

    #[test]
    fn absorption_cdf_is_monotone_and_approaches_one() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let mut last = 0.0;
        for t in [1.0, 5.0, 10.0, 30.0, 100.0, 400.0] {
            let f = u.absorption_cdf(0, t, 1e-12).unwrap();
            assert!(f >= last - 1e-12, "CDF must be monotone");
            last = f;
        }
        assert!(last > 0.999, "CDF at t=400: {last}");
    }

    #[test]
    fn absorption_cdf_median_brackets_the_mean() {
        // For this mildly skewed chain the mean turnaround is (2+3)/0.7 ≈ 7.14;
        // the CDF evaluated at the mean should be strictly inside (0, 1).
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let mean = c.mean_first_passage(2).unwrap()[0];
        let f = u.absorption_cdf(0, mean, 1e-12).unwrap();
        assert!(f > 0.3 && f < 0.9, "CDF at the mean: {f}");
    }

    #[test]
    fn absorption_cdf_requires_absorbing_state() {
        let q = Matrix::from_nested(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        let c = Ctmc::from_generator(&q).unwrap();
        let u = Uniformized::new(&c).unwrap();
        assert!(matches!(
            u.absorption_cdf(0, 1.0, 1e-9),
            Err(ChainError::NoAbsorbingState)
        ));
    }

    #[test]
    fn transient_exponential_sojourn_matches_closed_form() {
        // Single transient state with rate 1 into absorption:
        // P(absorbed by t) = 1 - e^{-t}.
        let jump = Matrix::from_nested(&[&[0.0, 1.0], &[0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY]).unwrap();
        let u = Uniformized::new(&c).unwrap();
        for t in [0.1, 0.5, 1.0, 2.0, 5.0] {
            let f = u.absorption_cdf(0, t, 1e-13).unwrap();
            let expect = 1.0 - (-t_f(t)).exp();
            assert!((f - expect).abs() < 1e-9, "t={t}: {f} vs {expect}");
        }
        fn t_f(t: f64) -> f64 {
            t
        }
    }

    #[test]
    fn erlang_two_stage_cdf_matches_closed_form() {
        // Two exponential stages of rate 1 in series: absorption time is
        // Erlang-2, CDF = 1 - e^{-t}(1 + t).
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, 1.0, f64::INFINITY]).unwrap();
        let u = Uniformized::new(&c).unwrap();
        for t in [0.5, 1.0, 3.0] {
            let f = u.absorption_cdf(0, t, 1e-13).unwrap();
            let expect = 1.0 - (-t).exp() * (1.0 + t);
            assert!((f - expect).abs() < 1e-9, "t={t}: {f} vs {expect}");
        }
    }

    #[test]
    fn poisson_window_basic_properties() {
        for mean in [0.0, 0.3, 1.0, 7.5, 120.0, 5000.0] {
            let w = poisson_window(mean, 1e-10);
            let total: f64 = w.weights.iter().sum();
            assert!(
                total > 1.0 - 1e-9 && total <= 1.0 + 1e-9,
                "mean={mean}: {total}"
            );
            assert!(w.weights.iter().all(|&x| x > 0.0));
            assert_eq!(w.left + w.weights.len(), w.end, "mean={mean}");
        }
    }

    #[test]
    fn poisson_window_matches_pmf_for_small_mean() {
        let mean = 2.0f64;
        let w = poisson_window(mean, 1e-12);
        assert_eq!(w.left, 0);
        for (z, &v) in w.weights.iter().take(6).enumerate() {
            let pmf = (-mean).exp() * mean.powi(z as i32) / factorial(z);
            assert!((v - pmf).abs() < 1e-10, "z={z}: {v} vs {pmf}");
        }
        fn factorial(z: usize) -> f64 {
            (1..=z).map(|x| x as f64).product::<f64>().max(1.0)
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn poisson_window_rejects_negative_mean() {
        poisson_window(-1.0, 1e-9);
    }

    /// The Poisson weights as they stood before the zero-free window:
    /// the full vector `0..end`, zeros included, normalized in full
    /// before the cut.
    fn poisson_weights(mean: f64, epsilon: f64) -> Vec<f64> {
        assert!(mean >= 0.0, "Poisson mean must be non-negative");
        assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0, 1)");
        if mean == 0.0 {
            return vec![1.0];
        }
        let mode = mean.floor() as usize;
        let hi = mode + (12.0 * mean.sqrt()) as usize + 30;
        let mut w = vec![0.0f64; hi + 1];
        w[mode] = 1.0;
        for z in (0..mode).rev() {
            w[z] = w[z + 1] * ((z + 1) as f64) / mean;
            if w[z] < 1e-280 {
                break;
            }
        }
        for z in (mode + 1)..=hi {
            w[z] = w[z - 1] * mean / (z as f64);
            if w[z] < 1e-280 {
                break;
            }
        }
        let total: f64 = w.iter().sum();
        for v in w.iter_mut() {
            *v /= total;
        }
        let mut acc = 0.0;
        let mut cut = w.len();
        for (z, &v) in w.iter().enumerate() {
            acc += v;
            if acc >= 1.0 - epsilon {
                cut = z + 1;
                break;
            }
        }
        w.truncate(cut);
        w
    }

    #[test]
    fn poisson_window_is_the_nonzero_part_of_the_full_weights_bitwise() {
        let mut means = vec![1.0, 2.0, 10.0, 10_000.0, 60_000.0];
        let mut mean = 0.01;
        while mean <= 6e4 {
            means.push(mean);
            mean *= 1.37;
        }
        // ε = 0 asks for the whole mass; rounding leaves some means short
        // of it, and then no cut happens at all.
        let mut uncut = 0;
        for mean in means {
            for epsilon in [0.3, 1e-9, 1e-10, 1e-12, 0.0] {
                let full = poisson_weights(mean, epsilon);
                let w = poisson_window(mean, epsilon);
                assert_eq!(w.end, full.len(), "mean {mean}, ε {epsilon}");
                for (z, &f) in full.iter().enumerate() {
                    let got = z
                        .checked_sub(w.left)
                        .and_then(|i| w.weights.get(i))
                        .map_or(0.0, |&v| v);
                    assert_eq!(
                        got.to_bits(),
                        f.to_bits(),
                        "mean {mean}, ε {epsilon}, z {z}"
                    );
                }
                let mass: f64 = full.iter().sum();
                if mass < 1.0 - epsilon {
                    uncut += 1;
                }
            }
        }
        assert!(uncut > 0, "no case ran past the cut");
    }

    /// The taboo step as it stood before the absorbed-mass sequence: a
    /// dense `P̄` product into a fresh vector.
    fn reference_taboo_step(u: &Uniformized, dist: &mut Vec<f64>, taboo: &[usize]) -> f64 {
        let mut next = u.p_bar().vec_mul(dist).unwrap();
        let mut dropped = 0.0;
        for &t in taboo {
            dropped += next[t];
            next[t] = 0.0;
        }
        *dist = next;
        dropped
    }

    /// `steps_quantile` as it stood before the absorbed-mass sequence.
    pub(super) fn reference_steps_quantile(
        u: &Uniformized,
        start: usize,
        taboo: &[usize],
        quantile: f64,
        hard_cap: usize,
    ) -> usize {
        let mut dist = vec![0.0; u.n()];
        dist[start] = 1.0;
        let mut absorbed = 0.0;
        for z in 0..hard_cap {
            if absorbed >= quantile {
                return z;
            }
            absorbed += reference_taboo_step(u, &mut dist, taboo);
        }
        hard_cap
    }

    #[test]
    fn taboo_probabilities_match_the_dense_reference_bitwise() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let tp = u.taboo_probabilities(0, &[2], 40).unwrap();
        let mut dist = vec![1.0, 0.0, 0.0];
        for (z, got) in tp.iter().enumerate() {
            assert_eq!(got, &dist, "z = {z}");
            reference_taboo_step(&u, &mut dist, &[2]);
        }
    }

    #[test]
    fn a_stuck_subnormal_is_flushed_without_moving_the_absorbed_mass() {
        // P̄ = [[0.9, 0.1], [0, 1]]. Unflushed, state 0's mass turns
        // subnormal near step 6,700 and then sticks at some k · 2⁻¹⁰⁷⁴
        // with k ≤ 5, which the self-loop of 0.9 rounds back onto itself.
        let jump = Matrix::from_nested(&[&[0.0, 1.0], &[0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY]).unwrap();
        let u = Uniformized::with_rate(&c, 10.0).unwrap();
        const STEPS: usize = 10_000;
        let mut seq = u.absorption_sequence(0).unwrap();
        seq.extend_to(STEPS + 1);
        let mut dist = vec![1.0, 0.0];
        let mut absorbed = 0.0f64;
        for z in 0..=STEPS {
            assert_eq!(seq.absorbed()[z].to_bits(), absorbed.to_bits(), "z = {z}");
            if z < STEPS {
                absorbed += reference_taboo_step(&u, &mut dist, &[1]);
            }
        }
        let stuck = dist[0];
        assert!(stuck > 0.0 && stuck < f64::MIN_POSITIVE, "{stuck:e}");
        reference_taboo_step(&u, &mut dist, &[1]);
        assert_eq!(dist[0], stuck, "the unflushed mass no longer decays");
        assert_eq!(seq.distribution()[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn absorbing_start_is_absorbed_at_step_zero() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        assert_eq!(u.steps_quantile(2, &[2], 0.99, 100).unwrap(), 0);
        let mut seq = u.absorption_sequence(2).unwrap();
        assert_eq!(seq.absorbed(), &[1.0]);
        assert_eq!(seq.cdf(0.0, 1e-9), 1.0);
        let oracle = u
            .transient_distribution(&[0.0, 0.0, 1.0], 3.0, 1e-9)
            .unwrap();
        assert_eq!(seq.cdf(3.0, 1e-9).to_bits(), oracle[2].to_bits());
    }

    #[test]
    fn sequence_grows_only_to_the_longest_window() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let mut seq = u.absorption_sequence(0).unwrap();
        let long = poisson_window(u.rate() * 40.0, 1e-9).end;
        seq.cdf(40.0, 1e-9);
        assert_eq!(seq.products(), long - 1);
        for t in [1.0, 5.0, 20.0, 39.0] {
            seq.cdf(t, 1e-9);
        }
        assert_eq!(seq.products(), long - 1, "shorter windows must not step");
        let a = seq.absorbed();
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "a_z is non-decreasing");
    }

    #[test]
    fn sequence_validates_its_start() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        assert!(matches!(
            u.absorption_sequence(3),
            Err(ChainError::StateOutOfRange { state: 3, n: 3 })
        ));
        assert!(matches!(
            u.steps_quantile(0, &[7], 0.5, 10),
            Err(ChainError::StateOutOfRange { state: 7, n: 3 })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::linalg::Matrix;
    use proptest::prelude::*;

    /// A random chain over `n` states whose `absorbing` states have
    /// identity rows. Every transient state jumps straight into the
    /// first absorbing state with some probability, so absorption is
    /// certain; about a third of the other jumps are structurally zero,
    /// so `P̄` is sparse like a workflow chain's.
    fn random_chain(
        n: usize,
        absorbing: Vec<usize>,
        weights: Vec<f64>,
        residence: Vec<f64>,
    ) -> Ctmc {
        let mut jump = Matrix::zeros(n, n);
        let mut h = residence;
        for i in 0..n {
            if absorbing.contains(&i) {
                jump[(i, i)] = 1.0;
                h[i] = f64::INFINITY;
                continue;
            }
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
            row[absorbing[0]] += 0.05;
            let total: f64 = row.iter().sum();
            for (j, w) in row.into_iter().enumerate() {
                jump[(i, j)] = w / total;
            }
        }
        Ctmc::from_jump_chain(jump, h).expect("valid chain")
    }

    /// A workflow-shaped chain (one absorbing state, the last), a start
    /// state and a time.
    fn workflow_case() -> impl Strategy<Value = (Ctmc, usize, f64)> {
        (2usize..=8).prop_flat_map(|n| {
            (
                collection::vec(0.0f64..1.0, n * n),
                collection::vec(0.1f64..10.0, n),
                0..n,
                0.01f64..40.0,
            )
                .prop_map(move |(w, h, start, t)| (random_chain(n, vec![n - 1], w, h), start, t))
        })
    }

    /// A chain with one or two absorbing states anywhere.
    fn general_case() -> impl Strategy<Value = (Ctmc, usize, f64)> {
        (3usize..=8).prop_flat_map(|n| {
            (
                collection::vec(0.0f64..1.0, n * n),
                collection::vec(0.1f64..10.0, n),
                (0..n, 0..n),
                0..n,
                0.01f64..40.0,
            )
                .prop_map(move |(w, h, (a, b), start, t)| {
                    let mut absorbing = vec![a];
                    if b != a {
                        absorbing.push(b);
                    }
                    (random_chain(n, absorbing, w, h), start, t)
                })
        })
    }

    fn point_mass(n: usize, start: usize) -> Vec<f64> {
        let mut initial = vec![0.0; n];
        initial[start] = 1.0;
        initial
    }

    proptest! {
        #[test]
        fn workflow_cdf_is_bit_identical_to_the_power_series((c, start, t) in workflow_case()) {
            let u = Uniformized::new(&c).unwrap();
            let n = c.n();
            let mut seq = u.absorption_sequence(start).unwrap();
            for time in [t, 0.25 * t, 3.0 * t] {
                let oracle = u.transient_distribution(&point_mass(n, start), time, 1e-9).unwrap();
                let got = seq.cdf(time, 1e-9);
                prop_assert_eq!(got.to_bits(), oracle[n - 1].to_bits());
                prop_assert_eq!(
                    u.absorption_cdf(start, time, 1e-12).unwrap().to_bits(),
                    u.transient_distribution(&point_mass(n, start), time, 1e-12).unwrap()[n - 1]
                        .to_bits()
                );
            }
        }

        #[test]
        fn general_cdf_matches_the_power_series((c, start, t) in general_case()) {
            let u = Uniformized::new(&c).unwrap();
            let oracle = u.transient_distribution(&point_mass(c.n(), start), t, 1e-10).unwrap();
            let expect: f64 = c.absorbing_states().iter().map(|&a| oracle[a]).sum();
            let got = u.absorption_cdf(start, t, 1e-10).unwrap();
            prop_assert!((got - expect).abs() <= 1e-12, "{} vs {}", got, expect);
        }

        #[test]
        fn steps_quantile_matches_the_dense_reference((c, start, _t) in general_case()) {
            let u = Uniformized::new(&c).unwrap();
            let taboo = c.absorbing_states();
            if !taboo.contains(&start) {
                for q in [0.5, 0.9, 0.99, 0.999_999] {
                    prop_assert_eq!(
                        u.steps_quantile(start, &taboo, q, 5_000).unwrap(),
                        super::tests::reference_steps_quantile(&u, start, &taboo, q, 5_000)
                    );
                }
            }
        }
    }
}
