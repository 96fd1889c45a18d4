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
//!
//! The turnaround percentile reads its CDF from a second kernel,
//! [`SquaringTable`]: the exponential of the taboo generator by scaling
//! and squaring, which reaches any `t` in `⌈log₂ v·t⌉` dense products of
//! the `n_T × n_T` taboo block instead of `v·t` sparse steps.

use crate::ctmc::Ctmc;
use crate::error::ChainError;
use crate::linalg::{CsrMatrix, Matrix};

/// `θ = v·τ`: the base factor `G_0` of a [`SquaringTable`] spans `θ`
/// uniformized steps.
const SQUARING_THETA: f64 = 1.0;

/// The most series terms `K` a [`SquaringTable`] takes; at `θ = 1` the
/// tail past it is below `1e-49`.
const SQUARING_MAX_TERMS: usize = 40;

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
    /// terms.
    ///
    /// # Errors
    /// [`ChainError::StateOutOfRange`] on a bad start,
    /// [`ChainError::NoAbsorbingState`] for a chain without absorbing
    /// states.
    pub fn absorption_sequence(&self, start: usize) -> Result<AbsorptionSequence<'_>, ChainError> {
        if self.absorbing.is_empty() {
            return Err(ChainError::NoAbsorbingState);
        }
        self.taboo_sequence(start, &self.absorbing)
    }

    /// The squaring table of `start` with the chain's absorbing states as
    /// the taboo set, its series cut so that a probe at any `t ≤ horizon`
    /// errs by at most `epsilon` (see [`SquaringTable`]). It opens one
    /// `transient-distribution` span, whose `products` field counts the
    /// table's matrix products and `probes` its CDF evaluations.
    ///
    /// # Errors
    /// [`ChainError::StateOutOfRange`] on a bad start,
    /// [`ChainError::NoAbsorbingState`] for a chain without absorbing
    /// states.
    pub fn squaring_table(
        &self,
        start: usize,
        horizon: f64,
        epsilon: f64,
    ) -> Result<SquaringTable, ChainError> {
        if self.absorbing.is_empty() {
            return Err(ChainError::NoAbsorbingState);
        }
        let n = self.n();
        if start >= n {
            return Err(ChainError::StateOutOfRange { state: start, n });
        }
        // Each state's index among the transient states, in state order;
        // `None` for an absorbing state.
        let mut compact = vec![Some(0); n];
        for &a in &self.absorbing {
            compact[a] = None;
        }
        for (i, slot) in compact.iter_mut().flatten().enumerate() {
            *slot = i;
        }
        let n_t = compact.iter().flatten().count();
        // `P̄_T` by column, and each transient state's exit rate into the
        // taboo set.
        let mut triplets = Vec::new();
        let mut exit = vec![0.0; n_t];
        for ((rows, probs), &column) in self.p_bar_t.row_slices().zip(&compact) {
            for (&r, &p) in rows.iter().zip(probs) {
                match (compact[r], column) {
                    (Some(r), Some(c)) => triplets.push((c, r, p)),
                    (Some(r), None) => exit[r] += self.rate * p,
                    (None, _) => {}
                }
            }
        }
        let columns = CsrMatrix::from_triplets(n_t, n_t, triplets)
            // audit:allow(A008, reason = "every triplet holds two transient indices, each below n_t by construction")
            .expect("compact indices are in range");
        let obs_span = wfms_obs::span!("transient-distribution", products = 0_u64, probes = 0_u64);
        Ok(SquaringTable {
            rate: self.rate,
            tau: SQUARING_THETA / self.rate,
            terms: series_terms(self.rate * horizon.max(0.0), epsilon),
            columns,
            exit,
            start: compact[start],
            levels: Vec::new(),
            x: vec![0.0; n_t],
            term: vec![0.0; n_t],
            next: vec![0.0; n_t],
            products: 0,
            probes: 0,
            obs_span,
        })
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
    /// below the window's left end are stepped, not summed.
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
    #[cfg(test)]
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
            } else {
                flush(mass)
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

    /// `P(absorbed by time t) = Σ_z PoissonPmf(v·t, z) · a_z` over the
    /// Poisson window of `v·t`, which drops at most `epsilon` of the
    /// Poisson mass, summed in `z` order. The sequence is first extended
    /// to the window's end, so its length bounds the steps any probe so
    /// far has needed. `t ≤ 0` gives `a_0`.
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

/// The absorption CDF of one start state by scaling and squaring (Moler
/// and Van Loan, "Nineteen dubious ways to compute the exponential of a
/// matrix, twenty-five years later", SIAM Review 45(1), 2003).
///
/// With `P̄_T` the taboo block of `P̄` over the `n_T` transient states,
/// `T = v·(P̄_T − I)` the taboo generator and `τ = θ/v` (`θ = 1`), the
/// table holds `G_0 = e^{−θ}·Σ_{k≤K} θ^k/k!·P̄_T^k ≈ e^{Tτ}`, summed
/// row by row with `K` sparse products, and `G_{j+1} = G_j·G_j`, built
/// lazily up to the highest level a probe needs. A probe at `t` splits
/// `t = m·τ + r`, sums `x = e_start·e^{Tr}` by the same `K`-term series
/// at `v·r < θ`, and multiplies `x` by `G_j` for every set bit `j` of
/// `m`; then `F(t) = 1 − Σ x` and `f(t) = Σ_i x_i·v·P̄[i, taboo]`. After
/// every product, entries below `f64::MIN_POSITIVE` are flushed to `+0.0`
/// as in [`AbsorptionSequence`], so no product runs on subnormals. Probes
/// reuse the table's buffers and allocate nothing.
///
/// Every term is non-negative, so `G_0` is an entrywise lower bound of
/// `e^{Tτ}` that misses at most `δ = e^{−θ}·Σ_{k>K} θ^k/k!` of each row's
/// mass. Over its at most `m + 1` factors a probe's `F` is high by at
/// most `(m + 1)·δ`; `K` is the fewest terms that keep this within `ε`
/// up to the table's horizon. Rounding adds about `v·t·n_T·u` relative
/// to the unabsorbed mass (DESIGN.md §5).
pub struct SquaringTable {
    rate: f64,
    /// `τ = θ/v`, the time `G_0` spans.
    tau: f64,
    /// The series terms `K`.
    terms: usize,
    /// `P̄_T` by column: row `c` lists column `c` of the taboo block.
    columns: CsrMatrix,
    /// `v·P̄[i, taboo]`: the exit rate of each transient state.
    exit: Vec<f64>,
    /// The start's transient index; `None` when it is taboo.
    start: Option<usize>,
    /// `levels[j] = G_j`, row-major `n_T × n_T`.
    levels: Vec<Vec<f64>>,
    /// The probe's taboo sub-distribution, and two scratch vectors.
    x: Vec<f64>,
    term: Vec<f64>,
    next: Vec<f64>,
    /// Matrix products run so far: `K` for `G_0`, one per squaring.
    products: usize,
    probes: usize,
    obs_span: wfms_obs::Span<'static>,
}

impl SquaringTable {
    /// `F(t) = P(absorbed by time t)`; see [`Self::cdf_and_density`].
    pub fn cdf(&mut self, t: f64) -> f64 {
        self.cdf_and_density(t).0
    }

    /// `F(t)` and its density `f(t)` from one probe; `t ≤ 0` reads the
    /// start. From a taboo start, `F = 1` and `f = 0`.
    pub fn cdf_and_density(&mut self, t: f64) -> (f64, f64) {
        self.probes += 1;
        let Some(start) = self.start else {
            return (1.0, 0.0);
        };
        let t = t.max(0.0);
        let whole = (t / self.tau).floor();
        let m = whole as u64;
        let rest = self.rate * (t - whole * self.tau).max(0.0);
        self.x.fill(0.0);
        self.x[start] = 1.0;
        taboo_series(
            &self.columns,
            rest,
            self.terms,
            &mut self.x,
            &mut self.term,
            &mut self.next,
        );
        let bits = (u64::BITS - m.leading_zeros()) as usize;
        self.extend_to(bits);
        for (j, level) in self.levels[..bits].iter().enumerate() {
            if m >> j & 1 == 1 {
                dense_vec_mul(&self.x, level, &mut self.next);
                std::mem::swap(&mut self.x, &mut self.next);
            }
        }
        let left: f64 = self.x.iter().sum();
        let density = self
            .x
            .iter()
            .zip(&self.exit)
            .fold(0.0, |sum, (&x, &e)| sum + x * e);
        (1.0 - left, density)
    }

    /// Builds `G_0 … G_{levels − 1}`: `G_0` row by row from its series,
    /// each further level by squaring the last.
    fn extend_to(&mut self, levels: usize) {
        let n = self.exit.len();
        while self.levels.len() < levels {
            let level = match self.levels.last() {
                Some(last) => {
                    self.products += 1;
                    dense_square(last, n)
                }
                None => {
                    self.products += self.terms;
                    let mut base = vec![0.0; n * n];
                    for (i, row) in base.chunks_exact_mut(n).enumerate() {
                        row[i] = 1.0;
                        taboo_series(
                            &self.columns,
                            SQUARING_THETA,
                            self.terms,
                            row,
                            &mut self.term,
                            &mut self.next,
                        );
                    }
                    base
                }
            };
            self.levels.push(level);
        }
    }
}

impl Drop for SquaringTable {
    fn drop(&mut self) {
        self.obs_span.record("products", self.products as u64);
        self.obs_span.record("probes", self.probes as u64);
    }
}

/// `+0.0` for a value below `f64::MIN_POSITIVE`, the value otherwise.
fn flush(x: f64) -> f64 {
    if x < f64::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

/// The fewest series terms `K` for which the table's truncation,
/// `(m + 1)·δ` with `δ = e^{−θ}·Σ_{k>K} θ^k/k!`, stays within `epsilon`
/// for every `m ≤ steps/θ`. The tail past `K` is bounded by its first
/// term over `1 − θ/(K + 2)`.
fn series_terms(steps: f64, epsilon: f64) -> usize {
    let factors = (steps / SQUARING_THETA).floor() + 1.0;
    let mut first = (-SQUARING_THETA).exp();
    for k in 1..=SQUARING_MAX_TERMS {
        first *= SQUARING_THETA / k as f64;
        let tail = first / (1.0 - SQUARING_THETA / (k + 1) as f64);
        if factors * tail <= epsilon {
            return k - 1;
        }
    }
    SQUARING_MAX_TERMS
}

/// `x ← e^{−s}·Σ_{k≤K} s^k/k!·x·P̄_T^k`, the uniformization series of
/// `x·e^{s·(P̄_T − I)}`, summed term by term in `k` order; `term` and
/// `next` are scratch.
fn taboo_series(
    columns: &CsrMatrix,
    s: f64,
    terms: usize,
    x: &mut [f64],
    term: &mut Vec<f64>,
    next: &mut Vec<f64>,
) {
    if s > 0.0 {
        term.copy_from_slice(x);
        for k in 1..=terms {
            let scale = s / k as f64;
            for (out, (rows, probs)) in next.iter_mut().zip(columns.row_slices()) {
                let mass = rows
                    .iter()
                    .zip(probs)
                    .fold(0.0, |sum, (&r, &p)| sum + term[r] * p);
                *out = flush(scale * mass);
            }
            std::mem::swap(term, next);
            for (x, &t) in x.iter_mut().zip(term.iter()) {
                *x += t;
            }
        }
    }
    let decay = (-s).exp();
    for x in x.iter_mut() {
        *x = flush(*x * decay);
    }
}

/// `out = x·G` for a row-major `n × n` matrix `G`, flushed.
fn dense_vec_mul(x: &[f64], g: &[f64], out: &mut [f64]) {
    let n = x.len();
    out.fill(0.0);
    for (&xr, row) in x.iter().zip(g.chunks_exact(n)) {
        if xr != 0.0 {
            for (o, &a) in out.iter_mut().zip(row) {
                *o += xr * a;
            }
        }
    }
    for o in out.iter_mut() {
        *o = flush(*o);
    }
}

/// `G·G` for a row-major `n × n` matrix `G`, flushed.
fn dense_square(g: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for (out_row, g_row) in out.chunks_exact_mut(n).zip(g.chunks_exact(n)) {
        dense_vec_mul(g_row, g, out_row);
    }
    out
}

/// The Poisson probabilities `PoissonPmf(mean, z)` for
/// `z ∈ [left, end)`, normalized over that window. The window drops at
/// most `ε` of the Poisson mass in total (see [`poisson_window`]).
struct PoissonWindow {
    left: usize,
    weights: Vec<f64>,
    end: usize,
}

/// The geometric bound `w·r/(1 − r)` on the mass beyond a weight `w`
/// whose successive ratios outwards stay below `r`; unbounded at
/// `r ≥ 1`.
fn geometric_tail(w: f64, r: f64) -> f64 {
    if r < 1.0 {
        w * r / (1.0 - r)
    } else {
        f64::INFINITY
    }
}

/// The Poisson window of `mean` at tail mass `epsilon`, after Fox and
/// Glynn ("Computing Poisson probabilities", CACM 31(4), 1988):
/// unnormalized weights outwards from the mode `k = ⌊mean⌋`, each side
/// until a geometric bound on the mass it still leaves out falls to
/// `ε/2` of the mass kept so far. Below the mode the weights shrink by
/// at least `r = k/mean` per step, so the mass under `w_k` is at most
/// `w_k·r/(1 − r)`; above it they shrink by at least `r = mean/(k+1)`,
/// with the same bound. The kept mass only grows, so each side drops at
/// most `ε/2` of it and both together at most `ε` of the whole. The
/// weights are then normalized over the kept mass. The recursion is
/// overflow-safe, so large means (long workflows) are fine. Records
/// `end` as `markov.poisson.terms`.
fn poisson_window(mean: f64, epsilon: f64) -> PoissonWindow {
    assert!(mean >= 0.0, "Poisson mean must be non-negative");
    assert!((0.0..1.0).contains(&epsilon), "epsilon must be in [0, 1)");
    let mode = mean.floor() as usize;
    let half = 0.5 * epsilon;
    // The two sides are independent chains of dependent divisions, so
    // they run side by side.
    let (mut below, mut above) = (Vec::new(), Vec::new());
    let (mut left, mut right) = (mode, mode);
    let (mut down, mut up) = (1.0f64, 1.0f64);
    let mut kept = 1.0f64;
    let mut down_open = left > 0 && geometric_tail(down, left as f64 / mean) > half * kept;
    let mut up_open = geometric_tail(up, mean / (right + 1) as f64) > half * kept;
    while down_open || up_open {
        if down_open {
            down = down * (left as f64) / mean;
            left -= 1;
            below.push(down);
            kept += down;
        }
        if up_open {
            right += 1;
            up = up * mean / (right as f64);
            above.push(up);
            kept += up;
        }
        down_open = down_open && left > 0 && geometric_tail(down, left as f64 / mean) > half * kept;
        up_open = up_open && geometric_tail(up, mean / (right + 1) as f64) > half * kept;
    }
    let mut weights = below;
    weights.reverse();
    weights.push(1.0);
    weights.append(&mut above);
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let end = right + 1;
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
    fn density_is_the_central_difference_of_the_cdf() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let mut table = u.squaring_table(0, 61.0, 1e-13).unwrap();
        for t in [0.5, 2.0, 7.0, 20.0, 60.0] {
            let h = 1e-4 * t;
            let slope = (table.cdf(t + h) - table.cdf(t - h)) / (2.0 * h);
            let (_, f) = table.cdf_and_density(t);
            assert!((f - slope).abs() <= 1e-6, "t={t}: {f} vs {slope}");
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

    /// The Poisson weights as the window held them before the ε-bounded
    /// cut: every weight outwards from the mode until it drops below
    /// `1e-280` or reaches the support bound `mode + 12√mean + 30`,
    /// normalized over the whole vector, zeros included.
    fn full_poisson_weights(mean: f64) -> Vec<f64> {
        assert!(mean >= 0.0, "Poisson mean must be non-negative");
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
        w
    }

    #[test]
    fn poisson_window_drops_at_most_epsilon_of_the_full_weights() {
        let mut means = vec![1.0, 2.0, 10.0, 10_000.0, 60_000.0];
        let mut mean = 0.01;
        while mean <= 6e4 {
            means.push(mean);
            mean *= 1.37;
        }
        for mean in means {
            let full = full_poisson_weights(mean);
            for epsilon in [0.3, 1e-9, 1e-10, 1e-12] {
                let w = poisson_window(mean, epsilon);
                let case = format!("mean {mean}, ε {epsilon}");
                assert_eq!(w.left + w.weights.len(), w.end, "{case}");
                assert!(w.end <= full.len(), "{case}: past the support bound");
                let sum: f64 = w.weights.iter().sum();
                assert!((sum - 1.0).abs() <= 1e-14, "{case}: weights sum to {sum}");
                let outside = full[..w.left].iter().chain(&full[w.end..]);
                let dropped: f64 = outside.sum();
                assert!(dropped <= epsilon, "{case}: dropped {dropped:e}");
                // Inside the window: the full weights, renormalized.
                let kept: f64 = full[w.left..w.end].iter().sum();
                for (z, &got) in (w.left..).zip(&w.weights) {
                    let expect = full[z] / kept;
                    assert!(
                        (got - expect).abs() <= 1e-13 * expect,
                        "{case}, z {z}: {got:e} vs {expect:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn poisson_window_is_narrower_than_the_full_support() {
        // ep's p90 sits near v·t ≈ 8,870 uniformized steps.
        let full = full_poisson_weights(8_870.0);
        let first = full.iter().position(|&w| w > 0.0).unwrap();
        let w = poisson_window(8_870.0, 1e-9);
        assert!(w.left > first && w.end < full.len());
        assert!(w.weights.len() < 1_500, "{} terms", w.weights.len());
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

    /// The hypoexponential chain of two stages with rates `a` then `b`.
    fn two_stages(a: f64, b: f64) -> Ctmc {
        let jump = Matrix::from_nested(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[0.0, 0.0, 1.0]]);
        Ctmc::from_jump_chain(jump, vec![1.0 / a, 1.0 / b, f64::INFINITY]).unwrap()
    }

    #[test]
    fn squaring_table_matches_the_exponential_and_erlang_closed_forms() {
        let one = Matrix::from_nested(&[&[0.0, 1.0], &[0.0, 1.0]]);
        let one = Ctmc::from_jump_chain(one, vec![1.0, f64::INFINITY]).unwrap();
        type Form = fn(f64) -> (f64, f64);
        let cases: [(Ctmc, Form); 2] = [
            (one, |t| (1.0 - (-t).exp(), (-t).exp())),
            (two_stages(1.0, 1.0), |t| {
                (1.0 - (-t).exp() * (1.0 + t), t * (-t).exp())
            }),
        ];
        for (chain, form) in cases {
            let u = Uniformized::new(&chain).unwrap();
            let mut table = u.squaring_table(0, 20.0, 1e-13).unwrap();
            for t in [0.0, 0.1, 0.5, 1.0, 3.0, 8.0, 20.0] {
                let (cdf, density) = table.cdf_and_density(t);
                let (expect_cdf, expect_density) = form(t);
                assert!(
                    (cdf - expect_cdf).abs() < 1e-12,
                    "t={t}: {cdf} vs {expect_cdf}"
                );
                assert!(
                    (density - expect_density).abs() < 1e-12,
                    "t={t}: {density} vs {expect_density}"
                );
                assert_eq!(table.cdf(t).to_bits(), cdf.to_bits());
            }
        }
    }

    #[test]
    fn squaring_table_reaches_a_stiff_p99_in_logarithmic_levels() {
        // Rates 1 and 1e-4 in series: S(t) = (b·e^{−at} − a·e^{−bt})/(b − a).
        let (a, b) = (1.0f64, 1e-4f64);
        let survival = |t: f64| (b * (-a * t).exp() - a * (-b * t).exp()) / (b - a);
        let density = |t: f64| a * b / (b - a) * ((-a * t).exp() - (-b * t).exp());
        let (mut lo, mut hi) = (0.0f64, 1e6f64);
        while hi - lo > 1e-9 * hi {
            let mid = 0.5 * (lo + hi);
            if survival(mid) > 0.01 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p99 = 0.5 * (lo + hi);
        let u = Uniformized::new(&two_stages(a, b)).unwrap();
        let steps = u.rate() * p99;
        assert!((4.5e4..4.7e4).contains(&steps), "v·t = {steps}");
        let mut table = u.squaring_table(0, p99, 1e-9).unwrap();
        let (cdf, f) = table.cdf_and_density(p99);
        assert!((cdf - 0.99).abs() <= 1e-11, "{cdf}");
        assert!((f - density(p99)).abs() <= 1e-9 * density(p99), "{f}");
        assert!(table.levels.len() <= steps.log2().ceil() as usize + 1);
        // Stepping reads a Poisson window past v·t.
        let mut seq = u.absorption_sequence(0).unwrap();
        assert!((seq.cdf(p99, 1e-9) - cdf).abs() <= 1e-9 + 1e-12);
        assert!(seq.products() as f64 > steps);
    }

    #[test]
    fn squaring_table_builds_levels_lazily_and_counts_its_products() {
        let c = loopy_workflow();
        let u = Uniformized::new(&c).unwrap();
        let mut table = u.squaring_table(0, 100.0, 1e-9).unwrap();
        let terms = table.terms;
        // v = 0.5, so τ = 2: a probe below τ needs no level.
        table.cdf(1.5);
        assert_eq!((table.levels.len(), table.products), (0, 0));
        // 40 = 20·τ, and 20 = 0b10100 needs G_0 … G_4.
        table.cdf(40.0);
        assert_eq!((table.levels.len(), table.products), (5, terms + 4));
        table.cdf(10.0);
        assert_eq!(table.levels.len(), 5, "shorter probes must not square");
        assert_eq!(table.probes, 3);
        // From the taboo state everything is absorbed already.
        let mut absorbed = u.squaring_table(2, 100.0, 1e-9).unwrap();
        assert_eq!(absorbed.cdf_and_density(3.0), (1.0, 0.0));
        assert!(matches!(
            u.squaring_table(3, 1.0, 1e-9),
            Err(ChainError::StateOutOfRange { state: 3, n: 3 })
        ));
        let q = Matrix::from_nested(&[&[-1.0, 1.0], &[1.0, -1.0]]);
        let cyclic = Uniformized::new(&Ctmc::from_generator(&q).unwrap()).unwrap();
        assert!(matches!(
            cyclic.squaring_table(0, 1.0, 1e-9),
            Err(ChainError::NoAbsorbingState)
        ));
    }

    #[test]
    fn squaring_table_flushes_levels_that_turn_subnormal() {
        // One rate-1 stage uniformized at v = 1024/720: G_j = e^{−2^j/v},
        // and G_10 = e^{−720} ≈ 1.6e-313 would be subnormal.
        let jump = Matrix::from_nested(&[&[0.0, 1.0], &[0.0, 1.0]]);
        let c = Ctmc::from_jump_chain(jump, vec![1.0, f64::INFINITY]).unwrap();
        let u = Uniformized::with_rate(&c, 1024.0 / 720.0).unwrap();
        let mut table = u.squaring_table(0, 720.0, 1e-9).unwrap();
        assert_eq!(table.cdf_and_density(720.0), (1.0, 0.0));
        assert_eq!(table.levels.len(), 11);
        assert!((table.levels[9][0] - (-360.0f64).exp()).abs() <= 1e-12 * (-360.0f64).exp());
        assert_eq!(table.levels[10][0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn series_terms_keep_the_truncation_within_epsilon() {
        let tail = |k: usize| {
            let mut first = (-SQUARING_THETA).exp();
            (1..=k + 1).for_each(|i| first *= SQUARING_THETA / i as f64);
            first / (1.0 - SQUARING_THETA / (k + 2) as f64)
        };
        for steps in [0.0, 1.0, 100.0, 8_870.0, 1e6, 1e12] {
            for epsilon in [1e-6, 1e-9, 1e-13] {
                let k = series_terms(steps, epsilon);
                let factors = steps.floor() + 1.0;
                assert!(factors * tail(k) <= epsilon, "steps {steps}, ε {epsilon}");
                assert!(k == 0 || factors * tail(k - 1) > epsilon, "not the fewest");
            }
        }
        assert_eq!(series_terms(1e6, 0.0), SQUARING_MAX_TERMS);
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
        fn squaring_cdf_is_within_epsilon_of_stepping((c, start, t) in workflow_case()) {
            let u = Uniformized::new(&c).unwrap();
            let mut seq = u.absorption_sequence(start).unwrap();
            let mut table = u.squaring_table(start, 3.0 * t, 1e-9).unwrap();
            for time in [t, 0.01 * t, 0.25 * t, 3.0 * t] {
                let (stepping, squaring) = (seq.cdf(time, 1e-9), table.cdf(time));
                prop_assert!(
                    (squaring - stepping).abs() <= 1e-9 + 1e-12,
                    "t = {}: {} vs {}", time, squaring, stepping
                );
            }
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
