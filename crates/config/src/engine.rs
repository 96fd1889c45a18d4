//! The assessment engine: a session-style, memoizing, parallel
//! evaluation core behind the configuration searches.
//!
//! Assessing each candidate in isolation would recompute every
//! degraded-state waiting-time vector and every availability chain from
//! scratch — yet neighbouring candidates (`Y` vs `Y + e_k`) share almost
//! their entire state space.
//! [`AssessmentEngine`] owns the search inputs ([`ServerTypeRegistry`],
//! [`SystemLoad`], [`Goals`], [`SearchOptions`]) and threads three
//! shared memo layers through all assessments:
//!
//! 1. **Degraded-state cache** — keyed by the system state vector `X`,
//!    holding the per-state waiting-time vector `w^X` and saturation
//!    flag ([`wfms_performability::StateEvaluation`]). For a fixed
//!    `(registry, load)` pair, `w^X` does not depend on the candidate
//!    `Y` containing `X`, so each state is evaluated once across the
//!    whole search.
//! 2. **Birth–death-block cache** — keyed by `(type, Y_x)`, holding the
//!    per-type rate ladders ([`wfms_avail::BirthDeathBlock`]) of the
//!    availability CTMC, so the chain for `Y + e_k` reuses the blocks of
//!    every unchanged type.
//! 3. **Availability-solution cache** — keyed by `Y`, holding the
//!    steady-state vector and availability, so re-assessing a candidate
//!    (greedy revisits, annealing walks, warm re-runs) skips the
//!    availability solve entirely.
//!
//! The engine models independent repair throughout, so the
//! availability chain is a product of per-type birth–death chains and
//! its exact stationary vector is `π(X) = Π_x m_x[X_x]`
//! ([`wfms_avail::ProductFormModel`]). The default (`ε = 0`) path
//! materializes that product in encoding order — no generator, no LU
//! factorization — and folds every state; `ε > 0` folds only the
//! heaviest states of the same product.
//!
//! Candidate evaluation over the exhaustive/B&B frontier — and the
//! per-state kernel over the independent degraded states of one
//! candidate — runs on a rayon pool sized by [`SearchOptions::jobs`].
//!
//! # Determinism contract
//!
//! Results are **bit-identical** to the `jobs = 1` path for every
//! `jobs` value. Three properties guarantee it: the cached values
//! are outputs of pure functions evaluated with exactly the same float
//! operations as the direct path; parallel maps reduce in input order;
//! and the frontier is scanned in enumeration order with fixed-size
//! batches whose surplus results (past the first goal-satisfying
//! candidate) are discarded, so `trace` and `evaluations` match the
//! serial early-exit semantics exactly.
//!
//! # Observability
//!
//! Stable names (see `wfms-obs`): counters `engine.cache-hit` /
//! `engine.cache-miss` aggregate over the three cache layers; the
//! counter `engine.delta-assess` (with its `delta-assess` span) fires
//! once per availability solve answered by patching a cached
//! neighbour's marginals instead of rebuilding them; the counter
//! `engine.screen-reject` fires once per candidate the adaptive-ε
//! screen proves infeasible; gauge `engine.parallel-candidates`
//! reports the size of the last candidate batch dispatched in
//! parallel.

// audit:allow-file(A006, reason = "the three caches are keyed lookups (get/insert only, never iterated), so hash order never reaches results; bit-identity is asserted by tests/engine.rs")
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use wfms_avail::{
    select_backend, AvailBackend, BirthDeathBlock, ProductFormModel, RepairPolicy,
    SparseAvailabilityModel, StateSpace, MINUTES_PER_YEAR,
};
use wfms_markov::linalg::GaussSeidelOptions;
use wfms_perf::{SystemLoad, WaitingOutcome};
use wfms_performability::{
    evaluate_state, fold_states, fold_states_truncated, waiting_time_caps, DegradedPolicy,
    PerformabilityError, StateEvaluation, TruncationOptions,
};
use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

use crate::annealing::AnnealingOptions;
use crate::assess::{
    run_preflight, Assessment, DegradationReport, DegradedStateRecord, DEGRADATION_DETAIL_CAP,
};
use crate::error::ConfigError;
use crate::goals::{GoalCheck, Goals};
use crate::journal;
use crate::journal::CacheProvenance;
use crate::search::{
    availability_critical_type, enumerate_bounded, enumerate_compositions, goal_lower_bounds,
    highest_utilization_type, minimum_stable_replicas, performability_critical_type,
    record_candidate, QuarantinedCandidate, SearchOptions, SearchResult,
};

/// Candidates per parallel dispatch over an exhaustive/B&B frontier.
/// Fixed (independent of `jobs`) so the set of assessed candidates —
/// and therefore every cache state — does not depend on the thread
/// count; surplus results past a winner are discarded to keep the trace
/// identical to the serial early-exit path.
const CANDIDATE_BATCH: usize = 32;

/// Per-rung shrink factor of the adaptive-ε screening ladder: when a
/// loose rung cannot prove a verdict, the next tries three decades
/// tighter, stopping an order of magnitude above the engine's own ε
/// (the bound inflation in [`AssessmentEngine::screen_waiting_at`]
/// requires every rung to stay strictly looser than the exact fold).
const SCREEN_LADDER_SHRINK: f64 = 1e-3;

/// A greedy step proven skippable by the adaptive-ε screen: the
/// candidate cannot meet the goals, and the search grows `growth` next.
/// `availability` is exact (closed-form product); `w_max` is the loose
/// fold's estimate, carried into the journal for explainability only.
struct ScreenedStep {
    growth: ServerTypeId,
    availability: f64,
    w_max: Option<f64>,
    cache: CacheProvenance,
}

/// Verdict of the waiting-goal side of the screen at one or more
/// ladder rungs. Only `ProvenViolation` / `ProvenMet` are sound
/// statements about the exact (engine-ε) fold; everything else falls
/// through to the exact assessment.
enum WaitingScreen {
    /// Some threshold type provably violates its waiting goal; `growth`
    /// carries the exact path's growth argmax when it, too, is proven.
    ProvenViolation {
        growth: Option<ServerTypeId>,
        w_max: f64,
    },
    /// Every threshold type provably meets its waiting goal.
    ProvenMet { w_max: f64 },
    /// The bounds straddle a threshold: no sound verdict at this rung.
    Unproven,
    /// The loose fold failed (fault, saturation, serving-free prefix):
    /// terminally inconclusive — tightening cannot help.
    Abstain,
}

/// Locks a cache mutex, recovering from poisoning: the caches hold
/// memoized values of pure functions, so a panicked worker can at most
/// have skipped an insert — the map itself is never left mid-update.
fn lock_cache<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A tick-stamped LRU map for the state and solution caches: `get`
/// refreshes recency, and `insert` at capacity evicts the
/// least-recently-used entry (capacity `0` disables caching entirely,
/// preserving the historical contract). A `BTreeMap` recency index
/// keyed by a monotonic tick makes eviction `O(log n)`, so long
/// searches never pin a cold working set the way the old
/// fill-until-full policy did.
///
/// Eviction only changes *which* pure-function results stay resident —
/// never their values — so assessments remain bit-identical at any
/// capacity; under capacity pressure the hit/miss cache provenance in
/// the decision journal can legitimately differ from an unbounded run.
#[derive(Debug)]
struct LruCache<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    recency: BTreeMap<u64, K>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    fn with_capacity(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn get<Q>(&mut self, key: &Q) -> Option<Arc<V>>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        let previous = std::mem::replace(&mut entry.1, tick);
        let value = entry.0.clone();
        // Every resident entry has exactly one recency stamp; move it.
        if let Some(k) = self.recency.remove(&previous) {
            self.recency.insert(tick, k);
        }
        Some(value)
    }

    fn insert(&mut self, key: K, value: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(previous) = self.map.get(&key).map(|(_, t)| *t) {
            self.recency.remove(&previous);
        } else if self.map.len() >= self.capacity {
            if let Some((_, victim)) = self.recency.pop_first() {
                self.map.remove(&victim);
            }
        }
        self.recency.insert(tick, key.clone());
        self.map.insert(key, (value, tick));
    }
}

/// Per-assessment cache-provenance tally, threaded down the cache
/// layers by [`AssessmentEngine::assess_with_provenance`]. All counting
/// happens on the thread running that one assessment (parallel batch
/// workers each carry their own tally), so plain `Cell`s suffice.
#[derive(Default)]
struct CacheCounters {
    state_hits: std::cell::Cell<u64>,
    state_misses: std::cell::Cell<u64>,
    block_hits: std::cell::Cell<u64>,
    block_misses: std::cell::Cell<u64>,
    solution_hit: std::cell::Cell<Option<bool>>,
}

impl CacheCounters {
    fn provenance(&self) -> CacheProvenance {
        CacheProvenance {
            state_hits: self.state_hits.get(),
            state_misses: self.state_misses.get(),
            block_hits: self.block_hits.get(),
            block_misses: self.block_misses.get(),
            solution: match self.solution_hit.get() {
                Some(true) => "hit".to_string(),
                Some(false) => "miss".to_string(),
                None => "unknown".to_string(),
            },
        }
    }
}

/// Poisons the first stable outcome of an evaluation with NaN — the
/// engine-level effect of a `nan` fault injection on a cache-fill site.
fn poison_first_stable(evaluation: &mut StateEvaluation) {
    for o in evaluation.outcomes.iter_mut() {
        if let WaitingOutcome::Stable { waiting_time, .. } = o {
            *waiting_time = f64::NAN;
            break;
        }
    }
}

/// The exact availability solve of an independent-repair chain from its
/// product form: `π(X) = Π_x m_x[X_x]` materialized in encoding order
/// (no generator, no factorization), and the availability summed over
/// the operational states in that order, as the dense model sums it.
/// Answers the `ε = 0` default and the sparse solver's escalation;
/// `fallbacks` is the escalation count the solution is born with.
fn exact_solution(
    config: &Configuration,
    blocks: &[Arc<BirthDeathBlock>],
    fallbacks: u32,
) -> Result<AvailabilitySolution, ConfigError> {
    let model = ProductFormModel::from_blocks(config, blocks)?;
    let pi = model.steady_state()?;
    let availability = model.state_space().operational_mass(&pi)?;
    Ok(AvailabilitySolution::Explicit {
        pi,
        availability,
        fallbacks,
    })
}

/// A cached availability solve for one candidate `Y`, shaped by the
/// backend that produced it.
#[derive(Debug)]
enum AvailabilitySolution {
    /// The exact product form or sparse Gauss–Seidel: the materialized
    /// stationary vector in encoding order. `fallbacks` counts solver
    /// escalations taken to produce the vector (sparse Gauss–Seidel →
    /// the exact product form), so warm cache hits still report the
    /// degradation they were born with.
    Explicit {
        pi: Vec<f64>,
        availability: f64,
        fallbacks: u32,
    },
    /// Product form: per-type marginals only — `π` is never
    /// materialized (that is the `O(Σ Y_x)` point of the backend);
    /// states are enumerated lazily in descending `π` order instead.
    Product(ProductFormModel),
}

/// Key of the availability-solution cache: the candidate `Y` plus the
/// backend that solved it, so e.g. the exhaustive `ε = 0` solve can
/// coexist with the lazily enumerated product form for the same
/// candidate.
type SolutionKey = (Vec<usize>, AvailBackend);

impl AvailabilitySolution {
    fn availability(&self) -> f64 {
        match self {
            AvailabilitySolution::Explicit { availability, .. } => *availability,
            AvailabilitySolution::Product(model) => model.availability(),
        }
    }
}

/// Entry counts and hit/miss totals of the engine's cache layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Degraded-state entries (`X → w^X`).
    pub state_entries: usize,
    /// Availability-solution entries (`Y → π`).
    pub solution_entries: usize,
    /// Birth–death-block entries (`(type, Y_x)` ladders).
    pub block_entries: usize,
    /// Total lookups answered from a cache, over all layers.
    pub hits: u64,
    /// Total lookups that had to compute, over all layers.
    pub misses: u64,
}

/// The memoizing, parallel evaluation core. See the module docs for the
/// cache layers and the determinism contract.
///
/// An engine is cheap to construct (the caches start empty) and is
/// `Sync`: one engine can serve concurrent assessments. All search
/// methods share the caches, so e.g. a greedy probe followed by an
/// exhaustive validation pays the model solves only once.
#[derive(Debug)]
pub struct AssessmentEngine {
    registry: ServerTypeRegistry,
    load: SystemLoad,
    goals: Goals,
    options: SearchOptions,
    pool: rayon::ThreadPool,
    states: Mutex<LruCache<Vec<usize>, StateEvaluation>>,
    solutions: Mutex<LruCache<SolutionKey, AvailabilitySolution>>,
    blocks: Mutex<HashMap<(usize, usize), Arc<BirthDeathBlock>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

// The serving layer (`wfms-serve`) keeps one warm engine per tenant and
// shares it across worker threads, so `Send + Sync` is a load-bearing
// contract, not an accident of today's field types. Assert it at
// compile time: swapping a cache for an `Rc` or a `RefCell` must fail
// here, not in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AssessmentEngine>();
};

impl AssessmentEngine {
    /// Creates an engine owning copies of the inputs: validates the
    /// goals, runs the static preflight over `(registry, load)`, and
    /// sizes the worker pool from [`SearchOptions::jobs`] (`0` =
    /// automatic: `RAYON_NUM_THREADS`, else available cores).
    ///
    /// # Errors
    /// * [`ConfigError::NoGoals`] / [`ConfigError::InvalidGoal`] on bad
    ///   goals.
    /// * [`ConfigError::InvalidOption`] on a truncation `ε` outside
    ///   `[0, 1)`, a non-positive solver tolerance, or a zero solver
    ///   iteration cap.
    /// * [`ConfigError::Preflight`] when static analysis finds errors.
    pub fn new(
        registry: &ServerTypeRegistry,
        load: &SystemLoad,
        goals: &Goals,
        options: SearchOptions,
    ) -> Result<Self, ConfigError> {
        goals.validate()?;
        if !(options.epsilon.is_finite() && (0.0..1.0).contains(&options.epsilon)) {
            return Err(ConfigError::InvalidOption {
                what: "truncation epsilon",
                value: options.epsilon,
            });
        }
        if !(options.screen_epsilon.is_finite() && (0.0..1.0).contains(&options.screen_epsilon)) {
            return Err(ConfigError::InvalidOption {
                what: "screening epsilon",
                value: options.screen_epsilon,
            });
        }
        if !(options.solver_tolerance.is_finite() && options.solver_tolerance > 0.0) {
            return Err(ConfigError::InvalidOption {
                what: "solver tolerance",
                value: options.solver_tolerance,
            });
        }
        if options.solver_max_iterations == 0 {
            return Err(ConfigError::InvalidOption {
                what: "solver max-iterations",
                value: 0.0,
            });
        }
        run_preflight(registry, load, None)?;
        // Infallible with the vendored rayon stand-in: `build()` only
        // fails on resource exhaustion spawning OS threads, at which
        // point the process is unrecoverable anyway.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(options.jobs)
            .build()
            // audit:allow(A008, reason = "see above: pool construction only fails on OS-thread exhaustion, which is unrecoverable")
            .expect("thread pool");
        Ok(AssessmentEngine {
            registry: registry.clone(),
            load: load.clone(),
            goals: goals.clone(),
            options,
            pool,
            states: Mutex::new(LruCache::with_capacity(options.state_cache_capacity)),
            solutions: Mutex::new(LruCache::with_capacity(options.solution_cache_capacity)),
            blocks: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &SearchOptions {
        &self.options
    }

    /// The goals assessments are checked against.
    pub fn goals(&self) -> &Goals {
        &self.goals
    }

    /// The registry the engine assesses against.
    pub fn registry(&self) -> &ServerTypeRegistry {
        &self.registry
    }

    /// Effective worker count of the engine's pool.
    pub fn jobs(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Current cache entry counts and lifetime hit/miss totals.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            state_entries: lock_cache(&self.states).len(),
            solution_entries: lock_cache(&self.solutions).len(),
            block_entries: lock_cache(&self.blocks).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn record_hits(&self, n: u64) {
        if n > 0 {
            self.hits.fetch_add(n, Ordering::Relaxed);
            wfms_obs::counter("engine.cache-hit", n);
        }
    }

    fn record_misses(&self, n: u64) {
        if n > 0 {
            self.misses.fetch_add(n, Ordering::Relaxed);
            wfms_obs::counter("engine.cache-miss", n);
        }
    }

    // -- cache layers -----------------------------------------------------

    /// The birth–death rate ladders for `replicas` servers of type `j`,
    /// from the block cache.
    fn block(
        &self,
        j: usize,
        replicas: usize,
        counters: &CacheCounters,
    ) -> Result<Arc<BirthDeathBlock>, ConfigError> {
        if let Some(hit) = lock_cache(&self.blocks).get(&(j, replicas)) {
            self.record_hits(1);
            counters.block_hits.set(counters.block_hits.get() + 1);
            return Ok(hit.clone());
        }
        self.record_misses(1);
        counters.block_misses.set(counters.block_misses.get() + 1);
        let st = self.registry.get(ServerTypeId(j))?;
        let block = Arc::new(BirthDeathBlock::for_type(
            st,
            replicas,
            RepairPolicy::Independent,
        ));
        self.blocks
            .lock()
            // audit:allow(A008, reason = "a poisoned cache mutex means another worker already panicked; propagating is the only sound option")
            .expect("block cache")
            .insert((j, replicas), block.clone());
        Ok(block)
    }

    /// Resolves the engine's configured backend for one candidate: a
    /// pure function of the options and the candidate's state-space
    /// size, so the same candidate always lands on the same cache key.
    /// The engine's chains use independent repair throughout (see
    /// [`AssessmentEngine::block`]).
    fn resolved_backend(&self, config: &Configuration) -> AvailBackend {
        select_backend(
            self.options.avail_backend,
            RepairPolicy::Independent,
            StateSpace::new(config).len(),
            self.options.epsilon,
        )
    }

    /// The availability solve for `config` under the resolved `backend`,
    /// from the solution cache. On a miss, assembles the chosen model
    /// from cached per-type blocks: dense (the `ε = 0` default) takes the
    /// exact path of [`exact_solution`]; sparse runs tight Gauss–Seidel
    /// sweeps; product computes the closed-form marginals only. The cache
    /// key carries the backend, so solutions produced by different
    /// backends never alias.
    fn availability_solution(
        &self,
        config: &Configuration,
        backend: AvailBackend,
        counters: &CacheCounters,
    ) -> Result<Arc<AvailabilitySolution>, ConfigError> {
        debug_assert_ne!(backend, AvailBackend::Auto, "resolve before solving");
        let key = (config.as_slice().to_vec(), backend);
        if let Some(hit) = lock_cache(&self.solutions).get(&key) {
            self.record_hits(1);
            counters.solution_hit.set(Some(true));
            return Ok(hit.clone());
        }
        self.record_misses(1);
        counters.solution_hit.set(Some(false));
        // Failpoint `engine.solution-cache-fill`: error injection fails
        // the availability solve for this candidate (non-strict searches
        // quarantine it); NaN injection poisons the solved availability,
        // which the non-finite guard in `assess` then rejects.
        let mut poison_availability = false;
        match wfms_fault::point!("engine.solution-cache-fill") {
            Some(wfms_fault::Injection::Error) => {
                return Err(ConfigError::Avail(wfms_avail::AvailError::Chain(
                    wfms_markov::error::ChainError::Iterative(
                        wfms_markov::linalg::IterativeError::NotConverged {
                            iterations: 0,
                            last_residual: f64::INFINITY,
                        },
                    ),
                )));
            }
            Some(wfms_fault::Injection::Nan) => poison_availability = true,
            None => {}
        }
        let mut blocks = Vec::with_capacity(config.k());
        for (j, &y) in config.as_slice().iter().enumerate() {
            blocks.push(self.block(j, y, counters)?);
        }
        let solution = match backend {
            AvailBackend::Auto | AvailBackend::Dense => exact_solution(config, &blocks, 0)?,
            AvailBackend::Sparse => {
                let model = SparseAvailabilityModel::from_blocks(
                    config,
                    &blocks,
                    RepairPolicy::Independent,
                )?;
                let solved = model
                    .steady_state(GaussSeidelOptions {
                        tolerance: self.options.solver_tolerance,
                        max_iterations: self.options.solver_max_iterations,
                        relaxation: 1.0,
                    })
                    .map_err(ConfigError::from)
                    .and_then(|pi| {
                        let availability = model.availability(&pi)?;
                        Ok((pi, availability))
                    });
                let finite = |sol: &(Vec<f64>, f64)| {
                    sol.1.is_finite() && sol.0.iter().all(|p| p.is_finite())
                };
                match solved {
                    Ok(sol) if finite(&sol) => AvailabilitySolution::Explicit {
                        pi: sol.0,
                        availability: sol.1,
                        fallbacks: 0,
                    },
                    other => {
                        if self.options.strict {
                            return match other {
                                Err(e) => Err(e),
                                Ok(_) => Err(ConfigError::NonFiniteAssessment {
                                    replicas: config.as_slice().to_vec(),
                                    what: "sparse stationary vector",
                                }),
                            };
                        }
                        // Graceful degradation: escalate the failed (or
                        // non-finite) Gauss–Seidel solve to the exact
                        // product form of the same chain.
                        wfms_obs::counter("solver.fallback", 1);
                        let mut span = wfms_obs::span!("solver-fallback");
                        span.record("from", "sparse-gauss-seidel");
                        exact_solution(config, &blocks, 1)?
                    }
                }
            }
            AvailBackend::Product => {
                AvailabilitySolution::Product(self.product_model(config, &blocks)?)
            }
        };
        let mut solution = solution;
        if poison_availability {
            if let AvailabilitySolution::Explicit { availability, .. } = &mut solution {
                *availability = f64::NAN;
            }
        }
        let solution = Arc::new(solution);
        lock_cache(&self.solutions).insert(key, solution.clone());
        Ok(solution)
    }

    /// The product-form model for `config`: a one-coordinate *delta*
    /// patch of a cached neighbour when possible
    /// ([`SearchOptions::incremental`], the default), a full
    /// [`ProductFormModel::from_blocks`] build otherwise. The patch
    /// clones the neighbour's marginals and replaces only the moved
    /// type's with the fresh tabulation from its (already cached)
    /// birth–death block — bit-identical to the from-scratch build,
    /// because every marginal is a pure function of
    /// `(type, replicas, policy)` and both constructors store the same
    /// vectors (see [`ProductFormModel::from_marginals`]).
    fn product_model(
        &self,
        config: &Configuration,
        blocks: &[Arc<BirthDeathBlock>],
    ) -> Result<ProductFormModel, ConfigError> {
        if self.options.incremental {
            if let Some((moved, mut marginals)) = self.neighbour_marginals(config) {
                wfms_obs::counter("engine.delta-assess", 1);
                let mut span = wfms_obs::span!("delta-assess");
                span.record("candidate", format!("{config}"));
                span.record("moved-type", moved as u64);
                marginals[moved] = blocks[moved].marginal_distribution();
                return Ok(ProductFormModel::from_marginals(config, marginals)?);
            }
        }
        Ok(ProductFormModel::from_blocks(config, blocks)?)
    }

    /// Probes the solution cache for a one-coordinate product-form
    /// neighbour `Y ∓ e_x` of `config`, returning the moved coordinate
    /// and a clone of the neighbour's marginals. Any cached neighbour
    /// yields the same patched floats, so the probe order is
    /// immaterial; probes are not counted as cache traffic, keeping the
    /// journal's hit/miss provenance identical to a non-incremental
    /// run (they do refresh LRU recency, which under capacity pressure
    /// may legitimately change *which* entries stay resident).
    fn neighbour_marginals(&self, config: &Configuration) -> Option<(usize, Vec<Vec<f64>>)> {
        let slice = config.as_slice();
        let mut cache = lock_cache(&self.solutions);
        let mut key = (slice.to_vec(), AvailBackend::Product);
        for (x, &incumbent_y) in slice.iter().enumerate() {
            for delta in [-1isize, 1] {
                let y = incumbent_y as isize + delta;
                if y < 1 {
                    continue;
                }
                key.0[x] = y as usize;
                let hit = cache.get(&key);
                key.0[x] = incumbent_y;
                if let Some(hit) = hit {
                    if let AvailabilitySolution::Product(model) = &*hit {
                        return Some((x, model.marginals().to_vec()));
                    }
                }
            }
        }
        None
    }

    /// Ensures every state of `space` has a cached [`StateEvaluation`],
    /// computing the missing ones on the worker pool (they are
    /// independent). Misses are collected — and, on error, reported — in
    /// encoding order, so error precedence matches the serial path.
    ///
    /// Under [`SearchOptions::strict`] the first failed evaluation (in
    /// encoding order) aborts the fill; otherwise failed states are
    /// simply left uncached and the assessment's fold charges them with
    /// their pessimistic caps.
    fn populate_state_cache(
        &self,
        space: &StateSpace,
        counters: &CacheCounters,
    ) -> Result<(), PerformabilityError> {
        let missing: Vec<Vec<usize>> = {
            let cache = lock_cache(&self.states);
            space
                .iter()
                .map(|(_, x)| x)
                .filter(|x| !cache.contains_key(x))
                .collect()
        };
        self.record_hits((space.len() - missing.len()) as u64);
        self.record_misses(missing.len() as u64);
        counters
            .state_hits
            .set(counters.state_hits.get() + (space.len() - missing.len()) as u64);
        counters
            .state_misses
            .set(counters.state_misses.get() + missing.len() as u64);
        if missing.is_empty() {
            return Ok(());
        }
        // Failpoint `engine.state-cache-fill`: error injection abandons
        // the batched fill (strict mode fails the assessment; otherwise
        // states are computed inline, uncached); NaN injection poisons
        // the first filled evaluation.
        let mut poison_first = false;
        match wfms_fault::point!("engine.state-cache-fill") {
            Some(wfms_fault::Injection::Error) => {
                if self.options.strict {
                    return Err(PerformabilityError::FaultInjected {
                        site: "engine.state-cache-fill",
                    });
                }
                return Ok(());
            }
            Some(wfms_fault::Injection::Nan) => poison_first = true,
            None => {}
        }
        let evaluations: Vec<Result<StateEvaluation, PerformabilityError>> =
            if self.jobs() > 1 && missing.len() > 1 {
                self.pool.install(|| {
                    missing
                        .par_iter()
                        .map(|x| evaluate_state(&self.load, &self.registry, x))
                        .collect()
                })
            } else {
                missing
                    .iter()
                    .map(|x| evaluate_state(&self.load, &self.registry, x))
                    .collect()
            };
        let mut cache = lock_cache(&self.states);
        for (x, evaluation) in missing.into_iter().zip(evaluations) {
            let mut evaluation = match evaluation {
                Ok(evaluation) => evaluation,
                Err(e) if self.options.strict => return Err(e),
                // Non-strict: leave the state uncached; the fold's
                // degradation wrapper charges it when it is revisited.
                Err(_) => continue,
            };
            if poison_first {
                poison_first_stable(&mut evaluation);
                poison_first = false;
            }
            cache.insert(x, Arc::new(evaluation));
        }
        Ok(())
    }

    /// One state's evaluation: from the cache, or computed inline when
    /// the cache is at capacity.
    fn state_evaluation(
        &self,
        state: &[usize],
    ) -> Result<Arc<StateEvaluation>, PerformabilityError> {
        if let Some(hit) = lock_cache(&self.states).get(state) {
            return Ok(hit.clone());
        }
        evaluate_state(&self.load, &self.registry, state).map(Arc::new)
    }

    /// As [`AssessmentEngine::state_evaluation`], but inserting misses
    /// into the cache (capacity permitting) and counting hits/misses —
    /// the kernel of the ε-truncated path, which deliberately does *not*
    /// pre-populate the whole state space ([`populate_state_cache`]
    /// would defeat the pruning) yet still shares every evaluated state
    /// with all other candidates.
    ///
    /// [`populate_state_cache`]: AssessmentEngine::populate_state_cache
    fn state_evaluation_memo(
        &self,
        state: &[usize],
        counters: &CacheCounters,
    ) -> Result<Arc<StateEvaluation>, PerformabilityError> {
        if let Some(hit) = lock_cache(&self.states).get(state) {
            self.record_hits(1);
            counters.state_hits.set(counters.state_hits.get() + 1);
            return Ok(hit.clone());
        }
        self.record_misses(1);
        counters.state_misses.set(counters.state_misses.get() + 1);
        // Failpoint `engine.state-cache-fill`: shared with the batched
        // fill of `populate_state_cache`.
        let evaluation = match wfms_fault::point!("engine.state-cache-fill") {
            Some(wfms_fault::Injection::Error) => {
                return Err(PerformabilityError::FaultInjected {
                    site: "engine.state-cache-fill",
                });
            }
            Some(wfms_fault::Injection::Nan) => {
                let mut evaluation = evaluate_state(&self.load, &self.registry, state)?;
                poison_first_stable(&mut evaluation);
                evaluation
            }
            None => evaluate_state(&self.load, &self.registry, state)?,
        };
        let evaluation = Arc::new(evaluation);
        lock_cache(&self.states).insert(state.to_vec(), evaluation.clone());
        Ok(evaluation)
    }

    // -- assessment -------------------------------------------------------

    /// Evaluates `config` against the engine's goals, through the
    /// caches: availability from the Sec. 5 model, waiting times from the
    /// Sec. 6 performability model. Cold and warm engines return
    /// field-for-field identical assessments (see the module docs).
    ///
    /// A configuration whose full-strength state cannot serve the load is
    /// not an error — it simply fails the waiting-time goal
    /// (`expected_waiting = None`; see [`Assessment::expected_waiting`]
    /// for the exact semantics).
    ///
    /// # Errors
    /// Model failures as [`ConfigError`], including
    /// [`ConfigError::Preflight`] when static analysis rejects `config`;
    /// goal violations are reported in-band.
    ///
    /// When the decision journal is enabled, every direct call is
    /// journaled as a single-shot `assess` decision; the searches journal
    /// at their own consumption points instead.
    pub fn assess(&self, config: &Configuration) -> Result<Assessment, ConfigError> {
        let (assessment, provenance) = self.assess_with_provenance(config)?;
        journal::record_assessed("assess", &assessment, &self.goals, provenance, None);
        Ok(assessment)
    }

    /// Assesses the one-coordinate move `Y → Y + e_x` from `incumbent`
    /// — the engine's *delta* entry point. Under the product backend
    /// with [`SearchOptions::incremental`] the incumbent's solution is
    /// warmed first, so the grown candidate's availability solve
    /// reduces to recomputing type `x`'s birth–death marginal and
    /// patching it into the incumbent's (all other marginals and every
    /// cached [`StateEvaluation`] are reused). The result is
    /// field-for-field identical to [`assess`](Self::assess) of the
    /// grown configuration — the delta path changes the work, never
    /// the floats.
    ///
    /// # Errors
    /// As [`assess`](Self::assess) of the grown configuration; an
    /// incumbent whose availability cannot be solved is not itself an
    /// error (the grown candidate is then assessed from scratch).
    pub fn assess_delta(
        &self,
        incumbent: &Configuration,
        move_type: ServerTypeId,
    ) -> Result<Assessment, ConfigError> {
        if self.options.incremental && self.resolved_backend(incumbent) == AvailBackend::Product {
            let scratch = CacheCounters::default();
            let _ = self.availability_solution(incumbent, AvailBackend::Product, &scratch);
        }
        let grown = incumbent.with_added_replica(move_type)?;
        let (assessment, provenance) = self.assess_with_provenance(&grown)?;
        journal::record_assessed("assess", &assessment, &self.goals, provenance, None);
        Ok(assessment)
    }

    /// As [`assess`](Self::assess), additionally reporting where each
    /// cache layer's answers came from — and emitting no journal event,
    /// so searches can journal the decision (not the computation).
    pub(crate) fn assess_with_provenance(
        &self,
        config: &Configuration,
    ) -> Result<(Assessment, CacheProvenance), ConfigError> {
        let counters = CacheCounters::default();
        run_preflight(&self.registry, &self.load, Some(config.as_slice()))?;
        let mut obs_span = wfms_obs::span!("assess");
        obs_span.record("candidate", format!("{config}"));
        let backend = self.resolved_backend(config);
        let solution = self.availability_solution(config, backend, &counters)?;
        let availability = solution.availability();
        let downtime_minutes_per_year = (1.0 - availability) * MINUTES_PER_YEAR;
        let solver_fallbacks = match &*solution {
            AvailabilitySolution::Explicit { fallbacks, .. } => *fallbacks,
            AvailabilitySolution::Product(_) => 0,
        };

        // Graceful-degradation plumbing. The folds call the evaluation
        // closure immediately after pulling each `(state, π)` pair, so
        // `current_probability` always holds the mass of the state under
        // evaluation; a failed state is charged at its pessimistic
        // waiting-time cap and recorded instead of failing the whole
        // assessment (unless `strict`). Clean runs never touch the caps
        // cell, keeping them bit-identical to the pre-supervision path.
        let strict = self.options.strict;
        let current_probability = std::cell::Cell::new(0.0_f64);
        let degraded: std::cell::RefCell<Vec<DegradedStateRecord>> =
            std::cell::RefCell::new(Vec::new());
        let caps_cell: std::cell::RefCell<Option<Vec<f64>>> = std::cell::RefCell::new(None);
        let pessimistic = |state: &[usize],
                           error: PerformabilityError|
         -> Result<Arc<StateEvaluation>, PerformabilityError> {
            let mut caps_ref = caps_cell.borrow_mut();
            if caps_ref.is_none() {
                // A caps failure is irrecoverable: there is no sound
                // bound left to charge, so the error propagates and the
                // candidate is quarantined by the search.
                *caps_ref = Some(waiting_time_caps(
                    &self.load,
                    &self.registry,
                    config.as_slice(),
                )?);
            }
            // audit:allow(A008, reason = "caps_ref is unconditionally filled by the branch directly above")
            let caps = caps_ref.as_ref().expect("caps filled above");
            let down = state.contains(&0);
            let outcomes = if down {
                vec![WaitingOutcome::Down; self.registry.len()]
            } else {
                caps.iter()
                    .map(|&cap| WaitingOutcome::Stable {
                        waiting_time: cap,
                        utilization: 1.0,
                    })
                    .collect()
            };
            degraded.borrow_mut().push(DegradedStateRecord {
                state: state.to_vec(),
                probability: current_probability.get(),
                error: error.to_string(),
            });
            Ok(Arc::new(StateEvaluation {
                outcomes,
                down,
                saturated: false,
            }))
        };

        let perf = match &*solution {
            AvailabilitySolution::Explicit { pi, .. } => {
                // Exhaustive fold over the encoding order, the order the
                // dense model's `distribution` walks.
                let space = StateSpace::new(config);
                self.populate_state_cache(&space, &counters).and_then(|()| {
                    fold_states(
                        space.iter().map(|(idx, x)| {
                            current_probability.set(pi[idx]);
                            (x, pi[idx])
                        }),
                        self.registry.len(),
                        config.as_slice(),
                        DegradedPolicy::Conditional,
                        |state| match self.state_evaluation(state) {
                            Ok(evaluation) => Ok(evaluation),
                            Err(e) if !strict => pessimistic(state, e),
                            Err(e) => Err(e),
                        },
                    )
                })
            }
            AvailabilitySolution::Product(model) => {
                // ε-truncated fold over the descending-π enumeration;
                // only the visited states are ever evaluated (lazily,
                // through the shared memo).
                waiting_time_caps(&self.load, &self.registry, config.as_slice()).and_then(|caps| {
                    fold_states_truncated(
                        model.enumerate_descending().map(|(x, p)| {
                            current_probability.set(p);
                            (x, p)
                        }),
                        self.registry.len(),
                        config.as_slice(),
                        DegradedPolicy::Conditional,
                        &TruncationOptions {
                            epsilon: self.options.epsilon,
                            total_states: model.state_space().len(),
                            waiting_caps: &caps,
                        },
                        |state| match self.state_evaluation_memo(state, &counters) {
                            Ok(evaluation) => Ok(evaluation),
                            Err(e) if !strict => pessimistic(state, e),
                            Err(e) => Err(e),
                        },
                    )
                })
            }
        };
        let perf = match perf {
            Ok(report) => Some(report),
            Err(PerformabilityError::NoServingStates) => None,
            Err(e) => return Err(e.into()),
        };
        let (expected_waiting, max_expected_waiting, probability_saturated) = match &perf {
            Some(r) => (
                Some(r.expected_waiting.clone()),
                Some(r.max_expected_waiting()),
                r.probability_saturated,
            ),
            None => (None, None, 1.0),
        };
        let truncation = perf.as_ref().and_then(|r| r.truncation.clone());

        let goals = &self.goals;
        let any_waiting_goal =
            goals.max_waiting_time.is_some() || !goals.per_type_waiting.is_empty();
        let waiting_time_met = if !any_waiting_goal {
            true
        } else {
            match &expected_waiting {
                None => false, // saturated/unreachable: no finite waiting exists
                Some(waits) => waits.iter().enumerate().all(|(x, &w)| {
                    goals
                        .waiting_threshold_for(x)
                        .is_none_or(|threshold| w <= threshold)
                }),
            }
        };
        let availability_met = match goals.min_availability {
            None => true,
            Some(min) => availability >= min,
        };

        obs_span.record("availability", availability);
        if let Some(w) = max_expected_waiting {
            obs_span.record("w_max", w);
        }
        wfms_obs::counter("config.assessments", 1);

        // Non-finite guard: a NaN/∞ metric that survived every fallback
        // means the candidate's numbers cannot be trusted. Searches
        // quarantine it (the error is candidate-local).
        if !availability.is_finite() {
            return Err(ConfigError::NonFiniteAssessment {
                replicas: config.as_slice().to_vec(),
                what: "availability",
            });
        }
        if let Some(waits) = &expected_waiting {
            if waits.iter().any(|w| !w.is_finite()) {
                return Err(ConfigError::NonFiniteAssessment {
                    replicas: config.as_slice().to_vec(),
                    what: "expected waiting time",
                });
            }
        }

        let failed = degraded.take();
        let degradation = if failed.is_empty() && solver_fallbacks == 0 {
            None
        } else {
            let failed_states = failed.len();
            // fold, not sum: the empty f64 sum is -0.0, which would
            // render as "-0.000e0" in fallback-only reports.
            let charged_mass = failed.iter().map(|r| r.probability).fold(0.0, |a, p| a + p);
            let mut details = failed;
            details.truncate(DEGRADATION_DETAIL_CAP);
            obs_span.record("degraded-states", failed_states as u64);
            wfms_obs::counter("config.degraded-assessments", 1);
            Some(DegradationReport {
                failed_states,
                charged_mass,
                solver_fallbacks,
                details,
            })
        };

        Ok((
            Assessment {
                replicas: config.as_slice().to_vec(),
                cost: config.total_servers(),
                availability,
                downtime_minutes_per_year,
                expected_waiting,
                max_expected_waiting,
                probability_saturated,
                truncation,
                degradation,
                goals: GoalCheck {
                    waiting_time_met,
                    availability_met,
                },
            },
            counters.provenance(),
        ))
    }

    /// Assesses a raw replica vector.
    fn assess_replicas(
        &self,
        replicas: &[usize],
    ) -> Result<(Assessment, CacheProvenance), ConfigError> {
        let config = Configuration::new(&self.registry, replicas.to_vec())?;
        self.assess_with_provenance(&config)
    }

    /// Quarantines one failed candidate: records it (with its error) so
    /// the search can keep going, mirroring the decision in the obs
    /// stream and the decision journal.
    fn quarantine(
        &self,
        search: &'static str,
        quarantined: &mut Vec<QuarantinedCandidate>,
        replicas: &[usize],
        error: &ConfigError,
    ) {
        wfms_obs::counter("config.quarantined", 1);
        let error = error.to_string();
        journal::record_quarantined(search, replicas, &error);
        quarantined.push(QuarantinedCandidate {
            replicas: replicas.to_vec(),
            error,
        });
    }

    // -- adaptive-ε screening ---------------------------------------------

    /// One provably-skippable greedy step: the candidate cannot meet
    /// the goals, and `growth` is the type the search grows next.
    /// `availability` is exact (closed-form product); `w_max` is the
    /// loose fold's *estimate*, reported for explainability only.
    fn screen_waiting(
        &self,
        config: &Configuration,
        model: &ProductFormModel,
        caps: &[f64],
        scratch: &CacheCounters,
    ) -> WaitingScreen {
        // Every rung must stay strictly looser than the engine's own ε:
        // the exact fold then visits a superset of the screen's prefix,
        // which the error-bound inflation below relies on.
        let floor = self.options.epsilon.max(1e-12) * 10.0;
        let mut rung = self.options.screen_epsilon;
        let mut best = WaitingScreen::Unproven;
        while rung > floor {
            match self.screen_waiting_at(config, model, caps, rung, scratch) {
                WaitingScreen::Unproven => {}
                // Violation proven but the growth argmax is not: a
                // tighter rung may still separate the ratios, so keep
                // the verdict and descend.
                v @ WaitingScreen::ProvenViolation { growth: None, .. } => best = v,
                v => return v,
            }
            rung *= SCREEN_LADDER_SHRINK;
        }
        best
    }

    /// One rung of the screening ladder: a loose ε-truncated fold plus
    /// sound per-type error bounds, compared against the waiting goals.
    ///
    /// The loose fold's `waiting_error_bounds` bound its distance from
    /// the *untruncated* fold; the exact path folds at the engine's own
    /// `ε`, so its value can sit another `ε · cap_x / serving` away
    /// (its skipped mass is at most `ε` and its serving mass is at
    /// least this prefix's, because both walk the same descending-π
    /// enumeration and the rung is strictly looser). The sum is a sound
    /// bound `B_x` on `|W̃_x − W_x^{exact}|`, so:
    ///
    /// * every threshold type with `W̃_x + B_x ≤ θ_x` provably passes;
    /// * any type with `(W̃_x − B_x)/θ_x > 1` provably violates;
    /// * the exact growth argmax is proven only when one violator's
    ///   lower ratio strictly dominates every other threshold type's
    ///   upper ratio — it is then the unique exact maximum, so the
    ///   first-max tie-break cannot pick anything else.
    fn screen_waiting_at(
        &self,
        config: &Configuration,
        model: &ProductFormModel,
        caps: &[f64],
        rung: f64,
        scratch: &CacheCounters,
    ) -> WaitingScreen {
        let report = match fold_states_truncated(
            model.enumerate_descending(),
            self.registry.len(),
            config.as_slice(),
            DegradedPolicy::Conditional,
            &TruncationOptions {
                epsilon: rung,
                total_states: model.state_space().len(),
                waiting_caps: caps,
            },
            |state| self.state_evaluation_memo(state, scratch),
        ) {
            Ok(report) => report,
            // A failed or serving-free prefix proves nothing about the
            // exact fold, and tightening cannot un-fail a fault or an
            // unstable load: abstain terminally.
            Err(_) => return WaitingScreen::Abstain,
        };
        let Some(t) = report.truncation else {
            return WaitingScreen::Abstain;
        };
        let serving = report.probability_serving;
        if serving <= 0.0 {
            return WaitingScreen::Abstain;
        }
        let waits = &report.expected_waiting;
        if waits.iter().any(|w| !w.is_finite()) {
            return WaitingScreen::Abstain; // fault-poisoned: exact path decides
        }
        let w_max = waits.iter().cloned().fold(0.0, f64::max);
        let bound = |x: usize| t.waiting_error_bounds[x] + self.options.epsilon * caps[x] / serving;

        let mut proven_met = true;
        let mut violator: Option<(usize, f64)> = None;
        for (x, &w) in waits.iter().enumerate() {
            let Some(threshold) = self.goals.waiting_threshold_for(x) else {
                continue;
            };
            let b = bound(x);
            if w + b > threshold {
                proven_met = false;
            }
            let lower = (w - b) / threshold;
            if lower > 1.0 && violator.is_none_or(|(_, l)| lower > l) {
                violator = Some((x, lower));
            }
        }
        if proven_met {
            return WaitingScreen::ProvenMet { w_max };
        }
        let Some((candidate, candidate_lower)) = violator else {
            return WaitingScreen::Unproven;
        };
        let mut provable = true;
        for (x, &w) in waits.iter().enumerate() {
            if x == candidate {
                continue;
            }
            let Some(threshold) = self.goals.waiting_threshold_for(x) else {
                continue;
            };
            if (w + bound(x)) / threshold >= candidate_lower {
                provable = false;
                break;
            }
        }
        WaitingScreen::ProvenViolation {
            growth: provable.then_some(ServerTypeId(candidate)),
            w_max,
        }
    }

    /// Screens one greedy candidate: `Some` only when the loose-fold
    /// bounds *prove* the candidate cannot meet the goals **and** the
    /// growth step the exact path would take is known (proven, or —
    /// under [`SearchOptions::rank_moves`] — taken from the closed-form
    /// move ranking, which may legally alter the trajectory). `None`
    /// always falls through to the exact assessment, so screening can
    /// suppress exact work but never a winner.
    fn screen_step(&self, config: &Configuration) -> Option<ScreenedStep> {
        let opts = &self.options;
        if opts.screen_epsilon <= 0.0 || self.resolved_backend(config) != AvailBackend::Product {
            return None;
        }
        let scratch = CacheCounters::default();
        let solution = self
            .availability_solution(config, AvailBackend::Product, &scratch)
            .ok()?;
        let AvailabilitySolution::Product(model) = &*solution else {
            return None;
        };
        let availability = model.availability();
        if !availability.is_finite() {
            return None; // fault-poisoned: the exact path's guard decides
        }
        let availability_met = self
            .goals
            .min_availability
            .is_none_or(|min| availability >= min);
        let any_waiting_goal =
            self.goals.max_waiting_time.is_some() || !self.goals.per_type_waiting.is_empty();
        if !any_waiting_goal {
            if availability_met {
                return None; // potential winner: must be assessed exactly
            }
            // Waiting is trivially met and the closed-form availability
            // — the very number the exact path would compare — misses
            // the goal: skip with the availability growth rule, no fold.
            return Some(ScreenedStep {
                growth: availability_critical_type(&self.registry, config.as_slice()),
                availability,
                w_max: None,
                cache: scratch.provenance(),
            });
        }
        let caps = waiting_time_caps(&self.load, &self.registry, config.as_slice()).ok()?;
        match self.screen_waiting(config, model, &caps, &scratch) {
            WaitingScreen::ProvenViolation {
                growth: Some(growth),
                w_max,
            } => Some(ScreenedStep {
                growth,
                availability,
                w_max: Some(w_max),
                cache: scratch.provenance(),
            }),
            WaitingScreen::ProvenViolation {
                growth: None,
                w_max,
            } if opts.rank_moves => self.ranked_growth(config).map(|growth| ScreenedStep {
                growth,
                availability,
                w_max: Some(w_max),
                cache: scratch.provenance(),
            }),
            WaitingScreen::ProvenMet { w_max } if !availability_met => Some(ScreenedStep {
                growth: availability_critical_type(&self.registry, config.as_slice()),
                availability,
                w_max: Some(w_max),
                cache: scratch.provenance(),
            }),
            // The waiting side ran but proved nothing either way, and
            // the exact availability already fails: the skip is sound,
            // yet only a ranked trajectory knows what to grow. An
            // `Abstain` (fault, saturation, serving-free prefix) never
            // qualifies: with zero waiting signal the closed-form
            // ranking can fixate on the single one-step-stabilizable
            // type and climb it until the budget dies, so the exact
            // path — whose saturated-candidate heuristic grows the most
            // utilized type — decides instead.
            WaitingScreen::Unproven if !availability_met && opts.rank_moves => {
                self.ranked_growth(config).map(|growth| ScreenedStep {
                    growth,
                    availability,
                    w_max: None,
                    cache: scratch.provenance(),
                })
            }
            _ => None,
        }
    }

    /// The closed-form move ranking's growth pick
    /// ([`crate::moves::move_sensitivities`]): the best waiting move
    /// under a waiting goal, the best availability move otherwise.
    ///
    /// Under a waiting goal a `None` from
    /// [`crate::moves::best_waiting_move`] means *no* move has any
    /// waiting signal (every move leaves every type saturated). Growing
    /// a blind availability pick there can loop on one type until the
    /// budget dies — so no pick is returned and the step falls back to
    /// the exact path, whose saturated-candidate heuristic grows the
    /// most utilized type and makes progress.
    fn ranked_growth(&self, config: &Configuration) -> Option<ServerTypeId> {
        let moves = crate::moves::move_sensitivities(&self.registry, &self.load, config).ok()?;
        let any_waiting_goal =
            self.goals.max_waiting_time.is_some() || !self.goals.per_type_waiting.is_empty();
        let pick = if any_waiting_goal {
            crate::moves::best_waiting_move(&moves)
        } else {
            crate::moves::best_availability_move(&moves)
        };
        pick.map(ServerTypeId)
    }

    /// Screens one frontier candidate, returning `true` only when the
    /// candidate *provably* cannot meet the goals (exact closed-form
    /// availability below the goal, or a proven waiting violation) —
    /// i.e. only when the exact assessment provably cannot crown it.
    fn screen_frontier(&self, replicas: &[usize]) -> bool {
        if self.options.screen_epsilon <= 0.0 {
            return false;
        }
        let Ok(config) = Configuration::new(&self.registry, replicas.to_vec()) else {
            return false; // the exact path owns the error report
        };
        if self.resolved_backend(&config) != AvailBackend::Product {
            return false;
        }
        let scratch = CacheCounters::default();
        let Ok(solution) = self.availability_solution(&config, AvailBackend::Product, &scratch)
        else {
            return false;
        };
        let AvailabilitySolution::Product(model) = &*solution else {
            return false;
        };
        let availability = model.availability();
        if !availability.is_finite() {
            return false;
        }
        if let Some(min) = self.goals.min_availability {
            if availability < min {
                return true; // exact, not an estimate: a sound proof
            }
        }
        if self.goals.max_waiting_time.is_none() && self.goals.per_type_waiting.is_empty() {
            return false; // availability met, waiting trivially met: a winner
        }
        let Ok(caps) = waiting_time_caps(&self.load, &self.registry, config.as_slice()) else {
            return false;
        };
        matches!(
            self.screen_waiting(&config, model, &caps, &scratch),
            WaitingScreen::ProvenViolation { .. }
        )
    }

    /// Scans frontier `candidates` in enumeration order, assessing them
    /// in fixed-size batches (in parallel when the pool has more than
    /// one worker) and returning the first goal-satisfying assessment.
    /// Surplus batch results past the winner are discarded, so `trace`
    /// and `evaluations` match the serial early-exit path exactly.
    ///
    /// A candidate whose assessment fails with a candidate-local error
    /// (see [`ConfigError::is_candidate_local`]) is quarantined instead
    /// of aborting the search, unless [`SearchOptions::strict`] is set.
    fn evaluate_frontier(
        &self,
        search: &'static str,
        candidates: Vec<Vec<usize>>,
        trace: &mut Vec<Assessment>,
        evaluations: &mut usize,
        quarantined: &mut Vec<QuarantinedCandidate>,
    ) -> Result<Option<Assessment>, ConfigError> {
        let parallel = self.jobs() > 1;
        let strict = self.options.strict;
        for batch in candidates.chunks(CANDIDATE_BATCH) {
            if parallel && batch.len() > 1 {
                wfms_obs::gauge("engine.parallel-candidates", batch.len() as f64);
                // Screen before dispatching: a provably infeasible
                // member cannot be the winner, so it is withheld from
                // the speculative parallel map. Members the consumption
                // loop still reaches (no earlier winner) are then
                // assessed exactly — backfilled — so the trace, the
                // journal, and the quarantine list stay identical to
                // the unscreened path; only the post-winner results the
                // baseline would have discarded are truly saved.
                let screened: Vec<bool> = if self.options.screen_epsilon > 0.0 {
                    batch
                        .iter()
                        .map(|y| {
                            let pruned = self.screen_frontier(y);
                            if pruned {
                                wfms_obs::counter("engine.screen-reject", 1);
                            }
                            pruned
                        })
                        .collect()
                } else {
                    vec![false; batch.len()]
                };
                let work: Vec<(&Vec<usize>, bool)> =
                    batch.iter().zip(&screened).map(|(y, &p)| (y, p)).collect();
                let results: Vec<Option<Result<(Assessment, CacheProvenance), ConfigError>>> =
                    self.pool.install(|| {
                        work.par_iter()
                            .map(|&(y, pruned)| (!pruned).then(|| self.assess_replicas(y)))
                            .collect()
                    });
                for (y, result) in batch.iter().zip(results) {
                    let result = match result {
                        Some(result) => result,
                        None => self.assess_replicas(y),
                    };
                    let (assessment, provenance) = match result {
                        Ok(assessed) => assessed,
                        Err(e) if !strict && e.is_candidate_local() => {
                            self.quarantine(search, quarantined, y, &e);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    *evaluations += 1;
                    record_candidate(&assessment, assessment.meets_goals());
                    journal::record_assessed(search, &assessment, &self.goals, provenance, None);
                    trace.push(assessment.clone());
                    if assessment.meets_goals() {
                        return Ok(Some(assessment));
                    }
                }
            } else {
                for y in batch {
                    let (assessment, provenance) = match self.assess_replicas(y) {
                        Ok(assessed) => assessed,
                        Err(e) if !strict && e.is_candidate_local() => {
                            self.quarantine(search, quarantined, y, &e);
                            continue;
                        }
                        Err(e) => return Err(e),
                    };
                    *evaluations += 1;
                    record_candidate(&assessment, assessment.meets_goals());
                    journal::record_assessed(search, &assessment, &self.goals, provenance, None);
                    trace.push(assessment.clone());
                    if assessment.meets_goals() {
                        return Ok(Some(assessment));
                    }
                }
            }
        }
        Ok(None)
    }

    // -- searches ---------------------------------------------------------

    /// The greedy minimum-cost search of Sec. 7.2, starting from the
    /// unreplicated configuration `Y = (1, …, 1)` and assessed through
    /// the caches (see the [`crate::search`] module docs for the growth
    /// rule). The candidate chain is inherently sequential; the
    /// per-state kernel of each assessment still runs on the pool.
    ///
    /// # Errors
    /// * [`ConfigError::LoadUnsustainable`] when some server type needs
    ///   more replicas for stability than the budget can ever grant.
    /// * [`ConfigError::GoalsUnreachable`] when the budget runs out.
    /// * Model failures as [`ConfigError`].
    pub fn greedy(&self) -> Result<SearchResult, ConfigError> {
        let opts = &self.options;
        // Fast infeasibility check: stability alone may exceed the budget.
        let min_stable = minimum_stable_replicas(&self.registry, &self.load)?;
        let stable_cost: usize = min_stable.iter().sum();
        if self.goals.max_waiting_time.is_some() && stable_cost > opts.max_total_servers {
            let worst = min_stable
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .map(|(i, _)| i)
                .unwrap_or(0);
            return Err(ConfigError::LoadUnsustainable { server_type: worst });
        }

        let mut obs_span = wfms_obs::span!("greedy-search", budget = opts.max_total_servers);
        let mut config = Configuration::minimal(&self.registry);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        loop {
            // Adaptive-ε screen: when the loose bounds *prove* the
            // candidate infeasible and the growth step the exact path
            // would take, skip the exact assessment entirely. Screened
            // candidates are journaled (`reject-screened`) but neither
            // traced nor counted as evaluations — the trace remains the
            // subsequence of exactly assessed candidates.
            if let Some(step) = self.screen_step(&config) {
                wfms_obs::counter("engine.screen-reject", 1);
                journal::record_screened(
                    "greedy",
                    config.as_slice(),
                    step.availability,
                    step.w_max,
                    step.cache,
                );
                if config.total_servers() >= opts.max_total_servers {
                    return Err(ConfigError::GoalsUnreachable {
                        budget: opts.max_total_servers,
                        last_candidate: config.as_slice().to_vec(),
                    });
                }
                config = config.with_added_replica(step.growth)?;
                continue;
            }
            let (assessment, provenance) = match self.assess_with_provenance(&config) {
                Ok(assessed) => assessed,
                Err(e) if !opts.strict && e.is_candidate_local() => {
                    // Quarantine the irrecoverable candidate and keep
                    // climbing: without an assessment to steer by, grow
                    // the most utilized type (the same tie-breaker the
                    // saturated-candidate heuristic uses).
                    self.quarantine("greedy", &mut quarantined, config.as_slice(), &e);
                    if config.total_servers() >= opts.max_total_servers {
                        return Err(ConfigError::GoalsUnreachable {
                            budget: opts.max_total_servers,
                            last_candidate: config.as_slice().to_vec(),
                        });
                    }
                    let target =
                        highest_utilization_type(&self.registry, &self.load, config.as_slice());
                    config = config.with_added_replica(target)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            evaluations += 1;
            record_candidate(&assessment, assessment.meets_goals());
            journal::record_assessed("greedy", &assessment, &self.goals, provenance, None);
            trace.push(assessment.clone());
            if assessment.meets_goals() {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("greedy", &assessment, &self.goals);
                return Ok(SearchResult {
                    assessment,
                    trace,
                    evaluations,
                    quarantined,
                });
            }
            if config.total_servers() >= opts.max_total_servers {
                return Err(ConfigError::GoalsUnreachable {
                    budget: opts.max_total_servers,
                    last_candidate: config.as_slice().to_vec(),
                });
            }
            let target = if !assessment.goals.waiting_time_met {
                performability_critical_type(&self.registry, &self.load, &self.goals, &assessment)
            } else {
                availability_critical_type(&self.registry, &assessment.replicas)
            };
            config = config.with_added_replica(target)?;
        }
    }

    /// The exhaustive minimum-cost baseline: enumerates replication
    /// vectors in order of increasing total cost and returns the first
    /// (hence cost-optimal) configuration meeting the goals, evaluating
    /// each cost level's frontier in parallel batches. Exponential in
    /// the number of server types — use it to validate the greedy
    /// heuristic on small systems (the EXP-C1 experiment).
    ///
    /// # Errors
    /// As [`AssessmentEngine::greedy`].
    pub fn exhaustive(&self) -> Result<SearchResult, ConfigError> {
        let opts = &self.options;
        let k = self.registry.len();
        let mut obs_span = wfms_obs::span!("exhaustive-search", budget = opts.max_total_servers);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        for cost in k..=opts.max_total_servers {
            let mut candidates = Vec::new();
            let mut current = vec![1usize; k];
            enumerate_compositions(cost, k, &mut current, 0, &mut |replicas| {
                candidates.push(replicas.to_vec());
                Ok(())
            })?;
            if let Some(assessment) = self.evaluate_frontier(
                "exhaustive",
                candidates,
                &mut trace,
                &mut evaluations,
                &mut quarantined,
            )? {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("exhaustive", &assessment, &self.goals);
                return Ok(SearchResult {
                    assessment,
                    trace,
                    evaluations,
                    quarantined,
                });
            }
        }
        Err(ConfigError::GoalsUnreachable {
            budget: opts.max_total_servers,
            last_candidate: vec![1; k],
        })
    }

    /// Branch-and-bound minimum-cost search — the other "full-fledged
    /// algorithm for mathematical optimization" Sec. 7.2 names. Provably
    /// cost-optimal like [`AssessmentEngine::exhaustive`], but prunes
    /// with the per-type [`goal_lower_bounds`]: candidates below any
    /// bound are never assessed, which typically cuts the evaluation
    /// count by an order of magnitude. The pruned frontier is evaluated
    /// in parallel batches.
    ///
    /// # Errors
    /// As [`AssessmentEngine::greedy`].
    pub fn branch_and_bound(&self) -> Result<SearchResult, ConfigError> {
        let opts = &self.options;
        let k = self.registry.len();
        let lower = goal_lower_bounds(
            &self.registry,
            &self.load,
            &self.goals,
            opts.max_total_servers,
        )?;
        let lower_cost: usize = lower.iter().sum();
        if lower_cost > opts.max_total_servers {
            return Err(ConfigError::GoalsUnreachable {
                budget: opts.max_total_servers,
                last_candidate: lower,
            });
        }
        let mut obs_span = wfms_obs::span!("bnb-search", budget = opts.max_total_servers);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        for cost in lower_cost..=opts.max_total_servers {
            let mut candidates = Vec::new();
            let mut current = lower.clone();
            enumerate_bounded(cost, k, &lower, &mut current, 0, &mut |replicas| {
                candidates.push(replicas.to_vec());
                Ok(())
            })?;
            if let Some(assessment) = self.evaluate_frontier(
                "bnb",
                candidates,
                &mut trace,
                &mut evaluations,
                &mut quarantined,
            )? {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("bnb", &assessment, &self.goals);
                return Ok(SearchResult {
                    assessment,
                    trace,
                    evaluations,
                    quarantined,
                });
            }
        }
        Err(ConfigError::GoalsUnreachable {
            budget: opts.max_total_servers,
            last_candidate: lower,
        })
    }

    /// Simulated-annealing search for a (near-)minimum-cost
    /// configuration meeting the goals: starts from the unreplicated
    /// configuration, walks with ±1-replica moves under the schedule in
    /// `opts`, and returns the cheapest feasible configuration visited.
    /// The Metropolis walk is sequential by construction, but revisited
    /// candidates hit the solution cache and every assessment shares the
    /// state cache. The walk's bounds come from `opts`, not from the
    /// engine's [`SearchOptions::max_total_servers`].
    ///
    /// # Errors
    /// * [`ConfigError::GoalsUnreachable`] when no feasible configuration
    ///   was visited within the step budget.
    /// * Model failures as [`ConfigError`].
    pub fn annealing(&self, opts: &AnnealingOptions) -> Result<SearchResult, ConfigError> {
        crate::annealing::annealing_walk(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wfms_avail::{closed_form_unavailability, AvailabilityModel};
    use wfms_markov::ctmc::SteadyStateMethod;
    use wfms_performability::evaluate_with_model;
    use wfms_statechart::{paper_section52_registry, ServerType, ServerTypeKind};

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

    /// A single-shot engine with default options: the cold reference
    /// every warm engine must reproduce.
    fn fresh(reg: &ServerTypeRegistry, load: &SystemLoad, goals: &Goals) -> AssessmentEngine {
        AssessmentEngine::new(reg, load, goals, SearchOptions::default()).unwrap()
    }

    #[test]
    fn engine_assessment_is_bit_identical_to_a_fresh_engine() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let engine = fresh(&reg, &load, &goals);
        for y in [vec![1, 1, 1], vec![2, 2, 2], vec![2, 1, 3], vec![3, 3, 3]] {
            let config = Configuration::new(&reg, y).unwrap();
            let direct = fresh(&reg, &load, &goals).assess(&config).unwrap();
            let cold = engine.assess(&config).unwrap();
            let warm = engine.assess(&config).unwrap();
            assert_eq!(direct, cold);
            assert_eq!(direct, warm);
        }
    }

    #[test]
    fn caches_fill_and_hit_across_candidates() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::availability_only(0.9999).unwrap();
        let engine = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let a = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        engine.assess(&a).unwrap();
        let after_first = engine.cache_stats();
        assert_eq!(after_first.state_entries, 27);
        assert_eq!(after_first.solution_entries, 1);
        assert_eq!(after_first.block_entries, 3);
        assert_eq!(after_first.hits, 0);

        // A neighbouring candidate shares 27 of its 36 states and two of
        // its three blocks.
        let b = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        engine.assess(&b).unwrap();
        let after_second = engine.cache_stats();
        assert_eq!(after_second.state_entries, 36);
        assert_eq!(after_second.solution_entries, 2);
        assert_eq!(after_second.block_entries, 4);
        assert_eq!(after_second.hits, after_first.hits + 27 + 2);

        // Re-assessing is a pure cache replay: one solution hit plus all
        // 36 states.
        engine.assess(&b).unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.hits, after_second.hits + 1 + 36);
        assert_eq!(warm.state_entries, 36);
    }

    #[test]
    fn searches_match_a_fresh_engine_bitwise() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.005, 0.999).unwrap();
        let engine = fresh(&reg, &load, &goals);
        let fresh_greedy = fresh(&reg, &load, &goals).greedy().unwrap();
        assert_eq!(engine.greedy().unwrap(), fresh_greedy);
        let fresh_exhaustive = fresh(&reg, &load, &goals).exhaustive().unwrap();
        assert_eq!(engine.exhaustive().unwrap(), fresh_exhaustive);
    }

    #[test]
    fn parallel_jobs_produce_identical_search_results() {
        let reg = paper_section52_registry();
        let load = load_at(1.5, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let serial_opts = SearchOptions::builder().jobs(1).build();
        let parallel_opts = SearchOptions::builder().jobs(8).build();
        let serial = AssessmentEngine::new(&reg, &load, &goals, serial_opts).unwrap();
        let parallel = AssessmentEngine::new(&reg, &load, &goals, parallel_opts).unwrap();
        assert_eq!(parallel.jobs(), 8);
        let s = serial.exhaustive().unwrap();
        let p = parallel.exhaustive().unwrap();
        assert_eq!(s, p);
        let s = serial.branch_and_bound().unwrap();
        let p = parallel.branch_and_bound().unwrap();
        assert_eq!(s, p);
    }

    #[test]
    fn capacity_zero_disables_caching_without_changing_results() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let uncached_opts = SearchOptions::builder()
            .state_cache_capacity(0)
            .solution_cache_capacity(0)
            .build();
        let uncached = AssessmentEngine::new(&reg, &load, &goals, uncached_opts).unwrap();
        let cached = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        assert_eq!(
            uncached.assess(&config).unwrap(),
            cached.assess(&config).unwrap()
        );
        assert_eq!(uncached.cache_stats().state_entries, 0);
        assert_eq!(uncached.cache_stats().solution_entries, 0);
    }

    #[test]
    fn zero_epsilon_auto_is_bit_identical_to_default() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let default_engine =
            AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let explicit_opts = SearchOptions::builder()
            .epsilon(0.0)
            .avail_backend(AvailBackend::Auto)
            .build();
        let explicit_engine = AssessmentEngine::new(&reg, &load, &goals, explicit_opts).unwrap();
        for y in [vec![1, 1, 1], vec![2, 2, 2], vec![2, 1, 3]] {
            let config = Configuration::new(&reg, y).unwrap();
            assert_eq!(
                default_engine.assess(&config).unwrap(),
                explicit_engine.assess(&config).unwrap()
            );
        }
    }

    #[test]
    fn product_backend_with_tiny_epsilon_tracks_the_dense_answer() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let dense = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let opts = SearchOptions::builder()
            .epsilon(1e-9)
            .avail_backend(AvailBackend::Product)
            .build();
        let product = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        for y in [vec![2, 2, 2], vec![3, 2, 4]] {
            let config = Configuration::new(&reg, y).unwrap();
            let d = dense.assess(&config).unwrap();
            let p = product.assess(&config).unwrap();
            // Availability agrees to LU round-off; waiting times within the
            // reported truncation bound plus solver slack.
            assert!((d.availability - p.availability).abs() < 1e-12);
            let t = p.truncation.expect("product path reports truncation");
            assert!(t.covered_mass >= 1.0 - 1e-9);
            let (dw, pw) = (d.expected_waiting.unwrap(), p.expected_waiting.unwrap());
            for (x, (a, b)) in dw.iter().zip(&pw).enumerate() {
                assert!(
                    (a - b).abs() <= t.waiting_error_bounds[x] + 1e-9,
                    "type {x}: dense {a} vs product {b}, bound {}",
                    t.waiting_error_bounds[x]
                );
            }
            assert!(d.truncation.is_none());
        }
    }

    #[test]
    fn product_backend_with_zero_epsilon_visits_every_state() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let opts = SearchOptions::builder()
            .epsilon(0.0)
            .avail_backend(AvailBackend::Product)
            .build();
        let engine = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let a = engine.assess(&config).unwrap();
        let t = a.truncation.expect("product path reports truncation");
        assert_eq!(t.states_skipped, 0);
        assert_eq!(t.skipped_mass, 0.0);
        assert!(t.waiting_error_bounds.iter().all(|&b| b == 0.0));
        // The conditional expectations match the dense fold to summation
        // round-off (the state probabilities are float-identical; only the
        // accumulation order differs between the two paths).
        let dense = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        let d = dense.assess(&config).unwrap();
        let (dw, pw) = (
            d.expected_waiting.unwrap(),
            a.expected_waiting.clone().unwrap(),
        );
        for (a, b) in dw.iter().zip(&pw) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_backend_matches_dense_to_solver_tolerance() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let dense_opts = SearchOptions::builder()
            .avail_backend(AvailBackend::Dense)
            .build();
        let sparse_opts = SearchOptions::builder()
            .avail_backend(AvailBackend::Sparse)
            .build();
        let dense = AssessmentEngine::new(&reg, &load, &goals, dense_opts).unwrap();
        let sparse = AssessmentEngine::new(&reg, &load, &goals, sparse_opts).unwrap();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let d = dense.assess(&config).unwrap();
        let s = sparse.assess(&config).unwrap();
        assert!((d.availability - s.availability).abs() < 1e-9);
        assert!((d.max_expected_waiting.unwrap() - s.max_expected_waiting.unwrap()).abs() < 1e-9);
        assert!(s.truncation.is_none());
    }

    #[test]
    fn product_backend_falls_back_to_sparse_for_single_repairman() {
        // The engine always models independent repair, so the fallback is
        // exercised through `select_backend` directly: an explicit Product
        // request with a single-repairman chain resolves to Sparse.
        use wfms_avail::{select_backend, RepairPolicy};
        assert_eq!(
            select_backend(
                AvailBackend::Product,
                RepairPolicy::SingleRepairmanPerType,
                27,
                1e-6
            ),
            AvailBackend::Sparse
        );
    }

    #[test]
    fn invalid_solver_options_are_rejected_at_construction() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        for bad in [0.0, -1e-9, f64::NAN, f64::NEG_INFINITY] {
            let opts = SearchOptions::builder().solver_tolerance(bad).build();
            match AssessmentEngine::new(&reg, &load, &goals, opts).unwrap_err() {
                ConfigError::InvalidOption { what, .. } => assert_eq!(what, "solver tolerance"),
                other => panic!("expected InvalidOption, got {other:?}"),
            }
        }
        let opts = SearchOptions::builder().solver_max_iterations(0).build();
        match AssessmentEngine::new(&reg, &load, &goals, opts).unwrap_err() {
            ConfigError::InvalidOption { what, .. } => assert_eq!(what, "solver max-iterations"),
            other => panic!("expected InvalidOption, got {other:?}"),
        }
    }

    #[test]
    fn starved_sparse_solver_degrades_to_the_exact_path() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        // One Gauss–Seidel sweep cannot reach 1e-12: the solve reports
        // NotConverged and the supervision layer escalates to the exact
        // product-form path.
        let starved_opts = SearchOptions::builder()
            .avail_backend(AvailBackend::Sparse)
            .solver_max_iterations(1)
            .build();
        let starved = AssessmentEngine::new(&reg, &load, &goals, starved_opts).unwrap();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let a = starved.assess(&config).unwrap();
        let d = a.degradation.clone().expect("fallback must be reported");
        assert_eq!(d.solver_fallbacks, 1);
        assert_eq!(d.failed_states, 0);
        assert_eq!(d.charged_mass, 0.0);
        assert!(d.details.is_empty());
        // The fallback runs the engine's exact path: bit-identical
        // numbers to a Dense-backend engine, modulo the report itself.
        let dense_opts = SearchOptions::builder()
            .avail_backend(AvailBackend::Dense)
            .build();
        let dense = AssessmentEngine::new(&reg, &load, &goals, dense_opts).unwrap();
        let mut expected = dense.assess(&config).unwrap();
        assert!(expected.degradation.is_none());
        expected.degradation = a.degradation.clone();
        assert_eq!(a, expected);
        // Warm replays of the cached solution still carry the fallback.
        let warm = starved.assess(&config).unwrap();
        assert_eq!(warm.degradation.unwrap().solver_fallbacks, 1);
    }

    #[test]
    fn strict_mode_propagates_sparse_solver_failure() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let opts = SearchOptions::builder()
            .avail_backend(AvailBackend::Sparse)
            .solver_max_iterations(1)
            .strict(true)
            .build();
        let engine = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        let config = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
        let err = engine.assess(&config).unwrap_err();
        assert!(matches!(err, ConfigError::Avail(_)), "got {err:?}");
        assert!(err.is_candidate_local());
    }

    #[test]
    fn clean_searches_report_no_quarantined_candidates() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.005, 0.999).unwrap();
        let engine = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        assert!(engine.greedy().unwrap().quarantined.is_empty());
        assert!(engine.exhaustive().unwrap().quarantined.is_empty());
    }

    #[test]
    fn invalid_epsilon_is_rejected_at_construction() {
        let reg = paper_section52_registry();
        let load = load_at(0.8, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        for bad in [1.0, 1.5, -1e-9, f64::NAN, f64::INFINITY] {
            let opts = SearchOptions::builder().epsilon(bad).build();
            let err = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap_err();
            match err {
                ConfigError::InvalidOption { what, .. } => {
                    assert_eq!(what, "truncation epsilon");
                }
                other => panic!("expected InvalidOption, got {other:?}"),
            }
        }
    }

    #[test]
    fn product_backend_prunes_states_under_loose_epsilon() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let opts = SearchOptions::builder()
            .epsilon(1e-4)
            .avail_backend(AvailBackend::Auto)
            .build();
        let engine = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        // Auto + independent repair + ε>0 resolves to the product backend.
        let config = Configuration::new(&reg, vec![3, 3, 3]).unwrap();
        let a = engine.assess(&config).unwrap();
        let t = a.truncation.expect("auto resolves to product under ε>0");
        assert!(t.states_skipped > 0, "loose ε must actually prune");
        assert!(t.covered_mass >= 1.0 - 1e-4);
        assert!(t.skipped_mass <= 1e-4 * 1.01);
        // Fewer states evaluated than the full space holds.
        assert!(engine.cache_stats().state_entries < 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tentpole invariant: an engine-cached assessment equals a
        /// fresh single-shot engine's assessment field-for-field, cold
        /// and warm, for arbitrary loads and candidates.
        #[test]
        fn engine_cached_equals_fresh_engine_assessment(
            rho in 0.05f64..2.5,
            y in proptest::collection::vec(1usize..4, 3),
        ) {
            let reg = paper_section52_registry();
            let load = load_at(rho, &reg);
            let goals = Goals::new(0.01, 0.9999).unwrap();
            let config = Configuration::new(&reg, y).unwrap();
            let direct = fresh(&reg, &load, &goals).assess(&config).unwrap();
            let engine = fresh(&reg, &load, &goals);
            let cold = engine.assess(&config).unwrap();
            prop_assert_eq!(&direct, &cold);
            let warm = engine.assess(&config).unwrap();
            prop_assert_eq!(&direct, &warm);
        }

        /// The default (`ε = 0`) path takes π from the product form; the
        /// dense generator plus LU solve stays its oracle. On arbitrary
        /// registries, loads and candidates the two agree to round-off
        /// and classify every state alike.
        #[test]
        fn default_assessment_matches_the_dense_lu_oracle(
            types in proptest::collection::vec(
                (1e-5f64..1e-2, 0.01f64..1.0, 0.005f64..0.5, 0.05f64..2.5),
                1..4,
            ),
            y in proptest::collection::vec(1usize..4, 3),
        ) {
            let mut reg = ServerTypeRegistry::new();
            let mut request_rates = Vec::new();
            for (i, &(lambda, mu, service, rho)) in types.iter().enumerate() {
                reg.register(ServerType::with_exponential_service(
                    format!("t{i}"),
                    ServerTypeKind::WorkflowEngine,
                    lambda,
                    mu,
                    service,
                ))
                .unwrap();
                request_rates.push(rho / service);
            }
            let load = SystemLoad {
                request_rates,
                total_arrival_rate: 1.0,
                active_instances: vec![],
            };
            let config = Configuration::new(&reg, y[..types.len()].to_vec()).unwrap();
            let goals = Goals::new(0.01, 0.9999).unwrap();
            let engine =
                AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
            let a = engine.assess(&config).unwrap();

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
            let model =
                AvailabilityModel::from_blocks(&config, &blocks, RepairPolicy::Independent)
                    .unwrap();
            let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
            let oracle =
                evaluate_with_model(&model, &pi, &reg, &load, DegradedPolicy::Conditional);

            let lu_availability = model.availability(&pi).unwrap();
            prop_assert!(
                (a.availability - lu_availability).abs() <= 1e-12,
                "availability {:e} vs LU {lu_availability:e}", a.availability
            );
            let closed = 1.0 - closed_form_unavailability(&reg, &config).unwrap();
            prop_assert!(
                (a.availability - closed).abs() <= 1e-12,
                "availability {:e} vs closed form {closed:e}", a.availability
            );
            prop_assert!(a.truncation.is_none());

            match oracle {
                Ok(report) => {
                    let waits = a.expected_waiting.clone().unwrap();
                    for (x, (w, w_lu)) in waits.iter().zip(&report.expected_waiting).enumerate() {
                        prop_assert!(
                            (w - w_lu).abs() <= 1e-12 * w_lu.abs(),
                            "type {x}: wait {w:e} vs LU {w_lu:e}"
                        );
                    }
                    prop_assert!(
                        (a.probability_saturated - report.probability_saturated).abs() <= 1e-12
                    );
                }
                Err(PerformabilityError::NoServingStates) => {
                    prop_assert!(a.expected_waiting.is_none());
                }
                Err(e) => prop_assert!(false, "oracle failed: {e}"),
            }
            // Every state the oracle folds sits in the same class (down,
            // saturated, serving) in the engine's state cache.
            for (x, _) in model.distribution(&pi).unwrap() {
                let expected = evaluate_state(&load, &reg, &x).unwrap();
                let cached = lock_cache(&engine.states)
                    .get(&x)
                    .expect("the exact path caches every state");
                prop_assert_eq!(
                    (cached.down, cached.saturated),
                    (expected.down, expected.saturated)
                );
            }
        }
    }
}
