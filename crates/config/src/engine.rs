//! The assessment engine: a session-style, memoizing evaluation core
//! behind the configuration searches.
//!
//! Assessing each candidate in isolation would recompute every
//! degraded-state waiting time and every availability chain from
//! scratch — yet neighbouring candidates (`Y` vs `Y + e_k`) share almost
//! all of both. [`AssessmentEngine`] owns the search inputs
//! ([`ServerTypeRegistry`], [`SystemLoad`], [`Goals`], [`SearchOptions`])
//! and threads one memo through all assessments.
//!
//! # Per-type records
//!
//! The engine models independent repair throughout, so the availability
//! chain is a product of per-type birth–death chains,
//! `π(X) = Π_x m_x[X_x]` ([`wfms_avail::ProductFormModel`]), and type
//! `x`'s M/G/1 wait depends on its own up-count `X_x` alone. Every
//! candidate, at any size, is therefore assessed from `k` **records**,
//! cached by `(type, Y_x)`: the birth–death marginal `m_x` and type
//! `x`'s single-type outcome at every up-count `u = 0..=Y_x`. The
//! assessment is closed-form over them: availability `Π_x (1 − m_x[0])`
//! and one 1-D waiting-time sum per type
//! ([`wfms_performability::fold_types`]) — `Σ_x (Y_x + 1)` single-type
//! terms, never the `Π_x (Y_x + 1)` joint states. A record is a pure
//! function of `(type, Y_x)`, so a one-replica move changes exactly one,
//! and the engine keeps every clean record it fills in one map, for
//! its lifetime.
//!
//! # One table per search
//!
//! A search looks each `(type, Y_x)` up in the shared map once. Its
//! record table keeps what that lookup resolved, indexed by type and
//! `Y_x`, so every later lookup of the same record is an index and a
//! borrow: no lock, no hash and no reference count per candidate. The
//! table keeps exactly what the map keeps, the clean records, so it
//! answers only lookups the map would have answered, and a record with a
//! failed or non-finite evaluation is filled again, its failpoints firing,
//! at every lookup, as it is without the table.
//!
//! # Determinism contract
//!
//! One thread per search: every search assesses its candidates in
//! order on its caller's thread. Concurrent callers (the daemon's
//! workers sharing a tenant engine) share a map of pure-function
//! values, computed with exactly the same float operations as a fresh
//! engine's, so a warm or shared engine answers bit-identically to a
//! fresh one.
//!
//! # Observability
//!
//! Stable names (see `wfms-obs`): counters `engine.cache-hit` /
//! `engine.cache-miss` count record lookups (one per type per
//! candidate).

// audit:allow-file(A006, reason = "the record map is a keyed lookup (get/insert only, never iterated), so hash order never reaches results; bit-identity is asserted by tests/engine.rs")
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wfms_avail::{steady_state_marginal, BirthDeathBlock, RepairPolicy, MINUTES_PER_YEAR};
use wfms_perf::{SystemLoad, WaitingOutcome};
use wfms_performability::{
    charged_type_outcome, evaluate_type_state, fold_types, type_waiting_cap, PerformabilityError,
    PerformabilityReport,
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
    availability_critical_type, enumerate_bounded, goal_lower_bounds, highest_utilization_type,
    minimum_stable_replicas, performability_critical_type, record_candidate, QuarantinedCandidate,
    SearchOptions, SearchResult,
};

/// Locks the record map, recovering from poisoning: it holds memoized
/// values of pure functions, so a panicked worker can at most have
/// skipped an insert — the map itself is never left mid-update.
fn lock_cache<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One server type's share of an assessment at `Y_x` replicas:
/// everything the per-type fold needs from type `x`.
#[derive(Debug, Default)]
struct TypeRecord {
    /// The birth–death marginal `m_x[u]`, `u = 0..=Y_x`.
    marginal: Vec<f64>,
    /// Type `x`'s single-type outcome at each up-count `u = 0..=Y_x`.
    outcomes: Vec<WaitingOutcome>,
    /// Evaluations that failed and were charged in `outcomes` instead:
    /// `(up-count, error)`. A record with any is never cached.
    failed: Vec<(usize, String)>,
}

impl TypeRecord {
    /// Whether the record may be shared with later candidates: no
    /// failed evaluation and no non-finite marginal entry or stable wait
    /// (a NaN injection). Anything else is used by the candidate that
    /// filled it and dropped, so a fault never outlives that candidate.
    fn is_cacheable(&self) -> bool {
        self.failed.is_empty()
            && self.marginal.iter().all(|m| m.is_finite())
            && self.outcomes.iter().all(|o| match o {
                WaitingOutcome::Stable { waiting_time, .. } => waiting_time.is_finite(),
                _ => true,
            })
    }
}

/// One search's table of the records it has resolved (see the module
/// docs): type `x`'s record at `Y_x = y` sits at `kept[x][y]` once the
/// search's first lookup of `(x, y)` has gone through the record map.
pub(crate) struct RecordTable {
    kept: Vec<Vec<Option<Arc<TypeRecord>>>>,
    /// Type `x`'s record of the candidate just resolved when it may not
    /// be kept ([`TypeRecord::is_cacheable`]). It is read only where
    /// `kept` has no record, so no later candidate reads it.
    unkept: Vec<TypeRecord>,
}

impl RecordTable {
    /// An empty table for `k` server types.
    pub(crate) fn new(k: usize) -> Self {
        RecordTable {
            kept: vec![Vec::new(); k],
            unkept: std::iter::repeat_with(TypeRecord::default)
                .take(k)
                .collect(),
        }
    }

    /// Type `x`'s record at `y` replicas, of a candidate that
    /// [`AssessmentEngine::resolve`] has just resolved.
    fn record(&self, x: usize, y: usize) -> &TypeRecord {
        match &self.kept[x][y] {
            Some(record) => record,
            None => &self.unkept[x],
        }
    }
}

/// What a fold made of one candidate: the performability report, the
/// availability, the graceful-degradation accounting, and where its
/// records came from.
struct Folded {
    perf: Result<PerformabilityReport, PerformabilityError>,
    availability: f64,
    /// Failed evaluations, charged at their pessimistic caps.
    failed: Vec<DegradedStateRecord>,
    /// The stationary mass those failures touch.
    charged_mass: f64,
    provenance: CacheProvenance,
}

/// Entry count and hit/miss totals of the engine's record map (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Record entries: the `(type, Y_x)` records (type `x`'s marginal
    /// and its outcome at every up-count).
    pub state_entries: usize,
    /// Total record lookups answered from the cache (one lookup per
    /// type per candidate).
    pub hits: u64,
    /// Total record lookups that had to fill a record.
    pub misses: u64,
}

/// The memoizing evaluation core. See the module docs for the record
/// map and the determinism contract.
///
/// An engine is cheap to construct (the map starts empty) and is
/// `Sync`: one engine can serve concurrent assessments. All search
/// methods share the records, so e.g. a greedy probe followed by an
/// exhaustive validation pays the model solves only once.
#[derive(Debug)]
pub struct AssessmentEngine {
    registry: ServerTypeRegistry,
    load: SystemLoad,
    goals: Goals,
    options: SearchOptions,
    records: Mutex<HashMap<(usize, usize), Arc<TypeRecord>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

// The serving layer (`wfms-serve`) keeps one warm engine per tenant and
// shares it across worker threads, so `Send + Sync` is a load-bearing
// contract, not an accident of today's field types. Assert it at
// compile time: swapping the map for an `Rc` or a `RefCell` must fail
// here, not in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AssessmentEngine>();
};

impl AssessmentEngine {
    /// Creates an engine owning copies of the inputs: validates the
    /// goals and runs the static preflight over `(registry, load)`.
    ///
    /// # Errors
    /// * [`ConfigError::NoGoals`] / [`ConfigError::InvalidGoal`] on bad
    ///   goals.
    /// * [`ConfigError::Preflight`] when static analysis finds errors.
    pub fn new(
        registry: &ServerTypeRegistry,
        load: &SystemLoad,
        goals: &Goals,
        options: SearchOptions,
    ) -> Result<Self, ConfigError> {
        goals.validate()?;
        run_preflight(registry, load, None)?;
        Ok(AssessmentEngine {
            registry: registry.clone(),
            load: load.clone(),
            goals: goals.clone(),
            options,
            records: Mutex::new(HashMap::new()),
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

    /// Current record count and lifetime hit/miss totals.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            state_entries: lock_cache(&self.records).len(),
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

    // -- records ----------------------------------------------------------

    /// Resolves the `k` per-type records of `replicas` (see the module
    /// docs) into the search's `table`, with their hits and misses. The
    /// table answers a record it holds; otherwise the record map does,
    /// and a miss there fills the record: the `engine.solution-cache-fill`
    /// failpoint fires first (error fails the candidate, NaN poisons the
    /// record's marginal), then the marginal comes from the type's
    /// birth–death block and each up-count's outcome from the single-type
    /// kernel. Only a clean record ([`TypeRecord::is_cacheable`]) goes
    /// into the map and the table; any other serves this candidate alone.
    fn resolve(
        &self,
        replicas: &[usize],
        table: &mut RecordTable,
    ) -> Result<CacheProvenance, ConfigError> {
        let mut provenance = CacheProvenance::default();
        for (x, &y) in replicas.iter().enumerate() {
            let kept = &mut table.kept[x];
            if kept.len() <= y {
                kept.resize(y + 1, None);
            }
            if kept[y].is_some() {
                provenance.state_hits += 1;
                continue;
            }
            if let Some(hit) = lock_cache(&self.records).get(&(x, y)).cloned() {
                provenance.state_hits += 1;
                kept[y] = Some(hit);
                continue;
            }
            provenance.state_misses += 1;
            let record = self.fill_record(x, y)?;
            if record.is_cacheable() {
                let record = Arc::new(record);
                lock_cache(&self.records).insert((x, y), Arc::clone(&record));
                kept[y] = Some(record);
            } else {
                table.unkept[x] = record;
            }
        }
        self.record_hits(provenance.state_hits);
        self.record_misses(provenance.state_misses);
        Ok(provenance)
    }

    /// Computes type `x`'s record at `y` replicas (see
    /// [`AssessmentEngine::resolve`]).
    ///
    /// Each up-count's evaluation passes the `engine.state-cache-fill`
    /// failpoint (error fails that one evaluation, NaN poisons its wait)
    /// and the kernel's own `performability.evaluate-state`. Under
    /// [`SearchOptions::strict`] a failed evaluation fails the record;
    /// otherwise it is charged at the type's pessimistic cap
    /// ([`charged_type_outcome`]) and listed in the record's `failed`.
    fn fill_record(&self, x: usize, y: usize) -> Result<TypeRecord, ConfigError> {
        let mut poison_marginal = false;
        match wfms_fault::point!("engine.solution-cache-fill") {
            Some(wfms_fault::Injection::Error) => {
                return Err(ConfigError::Avail(wfms_avail::AvailError::FaultInjected {
                    site: "engine.solution-cache-fill",
                }))
            }
            Some(wfms_fault::Injection::Nan) => poison_marginal = true,
            None => {}
        }
        let id = ServerTypeId(x);
        let block = BirthDeathBlock::for_type(self.registry.get(id)?, y, RepairPolicy::Independent);
        let mut marginal = steady_state_marginal(&block)?;
        if poison_marginal {
            marginal[0] = f64::NAN;
        }
        let mut outcomes = Vec::with_capacity(y + 1);
        let mut failed = Vec::new();
        let mut cap = None;
        for up in 0..=y {
            let evaluated = match wfms_fault::point!("engine.state-cache-fill") {
                Some(wfms_fault::Injection::Error) => Err(PerformabilityError::FaultInjected {
                    site: "engine.state-cache-fill",
                }),
                Some(wfms_fault::Injection::Nan) => {
                    evaluate_type_state(&self.load, &self.registry, id, up).map(|mut outcome| {
                        if let WaitingOutcome::Stable { waiting_time, .. } = &mut outcome {
                            *waiting_time = f64::NAN;
                        }
                        outcome
                    })
                }
                None => evaluate_type_state(&self.load, &self.registry, id, up),
            };
            match evaluated {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) if self.options.strict => return Err(e.into()),
                Err(e) => {
                    // A cap failure is irrecoverable: there is no sound
                    // bound left to charge, so the error propagates and
                    // the search quarantines the candidate.
                    let cap = match cap {
                        Some(cap) => cap,
                        None => *cap.insert(type_waiting_cap(&self.load, &self.registry, id, y)?),
                    };
                    outcomes.push(charged_type_outcome(up, cap));
                    failed.push((up, e.to_string()));
                }
            }
        }
        Ok(TypeRecord {
            marginal,
            outcomes,
            failed,
        })
    }

    // -- assessment -------------------------------------------------------

    /// Evaluates `config` against the engine's goals, through the
    /// records: availability from the Sec. 5 model, waiting times from the
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
        let table = &mut RecordTable::new(self.registry.len());
        let (assessment, provenance) = self.assess_in(config.clone(), table)?;
        journal::record_assessed("assess", &assessment, &self.goals, provenance, None);
        Ok(assessment)
    }

    /// As [`assess`](Self::assess), through the record `table` of a
    /// search (or a fresh one), additionally reporting how many of the
    /// candidate's records the map answered and how many were filled —
    /// and emitting no journal event, so searches can journal the
    /// decision (not the computation). The assessment keeps `config`'s
    /// replica vector.
    pub(crate) fn assess_in(
        &self,
        config: Configuration,
        table: &mut RecordTable,
    ) -> Result<(Assessment, CacheProvenance), ConfigError> {
        run_preflight(&self.registry, &self.load, Some(config.as_slice()))?;
        let mut obs_span = wfms_obs::span!("assess");
        if obs_span.is_recording() {
            obs_span.record("candidate", format!("{config}"));
        }
        let folded = self.fold_exact(&config, table)?;
        let availability = folded.availability;
        let downtime_minutes_per_year = (1.0 - availability) * MINUTES_PER_YEAR;
        let (expected_waiting, max_expected_waiting, probability_saturated) = match folded.perf {
            Ok(report) => {
                let max_expected_waiting = report.max_expected_waiting();
                (
                    Some(report.expected_waiting),
                    Some(max_expected_waiting),
                    report.probability_saturated,
                )
            }
            Err(PerformabilityError::NoServingStates) => (None, None, 1.0),
            Err(e) => return Err(e.into()),
        };

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

        // Non-finite guard: a NaN/∞ metric means the candidate's numbers
        // cannot be trusted. Searches quarantine it (the error is
        // candidate-local).
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

        let failed = folded.failed;
        let degradation = if failed.is_empty() {
            None
        } else {
            let failed_states = failed.len();
            let mut details = failed;
            details.truncate(DEGRADATION_DETAIL_CAP);
            obs_span.record("degraded-states", failed_states as u64);
            wfms_obs::counter("config.degraded-assessments", 1);
            Some(DegradationReport {
                failed_states,
                charged_mass: folded.charged_mass,
                details,
            })
        };

        let cost = config.total_servers();
        Ok((
            Assessment {
                replicas: config.into_vec(),
                cost,
                availability,
                downtime_minutes_per_year,
                expected_waiting,
                max_expected_waiting,
                probability_saturated,
                degradation,
                goals: GoalCheck {
                    waiting_time_met,
                    availability_met,
                },
            },
            folded.provenance,
        ))
    }

    /// `config`'s per-type records folded in closed form — availability
    /// `Π_x (1 − m_x[0])`, waits by [`fold_types`]. A failed evaluation
    /// of type `x` at up-count `u` touches every joint state with
    /// `X_x = u`, whose mass is `m_x[u]`; the failures of all types
    /// touch `1 − Π_x (1 − Σ_{failed u} m_x[u])`.
    fn fold_exact(
        &self,
        config: &Configuration,
        table: &mut RecordTable,
    ) -> Result<Folded, ConfigError> {
        let provenance = self.resolve(config.as_slice(), table)?;
        wfms_obs::gauge("avail.state-space.size", config.system_state_count() as f64);
        let table = &*table;
        let records = config
            .as_slice()
            .iter()
            .enumerate()
            .map(|(x, &y)| table.record(x, y));
        let mut availability = 1.0;
        for record in records.clone() {
            availability *= 1.0 - record.marginal[0];
        }
        let perf = fold_types(
            records
                .clone()
                .map(|r| (r.marginal.as_slice(), r.outcomes.as_slice())),
        );
        let mut failed = Vec::new();
        let mut untouched = 1.0;
        for ((x, record), (_, st)) in records.enumerate().zip(self.registry.iter()) {
            let mut failed_mass = 0.0;
            for (up, error) in &record.failed {
                let mut state = config.as_slice().to_vec();
                state[x] = *up;
                failed_mass += record.marginal[*up];
                failed.push(DegradedStateRecord {
                    state,
                    probability: record.marginal[*up],
                    error: format!("{} at {up} up: {error}", st.name),
                });
            }
            untouched *= 1.0 - failed_mass;
        }
        Ok(Folded {
            perf,
            availability,
            failed,
            charged_mass: 1.0 - untouched,
            provenance,
        })
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

    // -- searches ---------------------------------------------------------

    /// The greedy minimum-cost search of Sec. 7.2, starting from the
    /// unreplicated configuration `Y = (1, …, 1)` and assessed through
    /// the records (see the [`crate::search`] module docs for the growth
    /// rule). The candidate chain is inherently sequential.
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
        let mut table = RecordTable::new(self.registry.len());
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        loop {
            let (assessment, provenance) = match self.assess_in(config.clone(), &mut table) {
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
            let accepted = assessment.meets_goals();
            record_candidate(&assessment, accepted);
            journal::record_assessed("greedy", &assessment, &self.goals, provenance, None);
            if accepted {
                obs_span.record("evaluations", evaluations as u64);
                obs_span.record("cost", assessment.cost as u64);
                journal::record_winner("greedy", &assessment, &self.goals, provenance);
                trace.push(assessment.clone());
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
            trace.push(assessment);
            config = config.with_added_replica(target)?;
        }
    }

    /// The exhaustive minimum-cost baseline: enumerates replication
    /// vectors in order of increasing total cost and returns the first
    /// (hence cost-optimal) configuration meeting the goals. Exponential in
    /// the number of server types — use it to validate the greedy
    /// heuristic on small systems (the EXP-C1 experiment).
    ///
    /// # Errors
    /// As [`AssessmentEngine::greedy`].
    pub fn exhaustive(&self) -> Result<SearchResult, ConfigError> {
        let budget = self.options.max_total_servers;
        let obs_span = wfms_obs::span!("exhaustive-search", budget = budget);
        self.cost_shells("exhaustive", vec![1; self.registry.len()], obs_span)
    }

    /// Branch-and-bound minimum-cost search — the other "full-fledged
    /// algorithm for mathematical optimization" Sec. 7.2 names. Provably
    /// cost-optimal like [`AssessmentEngine::exhaustive`], but prunes
    /// with the per-type [`goal_lower_bounds`]: candidates below any
    /// bound are never assessed, which typically cuts the evaluation
    /// count by an order of magnitude.
    ///
    /// # Errors
    /// As [`AssessmentEngine::greedy`].
    pub fn branch_and_bound(&self) -> Result<SearchResult, ConfigError> {
        let budget = self.options.max_total_servers;
        let lower = goal_lower_bounds(&self.registry, &self.load, &self.goals, budget)?;
        let obs_span = wfms_obs::span!("bnb-search", budget = budget);
        self.cost_shells("bnb", lower, obs_span)
    }

    /// The loop both cost-optimal searches run: assesses every vector
    /// `Y ≥ lower` shell by shell, in order of increasing total cost
    /// (lexicographic within a shell), as [`enumerate_bounded`] yields
    /// it, and returns the first that meets the goals. Past the budget it
    /// fails with [`ConfigError::GoalsUnreachable`] naming `lower`.
    ///
    /// A candidate whose assessment fails with a candidate-local error
    /// (see [`ConfigError::is_candidate_local`]) is quarantined instead
    /// of aborting the search, unless [`SearchOptions::strict`] is set.
    fn cost_shells(
        &self,
        search: &'static str,
        lower: Vec<usize>,
        mut obs_span: wfms_obs::Span<'static>,
    ) -> Result<SearchResult, ConfigError> {
        let budget = self.options.max_total_servers;
        let k = lower.len();
        let mut table = RecordTable::new(k);
        let mut trace = Vec::new();
        let mut evaluations = 0;
        let mut quarantined = Vec::new();
        let mut current = lower.clone();
        for cost in lower.iter().sum::<usize>()..=budget {
            let shell = enumerate_bounded(cost, k, &lower, &mut current, 0, &mut |replicas| {
                let assessed = Configuration::new(&self.registry, replicas.to_vec())
                    .map_err(ConfigError::from)
                    .and_then(|config| self.assess_in(config, &mut table));
                let (assessment, provenance) = match assessed {
                    Ok(assessed) => assessed,
                    Err(e) if !self.options.strict && e.is_candidate_local() => {
                        self.quarantine(search, &mut quarantined, replicas, &e);
                        return ControlFlow::Continue(());
                    }
                    Err(e) => return ControlFlow::Break(Err(e)),
                };
                evaluations += 1;
                let accepted = assessment.meets_goals();
                record_candidate(&assessment, accepted);
                journal::record_assessed(search, &assessment, &self.goals, provenance, None);
                let winner = accepted.then(|| assessment.clone());
                trace.push(assessment);
                match winner {
                    Some(winner) => ControlFlow::Break(Ok((winner, provenance))),
                    None => ControlFlow::Continue(()),
                }
            });
            match shell {
                ControlFlow::Continue(()) => {}
                ControlFlow::Break(Err(e)) => return Err(e),
                ControlFlow::Break(Ok((assessment, provenance))) => {
                    obs_span.record("evaluations", evaluations as u64);
                    obs_span.record("cost", assessment.cost as u64);
                    journal::record_winner(search, &assessment, &self.goals, provenance);
                    return Ok(SearchResult {
                        assessment,
                        trace,
                        evaluations,
                        quarantined,
                    });
                }
            }
        }
        Err(ConfigError::GoalsUnreachable {
            budget,
            last_candidate: lower,
        })
    }

    /// Simulated-annealing search for a (near-)minimum-cost
    /// configuration meeting the goals: starts from the unreplicated
    /// configuration, walks with ±1-replica moves under the schedule in
    /// `opts`, and returns the cheapest feasible configuration visited.
    /// The Metropolis walk is sequential by construction, but revisited
    /// candidates and their neighbours replay from the record cache.
    /// The walk stays within the engine's
    /// [`SearchOptions::max_total_servers`] and `opts`'
    /// per-type bound, and honours [`SearchOptions::strict`].
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
    use wfms_performability::{evaluate_state, evaluate_with_model, DegradedPolicy};
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
        // One `(type, Y_x)` record per type.
        let after_first = engine.cache_stats();
        assert_eq!(after_first.state_entries, 3);
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 3);

        // A neighbouring candidate shares two of its three records: a
        // one-replica move changes exactly one record.
        let b = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        engine.assess(&b).unwrap();
        let after_second = engine.cache_stats();
        assert_eq!(after_second.state_entries, 4);
        assert_eq!(after_second.hits, after_first.hits + 2);
        assert_eq!(after_second.misses, after_first.misses + 1);

        // Re-assessing is a pure cache replay: all three records hit.
        engine.assess(&b).unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.hits, after_second.hits + 3);
        assert_eq!(warm.misses, after_second.misses);
        assert_eq!(warm.state_entries, 4);
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
    fn clean_searches_report_no_quarantined_candidates() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        let goals = Goals::new(0.005, 0.999).unwrap();
        let engine = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap();
        assert!(engine.greedy().unwrap().quarantined.is_empty());
        assert!(engine.exhaustive().unwrap().quarantined.is_empty());
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

        /// The engine folds per-type records of the product form; the
        /// dense generator plus LU solve and the joint fold stay its
        /// oracle. On arbitrary registries, loads and
        /// candidates the two agree to round-off and classify every
        /// up-count alike.
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
            // Each record classes every up-count (down, saturated or
            // stable) as the joint kernel classes that type in a state
            // holding that up-count.
            for (t, &y_t) in config.as_slice().iter().enumerate() {
                let record = lock_cache(&engine.records)
                    .get(&(t, y_t))
                    .cloned()
                    .expect("the engine caches every clean record");
                for (up, outcome) in record.outcomes.iter().enumerate() {
                    let mut state = config.as_slice().to_vec();
                    state[t] = up;
                    let expected = evaluate_state(&load, &reg, &state).unwrap().outcomes[t];
                    prop_assert_eq!(
                        std::mem::discriminant(outcome),
                        std::mem::discriminant(&expected)
                    );
                }
            }
        }
    }
}
