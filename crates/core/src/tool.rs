//! The high-level configuration tool (Sec. 7.1 of the paper).
//!
//! [`ConfigurationTool`] ties the four components of the paper's tool
//! together behind one API:
//!
//! * **mapping** — registered workflow specifications are validated and
//!   translated into CTMC models;
//! * **calibration** — audit trails update transition probabilities and
//!   residence times;
//! * **evaluation** — availability, performance, and performability of a
//!   candidate configuration;
//! * **recommendation** — greedy (or exhaustive) minimum-cost search for
//!   a configuration meeting the administrator's goals.

use wfms_avail::{ProductFormModel, MINUTES_PER_YEAR};
use wfms_config::{
    apply_to_spec, calibrate_from_traces, sensitivity, ApplyOptions, ApplyReport, Assessment,
    AssessmentEngine, ConfigError, Goals, SearchOptions, SearchResult, SensitivityEntry,
    SensitivityOptions, WorkflowTrace,
};
use wfms_perf::{
    aggregate_load, analyze_workflow, max_sustainable_throughput, AnalysisOptions, SystemLoad,
    ThroughputReport, WorkflowAnalysis, WorkloadItem,
};
use wfms_performability::{evaluate, DegradedPolicy, PerformabilityReport};
use wfms_statechart::{validate_spec, Configuration, ServerTypeRegistry, WorkflowSpec};

/// Availability figures of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityFigures {
    /// Steady-state probability that the entire WFMS is operational.
    pub availability: f64,
    /// Expected downtime, minutes per year.
    pub downtime_minutes_per_year: f64,
}

/// The configuration tool: a server-type registry plus the registered
/// workflow types and their arrival rates.
#[derive(Debug, Clone)]
pub struct ConfigurationTool {
    registry: ServerTypeRegistry,
    workloads: Vec<(WorkflowSpec, f64)>,
    analysis_options: AnalysisOptions,
}

impl ConfigurationTool {
    /// Creates a tool for the given architecture.
    pub fn new(registry: ServerTypeRegistry) -> Self {
        ConfigurationTool {
            registry,
            workloads: Vec::new(),
            analysis_options: AnalysisOptions::default(),
        }
    }

    /// Overrides how expected request counts are computed (exact vs the
    /// paper's truncated uniformization).
    pub fn with_analysis_options(mut self, options: AnalysisOptions) -> Self {
        self.analysis_options = options;
        self
    }

    /// The underlying registry.
    pub fn registry(&self) -> &ServerTypeRegistry {
        &self.registry
    }

    /// The registered workflow types and arrival rates.
    pub fn workloads(&self) -> &[(WorkflowSpec, f64)] {
        &self.workloads
    }

    /// Registers a workflow type with its arrival rate (instances per
    /// minute), validating the specification first.
    ///
    /// # Errors
    /// [`ConfigError::Spec`] on validation failure, or an invalid rate.
    pub fn add_workflow(
        &mut self,
        spec: WorkflowSpec,
        arrival_rate: f64,
    ) -> Result<(), ConfigError> {
        validate_spec(&spec, &self.registry)?;
        if !(arrival_rate.is_finite() && arrival_rate >= 0.0) {
            return Err(ConfigError::Perf(
                wfms_perf::PerfError::InvalidArrivalRate {
                    workflow: spec.name.clone(),
                    rate: arrival_rate,
                },
            ));
        }
        self.workloads.push((spec, arrival_rate));
        Ok(())
    }

    /// Changes the arrival rate of a registered workflow type — the entry
    /// point for "what if the load grows" reconfiguration studies.
    ///
    /// Returns `true` when the type was found.
    pub fn set_arrival_rate(&mut self, workflow: &str, arrival_rate: f64) -> bool {
        for (spec, rate) in &mut self.workloads {
            if spec.name == workflow {
                *rate = arrival_rate;
                return true;
            }
        }
        false
    }

    /// Analyzes one registered workflow type (turnaround + load).
    ///
    /// # Errors
    /// [`ConfigError`] when the name is unknown or the analysis fails.
    pub fn workflow_analysis(&self, workflow: &str) -> Result<WorkflowAnalysis, ConfigError> {
        let (spec, _) = self
            .workloads
            .iter()
            .find(|(s, _)| s.name == workflow)
            .ok_or_else(|| ConfigError::Calibration(format!("unknown workflow {workflow:?}")))?;
        Ok(analyze_workflow(
            spec,
            &self.registry,
            &self.analysis_options,
        )?)
    }

    /// Every registered workflow type analyzed once, in registration
    /// order, with its arrival rate: the mix
    /// [`ConfigurationTool::system_load`] aggregates.
    fn workload_items(&self) -> Result<Vec<WorkloadItem>, ConfigError> {
        let mut items = Vec::with_capacity(self.workloads.len());
        for (spec, rate) in &self.workloads {
            items.push(WorkloadItem {
                analysis: analyze_workflow(spec, &self.registry, &self.analysis_options)?,
                arrival_rate: *rate,
            });
        }
        Ok(items)
    }

    /// Aggregated system load of the full mix (Sec. 4.3).
    ///
    /// # Errors
    /// [`ConfigError`] when no workflows are registered or analysis fails.
    pub fn system_load(&self) -> Result<SystemLoad, ConfigError> {
        Ok(aggregate_load(&self.workload_items()?, &self.registry)?)
    }

    /// Availability of a configuration (Sec. 5), in product form: each
    /// type's birth–death marginal, read by
    /// [`wfms_avail::steady_state_marginal`] as the assessment engine
    /// reads it, multiplied in type order. The figure is therefore
    /// bit-identical to [`ConfigurationTool::assess`]'s, and exact at any
    /// size.
    ///
    /// # Errors
    /// * [`ConfigError::Avail`] on a registry mismatch or an injected
    ///   solver failure.
    /// * [`ConfigError::NonFiniteAssessment`] when a marginal leaves the
    ///   range of `f64`, as [`ConfigurationTool::assess`] reports it.
    pub fn availability(&self, config: &Configuration) -> Result<AvailabilityFigures, ConfigError> {
        let availability = ProductFormModel::new(&self.registry, config)?.availability();
        if !availability.is_finite() {
            return Err(ConfigError::NonFiniteAssessment {
                replicas: config.as_slice().to_vec(),
                what: "availability",
            });
        }
        Ok(AvailabilityFigures {
            availability,
            downtime_minutes_per_year: (1.0 - availability) * MINUTES_PER_YEAR,
        })
    }

    /// Performability of a configuration (Sec. 6).
    ///
    /// # Errors
    /// Model failures as [`ConfigError`].
    pub fn performability(
        &self,
        config: &Configuration,
        policy: DegradedPolicy,
    ) -> Result<PerformabilityReport, ConfigError> {
        let load = self.system_load()?;
        Ok(evaluate(&self.registry, config, &load, policy)?)
    }

    /// Maximum sustainable throughput of a configuration (Sec. 4.3).
    ///
    /// # Errors
    /// Model failures as [`ConfigError`].
    pub fn throughput(&self, config: &Configuration) -> Result<ThroughputReport, ConfigError> {
        let load = self.system_load()?;
        Ok(max_sustainable_throughput(&load, &self.registry, config)?)
    }

    /// Full goal assessment of one candidate configuration.
    ///
    /// # Errors
    /// Model failures as [`ConfigError`].
    pub fn assess(&self, config: &Configuration, goals: &Goals) -> Result<Assessment, ConfigError> {
        self.engine(goals, SearchOptions::default())?.assess(config)
    }

    /// An [`AssessmentEngine`] over this tool's registry and the
    /// aggregate load of the registered workloads. The engine memoizes
    /// per-type records and birth–death blocks across every assessment
    /// and search run through it —
    /// prefer one engine over repeated [`ConfigurationTool::assess`] /
    /// [`ConfigurationTool::recommend`] calls when probing many
    /// candidates or search strategies against the same goals.
    ///
    /// # Errors
    /// Invalid goals, preflight findings, or workflow-analysis failures
    /// as [`ConfigError`].
    pub fn engine(
        &self,
        goals: &Goals,
        opts: SearchOptions,
    ) -> Result<AssessmentEngine, ConfigError> {
        let load = self.system_load()?;
        AssessmentEngine::new(&self.registry, &load, goals, opts)
    }

    /// The engine of [`ConfigurationTool::engine`] plus each registered
    /// workflow's analysis: each workflow is analyzed once, and the
    /// engine runs on the aggregate load of those analyses. Returns each
    /// workflow's spec name with its analysis, in registration order.
    /// The spec name is kept because [`WorkflowAnalysis::name`] is the
    /// chart's name, and the two can differ.
    ///
    /// # Errors
    /// As [`ConfigurationTool::engine`].
    pub fn analyzed_engine(
        &self,
        goals: &Goals,
        opts: SearchOptions,
    ) -> Result<(AssessmentEngine, Vec<(String, WorkflowAnalysis)>), ConfigError> {
        let items = self.workload_items()?;
        let load = aggregate_load(&items, &self.registry)?;
        let engine = AssessmentEngine::new(&self.registry, &load, goals, opts)?;
        let analyses = self
            .workloads
            .iter()
            .zip(items)
            .map(|((spec, _), item)| (spec.name.clone(), item.analysis))
            .collect();
        Ok((engine, analyses))
    }

    /// Greedy minimum-cost recommendation (Sec. 7.2).
    ///
    /// # Errors
    /// [`ConfigError::GoalsUnreachable`] / [`ConfigError::LoadUnsustainable`]
    /// or model failures.
    pub fn recommend(
        &self,
        goals: &Goals,
        opts: &SearchOptions,
    ) -> Result<SearchResult, ConfigError> {
        self.engine(goals, *opts)?.greedy()
    }

    /// Exhaustive (provably minimum-cost) recommendation; exponential in
    /// the number of server types.
    ///
    /// # Errors
    /// As [`ConfigurationTool::recommend`].
    pub fn recommend_optimal(
        &self,
        goals: &Goals,
        opts: &SearchOptions,
    ) -> Result<SearchResult, ConfigError> {
        self.engine(goals, *opts)?.exhaustive()
    }

    /// Branch-and-bound recommendation: provably minimum-cost like
    /// [`ConfigurationTool::recommend_optimal`], but pruned with the
    /// per-type goal lower bounds (usually orders of magnitude fewer
    /// evaluations).
    ///
    /// # Errors
    /// As [`ConfigurationTool::recommend`].
    pub fn recommend_branch_and_bound(
        &self,
        goals: &Goals,
        opts: &SearchOptions,
    ) -> Result<SearchResult, ConfigError> {
        self.engine(goals, *opts)?.branch_and_bound()
    }

    /// Parameter-sensitivity elasticities of the goal metrics at `config`
    /// (which calibrated parameter to trust or improve first).
    ///
    /// # Errors
    /// Model failures as [`ConfigError`].
    pub fn sensitivity(
        &self,
        config: &Configuration,
        opts: &SensitivityOptions,
    ) -> Result<Vec<SensitivityEntry>, ConfigError> {
        let load = self.system_load()?;
        sensitivity(&self.registry, config, &load, opts)
    }

    /// Calibrates a registered workflow type from audit trails and folds
    /// the estimates back into its specification (Sec. 7.1).
    ///
    /// # Errors
    /// [`ConfigError::Calibration`] on bad trails or an unknown workflow.
    pub fn calibrate_workflow(
        &mut self,
        workflow: &str,
        traces: &[WorkflowTrace],
        opts: &ApplyOptions,
    ) -> Result<ApplyReport, ConfigError> {
        let calibrated = calibrate_from_traces(traces)?;
        let registry = self.registry.clone();
        let (spec, _) = self
            .workloads
            .iter_mut()
            .find(|(s, _)| s.name == workflow)
            .ok_or_else(|| ConfigError::Calibration(format!("unknown workflow {workflow:?}")))?;
        let report = apply_to_spec(spec, &calibrated, opts)?;
        validate_spec(spec, &registry)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_statechart::paper_section52_registry;
    use wfms_workloads::{ep_workflow, EP_DEFAULT_ARRIVAL_RATE};

    fn tool() -> ConfigurationTool {
        let mut t = ConfigurationTool::new(paper_section52_registry());
        t.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
            .unwrap();
        t
    }

    #[test]
    fn add_workflow_validates() {
        let mut t = ConfigurationTool::new(paper_section52_registry());
        let mut bad = ep_workflow();
        bad.activities.clear();
        assert!(matches!(
            t.add_workflow(bad, 0.5),
            Err(ConfigError::Spec(_))
        ));
        assert!(t.add_workflow(ep_workflow(), f64::NAN).is_err());
        assert!(t.add_workflow(ep_workflow(), 0.5).is_ok());
        assert_eq!(t.workloads().len(), 1);
    }

    #[test]
    fn system_load_reflects_arrival_rates() {
        let mut t = tool();
        let l1 = t.system_load().unwrap();
        assert!(t.set_arrival_rate("EP", EP_DEFAULT_ARRIVAL_RATE * 2.0));
        let l2 = t.system_load().unwrap();
        for x in 0..3 {
            assert!((l2.request_rates[x] - 2.0 * l1.request_rates[x]).abs() < 1e-9);
        }
        assert!(!t.set_arrival_rate("nope", 1.0));
    }

    #[test]
    fn workflow_analysis_exposes_turnaround() {
        let t = tool();
        let a = t.workflow_analysis("EP").unwrap();
        assert!(a.mean_turnaround > 0.0);
        assert_eq!(a.expected_requests.len(), 3);
        assert!(t.workflow_analysis("nope").is_err());
    }

    #[test]
    fn availability_matches_the_lu_oracle_and_the_closed_form() {
        use wfms_avail::{closed_form_unavailability, AvailabilityModel};
        use wfms_markov::ctmc::SteadyStateMethod;
        let t = tool();
        let config = Configuration::new(t.registry(), vec![2, 2, 3]).unwrap();
        let figures = t.availability(&config).unwrap();
        let model = AvailabilityModel::new(t.registry(), &config).unwrap();
        let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
        let lu = model.availability(&pi).unwrap();
        let closed = 1.0 - closed_form_unavailability(t.registry(), &config).unwrap();
        assert!((figures.availability - lu).abs() < 1e-14);
        assert!((figures.availability - closed).abs() < 1e-14);
        assert!(figures.downtime_minutes_per_year < 1.0);
        let assessed = t
            .assess(&config, &Goals::availability_only(0.5).unwrap())
            .unwrap();
        assert_eq!(
            figures.availability.to_bits(),
            assessed.availability.to_bits()
        );
    }

    #[test]
    fn availability_past_the_marginals_range_is_an_error() {
        use wfms_statechart::{ServerType, ServerTypeKind};
        // A type down half the time: its birth–death walk leaves the
        // range of f64 near a thousand replicas.
        let mut registry = ServerTypeRegistry::new();
        registry
            .register(ServerType::with_exponential_service(
                "flaky",
                ServerTypeKind::ApplicationServer,
                0.1,
                0.1,
                0.01,
            ))
            .unwrap();
        let t = ConfigurationTool::new(registry);
        let small = Configuration::new(t.registry(), vec![100]).unwrap();
        assert!(t.availability(&small).unwrap().availability.is_finite());
        let large = Configuration::new(t.registry(), vec![5_000]).unwrap();
        assert!(matches!(
            t.availability(&large),
            Err(ConfigError::NonFiniteAssessment {
                what: "availability",
                ..
            })
        ));
    }

    #[test]
    fn recommend_meets_goals_and_beats_nothing_smaller() {
        let t = tool();
        let goals = Goals::new(0.05, 0.9999).unwrap();
        let rec = t.recommend(&goals, &SearchOptions::default()).unwrap();
        assert!(rec.assessment.meets_goals());
        let optimal = t
            .recommend_optimal(&goals, &SearchOptions::default())
            .unwrap();
        assert!(rec.cost() >= optimal.cost());
        assert!(rec.cost() <= optimal.cost() + 1);
        let bnb = t
            .recommend_branch_and_bound(&goals, &SearchOptions::default())
            .unwrap();
        assert_eq!(bnb.cost(), optimal.cost());
        assert!(bnb.evaluations <= optimal.evaluations);
    }

    #[test]
    fn throughput_reports_bottleneck() {
        let t = tool();
        let config = Configuration::uniform(t.registry(), 2).unwrap();
        let report = t.throughput(&config).unwrap();
        assert!(report.max_throughput > 0.0);
        assert!(report.capacity.len() == 3);
    }

    #[test]
    fn performability_runs_for_ep() {
        let t = tool();
        let config = Configuration::uniform(t.registry(), 2).unwrap();
        let report = t
            .performability(&config, DegradedPolicy::Conditional)
            .unwrap();
        assert_eq!(report.expected_waiting.len(), 3);
        assert!(report.probability_serving > 0.9);
    }

    #[test]
    fn sensitivity_through_the_facade() {
        let t = tool();
        let config = Configuration::uniform(t.registry(), 2).unwrap();
        let entries = t
            .sensitivity(&config, &wfms_config::SensitivityOptions::default())
            .unwrap();
        // 3 parameters per type + the arrival scale.
        assert_eq!(entries.len(), 3 * 3 + 1);
        assert!(entries
            .iter()
            .any(|e| e.label.contains("application-server")));
    }

    #[test]
    fn calibrate_unknown_workflow_errors() {
        let mut t = tool();
        let traces = vec![wfms_config::WorkflowTrace {
            workflow_type: "EP".into(),
            visits: vec![wfms_config::StateVisit {
                state: "NewOrder_S".into(),
                duration_minutes: 5.0,
            }],
        }];
        assert!(matches!(
            t.calibrate_workflow("nope", &traces, &ApplyOptions::default()),
            Err(ConfigError::Calibration(_))
        ));
    }
}
