//! The public surface of the assessment engine, whose availability is
//! the product form `Π_x (1 − m_x[0])` over per-type birth–death
//! marginals: the three search options, the record and block caches it
//! reports, its construction errors, and its agreement with
//! [`ProductFormModel`]. The numeric contracts (bit-identity to a fresh
//! engine, the LU and joint-fold oracles) live in `wfms-config`'s unit
//! tests and `tests/exact_path_grid.rs`.

use wfms::avail::ProductFormModel;
use wfms::statechart::Configuration;
use wfms::workloads::{enterprise_mix, enterprise_registry};
use wfms::{AssessmentEngine, ConfigError, ConfigurationTool, Goals, SearchOptions};

fn enterprise_tool() -> (ConfigurationTool, Goals) {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    (tool, Goals::new(0.01, 0.9999).unwrap())
}

#[test]
fn engine_module_has_a_test_for_the_engine_level_contract() {
    // Every field spelled out: an option added or removed fails to
    // compile here.
    let opts = SearchOptions {
        max_total_servers: 64,
        state_cache_capacity: 65_536,
        strict: false,
    };
    assert_eq!(opts, SearchOptions::default());

    let (tool, goals) = enterprise_tool();
    let load = tool.system_load().unwrap();
    let engine = AssessmentEngine::new(tool.registry(), &load, &goals, opts).unwrap();
    let config = Configuration::uniform(tool.registry(), 2).unwrap();
    let assessment = engine.assess(&config).unwrap();
    // One `(type, Y_x)` record and one block per server type.
    let stats = engine.cache_stats();
    assert_eq!((stats.state_entries, stats.block_entries), (5, 5));
    assert_eq!((stats.hits, stats.misses), (0, 5));
    // The same marginals, multiplied in the same order.
    let product = ProductFormModel::new(tool.registry(), &config).unwrap();
    assert_eq!(
        assessment.availability.to_bits(),
        product.availability().to_bits()
    );

    let no_goals = Goals {
        max_waiting_time: None,
        min_availability: None,
        per_type_waiting: Vec::new(),
    };
    assert!(matches!(
        AssessmentEngine::new(tool.registry(), &load, &no_goals, opts),
        Err(ConfigError::NoGoals)
    ));

    // `wfms availability` answers with the same product.
    assert_eq!(
        tool.availability(&config).unwrap().availability.to_bits(),
        assessment.availability.to_bits()
    );
}
