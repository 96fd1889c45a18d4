//! EXP-X3 (extension) — search-method comparison and product-form scaling.
//!
//! Compares the paper's greedy heuristic, the exhaustive optimum, and the
//! simulated-annealing search (the paper's named "full-fledged
//! optimization" alternative) on the five-type enterprise scenario, then
//! answers availability chains far past the dense cap in product form and
//! checks each answer against the closed form.

use std::time::Instant;

use wfms_avail::{closed_form_unavailability, ProductFormModel};
use wfms_bench::Table;
use wfms_config::{AnnealingOptions, AssessmentEngine, Goals, SearchOptions};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, WorkloadItem};
use wfms_statechart::{Configuration, ServerType, ServerTypeKind, ServerTypeRegistry};
use wfms_workloads::{enterprise_mix, enterprise_registry};

fn main() {
    let registry = enterprise_registry();
    let mut items = Vec::new();
    for (spec, rate) in enterprise_mix() {
        let analysis =
            analyze_workflow(&spec, &registry, &AnalysisOptions::default()).expect("analyzes");
        items.push(WorkloadItem {
            analysis,
            arrival_rate: rate,
        });
    }
    let load = aggregate_load(&items, &registry).expect("aggregates");

    println!("EXP-X3: search methods on the 5-type enterprise scenario\n");
    let goals = Goals::new(0.01, 0.9999)
        .expect("valid")
        .with_type_waiting(4, 0.005) // tighter SLA on the ERP app server
        .expect("valid");
    let opts = SearchOptions::builder().max_total_servers(64).build();

    let mut table = Table::new(&["method", "Y", "cost", "evaluations", "wall time"]);
    let t0 = Instant::now();
    let greedy = AssessmentEngine::new(&registry, &load, &goals, opts)
        .expect("valid")
        .greedy()
        .expect("reachable");
    table.row(vec![
        "greedy (paper)".into(),
        format!("{:?}", greedy.replicas()),
        greedy.cost().to_string(),
        greedy.evaluations.to_string(),
        format!("{:.1?}", t0.elapsed()),
    ]);
    let t0 = Instant::now();
    let anneal_opts = AnnealingOptions {
        steps: 600,
        ..AnnealingOptions::default()
    };
    let annealed = AssessmentEngine::new(&registry, &load, &goals, opts)
        .expect("valid")
        .annealing(&anneal_opts)
        .expect("reachable");
    table.row(vec![
        "simulated annealing".into(),
        format!("{:?}", annealed.assessment.replicas),
        annealed.cost().to_string(),
        annealed.evaluations.to_string(),
        format!("{:.1?}", t0.elapsed()),
    ]);
    let t0 = Instant::now();
    let bnb = AssessmentEngine::new(&registry, &load, &goals, opts)
        .expect("valid")
        .branch_and_bound()
        .expect("reachable");
    table.row(vec![
        "branch & bound".into(),
        format!("{:?}", bnb.replicas()),
        bnb.cost().to_string(),
        bnb.evaluations.to_string(),
        format!("{:.1?}", t0.elapsed()),
    ]);
    let t0 = Instant::now();
    let optimal = AssessmentEngine::new(&registry, &load, &goals, opts)
        .expect("valid")
        .exhaustive()
        .expect("reachable");
    table.row(vec![
        "exhaustive".into(),
        format!("{:?}", optimal.replicas()),
        optimal.cost().to_string(),
        optimal.evaluations.to_string(),
        format!("{:.1?}", t0.elapsed()),
    ]);
    table.print();
    assert_eq!(bnb.cost(), optimal.cost(), "B&B is provably optimal");

    // Product-form availability scaling.
    println!("\nProduct-form availability past the dense cap (independent repair):\n");
    let mut table = Table::new(&["k", "Y", "states", "solve", "|Δ| vs closed form"]);
    for (k, y) in [(6usize, 4usize), (8, 3), (8, 4), (10, 3)] {
        let mut reg = ServerTypeRegistry::new();
        for i in 0..k {
            reg.register(ServerType::with_exponential_service(
                format!("t{i}"),
                ServerTypeKind::ApplicationServer,
                1.0 / (1_440.0 * (1 + i % 3) as f64),
                0.1,
                0.01,
            ))
            .expect("valid");
        }
        let config = Configuration::uniform(&reg, y).expect("valid");
        let t0 = Instant::now();
        let model = ProductFormModel::new(&reg, &config).expect("builds");
        let u = model.unavailability();
        let elapsed = t0.elapsed();
        let closed = closed_form_unavailability(&reg, &config).expect("valid");
        table.row(vec![
            k.to_string(),
            y.to_string(),
            config.system_state_count().to_string(),
            format!("{elapsed:.1?}"),
            format!("{:.1e}", (u - closed).abs()),
        ]);
    }
    table.print();
}
