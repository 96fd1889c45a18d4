//! Performability study (Sec. 6): how failures and degraded system
//! states inflate the expected waiting time beyond the failure-blind
//! performance model, on the five-server-type enterprise scenario.
//!
//! ```sh
//! cargo run --example performability_study
//! ```

use wfms::perf::waiting_times;
use wfms::workloads::{enterprise_mix, enterprise_registry};
use wfms::{Configuration, ConfigurationTool, Goals};

fn main() {
    let registry = enterprise_registry();
    let mut tool = ConfigurationTool::new(registry);
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate)
            .expect("enterprise workflows validate");
    }
    let load = tool.system_load().expect("load aggregates");
    // The goals the enterprise scenario is configured against (3-second
    // waits, four nines); the figures printed below do not depend on them.
    let goals = Goals::new(0.05, 0.9999).expect("valid goals");

    println!("Enterprise mix: {} workflow types", tool.workloads().len());
    for (name, n) in &load.active_instances {
        println!("  {:18} {:>8.1} active instances", name, n);
    }

    println!("\nPer-type offered load:");
    for (x, (_, t)) in tool.registry().iter().enumerate() {
        println!(
            "  {:16} l_x = {:>8.2}/min  (demand {:.2} servers)",
            t.name,
            load.request_rates[x],
            load.request_rates[x] * t.service_time_mean
        );
    }

    // Compare failure-blind waiting with the performability expectation
    // across increasingly replicated configurations.
    println!(
        "\n{:^18} | {:^12} | {:^14} | {:^12} | {:^12}",
        "config", "blind wait", "performability", "P(degraded)", "P(down)"
    );
    println!("{}", "-".repeat(80));
    for y in 2..=5usize {
        let config = Configuration::uniform(tool.registry(), y).unwrap();
        let blind = waiting_times(&load, tool.registry(), config.as_slice()).unwrap();
        let blind_max = blind
            .iter()
            .filter_map(|o| o.waiting_time())
            .fold(f64::NAN, f64::max);
        let assessment = tool
            .assess(&config, &goals)
            .expect("the configuration assesses");
        let wait = assessment
            .max_expected_waiting
            .expect("the configuration serves the load");
        println!(
            "{:^18} | {:>9.2} s | {:>11.2} s | {:>12.4} | {:>12.6}",
            format!("{config}"),
            blind_max * 60.0,
            wait * 60.0,
            assessment.probability_saturated,
            1.0 - assessment.availability
        );
    }

    // Per-type detail for one configuration: type x's performability
    // wait averages its M/G/1 wait over its own degraded up-counts, so it
    // sits above the failure-blind wait at full strength.
    let config = Configuration::uniform(tool.registry(), 3).unwrap();
    let assessment = tool
        .assess(&config, &goals)
        .expect("the configuration assesses");
    let waits = assessment
        .expected_waiting
        .as_ref()
        .expect("3-way replication serves the load");
    let blind = waiting_times(&load, tool.registry(), config.as_slice()).unwrap();
    println!("\nPer-type detail for {config}:");
    println!(
        "{:^16} | {:^12} | {:^14}",
        "server type", "blind wait", "performability"
    );
    println!("{}", "-".repeat(48));
    for (((_, t), blind), wait) in tool.registry().iter().zip(&blind).zip(waits) {
        let blind = match blind.waiting_time() {
            Some(w) => format!("{:.2} s", w * 60.0),
            None => "saturated".to_string(),
        };
        println!("{:16} | {:>12} | {:>12.2} s", t.name, blind, wait * 60.0);
    }
    println!(
        "\nConditional performability: W = {:.2} s; serving probability {:.6}.",
        assessment
            .max_expected_waiting
            .expect("3-way replication serves the load")
            * 60.0,
        assessment.availability - assessment.probability_saturated
    );
}
