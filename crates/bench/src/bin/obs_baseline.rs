//! OBS-BASELINE — seeds `BENCH_obs.json` with stage timings and
//! iteration counts for the ep and enterprise reference scenarios, so
//! future PRs can diff solver behaviour against a known-good trajectory.
//! Each scenario runs [`RUNS`] times in one process, and each stage is
//! timed by its smallest per-run total — the measure the share gate
//! compares (`wfms profile --runs 3 --baseline …` in CI).

use wfms_bench::obs;
use wfms_core::config::Goals;
use wfms_core::perf::TurnaroundDistribution;
use wfms_core::{Configuration, ConfigurationTool, SearchOptions};
use wfms_statechart::paper_section52_registry;
use wfms_workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_SIM_ARRIVAL_RATE};

/// Runs per scenario: as many as the CI share gate's `--runs 3`.
const RUNS: usize = 3;

/// One full pass over the analysis stack, mirroring one `wfms profile`
/// run: per-workflow transient analysis, an engine-backed assessment, a
/// greedy search and a cache-replay re-assessment. Keeping the stage
/// *mix* identical to `wfms profile` matters because `profile
/// --baseline` gates on each stage's **share** of total stage time — a
/// baseline recorded over a different mix would make the shares
/// incomparable.
fn exercise(tool: &ConfigurationTool, goals: &Goals) {
    for (spec, _) in tool.workloads() {
        let analysis = tool.workflow_analysis(&spec.name).expect("analyzable");
        let dist = TurnaroundDistribution::new(&analysis, 1e-9).expect("uniformizable");
        dist.percentile(0.9).expect("percentile");
    }
    let config = Configuration::uniform(tool.registry(), 2).expect("valid");
    let engine = tool
        .engine(goals, SearchOptions::default())
        .expect("engine");
    engine.assess(&config).expect("assessable");
    match engine.greedy() {
        Ok(_)
        | Err(wfms_core::ConfigError::GoalsUnreachable { .. })
        | Err(wfms_core::ConfigError::LoadUnsustainable { .. }) => {}
        Err(e) => panic!("greedy search failed: {e}"),
    }
    engine.assess(&config).expect("assessable");
}

fn main() {
    let goals = Goals::new(0.05, 0.9999).expect("valid goals");

    let mut ep = ConfigurationTool::new(paper_section52_registry());
    ep.add_workflow(ep_workflow(), EP_SIM_ARRIVAL_RATE)
        .expect("EP registers");
    obs::start();
    let run_ends: Vec<usize> = (0..RUNS)
        .map(|_| {
            exercise(&ep, &goals);
            obs::run_end()
        })
        .collect();
    let record = obs::finish_runs("ep", &run_ends);
    println!(
        "ep: {} stages, {} counters",
        record.stages.len(),
        record.counters.len()
    );

    let mut enterprise = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        enterprise.add_workflow(spec, rate).expect("registers");
    }
    obs::start();
    let run_ends: Vec<usize> = (0..RUNS)
        .map(|_| {
            exercise(&enterprise, &goals);
            obs::run_end()
        })
        .collect();
    let record = obs::finish_runs("enterprise", &run_ends);
    println!(
        "enterprise: {} stages, {} counters",
        record.stages.len(),
        record.counters.len()
    );
}
