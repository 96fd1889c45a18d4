//! The seeded scenario ladder: three generated systems whose sizes
//! change which layer dominates an assessment (WfBench-style: the seed
//! makes the workflows, nothing is downloaded).
//!
//! | rung | types k | activities n | workflows w | dominated by |
//! |---|---|---|---|---|
//! | S | 3 | 10 | 2 | per-call overhead |
//! | M | 3 | 60 | 2 | the turnaround percentile |
//! | L | 5 | 15 | 3 | the dense availability LU |
//!
//! The seed decides the order of each workflow's stages, their request
//! counts, which application server an automated activity calls, the
//! load and mean time to failure of every server type, and which
//! application server is
//! *hot*: loaded so that at the three replicas the availability goal asks
//! of it, its expected wait misses the waiting goal, so the search must
//! give it a fourth. The waiting goal therefore binds on every seed, on
//! a server that changes from one seed to the next on rungs with several
//! application servers, and the recommended configurations and waits
//! differ between seeds. What stays fixed is the size of the problem:
//! stages are shuffled whole (see [`workflow`]), so the turnaround
//! percentile has the same work on every seed, every greedy search takes
//! the same number of steps, and every answer's availability chain has
//! the same number of states.

use wfms_core::perf::{aggregate_load, analyze_workflow, AnalysisOptions, WorkloadItem};
use wfms_core::statechart::{
    ActivityKind, ActivitySpec, ChartBuilder, EcaRule, ServerType, ServerTypeKind,
    ServerTypeRegistry, WorkflowSpec,
};
use wfms_serve::{WorkloadEntry, WorkloadFile};

use crate::replay::MAX_WAIT;

/// The splitmix64 generator: a 64-bit state advanced by a Weyl constant
/// and mixed, so nearby seeds give unrelated streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` on the independent stream `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn between(&mut self, (lo, hi): (f64, f64)) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// One rung of the ladder: the size of a generated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Rung label, `S`, `M` or `L`.
    pub name: &'static str,
    /// Server types `k`.
    pub types: usize,
    /// Activities `n`, summed over all workflows.
    pub activities: usize,
    /// Workflow types `w`.
    pub workflows: usize,
}

/// The rungs, smallest first. A k = 6 rung is left out on purpose: its
/// answer's chain has thousands of states, and one pass over it (the
/// greedy search plus the assessment, each ending in dense LU solves of
/// that chain) takes seconds, a large share of a measured run.
pub const RUNGS: [Rung; 3] = [
    Rung {
        name: "S",
        types: 3,
        activities: 10,
        workflows: 2,
    },
    Rung {
        name: "M",
        types: 3,
        activities: 60,
        workflows: 2,
    },
    Rung {
        name: "L",
        types: 5,
        activities: 15,
        workflows: 3,
    },
];

/// Ladders generated per benchmark seed. A run's ops pass over them in
/// turn, so that a run measures several generated systems rather than
/// one draw: a single ladder's pass takes from 350 to 420 ms at the
/// reference speed depending on its draws, and ten runs on ten seeds of
/// one ladder each would spread by that much.
pub const LADDERS_PER_SEED: usize = 6;

/// The generator seed of ladder `v` of benchmark seed `seed`. The
/// ladders of one seed have consecutive generator seeds, so their hot
/// servers cycle through every application server of a rung (see
/// [`hot_server`]), and no two benchmark seeds share a ladder.
pub fn ladder_seed(seed: u64, v: usize) -> u64 {
    seed.wrapping_mul(LADDERS_PER_SEED as u64)
        .wrapping_add(v as u64)
}

/// A generated system: the two documents `wfms` reads.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The server-type registry (`registry.json`).
    pub registry: ServerTypeRegistry,
    /// The workflow repository (`workload.json`).
    pub workload: WorkloadFile,
}

/// The ranges the mean times to failure are drawn from, in minutes, by
/// server kind: two to six weeks for the communication server, half a
/// week to two weeks for the engine, eight to fifteen hours for an
/// application server. Every draw leaves the replicas the availability
/// goal asks for at two, two and three (see [`APP_REPLICAS`]): one
/// replica of the first two kinds, or two of an application server,
/// fall short of 0.9999 on their own.
const MTTF: [(f64, f64); 3] = [(20_160.0, 60_480.0), (5_040.0, 20_160.0), (480.0, 900.0)];
/// The common mean time to repair, in minutes.
const MTTR: f64 = 10.0;

/// The range the utilisation of one replica carrying a type's whole load
/// is drawn from, for the communication server and the engine: far
/// enough below the two replicas the availability goal asks of them that
/// their waits stay well inside the waiting goal.
const SLACK_UTILISATION: (f64, f64) = (0.3, 0.9);

/// The range the expected wait at [`APP_REPLICAS`] replicas of an
/// application server that is not hot is drawn from, as a multiple of the
/// waiting goal: well inside it, so the search never gives such a server
/// a fourth replica. A utilisation drawn without regard to the server's
/// request rate missed the goal now and then, and the search then took a
/// step more, over a chain of 900 states rather than 720.
const SLACK_WAIT: (f64, f64) = (0.1, 0.5);

/// Replicas the availability goal asks of an application server: one
/// replica is down a share of 1/49 to 1/91 of the time, so two miss 0.9999
/// by themselves and three leave room for every other type.
const APP_REPLICAS: f64 = 3.0;

/// The range the hot server's expected wait at [`APP_REPLICAS`] replicas
/// is drawn from, as a multiple of the waiting goal. Above 1, so the goal
/// forces a fourth replica; at most 3, so the fourth brings the wait
/// well inside the goal.
const HOT_WAIT: (f64, f64) = (1.5, 3.0);

/// Instances per minute of every generated workflow type.
const ARRIVAL_RATE: f64 = 100.0;

/// Activity durations in minutes, cycled through by each workflow.
const DURATIONS: [f64; 7] = [0.5, 2.0, 5.0, 15.0, 30.0, 60.0, 240.0];

/// Retry probabilities of the activities, cycled like [`DURATIONS`].
const LOOP_PROBABILITIES: [f64; 4] = [0.0, 0.0, 0.1, 0.2];

/// Generates the scenario of `rung` for `seed`.
///
/// # Errors
/// A message when the generated workflows fail to build or analyse,
/// which would be a bug in the generator.
pub fn generate(rung: Rung, seed: u64) -> Result<Scenario, String> {
    let mut rng = SplitMix64::new(seed, rung.types as u64 * 1000 + rung.activities as u64);
    let apps = rung.types - 2;
    let per_workflow = rung.activities / rung.workflows;
    let mut app_turn = rng.below(apps);
    let mut workflows = Vec::with_capacity(rung.workflows);
    for w in 0..rung.workflows {
        let spec = workflow(rung, w, per_workflow, &mut rng, &mut app_turn)?;
        workflows.push(WorkloadEntry {
            arrival_rate: ARRIVAL_RATE,
            spec,
        });
    }
    let workload = WorkloadFile { workflows };
    let mttf: Vec<f64> = (0..rung.types)
        .map(|x| rng.between(MTTF[x.min(2)]))
        .collect();
    // Requests per minute at each type under unit service times fix the
    // service time that gives the target utilisation.
    let unit = registry(rung, &vec![1.0; rung.types], &mttf)?;
    let mut items = Vec::with_capacity(workload.workflows.len());
    for entry in &workload.workflows {
        let analysis = analyze_workflow(&entry.spec, &unit, &AnalysisOptions::default())
            .map_err(|e| format!("ladder {}: {e}", rung.name))?;
        items.push(WorkloadItem {
            analysis,
            arrival_rate: entry.arrival_rate,
        });
    }
    let load = aggregate_load(&items, &unit).map_err(|e| format!("ladder {}: {e}", rung.name))?;
    let hot = hot_server(rung, seed);
    let service: Vec<f64> = load
        .request_rates
        .iter()
        .enumerate()
        .map(|(x, &rate)| {
            let rho = if x == hot {
                app_utilisation(rate, rng.between(HOT_WAIT) * MAX_WAIT)
            } else if x >= 2 {
                app_utilisation(rate, rng.between(SLACK_WAIT) * MAX_WAIT)
            } else {
                rng.between(SLACK_UTILISATION)
            };
            rho / rate
        })
        .collect();
    Ok(Scenario {
        registry: registry(rung, &service, &mttf)?,
        workload,
    })
}

/// Registry index of the hot application server of `rung` for `seed`.
/// Cycled rather than drawn, so that consecutive seeds, such as the
/// ladders of one benchmark seed, never share it.
fn hot_server(rung: Rung, seed: u64) -> usize {
    2 + (seed % (rung.types as u64 - 2)) as usize
}

/// The utilisation `ρ` of one replica carrying all of a type's `rate`
/// requests per minute at which [`APP_REPLICAS`] replicas wait `wait`
/// minutes on average.
///
/// Each of `Y` replicas is an M/G/1 queue fed `rate / Y` requests per
/// minute; with exponential service of mean `s = ρ / rate` its mean wait
/// is `ρ² / (rate · (Y − ρ))`. Setting that to `wait` gives the quadratic
/// `ρ² + a·ρ − a·Y = 0` with `a = wait · rate`, whose positive root lies
/// below `Y`, so the type is stable at `Y` replicas, and a hot server
/// misses the waiting goal there, not stability.
fn app_utilisation(rate: f64, wait: f64) -> f64 {
    let a = wait * rate;
    (-a + (a * a + 4.0 * a * APP_REPLICAS).sqrt()) / 2.0
}

/// The registry of `rung` with the given mean service times and times
/// to failure.
fn registry(rung: Rung, service: &[f64], mttf: &[f64]) -> Result<ServerTypeRegistry, String> {
    let mut reg = ServerTypeRegistry::new();
    for (x, (&mean, &mttf)) in service.iter().zip(mttf).enumerate().take(rung.types) {
        let (name, kind) = match x {
            0 => ("orb".to_string(), ServerTypeKind::Communication),
            1 => ("engine".to_string(), ServerTypeKind::WorkflowEngine),
            _ => (format!("app-{}", x - 1), ServerTypeKind::ApplicationServer),
        };
        reg.register(ServerType::with_exponential_service(
            name,
            kind,
            1.0 / mttf,
            1.0 / MTTR,
            mean,
        ))
        .map_err(|e| format!("ladder {}: {e}", rung.name))?;
    }
    Ok(reg)
}

/// One sequential workflow of `m` activities, each retried in place with
/// its loop probability. The stages — a duration, a loop probability,
/// and whether the activity is interactive (no application server) —
/// come from fixed cyclic lists and are shuffled as whole stages: a
/// chain's turnaround is the sum of its stage times whatever their
/// order, so every seed poses the same percentile problem.
fn workflow(
    rung: Rung,
    w: usize,
    m: usize,
    rng: &mut SplitMix64,
    app_turn: &mut usize,
) -> Result<WorkflowSpec, String> {
    let name = format!("{}{}", rung.name, w + 1);
    let mut stages: Vec<(f64, f64, bool)> = (0..m)
        .map(|i| {
            (
                DURATIONS[i % DURATIONS.len()],
                LOOP_PROBABILITIES[i % LOOP_PROBABILITIES.len()],
                i % 3 == 2,
            )
        })
        .collect();
    rng.shuffle(&mut stages);
    let state = |i: usize| format!("{name}_S{i}");
    let activity = |i: usize| format!("{name}_A{i}");
    let init = format!("{name}_INIT");
    let exit = format!("{name}_EXIT");

    let mut builder = ChartBuilder::new(name.clone()).initial(init.clone());
    for i in 0..m {
        builder = builder.activity_state(state(i), activity(i));
    }
    builder = builder
        .final_state(exit.clone())
        .transition(init, state(0), 1.0, EcaRule::default());
    let mut activities = Vec::with_capacity(m);
    let apps = rung.types - 2;
    for (i, &(duration, retry, interactive)) in stages.iter().enumerate() {
        let next = if i + 1 < m {
            state(i + 1)
        } else {
            exit.clone()
        };
        let done = EcaRule::on_done(&activity(i));
        builder = if retry > 0.0 {
            builder
                .transition(state(i), next, 1.0 - retry, done)
                .transition(state(i), state(i), retry, EcaRule::default())
        } else {
            builder.transition(state(i), next, 1.0, done)
        };
        let mut load = vec![0.0; rung.types];
        load[0] = 1.0 + rng.below(2) as f64;
        load[1] = 2.0 + rng.below(2) as f64;
        let kind = if interactive {
            ActivityKind::Interactive
        } else {
            load[2 + *app_turn] = 1.0 + rng.below(3) as f64;
            *app_turn = (*app_turn + 1) % apps;
            ActivityKind::Automated
        };
        activities.push(ActivitySpec::new(activity(i), kind, duration, load));
    }
    let chart = builder.build().map_err(|e| format!("ladder {name}: {e}"))?;
    Ok(WorkflowSpec::new(name, chart, activities))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_core::analysis::{analyze, SystemUnderAnalysis};

    fn documents(s: &Scenario) -> (String, String) {
        (
            serde_json::to_string_pretty(&s.registry).expect("registry serializes"),
            serde_json::to_string_pretty(&s.workload).expect("workload serializes"),
        )
    }

    #[test]
    fn the_same_seed_gives_byte_identical_specs() {
        for rung in RUNGS {
            let a = documents(&generate(rung, 7).expect("generates"));
            let b = documents(&generate(rung, 7).expect("generates"));
            assert_eq!(a, b, "rung {}", rung.name);
            let c = documents(&generate(rung, 8).expect("generates"));
            assert_ne!(a.1, c.1, "rung {}: seeds 7 and 8 agree", rung.name);
        }
    }

    #[test]
    fn every_rung_lints_clean() {
        for seed in 1..=6 {
            for rung in RUNGS {
                let s = generate(rung, seed).expect("generates");
                let mix: Vec<(WorkflowSpec, f64)> = s
                    .workload
                    .workflows
                    .iter()
                    .map(|e| (e.spec.clone(), e.arrival_rate))
                    .collect();
                let findings = analyze(&SystemUnderAnalysis {
                    registry: &s.registry,
                    workload: &mix,
                    replicas: None,
                    goals: None,
                    max_total_servers: None,
                });
                assert_eq!(
                    findings.error_count(),
                    0,
                    "rung {} seed {seed}: {}",
                    rung.name,
                    findings.summary()
                );
            }
        }
    }

    #[test]
    fn rung_sizes_match_the_table() {
        let sizes: Vec<(&str, usize, usize, usize)> = RUNGS
            .iter()
            .map(|r| (r.name, r.types, r.activities, r.workflows))
            .collect();
        assert_eq!(sizes, [("S", 3, 10, 2), ("M", 3, 60, 2), ("L", 5, 15, 3)]);
        for rung in RUNGS {
            let s = generate(rung, 3).expect("generates");
            assert_eq!(s.registry.len(), rung.types);
            assert_eq!(s.workload.workflows.len(), rung.workflows);
            let n: usize = s
                .workload
                .workflows
                .iter()
                .map(|e| e.spec.activities.len())
                .sum();
            assert_eq!(n, rung.activities, "rung {}", rung.name);
        }
    }

    /// What a scenario poses and how the search answers it.
    struct Problem {
        /// The p90 turnaround of every workflow, sorted.
        p90: Vec<f64>,
        /// The greedy recommendation, its availability, and the number
        /// of candidates the search assessed on its way.
        winner: Vec<usize>,
        availability: f64,
        evaluations: usize,
        /// The recommendation with one replica fewer of the hot server:
        /// whether it meets the availability goal and the waiting goal.
        one_fewer_meets: (bool, bool),
    }

    fn problem(s: &Scenario, hot: usize) -> Problem {
        let items: Vec<WorkloadItem> = s
            .workload
            .workflows
            .iter()
            .map(|e| WorkloadItem {
                analysis: analyze_workflow(&e.spec, &s.registry, &AnalysisOptions::default())
                    .expect("analyses"),
                arrival_rate: e.arrival_rate,
            })
            .collect();
        let mut p90: Vec<f64> = items
            .iter()
            .map(|i| {
                wfms_core::perf::TurnaroundDistribution::new(&i.analysis, 1e-9)
                    .and_then(|d| d.percentile(0.9))
                    .expect("percentile")
            })
            .collect();
        p90.sort_by(f64::total_cmp);
        let load = aggregate_load(&items, &s.registry).expect("load");
        let goals = crate::replay::goals().expect("goals");
        let engine = wfms_core::AssessmentEngine::new(
            &s.registry,
            &load,
            &goals,
            wfms_core::SearchOptions::default(),
        )
        .expect("engine");
        let search = engine.greedy().expect("greedy");
        let best = search.assessment;
        let winner = best.replicas;
        let mut fewer = winner.clone();
        fewer[hot] -= 1;
        let config = wfms_core::Configuration::new(&s.registry, fewer).expect("configuration");
        let a = engine.assess(&config).expect("assesses");
        let waits_met = a
            .max_expected_waiting
            .is_some_and(|w| w <= crate::replay::MAX_WAIT);
        Problem {
            p90,
            winner,
            availability: best.availability,
            evaluations: search.evaluations,
            one_fewer_meets: (a.availability >= crate::replay::MIN_AVAILABILITY, waits_met),
        }
    }

    fn states(replicas: &[usize]) -> usize {
        replicas.iter().map(|y| y + 1).product()
    }

    #[test]
    fn the_seed_changes_the_answer_not_the_size_of_the_problem() {
        for rung in RUNGS {
            let first = problem(&generate(rung, 1).expect("generates"), hot_server(rung, 1));
            let mut winners = std::collections::BTreeSet::new();
            // Benchmark seed 25 makes a ladder (generator seed 153) on
            // which a search once took a step more; see `SLACK_WAIT`.
            let ladders = (0..LADDERS_PER_SEED).map(|v| ladder_seed(25, v));
            for seed in (1..=8).chain(ladders) {
                let hot = hot_server(rung, seed);
                let p = problem(&generate(rung, seed).expect("generates"), hot);
                let label = format!("rung {} seed {seed}", rung.name);
                assert_eq!(p.winner[hot], 4, "{label}: {:?}", p.winner);
                assert_eq!(p.one_fewer_meets, (true, false), "{label}: {:?}", p.winner);
                assert_eq!(states(&p.winner), states(&first.winner), "{label}");
                assert_eq!(p.evaluations, first.evaluations, "{label}");
                for (a, b) in first.p90.iter().zip(&p.p90) {
                    assert!((a - b).abs() <= 1e-6 * a, "{label}: p90 {a} vs {b}");
                }
                winners.insert(p.winner);
            }
            if rung.types > 3 {
                assert!(winners.len() > 1, "rung {}: {winners:?}", rung.name);
            }
        }
    }

    #[test]
    fn the_holdout_seed_poses_another_problem() {
        for rung in RUNGS {
            let answer = |seed| {
                let p = problem(
                    &generate(rung, seed).expect("generates"),
                    hot_server(rung, seed),
                );
                (p.winner, p.availability)
            };
            let (development, holdout) = (answer(1), answer(2));
            assert_ne!(development.1, holdout.1, "rung {}", rung.name);
            if rung.types > 3 {
                assert_ne!(development.0, holdout.0, "rung {}", rung.name);
            }
        }
    }

    #[test]
    fn a_seed_s_ladders_cycle_the_hot_server_and_no_seeds_share_one() {
        let seeds = |seed| (0..LADDERS_PER_SEED).map(move |v| ladder_seed(seed, v));
        for rung in RUNGS {
            let hot: std::collections::BTreeSet<usize> =
                seeds(1).map(|s| hot_server(rung, s)).collect();
            assert_eq!(hot.len(), rung.types - 2, "rung {}", rung.name);
        }
        for seed in 1..=4 {
            assert!(seeds(seed).all(|s| !seeds(seed + 1).any(|t| t == s)));
        }
    }

    #[test]
    fn splitmix_streams_differ_and_repeat() {
        let draw = |seed, stream| {
            let mut rng = SplitMix64::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
    }
}
