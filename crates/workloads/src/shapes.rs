//! Generated workflow shapes of any size, for measuring how the analysis
//! scales with the chart.
//!
//! Each shape is a flat chart of automated activities with the unit load
//! vector of a three-server-type registry (such as the paper's Sec. 5.2
//! registry), so it maps to one CTMC state per activity plus the
//! absorbing state. The activity durations cycle through
//! [`DURATIONS`], from half a minute to four hours.
//!
//! * [`sequential_workflow`] — activities in a row, some retried in
//!   place, like the benchmark ladder's rungs: absorption takes many
//!   uniformized steps.
//! * [`fan_workflow`] — one dispatch activity that hands each instance
//!   to one of `w` alternatives: a wide chart that absorbs in a few
//!   hundred uniformized steps.

use wfms_statechart::{ActivityKind, ActivitySpec, ChartBuilder, EcaRule, WorkflowSpec};

/// Mean activity durations in minutes, cycled by activity index.
pub const DURATIONS: [f64; 7] = [0.5, 2.0, 5.0, 15.0, 30.0, 60.0, 240.0];

/// In-place retry probabilities of [`sequential_workflow`], cycled by
/// activity index.
const RETRY: [f64; 4] = [0.0, 0.0, 0.1, 0.2];

fn state(i: usize) -> String {
    format!("S{i}")
}

fn activity(i: usize) -> String {
    format!("A{i}")
}

fn automated(i: usize) -> ActivitySpec {
    ActivitySpec::new(
        activity(i),
        ActivityKind::Automated,
        DURATIONS[i % DURATIONS.len()],
        vec![1.0, 1.0, 1.0],
    )
}

/// A chart of `m` activity states `S0 … S{m−1}` entered at `S0`, with the
/// transitions `moves(i)` (target state, probability) out of `S_i`; a
/// target of `None` is the final state.
fn chart(name: &str, m: usize, moves: impl Fn(usize) -> Vec<(Option<usize>, f64)>) -> WorkflowSpec {
    let mut builder = ChartBuilder::new(name).initial("init");
    for i in 0..m {
        builder = builder.activity_state(state(i), activity(i));
    }
    builder = builder
        .final_state("exit")
        .transition("init", state(0), 1.0, EcaRule::default());
    for i in 0..m {
        for (target, p) in moves(i) {
            let target = target.map_or_else(|| "exit".to_string(), state);
            let rule = if target == state(i) {
                EcaRule::default()
            } else {
                EcaRule::on_done(&activity(i))
            };
            builder = builder.transition(state(i), target, p, rule);
        }
    }
    let chart = builder.build().expect("generated charts are valid");
    WorkflowSpec::new(name, chart, (0..m).map(automated))
}

/// `m` sequential activities; activity `i` is retried in place with the
/// probability `[0, 0, 0.1, 0.2][i mod 4]`. It maps to `m + 1` states;
/// at `m = 30` it is the benchmark ladder's M rung in shape.
pub fn sequential_workflow(m: usize) -> WorkflowSpec {
    chart(&format!("Sequential{m}"), m, |i| {
        let next = (i + 1 < m).then_some(i + 1);
        let retry = RETRY[i % RETRY.len()];
        if retry > 0.0 {
            vec![(next, 1.0 - retry), (Some(i), retry)]
        } else {
            vec![(next, 1.0)]
        }
    })
}

/// One dispatch activity `S0` that hands each instance to one of `w`
/// alternatives `S1 … Sw` with equal probability, each of which then
/// finishes. It maps to `w + 2` states.
pub fn fan_workflow(w: usize) -> WorkflowSpec {
    chart(&format!("Fan{w}"), w + 1, |i| {
        if i == 0 {
            (1..=w).map(|j| (Some(j), 1.0 / w as f64)).collect()
        } else {
            vec![(None, 1.0)]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_perf::{analyze_workflow, AnalysisOptions};
    use wfms_statechart::paper_section52_registry;

    #[test]
    fn shapes_map_to_their_state_counts() {
        let reg = paper_section52_registry();
        for (spec, states) in [(sequential_workflow(30), 31), (fan_workflow(50), 52)] {
            let a = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
            assert_eq!(a.ctmc.n(), states, "{}", spec.name);
            assert!(a.mean_turnaround.is_finite() && a.mean_turnaround > 0.0);
        }
    }

    #[test]
    fn sequential_retries_and_fan_mean_have_closed_forms() {
        let reg = paper_section52_registry();
        let a = analyze_workflow(&sequential_workflow(4), &reg, &AnalysisOptions::default());
        // Activities 2 and 3 run 1/0.9 and 1/0.8 times on average.
        let expect = 0.5 + 2.0 + 5.0 / 0.9 + 15.0 / 0.8;
        assert!((a.unwrap().mean_turnaround - expect).abs() < 1e-9);
        let w = 7;
        let a = analyze_workflow(&fan_workflow(w), &reg, &AnalysisOptions::default());
        let expect = 0.5 + (1..=w).map(|j| DURATIONS[j % 7]).sum::<f64>() / w as f64;
        assert!((a.unwrap().mean_turnaround - expect).abs() < 1e-9);
    }
}
