//! The correctness gate: every answer the benchmark gets back is parsed,
//! compared with a recorded golden answer, and its availability is
//! checked against the closed form.
//!
//! Goldens are recorded by `wfms-benchmark record-golden --seed N`
//! through the in-process request handler, the same code path the CLI
//! and the daemon answer from, at full precision. The tables for `ep`
//! and `enterprise` hold every configuration a workload can draw, so
//! they apply to every seed; the ladder's goldens exist for the seeds
//! that were recorded (1 for development, 2 as a holdout).

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use wfms_core::avail::closed_form_unavailability;
use wfms_core::{Assessment, Configuration, ServerTypeRegistry};
use wfms_proto::{AssessResult, RecommendResult};

/// Where the goldens live, relative to the repository root.
pub const GOLDEN_DIR: &str = "wfms-benchmark/golden";

/// One answer of `assess` or `recommend`, in the units the goldens keep:
/// availability as a probability, waits and turnarounds in minutes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answer {
    /// The assessed or recommended replica vector.
    pub config: Vec<usize>,
    /// Availability of the whole system.
    pub availability: f64,
    /// Worst expected wait over the server types; `None` when no state
    /// can serve the load.
    pub worst_wait: Option<f64>,
    /// Expected wait per server type (`assess` only).
    pub waits: Vec<f64>,
    /// 90th-percentile turnaround per workflow type (`assess` only).
    pub p90: Vec<f64>,
    /// Whether every goal is met (`assess` only).
    pub meets_goals: Option<bool>,
    /// Candidates the search evaluated (`recommend` only).
    pub evaluations: Option<u64>,
}

/// How far an answer may sit from its golden. The CLI prints rounded
/// text, the daemon full-precision JSON, so each has its own.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Absolute availability tolerance.
    pub availability: f64,
    /// Absolute wait tolerance, minutes.
    pub wait_abs: f64,
    /// Relative wait tolerance.
    pub wait_rel: f64,
}

/// The CLI prints availability with 8 decimals and waits in seconds
/// with 2.
pub const TEXT: Tolerance = Tolerance {
    availability: 1e-8,
    wait_abs: 0.01 / 60.0,
    wait_rel: 0.0,
};

/// The daemon answers with every digit.
pub const JSON: Tolerance = Tolerance {
    availability: 1e-9,
    wait_abs: 0.0,
    wait_rel: 1e-9,
};

/// Turnaround percentiles may move by the bisection's own tolerance,
/// or by the CLI's printed 0.1 minute, whichever is larger.
fn p90_within(actual: f64, golden: f64) -> bool {
    (actual - golden).abs() <= (1e-4 * golden.abs()).max(0.1)
}

fn within(actual: f64, golden: f64, abs: f64, rel: f64) -> bool {
    (actual - golden).abs() <= abs.max(rel * golden.abs())
}

/// Compares `actual` with `golden`: the configuration, evaluation count
/// and goal verdict exactly, the numbers within `tol`.
///
/// # Errors
/// A message naming the first field outside its tolerance.
pub fn compare(actual: &Answer, golden: &Answer, tol: Tolerance) -> Result<(), String> {
    let label = format!("{:?}", golden.config);
    if actual.config != golden.config {
        return Err(format!("configuration {:?}, golden {label}", actual.config));
    }
    if actual.evaluations.is_some()
        && golden.evaluations.is_some()
        && actual.evaluations != golden.evaluations
    {
        return Err(format!(
            "{label}: {:?} evaluations, golden {:?}",
            actual.evaluations, golden.evaluations
        ));
    }
    if actual.meets_goals.is_some()
        && golden.meets_goals.is_some()
        && actual.meets_goals != golden.meets_goals
    {
        return Err(format!(
            "{label}: goals met {:?}, golden {:?}",
            actual.meets_goals, golden.meets_goals
        ));
    }
    if !within(
        actual.availability,
        golden.availability,
        tol.availability,
        0.0,
    ) {
        return Err(format!(
            "{label}: availability {}, golden {}",
            actual.availability, golden.availability
        ));
    }
    let wait_ok = |a: f64, g: f64| within(a, g, tol.wait_abs, tol.wait_rel);
    match (actual.worst_wait, golden.worst_wait) {
        (None, None) => {}
        (Some(a), Some(g)) if wait_ok(a, g) => {}
        (a, g) => return Err(format!("{label}: worst wait {a:?}, golden {g:?}")),
    }
    if actual.waits.len() != golden.waits.len()
        || actual
            .waits
            .iter()
            .zip(&golden.waits)
            .any(|(&a, &g)| !wait_ok(a, g))
    {
        return Err(format!(
            "{label}: waits {:?}, golden {:?}",
            actual.waits, golden.waits
        ));
    }
    if actual.p90.len() != golden.p90.len()
        || actual
            .p90
            .iter()
            .zip(&golden.p90)
            .any(|(&a, &g)| !p90_within(a, g))
    {
        return Err(format!(
            "{label}: p90 {:?}, golden {:?}",
            actual.p90, golden.p90
        ));
    }
    Ok(())
}

/// Checks the answer's availability against the closed-form product of
/// per-type availabilities, an oracle independent of the seed and of
/// the solver the engine used.
///
/// # Errors
/// A message when they differ by more than `tol.availability`.
pub fn check_closed_form(
    registry: &ServerTypeRegistry,
    answer: &Answer,
    tol: Tolerance,
) -> Result<(), String> {
    let config = Configuration::new(registry, answer.config.clone())
        .map_err(|e| format!("{:?}: {e}", answer.config))?;
    let expected = 1.0
        - closed_form_unavailability(registry, &config)
            .map_err(|e| format!("{:?}: {e}", answer.config))?;
    if within(answer.availability, expected, tol.availability, 0.0) {
        Ok(())
    } else {
        Err(format!(
            "{:?}: availability {} but the closed form gives {expected}",
            answer.config, answer.availability
        ))
    }
}

// ------------------------------------------------------------- parsing

/// The number after `prefix` on the first line starting with it.
fn field<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|line| line.trim_start().strip_prefix(prefix))
}

fn number(token: &str, what: &str) -> Result<f64, String> {
    token
        .trim()
        .parse()
        .map_err(|e| format!("{what} {token:?}: {e}"))
}

fn replicas(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|y| {
            y.trim()
                .parse()
                .map_err(|e| format!("replica count {y:?}: {e}"))
        })
        .collect()
}

/// A clean run never degrades, truncates or quarantines; any of these
/// report lines marks the answer as wrong.
fn reject_disclosures(text: &str) -> Result<(), String> {
    for marker in ["DEGRADED", "QUARANTINED", "truncation ("] {
        if text.contains(marker) {
            return Err(format!("unexpected {marker:?} line in a clean run"));
        }
    }
    Ok(())
}

/// Parses the text report of `wfms assess`.
///
/// # Errors
/// A message when a line is missing or malformed.
pub fn parse_assess(text: &str) -> Result<Answer, String> {
    reject_disclosures(text)?;
    let config = field(text, "configuration Y(")
        .and_then(|rest| rest.split(')').next())
        .ok_or("assess: no configuration line")?;
    let availability = field(text, "availability ")
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("assess: no availability line")?;
    let mut waits = Vec::new();
    let mut p90 = Vec::new();
    for line in text.lines().map(str::trim_start) {
        if let Some(rest) = line.strip_prefix("expected wait @ ") {
            let seconds = rest
                .rsplit_once(": ")
                .and_then(|(_, v)| v.strip_suffix(" s"))
                .ok_or_else(|| format!("assess: malformed wait line {line:?}"))?;
            waits.push(number(seconds, "wait")? / 60.0);
        } else if line.starts_with("turnaround ") {
            let minutes = line
                .split("p90 ")
                .nth(1)
                .and_then(|v| v.strip_suffix(" min"))
                .ok_or_else(|| format!("assess: malformed turnaround line {line:?}"))?;
            p90.push(number(minutes, "p90")?);
        }
    }
    let meets_goals = match field(text, "goals met: ") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err("assess: no goals line".to_string()),
    };
    let saturated = text.contains("SATURATED");
    Ok(Answer {
        config: replicas(config)?,
        availability: number(availability, "availability")?,
        worst_wait: if saturated {
            None
        } else {
            waits.iter().copied().reduce(f64::max)
        },
        waits,
        p90,
        meets_goals: Some(meets_goals),
        evaluations: None,
    })
}

/// Parses the text report of `wfms recommend`.
///
/// # Errors
/// A message when a line is missing or malformed.
pub fn parse_recommend(text: &str) -> Result<Answer, String> {
    reject_disclosures(text)?;
    let head = text
        .lines()
        .find(|line| line.starts_with("method "))
        .ok_or("recommend: no method line")?;
    let config = head
        .split('[')
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .ok_or_else(|| format!("recommend: malformed method line {head:?}"))?;
    let evaluations = head
        .rsplit_once(", ")
        .and_then(|(_, rest)| rest.strip_suffix(" evaluations)"))
        .ok_or_else(|| format!("recommend: malformed method line {head:?}"))?;
    let availability = field(text, "availability ")
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("recommend: no availability line")?;
    let worst_wait = match field(text, "worst expected wait ") {
        Some(rest) => {
            let seconds = rest
                .strip_suffix(" s")
                .ok_or_else(|| format!("recommend: malformed wait {rest:?}"))?;
            Some(number(seconds, "wait")? / 60.0)
        }
        None => None,
    };
    Ok(Answer {
        config: replicas(config)?,
        availability: number(availability, "availability")?,
        worst_wait,
        waits: Vec::new(),
        p90: Vec::new(),
        meets_goals: None,
        evaluations: Some(
            evaluations
                .parse()
                .map_err(|e| format!("evaluations {evaluations:?}: {e}"))?,
        ),
    })
}

fn assessment(value: &serde_json::Value) -> Result<Assessment, String> {
    let a: Assessment =
        serde_json::from_value(value.clone()).map_err(|e| format!("assessment: {e}"))?;
    if a.degradation.is_some() {
        return Err(format!(
            "{:?}: degraded assessment in a clean run",
            a.replicas
        ));
    }
    Ok(a)
}

/// The answer carried by an `assess` result.
///
/// # Errors
/// A message when the embedded assessment does not decode or degraded.
pub fn from_assess(result: &AssessResult) -> Result<Answer, String> {
    let a = assessment(&result.assessment)?;
    let meets_goals = a.meets_goals();
    Ok(Answer {
        config: a.replicas,
        availability: a.availability,
        worst_wait: a.max_expected_waiting,
        waits: a.expected_waiting.unwrap_or_default(),
        p90: result.turnarounds.iter().map(|t| t.p90_minutes).collect(),
        meets_goals: Some(meets_goals),
        evaluations: None,
    })
}

/// The answer carried by a `recommend` result.
///
/// # Errors
/// A message when the embedded assessment does not decode or degraded.
pub fn from_recommend(result: &RecommendResult) -> Result<Answer, String> {
    let a = assessment(&result.assessment)?;
    Ok(Answer {
        config: a.replicas,
        availability: a.availability,
        worst_wait: a.max_expected_waiting,
        waits: Vec::new(),
        p90: Vec::new(),
        meets_goals: None,
        evaluations: Some(result.evaluations),
    })
}

// --------------------------------------------------------------- files

/// Goldens of one assess workload, one per configuration it can draw.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssessTable {
    /// One answer per configuration.
    pub entries: Vec<Answer>,
}

impl AssessTable {
    /// The golden of `config`.
    ///
    /// # Errors
    /// A message when the table has no entry for it.
    pub fn get(&self, config: &[usize]) -> Result<&Answer, String> {
        self.entries
            .iter()
            .find(|a| a.config == config)
            .ok_or_else(|| format!("no golden for configuration {config:?}"))
    }
}

/// Goldens of the enterprise searches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecommendGoldens {
    /// `recommend --optimal`.
    pub exhaustive: Answer,
    /// `recommend` (greedy, `jobs 2`).
    pub greedy: Answer,
}

/// Goldens of one ladder rung: the greedy recommendation and the
/// assessment of the recommended configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RungGolden {
    /// Rung and ladder, as `L3` for rung L of the third ladder.
    pub rung: String,
    /// The greedy recommendation.
    pub recommend: Answer,
    /// The assessment of the recommended configuration.
    pub assess: Answer,
}

/// Goldens of the ladders of a seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LadderGoldens {
    /// The benchmark seed the ladders were generated from.
    pub seed: u64,
    /// One entry per rung, ladder by ladder, each smallest rung first.
    pub rungs: Vec<RungGolden>,
}

/// File of the `ep` assess table.
pub const ASSESS_EP: &str = "assess-ep.json";
/// File of the `enterprise` assess table.
pub const ASSESS_ENTERPRISE: &str = "assess-enterprise.json";
/// File of the enterprise search goldens.
pub const RECOMMEND_ENTERPRISE: &str = "recommend-enterprise.json";

/// File of the ladder goldens of `seed`.
pub fn ladder_file(seed: u64) -> String {
    format!("ladder-seed-{seed}.json")
}

fn path(name: &str) -> PathBuf {
    Path::new(GOLDEN_DIR).join(name)
}

/// Reads golden file `name`.
///
/// # Errors
/// A message when it is missing or malformed.
pub fn load<T: for<'de> Deserialize<'de>>(name: &str) -> Result<T, String> {
    let path = path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (record goldens with `record-golden`)",
            path.display()
        )
    })?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The ladder goldens of `seed`, if they were recorded.
///
/// # Errors
/// A message when the file exists but is malformed.
pub fn load_ladder(seed: u64) -> Result<Option<LadderGoldens>, String> {
    if path(&ladder_file(seed)).exists() {
        load(&ladder_file(seed)).map(Some)
    } else {
        Ok(None)
    }
}

/// Writes golden file `name`.
///
/// # Errors
/// A message when the file cannot be written.
pub fn store<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    let path = path(name);
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(GOLDEN_DIR).map_err(|e| format!("{GOLDEN_DIR}: {e}"))?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Answer {
        Answer {
            config: vec![2, 2, 3],
            availability: 0.999_998_641_234_5,
            worst_wait: Some(0.000_512_345_678),
            waits: vec![0.000_3, 0.000_512_345_678, 0.000_2],
            p90: vec![4_433.812_345],
            meets_goals: Some(true),
            evaluations: None,
        }
    }

    #[test]
    fn a_tiny_perturbation_passes_and_a_real_one_fails() {
        let g = golden();
        for tol in [JSON, TEXT] {
            let mut a = g.clone();
            a.availability += 1e-12;
            assert!(compare(&a, &g, tol).is_ok());
            a.availability += 1e-6;
            assert!(compare(&a, &g, tol).is_err());
        }
        let mut a = g.clone();
        a.waits[1] *= 1.0 + 1e-12;
        a.worst_wait = Some(a.waits[1]);
        assert!(compare(&a, &g, JSON).is_ok());
        a.waits[1] *= 1.0 + 1e-6;
        assert!(compare(&a, &g, JSON).is_err());
        let mut a = g.clone();
        a.p90[0] += 0.05;
        assert!(compare(&a, &g, JSON).is_ok());
        a.p90[0] += 1.0;
        assert!(compare(&a, &g, JSON).is_err());
        let mut a = g.clone();
        a.config = vec![2, 3, 2];
        assert!(compare(&a, &g, TEXT).is_err());
    }

    #[test]
    fn cli_reports_parse() {
        let assess = "configuration Y(2,2,3) (7 servers):\n  availability 0.99999864 (0.72 min downtime/year)\n  expected wait @ communication-server: 0.02 s\n  expected wait @ workflow-engine: 0.03 s\n  expected wait @ application-server: 0.01 s\n  turnaround \"EP\": mean 1236.9 min, p90 4433.8 min\n  goals met: true\n";
        let a = parse_assess(assess).expect("parses");
        assert_eq!(a.config, vec![2, 2, 3]);
        assert_eq!(a.availability, 0.99999864);
        assert_eq!(a.waits.len(), 3);
        assert!((a.worst_wait.expect("stable") - 0.03 / 60.0).abs() < 1e-15);
        assert_eq!(a.p90, vec![4433.8]);
        assert_eq!(a.meets_goals, Some(true));

        let recommend = "method exhaustive: recommend [2, 2, 2, 2, 2] (10 servers, 203 evaluations)\n  availability 0.99990286 (51.06 min downtime/year)\n  worst expected wait 0.71 s\n";
        let r = parse_recommend(recommend).expect("parses");
        assert_eq!(r.config, vec![2, 2, 2, 2, 2]);
        assert_eq!(r.evaluations, Some(203));
        assert!((r.worst_wait.expect("stable") - 0.71 / 60.0).abs() < 1e-15);

        let degraded = format!("{recommend}  DEGRADED: 1 solver fallback(s)\n");
        assert!(parse_recommend(&degraded).is_err());
    }
}
