//! Stage-metric capture for the experiment binaries: wraps the global
//! `wfms-obs` recorder and merges per-experiment summaries into
//! `BENCH_obs.json` at the repository root, so the perf trajectory of
//! every solver stage is diffable across PRs.

// audit:allow-file(A008, reason = "the bench harness is a terminal fail-fast surface: a corrupt BENCH_obs.json must abort the experiment run visibly")
// audit:allow-file(A009, reason = "same contract: merge failures abort the run with the offending path in the message")
use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use wfms_obs::{HistogramSnapshot, StageSummary};

/// One experiment's stage metrics as stored in `BENCH_obs.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsRecord {
    /// Per-stage span aggregates, sorted by descending total time.
    pub stages: Vec<StageSummary>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge last-values.
    pub gauges: BTreeMap<String, f64>,
    /// Iteration/size histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Each stage's smallest per-run total over the runs passed to
    /// [`finish_runs`] (`wfms_obs::stage_run_minima`); `None` when the
    /// experiment marked no runs. `wfms profile --baseline` compares
    /// these when present, and the stage totals otherwise.
    pub run_min_ns: Option<BTreeMap<String, u64>>,
}

/// Path of the merged metrics file: `$WFMS_BENCH_OBS` when set, else
/// `BENCH_obs.json` at the repository root.
pub fn bench_obs_path() -> PathBuf {
    match std::env::var_os("WFMS_BENCH_OBS") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json"),
    }
}

/// Starts recording stage metrics (resets and enables the global
/// recorder).
pub fn start() {
    let recorder = wfms_obs::global();
    recorder.reset();
    recorder.enable();
}

/// Stops recording and merges this experiment's summary into
/// [`bench_obs_path`], replacing any previous entry of the same name.
/// Returns the record for callers that want to inspect it.
///
/// # Panics
/// Panics when the metrics file holds invalid JSON or cannot be written
/// — experiment binaries have no error channel beyond their exit status.
pub fn finish(experiment: &str) -> ObsRecord {
    finish_runs(experiment, &[])
}

/// Spans recorded since [`start`]: the end of the run just finished, to
/// pass to [`finish_runs`].
pub fn run_end() -> usize {
    wfms_obs::global().snapshot().spans.len()
}

/// As [`finish`], additionally recording each stage's smallest per-run
/// total, where `run_ends[i]` is [`run_end`] after run `i`.
///
/// # Panics
/// As [`finish`].
pub fn finish_runs(experiment: &str, run_ends: &[usize]) -> ObsRecord {
    let recorder = wfms_obs::global();
    recorder.disable();
    let snapshot = recorder.take();
    let record = ObsRecord {
        stages: wfms_obs::aggregate_stages(&snapshot),
        run_min_ns: (!run_ends.is_empty())
            .then(|| wfms_obs::stage_run_minima(&snapshot.spans, run_ends)),
        counters: snapshot.counters,
        gauges: snapshot.gauges,
        histograms: snapshot.histograms,
    };
    let path = bench_obs_path();
    let mut all: BTreeMap<String, ObsRecord> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: invalid BENCH_obs.json: {e}", path.display())),
        Err(_) => BTreeMap::new(),
    };
    all.insert(experiment.to_string(), record.clone());
    let text = serde_json::to_string_pretty(&all).expect("serializable");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    eprintln!(
        "[obs] merged stage metrics for {experiment:?} into {}",
        path.display()
    );
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_by_experiment_name() {
        let path = std::env::temp_dir().join(format!("wfms-bench-obs-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // SAFETY: tests in this binary do not read this variable
        // concurrently.
        std::env::set_var("WFMS_BENCH_OBS", &path);
        start();
        wfms_obs::counter("test.counter", 3);
        let first = finish("exp-one");
        assert_eq!(first.counters["test.counter"], 3);

        start();
        wfms_obs::counter("test.counter", 5);
        finish("exp-two");

        start();
        wfms_obs::counter("test.counter", 7);
        finish("exp-one"); // replaces, not appends

        let all: BTreeMap<String, ObsRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::env::remove_var("WFMS_BENCH_OBS");
        let _ = std::fs::remove_file(&path);
        assert_eq!(all.len(), 2);
        assert_eq!(all["exp-one"].counters["test.counter"], 7);
        assert_eq!(all["exp-two"].counters["test.counter"], 5);
    }
}
