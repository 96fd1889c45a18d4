//! The transport contract: the one-shot CLI and the daemon's JSON
//! methods answer `assess` and `recommend` alike. For the same files,
//! `wfms assess --json` / `wfms recommend --json` print exactly the
//! pretty-printed `assessment` of the `wfms-serve` handler's reply, and
//! `wfms availability --json` prints the same availability as
//! `wfms assess --json`.

use serde_json::Value;
use wfms_proto::{Request, METHOD_ASSESS, METHOD_RECOMMEND};
use wfms_serve::Handler;

const GOALS: [&str; 4] = ["--max-wait", "0.05", "--min-availability", "0.9999"];

fn spec_path(scenario: &str, file: &str) -> String {
    format!(
        "{}/examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The registry and workload of one example, as paths and as text.
struct Scenario {
    registry: String,
    workload: String,
    params: String,
}

impl Scenario {
    fn new(name: &str) -> Scenario {
        let registry = spec_path(name, "registry.json");
        let workload = spec_path(name, "workload.json");
        let read = |path: &str| std::fs::read_to_string(path).expect("example spec");
        let params = format!(
            r#""registry": {}, "workload": {}, "max_wait": 0.05, "min_availability": 0.9999"#,
            read(&registry),
            read(&workload)
        );
        Scenario {
            registry,
            workload,
            params,
        }
    }

    /// The `availability` field of the in-process CLI's JSON report for
    /// `command` (`assess` or `availability`) on the configuration `config`.
    fn availability(&self, command: &str, config: &str) -> f64 {
        let report = if command == "availability" {
            let args = [
                "availability",
                "--registry",
                &self.registry,
                "--config",
                config,
                "--json",
            ];
            let mut out = Vec::new();
            let code = wfms_cli::main_with_args(args.iter().map(|a| a.to_string()), &mut out);
            assert_eq!(code, 0, "wfms {}", args.join(" "));
            String::from_utf8(out).expect("UTF-8 report")
        } else {
            self.cli(command, &["--config", config])
        };
        let parsed: Value = serde_json::from_str(&report).expect("JSON report");
        parsed["availability"].as_f64().expect("availability")
    }

    /// What the in-process CLI prints for `command` with `extra` options.
    fn cli(&self, command: &str, extra: &[&str]) -> String {
        let mut args = vec![
            command,
            "--registry",
            &self.registry,
            "--workload",
            &self.workload,
        ];
        args.extend(GOALS);
        args.extend(extra);
        args.push("--json");
        let mut out = Vec::new();
        let code = wfms_cli::main_with_args(args.iter().map(|a| a.to_string()), &mut out);
        assert_eq!(code, 0, "wfms {}", args.join(" "));
        String::from_utf8(out).expect("UTF-8 report")
    }

    /// The pretty-printed `assessment` of the handler's reply to
    /// `method` with the scenario's documents and goals plus `extra`
    /// params, followed by the newline the CLI ends its report with.
    fn handler(&self, method: &str, extra: &str) -> String {
        let params: Value =
            serde_json::from_str(&format!("{{{}{extra}}}", self.params)).expect("params parse");
        let response = Handler::new(1).handle(&Request::new(method, params));
        assert!(response.ok, "{method}: {:?}", response.error);
        let result = response.result.expect("result populated");
        format!(
            "{}\n",
            serde_json::to_string_pretty(&result["assessment"]).expect("render")
        )
    }
}

/// Every configuration of `k` types with replica counts from `counts`.
fn grid(k: usize, counts: &[usize]) -> Vec<Vec<usize>> {
    (0..counts.len().pow(k as u32))
        .map(|mut code| {
            (0..k)
                .map(|_| {
                    let y = counts[code % counts.len()];
                    code /= counts.len();
                    y
                })
                .collect()
        })
        .collect()
}

#[test]
fn assess_json_is_the_handlers_assessment() {
    for (name, k, counts) in [("ep", 3, &[1, 2, 3, 4][..]), ("enterprise", 5, &[2, 3][..])] {
        let scenario = Scenario::new(name);
        for replicas in grid(k, counts) {
            let config: Vec<String> = replicas.iter().map(usize::to_string).collect();
            let config = config.join(",");
            assert_eq!(
                scenario.cli("assess", &["--config", &config]),
                scenario.handler(METHOD_ASSESS, &format!(r#", "config": [{config}]"#)),
                "{name} assess {config}"
            );
        }
    }
}

#[test]
fn recommend_json_is_the_handlers_assessment() {
    for name in ["ep", "enterprise"] {
        let scenario = Scenario::new(name);
        for (flag, search) in [
            (None, "greedy"),
            (Some("--optimal"), "exhaustive"),
            (Some("--annealing"), "annealing"),
        ] {
            assert_eq!(
                scenario.cli("recommend", flag.as_slice()),
                scenario.handler(METHOD_RECOMMEND, &format!(r#", "search": "{search}""#)),
                "{name} recommend {search}"
            );
        }
    }
}

#[test]
fn availability_json_is_the_assessments_availability() {
    for (name, k, counts) in [("ep", 3, &[1, 2, 3, 4][..]), ("enterprise", 5, &[2, 3][..])] {
        let scenario = Scenario::new(name);
        for replicas in grid(k, counts) {
            let config: Vec<String> = replicas.iter().map(usize::to_string).collect();
            let config = config.join(",");
            assert_eq!(
                scenario.availability("availability", &config).to_bits(),
                scenario.availability("assess", &config).to_bits(),
                "{name} {config}"
            );
        }
    }
}
