//! The one-pass text decode against a walk of the same text's `Value`.
//! For every input, `serde_json::from_str::<T>` must give what
//! `serde_json::from_value::<T>` gives on `from_str::<Value>` of the
//! same text: the same value, compared by re-serialization, or the same
//! error. The inputs are the example spec documents (whole, and broken
//! in one place), generated workflow shapes, and the daemon's envelope
//! and params lines.

use serde_json::Value;
use wfms_proto::{
    AssessParams, RecommendParams, Request, Response, METHOD_ASSESS, METHOD_RECOMMEND,
};
use wfms_serve::{Handler, WorkloadEntry, WorkloadFile};
use wfms_statechart::{ServerTypeRegistry, WorkflowSpec};
use wfms_workloads::{fan_workflow, sequential_workflow};

/// Asserts the two decodes of `$text` as `$t` agree; evaluates to the
/// number of texts that decoded.
macro_rules! agree {
    ($t:ty, $text:expr) => {{
        let text: &str = $text;
        let direct = serde_json::from_str::<$t>(text)
            .map(|v| serde_json::to_string(&v).unwrap())
            .map_err(|e| e.to_string());
        let walked = serde_json::from_str::<Value>(text)
            .and_then(serde_json::from_value::<$t>)
            .map(|v| serde_json::to_string(&v).unwrap())
            .map_err(|e| e.to_string());
        assert_eq!(direct, walked, "{}: {text:.200}", stringify!($t));
        usize::from(direct.is_ok())
    }};
}

fn example(scenario: &str, file: &str) -> String {
    let path = format!(
        "{}/examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(path).expect("example spec")
}

/// Each example document, then the same text cut short, with a byte
/// dropped, and with a byte replaced, at a spread of offsets.
#[test]
fn example_documents_decode_as_their_values_walk() {
    for scenario in ["ep", "enterprise"] {
        let registry = example(scenario, "registry.json");
        let workload = example(scenario, "workload.json");
        assert_eq!(agree!(ServerTypeRegistry, &registry), 1);
        assert_eq!(agree!(WorkloadFile, &workload), 1);
        for text in [&registry, &workload] {
            let mut decoded = 0;
            let offsets = (0..text.len())
                .step_by(37)
                .filter(|&i| text.is_char_boundary(i));
            for at in offsets {
                let next = text[at..].chars().next().map_or(0, char::len_utf8);
                let mut dropped = text.clone();
                dropped.replace_range(at..at + next, "");
                let mut replaced = text.clone();
                replaced.replace_range(at..at + next, "7");
                for broken in [&text[..at], &dropped, &replaced] {
                    decoded += agree!(ServerTypeRegistry, broken);
                    decoded += agree!(WorkloadFile, broken);
                }
            }
            // Dropping or replacing whitespace leaves a valid document.
            assert!(decoded > 0, "{scenario}: some broken texts still decode");
        }
    }
}

#[test]
fn generated_shapes_decode_as_their_values_walk() {
    let specs: Vec<WorkflowSpec> = [1, 5, 40]
        .into_iter()
        .flat_map(|n| [sequential_workflow(n), fan_workflow(n)])
        .collect();
    for spec in &specs {
        let compact = serde_json::to_string(spec).unwrap();
        let pretty = serde_json::to_string_pretty(spec).unwrap();
        assert_eq!(agree!(WorkflowSpec, &compact), 1);
        assert_eq!(agree!(WorkflowSpec, &pretty), 1);
    }
    let file = WorkloadFile {
        workflows: specs
            .into_iter()
            .map(|spec| WorkloadEntry {
                arrival_rate: 0.5,
                spec,
            })
            .collect(),
    };
    assert_eq!(
        agree!(WorkloadFile, &serde_json::to_string_pretty(&file).unwrap()),
        1
    );
}

/// Request envelopes and their params as a client writes them, and the
/// response lines the handler answers them with, clean and failed.
#[test]
fn wire_lines_decode_as_their_values_walk() {
    let docs = format!(
        r#""registry":{},"workload":{}"#,
        example("ep", "registry.json"),
        example("ep", "workload.json")
    );
    let assess = format!(r#"{{{docs},"config":[2,2,2],"max_wait":0.05}}"#);
    let recommend = format!(r#"{{{docs},"max_wait":0.05,"min_availability":0.9999}}"#);
    assert_eq!(agree!(AssessParams, &assess), 1);
    assert_eq!(agree!(RecommendParams, &recommend), 1);
    let handler = Handler::new(1);
    for (method, params) in [
        (METHOD_ASSESS, &assess),
        (METHOD_RECOMMEND, &recommend),
        (METHOD_ASSESS, &assess.replace("[2,2,2]", "[2,2]")),
        (METHOD_ASSESS, &assess.replace("[2,2,2]", "\"2,2,2\"")),
    ] {
        let line =
            format!(r#"{{"v":1,"id":"d-1","tenant":"t","method":"{method}","params":{params}}}"#);
        assert_eq!(agree!(Request, &line), 1);
        let request: Request = serde_json::from_str(&line).unwrap();
        let response = serde_json::to_string(&handler.handle(&request)).unwrap();
        assert_eq!(agree!(Response, &response), 1);
    }
    for line in [
        r#"{"v":1,"id":"x","method":"assess","params":{"registry":"#,
        r#"{"v":1,"id":1,"method":"health","params":null}"#,
        r#"{"v":1,"id":"x","params":null}"#,
        r#"{"v":1,"id":"x","method":"health","params":null,"v":"1"}"#,
    ] {
        assert_eq!(agree!(Request, line), 0);
    }
}
