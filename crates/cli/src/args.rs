//! Minimal dependency-free argument parsing for the `wfms` binary.
//!
//! The grammar is a command word followed by `--option value`,
//! `--option=value`, and boolean `--flag` tokens. Each command declares
//! the options and flags it understands in [`COMMANDS`]; anything else is
//! rejected with [`ArgError::UnknownFlag`] instead of being silently
//! swallowed. Kept deliberately small: the CLI surfaces the library, it
//! is not an argument-parsing showcase.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed invocation: the command word plus its options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The command, e.g. `recommend`.
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No command word supplied.
    MissingCommand,
    /// A `--flag` was not followed by a value.
    MissingValue {
        /// The flag missing its value.
        flag: String,
    },
    /// A positional token appeared where a flag was expected.
    UnexpectedToken {
        /// The stray token.
        token: String,
    },
    /// A `--flag` the command does not understand.
    UnknownFlag {
        /// The unrecognized flag.
        flag: String,
        /// The command it was passed to.
        command: String,
    },
    /// A required option is absent.
    MissingOption {
        /// The option name.
        option: &'static str,
    },
    /// An option failed to parse.
    InvalidValue {
        /// The option name.
        option: String,
        /// The raw value.
        value: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `wfms help`)"),
            ArgError::MissingValue { flag } => write!(f, "--{flag} needs a value"),
            ArgError::UnexpectedToken { token } => write!(f, "unexpected argument {token:?}"),
            ArgError::UnknownFlag { flag, command } => {
                write!(
                    f,
                    "unknown option --{flag} for `wfms {command}` (try `wfms help`)"
                )
            }
            ArgError::MissingOption { option } => write!(f, "required option --{option} missing"),
            ArgError::InvalidValue {
                option,
                value,
                reason,
            } => {
                write!(f, "invalid --{option} {value:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// The grammar of one command: which value options and boolean flags it
/// accepts.
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// The command word.
    pub name: &'static str,
    /// Options taking a value: `--opt <value>` or `--opt=<value>`.
    pub options: &'static [&'static str],
    /// Boolean flags.
    pub flags: &'static [&'static str],
}

/// Options every command accepts (observability controls).
const GLOBAL_OPTIONS: &[&str] = &["trace-out", "timeline", "journal"];
/// Flags every command accepts.
const GLOBAL_FLAGS: &[&str] = &["help", "trace-out-force"];
/// Flags with an optional inline value: `--trace` or `--trace=json`.
const OPTIONAL_VALUE_FLAGS: &[&str] = &["trace"];

/// The full command table, kept in sync with [`crate::commands::USAGE`].
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "init",
        options: &["dir"],
        flags: &[],
    },
    CommandSpec {
        name: "validate",
        options: &["registry", "workload"],
        flags: &[],
    },
    CommandSpec {
        name: "lint",
        options: &[
            "registry",
            "workload",
            "config",
            "max-wait",
            "min-availability",
            "budget",
            "format",
        ],
        flags: &[],
    },
    CommandSpec {
        name: "audit",
        options: &["root", "format"],
        flags: &[],
    },
    CommandSpec {
        name: "analyze",
        options: &["registry", "workload"],
        flags: &["json"],
    },
    CommandSpec {
        name: "availability",
        options: &["registry", "config", "avail-backend"],
        flags: &["json"],
    },
    CommandSpec {
        name: "assess",
        options: &[
            "registry",
            "workload",
            "config",
            "max-wait",
            "max-wait-type",
            "min-availability",
        ],
        flags: &["strict", "json"],
    },
    CommandSpec {
        name: "recommend",
        options: &[
            "registry",
            "workload",
            "max-wait",
            "max-wait-type",
            "min-availability",
            "budget",
            "seed",
            "jobs",
        ],
        flags: &["optimal", "annealing", "strict", "json"],
    },
    CommandSpec {
        name: "simulate",
        options: &[
            "registry", "workload", "config", "duration", "warmup", "seed",
        ],
        flags: &["failures", "json"],
    },
    CommandSpec {
        name: "profile",
        options: &[
            "registry",
            "workload",
            "config",
            "max-wait",
            "min-availability",
            "runs",
            "jobs",
            "baseline",
            "baseline-key",
            "gate",
        ],
        flags: &["check", "strict", "json"],
    },
    CommandSpec {
        name: "explain",
        options: &["candidate"],
        flags: &["json"],
    },
    CommandSpec {
        name: "sensitivity",
        options: &["registry", "workload", "config", "step"],
        flags: &["json", "moves"],
    },
    CommandSpec {
        name: "export-dot",
        options: &["registry", "workload", "workflow", "view", "out"],
        flags: &[],
    },
    CommandSpec {
        name: "serve",
        options: &[
            "listen",
            "tenants",
            "queue-depth",
            "workers",
            "io-timeout",
            "line-timeout",
            "max-line-bytes",
            "request-deadline",
            "breaker-threshold",
            "breaker-cooldown",
            "drain-timeout",
        ],
        flags: &[],
    },
    CommandSpec {
        name: "call",
        options: &[
            "addr",
            "method",
            "params",
            "tenant",
            "id",
            "retries",
            "backoff-ms",
            "seed",
        ],
        flags: &[],
    },
    CommandSpec {
        name: "help",
        options: &[],
        flags: &[],
    },
];

fn spec_for(command: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|s| s.name == command)
}

/// Trace rendering mode selected by `--trace[=text|json]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Human-readable span tree plus metric tables, to stderr.
    Text,
    /// The full [`wfms_obs::TraceSnapshot`] as JSON, to stderr.
    Json,
}

impl ParsedArgs {
    /// Parses `args` (without the program name).
    ///
    /// An unknown command word parses leniently — every `--name value`
    /// pair is accepted — so the command dispatcher can report the
    /// unknown command itself. For known commands, options and flags are
    /// checked against [`COMMANDS`].
    ///
    /// # Errors
    /// [`ArgError`] on malformed input.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::UnexpectedToken { token: command });
        }
        let spec = spec_for(&command);
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(token) = iter.next() {
            let body = token
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedToken {
                    token: token.clone(),
                })?;
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (body.to_string(), None),
            };
            if OPTIONAL_VALUE_FLAGS.contains(&name.as_str()) {
                options.insert(name, inline.unwrap_or_default());
                continue;
            }
            if GLOBAL_FLAGS.contains(&name.as_str()) {
                if let Some(v) = inline {
                    return Err(ArgError::InvalidValue {
                        option: name,
                        value: v,
                        reason: "flag takes no value".into(),
                    });
                }
                flags.push(name);
                continue;
            }
            let takes_value = GLOBAL_OPTIONS.contains(&name.as_str())
                || match spec {
                    Some(s) => s.options.contains(&name.as_str()),
                    None => true, // unknown command: let the dispatcher report it
                };
            if takes_value {
                let value = match inline {
                    Some(v) => v,
                    None => iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgError::MissingValue { flag: name.clone() })?,
                };
                options.insert(name, value);
                continue;
            }
            let is_flag = spec.is_none_or(|s| s.flags.contains(&name.as_str()));
            if !is_flag {
                return Err(ArgError::UnknownFlag {
                    flag: name,
                    command: command.clone(),
                });
            }
            if let Some(v) = inline {
                return Err(ArgError::InvalidValue {
                    option: name,
                    value: v,
                    reason: "flag takes no value".into(),
                });
            }
            flags.push(name);
        }
        Ok(ParsedArgs {
            command,
            options,
            flags,
        })
    }

    /// An optional string option.
    pub fn get(&self, option: &str) -> Option<&str> {
        self.options.get(option).map(String::as_str)
    }

    /// A required string option.
    ///
    /// # Errors
    /// [`ArgError::MissingOption`] when absent.
    pub fn require(&self, option: &'static str) -> Result<&str, ArgError> {
        self.get(option).ok_or(ArgError::MissingOption { option })
    }

    /// True when the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The `--trace` mode: `None` when absent, [`TraceMode::Text`] for a
    /// bare `--trace` or `--trace=text`, [`TraceMode::Json`] for
    /// `--trace=json`.
    ///
    /// # Errors
    /// [`ArgError::InvalidValue`] on any other value.
    pub fn trace_mode(&self) -> Result<Option<TraceMode>, ArgError> {
        match self.get("trace") {
            None => Ok(None),
            Some("") | Some("text") => Ok(Some(TraceMode::Text)),
            Some("json") => Ok(Some(TraceMode::Json)),
            Some(other) => Err(ArgError::InvalidValue {
                option: "trace".into(),
                value: other.into(),
                reason: "expected `text` or `json`".into(),
            }),
        }
    }

    /// An optional `f64` option.
    ///
    /// # Errors
    /// [`ArgError::InvalidValue`] on parse failure.
    pub fn get_f64(&self, option: &str) -> Result<Option<f64>, ArgError> {
        match self.get(option) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<f64>()
                .map(Some)
                .map_err(|e| ArgError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                    reason: e.to_string(),
                }),
        }
    }

    /// An optional `u64` option.
    ///
    /// # Errors
    /// [`ArgError::InvalidValue`] on parse failure.
    pub fn get_u64(&self, option: &str) -> Result<Option<u64>, ArgError> {
        match self.get(option) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|e| ArgError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                    reason: e.to_string(),
                }),
        }
    }

    /// A comma-separated replica vector, e.g. `2,2,3`.
    ///
    /// # Errors
    /// [`ArgError::InvalidValue`] on parse failure.
    pub fn get_replicas(&self, option: &str) -> Result<Option<Vec<usize>>, ArgError> {
        match self.get(option) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|part| part.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map(Some)
                .map_err(|e| ArgError::InvalidValue {
                    option: option.to_string(),
                    value: raw.to_string(),
                    reason: e.to_string(),
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&[
            "assess",
            "--registry",
            "reg.json",
            "--max-wait",
            "0.05",
            "--json",
            "--config",
            "2,2,3",
        ])
        .unwrap();
        assert_eq!(a.command, "assess");
        assert_eq!(a.get("registry"), Some("reg.json"));
        assert_eq!(a.get_f64("max-wait").unwrap(), Some(0.05));
        assert!(a.flag("json"));
        assert!(!a.flag("failures"));
        assert_eq!(a.get_replicas("config").unwrap(), Some(vec![2, 2, 3]));
        assert_eq!(a.get_replicas("other").unwrap(), None);
    }

    #[test]
    fn accepts_equals_form_options() {
        let a = parse(&["assess", "--registry=reg.json", "--max-wait=0.05"]).unwrap();
        assert_eq!(a.get("registry"), Some("reg.json"));
        assert_eq!(a.get_f64("max-wait").unwrap(), Some(0.05));
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert!(matches!(
            parse(&["--json"]).unwrap_err(),
            ArgError::UnexpectedToken { .. }
        ));
        assert!(matches!(
            parse(&["assess", "stray"]).unwrap_err(),
            ArgError::UnexpectedToken { .. }
        ));
        assert!(matches!(
            parse(&["assess", "--registry"]).unwrap_err(),
            ArgError::MissingValue { .. }
        ));
        assert!(matches!(
            parse(&["assess", "--registry", "--json"]).unwrap_err(),
            ArgError::MissingValue { .. }
        ));
    }

    #[test]
    fn rejects_flags_the_command_does_not_know() {
        assert!(matches!(
            parse(&["assess", "--optimal"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
        assert!(matches!(
            parse(&["validate", "--json"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
        assert!(matches!(
            parse(&["recommend", "--frobnicate"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
        // Flags must not carry a value.
        assert!(matches!(
            parse(&["recommend", "--json=yes"]).unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
    }

    #[test]
    fn unknown_commands_parse_leniently() {
        // The dispatcher reports the unknown command; parsing must not
        // preempt it with a flag error.
        let a = parse(&["x", "--n", "abc", "--m", "1,2,x"]).unwrap();
        assert_eq!(a.command, "x");
        assert_eq!(a.get("n"), Some("abc"));
    }

    #[test]
    fn trace_flag_parses_on_every_command() {
        let a = parse(&["assess", "--trace"]).unwrap();
        assert_eq!(a.trace_mode().unwrap(), Some(TraceMode::Text));
        let a = parse(&["recommend", "--trace=json"]).unwrap();
        assert_eq!(a.trace_mode().unwrap(), Some(TraceMode::Json));
        let a = parse(&["simulate", "--trace=text"]).unwrap();
        assert_eq!(a.trace_mode().unwrap(), Some(TraceMode::Text));
        let a = parse(&["analyze"]).unwrap();
        assert_eq!(a.trace_mode().unwrap(), None);
        let a = parse(&["assess", "--trace=xml"]).unwrap();
        assert!(matches!(
            a.trace_mode().unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
        let a = parse(&["profile", "--trace-out", "t.json"]).unwrap();
        assert_eq!(a.get("trace-out"), Some("t.json"));
    }

    #[test]
    fn observability_outputs_parse_on_every_command() {
        // --timeline / --journal / --trace-out-force are global, like
        // --trace-out.
        for command in ["assess", "recommend", "simulate", "profile"] {
            let a = parse(&[
                command,
                "--timeline",
                "t.json",
                "--journal",
                "j.jsonl",
                "--trace-out-force",
            ])
            .unwrap();
            assert_eq!(a.get("timeline"), Some("t.json"));
            assert_eq!(a.get("journal"), Some("j.jsonl"));
            assert!(a.flag("trace-out-force"));
        }
        // The force flag carries no value.
        assert!(matches!(
            parse(&["assess", "--trace-out-force=yes"]).unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
    }

    #[test]
    fn explain_and_gate_surfaces_parse() {
        let a = parse(&[
            "explain",
            "--journal",
            "j.jsonl",
            "--candidate",
            "2,1,3",
            "--json",
        ])
        .unwrap();
        assert_eq!(a.command, "explain");
        assert_eq!(a.get("journal"), Some("j.jsonl"));
        assert_eq!(a.get_replicas("candidate").unwrap(), Some(vec![2, 1, 3]));
        assert!(a.flag("json"));
        // explain takes no spec options.
        assert!(matches!(
            parse(&["explain", "--registry", "r.json"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));

        let a = parse(&[
            "profile",
            "--baseline",
            "BENCH_obs.json",
            "--baseline-key",
            "ep",
            "--gate",
            "25",
        ])
        .unwrap();
        assert_eq!(a.get("baseline"), Some("BENCH_obs.json"));
        assert_eq!(a.get("baseline-key"), Some("ep"));
        assert_eq!(a.get_f64("gate").unwrap(), Some(25.0));
        // The gate options belong to profile only.
        assert!(matches!(
            parse(&["assess", "--baseline", "b.json"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
    }

    #[test]
    fn serve_options_parse_and_reject_strays() {
        let a = parse(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--tenants",
            "4",
            "--queue-depth",
            "16",
        ])
        .unwrap();
        assert_eq!(a.command, "serve");
        assert_eq!(a.get("listen"), Some("127.0.0.1:0"));
        assert_eq!(a.get_u64("tenants").unwrap(), Some(4));
        assert_eq!(a.get_u64("queue-depth").unwrap(), Some(16));
        // serve takes no spec options, no boolean flags, and its
        // options reject the bare-flag form like every other command.
        assert!(matches!(
            parse(&["serve", "--registry", "r.json"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
        assert!(matches!(
            parse(&["serve", "--json"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
        assert!(matches!(
            parse(&["serve", "--listen"]).unwrap_err(),
            ArgError::MissingValue { .. }
        ));
        // --listen is serve-only.
        assert!(matches!(
            parse(&["assess", "--listen", "127.0.0.1:0"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
    }

    #[test]
    fn serve_resilience_options_parse() {
        let a = parse(&[
            "serve",
            "--workers",
            "2",
            "--io-timeout",
            "5000",
            "--line-timeout",
            "8000",
            "--max-line-bytes",
            "4096",
            "--request-deadline",
            "1500",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown",
            "250",
            "--drain-timeout",
            "2000",
        ])
        .unwrap();
        assert_eq!(a.get_u64("workers").unwrap(), Some(2));
        assert_eq!(a.get_u64("io-timeout").unwrap(), Some(5000));
        assert_eq!(a.get_u64("line-timeout").unwrap(), Some(8000));
        assert_eq!(a.get_u64("max-line-bytes").unwrap(), Some(4096));
        assert_eq!(a.get_u64("request-deadline").unwrap(), Some(1500));
        assert_eq!(a.get_u64("breaker-threshold").unwrap(), Some(3));
        assert_eq!(a.get_u64("breaker-cooldown").unwrap(), Some(250));
        assert_eq!(a.get_u64("drain-timeout").unwrap(), Some(2000));
        // The resilience knobs are serve-only.
        assert!(matches!(
            parse(&["assess", "--drain-timeout", "2000"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
    }

    #[test]
    fn call_options_parse_and_reject_strays() {
        let a = parse(&[
            "call",
            "--addr",
            "127.0.0.1:7414",
            "--method",
            "assess",
            "--params",
            "params.json",
            "--tenant",
            "acme",
            "--retries",
            "5",
            "--backoff-ms",
            "20",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(a.command, "call");
        assert_eq!(a.get("addr"), Some("127.0.0.1:7414"));
        assert_eq!(a.get("method"), Some("assess"));
        assert_eq!(a.get("params"), Some("params.json"));
        assert_eq!(a.get("tenant"), Some("acme"));
        assert_eq!(a.get_u64("retries").unwrap(), Some(5));
        assert_eq!(a.get_u64("backoff-ms").unwrap(), Some(20));
        assert_eq!(a.get_u64("seed").unwrap(), Some(7));
        assert!(matches!(
            parse(&["call", "--registry", "r.json"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
    }

    #[test]
    fn per_type_waiting_goal_parses_on_assess_and_recommend() {
        for command in ["assess", "recommend"] {
            let a = parse(&[command, "--max-wait-type", "AS=0.05,DBS=0.02"]).unwrap();
            assert_eq!(a.get("max-wait-type"), Some("AS=0.05,DBS=0.02"));
        }
        assert!(matches!(
            parse(&["simulate", "--max-wait-type", "AS=0.05"]).unwrap_err(),
            ArgError::UnknownFlag { .. }
        ));
    }

    #[test]
    fn typed_getters_validate() {
        let a = parse(&["x", "--n", "abc", "--m", "1,2,x"]).unwrap();
        assert!(matches!(a.get_f64("n"), Err(ArgError::InvalidValue { .. })));
        assert!(matches!(a.get_u64("n"), Err(ArgError::InvalidValue { .. })));
        assert!(matches!(
            a.get_replicas("m"),
            Err(ArgError::InvalidValue { .. })
        ));
        assert!(matches!(
            a.require("ghost"),
            Err(ArgError::MissingOption { option: "ghost" })
        ));
    }
}
