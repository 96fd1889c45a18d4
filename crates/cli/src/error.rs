//! CLI error type.

use std::fmt;

use crate::args::ArgError;
use wfms_core::sim::SimError;
use wfms_core::ConfigError;
use wfms_serve::MethodError;

/// Errors surfaced to the terminal user.
#[derive(Debug)]
pub enum CliError {
    /// Argument-parsing failure.
    Arg(ArgError),
    /// Unknown command word.
    UnknownCommand {
        /// What the user typed.
        command: String,
    },
    /// File-system failure.
    Io {
        /// Offending path.
        path: String,
        /// OS error text.
        message: String,
    },
    /// JSON (de)serialization failure.
    Json {
        /// Offending path.
        path: String,
        /// Parser error text.
        message: String,
    },
    /// Configuration-tool failure.
    Tool(ConfigError),
    /// Simulator failure.
    Sim(SimError),
    /// The lint pass found errors (the report itself went to stdout).
    Lint {
        /// Number of error-severity findings.
        errors: usize,
    },
    /// The workspace audit found errors (the report went to stdout).
    Audit {
        /// Number of error-severity findings.
        errors: usize,
    },
    /// `profile --check` found a stage that recorded no spans.
    EmptyStage {
        /// The silent stage's name.
        stage: &'static str,
    },
    /// `profile --check` found a required counter that stayed zero.
    EmptyCounter {
        /// The silent counter's name.
        counter: &'static str,
    },
    /// `profile --check` found a must-stay-zero counter that fired: the
    /// clean run degraded (solver fallback or quarantined candidate).
    NonzeroCounter {
        /// The counter's name.
        counter: &'static str,
        /// Its observed value.
        value: u64,
    },
    /// An observability output (`--trace-out`, `--timeline`,
    /// `--journal`) would overwrite an existing file and
    /// `--trace-out-force` was not given.
    Clobber {
        /// The path that already exists.
        path: String,
    },
    /// `profile --baseline --gate` found stages whose share of the
    /// compared total regressed past the gate (the diff table itself
    /// went to stdout).
    Regression {
        /// Number of regressed stages.
        stages: usize,
    },
    /// `wfms explain` could not reconstruct a decision chain from the
    /// journal.
    Explain {
        /// What was missing or ambiguous.
        message: String,
    },
    /// A parameter the typed `assess`/`recommend` core refused (an
    /// unknown `--max-wait-type` server-type name); the message is the
    /// one the daemon answers under `invalid-params`.
    InvalidParams(String),
    /// Writing the report failed.
    Output(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Arg(e) => write!(f, "{e}"),
            CliError::UnknownCommand { command } => {
                write!(f, "unknown command {command:?} (try `wfms help`)")
            }
            CliError::Io { path, message } => write!(f, "{path}: {message}"),
            CliError::Json { path, message } => write!(f, "{path}: invalid JSON: {message}"),
            CliError::Tool(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Lint { errors } => write!(f, "lint found {errors} error(s)"),
            CliError::Audit { errors } => write!(f, "audit found {errors} error(s)"),
            CliError::EmptyStage { stage } => {
                write!(f, "profile: stage {stage:?} recorded no spans")
            }
            CliError::EmptyCounter { counter } => {
                write!(f, "profile: counter {counter:?} stayed zero")
            }
            CliError::NonzeroCounter { counter, value } => {
                write!(
                    f,
                    "profile: counter {counter:?} fired {value} time(s) on a clean run"
                )
            }
            CliError::Clobber { path } => {
                write!(
                    f,
                    "{path} already exists (pass --trace-out-force to overwrite)"
                )
            }
            CliError::Regression { stages } => {
                write!(f, "profile: {stages} stage(s) regressed past the gate")
            }
            CliError::Explain { message } => write!(f, "explain: {message}"),
            CliError::InvalidParams(message) => write!(f, "{message}"),
            CliError::Output(e) => write!(f, "failed to write output: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Arg(e)
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Tool(e)
    }
}

impl From<MethodError> for CliError {
    fn from(e: MethodError) -> Self {
        match e {
            MethodError::Tool(e) => CliError::Tool(e),
            MethodError::InvalidParams(message) => CliError::InvalidParams(message),
        }
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Output(e)
    }
}
