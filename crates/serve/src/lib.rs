//! # wfms-serve
//!
//! The persistent multi-tenant assessment daemon behind `wfms serve`,
//! and the typed core of `assess` and `recommend` that both transports
//! call.
//!
//! The paper's configuration tool is naturally interactive: an
//! administrator iterates over candidate configurations, goals, and
//! what-if workloads against one fixed registry. A fresh process per
//! question re-derives everything; a warm [`AssessmentEngine`] answers
//! repeat questions from its per-type records. This crate keeps engines
//! warm:
//!
//! * [`Tenant`] — the typed core: one engine plus each workflow's
//!   analysis, built from typed documents and goals ([`build_goals`],
//!   [`resolve_per_type_waits`], [`search_options`]), answering
//!   [`Tenant::assess`] and [`Tenant::recommend`] with typed results.
//!   The CLI's one-shot `assess` / `recommend` commands call it
//!   in-process on the documents they read; the daemon's JSON methods
//!   wrap it. Both therefore run one implementation of every method,
//!   and results are bit-identical regardless of transport or cache
//!   warmth (the engine's determinism contract).
//! * [`Handler`] — the JSON methods. It maps a
//!   [`wfms_proto::Request`] to a [`wfms_proto::Response`], holding one
//!   warm tenant per client-supplied tenant id (LRU-bounded), and the
//!   daemon calls it per request line. It reads `params` as text
//!   ([`ParamsText`]), lent from the line or rendered from a `Value`.
//! * [`serve`] — the dependency-free line-JSON-over-TCP transport:
//!   a bounded connection queue with backpressure (full queue ⇒ an
//!   `overloaded` error response, never unbounded memory), a fixed
//!   worker pool, and graceful shutdown on a `shutdown` request.
//!
//! [`AssessmentEngine`]: wfms_core::config::AssessmentEngine

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod daemon;
mod handler;
mod resilience;
mod tenant;

pub use daemon::{serve, ServeError, ServeOptions};
pub use handler::{Handler, ParamsText, QueueTelemetry};
pub use resilience::{Admission, BreakerPolicy, BreakerRegistry};
pub use tenant::{
    build_goals, resolve_per_type_waits, search_options, Assessed, MethodError, Tenant,
    WorkloadEntry, WorkloadFile,
};
