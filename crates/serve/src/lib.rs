//! # wfms-serve
//!
//! The persistent multi-tenant assessment daemon behind `wfms serve`,
//! and the shared request handler both transports dispatch through.
//!
//! The paper's configuration tool is naturally interactive: an
//! administrator iterates over candidate configurations, goals, and
//! what-if workloads against one fixed registry. A fresh process per
//! question re-derives everything; a warm [`AssessmentEngine`] answers
//! repeat questions from its caches (per-type records on the exact
//! default path). This crate keeps engines warm:
//!
//! * [`Handler`] — the transport-independent API layer. It maps a
//!   [`wfms_proto::Request`] to a [`wfms_proto::Response`], holding one
//!   warm engine per client-supplied tenant id (LRU-bounded). The CLI's
//!   one-shot `assess` / `recommend` commands call it in-process; the
//!   daemon calls it per request line. Both therefore speak the exact
//!   same typed API, and results are bit-identical regardless of
//!   transport or cache warmth (the engine's determinism contract).
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

pub use daemon::{serve, ServeError, ServeOptions};
pub use handler::{Handler, QueueTelemetry, WorkloadEntry, WorkloadFile};
pub use resilience::{Admission, BreakerPolicy, BreakerRegistry};
