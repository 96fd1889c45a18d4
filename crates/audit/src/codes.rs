//! The stable audit-code registry.
//!
//! `A0xx` codes are the implementation-side sibling of the `W/M/Q/C`
//! model diagnostics in `wfms-diag::codes`: each one names a repository
//! invariant that `wfms audit` enforces statically over the workspace
//! sources and documentation. The numbers are stable identifiers —
//! renaming or renumbering one is a breaking change to downstream
//! tooling, exactly like an obs span name or a failpoint site — so a
//! retired code is never reused.
//!
//! Codes are grouped by pass:
//!
//! * `A001`–`A005` — **registry consistency**: the stable-name tables
//!   (obs spans/metrics, failpoint sites, diagnostic codes) must agree
//!   between code and docs in both directions;
//! * `A006` — **determinism**: no hash-order-dependent data structures
//!   in the solver crates;
//! * `A007` — *retired*: it policed unordered parallel reductions, and
//!   the searches no longer run in parallel;
//! * `A008`–`A010` — **panic safety**: no `unwrap`/`expect`/`panic!`
//!   in hot-path library code without a justified allow;
//! * `A011` — *retired*: it policed callers of the free-function search
//!   API, which is gone;
//! * `A012`–`A013` — the allowlist itself is machine-checked: pragmas
//!   must be well-formed and must actually suppress something;
//! * `A014`–`A017` — **registry consistency, continued**: the
//!   decision-journal vocabulary (`wfms-config::journal`), the wire
//!   method names and the wire error vocabulary (`wfms-proto`), and this
//!   registry itself must each agree with their DESIGN.md and README
//!   tables in both directions.
//!
//! The [`all`] table carries the default severity, a one-line summary,
//! and the DESIGN.md section whose contract the check enforces;
//! `DESIGN.md` §11 documents the same table, and the registry pass
//! reports drift between the two as `A017`.

use wfms_diag::Severity;

// ------------------------------------------- registry consistency

/// An obs span or metric stable name is emitted in code but missing
/// from the documentation tables.
pub const A_OBS_NAME_UNDOCUMENTED: &str = "A001";
/// An obs stable name appears in a documentation table but is never
/// emitted by any instrumentation site.
pub const A_OBS_NAME_STALE: &str = "A002";
/// A CLI `REQUIRED_STAGES` / `REQUIRED_COUNTERS` /
/// `REQUIRED_ZERO_COUNTERS` entry names a stage or counter no code
/// emits.
pub const A_REQUIRED_NAME_UNEMITTED: &str = "A003";
/// A failpoint site drifted between the `point!` sites in code and the
/// DESIGN.md §10 site table (either direction).
pub const A_FAILPOINT_DRIFT: &str = "A004";
/// The `wfms-diag` code registry (`codes::all()`) drifted from the
/// README diagnostic tables (either direction).
pub const A_DIAG_TABLE_DRIFT: &str = "A005";

// ------------------------------------------------- determinism

/// A hash-order-dependent collection (`HashMap` / `HashSet`) in a
/// solver crate without an order-insensitivity allow.
pub const A_HASH_ORDER: &str = "A006";

// ------------------------------------------------ panic safety

/// `.unwrap()` / `.expect(...)` in hot-path library code.
pub const A_UNWRAP: &str = "A008";
/// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in hot-path
/// library code.
pub const A_PANIC: &str = "A009";
/// Direct slice indexing in the CLI crate (user-input boundary).
pub const A_DIRECT_INDEX: &str = "A010";

// -------------------------------------------------- allowlist

/// A malformed `audit:allow` pragma (unparseable, unknown code, or
/// missing reason).
pub const A_MALFORMED_ALLOW: &str = "A012";
/// An `audit:allow` pragma that suppressed nothing — stale entries
/// must be removed so the allowlist stays minimal.
pub const A_UNUSED_ALLOW: &str = "A013";

// --------------------------------- registry consistency (continued)

/// The decision-journal vocabulary (`OUTCOME_*` / `REASON_*` /
/// `EVENT_*` constants in `wfms-config::journal`) drifted from the
/// DESIGN.md §7 decision-vocabulary table or the README Explainability
/// table (either direction).
pub const A_DECISION_VOCAB_DRIFT: &str = "A014";

/// The wire protocol's method names (`METHOD_*` constants in
/// `wfms-proto`) drifted from the DESIGN.md §13 protocol method table
/// or the README Serving table (either direction). Method names reach
/// clients over TCP, so they carry the same stability contract as the
/// journal vocabulary — and the same drift check.
pub const A_PROTO_METHOD_DRIFT: &str = "A015";

/// The wire protocol's error vocabulary (`ERR_*` constants in
/// `wfms-proto`) drifted from the DESIGN.md §13 error-vocabulary table
/// or the README error vocabulary table (either direction). Error kinds
/// drive client retry policy (`wfms call` retries `overloaded`,
/// `unavailable`, and `deadline-exceeded`), so they carry the same
/// stability contract as the method names — and the same drift check.
pub const A_PROTO_ERROR_DRIFT: &str = "A016";

/// The audit codes themselves (the `A_*` constants of this module)
/// drifted from the DESIGN.md §11 code table (either direction).
pub const A_AUDIT_CODE_DRIFT: &str = "A017";

/// One row of the audit-code registry.
#[derive(Debug, Clone)]
pub struct CodeInfo {
    /// The stable code, e.g. `"A006"`.
    pub code: String,
    /// Default severity of findings with this code.
    pub severity: Severity,
    /// One-line summary of the rule.
    pub summary: String,
    /// The DESIGN.md section whose contract the rule enforces.
    pub contract: String,
}

fn info(code: &str, severity: Severity, summary: &str, contract: &str) -> CodeInfo {
    CodeInfo {
        code: code.to_string(),
        severity,
        summary: summary.to_string(),
        contract: contract.to_string(),
    }
}

/// The full registry, in code order.
pub fn all() -> Vec<CodeInfo> {
    use Severity::{Error, Warning};
    vec![
        info(
            A_OBS_NAME_UNDOCUMENTED,
            Error,
            "every emitted obs span/metric stable name must appear in the doc tables",
            "DESIGN.md \u{a7}7",
        ),
        info(
            A_OBS_NAME_STALE,
            Error,
            "every documented obs stable name must be emitted by some instrumentation site",
            "DESIGN.md \u{a7}7",
        ),
        info(
            A_REQUIRED_NAME_UNEMITTED,
            Error,
            "CLI REQUIRED_* stage/counter gates must reference emitted names",
            "DESIGN.md \u{a7}7",
        ),
        info(
            A_FAILPOINT_DRIFT,
            Error,
            "point! sites and the DESIGN.md \u{a7}10 site table must match exactly",
            "DESIGN.md \u{a7}10",
        ),
        info(
            A_DIAG_TABLE_DRIFT,
            Error,
            "wfms-diag codes::all() and the README diagnostic tables must match exactly",
            "DESIGN.md \u{a7}6",
        ),
        info(
            A_HASH_ORDER,
            Error,
            "no HashMap/HashSet in solver crates unless proven order-insensitive",
            "DESIGN.md \u{a7}8",
        ),
        info(
            A_UNWRAP,
            Error,
            "no unwrap/expect in hot-path library code without a justified allow",
            "DESIGN.md \u{a7}10",
        ),
        info(
            A_PANIC,
            Error,
            "no panic!/unreachable!/todo!/unimplemented! in hot-path library code",
            "DESIGN.md \u{a7}10",
        ),
        info(
            A_DIRECT_INDEX,
            Warning,
            "prefer checked access over direct indexing at the CLI input boundary",
            "DESIGN.md \u{a7}10",
        ),
        info(
            A_MALFORMED_ALLOW,
            Error,
            "audit:allow pragmas must name a known code and give a reason",
            "DESIGN.md \u{a7}11",
        ),
        info(
            A_UNUSED_ALLOW,
            Warning,
            "audit:allow pragmas that suppress nothing must be removed",
            "DESIGN.md \u{a7}11",
        ),
        info(
            A_DECISION_VOCAB_DRIFT,
            Error,
            "the decision-journal vocabulary and its doc tables must match exactly",
            "DESIGN.md \u{a7}7",
        ),
        info(
            A_PROTO_METHOD_DRIFT,
            Error,
            "the wire method names and their doc tables must match exactly",
            "DESIGN.md \u{a7}13",
        ),
        info(
            A_PROTO_ERROR_DRIFT,
            Error,
            "the wire error vocabulary and its doc tables must match exactly",
            "DESIGN.md \u{a7}13",
        ),
        info(
            A_AUDIT_CODE_DRIFT,
            Error,
            "the audit codes and the DESIGN.md \u{a7}11 code table must match exactly",
            "DESIGN.md \u{a7}11",
        ),
    ]
}

/// Looks one code up in the registry.
pub fn lookup(code: &str) -> Option<CodeInfo> {
    all().into_iter().find(|c| c.code == code)
}

/// True when `code` is a registered audit code.
pub fn is_known(code: &str) -> bool {
    lookup(code).is_some()
}
