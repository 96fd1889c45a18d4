//! # wfms-audit
//!
//! A workspace invariant auditor: the implementation-side sibling of
//! the `wfms-diag` model lints. Where `wfms lint` asks "is this
//! *model* well-formed?", `wfms audit` asks "does this *repository*
//! still honour its own contracts?" — statically, over the sources and
//! the documentation, with no execution.
//!
//! Three passes, each owning a band of the stable `A0xx` registry
//! ([`codes`]):
//!
//! 1. **registry consistency** ([`registry`], `A001`–`A005` and
//!    `A014`–`A017`) — obs span/metric names, failpoint sites,
//!    diagnostic codes, the decision and wire vocabularies, and the
//!    audit codes themselves must match their documentation tables in
//!    both directions;
//! 2. **determinism** ([`determinism`], `A006`; `A007` is retired) —
//!    no hash-order-dependent collections in the solver crates;
//! 3. **panic safety** ([`panic_safety`], `A008`–`A010`) — no
//!    `unwrap`/`expect`/`panic!` in hot-path library code without a
//!    justified allow.
//!
//! Findings reuse the `wfms-diag` vocabulary (`Severity`, `Location`,
//! `Diagnostic`, `Diagnostics`) so they serialize, render, and gate
//! exactly like model diagnostics. Suppressions are in-source pragmas
//! (`// audit:allow(A008, reason = "…")`, see [`scan`]) and are
//! themselves audited: malformed ones are `A012` errors, unused ones
//! `A013` warnings.
//!
//! The crate is dependency-free apart from `wfms-diag` — no parser
//! framework, no filesystem walker crate — so it can run first in CI
//! and under Miri.
//!
//! ```no_run
//! let report = wfms_audit::run_audit(std::path::Path::new(".")).unwrap();
//! if report.has_errors() {
//!     eprintln!("{}", report.summary());
//! }
//! ```

pub mod codes;
pub mod determinism;
pub mod panic_safety;
pub mod registry;
pub mod scan;

use std::io;
use std::path::Path;

use wfms_diag::{Diagnostic, Diagnostics, Location, Severity};

pub use scan::Workspace;

/// Loads the workspace under `root` and runs every audit pass.
///
/// # Errors
/// Propagates filesystem errors from loading the sources; audit
/// *findings* are never errors at this level — inspect the returned
/// [`Diagnostics`].
pub fn run_audit(root: &Path) -> io::Result<Diagnostics> {
    let workspace = Workspace::load(root)?;
    Ok(audit_workspace(&workspace))
}

/// Runs every audit pass over an already-loaded workspace.
pub fn audit_workspace(workspace: &Workspace) -> Diagnostics {
    let mut diags = Diagnostics::new();
    // Pragma syntax first: a malformed allow may be silently failing to
    // suppress findings reported below, and the fix starts with it.
    for file in &workspace.files {
        for malformed in &file.malformed {
            emit(
                &mut diags,
                codes::A_MALFORMED_ALLOW,
                format!("malformed audit pragma: {}", malformed.message),
                &file.rel,
                malformed.line,
            );
        }
    }
    registry::run(workspace, &mut diags);
    determinism::run(workspace, &mut diags);
    panic_safety::run(workspace, &mut diags);
    // Allowlist hygiene last: only now is it known which pragmas fired.
    for file in &workspace.files {
        for allow in &file.allows {
            if !allow.used.get() {
                emit(
                    &mut diags,
                    codes::A_UNUSED_ALLOW,
                    format!(
                        "audit:allow({}) suppresses nothing — remove it so the allowlist \
                         stays minimal",
                        allow.code
                    ),
                    &file.rel,
                    allow.line,
                );
            }
        }
    }
    diags
}

/// Pushes one finding with the registry severity for `code`.
pub(crate) fn emit(diags: &mut Diagnostics, code: &str, message: String, path: &str, line: usize) {
    let severity = codes::lookup(code).map_or(Severity::Error, |info| info.severity);
    diags.push(Diagnostic::new(
        code,
        severity,
        Location::File {
            path: path.to_string(),
            line,
        },
        message,
    ));
}
