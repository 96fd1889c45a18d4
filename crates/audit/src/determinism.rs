//! Pass 2 — determinism lint (`A006`; `A007` is retired).
//!
//! The solver crates promise bit-identical results between warm,
//! shared and fresh engines (DESIGN.md §8) and float-identical fast
//! paths (§9). **Hash-order-dependent collections** silently break that
//! promise: iterating a `HashMap` / `HashSet` yields a randomized order
//! per process, so any float accumulation or output built from such an
//! iteration is run-to-run nondeterministic. Every use in a solver
//! crate must be proven order-insensitive (lookup-only,
//! membership-only) and carry an `audit:allow(A006, …)` saying why.

use wfms_diag::Diagnostics;

use crate::codes;
use crate::emit;
use crate::scan::Workspace;

/// The crates bound by the bit-identity contract.
const SOLVER_SCOPES: &[&str] = &[
    "crates/markov/src/",
    "crates/avail/src/",
    "crates/performability/src/",
    "crates/config/src/",
];

pub fn run(ws: &Workspace, diags: &mut Diagnostics) {
    for file in ws.sources_under(SOLVER_SCOPES) {
        if file.is_bin() {
            continue;
        }
        for (idx, code) in file.code.iter().enumerate() {
            let line = idx + 1;
            if (code.contains("HashMap") || code.contains("HashSet"))
                && !file.allowed(codes::A_HASH_ORDER, line)
            {
                let which = if code.contains("HashMap") {
                    "HashMap"
                } else {
                    "HashSet"
                };
                emit(
                    diags,
                    codes::A_HASH_ORDER,
                    format!(
                        "{which} in a solver crate: prove the use order-insensitive and \
                         add `audit:allow(A006, reason = …)`, or switch to an ordered structure"
                    ),
                    &file.rel,
                    line,
                );
            }
        }
    }
}
