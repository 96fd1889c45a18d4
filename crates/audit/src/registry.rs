//! Pass 1 — registry consistency (`A001`–`A005`, `A014`–`A017`).
//!
//! The repo's stable-name vocabularies each live in two places: the
//! names in code and a documentation table. One checker compares the
//! two, in both directions, for every row of the `VOCABULARIES` table:
//!
//! * obs **span** and **metric** names — `span!("…")` and
//!   `wfms_obs::counter/gauge/histogram("…")` sites vs the stable-name
//!   tables in `crates/obs/src/lib.rs`, and the spans alone vs the
//!   README Observability table;
//! * **failpoint** sites — `point!("…")` sites vs the DESIGN.md §10
//!   site table;
//! * **diagnostic** codes — the `wfms-diag` `codes.rs` constants vs the
//!   README Diagnostics tables;
//! * the **decision vocabulary** — the `OUTCOME_*`/`REASON_*`/`EVENT_*`
//!   constants of `wfms-config::journal` vs the DESIGN.md §7
//!   decision-vocabulary table and the README Explainability table;
//! * the **wire method names** — the `METHOD_*` constants of
//!   `wfms-proto` vs the DESIGN.md §13 protocol method table and the
//!   README Serving table;
//! * the **wire error vocabulary** — the `ERR_*` constants of
//!   `wfms-proto` vs the DESIGN.md §13 error-vocabulary table and the
//!   README error vocabulary table;
//! * the **audit codes** — the `A_*` constants of this crate's
//!   [`codes`] module vs the DESIGN.md §11 code table.
//!
//! Two checks are not pairings and run beside the table: the CLI
//! `REQUIRED_STAGES` / `REQUIRED_COUNTERS` / `REQUIRED_ZERO_COUNTERS`
//! gates must name emitted spans or counters (`A003`), and every
//! diagnostic-code constant must be registered in `codes::all()`
//! (`A005`).
//!
//! A doc table is skipped when its file is absent, and a
//! constant-backed row when its source file is absent, so fixture
//! workspaces only need the files relevant to the invariant under test.

use std::collections::BTreeMap;

use wfms_diag::Diagnostics;

use crate::codes;
use crate::emit;
use crate::scan::{backticked, first_cell_names, first_cell_plain, SourceFile, Workspace};

/// Crates whose sources define (rather than emit) the vocabularies, and
/// are therefore excluded from the emission scan.
const EMISSION_EXEMPT: &[&str] = &["crates/obs/", "crates/fault/", "crates/audit/"];

/// A stable name and its first site in code (file, one-based line).
type Sites = BTreeMap<String, (String, usize)>;

/// Doc table names with the line each first appeared on.
type DocNames = BTreeMap<String, usize>;

/// An instrumentation-site kind the emission scan collects.
#[derive(Clone, Copy)]
enum Emission {
    Span,
    Metric,
    Failpoint,
}

/// Where a vocabulary's code-side names come from.
enum Source {
    /// Names emitted at instrumentation sites, outside
    /// [`EMISSION_EXEMPT`] and `src/bin/` drivers.
    Emitted(&'static [Emission]),
    /// The values of the `pub const NAME: &str` declarations in one file
    /// whose `NAME` starts with one of the prefixes (every one when
    /// there are none).
    Consts(&'static str, &'static [&'static str]),
}

/// One documentation table a vocabulary must match.
struct DocTable {
    file: &'static str,
    /// Only rows under a heading whose lowercased line contains this
    /// text count; any other heading closes the section. `None` scans
    /// the whole file.
    heading: Option<&'static str>,
    /// The names one table line lists.
    cell: fn(&str) -> Vec<String>,
}

const fn table(
    file: &'static str,
    heading: Option<&'static str>,
    cell: fn(&str) -> Vec<String>,
) -> DocTable {
    DocTable {
        file,
        heading,
        cell,
    }
}

/// One vocabulary pairing: where the names live in code, the tables
/// that must list exactly them, and the code each direction of drift
/// reports under.
struct Vocabulary {
    /// What one name is, as findings call it.
    noun: &'static str,
    source: Source,
    docs: &'static [DocTable],
    /// A name in code that a table lacks.
    undocumented: &'static str,
    /// A table name that code lacks.
    stale: &'static str,
}

/// Every code ↔ doc pairing the registry pass checks.
const VOCABULARIES: &[Vocabulary] = &[
    Vocabulary {
        noun: "obs name",
        source: Source::Emitted(&[Emission::Span, Emission::Metric]),
        docs: &[table("crates/obs/src/lib.rs", None, first_cell_names)],
        undocumented: codes::A_OBS_NAME_UNDOCUMENTED,
        stale: codes::A_OBS_NAME_STALE,
    },
    Vocabulary {
        noun: "span",
        source: Source::Emitted(&[Emission::Span]),
        docs: &[table("README.md", Some("observability"), first_cell_names)],
        undocumented: codes::A_OBS_NAME_UNDOCUMENTED,
        stale: codes::A_OBS_NAME_STALE,
    },
    Vocabulary {
        noun: "failpoint site",
        source: Source::Emitted(&[Emission::Failpoint]),
        docs: &[table("DESIGN.md", None, site_cells)],
        undocumented: codes::A_FAILPOINT_DRIFT,
        stale: codes::A_FAILPOINT_DRIFT,
    },
    Vocabulary {
        noun: "diagnostic code",
        source: Source::Consts("crates/diag/src/codes.rs", &[]),
        docs: &[table("README.md", Some("diagnostics"), diag_code_cells)],
        undocumented: codes::A_DIAG_TABLE_DRIFT,
        stale: codes::A_DIAG_TABLE_DRIFT,
    },
    Vocabulary {
        noun: "decision-vocabulary name",
        source: Source::Consts(
            "crates/config/src/journal.rs",
            &["OUTCOME_", "REASON_", "EVENT_"],
        ),
        docs: &[
            table("DESIGN.md", Some("decision vocabulary"), first_cell_names),
            table("README.md", Some("explainability"), first_cell_names),
        ],
        undocumented: codes::A_DECISION_VOCAB_DRIFT,
        stale: codes::A_DECISION_VOCAB_DRIFT,
    },
    Vocabulary {
        noun: "wire method",
        source: Source::Consts("crates/proto/src/lib.rs", &["METHOD_"]),
        docs: &[
            table("DESIGN.md", Some("serving protocol"), first_cell_names),
            table("README.md", Some("serving"), first_cell_names),
        ],
        undocumented: codes::A_PROTO_METHOD_DRIFT,
        stale: codes::A_PROTO_METHOD_DRIFT,
    },
    Vocabulary {
        noun: "wire error kind",
        source: Source::Consts("crates/proto/src/lib.rs", &["ERR_"]),
        docs: &[
            table("DESIGN.md", Some("error vocabulary"), first_cell_names),
            table("README.md", Some("error vocabulary"), first_cell_names),
        ],
        undocumented: codes::A_PROTO_ERROR_DRIFT,
        stale: codes::A_PROTO_ERROR_DRIFT,
    },
    Vocabulary {
        noun: "audit code",
        source: Source::Consts("crates/audit/src/codes.rs", &["A_"]),
        docs: &[table(
            "DESIGN.md",
            Some("implementation audit"),
            first_cell_names,
        )],
        undocumented: codes::A_AUDIT_CODE_DRIFT,
        stale: codes::A_AUDIT_CODE_DRIFT,
    },
];

/// Every emitted stable name, by instrumentation-site kind.
#[derive(Default)]
struct Emissions {
    spans: Sites,
    metrics: Sites,
    failpoints: Sites,
}

impl Emissions {
    fn of(&self, kind: Emission) -> &Sites {
        match kind {
            Emission::Span => &self.spans,
            Emission::Metric => &self.metrics,
            Emission::Failpoint => &self.failpoints,
        }
    }
}

pub fn run(ws: &Workspace, diags: &mut Diagnostics) {
    let mut emitted = Emissions::default();
    for file in &ws.files {
        if EMISSION_EXEMPT.iter().any(|p| file.rel.starts_with(p)) || file.is_bin() {
            continue;
        }
        collect_emissions(file, &mut emitted);
    }
    for vocabulary in VOCABULARIES {
        check_vocabulary(ws, vocabulary, &emitted, diags);
    }
    check_required_gates(ws, &emitted.spans, &emitted.metrics, diags);
    check_diag_registration(ws, diags);
}

fn collect_emissions(file: &SourceFile, emitted: &mut Emissions) {
    for (idx, code) in file.code.iter().enumerate() {
        let line = idx + 1;
        if code.contains("span!(") {
            if let Some(name) = file.literal_near(line, 2) {
                record(&mut emitted.spans, name, file, line);
            }
        }
        for needle in [
            "wfms_obs::counter(",
            "wfms_obs::gauge(",
            "wfms_obs::histogram(",
        ] {
            if code.contains(needle) {
                if let Some(name) = file.literal_near(line, 2) {
                    record(&mut emitted.metrics, name, file, line);
                }
            }
        }
        if code.contains("point!(") {
            match file.literal_near(line, 1).filter(|n| is_site_name(n)) {
                Some(name) => record(&mut emitted.failpoints, name, file, line),
                // Variable-site macros (`point!(fault_site)`): the
                // candidate site names are string literals defined a few
                // lines earlier — collect every site-shaped literal in
                // the surrounding window.
                None => {
                    let lo = idx.saturating_sub(10);
                    let hi = (idx + 3).min(file.literals.len());
                    for lits in &file.literals[lo..hi] {
                        for lit in lits {
                            if is_site_name(lit) {
                                record(&mut emitted.failpoints, lit, file, line);
                            }
                        }
                    }
                }
            }
        }
    }
}

fn record(sites: &mut Sites, name: &str, file: &SourceFile, line: usize) {
    sites
        .entry(name.to_string())
        .or_insert_with(|| (file.rel.clone(), line));
}

/// A failpoint site is dotted lowercase (`linalg.dense-lu`,
/// `engine.state-cache-fill`).
fn is_site_name(name: &str) -> bool {
    name.contains('.')
        && !name.is_empty()
        && name.chars().all(|c| {
            c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '-' || c == '_'
        })
}

impl Source {
    /// The code-side names with their first sites, or `None` when the
    /// defining file is absent.
    fn names(&self, ws: &Workspace, emitted: &Emissions) -> Option<Sites> {
        match self {
            Source::Emitted(kinds) => {
                let mut names = Sites::new();
                for &kind in *kinds {
                    for (name, site) in emitted.of(kind) {
                        names.entry(name.clone()).or_insert_with(|| site.clone());
                    }
                }
                Some(names)
            }
            Source::Consts(file, prefixes) => {
                let file = ws.file(file)?;
                let mut names = Sites::new();
                for (idx, value) in const_str_values(file) {
                    let declared = const_name(&file.code[idx]);
                    if prefixes.is_empty() || prefixes.iter().any(|p| declared.starts_with(p)) {
                        names
                            .entry(value)
                            .or_insert_with(|| (file.rel.clone(), idx + 1));
                    }
                }
                Some(names)
            }
        }
    }

    /// How a finding says where the name sits in code.
    fn verb(&self) -> &'static str {
        match self {
            Source::Emitted(_) => "emitted",
            Source::Consts(..) => "declared",
        }
    }

    /// How a finding says that code lacks a documented name.
    fn absence(&self) -> String {
        match self {
            Source::Emitted(_) => "no code emits it".to_string(),
            Source::Consts(file, _) => format!("{file} does not declare it"),
        }
    }
}

/// Compares one vocabulary's code-side names with each of its doc
/// tables, in both directions.
fn check_vocabulary(
    ws: &Workspace,
    vocabulary: &Vocabulary,
    emitted: &Emissions,
    diags: &mut Diagnostics,
) {
    let Some(names) = vocabulary.source.names(ws, emitted) else {
        return;
    };
    let noun = vocabulary.noun;
    for table in vocabulary.docs {
        let Some(lines) = ws.doc_lines(table.file) else {
            continue;
        };
        let documented = doc_names(&lines, table);
        let what = match table.heading {
            Some(heading) => format!("{} table under \"{heading}\"", table.file),
            None => format!("{} tables", table.file),
        };
        for (name, (file, line)) in &names {
            if ws
                .file(file)
                .is_some_and(|f| f.allowed(vocabulary.undocumented, *line))
            {
                continue;
            }
            if !documented.contains_key(name) {
                emit(
                    diags,
                    vocabulary.undocumented,
                    format!(
                        "{noun} `{name}` is {} here but missing from the {what}",
                        vocabulary.source.verb()
                    ),
                    file,
                    *line,
                );
            }
        }
        for (name, line) in &documented {
            if !names.contains_key(name) {
                emit(
                    diags,
                    vocabulary.stale,
                    format!(
                        "{noun} `{name}` is listed in the {what}, but {}",
                        vocabulary.source.absence()
                    ),
                    table.file,
                    *line,
                );
            }
        }
    }
}

/// The names `table` lists in `lines`, with the line each first
/// appears on.
fn doc_names(lines: &[String], table: &DocTable) -> DocNames {
    let mut names = DocNames::new();
    let mut in_section = table.heading.is_none();
    for (idx, line) in lines.iter().enumerate() {
        if let Some(heading) = table.heading {
            if line.trim_start().starts_with('#') {
                in_section = line.to_lowercase().contains(heading);
                continue;
            }
        }
        if in_section {
            for name in (table.cell)(line) {
                names.entry(name).or_insert(idx + 1);
            }
        }
    }
    names
}

/// Failpoint-site-shaped names in a line's first cell.
fn site_cells(line: &str) -> Vec<String> {
    first_cell_names(line)
        .into_iter()
        .filter(|name| is_site_name(name))
        .collect()
}

/// `W001`-shaped codes in a line's first cell, bare or backticked.
fn diag_code_cells(line: &str) -> Vec<String> {
    let Some(cell) = first_cell_plain(line) else {
        return Vec::new();
    };
    std::iter::once(cell.clone())
        .chain(backticked(&cell))
        .filter(|code| is_diag_code(code))
        .collect()
}

/// The zero-based line and value of every `pub const …: &str`
/// declaration in `file`.
fn const_str_values(file: &SourceFile) -> Vec<(usize, String)> {
    file.code
        .iter()
        .enumerate()
        .filter(|(_, code)| code.contains("pub const") && code.contains("&str"))
        .filter_map(|(idx, _)| Some((idx, file.literals[idx].first()?.clone())))
        .collect()
}

/// The identifier a `const` declaration line declares (empty when the
/// line declares none).
fn const_name(code: &str) -> &str {
    code.split_whitespace()
        .skip_while(|w| *w != "const")
        .nth(1)
        .map_or("", |w| w.trim_end_matches(':'))
}

/// `A005`'s second half: every diagnostic-code constant must be wired
/// into the `codes::all()` table, i.e. named again beyond its
/// declaration.
fn check_diag_registration(ws: &Workspace, diags: &mut Diagnostics) {
    const DIAG: &str = "crates/diag/src/codes.rs";
    let Some(file) = ws.file(DIAG) else { return };
    for (idx, value) in const_str_values(file) {
        let declared = const_name(&file.code[idx]);
        if declared.is_empty() {
            continue;
        }
        let uses: usize = file.code.iter().map(|l| l.matches(declared).count()).sum();
        if uses < 2 {
            emit(
                diags,
                codes::A_DIAG_TABLE_DRIFT,
                format!("diagnostic code {value} ({declared}) is declared but never registered in codes::all()"),
                DIAG,
                idx + 1,
            );
        }
    }
}

fn check_required_gates(ws: &Workspace, spans: &Sites, metrics: &Sites, diags: &mut Diagnostics) {
    const CLI: &str = "crates/cli/src/commands.rs";
    let Some(file) = ws.file(CLI) else { return };
    for (table, emitted, kind) in [
        ("REQUIRED_STAGES", spans, "span"),
        ("REQUIRED_COUNTERS", metrics, "counter"),
        ("REQUIRED_ZERO_COUNTERS", metrics, "counter"),
    ] {
        for (name, line) in const_table_entries(file, table) {
            if !emitted.contains_key(&name) {
                emit(
                    diags,
                    codes::A_REQUIRED_NAME_UNEMITTED,
                    format!("{table} entry `{name}` names a {kind} no code emits"),
                    CLI,
                    line,
                );
            }
        }
    }
}

/// The string entries of `pub const NAME: &[&str] = …;` with their
/// one-based lines, spanning the declaration to its terminating `;`.
fn const_table_entries(file: &SourceFile, name: &str) -> Vec<(String, usize)> {
    let mut entries = Vec::new();
    let Some(start) = file
        .code
        .iter()
        .position(|l| l.contains(name) && l.contains("const"))
    else {
        return entries;
    };
    for idx in start..file.code.len() {
        for lit in &file.literals[idx] {
            entries.push((lit.clone(), idx + 1));
        }
        if file.code[idx].contains(';') {
            break;
        }
    }
    entries
}

/// `W001`-shaped: one uppercase letter then exactly three digits.
fn is_diag_code(token: &str) -> bool {
    let mut chars = token.chars();
    chars.next().is_some_and(|c| c.is_ascii_uppercase())
        && token.len() == 4
        && chars.all(|c| c.is_ascii_digit())
}
