//! # chc-lint — static analysis over compiled schemas
//!
//! The paper's *verifiability* desideratum (§5) asks that "the language
//! compiler or environment should be able to alert the programmer about
//! cases of inconsistent specification". `chc-core`'s checker enforces
//! the §5.1 specialization-or-excuse rule; this crate goes further, with
//! a registry of coded lints over a compiled [`chc_model::Schema`] *and
//! its source spans*:
//!
//! | code | name | finding |
//! |------|------|---------|
//! | L001 | `incoherent-class` | constraints admit no value; no instances possible |
//! | L002 | `dead-excuse` | excuse no instance could ever be entitled to |
//! | L003 | `unreachable-branch` | conditional-type branch (§5.4) only incoherent classes could take |
//! | L004 | `redundant-is-a` | is-a edge implied by another direct superclass |
//! | L005 | `noop-redefinition` | redeclaration equal to an inherited range, no excuses |
//! | L006 | `unused-class` | class referenced nowhere, declaring nothing |
//!
//! A second family analyzes *queries* (`.chq` batches or ad-hoc strings)
//! against a virtualized schema — §5.4's static safety analysis lifted
//! into the lint framework:
//!
//! | code | name | finding |
//! |------|------|---------|
//! | Q001 | `unsafe-path` | projection step can hit an excused/absent attribute |
//! | Q002 | `dead-guard` | `not in C` filter that excludes nothing |
//! | Q003 | `empty-source` | scanned class incoherent or guards contradictory |
//! | Q004 | `discharged-check` | check eliminated by the compiler (info, with derivation) |
//! | Q005 | `guard-suggestion` | minimal guard set restoring type safety (info) |
//!
//! A third family analyzes schema *evolution*: [`run_diff`] semantically
//! diffs two compiled schemas (`chc_core::diff_schemas`) and lints the
//! edit list against the §6 desiderata, reporting per-edit impact cones
//! over the is-a DAG:
//!
//! | code | name | finding |
//! |------|------|---------|
//! | D001 | `breaking-narrowing` | range narrowed under stored objects (re-validation hazard) |
//! | D002 | `contradiction-introduced` | previously coherent class made incoherent (with derivation) |
//! | D003 | `excuse-retired-orphan` | excuse retired while its contradiction persists |
//! | D004 | `silent-widening` | range widened with no subclass forced to react (info) |
//! | D005 | `cone-report` | dirty-set size of one edit (info) |
//!
//! Each lint is catalogued with SDL examples in `docs/LINTS.md`. Entry
//! points: [`run`] over a schema, [`run_queries`] over parsed queries,
//! [`run_with_queries`] for both in one report, [`run_diff`] over a
//! schema pair, all with a [`LintConfig`] (per-code allow/warn/deny plus
//! `deny_warnings`); render the [`LintReport`] with [`render_report`] /
//! [`render_report_sources`] (rustc-style text quoting the offending
//! line; [`display_report`] writes the same text through `Display`) or
//! [`LintReport::to_json`] (round-trippable through
//! `chc_obs::json`, with a `kind` field distinguishing schema, query,
//! and diff findings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod code;
pub mod config;
pub mod engine;
pub mod finding;
mod lints;
pub mod render;

pub use code::LintCode;
pub use config::{LintConfig, LintLevel};
pub use engine::{run, run_diff, run_queries, run_with_queries, DiffReport, LintReport};
pub use finding::Finding;
pub use render::{
    display_report, render_finding, render_report, render_report_sources, ReportDisplay,
};
