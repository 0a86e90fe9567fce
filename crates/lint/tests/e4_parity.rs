//! The static/dynamic parity check behind E12: every Q001 the analyzer
//! predicts must correspond to an actual unchecked-mode failure on the
//! E4 hospital dataset, and every query it certifies safe must run
//! without one. The lint is exactly as trustworthy as this equivalence.

use chc_lint::{run_queries, LintCode, LintConfig};
use chc_query::{compile, execute, parse_query_spanned, CheckMode};
use chc_types::TypeContext;
use chc_workloads::{build_hospital, HospitalParams};

const QUERIES: [(&str, bool); 4] = [
    // (query, analyzer should flag Q001)
    ("for p in Patient emit p.treatedAt.location.city", false),
    ("for a in Alcoholic emit a.treatedBy.name", false),
    ("for p in Patient emit p.treatedAt.location.state", true),
    (
        "for p in Patient where p not in Tubercular_Patient emit p.treatedAt.location.state",
        false,
    ),
];

#[test]
fn q001_predictions_match_unchecked_failures_on_e4_data() {
    let db = build_hospital(&HospitalParams {
        patients: 2_000,
        tubercular_fraction: 0.05,
        ..Default::default()
    });
    let v = &db.virtualized;
    let ctx = TypeContext::with_virtuals(v);

    for (text, expect_flagged) in QUERIES {
        let sq = parse_query_spanned(&v.schema, text).expect(text);
        let report = run_queries(v, std::slice::from_ref(&sq), None, &LintConfig::new());
        let flagged = report.count(LintCode::UnsafePath) > 0;
        assert_eq!(flagged, expect_flagged, "static verdict for `{text}`");

        // Ground truth: run the same query with every check stripped and
        // count the rows that would have produced a type error.
        let plan = compile(&ctx, &sq.query, CheckMode::Never).expect(text);
        let failures = execute(&v.schema, &db.store, &plan)
            .stats
            .unchecked_failures;
        assert_eq!(
            flagged,
            failures > 0,
            "`{text}`: static analysis says flagged={flagged}, \
             unchecked execution hit {failures} failure(s)"
        );
    }
}

#[test]
fn the_flagged_query_fails_once_per_exceptional_row() {
    let db = build_hospital(&HospitalParams {
        patients: 2_000,
        tubercular_fraction: 0.10,
        ..Default::default()
    });
    let v = &db.virtualized;
    let ctx = TypeContext::with_virtuals(v);
    let sq = parse_query_spanned(
        &v.schema,
        "for p in Patient emit p.treatedAt.location.state",
    )
    .unwrap();
    let plan = compile(&ctx, &sq.query, CheckMode::Never).unwrap();
    let failures = execute(&v.schema, &db.store, &plan)
        .stats
        .unchecked_failures;
    assert_eq!(
        failures,
        db.store.count(db.ids.tubercular),
        "every tubercular patient (and only those) lacks a state"
    );
}

#[test]
fn the_synthesized_guard_compiles_to_a_checkless_plan() {
    let db = build_hospital(&HospitalParams {
        patients: 500,
        ..Default::default()
    });
    let v = &db.virtualized;
    let ctx = TypeContext::with_virtuals(v);

    // The analyzer proposes the guard for the hazardous query…
    let sq = parse_query_spanned(
        &v.schema,
        "for p in Patient emit p.treatedAt.location.state",
    )
    .unwrap();
    let report = run_queries(v, std::slice::from_ref(&sq), None, &LintConfig::new());
    let suggestion = report
        .findings
        .iter()
        .find(|f| f.code == LintCode::GuardSuggestion)
        .expect("Q005 fires");
    assert!(
        suggestion.message.contains("Tubercular_Patient"),
        "{}",
        suggestion.message
    );

    // …and the guarded form really does run with zero checks per row.
    let guarded = parse_query_spanned(
        &v.schema,
        "for p in Patient where p not in Tubercular_Patient emit p.treatedAt.location.state",
    )
    .unwrap();
    let plan = compile(&ctx, &guarded.query, CheckMode::Eliminate).unwrap();
    assert_eq!(plan.checks_per_row(), 0);
    let result = execute(&v.schema, &db.store, &plan);
    assert_eq!(result.stats.checks_executed, 0);
    assert_eq!(result.stats.unchecked_failures, 0);
}
