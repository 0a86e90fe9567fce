//! The static-analysis commands: `lint` (schema lints, plus query safety
//! under `--query`) and `diff` (semantic diff plus evolution lints).

use std::process::ExitCode;

use excuses::core::{virtualize, EditKind};
use excuses::lint::{LintCode, LintConfig, LintLevel};
use excuses::query::parse_query_file;

use crate::args::Args;
use crate::{exit_code, open_schemas, read_file};

/// Levenshtein distance between two short strings — the budget for the
/// "did you mean" suggestion when a `--allow/--warn/--deny` value names
/// no known lint.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Resolves a lint code or name (`L002`, `dead-excuse`, `D001`, …); an
/// unknown value is an error, with the closest known code or name
/// suggested when it is plausibly a typo.
fn parse_lint_code_arg(value: &str) -> Result<LintCode, String> {
    if let Some(code) = LintCode::parse(value) {
        return Ok(code);
    }
    let lower = value.to_ascii_lowercase();
    let best = LintCode::ALL
        .iter()
        .flat_map(|c| [c.code(), c.name()])
        .map(|cand| (edit_distance(&lower, &cand.to_ascii_lowercase()), cand))
        .min();
    match best {
        Some((d, suggestion)) if d <= 3 => Err(format!(
            "unknown lint `{value}` (did you mean `{suggestion}`? see docs/LINTS.md)"
        )),
        _ => Err(format!("unknown lint `{value}` (see docs/LINTS.md)")),
    }
}

/// `--format text|json` and the `--allow/--warn/--deny <code|name>`
/// levels, shared by `chc lint` and `chc diff`: the last level given for
/// a lint wins, and `--deny warnings` escalates every warning. Returns
/// the lint configuration and whether the output is JSON.
fn lint_options(a: &Args) -> Result<(LintConfig, bool), String> {
    let mut config = LintConfig::new();
    let mut json = false;
    for (flag, value) in a.values() {
        let level = match flag {
            "--format" => {
                json = match value {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("--format needs `text` or `json`, got `{other}`")),
                };
                continue;
            }
            "--allow" => LintLevel::Allow,
            "--warn" => LintLevel::Warn,
            "--deny" if value == "warnings" => {
                config.deny_warnings = true;
                continue;
            }
            "--deny" => LintLevel::Deny,
            _ => continue,
        };
        config.set(parse_lint_code_arg(value)?, level);
    }
    Ok((config, json))
}

/// `chc lint <schema.sdl> [--format text|json] [--query <file.chq|"query">]
/// [--allow/--warn/--deny <code>]`: the static-analysis lints
/// (docs/LINTS.md); `--query` adds the Q001–Q005 query safety analysis
/// over a `.chq` batch or an ad-hoc query string.
pub fn lint(a: &Args) -> Result<ExitCode, String> {
    let (config, json) = lint_options(a)?;
    let path = a.schema()?;
    let [file] = open_schemas([path])?;
    let (src, schema) = (&file.src, &file.schema);
    let _span = chc_obs::span(chc_obs::names::SPAN_CLI_LINT);
    let Some(qarg) = a.value("--query") else {
        let report = excuses::lint::run(schema, &config);
        if json {
            println!("{}", report.to_json(schema).render());
        } else if report.findings.is_empty() {
            println!("{path}: {} classes — no lints fired", schema.num_classes());
        } else {
            println!(
                "{}",
                excuses::lint::render_report(&report, schema, Some(src))
            );
        }
        return Ok(exit_code(report.is_ok()));
    };
    // `--query` takes either a `.chq` batch file or an ad-hoc
    // query string; only the former gets a file name in locations.
    let (qtext, qfile) = if qarg.ends_with(".chq") || std::path::Path::new(qarg).is_file() {
        (read_file(qarg)?, Some(qarg))
    } else {
        (qarg.to_string(), None)
    };
    let v = virtualize(schema).map_err(|e| e.to_string())?;
    let queries = parse_query_file(&v.schema, &qtext)
        .map_err(|e| format!("{}:{}: {e}", qfile.unwrap_or("<query>"), e.span))?;
    // Schema lints run over the original schema; query analysis
    // over the virtualized one. Both render against `v.schema`,
    // which preserves original class ids and the source map.
    let report = excuses::lint::run_with_queries(schema, &v, &queries, qfile, &config);
    if json {
        println!("{}", report.to_json(&v.schema).render());
    } else if report.findings.is_empty() {
        println!(
            "{path}: {} classes, {} quer{} — no lints fired",
            schema.num_classes(),
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" }
        );
    } else {
        println!(
            "{}",
            excuses::lint::render_report_sources(&report, &v.schema, Some(src), Some(&qtext))
        );
    }
    Ok(exit_code(report.is_ok()))
}

/// The `chc-diff/1` JSON envelope: the classified edit list, the dirty
/// set (class names, in the new schema), edit counts by kind, and the
/// D-family lint report nested under `"lints"` as its own `chc-lint/1`
/// envelope.
fn diff_to_json(
    outcome: &excuses::lint::DiffReport,
    old_path: &str,
    new_path: &str,
    new_schema: &excuses::model::Schema,
) -> chc_obs::json::JsonValue {
    use chc_obs::json::JsonValue;
    let edits = outcome.diff.edits.iter().map(|e| {
        let mut fields: Vec<(&str, JsonValue)> = vec![
            ("kind", JsonValue::string(e.kind.label())),
            ("class", JsonValue::string(&e.class)),
            ("edit", JsonValue::string(&e.describe())),
        ];
        if let Some(attr) = &e.attr {
            fields.push(("attr", JsonValue::string(attr)));
        }
        // Locate the edit where it is visible: in the new file when the
        // declaration survives, in the old file when it was retired.
        if let Some(span) = e.new_span {
            fields.push(("line", JsonValue::number(span.line as f64)));
            fields.push(("col", JsonValue::number(span.col as f64)));
        } else if let Some(span) = e.old_span {
            fields.push(("old_line", JsonValue::number(span.line as f64)));
            fields.push(("old_col", JsonValue::number(span.col as f64)));
        }
        JsonValue::object(fields)
    });
    let names = |ids: &std::collections::BTreeSet<excuses::model::ClassId>| {
        JsonValue::array(
            ids.iter()
                .map(|&c| JsonValue::string(new_schema.class_name(c))),
        )
    };
    JsonValue::object([
        ("schema", JsonValue::string("chc-diff/1")),
        ("tool", JsonValue::string("chc-diff")),
        ("old", JsonValue::string(old_path)),
        ("new", JsonValue::string(new_path)),
        ("edits", JsonValue::array(edits)),
        (
            "dirty",
            JsonValue::object([
                ("classes", names(&outcome.dirty.classes)),
                ("extents", names(&outcome.dirty.extents)),
            ]),
        ),
        (
            "counts",
            JsonValue::object([
                ("edits", JsonValue::number(outcome.diff.edits.len() as f64)),
                (
                    "additive",
                    JsonValue::number(outcome.diff.count(EditKind::Additive) as f64),
                ),
                (
                    "refining",
                    JsonValue::number(outcome.diff.count(EditKind::Refining) as f64),
                ),
                (
                    "breaking",
                    JsonValue::number(outcome.diff.count(EditKind::Breaking) as f64),
                ),
            ]),
        ),
        ("lints", outcome.report.to_json(new_schema)),
    ])
}

/// `chc diff <old.sdl> <new.sdl>`: compile both schemas, diff them
/// semantically, and run the D-family evolution lints over the edit
/// list. Text findings render rustc-style into whichever file anchors
/// them (retired declarations quote the old file); `--format json`
/// emits the `chc-diff/1` envelope. Exit 1 when a denied finding fired.
pub fn diff(a: &Args) -> Result<ExitCode, String> {
    let (config, json) = lint_options(a)?;
    let (Some(old_path), Some(new_path)) = (a.pos(0), a.pos(1)) else {
        return Err("diff needs exactly two schemas: chc diff <old.sdl> <new.sdl>".to_string());
    };
    let [old, new] = open_schemas([old_path, new_path])?;
    let outcome = excuses::lint::run_diff(&old.schema, &new.schema, Some(old_path), &config);
    if json {
        println!(
            "{}",
            diff_to_json(&outcome, old_path, new_path, &new.schema).render()
        );
    } else {
        if !outcome.report.findings.is_empty() {
            println!(
                "{}",
                excuses::lint::render_report_sources(
                    &outcome.report,
                    &new.schema,
                    Some(&new.src),
                    Some(&old.src),
                )
            );
        }
        println!(
            "{old_path} -> {new_path}: {} edit(s) ({} additive, {} refining, {} breaking); \
             dirty: {} class(es) to re-check, {} extent(s) to re-validate",
            outcome.diff.edits.len(),
            outcome.diff.count(EditKind::Additive),
            outcome.diff.count(EditKind::Refining),
            outcome.diff.count(EditKind::Breaking),
            outcome.dirty.classes.len(),
            outcome.dirty.extents.len(),
        );
    }
    Ok(exit_code(outcome.report.is_ok()))
}
