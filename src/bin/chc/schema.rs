//! The single-schema commands: `check`, `print`, `virtualize` and
//! `explain`.

use std::process::ExitCode;

use excuses::core::{
    check as check_schema, check_incremental, explain_admissibility,
    virtualize as virtualize_schema,
};
use excuses::sdl::print_schema;
use excuses::types::{cond_of, render_cond, render_tyset, EntityFacts, TypeContext};

use crate::args::Args;
use crate::{compile, exit_code, open_schemas, read_file};

/// `chc check <schema.sdl> [--explain] [--incremental --since <old.sdl>]`.
/// `--incremental` and `--since` go together: `--since` names the
/// baseline, `--incremental` opts into cone-scoped re-checking.
pub fn check(a: &Args) -> Result<ExitCode, String> {
    let since = a.value("--since");
    if a.has("--incremental") != since.is_some() {
        return Err("--incremental and --since <old.sdl> go together".to_string());
    }
    let path = a.schema()?;
    let [file] = open_schemas([path])?;
    let schema = &file.schema;
    let _span = chc_obs::span(chc_obs::names::SPAN_CLI_CHECK);
    // With `--incremental --since <old.sdl>`, only classes in the
    // impact cone of the edits are re-checked; the rest of the
    // verdict is carried over from the old schema's report. The
    // stdout report is identical to a full check (the incremental
    // accounting goes to stderr), so the two modes can be diffed.
    let report = match since {
        Some(old_path) => {
            let old_schema = compile(old_path, &read_file(old_path)?)?;
            let old_report = check_schema(&old_schema);
            let inc = check_incremental(&old_schema, &old_report, schema);
            eprintln!(
                "incremental: {} edit(s) since {old_path}; re-checked {} of {} class(es)",
                inc.diff.edits.len(),
                inc.dirty.classes.len(),
                schema.num_classes(),
            );
            inc.report
        }
        None => check_schema(schema),
    };
    if report.diagnostics.is_empty() {
        println!(
            "{path}: {} classes, {} declarations — clean",
            schema.num_classes(),
            schema.num_attr_decls()
        );
        return Ok(ExitCode::SUCCESS);
    }
    println!("{}", report.render(schema));
    if a.has("--explain") {
        // One derivation per diagnosed (class, attribute) site:
        // the full argument for why the site is (in)coherent.
        let mut seen = std::collections::BTreeSet::new();
        for d in &report.diagnostics {
            if seen.insert((d.class, d.attr)) {
                println!(
                    "{}",
                    explain_admissibility(schema, d.class, d.attr).render(schema)
                );
            }
        }
    }
    let errors = report.errors().count();
    let warnings = report.warnings().count();
    println!("{errors} error(s), {warnings} warning(s)");
    Ok(exit_code(report.is_ok()))
}

/// `chc print <schema.sdl>`: the canonical pretty-printed form.
pub fn print(a: &Args) -> Result<ExitCode, String> {
    let [file] = open_schemas([a.schema()?])?;
    print!("{}", print_schema(&file.schema));
    Ok(ExitCode::SUCCESS)
}

/// `chc virtualize <schema.sdl>`: the §5.6 virtual classes; exit 1 if
/// the virtualized schema has errors.
pub fn virtualize(a: &Args) -> Result<ExitCode, String> {
    let path = a.schema()?;
    let [file] = open_schemas([path])?;
    let v = virtualize_schema(&file.schema).map_err(|e| e.to_string())?;
    if v.virtuals.is_empty() {
        println!("{path}: no embedded excuses; nothing to virtualize");
        return Ok(ExitCode::SUCCESS);
    }
    for info in &v.virtuals {
        let path_str: Vec<&str> = info.path.iter().map(|p| v.schema.resolve(*p)).collect();
        println!(
            "virtual class {} is-a {} — extent = values of {} over {}",
            v.schema.class_name(info.class),
            v.schema.class_name(info.base),
            path_str.join("."),
            v.schema.class_name(info.root),
        );
    }
    let report = check_schema(&v.schema);
    println!(
        "virtualized schema: {} classes, {}",
        v.schema.num_classes(),
        if report.is_ok() {
            "clean"
        } else {
            "HAS ERRORS"
        }
    );
    if !report.is_ok() {
        println!("{}", report.render(&v.schema));
    }
    Ok(exit_code(report.is_ok()))
}

/// `chc explain <schema.sdl> <Class> [<attr>]`: the effective
/// conditional types (§5.4).
pub fn explain(a: &Args) -> Result<ExitCode, String> {
    let [file] = open_schemas([a.schema()?])?;
    let class_name = a.pos(1).ok_or("explain needs a class name")?;
    let class = file
        .schema
        .class_by_name(class_name)
        .ok_or_else(|| format!("unknown class `{class_name}`"))?;
    let v = virtualize_schema(&file.schema).map_err(|e| e.to_string())?;
    let ctx = TypeContext::with_virtuals(&v);
    let schema = &v.schema;
    let facts = EntityFacts::of_class(schema, class);
    let attrs: Vec<_> = match a.pos(2) {
        Some(attr) => vec![schema
            .sym(attr)
            .ok_or_else(|| format!("unknown attribute `{attr}`"))?],
        None => schema.applicable_attrs(class).into_iter().collect(),
    };
    for attr in attrs {
        // The subtype-theory view: the conditional type each
        // declarer contributes…
        for (declarer, _) in schema.constraints_on(class, attr) {
            if let Some(cond) = cond_of(schema, declarer, attr) {
                println!(
                    "{} < [{} : {}]",
                    schema.class_name(declarer),
                    schema.resolve(attr),
                    render_cond(schema, &cond)
                );
            }
        }
        // …and the deduced effective type for instances of the class.
        match ctx.attr_type(&facts, attr) {
            Some(ty) => println!(
                "  {}.{} : {}",
                class_name,
                schema.resolve(attr),
                render_tyset(schema, &ty)
            ),
            None => println!("  {}.{} : not applicable", class_name, schema.resolve(attr)),
        }
    }
    Ok(ExitCode::SUCCESS)
}
