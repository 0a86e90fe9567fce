//! The instance-data commands: `query` and `validate`.

use std::process::ExitCode;

use excuses::core::{MissingPolicy, Semantics, ValidationOptions};
use excuses::extent::validate_stored;
use excuses::query::{compile as compile_query, execute, parse_query, CheckMode};
use excuses::types::TypeContext;

use crate::args::Args;
use crate::{exit_code, open_schemas, open_store, refuse_errors};

/// `chc query <schema.sdl> <data.chd> "<query>"`: compile and run a
/// query; rows on stdout, accounting on stderr.
pub fn query(a: &Args) -> Result<ExitCode, String> {
    let [file] = open_schemas([a.schema()?])?;
    let _span = chc_obs::span(chc_obs::names::SPAN_CLI_QUERY);
    let data_path = a.pos(1).ok_or("query needs a data file")?;
    let text = a.pos(2).ok_or("query needs a query string")?;
    refuse_errors(&file.schema, "querying data", true)?;
    let (v, data) = open_store(&file.schema, data_path)?;
    let ctx = TypeContext::with_virtuals(&v);
    let query = parse_query(&v.schema, text).map_err(|e| format!("query:{}: {e}", e.span))?;
    let plan = match compile_query(&ctx, &query, CheckMode::Eliminate) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("query: type error: {e:?}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let result = execute(&v.schema, &data.store, &plan);
    // Rows on stdout, all accounting on stderr: `chc query … | sort`
    // sees only result values.
    for val in &result.values {
        println!("{}", val.render(&v.schema));
    }
    let warnings = plan.warnings.len() + usize::from(plan.result_may_be_absent);
    eprintln!(
        "query: {} row(s) scanned, {} emitted, {} check(s)/row, {} compile-time warning(s)",
        result.stats.rows_scanned,
        result.stats.rows_emitted,
        plan.checks_per_row(),
        warnings,
    );
    if plan.result_may_be_absent {
        eprintln!(
            "query: result may be absent — {} row(s) skipped by the run-time check",
            result.stats.rows_skipped_by_check,
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `chc validate <schema.sdl> <data.chd>`: load instance data and
/// validate it; exit 1 when an object is invalid.
pub fn validate(a: &Args) -> Result<ExitCode, String> {
    let [file] = open_schemas([a.schema()?])?;
    let _span = chc_obs::span(chc_obs::names::SPAN_CLI_VALIDATE);
    let data_path = a.pos(1).ok_or("validate needs a data file")?;
    refuse_errors(&file.schema, "validating data", true)?;
    let (v, data) = open_store(&file.schema, data_path)?;
    let opts = ValidationOptions {
        semantics: Semantics::Correct,
        missing: MissingPolicy::Absent,
    };
    let mut bad = 0usize;
    for (name, oid) in &data.names {
        // Ledger join key: which surrogate belongs to which
        // source-file name.
        chc_obs::event_with(|| {
            chc_obs::Event::new(
                chc_obs::EventLevel::Info,
                chc_obs::names::EVENT_VALIDATE_OBJECT,
            )
            .field("name", name.as_str())
            .field("object", oid.raw())
        });
        let violations = validate_stored(&v.schema, &data.store, opts, *oid);
        for viol in &violations {
            println!("{name}: {}", viol.render(&v.schema));
        }
        bad += usize::from(!violations.is_empty());
    }
    println!("{} object(s), {} invalid", data.names.len(), bad);
    Ok(exit_code(bad == 0))
}
