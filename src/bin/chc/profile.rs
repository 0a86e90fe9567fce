//! `chc profile`: a workload under cost attribution and the span-stack
//! sampler.

use std::process::ExitCode;
use std::sync::Arc;

use excuses::core::{check, MissingPolicy, Semantics, ValidationOptions};
use excuses::extent::validate_stored;
use excuses::query::{compile as compile_query, execute, parse_query, CheckMode};
use excuses::types::TypeContext;
use excuses::workloads::driver::fmt_bytes;
use excuses::workloads::{generate, HierarchyParams};

use crate::args::{duration, number, Args};
use crate::load::parse_hier_spec;
use crate::{format_ns_cli, open_schemas, open_store, refuse_errors};

const USAGE: &str = "usage: chc profile <check|validate|query> \
    <schema.sdl | --hier classes=N,...> [data.chd] [\"query\"] [--top N] [--label-cap K] \
    [--interval 250us] [--mem] [--profile-out f.json] [--flame-out f.folded]";

/// Which workload `chc profile` runs under attribution.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileWorkload {
    Check,
    Validate,
    Query,
}

impl ProfileWorkload {
    fn name(self) -> &'static str {
        match self {
            ProfileWorkload::Check => "check",
            ProfileWorkload::Validate => "validate",
            ProfileWorkload::Query => "query",
        }
    }
}

/// Options of the `profile` subcommand.
pub struct ProfileArgs {
    workload: ProfileWorkload,
    schema: Option<String>,
    hier: Option<HierarchyParams>,
    data: Option<String>,
    query: Option<String>,
    /// Rows in the hot-spot table.
    top: usize,
    /// Per-name label-cardinality cap for the attribution recorder.
    pub label_cap: usize,
    /// Sampling interval of the span-stack sampler.
    pub interval: std::time::Duration,
    /// Add per-class memory columns from the tracking allocator.
    mem: bool,
}

impl ProfileArgs {
    /// Reads and checks `chc profile`'s positionals and options.
    pub fn from_args(a: &Args) -> Result<ProfileArgs, String> {
        let workload = match a.pos(0) {
            Some("check") => ProfileWorkload::Check,
            Some("validate") => ProfileWorkload::Validate,
            Some("query") => ProfileWorkload::Query,
            Some(other) => return Err(format!("unknown profile workload `{other}`\n{USAGE}")),
            None => return Err(USAGE.to_string()),
        };
        let value_or =
            |flag: &str, default: usize| a.value(flag).map_or(Ok(default), |v| number(flag, v));
        let pa = ProfileArgs {
            workload,
            schema: a.pos(1).map(String::from),
            hier: a.value("--hier").map(parse_hier_spec).transpose()?,
            data: a.pos(2).map(String::from),
            query: a.pos(3).map(String::from),
            top: value_or("--top", 10)?,
            label_cap: value_or("--label-cap", 4096)?,
            interval: match a.value("--interval") {
                Some(v) => duration("--interval", v)?,
                None => std::time::Duration::from_micros(250),
            },
            mem: a.has("--mem"),
        };
        let missing = match pa.workload {
            _ if pa.schema.is_none() && pa.hier.is_none() => {
                "profile needs a schema file or --hier"
            }
            ProfileWorkload::Validate if pa.data.is_none() => "profile validate needs a data file",
            ProfileWorkload::Query if pa.data.is_none() || pa.query.is_none() => {
                "profile query needs a data file and a query string"
            }
            _ => return Ok(pa),
        };
        Err(missing.to_string())
    }
}

/// Runs the requested workload under the attribution recorder and the
/// span-stack sampler, then reports: a per-class hot-spot table and the
/// duplicate-work ratios on stderr, a one-line summary on stdout, the
/// `chc-profile/1` JSON document to `--profile-out`, and the *sampled*
/// folded stacks to `--flame-out`.
pub fn run(
    pa: &ProfileArgs,
    a: &Args,
    profile: &Arc<chc_obs::ProfileRecorder>,
    sampler: &Arc<chc_obs::SpanSampler>,
) -> Result<ExitCode, String> {
    use std::fmt::Write as _;

    let span = chc_obs::span(chc_obs::names::SPAN_CLI_PROFILE);
    let (schema, source_name) = match (&pa.hier, &pa.schema) {
        (Some(params), _) => (
            generate(params).schema,
            format!("--hier classes={}", params.classes),
        ),
        (None, Some(path)) => {
            let [file] = open_schemas([path.as_str()])?;
            (file.schema, path.clone())
        }
        (None, None) => unreachable!("ProfileArgs::from_args requires a schema"),
    };

    // The workload itself. Diagnostics are counted, not printed — the
    // subject here is cost, and stdout stays one machine-greppable line.
    let mut workload_note = String::new();
    match pa.workload {
        ProfileWorkload::Check => {
            let report = check(&schema);
            let _ = write!(
                workload_note,
                "{} error(s), {} warning(s)",
                report.errors().count(),
                report.warnings().count()
            );
        }
        ProfileWorkload::Validate => {
            let data_path = pa
                .data
                .as_deref()
                .expect("checked by ProfileArgs::from_args");
            refuse_errors(&schema, "validating data", false)?;
            let (v, data) = open_store(&schema, data_path)?;
            let opts = ValidationOptions {
                semantics: Semantics::Correct,
                missing: MissingPolicy::Absent,
            };
            let mut bad = 0usize;
            for (_, oid) in &data.names {
                bad += usize::from(!validate_stored(&v.schema, &data.store, opts, *oid).is_empty());
            }
            let _ = write!(
                workload_note,
                "{} object(s), {} invalid",
                data.names.len(),
                bad
            );
        }
        ProfileWorkload::Query => {
            let data_path = pa
                .data
                .as_deref()
                .expect("checked by ProfileArgs::from_args");
            let text = pa
                .query
                .as_deref()
                .expect("checked by ProfileArgs::from_args");
            refuse_errors(&schema, "querying data", false)?;
            let (v, data) = open_store(&schema, data_path)?;
            let ctx = TypeContext::with_virtuals(&v);
            let query =
                parse_query(&v.schema, text).map_err(|e| format!("query:{}: {e}", e.span))?;
            let plan = compile_query(&ctx, &query, CheckMode::Eliminate)
                .map_err(|e| format!("query type error: {e:?}"))?;
            let result = execute(&v.schema, &data.store, &plan);
            let _ = write!(
                workload_note,
                "{} row(s) scanned, {} emitted",
                result.stats.rows_scanned, result.stats.rows_emitted
            );
        }
    }
    drop(span);
    sampler.stop();

    // --- the hot-spot table (stderr) ---
    let nanos_by_class = profile
        .labeled_sums(chc_obs::names::CHECK_CLASS_NANOS)
        .map(|(entries, _other)| entries)
        .unwrap_or_default();
    let total_nanos: u64 = nanos_by_class.iter().map(|&(_, _, sum)| sum).sum();
    let labeled_of = |name: &str| -> std::collections::BTreeMap<u64, u64> {
        profile
            .labeled(name)
            .map(|s| s.entries.into_iter().collect())
            .unwrap_or_default()
    };
    let subtype_by_class = labeled_of(chc_obs::names::SUBTYPE_QUERIES);
    let sat_by_class = labeled_of(chc_obs::names::SAT_CALLS);
    let contra_by_class = labeled_of(chc_obs::names::CHECK_CONTRADICTIONS);
    let rows_by_class = labeled_of(chc_obs::names::QUERY_ROWS_SCANNED);
    let mem_bytes_by_class = labeled_of(chc_obs::names::MEM_CHECK_CLASS_BYTES);
    let mem_peak_by_class: std::collections::BTreeMap<u64, u64> = profile
        .labeled_max(chc_obs::names::MEM_CHECK_CLASS_PEAK)
        .map(|v| v.into_iter().collect())
        .unwrap_or_default();

    let subtype_total = profile.counter_value(chc_obs::names::SUBTYPE_QUERIES);
    let subtype_distinct = profile.counter_value(chc_obs::names::SUBTYPE_QUERIES_DISTINCT);
    let sat_total = profile.counter_value(chc_obs::names::SAT_CALLS);
    let sat_distinct = profile.counter_value(chc_obs::names::SAT_CALLS_DISTINCT);
    let ratio = |total: u64, distinct: u64| -> f64 {
        if distinct == 0 {
            1.0
        } else {
            total as f64 / distinct as f64
        }
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "profile: {} {} — {} classes ({workload_note})",
        pa.workload.name(),
        source_name,
        schema.num_classes(),
    );
    let _ = writeln!(
        report,
        "  duplicate work: subtype.queries {subtype_total} / {subtype_distinct} distinct = {:.1}x, \
         sat.calls {sat_total} / {sat_distinct} distinct = {:.1}x",
        ratio(subtype_total, subtype_distinct),
        ratio(sat_total, sat_distinct),
    );
    let _ = writeln!(
        report,
        "  sampler: {} sample(s) at {} intervals, {} distinct stack path(s)",
        sampler.samples(),
        format_ns_cli(sampler.interval().as_nanos().min(u64::MAX as u128) as u64),
        sampler.folded_counts().len(),
    );
    let _ = write!(
        report,
        "\n  {:<28} {:>10} {:>7} {:>9} {:>7} {:>7} {:>9}",
        "class", "time", "share", "subtype", "sat", "contra", "rows"
    );
    if pa.mem {
        let _ = write!(report, " {:>10} {:>10}", "alloc", "peak");
    }
    report.push('\n');
    for &(label, _count, sum) in nanos_by_class.iter().take(pa.top) {
        let class = chc_model::ClassId::from_raw(label as u32);
        let share = if total_nanos == 0 {
            0.0
        } else {
            100.0 * sum as f64 / total_nanos as f64
        };
        let of = |by_class: &std::collections::BTreeMap<u64, u64>| {
            by_class.get(&label).copied().unwrap_or(0)
        };
        let _ = write!(
            report,
            "  {:<28} {:>10} {:>6.1}% {:>9} {:>7} {:>7} {:>9}",
            schema.class_name(class),
            format_ns_cli(sum),
            share,
            of(&subtype_by_class),
            of(&sat_by_class),
            of(&contra_by_class),
            of(&rows_by_class),
        );
        if pa.mem {
            let (bytes, peak) = (of(&mem_bytes_by_class), of(&mem_peak_by_class));
            let _ = write!(report, " {:>10} {:>10}", fmt_bytes(bytes), fmt_bytes(peak));
        }
        report.push('\n');
    }
    if nanos_by_class.len() > pa.top {
        let _ = writeln!(
            report,
            "  … {} more class(es); raise --top or read --profile-out",
            nanos_by_class.len() - pa.top
        );
    }
    if pa.mem {
        // Reconciliation against the process-wide allocator totals: the
        // per-class series can only account for what ran inside
        // `check_class`, so Σbytes ≤ global allocated and every class
        // peak ≤ global peak — if either inequality fails, the
        // attribution is broken.
        let m = chc_obs::memalloc::snapshot();
        let class_bytes: u64 = mem_bytes_by_class.values().sum();
        let class_peak = mem_peak_by_class.values().copied().max().unwrap_or(0);
        let pct = if m.bytes_total == 0 {
            0.0
        } else {
            100.0 * class_bytes as f64 / m.bytes_total as f64
        };
        let _ = writeln!(
            report,
            "  mem: global {} allocated, peak live {}; per-class Σ {} ({pct:.1}% of global), \
             max class peak {}",
            fmt_bytes(m.bytes_total),
            fmt_bytes(m.bytes_peak),
            fmt_bytes(class_bytes),
            fmt_bytes(class_peak),
        );
    }
    eprint!("{report}");

    // --- machine outputs ---
    if let Some(path) = a.value("--flame-out") {
        let folded = sampler.to_folded_stacks();
        std::fs::write(path, folded).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = a.value("--profile-out") {
        let doc = profile_json(pa, profile, sampler, &schema, &nanos_by_class, total_nanos);
        let text = doc.render();
        // Self-check: the document must parse back through chc_obs::json
        // before it is allowed on disk — an unparseable profile is a bug.
        chc_obs::json::parse(&text)
            .map_err(|e| format!("internal error: profile JSON does not round-trip: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "profile: {} — {} classes, subtype {}/{} ({:.1}x), sat {}/{} ({:.1}x), {} sample(s)",
        pa.workload.name(),
        schema.num_classes(),
        subtype_total,
        subtype_distinct,
        ratio(subtype_total, subtype_distinct),
        sat_total,
        sat_distinct,
        ratio(sat_total, sat_distinct),
        sampler.samples(),
    );
    Ok(ExitCode::SUCCESS)
}

/// The enriched `chc-profile/1` document: the recorder's own export plus
/// the workload name, the name-resolved hot-class table, and the sampled
/// stacks.
fn profile_json(
    pa: &ProfileArgs,
    profile: &chc_obs::ProfileRecorder,
    sampler: &chc_obs::SpanSampler,
    schema: &chc_model::Schema,
    nanos_by_class: &[(u64, u64, u64)],
    total_nanos: u64,
) -> chc_obs::json::JsonValue {
    use chc_obs::json::JsonValue;
    let base = profile.to_json();
    let part = |key: &str| {
        base.get(key)
            .cloned()
            .unwrap_or_else(|| JsonValue::object([]))
    };
    let hot = JsonValue::array(nanos_by_class.iter().map(|&(label, _count, sum)| {
        let class = chc_model::ClassId::from_raw(label as u32);
        let share = if total_nanos == 0 {
            0.0
        } else {
            sum as f64 / total_nanos as f64
        };
        JsonValue::object([
            ("class", JsonValue::string(schema.class_name(class))),
            ("label", JsonValue::number(label as f64)),
            ("nanos", JsonValue::number(sum as f64)),
            (
                "share",
                JsonValue::number((share * 1_000.0).round() / 1_000.0),
            ),
        ])
    }));
    let stacks = JsonValue::array(sampler.folded_counts().into_iter().map(|(path, count)| {
        JsonValue::object([
            ("stack", JsonValue::string(&path)),
            ("count", JsonValue::number(count as f64)),
        ])
    }));
    let sampler_obj = JsonValue::object([
        (
            "interval_nanos",
            JsonValue::number(sampler.interval().as_nanos().min(u64::MAX as u128) as f64),
        ),
        ("samples", JsonValue::number(sampler.samples() as f64)),
        ("idle", JsonValue::number(sampler.idle() as f64)),
        ("stacks", stacks),
    ]);
    let m = chc_obs::memalloc::snapshot();
    let mem_obj = JsonValue::object([
        (
            "installed",
            JsonValue::number(f64::from(u8::from(chc_obs::memalloc::installed()))),
        ),
        ("allocs", JsonValue::number(m.allocs as f64)),
        ("frees", JsonValue::number(m.frees as f64)),
        ("bytes_total", JsonValue::number(m.bytes_total as f64)),
        ("bytes_live", JsonValue::number(m.bytes_live as f64)),
        ("bytes_peak", JsonValue::number(m.bytes_peak as f64)),
    ]);
    JsonValue::object([
        ("schema", JsonValue::string("chc-profile/1")),
        ("workload", JsonValue::string(pa.workload.name())),
        ("mem", mem_obj),
        ("cap", part("cap")),
        ("counters", part("counters")),
        ("labeled", part("labeled")),
        ("histograms", part("histograms")),
        ("hot_classes", hot),
        ("sampler", sampler_obj),
    ])
}
