//! `chc` — a command-line front end for schemas with contradictions.
//!
//! ```text
//! chc [--trace] [--stats] [--trace-out <f.json>] [--flame-out <f.folded>]
//!     [--stats-out <f.json>] [--audit-out <f.jsonl>] [--profile-out <f.json>]
//!     [--crash-out <f.json>] [--watchdog <dur>]
//!     <command> ...
//!
//! chc check <schema.sdl> [--explain] [--incremental --since <old.sdl>]
//!                                        type-check a schema (exit 1 on errors);
//!                                        --explain prints an admissibility
//!                                        derivation for each diagnosed site;
//!                                        --incremental re-checks only the
//!                                        impact cone of the edits since the
//!                                        old schema, carrying the rest of
//!                                        the verdict over (same output)
//! chc lint <schema.sdl> [--format text|json] [--query <file.chq|"query">]
//!          [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]
//!                                        run the static-analysis lints (docs/LINTS.md);
//!                                        --query adds the Q001–Q005 query
//!                                        safety analysis over a `.chq` batch
//!                                        or an ad-hoc query string
//! chc diff <old.sdl> <new.sdl> [--format text|json]
//!          [--allow <code>] [--warn <code>] [--deny <code>] [--deny warnings]
//!                                        semantically diff two schemas:
//!                                        classify every edit as additive,
//!                                        refining, or breaking; compute its
//!                                        impact cone over the is-a DAG; and
//!                                        run the D001–D005 evolution lints
//!                                        (exit 1 on denied findings)
//! chc print <schema.sdl>                 canonical pretty-printed form
//! chc virtualize <schema.sdl>            show the §5.6 virtual classes
//!                                        (exit 1 if the virtualized schema has errors)
//! chc explain <schema.sdl> <Class> [<attr>]
//!                                        effective conditional types (§5.4)
//! chc query <schema.sdl> <data.chd> "<query>"
//!                                        compile and run a query; rows on
//!                                        stdout, accounting on stderr
//! chc validate <schema.sdl> <data.chd> [--audit-summary]
//!                                        load instance data and validate it;
//!                                        --audit-summary prints admissions
//!                                        grouped by excuse (E11)
//! chc load <schema.sdl> [data.chd] [--mix validate=70,query=20,insert=9,evolve=1]
//!          [--threads N] [--duration 5s | --ops N] [--mode closed|open]
//!          [--rate R] [--think D] [--seed N] [--epsilon F] [--populate N]
//!          [--window D] [--report out.html] [--id NAME] [--hier classes=N,...]
//!                                        run a mixed load against the schema:
//!                                        latency percentiles per op type on
//!                                        stderr, `chc-load/1` JSON lines
//!                                        appended to $CHC_BENCH_JSON, and a
//!                                        self-contained HTML report via
//!                                        --report (docs/OBSERVABILITY.md)
//! chc profile <check|validate|query> <schema.sdl | --hier classes=N,...>
//!             [data.chd] ["query"] [--top N] [--label-cap K] [--interval 250us]
//!             [--mem]
//!                                        run the workload under cost
//!                                        attribution and the span-stack
//!                                        sampler: per-class hot-spot table
//!                                        and duplicate-work ratios on
//!                                        stderr, one summary line on
//!                                        stdout, `chc-profile/1` JSON via
//!                                        --profile-out, *sampled* folded
//!                                        stacks via --flame-out; --mem adds
//!                                        per-class bytes-allocated and
//!                                        peak-live columns from the
//!                                        tracking allocator
//! chc doctor <crash.json>                render a `chc-crash/1` report
//!                                        (written by --crash-out /
//!                                        $CHC_CRASH_DIR on panic or stall)
//!                                        human-readably on stdout
//! ```
//!
//! Global flags may appear anywhere, before or after the subcommand;
//! every flag is a row of the one table in [`args`].
//! `--trace` prints a span tree (what ran, how long) and `--stats` the
//! counter table (subtype queries, classes checked, …) on **stderr**
//! after the command completes, so stdout stays machine-parseable
//! (`chc lint --format json --stats | jq` works); both aggregate through
//! a [`chc_obs::StatsRecorder`], and `--stats-out <file>` writes the
//! same snapshot as line-delimited JSON. `--trace-out <file>` writes the
//! event-level timeline as Chrome trace-event JSON (open it in
//! <https://ui.perfetto.dev> or `chrome://tracing`) and `--flame-out
//! <file>` writes folded stacks for flamegraph tools; both capture
//! through a [`chc_obs::TraceRecorder`]. `--audit-out <file>` writes the
//! structured audit ledger (one JSON line per executed run-time check,
//! naming the admitting excuse for every tolerated deviation) through a
//! bounded [`chc_obs::AuditRecorder`]. `--profile-out <file>` writes the
//! labeled cost-attribution snapshot (per-class counters and nanosecond
//! histograms, distinct-key counters) through a
//! [`chc_obs::ProfileRecorder`]; under `chc profile` the same file gets
//! the enriched `chc-profile/1` document with resolved class names and
//! sampled stacks. All sinks compose freely, and all
//! reporting and flushing happens even when the command fails — a
//! failing `check` is exactly the run whose trace you want.
//!
//! Two layers are always on, independent of flags: the
//! [`chc_obs::memalloc`] tracking allocator (every run knows its
//! alloc/free/peak totals, surfaced as `mem.*` counters in the stats
//! snapshot) and a [`chc_obs::FlightRecorder`] black box (a bounded
//! ring of recent span transitions and counter deltas). A panic — or a
//! stall, when `--watchdog <dur>` is armed — dumps a round-trip-checked
//! `chc-crash/1` report to `--crash-out` (or `$CHC_CRASH_DIR`) with the
//! flight tail, per-thread open-span stacks, counter and memory
//! snapshots, and the registered schema digest; the same panic hook
//! also flushes every `--*-out` sink, so a run that dies mid-command
//! still leaves its evidence on disk. `chc doctor` renders the report.

mod args;
mod data;
mod doctor;
mod lint;
mod load;
mod profile;
mod schema;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use excuses::core::{check, virtualize, Virtualized};
use excuses::extent::{load_data, refresh_virtual_extents, LoadedData};
use excuses::model::Schema;
use excuses::sdl::compile_with_source;

use args::Args;

/// Every run is accounted by the tracking allocator: the fast path is a
/// few relaxed atomics (pinned by a smoke test in `chc_obs::memalloc`),
/// and in exchange `mem.*` counters, `chc profile --mem`, and crash
/// reports all know where the bytes went.
#[global_allocator]
static ALLOC: chc_obs::memalloc::TrackingAllocator = chc_obs::memalloc::TrackingAllocator;

/// The flag-selected recorders and their `--*-out` destinations,
/// shareable with the panic hook: both the normal exit path and a
/// mid-run panic must flush the same files, whichever comes first.
struct Sinks {
    stats: Option<Arc<chc_obs::StatsRecorder>>,
    trace: Option<Arc<chc_obs::TraceRecorder>>,
    audit: Option<Arc<chc_obs::AuditRecorder>>,
    profile: Option<Arc<chc_obs::ProfileRecorder>>,
    stats_out: Option<String>,
    trace_out: Option<String>,
    flame_out: Option<String>,
    audit_out: Option<String>,
    profile_out: Option<String>,
    /// Under `chc profile` the enriched document is written by
    /// [`profile::run`]; the bare form is only flushed here when a
    /// panic kept that from happening.
    is_profile: bool,
    mem_done: AtomicBool,
    flushed: AtomicBool,
}

impl Sinks {
    /// Mirrors the tracking allocator's totals into the installed
    /// recorders as `mem.*` counters, once, while the global recorder
    /// is still up (call before [`chc_obs::clear_global`]).
    fn record_mem_counters(&self) {
        if self.mem_done.swap(true, Ordering::SeqCst) || !chc_obs::memalloc::installed() {
            return;
        }
        let m = chc_obs::memalloc::snapshot();
        chc_obs::counter(chc_obs::names::MEM_ALLOCS, m.allocs);
        chc_obs::counter(chc_obs::names::MEM_FREES, m.frees);
        chc_obs::counter(chc_obs::names::MEM_BYTES_TOTAL, m.bytes_total);
        chc_obs::counter(chc_obs::names::MEM_BYTES_LIVE, m.bytes_live);
        chc_obs::counter(chc_obs::names::MEM_BYTES_PEAK, m.bytes_peak);
    }

    /// Writes every configured `--*-out` file, once; later calls are
    /// no-ops, so the panic hook and the normal exit path can race
    /// safely. Returns the write errors.
    fn flush_files(&self, on_panic: bool) -> Vec<String> {
        if self.flushed.swap(true, Ordering::SeqCst) {
            return Vec::new();
        }
        let mut errs = Vec::new();
        let mut write = |path: &Option<String>, body: String| {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, body) {
                    errs.push(format!("{path}: {e}"));
                }
            }
        };
        if let Some(r) = &self.stats {
            write(&self.stats_out, r.to_json_lines());
        }
        if let Some(r) = &self.trace {
            write(&self.trace_out, r.to_chrome_trace());
            write(&self.flame_out, r.to_folded_stacks());
        }
        if let Some(r) = &self.audit {
            write(&self.audit_out, r.to_json_lines());
        }
        if !self.is_profile || on_panic {
            if let Some(r) = &self.profile {
                write(&self.profile_out, r.to_json().render() + "\n");
            }
        }
        errs
    }
}

/// FNV-1a, for the schema digest embedded in crash reports.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Registers the compiled schema in the crash-report context, so a
/// post-mortem names the exact input that was being processed.
fn register_schema_context(path: &str, src: &str) {
    chc_obs::flight::set_context("schema_file", path);
    chc_obs::flight::set_context(
        "schema_digest",
        &format!("{:016x}", fnv1a64(src.as_bytes())),
    );
}

/// Best-effort extraction of a panic payload for the crash report.
fn panic_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    let payload = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    match info.location() {
        Some(loc) => format!("{payload} (at {loc})"),
        None => payload,
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    chc_obs::flight::set_context("bin", concat!("chc ", env!("CARGO_PKG_VERSION")));
    chc_obs::flight::set_context("argv", &raw.join(" "));
    // `profile` owns attribution and sampling: it reads its options up
    // front (the recorders need the cap and interval before install) and
    // takes over `--flame-out`, writing *sampled* folded stacks instead
    // of the tracer's event-derived ones.
    let parsed = Args::parse(raw).and_then(|args| {
        let watchdog = args
            .value("--watchdog")
            .map(|v| args::duration("--watchdog", v))
            .transpose()?;
        let profile_args = (args.cmd == "profile")
            .then(|| profile::ProfileArgs::from_args(&args))
            .transpose()?;
        Ok((args, watchdog, profile_args))
    });
    let (args, watchdog_timeout, profile_args) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let is_profile = profile_args.is_some();
    let (trace, stats, audit_summary) = (
        args.has("--trace"),
        args.has("--stats"),
        args.has("--audit-summary"),
    );
    let out = |name: &str| args.value(name).map(String::from);
    let stats_rec = (trace || stats || out("--stats-out").is_some())
        .then(|| Arc::new(chc_obs::StatsRecorder::new()));
    let trace_rec = (out("--trace-out").is_some() || (out("--flame-out").is_some() && !is_profile))
        .then(|| Arc::new(chc_obs::TraceRecorder::new()));
    let audit_rec = (out("--audit-out").is_some() || audit_summary)
        .then(|| Arc::new(chc_obs::AuditRecorder::new()));
    let profile_rec = (out("--profile-out").is_some() || is_profile).then(|| {
        let cap = profile_args
            .as_ref()
            .map(|pa| pa.label_cap)
            .unwrap_or(chc_obs::profile::DEFAULT_LABEL_CAP);
        Arc::new(chc_obs::ProfileRecorder::with_cap(cap))
    });
    let sampler = profile_args
        .as_ref()
        .map(|pa| Arc::new(chc_obs::SpanSampler::start(pa.interval)));
    // The black box is always on — the point of a flight recorder is
    // that it was running *before* anything went wrong — so every chc
    // run installs a recorder even with no flags at all.
    let flight = Arc::new(chc_obs::FlightRecorder::new());
    let mut sinks: Vec<Arc<dyn chc_obs::Recorder>> = vec![flight.clone()];
    if let Some(r) = &stats_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &trace_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &audit_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &profile_rec {
        sinks.push(r.clone());
    }
    if let Some(r) = &sampler {
        sinks.push(r.clone());
    }
    let recorder: Arc<dyn chc_obs::Recorder> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(chc_obs::FanoutRecorder::new(sinks))
    };
    chc_obs::set_global(recorder);

    let sinks = Arc::new(Sinks {
        stats: stats_rec.clone(),
        trace: trace_rec.clone(),
        audit: audit_rec.clone(),
        profile: profile_rec.clone(),
        stats_out: out("--stats-out"),
        trace_out: out("--trace-out"),
        flame_out: out("--flame-out"),
        audit_out: out("--audit-out"),
        profile_out: out("--profile-out"),
        is_profile,
        mem_done: AtomicBool::new(false),
        flushed: AtomicBool::new(false),
    });

    // Crash destination: --crash-out wins, else $CHC_CRASH_DIR gets a
    // pid-stamped file. With neither, panics still flush the sinks but
    // no chc-crash/1 report is written.
    let crash_path: Option<PathBuf> = args.value("--crash-out").map(PathBuf::from).or_else(|| {
        std::env::var("CHC_CRASH_DIR")
            .ok()
            .filter(|d| !d.is_empty())
            .map(|d| {
                std::path::Path::new(&d).join(format!("chc-crash-{}.json", std::process::id()))
            })
    });
    let crash_writer = Arc::new(chc_obs::CrashWriter::new(flight.clone(), crash_path));
    {
        let hook_sinks = sinks.clone();
        let hook_crash = crash_writer.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // The global recorder is still installed mid-panic, so the
            // mem.* counters land in the flushed snapshots too.
            hook_sinks.record_mem_counters();
            match hook_crash.dump("panic", &panic_message(info)) {
                Some(Ok(path)) => eprintln!("chc: crash report written to {}", path.display()),
                Some(Err(e)) => eprintln!("chc: failed to write crash report: {e}"),
                None => {}
            }
            for err in hook_sinks.flush_files(true) {
                eprintln!("chc: flush during panic: {err}");
            }
        }));
    }
    let mut watchdog = match watchdog_timeout {
        Some(timeout) => {
            if crash_writer.path().is_none() {
                eprintln!("error: --watchdog needs --crash-out or $CHC_CRASH_DIR");
                return ExitCode::from(2);
            }
            Some(chc_obs::Watchdog::start(crash_writer.clone(), timeout))
        }
        None => None,
    };

    let outcome = match &profile_args {
        Some(pa) => profile::run(
            pa,
            &args,
            profile_rec.as_ref().expect("profile recorder installed"),
            sampler.as_ref().expect("sampler installed"),
        ),
        None => run(&args),
    };
    if let Some(dog) = &mut watchdog {
        dog.stop();
    }
    // Report and flush unconditionally: a failing command is exactly the
    // run whose trace and counters matter most. Human-readable reports go
    // to stderr so stdout stays machine-parseable under `--format json`.
    sinks.record_mem_counters();
    chc_obs::clear_global();
    if let Some(r) = &stats_rec {
        if trace {
            eprint!("{}", r.render_tree());
        }
        if stats {
            eprint!("{}", r.render_counters());
        }
    }
    if let Some(r) = &audit_rec {
        if audit_summary {
            print!("{}", render_audit_summary(r));
        }
    }
    let flush_err = sinks.flush_files(false).into_iter().next();
    let code = match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    };
    match flush_err {
        Some(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        None => code,
    }
}

/// Runs every command but `profile`, which [`main`] runs with its
/// recorders. `diff` and `load` acquire their schemas themselves, so
/// their spans cover the compile; the others start theirs after it.
fn run(args: &Args) -> Result<ExitCode, String> {
    match args.cmd.as_str() {
        "check" => schema::check(args),
        "lint" => lint::lint(args),
        "diff" => {
            let _span = chc_obs::span(chc_obs::names::SPAN_CLI_DIFF);
            lint::diff(args)
        }
        "print" => schema::print(args),
        "virtualize" => schema::virtualize(args),
        "explain" => schema::explain(args),
        "query" => data::query(args),
        "validate" => data::validate(args),
        "load" => {
            let _span = chc_obs::span(chc_obs::names::SPAN_CLI_LOAD);
            load::run(args)
        }
        "doctor" => doctor::run(args),
        other => unreachable!("Args::parse admits no command `{other}` here"),
    }
}

/// Exit 0 when `ok`, else 1: diagnostics, denied findings or invalid
/// data.
fn exit_code(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// A schema file, read and compiled.
struct SchemaFile {
    src: String,
    schema: Schema,
}

/// Reads the file at `path`, naming it in the error.
fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Compiles `src`, read from `path`, naming the file in the error.
fn compile(path: &str, src: &str) -> Result<Schema, String> {
    compile_with_source(src, path).map_err(|e| format!("{path}: {e}"))
}

/// Reads the schema files at `paths`, registers the last one in the
/// crash-report context, and compiles them all under one `cli.compile`
/// span.
fn open_schemas<const N: usize>(paths: [&str; N]) -> Result<[SchemaFile; N], String> {
    let mut srcs = Vec::with_capacity(N);
    for path in paths {
        srcs.push(read_file(path)?);
    }
    if let (Some(path), Some(src)) = (paths.last(), srcs.last()) {
        register_schema_context(path, src);
    }
    let _span = chc_obs::span(chc_obs::names::SPAN_CLI_COMPILE);
    let mut compiled = Vec::with_capacity(N);
    for (path, src) in paths.into_iter().zip(srcs) {
        let schema = compile(path, &src)?;
        compiled.push(SchemaFile { src, schema });
    }
    Ok(compiled
        .try_into()
        .unwrap_or_else(|_| unreachable!("one file per path")))
}

/// Refuses a schema with check errors, naming what the command was
/// about to do; with `print`, the check report goes to stdout first.
fn refuse_errors(schema: &Schema, before: &str, print: bool) -> Result<(), String> {
    let report = check(schema);
    if report.is_ok() {
        return Ok(());
    }
    if print {
        println!("{}", report.render(schema));
    }
    Err(format!("schema has errors; fix it before {before}"))
}

/// Reads the data file at `path` into a store over the virtualized
/// `schema`, with the virtual extents filled in.
fn open_store(schema: &Schema, path: &str) -> Result<(Virtualized, LoadedData), String> {
    let src = read_file(path)?;
    let v = virtualize(schema).map_err(|e| e.to_string())?;
    let mut data = load_data(&v.schema, &src).map_err(|e| e.to_string())?;
    refresh_virtual_extents(&mut data.store, &v);
    Ok((v, data))
}

/// Renders the `--audit-summary` table from the ledger: §6 asks for
/// "statistics about exceptional cases", so admissions are grouped by
/// the excuse that admitted them.
fn render_audit_summary(rec: &chc_obs::AuditRecorder) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut checks = 0u64;
    let mut passed = 0u64;
    let mut violations = 0u64;
    let mut admitted: BTreeMap<(String, String, String, String), u64> = BTreeMap::new();
    for ev in rec.events() {
        if ev.name != chc_obs::names::EVENT_VALIDATE_CHECK {
            continue;
        }
        checks += 1;
        let get = |k: &str| {
            ev.get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        match ev.get("verdict").and_then(|v| v.as_str()) {
            Some("pass") => passed += 1,
            Some("excused") => {
                *admitted
                    .entry((
                        get("excuser"),
                        get("excuse_attr"),
                        get("class"),
                        get("attr"),
                    ))
                    .or_insert(0) += 1;
            }
            _ => violations += 1,
        }
    }
    let admitted_total: u64 = admitted.values().sum();
    let mut out = format!(
        "audit: {checks} check(s) executed — {passed} passed, \
         {admitted_total} admitted by excuse, {violations} violation(s)\n"
    );
    for ((excuser, excuse_attr, class, attr), n) in &admitted {
        let _ = writeln!(
            out,
            "  `{excuser}.{excuse_attr}` excusing `{class}.{attr}`: {n}"
        );
    }
    if rec.dropped() > 0 {
        let _ = writeln!(
            out,
            "  (ring full: {} older record(s) evicted; totals reflect retained events only)",
            rec.dropped()
        );
    }
    out
}

/// `1.2us`-style rendering for the stdout summary line.
fn format_ns_cli(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    }
}
