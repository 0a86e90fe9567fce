//! The traced run (`--trace 1`): where each workload's time goes, layer
//! by layer. It is separate from the timed runs and reports no
//! end-to-end metric.
//!
//! For each CLI command the traced run
//! 1. spawns the real `chc` — the process wall is the command's traced wall;
//! 2. replays the command in process, with a span from the benchmark's own
//!    code around each call into a layer (read, compile, check/lint/diff,
//!    render, write);
//! 3. replays it again with tracing off; the difference is the tracing
//!    overhead. Allocation probes get a third replay of their own, once.
//!
//! `cli.unattributed_ms` is the process wall minus the replay's summed
//! layer self time: process start-up, `chc`'s always-on recorder and
//! tracking allocator, and teardown. So for every command, layer self time
//! plus `cli.unattributed_ms` equals the traced wall. One more
//! `chc --stats-out` run per command collects the counters `chc` exports.
//!
//! The serve workload is in process already: its set-up steps and every
//! `Target::run` call get spans directly, and each traced round (spans plus
//! one allocation probe around the round) is followed by the same round
//! untraced, for the overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use chc_core::{check, check_incremental, diff_schemas, impact_cone, CheckReport, EditKind};
use chc_lint::LintConfig;
use chc_model::Schema;
use chc_obs::memalloc;
use chc_query::{compile as compile_query, execute, CheckMode, Query};
use chc_types::TypeContext;
use chc_workloads::{populate, LibraryTarget, OpKind, PopulateParams, TargetOptions};

use crate::args::{Args, Workload};
use crate::bench::{self, Cmd, SdlSetup, Stop, Tally, MIN_ITERATIONS};
use crate::inputs::{
    serve_stream_seed, ModelCounts, Recorded, ServeSchema, CLEAN_SDL, FAULTY_SDL,
    SERVE_OPS_PER_ROUND, SERVE_PER_CLASS,
};
use crate::metrics::{Outcome, PER_LAYER};
use crate::serve::{self, Round};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

const MIB: f64 = 1024.0 * 1024.0;
const NO_ALLOCATOR: &str = "this build has no tracking allocator (only perfbench-traced does)";

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Per-layer values and, for metrics a workload leaves at 0, why.
#[derive(Debug, Default)]
pub struct Layers {
    /// Measured values.
    pub values: BTreeMap<&'static str, f64>,
    /// Reasons for metrics that were not measured.
    pub absent: BTreeMap<&'static str, String>,
    /// The human-readable report, printed before the result line.
    pub report: String,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not catalogued"
        );
        self.values.insert(name, value);
    }

    fn absent(&mut self, name: &'static str, why: String) {
        self.absent.insert(name, why);
    }

    /// Every catalogued metric: measured, or 0 with a recorded reason.
    pub fn complete(&mut self, workload: Workload) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| match self.values.get(name) {
                Some(&v) => (name, v),
                None => {
                    self.absent.entry(name).or_insert_with(|| {
                        format!("the {} workload does not run this layer", workload.name())
                    });
                    (name, 0.0)
                }
            })
            .collect()
    }
}

fn measure_alloc<R>(probe: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if !probe {
        return (f(), 0);
    }
    let p = memalloc::probe();
    let out = f();
    let bytes = p.stats().bytes_allocated;
    (out, bytes)
}

/// What one in-process replay of a command produced.
#[derive(Debug, Default)]
struct Replay {
    text: String,
    compile_alloc: Vec<u64>,
    check_alloc: u64,
    diagnostics: usize,
    errors: usize,
    findings: usize,
    render_bytes: usize,
}

fn read(t: &mut Tracer, dir: &Path, name: &str) -> Result<String, String> {
    t.span("cli.read", |_| std::fs::read_to_string(dir.join(name)))
        .map_err(|e| format!("{name}: {e}"))
}

fn compile(
    t: &mut Tracer,
    src: &str,
    name: &str,
    probe: bool,
    r: &mut Replay,
) -> Result<Schema, String> {
    let (schema, bytes) = t.span("sdl.compile", |_| {
        measure_alloc(probe, || chc_sdl::compile_with_source(src, name))
    });
    r.compile_alloc.push(bytes);
    schema.map_err(|e| format!("{name}: {e}"))
}

fn write(t: &mut Tracer, dir: &Path, cmd: Cmd, text: &str) -> Result<(), String> {
    let path = dir.join(format!("replay-{}.out", cmd.name()));
    t.span("cli.write", |_| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `chc check`'s stdout for `report`.
fn render_check(report: &CheckReport, schema: &Schema, path: &str) -> String {
    if report.diagnostics.is_empty() {
        return format!(
            "{path}: {} classes, {} declarations — clean\n",
            schema.num_classes(),
            schema.num_attr_decls()
        );
    }
    format!(
        "{}\n{} error(s), {} warning(s)\n",
        report.render(schema),
        report.errors().count(),
        report.warnings().count()
    )
}

/// Replays `cmd` in process the way `chc` runs it, one span per layer call.
fn replay(cmd: Cmd, t: &mut Tracer, dir: &Path, probe: bool) -> Result<Replay, String> {
    let mut r = Replay::default();
    match cmd {
        Cmd::Check | Cmd::Recheck => {
            let src = read(t, dir, FAULTY_SDL)?;
            let schema = compile(t, &src, FAULTY_SDL, probe, &mut r)?;
            let report = if cmd == Cmd::Check {
                let (report, bytes) =
                    t.span("core.check", |_| measure_alloc(probe, || check(&schema)));
                r.check_alloc = bytes;
                report
            } else {
                let old_src = read(t, dir, CLEAN_SDL)?;
                let old = compile(t, &old_src, CLEAN_SDL, probe, &mut r)?;
                let old_report = t.span("core.check", |_| check(&old));
                t.span("diff.incremental", |_| {
                    check_incremental(&old, &old_report, &schema)
                })
                .report
            };
            r.diagnostics = report.diagnostics.len();
            r.errors = report.errors().count();
            r.text = t.span("cli.render", |_| render_check(&report, &schema, FAULTY_SDL));
        }
        Cmd::Lint => {
            let src = read(t, dir, FAULTY_SDL)?;
            let schema = compile(t, &src, FAULTY_SDL, probe, &mut r)?;
            let report = t.span("lint.run", |_| chc_lint::run(&schema, &LintConfig::new()));
            r.findings = report.findings.len();
            r.text = t.span("lint.render", |_| {
                if report.findings.is_empty() {
                    format!(
                        "{FAULTY_SDL}: {} classes — no lints fired\n",
                        schema.num_classes()
                    )
                } else {
                    format!(
                        "{}\n",
                        chc_lint::render_report(&report, &schema, Some(&src))
                    )
                }
            });
            r.render_bytes = r.text.len();
        }
        Cmd::Diff => {
            let old_src = read(t, dir, CLEAN_SDL)?;
            let new_src = read(t, dir, FAULTY_SDL)?;
            let old = compile(t, &old_src, CLEAN_SDL, probe, &mut r)?;
            let new = compile(t, &new_src, FAULTY_SDL, probe, &mut r)?;
            let out = t.span("lint.run_diff", |_| {
                chc_lint::run_diff(&old, &new, Some(CLEAN_SDL), &LintConfig::new())
            });
            r.findings = out.report.findings.len();
            r.text = t.span("lint.render", |_| {
                let mut text = String::new();
                if !out.report.findings.is_empty() {
                    text = chc_lint::render_report_sources(&out.report, &new, Some(&new_src), Some(&old_src));
                    text.push('\n');
                }
                let _ = writeln!(
                    text,
                    "{CLEAN_SDL} -> {FAULTY_SDL}: {} edit(s) ({} additive, {} refining, {} breaking); \
                     dirty: {} class(es) to re-check, {} extent(s) to re-validate",
                    out.diff.edits.len(),
                    out.diff.count(EditKind::Additive),
                    out.diff.count(EditKind::Refining),
                    out.diff.count(EditKind::Breaking),
                    out.dirty.classes.len(),
                    out.dirty.extents.len(),
                );
                text
            });
            r.render_bytes = r.text.len();
        }
    }
    write(t, dir, cmd, &r.text)?;
    Ok(r)
}

/// Counters from a `chc --stats-out` file (`{"name":…,"type":"counter","value":…}` lines).
fn stats_counters(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| l.contains("\"type\":\"counter\"")) {
        let name = line
            .split("\"name\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next());
        let value = line
            .split("\"value\":")
            .nth(1)
            .and_then(|r| r.split([',', '}']).next())
            .and_then(|v| v.trim().parse::<f64>().ok());
        if let (Some(n), Some(v)) = (name, value) {
            out.insert(n.to_string(), v);
        }
    }
    out
}

/// Records `counter` from `stats` under `name`, or why it is absent.
fn from_counter(
    l: &mut Layers,
    stats: &BTreeMap<String, f64>,
    cmd: Cmd,
    name: &'static str,
    counter: &str,
) -> Option<f64> {
    match stats.get(counter) {
        Some(&v) => {
            l.set(name, v);
            Some(v)
        }
        None => {
            l.absent(
                name,
                format!(
                    "`chc --stats-out {}` exported no `{counter}` counter",
                    cmd.name()
                ),
            );
            None
        }
    }
}

/// `part / whole` under `name`, with its base in the report; absent when
/// either count is missing or the base is 0.
fn ratio(l: &mut Layers, name: &'static str, part: Option<f64>, whole: Option<f64>, what: &str) {
    match (part, whole) {
        (Some(p), Some(w)) if w > 0.0 => {
            l.set(name, p / w);
            let _ = writeln!(l.report, "  {name} = {what} = {p} / {w} = {:.4}", p / w);
        }
        _ => l.absent(name, format!("no base for {what}")),
    }
}

/// Records the tracing overhead: traced minus untraced wall of the same work.
fn overhead(l: &mut Layers, traced_ns: u64, untraced_ns: u64, what: &str) {
    let pct = (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64 * 100.0;
    l.set("trace.overhead_pct", pct);
    let _ = writeln!(
        l.report,
        "tracing overhead over all {what}: ({:.1} ms traced - {:.1} ms untraced) / {:.1} ms = {pct:.2}%",
        ms(traced_ns),
        ms(untraced_ns),
        ms(untraced_ns)
    );
}

/// Accounting of one command in one iteration.
struct CmdRow {
    iteration: u64,
    cmd: Cmd,
    wall_ns: u64,
    layers: BTreeMap<&'static str, u64>,
    traced_ns: u64,
    untraced_ns: u64,
    faithful: bool,
}

/// The traced run of a CLI workload over an already set-up input pair.
pub fn traced_cli(
    args: &Args,
    dir: &Path,
    setup: &SdlSetup,
    tally: &mut Tally,
    l: &mut Layers,
) -> Result<Tracer, Stop> {
    let cmds = Cmd::of(args.workload);
    let mut t = Tracer::new();
    let mut rows: Vec<CmdRow> = Vec::new();
    let mut per_iter: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &'static str, v: f64| per_iter.entry(k).or_default().push(v);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut iteration = 0u64;
    let mut stdout_bytes = 0usize;
    while iteration < 2 || Instant::now() < deadline {
        t.set_iteration(iteration);
        let mut first = None;
        let mut cli = [0u64; 3];
        for cmd in cmds {
            let run = cmd.spawn(&args.chc, dir, &[])?;
            tally.record(cmd.name(), cmd.judge(&run, first.as_ref(), setup));
            let root = t.next_index();
            let traced = t
                .span(cmd_span(cmd), |t| replay(cmd, t, dir, false))
                .map_err(Stop::Broken)?;
            let t0 = Instant::now();
            replay(cmd, &mut Tracer::disabled(), dir, false).map_err(Stop::Broken)?;
            let untraced_ns = t0.elapsed().as_nanos() as u64;
            if iteration == 0 && memalloc::installed() {
                // Allocation probes cost time, so they get a replay of their own.
                let probed =
                    replay(cmd, &mut Tracer::disabled(), dir, true).map_err(Stop::Broken)?;
                for bytes in &probed.compile_alloc {
                    push("sdl.compile_alloc_mb", *bytes as f64 / MIB);
                }
                if cmd == Cmd::Check {
                    push("core.check_alloc_mb", probed.check_alloc as f64 / MIB);
                }
            }
            for (i, name) in ["cli.read", "cli.render", "cli.write"]
                .into_iter()
                .enumerate()
            {
                cli[i] += t.durations_below(root, name).iter().sum::<u64>();
            }
            for ns in t.durations_below(root, "sdl.compile") {
                push("sdl.compile_ms", ms(ns));
            }
            match cmd {
                Cmd::Check => {
                    let check_ns = t.durations_below(root, "core.check")[0];
                    push("core.check_ms", ms(check_ns));
                    push(
                        "core.check_ns_per_clause",
                        check_ns as f64 / setup.pair.model.input_size() as f64,
                    );
                    l.set("core.diagnostics", traced.diagnostics as f64);
                    l.set("core.errors", traced.errors as f64);
                }
                Cmd::Recheck => push(
                    "diff.incremental_ms",
                    ms(t.durations_below(root, "diff.incremental")[0]),
                ),
                Cmd::Lint => {
                    push("lint.run_ms", ms(t.durations_below(root, "lint.run")[0]));
                    push(
                        "lint.render_ms",
                        ms(t.durations_below(root, "lint.render")[0]),
                    );
                    l.set("lint.findings", traced.findings as f64);
                    l.set("lint.render_kb", traced.render_bytes as f64 / 1024.0);
                }
                Cmd::Diff => push(
                    "lint.run_diff_ms",
                    ms(t.durations_below(root, "lint.run_diff")[0]),
                ),
            }
            push(cmd_metric(cmd), run.wall.as_secs_f64() * 1e3);
            if iteration == 0 {
                stdout_bytes += run.stdout.len();
            }
            rows.push(CmdRow {
                iteration,
                cmd,
                wall_ns: run.wall.as_nanos() as u64,
                layers: t.layer_self_ns(root),
                traced_ns: t.spans()[root].dur_ns(),
                untraced_ns,
                faithful: traced.text.as_bytes() == run.stdout.as_slice(),
            });
            first = Some(run);
        }
        push("cli.read_ms", ms(cli[0]));
        push("cli.render_ms", ms(cli[1]));
        push("cli.write_ms", ms(cli[2]));
        let unattributed: i64 = rows
            .iter()
            .filter(|r| r.iteration == iteration)
            .map(|r| r.wall_ns as i64 - r.traced_ns as i64)
            .sum();
        push("cli.unattributed_ms", unattributed as f64 / 1e6);
        breakdown(&mut t, dir, &mut push).map_err(Stop::Broken)?;
        iteration += 1;
    }
    for (name, xs) in &per_iter {
        l.set(name, med(xs));
    }
    l.set("cli.stdout_mb", stdout_bytes as f64 / MIB);
    if !memalloc::installed() {
        for name in ["sdl.compile_alloc_mb", "core.check_alloc_mb"] {
            l.absent(name, NO_ALLOCATOR.into());
        }
    }
    if args.workload == Workload::Analyze {
        l.values.remove("cli.render_ms");
        l.absent(
            "cli.render_ms",
            "chc lint and chc diff render through chc-lint (lint.render_ms)".into(),
        );
    }
    let traced: u64 = rows.iter().map(|r| r.traced_ns).sum();
    let untraced: u64 = rows.iter().map(|r| r.untraced_ns).sum();
    overhead(l, traced, untraced, "command replays");

    command_table(l, &rows, setup.pair.model);

    // Counters the program exports: one extra run per command.
    let mut first = None;
    for cmd in cmds {
        let stats_path = dir.join(format!("stats-{}.jsonl", cmd.name()));
        let stats_arg = stats_path
            .to_str()
            .ok_or_else(|| Stop::Broken("non-UTF-8 work path".into()))?;
        let run = cmd.spawn(&args.chc, dir, &["--stats-out", stats_arg])?;
        tally.record(
            &format!("{} --stats-out", cmd.name()),
            cmd.judge(&run, first.as_ref(), setup),
        );
        first = Some(run);
        if cmd != cmds[0] {
            continue;
        }
        let stats = stats_counters(&std::fs::read_to_string(&stats_path).unwrap_or_default());
        let _ = writeln!(
            l.report,
            "counters of `chc {}` (--stats-out) and ratios with their bases:",
            cmd.name()
        );
        from_counter(
            l,
            &stats,
            cmd,
            "core.contradictions",
            "check.contradictions",
        );
        from_counter(
            l,
            &stats,
            cmd,
            "core.joint_sat_calls",
            "check.joint_sat_calls",
        );
        let sat = stats.get("sat.calls").copied();
        ratio(
            l,
            "core.sat_distinct_ratio",
            stats.get("sat.calls.distinct").copied(),
            sat,
            "sat.calls.distinct / sat.calls",
        );
        let queries = from_counter(l, &stats, cmd, "types.subtype_queries", "subtype.queries");
        ratio(
            l,
            "types.subtype_distinct_ratio",
            stats.get("subtype.queries.distinct").copied(),
            queries,
            "subtype.queries.distinct / subtype.queries",
        );
    }
    Ok(t)
}

fn cmd_span(cmd: Cmd) -> &'static str {
    match cmd {
        Cmd::Check => "cli.check",
        Cmd::Recheck => "cli.recheck",
        Cmd::Lint => "cli.lint",
        Cmd::Diff => "cli.diff",
    }
}

fn cmd_metric(cmd: Cmd) -> &'static str {
    match cmd {
        Cmd::Check => "cli.check_ms",
        Cmd::Recheck => "cli.recheck_ms",
        Cmd::Lint => "cli.lint_ms",
        Cmd::Diff => "cli.diff_ms",
    }
}

/// Lex/parse/lower of the faulty schema and diff/cone of the pair, timed
/// call by call outside any command (each command calls them only through
/// `compile_with_source` and `check_incremental`/`run_diff`).
fn breakdown(
    t: &mut Tracer,
    dir: &Path,
    push: &mut impl FnMut(&'static str, f64),
) -> Result<(), String> {
    let src = std::fs::read_to_string(dir.join(FAULTY_SDL)).map_err(|e| e.to_string())?;
    let old_src = std::fs::read_to_string(dir.join(CLEAN_SDL)).map_err(|e| e.to_string())?;
    let at = t.next_index();
    let tokens = t
        .span("sdl.lex", |_| chc_sdl::lexer::lex(&src))
        .map_err(|e| e.to_string())?
        .len();
    let ast = t
        .span("sdl.parse", |_| chc_sdl::parse(&src))
        .map_err(|e| e.to_string())?;
    let new = t
        .span("sdl.lower", |_| chc_sdl::lower(&ast))
        .map_err(|e| e.to_string())?;
    let old = chc_sdl::compile(&old_src).map_err(|e| e.to_string())?;
    let diff = t.span("diff.diff", |_| diff_schemas(&old, &new));
    let dirty = t.span("diff.cone", |_| impact_cone(&old, &new, &diff));
    let d = |i: usize| t.spans()[at + i].dur_ns();
    let (lex, parse, lower) = (d(0), d(1), d(2));
    push("sdl.lex_ms", ms(lex));
    // `parse` lexes first; its own time is the rest.
    push("sdl.parse_ms", ms(parse.saturating_sub(lex)));
    push("sdl.lower_ms", ms(lower));
    push("sdl.tokens", tokens as f64);
    push(
        "sdl.lex_mb_per_s",
        src.len() as f64 / MIB / (lex as f64 / 1e9),
    );
    push("diff.diff_ms", ms(d(3)));
    push("diff.cone_ms", ms(d(4)));
    push("diff.edits", diff.edits.len() as f64);
    push("diff.dirty_classes", dirty.classes.len() as f64);
    Ok(())
}

/// The per-command table: layer self time beside the process wall.
fn command_table(l: &mut Layers, rows: &[CmdRow], model: ModelCounts) {
    let layers: Vec<&str> = {
        let mut v: Vec<&str> = rows.iter().flat_map(|r| r.layers.keys().copied()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let _ = writeln!(
        l.report,
        "input: {} classes, {} attribute declarations, {} excuse clauses",
        model.classes, model.attr_decls, model.excuse_clauses
    );
    let mut header = format!("{:<4} {:<8} {:>10}", "iter", "command", "wall_ms");
    for layer in &layers {
        let _ = write!(header, " {:>9}", format!("{layer}_ms"));
    }
    let _ = writeln!(
        l.report,
        "{header} {:>15} {:>10} {:>9} replay==stdout",
        "unattributed_ms", "overhead%", "Σ==wall"
    );
    for r in rows {
        let mut line = format!(
            "{:<4} {:<8} {:>10.1}",
            r.iteration,
            r.cmd.name(),
            ms(r.wall_ns)
        );
        for layer in &layers {
            let _ = write!(
                line,
                " {:>9.1}",
                ms(r.layers.get(layer).copied().unwrap_or(0))
            );
        }
        let unattributed = r.wall_ns as i64 - r.traced_ns as i64;
        let sum: i64 = r.layers.values().map(|&v| v as i64).sum::<i64>() + unattributed;
        let overhead = (r.traced_ns as f64 - r.untraced_ns as f64) / r.untraced_ns as f64 * 100.0;
        let _ = writeln!(
            l.report,
            "{line} {:>15.1} {:>10.2} {:>9} {}",
            unattributed as f64 / 1e6,
            overhead,
            sum == r.wall_ns as i64,
            r.faithful
        );
    }
}

fn op_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Validate => "core.validate",
        OpKind::Query => "query.execute",
        OpKind::Insert => "extent.insert",
        OpKind::Evolve => "extent.evolve",
    }
}

/// Plans like the serve target's: one projection per concrete class, on
/// its first applicable attribute.
fn sample_plans(ctx: &TypeContext<'_>, schema: &Schema) -> Vec<chc_query::Plan> {
    schema
        .class_ids()
        .filter(|&c| !schema.class(c).is_virtual())
        .filter_map(|c| {
            let attr = *schema.applicable_attrs(c).iter().next()?;
            compile_query(ctx, &Query::over(c).emit(vec![attr]), CheckMode::Eliminate).ok()
        })
        .take(32)
        .collect()
}

/// Builds the serve target step by step — virtualize, populate, refresh
/// virtual extents, build — under spans, plus two side measurements:
/// the type context on its own and check-eliminated plan execution.
/// Returns the target and the sampled plans' `(rows scanned, checks executed)`.
fn traced_setup(
    t: &mut Tracer,
    schema: &Schema,
    seed: u64,
    l: &mut Layers,
) -> Result<(LibraryTarget, [f64; 2]), String> {
    t.span("workloads.setup", |t| {
        let v = t
            .span("core.virtualize", |_| chc_core::virtualize(schema))
            .map_err(|e| e.to_string())?;
        t.span("types.ctx_build", |_| drop(TypeContext::with_virtuals(&v)));
        let params = PopulateParams {
            per_class: SERVE_PER_CLASS,
            seed: serve_stream_seed(seed),
        };
        let (mut store, objects) = t.span("workloads.populate", |_| populate(&v.schema, &params));
        t.span("extent.refresh", |_| {
            chc_extent::refresh_virtual_extents(&mut store, &v)
        });
        l.set("extent.objects", store.num_objects() as f64);
        let sampled = t.span("query.sample", |t| {
            let ctx = TypeContext::with_virtuals(&v);
            let (mut rows, mut checks) = (0usize, 0usize);
            for plan in sample_plans(&ctx, &v.schema) {
                let res = t.span("query.execute", |_| execute(&v.schema, &store, &plan));
                rows += res.stats.rows_scanned;
                checks += res.stats.checks_executed;
            }
            [rows as f64, checks as f64]
        });
        let target = t.span("workloads.target_build", |_| {
            LibraryTarget::new(v, store, objects, TargetOptions::default())
        });
        Ok((target, sampled))
    })
}

/// The traced run of `serve`: alternating traced and untraced rounds of
/// `ops_per_round` operations over `inputs`.
pub fn traced_serve(
    args: &Args,
    inputs: &ServeSchema,
    ops_per_round: u64,
    recorded: &Recorded,
    tally: &mut Tally,
    l: &mut Layers,
) -> Result<Tracer, Stop> {
    let ops = serve::op_generator(args.seed);
    let mut t = Tracer::new();
    let mut per_iter: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut traced_ns, mut untraced_ns) = (0u64, 0u64);
    let mut first: Option<Round> = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut iteration = 0u64;
    let mut sampled = (0.0, 0.0);
    let _ = writeln!(
        l.report,
        "input: {} classes, {} attribute declarations, {} excuse clauses; {} ops per round",
        inputs.model.classes, inputs.model.attr_decls, inputs.model.excuse_clauses, ops_per_round
    );
    let _ = writeln!(
        l.report,
        "{:<4} {:<8} {:>10} layer self time (ms)",
        "iter", "phase", "wall_ms"
    );
    while iteration < MIN_ITERATIONS as u64 || Instant::now() < deadline {
        t.set_iteration(iteration);
        let setup_root = t.next_index();
        let (target, [rows, checks]) =
            traced_setup(&mut t, &inputs.schema, args.seed, l).map_err(Stop::Broken)?;
        sampled = (rows, checks);
        for (name, span) in [
            ("core.virtualize_ms", "core.virtualize"),
            ("types.ctx_build_ms", "types.ctx_build"),
            ("workloads.populate_ms", "workloads.populate"),
            ("workloads.target_build_ms", "workloads.target_build"),
        ] {
            per_iter
                .entry(name)
                .or_default()
                .push(ms(t.durations_below(setup_root, span)[0]));
        }
        let round_root = t.next_index();
        let probe = memalloc::probe();
        let round = t.span("workloads.round", |t| {
            serve::run_round(&target, &ops, ops_per_round, |kind, f| {
                t.span(op_span(kind), |_| f())
            })
        });
        let alloc = probe.stats().bytes_allocated;
        drop(probe);
        tally.add_round(&round);
        bench::judge_round(&round, first.as_ref(), recorded, args.seed, tally);
        let plain_target = serve::build_target(&inputs.schema, args.seed).map_err(Stop::Broken)?;
        let plain = serve::run_round(&plain_target, &ops, ops_per_round, |_, f| f());
        tally.add_round(&plain);
        bench::judge_round(
            &plain,
            first.as_ref().or(Some(&round)),
            recorded,
            args.seed,
            tally,
        );
        traced_ns += round.wall.as_nanos() as u64;
        untraced_ns += plain.wall.as_nanos() as u64;

        let p50_us = |k: usize| med(&round.latency_ns[k]) / 1e3;
        per_iter
            .entry("core.validate_object_us")
            .or_default()
            .push(p50_us(0));
        per_iter
            .entry("query.execute_us")
            .or_default()
            .push(p50_us(1));
        per_iter
            .entry("extent.insert_us")
            .or_default()
            .push(p50_us(2));
        let all: Vec<f64> = round.latency_ns.iter().flatten().copied().collect();
        per_iter
            .entry("serve.op_p99_us")
            .or_default()
            .push(quantile(&all, 0.99).unwrap_or(0.0) / 1e3);
        let queries = round.latency_ns[1].len().max(1) as f64;
        per_iter
            .entry("query.rows_scanned")
            .or_default()
            .push(round.work[1] as f64 / queries);
        if memalloc::installed() {
            per_iter
                .entry("serve.alloc_kb_per_op")
                .or_default()
                .push(alloc as f64 / 1024.0 / round.attempted as f64);
        } else {
            l.absent("serve.alloc_kb_per_op", NO_ALLOCATOR.into());
        }

        for (phase, root) in [("setup", setup_root), ("round", round_root)] {
            let mut line = format!(
                "{iteration:<4} {phase:<8} {:>10.1}",
                ms(t.spans()[root].dur_ns())
            );
            for (layer, ns) in t.layer_self_ns(root) {
                let _ = write!(line, "  {layer} {:.1}", ms(ns));
            }
            let _ = writeln!(l.report, "{line}");
        }
        let _ = writeln!(
            l.report,
            "{iteration:<4} {:<8} {:>10.1}  (same round untraced)",
            "plain",
            plain.wall.as_secs_f64() * 1e3
        );
        first.get_or_insert(round);
        iteration += 1;
    }
    for (name, xs) in &per_iter {
        l.set(name, med(xs));
    }
    ratio(
        l,
        "query.checks_per_row",
        Some(sampled.1),
        Some(sampled.0),
        "checks executed / rows scanned (sampled plans)",
    );
    let q = first.as_ref().map_or(0, |r| r.latency_ns[1].len());
    let _ = writeln!(
        l.report,
        "  query.rows_scanned = rows scanned / query ops, per round ({q} query ops in round 0)"
    );
    overhead(l, traced_ns, untraced_ns, "op-loop rounds");
    for name in [
        "types.subtype_queries",
        "types.subtype_distinct_ratio",
        "core.sat_distinct_ratio",
    ] {
        l.absent(
            name,
            "serve runs in process; chc's counters are read only from CLI runs".into(),
        );
    }
    Ok(t)
}

/// One traced run of `args.workload`.
pub fn run(
    args: &Args,
    dir: &Path,
    recorded: &Recorded,
    tally: &mut Tally,
) -> Result<Outcome, Stop> {
    let mut l = Layers::default();
    let (tracer, model) = match args.workload {
        Workload::Check | Workload::Analyze => {
            let setup = bench::setup_sdl(dir, args.seed, recorded)?;
            (
                traced_cli(args, dir, &setup, tally, &mut l)?,
                setup.pair.model,
            )
        }
        Workload::Serve => {
            let inputs = bench::serve_inputs(args.seed, recorded)?;
            (
                traced_serve(args, &inputs, SERVE_OPS_PER_ROUND, recorded, tally, &mut l)?,
                inputs.model,
            )
        }
    };
    l.set("model.classes", model.classes as f64);
    l.set("model.attr_decls", model.attr_decls as f64);
    l.set("model.excuse_clauses", model.excuse_clauses as f64);
    l.set(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let metrics = l.complete(args.workload);

    let spans_path = args.work.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, tracer.to_jsonl())
        .map_err(|e| Stop::Broken(format!("{}: {e}", spans_path.display())))?;
    println!(
        "== perfbench traced run: workload {}, seed {} ==",
        args.workload.name(),
        args.seed
    );
    print!("{}", l.report);
    println!("metrics left at 0, and why:");
    for (name, why) in &l.absent {
        println!("  {name}: {why}");
    }
    println!(
        "spans: {} ({} recorded)",
        spans_path.display(),
        tracer.spans().len()
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::cli_iteration;
    use crate::inputs::{hierarchy, SdlPair};
    use crate::oracle::{LineMap, Sources};
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("perfbench/ sits in the repository")
    }

    /// A debug `chc`, built once per test process into the root `target/`.
    fn chc() -> &'static Path {
        static CHC: OnceLock<PathBuf> = OnceLock::new();
        CHC.get_or_init(|| {
            let root = repo_root();
            let status = std::process::Command::new(env!("CARGO"))
                .args([
                    "build",
                    "--offline",
                    "--quiet",
                    "--bin",
                    "chc",
                    "--manifest-path",
                ])
                .arg(root.join("Cargo.toml"))
                .arg("--target-dir")
                .arg(root.join("target"))
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building chc failed");
            root.join("target/debug/chc")
        })
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = repo_root()
            .join("target")
            .join(format!("perfbench-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_setup(dir: &Path) -> SdlSetup {
        let pair = SdlPair::generate_sized(200, 5);
        std::fs::write(dir.join(CLEAN_SDL), &pair.clean).unwrap();
        std::fs::write(dir.join(FAULTY_SDL), &pair.faulty).unwrap();
        let sources = Sources {
            clean: LineMap::new(&pair.clean),
            faulty: LineMap::new(&pair.faulty),
        };
        SdlSetup {
            pair,
            sources,
            setup_s: vec![0.0],
        }
    }

    fn args(workload: Workload, chc: &Path, work: &Path) -> Args {
        Args {
            workload,
            seed: 999_999,
            seconds: 1,
            trace: true,
            chc: chc.into(),
            work: work.into(),
        }
    }

    #[test]
    fn traced_runs_emit_every_per_layer_metric_or_say_why() {
        for workload in Workload::ALL {
            let dir = scratch(workload.name());
            let a = args(workload, chc(), &dir);
            let mut tally = Tally::default();
            let mut l = Layers::default();
            let tracer = match workload {
                Workload::Serve => {
                    let schema = hierarchy(40).schema;
                    let inputs = ServeSchema {
                        model: ModelCounts::of(&schema),
                        schema,
                    };
                    traced_serve(&a, &inputs, 500, &Recorded::default(), &mut tally, &mut l)
                        .unwrap()
                }
                _ => traced_cli(&a, &dir, &small_setup(&dir), &mut tally, &mut l).unwrap(),
            };
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
            let metrics = l.complete(workload);
            assert_eq!(
                metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
            );
            for (name, value) in &metrics {
                let measured = l.values.get(name) == Some(value);
                assert!(
                    measured || l.absent.contains_key(name),
                    "{}: {name} is neither measured nor explained",
                    workload.name()
                );
            }
            let own: &[&str] = match workload {
                Workload::Check => &[
                    "sdl.compile_ms",
                    "sdl.lex_ms",
                    "core.check_ms",
                    "core.contradictions",
                    "types.subtype_queries",
                    "diff.incremental_ms",
                    "cli.check_ms",
                    "cli.recheck_ms",
                    "cli.read_ms",
                    "cli.render_ms",
                ],
                Workload::Analyze => &[
                    "sdl.compile_ms",
                    "lint.run_ms",
                    "lint.render_ms",
                    "lint.run_diff_ms",
                    "diff.diff_ms",
                    "cli.lint_ms",
                    "cli.diff_ms",
                ],
                Workload::Serve => &[
                    "core.virtualize_ms",
                    "workloads.populate_ms",
                    "workloads.target_build_ms",
                    "core.validate_object_us",
                    "query.execute_us",
                    "extent.insert_us",
                    "extent.objects",
                    "serve.op_p99_us",
                ],
            };
            for name in own {
                assert!(
                    l.values.get(name).is_some_and(|v| *v > 0.0),
                    "{name} unmeasured on {}",
                    workload.name()
                );
            }
            // Every command's layer self times add up to its replay span.
            for (i, s) in tracer
                .spans()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.parent.is_none())
            {
                assert_eq!(
                    tracer.layer_self_ns(i).values().sum::<u64>(),
                    s.dur_ns(),
                    "{}",
                    s.name
                );
            }
        }
    }

    fn wrapper(dir: &Path, name: &str, filter: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let path = dir.join(name);
        let script = format!(
            "#!/bin/sh\nout=$(\"{}\" \"$@\"); code=$?\nprintf '%s\\n' \"$out\" | {filter}\nexit $code\n",
            chc().display()
        );
        std::fs::write(&path, script).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    #[test]
    fn tampered_chc_output_is_a_failure_not_a_timing() {
        let dir = scratch("tamper");
        let setup = small_setup(&dir);
        let cases = [
            // One error line dropped from every check's stdout.
            (
                "drop-error",
                "awk '/: error: / && !done { done = 1; next } { print }'",
                "check: summary",
            ),
            // One byte flipped in the incremental stdout only.
            (
                "flip-byte",
                "case \"$*\" in *--incremental*) sed '$s/error/errou/' ;; *) cat ;; esac",
                "recheck: incremental stdout differs",
            ),
        ];
        for (name, filter, reason) in cases {
            let a = args(Workload::Check, &wrapper(&dir, name, filter), &dir);
            let mut tally = Tally::default();
            cli_iteration(&a, &dir, &setup, &mut tally).unwrap();
            assert_eq!(tally.attempted, 2);
            assert!(tally.failed >= 1, "{name} went unnoticed");
            assert!(
                tally.reasons.iter().any(|r| r.starts_with(reason)),
                "{name}: {:?}",
                tally.reasons
            );
        }
        // The untampered binary passes both oracles.
        let mut tally = Tally::default();
        cli_iteration(
            &args(Workload::Check, chc(), &dir),
            &dir,
            &setup,
            &mut tally,
        )
        .unwrap();
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 0),
            "{:?}",
            tally.reasons
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
