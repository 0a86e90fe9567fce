//! End-to-end tests of the `chc` command-line front end.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn write_schema(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

fn chc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(args)
        .output()
        .expect("chc runs")
}

const CLEAN: &str = "
class Physician;
class Psychologist;
class Patient with treatedBy: Physician;
class Alcoholic is-a Patient with
    treatedBy: Psychologist excuses treatedBy on Patient;
";

const BROKEN: &str = "
class Physician;
class Psychologist;
class Patient with treatedBy: Physician;
class Alcoholic is-a Patient with treatedBy: Psychologist;
";

#[test]
fn check_clean_schema_exits_zero() {
    let path = write_schema("clean.sdl", CLEAN);
    let out = chc(&["check", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
}

#[test]
fn check_broken_schema_exits_nonzero_and_names_the_site() {
    let path = write_schema("broken.sdl", BROKEN);
    let out = chc(&["check", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Alcoholic.treatedBy"), "{stdout}");
    assert!(stdout.contains("excuses treatedBy on Patient"), "{stdout}");
}

#[test]
fn print_emits_reparsable_canonical_form() {
    let path = write_schema("print.sdl", CLEAN);
    let out = chc(&["print", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let reprinted = write_schema("print2.sdl", &text);
    let out2 = chc(&["print", reprinted.to_str().unwrap()]);
    assert_eq!(text, String::from_utf8_lossy(&out2.stdout));
}

#[test]
fn explain_prints_the_conditional_type() {
    let path = write_schema("explain.sdl", CLEAN);
    let out = chc(&["explain", path.to_str().unwrap(), "Patient", "treatedBy"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Physician + Psychologist/Alcoholic"),
        "{stdout}"
    );
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let out = chc(&["frobnicate", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    let out = chc(&["check", "/nonexistent.sdl"]);
    assert_eq!(out.status.code(), Some(2));
    let bad = write_schema("syntax.sdl", "class A with x 1..2");
    let out = chc(&["check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected"));
}

#[test]
fn validate_loads_data_and_judges_it() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.chd");
    let out = chc(&["validate", schema.to_str().unwrap(), data.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("0 invalid"), "{stdout}");

    // Break the data: a plain patient treated by the psychologist.
    let bad = write_schema(
        "bad.chd",
        r#"
        paul : Psychologist { name = "Paul", age = 44 }
        bern : Address { street = "Main", city = "Bern", state = 'NJ }
        gen  : Hospital { accreditation = 'Federal, location = @bern }
        ann  : Patient { name = "Ann", age = 30, treatedBy = @paul, treatedAt = @gen }
        "#,
    );
    let out = chc(&["validate", schema.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ann:"), "{stdout}");
    assert!(stdout.contains("Patient.treatedBy"), "{stdout}");
}

#[test]
fn check_with_stats_prints_nonzero_counters() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let out = chc(&["check", "--stats", schema.to_str().unwrap()]);
    assert!(out.status.success());
    // Reports go to stderr; stdout stays the command's own output.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let counter = |name: &str| -> u64 {
        stderr
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{stderr}"))
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(counter("subtype.queries") > 0, "{stderr}");
    assert!(counter("check.classes") > 0, "{stderr}");
}

#[test]
fn validate_with_trace_prints_span_tree() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let data = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.chd");
    let out = chc(&[
        "validate",
        "--trace",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    // The span tree names the command phases, with timings, on stderr.
    assert!(stderr.contains("cli.compile"), "{stderr}");
    assert!(stderr.contains("cli.validate"), "{stderr}");
    assert!(stderr.contains("check.schema"), "{stderr}");
    assert!(
        stderr.contains("us") || stderr.contains("ms") || stderr.contains("ns"),
        "{stderr}"
    );
}

#[test]
fn global_flags_accepted_before_and_after_subcommand() {
    let path = write_schema("order.sdl", CLEAN);
    let p = path.to_str().unwrap();
    // `chc --stats check s.sdl` and `chc check --stats s.sdl` are the
    // same command; value-carrying flags move around identically.
    let before = chc(&["--stats", "check", p]);
    let after = chc(&["check", "--stats", p]);
    assert!(before.status.success() && after.status.success());
    assert_eq!(before.stdout, after.stdout);
    assert_eq!(before.stderr, after.stderr);
    assert!(String::from_utf8_lossy(&after.stderr).contains("check.classes"));

    let out_dir = std::env::temp_dir().join("chc-cli-tests");
    let t1 = out_dir.join("order1.json");
    let t2 = out_dir.join("order2.json");
    let a = chc(&["--trace-out", t1.to_str().unwrap(), "check", p]);
    let b = chc(&["check", "--trace-out", t2.to_str().unwrap(), p]);
    assert!(a.status.success() && b.status.success());
    assert!(t1.exists() && t2.exists());
    // The `=` spelling works too, and a missing value is a clean error.
    let eq = chc(&[&format!("--trace-out={}", t1.to_str().unwrap()), "check", p]);
    assert!(eq.status.success());
    let missing = chc(&["check", p, "--trace-out"]);
    assert_eq!(missing.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--trace-out"));
}

#[test]
fn flags_can_appear_anywhere_and_compose() {
    let path = write_schema("flags.sdl", CLEAN);
    let out = chc(&["--trace", "check", "--stats", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("cli.check"), "{stderr}");
    assert!(stderr.contains("check.classes"), "{stderr}");

    // Without the flags, no observability output sneaks in.
    let out = chc(&["check", path.to_str().unwrap()]);
    let all = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!all.contains("cli.check"), "{all}");
    assert!(!all.contains("check.classes"), "{all}");
}

#[test]
fn stats_report_keeps_json_stdout_machine_parseable() {
    // The whole point of stderr routing: `chc lint --format json --stats`
    // must emit a single JSON document on stdout, nothing else.
    let path = write_schema("pure.sdl", CLEAN);
    let out = chc(&[
        "lint",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--stats",
        "--trace",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = chc_obs::json::parse(&stdout).expect("stdout is pure JSON");
    assert_eq!(
        parsed.get("tool").and_then(|v| v.as_str()),
        Some("chc-lint")
    );
    // …while the reports still arrive, on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cli.lint"), "{stderr}");
    assert!(stderr.contains("lint.classes"), "{stderr}");
}

#[test]
fn query_emits_rows_on_stdout_and_accounting_on_stderr() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let out = chc(&[
        "query",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
        "for p in Patient emit p.name",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Rows only on stdout — one per line, pipeable.
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
    for name in ["Ann", "Bob", "Tom"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    assert!(!stdout.contains("scanned"), "{stdout}");
    // All accounting on stderr.
    assert!(stderr.contains("3 row(s) scanned"), "{stderr}");
    assert!(stderr.contains("3 emitted"), "{stderr}");
    assert!(stderr.contains("0 compile-time warning(s)"), "{stderr}");
}

#[test]
fn query_reports_skipped_rows_when_the_result_may_be_absent() {
    // Tom is tubercular: his sanatorium's address has no state, so the
    // surviving run-time check drops his row and stderr says why.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let out = chc(&[
        "query",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
        "for p in Patient emit p.treatedAt.location.state",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stderr.contains("3 row(s) scanned, 2 emitted"), "{stderr}");
    assert!(stderr.contains("1 compile-time warning(s)"), "{stderr}");
    assert!(stderr.contains("result may be absent"), "{stderr}");
    assert!(stderr.contains("1 row(s) skipped"), "{stderr}");
}

#[test]
fn query_rejects_ill_typed_queries_with_a_failing_exit() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let out = chc(&[
        "query",
        schema.to_str().unwrap(),
        data.to_str().unwrap(),
        "for h in Hospital emit h.treatedBy",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("type error"));
}

#[test]
fn load_runs_a_mixed_workload_and_writes_all_three_sinks() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let schema = dir.join("hospital.sdl");
    let data = dir.join("hospital.chd");
    let tmp = std::env::temp_dir().join("chc-cli-tests");
    std::fs::create_dir_all(&tmp).unwrap();
    let report = tmp.join("load-report.html");
    let ndjson = tmp.join("load-bench.ndjson");
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&ndjson);
    let out = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args([
            "load",
            schema.to_str().unwrap(),
            data.to_str().unwrap(),
            "--mix",
            "validate=70,query=20,insert=9,evolve=1",
            "--threads",
            "2",
            "--ops",
            "400",
            "--seed",
            "11",
            "--report",
            report.to_str().unwrap(),
        ])
        .env("CHC_BENCH_JSON", ndjson.to_str().unwrap())
        .output()
        .expect("chc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("400 ops"), "{stdout}");
    // Sink 1: the stderr table with per-op percentiles.
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needed in ["validate", "p99.9", "ops/s", "all"] {
        assert!(stderr.contains(needed), "stderr missing {needed}: {stderr}");
    }
    // Sink 2: chc-load/1 lines appended to $CHC_BENCH_JSON.
    let lines = std::fs::read_to_string(&ndjson).unwrap();
    assert!(lines.contains("\"schema\":\"chc-load/1\""), "{lines}");
    assert!(lines.contains("\"id\":\"load/hospital/all\""), "{lines}");
    assert!(lines.contains("\"samples\":400"), "{lines}");
    // Sink 3: the self-contained HTML report.
    let html = std::fs::read_to_string(&report).unwrap();
    assert!(html.contains("table class=\"summary\""), "report has no summary table");
    assert!(html.contains("<svg"), "report has no charts");
    assert!(!html.contains("<script"), "report must not need JS");
}

#[test]
fn load_generates_a_hierarchy_and_rejects_bad_mixes() {
    let out = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(["load", "--hier", "classes=30,seed=3", "--ops", "100", "--seed", "5"])
        .output()
        .expect("chc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("100 ops"));

    let out = chc(&["load", "--hier", "classes=10", "--mix", "teleport=1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mix kind"));
}

const EVOLVED_OLD: &str = "
class Person with age: 1..120;
class Patient is-a Person with treatedBy: Person;
";

const EVOLVED_NEW: &str = "
class Person with age: 21..65;
class Patient is-a Person with treatedBy: Person;
";

#[test]
fn diff_reports_edits_and_exits_on_denied_findings() {
    let old = write_schema("diff-old.sdl", EVOLVED_OLD);
    let new = write_schema("diff-new.sdl", EVOLVED_NEW);
    // A narrowing under stored objects: D001 warns but does not fail.
    let out = chc(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[D001]"), "{stdout}");
    assert!(stdout.contains("1 refining"), "{stdout}");
    assert!(stdout.contains("2 class(es) to re-check"), "{stdout}");
    // Under --deny warnings the same diff fails.
    let out = chc(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--deny",
        "warnings",
    ]);
    assert!(!out.status.success());
    // An explicit --allow survives the blanket deny.
    let out = chc(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--deny",
        "warnings",
        "--allow",
        "breaking-narrowing",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn diff_json_wraps_the_lint_report_in_the_chc_diff_envelope() {
    let old = write_schema("diffj-old.sdl", EVOLVED_OLD);
    let new = write_schema("diffj-new.sdl", EVOLVED_NEW);
    let out = chc(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\":\"chc-diff/1\""), "{stdout}");
    assert!(stdout.contains("\"schema\":\"chc-lint/1\""), "{stdout}");
    assert!(stdout.contains("\"kind\":\"diff\""), "{stdout}");
    assert!(stdout.contains("\"refining\":1"), "{stdout}");
}

#[test]
fn check_incremental_matches_the_full_check_byte_for_byte() {
    let old = write_schema("inc-old.sdl", EVOLVED_OLD);
    let new = write_schema("inc-new.sdl", EVOLVED_NEW);
    let full = chc(&["check", new.to_str().unwrap()]);
    let inc = chc(&[
        "check",
        new.to_str().unwrap(),
        "--incremental",
        "--since",
        old.to_str().unwrap(),
    ]);
    assert_eq!(full.status.code(), inc.status.code());
    assert_eq!(full.stdout, inc.stdout, "incremental stdout must be identical");
    let stderr = String::from_utf8_lossy(&inc.stderr);
    assert!(stderr.contains("incremental:"), "{stderr}");
    // --incremental without --since (and vice versa) is a usage error.
    let out = chc(&["check", new.to_str().unwrap(), "--incremental"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--since"));
}

#[test]
fn unknown_lint_codes_get_a_did_you_mean() {
    let path = write_schema("dym.sdl", CLEAN);
    let out = chc(&["lint", path.to_str().unwrap(), "--deny", "dead-excuze"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean `dead-excuse`?"), "{stderr}");
    // The same helper serves `chc diff`, and D codes are suggested too.
    let out = chc(&["diff", "a.sdl", "b.sdl", "--warn", "D01"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did you mean `D001`?"), "{stderr}");
    // Nothing close: no suggestion, still an error.
    let out = chc(&["lint", path.to_str().unwrap(), "--allow", "qqqqqqqqqqqq"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown lint"), "{stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
}

/// How long one bounded `chc` run may take before it counts as a hang.
const HANG: Duration = Duration::from_secs(15);

/// Runs `chc` from the repository root with every `{tmp}` in `args`
/// replaced by `tmp`, killing it after [`HANG`]. Returns the exit code
/// (`None` when a signal ended it) and stderr, or `Err` on a hang.
fn chc_bounded(args: &[&str], tmp: &std::path::Path) -> Result<(Option<i32>, String), String> {
    let tmp = tmp.to_str().unwrap();
    let args: Vec<String> = args.iter().map(|a| a.replace("{tmp}", tmp)).collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(&args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("chc runs");
    let mut pipe = child.stderr.take().unwrap();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + HANG;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let stderr = reader.join().unwrap();
    match status {
        Some(status) => Ok((status.code(), stderr)),
        None => Err(format!("chc {} hung for over {HANG:?}", args.join(" "))),
    }
}

fn bounded_tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chc-cli-tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const H_SDL: &str = "examples/data/hospital.sdl";
const H_CHD: &str = "examples/data/hospital.chd";
const H_EVOLVED: &str = "examples/data/hospital-evolved.sdl";
const H_CHQ: &str = "examples/data/hospital_queries.chq";
const QUERY: &str = "for p in Patient emit p.name";

/// One row per usage line of the `chc` header doc, plus the forms the
/// benchmark spawns, each with its exit code.
#[test]
fn every_documented_spelling_is_accepted() {
    let tmp = bounded_tmp("spellings");
    std::fs::write(tmp.join("crash.json"), "{\"schema\":\"chc-crash/1\"}\n").unwrap();
    let rows: &[(&[&str], i32)] = &[
        (&["check", H_SDL], 0),
        (
            &[
                "check",
                "--explain",
                "crates/lint/tests/fixtures/L001_fires.sdl",
            ],
            1,
        ),
        (
            &[
                "check",
                "--incremental",
                "--since",
                "crates/workloads/fixtures/evolve400-old.sdl",
                "crates/workloads/fixtures/evolve400-new.sdl",
            ],
            0,
        ),
        (&["lint", H_SDL], 0),
        (
            &[
                "lint", H_SDL, "--format", "json", "--query", H_CHQ, "--allow", "L002", "--warn",
                "L005", "--deny", "L001", "--deny", "warnings",
            ],
            0,
        ),
        (&["diff", H_SDL, H_EVOLVED], 0),
        (
            &[
                "diff", H_EVOLVED, H_SDL, "--format", "text", "--allow", "L002", "--warn", "D002",
                "--deny", "D001", "--deny", "warnings",
            ],
            1,
        ),
        (&["print", H_SDL], 0),
        (&["virtualize", H_SDL], 0),
        (&["explain", H_SDL, "Patient"], 0),
        (&["explain", H_SDL, "Patient", "treatedBy"], 0),
        (&["query", H_SDL, H_CHD, QUERY], 0),
        (&["validate", H_SDL, H_CHD, "--audit-summary"], 0),
        (
            &[
                "load",
                H_SDL,
                H_CHD,
                "--mix",
                "validate=70,query=20,insert=9,evolve=1",
                "--threads",
                "1",
                "--ops",
                "50",
                "--mode",
                "closed",
                "--think",
                "0s",
                "--seed",
                "1",
                "--epsilon",
                "0.05",
                "--populate",
                "5",
                "--window",
                "10ms",
                "--report",
                "{tmp}/load.html",
                "--id",
                "argv",
            ],
            0,
        ),
        (
            &[
                "load",
                "--hier",
                "classes=20,supers=2,attrs=4,tokens=4,redefine=0.4,contradict=0.3,seed=7",
                "--duration",
                "50ms",
                "--mode",
                "open",
                "--rate",
                "2000",
            ],
            0,
        ),
        (
            &[
                "profile",
                "check",
                H_SDL,
                "--top",
                "3",
                "--label-cap",
                "64",
                "--interval",
                "1ms",
                "--mem",
            ],
            0,
        ),
        (&["profile", "check", "--hier", "classes=20,seed=3"], 0),
        (&["profile", "validate", H_SDL, H_CHD], 0),
        (&["profile", "query", H_SDL, H_CHD, QUERY], 0),
        (&["doctor", "{tmp}/crash.json"], 0),
        (
            &[
                "--trace",
                "--stats",
                "--trace-out",
                "{tmp}/t.json",
                "--flame-out",
                "{tmp}/t.folded",
                "--stats-out",
                "{tmp}/s.json",
                "--audit-out",
                "{tmp}/a.jsonl",
                "--profile-out",
                "{tmp}/p.json",
                "--crash-out",
                "{tmp}/c.json",
                "--watchdog",
                "30s",
                "check",
                H_SDL,
            ],
            0,
        ),
        (
            &[
                "check",
                H_SDL,
                "--trace-out={tmp}/eq.json",
                "--watchdog=30s",
                "--crash-out={tmp}/c.json",
            ],
            0,
        ),
        (&["--stats-out", "{tmp}/bench.json", "check", H_SDL], 0),
        (&["--stats-out", "{tmp}/bench.json", "lint", H_SDL], 0),
        (
            &["--stats-out", "{tmp}/bench.json", "diff", H_SDL, H_EVOLVED],
            0,
        ),
    ];
    for (args, want) in rows {
        let (code, stderr) = chc_bounded(args, &tmp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(code, Some(*want), "chc {}\n{stderr}", args.join(" "));
    }
}

/// Malformed command lines, per command: a missing value, a non-number,
/// an out-of-range value, an unknown flag and an extra positional. Each
/// must be a usage error (exit 2) whose `error:` line contains the
/// needle: never a panic (101), an abort, or a hang.
#[test]
fn malformed_command_lines_exit_two() {
    let tmp = bounded_tmp("malformed");
    let rows: &[(&[&str], &str)] = &[
        (&[], "error: usage"),
        (&["frobnicate", H_SDL], "error: "),
        (&["analyze", H_SDL, QUERY], "error: "),
        (&["--bogus", "check", H_SDL], "error: "),
        (&["check", H_SDL, "--trace-out"], "--trace-out"),
        (&["check", H_SDL, "--trace-out="], "--trace-out"),
        (&["--watchdog", "soon", "check", H_SDL], "error: "),
        (
            &[
                "--watchdog",
                "999999999999999999999",
                "--crash-out",
                "{tmp}/c.json",
                "check",
                H_SDL,
            ],
            "--watchdog",
        ),
        (&["check"], "error: usage"),
        (&["check", H_SDL, "--since"], "--since"),
        (&["check", H_SDL, "--incremental"], "--since"),
        (&["check", H_SDL, "--format", "json"], "error: "),
        (&["check", H_SDL, H_SDL], "error: "),
        (&["lint", H_SDL, "--format"], "--format"),
        (&["lint", H_SDL, "--format", "yaml"], "--format"),
        (&["lint", H_SDL, "--deny"], "--deny"),
        (&["lint", H_SDL, "--deny", "L999"], "unknown lint"),
        (&["lint", H_SDL, "--query"], "--query"),
        (&["lint", H_SDL, "--bogus"], "error: "),
        (&["lint", H_SDL, H_SDL], "error: "),
        (&["diff", H_SDL, H_EVOLVED, "--warn"], "--warn"),
        (&["diff", H_SDL, H_EVOLVED, "--format", "yaml"], "--format"),
        (&["diff", H_SDL, H_EVOLVED, "--bogus"], "error: "),
        (&["diff", H_SDL], "error: "),
        (&["diff", H_SDL, H_EVOLVED, H_SDL], "error: "),
        (&["print"], "error: usage"),
        (&["print", H_SDL, "extra"], "error: "),
        (&["print", H_SDL, "--bogus"], "error: "),
        (&["virtualize", H_SDL, "extra"], "error: "),
        (&["explain", H_SDL], "error: "),
        (&["explain", H_SDL, "NoSuchClass"], "error: "),
        (
            &["explain", H_SDL, "Patient", "treatedBy", "extra"],
            "error: ",
        ),
        (&["query", H_SDL, H_CHD], "error: "),
        (&["query", H_SDL, H_CHD, QUERY, "extra"], "error: "),
        (&["query", H_SDL, H_CHD, QUERY, "--bogus"], "error: "),
        (&["validate", H_SDL], "error: "),
        (&["validate", H_SDL, H_CHD, "extra"], "error: "),
        (&["load"], "error: "),
        (&["load", "--hier", "classes=5", "--ops"], "--ops"),
        (&["load", "--hier", "classes=5", "--ops", "ten"], "--ops"),
        (
            &["load", "--hier", "classes=5", "--threads", "two"],
            "--threads",
        ),
        (
            &["load", "--hier", "classes=5", "--epsilon", "2"],
            "--epsilon",
        ),
        (
            &["load", "--hier", "classes=5", "--mode", "sideways"],
            "--mode",
        ),
        (&["load", "--hier", "classes=five"], "--hier"),
        (&["load", "--hier", "classes=5", "--bogus"], "error: "),
        (&["load", H_SDL, H_CHD, "extra"], "error: "),
        (
            &["load", "--hier", "supers=0,classes=5", "--ops", "10"],
            "--hier",
        ),
        (
            &["load", "--hier", "tokens=0,classes=20", "--ops", "10"],
            "--hier",
        ),
        (
            &["load", "--hier", "classes=5", "--ops", "10", "--rate", "0"],
            "--rate",
        ),
        (
            &["load", "--hier", "classes=5", "--ops", "10", "--rate", "-5"],
            "--rate",
        ),
        (
            &[
                "load",
                "--hier",
                "classes=5",
                "--ops",
                "10",
                "--rate",
                "NaN",
            ],
            "--rate",
        ),
        (
            &[
                "load",
                "--hier",
                "classes=5",
                "--ops",
                "10",
                "--duration",
                "999999999999999999999",
            ],
            "--duration",
        ),
        (&["profile"], "error: usage"),
        (&["profile", "frob", H_SDL], "error: "),
        (&["profile", "check"], "error: "),
        (
            &["profile", "check", "--hier", "classes=5", "--top"],
            "--top",
        ),
        (
            &["profile", "check", "--hier", "classes=5", "--top", "ten"],
            "--top",
        ),
        (
            &["profile", "check", "--hier", "supers=0,classes=5"],
            "--hier",
        ),
        (
            &[
                "profile",
                "check",
                "--hier",
                "classes=5",
                "--interval",
                "999999999999999999999",
            ],
            "--interval",
        ),
        (&["profile", "check", H_SDL, "--bogus"], "error: "),
        (&["profile", "validate", H_SDL], "error: "),
        (
            &["profile", "query", H_SDL, H_CHD, QUERY, "extra"],
            "error: ",
        ),
        (&["doctor"], "error: usage"),
        (&["doctor", H_SDL], "error: "),
        (&["doctor", H_SDL, H_SDL], "error: "),
    ];
    let mut failures = Vec::new();
    for (args, needle) in rows {
        match chc_bounded(args, &tmp) {
            Ok((Some(2), stderr))
                if stderr
                    .lines()
                    .any(|l| l.starts_with("error: ") && l.contains(needle)) => {}
            Ok((code, stderr)) => {
                failures.push(format!("chc {}: exit {code:?}\n{stderr}", args.join(" ")))
            }
            Err(hang) => failures.push(hang),
        }
    }
    assert!(
        failures.is_empty(),
        "{} malformed command line(s) mishandled:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Runs `chc` with its stdout already closed when it first writes, and
/// returns its exit code and stderr. `{schema}` in `args` names a FIFO
/// that is fed `schema` only after the read end of stdout is dropped, so
/// the command cannot finish writing before its reader is gone.
#[cfg(target_os = "linux")]
fn chc_into_closed_pipe(args: &[&str], schema: &str) -> (Option<i32>, String) {
    use std::io::{ErrorKind, Write as _};
    use std::os::unix::fs::OpenOptionsExt as _;
    const O_NONBLOCK: i32 = 0o4000;
    let dir = bounded_tmp(&format!("closed-pipe-{}", args[0]));
    let fifo = dir.join("schema.sdl");
    let _ = std::fs::remove_file(&fifo);
    let made = Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo {}", fifo.display());
    let fifo_arg = fifo.to_str().unwrap();
    let args: Vec<String> = args
        .iter()
        .map(|a| a.replace("{schema}", fifo_arg))
        .collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(&args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("chc runs");
    drop(child.stdout.take());
    // Opening a FIFO's write end without blocking fails until the
    // reader has opened it; poll, so a chc that never does cannot hang
    // the test.
    let deadline = Instant::now() + HANG;
    let mut writer = loop {
        match std::fs::OpenOptions::new()
            .write(true)
            .custom_flags(O_NONBLOCK)
            .open(&fifo)
        {
            Ok(file) => break file,
            Err(e) if e.raw_os_error() == Some(6) /* ENXIO */ => {
                if let Some(status) = child.try_wait().unwrap() {
                    panic!("chc {} exited ({status}) before reading its schema", args.join(" "));
                }
                assert!(Instant::now() < deadline, "chc {} never read its schema", args.join(" "));
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("opening {}: {e}", fifo.display()),
        }
    };
    let mut rest = schema.as_bytes();
    while !rest.is_empty() {
        match writer.write(rest) {
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => panic!("feeding the schema: {e}"),
        }
    }
    drop(writer);
    let out = child.wait_with_output().expect("chc exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[cfg(target_os = "linux")]
#[test]
fn a_closed_stdout_exits_two_without_a_panic() {
    let schema =
        std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(H_SDL))
            .unwrap();
    let query = "for p in Patient emit p.treatedBy";
    let runs: &[&[&str]] = &[
        &["print", "{schema}"],
        &["virtualize", "{schema}"],
        &["explain", "{schema}", "Alcoholic"],
        &["query", "{schema}", H_CHD, query],
        &["validate", "{schema}", H_CHD],
        &["validate", "{schema}", H_CHD, "--audit-summary"],
        &["check", "{schema}"],
        &["lint", "{schema}"],
        &["diff", "{schema}", "examples/data/hospital-evolved.sdl"],
    ];
    for args in runs {
        let (code, stderr) = chc_into_closed_pipe(args, &schema);
        let shown = args.join(" ");
        assert!(
            !stderr.contains("panicked"),
            "chc {shown} panicked:\n{stderr}"
        );
        assert_eq!(code, Some(2), "chc {shown}:\n{stderr}");
        assert!(
            stderr.contains("error: writing to stdout: "),
            "chc {shown}:\n{stderr}"
        );
    }
}
