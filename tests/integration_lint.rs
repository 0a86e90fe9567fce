//! End-to-end tests of `chc lint` and the exit-code contract it shares
//! with `check` and `virtualize`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_schema(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("chc-lint-cli-tests");
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

/// A schema that fires exactly one warning: `Employee` re-declares `age`
/// with the very same range its superclass already gives it (L005).
const NOOP: &str = "
class Person with age: 1..120;
class Employee is-a Person with age: 1..120;
";

const CLEAN: &str = "
class Physician;
class Psychologist;
class Patient with treatedBy: Physician;
class Alcoholic is-a Patient with
    treatedBy: Psychologist excuses treatedBy on Patient;
";

#[test]
fn lint_clean_schema_exits_zero_and_says_so() {
    let path = write_schema("clean.sdl", CLEAN);
    let out = chc(&["lint", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no lints fired"));
}

#[test]
fn lint_warnings_report_but_exit_zero_by_default() {
    let path = write_schema("noop.sdl", NOOP);
    let out = chc(&["lint", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[L005]"), "{stdout}");
    // The finding points into the file and quotes the offending line.
    assert!(stdout.contains("noop.sdl:3:"), "{stdout}");
    assert!(stdout.contains("class Employee is-a Person"), "{stdout}");
    assert!(stdout.contains("1 warning emitted"), "{stdout}");
}

#[test]
fn deny_warnings_flips_the_exit_code() {
    let path = write_schema("deny_warn.sdl", NOOP);
    let p = path.to_str().unwrap();
    assert!(chc(&["lint", p]).status.success());
    let out = chc(&["lint", p, "--deny", "warnings"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[L005]"), "{stdout}");
    // A clean schema stays clean even under --deny warnings.
    let clean = write_schema("deny_clean.sdl", CLEAN);
    let out = chc(&["lint", clean.to_str().unwrap(), "--deny", "warnings"]);
    assert!(out.status.success());
}

#[test]
fn deny_and_allow_target_individual_codes() {
    let path = write_schema("percode.sdl", NOOP);
    let p = path.to_str().unwrap();
    assert!(!chc(&["lint", p, "--deny", "L005"]).status.success());
    // Lints are addressable by name as well as by code.
    assert!(!chc(&["lint", p, "--deny", "noop-redefinition"]).status.success());
    let out = chc(&["lint", p, "--allow", "L005"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("no lints fired"));
    // An explicit allow survives a blanket --deny warnings.
    let out = chc(&["lint", p, "--deny", "warnings", "--allow", "L005"]);
    assert!(out.status.success());
}

#[test]
fn json_format_parses_and_carries_positions() {
    let path = write_schema("json.sdl", NOOP);
    let out = chc(&["lint", path.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = chc_obs::json::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(parsed.get("tool").and_then(|v| v.as_str()), Some("chc-lint"));
    let findings = parsed.get("findings").and_then(|v| v.as_array()).unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].get("code").and_then(|v| v.as_str()), Some("L005"));
    assert_eq!(findings[0].get("line").and_then(|v| v.as_f64()), Some(3.0));
}

#[test]
fn unknown_lint_code_is_a_usage_error() {
    let path = write_schema("badcode.sdl", CLEAN);
    let out = chc(&["lint", path.to_str().unwrap(), "--deny", "L999"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("L999"));
}

#[test]
fn lint_runs_clean_over_the_shipped_example() {
    // The CI job runs `chc lint --deny warnings` over examples/*.sdl;
    // guard that contract here so it cannot rot silently.
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let out = chc(&["lint", schema.to_str().unwrap(), "--deny", "warnings"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn virtualize_with_broken_schema_exits_nonzero() {
    // An embedded excuse makes `virtualize` produce virtual classes, and
    // the unexcused Resident/Surgeon contradiction survives into the
    // virtualized schema — `HAS ERRORS` must mean a failing exit code.
    let path = write_schema(
        "virt_broken.sdl",
        "
        class Address with city: String; state: {'NJ};
        class Hospital with location: Address;
        class Patient with treatedAt: Hospital;
        class Tubercular_Patient is-a Patient with
            treatedAt: Hospital [
                location: Address [
                    state: None excuses state on Address
                ]
            ];
        class Surgeon with shift: {'Day};
        class Resident is-a Surgeon with shift: {'Night};
        ",
    );
    let out = chc(&["virtualize", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("HAS ERRORS"), "{stdout}");
    assert!(stdout.contains("Resident"), "{stdout}");
}

#[test]
fn virtualize_with_clean_schema_still_exits_zero() {
    let path = write_schema("virt_clean.sdl", CLEAN);
    let out = chc(&["virtualize", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn lint_query_reports_q001_and_q005_with_chq_positions() {
    // The §5.4 acceptance path: the hazardous state query in the shipped
    // batch is flagged with a file:line:col into the .chq, and the
    // analyzer names the guard that would fix it.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let chq = dir.join("hospital_queries.chq");
    let sdl = dir.join("hospital.sdl");
    let out = chc(&["lint", "--query", chq.to_str().unwrap(), sdl.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[Q001]"), "{stdout}");
    assert!(stdout.contains("hospital_queries.chq:22:44"), "{stdout}");
    assert!(stdout.contains("[Q005]"), "{stdout}");
    assert!(stdout.contains("`not in Tubercular_Patient`"), "{stdout}");
    // The guarded variant of the same query draws no warnings at all,
    // only discharged-check notes.
    assert!(!stdout.contains("warning["), "{stdout}");
}

#[test]
fn shipped_query_batches_sweep_clean_under_deny_warnings() {
    // The CI job runs `chc lint --query <batch> <schema> --deny warnings`
    // over every examples/data/*_queries.chq; guard that contract here.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut swept = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let chq = entry.unwrap().path();
        let Some(name) = chq.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix("_queries.chq") else {
            continue;
        };
        let sdl = dir.join(format!("{stem}.sdl"));
        let out = chc(&[
            "lint",
            "--query",
            chq.to_str().unwrap(),
            sdl.to_str().unwrap(),
            "--deny",
            "warnings",
        ]);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        swept += 1;
    }
    assert!(swept >= 2, "expected at least two shipped query batches");
}

#[test]
fn lint_query_accepts_an_ad_hoc_string() {
    let schema = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/data/hospital.sdl");
    let p = schema.to_str().unwrap();
    let q = "for p in Patient emit p.treatedAt.location.state";
    let out = chc(&["lint", p, "--query", q]);
    assert!(out.status.success(), "warnings alone keep exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[Q001]"), "{stdout}");
    assert!(stdout.contains("<query>:1:"), "{stdout}");
    // …but a --deny warnings run fails on it.
    let out = chc(&["lint", p, "--query", q, "--deny", "warnings"]);
    assert!(!out.status.success());
    // Allowing the code suppresses it again.
    let out = chc(&["lint", p, "--query", q, "--deny", "warnings", "--allow", "Q001"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn lint_query_json_unifies_schema_and_query_findings() {
    let schema = write_schema("mixed.sdl", NOOP);
    let out = chc(&[
        "lint",
        schema.to_str().unwrap(),
        "--query",
        "for p in Person emit p.age",
        "--format",
        "json",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = chc_obs::json::parse(stdout.trim()).expect("valid JSON");
    let findings = parsed.get("findings").and_then(|v| v.as_array()).unwrap();
    let kind_of = |f: &chc_obs::json::JsonValue| {
        f.get("kind").and_then(|v| v.as_str()).unwrap().to_string()
    };
    // The L005 schema finding and the Q004 discharged-check note arrive
    // in one report, distinguished by `kind`.
    assert!(findings.iter().any(|f| kind_of(f) == "schema"), "{stdout}");
    assert!(findings.iter().any(|f| kind_of(f) == "query"), "{stdout}");
    for f in findings {
        match kind_of(f).as_str() {
            "schema" => assert!(f.get("file").is_none(), "{stdout}"),
            _ => {
                assert_eq!(f.get("file").and_then(|v| v.as_str()), Some("<query>"));
                assert!(f.get("query").and_then(|v| v.as_f64()).is_some());
            }
        }
    }
}

#[test]
fn lint_query_parse_errors_point_into_the_batch() {
    let schema = write_schema("qparse.sdl", CLEAN);
    let out = chc(&[
        "lint",
        schema.to_str().unwrap(),
        "--query",
        "for p in Nonexistent emit p.treatedBy",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("<query>:1:10"), "{stderr}");
    assert!(stderr.contains("Nonexistent"), "{stderr}");
}

#[test]
fn lint_query_flags_unsafe_paths_and_accepts_guarded_ones() {
    let schema = write_schema(
        "tubercular.sdl",
        "
        class Address with city: String; state: {'NJ};
        class Hospital with location: Address;
        class Patient with treatedAt: Hospital;
        class Tubercular_Patient is-a Patient with
            treatedAt: Hospital [
                location: Address [
                    state: None excuses state on Address
                ]
            ];
        ",
    );
    let p = schema.to_str().unwrap();
    let out = chc(&[
        "lint",
        p,
        "--query",
        "for p in Patient emit p.treatedAt.location.state",
    ]);
    assert!(out.status.success(), "warnings alone keep exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[Q001]"), "{stdout}");
    assert!(stdout.contains("may be absent"), "{stdout}");

    let guarded =
        "for p in Patient where p not in Tubercular_Patient emit p.treatedAt.location.state";
    let out = chc(&["lint", p, "--query", guarded, "--deny", "warnings"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("Q001"));
}

#[test]
fn lint_query_fails_ill_typed_queries_under_deny_warnings() {
    let schema = write_schema("illtyped.sdl", CLEAN);
    let p = schema.to_str().unwrap();
    let q = "for p in Physician emit p.treatedBy";
    let out = chc(&["lint", p, "--query", q, "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[Q001]: type error"), "{stdout}");
}
