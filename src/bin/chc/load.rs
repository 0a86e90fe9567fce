//! `chc load`: a mixed validate/query/insert/evolve load against a
//! schema, with latency percentiles per op type.

use std::process::ExitCode;
use std::time::Duration;

use excuses::core::{MissingPolicy, Semantics, ValidationOptions};
use excuses::workloads::{
    generate, run_load, HierarchyParams, LibraryTarget, LoadConfig, MixSpec, Mode, StopRule,
    TargetOptions,
};

use crate::args::{duration, number, Args};
use crate::{format_ns_cli, open_schemas, open_store, refuse_errors};

/// Parses `--hier classes=60,supers=2,attrs=8,tokens=8,redefine=0.4,contradict=0.3,seed=7`;
/// omitted keys keep the [`HierarchyParams`] defaults. The generator
/// needs at least one superclass slot and one enumeration token.
pub fn parse_hier_spec(spec: &str) -> Result<HierarchyParams, String> {
    let mut p = HierarchyParams::default();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--hier entry `{part}` is not `key=value`"))?;
        let value = value.trim();
        let int = || {
            value
                .parse::<usize>()
                .map_err(|e| format!("--hier {key}={value}: {e}"))
        };
        let positive = || match int()? {
            0 => Err(format!("--hier {key}={value}: must be at least 1")),
            n => Ok(n),
        };
        let float = || {
            value
                .parse::<f64>()
                .map_err(|e| format!("--hier {key}={value}: {e}"))
        };
        match key.trim() {
            "classes" => p.classes = int()?,
            "supers" => p.max_supers = positive()?,
            "attrs" => p.attrs = int()?,
            "tokens" => p.tokens = positive()?,
            "redefine" => p.redefine_rate = float()?,
            "contradict" => p.contradiction_rate = float()?,
            "seed" => p.seed = value.parse().map_err(|e| format!("--hier seed={value}: {e}"))?,
            other => {
                return Err(format!(
                    "unknown --hier key `{other}` (classes|supers|attrs|tokens|redefine|contradict|seed)"
                ))
            }
        }
    }
    Ok(p)
}

/// `chc load <schema.sdl> [data.chd]` or `chc load --hier …`: run the
/// mix and report on stderr, to `$CHC_BENCH_JSON` and to `--report`.
pub fn run(a: &Args) -> Result<ExitCode, String> {
    let mut mix = MixSpec::default();
    let mut threads = 1;
    let mut stop = StopRule::Duration(Duration::from_secs(2));
    let mut open = false;
    let mut rate: f64 = 1_000.0;
    let mut think = Duration::ZERO;
    let mut seed = 0xC_10AD;
    let mut epsilon = 0.05;
    let mut populate = 20;
    let mut window = Duration::ZERO;
    let mut hier = None;
    // In argv order: `--rate` switches the mode to open, and the last
    // of `--duration`/`--ops` sets the stop rule.
    for (flag, value) in a.values() {
        match flag {
            "--mix" => mix = MixSpec::parse(value)?,
            "--threads" => threads = number(flag, value)?,
            "--duration" => stop = StopRule::Duration(duration(flag, value)?),
            "--ops" => stop = StopRule::Ops(number(flag, value)?),
            "--mode" => {
                open = match value {
                    "closed" => false,
                    "open" => true,
                    other => return Err(format!("--mode needs `closed` or `open`, got `{other}`")),
                }
            }
            "--rate" => {
                rate = number(flag, value)?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!(
                        "--rate must be a finite number above 0, got {value}"
                    ));
                }
                open = true;
            }
            "--think" => think = duration(flag, value)?,
            "--seed" => seed = number(flag, value)?,
            "--epsilon" => {
                epsilon = number(flag, value)?;
                if !(0.0..=1.0).contains(&epsilon) {
                    return Err(format!("--epsilon must be in [0, 1], got {epsilon}"));
                }
            }
            "--populate" => populate = number(flag, value)?,
            "--window" => window = duration(flag, value)?,
            "--hier" => hier = Some(parse_hier_spec(value)?),
            _ => {}
        }
    }

    // Schema: a generated hierarchy (`--hier`) or a compiled .sdl file.
    let (schema, default_id) = match (&hier, a.pos(0)) {
        (Some(params), _) => (generate(params).schema, "hier".to_string()),
        (None, Some(path)) => {
            let [file] = open_schemas([path])?;
            refuse_errors(&file.schema, "load-testing", true)?;
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("load")
                .to_string();
            (file.schema, stem)
        }
        (None, None) => return Err("load needs a schema file or --hier".to_string()),
    };

    // Target: load a data file if given, else populate synthetically.
    let opts = |missing: MissingPolicy| TargetOptions {
        epsilon,
        validation: ValidationOptions {
            semantics: Semantics::Correct,
            missing,
        },
        ..TargetOptions::default()
    };
    let target = match a.pos(1) {
        Some(data_path) => {
            let (v, data) = open_store(&schema, data_path)?;
            let objects: Vec<_> = data.names.iter().map(|(_, oid)| *oid).collect();
            // Source-file objects carry exactly the attributes the file
            // declares, so missing values are violations (as in
            // `chc validate`); populated objects below are always total.
            LibraryTarget::new(v, data.store, objects, opts(MissingPolicy::Absent))
        }
        None => LibraryTarget::from_schema(&schema, populate, seed, opts(MissingPolicy::Vacuous))?,
    };

    let cfg = LoadConfig {
        id: a.value("--id").map_or(default_id, String::from),
        mix,
        mode: if open {
            Mode::Open { threads, rate }
        } else {
            Mode::Closed { threads, think }
        },
        stop,
        seed,
        window,
        ..LoadConfig::default()
    };
    let summary = run_load(&target, &cfg);

    // Accounting to stderr (the `chc query` convention), a one-line
    // result to stdout, JSON lines to $CHC_BENCH_JSON, HTML to --report.
    eprint!("{}", summary.render_text());
    if let Ok(path) = std::env::var("CHC_BENCH_JSON") {
        if !path.is_empty() {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("CHC_BENCH_JSON={path}: {e}"))?;
            f.write_all(summary.to_bench_lines().as_bytes())
                .map_err(|e| format!("CHC_BENCH_JSON={path}: {e}"))?;
        }
    }
    let report = a.value("--report");
    if let Some(path) = report {
        std::fs::write(
            path,
            excuses::workloads::driver::report::render_html(&summary),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "load: {} ops in {:.2}s ({:.0} ops/s), p95 {} — {}",
        summary.total_ops,
        summary.elapsed.as_secs_f64(),
        summary.throughput(),
        format_ns_cli(summary.overall.p95),
        match report {
            Some(p) => format!("report written to {p}"),
            None => "no report file (--report <out.html>)".to_string(),
        }
    );
    Ok(ExitCode::SUCCESS)
}
