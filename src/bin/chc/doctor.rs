//! `chc doctor`: a `chc-crash/1` report, rendered human-readably.

use std::process::ExitCode;

use excuses::workloads::driver::fmt_bytes;

use crate::args::Args;
use crate::{format_ns_cli, read_file};

/// `chc doctor <crash.json>`: render a `chc-crash/1` report (written by
/// the panic hook or the `--watchdog` stall detector) human-readably.
/// The rendering is the command's *output*, so unlike the per-command
/// summaries it goes to stdout.
pub fn run(a: &Args) -> Result<ExitCode, String> {
    let path = a.pos(0).ok_or("usage: chc doctor <crash.json>")?;
    let text = read_file(path)?;
    let doc = chc_obs::json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some("chc-crash/1") => {}
        Some(other) => {
            return Err(format!(
                "{path}: unsupported schema `{other}` (want chc-crash/1)"
            ))
        }
        None => return Err(format!("{path}: missing `schema` tag (want chc-crash/1)")),
    }
    print!("{}", render_crash_report(&doc));
    Ok(ExitCode::SUCCESS)
}

/// The human-readable rendering behind `chc doctor`.
fn render_crash_report(doc: &chc_obs::json::JsonValue) -> String {
    use chc_obs::json::JsonValue;
    use std::fmt::Write as _;

    let str_of = |v: Option<&JsonValue>| v.and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let num_of = |v: Option<&JsonValue>| v.and_then(|v| v.as_f64()).unwrap_or(0.0);
    let mut out = String::new();

    let reason = str_of(doc.get("reason"));
    let _ = writeln!(out, "chc crash report ({reason})");
    let _ = writeln!(out, "  message: {}", str_of(doc.get("message")));
    let _ = writeln!(
        out,
        "  pid {} after {}",
        num_of(doc.get("pid")) as u64,
        format_ns_cli((num_of(doc.get("uptime_us")) as u64).saturating_mul(1_000)),
    );

    if let Some(JsonValue::Obj(ctx)) = doc.get("context") {
        if !ctx.is_empty() {
            let _ = writeln!(out, "\ncontext:");
            for (k, v) in ctx {
                let _ = writeln!(out, "  {:<14} {}", k, v.as_str().unwrap_or("?"));
            }
        }
    }

    if let Some(mem) = doc.get("mem") {
        let installed = num_of(mem.get("installed")) as u64 == 1;
        if installed {
            let _ = writeln!(
                out,
                "\nmemory: {} allocated over {} allocs; live {} ({} allocs), peak {}",
                fmt_bytes(num_of(mem.get("bytes_total")) as u64),
                num_of(mem.get("allocs")) as u64,
                fmt_bytes(num_of(mem.get("bytes_live")) as u64),
                (num_of(mem.get("allocs")) as u64).saturating_sub(num_of(mem.get("frees")) as u64),
                fmt_bytes(num_of(mem.get("bytes_peak")) as u64),
            );
        } else {
            let _ = writeln!(
                out,
                "\nmemory: tracking allocator not installed in this binary"
            );
        }
    }

    if let Some(JsonValue::Obj(counters)) = doc.get("counters") {
        if !counters.is_empty() {
            let mut rows: Vec<(&str, u64)> = counters
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_f64().unwrap_or(0.0) as u64))
                .collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let shown = rows.len().min(20);
            let _ = writeln!(out, "\ncounters (top {shown} of {}):", rows.len());
            for (name, value) in rows.iter().take(shown) {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
    }

    let _ = writeln!(out, "\nopen spans at time of death:");
    let threads = doc.get("threads").and_then(|v| v.as_array()).unwrap_or(&[]);
    if threads.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for t in threads {
        let stack: Vec<&str> = t
            .get("stack")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  thread {}: {}",
            num_of(t.get("thread")) as u64,
            if stack.is_empty() {
                "(idle)".to_string()
            } else {
                stack.join(" > ")
            },
        );
    }

    let flight = doc.get("flight").and_then(|v| v.as_array()).unwrap_or(&[]);
    let dropped = num_of(doc.get("flight_dropped")) as u64;
    let shown = flight.len().min(40);
    let skipped = flight.len() - shown;
    let _ = write!(
        out,
        "\nflight tail (last {shown} of {} recorded",
        flight.len()
    );
    if dropped > 0 {
        let _ = write!(out, ", {dropped} older dropped from ring");
    }
    let _ = writeln!(out, "):");
    if skipped > 0 {
        let _ = writeln!(
            out,
            "  … {skipped} earlier entr(ies) elided; read the JSON for all"
        );
    }
    for e in flight.iter().skip(skipped) {
        let kind = str_of(e.get("kind"));
        let value = num_of(e.get("value")) as u64;
        let suffix = match kind.as_str() {
            "exit" => format!(" ({})", format_ns_cli(value)),
            "counter" => format!(" +{value}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  [{:>8}] t+{:<10} thread {} {:<7} {}{}",
            num_of(e.get("seq")) as u64,
            format_ns_cli((num_of(e.get("t_us")) as u64).saturating_mul(1_000)),
            num_of(e.get("thread")) as u64,
            kind,
            str_of(e.get("name")),
            suffix,
        );
    }
    out
}
