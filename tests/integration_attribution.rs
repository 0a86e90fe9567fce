//! Attribution work is gated on a recorder that consumes it.
//!
//! The checker's labeled calls and `distinct()` hashing feed
//! `StatsRecorder` and `ProfileRecorder` only. With nothing installed that
//! consumes them (the journal `chc` always installs consumes none), the
//! instrumented sites must skip them; with a consumer installed, the
//! duplicate-work counters must come out exactly as before.

use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chc_obs::json::JsonValue;

const FIXTURE: &str = "crates/workloads/fixtures/evolve400-new.sdl";

/// Counts the calls each recorder method receives.
#[derive(Default)]
struct Counting {
    attributing: bool,
    counters: AtomicU64,
    labeled: AtomicU64,
    distinct: AtomicU64,
}

impl chc_obs::Recorder for Counting {
    fn counter(&self, _: &'static str, _: u64) {
        self.counters.fetch_add(1, Ordering::Relaxed);
    }
    fn histogram(&self, _: &'static str, _: u64) {}
    fn span_enter(&self, _: &'static str) {}
    fn span_exit(&self, _: &'static str, _: u64) {}
    fn labeled_counter(&self, _: &'static str, _: u64, _: u64) {
        self.labeled.fetch_add(1, Ordering::Relaxed);
    }
    fn labeled_histogram(&self, _: &'static str, _: u64, _: u64) {
        self.labeled.fetch_add(1, Ordering::Relaxed);
    }
    fn distinct(&self, _: &'static str, _: u64) {
        self.distinct.fetch_add(1, Ordering::Relaxed);
    }
    fn attributing(&self) -> bool {
        self.attributing
    }
}

fn check_under(attributing: bool) -> Arc<Counting> {
    let src = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let schema = excuses::sdl::compile(&src).expect("fixture compiles");
    let rec = Arc::new(Counting {
        attributing,
        ..Counting::default()
    });
    {
        let _scope = chc_obs::scoped(rec.clone());
        let _ = excuses::core::check(&schema);
    }
    rec
}

#[test]
fn a_recorder_without_attribution_sees_no_attribution_calls() {
    let plain = check_under(false);
    assert!(plain.counters.load(Ordering::Relaxed) > 0, "check ran");
    assert_eq!(plain.distinct.load(Ordering::Relaxed), 0);
    assert_eq!(plain.labeled.load(Ordering::Relaxed), 0);

    // The same check under a consumer does the attribution work.
    let consumer = check_under(true);
    assert!(consumer.distinct.load(Ordering::Relaxed) > 0);
    assert!(consumer.labeled.load(Ordering::Relaxed) > 0);
}

#[test]
fn stats_out_keeps_the_duplicate_work_counters() {
    let dir = std::env::temp_dir().join(format!("chc-attribution-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = dir.join("stats.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_chc"))
        .args(["--stats-out", stats.to_str().unwrap(), "check", FIXTURE])
        .output()
        .expect("chc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = chc_obs::json::parse_lines(&std::fs::read_to_string(&stats).unwrap())
        .expect("stats snapshot is JSONL");
    let value = |name: &str| {
        lines
            .iter()
            .find(|l| l.get("name").and_then(JsonValue::as_str) == Some(name))
            .and_then(|l| l.get("value").and_then(JsonValue::as_f64))
    };
    assert_eq!(value("subtype.queries"), Some(58375.0));
    assert_eq!(value("subtype.queries.distinct"), Some(7552.0));
    assert_eq!(value("sat.calls"), Some(113.0));
    assert_eq!(value("sat.calls.distinct"), Some(113.0));
}
