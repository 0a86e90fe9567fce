//! The crash view: the journal's recent history as a `chc-crash/1`
//! document, plus the writer and stall watchdog that dump it.
//!
//! [`crash_report`] renders the newest [`CRASH_TAIL`] journal entries
//! across threads (span enters, span exits and events), the open-span
//! stacks per thread, the counter totals, the [`crate::memalloc`]
//! snapshot, and whatever key/value context the host registered via
//! [`set_context`] (schema digest, build info, argv). Counter bumps are
//! not tail entries: they are summed in the `counters` object. Reports
//! written before the journal carried `counter` entries in the tail;
//! `chc doctor` still renders them.
//!
//! [`CrashWriter`] renders and writes the report round-trip-checked, at
//! most once per process, from either:
//!
//! * a panic hook (the host wires [`CrashWriter::dump`] into
//!   `std::panic::set_hook`), or
//! * a [`Watchdog`]: a background ticker that declares a stall when the
//!   journal's activity count stops advancing while spans are still
//!   open, and dumps the same report with `"reason":"stall"`.
//!
//! `chc doctor` renders the resulting file human-readably.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::journal::{lock, EntryKind, Journal, Ticker, CRASH_TAIL};
use crate::json::{self, JsonValue};
use crate::memalloc;

// --- crash-report context -------------------------------------------

static CONTEXT: Mutex<BTreeMap<String, String>> = Mutex::new(BTreeMap::new());

/// Registers a key/value pair (schema digest, build info, argv, …) to
/// be embedded in any crash report this process writes. Later writes
/// to the same key replace the value.
pub fn set_context(key: &str, value: &str) {
    lock(&CONTEXT).insert(key.to_string(), value.to_string());
}

/// The registered crash context, sorted by key.
pub fn context() -> Vec<(String, String)> {
    lock(&CONTEXT)
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

// --- chc-crash/1 ----------------------------------------------------

/// Builds a `chc-crash/1` document from the journal's current state.
/// `reason` is `"panic"` or `"stall"`; `message` is the panic payload or
/// a stall description.
pub fn crash_report(reason: &str, message: &str, journal: &Journal) -> JsonValue {
    let mem = memalloc::snapshot();
    let threads = journal
        .stacks()
        .into_iter()
        .enumerate()
        .filter(|(_, stack)| !stack.is_empty())
        .map(|(idx, stack)| {
            JsonValue::object([
                ("thread", JsonValue::number(idx as f64)),
                (
                    "stack",
                    JsonValue::array(stack.into_iter().map(JsonValue::string)),
                ),
            ])
        });
    let mut tail = journal.entries();
    tail.drain(..tail.len().saturating_sub(CRASH_TAIL));
    let dropped = journal.recorded() - tail.len() as u64;
    let tail = tail.into_iter().map(|e| {
        let value = match e.kind {
            EntryKind::Exit { nanos, .. } => nanos,
            _ => 0,
        };
        JsonValue::object([
            ("seq", JsonValue::number(e.seq as f64)),
            ("t_us", JsonValue::number((e.nanos / 1_000) as f64)),
            ("thread", JsonValue::number(e.thread as f64)),
            ("kind", JsonValue::string(e.kind.label())),
            ("name", JsonValue::string(e.name)),
            ("value", JsonValue::number(value as f64)),
        ])
    });
    let counters = journal
        .counters()
        .into_iter()
        .map(|(name, value)| (name, JsonValue::number(value as f64)));
    let ctx = context();
    JsonValue::object([
        ("schema", JsonValue::string("chc-crash/1")),
        ("reason", JsonValue::string(reason)),
        ("message", JsonValue::string(message)),
        ("pid", JsonValue::number(f64::from(std::process::id()))),
        (
            "uptime_us",
            JsonValue::number(journal.elapsed().as_micros() as f64),
        ),
        (
            "context",
            JsonValue::object(ctx.iter().map(|(k, v)| (k.as_str(), JsonValue::string(v)))),
        ),
        (
            "mem",
            JsonValue::object([
                (
                    "installed",
                    JsonValue::number(f64::from(u8::from(memalloc::installed()))),
                ),
                ("allocs", JsonValue::number(mem.allocs as f64)),
                ("frees", JsonValue::number(mem.frees as f64)),
                ("bytes_total", JsonValue::number(mem.bytes_total as f64)),
                ("bytes_live", JsonValue::number(mem.bytes_live as f64)),
                ("bytes_peak", JsonValue::number(mem.bytes_peak as f64)),
            ]),
        ),
        ("counters", JsonValue::object(counters)),
        ("threads", JsonValue::array(threads)),
        ("flight", JsonValue::array(tail)),
        ("flight_dropped", JsonValue::number(dropped as f64)),
    ])
}

/// Writes a crash report at most once per process: shared by the
/// panic hook and the [`Watchdog`] so whichever fires first wins.
pub struct CrashWriter {
    journal: Arc<Journal>,
    path: Option<PathBuf>,
    written: AtomicBool,
}

impl CrashWriter {
    /// A writer dumping to `path` (`None` = diagnostics-only host:
    /// [`CrashWriter::dump`] becomes a no-op returning `None`).
    pub fn new(journal: Arc<Journal>, path: Option<PathBuf>) -> Self {
        CrashWriter {
            journal,
            path,
            written: AtomicBool::new(false),
        }
    }

    /// The journal this writer reports on.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The destination, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Builds, round-trip-checks, and writes the `chc-crash/1` report.
    /// Only the first call writes; later calls (second panic, watchdog
    /// racing the panic hook) return `None`.
    pub fn dump(&self, reason: &str, message: &str) -> Option<io::Result<PathBuf>> {
        let path = self.path.as_ref()?;
        if self.written.swap(true, Ordering::SeqCst) {
            return None;
        }
        let rendered = crash_report(reason, message, &self.journal).render();
        if let Err(err) = json::parse(&rendered) {
            return Some(Err(io::Error::other(format!(
                "chc-crash/1 report failed its round-trip check: {err}"
            ))));
        }
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(err) = std::fs::create_dir_all(parent) {
                    return Some(Err(err));
                }
            }
        }
        Some(std::fs::write(path, rendered).map(|()| path.clone()))
    }
}

// --- stall watchdog -------------------------------------------------

/// A background ticker that dumps a `"reason":"stall"` crash report
/// when the journal's activity count stops advancing for `timeout`
/// while spans are still open. Stop it with [`Watchdog::stop`]; dropping
/// the handle stops it too.
pub struct Watchdog {
    ticker: Ticker,
}

impl Watchdog {
    /// Starts the watchdog. `timeout` is clamped to at least 10 ms.
    pub fn start(writer: Arc<CrashWriter>, timeout: Duration) -> Watchdog {
        let timeout = timeout.max(Duration::from_millis(10));
        let tick = (timeout / 4).max(Duration::from_millis(5));
        let mut last_activity = writer.journal().activity();
        let mut last_change = Instant::now();
        let ticker = Ticker::start("chc-watchdog", tick, move || {
            let journal = writer.journal();
            let activity = journal.activity();
            if activity != last_activity {
                last_activity = activity;
                last_change = Instant::now();
                return true;
            }
            let working = journal.stacks().iter().any(|stack| !stack.is_empty());
            if last_change.elapsed() < timeout || !working {
                return true;
            }
            let message = format!(
                "no journal activity for {:.1}s with spans still open",
                last_change.elapsed().as_secs_f64()
            );
            if let Some(Ok(path)) = writer.dump("stall", &message) {
                eprintln!("chc: watchdog stall report written to {}", path.display());
            }
            false
        });
        Watchdog { ticker }
    }

    /// Signals the thread to exit and joins it.
    pub fn stop(&mut self) {
        self.ticker.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Recorder};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("chc-obs-crash-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn crash_report_round_trips_with_tail_and_stacks() {
        let journal = Journal::default();
        journal.span_enter("cli.load");
        journal.counter("load.ops", 3);
        journal.event(&Event::new(crate::EventLevel::Audit, "t.event"));
        set_context("schema_digest", "deadbeef");
        let doc = crash_report("panic", "boom", &journal);
        let parsed = json::parse(&doc.render()).expect("chc-crash/1 round-trips");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("chc-crash/1")
        );
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("panic"));
        let threads = parsed.get("threads").and_then(|v| v.as_array()).unwrap();
        assert_eq!(threads.len(), 1);
        let stack = threads[0].get("stack").and_then(|v| v.as_array()).unwrap();
        assert_eq!(stack[0].as_str(), Some("cli.load"));
        let tail = parsed.get("flight").and_then(|v| v.as_array()).unwrap();
        let kinds: Vec<&str> = tail
            .iter()
            .filter_map(|e| e.get("kind").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(
            kinds,
            ["enter", "event"],
            "counter bumps stay out of the tail"
        );
        assert!(parsed
            .get("context")
            .and_then(|c| c.get("schema_digest"))
            .is_some());
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("load.ops"))
                .and_then(|v| v.as_f64()),
            Some(3.0)
        );
        assert!(parsed
            .get("mem")
            .and_then(|m| m.get("bytes_peak"))
            .is_some());
    }

    #[test]
    fn crash_tail_keeps_the_newest_entries() {
        let journal = Journal::new(2 * CRASH_TAIL);
        for _ in 0..CRASH_TAIL {
            journal.span_enter("t.step");
            journal.span_exit("t.step", 1);
        }
        let doc = crash_report("panic", "boom", &journal);
        let tail = doc.get("flight").and_then(|v| v.as_array()).unwrap();
        assert_eq!(tail.len(), CRASH_TAIL);
        let first = tail[0].get("seq").and_then(|v| v.as_f64());
        assert_eq!(first, Some(CRASH_TAIL as f64), "oldest emitted entry");
        assert_eq!(
            doc.get("flight_dropped").and_then(|v| v.as_f64()),
            Some(CRASH_TAIL as f64)
        );
    }

    #[test]
    fn crash_writer_writes_once() {
        let journal = Arc::new(Journal::default());
        journal.span_enter("t.span");
        let path = tmp("crash-once.json");
        let _ = std::fs::remove_file(&path);
        let writer = CrashWriter::new(journal, Some(path.clone()));
        let first = writer.dump("panic", "first").expect("first dump runs");
        assert_eq!(first.expect("write ok"), path);
        assert!(
            writer.dump("stall", "second").is_none(),
            "second dump suppressed"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("message").and_then(|v| v.as_str()),
            Some("first")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_writer_without_destination_is_a_no_op() {
        let writer = CrashWriter::new(Arc::new(Journal::default()), None);
        assert!(writer.dump("panic", "boom").is_none());
    }

    #[test]
    fn watchdog_dumps_a_stall_report_when_activity_stops() {
        let journal = Arc::new(Journal::default());
        journal.span_enter("t.stalled");
        let path = tmp("stall.json");
        let _ = std::fs::remove_file(&path);
        let writer = Arc::new(CrashWriter::new(journal, Some(path.clone())));
        let mut dog = Watchdog::start(writer, Duration::from_millis(40));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !path.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        dog.stop();
        let body = std::fs::read_to_string(&path).expect("stall report written");
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("reason").and_then(|v| v.as_str()), Some("stall"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watchdog_stays_quiet_while_activity_continues() {
        let flight = Arc::new(Journal::default());
        flight.span_enter("t.busy");
        let path = tmp("no-stall.json");
        let _ = std::fs::remove_file(&path);
        let writer = Arc::new(CrashWriter::new(flight.clone(), Some(path.clone())));
        let mut dog = Watchdog::start(writer, Duration::from_millis(60));
        for _ in 0..12 {
            flight.counter("t.tick", 1);
            std::thread::sleep(Duration::from_millis(10));
        }
        dog.stop();
        assert!(!path.exists(), "no stall report while the seq advances");
    }
}
