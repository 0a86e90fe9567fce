//! Structured audit events and the audit view.
//!
//! Counters and spans answer *how much* and *when*. Events answer *who
//! and why*: each [`Event`] is a named, leveled record with key-value
//! fields, built for the §6 requirement that exceptional information
//! stay "explicitly marked and retrievable" — e.g. one record per
//! run-time constraint check naming the object, the verdict, and the
//! excuse that admitted a deviation.
//!
//! Events flow through the same [`crate::Recorder`] plumbing as counters
//! and spans. A [`Journal`] built with [`Journal::with_events`] keeps
//! them in its rings, and the audit view reads them back as JSON lines
//! via [`crate::json`].
//!
//! ```
//! use std::sync::Arc;
//! use chc_obs::{self as obs, Event, EventLevel, Journal};
//!
//! let journal = Arc::new(Journal::with_events(obs::journal::AUDIT_CAPACITY));
//! {
//!     let _scope = obs::scoped(journal.clone());
//!     obs::event_with(|| {
//!         Event::new(EventLevel::Audit, "demo.check")
//!             .field("object", 7u64)
//!             .field("verdict", "excused")
//!     });
//! }
//! assert_eq!(journal.audit_events().0.len(), 1);
//! assert!(journal.to_audit_json_lines().contains("\"verdict\":\"excused\""));
//! ```

use std::sync::Arc;

use crate::journal::{EntryKind, Journal, AUDIT_CAPACITY};
use crate::json::JsonValue;

/// How important a structured event is. Ordered: `Info < Audit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventLevel {
    /// Notable milestones of a run (a file loaded, a phase finished).
    Info,
    /// Ledger records that must survive for after-the-fact review — one
    /// per decision the reasoner made about user data.
    Audit,
}

impl EventLevel {
    /// The lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            EventLevel::Info => "info",
            EventLevel::Audit => "audit",
        }
    }
}

/// One field value of a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string payload (names are resolved by the emitter; sinks never
    /// see interned symbols).
    Str(String),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (object surrogates, counts).
    UInt(u64),
}

impl FieldValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a JSON number/string.
    fn to_json(&self) -> JsonValue {
        match self {
            FieldValue::Str(s) => JsonValue::string(s),
            FieldValue::Int(i) => JsonValue::number(*i as f64),
            FieldValue::UInt(u) => JsonValue::number(*u as f64),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<i64> for FieldValue {
    fn from(i: i64) -> Self {
        FieldValue::Int(i)
    }
}

impl From<u64> for FieldValue {
    fn from(u: u64) -> Self {
        FieldValue::UInt(u)
    }
}

/// A structured, leveled event: a name plus ordered key-value fields.
///
/// The keys `event`, `level`, and `seq` are reserved for the envelope
/// written by [`Journal::to_audit_json_lines`]; field keys must not
/// collide with them.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Importance of the event.
    pub level: EventLevel,
    /// The event name, from the [`crate::names`] registry.
    pub name: &'static str,
    /// Key-value payload, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// A new event with no fields yet.
    pub fn new(level: EventLevel, name: &'static str) -> Self {
        Event {
            level,
            name,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        debug_assert!(
            !matches!(key, "event" | "level" | "seq"),
            "field key `{key}` collides with the JSON envelope"
        );
        self.fields.push((key, value.into()));
        self
    }

    /// Looks up a field by key (first match wins).
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// This event as one flat JSON object: `{"event": name, "level":
    /// label, ...fields}`. `seq` is added by the recorder, which owns
    /// the ordering.
    pub fn to_json(&self) -> JsonValue {
        let mut out: Vec<(&str, JsonValue)> = vec![
            ("event", JsonValue::string(self.name)),
            ("level", JsonValue::string(self.level.label())),
        ];
        for (k, v) in &self.fields {
            out.push((k, v.to_json()));
        }
        JsonValue::object(out)
    }
}

impl Journal {
    /// The audit view: the retained events with their journal-wide
    /// ordinals, oldest first, and the number of events not retained.
    /// It keeps at most [`AUDIT_CAPACITY`] of the newest events the rings
    /// still hold; evicted span entries do not count as dropped. Events
    /// are retained only by a journal built with [`Journal::with_events`].
    pub fn audit_events(&self) -> (Vec<(u64, Arc<Event>)>, u64) {
        let mut events: Vec<(u64, Arc<Event>)> = self
            .entries()
            .into_iter()
            .filter_map(|e| match e.kind {
                EntryKind::Event {
                    ordinal,
                    payload: Some(event),
                } => Some((ordinal, event)),
                _ => None,
            })
            .collect();
        events.sort_by_key(|(ordinal, _)| *ordinal);
        events.drain(..events.len().saturating_sub(AUDIT_CAPACITY));
        let dropped = self.events_recorded() - events.len() as u64;
        (events, dropped)
    }

    /// The audit ledger as line-delimited JSON (one event per line, each
    /// with its ordinal as `seq`), ending with an `audit.dropped` marker
    /// line when events were evicted, so truncation is never silent.
    pub fn to_audit_json_lines(&self) -> String {
        let (events, dropped) = self.audit_events();
        let mut out = String::new();
        for (seq, event) in &events {
            let mut obj = event.to_json();
            if let JsonValue::Obj(m) = &mut obj {
                m.insert("seq".to_string(), JsonValue::number(*seq as f64));
            }
            out.push_str(&obj.render());
            out.push('\n');
        }
        if dropped > 0 {
            let marker = JsonValue::object([
                ("event", JsonValue::string("audit.dropped")),
                ("level", JsonValue::string(EventLevel::Audit.label())),
                ("count", JsonValue::number(dropped as f64)),
            ]);
            out.push_str(&marker.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Recorder};

    fn ev(level: EventLevel, name: &'static str) -> Event {
        Event::new(level, name).field("k", "v").field("n", 3u64)
    }

    fn names(journal: &Journal) -> Vec<&'static str> {
        journal
            .audit_events()
            .0
            .iter()
            .map(|(_, e)| e.name)
            .collect()
    }

    #[test]
    fn events_render_as_flat_json_with_seq() {
        let audit = Journal::with_events(AUDIT_CAPACITY);
        audit.event(&ev(EventLevel::Audit, "t.one"));
        audit.event(&ev(EventLevel::Audit, "t.two"));
        let lines = json::parse_lines(&audit.to_audit_json_lines()).expect("own output parses");
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].get("event").and_then(|v| v.as_str()),
            Some("t.one")
        );
        assert_eq!(
            lines[0].get("level").and_then(|v| v.as_str()),
            Some("audit")
        );
        assert_eq!(lines[0].get("k").and_then(|v| v.as_str()), Some("v"));
        assert_eq!(lines[0].get("n").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(lines[0].get("seq").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(lines[1].get("seq").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn info_and_audit_levels_are_both_kept() {
        let audit = Journal::with_events(AUDIT_CAPACITY);
        audit.event(&ev(EventLevel::Info, "t.info"));
        audit.event(&ev(EventLevel::Audit, "t.audit"));
        assert_eq!(names(&audit), ["t.info", "t.audit"]);
        assert!(EventLevel::Info < EventLevel::Audit);
    }

    #[test]
    fn ring_is_bounded_and_truncation_is_marked() {
        let audit = Journal::with_events(2);
        for name in ["t.a", "t.b", "t.c"] {
            audit.event(&ev(EventLevel::Audit, name));
        }
        assert_eq!(names(&audit), ["t.b", "t.c"], "oldest evicted first");
        assert_eq!(audit.audit_events().1, 1);
        let lines = json::parse_lines(&audit.to_audit_json_lines()).unwrap();
        let last = lines.last().unwrap();
        assert_eq!(
            last.get("event").and_then(|v| v.as_str()),
            Some("audit.dropped")
        );
        assert_eq!(last.get("count").and_then(|v| v.as_f64()), Some(1.0));
        // Sequence numbers keep counting across evictions.
        assert_eq!(lines[0].get("seq").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn evicted_spans_do_not_count_as_dropped_events() {
        let audit = Journal::with_events(3);
        audit.event(&ev(EventLevel::Audit, "t.kept"));
        for _ in 0..4 {
            audit.span_enter("t.span");
            audit.span_exit("t.span", 1);
        }
        audit.event(&ev(EventLevel::Audit, "t.last"));
        assert_eq!(names(&audit), ["t.last"]);
        assert_eq!(
            audit.audit_events().1,
            1,
            "one event evicted, spans not counted"
        );
    }

    #[test]
    fn a_journal_without_events_keeps_no_payloads() {
        let journal = Journal::default();
        journal.event(&ev(EventLevel::Audit, "t.name_only"));
        assert!(journal.audit_events().0.is_empty());
        assert_eq!(journal.entries()[0].name, "t.name_only");
    }

    #[test]
    fn emission_flows_through_the_scoped_recorder_plumbing() {
        let audit = Arc::new(Journal::with_events(AUDIT_CAPACITY));
        {
            let _g = crate::scoped(audit.clone());
            crate::event_with(|| Event::new(EventLevel::Audit, "t.scoped").field("x", 1i64));
        }
        crate::event_with(|| Event::new(EventLevel::Audit, "t.after"));
        let (events, _) = audit.audit_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1.get("x"), Some(&FieldValue::Int(1)));
    }

    #[test]
    fn fanout_forwards_events() {
        let a = Arc::new(Journal::with_events(AUDIT_CAPACITY));
        let b = Arc::new(Journal::with_events(AUDIT_CAPACITY));
        let fan = crate::FanoutRecorder::new(vec![
            a.clone() as Arc<dyn Recorder>,
            b.clone() as Arc<dyn Recorder>,
        ]);
        fan.event(&ev(EventLevel::Audit, "t.fan"));
        assert_eq!(a.audit_events().0.len(), 1);
        assert_eq!(b.audit_events().0.len(), 1);
    }
}
