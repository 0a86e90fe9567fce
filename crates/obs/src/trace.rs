//! The trace view: the journal's span timeline as standard profiler
//! inputs.
//!
//! * [`Journal::to_chrome_trace`]: Chrome trace-event JSON (the
//!   `{"traceEvents":[...]}` object format), loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * [`Journal::to_folded_stacks`]: Brendan Gregg's folded-stack format
//!   (`a;b;c <self-nanos>` per line) for `flamegraph.pl` and compatible
//!   tools.
//!
//! Both read the newest [`TRACE_CAPACITY`] span entries of the journal's
//! rings. The counter and histogram deltas that fired while a span was
//! innermost ride on its end event.

use std::collections::{BTreeMap, HashMap};

use crate::journal::{merge, Entry, EntryKind, Journal, TRACE_CAPACITY};
use crate::json::JsonValue;

impl Journal {
    /// The retained span entries, oldest first, at most [`TRACE_CAPACITY`].
    fn span_entries(&self) -> Vec<Entry> {
        let mut spans: Vec<Entry> = self
            .entries()
            .into_iter()
            .filter(|e| !matches!(e.kind, EntryKind::Event { .. }))
            .collect();
        spans.drain(..spans.len().saturating_sub(TRACE_CAPACITY));
        spans
    }

    /// Chrome trace-event JSON (object format): `{"traceEvents":[...],
    /// "displayTimeUnit":"ns"}`. Timestamps are microseconds (the
    /// format's unit), as fractional values, relative to journal
    /// creation. Spans still open at export time appear as `B` events
    /// without a matching `E`: Perfetto renders them as running to the
    /// end of the trace, which is exactly right for a run that failed
    /// mid-span.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.span_entries();
        let mut events: Vec<JsonValue> = Vec::with_capacity(spans.len() + 2);
        events.push(JsonValue::object([
            ("ph", JsonValue::string("M")),
            ("pid", JsonValue::number(1.0)),
            ("name", JsonValue::string("process_name")),
            (
                "args",
                JsonValue::object([("name", JsonValue::string("chc"))]),
            ),
        ]));
        for e in &spans {
            let mut fields = vec![
                (
                    "ph",
                    JsonValue::string(match e.kind {
                        EntryKind::Enter => "B",
                        _ => "E",
                    }),
                ),
                ("pid", JsonValue::number(1.0)),
                ("tid", JsonValue::number(e.thread as f64)),
                ("ts", JsonValue::number(e.nanos as f64 / 1_000.0)),
                ("name", JsonValue::string(e.name)),
                ("cat", JsonValue::string("chc")),
            ];
            if let EntryKind::Exit { counters, .. } = &e.kind {
                if !counters.is_empty() {
                    fields.push(("args", counters_json(merge(counters))));
                }
            }
            events.push(JsonValue::object(fields));
        }
        let unattributed = self.unattributed_counters();
        if !unattributed.is_empty() {
            events.push(JsonValue::object([
                ("ph", JsonValue::string("i")),
                ("pid", JsonValue::number(1.0)),
                ("tid", JsonValue::number(0.0)),
                (
                    "ts",
                    JsonValue::number(self.elapsed().as_nanos() as f64 / 1_000.0),
                ),
                ("s", JsonValue::string("g")),
                ("name", JsonValue::string("counters.unattributed")),
                ("cat", JsonValue::string("chc")),
                ("args", counters_json(unattributed)),
            ]));
        }
        JsonValue::object([
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::string("ns")),
        ])
        .render()
    }

    /// Folded-stack output for flamegraph tools: one
    /// `root;child;leaf <self-nanos>` line per distinct stack, sorted,
    /// where the value is the stack's *exclusive* (self) wall time in
    /// nanoseconds. Spans still open at export time are skipped (their
    /// self time is not yet known); ends whose begin was evicted from
    /// the ring are skipped likewise.
    pub fn to_folded_stacks(&self) -> String {
        // Per-thread reconstruction stack: (name, begin_ts, child_nanos).
        let mut stacks: HashMap<usize, Vec<(&'static str, u64, u64)>> = HashMap::new();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for e in self.span_entries() {
            let stack = stacks.entry(e.thread).or_default();
            if let EntryKind::Enter = e.kind {
                stack.push((e.name, e.nanos, 0));
                continue;
            }
            // Tolerate a begin evicted from the ring: only pop if the
            // top matches this end's name.
            if stack.last().map(|(n, _, _)| *n) != Some(e.name) {
                continue;
            }
            let (name, begin, child_nanos) = stack.pop().expect("non-empty");
            let total = e.nanos.saturating_sub(begin);
            if let Some(parent) = stack.last_mut() {
                parent.2 = parent.2.saturating_add(total);
            }
            let mut path: Vec<&str> = stack.iter().map(|(n, _, _)| *n).collect();
            path.push(name);
            *folded.entry(path.join(";")).or_insert(0) += total.saturating_sub(child_nanos);
        }
        folded
            .iter()
            .map(|(path, nanos)| format!("{path} {nanos}\n"))
            .collect()
    }
}

fn counters_json(counters: impl IntoIterator<Item = (&'static str, u64)>) -> JsonValue {
    JsonValue::object(
        counters
            .into_iter()
            .map(|(k, v)| (k, JsonValue::number(v as f64))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Recorder};

    fn run_demo(r: &Journal) {
        r.span_enter("outer");
        r.counter("work", 2);
        r.span_enter("inner");
        r.counter("work", 5);
        r.histogram("fanout", 3);
        r.span_exit("inner", 0);
        r.span_exit("outer", 0);
        r.counter("stray", 1);
    }

    fn kinds(r: &Journal) -> Vec<(&'static str, &'static str)> {
        r.entries()
            .iter()
            .map(|e| (e.kind.label(), e.name))
            .collect()
    }

    fn deltas(e: &Entry) -> BTreeMap<&'static str, u64> {
        match &e.kind {
            EntryKind::Exit { counters, .. } => merge(counters),
            _ => BTreeMap::new(),
        }
    }

    #[test]
    fn events_record_in_order_with_attribution() {
        let r = Journal::new(TRACE_CAPACITY);
        run_demo(&r);
        let evs = r.entries();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            kinds(&r),
            vec![
                ("enter", "outer"),
                ("enter", "inner"),
                ("exit", "inner"),
                ("exit", "outer"),
            ]
        );
        // Counter deltas ride on the exit of the innermost span.
        assert_eq!(deltas(&evs[2]).get("work"), Some(&5));
        assert_eq!(deltas(&evs[2]).get("fanout"), Some(&3));
        assert_eq!(deltas(&evs[3]).get("work"), Some(&2));
        assert_eq!(r.unattributed_counters(), vec![("stray", 1)]);
        // Timestamps are monotone.
        assert!(evs.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let r = Journal::new(4);
        for _ in 0..4 {
            r.span_enter("s");
            r.span_exit("s", 0);
        }
        assert_eq!(r.entries().len(), 4);
        assert_eq!(r.dropped(), 4);
        // Oldest events went first: buffer holds the last two pairs.
        assert_eq!(r.entries()[0].kind.label(), "enter");
    }

    #[test]
    fn exporters_stay_well_formed_after_ring_overflow() {
        // Fill well past capacity so begins are evicted while their ends
        // remain: both exporters must still emit valid output.
        let r = Journal::new(4);
        r.span_enter("run");
        for _ in 0..16 {
            r.span_enter("step");
            r.counter("work", 1);
            r.span_exit("step", 0);
        }
        r.span_exit("run", 0);
        assert!(r.dropped() > 0);

        let doc = json::parse(&r.to_chrome_trace()).expect("chrome trace parses after overflow");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let spans = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(JsonValue::as_str), Some("B" | "E")))
            .count();
        assert_eq!(spans, 4, "exactly the retained events are exported");
        for ev in events {
            if ev.get("ph").and_then(JsonValue::as_str) != Some("M") {
                assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some(), "{ev:?}");
            }
        }

        // Folded stacks: ends whose begins were evicted (`run`'s begin
        // is long gone) are skipped; surviving lines keep the
        // `path value` shape.
        let folded = r.to_folded_stacks();
        for line in folded.lines() {
            let (path, v) = line.rsplit_once(' ').expect("`path value` shape");
            assert!(!path.is_empty());
            v.parse::<u64>().expect("integer self-time");
        }
        assert!(folded.lines().any(|l| l.starts_with("step ")), "{folded}");
    }

    #[test]
    fn trace_view_keeps_spans_only() {
        let r = Journal::new(TRACE_CAPACITY);
        r.span_enter("s");
        r.event(&crate::Event::new(crate::EventLevel::Audit, "t.event"));
        r.span_exit("s", 0);
        let doc = json::parse(&r.to_chrome_trace()).unwrap();
        let names: Vec<&str> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(names, ["process_name", "s", "s"]);
    }

    #[test]
    fn chrome_trace_round_trips_and_nests() {
        let r = Journal::new(TRACE_CAPACITY);
        run_demo(&r);
        let text = r.to_chrome_trace();
        let doc = json::parse(&text).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata + 4 span events + 1 unattributed instant.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "B", "B", "E", "E", "i"]);
        let inner_end = &events[3];
        assert_eq!(
            inner_end.get("name").and_then(JsonValue::as_str),
            Some("inner")
        );
        assert_eq!(
            inner_end
                .get("args")
                .and_then(|a| a.get("work"))
                .and_then(JsonValue::as_f64),
            Some(5.0)
        );
    }

    #[test]
    fn folded_stacks_show_paths_and_self_time() {
        let r = Journal::new(TRACE_CAPACITY);
        run_demo(&r);
        let folded = r.to_folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(lines.iter().any(|l| l.starts_with("outer ")), "{folded}");
        assert!(
            lines.iter().any(|l| l.starts_with("outer;inner ")),
            "{folded}"
        );
        for line in lines {
            let (_, v) = line.rsplit_once(' ').expect("path value");
            v.parse::<u64>().expect("integer self-time");
        }
    }

    #[test]
    fn out_of_order_exits_stay_well_nested() {
        let r = Journal::new(TRACE_CAPACITY);
        r.span_enter("a");
        r.span_enter("b");
        r.span_exit("a", 0); // 'b' still open: closed first, same ts
        assert_eq!(
            kinds(&r),
            vec![("enter", "a"), ("enter", "b"), ("exit", "b"), ("exit", "a")]
        );
        // Exit with no matching open span is dropped, not a panic.
        r.span_exit("ghost", 0);
        assert_eq!(r.entries().len(), 4);
    }

    #[test]
    fn fanout_feeds_all_sinks() {
        use std::sync::Arc;
        let stats = Arc::new(crate::StatsRecorder::new());
        let journal = Arc::new(Journal::new(TRACE_CAPACITY));
        let fan = crate::FanoutRecorder::new(vec![
            stats.clone() as Arc<dyn Recorder>,
            journal.clone() as Arc<dyn Recorder>,
        ]);
        fan.span_enter("s");
        fan.counter("c", 2);
        fan.histogram("h", 7);
        fan.span_exit("s", 10);
        assert_eq!(stats.counter_value("c"), 2);
        assert_eq!(stats.histogram_summary("h").unwrap().count, 1);
        let entries = journal.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(deltas(&entries[1]).get("c"), Some(&2));
    }
}
