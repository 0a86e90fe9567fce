//! Multi-threaded recording stress tests.
//!
//! `scoped()` recorders are thread-local by design: two threads metering
//! their own regions concurrently must never cross-attribute counters or
//! interleave each other's span trees, even though a global recorder may
//! also be installed. Loom is out of reach offline, so this is a
//! seeded-schedule stress test on std threads: every thread derives its
//! op sequence (span nesting, counter bumps, yields) from a SplitMix64
//! stream, a barrier lines the threads up to maximize interleaving, and
//! the expected per-thread totals are recomputed independently. A reader
//! thread takes crash-view snapshots and samplers read the journals
//! while the schedules run; neither may ever see a torn stack.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use chc_obs::journal::TRACE_CAPACITY;
use chc_obs::json::JsonValue;
use chc_obs::memalloc::{self, TrackingAllocator};
use chc_obs::{EntryKind, FanoutRecorder, Journal, ProfileRecorder, SpanSampler, StatsRecorder};

// The handoff test reads per-thread allocation probes.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// SplitMix64, same constants as `chc_workloads::rng` (obs cannot
/// depend on workloads without a cycle).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

const SPANS: [&str; 4] = ["t.a", "t.b", "t.c", "t.d"];

/// Runs one seeded op sequence against the active recorder, returning
/// the exact counter total the recorder should have seen.
fn run_schedule(seed: u64, ops: usize) -> u64 {
    let mut rng = Rng(seed);
    let mut expected = 0u64;
    let mut depth = 0usize;
    let mut guards: Vec<chc_obs::SpanGuard> = Vec::new();
    for _ in 0..ops {
        match rng.next() % 4 {
            0 if depth < SPANS.len() => {
                guards.push(chc_obs::span(SPANS[depth]));
                depth += 1;
            }
            1 if depth > 0 => {
                guards.pop();
                depth -= 1;
            }
            2 => {
                let delta = rng.next() % 16;
                chc_obs::counter("t.work", delta);
                expected += delta;
            }
            _ => std::thread::yield_now(),
        }
    }
    // Close innermost-first (a Vec drops front-to-back, which would
    // exit the outermost span while its children are still open).
    while guards.pop().is_some() {}
    expected
}

/// The schedule opens `SPANS[depth]` at depth `depth`, so every stack a
/// reader sees must be a prefix of `SPANS`: no empty or unknown frame,
/// no frame out of place.
fn assert_untorn(stack: &[&str], what: &str) {
    assert!(
        stack.len() <= SPANS.len(),
        "{what}: stack too deep: {stack:?}"
    );
    assert_eq!(stack, &SPANS[..stack.len()], "{what}: torn stack");
}

#[test]
fn concurrent_scoped_recorders_do_not_cross_attribute() {
    let threads = 8;
    let ops = 4000;
    let journals: Vec<Arc<Journal>> = (0..threads)
        .map(|_| Arc::new(Journal::new(TRACE_CAPACITY)))
        .collect();
    let samplers: Vec<SpanSampler> = journals
        .iter()
        .map(|j| SpanSampler::start(j.clone(), Duration::from_micros(200)))
        .collect();
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let journals = journals.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            loop {
                let last = done.load(Ordering::Acquire);
                for journal in &journals {
                    let doc = chc_obs::crash::crash_report("stall", "probe", journal);
                    let text = doc.render();
                    let doc = chc_obs::json::parse(&text).expect("crash view parses");
                    for t in doc.get("threads").and_then(JsonValue::as_array).unwrap() {
                        let stack: Vec<&str> = t
                            .get("stack")
                            .and_then(JsonValue::as_array)
                            .unwrap()
                            .iter()
                            .map(|f| f.as_str().expect("frame is a string"))
                            .collect();
                        assert_untorn(&stack, "crash view");
                    }
                    for stack in journal.stacks() {
                        assert_untorn(&stack, "journal stacks");
                    }
                    snapshots += 1;
                }
                if last {
                    return snapshots;
                }
            }
        })
    };
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads as u64)
        .zip(journals.iter().cloned())
        .map(|(t, journal)| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let stats = Arc::new(StatsRecorder::new());
                let fan: Arc<dyn chc_obs::Recorder> = Arc::new(FanoutRecorder::new(vec![
                    stats.clone() as Arc<dyn chc_obs::Recorder>,
                    journal.clone() as Arc<dyn chc_obs::Recorder>,
                ]));
                barrier.wait();
                let expected = {
                    let _guard = chc_obs::scoped(fan);
                    run_schedule(0xC0FFEE + t, ops)
                };
                (t, expected, stats, journal)
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("thread survives"))
        .collect();
    done.store(true, Ordering::Release);
    assert!(reader.join().expect("reader survives") >= threads as u64);
    for sampler in &samplers {
        sampler.stop();
        for line in sampler.to_folded_stacks().lines() {
            let (path, _) = line.rsplit_once(' ').expect("`path count` shape");
            assert_untorn(&path.split(';').collect::<Vec<_>>(), "sampler");
        }
    }
    for (t, expected, stats, journal) in results {
        // Exact attribution: each recorder saw its own thread's deltas,
        // all of them, and nothing else.
        assert_eq!(
            stats.counter_value("t.work"),
            expected,
            "thread {t} counter total"
        );
        let totals = journal.counters();
        let journal_total = totals
            .iter()
            .find(|(n, _)| *n == "t.work")
            .map_or(0, |c| c.1);
        assert_eq!(journal_total, expected, "thread {t} journal total");
        // The span tree is well formed: only the expected names, and the
        // nesting discipline (t.a at depth 0, t.b below it, …) held.
        fn check(node: &chc_obs::SpanNode, depth: usize, t: u64) {
            assert_eq!(node.name, SPANS[depth], "thread {t} nesting");
            for child in &node.children {
                check(child, depth + 1, t);
            }
        }
        for root in stats.span_roots() {
            check(&root, 0, t);
        }
        // The timeline is well nested per thread and single-tid.
        let entries = journal.entries();
        assert_eq!(journal.dropped(), 0, "thread {t} ring held the run");
        assert!(
            entries.iter().all(|e| e.thread == 0),
            "thread {t} saw one tid"
        );
        let mut stack = Vec::new();
        let mut end_total = 0;
        for e in &entries {
            match &e.kind {
                EntryKind::Enter => stack.push(e.name),
                EntryKind::Exit { counters, .. } => {
                    assert_eq!(stack.pop(), Some(e.name), "thread {t} B/E nesting");
                    end_total += counters
                        .iter()
                        .filter(|(n, _)| *n == "t.work")
                        .map(|(_, v)| v)
                        .sum::<u64>();
                }
                EntryKind::Event { .. } => panic!("thread {t} emitted no events"),
            }
        }
        // Every span was closed, so the sum of End-event deltas plus
        // unattributed deltas accounts for every bump.
        let unattributed = journal
            .unattributed_counters()
            .iter()
            .find(|(n, _)| *n == "t.work")
            .map_or(0, |(_, v)| *v);
        assert_eq!(
            end_total + unattributed,
            expected,
            "thread {t} trace counter total"
        );
    }
}

#[test]
fn global_and_scoped_recorders_coexist_across_threads() {
    // A process-wide recorder catches threads without a scope; threads
    // with a scope shadow it completely.
    let global = Arc::new(StatsRecorder::new());
    chc_obs::set_global(global.clone());
    let barrier = Arc::new(Barrier::new(2));
    let b2 = barrier.clone();
    let scoped_thread = std::thread::spawn(move || {
        let mine = Arc::new(StatsRecorder::new());
        b2.wait();
        {
            let _g = chc_obs::scoped(mine.clone());
            for _ in 0..500 {
                chc_obs::counter("t.scoped_only", 1);
            }
        }
        mine
    });
    let b3 = barrier.clone();
    let global_thread = std::thread::spawn(move || {
        b3.wait();
        for _ in 0..500 {
            chc_obs::counter("t.global_only", 2);
        }
    });
    let mine = scoped_thread.join().unwrap();
    global_thread.join().unwrap();
    chc_obs::clear_global();
    assert_eq!(mine.counter_value("t.scoped_only"), 500);
    assert_eq!(mine.counter_value("t.global_only"), 0);
    assert_eq!(global.counter_value("t.global_only"), 1000);
    assert_eq!(global.counter_value("t.scoped_only"), 0);

    // Threads cache the process-wide recorder; replacing or clearing it
    // must reach a thread that has already recorded into the old one.
    let first = Arc::new(StatsRecorder::new());
    let second = Arc::new(StatsRecorder::new());
    chc_obs::set_global(first.clone());
    let (go, wait) = std::sync::mpsc::channel::<()>();
    let (done, recorded) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        for _ in 0..3 {
            wait.recv().unwrap();
            chc_obs::counter("t.swap", 1);
            done.send(()).unwrap();
        }
    });
    let step = || {
        go.send(()).unwrap();
        recorded.recv().unwrap();
    };
    step();
    chc_obs::set_global(second.clone());
    step();
    chc_obs::clear_global();
    step();
    worker.join().unwrap();
    assert_eq!(first.counter_value("t.swap"), 1);
    assert_eq!(second.counter_value("t.swap"), 1);
}

#[test]
fn one_journal_shared_by_many_threads_keeps_tids_apart() {
    // The CLI installs a single global journal; when the traced code
    // goes parallel, per-thread open-span stacks must keep each
    // thread's timeline self-consistent.
    let journal = Arc::new(Journal::new(TRACE_CAPACITY));
    let threads = 4;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let journal = journal.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let r: Arc<dyn chc_obs::Recorder> = journal;
                barrier.wait();
                for _ in 0..200 {
                    r.span_enter("t.outer");
                    r.counter("t.n", 1);
                    r.span_enter("t.inner");
                    r.span_exit("t.inner", 0);
                    r.span_exit("t.outer", 0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let entries = journal.entries();
    let tids: std::collections::BTreeSet<usize> = entries.iter().map(|e| e.thread).collect();
    assert_eq!(tids.len(), threads, "each thread got its own tid");
    for &tid in &tids {
        let mut stack = Vec::new();
        for e in entries.iter().filter(|e| e.thread == tid) {
            match e.kind {
                EntryKind::Enter => stack.push(e.name),
                _ => assert_eq!(stack.pop(), Some(e.name)),
            }
        }
        assert!(stack.is_empty(), "tid {tid} timeline closed");
    }
    // Counter attribution stayed on the right thread's spans: every
    // t.outer end event carries exactly its own bump.
    for e in entries.iter().filter(|e| e.name == "t.outer") {
        if let EntryKind::Exit { counters, .. } = &e.kind {
            assert_eq!(counters, &[("t.n", 1)]);
        }
    }
    assert_eq!(journal.counters(), vec![("t.n", (threads * 200) as u64)]);
}

#[test]
fn a_handed_off_worker_records_in_the_callers_context() {
    const WORKER_BYTES: usize = 1 << 20;
    let profile = Arc::new(ProfileRecorder::new());
    let _scope = chc_obs::scoped(profile.clone());
    let _label = chc_obs::label_scope(42);
    let probe = memalloc::probe();
    let record = || {
        chc_obs::counter("t.handoff", 3);
        chc_obs::labeled_counter_scoped("t.handoff.labeled", 5);
        std::hint::black_box(vec![0u8; WORKER_BYTES]).len()
    };
    // A bare thread reports to nothing: no scope, no label, no probe.
    std::thread::spawn(record).join().unwrap();
    assert_eq!(profile.counter_value("t.handoff"), 0);

    let context = chc_obs::handoff();
    let worked = std::thread::scope(|s| s.spawn(|| context.run(record)).join().unwrap());
    assert!(
        probe.stats().bytes_allocated < WORKER_BYTES as u64,
        "the worker's bytes arrive at join"
    );
    assert_eq!(worked.join(), WORKER_BYTES);
    let after = probe.stats();
    assert!(after.bytes_allocated >= WORKER_BYTES as u64, "{after:?}");
    assert!(after.peak_live >= WORKER_BYTES as u64, "{after:?}");
    assert_eq!(profile.counter_value("t.handoff"), 3);
    let labeled = profile
        .labeled("t.handoff.labeled")
        .expect("labeled series");
    assert_eq!(labeled.entries, vec![(42, 5)], "under the caller's label");
}
