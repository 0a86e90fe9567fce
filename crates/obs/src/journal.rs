//! The journal: the one recording core behind every event-level view.
//!
//! A [`Journal`] keeps one slot per recording thread: the open-span
//! stack (each open span with the counter and histogram deltas that
//! fired while it was innermost), a bounded drop-oldest ring of span
//! enter, span exit and event [`Entry`]s, and the thread's counter
//! totals. Counter bumps never enter the ring.
//!
//! A thread writes only its own slot, found through a thread-local cache
//! and guarded by an uncontended mutex, so recording takes no
//! process-wide lock. Readers lock one slot at a time, so no snapshot
//! sees a torn stack. Every record, counter bumps included, advances the
//! activity count the stall watchdog reads ([`Journal::activity`]).
//!
//! The views live in [`crate::trace`], [`crate::crash`], [`crate::events`]
//! and [`crate::sampler`]. The ring capacity is per thread; each view
//! keeps at most its own bound of the newest entries it reads
//! ([`CRASH_TAIL`], [`TRACE_CAPACITY`], [`AUDIT_CAPACITY`]), so a journal
//! needs a ring as large as the largest view it serves.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use crate::events::Event;
use crate::Recorder;

/// Entries the crash view emits: the newest transitions across threads.
pub const CRASH_TAIL: usize = 4096;
/// Span entries the trace view keeps.
pub const TRACE_CAPACITY: usize = 1 << 16;
/// Events the audit view keeps.
pub const AUDIT_CAPACITY: usize = 1 << 20;

/// What an [`Entry`] records.
#[derive(Debug, Clone)]
pub enum EntryKind {
    /// A span opened.
    Enter,
    /// A span closed after `nanos`, with the counter and histogram
    /// deltas that fired while it was innermost on its thread.
    Exit {
        /// The span's wall time in nanoseconds.
        nanos: u64,
        /// Deltas by name; a name may repeat, views sum by name.
        counters: Vec<(&'static str, u64)>,
    },
    /// A structured event was emitted.
    Event {
        /// Journal-wide event number, counted from 0.
        ordinal: u64,
        /// The event itself, kept only by a journal built with
        /// [`Journal::with_events`].
        payload: Option<Arc<Event>>,
    },
}

impl EntryKind {
    /// The label used in `chc-crash/1` JSON.
    pub fn label(&self) -> &'static str {
        match self {
            EntryKind::Enter => "enter",
            EntryKind::Exit { .. } => "exit",
            EntryKind::Event { .. } => "event",
        }
    }
}

/// One transition held in a journal ring.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Journal-wide sequence number: merged views order by it.
    pub seq: u64,
    /// Nanoseconds since the journal was created.
    pub nanos: u64,
    /// Dense thread index, in order of each thread's first record.
    pub thread: usize,
    /// Span or event name.
    pub name: &'static str,
    /// The transition.
    pub kind: EntryKind,
}

struct OpenSpan {
    name: &'static str,
    start: u64,
    deltas: Vec<(&'static str, u64)>,
}

#[derive(Default)]
struct Slot {
    thread: usize,
    /// Records into this slot, counter bumps included.
    activity: u64,
    open: Vec<OpenSpan>,
    ring: VecDeque<Entry>,
    totals: Vec<(&'static str, u64)>,
    /// Deltas that fired with no span open.
    unattributed: Vec<(&'static str, u64)>,
}

impl Slot {
    fn attribute(&mut self, name: &'static str, delta: u64) {
        match self.open.last_mut() {
            Some(span) => add(&mut span.deltas, name, delta),
            None => add(&mut self.unattributed, name, delta),
        }
    }
}

/// Adds `delta` under `name`, matching names by identity: the hot path
/// never compares strings, and readers sum equal names via [`merge`].
fn add(deltas: &mut Vec<(&'static str, u64)>, name: &'static str, delta: u64) {
    match deltas.iter_mut().find(|(n, _)| std::ptr::eq(*n, name)) {
        Some((_, v)) => *v += delta,
        None => deltas.push((name, delta)),
    }
}

/// Sums `(name, value)` pairs by name, sorted by name.
pub(crate) fn merge<'a>(
    pairs: impl IntoIterator<Item = &'a (&'static str, u64)>,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for &(name, v) in pairs {
        *out.entry(name).or_insert(0) += v;
    }
    out
}

/// Locks `m`, recovering from poisoning: a panicking recorder must not
/// take the crash report down with it. Every update under these locks is
/// a whole push, pop or add, so the data stays valid at every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[derive(Default)]
struct Registry {
    tids: HashMap<ThreadId, usize>,
    slots: Vec<Arc<Mutex<Slot>>>,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's slot in each journal it has recorded into.
    static SLOTS: RefCell<Vec<(u64, Arc<Mutex<Slot>>)>> = const { RefCell::new(Vec::new()) };
}

/// The recording core; see the [module docs](self).
pub struct Journal {
    id: u64,
    start: Instant,
    capacity: usize,
    keep_events: bool,
    /// Ring entries ever recorded: the next [`Entry::seq`].
    seq: AtomicU64,
    /// Events ever recorded: the next event ordinal.
    events: AtomicU64,
    registry: Mutex<Registry>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new(CRASH_TAIL)
    }
}

impl Journal {
    /// A journal whose per-thread ring holds at most `capacity` entries.
    /// Events enter the ring by name only.
    pub fn new(capacity: usize) -> Self {
        Journal {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            capacity: capacity.max(1),
            keep_events: false,
            seq: AtomicU64::new(0),
            events: AtomicU64::new(0),
            registry: Mutex::new(Registry::default()),
        }
    }

    /// As [`Journal::new`], also keeping each event's payload for the
    /// audit view.
    pub fn with_events(capacity: usize) -> Self {
        Journal {
            keep_events: true,
            ..Self::new(capacity)
        }
    }

    /// Time since the journal was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    fn now(&self) -> u64 {
        self.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    fn register(&self) -> Arc<Mutex<Slot>> {
        let mut reg = lock(&self.registry);
        let tid = std::thread::current().id();
        if let Some(&idx) = reg.tids.get(&tid) {
            return Arc::clone(&reg.slots[idx]);
        }
        let thread = reg.slots.len();
        let slot = Arc::new(Mutex::new(Slot {
            thread,
            ..Slot::default()
        }));
        reg.tids.insert(tid, thread);
        reg.slots.push(Arc::clone(&slot));
        slot
    }

    /// Runs `f` on this thread's slot, creating it on first use.
    fn record(&self, f: impl FnOnce(&mut Slot)) {
        let mut f = Some(f);
        let mut run = |slot: &Mutex<Slot>| {
            let mut slot = lock(slot);
            slot.activity += 1;
            (f.take().expect("runs once"))(&mut slot);
        };
        let cached = SLOTS.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            let idx = match cache.iter().position(|(id, _)| *id == self.id) {
                Some(idx) => idx,
                None => {
                    // Forget the slots of journals that have been dropped.
                    cache.retain(|(_, slot)| Arc::strong_count(slot) > 1);
                    cache.push((self.id, self.register()));
                    cache.len() - 1
                }
            };
            run(&cache[idx].1);
        });
        if cached.is_err() {
            // Thread-local storage is being torn down: use the registry.
            run(&self.register());
        }
    }

    fn push(&self, slot: &mut Slot, nanos: u64, name: &'static str, kind: EntryKind) {
        if slot.ring.len() >= self.capacity {
            slot.ring.pop_front();
        }
        slot.ring.push_back(Entry {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            nanos,
            thread: slot.thread,
            name,
            kind,
        });
    }

    fn slots(&self) -> Vec<Arc<Mutex<Slot>>> {
        lock(&self.registry).slots.clone()
    }

    /// Every retained entry across threads, oldest first.
    pub fn entries(&self) -> Vec<Entry> {
        let mut out: Vec<Entry> = Vec::new();
        for slot in self.slots() {
            out.extend(lock(&slot).ring.iter().cloned());
        }
        // Each ring is sorted already, so this merges runs.
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Ring entries recorded so far, evicted ones included.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Ring entries evicted so far.
    pub fn dropped(&self) -> u64 {
        let retained: usize = self.slots().iter().map(|s| lock(s).ring.len()).sum();
        self.recorded() - retained as u64
    }

    /// Events recorded so far.
    pub fn events_recorded(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Each thread's open-span stack, outermost first, indexed by dense
    /// thread index; threads with nothing open have an empty stack.
    pub fn stacks(&self) -> Vec<Vec<&'static str>> {
        let mut out = Vec::new();
        self.each_stack(|names| out.push(names.collect()));
        out
    }

    /// Calls `f` with each thread's open-span names, outermost first, in
    /// thread order, locking one slot at a time. Allocates nothing, so a
    /// sampler can call it every tick.
    pub(crate) fn each_stack(&self, mut f: impl FnMut(&mut dyn Iterator<Item = &'static str>)) {
        // Recording threads never take the registry lock while holding
        // their slot's, so holding it here cannot deadlock.
        for slot in &lock(&self.registry).slots {
            f(&mut lock(slot).open.iter().map(|o| o.name));
        }
    }

    /// Records so far across threads, counter bumps included: the
    /// watchdog's liveness signal.
    pub fn activity(&self) -> u64 {
        self.slots().iter().map(|s| lock(s).activity).sum()
    }

    /// Running counter totals across threads, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.sum_by_name(|s| &s.totals)
    }

    /// Counter and histogram deltas that fired with no span open on
    /// their thread, sorted by name.
    pub fn unattributed_counters(&self) -> Vec<(&'static str, u64)> {
        self.sum_by_name(|s| &s.unattributed)
    }

    fn sum_by_name(
        &self,
        part: impl Fn(&Slot) -> &Vec<(&'static str, u64)>,
    ) -> Vec<(&'static str, u64)> {
        let mut all = Vec::new();
        for slot in self.slots() {
            all.extend_from_slice(part(&lock(&slot)));
        }
        merge(&all).into_iter().collect()
    }
}

impl Recorder for Journal {
    fn counter(&self, name: &'static str, delta: u64) {
        self.record(|slot| {
            add(&mut slot.totals, name, delta);
            slot.attribute(name, delta);
        });
    }

    fn histogram(&self, name: &'static str, value: u64) {
        // Summed into the innermost span like a counter: the trace view
        // cares where samples came from, not their distribution. The
        // totals stay counters-only.
        self.record(|slot| slot.attribute(name, value));
    }

    fn span_enter(&self, name: &'static str) {
        let nanos = self.now();
        self.record(|slot| {
            slot.open.push(OpenSpan {
                name,
                start: nanos,
                deltas: Vec::new(),
            });
            self.push(slot, nanos, name, EntryKind::Enter);
        });
    }

    fn span_exit(&self, name: &'static str, elapsed: u64) {
        let nanos = self.now();
        self.record(|slot| {
            // Close the innermost open span with this name. Spans opened
            // after it close first, at the same timestamp, so the stream
            // stays well nested; an exit with no match records nothing.
            let Some(idx) = slot.open.iter().rposition(|o| o.name == name) else {
                return;
            };
            while let Some(span) = slot.open.pop() {
                let closing = slot.open.len() == idx;
                let kind = EntryKind::Exit {
                    nanos: if closing {
                        elapsed
                    } else {
                        nanos.saturating_sub(span.start)
                    },
                    counters: span.deltas,
                };
                self.push(slot, nanos, span.name, kind);
                if closing {
                    break;
                }
            }
        });
    }

    fn event(&self, event: &Event) {
        let nanos = self.now();
        self.record(|slot| {
            let kind = EntryKind::Event {
                ordinal: self.events.fetch_add(1, Ordering::Relaxed),
                payload: self.keep_events.then(|| Arc::new(event.clone())),
            };
            self.push(slot, nanos, event.name, kind);
        });
    }
}

/// A background thread that calls `tick` every interval until stopped,
/// or until `tick` returns false. The sampler and the watchdog run on it.
pub(crate) struct Ticker {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Ticker {
    pub(crate) fn start(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) -> Ticker {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                // A condvar wait rather than a sleep, so `stop` wakes the
                // thread at once. The flag is checked before every wait:
                // `stop` may have set it, and fired a notification nobody
                // heard, before this thread first took the lock.
                let (stopped, cvar) = &*flag;
                let mut stopped = lock(stopped);
                while !*stopped {
                    let (guard, wait) = cvar
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    stopped = guard;
                    if !*stopped && wait.timed_out() && !tick() {
                        return;
                    }
                }
            })
            .expect("spawn ticker thread");
        Ticker {
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Signals the thread and joins it, promptly even when the interval
    /// is long. Idempotent.
    pub(crate) fn stop(&self) {
        let (flag, cvar) = &*self.stop;
        *lock(flag) = true;
        cvar.notify_all();
        if let Some(handle) = lock(&self.handle).take() {
            // A panicking tick has already been reported by the panic
            // hook, and `stop` runs from `Drop`, which must not panic.
            let _ = handle.join();
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let journal = Journal::new(4);
        for _ in 0..5 {
            journal.span_enter("t.op");
            journal.counter("t.ops", 2);
            journal.span_exit("t.op", 1);
        }
        let tail = journal.entries();
        assert_eq!(tail.len(), 4);
        assert_eq!(journal.dropped(), 6);
        assert_eq!(tail.first().unwrap().seq, 6, "oldest surviving entry");
        assert_eq!(tail.last().unwrap().seq, 9);
        assert_eq!(journal.counters(), vec![("t.ops", 10)]);
    }

    #[test]
    fn counter_bumps_stay_out_of_the_ring_but_advance_activity() {
        let journal = Journal::default();
        for _ in 0..10 {
            journal.counter("t.ops", 1);
        }
        assert!(journal.entries().is_empty());
        assert_eq!(journal.activity(), 10);
        assert_eq!(journal.counters(), vec![("t.ops", 10)]);
        assert_eq!(journal.unattributed_counters(), vec![("t.ops", 10)]);
    }

    #[test]
    fn open_span_stacks_follow_enter_and_exit() {
        let journal = Journal::default();
        journal.span_enter("outer");
        journal.span_enter("inner");
        assert_eq!(journal.stacks(), vec![vec!["outer", "inner"]]);
        journal.span_exit("inner", 42);
        assert_eq!(journal.stacks(), vec![vec!["outer"]]);
        // A malformed exit for a span that is not open is ignored.
        journal.span_exit("inner", 7);
        assert_eq!(journal.stacks(), vec![vec!["outer"]]);
        journal.span_exit("outer", 99);
        assert_eq!(journal.stacks(), vec![Vec::<&str>::new()]);
    }

    #[test]
    fn events_land_in_the_ring_by_name() {
        let journal = Journal::default();
        journal.event(&Event::new(crate::EventLevel::Audit, "t.event"));
        let tail = journal.entries();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].kind.label(), "event");
        assert_eq!(tail[0].name, "t.event");
        assert!(matches!(
            tail[0].kind,
            EntryKind::Event {
                ordinal: 0,
                payload: None
            }
        ));
    }

    #[test]
    fn each_thread_gets_its_own_slot() {
        let journal = Arc::new(Journal::default());
        journal.span_enter("t.main");
        let other = Arc::clone(&journal);
        std::thread::spawn(move || {
            other.span_enter("t.worker");
            other.counter("t.n", 3);
        })
        .join()
        .unwrap();
        assert_eq!(journal.stacks(), vec![vec!["t.main"], vec!["t.worker"]]);
        let threads: Vec<usize> = journal.entries().iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![0, 1]);
        assert_eq!(journal.counters(), vec![("t.n", 3)]);
    }

    #[test]
    fn recording_during_thread_teardown_reaches_the_registry() {
        struct RecordOnDrop(Arc<Journal>);
        impl Drop for RecordOnDrop {
            fn drop(&mut self) {
                self.0.counter("t.late", 1);
            }
        }
        thread_local! {
            static LATE: RefCell<Option<RecordOnDrop>> = const { RefCell::new(None) };
        }
        let journal = Arc::new(Journal::default());
        let inner = Arc::clone(&journal);
        std::thread::spawn(move || {
            // Registered before the slot cache, so destroyed after it.
            LATE.with(|late| *late.borrow_mut() = Some(RecordOnDrop(Arc::clone(&inner))));
            inner.counter("t.early", 1);
        })
        .join()
        .unwrap();
        assert_eq!(journal.counters(), vec![("t.early", 1), ("t.late", 1)]);
        assert_eq!(journal.stacks().len(), 1, "one slot for the thread");
    }

    /// The always-on path must stay cheap enough to leave installed in
    /// every run: pin the per-record cost the same way the disabled
    /// path is pinned in stats.rs.
    #[test]
    fn journal_recording_is_cheap() {
        let journal = Arc::new(Journal::default());
        let iters: u32 = 200_000;
        let _scope = crate::scoped(journal);
        let start = Instant::now();
        for _ in 0..iters {
            crate::counter("t.hot", 1);
        }
        let per_call = start.elapsed().as_nanos() / u128::from(iters);
        black_box(per_call);
        assert!(
            per_call < 1_000,
            "journaled counter took {per_call} ns/call (limit 1000 ns)"
        );
    }
}
