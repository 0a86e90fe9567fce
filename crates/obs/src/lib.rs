//! # chc-obs — zero-dependency observability for the excuses system
//!
//! Every experiment in EXPERIMENTS.md is ultimately about *counting
//! work*: run-time safety checks eliminated (§5.4), search steps per
//! attribute lookup (§4.2.4), fragments probed vs. skipped by type
//! deduction (§5.5). This crate gives all the `chc-*` crates one way to
//! report that work:
//!
//! * **named counters** and **histograms** ([`counter`], [`histogram`]),
//! * **hierarchical spans** with monotonic [`std::time::Instant`] timing
//!   ([`span`]),
//! * **structured audit events** with leveled key-value payloads
//!   ([`event`], [`event_with`]) — see [`events`],
//! * **labeled metrics** and **distinct-work tracking** for cost
//!   attribution ([`labeled_counter`], [`labeled_histogram`],
//!   [`distinct`], [`label_scope`]) — see [`profile`],
//!
//! behind a cheap [`Recorder`] trait. When no recorder is installed,
//! every instrumentation call is a single relaxed atomic load and a
//! predictable branch. The `chc` CLI always installs one (the
//! [`Journal`] below), so its always-on path is that load, the thread's
//! cached copy of the global recorder, a thread-local lookup of the
//! thread's journal slot, and an uncontended per-slot mutex: no
//! process-wide lock. The attribution calls
//! ([`labeled_counter`], [`labeled_histogram`], [`distinct`]) are
//! dispatched only while an installed recorder consumes them, see
//! [`attributing`]; instrumented sites gate the work of preparing them
//! (hashing, label scopes, timing) on the same answer.
//!
//! ## Installing a recorder
//!
//! [`StatsRecorder`] is the batteries-included aggregate: counters,
//! histograms, and a span tree, rendered as a human-readable tree
//! ([`StatsRecorder::render_tree`]), a counter table
//! ([`StatsRecorder::render_counters`]), or line-delimited JSON
//! ([`StatsRecorder::to_json_lines`]). [`ProfileRecorder`] keeps the
//! labeled cost attribution.
//!
//! [`Journal`] is the one event-level core: per thread, a bounded ring
//! of span and event transitions, the open-span stack, and counter
//! totals — see [`journal`]. Four views read it: the trace timeline as
//! Chrome trace JSON or folded stacks ([`trace`]), the `chc-crash/1`
//! report with its writer and stall watchdog ([`crash`]), the audit
//! ledger as JSON lines ([`events`]), and the span-stack
//! [`SpanSampler`] ([`sampler`]). [`FanoutRecorder`] feeds one run to
//! several recorders at once.
//!
//! Recorders can be installed two ways:
//!
//! * [`set_global`] — process-wide, used by the `chc` CLI's
//!   `--trace`/`--stats` flags;
//! * [`scoped`] — a thread-local override active until the returned
//!   guard drops. This is what tests and the `report` binary use, so
//!   parallel test threads never see each other's counters.
//!
//! Code that fans work out to threads carries the caller's context
//! across with [`handoff`]: a worker records into the caller's scoped
//! recorder under the caller's labels, and its tracked allocations fold
//! back into the caller's at [`Worked::join`].
//!
//! ```
//! use std::sync::Arc;
//! use chc_obs as obs;
//!
//! let stats = Arc::new(obs::StatsRecorder::new());
//! {
//!     let _scope = obs::scoped(stats.clone());
//!     let _span = obs::span("demo.work");
//!     obs::counter("demo.widgets", 3);
//! }
//! assert_eq!(stats.counter_value("demo.widgets"), 3);
//! ```
//!
//! The counter/span name registry lives in [`names`]; docs/OBSERVABILITY.md
//! maps each name to the experiment (E1–E10) it feeds.

// `deny`, not `forbid`: `memalloc` opts back in for its one unsafe
// surface (the `GlobalAlloc` impl); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod events;
pub mod journal;
pub mod json;
pub mod memalloc;
pub mod names;
pub mod profile;
pub mod sampler;
mod stats;
pub mod trace;

pub use crash::{CrashWriter, Watchdog};
pub use events::{Event, EventLevel, FieldValue};
pub use journal::{Entry, EntryKind, Journal};
pub use memalloc::{MemSnapshot, ProbeStats, ThreadProbe, TrackingAllocator};
pub use profile::{LabeledSnapshot, ProfileRecorder};
pub use sampler::SpanSampler;
pub use stats::{Histogram, HistogramSummary, SpanNode, StatsRecorder};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A sink for instrumentation events.
///
/// Implementations must be cheap to call re-entrantly; the instrumented
/// crates call these from hot loops whenever a recorder is installed.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the named counter.
    fn counter(&self, name: &'static str, delta: u64);
    /// Record one observation of `value` in the named histogram.
    fn histogram(&self, name: &'static str, value: u64);
    /// A span with this name just opened.
    fn span_enter(&self, name: &'static str);
    /// The innermost open span with this name just closed, having run
    /// for `nanos` nanoseconds.
    fn span_exit(&self, name: &'static str, nanos: u64);
    /// A structured event was emitted. Defaults to discarding it, so
    /// recorders that aggregate numeric work ignore the audit stream;
    /// [`Journal`] overrides this to retain it.
    fn event(&self, event: &events::Event) {
        let _ = event;
    }
    /// Add `delta` to the named counter *under a label* — a cheap
    /// interned `u64` key such as a class id, a query id, or a
    /// structural pair hash. Defaults to discarding the observation;
    /// [`ProfileRecorder`] overrides this to build per-label
    /// attributions with bounded cardinality.
    fn labeled_counter(&self, name: &'static str, label: u64, delta: u64) {
        let _ = (name, label, delta);
    }
    /// Record one observation of `value` in the named histogram under a
    /// label. Defaults to discarding it; see [`Recorder::labeled_counter`].
    fn labeled_histogram(&self, name: &'static str, label: u64, value: u64) {
        let _ = (name, label, value);
    }
    /// A distinct-work observation: the instrumented site performed a
    /// unit of work identified by `key` (typically a structural hash of
    /// its inputs). Recorders that track duplicate work keep a compact
    /// seen-set per name and add 1 to the counter `name` only the first
    /// time each key is seen, so `foo.distinct` can sit next to the
    /// plain total `foo`. Defaults to discarding the observation.
    fn distinct(&self, name: &'static str, key: u64) {
        let _ = (name, key);
    }
    /// Whether this recorder consumes the attribution calls
    /// ([`Recorder::labeled_counter`], [`Recorder::labeled_histogram`],
    /// [`Recorder::distinct`]). While no installed recorder does, they
    /// are not dispatched and [`attributing`] is false.
    fn attributing(&self) -> bool {
        false
    }
}

/// Number of live recorder installations (global plus scoped). While
/// zero, instrumentation calls return after one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Whether the process-wide recorder consumes attribution calls.
static GLOBAL_ATTRIBUTING: AtomicBool = AtomicBool::new(false);

/// Bumped, under the write lock, each time the process-wide recorder
/// changes. A thread that loads a new value refreshes its cached copy
/// under the read lock, which orders the refresh after the change; the
/// `Release`/`Acquire` pair only publishes the bump itself.
static GLOBAL_GEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
    /// This thread's copy of the process-wide recorder as of a
    /// `GLOBAL_GEN` value: recording needs no shared lock or refcount.
    static GLOBAL_CACHE: RefCell<(u64, Option<Arc<dyn Recorder>>)> =
        const { RefCell::new((u64::MAX, None)) };
}

/// True if any recorder (global or scoped-on-this-thread) may be live.
///
/// Use this to skip *preparing* expensive event payloads; the emit
/// functions already check it internally.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// True if the recorder this thread reports to consumes attribution
/// calls ([`labeled_counter`], [`labeled_histogram`], [`distinct`]).
///
/// Gate the work of preparing them on this: a structural hash, a
/// [`label_scope`], a per-class timer. The attribution emit functions
/// check it internally.
#[inline]
pub fn attributing() -> bool {
    enabled()
        && LOCAL.with(|l| match l.borrow().last() {
            Some(scoped) => scoped.attributing(),
            None => GLOBAL_ATTRIBUTING.load(Ordering::Relaxed),
        })
}

fn dispatch(f: impl FnOnce(&dyn Recorder)) {
    let local = LOCAL.with(|l| l.borrow().last().cloned());
    if let Some(r) = local {
        f(&*r);
        return;
    }
    let read_global = || GLOBAL.read().ok().and_then(|g| g.clone());
    let mut f = Some(f);
    let gen = GLOBAL_GEN.load(Ordering::Acquire);
    let cached = GLOBAL_CACHE.try_with(|cache| {
        if cache.borrow().0 != gen {
            // A call nested in a recorder (a panic hook reporting) keeps
            // the copy it has rather than refresh under the outer borrow.
            if let Ok(mut stale) = cache.try_borrow_mut() {
                *stale = (gen, read_global());
            }
        }
        if let Some(r) = &cache.borrow().1 {
            (f.take().expect("runs once"))(&**r);
        }
    });
    if cached.is_err() {
        // Thread-local storage is being torn down: read the global.
        if let Some(r) = read_global() {
            (f.take().expect("runs once"))(&*r);
        }
    }
}

/// Installs `recorder` as the process-wide sink, replacing any previous
/// one. Pass-through for scoped recorders: a thread with a live
/// [`scoped`] guard keeps reporting to its own recorder.
pub fn set_global(recorder: Arc<dyn Recorder>) {
    let mut g = GLOBAL.write().expect("obs global lock");
    GLOBAL_ATTRIBUTING.store(recorder.attributing(), Ordering::Relaxed);
    GLOBAL_GEN.fetch_add(1, Ordering::Release);
    if g.replace(recorder).is_none() {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Removes the process-wide recorder installed by [`set_global`].
pub fn clear_global() {
    let mut g = GLOBAL.write().expect("obs global lock");
    GLOBAL_ATTRIBUTING.store(false, Ordering::Relaxed);
    GLOBAL_GEN.fetch_add(1, Ordering::Release);
    if g.take().is_some() {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Guard returned by [`scoped`]; dropping it uninstalls the recorder.
#[must_use = "the recorder is uninstalled when this guard drops"]
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `recorder` for the current thread until the guard drops.
///
/// Scoped recorders shadow the global one and nest (last installed
/// wins), so a test can meter exactly one region of code regardless of
/// what the process or enclosing scopes are doing.
pub fn scoped(recorder: Arc<dyn Recorder>) -> ScopeGuard {
    LOCAL.with(|l| l.borrow_mut().push(recorder));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    ScopeGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| l.borrow_mut().pop());
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Adds `delta` to the named counter on the active recorder, if any.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        dispatch(|r| r.counter(name, delta));
    }
}

/// Records `value` into the named histogram on the active recorder.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if enabled() {
        dispatch(|r| r.histogram(name, value));
    }
}

/// Adds `delta` to the named counter under `label` (class id, query id,
/// pair hash, …) on the active recorder, if it is [`attributing`].
#[inline]
pub fn labeled_counter(name: &'static str, label: u64, delta: u64) {
    if attributing() {
        dispatch(|r| r.labeled_counter(name, label, delta));
    }
}

/// Records `value` into the named histogram under `label` on the active
/// recorder, if it is [`attributing`].
#[inline]
pub fn labeled_histogram(name: &'static str, label: u64, value: u64) {
    if attributing() {
        dispatch(|r| r.labeled_histogram(name, label, value));
    }
}

/// Reports a distinct-work observation: recorders that track duplicate
/// work bump the counter `name` only the first time they see `key`.
/// A no-op unless the active recorder is [`attributing`].
#[inline]
pub fn distinct(name: &'static str, key: u64) {
    if attributing() {
        dispatch(|r| r.distinct(name, key));
    }
}

thread_local! {
    /// The attribution-label stack for this thread; see [`label_scope`].
    static LABELS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`label_scope`]; dropping it pops the label.
#[must_use = "the label is popped when this guard drops"]
pub struct LabelGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Pushes an attribution label for the current thread until the guard
/// drops. Deep instrumentation sites that cannot see what they work
/// *for* (the subtype decision, the sat procedure) read the innermost
/// label via [`current_label`] so their counters attribute to the class
/// (or query) being processed. Callers should gate on [`attributing`] —
/// the stack is maintained unconditionally.
pub fn label_scope(label: u64) -> LabelGuard {
    LABELS.with(|l| l.borrow_mut().push(label));
    LabelGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for LabelGuard {
    fn drop(&mut self) {
        LABELS.with(|l| l.borrow_mut().pop());
    }
}

/// The innermost attribution label pushed by [`label_scope`], if any.
#[inline]
pub fn current_label() -> Option<u64> {
    LABELS.with(|l| l.borrow().last().copied())
}

/// Adds `delta` to the labeled series of `name` under the innermost
/// [`label_scope`] label; a no-op when no label scope is active or the
/// active recorder is not [`attributing`].
#[inline]
pub fn labeled_counter_scoped(name: &'static str, delta: u64) {
    if attributing() {
        if let Some(label) = current_label() {
            dispatch(|r| r.labeled_counter(name, label, delta));
        }
    }
}

/// A thread's observability context, captured by [`handoff`] so a worker
/// thread can record as if its work ran on the capturing thread: into
/// the innermost [`scoped`] recorder (else the global one, as before),
/// under the same [`label_scope`] labels, and with allocations tracked
/// when the capturing thread had a [`memalloc::probe`] open.
pub struct Handoff {
    recorder: Option<Arc<dyn Recorder>>,
    labels: Vec<u64>,
    track_mem: bool,
}

/// Captures the calling thread's observability context for
/// [`Handoff::run`] on worker threads. See docs/OBSERVABILITY.md,
/// "Worker threads".
pub fn handoff() -> Handoff {
    Handoff {
        recorder: LOCAL.with(|l| l.borrow().last().cloned()),
        labels: LABELS.with(|l| l.borrow().clone()),
        track_mem: memalloc::probing(),
    }
}

impl Handoff {
    /// Runs `work` on the current thread inside the captured context.
    /// Hand the result back to the capturing thread and [`Worked::join`]
    /// it there.
    pub fn run<R>(&self, work: impl FnOnce() -> R) -> Worked<R> {
        let _scope = self.recorder.clone().map(scoped);
        let _labels: Vec<LabelGuard> = self.labels.iter().map(|&l| label_scope(l)).collect();
        let probe = self.track_mem.then(memalloc::probe);
        let value = work();
        let mem = probe.map(memalloc::hand_back);
        // A scoped thread's thread-locals may outlive the scope's join;
        // fold now so the process-wide totals are exact once it returns.
        memalloc::flush();
        Worked { value, mem }
    }
}

/// What a worker produced under a [`Handoff`].
#[must_use = "join it on the capturing thread to fold in the worker's allocations"]
pub struct Worked<R> {
    value: R,
    mem: Option<memalloc::WorkerMem>,
}

impl<R> Worked<R> {
    /// On the thread that called [`handoff`]: adds the worker's tracked
    /// allocations to this thread's counters (see [`memalloc`]) and
    /// returns the worker's value.
    pub fn join(self) -> R {
        if let Some(mem) = self.mem {
            memalloc::absorb(mem);
        }
        self.value
    }
}

/// Emits a structured event to the active recorder, if any.
#[inline]
pub fn event(event: Event) {
    if enabled() {
        dispatch(|r| r.event(&event));
    }
}

/// Emits a structured event built lazily: `build` runs only when a
/// recorder is installed, so hot paths never pay for resolving names or
/// rendering values into the payload on the disabled path.
#[inline]
pub fn event_with(build: impl FnOnce() -> Event) {
    if enabled() {
        let event = build();
        dispatch(|r| r.event(&event));
    }
}

/// RAII guard for a timed span; created by [`span`].
///
/// When no recorder is active at creation the guard is fully inert — it
/// holds no `Instant` and its drop is a no-op branch.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a named span. The span closes (and its wall time is reported)
/// when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        dispatch(|r| r.span_enter(name));
        SpanGuard {
            name,
            start: Some(Instant::now()),
        }
    } else {
        SpanGuard { name, start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            dispatch(|r| r.span_exit(self.name, nanos));
        }
    }
}

/// Forwards every call to each of a set of recorders, so the journal
/// and the flag-selected aggregates can observe one run.
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    /// A recorder fanning out to `sinks`, in order.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        FanoutRecorder { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        self.sinks.iter().for_each(|s| s.counter(name, delta));
    }

    fn histogram(&self, name: &'static str, value: u64) {
        self.sinks.iter().for_each(|s| s.histogram(name, value));
    }

    fn span_enter(&self, name: &'static str) {
        self.sinks.iter().for_each(|s| s.span_enter(name));
    }

    fn span_exit(&self, name: &'static str, nanos: u64) {
        self.sinks.iter().for_each(|s| s.span_exit(name, nanos));
    }

    fn event(&self, event: &Event) {
        self.sinks.iter().for_each(|s| s.event(event));
    }

    fn labeled_counter(&self, name: &'static str, label: u64, delta: u64) {
        self.sinks
            .iter()
            .for_each(|s| s.labeled_counter(name, label, delta));
    }

    fn labeled_histogram(&self, name: &'static str, label: u64, value: u64) {
        self.sinks
            .iter()
            .for_each(|s| s.labeled_histogram(name, label, value));
    }

    fn distinct(&self, name: &'static str, key: u64) {
        self.sinks.iter().for_each(|s| s.distinct(name, key));
    }

    fn attributing(&self) -> bool {
        self.sinks.iter().any(|s| s.attributing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_noops() {
        // No recorder in scope: these must not panic and must be cheap.
        counter("t.noop", 1);
        histogram("t.noop", 1);
        let _s = span("t.noop");
    }

    #[test]
    fn scoped_recorder_catches_events() {
        let stats = Arc::new(StatsRecorder::new());
        {
            let _g = scoped(stats.clone());
            counter("t.scoped", 2);
            counter("t.scoped", 3);
        }
        counter("t.scoped", 100); // after the scope: dropped
        assert_eq!(stats.counter_value("t.scoped"), 5);
    }

    #[test]
    fn attribution_follows_the_active_recorder() {
        assert!(!attributing(), "nothing installed");
        let journal = Arc::new(Journal::default());
        let stats = Arc::new(StatsRecorder::new());
        let _a = scoped(journal.clone());
        assert!(enabled() && !attributing(), "the journal consumes none");
        distinct("t.attr.distinct", 1);
        {
            let _b = scoped(Arc::new(FanoutRecorder::new(vec![
                journal.clone() as Arc<dyn Recorder>,
                stats.clone() as Arc<dyn Recorder>,
            ])));
            assert!(attributing(), "a fanout attributes if any sink does");
            distinct("t.attr.distinct", 1);
            distinct("t.attr.distinct", 2);
        }
        assert!(!attributing());
        assert_eq!(stats.counter_value("t.attr.distinct"), 2);
    }

    #[test]
    fn inner_scope_shadows_outer() {
        let outer = Arc::new(StatsRecorder::new());
        let inner = Arc::new(StatsRecorder::new());
        let _a = scoped(outer.clone());
        {
            let _b = scoped(inner.clone());
            counter("t.shadow", 1);
        }
        counter("t.shadow", 10);
        assert_eq!(inner.counter_value("t.shadow"), 1);
        assert_eq!(outer.counter_value("t.shadow"), 10);
    }
}
