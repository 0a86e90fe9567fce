//! Memory attribution: a tracking [`GlobalAlloc`] wrapper plus
//! thread-scoped probes.
//!
//! Binaries opt in by installing the wrapper as their global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: chc_obs::memalloc::TrackingAllocator =
//!     chc_obs::memalloc::TrackingAllocator;
//! ```
//!
//! Once installed, every allocation and deallocation in the process
//! is counted on the thread that makes it: alloc/free counts, bytes
//! allocated, and net live bytes, held back in one thread-local struct.
//! That is the *entire* fast path — one thread-local, no global atomic,
//! no lock. The allocator never dispatches into recorders (recorder
//! sinks take locks and allocate, and calling them from inside `alloc`
//! would re-enter the allocator).
//!
//! A thread *folds* its held-back counts into the process-wide totals
//! when its held-back live bytes reach ±[`FOLD_LIVE_BYTES`], when
//! 1 MiB has been allocated since its last fold, in
//! [`snapshot`], at the end of [`crate::Handoff::run`], and at thread
//! exit. The totals in a snapshot are therefore exact for every thread
//! that has folded (the caller always has), and the global live and
//! peak bytes are estimates: at any moment each other thread holds back
//! less than [`FOLD_LIVE_BYTES`] of either sign, so they are off by at
//! most (threads that allocate) × [`FOLD_LIVE_BYTES`].
//!
//! Attribution flows through the same thread-local struct, which scope
//! guards sample from safe code:
//!
//! * [`probe`] returns a [`ThreadProbe`] measuring bytes allocated and
//!   peak net-live growth on the current thread between construction
//!   and [`ThreadProbe::stats`]. This is what `check_class` uses for
//!   per-class attribution (emitted as labeled metrics by the caller).
//!   Probes count every byte: they do not wait for a fold.
//! * [`span_mem`] is the fire-and-forget variant for instrumented
//!   spans (`sdl.compile`, `extent.load`, `query.execute`, ...): it
//!   probes while the guard lives and emits a counter/histogram pair
//!   at drop — but only when a recorder is installed *and* the
//!   tracking allocator is live, so binaries without the wrapper never
//!   grow spurious zero-valued `mem.*` rows in their snapshots.
//!
//! A worker thread entered through [`crate::Handoff`] probes its own
//! allocations when the handing thread had a probe open, and
//! [`crate::Worked::join`] folds them back into the handing thread's
//! counters, so a probe around parallel work sees the workers' bytes.
//!
//! Reallocation is accounted as a free of the old size plus an
//! allocation of the new size. Per-thread "peak live" is the maximum
//! *net growth* of the thread's live bytes over the probe window
//! (clamped at zero), so a scope that only frees memory reports 0
//! rather than underflowing.

// `GlobalAlloc` is the one unsafe surface of chc-obs; everything the
// unsafe blocks do is delegate to `System` and count.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Held-back live bytes, of either sign, at which a thread folds its
/// counts into the process-wide totals. The global live and peak bytes
/// are off by at most this much per thread that allocates.
pub const FOLD_LIVE_BYTES: u64 = 64 << 10;

/// Bytes allocated since a thread's last fold at which it folds anyway,
/// so churn that leaves its live bytes flat still reaches the totals.
const FOLD_ALLOC_BYTES: u64 = 1 << 20;

static INSTALLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES_TOTAL: AtomicU64 = AtomicU64::new(0);
/// Signed: a thread that frees bytes another thread allocated and has
/// not folded yet drives the sum below zero until that thread folds.
static BYTES_LIVE: AtomicI64 = AtomicI64::new(0);
static BYTES_PEAK: AtomicI64 = AtomicI64::new(0);

/// Where a thread is in its folding life.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Folding {
    /// Nothing counted yet: the first alloc or free folds at once,
    /// which sets [`INSTALLED`] and registers [`ExitFold`].
    Fresh,
    /// Folds at the thresholds.
    Armed,
    /// Past [`ExitFold`]: every alloc and free folds at once.
    Exited,
}

/// Everything the allocator counts on one thread.
#[derive(Clone, Copy)]
struct Counts {
    /// Allocations since the last fold.
    allocs: u64,
    /// Deallocations since the last fold.
    frees: u64,
    /// Bytes allocated since the last fold.
    bytes: u64,
    /// Net live bytes since the last fold.
    live: i64,
    /// `|live|` at which the next alloc or free folds: 0 while
    /// [`Folding::Fresh`] or [`Folding::Exited`].
    fold_at: i64,
    folding: Folding,
    /// Open [`ThreadProbe`] count; the probe counts below are left
    /// alone while it is zero.
    probes: u32,
    /// Cumulative bytes allocated by this thread while probed (monotone).
    probe_alloc: u64,
    /// Net live-byte growth on this thread while probed.
    probe_live: i64,
    /// Max of `probe_live` since the innermost probe opened.
    probe_peak: i64,
}

thread_local! {
    /// `const`-initialized with no `Drop`, so access is a plain
    /// thread-local load that never fails, even during thread teardown.
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocs: 0,
            frees: 0,
            bytes: 0,
            live: 0,
            fold_at: 0,
            folding: Folding::Fresh,
            probes: 0,
            probe_alloc: 0,
            probe_live: 0,
            probe_peak: 0,
        })
    };
    /// Folds the thread's counts when its thread-locals are torn down.
    /// Registered on the thread's first fold.
    static EXIT_FOLD: ExitFold = const { ExitFold };
}

struct ExitFold;

impl Drop for ExitFold {
    fn drop(&mut self) {
        COUNTS.with(|cell| {
            let mut t = cell.get();
            t.folding = Folding::Exited;
            t.fold_at = 0;
            cell.set(t);
            fold(cell);
        });
    }
}

// The two hot paths update the counts in place through the cell's
// pointer: no copy of the struct and no call, even in an unoptimized
// build.

#[inline]
fn note_alloc(size: u64) {
    let _ = COUNTS.try_with(|cell| {
        let t = cell.as_ptr();
        // SAFETY: `t` points at this thread's own live `Counts`, and the
        // place expressions create no reference, so nothing else can
        // alias one (`fold`, which may re-enter, runs after the block).
        let fold_now = unsafe {
            (*t).allocs += 1;
            (*t).bytes += size;
            (*t).live += size as i64;
            if (*t).probes > 0 {
                (*t).probe_alloc += size;
                (*t).probe_live += size as i64;
                if (*t).probe_live > (*t).probe_peak {
                    (*t).probe_peak = (*t).probe_live;
                }
            }
            (*t).live >= (*t).fold_at || (*t).bytes >= FOLD_ALLOC_BYTES
        };
        if fold_now {
            fold(cell);
        }
    });
}

#[inline]
fn note_free(size: u64) {
    let _ = COUNTS.try_with(|cell| {
        let t = cell.as_ptr();
        // SAFETY: as in `note_alloc`.
        let fold_now = unsafe {
            (*t).frees += 1;
            (*t).live -= size as i64;
            if (*t).probes > 0 {
                (*t).probe_live -= size as i64;
            }
            (*t).live <= -(*t).fold_at
        };
        if fold_now {
            fold(cell);
        }
    });
}

/// Adds the thread's held-back counts to the process-wide totals.
#[cold]
fn fold(cell: &Cell<Counts>) {
    let mut t = cell.get();
    if t.folding == Folding::Fresh {
        t.folding = Folding::Armed;
        t.fold_at = FOLD_LIVE_BYTES as i64;
        cell.set(t);
        INSTALLED.store(true, Ordering::Relaxed);
        // Registering the destructor may allocate. That re-enters
        // `note_alloc`, which now only counts: the thread is armed.
        let _ = EXIT_FOLD.try_with(|_| ());
        t = cell.get();
    }
    let held = t;
    t.allocs = 0;
    t.frees = 0;
    t.bytes = 0;
    t.live = 0;
    cell.set(t);
    ALLOCS.fetch_add(held.allocs, Ordering::Relaxed);
    FREES.fetch_add(held.frees, Ordering::Relaxed);
    BYTES_TOTAL.fetch_add(held.bytes, Ordering::Relaxed);
    let live = BYTES_LIVE.fetch_add(held.live, Ordering::Relaxed) + held.live;
    if held.live > 0 {
        BYTES_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Folds the calling thread's held-back counts, if it has counted any.
pub(crate) fn flush() {
    COUNTS.with(|cell| {
        if cell.get().folding != Folding::Fresh {
            fold(cell);
        }
    });
}

/// Reads and updates the calling thread's counts. `f` works on a copy
/// that is written back whole, so it must not allocate: the allocator's
/// own update would be overwritten.
fn with_counts<R>(f: impl FnOnce(&mut Counts) -> R) -> R {
    COUNTS.with(|cell| {
        let mut t = cell.get();
        let out = f(&mut t);
        cell.set(t);
        out
    })
}

/// The tracking allocator. Zero-sized; delegates to [`System`].
pub struct TrackingAllocator;

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note_free(layout.size() as u64);
            note_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// True once the tracking allocator has counted an allocation — i.e.
/// the running binary installed [`TrackingAllocator`] as its
/// `#[global_allocator]`. (Rust allocates before `main`, so by the time
/// anyone asks, an installed wrapper has always fired.)
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// A point-in-time copy of the global allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Allocations observed (reallocs count once more).
    pub allocs: u64,
    /// Deallocations observed.
    pub frees: u64,
    /// Cumulative bytes allocated.
    pub bytes_total: u64,
    /// Bytes currently live (an estimate; see [`snapshot`]).
    pub bytes_live: u64,
    /// Peak live bytes (an estimate; see [`snapshot`]).
    pub bytes_peak: u64,
}

/// Folds the calling thread's counts, then reads the process-wide
/// totals. All zeros when the tracking allocator is not installed.
///
/// Counts are exact for every thread that has folded since its last
/// allocation. Live and peak bytes are within (threads that allocate) ×
/// [`FOLD_LIVE_BYTES`] of the truth; a live count that other threads'
/// held-back allocations leave below zero reads as 0.
pub fn snapshot() -> MemSnapshot {
    flush();
    let live = BYTES_LIVE.load(Ordering::Relaxed);
    let peak = BYTES_PEAK.load(Ordering::Relaxed);
    MemSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes_total: BYTES_TOTAL.load(Ordering::Relaxed),
        bytes_live: live.max(0) as u64,
        bytes_peak: peak.max(0) as u64,
    }
}

/// What a [`ThreadProbe`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Bytes allocated on this thread while the probe was open.
    pub bytes_allocated: u64,
    /// Peak net growth of this thread's live bytes over the probe
    /// window, clamped at zero.
    pub peak_live: u64,
}

/// Measures this thread's allocation activity between construction and
/// drop. Not `Send`: the numbers are meaningless off-thread.
///
/// Probes nest: an inner probe narrows the peak window to its own
/// lifetime and, on drop, folds its peak back into the enclosing
/// probe's window.
pub struct ThreadProbe {
    start_alloc: u64,
    start_live: i64,
    saved_peak: i64,
    _not_send: PhantomData<*const ()>,
}

/// Open a [`ThreadProbe`] on the current thread.
pub fn probe() -> ThreadProbe {
    with_counts(|t| {
        t.probes += 1;
        let saved_peak = std::mem::replace(&mut t.probe_peak, t.probe_live);
        ThreadProbe {
            start_alloc: t.probe_alloc,
            start_live: t.probe_live,
            saved_peak,
            _not_send: PhantomData,
        }
    })
}

impl ThreadProbe {
    /// What the probe has measured so far.
    pub fn stats(&self) -> ProbeStats {
        let t = COUNTS.with(Cell::get);
        ProbeStats {
            bytes_allocated: t.probe_alloc.saturating_sub(self.start_alloc),
            peak_live: (t.probe_peak.max(t.probe_live) - self.start_live).max(0) as u64,
        }
    }
}

impl Drop for ThreadProbe {
    fn drop(&mut self) {
        with_counts(|t| {
            t.probe_peak = t.probe_peak.max(self.saved_peak);
            t.probes = t.probes.saturating_sub(1);
        });
    }
}

/// Whether this thread has a [`ThreadProbe`] open, i.e. is attributing
/// its allocations.
pub(crate) fn probing() -> bool {
    COUNTS.with(Cell::get).probes > 0
}

/// A worker thread's tracked allocations, carried back to the thread
/// that handed it work (see [`crate::Handoff`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerMem {
    stats: ProbeStats,
    /// Net live-byte growth the worker leaves behind: what it allocated
    /// and did not free, typically the results it hands back.
    net_live: i64,
}

/// Closes a worker's probe, keeping what it measured for [`absorb`].
pub(crate) fn hand_back(probe: ThreadProbe) -> WorkerMem {
    WorkerMem {
        stats: probe.stats(),
        net_live: COUNTS.with(Cell::get).probe_live - probe.start_live,
    }
}

/// Folds a worker's allocations into this thread's counters as if the
/// worker's share had run here at this moment: its bytes add to the
/// cumulative count, its peak stacks on this thread's current live bytes,
/// and the bytes it left live become this thread's, so freeing them here
/// balances.
pub(crate) fn absorb(mem: WorkerMem) {
    with_counts(|t| {
        t.probe_alloc += mem.stats.bytes_allocated;
        t.probe_peak = t.probe_peak.max(t.probe_live + mem.stats.peak_live as i64);
        t.probe_live += mem.net_live;
    });
}

/// A fire-and-forget memory probe for instrumented spans: while the
/// guard lives it measures like [`probe`]; at drop it emits the bytes
/// allocated as a counter under `bytes_name` and the peak net-live
/// growth as a histogram observation under `peak_name`.
///
/// Inert (no probe, no emission) unless a recorder is installed *and*
/// the tracking allocator is live — see the module docs.
pub struct SpanMemGuard {
    probe: Option<ThreadProbe>,
    bytes_name: &'static str,
    peak_name: &'static str,
}

/// Open a [`SpanMemGuard`]. Construct it *inside* the span it measures
/// (after the [`crate::span`] guard) so its drop-time emissions are
/// attributed to that span.
pub fn span_mem(bytes_name: &'static str, peak_name: &'static str) -> SpanMemGuard {
    let probe = if crate::enabled() && installed() {
        Some(probe())
    } else {
        None
    };
    SpanMemGuard {
        probe,
        bytes_name,
        peak_name,
    }
}

impl Drop for SpanMemGuard {
    fn drop(&mut self) {
        if let Some(probe) = self.probe.take() {
            let stats = probe.stats();
            drop(probe);
            crate::counter(self.bytes_name, stats.bytes_allocated);
            crate::histogram(self.peak_name, stats.peak_live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Instant;

    // The chc-obs test binary runs under the tracking allocator so
    // these tests exercise the real alloc path.
    #[global_allocator]
    static TEST_ALLOC: TrackingAllocator = TrackingAllocator;

    #[test]
    fn global_counters_track_alloc_and_free() {
        let before = snapshot();
        assert!(installed(), "test binary installs the tracking allocator");
        let v: Vec<u8> = black_box(Vec::with_capacity(4096));
        let mid = snapshot();
        assert!(mid.allocs > before.allocs);
        assert!(mid.bytes_total >= before.bytes_total + 4096);
        assert!(mid.bytes_peak >= 4096);
        drop(v);
        let after = snapshot();
        assert!(after.frees > mid.frees);
    }

    #[test]
    fn probe_attributes_bytes_and_peak_to_the_thread() {
        let p = probe();
        let v: Vec<u8> = black_box(vec![0u8; 10_000]);
        let stats_live = p.stats();
        drop(v);
        let stats_after = p.stats();
        assert!(
            stats_live.bytes_allocated >= 10_000,
            "probe saw the allocation: {stats_live:?}"
        );
        assert!(stats_live.peak_live >= 10_000);
        // Freeing does not reduce cumulative bytes or the peak.
        assert!(stats_after.bytes_allocated >= stats_live.bytes_allocated);
        assert!(stats_after.peak_live >= 10_000);
    }

    #[test]
    fn nested_probe_narrows_then_folds_back_the_peak() {
        let outer = probe();
        {
            let big: Vec<u8> = black_box(vec![0u8; 50_000]);
            drop(big);
        }
        // Outer has seen a 50k peak; an inner probe must not inherit it.
        let inner = probe();
        let small: Vec<u8> = black_box(vec![0u8; 1_000]);
        let inner_stats = inner.stats();
        assert!(inner_stats.peak_live >= 1_000);
        assert!(
            inner_stats.peak_live < 50_000,
            "inner probe window excludes the outer peak: {inner_stats:?}"
        );
        drop(small);
        drop(inner);
        assert!(
            outer.stats().peak_live >= 50_000,
            "outer probe keeps its own peak after the inner closes"
        );
    }

    #[test]
    fn probe_that_only_frees_reports_zero_peak() {
        let v: Vec<u8> = black_box(vec![0u8; 8_192]);
        let p = probe();
        drop(v);
        let stats = p.stats();
        assert_eq!(stats.peak_live, 0);
    }

    #[test]
    fn other_threads_do_not_leak_into_a_probe() {
        let p = probe();
        std::thread::spawn(|| {
            let v: Vec<u8> = black_box(vec![0u8; 1 << 20]);
            black_box(v.len());
        })
        .join()
        .unwrap();
        let stats = p.stats();
        assert!(
            stats.bytes_allocated < 1 << 20,
            "megabyte allocated off-thread must not be attributed here: {stats:?}"
        );
    }

    #[test]
    fn span_mem_emits_bytes_and_peak_under_a_scoped_recorder() {
        let stats = std::sync::Arc::new(crate::StatsRecorder::new());
        {
            let _guard = crate::scoped(stats.clone());
            let mem = span_mem("mem.test.bytes", "mem.test.peak");
            let v: Vec<u8> = black_box(vec![0u8; 20_000]);
            black_box(v.len());
            drop(v);
            drop(mem);
        }
        assert!(
            stats.counter_value("mem.test.bytes") >= 20_000,
            "bytes counter records the allocation"
        );
        let peak = stats
            .histogram_summary("mem.test.peak")
            .expect("peak histogram recorded");
        assert_eq!(peak.count, 1);
        assert!(peak.max >= 20_000);
    }

    /// The allocator fast path (no probe open) must stay a few updates
    /// of one thread-local: pin it with the same style of smoke test the
    /// disabled recorder path uses. 200 ns per alloc+free pair is an
    /// order of magnitude above the expected cost, low enough to catch a
    /// lock or recorder dispatch sneaking into `alloc`.
    #[test]
    fn tracked_alloc_fast_path_is_cheap() {
        let iters: u32 = 200_000;
        // Warm up the allocator's size classes.
        for _ in 0..1_000 {
            black_box(Box::new(0u64));
        }
        let start = Instant::now();
        for i in 0..iters {
            black_box(Box::new(u64::from(i)));
        }
        let per_pair = start.elapsed().as_nanos() / u128::from(iters);
        assert!(
            per_pair < 200,
            "tracked alloc+free pair took {per_pair} ns (limit 200 ns)"
        );
    }
}
