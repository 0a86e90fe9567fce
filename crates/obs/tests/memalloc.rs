//! The tracking allocator's per-thread counts against the process-wide
//! totals: what a fold makes exact, and how far the live and peak
//! estimates may drift.
//!
//! Its own test binary, under the tracking allocator, with the tests
//! run one at a time: the global counters are shared by every thread in
//! the process, so a concurrently running test would move them.

use std::hint::black_box;
use std::sync::{mpsc, Barrier, Mutex};
use std::thread;

use chc_obs::memalloc::{self, TrackingAllocator, FOLD_LIVE_BYTES};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn a_buffer_freed_off_its_allocating_thread_keeps_the_live_count_sane() {
    let _serial = serial();
    // Under the fold threshold, so the worker holds the allocation back.
    const BYTES: usize = (FOLD_LIVE_BYTES as usize) * 7 / 8;
    let (send, recv) = mpsc::channel();
    let release = Barrier::new(2);
    let mid = thread::scope(|s| {
        s.spawn(|| {
            send.send(black_box(vec![0u8; BYTES])).unwrap();
            // Stay alive, holding the allocation back, while the caller
            // frees the buffer and folds the free.
            release.wait();
        });
        let buffer = recv.recv().unwrap();
        drop(buffer);
        let mid = memalloc::snapshot();
        release.wait();
        mid
    });
    assert!(
        mid.bytes_live < 1 << 40,
        "a free the allocating thread has not folded must not wrap the live count: {mid:?}"
    );
    assert!(mid.bytes_peak >= mid.bytes_live, "{mid:?}");
    let after = memalloc::snapshot();
    assert!(after.bytes_live < 1 << 40, "{after:?}");
    assert!(after.bytes_peak >= after.bytes_live, "{after:?}");
}

#[test]
fn a_joined_workers_bytes_show_in_the_snapshot() {
    let _serial = serial();
    // Below every fold threshold: only the thread-exit fold reports it.
    const BYTES: usize = 4 << 10;
    let before = memalloc::snapshot();
    thread::spawn(|| black_box(vec![0u8; BYTES]).len())
        .join()
        .unwrap();
    let after = memalloc::snapshot();
    assert!(
        after.bytes_total >= before.bytes_total + BYTES as u64,
        "the worker's bytes: {before:?} -> {after:?}"
    );
    assert!(after.allocs > before.allocs);
    assert!(after.frees > before.frees);
}

#[test]
fn the_global_peak_is_within_the_fold_bound() {
    let _serial = serial();
    const WORKERS: usize = 4;
    const CHUNK: usize = 16 << 10;
    const CHUNKS: usize = 256; // 4 MiB per worker
    const HELD: u64 = (WORKERS * CHUNKS * CHUNK) as u64;
    // Threads that may hold counts back: the workers, this thread, and
    // the test harness's main thread.
    let bound = (WORKERS as u64 + 2) * FOLD_LIVE_BYTES;
    let before = memalloc::snapshot();
    let all_holding = Barrier::new(WORKERS + 1);
    let released = Barrier::new(WORKERS + 1);
    let held = thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                let chunks: Vec<Vec<u8>> =
                    (0..CHUNKS).map(|_| black_box(vec![0u8; CHUNK])).collect();
                all_holding.wait();
                released.wait();
                drop(chunks);
            });
        }
        all_holding.wait();
        let held = memalloc::snapshot();
        released.wait();
        held
    });
    let after = memalloc::snapshot();
    // The true peak is at least what the workers held at once, and the
    // readings before and while they held it were each within the bound.
    assert!(
        held.bytes_live + 2 * bound >= before.bytes_live + HELD,
        "live while held: {} vs {} + {HELD} (bound {bound})",
        held.bytes_live,
        before.bytes_live,
    );
    assert!(
        after.bytes_peak + bound >= HELD,
        "peak {} vs the {HELD} held (bound {bound})",
        after.bytes_peak
    );
    // Nor did any reading overshoot the truth by more than the bound;
    // the base reading carries the same error, hence twice the bound.
    assert!(
        after.bytes_peak <= before.bytes_peak.max(before.bytes_live + HELD + 2 * bound),
        "peak {} overshoots {before:?} + {HELD} (bound {bound})",
        after.bytes_peak
    );
    assert!(after.bytes_peak >= after.bytes_live, "{after:?}");
}
