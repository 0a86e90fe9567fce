//! Per-class sharding of schema-wide work over scoped threads.
//!
//! A class's raw findings depend on the schema and the class alone
//! ([`crate::check::check_class`]), and so do its incoherent sites
//! ([`crate::sat::incoherent_sites`]), so classes may be visited on any
//! thread in any order. [`map_classes`] puts the results back in input
//! order, which keeps a report byte-identical to a one-thread run.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use chc_model::ClassId;

/// Classes a worker claims at a time from the shared cursor: small, so
/// a block holding an expensive join point does not leave the other
/// workers idle at the end.
const BLOCK: usize = 8;

/// Classes per worker below which another thread costs more to start
/// than it saves.
const MIN_CLASSES_PER_WORKER: usize = 32;

/// One worker per core the process may use.
pub(crate) fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// `f` applied to each of `classes` on up to `workers` threads, the
/// results in input order.
///
/// The calling thread is one of the workers. The others are scoped
/// threads entered through [`chc_obs::handoff`], so their counters,
/// labels and allocations land where the caller's would. Each worker
/// opens one span named `span` (`check.shard`, `sat.shard`) and claims
/// [`BLOCK`] classes at a time from an atomic cursor. When one worker is
/// asked for, or the list is too short to pay for a thread, no thread
/// starts and the calling thread runs the same loop alone. A panic in
/// any worker resumes on the calling thread with its original payload.
pub(crate) fn map_classes<T, F>(
    classes: &[ClassId],
    workers: usize,
    span: &'static str,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(ClassId) -> T + Sync,
{
    let workers = workers.min(classes.len() / MIN_CLASSES_PER_WORKER).max(1);
    let cursor = AtomicUsize::new(0);
    let share = || {
        let _span = chc_obs::span(span);
        let mut blocks = Vec::new();
        loop {
            let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
            if start >= classes.len() {
                return blocks;
            }
            let block = &classes[start..(start + BLOCK).min(classes.len())];
            blocks.push((start, block.iter().map(|&c| f(c)).collect::<Vec<T>>()));
        }
    };
    let context = chc_obs::handoff();
    let (mut blocks, panic) = thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| s.spawn(|| context.run(share)))
            .collect();
        let mut blocks = share();
        let mut panic = None;
        // Join every handle by hand: a handle left to `thread::scope`
        // re-panics with a generic message in place of the worker's.
        for handle in handles {
            match handle.join() {
                Ok(worked) => blocks.extend(worked.join()),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        (blocks, panic)
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    blocks.sort_unstable_by_key(|&(start, _)| start);
    blocks
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn ids(n: u32) -> Vec<ClassId> {
        (0..n).map(ClassId::from_raw).collect()
    }

    #[test]
    fn results_come_back_in_input_order_for_any_worker_count() {
        let classes = ids(500);
        let expected: Vec<u32> = (0..500).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 8] {
            let got = map_classes(&classes, workers, "t.shard", |c| c.index() as u32 * 3);
            assert_eq!(got, expected, "{workers} workers");
        }
        assert!(map_classes(&[], 4, "t.shard", |c| c).is_empty());
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let classes = ids(400);
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        };
        // On the calling thread, the one-worker path.
        let caught = std::panic::catch_unwind(|| {
            map_classes(&classes, 1, "t.shard", |c| {
                if c.index() == 257 {
                    panic!("class {} is broken", c.index());
                }
                c
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(message(caught).as_deref(), Some("class 257 is broken"));
        // On a spawned worker: the calling thread holds its first class
        // until a worker has claimed a block, and every class a worker
        // claims panics.
        let caller = thread::current().id();
        let claimed = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(|| {
            map_classes(&classes, 4, "t.shard", |c| {
                if thread::current().id() != caller {
                    claimed.store(true, Ordering::SeqCst);
                    panic!("a worker broke");
                }
                while !claimed.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                c
            })
        })
        .expect_err("the panic propagates");
        assert_eq!(message(caught).as_deref(), Some("a worker broke"));
    }
}
