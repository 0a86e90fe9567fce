//! Statistical span-stack sampling: a view of the journal on a timer.
//!
//! The trace view reads *every* span transition the journal's rings
//! still hold: exact, but the rings cap history. [`SpanSampler`] inverts
//! the trade-off: a background ticker wakes on a fixed interval, reads
//! every thread's *currently open* span path from a [`Journal`], and
//! folds the paths into stack counts. Long runs get statistical
//! flamegraphs at O(threads × depth) memory.
//!
//! The journal locks one thread's slot per read, so a sample can never
//! observe a torn stack: a thread is seen either before or after a
//! `span_exit`, never mid-pop. [`SpanSampler::stop`] signals the ticker
//! and joins it; every tick taken before the join is in the totals
//! (`samples() ==` sum of folded counts `+ idle()`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::journal::{lock, Journal, Ticker};

#[derive(Default)]
struct Counts {
    /// Folded stack → number of samples that observed it.
    folded: BTreeMap<String, u64>,
    /// Per-thread samples taken while the thread's stack was non-empty.
    busy: u64,
    /// Per-thread samples taken while the thread's stack was empty.
    idle: u64,
    /// Sampler wake-ups (one per interval, regardless of thread count).
    ticks: u64,
}

/// A background span-stack sampler; see the [module docs](self).
///
/// Construct with [`SpanSampler::start`] over the journal the run
/// records into, and call [`SpanSampler::stop`] before reading the
/// folded stacks. Dropping a running sampler also stops it.
pub struct SpanSampler {
    counts: Arc<Mutex<Counts>>,
    ticker: Ticker,
    interval: Duration,
}

impl SpanSampler {
    /// Starts sampling `journal` every `interval` (clamped to at least
    /// 10 µs so a zero interval cannot spin a core).
    pub fn start(journal: Arc<Journal>, interval: Duration) -> SpanSampler {
        let interval = interval.max(Duration::from_micros(10));
        let counts = Arc::new(Mutex::new(Counts::default()));
        let shared = Arc::clone(&counts);
        let mut path = String::new();
        let ticker = Ticker::start("chc-obs-sampler", interval, move || {
            let mut guard = lock(&shared);
            let c = &mut *guard;
            c.ticks += 1;
            journal.each_stack(|names| {
                path.clear();
                for name in names {
                    if !path.is_empty() {
                        path.push(';');
                    }
                    path.push_str(name);
                }
                if path.is_empty() {
                    c.idle += 1;
                    return;
                }
                c.busy += 1;
                // Looked up by `&str`: a path seen before allocates nothing.
                match c.folded.get_mut(path.as_str()) {
                    Some(count) => *count += 1,
                    None => {
                        c.folded.insert(path.clone(), 1);
                    }
                }
            });
            true
        });
        SpanSampler {
            counts,
            ticker,
            interval,
        }
    }

    /// The sampling interval the background thread sleeps between ticks.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Signals the sampling thread and joins it — promptly, even when
    /// the interval is long. Idempotent; after it returns, the folded
    /// counts are final and include every tick taken before the join.
    pub fn stop(&self) {
        self.ticker.stop();
    }

    /// Sampler wake-ups so far (one per interval elapsed).
    pub fn ticks(&self) -> u64 {
        lock(&self.counts).ticks
    }

    /// Total per-thread samples taken (busy + idle): each tick samples
    /// every thread the journal knows once.
    pub fn samples(&self) -> u64 {
        let c = lock(&self.counts);
        c.busy + c.idle
    }

    /// Per-thread samples that found an empty span stack.
    pub fn idle(&self) -> u64 {
        lock(&self.counts).idle
    }

    /// The sampled profile in folded-stack format — one
    /// `outer;inner <count>` line per distinct open-span path, sorted by
    /// path — ready for `inferno`/`flamegraph.pl`. Values are sample
    /// counts; multiply by [`SpanSampler::interval`] for wall time.
    pub fn to_folded_stacks(&self) -> String {
        lock(&self.counts)
            .folded
            .iter()
            .map(|(path, count)| format!("{path} {count}\n"))
            .collect()
    }

    /// The distinct sampled paths and their counts, hottest first.
    pub fn folded_counts(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = lock(&self.counts)
            .folded
            .iter()
            .map(|(p, &c)| (p.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder as _;
    use std::thread;

    fn started(interval: Duration) -> (Arc<Journal>, SpanSampler) {
        let journal = Arc::new(Journal::default());
        let sampler = SpanSampler::start(Arc::clone(&journal), interval);
        (journal, sampler)
    }

    #[test]
    fn clean_shutdown_joins_without_losing_samples() {
        let (journal, sampler) = started(Duration::from_micros(50));
        journal.span_enter("t.outer");
        journal.span_enter("t.inner");
        while sampler.ticks() < 20 {
            thread::sleep(Duration::from_micros(100));
        }
        journal.span_exit("t.inner", 1);
        journal.span_exit("t.outer", 1);
        sampler.stop();
        sampler.stop(); // idempotent
        let folded: u64 = sampler.folded_counts().iter().map(|&(_, c)| c).sum();
        assert_eq!(
            sampler.samples(),
            folded + sampler.idle(),
            "every sample is either in a folded stack or idle"
        );
        assert!(folded >= 20, "open spans must have been observed");
        let after = sampler.ticks();
        thread::sleep(Duration::from_millis(2));
        assert_eq!(sampler.ticks(), after, "no ticks after join");
        assert!(sampler
            .folded_counts()
            .iter()
            .any(|(p, _)| p == "t.outer;t.inner"));
    }

    #[test]
    fn sampling_mid_span_exit_never_tears_a_stack() {
        let (journal, sampler) = started(Duration::from_micros(20));
        let worker = thread::spawn(move || {
            for _ in 0..20_000 {
                journal.span_enter("t.a");
                journal.span_enter("t.b");
                journal.span_exit("t.b", 1);
                // Exit out of order once in a while: close t.a with
                // t.c still open; the stack must stay well-formed.
                journal.span_enter("t.c");
                journal.span_exit("t.a", 1);
            }
        });
        worker.join().expect("worker");
        sampler.stop();
        let folded = sampler.to_folded_stacks();
        for line in folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("`path count` shape");
            assert!(!path.is_empty() && !path.starts_with(';') && !path.ends_with(';'));
            assert!(!path.contains(";;"), "torn stack in {line:?}");
            count.parse::<u64>().expect("count is a number");
            for frame in path.split(';') {
                assert!(
                    ["t.a", "t.b", "t.c"].contains(&frame),
                    "unknown frame in {line:?}"
                );
            }
        }
    }

    #[test]
    fn stop_returns_promptly_even_with_a_long_interval() {
        let (journal, sampler) = started(Duration::from_secs(3600));
        journal.span_enter("t.x");
        let start = std::time::Instant::now();
        sampler.stop();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stop must wake the sleeping thread, not wait out the interval"
        );
    }

    #[test]
    fn tracks_threads_independently() {
        let (journal, sampler) = started(Duration::from_micros(50));
        journal.span_enter("t.main");
        let other = {
            let journal = Arc::clone(&journal);
            thread::spawn(move || {
                journal.span_enter("t.worker");
                thread::sleep(Duration::from_millis(5));
                journal.span_exit("t.worker", 1);
            })
        };
        thread::sleep(Duration::from_millis(5));
        other.join().expect("worker");
        journal.span_exit("t.main", 1);
        sampler.stop();
        let paths: Vec<String> = sampler
            .folded_counts()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert!(paths.iter().any(|p| p == "t.main"), "main thread sampled");
        assert!(paths.iter().any(|p| p == "t.worker"), "worker sampled");
        assert!(
            !paths.iter().any(|p| p.contains("t.main;t.worker")),
            "stacks never bleed across threads"
        );
    }
}
