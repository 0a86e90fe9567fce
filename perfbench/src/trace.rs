//! Spans recorded from the benchmark's own code around its calls into
//! each layer: name, start, end, parent span and iteration. Spans stay in
//! memory and are written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`sdl.compile` →
//! `sdl`). Its self time is its duration minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The iteration this span belongs to; one iteration's spans share it.
    pub iteration: u64,
    /// Spans between this one and `end_index` are its descendants.
    pub end_index: usize,
}

impl Span {
    /// End minus start.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A single-threaded span recorder. A disabled tracer runs the same
/// closures and records nothing, which is how the traced run measures
/// its own overhead.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u64,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
            enabled: true,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Tags the spans that follow with `iteration`.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns `f`'s result. The
    /// span gets index [`Tracer::next_index`] as read just before.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            end_index: idx + 1,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].end_index = self.spans.len();
        out
    }

    /// The index the next span will get.
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indices of `root` and every span below it.
    pub fn subtree(&self, root: usize) -> std::ops::Range<usize> {
        root..self.spans[root].end_index
    }

    /// Self time of every span in `root`'s subtree, indexed from `root`.
    fn self_times(&self, root: usize) -> Vec<u64> {
        let range = self.subtree(root);
        let mut own: Vec<u64> = range.clone().map(|i| self.spans[i].dur_ns()).collect();
        for i in range.clone().skip(1) {
            let p = self.spans[i].parent.expect("a descendant has a parent");
            own[p - root] = own[p - root].saturating_sub(self.spans[i].dur_ns());
        }
        own
    }

    /// Self time per layer over the subtree of `root`. The values sum to
    /// `root`'s duration.
    pub fn layer_self_ns(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, own) in self.subtree(root).zip(self.self_times(root)) {
            *out.entry(self.spans[i].layer()).or_insert(0) += own;
        }
        out
    }

    /// Durations of the spans named `name` in `root`'s subtree.
    pub fn durations_below(&self, root: usize, name: &str) -> Vec<u64> {
        self.subtree(root)
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.spans[i].dur_ns())
            .collect()
    }

    /// The spans as JSON lines, with each span's self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut own = vec![0; self.spans.len()];
        let mut i = 0;
        while i < self.spans.len() {
            let r = self.subtree(i);
            own[r.clone()].copy_from_slice(&self.self_times(i));
            i = r.end;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"iteration\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                own[i],
                s.iteration
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_by_layer_sum_to_the_root() {
        let mut t = Tracer::new();
        t.set_iteration(4);
        let v = t.span("cli.check", |t| {
            spin(200_000);
            t.span("sdl.compile", |t| {
                spin(300_000);
                t.span("sdl.lex", |_| spin(100_000));
            });
            t.span("core.check", |_| spin(400_000));
            7
        });
        assert_eq!(v, 7);
        let root = 0;
        let layers = t.layer_self_ns(root);
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["cli", "core", "sdl"]
        );
        assert_eq!(layers.values().sum::<u64>(), t.spans()[root].dur_ns());
        assert!(layers["sdl"] >= 400_000 && layers["core"] >= 400_000);
        assert_eq!(t.durations_below(root, "sdl.lex").len(), 1);
        assert!(t.spans().iter().all(|s| s.iteration == 4));
        assert_eq!(t.spans()[2].parent, Some(1));
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.contains("\"name\":\"sdl.lex\"") && lines.contains("\"parent\":1"));
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("cli.check", |t| t.span("core.check", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
