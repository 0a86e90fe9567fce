//! The `serve` workload: the run-time half of the paper (§5.2 validation,
//! §5.4 check-eliminated queries, extents) in process, with no SDL and no
//! schema check on the path.
//!
//! One worker thread runs a closed loop over a fixed operation count per
//! round. Each round builds a fresh target and replays the same
//! operations, so every round must reach the same per-kind verdicts.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use chc_model::Schema;
use chc_workloads::{LibraryTarget, MixSpec, OpGenerator, OpKind, Target, TargetOptions};

use crate::inputs::{serve_stream_seed, SERVE_PER_CLASS};

/// The operation stream: `chc load`'s default mix
/// (validate=70, query=20, insert=9, evolve=1).
pub fn op_generator(seed: u64) -> OpGenerator {
    OpGenerator::new(serve_stream_seed(seed), MixSpec::default())
}

/// Virtualizes and populates `schema` into a target, as `chc load` does.
pub fn build_target(schema: &Schema, seed: u64) -> Result<LibraryTarget, String> {
    LibraryTarget::from_schema(
        schema,
        SERVE_PER_CLASS,
        serve_stream_seed(seed),
        TargetOptions::default(),
    )
}

/// Index of `kind` in [`OpKind::ALL`] order.
pub fn kind_index(kind: OpKind) -> usize {
    OpKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is listed")
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Per-kind latencies in nanoseconds, in [`OpKind::ALL`] order.
    pub latency_ns: [Vec<f64>; 4],
    /// Per-kind `[ok, violating]` verdict counts.
    pub verdicts: [[u64; 2]; 4],
    /// Per-kind sum of the target's work figure (rows scanned by queries).
    pub work: [u64; 4],
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations, with the first few reasons.
    pub failed: u64,
    /// Up to a few failure reasons.
    pub reasons: Vec<String>,
    /// Wall time of the operation loop alone.
    pub wall: Duration,
}

impl Round {
    /// The verdict counts as digest entries (`verdict.<kind>.ok|violating`).
    pub fn verdict_entries(&self) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for k in OpKind::ALL {
            let [ok, bad] = self.verdicts[kind_index(k)];
            out.insert(format!("verdict.{}.ok", k.name()), ok.to_string());
            out.insert(format!("verdict.{}.violating", k.name()), bad.to_string());
        }
        out
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(why);
        }
    }
}

/// Runs operations `0..ops` of `gen` against `target`, timing each
/// `Target::run` call. `around` wraps every call (the traced run puts a
/// span there). A panic, or a query or insert that does not return ok, is
/// a failure; a violating validate or evolve verdict is a result.
pub fn run_round(
    target: &LibraryTarget,
    gen: &OpGenerator,
    ops: u64,
    mut around: impl FnMut(OpKind, &mut dyn FnMut()),
) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    for i in 0..ops {
        let op = gen.op_at(i);
        let k = kind_index(op.kind);
        let mut outcome = None;
        let t0 = Instant::now();
        around(op.kind, &mut || {
            outcome = Some(catch_unwind(AssertUnwindSafe(|| target.run(&op))));
        });
        let dt = t0.elapsed();
        round.attempted += 1;
        match outcome {
            Some(Ok(out)) => {
                round.latency_ns[k].push(dt.as_nanos() as f64);
                round.verdicts[k][usize::from(!out.ok)] += 1;
                round.work[k] += out.work;
                if !out.ok && matches!(op.kind, OpKind::Query | OpKind::Insert) {
                    round.fail(format!("op {i}: {} returned not-ok", op.kind.name()));
                }
            }
            Some(Err(_)) => round.fail(format!("op {i}: {} panicked", op.kind.name())),
            None => round.fail(format!("op {i}: {} was not run", op.kind.name())),
        }
    }
    round.wall = start.elapsed();
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::hierarchy;

    #[test]
    fn rounds_repeat_their_verdicts_exactly() {
        let schema = hierarchy(40).schema;
        let gen = op_generator(3);
        let a = run_round(&build_target(&schema, 3).unwrap(), &gen, 2_000, |_, f| f());
        let b = run_round(&build_target(&schema, 3).unwrap(), &gen, 2_000, |_, f| f());
        assert_eq!(a.failed, 0, "{:?}", a.reasons);
        assert_eq!(a.attempted, 2_000);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.verdict_entries().len(), 8);
        let ran: usize = a.latency_ns.iter().map(Vec::len).sum();
        assert_eq!(ran, 2_000);
    }
}
