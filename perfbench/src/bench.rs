//! Set-up and the timed runs (`--trace 0`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::args::{Args, Workload};
use crate::inputs::{Recorded, SdlPair, ServeSchema, CLEAN_SDL, FAULTY_SDL, SERVE_OPS_PER_ROUND};
use crate::metrics::Outcome;
use crate::oracle::{self, LineMap, Sources};
use crate::proc::{self, Run};
use crate::serve::{self, Round};
use crate::stats::median;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Timed iterations (CLI) or rounds (serve) a run makes at least, even
/// when `--seconds` runs out first.
pub const MIN_ITERATIONS: usize = 3;
/// A `chc` process running longer than this is killed and failed.
pub const CHC_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a run produced no result.
#[derive(Debug)]
pub enum Stop {
    /// The inputs differ from the recorded digests: nothing was timed.
    Refused(String),
    /// The benchmark itself could not run (I/O, a missing binary).
    Broken(String),
}

/// A per-run scratch directory under `--work`, removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `<work>/<workload>-<seed>-<pid>`.
    pub fn create(args: &Args) -> Result<RunDir, Stop> {
        let path = args.work.join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| Stop::Broken(format!("{}: {e}", path.display())))?;
        Ok(RunDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counts attempts and failures, keeping the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Attempted commands or operations.
    pub attempted: u64,
    /// Failed ones.
    pub failed: u64,
    /// The first few failure reasons, for stderr.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one attempt and its verdict.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.fail(format!("{what}: {why}"));
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(why);
        }
    }

    /// Folds a serve round's accounting in.
    pub fn add_round(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        for r in &round.reasons {
            if self.reasons.len() < 10 {
                self.reasons.push(r.clone());
            }
        }
    }
}

/// Checks `observed` against the record for `(group, seed)`. A seed with
/// no record is checked through the group's canary seed instead, whose
/// inputs `canary` regenerates: the generators must still produce
/// exactly what was recorded.
pub fn verify_inputs(
    recorded: &Recorded,
    group: &str,
    seed: u64,
    observed: &BTreeMap<String, String>,
    canary: impl FnOnce(u64) -> BTreeMap<String, String>,
) -> Result<(), Stop> {
    if recorded.has(group, seed) {
        return recorded
            .verify(group, seed, observed)
            .map_err(Stop::Refused);
    }
    let c = recorded
        .canary(group)
        .ok_or_else(|| Stop::Refused(format!("no recorded digests for {group}")))?;
    recorded
        .verify(group, c, &canary(c))
        .map_err(Stop::Refused)?;
    eprint!(
        "perfbench: seed {seed} is unrecorded; canary seed {c} matches. Its digests:\n{}",
        Recorded::lines(group, seed, observed)
    );
    Ok(())
}

/// The generated SDL pair, written into the run directory.
pub struct SdlSetup {
    /// The pair and its ground truth.
    pub pair: SdlPair,
    /// Line maps of both files, for locating lint findings.
    pub sources: Sources,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
}

/// Generates and writes the pair [`SETUP_REPS`] times, refusing when a
/// repetition or the record disagrees.
pub fn setup_sdl(dir: &Path, seed: u64, recorded: &Recorded) -> Result<SdlSetup, Stop> {
    let mut setup_s = Vec::new();
    let mut last: Option<SdlPair> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let pair = SdlPair::generate(seed);
        for (name, text) in [(CLEAN_SDL, &pair.clean), (FAULTY_SDL, &pair.faulty)] {
            std::fs::write(dir.join(name), text)
                .map_err(|e| Stop::Broken(format!("{name}: {e}")))?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.digests() != pair.digests() {
                return Err(Stop::Refused("set-up is not deterministic".into()));
            }
        }
        last = Some(pair);
    }
    let pair = last.expect("at least one set-up");
    verify_inputs(recorded, "sdl-pair", seed, &pair.digests(), |c| {
        SdlPair::generate(c).digests()
    })?;
    let sources = Sources {
        clean: LineMap::new(&pair.clean),
        faulty: LineMap::new(&pair.faulty),
    };
    Ok(SdlSetup {
        pair,
        sources,
        setup_s,
    })
}

/// The CLI commands of the `check` and `analyze` workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// `chc check f.sdl`.
    Check,
    /// `chc check --incremental --since c.sdl f.sdl`.
    Recheck,
    /// `chc lint f.sdl`.
    Lint,
    /// `chc diff c.sdl f.sdl`.
    Diff,
}

impl Cmd {
    /// A workload's two commands: the verdict, then the update.
    pub fn of(w: Workload) -> [Cmd; 2] {
        match w {
            Workload::Check => [Cmd::Check, Cmd::Recheck],
            Workload::Analyze => [Cmd::Lint, Cmd::Diff],
            Workload::Serve => unreachable!("serve runs no CLI command"),
        }
    }

    /// `chc`'s arguments.
    pub fn args(self) -> &'static [&'static str] {
        match self {
            Cmd::Check => &["check", FAULTY_SDL],
            Cmd::Recheck => &["check", "--incremental", "--since", CLEAN_SDL, FAULTY_SDL],
            Cmd::Lint => &["lint", FAULTY_SDL],
            Cmd::Diff => &["diff", CLEAN_SDL, FAULTY_SDL],
        }
    }

    /// Short name, as in the `cli.<name>_ms` metric.
    pub fn name(self) -> &'static str {
        match self {
            Cmd::Check => "check",
            Cmd::Recheck => "recheck",
            Cmd::Lint => "lint",
            Cmd::Diff => "diff",
        }
    }

    /// Spawns the command in `dir`.
    pub fn spawn(self, chc: &Path, dir: &Path, extra: &[&str]) -> Result<Run, Stop> {
        let mut argv: Vec<&str> = extra.to_vec();
        argv.extend_from_slice(self.args());
        proc::run(chc, &argv, dir, CHC_TIMEOUT)
            .map_err(|e| Stop::Broken(format!("spawning {}: {e}", chc.display())))
    }

    /// The oracle's verdict on `run`; `first` is the same iteration's
    /// earlier command (the full check, for [`Cmd::Recheck`]).
    pub fn judge(self, run: &Run, first: Option<&Run>, setup: &SdlSetup) -> Result<(), String> {
        let truth = &setup.pair.truth;
        match self {
            Cmd::Check => oracle::check(run, truth),
            Cmd::Recheck => oracle::recheck(run, first.expect("the full check ran first")),
            Cmd::Lint => oracle::lint(run, truth, &setup.sources),
            Cmd::Diff => oracle::diff(run, truth, &setup.sources),
        }
    }
}

/// Runs one iteration: both commands, in order, each judged.
pub fn cli_iteration(
    args: &Args,
    dir: &Path,
    setup: &SdlSetup,
    tally: &mut Tally,
) -> Result<[Run; 2], Stop> {
    let [a, b] = Cmd::of(args.workload);
    let first = a.spawn(&args.chc, dir, &[])?;
    tally.record(a.name(), a.judge(&first, None, setup));
    let second = b.spawn(&args.chc, dir, &[])?;
    tally.record(b.name(), b.judge(&second, Some(&first), setup));
    Ok([first, second])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The timed run of `check` or `analyze`.
fn timed_cli(
    args: &Args,
    dir: &Path,
    recorded: &Recorded,
    tally: &mut Tally,
) -> Result<Outcome, Stop> {
    let setup = setup_sdl(dir, args.seed, recorded)?;
    // One untimed iteration warms the page cache and the binary.
    cli_iteration(args, dir, &setup, tally)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut first, mut second, mut both) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_kb = 0u64;
    while first.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let [a, b] = cli_iteration(args, dir, &setup, tally)?;
        rss_kb = rss_kb.max(a.max_rss_kb).max(b.max_rss_kb);
        first.push(ms(a.wall));
        second.push(ms(b.wall));
        both.push((a.wall + b.wall).as_secs_f64());
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s", median(&setup.setup_s).expect("set-ups ran")),
            ("verdict_p50_ms", median(&first).expect("iterations ran")),
            ("update_p50_ms", median(&second).expect("iterations ran")),
            ("iters_per_s", 1.0 / median(&both).expect("iterations ran")),
            ("peak_rss_mb", rss_kb as f64 / 1024.0),
        ],
    })
}

/// Generates the serve schema and checks it and the op stream against
/// the record.
pub fn serve_inputs(seed: u64, recorded: &Recorded) -> Result<ServeSchema, Stop> {
    let serve = ServeSchema::generate();
    verify_inputs(recorded, "serve", seed, &serve.digests(seed), |c| {
        ServeSchema::generate().digests(c)
    })?;
    Ok(serve)
}

/// Checks a round's verdict counts: against the first round of the run,
/// and against the record when the seed has one.
pub fn judge_round(
    round: &Round,
    first: Option<&Round>,
    recorded: &Recorded,
    seed: u64,
    tally: &mut Tally,
) {
    let verdicts = round.verdict_entries();
    let verdict = match first {
        Some(f) if f.verdicts != round.verdicts => Err(format!(
            "verdicts {:?} differ from the first round's {:?}",
            round.verdicts, f.verdicts
        )),
        _ if recorded.has("serve", seed) => recorded.verify("serve", seed, &verdicts),
        _ => Ok(()),
    };
    tally.record("serve round verdicts", verdict);
}

/// The timed run of `serve`: rounds of [`SERVE_OPS_PER_ROUND`] operations,
/// each on a freshly built target (one set-up sample per round).
fn timed_serve(args: &Args, recorded: &Recorded, tally: &mut Tally) -> Result<Outcome, Stop> {
    let ops = serve::op_generator(args.seed);
    serve_inputs(args.seed, recorded)?;
    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut first_round_rss_kb = 0;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // Round 0 warms up and is not timed.
    while rounds.len() <= MIN_ITERATIONS || Instant::now() < deadline {
        let t = Instant::now();
        let schema = ServeSchema::generate();
        let target = serve::build_target(&schema.schema, args.seed).map_err(Stop::Broken)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let round = serve::run_round(&target, &ops, SERVE_OPS_PER_ROUND, |_, f| f());
        tally.add_round(&round);
        judge_round(&round, rounds.first(), recorded, args.seed, tally);
        if rounds.is_empty() {
            // Later rounds rebuild the target and the heap creeps up a
            // little each time, so the peak is read once, after the first
            // set-up and round, where it does not depend on run length.
            first_round_rss_kb = proc::self_peak_rss_kb();
        }
        rounds.push(round);
    }
    let timed = &rounds[1..];
    let pooled = |kinds: &[usize]| -> Vec<f64> {
        timed
            .iter()
            .flat_map(|r| {
                kinds
                    .iter()
                    .flat_map(move |&k| r.latency_ns[k].iter().copied())
            })
            .collect()
    };
    let busy: f64 = timed.iter().map(|r| r.wall.as_secs_f64()).sum();
    let done: u64 = timed.iter().map(|r| r.attempted).sum();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s", median(&setup_s).expect("set-ups ran")),
            (
                "verdict_p50_ms",
                median(&pooled(&[0, 1])).unwrap_or(0.0) / 1e6,
            ),
            (
                "update_p50_ms",
                median(&pooled(&[2, 3])).unwrap_or(0.0) / 1e6,
            ),
            ("iters_per_s", done as f64 / busy),
            ("peak_rss_mb", first_round_rss_kb as f64 / 1024.0),
        ],
    })
}

/// One timed run of `args.workload`.
pub fn timed(
    args: &Args,
    dir: &Path,
    recorded: &Recorded,
    tally: &mut Tally,
) -> Result<Outcome, Stop> {
    match args.workload {
        Workload::Check | Workload::Analyze => timed_cli(args, dir, recorded, tally),
        Workload::Serve => timed_serve(args, recorded, tally),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(lines: &str) -> Recorded {
        Recorded::parse(lines).unwrap()
    }

    #[test]
    fn a_digest_mismatch_refuses_the_run() {
        let pair = SdlPair::generate_sized(60, 1);
        let observed = pair.digests();
        let good = Recorded::lines("sdl-pair", 1, &observed);
        assert!(verify_inputs(&table(&good), "sdl-pair", 1, &observed, |_| unreachable!()).is_ok());
        let tampered = good.replace(&observed["f.sdl"], "0000000000000000");
        let refused = verify_inputs(
            &table(&tampered),
            "sdl-pair",
            1,
            &observed,
            |_| unreachable!(),
        );
        assert!(matches!(refused, Err(Stop::Refused(why)) if why.contains("f.sdl")));
        // An unrecorded seed is checked through the canary seed instead.
        let canary_ok = verify_inputs(&table(&good), "sdl-pair", 2, &observed, |c| {
            assert_eq!(c, 1);
            SdlPair::generate_sized(60, 1).digests()
        });
        assert!(canary_ok.is_ok());
        let canary_bad = verify_inputs(&table(&tampered), "sdl-pair", 2, &observed, |_| {
            pair.digests()
        });
        assert!(matches!(canary_bad, Err(Stop::Refused(_))));
        assert!(matches!(
            verify_inputs(&Recorded::default(), "serve", 0, &observed, |_| {
                BTreeMap::new()
            }),
            Err(Stop::Refused(_))
        ));
    }
}
