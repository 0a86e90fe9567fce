//! `perfbench`: the repository's benchmark. It times the real `chc`
//! binary and the `excuses` libraries on seeded workloads, checks every
//! output against the generators' ground truth, and, in a separate traced
//! run, splits the time by layer. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.

pub mod args;
pub mod bench;
pub mod inputs;
pub mod metrics;
pub mod oracle;
pub mod proc;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traced;

use std::process::ExitCode;

use crate::args::Request;
use crate::bench::{RunDir, Stop, Tally};
use crate::inputs::{Recorded, SdlPair, ServeSchema, SERVE_OPS_PER_ROUND};
use crate::metrics::{END_TO_END, PER_LAYER};

/// Runs the benchmark as the command line asks. `traced_build` tells
/// whether this binary carries the tracking allocator; only that build
/// may run `--trace 1`, and only the other may run `--trace 0`.
pub fn main_entry(traced_build: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(Request::Run(a)) => a,
        Ok(Request::Record { first, last }) => {
            print!("{}", record(first, last));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_build {
        eprintln!(
            "perfbench: --trace {} needs the {} build",
            u8::from(args.trace),
            if args.trace { "traced" } else { "untraced" }
        );
        return ExitCode::from(2);
    }
    let recorded = Recorded::builtin();
    let mut tally = Tally::default();
    let result = RunDir::create(&args).and_then(|dir| {
        if args.trace {
            traced::run(&args, dir.path(), &recorded, &mut tally)
        } else {
            bench::timed(&args, dir.path(), &recorded, &mut tally)
        }
    });
    for why in &tally.reasons {
        eprintln!("perfbench: FAILED {why}");
    }
    match result {
        Ok(outcome) => {
            let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
            if let Some((name, v)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
                eprintln!("perfbench: metric {name} is not a number ({v})");
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.to_json(catalogue));
            ExitCode::SUCCESS
        }
        Err(Stop::Refused(why)) => {
            eprintln!("perfbench: refused, inputs differ from the record: {why}");
            ExitCode::from(3)
        }
        Err(Stop::Broken(why)) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// `digests.tsv` lines for seeds `first..=last` of both input groups,
/// with the serve verdict counts of one round.
fn record(first: u64, last: u64) -> String {
    let mut out = String::new();
    let serve = ServeSchema::generate();
    for seed in first..=last {
        out.push_str(&Recorded::lines(
            "sdl-pair",
            seed,
            &SdlPair::generate(seed).digests(),
        ));
        let mut entries = serve.digests(seed);
        let target =
            serve::build_target(&serve.schema, seed).expect("the serve schema virtualizes");
        let round = serve::run_round(
            &target,
            &serve::op_generator(seed),
            SERVE_OPS_PER_ROUND,
            |_, f| f(),
        );
        assert_eq!(round.failed, 0, "seed {seed}: {:?}", round.reasons);
        entries.extend(round.verdict_entries());
        out.push_str(&Recorded::lines("serve", seed, &entries));
    }
    out
}
