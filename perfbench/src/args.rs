//! Command-line arguments.

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `chc check` and `chc check --incremental` on the faulty schema.
    Check,
    /// `chc lint` and `chc diff` on the same pair.
    Analyze,
    /// In-process validate/query/insert/evolve against a populated store.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Check, Workload::Analyze, Workload::Serve];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Check => "check",
            Workload::Analyze => "analyze",
            Workload::Serve => "serve",
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Run the traced, per-layer measurement instead of the timed one.
    pub trace: bool,
    /// The `chc` binary under test.
    pub chc: PathBuf,
    /// A scratch directory for generated inputs and outputs.
    pub work: PathBuf,
}

/// What the command line asks for.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run one measurement.
    Run(Args),
    /// Print `digests.tsv` lines for seeds `first..=last`.
    Record {
        /// First seed.
        first: u64,
        /// Last seed.
        last: u64,
    },
}

/// The usage line.
pub const USAGE: &str = "usage: perfbench --workload check|analyze|serve --seed N --seconds S \
     --trace 0|1 --chc PATH --work DIR\n       perfbench --record-digests FIRST..LAST";

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Request, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut chc = None;
    let mut work = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?.max(1)),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                })
            }
            "--chc" => chc = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--record-digests" => {
                let v = value()?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or("--record-digests takes FIRST..LAST")?;
                return Ok(Request::Record {
                    first: number(a)?,
                    last: number(b)?,
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Request::Run(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        chc: chc.ok_or_else(|| missing("--chc"))?,
        work: work.ok_or_else(|| missing("--work"))?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_run_and_rejects_bad_input() {
        let Request::Run(a) = parse(&argv(
            "--workload serve --seed 7 --seconds 10 --trace 1 --chc c --work w",
        ))
        .unwrap() else {
            panic!("expected a run");
        };
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Serve, 7, 10, true)
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload check --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&argv(
            "--workload check --seed 1 --seconds 1 --trace 0 --chc c"
        ))
        .is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(matches!(
            parse(&argv("--record-digests 0..3")).unwrap(),
            Request::Record { first: 0, last: 3 }
        ));
    }
}
