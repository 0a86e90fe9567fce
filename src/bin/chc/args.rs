//! The `chc` flag table and the one parser that reads argv against it.
//!
//! Every flag is a row of [`FLAGS`]: its name, whether it takes a value,
//! and where it may appear. The parser only splits argv into the command,
//! its positional arguments and an ordered list of flags; each command
//! reads its values from the [`Args`] it gets, in order where order
//! matters (`chc lint`'s last `--allow/--warn/--deny` for a code wins,
//! `chc load --rate` switches the mode to open).

/// The top-level usage line, printed on a missing or unknown command.
pub const USAGE: &str = "usage: chc [--trace] [--stats] [--trace-out <f.json>] [--flame-out <f.folded>] [--stats-out <f.json>] [--audit-out <f.jsonl>] [--profile-out <f.json>] [--crash-out <f.json>] [--watchdog <dur>] <check|lint|diff|print|virtualize|explain|query|validate|load|profile|doctor> <schema.sdl> [...]";

/// Each command with the most positional arguments it takes after its name.
const COMMANDS: &[(&str, usize)] = &[
    ("check", 1),
    ("lint", 1),
    ("diff", 2),
    ("print", 1),
    ("virtualize", 1),
    ("explain", 3),
    ("query", 3),
    ("validate", 2),
    ("load", 2),
    ("profile", 4),
    ("doctor", 1),
];

/// Where a flag may appear.
enum Scope {
    /// Anywhere, before or after the command.
    Global,
    /// After one of these commands.
    In(&'static [&'static str]),
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// What the flag's value is (completing "`<name>` needs …"), or
    /// `None` for a switch.
    value: Option<&'static str>,
    scope: Scope,
}

const fn switch(name: &'static str, scope: Scope) -> Flag {
    Flag {
        name,
        value: None,
        scope,
    }
}

const fn valued(name: &'static str, value: &'static str, scope: Scope) -> Flag {
    Flag {
        name,
        value: Some(value),
        scope,
    }
}

const GLOBAL: Scope = Scope::Global;
const CHECK: Scope = Scope::In(&["check"]);
const LINT: Scope = Scope::In(&["lint"]);
const LINT_DIFF: Scope = Scope::In(&["lint", "diff"]);
const LOAD: Scope = Scope::In(&["load"]);
const PROFILE: Scope = Scope::In(&["profile"]);
const LOAD_PROFILE: Scope = Scope::In(&["load", "profile"]);

const A_VALUE: &str = "a value";
const A_LINT_CODE: &str = "a lint code (e.g. L002)";

/// Every flag `chc` accepts.
const FLAGS: &[Flag] = &[
    switch("--trace", GLOBAL),
    switch("--stats", GLOBAL),
    switch("--audit-summary", GLOBAL),
    switch("--explain", GLOBAL),
    valued("--trace-out", A_VALUE, GLOBAL),
    valued("--flame-out", A_VALUE, GLOBAL),
    valued("--stats-out", A_VALUE, GLOBAL),
    valued("--audit-out", A_VALUE, GLOBAL),
    valued("--profile-out", A_VALUE, GLOBAL),
    valued("--crash-out", A_VALUE, GLOBAL),
    valued("--watchdog", A_VALUE, GLOBAL),
    switch("--incremental", CHECK),
    valued("--since", "the old schema (.sdl) to diff against", CHECK),
    valued("--query", "a .chq file or a query string", LINT),
    valued("--format", "`text` or `json`", LINT_DIFF),
    valued("--allow", A_LINT_CODE, LINT_DIFF),
    valued("--warn", A_LINT_CODE, LINT_DIFF),
    valued("--deny", A_LINT_CODE, LINT_DIFF),
    valued("--hier", A_VALUE, LOAD_PROFILE),
    valued("--mix", A_VALUE, LOAD),
    valued("--threads", A_VALUE, LOAD),
    valued("--duration", A_VALUE, LOAD),
    valued("--ops", A_VALUE, LOAD),
    valued("--mode", A_VALUE, LOAD),
    valued("--rate", A_VALUE, LOAD),
    valued("--think", A_VALUE, LOAD),
    valued("--seed", A_VALUE, LOAD),
    valued("--epsilon", A_VALUE, LOAD),
    valued("--populate", A_VALUE, LOAD),
    valued("--window", A_VALUE, LOAD),
    valued("--report", A_VALUE, LOAD),
    valued("--id", A_VALUE, LOAD),
    valued("--top", A_VALUE, PROFILE),
    valued("--label-cap", A_VALUE, PROFILE),
    valued("--interval", A_VALUE, PROFILE),
    switch("--mem", PROFILE),
];

/// A parsed command line.
pub struct Args {
    /// The command: the first positional argument.
    pub cmd: String,
    /// The positional arguments after the command.
    pos: Vec<String>,
    /// Every flag in argv order, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Splits `argv` (without the program name) against [`FLAGS`]. A
    /// flag's value is the next argument, or follows `=` in the same
    /// one; it never starts with `--`.
    pub fn parse(argv: Vec<String>) -> Result<Args, String> {
        let mut words: Vec<String> = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                words.push(arg);
                continue;
            }
            let cmd = words.first().map_or("chc", String::as_str);
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let flag = FLAGS
                .iter()
                .find(|f| {
                    f.name == name
                        && (inline.is_none() || f.value.is_some())
                        && match f.scope {
                            Scope::Global => true,
                            Scope::In(cmds) => cmds.contains(&cmd),
                        }
                })
                .ok_or_else(|| format!("unknown {cmd} option `{arg}`"))?;
            let value = match flag.value {
                None => None,
                Some(what) => {
                    let value = match inline {
                        Some(v) => Some(v.to_string()),
                        None => it.next(),
                    };
                    let value = value.filter(|v| !v.is_empty() && !v.starts_with("--"));
                    Some(value.ok_or_else(|| format!("{} needs {what}", flag.name))?)
                }
            };
            flags.push((flag.name, value));
        }
        let mut words = words.into_iter();
        let cmd = words.next().ok_or(USAGE)?;
        let max = COMMANDS
            .iter()
            .find(|(name, _)| *name == cmd)
            .map(|&(_, max)| max)
            .ok_or_else(|| format!("unknown command `{cmd}`\n{USAGE}"))?;
        let pos: Vec<String> = words.collect();
        if let Some(extra) = pos.get(max) {
            return Err(format!("unexpected {cmd} argument `{extra}`"));
        }
        Ok(Args { cmd, pos, flags })
    }

    /// The `i`-th positional argument after the command.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.pos.get(i).map(String::as_str)
    }

    /// The schema path: the first positional argument.
    pub fn schema(&self) -> Result<&str, &'static str> {
        self.pos(0).ok_or(USAGE)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        debug_assert!(
            FLAGS.iter().any(|f| f.name == name),
            "{name} is not in the flag table"
        );
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of the last `name` given.
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(
            FLAGS.iter().any(|f| f.name == name),
            "{name} is not in the flag table"
        );
        self.values()
            .filter(|(flag, _)| *flag == name)
            .last()
            .map(|(_, value)| value)
    }

    /// Every valued flag in argv order, with its value.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        self.flags
            .iter()
            .filter_map(|(flag, value)| Some((*flag, value.as_deref()?)))
    }
}

/// Parses a flag's value, naming the flag in the error.
pub fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a flag's duration (`250ms`, `5s`, `1m`), naming the flag in
/// the error.
pub fn duration(flag: &str, value: &str) -> Result<std::time::Duration, String> {
    excuses::workloads::parse_duration(value).map_err(|e| format!("{flag}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn every_scoped_flag_names_a_known_command() {
        for flag in FLAGS {
            if let Scope::In(cmds) = flag.scope {
                for cmd in cmds {
                    assert!(
                        COMMANDS.iter().any(|(c, _)| c == cmd),
                        "{}: {cmd}",
                        flag.name
                    );
                }
            }
        }
    }

    #[test]
    fn global_flags_go_anywhere_and_take_inline_values() {
        let a = parse(&["--trace", "check", "--stats-out=s.json", "f.sdl", "--stats"]).unwrap();
        assert_eq!(a.cmd, "check");
        assert_eq!(a.pos(0), Some("f.sdl"));
        assert!(a.has("--trace") && a.has("--stats"));
        assert_eq!(a.value("--stats-out"), Some("s.json"));
    }

    #[test]
    fn flags_keep_their_order() {
        let a = parse(&["lint", "--deny", "warnings", "f.sdl", "--allow", "L005"]).unwrap();
        let got: Vec<_> = a.values().collect();
        assert_eq!(got, [("--deny", "warnings"), ("--allow", "L005")]);
    }

    #[test]
    fn scoped_flags_stay_in_their_command() {
        let err = parse(&["check", "f.sdl", "--format", "json"])
            .err()
            .unwrap();
        assert_eq!(err, "unknown check option `--format`");
        let err = parse(&["--format", "json", "lint", "f.sdl"]).err().unwrap();
        assert_eq!(err, "unknown chc option `--format`");
        assert!(parse(&["print", "f.sdl", "--mem"]).is_err());
    }

    #[test]
    fn values_are_never_flags_and_never_empty() {
        let err = parse(&["check", "f.sdl", "--trace-out", "--stats"])
            .err()
            .unwrap();
        assert_eq!(err, "--trace-out needs a value");
        let err = parse(&["check", "f.sdl", "--trace-out="]).err().unwrap();
        assert_eq!(err, "--trace-out needs a value");
        let err = parse(&["lint", "f.sdl", "--query"]).err().unwrap();
        assert_eq!(err, "--query needs a .chq file or a query string");
        assert!(
            parse(&["check", "--trace=1", "f.sdl"]).is_err(),
            "switches take no value"
        );
    }

    #[test]
    fn commands_and_positionals_are_checked() {
        assert_eq!(parse(&[]).err().unwrap(), USAGE);
        assert!(parse(&["frobnicate"])
            .err()
            .unwrap()
            .starts_with("unknown command `frobnicate`"));
        let err = parse(&["diff", "a.sdl", "b.sdl", "c.sdl"]).err().unwrap();
        assert_eq!(err, "unexpected diff argument `c.sdl`");
        assert!(
            parse(&["load", "--rate", "-5"]).is_ok(),
            "a single dash is a value"
        );
    }
}
