//! Correctness oracles over `chc`'s text output, judged against the
//! generator's ground truth rather than against the checker itself.
//!
//! A command that exits with an unexpected code, dies on a signal, times
//! out, or prints a verdict the ground truth contradicts is a *failure*.
//! `chc check` exiting 1 on the faulty schema is a result, not a failure.

use std::collections::BTreeSet;

use crate::inputs::{Truth, CLEAN_SDL, FAULTY_SDL};
use crate::proc::Run;

/// For each line of an SDL file, the class whose definition contains it
/// and the attribute declared on it, if any.
#[derive(Debug, Clone, Default)]
pub struct LineMap {
    lines: Vec<(Option<String>, Option<String>)>,
}

impl LineMap {
    /// Indexes `src`, as printed by `chc_sdl::print_schema`.
    pub fn new(src: &str) -> LineMap {
        let mut class: Option<String> = None;
        let lines = src
            .lines()
            .map(|line| {
                if let Some(rest) = line.strip_prefix("class ") {
                    let name = rest.split([' ', ';']).next().unwrap_or("").to_string();
                    class = Some(name);
                    return (class.clone(), None);
                }
                let attr = line
                    .strip_prefix("    ")
                    .and_then(|decl| decl.split_once(" :"))
                    .map(|(name, _)| name.trim().to_string());
                (class.clone(), attr)
            })
            .collect();
        LineMap { lines }
    }

    /// `(class, attr)` at 1-based `line`.
    pub fn site(&self, line: usize) -> Option<(String, Option<String>)> {
        let (class, attr) = self.lines.get(line.checked_sub(1)?)?;
        Some((class.clone()?, attr.clone()))
    }
}

/// The two schemas' line maps, looked up by the file name `chc` prints.
#[derive(Debug, Clone, Default)]
pub struct Sources {
    /// The clean schema, `c.sdl`.
    pub clean: LineMap,
    /// The faulty schema, `f.sdl`.
    pub faulty: LineMap,
}

impl Sources {
    fn site(&self, location: &str) -> Option<(String, Option<String>)> {
        // `file:line:col`
        let mut parts = location.rsplitn(3, ':');
        let _col = parts.next()?;
        let line: usize = parts.next()?.parse().ok()?;
        match parts.next()? {
            FAULTY_SDL => self.faulty.site(line),
            CLEAN_SDL => self.clean.site(line),
            _ => None,
        }
    }
}

fn exit(run: &Run, ok: &[i32], want: i32) -> Result<(), String> {
    if let Some(why) = run.failure(ok) {
        return Err(why);
    }
    match run.code {
        Some(c) if c == want => Ok(()),
        other => Err(format!("exit {other:?}, expected {want}")),
    }
}

/// The `(class, attr)` an error line of `chc check` names:
/// `` f.sdl:L:C: error: `C.a` … `` or, for incompatible parents,
/// `` … error: `C` inherits incompatible constraints on `a` … ``.
pub fn error_site(line: &str) -> Option<(String, String)> {
    let (_, msg) = line.split_once(": error: ")?;
    let first = msg.split('`').nth(1)?;
    if let Some((class, attr)) = first.split_once('.') {
        return Some((class.to_string(), attr.to_string()));
    }
    let (_, rest) = msg.split_once("constraints on `")?;
    let attr = rest.split('`').next()?;
    Some((first.to_string(), attr.to_string()))
}

/// `chc check f.sdl`: exit 1; every seeded fault carries an error, and
/// every error lies at a fault or a descendant of one on the same
/// attribute (E1's precision/recall rule). The closing
/// `E error(s), W warning(s)` line must count the lines above it.
pub fn check(run: &Run, truth: &Truth) -> Result<(), String> {
    exit(run, &[0, 1], 1)?;
    let stdout = String::from_utf8_lossy(&run.stdout);
    let errors = stdout.lines().filter(|l| l.contains(": error: ")).count();
    let warnings = stdout.lines().filter(|l| l.contains(": warning: ")).count();
    let summary = format!("{errors} error(s), {warnings} warning(s)");
    if stdout.lines().last() != Some(summary.as_str()) {
        return Err(format!("summary line is not `{summary}`"));
    }
    let mut seen = BTreeSet::new();
    for line in stdout.lines().filter(|l| l.contains(": error: ")) {
        let site = error_site(line).ok_or_else(|| format!("unparsed error line: {line}"))?;
        if !truth.error_sites.contains(&site) {
            return Err(format!("error outside every fault cone: {line}"));
        }
        seen.insert(site);
    }
    match truth.faults.iter().find(|f| !seen.contains(*f)) {
        Some((class, attr)) => Err(format!("seeded fault {class}.{attr} not reported")),
        None => Ok(()),
    }
}

/// `chc check --incremental --since c.sdl f.sdl`: the same exit and
/// byte-identical stdout as the full check.
pub fn recheck(run: &Run, full: &Run) -> Result<(), String> {
    exit(run, &[0, 1], 1)?;
    if run.stdout != full.stdout {
        let at = run
            .stdout
            .iter()
            .zip(&full.stdout)
            .take_while(|(a, b)| a == b)
            .count();
        return Err(format!(
            "incremental stdout differs from the full check at byte {at} ({} vs {} bytes)",
            run.stdout.len(),
            full.stdout.len()
        ));
    }
    Ok(())
}

/// Findings of `codes` in rendered lint text must lie inside the faults'
/// descendant cones, on a fault's attribute when the finding names one.
fn findings_in_cones(
    text: &str,
    codes: &[&str],
    truth: &Truth,
    src: &Sources,
) -> Result<(), String> {
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(code) = line
            .split_once('[')
            .and_then(|(_, r)| r.split_once("]: "))
            .map(|(c, _)| c)
        else {
            continue;
        };
        if !codes.contains(&code) {
            continue;
        }
        let location = lines
            .next()
            .and_then(|l| l.trim_start().strip_prefix("--> "))
            .ok_or_else(|| format!("{code} finding without a location: {line}"))?;
        let (class, attr) = src
            .site(location)
            .ok_or_else(|| format!("{code} at unknown location {location}"))?;
        let inside = match &attr {
            Some(a) => truth.error_sites.contains(&(class.clone(), a.clone())),
            None => truth.cone_classes.contains(&class),
        };
        if !inside {
            return Err(format!(
                "{code} at {location} ({class}) is outside every fault cone"
            ));
        }
    }
    Ok(())
}

/// `chc lint f.sdl`: exit 0; L001 findings only inside fault cones.
pub fn lint(run: &Run, truth: &Truth, src: &Sources) -> Result<(), String> {
    exit(run, &[0, 1], 0)?;
    findings_in_cones(&String::from_utf8_lossy(&run.stdout), &["L001"], truth, src)
}

/// `chc diff c.sdl f.sdl`: exit 0; D002 findings only inside fault cones.
pub fn diff(run: &Run, truth: &Truth, src: &Sources) -> Result<(), String> {
    exit(run, &[0, 1], 0)?;
    findings_in_cones(&String::from_utf8_lossy(&run.stdout), &["D002"], truth, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run(code: i32, stdout: &str) -> Run {
        Run {
            code: Some(code),
            signal: None,
            timed_out: false,
            wall: Duration::from_millis(5),
            max_rss_kb: 1,
            stdout: stdout.as_bytes().to_vec(),
            stderr: Vec::new(),
        }
    }

    const SDL: &str = "class A with\n    x : {'a};\n\nclass B is-a A with\n    x : {'b};\n\nclass D is-a B\n\nclass E\n";

    fn truth() -> Truth {
        let mut t = Truth::default();
        t.faults.push(("B".into(), "x".into()));
        for c in ["B", "D"] {
            t.error_sites.insert((c.into(), "x".into()));
            t.cone_classes.insert(c.into());
        }
        t
    }

    const CHECK_OUT: &str =
        "f.sdl:5:5: error: `B.x` contradicts the constraint on `A` without excusing it\n\
        f.sdl:7:1: error: `D` inherits incompatible constraints on `x` from `A` and `B`\n\
        f.sdl:2:5: warning: the excuse of `A.x` by `E` is redundant\n2 error(s), 1 warning(s)\n";

    #[test]
    fn line_map_finds_class_and_attr() {
        let map = LineMap::new(SDL);
        assert_eq!(map.site(5), Some(("B".into(), Some("x".into()))));
        assert_eq!(map.site(4), Some(("B".into(), None)));
        assert_eq!(map.site(9), Some(("E".into(), None)));
        assert_eq!(map.site(0), None);
        assert_eq!(map.site(99), None);
    }

    #[test]
    fn error_sites_parse_both_message_shapes() {
        let lines: Vec<&str> = CHECK_OUT.lines().collect();
        assert_eq!(error_site(lines[0]), Some(("B".into(), "x".into())));
        assert_eq!(error_site(lines[1]), Some(("D".into(), "x".into())));
        assert_eq!(error_site(lines[2]), None);
    }

    #[test]
    fn check_accepts_ground_truth_and_rejects_tampering() {
        let t = truth();
        assert_eq!(check(&run(1, CHECK_OUT), &t), Ok(()));
        // One error line dropped: the summary no longer counts the lines.
        let dropped: String = CHECK_OUT
            .lines()
            .filter(|l| !l.contains("`D`"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check(&run(1, &dropped), &t)
            .unwrap_err()
            .contains("summary"));
        // ... and with the summary patched, the fault goes unreported.
        let unreported = CHECK_OUT
            .replace(
                "f.sdl:5:5: error: `B.x` contradicts the constraint on `A` without excusing it\n",
                "",
            )
            .replace("2 error(s)", "1 error(s)");
        assert!(check(&run(1, &unreported), &t)
            .unwrap_err()
            .contains("not reported"));
        // An error outside the cone.
        let stray = CHECK_OUT.replace("2 error(s)", "3 error(s)").replacen(
            "f.sdl:2:5",
            "f.sdl:9:1: error: `E.x` contradicts `A`\nf.sdl:2:5",
            1,
        );
        assert!(check(&run(1, &stray), &t).unwrap_err().contains("outside"));
        // Wrong exit codes: 0 is a wrong verdict, 2 and signals are failures.
        assert!(check(&run(0, CHECK_OUT), &t).is_err());
        assert!(check(&run(2, CHECK_OUT), &t).is_err());
        let mut killed = run(1, CHECK_OUT);
        killed.code = None;
        killed.signal = Some(6);
        assert!(check(&killed, &t).unwrap_err().contains("signal"));
    }

    #[test]
    fn recheck_demands_byte_identical_stdout() {
        let full = run(1, CHECK_OUT);
        assert_eq!(recheck(&run(1, CHECK_OUT), &full), Ok(()));
        let mut flipped = CHECK_OUT.as_bytes().to_vec();
        flipped[40] ^= 1;
        let flipped = run(1, std::str::from_utf8(&flipped).unwrap());
        assert!(recheck(&flipped, &full).unwrap_err().contains("at byte 40"));
        assert!(recheck(&run(0, CHECK_OUT), &full).is_err());
    }

    #[test]
    fn lint_findings_must_sit_in_fault_cones() {
        let t = truth();
        let src = Sources {
            clean: LineMap::new(SDL),
            faulty: LineMap::new(SDL),
        };
        let inside = "warning[L001]: class `B` is incoherent\n  --> f.sdl:5:5\n   |\n";
        let outside = "warning[L001]: class `E` is incoherent\n  --> f.sdl:9:1\n";
        let other = "warning[L005]: something\n  --> f.sdl:9:1\n";
        assert_eq!(lint(&run(0, &format!("{inside}{other}")), &t, &src), Ok(()));
        assert!(lint(&run(0, outside), &t, &src)
            .unwrap_err()
            .contains("outside"));
        assert!(lint(&run(1, inside), &t, &src).is_err(), "lint must exit 0");
        let d002 = "warning[D002]: no admissible value for `B.x`\n  --> f.sdl:5:5\n";
        assert_eq!(diff(&run(0, d002), &t, &src), Ok(()));
        let d002_out = "warning[D002]: no admissible value for `A.x`\n  --> c.sdl:2:5\n";
        assert!(diff(&run(0, d002_out), &t, &src).is_err());
    }
}
