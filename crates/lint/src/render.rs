//! The text renderer: rustc-style findings that quote the offending SDL
//! line with a caret.
//!
//! ```text
//! warning[L004]: is-a edge `QR is-a Person` is redundant: already implied by superclass `Quaker`
//!   --> demo.sdl:4:23
//!    |
//!  4 | class QR is-a Quaker, Person;
//!    |                       ^
//! ```
//!
//! Query findings (`Q...`) point into the `.chq` file instead of the
//! schema; [`render_report_sources`] takes both texts and quotes the
//! right one per finding.

use std::cell::OnceCell;
use std::fmt;

use chc_model::Schema;

use crate::config::LintLevel;
use crate::engine::LintReport;
use crate::finding::Finding;

/// Renders one finding. `src` is the text the finding's span points into
/// (the SDL source for schema findings, the query text for Q findings),
/// used to quote the offending line; without it (or without a span) only
/// the headline and location are printed.
pub fn render_finding(finding: &Finding, schema: &Schema, src: Option<&str>) -> String {
    let mut out = String::new();
    let lines = Lines::new(src);
    write_finding(&mut out, finding, schema, &lines).expect("writing to a String cannot fail");
    out
}

/// Renders a whole report against a single source text (schema-only
/// runs). The empty report renders as the empty string.
pub fn render_report(report: &LintReport, schema: &Schema, src: Option<&str>) -> String {
    render_report_sources(report, schema, src, None)
}

/// Renders a mixed report: schema findings quote `schema_src`, query
/// findings (those carrying a file) quote `query_src`.
pub fn render_report_sources(
    report: &LintReport,
    schema: &Schema,
    schema_src: Option<&str>,
    query_src: Option<&str>,
) -> String {
    display_report(report, schema, schema_src, query_src).to_string()
}

/// The text of [`render_report_sources`], as a [`fmt::Display`] value
/// that writes straight into its destination (a buffered stdout, say)
/// instead of building the report as one `String`.
pub fn display_report<'a>(
    report: &'a LintReport,
    schema: &'a Schema,
    schema_src: Option<&'a str>,
    query_src: Option<&'a str>,
) -> ReportDisplay<'a> {
    ReportDisplay {
        report,
        schema,
        schema_src,
        query_src,
    }
}

/// A lint report bound to the sources its findings quote; see
/// [`display_report`].
pub struct ReportDisplay<'a> {
    report: &'a LintReport,
    schema: &'a Schema,
    schema_src: Option<&'a str>,
    query_src: Option<&'a str>,
}

impl fmt::Display for ReportDisplay<'_> {
    /// The findings, one block each, separated by blank lines and
    /// followed by the summary line; nothing for the empty report.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let report = self.report;
        if report.findings.is_empty() {
            return Ok(());
        }
        // Each source is split into lines at most once per report, and
        // only when a finding quotes it.
        let (schema_lines, query_lines) = (OnceCell::new(), OnceCell::new());
        for finding in &report.findings {
            let lines = if finding.file.is_some() {
                query_lines.get_or_init(|| Lines::new(self.query_src))
            } else {
                schema_lines.get_or_init(|| Lines::new(self.schema_src))
            };
            write_finding(f, finding, self.schema, lines)?;
            f.write_str("\n\n")?;
        }
        f.write_str("lint: ")?;
        let counts = [
            (report.denied().count(), "error"),
            (report.warnings().count(), "warning"),
            (report.infos().count(), "note"),
        ];
        let mut sep = "";
        for (n, what) in counts.into_iter().filter(|&(n, _)| n > 0) {
            write!(f, "{sep}{n} {what}{}", plural(n))?;
            sep = ", ";
        }
        f.write_str(" emitted")
    }
}

/// A source text split into lines once, with [`str::lines`] semantics
/// (a line ends at `\n` or `\r\n`), so quoting a finding's line is an
/// index rather than a scan from the top of the file.
struct Lines<'s>(Vec<&'s str>);

impl<'s> Lines<'s> {
    fn new(src: Option<&'s str>) -> Self {
        Lines(src.map(|s| s.lines().collect()).unwrap_or_default())
    }

    /// Line `line`, counting from 1.
    fn get(&self, line: u32) -> Option<&'s str> {
        (line as usize)
            .checked_sub(1)
            .and_then(|i| self.0.get(i).copied())
    }
}

/// One finding's block: the headline, then (with a span) the location and
/// the quoted line with a caret under the column.
fn write_finding(
    out: &mut impl fmt::Write,
    finding: &Finding,
    schema: &Schema,
    lines: &Lines<'_>,
) -> fmt::Result {
    let level = match finding.level {
        LintLevel::Deny => "error",
        LintLevel::Info => "info",
        _ => "warning",
    };
    write!(out, "{level}[{}]: {}", finding.code.code(), finding.message)?;
    let Some(span) = finding.span else {
        return Ok(());
    };
    if let Some(loc) = finding.location(schema) {
        write!(out, "\n  --> {loc}")?;
    }
    if let Some(line) = lines.get(span.line) {
        let digits = span.line.checked_ilog10().map_or(1, |d| d as usize + 1);
        let gutter = digits.max(2);
        let caret_pad = span.col.saturating_sub(1) as usize;
        write!(
            out,
            "\n{blank:gutter$} |\n{num:>gutter$} | {line}\n{blank:gutter$} | {blank:caret_pad$}^",
            blank = "",
            num = span.line,
        )?;
    }
    Ok(())
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
