//! Checker diagnostics.
//!
//! The paper's *verifiability* desideratum (§5): "the language compiler or
//! environment should be able to alert the programmer about cases of
//! inconsistent specification." Diagnostics are the alerting vehicle:
//! hard errors for unexcused contradictions, warnings for redundant
//! excuses ("nothing wrong will happen if an excuse is added — it will
//! simply be redundant", §5.3).

use std::fmt;

use chc_model::{ClassId, Schema, Sym};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; the schema is still well-formed.
    Warning,
    /// The schema violates the specialization-or-excuse rule.
    Error,
}

/// What went wrong (or is merely odd).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagKind {
    /// A subclass redefined an attribute with a range that is not a
    /// specialization of an inherited range, and no applicable excuse
    /// covers the contradicted constraint (§5.1's revised rule).
    UnexcusedContradiction {
        /// The class carrying the contradicted constraint.
        contradicted: ClassId,
    },
    /// The declared range escapes the excusing range: an excuse for the
    /// contradicted constraint exists, but the new range is not within
    /// what the excuser allows, so instances would still violate the
    /// §5.2 semantics.
    ExcuseRangeEscape {
        /// The class carrying the contradicted constraint.
        contradicted: ClassId,
        /// The excuser whose range was escaped.
        excuser: ClassId,
    },
    /// Two inherited constraints on the same attribute are mutually
    /// unsatisfiable and neither is excused — instances of this class
    /// cannot exist (the unexcused Quaker∧Republican situation, §4.1).
    IncompatibleParents {
        /// One constraint-carrying ancestor.
        a: ClassId,
        /// The other.
        b: ClassId,
    },
    /// Every pair of inherited constraints overlaps, but no single value
    /// satisfies all of them at once (a k-way conflict) — instances of
    /// this class still cannot exist.
    JointlyUnsatisfiable {
        /// The constraint-carrying ancestors.
        declarers: Vec<ClassId>,
    },
    /// An excuse was stated for a constraint the declaration does not in
    /// fact contradict (harmless; §5.3).
    RedundantExcuse {
        /// The excused class.
        on: ClassId,
    },
}

/// One checker finding, attached to a class/attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The finding.
    pub kind: DiagKind,
    /// The class whose definition triggered the finding.
    pub class: ClassId,
    /// The attribute involved.
    pub attr: Sym,
}

impl Diagnostic {
    /// The source position of the finding's site (the attribute
    /// declaration, falling back to the class definition), when the
    /// schema was compiled from SDL text.
    pub fn span(&self, schema: &Schema) -> Option<chc_model::Span> {
        schema.source_map().site_span(self.class, Some(self.attr))
    }

    /// Renders the diagnostic with names resolved against `schema`,
    /// prefixed with `file:line:col` when a source position is known.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        self.write_located(&mut out, schema)
            .expect("writing to a String cannot fail");
        out
    }

    /// The diagnostic message, without any position prefix.
    pub fn message(&self, schema: &Schema) -> String {
        let mut out = String::new();
        self.write_message(&mut out, schema)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes the text of [`Diagnostic::render`].
    fn write_located(&self, out: &mut impl fmt::Write, schema: &Schema) -> fmt::Result {
        if let Some(span) = self.span(schema) {
            write!(out, "{}: ", schema.source_map().locate(span))?;
        }
        self.write_message(out, schema)
    }

    fn write_message(&self, out: &mut impl fmt::Write, schema: &Schema) -> fmt::Result {
        let class = schema.class_name(self.class);
        let attr = schema.resolve(self.attr);
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        match &self.kind {
            DiagKind::UnexcusedContradiction { contradicted } => write!(
                out,
                "{sev}: `{class}.{attr}` contradicts the constraint on `{}` without excusing it; \
                 add `excuses {attr} on {}` or specialize the range",
                schema.class_name(*contradicted),
                schema.class_name(*contradicted),
            ),
            DiagKind::ExcuseRangeEscape {
                contradicted,
                excuser,
            } => write!(
                out,
                "{sev}: `{class}.{attr}` is excused on `{}` via `{}`, but its range is not \
                 contained in the excusing range",
                schema.class_name(*contradicted),
                schema.class_name(*excuser),
            ),
            DiagKind::IncompatibleParents { a, b } => write!(
                out,
                "{sev}: `{class}` inherits incompatible constraints on `{attr}` from `{}` and \
                 `{}`; instances cannot satisfy both — excuse one of them",
                schema.class_name(*a),
                schema.class_name(*b),
            ),
            DiagKind::JointlyUnsatisfiable { declarers } => {
                write!(
                    out,
                    "{sev}: no value of `{class}.{attr}` can satisfy all of the constraints \
                     inherited from "
                )?;
                for (i, d) in declarers.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(out, "{sep}`{}`", schema.class_name(*d))?;
                }
                out.write_str(" at once — excuse at least one of them")
            }
            DiagKind::RedundantExcuse { on } => write!(
                out,
                "{sev}: the excuse of `{}.{attr}` by `{class}` is redundant (the range is already \
                 a specialization or another excuse applies)",
                schema.class_name(*on),
            ),
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The result of checking a schema.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All findings, in class-id order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Whether the schema is accepted (no errors; warnings allowed).
    pub fn is_ok(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Renders every finding against `schema`, one per line.
    pub fn render(&self, schema: &Schema) -> String {
        self.display(schema).to_string()
    }

    /// The text of [`CheckReport::render`], as a [`fmt::Display`] value
    /// that writes straight into its destination (a buffered stdout,
    /// say) instead of building the report as one `String`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> CheckReportDisplay<'a> {
        CheckReportDisplay {
            report: self,
            schema,
        }
    }
}

/// A [`CheckReport`] bound to the schema that names its classes; see
/// [`CheckReport::display`].
pub struct CheckReportDisplay<'a> {
    report: &'a CheckReport,
    schema: &'a Schema,
}

impl fmt::Display for CheckReportDisplay<'_> {
    /// One diagnostic per line, with no newline after the last.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.report.diagnostics.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            d.write_located(f, self.schema)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One diagnostic of every kind on `C.x`, over the same schema
    /// compiled without and with a file name.
    fn every_kind() -> (Schema, Schema, CheckReport) {
        let src = "class A with x: 1..2;\nclass B with x: 3..4;\nclass C is-a A, B with x: 5..6;";
        let plain = chc_sdl::compile(src).unwrap();
        let filed = chc_sdl::compile_with_source(src, "demo.sdl").unwrap();
        let id = |n: &str| plain.class_by_name(n).unwrap();
        let (a, b, c) = (id("A"), id("B"), id("C"));
        let x = plain.sym("x").unwrap();
        let kinds = [
            (
                Severity::Error,
                DiagKind::UnexcusedContradiction { contradicted: a },
            ),
            (
                Severity::Error,
                DiagKind::ExcuseRangeEscape {
                    contradicted: a,
                    excuser: b,
                },
            ),
            (Severity::Error, DiagKind::IncompatibleParents { a, b }),
            (
                Severity::Error,
                DiagKind::JointlyUnsatisfiable {
                    declarers: vec![a, b, c],
                },
            ),
            (Severity::Warning, DiagKind::RedundantExcuse { on: b }),
        ];
        let diagnostics = kinds
            .into_iter()
            .map(|(severity, kind)| Diagnostic {
                severity,
                kind,
                class: c,
                attr: x,
            })
            .collect();
        (plain, filed, CheckReport { diagnostics })
    }

    const TEXT: [&str; 5] = [
        "error: `C.x` contradicts the constraint on `A` without excusing it; add `excuses x on A` or specialize the range",
        "error: `C.x` is excused on `A` via `B`, but its range is not contained in the excusing range",
        "error: `C` inherits incompatible constraints on `x` from `A` and `B`; instances cannot satisfy both — excuse one of them",
        "error: no value of `C.x` can satisfy all of the constraints inherited from `A`, `B`, `C` at once — excuse at least one of them",
        "warning: the excuse of `B.x` by `C` is redundant (the range is already a specialization or another excuse applies)",
    ];

    #[test]
    fn every_kind_renders_its_text() {
        let (plain, filed, report) = every_kind();
        for (d, text) in report.diagnostics.iter().zip(TEXT) {
            assert_eq!(d.message(&plain), text);
            assert_eq!(d.render(&plain), format!("3:24: {text}"));
            assert_eq!(d.render(&filed), format!("demo.sdl:3:24: {text}"));
        }
        let lines: Vec<String> = TEXT.iter().map(|t| format!("demo.sdl:3:24: {t}")).collect();
        assert_eq!(report.render(&filed), lines.join("\n"));
        assert_eq!(report.display(&filed).to_string(), report.render(&filed));
        assert_eq!(CheckReport::default().render(&filed), "");
    }
}
