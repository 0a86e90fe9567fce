//! Lint codes: the stable identifiers findings are filed under.

use std::fmt;

/// One lint, identified by a stable `L00x` code and a kebab-case name.
/// Either spelling is accepted by [`LintCode::parse`] (and thus by the
/// CLI's `--allow/--warn/--deny` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// D001: a `chc diff` edit narrowed (or incomparably changed) a range
    /// that stored objects may already inhabit — every extent below the
    /// edited class needs re-validation before the new schema is trusted.
    BreakingNarrowing,
    /// D002: an edit made a previously coherent class incoherent — the
    /// §5.1 k-way admission check (`admits_common_value`) passed in the
    /// old schema and fails in the new one; the derivation is attached.
    ContradictionIntroduced,
    /// D003: an `excuses p on C` clause was retired while the declared
    /// range still contradicts the constraint it excused — objects
    /// admitted only under that excuse are orphaned (§5.2 semantics).
    ExcuseRetiredOrphan,
    /// D004: info-level — a range was widened with no subclass forced to
    /// react; silent for old data, but old readers may see new values.
    SilentWidening,
    /// D005: info-level — the impact cone of one edit: how many classes'
    /// verdicts may flip and how many extents need re-validation.
    ConeReport,
    /// L001: a class whose constraints (with excuses folded in) admit no
    /// value for some attribute — the class can have no instances. The
    /// CLASSIC notion of an *incoherent* concept, applied to §5.1 schemas.
    IncoherentClass,
    /// L002: an `excuses p on C` clause whose excuser shares no
    /// descendant with `C`, so no instance can ever be entitled to the
    /// excuse — extending the §5.3 redundant-excuse warning.
    DeadExcuse,
    /// L003: a conditional-type branch `S/E` (§5.4) whose guard class `E`
    /// does intersect the host hierarchy, but only through incoherent
    /// classes — the branch can never be taken by a live instance.
    UnreachableBranch,
    /// L004: a direct is-a edge already implied by another direct
    /// superclass (a transitive-reduction violation).
    RedundantIsA,
    /// L005: a subclass re-declares an attribute with exactly an
    /// inherited range and no excuses — the declaration changes nothing.
    NoopRedefinition,
    /// L006: a class that is never referenced (as a superclass, range,
    /// or excuse target) and declares no attributes of its own.
    UnusedClass,
    /// Q001: a projection step of a query can hit a class or branch where
    /// the attribute is excused or absent — §5.4's "the query/program may
    /// result in a run-time failure for certain database states". Also
    /// covers the definite type errors the planner would reject outright.
    UnsafePath,
    /// Q002: a `not in C` filter that excludes no possible member of the
    /// source extent — the guard is dead weight.
    DeadGuard,
    /// Q003: the scanned class is L001-incoherent (it can have no
    /// instances), so the query is vacuous by construction.
    EmptySource,
    /// Q004: info-level — a run-time check the compiler eliminated, with
    /// the derivation of why no type error can occur there.
    DischargedCheck,
    /// Q005: info-level — a minimal `p not in C` guard set that would
    /// restore type safety, synthesized by case analysis over the §4.2
    /// conditional-type alternatives.
    GuardSuggestion,
}

impl LintCode {
    /// Every lint, in code order.
    pub const ALL: [LintCode; 16] = [
        LintCode::BreakingNarrowing,
        LintCode::ContradictionIntroduced,
        LintCode::ExcuseRetiredOrphan,
        LintCode::SilentWidening,
        LintCode::ConeReport,
        LintCode::IncoherentClass,
        LintCode::DeadExcuse,
        LintCode::UnreachableBranch,
        LintCode::RedundantIsA,
        LintCode::NoopRedefinition,
        LintCode::UnusedClass,
        LintCode::UnsafePath,
        LintCode::DeadGuard,
        LintCode::EmptySource,
        LintCode::DischargedCheck,
        LintCode::GuardSuggestion,
    ];

    /// The stable `L00x` code.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::BreakingNarrowing => "D001",
            LintCode::ContradictionIntroduced => "D002",
            LintCode::ExcuseRetiredOrphan => "D003",
            LintCode::SilentWidening => "D004",
            LintCode::ConeReport => "D005",
            LintCode::IncoherentClass => "L001",
            LintCode::DeadExcuse => "L002",
            LintCode::UnreachableBranch => "L003",
            LintCode::RedundantIsA => "L004",
            LintCode::NoopRedefinition => "L005",
            LintCode::UnusedClass => "L006",
            LintCode::UnsafePath => "Q001",
            LintCode::DeadGuard => "Q002",
            LintCode::EmptySource => "Q003",
            LintCode::DischargedCheck => "Q004",
            LintCode::GuardSuggestion => "Q005",
        }
    }

    /// Whether this lint analyzes a schema *diff* (`D...`) rather than a
    /// single schema or a query batch.
    pub fn is_diff(self) -> bool {
        matches!(
            self,
            LintCode::BreakingNarrowing
                | LintCode::ContradictionIntroduced
                | LintCode::ExcuseRetiredOrphan
                | LintCode::SilentWidening
                | LintCode::ConeReport
        )
    }

    /// Whether this lint analyzes queries (`Q...`) rather than the schema
    /// itself (`L...`).
    pub fn is_query(self) -> bool {
        matches!(
            self,
            LintCode::UnsafePath
                | LintCode::DeadGuard
                | LintCode::EmptySource
                | LintCode::DischargedCheck
                | LintCode::GuardSuggestion
        )
    }

    /// The kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::BreakingNarrowing => "breaking-narrowing",
            LintCode::ContradictionIntroduced => "contradiction-introduced",
            LintCode::ExcuseRetiredOrphan => "excuse-retired-orphan",
            LintCode::SilentWidening => "silent-widening",
            LintCode::ConeReport => "cone-report",
            LintCode::IncoherentClass => "incoherent-class",
            LintCode::DeadExcuse => "dead-excuse",
            LintCode::UnreachableBranch => "unreachable-branch",
            LintCode::RedundantIsA => "redundant-is-a",
            LintCode::NoopRedefinition => "noop-redefinition",
            LintCode::UnusedClass => "unused-class",
            LintCode::UnsafePath => "unsafe-path",
            LintCode::DeadGuard => "dead-guard",
            LintCode::EmptySource => "empty-source",
            LintCode::DischargedCheck => "discharged-check",
            LintCode::GuardSuggestion => "guard-suggestion",
        }
    }

    /// One-line description (shown by `chc lint --help` and docs/LINTS.md).
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::BreakingNarrowing => {
                "schema edit narrowed a range that stored objects may inhabit"
            }
            LintCode::ContradictionIntroduced => {
                "schema edit made a previously coherent class incoherent"
            }
            LintCode::ExcuseRetiredOrphan => {
                "excuse retired while its contradiction persists; excused objects orphaned"
            }
            LintCode::SilentWidening => "range widened with no subclass forced to react",
            LintCode::ConeReport => "impact cone of one schema edit: dirty classes and extents",
            LintCode::IncoherentClass => {
                "constraints admit no value for an attribute; the class can have no instances"
            }
            LintCode::DeadExcuse => {
                "excuse clause whose excuser shares no descendant with the excused class"
            }
            LintCode::UnreachableBranch => {
                "conditional-type branch reachable only through incoherent classes"
            }
            LintCode::RedundantIsA => {
                "direct is-a edge already implied by another direct superclass"
            }
            LintCode::NoopRedefinition => {
                "attribute re-declared with exactly an inherited range and no excuses"
            }
            LintCode::UnusedClass => "class never referenced anywhere and declaring no attributes",
            LintCode::UnsafePath => "query path can hit an excused or absent attribute at run time",
            LintCode::DeadGuard => {
                "`not in C` filter that excludes no possible member of the source"
            }
            LintCode::EmptySource => "scanned class is incoherent, so the query is vacuous",
            LintCode::DischargedCheck => {
                "run-time check eliminated by the compiler, with its derivation"
            }
            LintCode::GuardSuggestion => {
                "minimal `not in C` guard set that would restore type safety"
            }
        }
    }

    /// Index into per-lint tables (dense, 0-based, in `ALL` order).
    pub(crate) fn idx(self) -> usize {
        self as usize
    }

    /// Parses either spelling: `L003` (case-insensitive) or
    /// `unreachable-branch`.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name() == s)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_names_round_trip_through_parse() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.code()), Some(c));
            assert_eq!(LintCode::parse(&c.code().to_lowercase()), Some(c));
            assert_eq!(LintCode::parse(c.name()), Some(c));
        }
        assert_eq!(LintCode::parse("L999"), None);
        assert_eq!(LintCode::parse("no-such-lint"), None);
    }

    #[test]
    fn codes_are_unique_and_ordered() {
        let codes: Vec<&str> = LintCode::ALL.iter().map(|c| c.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn idx_is_dense_and_aligned_with_all() {
        // LintConfig indexes its level table with `idx()`; the enum's
        // discriminant order and ALL's order must therefore agree.
        for (i, c) in LintCode::ALL.into_iter().enumerate() {
            assert_eq!(c.idx(), i, "{c}");
        }
    }

    #[test]
    fn families_partition_the_codes() {
        for c in LintCode::ALL {
            let fam = &c.code()[..1];
            assert_eq!(c.is_diff(), fam == "D", "{c}");
            assert_eq!(c.is_query(), fam == "Q", "{c}");
        }
    }
}
