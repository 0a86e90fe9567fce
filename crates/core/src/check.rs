//! The schema checker: §5.1's revised rule for specialization.
//!
//! > "The revised rule for specialization is that if a subclass specifies
//! > a new range for an existing attribute, then this range must itself be
//! > a specialization of the inherited range(s), or it must excuse the
//! > definition(s) of the constraint(s) being contradicted."
//!
//! The checker also enforces the multiple-inheritance side of the rule
//! (§5.3): a class inheriting mutually unsatisfiable constraints is an
//! error unless an excuse adjudicates, and it reports redundant excuses
//! as warnings. Because contradictions must be *explicit*, the checker can
//! distinguish erroneous definitions from intentional ones — the property
//! default inheritance destroys (§4.2.4).

use std::collections::HashSet;

use chc_model::{ClassId, Range, Schema, Sym};

use crate::diagnostics::{CheckReport, DiagKind, Diagnostic, Severity};
use crate::shard;

/// Checks a whole schema against the specialization-or-excuse rule.
///
/// ```
/// use chc_sdl::compile;
/// use chc_core::check;
///
/// let schema = compile("
///     class Physician;
///     class Psychologist;
///     class Patient with treatedBy: Physician;
///     class Alcoholic is-a Patient with treatedBy: Psychologist;
/// ").unwrap();
/// // Unexcused contradiction: rejected.
/// assert!(!check(&schema).is_ok());
///
/// let fixed = compile("
///     class Physician;
///     class Psychologist;
///     class Patient with treatedBy: Physician;
///     class Alcoholic is-a Patient with
///         treatedBy: Psychologist excuses treatedBy on Patient;
/// ").unwrap();
/// assert!(check(&fixed).is_ok());
/// ```
pub fn check(schema: &Schema) -> CheckReport {
    let _span = chc_obs::span(chc_obs::names::SPAN_CHECK_SCHEMA);
    let _mem = chc_obs::memalloc::span_mem(
        chc_obs::names::MEM_CHECK_SCHEMA_BYTES,
        chc_obs::names::MEM_CHECK_SCHEMA_PEAK,
    );
    check_on(schema, shard::available_workers())
}

/// [`check`] with its classes spread over `workers` threads; the report
/// is the same for every worker count.
fn check_on(schema: &Schema, workers: usize) -> CheckReport {
    let classes: Vec<ClassId> = schema.class_ids().collect();
    let mut diagnostics: Vec<Diagnostic> = shard::map_classes(
        &classes,
        workers,
        chc_obs::names::SPAN_CHECK_SHARD,
        |class| check_class(schema, class),
    )
    .into_iter()
    .flatten()
    .collect();
    suppress_restated(schema, &mut diagnostics);
    CheckReport { diagnostics }
}

/// The raw findings at one class's sites. They depend on the schema and
/// the class alone, never on other classes' findings, so classes can be
/// checked in any order and on any thread (the *locality* desideratum of
/// §5). [`check`] then drops the raw findings that restate an error at
/// another class.
pub fn check_class(schema: &Schema, class: ClassId) -> Vec<Diagnostic> {
    chc_obs::counter(chc_obs::names::CHECK_CLASSES, 1);
    // Attribution: while an installed recorder consumes it, everything
    // this class's check does downstream (subtype queries, sat calls,
    // contradictions) is labeled with the class id, and its wall time
    // feeds the per-class histogram behind `chc profile`'s time-share
    // column.
    if chc_obs::attributing() {
        let _label = chc_obs::label_scope(class.index() as u64);
        // Memory attribution rides the same scope when the tracking
        // allocator is live: bytes allocated and peak net-live growth
        // while checking this class, keyed by the class id.
        let mem = chc_obs::memalloc::installed().then(chc_obs::memalloc::probe);
        let start = std::time::Instant::now();
        let found = check_class_inner(schema, class);
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        chc_obs::labeled_histogram(
            chc_obs::names::CHECK_CLASS_NANOS,
            class.index() as u64,
            nanos,
        );
        if let Some(mem) = mem {
            let stats = mem.stats();
            drop(mem);
            chc_obs::labeled_counter(
                chc_obs::names::MEM_CHECK_CLASS_BYTES,
                class.index() as u64,
                stats.bytes_allocated,
            );
            chc_obs::labeled_histogram(
                chc_obs::names::MEM_CHECK_CLASS_PEAK,
                class.index() as u64,
                stats.peak_live,
            );
        }
        return found;
    }
    check_class_inner(schema, class)
}

fn check_class_inner(schema: &Schema, class: ClassId) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    // Part 1: each locally declared attribute vs. each inherited constraint.
    for decl in &schema.class(class).attrs {
        check_declaration(schema, class, decl.name, &mut found);
    }
    // Part 2: joint satisfiability of inherited constraints (multiple
    // inheritance / diamond memberships). Single-parent classes inherit
    // exactly their parent's constraint sets (checked at the parent), so
    // only locally declared attributes can introduce new pairs there;
    // join points must consider every applicable attribute.
    if schema.supers(class).len() < 2 {
        for decl in &schema.class(class).attrs {
            check_joint_satisfiability(schema, class, decl.name, &mut found);
        }
    } else {
        for attr in schema.applicable_attrs(class) {
            check_joint_satisfiability(schema, class, attr, &mut found);
        }
    }
    found
}

fn check_declaration(schema: &Schema, class: ClassId, attr: Sym, found: &mut Vec<Diagnostic>) {
    let spec = &schema.declared_attr(class, attr).expect("declared").spec;
    let s_range = &spec.range;

    for ancestor in schema.inherited_declarers(class, attr) {
        if ancestor == class {
            continue;
        }
        let decl_b = schema.declared_attr(ancestor, attr).expect("declarer");
        let r_range = &decl_b.spec.range;
        let contradiction = !r_range.subsumes(schema, s_range);
        let has_local_excuse = spec
            .excuses
            .iter()
            .any(|e| e.on == ancestor && e.attr == attr);

        if contradiction {
            chc_obs::counter(chc_obs::names::CHECK_CONTRADICTIONS, 1);
            chc_obs::labeled_counter_scoped(chc_obs::names::CHECK_CONTRADICTIONS, 1);
        }
        if !contradiction {
            // Proper specialization; a local excuse for it is redundant.
            if has_local_excuse {
                found.push(Diagnostic {
                    severity: Severity::Warning,
                    kind: DiagKind::RedundantExcuse { on: ancestor },
                    class,
                    attr,
                });
            }
            continue;
        }

        // The constraint (ancestor, attr) is contradicted. Under the §5.2
        // semantics an instance of `class` escapes it only through an
        // excuser E it *belongs to* whose range S_E admits the value, so a
        // declaration is sound iff some excuser E with class ⊆ E has
        // S ⊆ S_E. (E = class itself when the local declaration carries
        // the excuse; then S_E = S trivially.)
        let mut first_applicable = None;
        let mut covered = false;
        let mut covered_by_other = false;
        for e in schema.applicable_excusers(class, ancestor, attr) {
            first_applicable.get_or_insert(e.excuser);
            if schema.excuser_spec(e).range.subsumes(schema, s_range) {
                covered = true;
                covered_by_other |= e.excuser != class;
            }
        }

        let Some(first_applicable) = first_applicable else {
            found.push(Diagnostic {
                severity: Severity::Error,
                kind: DiagKind::UnexcusedContradiction {
                    contradicted: ancestor,
                },
                class,
                attr,
            });
            continue;
        };

        if covered {
            chc_obs::counter(chc_obs::names::CHECK_EXCUSES_RESOLVED, 1);
        }
        if !covered {
            found.push(Diagnostic {
                severity: Severity::Error,
                kind: DiagKind::ExcuseRangeEscape {
                    contradicted: ancestor,
                    excuser: first_applicable,
                },
                class,
                attr,
            });
        } else if has_local_excuse && covered_by_other {
            // Already excused by an ancestor (the SpecialAlc case, §5.3):
            // "nothing wrong will happen if an excuse is added — it will
            // simply be redundant."
            found.push(Diagnostic {
                severity: Severity::Warning,
                kind: DiagKind::RedundantExcuse { on: ancestor },
                class,
                attr,
            });
        }
    }
}

/// For every pair of constraints on `attr` inherited by `class`, verify
/// that a common value can exist once applicable excuses are folded in.
/// The *allowed set* of a constraint for instances of `class` is its range
/// plus the ranges of excusers that `class` is a subclass of; two
/// constraints are jointly satisfiable (to first order) iff their allowed
/// sets overlap.
fn check_joint_satisfiability(
    schema: &Schema,
    class: ClassId,
    attr: Sym,
    found: &mut Vec<Diagnostic>,
) {
    // A class with a single parent and no local declaration inherits
    // exactly its parent's constraint set, whose joint satisfiability is
    // checked at the parent — and the allowed sets only *grow* toward the
    // leaves (more excusers become applicable), so the verdict carries
    // down. Only join points and declarers need checking.
    if schema.supers(class).len() < 2 && schema.declared_attr(class, attr).is_none() {
        return;
    }
    let constraints = schema.constraints_on(class, attr);
    if constraints.len() < 2 {
        return;
    }
    chc_obs::counter(chc_obs::names::CHECK_JOINT_SAT_CALLS, 1);

    // The allowed set of a constraint — its range plus the ranges of
    // excusers applicable to this class — is built lazily; most pairs
    // already pass on their raw ranges.
    let allowed = |b: ClassId, range| {
        let mut ranges: Vec<&Range> = vec![range];
        for e in schema.applicable_excusers(class, b, attr) {
            ranges.push(&schema.excuser_spec(e).range);
        }
        ranges
    };

    for i in 0..constraints.len() {
        for j in i + 1..constraints.len() {
            let (b1, spec1) = constraints[i];
            let (b2, spec2) = constraints[j];
            // Same downward-monotonicity argument per pair: if some direct
            // parent already inherits both constraints, it owns the check.
            let covered_by_parent = schema
                .supers(class)
                .iter()
                .any(|&p| schema.is_subclass(p, b1) && schema.is_subclass(p, b2));
            if covered_by_parent {
                continue;
            }
            if spec1.range.overlaps(schema, &spec2.range) {
                continue;
            }
            let rs1 = allowed(b1, &spec1.range);
            let rs2 = allowed(b2, &spec2.range);
            let overlap = rs1
                .iter()
                .any(|r1| rs2.iter().any(|r2| r1.overlaps(schema, r2)));
            if !overlap {
                found.push(Diagnostic {
                    severity: Severity::Error,
                    kind: DiagKind::IncompatibleParents { a: b1, b: b2 },
                    class,
                    attr,
                });
            }
        }
    }

    // Exact k-way satisfiability over the allowed sets. Every provably
    // disjoint *pair* was already attributed by name above; this catches
    // the residual case where all pairs overlap but no single value
    // satisfies the whole set. Skip when this site already has an error
    // (the schema is known broken here; a second report is noise) or when
    // the whole constraint set is co-inherited through one parent and
    // nothing is declared locally (checked there).
    let already_errored = found
        .iter()
        .any(|d| d.attr == attr && d.severity == Severity::Error);
    let all_covered = schema.declared_attr(class, attr).is_none()
        && schema
            .supers(class)
            .iter()
            .any(|&p| constraints.iter().all(|(b, _)| schema.is_subclass(p, *b)));
    if already_errored || all_covered {
        return;
    }
    // Fast path: if the constraint set has a *unique minimal* declarer M
    // whose declaration passed the acceptance rule, every value of M's
    // range already satisfies each ancestor constraint (directly or via
    // the excuse branch the instance is entitled to) — the site is
    // satisfiable by construction. Only genuine multi-lineage joins (two
    // or more incomparable minimal declarers) need the k-way test.
    let minimal_count = constraints
        .iter()
        .filter(|(b, _)| {
            !constraints
                .iter()
                .any(|(other, _)| other != b && schema.is_strict_subclass(*other, *b))
        })
        .count();
    if minimal_count <= 1 {
        return;
    }
    // Exact admission over the allowed sets, shared with chc-lint's
    // incoherence lint (L001).
    if crate::sat::admits_common_value_of(schema, class, attr, &constraints) {
        return;
    }

    found.push(Diagnostic {
        severity: Severity::Error,
        kind: DiagKind::JointlyUnsatisfiable {
            declarers: constraints.iter().map(|(b, _)| *b).collect(),
        },
        class,
        attr,
    });
}

/// Drops the joint-satisfiability findings that restate an error at
/// another site (docs/SEMANTICS.md §3): an `IncompatibleParents` pair of
/// related declarers when a declaration error on the attribute sits at
/// either declarer or the class, and a `JointlyUnsatisfiable` site when
/// another of its declarers has any error on the attribute. It reads the
/// whole set at once, so the verdict does not depend on check order, and
/// running it twice changes nothing, so `check_incremental` may feed it
/// findings carried over from an earlier report.
pub(crate) fn suppress_restated(schema: &Schema, diagnostics: &mut Vec<Diagnostic>) {
    let mut errored = HashSet::new();
    let mut declaration_errored = HashSet::new();
    for d in diagnostics.iter().filter(|d| d.severity == Severity::Error) {
        errored.insert((d.class, d.attr));
        if matches!(
            d.kind,
            DiagKind::UnexcusedContradiction { .. } | DiagKind::ExcuseRangeEscape { .. }
        ) {
            declaration_errored.insert((d.class, d.attr));
        }
    }
    diagnostics.retain(|d| match &d.kind {
        DiagKind::IncompatibleParents { a, b } => {
            let related = schema.is_subclass(*a, *b) || schema.is_subclass(*b, *a);
            !(related
                && [*a, *b, d.class]
                    .iter()
                    .any(|&c| declaration_errored.contains(&(c, d.attr))))
        }
        DiagKind::JointlyUnsatisfiable { declarers } => !declarers
            .iter()
            .any(|&b| b != d.class && errored.contains(&(b, d.attr))),
        _ => true,
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use chc_sdl::compile;

    fn check_src(src: &str) -> (Schema, CheckReport) {
        let schema = compile(src).unwrap();
        let report = check(&schema);
        (schema, report)
    }

    #[test]
    fn proper_specialization_is_clean() {
        let (_, report) = check_src(
            "
            class Person with age: 1..120;
            class Employee is-a Person with age: 16..65;
            ",
        );
        assert!(report.is_ok());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn unexcused_contradiction_is_an_error() {
        let (schema, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with treatedBy: Psychologist;
            ",
        );
        assert!(!report.is_ok());
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].class, schema.class_by_name("Alcoholic").unwrap());
        assert!(matches!(
            errs[0].kind,
            DiagKind::UnexcusedContradiction { .. }
        ));
    }

    #[test]
    fn excused_contradiction_is_accepted() {
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn redundant_excuse_is_a_warning() {
        let (_, report) = check_src(
            "
            class Person with age: 1..120;
            class Employee is-a Person with
                age: 16..65 excuses age on Person;
            ",
        );
        assert!(report.is_ok());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn special_alc_inherits_the_excuse() {
        // §5.3: FOO ⊆ Psychologist needs no further excuse.
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class FOO is-a Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            class SpecialAlc is-a Alcoholic with treatedBy: FOO;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
        assert_eq!(report.warnings().count(), 0);
    }

    #[test]
    fn special_alc_with_redundant_excuse_warns() {
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class FOO is-a Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            class SpecialAlc is-a Alcoholic with
                treatedBy: FOO excuses treatedBy on Patient;
            ",
        );
        assert!(report.is_ok());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn special_alc_escaping_both_needs_excuses_on_both() {
        // §5.3: "if FOO is not a subclass of Psychologist, then treatedBy
        // needs to be excused on Alcoholic; and if FOO is not even a
        // subclass of Physicians, then treatedBy needs to be excused on
        // Patient as well."
        let base = "
            class Physician;
            class Psychologist;
            class Chiropractor;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
        ";
        // Missing both excuses: two errors.
        let (_, report) = check_src(&format!(
            "{base} class SpecialAlc is-a Alcoholic with treatedBy: Chiropractor;"
        ));
        assert_eq!(report.errors().count(), 2);
        // Excusing only Alcoholic still contradicts Patient.
        let (_, report) = check_src(&format!(
            "{base} class SpecialAlc is-a Alcoholic with
                treatedBy: Chiropractor excuses treatedBy on Alcoholic;"
        ));
        assert_eq!(report.errors().count(), 1);
        // Excusing both is clean.
        let (_, report) = check_src(&format!(
            "{base} class SpecialAlc is-a Alcoholic with
                treatedBy: Chiropractor
                    excuses treatedBy on Alcoholic
                    excuses treatedBy on Patient;"
        ));
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn unexcused_diamond_is_incompatible() {
        let (schema, report) = check_src(
            "
            class Person with opinion: {'Hawk, 'Dove, 'Ostrich};
            class Quaker is-a Person with opinion: {'Dove};
            class Republican is-a Person with opinion: {'Hawk};
            class QR is-a Quaker, Republican;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(errs[0].class, schema.class_by_name("QR").unwrap());
        assert!(matches!(errs[0].kind, DiagKind::IncompatibleParents { .. }));
    }

    #[test]
    fn mutually_excused_diamond_is_accepted() {
        let (_, report) = check_src(
            "
            class Person with opinion: {'Hawk, 'Dove, 'Ostrich};
            class Quaker is-a Person with
                opinion: {'Dove} excuses opinion on Republican;
            class Republican is-a Person with
                opinion: {'Hawk} excuses opinion on Quaker;
            class QR is-a Quaker, Republican;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn one_sided_excuse_resolves_blood_pressure() {
        // §5.1: hemorrhage's low blood pressure overrides renal failure's
        // high blood pressure.
        let (_, report) = check_src(
            "
            class Patient;
            class Renal_Failure_Patient is-a Patient with bloodPressure: 140..220;
            class Hemorrhaging_Patient is-a Patient with
                bloodPressure: 50..90 excuses bloodPressure on Renal_Failure_Patient;
            class Both is-a Renal_Failure_Patient, Hemorrhaging_Patient;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }

    #[test]
    fn none_range_contradiction_requires_excuse() {
        // §4.1: ward is inapplicable to ambulatory patients.
        let (_, report) = check_src(
            "
            class Ward;
            class Patient with ward: Ward;
            class Ambulatory_Patient is-a Patient with ward: None;
            ",
        );
        assert_eq!(report.errors().count(), 1);
        let (_, report) = check_src(
            "
            class Ward;
            class Patient with ward: Ward;
            class Ambulatory_Patient is-a Patient with
                ward: None excuses ward on Patient;
            ",
        );
        assert!(report.is_ok());
    }

    #[test]
    fn excuse_range_escape_detected() {
        // The excuse admits Psychologist, but the subclass claims a range
        // outside both Physician and Psychologist.
        let (_, report) = check_src(
            "
            class Physician;
            class Psychologist;
            class Plumber;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            class Odd is-a Alcoholic with treatedBy: Plumber;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        // Plumber contradicts Psychologist (Alcoholic) — unexcused — and
        // contradicts Physician (Patient) where the applicable excuse
        // (via Alcoholic) does not cover Plumber.
        assert_eq!(errs.len(), 2);
        assert!(errs
            .iter()
            .any(|e| matches!(e.kind, DiagKind::ExcuseRangeEscape { .. })));
    }

    #[test]
    fn grandparent_contradiction_also_checked() {
        let (_, report) = check_src(
            "
            class A with x: 1..100;
            class B is-a A with x: 10..50;
            class C is-a B with x: 200..300;
            ",
        );
        // C contradicts both A and B.
        assert_eq!(report.errors().count(), 2);
    }

    #[test]
    fn three_way_conflict_detected_even_when_pairs_overlap() {
        // {a,b} ∩ {b,c} ∩ {a,c}: every pair overlaps, the triple is empty.
        let (schema, report) = check_src(
            "
            class P1 with p: {'a, 'b};
            class P2 with p: {'b, 'c};
            class P3 with p: {'a, 'c};
            class Join is-a P1, P2, P3;
            ",
        );
        let errs: Vec<_> = report.errors().collect();
        assert_eq!(errs.len(), 1, "{}", report.render(&schema));
        assert_eq!(errs[0].class, schema.class_by_name("Join").unwrap());
        assert!(matches!(
            errs[0].kind,
            DiagKind::JointlyUnsatisfiable { .. }
        ));
        // One excuse (usable by Join) restores satisfiability.
        let (schema2, report2) = check_src(
            "
            class P1 with p: {'a, 'b};
            class P2 with p: {'b, 'c};
            class P3 with p: {'a, 'c} excuses p on P2;
            class Join is-a P1, P2, P3;
            ",
        );
        // P3's excuse lets P2's constraint admit {'a,'c}; 'a satisfies all.
        assert!(report2.is_ok(), "{}", report2.render(&schema2));
    }

    #[test]
    fn three_way_integer_conflict_detected() {
        let (_, report) = check_src(
            "
            class P1 with p: 1..10;
            class P2 with p: 8..20;
            class P3 with p: 12..30;
            class Join is-a P1, P2, P3;
            ",
        );
        assert_eq!(report.errors().count(), 1);
        // With compatible intervals the join is fine.
        let (_, ok) = check_src(
            "
            class P1 with p: 1..10;
            class P2 with p: 8..20;
            class P3 with p: 9..30;
            class Join is-a P1, P2, P3;
            ",
        );
        assert!(ok.is_ok());
    }

    /// `src` with its class statements in reverse order.
    fn reversed(src: &str) -> String {
        let statements: Vec<&str> = src
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        statements.iter().rev().map(|s| format!("{s};\n")).collect()
    }

    /// The errors of `src` by name, sorted, so two numberings of one
    /// schema compare equal.
    fn named_errors(src: &str) -> Vec<String> {
        let (schema, report) = check_src(src);
        let name = |c: &ClassId| schema.class_name(*c).to_string();
        let mut errors: Vec<String> = report
            .errors()
            .map(|d| {
                let (kind, mut named): (_, Vec<String>) = match &d.kind {
                    DiagKind::UnexcusedContradiction { contradicted } => {
                        ("unexcused", vec![name(contradicted)])
                    }
                    DiagKind::ExcuseRangeEscape { contradicted, .. } => {
                        ("escape", vec![name(contradicted)])
                    }
                    DiagKind::IncompatibleParents { a, b } => {
                        ("incompatible", vec![name(a), name(b)])
                    }
                    DiagKind::JointlyUnsatisfiable { declarers } => {
                        ("joint", declarers.iter().map(name).collect())
                    }
                    DiagKind::RedundantExcuse { on } => ("redundant", vec![name(on)]),
                };
                named.sort();
                format!(
                    "{}.{} {kind} {}",
                    name(&d.class),
                    schema.resolve(d.attr),
                    named.join(",")
                )
            })
            .collect();
        errors.sort();
        errors
    }

    #[test]
    fn verdict_does_not_depend_on_declaration_order() {
        // `J` forward-references its parents, so it precedes the broken
        // declaration `P2.p` in class-id order. The k-way conflict at `J`
        // restates `P2`'s error in either order.
        let forward = "
            class J is-a P2, P3;
            class P1 with p: {'a, 'b};
            class P2 is-a P1 with p: {'c};
            class P3 with p: {'a, 'c};
        ";
        for src in [forward.to_string(), reversed(forward)] {
            assert_eq!(named_errors(&src), ["P2.p unexcused P1"], "{src}");
        }
        for src in [
            "class P1 with p: {'a, 'b}; class P2 with p: {'b, 'c};
             class P3 with p: {'a, 'c}; class Join is-a P1, P2, P3;",
            "class P1 with p: {'a, 'b}; class P2 with p: {'b, 'c};
             class P3 with p: {'a, 'c} excuses p on P2; class Join is-a P1, P2, P3;",
            "class P1 with p: 1..10; class P2 with p: 8..20;
             class P3 with p: 12..30; class Join is-a P1, P2, P3;",
            "class P1 with p: 1..10; class P2 with p: 8..20;
             class P3 with p: 9..30; class Join is-a P1, P2, P3;",
        ] {
            assert_eq!(named_errors(src), named_errors(&reversed(src)), "{src}");
        }
    }

    /// A generated clean hierarchy, and the same one with the excuses of
    /// ten sites dropped.
    pub(crate) fn seeded_pair(classes: usize, seed: u64) -> (Schema, Schema) {
        let gen = chc_workloads::generate(&chc_workloads::HierarchyParams {
            classes,
            seed,
            ..Default::default()
        });
        let (faulty, _) = chc_workloads::seed_contradictions(&gen, 10, seed ^ 0x5EED);
        (gen.schema, faulty)
    }

    #[test]
    fn report_does_not_depend_on_the_worker_count() {
        for (classes, seed) in [(200, 1), (400, 2), (800, 3)] {
            let (clean, faulty) = seeded_pair(classes, seed);
            let report = check_on(&faulty, 1);
            assert!(!report.is_ok(), "the seeded faults show");
            let serial = report.render(&faulty);
            for workers in [2, 3, 8] {
                assert_eq!(
                    check_on(&faulty, workers).render(&faulty),
                    serial,
                    "{workers} workers, {} classes",
                    faulty.num_classes()
                );
            }
            let inc = crate::check_incremental(&clean, &check(&clean), &faulty);
            assert_eq!(inc.report.render(&faulty), serial, "incremental");
        }
    }

    #[test]
    fn workers_record_into_the_callers_scoped_recorder() {
        let (_, faulty) = seeded_pair(400, 2);
        let counted = |workers| {
            let stats = std::sync::Arc::new(chc_obs::StatsRecorder::new());
            let _scope = chc_obs::scoped(stats.clone());
            check_on(&faulty, workers);
            stats
        };
        let serial = counted(1);
        let sharded = counted(4);
        let n = faulty.num_classes() as u64;
        assert!(n >= 400);
        for stats in [&serial, &sharded] {
            assert_eq!(stats.counter_value(chc_obs::names::CHECK_CLASSES), n);
        }
        for name in [
            chc_obs::names::CHECK_CONTRADICTIONS,
            chc_obs::names::SUBTYPE_QUERIES,
        ] {
            assert!(serial.counter_value(name) > 0, "{name}");
            assert_eq!(
                sharded.counter_value(name),
                serial.counter_value(name),
                "{name}"
            );
        }
    }

    #[test]
    fn cross_hierarchy_excuse_is_legal() {
        // Quaker excuses Republican although neither is an ancestor of the
        // other (§5.3: "any specification on a class can contradict (and
        // excuse) a constraint on any other class").
        let (_, report) = check_src(
            "
            class Person with opinion: {'Hawk, 'Dove};
            class Republican is-a Person with opinion: {'Hawk};
            class Quaker is-a Person with
                opinion: {'Dove} excuses opinion on Republican;
            ",
        );
        assert!(report.is_ok(), "{:?}", report.diagnostics);
    }
}
