//! Systematic coverage of §5.3 — "Inheritance of excuses" — and the
//! interaction of excuses with evolution and virtualization.

use chc_core::{check, evolve, virtualize, DiagKind, Semantics};
use chc_model::Range;
use chc_sdl::compile;

#[test]
fn excuses_travel_any_distance_down() {
    // The excuse sits three levels above the class that needs it.
    let (_, report) = checked(
        "
        class Physician;
        class Psychologist;
        class ChildPsychologist is-a Psychologist;
        class PlayTherapist is-a ChildPsychologist;
        class Patient with treatedBy: Physician;
        class Alcoholic is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        class A1 is-a Alcoholic;
        class A2 is-a A1;
        class A3 is-a A2 with treatedBy: PlayTherapist;
        ",
    );
    assert!(report.is_ok(), "the great-grandchild rides the excuse");
}

#[test]
fn sibling_excuses_do_not_apply() {
    // Two siblings each excuse for themselves; a third sibling cannot
    // borrow their excuses.
    let (_, report) = checked(
        "
        class Physician;
        class Psychologist;
        class Patient with treatedBy: Physician;
        class A is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        class B is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        class C is-a Patient with treatedBy: Psychologist;
        ",
    );
    let errs: Vec<_> = report.errors().collect();
    assert_eq!(errs.len(), 1);
    assert!(matches!(errs[0].kind, DiagKind::UnexcusedContradiction { .. }));
}

#[test]
fn diamond_inherits_the_excuse_through_either_arm() {
    let (_, report) = checked(
        "
        class Physician;
        class Psychologist;
        class Patient with treatedBy: Physician;
        class Alcoholic is-a Patient with
            treatedBy: Psychologist excuses treatedBy on Patient;
        class Elderly is-a Patient;
        class ElderlyAlcoholic is-a Alcoholic, Elderly;
        ",
    );
    assert!(report.is_ok(), "{:?}", report.diagnostics);
}

#[test]
fn excuse_must_cover_the_whole_new_range() {
    // The excusing range is {'a}; a grandchild claiming {'a,'b} escapes it.
    let (schema, report) = checked(
        "
        class Root with p: {'x};
        class Mid is-a Root with p: {'a} excuses p on Root;
        class Leaf is-a Mid with p: {'a, 'b};
        ",
    );
    let errs: Vec<_> = report.errors().collect();
    // Leaf contradicts Mid (unexcused) and escapes the Root excuse.
    assert_eq!(errs.len(), 2, "{}", report.render(&schema));
    assert!(errs.iter().any(|e| matches!(e.kind, DiagKind::ExcuseRangeEscape { .. })));
}

#[test]
fn multiple_excusers_any_one_suffices() {
    let (_, report) = checked(
        "
        class Root with p: {'x};
        class E1 is-a Root with p: {'a} excuses p on Root;
        class E2 is-a Root with p: {'a, 'b} excuses p on Root;
        class Both is-a E1, E2 with
            p: {'b} excuses p on E1;
        ",
    );
    // Both's {'b}: contradicts Root (excused via E2, whose {'a,'b} covers),
    // contradicts E1 {'a} (locally excused), specializes E2.
    assert!(report.is_ok(), "{:?}", report.diagnostics);
}

#[test]
fn evolution_then_virtualization_compose() {
    let schema = compile(
        "
        class Address with state: {'NJ};
        class Hospital with location: Address;
        class Patient with treatedAt: Hospital;
        ",
    )
    .unwrap();
    // Add the exceptional subclass via the SDL (embedded excuse), then
    // virtualize, then evolve the virtualized schema further.
    let extended = compile(
        "
        class Address with state: {'NJ};
        class Hospital with location: Address;
        class Patient with treatedAt: Hospital;
        class Tubercular is-a Patient with
            treatedAt: Hospital [
                location: Address [state: None excuses state on Address]
            ];
        ",
    )
    .unwrap();
    let v = virtualize(&extended).unwrap();
    assert!(check(&v.schema).is_ok());
    // Evolve the virtualized schema: narrow Address.state; the virtual A1
    // class's excuse still covers, so only proper-specialization errors
    // appear (none here: {'NJ} -> {'NJ} unchanged for others).
    let address = v.schema.class_by_name("Address").unwrap();
    let state = v.schema.sym("state").unwrap();
    let nj = v.schema.sym("NJ").unwrap();
    let evolved = evolve::set_range(
        &v.schema,
        address,
        state,
        Range::enumeration([nj]).unwrap(),
    )
    .unwrap();
    assert!(evolved.report.is_ok(), "{}", evolved.report.render(&evolved.schema));
    let _ = schema;
}

#[test]
fn all_semantics_are_distinct_on_some_instance() {
    // Sanity: the five semantics really are five different relations —
    // exhibited pairwise on the vignette data in the E7 matrix; here we
    // just confirm the enum carries all five.
    assert_eq!(Semantics::ALL.len(), 5);
    let labels: std::collections::BTreeSet<_> =
        Semantics::ALL.iter().map(|s| s.label()).collect();
    assert_eq!(labels.len(), 5);
}

fn checked(src: &str) -> (chc_model::Schema, chc_core::CheckReport) {
    let schema = compile(src).unwrap();
    let report = check(&schema);
    (schema, report)
}

mod incremental {
    use chc_core::{check, check_incremental, evolve};
    use chc_model::Range;
    use chc_workloads::{generate, seed_contradictions, HierarchyParams};

    /// Incremental re-check after an edit must equal the full check, must
    /// re-check at least the edited class and its descendants, and the
    /// rest of the full report must be untouched by the edit.
    #[test]
    fn incremental_recheck_equals_filtered_full_check() {
        for seed in 0..10u64 {
            let gen = generate(&HierarchyParams {
                classes: 50,
                seed,
                ..Default::default()
            });
            if gen.excused_sites.is_empty() {
                continue;
            }
            // Edit: drop the excuses at one site (guaranteed contradiction).
            let (mutated, faults) = seed_contradictions(&gen, 1, seed ^ 0xABCD);
            let Some(fault) = faults.first() else {
                continue;
            };
            let affected: Vec<_> = mutated.descendants_with_self(fault.class).collect();

            let before = check(&gen.schema);
            let full = check(&mutated);
            let inc = check_incremental(&gen.schema, &before, &mutated);
            assert_eq!(inc.report.diagnostics, full.diagnostics, "seed {seed}");
            for class in &affected {
                assert!(
                    inc.dirty.classes.contains(class),
                    "seed {seed}: {class:?} not re-checked"
                );
            }

            // Outside the affected set, the edit changed nothing: those
            // diagnostics match the pre-edit schema's.
            let outside = |report: &chc_core::CheckReport| -> Vec<_> {
                report
                    .diagnostics
                    .iter()
                    .filter(|d| !affected.contains(&d.class))
                    .cloned()
                    .collect()
            };
            assert_eq!(
                outside(&full),
                outside(&before),
                "seed {seed}: locality violated"
            );
        }
    }

    #[test]
    fn incremental_recheck_after_range_edit() {
        let schema = chc_sdl::compile(
            "
            class Person with age: 1..120;
            class Employee is-a Person with age: 16..65;
            class Manager is-a Employee;
            class Patient is-a Person;
            ",
        )
        .unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        let age = schema.sym("age").unwrap();
        // Break Employee.age so it contradicts Person.age.
        let evolved =
            evolve::set_range(&schema, employee, age, Range::int(0, 200).unwrap()).unwrap();
        let inc = check_incremental(&schema, &check(&schema), &evolved.schema);
        assert_eq!(inc.report.errors().count(), 1);
        assert_eq!(inc.report.diagnostics, evolved.report.diagnostics);
        // Patient is outside the edit's cone: it is never re-checked.
        let patient = evolved.schema.class_by_name("Patient").unwrap();
        assert!(!inc.dirty.classes.contains(&patient));
    }
}

mod virtualize_properties {
    use chc_core::{check, virtualize};
    use chc_sdl::compile;
    use chc_workloads::vignettes;

    #[test]
    fn virtualize_is_idempotent() {
        let schema = vignettes::compiled(vignettes::HOSPITAL);
        let v1 = virtualize(&schema).unwrap();
        let v2 = virtualize(&v1.schema).unwrap();
        assert!(v2.virtuals.is_empty(), "second pass must find nothing to lower");
        assert_eq!(v2.schema.num_classes(), v1.schema.num_classes());
    }

    #[test]
    fn two_refinements_in_one_class() {
        let schema = compile(
            "
            class Address with state: {'NJ};
            class Person with
                home: Address [state: None excuses state on Address];
                office: Address [state: None excuses state on Address];
            ",
        )
        .unwrap();
        let v = virtualize(&schema).unwrap();
        assert_eq!(v.virtuals.len(), 2, "one virtual class per refinement site");
        assert!(check(&v.schema).is_ok(), "{}", check(&v.schema).render(&v.schema));
        // Distinct names, distinct paths.
        assert_ne!(v.virtuals[0].class, v.virtuals[1].class);
        assert_ne!(v.virtuals[0].path, v.virtuals[1].path);
    }

    #[test]
    fn refinement_inside_anonymous_record() {
        let schema = compile(
            "
            class Address with state: {'NJ};
            class Person with
                contact: [mail: Address [state: None excuses state on Address]];
            ",
        )
        .unwrap();
        let v = virtualize(&schema).unwrap();
        assert_eq!(v.virtuals.len(), 1);
        assert_eq!(v.virtuals[0].path.len(), 2, "path goes through the record field");
        assert!(check(&v.schema).is_ok());
    }
}
