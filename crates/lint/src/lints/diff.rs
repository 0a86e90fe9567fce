//! D001–D005: schema-evolution lints over a semantic diff.
//!
//! These lints consume the edit list and impact cones computed by
//! `chc_core::evolve::diff` and report the evolution hazards the paper's
//! §6 warns about: veracity says every edit propagates to the subclasses,
//! so the lints speak in terms of the *cone* an edit dirties, not just
//! the edited declaration.

use chc_core::{
    admits_common_value, edit_cone, explain_admissibility, DirtySet, EditDetail, SchemaDiff,
    SchemaEdit,
};
use chc_model::{ClassId, Schema};

use crate::code::LintCode;
use crate::config::LintLevel;
use crate::finding::Finding;

pub(crate) fn run(
    old: &Schema,
    new: &Schema,
    diff: &SchemaDiff,
    dirty: &DirtySet,
    old_file: &str,
    findings: &mut Vec<Finding>,
) {
    for edit in &diff.edits {
        breaking_narrowing(old, new, edit, findings);
        excuse_retired_orphan(new, edit, old_file, findings);
        silent_widening(new, edit, findings);
        cone_report(old, new, edit, old_file, findings);
    }
    contradiction_introduced(old, new, dirty, findings);
}

/// The number of extents an edit forces back through validation.
fn extent_count(old: &Schema, new: &Schema, edit: &SchemaEdit) -> usize {
    edit_cone(old, new, edit).extents.len()
}

/// D001: a range narrowed (or incomparably changed) under stored objects.
fn breaking_narrowing(old: &Schema, new: &Schema, edit: &SchemaEdit, findings: &mut Vec<Finding>) {
    let (old_r, new_r, how) = match &edit.detail {
        EditDetail::RangeNarrowed { old, new } => (old, new, "narrowed"),
        EditDetail::RangeChanged { old, new } => (old, new, "changed incomparably"),
        _ => return,
    };
    let Some(nc) = edit.new_class else { return };
    let attr = edit.attr.as_deref().unwrap_or("?");
    let extents = extent_count(old, new, edit);
    findings.push(Finding {
        code: LintCode::BreakingNarrowing,
        level: LintLevel::Warn,
        class: nc,
        attr: edit.attr.as_deref().and_then(|a| new.sym(a)),
        span: edit.new_span,
        file: None,
        query: None,
        message: format!(
            "`{}.{attr}` {how} from {old_r} to {new_r}; stored objects of {extents} \
             extent(s) may no longer validate and need re-checking",
            edit.class,
        ),
        derivation: None,
    });
}

/// D002: the edit made a previously coherent class incoherent. Judged
/// through the shared §5.1 admissibility funnel on both sides of the
/// diff, with the new schema's derivation attached.
fn contradiction_introduced(
    old: &Schema,
    new: &Schema,
    dirty: &DirtySet,
    findings: &mut Vec<Finding>,
) {
    for &nc in &dirty.classes {
        let Some(oc) = old.class_by_name(new.class_name(nc)) else {
            // A brand-new class was never coherent before; its own
            // incoherence is L001 territory, not an evolution hazard.
            continue;
        };
        for attr in new.applicable_attrs(nc) {
            if admits_common_value(new, nc, attr) {
                continue;
            }
            let was_coherent = old
                .sym(new.resolve(attr))
                .is_some_and(|oa| old.has_attr(oc, oa) && admits_common_value(old, oc, oa));
            if !was_coherent {
                continue;
            }
            findings.push(Finding {
                code: LintCode::ContradictionIntroduced,
                level: LintLevel::Warn,
                class: nc,
                attr: Some(attr),
                span: new.source_map().site_span(nc, Some(attr)),
                file: None,
                query: None,
                message: format!(
                    "this edit leaves no admissible value for `{}.{}`: the class was \
                     coherent in the old schema and is incoherent now",
                    new.class_name(nc),
                    new.resolve(attr),
                ),
                derivation: Some(explain_admissibility(new, nc, attr)),
            });
        }
    }
}

/// D003: an excuse was retired while the contradiction it covered is
/// still there — objects admitted only under the §5.2 excuse semantics
/// are orphaned. Anchored at the retired clause in the *old* file.
fn excuse_retired_orphan(
    new: &Schema,
    edit: &SchemaEdit,
    old_file: &str,
    findings: &mut Vec<Finding>,
) {
    let EditDetail::ExcuseRetired { excused, on } = &edit.detail else {
        return;
    };
    let Some(nc) = edit.new_class else { return };
    let (Some(attr), Some(excused_sym), Some(on_id)) = (
        edit.attr.as_deref().and_then(|a| new.sym(a)),
        new.sym(excused),
        new.class_by_name(on),
    ) else {
        return;
    };
    let Some(decl) = new.declared_attr(nc, attr) else {
        return;
    };
    // Still contradicted in the new schema? Find the constraint the old
    // clause excused; if the edge or constraint is gone too, there is
    // nothing left to orphan.
    let contradicted = new
        .constraints_on(nc, excused_sym)
        .into_iter()
        .find(|(c, _)| *c == on_id)
        .is_some_and(|(_, spec)| !spec.range.subsumes(new, &decl.spec.range));
    if !contradicted {
        return;
    }
    findings.push(Finding {
        code: LintCode::ExcuseRetiredOrphan,
        level: LintLevel::Warn,
        class: nc,
        attr: Some(attr),
        span: edit.old_span,
        file: Some(old_file.to_string()),
        query: None,
        message: format!(
            "excuse of `{on}.{excused}` by `{}` was retired, but its range still \
             contradicts the constraint; objects admitted only under the excuse are orphaned",
            edit.class,
        ),
        derivation: None,
    });
}

/// D004: info — a widening nothing below was forced to acknowledge.
fn silent_widening(new: &Schema, edit: &SchemaEdit, findings: &mut Vec<Finding>) {
    let EditDetail::RangeWidened {
        old: old_r,
        new: new_r,
    } = &edit.detail
    else {
        return;
    };
    let Some(nc) = edit.new_class else { return };
    let attr = edit.attr.as_deref().unwrap_or("?");
    findings.push(Finding {
        code: LintCode::SilentWidening,
        level: LintLevel::Info,
        class: nc,
        attr: edit.attr.as_deref().and_then(|a| new.sym(a)),
        span: edit.new_span,
        file: None,
        query: None,
        message: format!(
            "`{}.{attr}` silently widened from {old_r} to {new_r}; stored objects keep \
             validating, but old readers may now see out-of-range values",
            edit.class,
        ),
        derivation: None,
    });
}

/// D005: info — one line per edit stating the size of its impact cone.
fn cone_report(
    old: &Schema,
    new: &Schema,
    edit: &SchemaEdit,
    old_file: &str,
    findings: &mut Vec<Finding>,
) {
    let cone = edit_cone(old, new, edit);
    // Anchor at the class in the new schema when it survives; otherwise
    // at a representative of the cone (skip if the cone is empty too —
    // e.g. a retired leaf affects nothing that still exists).
    let anchor: Option<ClassId> = edit.new_class.or_else(|| cone.classes.first().copied());
    let Some(anchor) = anchor else { return };
    let (span, file) = if edit.new_class.is_some() {
        (edit.new_span, None)
    } else {
        (edit.old_span, Some(old_file.to_string()))
    };
    findings.push(Finding {
        code: LintCode::ConeReport,
        level: LintLevel::Info,
        class: anchor,
        attr: edit.attr.as_deref().and_then(|a| new.sym(a)),
        span,
        file,
        query: None,
        message: format!(
            "{}; impact cone: {} class(es) to re-check, {} extent(s) to re-validate",
            edit.describe(),
            cone.classes.len(),
            cone.extents.len(),
        ),
        derivation: None,
    });
}
