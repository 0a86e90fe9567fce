//! L005 — no-op redefinition.
//!
//! §5.1's revised rule exists so that a subclass redefinition *says
//! something*: it either specializes the inherited range or contradicts
//! it with an excuse. A redeclaration whose range equals an inherited
//! declaration exactly, carrying no excuses, does neither — the
//! constraint already applies via inheritance and the repeated text only
//! creates a second place to edit when the range changes.

use crate::config::LintLevel;
use crate::finding::Finding;
use crate::lints::LintCtx;
use crate::LintCode;

pub(crate) fn run(ctx: &LintCtx<'_>, out: &mut Vec<Finding>) {
    let schema = ctx.schema;
    for class in schema.class_ids() {
        for decl in &schema.class(class).attrs {
            if !decl.spec.excuses.is_empty() {
                continue;
            }
            let repeated = schema.inherited_declarers(class, decl.name).find(|&b| {
                b != class
                    && schema
                        .declared_attr(b, decl.name)
                        .is_some_and(|d| d.spec.range == decl.spec.range)
            });
            let Some(from) = repeated else { continue };
            out.push(Finding {
                code: LintCode::NoopRedefinition,
                level: LintLevel::Warn,
                class,
                attr: Some(decl.name),
                file: None,
                query: None,
                span: schema.source_map().site_span(class, Some(decl.name)),
                message: format!(
                    "`{class}.{attr}` re-declares the exact range inherited from `{from}` \
                     with no excuses; the declaration changes nothing",
                    class = schema.class_name(class),
                    attr = schema.resolve(decl.name),
                    from = schema.class_name(from),
                ),
                derivation: None,
            });
        }
    }
}
