//! Lowering parsed ASTs into `chc_model::Schema`s.
//!
//! Resolution is two-pass so classes may be referenced before their
//! definition appears (the paper freely forward-references `Employee`
//! inside its own definition, and `Hospital` before defining it).
//!
//! While lowering, the builder's [`SourceMap`](chc_model::SourceMap) is
//! populated with the position of every class definition, attribute
//! declaration, excuse clause, and is-a edge, so downstream diagnostics
//! (`chc-core`'s checker, `chc-lint`) can point at `file:line:col`.
//! Structural errors raised by the builder are wrapped with the nearest
//! source position.

use chc_model::{AttrSpec, ClassId, FieldSpec, ModelError, Range, Schema, SchemaBuilder, Sym};
use chc_obs::names;

use crate::ast::{AttrAst, RangeAst, SchemaAst};
use crate::error::SdlError;
use crate::lexer::lex;
use crate::parser::parse_tokens;
use crate::token::Pos;

/// Parses and lowers SDL source text into a checked-for-structure schema.
///
/// ```
/// let schema = chc_sdl::compile("
///     class Person with age: 1..120;
///     class Employee is-a Person with age: 16..65;
/// ").unwrap();
/// let employee = schema.class_by_name("Employee").unwrap();
/// let person = schema.class_by_name("Person").unwrap();
/// assert!(schema.is_strict_subclass(employee, person));
/// ```
pub fn compile(src: &str) -> Result<Schema, SdlError> {
    compile_phases(src, None)
}

/// Like [`compile`], but records `file` in the schema's
/// [`SourceMap`](chc_model::SourceMap), so diagnostics over the resulting
/// schema render positions as `file:line:col` rather than `line:col`.
pub fn compile_with_source(src: &str, file: &str) -> Result<Schema, SdlError> {
    compile_phases(src, Some(file))
}

/// Lowers an already-parsed AST.
pub fn lower(ast: &SchemaAst<'_>) -> Result<Schema, SdlError> {
    lower_with_file(ast, None)
}

/// One `sdl.compile` span over its `sdl.lex`, `sdl.parse` and `sdl.lower`
/// phases.
fn compile_phases(src: &str, file: Option<&str>) -> Result<Schema, SdlError> {
    let _compile = chc_obs::span(names::SPAN_SDL_COMPILE);
    let _mem =
        chc_obs::memalloc::span_mem(names::MEM_SDL_COMPILE_BYTES, names::MEM_SDL_COMPILE_PEAK);
    let toks = {
        let _lex = chc_obs::span(names::SPAN_SDL_LEX);
        lex(src)?
    };
    let ast = {
        let _parse = chc_obs::span(names::SPAN_SDL_PARSE);
        parse_tokens(toks)?
    };
    let _lower = chc_obs::span(names::SPAN_SDL_LOWER);
    lower_with_file(&ast, file)
}

fn lower_with_file(ast: &SchemaAst<'_>, file: Option<&str>) -> Result<Schema, SdlError> {
    let mut b = SchemaBuilder::new();
    if let Some(f) = file {
        b.source_map_mut().set_file(f);
    }
    // Pass 1: declare every class name.
    let mut ids = Vec::with_capacity(ast.classes.len());
    for class in &ast.classes {
        // On a duplicate, `class.pos` is the second occurrence.
        ids.push(model_at(b.declare(class.name), class.pos)?);
    }
    // Pass 2: supers and attributes.
    for (class, &id) in ast.classes.iter().zip(&ids) {
        b.record_class_span(id, span(class.pos));
        for sup in &class.supers {
            let sup_id = resolve_class(&b, sup.name, sup.pos)?;
            model_at(b.add_super(id, sup_id), sup.pos)?;
            b.source_map_mut().record_super(id, sup_id, span(sup.pos));
        }
        for attr in &class.attrs {
            let spec = lower_attr_spec(&mut b, attr)?;
            // `spec.excuses` holds the declaration's own clauses, lowered
            // in source order.
            for (exc, lowered) in attr.excuses.iter().zip(&spec.excuses) {
                b.source_map_mut()
                    .record_excuse(id, lowered.attr, lowered.on, span(exc.pos));
            }
            let attr_sym = model_at(b.add_attr(id, attr.name, spec), attr.pos)?;
            b.source_map_mut().record_attr(id, attr_sym, span(attr.pos));
        }
    }
    b.build().map_err(|err| SdlError::Model {
        pos: build_error_pos(ast, &err),
        err,
    })
}

fn span(p: Pos) -> chc_model::Span {
    chc_model::Span {
        line: p.line,
        col: p.col,
    }
}

/// Wraps a builder error with the source position of the declaration
/// being lowered.
fn model_at<T>(r: Result<T, ModelError>, pos: Pos) -> Result<T, SdlError> {
    r.map_err(|err| SdlError::Model {
        pos: Some(pos),
        err,
    })
}

/// Best-effort position for an error raised at `build()` time, when the
/// builder no longer knows which declaration was at fault.
fn build_error_pos(ast: &SchemaAst<'_>, err: &ModelError) -> Option<Pos> {
    let class_pos = |name: &str| ast.classes.iter().find(|c| c.name == name).map(|c| c.pos);
    match err {
        ModelError::IsACycle(name)
        | ModelError::DuplicateClass(name)
        | ModelError::UnknownClass(name) => class_pos(name),
        ModelError::DuplicateAttr { class, .. }
        | ModelError::DuplicateSuper { class, .. }
        | ModelError::UnknownAttr { class, .. } => class_pos(class),
        ModelError::ExcusedAttrUndeclared { on, attr } => excuse_pos(ast, on, attr),
        _ => None,
    }
}

/// Finds the `excuses attr on C` clause naming `on`/`attr`, including
/// clauses nested inside record ranges.
fn excuse_pos(ast: &SchemaAst<'_>, on: &str, attr: &str) -> Option<Pos> {
    fn scan(attrs: &[AttrAst<'_>], on: &str, attr: &str) -> Option<Pos> {
        for a in attrs {
            if let Some(e) = a.excuses.iter().find(|e| e.on == on && e.attr == attr) {
                return Some(e.pos);
            }
            if let RangeAst::Refined(_, fields) | RangeAst::Record(fields) = &a.range {
                if let Some(p) = scan(fields, on, attr) {
                    return Some(p);
                }
            }
        }
        None
    }
    ast.classes.iter().find_map(|c| scan(&c.attrs, on, attr))
}

fn resolve_class(b: &SchemaBuilder, name: &str, pos: Pos) -> Result<ClassId, SdlError> {
    b.class_id(name).ok_or_else(|| SdlError::UnknownClass {
        pos,
        name: name.to_string(),
    })
}

fn lower_attr_spec(b: &mut SchemaBuilder, attr: &AttrAst<'_>) -> Result<AttrSpec, SdlError> {
    let range = lower_range(b, &attr.range, attr.pos)?;
    let mut spec = AttrSpec::plain(range);
    for exc in &attr.excuses {
        let on = resolve_class(b, exc.on, exc.pos)?;
        let attr_sym = b.intern(exc.attr);
        spec = spec.excusing(attr_sym, on);
    }
    Ok(spec)
}

fn lower_range(b: &mut SchemaBuilder, range: &RangeAst<'_>, pos: Pos) -> Result<Range, SdlError> {
    Ok(match range {
        RangeAst::Int(lo, hi) => model_at(Range::int(*lo, *hi), pos)?,
        RangeAst::Str => Range::Str,
        RangeAst::Integer => Range::Int {
            lo: i64::MIN,
            hi: i64::MAX,
        },
        RangeAst::None => Range::None,
        RangeAst::AnyEntity => Range::AnyEntity,
        RangeAst::Enum(toks) => {
            let syms: Vec<Sym> = toks.iter().map(|t| b.intern(t)).collect();
            model_at(Range::enumeration(syms), pos)?
        }
        RangeAst::Named(name) => Range::Class(resolve_class(b, name, pos)?),
        RangeAst::Refined(name, fields) => {
            let base = resolve_class(b, name, pos)?;
            lower_record(b, Some(base), fields, pos)?
        }
        RangeAst::Record(fields) => lower_record(b, None, fields, pos)?,
    })
}

fn lower_record(
    b: &mut SchemaBuilder,
    base: Option<ClassId>,
    fields: &[AttrAst<'_>],
    pos: Pos,
) -> Result<Range, SdlError> {
    let mut specs = Vec::with_capacity(fields.len());
    // Field names for the error text only, borrowed from the AST.
    let mut names: Vec<(Sym, &str)> = Vec::with_capacity(fields.len());
    for f in fields {
        let name = b.intern(f.name);
        names.push((name, f.name));
        let spec = lower_attr_spec(b, f)?;
        specs.push(FieldSpec { name, spec });
    }
    let resolve = move |s: Sym| {
        names
            .iter()
            .find(|(sym, _)| *sym == s)
            .map(|(_, n)| n.to_string())
            .unwrap_or_else(|| format!("{s:?}"))
    };
    model_at(Range::record(&resolve, base, specs), pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_model::ModelError;

    #[test]
    fn lowers_paper_schema() {
        let schema = compile(
            "
            class Address with
                street: String; city: String; state: {'AL, 'WV};
            class Person with
                name: String; age: 1..120; home: Address;
            class Employee is-a Person with
                age: 16..65; supervisor: Employee; office: Address;
            ",
        )
        .unwrap();
        let person = schema.class_by_name("Person").unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        assert!(schema.is_strict_subclass(employee, person));
        let age = schema.sym("age").unwrap();
        assert_eq!(schema.constraints_on(employee, age).len(), 2);
    }

    #[test]
    fn forward_references_resolve() {
        let schema = compile(
            "
            class Patient is-a Person with treatedAt: Hospital;
            class Person;
            class Hospital;
            ",
        )
        .unwrap();
        assert!(schema.class_by_name("Hospital").is_some());
    }

    #[test]
    fn unknown_class_reported_with_position() {
        let err = compile("class A with x: Nowhere").unwrap_err();
        assert!(matches!(err, SdlError::UnknownClass { ref name, .. } if name == "Nowhere"));
    }

    #[test]
    fn excuses_land_in_the_index() {
        let schema = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let entries = schema.excusers_of(patient, treated_by);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].excuser, alcoholic);
    }

    #[test]
    fn nested_excuses_lower_into_field_specs() {
        let schema = compile(
            "
            class Address with state: {'NJ}; country: {'USA};
            class Hospital with accreditation: {'Local}; location: Address;
            class Patient with treatedAt: Hospital;
            class Tubercular_Patient is-a Patient with
                treatedAt: Hospital [
                    accreditation: None excuses accreditation on Hospital;
                    location: Address [
                        state: None excuses state on Address;
                        country: {'Switzerland}
                    ]
                ];
            ",
        )
        .unwrap();
        let tb = schema.class_by_name("Tubercular_Patient").unwrap();
        let treated_at = schema.sym("treatedAt").unwrap();
        let decl = schema.declared_attr(tb, treated_at).unwrap();
        let Range::Record {
            base: Some(base),
            fields,
        } = &decl.spec.range
        else {
            panic!("expected refined record range");
        };
        assert_eq!(*base, schema.class_by_name("Hospital").unwrap());
        assert_eq!(fields.len(), 2);
        let acc = &fields[0];
        assert_eq!(acc.spec.excuses.len(), 1);
        assert_eq!(
            acc.spec.excuses[0].on,
            schema.class_by_name("Hospital").unwrap()
        );
    }

    #[test]
    fn model_errors_carry_the_nearest_position() {
        // The duplicate is the second `class A`, at column 10.
        let err = compile("class A; class A").unwrap_err();
        match err {
            SdlError::Model {
                pos: Some(pos),
                err: ModelError::DuplicateClass(name),
            } => {
                assert_eq!(name, "A");
                assert_eq!((pos.line, pos.col), (1, 10));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A cycle is detected at build time; the position points at one of
        // the classes on the cycle.
        let err = compile("class A is-a B; class B is-a A").unwrap_err();
        match err {
            SdlError::Model {
                pos,
                err: ModelError::IsACycle(_),
            } => assert!(pos.is_some()),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn source_map_records_spans() {
        let schema = compile_with_source(
            "class Person with age: 1..120;\nclass Employee is-a Person with age: 16..65;",
            "demo.sdl",
        )
        .unwrap();
        let m = schema.source_map();
        assert_eq!(m.file(), Some("demo.sdl"));
        let person = schema.class_by_name("Person").unwrap();
        let employee = schema.class_by_name("Employee").unwrap();
        let age = schema.sym("age").unwrap();
        assert_eq!(m.class_span(person).unwrap().line, 1);
        assert_eq!(m.class_span(employee).unwrap().line, 2);
        let decl = m.attr_span(employee, age).unwrap();
        assert_eq!((decl.line, decl.col), (2, 33));
        let edge = m.super_span(employee, person).unwrap();
        assert_eq!((edge.line, edge.col), (2, 21));
        assert_eq!(m.locate(decl), "demo.sdl:2:33");
    }

    #[test]
    fn excuse_spans_are_recorded() {
        let schema = compile(
            "
            class Physician;
            class Psychologist;
            class Patient with treatedBy: Physician;
            class Alcoholic is-a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
            ",
        )
        .unwrap();
        let alcoholic = schema.class_by_name("Alcoholic").unwrap();
        let patient = schema.class_by_name("Patient").unwrap();
        let treated_by = schema.sym("treatedBy").unwrap();
        let span = schema
            .source_map()
            .excuse_span(alcoholic, treated_by, patient)
            .expect("excuse span recorded");
        assert_eq!(span.line, 6);
    }

    #[test]
    fn integer_keyword_is_unbounded() {
        let schema = compile("class T with salary: Integer").unwrap();
        let t = schema.class_by_name("T").unwrap();
        let salary = schema.sym("salary").unwrap();
        let decl = schema.declared_attr(t, salary).unwrap();
        assert_eq!(
            decl.spec.range,
            Range::Int {
                lo: i64::MIN,
                hi: i64::MAX
            }
        );
    }
}
