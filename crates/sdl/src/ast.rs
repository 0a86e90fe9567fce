//! The abstract syntax of SDL schemas, with names unresolved. Every name
//! borrows its text from the source the AST was parsed from.

use crate::token::Pos;

/// A parsed schema: a sequence of class definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaAst<'src> {
    /// The class definitions in source order.
    pub classes: Vec<ClassAst<'src>>,
}

/// One `class C is-a S1, S2 with …` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassAst<'src> {
    /// The class name.
    pub name: &'src str,
    /// Direct superclasses, in source order.
    pub supers: Vec<SuperAst<'src>>,
    /// Attribute declarations.
    pub attrs: Vec<AttrAst<'src>>,
    /// Source position of the `class` keyword.
    pub pos: Pos,
}

/// One superclass reference in an `is-a` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperAst<'src> {
    /// The superclass name.
    pub name: &'src str,
    /// Source position of the name in the `is-a` list.
    pub pos: Pos,
}

/// One attribute declaration `p : R excuses p on C; …`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrAst<'src> {
    /// The attribute name.
    pub name: &'src str,
    /// Its range.
    pub range: RangeAst<'src>,
    /// Excuse clauses attached to the declaration.
    pub excuses: Vec<ExcuseAst<'src>>,
    /// Source position of the attribute name.
    pub pos: Pos,
}

/// An `excuses p on C` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExcuseAst<'src> {
    /// The excused attribute's name.
    pub attr: &'src str,
    /// The class carrying the excused constraint.
    pub on: &'src str,
    /// Source position of the `excuses` keyword.
    pub pos: Pos,
}

/// A parsed range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeAst<'src> {
    /// `16..65`
    Int(i64, i64),
    /// `String`
    Str,
    /// `Integer` — the unbounded integer type of §5.4's
    /// `[salary : Integer + None / Temporary_Employee]`.
    Integer,
    /// `{'Hawk, 'Dove}`
    Enum(Vec<&'src str>),
    /// `None` — the attribute is inapplicable.
    None,
    /// `AnyEntity` — the entity top of §5.5.
    AnyEntity,
    /// A class reference such as `Physician`.
    Named(&'src str),
    /// A refined class such as `Physician [certifiedBy : {'ABO}]`.
    Refined(&'src str, Vec<AttrAst<'src>>),
    /// An anonymous in-line record such as `[street: String; city: String]`.
    Record(Vec<AttrAst<'src>>),
}
