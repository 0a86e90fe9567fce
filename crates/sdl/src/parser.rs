//! Recursive-descent parser for SDL.
//!
//! Grammar (semicolons after the last attribute and after a class body are
//! optional, matching the paper's loose typography):
//!
//! ```text
//! schema   := class*
//! class    := "class" IDENT ("is-a" IDENT ("," IDENT)*)? ("with" attrs)?
//! attrs    := attr (";" attr)* ";"?
//! attr     := IDENT ":" range excuse*
//! excuse   := "excuses" IDENT "on" IDENT
//! range    := INT ".." INT
//!           | "{" QUOTED ("," QUOTED)* "}"
//!           | "[" attrs "]"
//!           | IDENT ("[" attrs "]")?     -- String/Integer/None/AnyEntity special-cased
//! ```

use crate::ast::{AttrAst, ClassAst, ExcuseAst, RangeAst, SchemaAst, SuperAst};
use crate::error::SdlError;
use crate::lexer::lex;
use crate::token::{Pos, Spanned, Tok};

/// Parses SDL source text into an AST that borrows its names from `src`.
pub fn parse(src: &str) -> Result<SchemaAst<'_>, SdlError> {
    parse_tokens(lex(src)?)
}

/// Parses the tokens [`lex`] produced.
pub(crate) fn parse_tokens(toks: Vec<Spanned<'_>>) -> Result<SchemaAst<'_>, SdlError> {
    Parser { toks, at: 0 }.schema()
}

struct Parser<'src> {
    toks: Vec<Spanned<'src>>,
    at: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Tok<'src> {
        self.toks[self.at].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].pos
    }

    fn bump(&mut self) -> Tok<'src> {
        let t = self.peek();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn eat(&mut self, want: Tok<'_>) -> bool {
        if self.peek() == want {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: Tok<'_>, ctx: &str) -> Result<(), SdlError> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.unexpected(ctx))
        }
    }

    fn unexpected(&self, expected: &str) -> SdlError {
        SdlError::Parse {
            pos: self.pos(),
            expected: expected.to_string(),
            found: self.peek().to_string(),
        }
    }

    fn ident(&mut self, ctx: &str) -> Result<&'src str, SdlError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected(ctx)),
        }
    }

    fn schema(mut self) -> Result<SchemaAst<'src>, SdlError> {
        let mut classes = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            classes.push(self.class()?);
        }
        Ok(SchemaAst { classes })
    }

    fn class(&mut self) -> Result<ClassAst<'src>, SdlError> {
        let pos = self.pos();
        self.expect(Tok::KwClass, "`class`")?;
        let name = self.ident("a class name")?;
        let mut supers = Vec::new();
        if self.eat(Tok::KwIsA) {
            loop {
                let pos = self.pos();
                let name = self.ident("a superclass name")?;
                supers.push(SuperAst { name, pos });
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        let mut attrs = Vec::new();
        if self.eat(Tok::KwWith) {
            attrs = self.attrs(&[Tok::KwClass, Tok::Eof])?;
        }
        // Optional trailing semicolon after a class body.
        self.eat(Tok::Semi);
        Ok(ClassAst {
            name,
            supers,
            attrs,
            pos,
        })
    }

    /// Parses `attr (; attr)* ;?` until one of `stops` (not consumed).
    fn attrs(&mut self, stops: &[Tok<'_>]) -> Result<Vec<AttrAst<'src>>, SdlError> {
        let mut out = Vec::new();
        loop {
            if stops.contains(&self.peek()) {
                return Ok(out);
            }
            out.push(self.attr()?);
            // Attributes are separated by `;`; a stop token also ends the list.
            if self.eat(Tok::Semi) {
                continue;
            }
            if stops.contains(&self.peek()) {
                return Ok(out);
            }
            return Err(self.unexpected("`;` or the end of the attribute list"));
        }
    }

    fn attr(&mut self) -> Result<AttrAst<'src>, SdlError> {
        let pos = self.pos();
        let name = self.ident("an attribute name")?;
        self.expect(Tok::Colon, "`:` after attribute name")?;
        let range = self.range()?;
        let mut excuses = Vec::new();
        while matches!(self.peek(), Tok::KwExcuses) {
            let pos = self.pos();
            self.bump();
            let attr = self.ident("the excused attribute's name")?;
            self.expect(Tok::KwOn, "`on`")?;
            let on = self.ident("the excused class's name")?;
            excuses.push(ExcuseAst { attr, on, pos });
        }
        Ok(AttrAst {
            name,
            range,
            excuses,
            pos,
        })
    }

    fn range(&mut self) -> Result<RangeAst<'src>, SdlError> {
        match self.peek() {
            Tok::Int(lo) => {
                self.bump();
                self.expect(Tok::DotDot, "`..` in integer range")?;
                match self.bump() {
                    Tok::Int(hi) => Ok(RangeAst::Int(lo, hi)),
                    _ => Err(self.unexpected("the range's upper bound")),
                }
            }
            Tok::LBrace => {
                self.bump();
                let mut toks = Vec::new();
                loop {
                    match self.bump() {
                        Tok::Quoted(t) => toks.push(t),
                        _ => return Err(self.unexpected("an enumeration token like `'Dove`")),
                    }
                    match self.bump() {
                        Tok::Comma => continue,
                        Tok::RBrace => break,
                        _ => return Err(self.unexpected("`,` or `}`")),
                    }
                }
                Ok(RangeAst::Enum(toks))
            }
            Tok::LBracket => {
                self.bump();
                let fields = self.attrs(&[Tok::RBracket])?;
                self.expect(Tok::RBracket, "`]`")?;
                Ok(RangeAst::Record(fields))
            }
            Tok::Ident(name) => {
                self.bump();
                match name {
                    "String" => Ok(RangeAst::Str),
                    "Integer" => Ok(RangeAst::Integer),
                    "None" => Ok(RangeAst::None),
                    "AnyEntity" | "ANYENTITY" => Ok(RangeAst::AnyEntity),
                    _ => {
                        if self.eat(Tok::LBracket) {
                            let fields = self.attrs(&[Tok::RBracket])?;
                            self.expect(Tok::RBracket, "`]`")?;
                            Ok(RangeAst::Refined(name, fields))
                        } else {
                            Ok(RangeAst::Named(name))
                        }
                    }
                }
            }
            _ => Err(self.unexpected("a range (integer interval, enumeration, class, or record)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure_one() {
        let src = "
            class Address with
                street: String;
                city: String;
                state: {'AL, 'WV};
            class Person with
                name: String;
                age: 1..120;
                home: Address;
            class Employee is-a Person with
                age: 16..65;
                supervisor: Employee;
                office: Address;
        ";
        let ast = parse(src).unwrap();
        assert_eq!(ast.classes.len(), 3);
        assert_eq!(ast.classes[0].name, "Address");
        let supers: Vec<&str> = ast.classes[2].supers.iter().map(|s| s.name).collect();
        assert_eq!(supers, vec!["Person"]);
        assert_eq!(ast.classes[2].attrs.len(), 3);
        assert_eq!(ast.classes[2].attrs[0].range, RangeAst::Int(16, 65));
    }

    #[test]
    fn parses_excuse_clause() {
        let src = "
            class Alcoholic is a Patient with
                treatedBy: Psychologist excuses treatedBy on Patient;
        ";
        let ast = parse(src).unwrap();
        let attr = &ast.classes[0].attrs[0];
        assert_eq!(attr.excuses.len(), 1);
        assert_eq!(attr.excuses[0].attr, "treatedBy");
        assert_eq!(attr.excuses[0].on, "Patient");
    }

    #[test]
    fn parses_nested_records_with_embedded_excuses() {
        let src = "
            class Tubercular_Patient is-a Patient with
                treatedAt: Hospital [
                    accreditation: None excuses accreditation on Hospital;
                    location: Address [
                        state: None excuses state on Address;
                        country: {'Switzerland}
                    ]
                ];
        ";
        let ast = parse(src).unwrap();
        let attr = &ast.classes[0].attrs[0];
        let RangeAst::Refined(base, fields) = &attr.range else {
            panic!("expected refined class range");
        };
        assert_eq!(*base, "Hospital");
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].excuses[0].on, "Hospital");
        let RangeAst::Refined(base2, inner) = &fields[1].range else {
            panic!("expected nested refined range");
        };
        assert_eq!(*base2, "Address");
        assert_eq!(inner[1].range, RangeAst::Enum(vec!["Switzerland"]));
    }

    #[test]
    fn parses_multiple_supers() {
        let ast = parse("class Dick is-a Quaker, Republican").unwrap();
        let supers: Vec<&str> = ast.classes[0].supers.iter().map(|s| s.name).collect();
        assert_eq!(supers, vec!["Quaker", "Republican"]);
        // Each superclass reference carries its own position.
        assert_eq!(ast.classes[0].supers[0].pos.col, 17);
        assert_eq!(ast.classes[0].supers[1].pos.col, 25);
    }

    #[test]
    fn parses_anonymous_record() {
        let ast = parse("class Person with home: [street: String; city: String]").unwrap();
        let RangeAst::Record(fields) = &ast.classes[0].attrs[0].range else {
            panic!("expected record range");
        };
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn trailing_semicolons_are_optional() {
        assert!(parse("class A with x: 1..2").is_ok());
        assert!(parse("class A with x: 1..2;").is_ok());
        assert!(parse("class A with x: 1..2; class B").is_ok());
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("class A with x 1..2").unwrap_err();
        match err {
            SdlError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("klass A").is_err());
        assert!(parse("class A with x: ").is_err());
        assert!(parse("class A with x: {'a 'b}").is_err());
        assert!(parse("class A with x: 1..").is_err());
    }

    #[test]
    fn special_type_names() {
        let ast = parse("class T with a: Integer; b: None; c: AnyEntity; d: String").unwrap();
        let rs: Vec<&RangeAst<'_>> = ast.classes[0].attrs.iter().map(|a| &a.range).collect();
        assert_eq!(rs[0], &RangeAst::Integer);
        assert_eq!(rs[1], &RangeAst::None);
        assert_eq!(rs[2], &RangeAst::AnyEntity);
        assert_eq!(rs[3], &RangeAst::Str);
    }
}
