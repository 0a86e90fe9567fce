//! The exact text and position of every SDL error path.
//!
//! Each row is a malformed schema, the `line:col` the error carries, and
//! the error's `Display` text. The table covers every lexer error, every
//! `expected …` context of the parser, and the lowering errors (unknown,
//! duplicate and cyclic classes, duplicate attributes, supers and record
//! fields, bad integer ranges, and an excuse of an attribute the excused
//! class never declares). The parser's "`]`" context after a record's
//! fields cannot fire: the field list only ends at a `]`.

use chc_sdl::SdlError;

const CASES: &[(&str, &str, &str)] = &[
    ("class A with x: 1 . 2", "1:19", "1:19: lexical error: stray `.` (did you mean `..`?)"),
    ("class A with x: {' }", "1:18", "1:18: lexical error: empty enumeration token after `'`"),
    ("class A with x: 1..99999999999999999999", "1:20", "1:20: lexical error: integer literal overflows i64"),
    ("class A with x: -9223372036854775808..0", "1:17", "1:17: lexical error: integer literal overflows i64"),
    ("class A ?", "1:9", "1:9: lexical error: unexpected character `?`"),
    ("class A with x: \"s\"", "1:17", "1:17: lexical error: unexpected character `\"`"),
    ("klass A", "1:1", "1:1: expected `class`, found identifier `klass`"),
    ("class ;", "1:7", "1:7: expected a class name, found `;`"),
    ("class A is-a ;", "1:14", "1:14: expected a superclass name, found `;`"),
    ("class A is-a B,", "1:16", "1:16: expected a superclass name, found end of input"),
    ("class A with x: 1..2 y: 3..4", "1:22", "1:22: expected `;` or the end of the attribute list, found identifier `y`"),
    ("class A with : 1..2", "1:14", "1:14: expected an attribute name, found `:`"),
    ("class A with x 1..2", "1:16", "1:16: expected `:` after attribute name, found integer `1`"),
    ("class A with x: 1..2 excuses ;", "1:30", "1:30: expected the excused attribute's name, found `;`"),
    ("class A with x: 1..2 excuses x A", "1:32", "1:32: expected `on`, found identifier `A`"),
    ("class A with x: 1..2 excuses x on ;", "1:35", "1:35: expected the excused class's name, found `;`"),
    ("class A with x: 1 2", "1:19", "1:19: expected `..` in integer range, found integer `2`"),
    ("class A with x: 1..b", "1:21", "1:21: expected the range's upper bound, found end of input"),
    ("class A with x: 1..", "1:20", "1:20: expected the range's upper bound, found end of input"),
    ("class A with x: {a}", "1:19", "1:19: expected an enumeration token like `'Dove`, found `}`"),
    ("class A with x: {'a 'b}", "1:23", "1:23: expected `,` or `}`, found `}`"),
    ("class A with x: {'a,}", "1:22", "1:22: expected an enumeration token like `'Dove`, found end of input"),
    ("class A with x: ;", "1:17", "1:17: expected a range (integer interval, enumeration, class, or record), found `;`"),
    ("class A with x:", "1:16", "1:16: expected a range (integer interval, enumeration, class, or record), found end of input"),
    ("class A with x: [y: 1..2", "1:25", "1:25: expected `;` or the end of the attribute list, found end of input"),
    ("class A with x: B [y: 1..2 z: 3..4]", "1:28", "1:28: expected `;` or the end of the attribute list, found identifier `z`"),
    ("class B\nclass A is B", "2:9", "2:9: expected `class`, found identifier `is`"),
    ("class A is-a B", "1:14", "1:14: reference to undefined class `B`"),
    ("class A with x: Nowhere", "1:14", "1:14: reference to undefined class `Nowhere`"),
    ("class A with x: Nowhere [y: 1..2]", "1:14", "1:14: reference to undefined class `Nowhere`"),
    ("class A with x: 1..2 excuses x on Z", "1:22", "1:22: reference to undefined class `Z`"),
    ("class A with r: [y: 1..2 excuses y on Z]", "1:26", "1:26: reference to undefined class `Z`"),
    ("class A; class A", "1:10", "1:10: schema error: class `A` is declared more than once"),
    ("class A is-a B; class B is-a A", "1:1", "1:1: schema error: the is-a hierarchy contains a cycle through `A`"),
    ("class A is-a A", "1:1", "1:1: schema error: the is-a hierarchy contains a cycle through `A`"),
    ("class A; class B is-a A with x: 1..2 excuses x on A", "1:38", "1:38: schema error: excuse refers to attribute `x` on `A`, but `A` neither declares nor inherits it"),
    ("class A with x: 1..2; x: 3..4", "1:23", "1:23: schema error: class `A` declares attribute `x` twice"),
    ("class A; class B is-a A, A", "1:26", "1:26: schema error: class `B` lists superclass `A` twice"),
    ("class A with x: 5..1", "1:14", "1:14: schema error: invalid integer range 5..1 (lo > hi)"),
    ("class A with x: [y: 1..2; y: 3..4]", "1:14", "1:14: schema error: record type declares field `y` twice"),
    ("class H with q: 1..2; class A with x: H [q: 1..2; q: 2..2]", "1:36", "1:36: schema error: record type declares field `q` twice"),
    ("class Café with x: 1..2", "1:10", "1:10: lexical error: unexpected character `Ã`"),
    ("class A with x: {'é}", "1:18", "1:18: lexical error: empty enumeration token after `'`"),
    ("class A is", "1:9", "1:9: expected `class`, found identifier `is`"),
    ("\n\n  class A with\n    x: 1..2;\n    y: 1 . 2", "5:10", "5:10: lexical error: stray `.` (did you mean `..`?)"),
];

fn position(err: &SdlError) -> String {
    match err {
        SdlError::Lex { pos, .. }
        | SdlError::Parse { pos, .. }
        | SdlError::UnknownClass { pos, .. }
        | SdlError::Model { pos: Some(pos), .. } => pos.to_string(),
        SdlError::Model { pos: None, .. } => "-".to_string(),
    }
}

#[test]
fn every_error_keeps_its_text_and_position() {
    assert!(CASES.len() >= 20);
    let mut failures = Vec::new();
    for &(src, pos, text) in CASES {
        match chc_sdl::compile(src) {
            Ok(_) => failures.push(format!("{src:?}: compiled, expected `{text}`")),
            Err(err) => {
                let got = (position(&err), err.to_string());
                if got != (pos.to_string(), text.to_string()) {
                    failures.push(format!(
                        "{src:?}:\n  want {pos} {text}\n  got  {} {}",
                        got.0, got.1
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `compile` lexes and parses in separate phases; a lexical or syntax
/// error must come out of it exactly as `parse` reports it.
#[test]
fn compile_reports_parse_errors_as_parse_does() {
    for &(src, _, _) in CASES {
        if let Err(err) = chc_sdl::parse(src) {
            assert_eq!(chc_sdl::compile(src).map(|_| ()), Err(err), "{src:?}");
        }
    }
}
