//! The SDL lexer.
//!
//! Comments run from `--` to end of line (the paper's prose style) and
//! `//` is accepted as a synonym. Identifiers may contain letters, digits,
//! `_`, `#` (the paper writes `room#`), and an embedded `-` when followed
//! by a letter (so `is-a` lexes as one word, later promoted to a keyword).
//! Identifiers and enumeration tokens are ASCII-only and borrow their
//! text from the source.

use crate::error::SdlError;
use crate::token::{Pos, Spanned, Tok};

/// Lexes an entire source text into tokens (ending with [`Tok::Eof`]).
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, SdlError> {
    Lexer {
        src,
        at: 0,
        pos: Pos::START,
    }
    .run()
}

struct Lexer<'src> {
    src: &'src str,
    at: usize,
    pos: Pos,
}

impl<'src> Lexer<'src> {
    fn run(mut self) -> Result<Vec<Spanned<'src>>, SdlError> {
        // Generated schemas run about five source bytes per token (2.6 MB,
        // 541 606 tokens at 1600 classes): one slot per four bytes lexes
        // them without regrowing the vector.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            self.skip_trivia();
            let pos = self.pos;
            let Some(&c) = self.src.as_bytes().get(self.at) else {
                out.push(Spanned { tok: Tok::Eof, pos });
                return Ok(out);
            };
            let tok = match c {
                b':' => self.one(Tok::Colon),
                b';' => self.one(Tok::Semi),
                b',' => self.one(Tok::Comma),
                b'{' => self.one(Tok::LBrace),
                b'}' => self.one(Tok::RBrace),
                b'[' => self.one(Tok::LBracket),
                b']' => self.one(Tok::RBracket),
                b'.' => {
                    if self.byte(1) == Some(b'.') {
                        self.advance();
                        self.advance();
                        Tok::DotDot
                    } else {
                        return Err(SdlError::Lex {
                            pos,
                            what: "stray `.` (did you mean `..`?)".into(),
                        });
                    }
                }
                b'\'' => {
                    self.advance();
                    let word = self.take_word();
                    if word.is_empty() {
                        return Err(SdlError::Lex {
                            pos,
                            what: "empty enumeration token after `'`".into(),
                        });
                    }
                    Tok::Quoted(word)
                }
                b'-' if self.byte(1).is_some_and(|d| d.is_ascii_digit()) => {
                    self.advance();
                    let n = self.take_int(pos)?;
                    Tok::Int(-n)
                }
                c if c.is_ascii_digit() => Tok::Int(self.take_int(pos)?),
                c if ident_start(c) => {
                    let word = self.take_word();
                    match word {
                        "class" => Tok::KwClass,
                        "with" => Tok::KwWith,
                        "excuses" => Tok::KwExcuses,
                        "on" => Tok::KwOn,
                        "is-a" | "is_a" | "isa" => Tok::KwIsA,
                        // "is" followed by "a" is the paper's spaced spelling.
                        "is" => {
                            self.skip_trivia();
                            let save = (self.at, self.pos);
                            if self.take_word() == "a" {
                                Tok::KwIsA
                            } else {
                                (self.at, self.pos) = save;
                                Tok::Ident(word)
                            }
                        }
                        _ => Tok::Ident(word),
                    }
                }
                other => {
                    return Err(SdlError::Lex {
                        pos,
                        what: format!("unexpected character `{}`", other as char),
                    })
                }
            };
            out.push(Spanned { tok, pos });
        }
    }

    /// The byte `ahead` places past the cursor.
    fn byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.at + ahead).copied()
    }

    fn one(&mut self, tok: Tok<'src>) -> Tok<'src> {
        self.advance();
        tok
    }

    fn advance(&mut self) {
        if self.src.as_bytes()[self.at] == b'\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
        self.at += 1;
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.byte(0) {
                Some(c) if c.is_ascii_whitespace() => self.advance(),
                Some(b'-') if self.byte(1) == Some(b'-') => self.skip_line(),
                Some(b'/') if self.byte(1) == Some(b'/') => self.skip_line(),
                _ => return,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(c) = self.byte(0) {
            self.advance();
            if c == b'\n' {
                return;
            }
        }
    }

    /// Takes the identifier at the cursor (possibly empty). Every byte it
    /// takes is ASCII, so both ends are character boundaries.
    fn take_word(&mut self) -> &'src str {
        let start = self.at;
        while let Some(c) = self.byte(0) {
            if ident_continue(c) {
                self.advance();
            } else if c == b'-' && self.byte(1).is_some_and(|d| d.is_ascii_alphabetic()) {
                self.advance();
                self.advance();
            } else {
                break;
            }
        }
        &self.src[start..self.at]
    }

    fn take_int(&mut self, pos: Pos) -> Result<i64, SdlError> {
        let start = self.at;
        while self.byte(0).is_some_and(|d| d.is_ascii_digit()) {
            self.advance();
        }
        self.src[start..self.at].parse().map_err(|_| SdlError::Lex {
            pos,
            what: "integer literal overflows i64".into(),
        })
    }
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'#'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("class Employee is-a Person with"),
            vec![
                Tok::KwClass,
                Tok::Ident("Employee"),
                Tok::KwIsA,
                Tok::Ident("Person"),
                Tok::KwWith,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spaced_is_a() {
        assert_eq!(
            toks("Patient is a Person"),
            vec![
                Tok::Ident("Patient"),
                Tok::KwIsA,
                Tok::Ident("Person"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn is_not_followed_by_a_stays_ident() {
        assert_eq!(
            toks("is b"),
            vec![Tok::Ident("is"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn ranges_and_enums() {
        assert_eq!(
            toks("age: 16..65; state: {'AL, 'WV}"),
            vec![
                Tok::Ident("age"),
                Tok::Colon,
                Tok::Int(16),
                Tok::DotDot,
                Tok::Int(65),
                Tok::Semi,
                Tok::Ident("state"),
                Tok::Colon,
                Tok::LBrace,
                Tok::Quoted("AL"),
                Tok::Comma,
                Tok::Quoted("WV"),
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn negative_ints() {
        assert_eq!(
            toks("-40..120"),
            vec![Tok::Int(-40), Tok::DotDot, Tok::Int(120), Tok::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("class A -- the A class\nclass B // another\n"),
            vec![
                Tok::KwClass,
                Tok::Ident("A"),
                Tok::KwClass,
                Tok::Ident("B"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn hash_in_identifier() {
        assert_eq!(toks("room#"), vec![Tok::Ident("room#"), Tok::Eof]);
    }

    #[test]
    fn positions_track_lines() {
        let spans = lex("class\n  Foo").unwrap();
        assert_eq!(spans[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(spans[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn bad_character_errors() {
        assert!(matches!(lex("class ?"), Err(SdlError::Lex { .. })));
        assert!(matches!(lex("x: 1 . 2"), Err(SdlError::Lex { .. })));
        assert!(matches!(lex("' "), Err(SdlError::Lex { .. })));
    }
}
