//! Parser robustness: arbitrary input must never panic, and valid input
//! must survive mutation testing of the error paths.

use chc_sdl::{compile, parse};

/// A local SplitMix64 so this crate needs no dev-dependencies (the
/// build is offline, and depending on chc-workloads here would cycle).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

/// The lexer+parser must return Ok or Err — never panic — on
/// arbitrary character soup (ASCII, controls, and multi-byte scalars).
#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut rng = Rng(0x50DA);
    for _ in 0..512 {
        let len = rng.below(201);
        let src: String = (0..len)
            .map(|_| match rng.below(4) {
                0 => char::from(rng.below(0x80) as u8),
                1 => char::from(0x20 + rng.below(0x5F) as u8),
                2 => char::from_u32(rng.below(0xD7FF) as u32).unwrap_or('\u{FFFD}'),
                _ => ['\'', '{', '}', '[', ']', ':', ';', '.', '\n'][rng.below(9)],
            })
            .collect();
        let _ = parse(&src);
    }
}

/// Same for inputs biased toward the SDL alphabet.
#[test]
fn parser_never_panics_on_sdl_like_input() {
    const WORDS: &[&str] = &[
        "class", "is-a", "with", "excuses", "on", "None", "String", "ident", "Abc", "x9_", "12345",
        "0", "'Tok", "'a", ".", ";", ":", ",", "{", "}", "[", "]", "..", " ", "\n",
    ];
    let mut rng = Rng(0x5D1A);
    for _ in 0..512 {
        let n = rng.below(81);
        let mut src = String::new();
        for _ in 0..n {
            src.push_str(WORDS[rng.below(WORDS.len())]);
            if rng.below(2) == 0 {
                src.push(' ');
            }
        }
        let _ = compile(&src);
    }
}

#[test]
fn truncations_of_a_valid_schema_never_panic() {
    let src = "
        class Address with street: String; state: {'NJ, 'NY};
        class Patient with treatedAt: Address [state: None excuses state on Address];
    ";
    for cut in 0..src.len() {
        if src.is_char_boundary(cut) {
            let _ = compile(&src[..cut]);
        }
    }
}

#[test]
fn error_positions_are_within_the_input() {
    let cases = [
        "class A with x: ?",
        "class A with x: 1..",
        "class\nB\nwith\nx\n:\n{'a",
        "class A is-a",
    ];
    for src in cases {
        match compile(src) {
            Ok(_) => {}
            Err(chc_sdl::SdlError::Parse { pos, .. })
            | Err(chc_sdl::SdlError::Lex { pos, .. })
            | Err(chc_sdl::SdlError::UnknownClass { pos, .. }) => {
                let lines = src.lines().count().max(1) as u32;
                assert!(pos.line >= 1 && pos.line <= lines + 1, "{src}: {pos}");
            }
            Err(chc_sdl::SdlError::Model { .. }) => {}
        }
    }
}

#[test]
fn deeply_nested_records_parse() {
    // 24 levels of anonymous record nesting.
    let mut src = String::from("class A with x: ");
    for _ in 0..24 {
        src.push_str("[y: ");
    }
    src.push_str("1..2");
    for _ in 0..24 {
        src.push(']');
    }
    assert!(compile(&src).is_ok());
}

#[test]
fn comments_to_end_of_input_are_fine() {
    assert!(compile("class A -- trailing comment with no newline").is_ok());
    assert!(compile("// nothing but a comment").is_ok());
}
