//! Byte-identity of the `chc` renderers: every row of
//! `tests/golden/cli.tsv` is a `chc check`, `chc lint` or `chc diff`
//! command line over a repository SDL file, with the exit code and the
//! length and FNV-1a-64 digest of its stdout and stderr as recorded by
//! `scripts/golden.sh`. A refactor of the lexer, the parser or a renderer
//! must leave all of them unchanged.

use std::path::Path;
use std::process::Command;

const GOLDEN: &str = include_str!("golden/cli.tsv");

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// `(bytes, digest)` as the table writes them.
fn fingerprint(bytes: &[u8]) -> String {
    format!("{}\t{:016x}", bytes.len(), fnv1a64(bytes))
}

#[test]
fn check_lint_and_diff_output_matches_the_recorded_bytes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    let mut rows = 0;
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [code, out_len, out_fnv, err_len, err_fnv, argv] = cols[..] else {
            panic!("malformed golden row: {line:?}");
        };
        rows += 1;
        let out = Command::new(env!("CARGO_BIN_EXE_chc"))
            .args(argv.split(' '))
            .current_dir(root)
            .output()
            .expect("chc runs");
        let got = (
            out.status.code().map(|c| c.to_string()).unwrap_or_default(),
            fingerprint(&out.stdout),
            fingerprint(&out.stderr),
        );
        let want = (
            code.to_string(),
            format!("{out_len}\t{out_fnv}"),
            format!("{err_len}\t{err_fnv}"),
        );
        if got != want {
            failures.push(format!(
                "chc {argv}\n  want exit {} stdout {} stderr {}\n  got  exit {} stdout {} stderr {}\n  \
                 stdout starts: {:?}\n  stderr: {:?}",
                want.0,
                want.1,
                want.2,
                got.0,
                got.1,
                got.2,
                String::from_utf8_lossy(&out.stdout[..out.stdout.len().min(200)]),
                String::from_utf8_lossy(&out.stderr),
            ));
        }
    }
    assert!(rows >= 80, "the golden table lost rows: {rows}");
    assert!(
        failures.is_empty(),
        "{} of {rows} rows differ:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
