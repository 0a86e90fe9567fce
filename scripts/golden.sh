#!/usr/bin/env bash
# Records tests/golden/cli.tsv: the exit code and the length and FNV-1a-64
# digest of stdout and stderr of `chc check`, `chc lint` and `chc diff`
# (text and JSON) over every SDL file in the repository.
# `tests/integration_golden.rs` replays each row and asserts the same bytes.
#
#   bash scripts/golden.sh path/to/chc > tests/golden/cli.tsv
#
# Run it from the repository root, with a `chc` built from the commit
# whose output is the reference. Re-record only when an output change is
# intended, and say so in the commit.
set -euo pipefail
chc="$1"

fnv() {
    python3 -c '
import sys
h = 0xcbf29ce484222325
for b in sys.stdin.buffer.read():
    h = ((h ^ b) * 0x100000001b3) & 0xffffffffffffffff
print("%016x" % h)'
}

row() {
    local out err code=0
    out="$(mktemp)"; err="$(mktemp)"
    "$chc" "$@" >"$out" 2>"$err" || code=$?
    printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$code" \
        "$(wc -c <"$out")" "$(fnv <"$out")" \
        "$(wc -c <"$err")" "$(fnv <"$err")" "$*"
    rm -f "$out" "$err"
}

echo "# exit	stdout_bytes	stdout_fnv	stderr_bytes	stderr_fnv	chc arguments"
for sdl in examples/data/*.sdl crates/lint/tests/fixtures/*.sdl crates/workloads/fixtures/*.sdl; do
    row check "$sdl"
    row lint "$sdl"
    row lint "$sdl" --format json
done
for chq in examples/data/*_queries.chq; do
    sdl="${chq%_queries.chq}.sdl"
    row lint "$sdl" --query "$chq"
    row lint "$sdl" --query "$chq" --format json
done
for pair in "examples/data/hospital.sdl examples/data/hospital-evolved.sdl" \
    "crates/workloads/fixtures/evolve400-old.sdl crates/workloads/fixtures/evolve400-new.sdl"; do
    read -r a b <<<"$pair"
    for dir in "$a $b" "$b $a"; do
        read -r old new <<<"$dir"
        row diff "$old" "$new"
        row diff "$old" "$new" --format json
        row check "$new" --incremental --since "$old"
    done
done
