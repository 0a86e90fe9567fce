#!/usr/bin/env bash
# Builds `chc` and the benchmark from source, then runs one measurement.
#
#   bash perfbench/run.sh --workload check|analyze|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); generated inputs and span files go under it too.
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin chc --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" --target-dir "$target" >&2

bin=perfbench
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
    bin=perfbench-traced
  fi
  prev="$arg"
done

exec "$target/release/$bin" --chc "$target/release/chc" --work "$target/perfbench-runs" "$@"
