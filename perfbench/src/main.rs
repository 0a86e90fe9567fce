//! The plain build of the benchmark, for timed runs (`--trace 0`).

fn main() -> std::process::ExitCode {
    chc_perfbench::main_entry(false)
}
