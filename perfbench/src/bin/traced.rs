//! The traced build of the benchmark (`--trace 1`): the same code with
//! the tracking allocator installed, so per-layer allocation probes read
//! real numbers. Timed runs never use this build.

#[global_allocator]
static ALLOC: chc_obs::memalloc::TrackingAllocator = chc_obs::memalloc::TrackingAllocator;

fn main() -> std::process::ExitCode {
    chc_perfbench::main_entry(true)
}
