//! Monte Carlo failure-rate estimation on an adversarial instance
//! (both endpoints of the only edge must land in the same batch for the
//! failure machinery to even be exercised).
//!
//! The 50k independent runs go through the registry-resolved `awake`
//! runner and fan out over all hardware threads with per-worker scratch
//! reuse; the failure count is deterministic (each run depends only on
//! its seed). It takes no arguments: any argument, `--help` included,
//! prints usage and exits 2.
use analysis::spec::default_registry;
use bench::cli;
use sleeping_congest::batch::{available_threads, run_batch};
use sleeping_congest::ScratchArena;
use std::process::ExitCode;

const USAGE: &str = "usage: failure_rate  (takes no arguments)";

fn main() -> ExitCode {
    if let Some(arg) = std::env::args_os().nth(1) {
        cli::fail(USAGE, format!("unexpected argument {arg:?}"));
    }
    let g = graphgen::Graph::from_edges(5, &[(0, 1)]).unwrap();
    let runner = default_registry().resolve("awake").expect("builtin");
    const RUNS: u64 = 50_000;
    let seeds: Vec<u64> = (0..RUNS).collect();
    let failed = run_batch(
        &seeds,
        available_threads(),
        |_| ScratchArena::new(),
        |scratch, _, &seed| runner.run_with_scratch(&g, seed, scratch).unwrap().failures > 0,
    );
    let fails = failed.iter().filter(|&&f| f).count();
    println!("failure rate on the adversarial pair graph: {fails}/{RUNS}");
    ExitCode::SUCCESS
}
