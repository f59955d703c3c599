//! Run a small experiment grid through the batch harness and print the
//! aggregated cells — the library-level version of
//! `cargo run --release -p bench --bin grid`.
//!
//! ```bash
//! cargo run --release --example experiment_grid
//! ```

use awake_mis::analysis::grid::{run_grid, GridSpec};
use awake_mis::analysis::spec::default_registry;
use awake_mis::analysis::Document;
use awake_mis::graphs::GraphFamily;
use awake_mis::sim::batch::available_threads;

fn main() {
    // {algorithm × family × n × seed}: 2 × 2 × 2 × 4 = 32 runs, fanned
    // over every hardware thread with per-worker scratch reuse. The
    // points and cells come back in grid order regardless of threads.
    // The algorithm axis is registry specs — swap in a parameterized
    // variant (e.g. "awake?round_efficient=true") without code changes.
    let spec = GridSpec {
        algorithms: default_registry().resolve_list("awake,luby").expect("builtin specs"),
        families: vec![GraphFamily::Er, GraphFamily::Tree],
        sizes: vec![512, 2048],
        seeds: vec![1, 2, 3, 4],
        tiers: Vec::new(),
        threads: 0, // 0 = all hardware threads
    };
    let result = run_grid(&spec);

    println!("grid of {} runs over {} threads:\n", result.points.len(), available_threads());
    println!("{:<10} {:>8} {:>6} {:>18} {:>12} {:>8}", "algorithm", "family", "n", "awake max (mean)", "rounds", "ok");
    for c in &result.cells {
        println!(
            "{:<10} {:>8} {:>6} {:>18.1} {:>12.0} {:>8}",
            c.algorithm.key(),
            c.family.key(),
            c.n,
            c.awake_max.mean,
            c.rounds.mean,
            c.all_correct,
        );
    }
    println!("\nthe same data serializes to the BENCH_grid.json payload:");
    let json = result.payload_json();
    println!("{}…", &json[..json.len().min(400)]);
}
