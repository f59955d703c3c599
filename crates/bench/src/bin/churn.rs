//! Churn-epoch experiment runner: boots a MIS service per grid point,
//! alternates random topology deltas with incremental frontier repair,
//! and writes the machine-readable `BENCH_churn.json` (schema
//! `awake-mis/bench-churn/v1`) plus a repair-vs-recompute summary table.
//!
//! ```text
//! usage: churn [--algos luby,vt] [--families er,tree] [--sizes 256,1024]
//!              [--rates 0,0.005,0.01,0.02,0.08] [--epochs 8] [--seeds 3]
//!              [--insert-frac 0.5] [--node-churn 0.1] [--threads 0]
//!              [--no-recompute] [--profile] [--out BENCH_churn.json]
//! ```
//!
//! `--algos` takes registry specs (same grammar as `grid`). `--rates`
//! are effective deltas per epoch as a fraction of `n`; rate `0` pins
//! the delta-free case (the service must wake nobody). Every point runs
//! `--epochs` cycles of `random_batch` → `MisService::apply`. Unless
//! `--no-recompute` is given, each epoch also times a from-scratch run
//! on the current active graph so the summary can report the wall-clock
//! ratio; the recompute never touches the deterministic payload (its
//! timing lands in the `timing` section).
//!
//! The JSON payload (everything except `meta`/`timing`) is
//! byte-identical for any `--threads` value.
//!
//! `--profile` attaches the engine's phase profiler to every runner
//! (the execution-only `trace=profile` spec param) and prints a
//! per-algorithm phase breakdown after the run, aggregated over every
//! engine run the churn grid triggered — bootstraps, frontier repairs,
//! and recompute baselines alike. Observational only: the payload is
//! byte-identical with or without it.

use analysis::churn::{run_churn, ChurnResult, ChurnSpec};
use analysis::spec::default_registry;
use analysis::{Document, GridMeta, Table};
use bench::cli::{self, Args};
use bench::with_profile;
use graphgen::GraphFamily;
use sleeping_congest::batch::resolve_threads;
use std::time::Instant;

const USAGE: &str = "usage: churn [--algos luby,vt] [--families er,tree] [--sizes 256,1024]
             [--rates 0,0.005,0.01,0.02,0.08] [--epochs 8] [--seeds 3]
             [--insert-frac 0.5] [--node-churn 0.1] [--threads 0]
             [--no-recompute] [--profile] [--out BENCH_churn.json]";

fn main() {
    let registry = default_registry();
    let mut algos_spec = String::from("luby,vt");
    let mut families = vec![GraphFamily::Er, GraphFamily::Tree];
    let mut sizes = vec![256usize, 1024];
    let mut rates = vec![0.0f64, 0.005, 0.01, 0.02, 0.08];
    let mut epochs = 8usize;
    let mut seeds: Vec<u64> = (1..=3).collect();
    let mut insert_frac = 0.5f64;
    let mut node_churn = 0.1f64;
    let mut threads = 0usize;
    let mut recompute = true;
    let mut profile = false;
    let mut out_path = String::from(ChurnResult::FILE);

    let mut args = Args::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--algos" => algos_spec = args.value(),
            "--families" => families = args.list(GraphFamily::parse, "family"),
            "--sizes" => sizes = args.list(|s| s.parse().ok(), "size"),
            "--rates" => rates = args.list(cli::fraction, "rate (a number in [0, 1])"),
            "--epochs" => epochs = args.parse(),
            "--seeds" => seeds = args.seeds(),
            "--insert-frac" => insert_frac = args.fraction(),
            "--node-churn" => node_churn = args.fraction(),
            "--threads" => threads = args.parse(),
            "--no-recompute" => recompute = false,
            "--profile" => profile = true,
            "--out" => out_path = args.value(),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }

    let algorithms = registry
        .resolve_list(&with_profile(&algos_spec, profile))
        .unwrap_or_else(|e| cli::fail(USAGE, format!("--algos: {e}")));
    cli::check_sizes(USAGE, "--sizes", &families, &sizes);
    let spec = ChurnSpec {
        algorithms,
        families,
        sizes,
        rates,
        epochs,
        insert_frac,
        node_churn,
        seeds,
        threads,
        recompute,
    };
    let jobs = spec.jobs().len();
    let threads_used = resolve_threads(spec.threads);
    println!("running {jobs} churn points ({epochs} epochs each) over {threads_used} threads…");

    let start = Instant::now();
    let result = run_churn(&spec);
    let wall = start.elapsed();

    // Per-cell locality table, with the wall-clock repair-vs-recompute
    // ratio recovered from the per-point timing fields.
    let mut t = Table::new(vec![
        "algorithm", "family", "n", "rate", "deltas", "woken ratio", "awake/Δ", "repair rounds",
        "retries", "wall ratio", "ok",
    ]);
    let runs = spec.seeds.len();
    for (ci, c) in result.cells.iter().enumerate() {
        let chunk = &result.points[ci * runs..(ci + 1) * runs];
        let repair_ns: u64 = chunk.iter().map(|p| p.elapsed_ns).sum();
        let recompute_ns: u64 = chunk.iter().map(|p| p.recompute_ns).sum();
        let wall_ratio = if recompute_ns > 0 {
            format!("{:.2}", repair_ns as f64 / recompute_ns as f64)
        } else {
            "-".to_string()
        };
        t.row(vec![
            c.algorithm.name().to_string(),
            c.family.name().to_string(),
            c.n.to_string(),
            format!("{}", c.rate),
            c.deltas.to_string(),
            format!("{:.4}", c.woken_ratio.mean),
            format!("{:.2}", c.awake_per_delta.mean),
            format!("{:.1}", c.repair_rounds.mean),
            c.retries.to_string(),
            wall_ratio,
            if c.all_correct { "yes".into() } else { "NO".to_string() },
        ]);
    }
    print!("{}", t.render());

    if profile {
        for runner in &spec.algorithms {
            if let Some(report) = runner.trace().and_then(|h| h.report()) {
                println!("\n[profile] {}\n{}", runner.key(), report.trim_end());
            }
        }
    }

    let meta = GridMeta { threads: threads_used, wall_ms: wall.as_millis() };
    std::fs::write(&out_path, result.to_json(&meta))
        .unwrap_or_else(|e| cli::fail(USAGE, format!("--out {out_path}: {e}")));
    let bad = result.points.iter().filter(|p| !p.correct).count();
    println!(
        "\nwrote {out_path}: {} points, {} cells, {} incorrect, {:.1}s wall",
        result.points.len(),
        result.cells.len(),
        bad,
        wall.as_secs_f64()
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
