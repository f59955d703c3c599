//! Robustness-surface runner: sweeps fault-model knobs (`loss`,
//! `crash`, `jitter` — parameters every builtin accepts) over
//! `{fault level × family × n × seed}`, aggregates per-cell failure
//! rates and awake inflation against the clean baseline, and writes the
//! machine-readable `BENCH_faults.json` (schema
//! `awake-mis/bench-faults/v1`) plus a human-readable robustness table.
//!
//! ```text
//! usage: faults [--spec SPEC]... [--families er,dense] [--sizes 256,1024]
//!               [--seeds 8] [--threads 0] [--out BENCH_faults.json]
//! ```
//!
//! Each `--spec` takes ONE sweep spec; repeat the flag to add more,
//! since `,` belongs to the level grammar (`loss=0,0.02,0.08`). Quote
//! `?`/`&` for your shell. Run with no arguments to reproduce the
//! committed `BENCH_faults.json`. The JSON payload (everything except
//! `meta` and `timing`) is byte-identical for any thread count, and the
//! `loss=0` levels are byte-identical to the fault-free grid's points.
//!
//! Unlike `grid` and `sweep`, incorrect runs do NOT exit nonzero here:
//! lossy levels are *supposed* to fail sometimes — that failure rate is
//! the measurement. Regressions are gated by `bench-diff` against the
//! committed surface instead.

use analysis::faults::{run_faults, FaultResult, FaultSweepSpec};
use analysis::spec::default_registry;
use analysis::sweep::expand_specs;
use analysis::{Document, GridMeta, Table};
use bench::cli::{self, Args};
use graphgen::GraphFamily;
use sleeping_congest::batch::resolve_threads;
use std::time::Instant;

const USAGE: &str = "usage: faults [--spec SPEC]... [--families er,dense] [--sizes 256,1024]
              [--seeds 8] [--threads 0] [--out BENCH_faults.json]";

/// The default surface the committed `BENCH_faults.json` pins: three
/// loss levels (including the clean anchor) for the two headline
/// algorithms, plus a crash level, an adversarial-ID level, and a
/// delivery-jitter level, on a sparse and a dense family.
const DEFAULT_SPECS: [&str; 5] = [
    "awake?loss=0,0.02,0.08",
    "luby?loss=0,0.02,0.08",
    "luby?crash=0.002&crash_until=8",
    "vt?adv_ids=worst",
    "awake?jitter=16",
];

fn main() {
    let mut specs: Vec<String> = Vec::new();
    let mut families = vec![GraphFamily::Er, GraphFamily::Dense];
    let mut sizes = vec![256usize, 1024];
    let mut seeds: Vec<u64> = (1..=8).collect();
    let mut threads = 0usize;
    let mut out_path = String::from(FaultResult::FILE);

    let mut args = Args::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => specs.push(args.value()),
            "--families" => families = args.list(GraphFamily::parse, "family"),
            "--sizes" => sizes = args.list(|s| s.parse().ok(), "size"),
            "--seeds" => seeds = args.seeds(),
            "--threads" => threads = args.parse(),
            "--out" => out_path = args.value(),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }
    if specs.is_empty() {
        specs = DEFAULT_SPECS.iter().map(|s| s.to_string()).collect();
    }
    let groups = expand_specs(default_registry(), &specs)
        .unwrap_or_else(|e| cli::fail(USAGE, format!("--spec: {e}")));
    let expanded_total: usize = groups.iter().map(|g| g.runners.len()).sum();
    cli::check_sizes(USAGE, "--sizes", &families, &sizes);

    let spec = FaultSweepSpec { specs, families, sizes, seeds, threads };
    let jobs = expanded_total * spec.families.len() * spec.sizes.len() * spec.seeds.len();
    let threads_used = resolve_threads(spec.threads);
    println!(
        "running {jobs} fault jobs ({expanded_total} fault levels) over {threads_used} threads…"
    );

    let start = Instant::now();
    let result = run_faults(&spec).unwrap_or_else(|e| cli::fail(USAGE, e));
    let wall = start.elapsed();

    let mut t = Table::new(vec![
        "fault level", "family", "n", "fail rate", "crashed", "dropped", "awake max",
        "awake infl", "rounds (mean)",
    ]);
    for c in &result.cells {
        let s = &c.stats;
        t.row(vec![
            s.algorithm.key().to_string(),
            s.family.name().to_string(),
            s.n.to_string(),
            format!("{:.3}", s.failure_rate),
            s.crashed.to_string(),
            s.faulted.to_string(),
            format!("{:.1}", s.awake_max.mean),
            c.awake_inflation.map_or_else(|| "-".to_string(), |i| format!("{i:.2}×")),
            format!("{:.3e}", s.rounds.mean),
        ]);
    }
    print!("{}", t.render());

    let meta = GridMeta { threads: threads_used, wall_ms: wall.as_millis() };
    std::fs::write(&out_path, result.to_json(&meta))
        .unwrap_or_else(|e| cli::fail(USAGE, format!("--out {out_path}: {e}")));
    let bad = result.points.iter().filter(|p| !p.correct).count();
    println!(
        "\nwrote {out_path}: {} points, {} cells, {} incorrect runs (expected under loss), {:.1}s wall",
        result.points.len(),
        result.cells.len(),
        bad,
        wall.as_secs_f64()
    );
}
