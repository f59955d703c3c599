//! Energy-frontier sweep runner: expands range-valued algorithm specs
//! (`le?bits=2..10&step=2`, `gp-avg?balance=0,2,4,8`), fans
//! `{spec point × family × n × seed}` across OS threads, prices every
//! run with the energy model, computes the per-cell Pareto frontier over
//! `(rounds, max awake, mean awake, worst-node energy)`, and writes the
//! machine-readable `BENCH_sweep.json` (schema `awake-mis/bench-sweep/v1`)
//! plus a human-readable frontier table.
//!
//! ```text
//! usage: sweep [--spec SPEC]... [--family FAMILY]...
//!              [--families er,dense,er?avg_deg=16] [--sizes 1024,4096] [--seeds 4]
//!              [--threads 0] [--out BENCH_sweep.json]
//! ```
//!
//! Each `--spec` takes ONE sweep spec; repeat the flag to add more,
//! since `,` is part of the sweep grammar (`balance=0,2,4`). Quote
//! `?`/`&` for your shell.
//!
//! The *graph* is a sweep axis too: family specs go through the same
//! range grammar (`analysis::sweep::expand_families`), so
//! `--families 'er?avg_deg=8..16&step=4,tree'` runs ER at degrees 8, 12
//! and 16 plus the tree family. `--families` splits on `,` at the top
//! level (ranges are comma-free); a family point that itself needs a
//! comma list (`rgg?radius=0.03,0.06`) goes in its own repeatable
//! `--family` flag. A parameter at its default (`er?avg_deg=8`)
//! canonicalizes to the bare family key.
//!
//! Run with no arguments to reproduce the committed `BENCH_sweep.json`.
//! The JSON payload (everything except `meta` and `timing`) is
//! byte-identical for any thread count.

use analysis::spec::default_registry;
use analysis::sweep::{expand_families, expand_specs, run_sweep, SweepResult, SweepSpec};
use analysis::{Document, EnergyModel, GridMeta, Table};
use bench::cli::{self, Args};
use graphgen::GraphFamily;
use sleeping_congest::batch::resolve_threads;
use std::time::Instant;

const USAGE: &str = "usage: sweep [--spec SPEC]... [--family FAMILY]...
             [--families er,dense,er?avg_deg=16] [--sizes 1024,4096] [--seeds 4]
             [--threads 0] [--out BENCH_sweep.json]";

/// The default sweep: both awake measures, the GP balance dial, and the
/// LE time/energy dial, on the workhorse sparse family and the dense
/// family where symmetry breaking is hard. This is what the committed
/// `BENCH_sweep.json` pins.
const DEFAULT_SPECS: [&str; 6] =
    ["awake", "luby", "vt", "na", "gp-avg?balance=0..8&step=4", "le?bits=4..10&step=2"];

/// The default family axis: the two algorithm-sweep workhorses plus one
/// parameterized graph point (ER at double the default degree), so the
/// committed frontier also pins a graph-parameter dial.
const DEFAULT_FAMILIES: [&str; 3] = ["er", "dense", "er?avg_deg=16"];

/// Expands a list of family specs (each through the range grammar),
/// rejecting a bad spec and families that appear twice across the
/// whole axis.
fn expand_family_axis(raw_specs: &[String]) -> Result<Vec<GraphFamily>, String> {
    let mut out: Vec<GraphFamily> = Vec::new();
    for raw in raw_specs {
        for f in expand_families(raw).map_err(|e| format!("family spec {raw:?}: {e}"))? {
            if out.contains(&f) {
                return Err(format!("family {} appears twice in the family axis", f.key()));
            }
            out.push(f);
        }
    }
    Ok(out)
}

fn main() {
    let mut specs: Vec<String> = Vec::new();
    let mut family_specs: Vec<String> = Vec::new();
    let mut sizes = vec![1024usize, 4096];
    let mut seeds: Vec<u64> = (1..=4).collect();
    let mut threads = 0usize;
    let mut out_path = String::from(SweepResult::FILE);

    let mut args = Args::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => specs.push(args.value()),
            "--family" => family_specs.push(args.value()),
            "--families" => family_specs.extend(args.list(|s| Some(s.to_string()), "family")),
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
    if family_specs.is_empty() {
        family_specs = DEFAULT_FAMILIES.iter().map(|s| s.to_string()).collect();
    }
    let families = expand_family_axis(&family_specs).unwrap_or_else(|e| cli::fail(USAGE, e));
    let groups = expand_specs(default_registry(), &specs)
        .unwrap_or_else(|e| cli::fail(USAGE, format!("--spec: {e}")));
    let expanded_total: usize = groups.iter().map(|g| g.runners.len()).sum();
    cli::check_sizes(USAGE, "--sizes", &families, &sizes);

    let spec = SweepSpec { specs, families, sizes, seeds, threads, energy: EnergyModel::default() };
    let jobs = expanded_total * spec.families.len() * spec.sizes.len() * spec.seeds.len();
    let threads_used = resolve_threads(spec.threads);
    println!(
        "running {jobs} sweep jobs ({expanded_total} algorithm points) over {threads_used} threads…"
    );

    let start = Instant::now();
    let result = run_sweep(&spec).unwrap_or_else(|e| cli::fail(USAGE, e));
    let wall = start.elapsed();

    let mut t = Table::new(vec![
        "family", "n", "spec point", "awake max", "awake avg", "rounds (mean)",
        "energy max (mJ)", "energy mean (mJ)", "frontier", "ok",
    ]);
    for c in &result.cells {
        for e in &c.entries {
            t.row(vec![
                c.family.name().to_string(),
                c.n.to_string(),
                e.stats.algorithm.key().to_string(),
                format!("{:.1}", e.stats.awake_max.mean),
                format!("{:.2}", e.stats.awake_avg.mean),
                format!("{:.3e}", e.stats.rounds.mean),
                format!("{:.3}", e.energy_max_mj.mean),
                format!("{:.3}", e.energy_mean_mj.mean),
                match (&e.pareto, &e.dominated_by) {
                    (true, _) => "*".to_string(),
                    (false, Some(d)) => format!("≺ {d}"),
                    (false, None) => "-".to_string(),
                },
                if e.stats.all_correct { "yes".into() } else { "NO".to_string() },
            ]);
        }
    }
    print!("{}", t.render());

    let meta = GridMeta { threads: threads_used, wall_ms: wall.as_millis() };
    std::fs::write(&out_path, result.to_json(&meta))
        .unwrap_or_else(|e| cli::fail(USAGE, format!("--out {out_path}: {e}")));
    let bad = result.points.iter().filter(|p| !p.point.correct).count();
    let frontier_sizes: Vec<String> = result
        .cells
        .iter()
        .map(|c| format!("{}/{}:{}", c.family.key(), c.n, c.frontier().len()))
        .collect();
    println!(
        "\nwrote {out_path}: {} points, {} cells, frontier sizes [{}], {} incorrect, {:.1}s wall",
        result.points.len(),
        result.cells.len(),
        frontier_sizes.join(", "),
        bad,
        wall.as_secs_f64()
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
