//! `bench-report` — the bench-trajectory reporter and multi-PR drift gate.
//!
//! Walks the full git history of the committed `BENCH_*.json` artifacts
//! (every schema: grid, sweep, faults, churn), builds one trend series
//! per `(artifact, cell, measure)`, and renders ASCII sparkline tables,
//! long-format CSV, and a gnuplot script. With `--gate` it exits
//! nonzero when any gated measure's *cumulative* drift from its first
//! committed baseline exceeds the threshold — the slow creep that
//! passes every adjacent `bench-diff` but compounds across PRs.
//!
//! ```text
//! usage: bench-report [--artifact PATH]... [--repo DIR] [--cell FILTER]
//!                     [--csv FILE] [--gnuplot DIR]
//!                     [--gate] [--drift-threshold PCT] [--bits-slack BITS]
//! ```
//!
//! * `--artifact PATH` — artifact file to trend (repeatable). Default:
//!   the four committed artifacts at the repository root.
//! * `--repo DIR` — repository to read history from (default: the repo
//!   containing the current directory).
//! * `--cell FILTER` — only series whose `cell/key` contains FILTER.
//! * `--csv FILE` — write the long-format trend CSV.
//! * `--gnuplot DIR` — write `trend.gp` + `trend_<artifact>.dat` files.
//! * `--gate` — exit 1 when cumulative drift exceeds the threshold.
//! * `--drift-threshold PCT` — relative/pp gate threshold (default 5).
//! * `--bits-slack BITS` — absolute slack for message width (default 0).
//!
//! Degrades gracefully: a shallow clone yields one-sample series
//! ("no trend", never gated); an unparseable historical revision is
//! skipped with a warning and counted, not fatal.

use bench::artifact::ArtifactKind;
use bench::cli::{self, Args};
use bench::history::{load_history, rel_to_repo, repo_root};
use bench::report::{ascii_report, gnuplot_report, trend_csv};
use bench::trend::{gate_drift, series_from_history, TrendSeries};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: bench-report [--artifact PATH]... [--repo DIR] [--cell FILTER]
                    [--csv FILE] [--gnuplot DIR]
                    [--gate] [--drift-threshold PCT] [--bits-slack BITS]";

fn main() -> ExitCode {
    let mut artifacts: Vec<String> = Vec::new();
    let mut repo_arg: Option<String> = None;
    let mut cell_filter: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut gnuplot_dir: Option<String> = None;
    let mut gate = false;
    let mut threshold = 5.0f64;
    let mut bits_slack = 0.0f64;

    let mut args = Args::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--artifact" => artifacts.push(args.value()),
            "--repo" => repo_arg = Some(args.value()),
            "--cell" => cell_filter = Some(args.value()),
            "--csv" => csv_path = Some(args.value()),
            "--gnuplot" => gnuplot_dir = Some(args.value()),
            "--gate" => gate = true,
            "--drift-threshold" => threshold = args.parse(),
            "--bits-slack" => bits_slack = args.parse(),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }

    let start = repo_arg.as_deref().map_or_else(|| PathBuf::from("."), PathBuf::from);
    let repo = repo_root(&start).unwrap_or_else(|e| cli::fail(USAGE, e));

    // Default to the four committed artifacts at the repository root,
    // trending whichever of them exist.
    let defaulted = artifacts.is_empty();
    if defaulted {
        artifacts = ArtifactKind::all()
            .iter()
            .map(|k| k.default_path().to_string())
            .collect();
    }

    let mut series: Vec<TrendSeries> = Vec::new();
    let mut artifact_names: Vec<String> = Vec::new();
    let mut skipped_total = 0usize;
    for raw in &artifacts {
        let rel = rel_to_repo(&repo, Path::new(raw)).unwrap_or_else(|e| cli::fail(USAGE, e));
        if defaulted && !repo.join(&rel).exists() {
            eprintln!("warning: {rel}: not present, skipping");
            continue;
        }
        let history = load_history(&repo, &rel).unwrap_or_else(|e| cli::fail(USAGE, e));
        for (rev, err) in &history.skipped {
            eprintln!("warning: skipping revision {rev} of {rel}: {err}");
        }
        skipped_total += history.skipped.len();
        if history.samples.is_empty() {
            eprintln!("warning: {rel}: no committed parseable revisions, skipping");
            continue;
        }
        for s in series_from_history(&history) {
            if !artifact_names.contains(&s.artifact) {
                artifact_names.push(s.artifact.clone());
            }
            series.push(s);
        }
    }

    if let Some(filter) = &cell_filter {
        series.retain(|s| s.cell.join("/").contains(filter.as_str()));
    }
    if series.is_empty() {
        cli::fail(USAGE, "no trend series (no artifacts, or the filter matched nothing)");
    }

    for artifact in &artifact_names {
        let table = ascii_report(artifact, &series);
        if !table.is_empty() {
            println!("{table}");
        }
    }
    if skipped_total > 0 {
        println!("({skipped_total} unparseable historical revision(s) skipped, see warnings)");
    }

    if let Some(path) = &csv_path {
        std::fs::write(path, trend_csv(&series))
            .unwrap_or_else(|e| cli::fail(USAGE, format!("--csv {path}: {e}")));
        println!("wrote {path}");
    }

    if let Some(dir) = &gnuplot_dir {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| cli::fail(USAGE, format!("--gnuplot {}: {e}", dir.display())));
        let (script, dats) = gnuplot_report(&series);
        let mut files = vec![("trend.gp".to_string(), script)];
        files.extend(dats);
        for (name, body) in files {
            let path = dir.join(&name);
            std::fs::write(&path, body)
                .unwrap_or_else(|e| cli::fail(USAGE, format!("--gnuplot {}: {e}", path.display())));
            println!("wrote {}", path.display());
        }
    }

    if gate {
        let violations = gate_drift(&series, threshold, bits_slack);
        if violations.is_empty() {
            println!(
                "drift gate: ok ({} series within {threshold}% of baseline)",
                series.len()
            );
        } else {
            println!("drift gate: {} violation(s)", violations.len());
            for v in &violations {
                println!("  DRIFT {}: {}", v.label, v.detail);
            }
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
