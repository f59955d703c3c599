//! `bench-diff` — the per-PR regression gate: compares two revisions of
//! one benchmark artifact (`BENCH_grid.json`, `BENCH_sweep.json`,
//! `BENCH_faults.json` or `BENCH_churn.json`).
//!
//! It is `bench-report --gate` run over two revisions held in memory:
//! OLD and NEW become a two-sample [`ArtifactHistory`], every
//! `(cell, measure)` becomes a [`bench::trend::TrendSeries`], and
//! [`gate_drift`] judges each series with
//! [`bench::trend::TrendSeries::gate_violation`] under the gate that
//! [`Artifact::series_cells`] assigns its measure.
//! The per-PR gate and the drift gate therefore agree by construction;
//! they only look across different spans.
//!
//! Coverage is judged per cell. A cell of OLD with no measure in NEW is
//! lost coverage and fails (`MISSING`); a cell only in NEW is new
//! coverage and passes. A measure on one side only (v1 grids lack
//! `awake_p95`) is shown but not gated.
//!
//! ```text
//! usage: bench-diff OLD.json NEW.json [--threshold PCT] [--bits-slack N] [--exact]
//! ```
//!
//! * `--threshold PCT` — allowed growth of each gated measure: percent
//!   for relative gates, percentage points for fault failure rates
//!   (default 5).
//! * `--bits-slack N` — allowed absolute growth of max message bits
//!   (default 0: any CONGEST growth is a regression).
//! * `--exact` — additionally require the deterministic payloads
//!   ([`PAYLOAD_SECTIONS`]; `meta`/`timing` are ignored) to agree
//!   exactly. This is how CI pins each committed artifact's
//!   byte-compatibility.
//!
//! Exit codes: `0` no regression, `1` regression, lost coverage or
//! `--exact` mismatch, `2` usage or parse error.

use bench::artifact::{Artifact, PAYLOAD_SECTIONS};
use bench::cli::{self, Args};
use bench::history::{ArtifactHistory, Revision, RevisionSample};
use bench::report::ascii_report;
use bench::trend::{gate_drift, series_from_history};
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench-diff OLD.json NEW.json [--threshold PCT] [--bits-slack N] [--exact]";

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 5.0f64;
    let mut bits_slack = 0.0f64;
    let mut exact = false;
    let mut args = Args::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => threshold = args.parse(),
            "--bits-slack" => bits_slack = args.parse(),
            "--exact" => exact = true,
            other if other.starts_with("--") => args.fail(format!("unknown flag {other:?}")),
            _ => paths.push(arg),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        cli::fail(USAGE, "expected exactly two files");
    };

    let (old, new) = match (Artifact::load(old_path), Artifact::load(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => cli::fail(USAGE, e),
    };
    let kind = old.kind.short();
    if old.kind != new.kind {
        let other = new.kind.short();
        cli::fail(USAGE, format!("cannot compare a {kind} document with a {other} document"));
    }
    // Sample 0 is OLD, sample 1 is NEW; the paths stand in for hashes.
    let sample = |path: &str, artifact| RevisionSample {
        rev: Revision { hash: path.to_string(), date: String::new() },
        artifact,
    };
    let history = ArtifactHistory {
        path: new_path.to_string(),
        samples: vec![sample(old_path, old), sample(new_path, new)],
        skipped: Vec::new(),
    };
    let series = series_from_history(&history);
    print!("{}", ascii_report(kind, &series));

    let regressions = gate_drift(&series, threshold, bits_slack);
    for r in &regressions {
        println!("REGRESSED {}: {}", r.label, r.detail);
    }

    let mut cells: Vec<&[String]> = Vec::new();
    for s in &series {
        if !cells.contains(&s.cell.as_slice()) {
            cells.push(&s.cell);
        }
    }
    let covers = |cell: &[String], seq: usize| {
        series.iter().any(|s| s.cell == cell && s.samples.iter().any(|p| p.seq == seq))
    };
    let (mut compared, mut missing) = (0usize, 0usize);
    for cell in &cells {
        let label = cell.join("/");
        match (covers(cell, 0), covers(cell, 1)) {
            (true, true) => compared += 1,
            (true, false) => {
                println!("MISSING: cell {label} only in {old_path}");
                missing += 1;
            }
            _ => println!("cell {label} only in {new_path} (new coverage, not a failure)"),
        }
    }
    println!(
        "\ncompared {compared} {kind} cells: {} regressions, {missing} baseline cells missing \
         (threshold {threshold}, bits slack {bits_slack})",
        regressions.len()
    );

    let mut failed = !regressions.is_empty() || missing > 0;
    if exact {
        let [old, new] = [0, 1].map(|i| &history.samples[i].artifact.doc);
        for section in PAYLOAD_SECTIONS {
            if old.get(section) != new.get(section) {
                println!("--exact: section {section:?} differs");
                failed = true;
            }
        }
        if !failed {
            println!("--exact: payloads identical");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
