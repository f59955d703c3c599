//! `bench-diff` verdicts on grid, sweep and churn documents, driven
//! through the real binary because the exit code is the CI contract
//! (fault documents are covered by `diff_faults.rs`). Only exit codes
//! and the `MISSING` marker are asserted; table layout and verdict
//! wording are free to change.

mod common;

use common::{bench_diff, churn_doc, grid_doc, grid_point, sweep_cell, sweep_doc, AWAKE_DIST};

/// The `luby / er / 64` grid cell over `seeds` seeds with the given
/// worst-case awake; seed `failing` (if any) does not verify.
fn grid_cell(seeds: usize, awake_max: f64, failing: Option<usize>) -> String {
    let points: Vec<String> =
        (1..=seeds).map(|s| grid_point(s, awake_max, Some(s) != failing)).collect();
    grid_doc(&points)
}

#[test]
fn grid_awake_max_gates_on_the_relative_threshold() {
    let old = grid_cell(1, 20.0, None);
    let (code, text) = bench_diff("grid-up10", &old, &grid_cell(1, 22.0, None), &[]);
    assert_eq!(code, Some(1), "+10% over the default 5% must fail:\n{text}");
    let (code, text) = bench_diff("grid-up2", &old, &grid_cell(1, 20.4, None), &[]);
    assert_eq!(code, Some(0), "+2% under the default 5% must pass:\n{text}");
}

#[test]
fn one_newly_failing_seed_of_eight_fails_at_a_loose_threshold() {
    let (code, text) = bench_diff(
        "grid-seed",
        &grid_cell(8, 20.0, None),
        &grid_cell(8, 20.0, Some(8)),
        &["--threshold", "25"],
    );
    assert_eq!(code, Some(1), "a fully correct cell must stay fully correct:\n{text}");
}

#[test]
fn a_v1_grid_without_awake_dist_compares_against_v3() {
    let v3 = grid_cell(2, 20.0, None);
    let v1 = v3.replace("bench-grid/v3", "bench-grid/v1").replace(AWAKE_DIST, "");
    assert!(!v1.contains("awake_dist"));
    let (code, text) = bench_diff("grid-v1", &v3, &v1, &[]);
    assert_eq!(code, Some(0), "a measure on one side only is not gated:\n{text}");
}

#[test]
fn a_frontier_entry_that_becomes_dominated_fails() {
    let entries = [("luby", 9.0), ("le?bits=6", 12.0)];
    let old = sweep_doc(&[sweep_cell(64, &entries, &["luby", "le?bits=6"])]);
    let new = sweep_doc(&[sweep_cell(64, &entries, &["luby"])]);
    let (code, text) = bench_diff("sweep-dominated", &old, &new, &[]);
    assert_eq!(code, Some(1), "a frontier point dropping off the frontier must fail:\n{text}");
}

#[test]
fn a_frontier_entry_removed_from_new_is_missing() {
    let old = sweep_doc(&[sweep_cell(
        64,
        &[("luby", 9.0), ("le?bits=6", 12.0)],
        &["luby", "le?bits=6"],
    )]);
    let new = sweep_doc(&[sweep_cell(64, &[("le?bits=6", 12.0)], &["le?bits=6"])]);
    let (code, text) = bench_diff("sweep-removed", &old, &new, &[]);
    assert_eq!(code, Some(1), "a vanished frontier entry must fail:\n{text}");
    assert!(text.contains("MISSING"), "lost coverage is called out:\n{text}");
}

#[test]
fn a_new_frontier_entry_or_a_new_cell_is_coverage() {
    let luby = sweep_cell(64, &[("luby", 9.0)], &["luby"]);
    let old = sweep_doc(std::slice::from_ref(&luby));
    let new_entry = sweep_doc(&[sweep_cell(
        64,
        &[("luby", 9.0), ("le?bits=6", 7.0)],
        &["luby", "le?bits=6"],
    )]);
    let (code, text) = bench_diff("sweep-new-entry", &old, &new_entry, &[]);
    assert_eq!(code, Some(0), "a new frontier entry must pass:\n{text}");
    let new_cell = sweep_doc(&[luby, sweep_cell(128, &[("luby", 9.0)], &["luby"])]);
    let (code, text) = bench_diff("sweep-new-cell", &old, &new_cell, &[]);
    assert_eq!(code, Some(0), "a new sweep cell must pass:\n{text}");

    let point = grid_point(1, 20.0, true);
    let two_grid_cells = grid_doc(&[point.clone(), point.replace("\"n\":64", "\"n\":128")]);
    let (code, text) = bench_diff("grid-new-cell", &grid_doc(&[point]), &two_grid_cells, &[]);
    assert_eq!(code, Some(0), "a new grid cell must pass:\n{text}");
}

#[test]
fn a_zero_rate_churn_cell_that_starts_waking_fails_at_any_threshold() {
    let (code, text) =
        bench_diff("churn-zero", &churn_doc(0.0), &churn_doc(0.001), &["--threshold", "1000"]);
    assert_eq!(code, Some(1), "zero must stay zero:\n{text}");
    let (code, text) = bench_diff("churn-same", &churn_doc(0.0), &churn_doc(0.0), &[]);
    assert_eq!(code, Some(0), "an unchanged churn cell must pass:\n{text}");
}

#[test]
fn documents_of_different_kinds_exit_2() {
    let grid = grid_cell(1, 20.0, None);
    let sweep = sweep_doc(&[sweep_cell(64, &[("luby", 9.0)], &["luby"])]);
    let (code, text) = bench_diff("kinds", &grid, &sweep, &[]);
    assert_eq!(code, Some(2), "a grid against a sweep is a usage error:\n{text}");
}
