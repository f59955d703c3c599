//! The per-PR gate (`bench-diff`) and the drift gate (`bench-report
//! --gate`) judge one OLD → NEW step the same way, because both read
//! the one gate table in `bench::artifact`. Each case runs both real
//! binaries: `bench-diff` on the two files, `bench-report` on a
//! throwaway git history that commits them in turn.

mod common;

use common::{bench_diff, grid_doc, grid_point, sweep_cell, sweep_doc};
use std::process::Command;

/// Commits `old` then `new` as `BENCH_test.json` in a throwaway repo
/// and runs `bench-report --gate` over that history.
fn bench_report_gate(tag: &str, old: &str, new: &str, threshold: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("bench-gates-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("-C")
            .arg(&dir)
            .args(args)
            .env("GIT_CONFIG_GLOBAL", "/dev/null")
            .env("GIT_CONFIG_SYSTEM", "/dev/null")
            .env("GIT_AUTHOR_NAME", "t")
            .env("GIT_AUTHOR_EMAIL", "t@t")
            .env("GIT_COMMITTER_NAME", "t")
            .env("GIT_COMMITTER_EMAIL", "t@t")
            .output()
            .unwrap();
        assert!(out.status.success(), "git {args:?}: {out:?}");
    };
    git(&["init", "-q", "-b", "main"]);
    for (i, body) in [old, new].into_iter().enumerate() {
        std::fs::write(dir.join("BENCH_test.json"), body).unwrap();
        git(&["add", "BENCH_test.json"]);
        git(&["commit", "-q", "-m", &format!("rev {i}")]);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .arg("--repo")
        .arg(&dir)
        .args(["--artifact", "BENCH_test.json", "--gate", "--drift-threshold", threshold])
        .output()
        .expect("run bench-report");
    let _ = std::fs::remove_dir_all(&dir);
    let text = String::from_utf8_lossy(&out.stdout).into_owned()
        + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

/// Exit codes of `bench-diff` and `bench-report --gate` on the step
/// `old` → `new` at one threshold. Both outputs are printed, so a
/// failing test shows them.
fn both_gates(tag: &str, old: &str, new: &str, threshold: &str) -> [Option<i32>; 2] {
    let (diff, diff_text) = bench_diff(tag, old, new, &["--threshold", threshold]);
    let (report, report_text) = bench_report_gate(tag, old, new, threshold);
    println!("bench-diff:\n{diff_text}\nbench-report:\n{report_text}");
    [diff, report]
}

#[test]
fn one_newly_failing_seed_of_eight_fails_both_gates() {
    let cell = |failing: Option<usize>| {
        grid_doc(&(1..=8).map(|s| grid_point(s, 20.0, Some(s) != failing)).collect::<Vec<_>>())
    };
    let codes = both_gates("seed", &cell(None), &cell(Some(8)), "25");
    assert_eq!(codes, [Some(1); 2], "12.5% of seeds failing in a correct cell");
}

#[test]
fn a_frontier_entry_that_becomes_dominated_fails_both_gates() {
    let entries = [("luby", 9.0), ("le?bits=6", 12.0)];
    let old = sweep_doc(&[sweep_cell(64, &entries, &["luby", "le?bits=6"])]);
    let new = sweep_doc(&[sweep_cell(64, &entries, &["luby"])]);
    let codes = both_gates("dominated", &old, &new, "5");
    assert_eq!(codes, [Some(1); 2], "le?bits=6 dropped off the frontier");
}

#[test]
fn a_step_within_every_gate_passes_both() {
    let old = grid_doc(&[grid_point(1, 20.0, true)]);
    let new = grid_doc(&[grid_point(1, 20.4, true)]);
    assert_eq!(both_gates("within", &old, &new, "5"), [Some(0); 2], "+2% under 5%");
}
