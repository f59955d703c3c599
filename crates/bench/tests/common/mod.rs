//! Synthetic benchmark documents and a `bench-diff` driver shared by
//! the binary-level gate tests.

// Each test crate compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::Command;

/// The `awake_dist` object of [`grid_point`], spelled as in the payload
/// so a test can strip it to make a legacy v1 point.
pub const AWAKE_DIST: &str = ",\"awake_dist\":{\"p95\":5,\"gini\":0.1}";

/// One seed of the `luby / er / 64` grid cell.
pub fn grid_point(seed: usize, awake_max: f64, correct: bool) -> String {
    format!(
        "{{\"algorithm\":\"luby\",\"family\":\"er\",\"n\":64,\"seed\":{seed},\
         \"rounds\":10,\"awake_max\":{awake_max},\"awake_avg\":3.5{AWAKE_DIST},\
         \"max_message_bits\":21,\"correct\":{correct},\"failures\":0}}"
    )
}

/// A `bench-grid/v3` document holding `points`.
pub fn grid_doc(points: &[String]) -> String {
    format!(
        "{{\"schema\":\"awake-mis/bench-grid/v3\",\"spec\":{{}},\"cells\":[],\
         \"points\":[{}]}}",
        points.join(",")
    )
}

/// One `er` sweep cell of `n` nodes: its `(spec point, mean awake_max)`
/// entries and the keys on its frontier.
pub fn sweep_cell(n: u32, entries: &[(&str, f64)], frontier: &[&str]) -> String {
    let entries: Vec<String> = entries
        .iter()
        .map(|(algo, awake)| {
            format!(
                "{{\"algorithm\":\"{algo}\",\"group\":0,\"runs\":2,\
                 \"awake_max\":{{\"mean\":{awake}}},\"awake_avg\":{{\"mean\":4.0}},\
                 \"energy_max_mj\":{{\"mean\":1.5}},\"max_message_bits\":21,\
                 \"all_correct\":true}}"
            )
        })
        .collect();
    let frontier: Vec<String> = frontier.iter().map(|k| format!("\"{k}\"")).collect();
    format!(
        "{{\"family\":\"er\",\"n\":{n},\"frontier\":[{}],\"entries\":[{}]}}",
        frontier.join(","),
        entries.join(",")
    )
}

/// A `bench-sweep/v1` document holding `cells`.
pub fn sweep_doc(cells: &[String]) -> String {
    format!(
        "{{\"schema\":\"awake-mis/bench-sweep/v1\",\"spec\":{{}},\"cells\":[{}],\"points\":[]}}",
        cells.join(",")
    )
}

/// A `bench-churn/v1` document with one zero-rate `luby / er / 64` point.
pub fn churn_doc(woken_ratio: f64) -> String {
    format!(
        "{{\"schema\":\"awake-mis/bench-churn/v1\",\"spec\":{{}},\"cells\":[],\
         \"points\":[{{\"algorithm\":\"luby\",\"family\":\"er\",\"n\":64,\"rate\":0,\
         \"seed\":1,\"woken_ratio\":{woken_ratio},\"awake_per_delta\":0.0,\"correct\":true}}]}}"
    )
}

/// Writes `body` to a per-process temp file named after `name`.
fn write_doc(name: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench-gates-{}-{name}", std::process::id()));
    std::fs::write(&path, body).expect("write temp doc");
    path
}

/// Runs the real `bench-diff` binary on `old` and `new` (written under
/// `tag`), returning its exit code and combined output.
pub fn bench_diff(tag: &str, old: &str, new: &str, extra: &[&str]) -> (Option<i32>, String) {
    let (old, new) = (
        write_doc(&format!("{tag}-old.json"), old),
        write_doc(&format!("{tag}-new.json"), new),
    );
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .arg(&old)
        .arg(&new)
        .args(extra)
        .output()
        .expect("run bench-diff");
    let _ = (std::fs::remove_file(old), std::fs::remove_file(new));
    let text = String::from_utf8_lossy(&out.stdout).into_owned()
        + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}
