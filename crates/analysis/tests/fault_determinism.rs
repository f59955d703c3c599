//! Fault-sweep determinism: the `BENCH_faults.json` payload — spec
//! echo, expansions, robustness cells, grid-format points — must be
//! byte-identical no matter how many worker threads ran the sweep.
//! Fault draws come from a stateless per-site RNG stream, so this holds
//! even when loss and crashes fire mid-run. And the `loss=0` levels
//! must reproduce the committed clean grid byte-for-byte: the clean
//! anchor of every robustness surface IS the benchmarked algorithm.

use analysis::faults::{run_faults, FaultSweepSpec};
use analysis::{Document, GridMeta};
use graphgen::GraphFamily;

fn spec(threads: usize) -> FaultSweepSpec {
    FaultSweepSpec {
        specs: vec![
            "luby?loss=0,0.05".to_string(),
            "vt?loss=0.1&crash=0.002".to_string(),
            "awake?jitter=4".to_string(),
        ],
        families: vec![GraphFamily::Er, GraphFamily::Tree],
        sizes: vec![48, 96],
        seeds: vec![1, 2, 3],
        threads,
    }
}

#[test]
fn two_and_eight_thread_payloads_are_byte_identical() {
    let two = run_faults(&spec(2)).expect("faults");
    let eight = run_faults(&spec(8)).expect("faults");
    assert_eq!(
        two.payload_json(),
        eight.payload_json(),
        "thread count leaked into the deterministic fault payload"
    );
    // And both match a fully serial run.
    let one = run_faults(&spec(1)).expect("faults");
    assert_eq!(one.payload_json(), two.payload_json());
}

#[test]
fn meta_carries_the_wall_clock_fields_only() {
    let result = run_faults(&spec(2)).expect("faults");
    let payload = result.payload_json();
    let full = result.to_json(&GridMeta { threads: 2, wall_ms: 99 });
    assert!(!payload.contains("wall_ms"));
    assert!(!payload.contains("elapsed_ns"));
    assert!(full.contains("\"wall_ms\": 99"));
    let stripped = full
        .lines()
        .filter(|l| !l.contains("\"meta\"") && !l.contains("\"timing\""))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(stripped, payload);
}

#[test]
fn clean_levels_reproduce_the_committed_grid() {
    // `luby?loss=0` collapses to the clean `luby` runner, so its points
    // over the committed grid's axes must serialize to the exact lines
    // `BENCH_grid.json` pins — the acceptance criterion for treating
    // fault knobs as parameters of the same benchmarked algorithm.
    let committed = include_str!("../../../BENCH_grid.json");
    let result = run_faults(&FaultSweepSpec {
        specs: vec!["luby?loss=0,0.05".to_string()],
        families: vec![GraphFamily::Er],
        sizes: vec![1000],
        seeds: (1..=8).collect(),
        threads: 0,
    })
    .expect("faults");
    let clean: Vec<_> =
        result.points.iter().filter(|p| p.job.algorithm.key() == "luby").collect();
    assert_eq!(clean.len(), 8, "one clean point per committed seed");
    for p in clean {
        assert!(
            committed.contains(&format!("    {}", p.json())),
            "clean-level point not pinned by BENCH_grid.json: {}",
            p.json()
        );
    }
    // The lossy level genuinely diverges from those same cells.
    let lossy: Vec<_> =
        result.points.iter().filter(|p| p.job.algorithm.key() != "luby").collect();
    assert!(lossy.iter().all(|p| p.faulted > 0), "5% loss at n=1000 must drop messages");
    assert!(
        lossy.iter().any(|p| !committed.contains(&format!("    {}", p.json()))),
        "lossy points must not collide with committed clean points"
    );
}
