//! Sweep-harness determinism: the `BENCH_sweep.json` payload — spec
//! echo, expansions, energy-priced points, Pareto-annotated cells — must
//! be byte-identical no matter how many worker threads ran the sweep,
//! exactly like the grid payload (wall-clock fields live only in the
//! separate `meta`/`timing` sections).

use analysis::sweep::{run_sweep, SweepSpec};
use analysis::{Document, EnergyModel, GridMeta};
use graphgen::GraphFamily;

fn spec(threads: usize) -> SweepSpec {
    SweepSpec {
        specs: vec![
            "luby".to_string(),
            "na".to_string(),
            "gp-avg?balance=0..4&step=4".to_string(),
            "le?bits=4..6&step=2".to_string(),
        ],
        families: vec![GraphFamily::Er, GraphFamily::Tree],
        sizes: vec![48, 96],
        seeds: vec![1, 2, 3],
        threads,
        energy: EnergyModel::default(),
    }
}

#[test]
fn two_and_eight_thread_payloads_are_byte_identical() {
    let two = run_sweep(&spec(2)).expect("sweep");
    let eight = run_sweep(&spec(8)).expect("sweep");
    assert_eq!(
        two.payload_json(),
        eight.payload_json(),
        "thread count leaked into the deterministic sweep payload"
    );
    // And both match a fully serial run.
    let one = run_sweep(&spec(1)).expect("sweep");
    assert_eq!(one.payload_json(), two.payload_json());
}

#[test]
fn meta_carries_the_wall_clock_fields_only() {
    let result = run_sweep(&spec(2)).expect("sweep");
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
fn every_cell_has_a_multi_point_frontier() {
    // The acceptance shape of the energy-frontier subsystem: with both
    // awake measures and two dials in one sweep, no single point
    // dominates a cell.
    let result = run_sweep(&spec(0)).expect("sweep");
    for cell in &result.cells {
        assert!(cell.entries.iter().all(|e| e.stats.all_correct), "all entries must verify");
        let frontier = cell.frontier();
        assert!(
            frontier.len() >= 2,
            "{}/{}: expected a genuine trade-off, frontier = {frontier:?}",
            cell.family.key(),
            cell.n
        );
        // Dominated entries name a dominator that exists in the cell.
        for e in &cell.entries {
            if let Some(d) = &e.dominated_by {
                assert!(
                    cell.entries.iter().any(|o| o.stats.algorithm.key() == d),
                    "dangling dominator {d}"
                );
                assert!(!e.pareto, "a dominated entry cannot be on the frontier");
            }
        }
    }
}
