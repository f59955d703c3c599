//! Batch-harness determinism: the `BENCH_grid.json` payload must be
//! byte-identical no matter how many worker threads ran the grid
//! (wall-clock fields live in the separate `meta` object and are
//! excluded by construction). And the grid, sweep and fault harnesses,
//! which generate each instance once and lend it to every job on it,
//! must give every point exactly what a one-job `run_point` gives.

use analysis::faults::{run_faults, FaultSweepSpec};
use analysis::grid::{
    run_grid, run_point, run_point_detailed, GridJob, GridMeta, GridPoint, GridSpec, GridTier,
};
use analysis::spec::default_registry;
use analysis::sweep::{run_sweep, SweepSpec};
use analysis::{Document, EnergyModel};
use graphgen::GraphFamily;
use sleeping_congest::ScratchArena;

fn spec(threads: usize) -> GridSpec {
    GridSpec {
        algorithms: default_registry().resolve_list("awake,luby,vt").unwrap(),
        families: vec![GraphFamily::Er, GraphFamily::Tree],
        sizes: vec![48, 96],
        seeds: vec![1, 2, 3, 4],
        tiers: Vec::new(),
        threads,
    }
}

#[test]
fn two_and_eight_thread_payloads_are_byte_identical() {
    let two = run_grid(&spec(2));
    let eight = run_grid(&spec(8));
    assert_eq!(
        two.payload_json(),
        eight.payload_json(),
        "thread count leaked into the deterministic payload"
    );
    // And both match a fully serial run.
    let one = run_grid(&spec(1));
    assert_eq!(one.payload_json(), two.payload_json());
}

#[test]
fn shard_counts_do_not_leak_into_the_payload() {
    // `shards=K` is intra-run parallelism inside the engine's round
    // loop. It is dropped from the runner key and must not perturb a
    // single byte of the grid payload — same contract as `threads`.
    let serial = run_grid(&spec(1));
    let sharded = run_grid(&GridSpec {
        algorithms: default_registry()
            .resolve_list("awake?shards=2,luby?shards=8,vt?shards=0")
            .unwrap(),
        ..spec(1)
    });
    assert_eq!(
        serial.payload_json(),
        sharded.payload_json(),
        "shard count leaked into the deterministic payload"
    );
}

#[test]
fn meta_carries_the_wall_clock_fields_only() {
    let result = run_grid(&spec(2));
    let payload = result.payload_json();
    let full = result.to_json(&GridMeta { threads: 2, wall_ms: 12345 });
    assert!(!payload.contains("wall_ms"));
    assert!(!payload.contains("threads"));
    assert!(full.contains("\"wall_ms\": 12345"));
    // Dropping the meta and timing lines recovers the payload byte for
    // byte — i.e. "identical modulo wall-clock fields" is checkable
    // mechanically.
    let stripped = full
        .lines()
        .filter(|l| !l.contains("\"meta\"") && !l.contains("\"timing\""))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_eq!(stripped, payload);
}

/// The point a fresh, one-job run of `job` gives, as JSON.
fn alone(job: &GridJob) -> String {
    run_point(job, &mut ScratchArena::new()).json()
}

/// Every point of one `(family, n, seed)` instance carries the same
/// generation time, which a harness generating per job would not give.
fn assert_one_generation_per_instance<'a>(points: impl Iterator<Item = &'a GridPoint> + Clone) {
    for p in points.clone() {
        assert!(p.generate_ns > 0 && p.generate_ns <= p.elapsed_ns, "{}", p.json());
        for q in points.clone() {
            let (a, b) = (&p.job, &q.job);
            if (a.family, a.n, a.seed) == (b.family, b.n, b.seed) {
                assert_eq!(p.generate_ns, q.generate_ns, "{} / {}", p.json(), q.json());
            }
        }
    }
}

#[test]
fn shared_instances_match_per_job_runs() {
    // A tier that repeats the base instance (er, 48, 1) with another
    // algorithm shares it too.
    let spec = |threads| GridSpec {
        algorithms: default_registry().resolve_list("awake,luby,gp-avg").unwrap(),
        families: vec![GraphFamily::Er, GraphFamily::Rgg],
        sizes: vec![48, 96],
        seeds: vec![1, 2],
        tiers: vec![GridTier {
            name: "repeat".to_string(),
            algorithms: default_registry().resolve_list("na").unwrap(),
            families: vec![GraphFamily::Er],
            sizes: vec![48],
            seeds: vec![1],
        }],
        threads,
    };
    let jobs = spec(1).jobs();
    assert_eq!(jobs.len(), 3 * 2 * 2 * 2 + 1);
    let expect: Vec<String> = jobs.iter().map(alone).collect();
    for threads in [1, 2, 8] {
        let result = run_grid(&spec(threads));
        let got: Vec<String> = result.points.iter().map(GridPoint::json).collect();
        assert_eq!(got, expect, "threads={threads}");
        for (job, point) in jobs.iter().zip(&result.points) {
            assert_eq!(*job, point.job, "points come back in job order");
        }
        assert_one_generation_per_instance(result.points.iter());
    }
}

#[test]
fn shared_instances_match_per_job_runs_in_a_sweep() {
    let spec = |threads| SweepSpec {
        specs: vec!["luby".to_string(), "gp-avg?balance=0,4".to_string()],
        families: vec![GraphFamily::Er, GraphFamily::Rgg],
        sizes: vec![48],
        seeds: vec![1, 2],
        threads,
        energy: EnergyModel::default(),
    };
    let energy = EnergyModel::default();
    for threads in [1, 2, 8] {
        let result = run_sweep(&spec(threads)).expect("sweep");
        assert_eq!(result.points.len(), 3 * 2 * 2);
        for p in &result.points {
            let (point, metrics) = run_point_detailed(&p.point.job, &mut ScratchArena::new());
            let m = metrics.expect("clean runs finish");
            assert_eq!(p.point.json(), point.json(), "threads={threads}");
            assert_eq!(
                p.energy_max_mj,
                energy.max_node_energy_mj(&m.awake_rounds, &m.terminated_at)
            );
            assert_eq!(
                p.energy_mean_mj,
                energy.mean_node_energy_mj(&m.awake_rounds, &m.terminated_at)
            );
        }
        assert_one_generation_per_instance(result.points.iter().map(|p| &p.point));
    }
}

#[test]
fn shared_instances_match_per_job_runs_in_a_fault_sweep() {
    let spec = |threads| FaultSweepSpec {
        specs: vec!["luby?loss=0,0.05".to_string(), "awake?crash=0.002".to_string()],
        families: vec![GraphFamily::Er, GraphFamily::Rgg],
        sizes: vec![48],
        seeds: vec![1, 2],
        threads,
    };
    for threads in [1, 2, 8] {
        let result = run_faults(&spec(threads)).expect("faults");
        assert_eq!(result.points.len(), 3 * 2 * 2);
        for p in &result.points {
            assert_eq!(p.json(), alone(&p.job), "threads={threads}");
        }
        assert_one_generation_per_instance(result.points.iter());
    }
}
