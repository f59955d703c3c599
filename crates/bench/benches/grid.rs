//! Single-run vs batched grid throughput.
//!
//! `serial` runs a seed sweep the pre-harness way: one runner call at a
//! time, fresh simulator allocations per run, one thread. `batched`
//! runs the same sweep through the grid harness: all hardware threads,
//! per-worker scratch reuse (`ScratchArena`). The two produce identical
//! measurements; only the wall clock differs.
//!
//! After the Criterion groups, a throughput report times the full sweep
//! both ways at n = 10⁴ and prints the speedup ratio — the number the
//! acceptance bar cares about (≥ 3× on a ≥ 4-core machine). A second
//! report times one million-node `luby` run serial vs `shards=8` and
//! prints rounds/s, node·rounds/s, and the intra-run speedup.

use analysis::grid::{run_grid, GridSpec};
use analysis::spec::default_registry;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use graphgen::GraphFamily;
use sleeping_congest::batch::available_threads;
use std::time::Instant;

const SWEEP_SEEDS: u64 = 4;

fn spec_for(n: usize) -> GridSpec {
    GridSpec {
        algorithms: default_registry().resolve_list("awake").expect("builtin"),
        families: vec![GraphFamily::Er],
        sizes: vec![n],
        seeds: (1..=SWEEP_SEEDS).collect(),
        tiers: Vec::new(),
        threads: 0,
    }
}

/// The pre-harness baseline: serial runs, fresh allocations every time.
fn serial_sweep(n: usize) -> u64 {
    let runner = default_registry().resolve("awake").expect("builtin");
    let mut acc = 0;
    for seed in 1..=SWEEP_SEEDS {
        let g = GraphFamily::Er.generate(n, seed);
        let r = runner.run(&g, seed).unwrap();
        acc += r.awake_max;
    }
    acc
}

fn bench_grid_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    for n in [1_000usize, 10_000, 100_000] {
        group.sample_size(if n >= 100_000 { 2 } else { 5 });
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, &n| {
            b.iter(|| black_box(serial_sweep(n)))
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            b.iter(|| black_box(run_grid(&spec_for(n)).points.len()))
        });
    }
    group.finish();
}

/// Explicit speedup report at the acceptance-bar size.
fn report_speedup(_c: &mut Criterion) {
    let n = 10_000;
    // Warm up both paths once so allocator and page-cache state match.
    serial_sweep(n);
    run_grid(&spec_for(n));

    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(serial_sweep(n));
    }
    let serial = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..reps {
        black_box(run_grid(&spec_for(n)).points.len());
    }
    let batched = t1.elapsed();
    println!(
        "grid speedup at n={n}: serial {:.3}s vs batched {:.3}s → {:.2}x ({} threads)",
        serial.as_secs_f64() / reps as f64,
        batched.as_secs_f64() / reps as f64,
        serial.as_secs_f64() / batched.as_secs_f64(),
        available_threads(),
    );
}

/// Intra-run sharding report at the million-node acceptance size.
///
/// One `luby` run on a 10⁶-node ER graph, serial (`shards=1`) vs
/// sharded (`shards=8`). The payload is byte-identical either way
/// (asserted here); the print reports absolute engine throughput —
/// rounds/s and node·rounds/s — plus the speedup ratio the acceptance
/// bar cares about (≥ 2× on a ≥ 4-core machine).
fn report_shard_speedup(_c: &mut Criterion) {
    let n = 1_000_000;
    let seed = 1;
    let g = GraphFamily::Er.generate(n, seed);
    let time_run = |spec: &str| {
        let runner = default_registry().resolve(spec).expect("builtin");
        let t = Instant::now();
        let r = runner.run(&g, seed).expect("clean run");
        (t.elapsed(), r)
    };
    // Warm the allocator/page cache on the serial path first.
    time_run("luby?shards=1");
    let (serial, r1) = time_run("luby?shards=1");
    let (sharded, r8) = time_run("luby?shards=8");
    assert_eq!(r1.metrics, r8.metrics, "shard count leaked into the run metrics");
    for (label, dt, r) in [("shards=1", serial, &r1), ("shards=8", sharded, &r8)] {
        let rps = r.metrics.active_rounds as f64 / dt.as_secs_f64();
        println!(
            "luby n={n} {label}: {} active rounds in {:.2}s → {:.0} rounds/s, {:.3e} node·rounds/s",
            r.metrics.active_rounds,
            dt.as_secs_f64(),
            rps,
            n as f64 * rps,
        );
    }
    println!(
        "shard speedup at n={n}: {:.2}x ({} hardware threads)",
        serial.as_secs_f64() / sharded.as_secs_f64(),
        available_threads(),
    );
}

criterion_group!(benches, bench_grid_throughput, report_speedup, report_shard_speedup);
criterion_main!(benches);
