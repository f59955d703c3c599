//! Criterion wall-clock benchmarks of the MIS algorithms (one group per
//! headline experiment; the *measured model quantities* — awake rounds,
//! round complexity — come from the `experiments` binary, while these
//! benches track the simulator's own performance).

use analysis::spec::{default_registry, RunnerHandle};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphgen::GraphFamily;

fn runner(key: &str) -> RunnerHandle {
    default_registry().resolve(key).expect("builtin resolves")
}

/// E1/E10 timing: full Awake-MIS runs across sizes.
fn bench_awake_mis(c: &mut Criterion) {
    let mut group = c.benchmark_group("awake_mis");
    group.sample_size(10);
    let (t13, c14) = (runner("awake"), runner("awake-round"));
    for n in [512usize, 2048, 8192] {
        let g = GraphFamily::Er.generate(n, 1);
        group.bench_with_input(BenchmarkId::new("theorem13", n), &g, |b, g| {
            b.iter(|| t13.run(g, 1).unwrap())
        });
    }
    for n in [512usize, 2048] {
        let g = GraphFamily::Er.generate(n, 1);
        group.bench_with_input(BenchmarkId::new("corollary14", n), &g, |b, g| {
            b.iter(|| c14.run(g, 1).unwrap())
        });
    }
    group.finish();
}

/// Baseline timings for the comparison table.
fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let (luby, vt) = (runner("luby"), runner("vt"));
    for n in [512usize, 2048, 8192] {
        let g = GraphFamily::Er.generate(n, 1);
        group.bench_with_input(BenchmarkId::new("luby", n), &g, |b, g| {
            b.iter(|| luby.run(g, 1).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("vt_mis", n), &g, |b, g| {
            b.iter(|| vt.run(g, 1).unwrap())
        });
    }
    let (naive, ldt) = (runner("naive"), runner("ldt"));
    for n in [512usize, 2048] {
        let g = GraphFamily::Er.generate(n, 1);
        group.bench_with_input(BenchmarkId::new("naive_greedy", n), &g, |b, g| {
            b.iter(|| naive.run(g, 1).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ldt_mis", n), &g, |b, g| {
            b.iter(|| ldt.run(g, 1).unwrap())
        });
    }
    group.finish();
}

/// Node-averaged entrants: simulator cost of the dropout/ranked paths.
fn bench_node_averaged(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_averaged");
    group.sample_size(10);
    let (na, gp) = (runner("na"), runner("gp-avg"));
    for n in [512usize, 2048, 8192] {
        let g = GraphFamily::Er.generate(n, 1);
        group.bench_with_input(BenchmarkId::new("na_mis", n), &g, |b, g| {
            b.iter(|| na.run(g, 1).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("gp_avg_mis", n), &g, |b, g| {
            b.iter(|| gp.run(g, 1).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_awake_mis, bench_baselines, bench_node_averaged);
criterion_main!(benches);
