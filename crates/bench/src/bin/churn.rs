//! Churn-epoch experiment runner: boots a MIS service per grid point,
//! alternates random topology deltas with incremental frontier repair,
//! and writes the machine-readable `BENCH_churn.json` (schema
//! `awake-mis/bench-churn/v1`) plus a repair-vs-recompute summary table.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin churn -- \
//!     [--algos luby,vt] [--families er,tree] [--sizes 256,1024] \
//!     [--rates 0,0.005,0.01,0.02,0.08] [--epochs 8] [--seeds 3] \
//!     [--insert-frac 0.5] [--node-churn 0.1] [--threads 0] \
//!     [--no-recompute] [--serve N] [--serve-algo luby] \
//!     [--serve-batches 6] [--serve-ops 2000] [--profile] \
//!     [--out BENCH_churn.json]
//! ```
//!
//! `--algos` takes registry specs (same grammar as `grid`). `--rates`
//! are effective deltas per epoch as a fraction of `n`; rate `0` pins
//! the delta-free case (the service must wake nobody). Every point runs
//! `--epochs` cycles of `random_batch` → `MisService::apply`. Unless
//! `--no-recompute` is given, each epoch also times a from-scratch run
//! on the current active graph so the summary can report the wall-clock
//! ratio; the recompute never touches the deterministic payload (its
//! timing lands in the `timing` section).
//!
//! `--serve N` additionally runs a generated-workload throughput probe
//! at `n = N` (the `serve` bin's loop, in-process) and records the
//! sustained deltas/sec in the document's `meta` line — machine-
//! dependent by nature, so it is excluded from `bench-diff --exact`
//! comparisons. The committed `BENCH_churn.json` is produced with
//! `--serve 1000000`.
//!
//! The JSON payload (everything except `meta`/`timing`) is
//! byte-identical for any `--threads` value.
//!
//! `--profile` attaches the engine's phase profiler to every runner
//! (the execution-only `trace=profile` spec param) and prints a
//! per-algorithm phase breakdown after the run, aggregated over every
//! engine run the churn grid triggered — bootstraps, frontier repairs,
//! and recompute baselines alike. Observational only: the payload is
//! byte-identical with or without it.

use analysis::churn::{random_batch, run_churn, ChurnMeta, ChurnSpec, MisService, ServeThroughput};
use analysis::spec::default_registry;
use analysis::Table;
use bench::{parse_list, with_profile};
use graphgen::GraphFamily;
use sleeping_congest::batch::resolve_threads;
use sleeping_congest::ScratchArena;
use std::time::Instant;

/// Generated-workload throughput probe: the `serve` loop, in-process,
/// against an ER instance of `n` nodes.
fn serve_probe(n: usize, algo: &str, batches: u64, ops: usize, seed: u64) -> ServeThroughput {
    let runner = default_registry().resolve(algo).unwrap_or_else(|e| panic!("--serve-algo: {e}"));
    let g = GraphFamily::Er.generate(n, seed);
    let mut scratch = ScratchArena::new();
    println!("[serve] bootstrapping {} on er n={n}…", runner.key());
    let t0 = Instant::now();
    let (mut service, r) =
        MisService::bootstrap(runner.clone(), g, seed, &mut scratch).expect("serve bootstrap");
    assert!(r.correct, "serve bootstrap must produce a valid MIS");
    println!(
        "[serve] bootstrap: mis={} in {:.2}s; applying {batches} batches × {ops} ops…",
        r.mis_size,
        t0.elapsed().as_secs_f64()
    );
    let start = Instant::now();
    let mut deltas = 0u64;
    let mut woken = 0u64;
    for b in 0..batches {
        let batch = random_batch(service.graph(), ops, 0.5, 0.0, seed.wrapping_add(b + 1));
        let rep = service.apply(&batch, &mut scratch).expect("serve batch");
        assert!(rep.correct, "serve epoch must verify: {:?}", rep.error);
        deltas += rep.deltas;
        woken += rep.woken;
    }
    let wall = start.elapsed();
    // Epochs verify locally; audit the whole MIS once at the end.
    service.audit().expect("serve audit");
    let deltas_per_sec = deltas as f64 / wall.as_secs_f64();
    println!(
        "[serve] {deltas} deltas in {batches} batches over {:.2}s → {:.0} deltas/s \
         ({woken} woken total, {:.1} woken/delta)",
        wall.as_secs_f64(),
        deltas_per_sec,
        woken as f64 / deltas.max(1) as f64,
    );
    ServeThroughput {
        n,
        algorithm: runner.key().to_string(),
        batches,
        deltas,
        wall_ms: wall.as_millis(),
        deltas_per_sec,
    }
}

fn main() {
    let registry = default_registry();
    let mut algos_spec = String::from("luby,vt");
    let mut families = vec![GraphFamily::Er, GraphFamily::Tree];
    let mut sizes = vec![256usize, 1024];
    let mut rates = vec![0.0f64, 0.005, 0.01, 0.02, 0.08];
    let mut epochs = 8usize;
    let mut seed_count = 3u64;
    let mut insert_frac = 0.5f64;
    let mut node_churn = 0.1f64;
    let mut threads = 0usize;
    let mut recompute = true;
    let mut serve_n = 0usize;
    let mut serve_algo = String::from("luby");
    let mut serve_batches = 6u64;
    let mut serve_ops = 2000usize;
    let mut profile = false;
    let mut out_path = String::from("BENCH_churn.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--algos" => algos_spec = value(&mut i).to_string(),
            "--families" => families = parse_list(value(&mut i), GraphFamily::parse, "family"),
            "--sizes" => sizes = parse_list(value(&mut i), |s| s.parse().ok(), "size"),
            "--rates" => rates = parse_list(value(&mut i), |s| s.parse().ok(), "rate"),
            "--epochs" => epochs = value(&mut i).parse().expect("--epochs takes a count"),
            "--seeds" => seed_count = value(&mut i).parse().expect("--seeds takes a count"),
            "--insert-frac" => {
                insert_frac = value(&mut i).parse().expect("--insert-frac takes a fraction");
            }
            "--node-churn" => {
                node_churn = value(&mut i).parse().expect("--node-churn takes a fraction");
            }
            "--threads" => threads = value(&mut i).parse().expect("--threads takes a count"),
            "--no-recompute" => recompute = false,
            "--serve" => serve_n = value(&mut i).parse().expect("--serve takes a node count"),
            "--serve-algo" => serve_algo = value(&mut i).to_string(),
            "--serve-batches" => {
                serve_batches = value(&mut i).parse().expect("--serve-batches takes a count");
            }
            "--serve-ops" => {
                serve_ops = value(&mut i).parse().expect("--serve-ops takes a count");
            }
            "--profile" => profile = true,
            "--out" => out_path = value(&mut i).to_string(),
            other => panic!("unknown argument {other:?} (see the doc comment for usage)"),
        }
        i += 1;
    }

    let algorithms = registry
        .resolve_list(&with_profile(&algos_spec, profile))
        .unwrap_or_else(|e| panic!("--algos: {e}"));
    let spec = ChurnSpec {
        algorithms,
        families,
        sizes,
        rates,
        epochs,
        insert_frac,
        node_churn,
        seeds: (1..=seed_count).collect(),
        threads,
        recompute,
    };
    let jobs = spec.jobs().len();
    let threads_used = resolve_threads(spec.threads);
    println!("running {jobs} churn points ({epochs} epochs each) over {threads_used} threads…");

    let start = Instant::now();
    let result = run_churn(&spec);
    let wall = start.elapsed();

    // Per-cell locality table, with the wall-clock repair-vs-recompute
    // ratio recovered from the per-point timing fields.
    let mut t = Table::new(vec![
        "algorithm", "family", "n", "rate", "deltas", "woken ratio", "awake/Δ", "repair rounds",
        "retries", "wall ratio", "ok",
    ]);
    let runs = spec.seeds.len();
    for (ci, c) in result.cells.iter().enumerate() {
        let chunk = &result.points[ci * runs..(ci + 1) * runs];
        let repair_ns: u64 = chunk.iter().map(|p| p.elapsed_ns).sum();
        let recompute_ns: u64 = chunk.iter().map(|p| p.recompute_ns).sum();
        let wall_ratio = if recompute_ns > 0 {
            format!("{:.2}", repair_ns as f64 / recompute_ns as f64)
        } else {
            "-".to_string()
        };
        t.row(vec![
            c.algorithm.name().to_string(),
            c.family.name().to_string(),
            c.n.to_string(),
            format!("{}", c.rate),
            c.deltas.to_string(),
            format!("{:.4}", c.woken_ratio.mean),
            format!("{:.2}", c.awake_per_delta.mean),
            format!("{:.1}", c.repair_rounds.mean),
            c.retries.to_string(),
            wall_ratio,
            if c.all_correct { "yes".into() } else { "NO".to_string() },
        ]);
    }
    print!("{}", t.render());

    if profile {
        for runner in &spec.algorithms {
            if let Some(report) = runner.trace().and_then(|h| h.report()) {
                println!("\n[profile] {}\n{}", runner.key(), report.trim_end());
            }
        }
    }

    let serve = (serve_n > 0)
        .then(|| serve_probe(serve_n, &serve_algo, serve_batches, serve_ops, 1));

    let meta = ChurnMeta { threads: threads_used, wall_ms: wall.as_millis(), serve };
    std::fs::write(&out_path, result.to_json(&meta)).expect("write churn JSON");
    let bad = result.points.iter().filter(|p| !p.correct).count();
    println!(
        "\nwrote {out_path}: {} points, {} cells, {} incorrect, {:.1}s wall",
        result.points.len(),
        result.cells.len(),
        bad,
        wall.as_secs_f64()
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
