//! `serve` — a long-running MIS service over a stream of topology
//! deltas: reads delta batches (generated workload by default, or a
//! line protocol on stdin), repairs the MIS incrementally after each
//! batch, emits the **MIS delta** (which nodes joined/left the MIS),
//! and reports sustained deltas/sec on exit.
//!
//! ```text
//! usage: serve [--algo luby] [--family er] [--n 1000000] [--seed 1] [--batches 6]
//!              [--ops 2000] [--insert-frac 0.5] [--node-churn 0] [--stdin] [--quiet]
//!              [--stats-every 5]
//! ```
//!
//! Default mode generates `--batches` random delta batches of `--ops`
//! operations each against the bootstrapped instance (this is the
//! n=10⁶ throughput configuration).
//!
//! With `--stdin`, batches come from a line protocol instead:
//!
//! ```text
//! +e U V      queue an edge insert
//! -e U V      queue an edge delete
//! +n K        queue K node additions (ids are assigned n, n+1, …)
//! -n V        queue a node removal
//! .           apply the queued batch (aliases: "flush", empty line)
//! stats       print a `# stats` service-statistics line immediately
//! quit        apply nothing further and exit
//! ```
//!
//! After each applied batch the service prints the MIS delta as `+m V`
//! / `-m V` lines on stdout (suppressed by `--quiet`), then a `# batch`
//! summary line: effective deltas, woken nodes, frontier size, repair
//! rounds, whether greedy had to complete the frontier after every
//! solver attempt failed (`fallback yes`), and the verification
//! verdict. Diagnostics are prefixed `#` so a consumer can stream the
//! `+m`/`-m` lines alone.
//!
//! Each batch is verified locally, at the nodes it can have affected.
//! At exit the service audits its whole MIS against the whole active
//! graph and prints `# audit: ok` or the violation. Exit status is
//! nonzero if any batch failed to verify or the audit failed.
//!
//! Every `--stats-every` applied batches (default 5, `0` disables) —
//! and on the `stats` stdin command — the service prints one
//! statistics line:
//!
//! ```text
//! # stats: batches=B deltas=D deltas/s=R repair_ms p50=… p95=… max=… \
//! #        frontier mean=… max=… woken_ratio=… verify_ms/epoch=…
//! ```
//!
//! `deltas/s` is the sustained rate since serving started, the
//! `repair_ms` percentiles are exact over per-batch repair wall-clock,
//! `frontier` summarizes damage-frontier sizes, `woken_ratio` is woken
//! nodes over the active nodes a full recompute would have woken, and
//! `verify_ms/epoch` is the mean wall-clock of the repair's local check
//! of its candidate nodes.
//!
//! `--help` prints the usage, and a bad command line exits 2 before
//! anything is served (see [`bench::cli`]). A stdin line that is not
//! UTF-8, is malformed or names an unknown op ends the session with
//! exit 2.

use analysis::churn::{random_batch, EpochReport, MisService};
use analysis::spec::default_registry;
use bench::cli::{self, Args};
use graphgen::{DeltaBatch, GraphFamily};
use sleeping_congest::ScratchArena;
use std::io::BufRead;
use std::time::Instant;

const USAGE: &str = "usage: serve [--algo luby] [--family er] [--n 1000000] [--seed 1] [--batches 6]
             [--ops 2000] [--insert-frac 0.5] [--node-churn 0] [--stdin] [--quiet]
             [--stats-every 5]";

/// Exact nearest-rank percentile over a sorted sample.
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Running service statistics, updated per applied batch and rendered
/// as the `# stats` line.
struct ServeStats {
    started: Instant,
    batches: u64,
    deltas: u64,
    woken: u64,
    /// Sum over epochs of the active node count — the denominator of
    /// the woken ratio (what a full recompute would have woken).
    active_sum: u64,
    repair_ns: Vec<u64>,
    frontier: Vec<u64>,
    verify_ns: u64,
}

impl ServeStats {
    fn new() -> ServeStats {
        ServeStats {
            started: Instant::now(),
            batches: 0,
            deltas: 0,
            woken: 0,
            active_sum: 0,
            repair_ns: Vec::new(),
            frontier: Vec::new(),
            verify_ns: 0,
        }
    }

    fn record(&mut self, rep: &EpochReport, active: u64) {
        self.batches += 1;
        self.deltas += rep.deltas;
        self.woken += rep.woken;
        self.active_sum += active;
        self.repair_ns.push(rep.repair_ns);
        self.frontier.push(rep.frontier);
        self.verify_ns += rep.verify_ns;
    }

    fn line(&self) -> String {
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let mut sorted = self.repair_ns.clone();
        sorted.sort_unstable();
        let frontier_mean =
            self.frontier.iter().sum::<u64>() as f64 / self.frontier.len().max(1) as f64;
        let frontier_max = self.frontier.iter().copied().max().unwrap_or(0);
        format!(
            "# stats: batches={} deltas={} deltas/s={:.0} repair_ms p50={:.3} p95={:.3} \
             max={:.3} frontier mean={:.1} max={} woken_ratio={:.4} verify_ms/epoch={:.3}",
            self.batches,
            self.deltas,
            self.deltas as f64 / secs,
            pct(&sorted, 0.50) as f64 / 1e6,
            pct(&sorted, 0.95) as f64 / 1e6,
            sorted.last().copied().unwrap_or(0) as f64 / 1e6,
            frontier_mean,
            frontier_max,
            self.woken as f64 / self.active_sum.max(1) as f64,
            self.verify_ns as f64 / self.batches.max(1) as f64 / 1e6,
        )
    }
}

/// Applies one batch, prints the MIS delta and `# batch` summary, and
/// folds the epoch into `stats`. Returns `false` when the batch was
/// rejected or the repaired MIS failed verification.
fn apply_batch(
    batch: &DeltaBatch,
    service: &mut MisService,
    scratch: &mut ScratchArena,
    stats: &mut ServeStats,
    quiet: bool,
    stats_every: u64,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    match service.apply(batch, scratch) {
        Ok(rep) => {
            if !quiet {
                for v in &rep.joined {
                    println!("+m {v}");
                }
                for v in &rep.left {
                    println!("-m {v}");
                }
            }
            println!(
                "# batch {}: {} deltas, {} woken, frontier {}, {} repair rounds, fallback {}, \
                 mis {} → {}",
                rep.epoch,
                rep.deltas,
                rep.woken,
                rep.frontier,
                rep.repair_rounds,
                if rep.fallback { "yes" } else { "no" },
                if rep.correct { "ok" } else { "FAILED" },
                service.mis_size(),
            );
            let ok = rep.correct;
            if !ok {
                if let Some(e) = &rep.error {
                    println!("# error: {e}");
                }
            }
            stats.record(&rep, service.graph().active_count() as u64);
            if stats_every > 0 && stats.batches.is_multiple_of(stats_every) {
                println!("{}", stats.line());
            }
            ok
        }
        Err(e) => {
            println!("# rejected batch: {e}");
            false
        }
    }
}

fn main() {
    let registry = default_registry();
    let mut algo = String::from("luby");
    let mut family = GraphFamily::Er;
    let mut n = 1_000_000usize;
    let mut seed = 1u64;
    let mut batches = 6u64;
    let mut ops = 2000usize;
    let mut insert_frac = 0.5f64;
    let mut node_churn = 0.0f64;
    let mut stdin_mode = false;
    let mut quiet = false;
    let mut stats_every = 5u64;

    let mut args = Args::new(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--algo" => algo = args.value(),
            "--family" => {
                let v = args.value();
                family = GraphFamily::parse(&v)
                    .unwrap_or_else(|| args.fail(format!("unknown family {v:?}")));
            }
            "--n" => n = args.parse(),
            "--seed" => seed = args.parse(),
            "--batches" => batches = args.parse(),
            "--ops" => ops = args.parse(),
            "--insert-frac" => insert_frac = args.fraction(),
            "--node-churn" => node_churn = args.fraction(),
            "--stdin" => stdin_mode = true,
            "--quiet" => quiet = true,
            "--stats-every" => stats_every = args.parse(),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }

    let runner =
        registry.resolve(&algo).unwrap_or_else(|e| cli::fail(USAGE, format!("--algo: {e}")));
    cli::check_sizes(USAGE, "--n", &[family], &[n]);
    let g = family.generate(n, seed);
    let mut scratch = ScratchArena::new();
    println!("# bootstrapping {} on {} n={}…", runner.key(), family.key(), g.n());
    let t0 = Instant::now();
    let (mut service, r) =
        MisService::bootstrap(runner, g, seed, &mut scratch).expect("bootstrap");
    if !r.correct {
        eprintln!("serve: bootstrap did not produce a valid MIS");
        std::process::exit(1);
    }
    println!(
        "# ready: mis={} awake_max={} in {:.2}s; serving…",
        r.mis_size,
        r.awake_max,
        t0.elapsed().as_secs_f64()
    );

    let mut stats = ServeStats::new();
    let mut failed = false;

    if stdin_mode {
        let stdin = std::io::stdin();
        let mut batch = DeltaBatch::new();
        for line in stdin.lock().lines() {
            let line = line.unwrap_or_else(|e| {
                eprintln!("serve: stdin: {e}");
                std::process::exit(2);
            });
            let mut parts = line.split_whitespace();
            let op = parts.next().unwrap_or("");
            let arg = |p: &mut std::str::SplitWhitespace| -> u32 {
                p.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("serve: malformed line {line:?}");
                    std::process::exit(2);
                })
            };
            match op {
                "+e" => {
                    let (u, v) = (arg(&mut parts), arg(&mut parts));
                    batch.insert_edge(u, v);
                }
                "-e" => {
                    let (u, v) = (arg(&mut parts), arg(&mut parts));
                    batch.delete_edge(u, v);
                }
                "+n" => {
                    batch.add_nodes(arg(&mut parts) as usize);
                }
                "-n" => {
                    batch.remove_node(arg(&mut parts));
                }
                "" | "." | "flush" => {
                    failed |= !apply_batch(
                        &batch,
                        &mut service,
                        &mut scratch,
                        &mut stats,
                        quiet,
                        stats_every,
                    );
                    batch = DeltaBatch::new();
                }
                "stats" => println!("{}", stats.line()),
                "quit" => break,
                other => {
                    eprintln!("serve: unknown op {other:?} in line {line:?}");
                    std::process::exit(2);
                }
            }
        }
        // An unflushed trailing batch still counts.
        failed |=
            !apply_batch(&batch, &mut service, &mut scratch, &mut stats, quiet, stats_every);
    } else {
        for b in 0..batches {
            let batch = random_batch(
                service.graph(),
                ops,
                insert_frac,
                node_churn,
                seed.wrapping_add(b + 1),
            );
            failed |= !apply_batch(
                &batch,
                &mut service,
                &mut scratch,
                &mut stats,
                quiet,
                stats_every,
            );
        }
    }

    let wall = stats.started.elapsed();
    let dps = stats.deltas as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "# sustained: {} deltas in {} batches over {:.2}s → {:.0} deltas/sec \
         (n={}, active={}, mis={})",
        stats.deltas,
        stats.batches,
        wall.as_secs_f64(),
        dps,
        service.graph().n(),
        service.graph().active_count(),
        service.mis_size(),
    );
    match service.audit() {
        Ok(()) => println!("# audit: ok"),
        Err(e) => {
            println!("# audit: FAILED: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
