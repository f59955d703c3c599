//! The one-shot workloads: a serial grid of the default algorithm axis at
//! n = 10⁵ (`run_grid`), and the `large`-tier Luby point at n = 10⁶
//! (`run_point` on two shards).

use crate::profile::{self, PhaseProfile};
use crate::stats::{median, mix, ms, tail};
use crate::{machine, Args, Outcome};
use analysis::grid::{run_grid, run_point, GridJob, GridPoint, GridSpec};
use analysis::spec::default_registry;
use analysis::AlgoResult;
use awake_mis_core::check_mis_survivors;
use graphgen::{Graph, GraphFamily};
use sleeping_congest::ScratchArena;
use std::time::Instant;

/// How a workload runs its jobs in one timed op.
pub enum Op {
    /// One serial `run_grid` call over every job; the set-up warms up
    /// with the same grid at `warm_n` nodes.
    Grid { warm_n: usize },
    /// `run_point` per job on one scratch arena kept across ops; the
    /// set-up's untimed first point touches the arena first.
    Point,
}

pub struct GridCfg {
    pub name: &'static str,
    /// Registry specs of the algorithm axis.
    pub algos: &'static [&'static str],
    pub n: usize,
    /// Distinct instances, seeded from the workload seed. Op `i` runs
    /// every algorithm on instance `i mod seeds`, so later ops repeat
    /// earlier ones exactly.
    pub seeds: u64,
    pub op: Op,
    /// Timed ops a run makes even when `--seconds` has run out.
    pub min_ops: usize,
}

pub const GRID: GridCfg = GridCfg {
    name: "grid-er-100k",
    algos: &["awake", "luby", "na", "gp-avg"],
    n: 100_000,
    seeds: 8,
    op: Op::Grid { warm_n: 10_000 },
    min_ops: 8,
};

pub const LUBY: GridCfg = GridCfg {
    name: "luby-er-1m",
    algos: &["luby?shards=2"],
    n: 1_000_000,
    seeds: 2,
    op: Op::Point,
    min_ops: 3,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The algorithm axis as metric suffixes (`core.awake_max.<key>`).
const KEYS: [(&str, &str); 4] = [
    ("awake", "core.awake_max.awake"),
    ("luby", "core.awake_max.luby"),
    ("na", "core.awake_max.na"),
    ("gp-avg", "core.awake_max.gp-avg"),
];
const POINT_MS: [&str; 4] = [
    "analysis.grid.point_ms.awake",
    "analysis.grid.point_ms.luby",
    "analysis.grid.point_ms.na",
    "analysis.grid.point_ms.gp-avg",
];

/// One grid spec per instance: every algorithm at that instance's seed.
fn specs(cfg: &GridCfg, seed: u64) -> Vec<GridSpec> {
    let registry = default_registry();
    let algorithms: Vec<_> = cfg
        .algos
        .iter()
        .map(|a| {
            registry
                .resolve(a)
                .expect("benchmark algorithms are builtins")
        })
        .collect();
    (0..cfg.seeds)
        .map(|i| GridSpec {
            algorithms: algorithms.clone(),
            families: vec![GraphFamily::Er],
            sizes: vec![cfg.n],
            seeds: vec![mix(seed, i)],
            tiers: Vec::new(),
            threads: 1,
        })
        .collect()
}

/// Everything about a point that must repeat exactly.
fn signature(key: &str, nodes: usize, r: (u64, u64, u64, u64, usize, bool)) -> String {
    let (awake_max, rounds, active_rounds, messages, mis, correct) = r;
    format!(
        "{key} n={nodes} awake_max={awake_max} rounds={rounds} active_rounds={active_rounds} \
         messages={messages} mis={mis} correct={correct}"
    )
}

fn point_signature(p: &GridPoint) -> String {
    let r = (
        p.awake_max,
        p.rounds,
        p.active_rounds,
        p.messages,
        p.mis_size,
        p.correct,
    );
    signature(p.job.algorithm.key(), p.nodes, r)
}

fn result_signature(key: &str, nodes: usize, r: &AlgoResult) -> String {
    let fields = (
        r.awake_max,
        r.rounds,
        r.metrics.active_rounds,
        r.messages,
        r.mis_size,
        r.correct,
    );
    signature(key, nodes, fields)
}

fn point_ok(p: &GridPoint) -> Result<(), String> {
    match (&p.sim_error, p.correct) {
        (Some(e), _) => Err(format!(
            "{} seed {}: {e}",
            p.job.algorithm.key(),
            p.job.seed
        )),
        (None, false) => Err(format!(
            "{} seed {}: MIS did not verify",
            p.job.algorithm.key(),
            p.job.seed
        )),
        (None, true) => Ok(()),
    }
}

/// Points of every instance, the first time each ran: the reference
/// that later runs of the instance must repeat exactly.
struct Reference(Vec<Vec<GridPoint>>);

impl Reference {
    fn new(cfg: &GridCfg) -> Reference {
        Reference(vec![Vec::new(); cfg.seeds as usize])
    }

    /// Checks an op's points, and that they repeat the instance's first
    /// points exactly.
    fn check(&mut self, out: &mut Outcome, instance: usize, points: &[GridPoint]) {
        for p in points {
            out.check("point", point_ok(p));
        }
        let first = &mut self.0[instance];
        if first.is_empty() {
            *first = points.to_vec();
            return;
        }
        for (p, f) in points.iter().zip(first.iter()) {
            out.check(
                "point repeat",
                same(&point_signature(f), &point_signature(p)),
            );
        }
    }

    fn points(&self) -> impl Iterator<Item = &GridPoint> {
        self.0.iter().flatten()
    }

    /// The deterministic counts a later run of this seed must repeat.
    fn record(&self) -> String {
        self.points()
            .map(point_signature)
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn mean(&self, f: impl Fn(&GridPoint) -> f64) -> f64 {
        let n = self.points().count().max(1);
        self.points().map(f).sum::<f64>() / n as f64
    }
}

/// Runs one timed op: every algorithm on one instance, in grid order.
fn run_op(cfg: &GridCfg, spec: &GridSpec, scratch: &mut ScratchArena) -> Vec<GridPoint> {
    match cfg.op {
        Op::Grid { .. } => run_grid(spec).points,
        Op::Point => spec.jobs().iter().map(|j| run_point(j, scratch)).collect(),
    }
}

/// The untimed set-up: spec resolution plus the warm-up op.
fn set_up(
    cfg: &GridCfg,
    seed: u64,
    out: &mut Outcome,
    reference: &mut Reference,
) -> (Vec<GridSpec>, ScratchArena) {
    let specs = specs(cfg, seed);
    let mut scratch = ScratchArena::new();
    match cfg.op {
        Op::Grid { warm_n } => {
            for p in &run_grid(&GridSpec {
                sizes: vec![warm_n],
                ..specs[0].clone()
            })
            .points
            {
                out.check("warm-up point", point_ok(p));
            }
        }
        Op::Point => {
            let points = run_op(cfg, &specs[0], &mut scratch);
            reference.check(out, 0, &points);
        }
    }
    (specs, scratch)
}

pub fn run(cfg: &GridCfg, args: &Args) -> Outcome {
    if args.trace {
        traced(cfg, args)
    } else {
        untraced(cfg, args)
    }
}

fn untraced(cfg: &GridCfg, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new(cfg);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // Free the previous set-up before building the next.
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up(cfg, args.seed, &mut out, &mut reference));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (specs, mut scratch) = ready.expect("SETUPS > 0");

    let mut walls = Vec::new();
    let mut verified = 0usize;
    let start = Instant::now();
    while walls.len() < cfg.min_ops || start.elapsed().as_secs_f64() < args.seconds {
        let instance = walls.len() % specs.len();
        let t = Instant::now();
        let points = run_op(cfg, &specs[instance], &mut scratch);
        walls.push(ms(t.elapsed()));
        verified += points.iter().filter(|p| point_ok(p).is_ok()).count();
        reference.check(&mut out, instance, &points);
    }
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let (tail_ms, tail_pct) = tail(&walls);
    let p50 = median(&walls);

    out.set("setup_s", median(&setups));
    out.set("ops_per_s", verified as f64 / total_s);
    out.set("op_ms_p50", p50);
    out.set("op_ms_tail", tail_ms);
    out.set("awake_max_mean", reference.mean(|p| p.awake_max as f64));
    out.set("awake_avg_mean", reference.mean(|p| p.awake_avg));

    let setups_s: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note(format!(
        "setup_s samples [{}] (spec resolution + warm-up op)",
        setups_s.join(", ")
    ));
    let walls_s: Vec<String> = walls.iter().map(|w| format!("{w:.0}")).collect();
    out.note(format!(
        "op walls [{}] ms over {} instances",
        walls_s.join(", "),
        specs.len()
    ));
    match cfg.op {
        Op::Grid { .. } => out.note(format!(
            "points_per_s {:.4} ({verified} verified points in {} run_grid calls over {total_s:.2} s)",
            verified as f64 / total_s,
            walls.len(),
        )),
        Op::Point => out.note(format!("point_s_p50 {:.4} s over {} points", p50 / 1e3, walls.len())),
    }
    out.note(format!(
        "op_ms_tail is p{tail_pct:.1} of {} ops",
        walls.len()
    ));
    for &(key, _) in &KEYS {
        let mine: Vec<u64> = reference
            .points()
            .filter(|p| p.job.algorithm.key() == key)
            .map(|p| p.awake_max)
            .collect();
        if !mine.is_empty() {
            out.note(format!("awake_max {key}: {mine:?}"));
        }
    }
    out.note(format!(
        "fail_frac {}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    record_outcome(
        &mut out,
        machine::check_record(cfg.name, args.seed, &reference.record()),
    );
    out
}

pub fn record_outcome(out: &mut Outcome, result: Result<String, String>) {
    match result {
        Ok(note) => {
            out.attempted += 1;
            out.note(format!("deterministic counts: {note}"));
        }
        Err(e) => out.check("deterministic counts", Err(e)),
    }
}

/// One job walked through each layer's public functions.
struct Walk {
    generate_ms: f64,
    clone_ms: f64,
    csr_mib: f64,
    run_ms: f64,
    verify_ms: f64,
    norm_ms: f64,
    profile: PhaseProfile,
}

/// Bytes of a CSR graph: offsets, targets and reverse ports.
pub fn csr_mib(g: &Graph) -> f64 {
    let bytes =
        (g.n() + 1) * std::mem::size_of::<usize>() + 2 * g.m() * 2 * std::mem::size_of::<u32>();
    bytes as f64 / (1024.0 * 1024.0)
}

fn walk(
    algo: &str,
    job: &GridJob,
    scratch: &mut ScratchArena,
    out: &mut Outcome,
) -> Option<(Walk, String)> {
    let sep = if algo.contains('?') { '&' } else { '?' };
    let traced = default_registry()
        .resolve(&format!("{algo}{sep}trace=profile"))
        .expect("trace=profile is an execution param of every builtin");
    let t = Instant::now();
    let g = job.family.generate(job.n, job.seed);
    let generate_ms = ms(t.elapsed());
    let t = Instant::now();
    let copy = std::hint::black_box(g.clone());
    let clone_ms = ms(t.elapsed());
    drop(copy);
    let t = Instant::now();
    let r = match traced.run_with_scratch(&g, job.seed, scratch) {
        Ok(r) => r,
        Err(e) => {
            out.check("traced point", Err(e.to_string()));
            return None;
        }
    };
    let run_ms = ms(t.elapsed());
    let t = Instant::now();
    let verdict = check_mis_survivors(&g, &r.states, &r.metrics.alive());
    let verify_ms = ms(t.elapsed());
    out.check("traced point verification", verdict);
    let t = Instant::now();
    std::hint::black_box(r.metrics.awake_distribution());
    let norm_ms = ms(t.elapsed());
    let report = traced.trace().and_then(|h| h.report()).unwrap_or_default();
    let profile = match profile::parse(&report) {
        Ok(p) => p,
        Err(e) => {
            out.check("phase profile", Err(e));
            return None;
        }
    };
    let sig = result_signature(traced.key(), g.n(), &r);
    let w = Walk {
        generate_ms,
        clone_ms,
        csr_mib: csr_mib(&g),
        run_ms,
        verify_ms,
        norm_ms,
        profile,
    };
    Some((w, sig))
}

fn traced(cfg: &GridCfg, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new(cfg);
    let (specs, mut scratch) = set_up(cfg, args.seed, &mut out, &mut reference);

    // (algorithm key, untraced point wall in ms) and (key, traced walk).
    let mut untraced_ms: Vec<(String, f64)> = Vec::new();
    let mut walks: Vec<(String, Walk)> = Vec::new();
    let start = Instant::now();
    let mut ops = 0;
    while ops < specs.len() || start.elapsed().as_secs_f64() < args.seconds {
        let instance = ops % specs.len();
        let points = run_op(cfg, &specs[instance], &mut scratch);
        reference.check(&mut out, instance, &points);
        // Walk on the scratch state the untraced op ran on: `run_grid`
        // starts every call from a fresh arena, `run_point` reuses one.
        let mut fresh = ScratchArena::new();
        let walk_scratch = match cfg.op {
            Op::Grid { .. } => &mut fresh,
            Op::Point => &mut scratch,
        };
        for ((algo, job), p) in cfg.algos.iter().zip(specs[instance].jobs()).zip(&points) {
            let key = p.job.algorithm.key().to_string();
            untraced_ms.push((key.clone(), p.elapsed_ns as f64 / 1e6));
            if let Some((w, sig)) = walk(algo, &job, walk_scratch, &mut out) {
                out.check(
                    "traced point matches untraced",
                    same(&point_signature(p), &sig),
                );
                walks.push((key, w));
            }
        }
        ops += 1;
    }

    let of =
        |f: &dyn Fn(&Walk) -> f64| median(&walks.iter().map(|(_, w)| f(w)).collect::<Vec<_>>());
    out.set("graphs.generators.generate_ms", of(&|w| w.generate_ms));
    out.set("graphs.graph.clone_ms", of(&|w| w.clone_ms));
    out.set("graphs.graph.csr_mib", of(&|w| w.csr_mib));
    for (k, name) in [
        "sim.engine.send_ms",
        "sim.engine.merge_ms",
        "sim.engine.receive_ms",
        "sim.engine.bookkeeping_ms",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, of(&|w| w.profile.phase_ms[k]));
    }
    out.set("sim.engine.round_us_p50", of(&|w| w.profile.round_us()));
    out.set("core.verify.verify_ms", of(&|w| w.verify_ms));
    out.set("analysis.runners.run_ms", of(&|w| w.run_ms));
    out.set(
        "analysis.runners.self_ms",
        of(&|w| w.run_ms - w.profile.phase_ms.iter().sum::<f64>() - w.verify_ms),
    );
    out.set("analysis.grid.self_ms", of(&|w| w.norm_ms));

    // Deterministic counts over one walk of every distinct job.
    let once: Vec<&PhaseProfile> = walks
        .iter()
        .take(cfg.algos.len() * specs.len())
        .map(|(_, w)| &w.profile)
        .collect();
    let sum = |f: &dyn Fn(&PhaseProfile) -> u64| once.iter().map(|p| f(p)).sum::<u64>() as f64;
    out.set("sim.engine.active_rounds", sum(&|p| p.active_rounds));
    out.set(
        "sim.engine.awake_node_rounds",
        sum(&|p| p.awake_node_rounds),
    );
    out.set(
        "sim.engine.messages",
        reference.points().map(|p| p.messages).sum::<u64>() as f64,
    );
    out.set(
        "sim.engine.wake_batch_p50",
        median(&once.iter().map(|p| p.wake_batch_p50).collect::<Vec<_>>()),
    );
    out.set(
        "sim.engine.arena_mib",
        once.iter().map(|p| p.arena_mib).fold(0.0, f64::max),
    );
    let delivered = sum(&|p| p.delivered);
    out.set(
        "sim.engine.delivered_ratio",
        delivered / (delivered + sum(&|p| p.lost)).max(1.0),
    );
    for (&(key, metric), point_ms) in KEYS.iter().zip(POINT_MS) {
        let mine: Vec<f64> = reference
            .points()
            .filter(|p| p.job.algorithm.key() == key)
            .map(|p| p.awake_max as f64)
            .collect();
        if mine.is_empty() {
            continue;
        }
        out.set(metric, mine.iter().sum::<f64>() / mine.len() as f64);
        let walls: Vec<f64> = untraced_ms
            .iter()
            .filter(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .collect();
        out.set(point_ms, median(&walls));
    }
    let traced_op: Vec<f64> = walks
        .iter()
        .map(|(_, w)| w.generate_ms + w.run_ms + w.norm_ms)
        .collect();
    let untraced_op: Vec<f64> = untraced_ms.iter().map(|&(_, v)| v).collect();
    out.set(
        "trace.overhead",
        median(&traced_op) / median(&untraced_op) - 1.0,
    );
    out.note(format!(
        "{} traced points over {ops} ops, p50 {:.1} ms (untraced {:.1} ms); phase split is per point",
        walks.len(),
        median(&traced_op),
        median(&untraced_op)
    ));
    record_outcome(
        &mut out,
        machine::check_record(cfg.name, args.seed, &reference.record()),
    );
    out
}

pub fn same(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{got} differs from {expected}"))
    }
}
