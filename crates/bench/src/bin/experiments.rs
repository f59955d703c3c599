//! Regenerates every quantitative claim of
//! *"Distributed MIS in O(log log n) Awake Complexity"* (PODC 2023) as a
//! table or series. Each experiment's header names the lemma, theorem or
//! section of arXiv:2204.08359 it checks.
//!
//! ```text
//! usage: experiments [ID]...  (no ID runs them all)
//! IDs: E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E17
//! ```
//!
//! IDs are case-insensitive. An argument that names no experiment
//! prints usage and exits 2.

use analysis::fit::{compare_growth_laws, growth_exponent};
use analysis::grid::{run_grid, GridSpec};
use analysis::shattering::{residual_profile, shatter_once};
use analysis::spec::{default_registry, RunnerHandle};
use analysis::sweep::{run_sweep, SweepSpec};
use analysis::{EnergyModel, Summary, Table};
use awake_mis_core::state::id_space;
use awake_mis_core::{AwakeMis, AwakeMisConfig};
use bench::cli::{self, Args};
use graphgen::{generators, GraphFamily, NodeId};
use ldt::construct::{ConstructAwake, ConstructParams};
use ldt::construct_round::ConstructRound;
use ldt::ops::{LdtBroadcast, LdtRanking};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sleeping_congest::batch::run_batch;
use sleeping_congest::{SimConfig, Simulator, Standalone};
use std::process::ExitCode;

const SEEDS: [u64; 3] = [11, 22, 33];

const USAGE: &str = "usage: experiments [ID]...  (no ID runs them all)
IDs: E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E17";

fn main() -> ExitCode {
    let args: Vec<String> = Args::new(USAGE).collect();
    let known = |a: &str| (1..=17).any(|k| a.eq_ignore_ascii_case(&format!("e{k}")));
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        cli::fail(USAGE, format!("no experiment named {bad:?}"));
    }
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("awake-mis experiment harness — reproduction of PODC 2023 \"Distributed MIS in O(log log n) Awake Complexity\"");
    println!("(absolute numbers are simulator-specific; the *shapes* — growth laws, orderings, crossovers — are the claims)\n");

    // E1/E2 share their sweep; run together when either is requested.
    let mut sweep: Vec<SweepRow> = Vec::new();
    if want("e1") || want("e2") {
        sweep = run_e1_e2_sweep();
    }
    if want("e1") {
        e1(&sweep);
    }
    if want("e2") {
        e2(&sweep);
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    if want("e13") {
        e13();
    }
    if want("e14") {
        e14();
    }
    if want("e15") {
        e15();
    }
    if want("e16") {
        e16();
    }
    if want("e17") {
        e17();
    }
    ExitCode::SUCCESS
}

fn header(id: &str, claim: &str) {
    println!("==================================================================");
    println!("{id} — {claim}");
    println!("==================================================================");
}

struct SweepRow {
    family: GraphFamily,
    n: usize,
    alg: RunnerHandle,
    awake_max: Summary,
    awake_avg: Summary,
    rounds: Summary,
    correct: bool,
}

/// E1/E2 sweep on `analysis::sweep` (the hand-rolled grid loops this
/// binary used to carry are gone): one `SweepSpec` per family set,
/// batched over all hardware threads with per-worker scratch reuse.
fn run_e1_e2_sweep() -> Vec<SweepRow> {
    let sweep_over = |families: Vec<GraphFamily>, sizes: Vec<usize>, seeds: Vec<u64>| {
        run_sweep(&SweepSpec {
            specs: vec!["awake".to_string(), "luby".to_string()],
            families,
            sizes,
            seeds,
            threads: 0,
            energy: EnergyModel::default(),
        })
        .expect("builtin specs sweep")
    };
    let main = sweep_over(
        vec![GraphFamily::Er, GraphFamily::Rgg, GraphFamily::Ba],
        vec![256, 1024, 4096, 16384, 65536],
        vec![11, 22, 33, 44, 55],
    );
    // The dense family where Luby's Θ(log n) bites at laptop scale.
    let dense = sweep_over(vec![GraphFamily::Dense], vec![1024, 4096, 16384], SEEDS.to_vec());
    main.cells
        .iter()
        .chain(dense.cells.iter())
        .flat_map(|c| {
            c.entries.iter().map(|e| SweepRow {
                family: c.family,
                n: c.n,
                alg: e.stats.algorithm.clone(),
                awake_max: e.stats.awake_max,
                awake_avg: e.stats.awake_avg,
                rounds: e.stats.rounds,
                correct: e.stats.all_correct,
            })
        })
        .collect()
}

/// E1 — Theorem 13: awake complexity is O(log log n).
fn e1(sweep: &[SweepRow]) {
    header(
        "E1 (Theorem 13)",
        "Awake-MIS has O(log log n) awake complexity; Luby-style baselines grow with log n",
    );
    let mut t = Table::new(vec![
        "family", "n", "algorithm", "awake max (mean±std)", "awake avg", "log2 log2 n", "ok",
    ]);
    for p in sweep {
        t.row(vec![
            p.family.name().to_string(),
            p.n.to_string(),
            p.alg.name().to_string(),
            format!("{:.1} ± {:.1}", p.awake_max.mean, p.awake_max.std),
            format!("{:.1}", p.awake_avg.mean),
            format!("{:.2}", (p.n as f64).log2().log2()),
            if p.correct { "yes".into() } else { "NO".to_string() },
        ]);
    }
    print!("{}", t.render());

    // Growth-law classification on the ER family, on both the paper's
    // worst-case measure and the node average.
    for (metric, get) in [
        // The worst-case awake is dominated by the luckiest/unluckiest
        // shattered component: use the median over seeds for the fit.
        ("max(med)", Box::new(|p: &SweepRow| p.awake_max.median) as Box<dyn Fn(&SweepRow) -> f64>),
        ("avg", Box::new(|p: &SweepRow| p.awake_avg.mean)),
    ] {
        for alg in default_registry().resolve_list("awake,luby").expect("builtin specs") {
            let pts: Vec<(f64, f64)> = sweep
                .iter()
                .filter(|p| p.family == GraphFamily::Er && p.alg == alg)
                .map(|p| (p.n as f64, get(p)))
                .collect();
            let ns: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let (ll, l) = compare_growth_laws(&ns, &ys);
            let verdict = if ll.a.abs() < 0.5 && l.a.abs() < 0.5 {
                "≈ flat at this scale"
            } else if ll.r2 >= l.r2 {
                "better explained by log log n"
            } else {
                "better explained by log n"
            };
            println!(
                "ER awake-{metric} growth, {:<16}: a·loglog₂n+b → a={:+.2} R²={:.3} | a·log₂n+b → a={:+.2} R²={:.3} → {verdict}",
                alg.name(),
                ll.a,
                ll.r2,
                l.a,
                l.r2,
            );
        }
    }
    println!();
}

/// E2 — Theorem 13: round complexity is polylogarithmic.
fn e2(sweep: &[SweepRow]) {
    header(
        "E2 (Theorem 13)",
        "Awake-MIS round complexity is polylog(n) — enormous vs awake, but n^o(1)",
    );
    let mut t = Table::new(vec!["family", "n", "rounds (mean)", "rounds/log2(n)^4", "awake max"]);
    for p in sweep.iter().filter(|p| p.alg.key() == "awake") {
        let l = (p.n as f64).log2();
        t.row(vec![
            p.family.name().to_string(),
            p.n.to_string(),
            format!("{:.3e}", p.rounds.mean),
            format!("{:.0}", p.rounds.mean / l.powi(4)),
            format!("{:.0}", p.awake_max.mean),
        ]);
    }
    print!("{}", t.render());
    let pts: Vec<(f64, f64)> = sweep
        .iter()
        .filter(|p| p.family == GraphFamily::Er && p.alg.key() == "awake")
        .map(|p| ((p.n as f64).log2(), p.rounds.mean))
        .collect();
    let e = growth_exponent(
        &pts.iter().map(|p| p.0).collect::<Vec<_>>(),
        &pts.iter().map(|p| p.1).collect::<Vec<_>>(),
    );
    println!("ER rounds ≈ c·(log₂ n)^e with e = {e:.2} (paper bound: e ≤ 7 — measured well inside)");
    let ns: Vec<f64> = pts.iter().map(|p| 2f64.powf(p.0)).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
    println!("rounds vs n exponent: {:.3} (≈ 0 ⇒ n^o(1), i.e. polylog)", growth_exponent(&ns, &ys));
    println!();
}

/// E3 — Corollary 14 variant. Rides the registry + grid harness: the
/// round-efficient variant is just the spec `awake?round_efficient=true`.
fn e3() {
    header(
        "E3 (Corollary 14)",
        "Round-efficient variant: awake complexity gains a log* factor (higher than Theorem 13's)",
    );
    let grid = run_grid(&GridSpec {
        algorithms: default_registry()
            .resolve_list("awake,awake?round_efficient=true")
            .expect("builtin specs"),
        families: vec![GraphFamily::Er],
        sizes: vec![1024, 4096, 16384],
        seeds: SEEDS.to_vec(),
        tiers: Vec::new(),
        threads: 0,
    });
    let mut t = Table::new(vec![
        "n",
        "T13 awake",
        "C14 awake",
        "T13 rounds",
        "C14 rounds",
        "ok",
    ]);
    // Cells are algorithm-major: first all Theorem-13 sizes, then all
    // Corollary-14 sizes.
    let per_alg = grid.spec.sizes.len();
    for (i, &n) in grid.spec.sizes.iter().enumerate() {
        let t13 = &grid.cells[i];
        let c14 = &grid.cells[per_alg + i];
        t.row(vec![
            n.to_string(),
            format!("{:.0}", t13.awake_max.mean),
            format!("{:.0}", c14.awake_max.mean),
            format!("{:.2e}", t13.rounds.mean),
            format!("{:.2e}", c14.rounds.mean),
            if t13.all_correct && c14.all_correct { "yes".into() } else { "NO".to_string() },
        ]);
    }
    print!("{}", t.render());
    println!("note: with our randomized LDT-Construct-Awake substitute (ldt::construct), the Theorem 13");
    println!("pipeline is already round-cheap, so Corollary 14's round advantage does not materialize here;");
    println!("its awake cost is correctly higher (the deterministic construction pays the log* factor).\n");
}

/// E4 — Lemma 2: residual sparsity of randomized greedy. Rides the
/// harness axes: instances come from the named [`GraphFamily`] generators
/// (the `Dense` family is ER at average degree √n = 64 for n = 4096 —
/// the old hand-rolled fixture — and `Er` is the d = 8 workhorse), the
/// seed axis fans out via `sleeping_congest::batch::run_batch` exactly
/// like a grid, and cells aggregate with [`Summary`]. There is no MIS
/// *runner* here — the measured object is a structural lemma, not an
/// algorithm — so the registry axis is empty and the experiment rides
/// the family × seed plane of the harness instead of `RunnerHandle`s.
fn e4() {
    header(
        "E4 (Lemma 2)",
        "After t of t'=2t nodes, residual max degree ≤ (t'/t)·ln(n/ε) — measured vs bound, seed-aggregated",
    );
    let n = 4096;
    let ts: Vec<usize> = (5..=11).map(|e| 1 << e).collect();
    let families = [GraphFamily::Dense, GraphFamily::Er];
    // One job per {family × seed}, batched like grid points; each job
    // returns the whole residual profile of its instance.
    let jobs: Vec<(GraphFamily, u64)> =
        families.iter().flat_map(|&f| SEEDS.iter().map(move |&s| (f, s))).collect();
    let profiles = run_batch(&jobs, 0, |_| (), |(), _i, &(family, seed)| {
        let g = family.generate(n, seed);
        let mut order: Vec<NodeId> = (0..g.n() as NodeId).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5eed));
        let ratio2 = residual_profile(&g, &order, &ts, 2.0);
        let horizon: Vec<usize> = ts
            .iter()
            .map(|&tt| awake_mis_core::greedy::residual_degree(&g, &order, tt, g.n()).1)
            .collect();
        (ratio2, horizon)
    });

    let per_family = SEEDS.len();
    let mut t = Table::new(vec!["family", "t", "t'", "residual max deg (mean±std)", "Lemma 2 bound"]);
    for (f_idx, family) in families.iter().enumerate() {
        let chunk = &profiles[f_idx * per_family..(f_idx + 1) * per_family];
        for (row, _) in chunk[0].0.iter().enumerate() {
            let degs: Vec<u64> = chunk.iter().map(|(r2, _)| r2[row].max_degree as u64).collect();
            let s = Summary::of_u64(&degs);
            let p = &chunk[0].0[row];
            t.row(vec![
                family.name().to_string(),
                p.t.to_string(),
                p.t_prime.to_string(),
                format!("{:.1} ± {:.1}", s.mean, s.std),
                format!("{:.1}", p.bound),
            ]);
        }
    }
    print!("{}", t.render());
    println!("(fixed ratio t'/t = 2: both measured degree and bound stay flat, measured ≪ bound)\n");

    // Fixed horizon t' = n on the dense family: the 1/t decay becomes
    // visible.
    let mut t2 =
        Table::new(vec!["family", "t (prefix)", "t' = n", "residual max deg (mean±std)", "Lemma 2 bound"]);
    let dense = &profiles[..per_family];
    for (row, &tt) in ts.iter().enumerate() {
        let degs: Vec<u64> = dense.iter().map(|(_, h)| h[row] as u64).collect();
        let s = Summary::of_u64(&degs);
        t2.row(vec![
            GraphFamily::Dense.name().to_string(),
            tt.to_string(),
            n.to_string(),
            format!("{:.1} ± {:.1}", s.mean, s.std),
            format!("{:.1}", (n as f64 / tt as f64) * ((n * n) as f64).ln()),
        ]);
    }
    print!("{}", t2.render());
    println!("(fixed horizon t' = n: measured degree decays ~1/t, tracking the bound's shape)\n");
}

/// E5 — Lemma 3: shattering under random 1/(2Δ) partition. Like E4 it
/// rides the harness plane — `GraphFamily`-generated instances, a
/// `{factor × sample}` job grid fanned via
/// `sleeping_congest::batch::run_batch`, [`Summary`] aggregation per
/// cell — with an empty algorithm axis (the lemma partitions a graph,
/// it doesn't run a protocol).
fn e5() {
    header(
        "E5 (Lemma 3)",
        "Random partition into 2Δ classes shatters bounded-degree graphs into ≤ 6·ln(n/ε) components",
    );
    let n = 4096;
    // A GraphFamily instance with moderate degree: ER(d=8) at seed 4.
    let g = GraphFamily::Er.generate(n, 4);
    let delta = g.max_degree();
    let factors = [0.5f64, 1.0, 2.0, 4.0];
    const SAMPLES: u64 = 5;
    let jobs: Vec<(f64, u64)> =
        factors.iter().flat_map(|&f| (0..SAMPLES).map(move |s| (f, s))).collect();
    let samples = run_batch(&jobs, 0, |_| (), |(), _i, &(factor, sample)| {
        let parts = ((delta as f64 * factor) as usize).max(1);
        let mut rng = SmallRng::seed_from_u64(0xA5 ^ (sample.wrapping_mul(0x9E37_79B9)) ^ (factor.to_bits()));
        shatter_once(&g, parts, &mut rng)
    });

    let mut t = Table::new(vec![
        "parts", "parts/Δ", "max component (mean±std)", "worst sample", "Lemma 3 bound",
    ]);
    for (f_idx, factor) in factors.iter().enumerate() {
        let chunk = &samples[f_idx * SAMPLES as usize..(f_idx + 1) * SAMPLES as usize];
        let comps: Vec<u64> = chunk.iter().map(|p| p.max_component as u64).collect();
        let s = Summary::of_u64(&comps);
        t.row(vec![
            chunk[0].parts.to_string(),
            format!("{factor:.1}"),
            format!("{:.1} ± {:.1}", s.mean, s.std),
            format!("{:.0}", s.max),
            format!("{:.0}", chunk[0].bound),
        ]);
    }
    print!("{}", t.render());
    println!("(Δ = {delta}; at 2Δ parts components are tiny; below Δ the components blow up — the 2Δ threshold matters)\n");
}

/// E6 — Lemma 10: VT-MIS awake O(log I) vs naive Θ(I). Rides the
/// registry + grid harness: one `GridSpec` over the `Cycle` family axis
/// (the instances and seeds are identical to the old per-size loop).
fn e6() {
    header(
        "E6 (Lemma 10)",
        "VT-MIS: O(log I) awake / Θ(I) rounds — exponentially less awake than the naive greedy",
    );
    let mut t = Table::new(vec![
        "n = I",
        "VT-MIS awake",
        "⌈log2 I⌉+1",
        "naive awake",
        "VT-MIS rounds",
        "lfmis?",
    ]);
    let grid = run_grid(&GridSpec {
        algorithms: default_registry().resolve_list("vt,naive").expect("builtin specs"),
        families: vec![GraphFamily::Cycle],
        sizes: vec![64, 256, 1024, 4096],
        seeds: vec![7],
        tiers: Vec::new(),
        threads: 0,
    });
    // Points are algorithm-major: all VT-MIS sizes, then all naive sizes.
    let per_alg = grid.spec.sizes.len();
    for (i, &n) in grid.spec.sizes.iter().enumerate() {
        let vt = &grid.points[i];
        let nv = &grid.points[per_alg + i];
        t.row(vec![
            n.to_string(),
            vt.awake_max.to_string(),
            (vtree::depth(n as u64) + 1).to_string(),
            nv.awake_max.to_string(),
            vt.rounds.to_string(),
            (vt.correct && nv.correct).to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E7 — Lemma 11: LDT-MIS awake complexity decomposition. Rides the
/// registry + grid harness on the `Cycle` family axis.
fn e7() {
    header(
        "E7 (Lemma 11)",
        "LDT-MIS awake = O(log n' + n'·log n'/log I): the broadcast term dominates on big components",
    );
    let mut t = Table::new(vec![
        "n' (one component)",
        "awake max",
        "c1·log n' term",
        "c2·n'·log n'/log I term",
        "ok",
    ]);
    let grid = run_grid(&GridSpec {
        algorithms: default_registry().resolve_list("ldt").expect("builtin specs"),
        families: vec![GraphFamily::Cycle],
        sizes: vec![16, 64, 256, 1024],
        seeds: vec![9],
        tiers: Vec::new(),
        threads: 0,
    });
    for (p, &n) in grid.points.iter().zip(&grid.spec.sizes) {
        let log2n = (n as f64).log2();
        let log2i = 3.0 * (n as f64).log2();
        t.row(vec![
            n.to_string(),
            p.awake_max.to_string(),
            format!("{:.0}", 11.0 * log2n),
            format!("{:.0}", 2.0 * (n as f64) * log2n / log2i),
            p.correct.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(inside Awake-MIS components have n' = O(log n), so both terms are O(log log n))\n");
}

/// E8 — Lemmas 6/7/15: LDT construction complexities. Rides the batch
/// harness like E4: the raw construction protocols compute a labeling,
/// not an MIS, so there is no registry runner for them — instead the
/// `{n × graph × strategy × seed}` jobs fan out via
/// `sleeping_congest::batch::run_batch` and each cell aggregates with
/// [`Summary`], replacing the old hand-rolled serial triple loop.
fn e8() {
    header(
        "E8 (Lemmas 6/7/15)",
        "LDT construction: awake strategy O(log n') awake; round strategy O(log n'·log* I) awake, deterministic",
    );
    let sizes = [64usize, 256, 1024];
    let cells: Vec<(usize, &str, &str)> = sizes
        .iter()
        .flat_map(|&n| {
            ["path", "cycle"]
                .into_iter()
                .flat_map(move |gname| [("awake"), ("round")].map(move |strat| (n, gname, strat)))
        })
        .collect();
    let jobs: Vec<(usize, &str, &str, u64)> = cells
        .iter()
        .flat_map(|&(n, gname, strat)| SEEDS.iter().map(move |&s| (n, gname, strat, s)))
        .collect();
    let results = run_batch(&jobs, 0, |_| (), |(), _i, &(n, gname, strat, seed)| {
        let g = if gname == "path" { generators::path(n) } else { generators::cycle(n) };
        // The seed drives both the id draw and the run randomness, so
        // each job is reproducible from its coordinates alone — the
        // same contract as a grid point.
        let ids = {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut seen = std::collections::HashSet::new();
            let mut ids = Vec::new();
            while ids.len() < n {
                let id = rng.gen_range(1..=id_space(n));
                if seen.insert(id) {
                    ids.push(id);
                }
            }
            ids
        };
        let params =
            |v: usize| ConstructParams { my_id: ids[v], id_upper: id_space(n), k: n as u32 };
        if strat == "awake" {
            let nodes = (0..n).map(|v| Standalone::new(ConstructAwake::new(params(v)))).collect();
            let rep = Simulator::new(g, nodes, SimConfig::seeded(seed ^ 1)).run().unwrap();
            let ph = rep.outputs.iter().map(|o| o.phases_used).max().unwrap() as u64;
            (rep.metrics.awake_complexity(), ph, rep.metrics.round_complexity())
        } else {
            let nodes = (0..n).map(|v| Standalone::new(ConstructRound::new(params(v)))).collect();
            let rep = Simulator::new(g, nodes, SimConfig::seeded(seed ^ 1)).run().unwrap();
            let ph = rep.outputs.iter().map(|o| o.phases_used).max().unwrap() as u64;
            (rep.metrics.awake_complexity(), ph, rep.metrics.round_complexity())
        }
    });

    let mut t = Table::new(vec![
        "graph", "n", "strategy", "awake max (mean±std)", "phases used", "rounds (mean)",
    ]);
    let runs = SEEDS.len();
    for (c_idx, &(n, gname, strat)) in cells.iter().enumerate() {
        let chunk = &results[c_idx * runs..(c_idx + 1) * runs];
        let awake = Summary::of_u64(&chunk.iter().map(|r| r.0).collect::<Vec<_>>());
        let phases = Summary::of_u64(&chunk.iter().map(|r| r.1).collect::<Vec<_>>());
        let rounds = Summary::of_u64(&chunk.iter().map(|r| r.2).collect::<Vec<_>>());
        t.row(vec![
            gname.to_string(),
            n.to_string(),
            strat.to_string(),
            format!("{:.1} ± {:.1}", awake.mean, awake.std),
            format!("{:.1}", phases.mean),
            format!("{:.0}", rounds.mean),
        ]);
    }
    print!("{}", t.render());
    println!("(round strategy: no run randomness — seed variance comes only from the drawn id sets)\n");
}

/// E9 — Observations 4/5: communication-set sizes. Rides the batch
/// harness: one job per interval length `i`, fanned across all hardware
/// threads via `run_batch` (the million-key scans dominate), with the
/// per-key set sizes aggregated by [`Summary`] instead of ad-hoc
/// max/mean arithmetic.
fn e9() {
    header(
        "E9 (Observations 4/5)",
        "Communication sets: |S_k([1,i])| ≤ ⌈log2 i⌉+1; common-round property (property-tested exhaustively)",
    );
    let is = [10u64, 100, 1000, 10_000, 100_000, 1_000_000];
    let summaries = run_batch(&is, 0, |_| (), |(), _j, &i| {
        let ks: Vec<u64> = if i <= 10_000 {
            (1..=i).collect()
        } else {
            let mut rng = SmallRng::seed_from_u64(8);
            (0..10_000).map(|_| rng.gen_range(1..=i)).collect()
        };
        let sizes: Vec<u64> = ks.iter().map(|&k| vtree::wake_rounds(k, i).len() as u64).collect();
        Summary::of_u64(&sizes)
    });
    let mut t = Table::new(vec!["i", "max_k |S_k ∩ [1,i]|", "⌈log2 i⌉+1", "avg |S_k|"]);
    for (&i, s) in is.iter().zip(&summaries) {
        t.row(vec![
            i.to_string(),
            format!("{:.0}", s.max),
            (vtree::depth(i) + 1).to_string(),
            format!("{:.2}", s.mean),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E10 — the headline comparison table. Rides the registry + grid
/// harness: one `GridSpec` over every registered builtin (including the
/// node-averaged `na`/`gp-avg` entrants), all hardware threads, instead
/// of a hand-rolled double loop of serial runs.
fn e10() {
    header(
        "E10 (headline, §1.4)",
        "All algorithms on a fixed suite (n = 2048): Awake-MIS wins worst-case awake; NA-MIS wins the node average",
    );
    let grid = run_grid(&GridSpec {
        algorithms: default_registry()
            .resolve_list("awake,awake-round,ldt,vt,naive,luby,na,gp-avg")
            .expect("builtin specs"),
        families: vec![
            GraphFamily::Er,
            GraphFamily::Rgg,
            GraphFamily::Ba,
            GraphFamily::Grid,
            GraphFamily::Tree,
        ],
        sizes: vec![2048],
        seeds: vec![42],
        tiers: Vec::new(),
        threads: 0,
    });
    let mut t = Table::new(vec![
        "family", "algorithm", "awake max", "awake avg", "rounds", "messages", "MIS size", "ok",
    ]);
    // Present family-major (paper layout); points are algorithm-major.
    let n_fam = grid.spec.families.len();
    for (f_idx, family) in grid.spec.families.iter().enumerate() {
        for (a_idx, alg) in grid.spec.algorithms.iter().enumerate() {
            let p = &grid.points[a_idx * n_fam + f_idx];
            t.row(vec![
                family.name().to_string(),
                alg.name().to_string(),
                p.awake_max.to_string(),
                format!("{:.1}", p.awake_avg),
                p.rounds.to_string(),
                p.messages.to_string(),
                p.mis_size.to_string(),
                p.correct.to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!();
}

/// E11 — ablation: virtual-tree comm schedule vs always-awake comm.
/// Rides `analysis::sweep`: the ablation is just the spec point
/// `awake?always_awake_comm=true` next to the default `awake`, one cell
/// per size.
fn e11() {
    header(
        "E11 (ablation)",
        "Without the virtual-tree schedule, nodes attend all P = O(log² n) communication rounds",
    );
    let mut t = Table::new(vec![
        "n", "awake (vtree)", "awake (always)", "factor", "P (phases)",
    ]);
    let sweep = run_sweep(&SweepSpec {
        specs: vec!["awake".to_string(), "awake?always_awake_comm=true".to_string()],
        families: vec![GraphFamily::Er],
        sizes: vec![1024, 4096, 16384],
        seeds: vec![3],
        threads: 0,
        energy: EnergyModel::default(),
    })
    .expect("builtin specs sweep");
    for cell in &sweep.cells {
        let (base, abl) = (&cell.entries[0].stats, &cell.entries[1].stats);
        assert_eq!(abl.algorithm.key(), "awake?always_awake_comm=true");
        let params = awake_mis_core::derive_params(cell.n, &AwakeMisConfig::default());
        t.row(vec![
            cell.n.to_string(),
            format!("{:.0}", base.awake_max.mean),
            format!("{:.0}", abl.awake_max.mean),
            format!("{:.1}x", abl.awake_max.mean / base.awake_max.mean),
            params.phases.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E12 — ablation: geometric vs uniform batch distribution. Rides
/// `sleeping_congest::batch::run_batch` like E4/E8: the
/// `{n × batching}` cells fan their seed axis across OS threads, each
/// job returning its component-size census, and the cell folds the
/// per-seed tuples back down — the same table as the old hand-rolled
/// serial triple loop, minus the serialism.
fn e12() {
    header(
        "E12 (ablation)",
        "Geometric collections keep shattered components small; uniform collections inflate early components",
    );
    let mut t = Table::new(vec![
        "n", "batching", "max component", "mean component", "failures", "awake max",
    ]);
    let cells: Vec<(usize, bool)> =
        [4096usize, 16384].iter().flat_map(|&n| [false, true].map(|u| (n, u))).collect();
    let jobs: Vec<(usize, bool, u64)> = cells
        .iter()
        .flat_map(|&(n, uniform)| SEEDS.iter().map(move |&s| (n, uniform, s)))
        .collect();
    // Per seed: (max component, Σ component sizes, component count,
    // failures, awake complexity).
    let runs = run_batch(&jobs, 0, |_| (), |(), _i, &(n, uniform, seed)| {
        let g = GraphFamily::Er.generate(n, seed);
        let cfg = AwakeMisConfig { uniform_batches: uniform, ..Default::default() };
        let nodes = (0..n).map(|_| AwakeMis::new(cfg)).collect();
        let rep = Simulator::new(g, nodes, SimConfig::seeded(seed)).run().unwrap();
        let (mut worst, mut sum, mut cnt, mut fails) = (0u64, 0f64, 0usize, 0usize);
        for o in &rep.outputs {
            if o.comp_size > 0 {
                worst = worst.max(o.comp_size);
                sum += o.comp_size as f64;
                cnt += 1;
            }
            fails += o.failed as usize;
        }
        (worst, sum, cnt, fails, rep.metrics.awake_complexity())
    });
    for (ci, &(n, uniform)) in cells.iter().enumerate() {
        let chunk = &runs[ci * SEEDS.len()..(ci + 1) * SEEDS.len()];
        let worst = chunk.iter().map(|r| r.0).max().unwrap_or(0);
        let sum: f64 = chunk.iter().map(|r| r.1).sum();
        let cnt: usize = chunk.iter().map(|r| r.2).sum();
        let fails: usize = chunk.iter().map(|r| r.3).sum();
        let awake = chunk.iter().map(|r| r.4).max().unwrap_or(0);
        t.row(vec![
            n.to_string(),
            if uniform { "uniform".into() } else { "geometric".to_string() },
            worst.to_string(),
            format!("{:.2}", sum / cnt.max(1) as f64),
            fails.to_string(),
            awake.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E13 — CONGEST compliance: message sizes. Rides the registry + grid
/// harness (one cell per builtin at a single `{family, n, seed}`).
fn e13() {
    header(
        "E13 (CONGEST, §1.3)",
        "Every message fits in O(log n) bits (IDs live in [1, N³])",
    );
    let n = 4096;
    let grid = run_grid(&GridSpec {
        algorithms: default_registry()
            .resolve_list("awake,awake-round,ldt,vt,naive,luby,na,gp-avg")
            .expect("builtin specs"),
        families: vec![GraphFamily::Er],
        sizes: vec![n],
        seeds: vec![5],
        tiers: Vec::new(),
        threads: 0,
    });
    let mut t = Table::new(vec!["algorithm", "max message bits", "2-id budget"]);
    // Messages carry at most two IDs from [1, max(N^3, 2^24)] plus tags.
    let id_bits = (3 * ((n as f64).log2().ceil() as usize)).max(24);
    let budget = 2 * id_bits + 16;
    for cell in &grid.cells {
        t.row(vec![
            cell.algorithm.name().to_string(),
            cell.max_message_bits.to_string(),
            budget.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E14 — energy motivation (§1.2). Harness-driven like E4/E8/E12: the
/// seed axis fans across OS threads via
/// `sleeping_congest::batch::run_batch` (each seed draws its own sensor
/// deployment) and per-algorithm cells aggregate with [`Summary`]
/// instead of quoting a single-seed run.
fn e14() {
    header(
        "E14 (motivation, §1.2)",
        "Sensor-network energy: awake rounds cost 60 mW, deep sleep 5 µW — awake complexity is the energy bill",
    );
    let n = 4096usize;
    let algs = default_registry().resolve_list("awake,luby").expect("builtin specs");
    let model = EnergyModel::default();
    let jobs: Vec<(usize, u64)> = (0..algs.len())
        .flat_map(|a| SEEDS.iter().map(move |&s| (a, s)))
        .collect();
    // Per run: (awake max, radio-on mJ for the worst node, mJ including
    // the deep-sleep draw, latency in rounds).
    let runs = run_batch(&jobs, 0, |_| (), |(), _i, &(a, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let r_geo = (10.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let g = generators::random_geometric(n, r_geo, &mut rng);
        let r = algs[a].run(&g, seed).unwrap();
        (
            r.awake_max,
            model.awake_energy_mj(r.awake_max),
            model.max_node_energy_mj(&r.metrics.awake_rounds, &r.metrics.terminated_at),
            r.rounds,
        )
    });
    let mut t = Table::new(vec![
        "algorithm",
        "awake max (mean±std)",
        "radio-on energy, worst node (mJ)",
        "incl. 5 µW sleep draw (mJ)",
        "latency (rounds, mean)",
    ]);
    for (a, alg) in algs.iter().enumerate() {
        let chunk = &runs[a * SEEDS.len()..(a + 1) * SEEDS.len()];
        let awake = Summary::of_u64(&chunk.iter().map(|r| r.0).collect::<Vec<_>>());
        let radio = Summary::of(&chunk.iter().map(|r| r.1).collect::<Vec<_>>());
        let sleep = Summary::of(&chunk.iter().map(|r| r.2).collect::<Vec<_>>());
        let rounds = Summary::of_u64(&chunk.iter().map(|r| r.3).collect::<Vec<_>>());
        t.row(vec![
            alg.name().to_string(),
            format!("{:.1} ± {:.1}", awake.mean, awake.std),
            format!("{:.3} ± {:.3}", radio.mean, radio.std),
            format!("{:.3} ± {:.3}", sleep.mean, sleep.std),
            format!("{:.0}", rounds.mean),
        ]);
    }
    print!("{}", t.render());
    println!("(the paper's metric is the radio-on column — awake rounds ≈ energy; the sleep-draw");
    println!("column shows why round complexity still matters when deep sleep isn't free)\n");
}

/// E15 — Lemma 9/16: LDT broadcast & ranking in O(1) awake. Each
/// `{n' × op}` cell fans its seed axis (fresh IDs + fresh LDT build per
/// seed) across OS threads via `sleeping_congest::batch::run_batch`
/// and aggregates with [`Summary`] — the O(1) claim should hold with
/// zero variance.
fn e15() {
    header(
        "E15 (Lemma 9/16)",
        "Over a built LDT, broadcast and ranking cost O(1) awake rounds and O(n') rounds",
    );
    let cells: Vec<(usize, &'static str)> = [64usize, 512, 4096]
        .iter()
        .flat_map(|&n| ["broadcast", "ranking"].map(|op| (n, op)))
        .collect();
    let jobs: Vec<(usize, &'static str, u64)> = cells
        .iter()
        .flat_map(|&(n, op)| SEEDS.iter().map(move |&s| (n, op, s)))
        .collect();
    // Per seed: (awake complexity, round complexity) of the op over an
    // LDT freshly constructed from that seed's ID assignment.
    let runs = run_batch(&jobs, 0, |_| (), |(), _i, &(n, op, seed)| {
        let g = generators::cycle(n);
        let id_upper = id_space(n);
        let ids: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut seen = std::collections::HashSet::new();
            let mut ids = Vec::new();
            while ids.len() < n {
                let id = rng.gen_range(1..=id_upper);
                if seen.insert(id) {
                    ids.push(id);
                }
            }
            ids
        };
        let nodes = (0..n)
            .map(|v| {
                Standalone::new(ConstructAwake::new(ConstructParams {
                    my_id: ids[v],
                    id_upper,
                    k: n as u32,
                }))
            })
            .collect();
        let built = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
        if op == "broadcast" {
            let nodes = (0..n)
                .map(|v| {
                    let tr = built.outputs[v].tree.clone();
                    let payload = tr.is_root().then_some(7u64);
                    Standalone::new(LdtBroadcast::new(tr, payload))
                })
                .collect();
            let rep = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
            (rep.metrics.awake_complexity(), rep.metrics.round_complexity())
        } else {
            let nodes = (0..n)
                .map(|v| {
                    Standalone::new(LdtRanking::new(n as u32, built.outputs[v].tree.clone()))
                })
                .collect();
            let rep = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
            (rep.metrics.awake_complexity(), rep.metrics.round_complexity())
        }
    });
    let mut t = Table::new(vec!["n'", "op", "awake max (mean±std)", "rounds (mean±std)"]);
    for (ci, &(n, op)) in cells.iter().enumerate() {
        let chunk = &runs[ci * SEEDS.len()..(ci + 1) * SEEDS.len()];
        let awake = Summary::of_u64(&chunk.iter().map(|r| r.0).collect::<Vec<_>>());
        let rounds = Summary::of_u64(&chunk.iter().map(|r| r.1).collect::<Vec<_>>());
        t.row(vec![
            n.to_string(),
            op.to_string(),
            format!("{:.1} ± {:.1}", awake.mean, awake.std),
            format!("{:.1} ± {:.1}", rounds.mean, rounds.std),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E16 — extension (paper conclusion): maximal matching in the sleeping
/// model via Awake-MIS on the line graph. Seeds fan across OS threads
/// via `sleeping_congest::batch::run_batch` (each seed draws its own ER
/// instance) and the per-`n` cells aggregate with [`Summary`]; a cell
/// is maximal only if every seed's matching verified.
fn e16() {
    header(
        "E16 (extension, §7)",
        "Maximal matching = MIS(L(G)): O(log log m) awake per edge process",
    );
    let sizes = [256usize, 1024, 4096];
    let jobs: Vec<(usize, u64)> =
        sizes.iter().flat_map(|&n| SEEDS.iter().map(move |&s| (n, s))).collect();
    // Per seed: (|L(G)| processes, awake max, awake avg, matched edges,
    // verified maximal).
    let runs = run_batch(&jobs, 0, |_| (), |(), _i, &(n, seed)| {
        let g = GraphFamily::Er.generate(n, seed);
        let r = awake_mis_core::maximal_matching(&g, AwakeMisConfig::default(), seed).unwrap();
        (
            g.m() as u64,
            r.metrics.awake_complexity(),
            r.metrics.awake_average(),
            r.matching.len() as u64,
            r.failures == 0 && awake_mis_core::is_maximal_matching(&g, &r.matching),
        )
    });
    let mut t = Table::new(vec![
        "n", "m = |L(G)| processes", "awake max (mean±std)", "awake avg", "matched edges",
        "maximal?",
    ]);
    for (ci, &n) in sizes.iter().enumerate() {
        let chunk = &runs[ci * SEEDS.len()..(ci + 1) * SEEDS.len()];
        let m = Summary::of_u64(&chunk.iter().map(|r| r.0).collect::<Vec<_>>());
        let awake = Summary::of_u64(&chunk.iter().map(|r| r.1).collect::<Vec<_>>());
        let avg = Summary::of(&chunk.iter().map(|r| r.2).collect::<Vec<_>>());
        let matched = Summary::of_u64(&chunk.iter().map(|r| r.3).collect::<Vec<_>>());
        t.row(vec![
            n.to_string(),
            format!("{:.0}", m.mean),
            format!("{:.1} ± {:.1}", awake.mean, awake.std),
            format!("{:.1}", avg.mean),
            format!("{:.0}", matched.mean),
            chunk.iter().all(|r| r.4).to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}

/// E17 — extension (paper conclusion): (Δ+1)-coloring via Linial's
/// product. Seeds fan across OS threads via
/// `sleeping_congest::batch::run_batch` and the per-`n` cells aggregate
/// with [`Summary`]; a cell is proper only if every seed's coloring
/// verified against its own palette.
fn e17() {
    header(
        "E17 (extension, §7)",
        "(Δ+1)-coloring = MIS(G □ K_{Δ+1}): O(log log nΔ) awake per palette process",
    );
    let sizes = [128usize, 512, 2048];
    let jobs: Vec<(usize, u64)> =
        sizes.iter().flat_map(|&n| SEEDS.iter().map(move |&s| (n, s))).collect();
    // Per seed: (Δ+1, product size, awake max, colors used, verified
    // proper). The palette is seed-dependent — Δ is a property of the
    // drawn instance.
    let runs = run_batch(&jobs, 0, |_| (), |(), _i, &(n, seed)| {
        let g = GraphFamily::Er.generate(n, seed);
        let palette = g.max_degree() + 1;
        let r = awake_mis_core::coloring(&g, palette, AwakeMisConfig::default(), seed).unwrap();
        (
            palette as u64,
            (n * palette) as u64,
            r.metrics.awake_complexity(),
            awake_mis_core::colors_used(&r.colors) as u64,
            r.failures == 0 && awake_mis_core::is_proper_coloring(&g, &r.colors, palette),
        )
    });
    let mut t = Table::new(vec![
        "n", "Δ+1 (mean)", "product size (mean)", "awake max (mean±std)", "colors used",
        "proper?",
    ]);
    for (ci, &n) in sizes.iter().enumerate() {
        let chunk = &runs[ci * SEEDS.len()..(ci + 1) * SEEDS.len()];
        let palette = Summary::of_u64(&chunk.iter().map(|r| r.0).collect::<Vec<_>>());
        let product = Summary::of_u64(&chunk.iter().map(|r| r.1).collect::<Vec<_>>());
        let awake = Summary::of_u64(&chunk.iter().map(|r| r.2).collect::<Vec<_>>());
        let used = Summary::of_u64(&chunk.iter().map(|r| r.3).collect::<Vec<_>>());
        t.row(vec![
            n.to_string(),
            format!("{:.0}", palette.mean),
            format!("{:.0}", product.mean),
            format!("{:.1} ± {:.1}", awake.mean, awake.std),
            format!("{:.0}", used.mean),
            chunk.iter().all(|r| r.4).to_string(),
        ]);
    }
    print!("{}", t.render());
    println!();
}
