//! End-to-end tests: run both LDT construction strategies through the
//! SLEEPING-CONGEST simulator on a zoo of graphs and validate the
//! resulting forests, awake complexities, and determinism.

use graphgen::{generators, Graph};
use ldt::construct::{Construct, ConstructParams, LdtOutput, LdtStrategy};
use ldt::ops::{LdtBroadcast, LdtRanking};
use ldt::verify::verify_fldt;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleeping_congest::{Metrics, SimConfig, Simulator, Standalone};

/// Distinct random IDs in `[1, upper]`.
fn draw_ids(n: usize, upper: u64, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..=upper);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

fn id_upper(n: usize) -> u64 {
    let n = n.max(2) as u64;
    (n * n * n).max(1 << 24)
}

fn run(g: &Graph, seed: u64, strategy: LdtStrategy) -> (Vec<LdtOutput>, Metrics) {
    let n = g.n();
    let ids = draw_ids(n, id_upper(n), seed ^ 0xABCD);
    let nodes = (0..n)
        .map(|v| {
            let params = ConstructParams { my_id: ids[v], id_upper: id_upper(n), k: n.max(1) as u32 };
            Standalone::new(Construct::new(params, strategy))
        })
        .collect();
    let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().expect("run");
    (report.outputs, report.metrics)
}

fn zoo(seed: u64) -> Vec<(String, Graph)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graphs: Vec<(String, Graph)> = vec![
        ("single".into(), Graph::empty(1)),
        ("pair".into(), generators::path(2)),
        ("path16".into(), generators::path(16)),
        ("cycle9".into(), generators::cycle(9)),
        ("star12".into(), generators::star(12)),
        ("clique8".into(), generators::complete(8)),
        ("grid4x5".into(), generators::grid(4, 5)),
        ("btree15".into(), generators::binary_tree(15)),
        (
            "forest".into(),
            generators::disjoint_union(&[
                generators::path(5),
                generators::cycle(4),
                Graph::empty(3),
                generators::complete(4),
            ]),
        ),
    ];
    graphs.push(("tree30".into(), generators::random_tree(30, &mut rng)));
    graphs.push(("gnp40".into(), generators::gnp(40, 0.12, &mut rng)));
    graphs.push(("gnp25-dense".into(), generators::gnp(25, 0.4, &mut rng)));
    graphs
}

#[test]
fn awake_strategy_builds_valid_forests() {
    for (name, g) in zoo(11) {
        for seed in [1u64, 2, 3] {
            let (outs, _) = run(&g, seed, LdtStrategy::Awake);
            let all = vec![true; g.n()];
            verify_fldt(&g, &outs, &all)
                .unwrap_or_else(|e| panic!("awake strategy on {name} (seed {seed}): {e}"));
        }
    }
}

#[test]
fn round_strategy_builds_valid_forests() {
    for (name, g) in zoo(17) {
        for seed in [4u64, 5] {
            let (outs, _) = run(&g, seed, LdtStrategy::Round);
            let all = vec![true; g.n()];
            verify_fldt(&g, &outs, &all)
                .unwrap_or_else(|e| panic!("round strategy on {name} (seed {seed}): {e}"));
        }
    }
}

#[test]
fn awake_complexity_is_logarithmic() {
    // The awake strategy must stay within O(log n) awake rounds; test a
    // generous explicit constant across sizes (shape check: the measured
    // kind of growth is what matters, and it must hold on every topology).
    for n in [8usize, 32, 128] {
        let g = generators::cycle(n);
        let (_, m) = run(&g, 7, LdtStrategy::Awake);
        let log2n = (n as f64).log2();
        let bound = 16.0 * (log2n + 2.0);
        assert!(
            (m.awake_complexity() as f64) < bound,
            "n = {n}: awake {} exceeds {bound}",
            m.awake_complexity()
        );
    }
}

#[test]
fn round_budget_honored() {
    for (name, g) in zoo(23) {
        let n = g.n().max(1) as u32;
        for strategy in [LdtStrategy::Awake, LdtStrategy::Round] {
            let (_, m) = run(&g, 9, strategy);
            let budget = strategy.round_budget(n, id_upper(g.n()));
            assert!(
                m.round_complexity() <= budget,
                "{name}: {strategy:?} strategy used {} rounds, budget {budget}",
                m.round_complexity(),
            );
        }
    }
}

#[test]
fn construction_is_deterministic() {
    let g = generators::gnp(30, 0.15, &mut SmallRng::seed_from_u64(5));
    let (a, ma) = run(&g, 42, LdtStrategy::Awake);
    let (b, mb) = run(&g, 42, LdtStrategy::Awake);
    assert_eq!(a, b);
    assert_eq!(ma.awake_rounds, mb.awake_rounds);
    let (c, _) = run(&g, 43, LdtStrategy::Awake);
    // Different seed: overwhelmingly likely to differ somewhere (coins).
    assert!(a != c || a.iter().all(|o| o.tree.children_ports.is_empty()));
}

#[test]
fn ranking_after_construction_is_a_permutation() {
    for (name, g) in zoo(31) {
        let (outs, _) = run(&g, 13, LdtStrategy::Awake);
        let n = g.n();
        let k = n.max(1) as u32;
        let nodes = (0..n)
            .map(|v| Standalone::new(LdtRanking::new(k, outs[v].tree.clone())))
            .collect();
        let report =
            Simulator::new(g.clone(), nodes, SimConfig::seeded(99)).run().expect("ranking run");
        // Group ranks by tree (root id); each tree's ranks must be a
        // permutation of 1..=size and totals must equal the tree size.
        let mut by_tree: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for v in 0..n {
            let r = &report.outputs[v];
            by_tree.entry(outs[v].tree.root_id).or_default().push(r.rank);
            assert_eq!(
                r.total,
                outs.iter().filter(|o| o.tree.root_id == outs[v].tree.root_id).count() as u64,
                "{name}: node {v} learned wrong tree size"
            );
        }
        for (root, mut ranks) in by_tree {
            ranks.sort_unstable();
            let want: Vec<u64> = (1..=ranks.len() as u64).collect();
            assert_eq!(ranks, want, "{name}: tree {root} ranks not a permutation");
        }
        // Ranking costs O(1) awake rounds: at most the start round plus
        // up-receive, up-send, down-receive, down-send.
        assert!(
            report.metrics.awake_complexity() <= 5,
            "{name}: ranking awake complexity {}",
            report.metrics.awake_complexity()
        );
    }
}

#[test]
fn broadcast_reaches_every_node_in_constant_awake() {
    let g = generators::path(40);
    let (outs, _) = run(&g, 21, LdtStrategy::Awake);
    let n = g.n();
    let payload = 0xDEAD_BEEFu64;
    let nodes = (0..n)
        .map(|v| {
            let t = outs[v].tree.clone();
            let p = t.is_root().then_some(payload);
            Standalone::new(LdtBroadcast::new(t, p))
        })
        .collect();
    let report = Simulator::new(g, nodes, SimConfig::seeded(1)).run().expect("broadcast run");
    assert!(report.outputs.iter().all(|&v| v == payload));
    assert!(report.metrics.awake_complexity() <= 3);
}

#[test]
fn round_strategy_is_deterministic_across_seeds() {
    // The round strategy uses no randomness: different simulator seeds
    // must yield identical trees (for identical IDs).
    let g = generators::gnp(24, 0.2, &mut SmallRng::seed_from_u64(77));
    let ids = draw_ids(24, id_upper(24), 123);
    let run = |seed: u64| {
        let nodes = (0..24)
            .map(|v| {
                let params = ConstructParams { my_id: ids[v], id_upper: id_upper(24), k: 24 };
                Standalone::new(Construct::new(params, LdtStrategy::Round))
            })
            .collect();
        Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap().outputs
    };
    assert_eq!(run(1), run(999));
}

#[test]
fn phases_used_grows_slowly() {
    // Doubling n adds O(1) phases for the round strategy (deterministic
    // halving) — check monotone-ish small values.
    for (n, max_phases) in [(4usize, 4u64), (16, 6), (64, 8)] {
        let g = generators::path(n);
        let (outs, _) = run(&g, 3, LdtStrategy::Round);
        let used = outs.iter().map(|o| o.phases_used).max().unwrap();
        assert!(used <= max_phases, "n = {n}: {used} phases > {max_phases}");
    }
}
