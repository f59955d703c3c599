//! End-to-end tests for `Awake-MIS` (Theorem 13 and Corollary 14).

use awake_mis_core::{check_mis, derive_params, AwakeMis, AwakeMisConfig, Luby, MisState};
use graphgen::{generators, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sleeping_congest::{Metrics, Round, SimConfig, Simulator};

fn run(g: &Graph, cfg: AwakeMisConfig, seed: u64) -> (Vec<awake_mis_core::AwakeMisOutput>, Metrics) {
    let nodes = (0..g.n()).map(|_| AwakeMis::new(cfg)).collect();
    let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().expect("run");
    (report.outputs, report.metrics)
}

fn assert_valid(name: &str, g: &Graph, outs: &[awake_mis_core::AwakeMisOutput]) {
    let failed = outs.iter().filter(|o| o.failed).count();
    assert_eq!(failed, 0, "{name}: {failed} Monte Carlo failures");
    let states: Vec<MisState> = outs.iter().map(|o| o.state).collect();
    check_mis(g, &states).unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn theorem13_valid_mis_on_graph_zoo() {
    let mut rng = SmallRng::seed_from_u64(100);
    let graphs: Vec<(String, Graph)> = vec![
        ("path64".into(), generators::path(64)),
        ("cycle63".into(), generators::cycle(63)),
        ("star64".into(), generators::star(64)),
        ("clique32".into(), generators::complete(32)),
        ("grid8x8".into(), generators::grid(8, 8)),
        ("tree100".into(), generators::random_tree(100, &mut rng)),
        ("gnp100".into(), generators::gnp(100, 0.08, &mut rng)),
        ("gnp64-dense".into(), generators::gnp(64, 0.3, &mut rng)),
        ("rgg100".into(), generators::random_geometric(100, 0.18, &mut rng)),
        ("ba100".into(), generators::barabasi_albert(100, 3, &mut rng)),
        (
            "forest".into(),
            generators::disjoint_union(&[
                generators::path(20),
                generators::complete(10),
                Graph::empty(5),
            ]),
        ),
        ("empty32".into(), Graph::empty(32)),
    ];
    for (name, g) in graphs {
        let (outs, _) = run(&g, AwakeMisConfig::default(), 1);
        assert_valid(&name, &g, &outs);
    }
}

#[test]
fn theorem13_many_seeds_no_failures() {
    // Monte Carlo robustness: many independent runs must all verify.
    let mut rng = SmallRng::seed_from_u64(200);
    let g = generators::gnp(128, 0.06, &mut rng);
    for seed in 0..10u64 {
        let (outs, _) = run(&g, AwakeMisConfig::default(), seed);
        assert_valid(&format!("seed {seed}"), &g, &outs);
    }
}

#[test]
fn corollary14_valid_mis() {
    let mut rng = SmallRng::seed_from_u64(300);
    let graphs: Vec<(String, Graph)> = vec![
        ("gnp80".into(), generators::gnp(80, 0.1, &mut rng)),
        ("grid7x7".into(), generators::grid(7, 7)),
        ("clique20".into(), generators::complete(20)),
    ];
    for (name, g) in graphs {
        let (outs, _) = run(&g, AwakeMisConfig::round_efficient(), 2);
        assert_valid(&name, &g, &outs);
    }
}

#[test]
fn awake_complexity_beats_round_complexity_exponentially() {
    // The defining property of the sleeping model result: awake
    // complexity is tiny while round complexity is enormous.
    let mut rng = SmallRng::seed_from_u64(400);
    let g = generators::gnp(256, 0.04, &mut rng);
    let (outs, m) = run(&g, AwakeMisConfig::default(), 3);
    assert_valid("gnp256", &g, &outs);
    assert!(
        m.awake_complexity() * 1000 < m.round_complexity(),
        "awake {} vs rounds {}",
        m.awake_complexity(),
        m.round_complexity()
    );
    // And the engine never materialized the sleeping rounds.
    assert!(m.active_rounds < m.round_complexity() / 10);
}

#[test]
fn awake_complexity_growth_is_flat() {
    // Theorem 13 shape: awake complexity ~ c·log log n. Between n = 64
    // and n = 1024 (log log₂ going from 2.58 to 3.32), the measured
    // awake complexity must grow far slower than log n does (which
    // would be a 2.5x jump for Luby-style algorithms... here we check
    // the growth factor stays small).
    // Max awake complexity is heavy-tailed: a run where every shattered
    // component is a singleton skips the LDT-MIS pipeline entirely,
    // while any 2-node component pays the full construct/rank/permute
    // window, and the randomized fragment merging has a geometric tail.
    // Compare seed-averaged maxima so the shape check is about growth
    // with n, not about which size drew the unlucky component.
    let mut awakes = Vec::new();
    for n in [64usize, 256, 1024] {
        let mut total = 0u64;
        let mut runs = 0u64;
        for gseed in [500u64, 501, 502] {
            let mut rng = SmallRng::seed_from_u64(gseed);
            let g = generators::gnp_avg_degree(n, 8.0, &mut rng);
            for seed in 4..12u64 {
                let (outs, m) = run(&g, AwakeMisConfig::default(), seed);
                assert_valid(&format!("n={n}"), &g, &outs);
                total += m.awake_complexity();
                runs += 1;
            }
        }
        awakes.push(total as f64 / runs as f64);
    }
    // 16x more nodes: awake complexity grows by < 75%.
    assert!(
        awakes[2] <= awakes[0] * 1.75,
        "awake grew too fast: {awakes:?} (not O(log log n)-shaped)"
    );
}

/// The wake-history oracle. Outside its own phase's LDT-MIS window a
/// node wakes exactly in round 0, where every node sets up, and in the
/// communication round `(p − 1)·r_phase` of each phase `p` of its
/// virtual-tree schedule `vtree::wake_rounds(g, P)` (every phase under
/// `always_awake_comm`), up to its termination round. It wakes inside
/// that window only when it ran LDT-MIS there.
#[test]
fn each_node_wakes_in_its_schedule_outside_its_window() {
    let mut rng = SmallRng::seed_from_u64(1000);
    let graphs = [
        ("gnp96", generators::gnp(96, 0.06, &mut rng)),
        ("tree96", generators::random_tree(96, &mut rng)),
    ];
    let configs = [
        ("default", AwakeMisConfig::default()),
        ("always_awake_comm", AwakeMisConfig { always_awake_comm: true, ..Default::default() }),
        ("round_efficient", AwakeMisConfig::round_efficient()),
    ];
    for (gname, g) in &graphs {
        for (cname, cfg) in configs {
            let params = derive_params(g.n(), &cfg);
            for seed in 0..4u64 {
                let name = format!("{gname} {cname} seed {seed}");
                let nodes = (0..g.n()).map(|_| AwakeMis::new(cfg)).collect();
                let sim = SimConfig { record_wake_history: true, ..SimConfig::seeded(seed) };
                let report = Simulator::new(g.clone(), nodes, sim).run().expect("run");
                assert_valid(&name, g, &report.outputs);
                let history = report.metrics.wake_history.as_ref().expect("history recorded");
                for (v, (out, rounds)) in report.outputs.iter().zip(history).enumerate() {
                    let (i, j) = out.batch;
                    let batch_g = (i - 1) * params.two_delta + j;
                    let end = report.metrics.terminated_at[v];
                    let phases = if cfg.always_awake_comm {
                        (1..=params.phases).collect()
                    } else {
                        vtree::wake_rounds(batch_g, params.phases)
                    };
                    let mut expected: Vec<Round> = std::iter::once(0)
                        .chain(phases.iter().map(|p| (p - 1) * params.r_phase))
                        .filter(|&r| r <= end)
                        .collect();
                    expected.dedup();
                    // Phase `batch_g`'s rounds after its communication round.
                    let window = (batch_g - 1) * params.r_phase + 1..batch_g * params.r_phase;
                    let in_window = |r: Round| window.contains(&r);
                    let outside: Vec<Round> =
                        rounds.iter().copied().filter(|&r| !in_window(r)).collect();
                    assert_eq!(outside, expected, "{name} node {v}");
                    assert_eq!(rounds.last(), Some(&end), "{name} node {v}");
                    let ran_window = rounds.iter().any(|&r| in_window(r));
                    assert_eq!(ran_window, out.comp_size > 0 || out.failed, "{name} node {v}");
                }
            }
        }
    }
}

#[test]
fn luby_baseline_grows_with_log_n() {
    // Sanity for the comparison: Luby's awake complexity visibly grows
    // with n (it equals its round complexity).
    let mut rng = SmallRng::seed_from_u64(600);
    let mut awakes = Vec::new();
    for n in [64usize, 4096] {
        let g = generators::gnp_avg_degree(n, 8.0, &mut rng);
        let mut total = 0u64;
        for seed in 0..5 {
            let nodes = (0..n).map(|_| Luby::new()).collect();
            let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
            let states: Vec<MisState> = report.outputs.clone();
            check_mis(&g, &states).unwrap();
            total += report.metrics.awake_complexity();
        }
        awakes.push(total as f64 / 5.0);
    }
    assert!(awakes[1] > awakes[0], "Luby mean awake should grow: {awakes:?}");
}

#[test]
fn ablation_always_awake_comm_costs_more() {
    let mut rng = SmallRng::seed_from_u64(700);
    let g = generators::gnp(128, 0.06, &mut rng);
    let (outs_a, m_base) = run(&g, AwakeMisConfig::default(), 6);
    assert_valid("base", &g, &outs_a);
    let cfg = AwakeMisConfig { always_awake_comm: true, ..Default::default() };
    let (outs_b, m_abl) = run(&g, cfg, 6);
    assert_valid("ablation", &g, &outs_b);
    // Without the virtual-tree schedule every node attends all P
    // communication rounds: awake complexity explodes.
    assert!(
        m_abl.awake_complexity() >= 4 * m_base.awake_complexity(),
        "ablation {} vs base {}",
        m_abl.awake_complexity(),
        m_base.awake_complexity()
    );
}

#[test]
fn outputs_are_deterministic_per_seed() {
    let mut rng = SmallRng::seed_from_u64(800);
    let g = generators::gnp(64, 0.1, &mut rng);
    let (a, ma) = run(&g, AwakeMisConfig::default(), 7);
    let (b, mb) = run(&g, AwakeMisConfig::default(), 7);
    assert_eq!(a, b);
    assert_eq!(ma.awake_rounds, mb.awake_rounds);
    assert_eq!(ma.messages_sent, mb.messages_sent);
}

#[test]
fn congest_message_sizes_are_logarithmic() {
    let mut rng = SmallRng::seed_from_u64(900);
    let g = generators::gnp(256, 0.05, &mut rng);
    let (outs, m) = run(&g, AwakeMisConfig::default(), 8);
    assert_valid("congest", &g, &outs);
    // IDs live in [1, N^3]: every message must fit in O(log N) bits.
    let limit = 16 * (256f64.log2() as usize + 2);
    assert!(
        m.max_message_bits <= limit,
        "max message {} bits > {limit}",
        m.max_message_bits
    );
}
