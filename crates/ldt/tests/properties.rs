//! Property tests for the LDT substrate: wave alignment laws,
//! construction validity over random graphs, and ranking correctness
//! over randomly built trees.

use graphgen::{generators, Graph};
use ldt::construct::{Construct, ConstructParams, LdtStrategy};
use ldt::ops::LdtRanking;
use ldt::verify::verify_fldt;
use ldt::wave::WaveSchedule;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleeping_congest::{SimConfig, Simulator, Standalone};

proptest! {
    /// Wave-schedule alignment laws.
    #[test]
    fn wave_alignment(k in 1u32..200, depth in 1u32..200) {
        prop_assume!(depth < k);
        let w = WaveSchedule::new(k);
        prop_assert_eq!(w.up_send(depth), w.up_receive(depth - 1));
        prop_assert_eq!(w.down_send(depth - 1), w.down_receive(depth));
        // The up wave fully precedes the down wave at every depth pair.
        if let (Some(us), Some(ds)) = (w.up_send(depth), w.down_send(depth)) {
            prop_assert!(us < ds);
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..36, any::<u64>(), 0.05f64..0.4).prop_map(|(n, seed, p)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        generators::gnp(n, p, &mut rng)
    })
}

fn distinct_ids(n: usize, upper: u64, seed: u64) -> Vec<u64> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The awake strategy builds a valid FLDT on arbitrary graphs.
    #[test]
    fn awake_construction_valid(g in arb_graph(), seed in any::<u64>()) {
        let n = g.n();
        let upper = ((n.max(4) as u64).pow(3)).max(1 << 24);
        let ids = distinct_ids(n, upper, seed);
        let nodes = (0..n)
            .map(|v| Standalone::new(Construct::new(ConstructParams {
                my_id: ids[v], id_upper: upper, k: n as u32,
            }, LdtStrategy::Awake)))
            .collect();
        let rep = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
        let all = vec![true; n];
        prop_assert!(verify_fldt(&g, &rep.outputs, &all).is_ok());
    }

    /// The round strategy builds a valid FLDT on arbitrary graphs, and
    /// within the deterministic phase bound.
    #[test]
    fn round_construction_valid(g in arb_graph(), seed in any::<u64>()) {
        let n = g.n();
        let upper = ((n.max(4) as u64).pow(3)).max(1 << 24);
        let ids = distinct_ids(n, upper, seed);
        let nodes = (0..n)
            .map(|v| Standalone::new(Construct::new(ConstructParams {
                my_id: ids[v], id_upper: upper, k: n as u32,
            }, LdtStrategy::Round)))
            .collect();
        let rep = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
        let all = vec![true; n];
        prop_assert!(verify_fldt(&g, &rep.outputs, &all).is_ok());
        let phases = rep.outputs.iter().map(|o| o.phases_used).max().unwrap();
        prop_assert!(phases <= LdtStrategy::Round.phase_budget(n as u32));
    }

    /// Ranking over any constructed forest yields a rank permutation per
    /// tree with the correct totals.
    #[test]
    fn ranking_is_permutation(g in arb_graph(), seed in any::<u64>()) {
        let n = g.n();
        let upper = ((n.max(4) as u64).pow(3)).max(1 << 24);
        let ids = distinct_ids(n, upper, seed);
        let nodes = (0..n)
            .map(|v| Standalone::new(Construct::new(ConstructParams {
                my_id: ids[v], id_upper: upper, k: n as u32,
            }, LdtStrategy::Awake)))
            .collect();
        let built = Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().unwrap();
        let rank_nodes = (0..n)
            .map(|v| Standalone::new(LdtRanking::new(n as u32, built.outputs[v].tree.clone())))
            .collect();
        let ranked = Simulator::new(g.clone(), rank_nodes, SimConfig::seeded(seed ^ 1)).run().unwrap();
        let mut by_tree: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for v in 0..n {
            by_tree.entry(built.outputs[v].tree.root_id).or_default().push(ranked.outputs[v].rank);
            prop_assert_eq!(
                ranked.outputs[v].total as usize,
                built.outputs.iter().filter(|o| o.tree.root_id == built.outputs[v].tree.root_id).count()
            );
        }
        for (_, mut ranks) in by_tree {
            ranks.sort_unstable();
            prop_assert_eq!(ranks.clone(), (1..=ranks.len() as u64).collect::<Vec<_>>());
        }
    }
}
