//! Fault-model property oracle: under arbitrary message loss (and a
//! crash window), no algorithm may fail *silently*. Every run either
//! reports Monte Carlo failures, or its output passes the
//! independently recomputed survivor-subgraph verification — and at
//! `loss = 0` with no crashes, the run is byte-for-byte the clean run:
//! nothing dropped, everything verified. Under wake jitter, LDT-MIS
//! flags every node that starts too late to build its tree.

use awake_mis_core::state::id_space;
use awake_mis_core::{
    check_mis, check_mis_survivors, AvgMis, AvgMisConfig, AwakeMis, AwakeMisConfig, LdtMis,
    LdtMisParams, LdtStrategy, Luby, MisState, VtMis,
};
use graphgen::Graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sleeping_congest::{FaultModel, Metrics, SimConfig, Simulator, Standalone};

/// Strategy: a graph drawn from one of four shapes (random, path,
/// cycle, complete) — loss hurts differently on sparse chains than on
/// dense neighborhoods.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n, any::<u64>(), 0.0f64..0.5, 0u8..4).prop_map(|(n, seed, p, shape)| match shape {
        0 => graphgen::generators::gnp(n, p, &mut SmallRng::seed_from_u64(seed)),
        1 => graphgen::generators::path(n),
        2 => graphgen::generators::cycle(n.max(3)), // a cycle needs 3 nodes
        _ => graphgen::generators::complete(n),
    })
}

/// Runs one algorithm under `fault`, returning the MIS states, the
/// failure count, and the engine metrics.
fn run_one(name: &str, g: &Graph, seed: u64, fault: &FaultModel) -> (Vec<MisState>, usize, Metrics) {
    let n = g.n();
    let cfg = SimConfig { fault: fault.clone(), ..SimConfig::seeded(seed) };
    match name {
        "luby" => {
            let nodes = (0..n).map(|_| Luby::new()).collect();
            let r = Simulator::new(g.clone(), nodes, cfg).run().expect(name);
            (r.outputs, 0, r.metrics)
        }
        "vt-mis" => {
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            ids.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x77));
            let nodes =
                (0..n).map(|v| Standalone::new(VtMis::new(ids[v], n as u64, None))).collect();
            let r = Simulator::new(g.clone(), nodes, cfg).run().expect(name);
            (r.outputs, 0, r.metrics)
        }
        "ldt-mis" => {
            let mut ids: Vec<u64> = (1..=n as u64).collect();
            ids.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x1d7));
            let (id_upper, k, strategy) = (id_space(n), n as u32, LdtStrategy::Awake);
            let nodes = ids
                .into_iter()
                .map(|my_id| LdtMisParams { my_id, id_upper, k, strategy })
                .map(|params| Standalone::new(LdtMis::new(params)))
                .collect();
            let r = Simulator::new(g.clone(), nodes, cfg).run().expect(name);
            let failures = r.outputs.iter().filter(|o| o.failed).count();
            (r.outputs.iter().map(|o| o.state).collect(), failures, r.metrics)
        }
        "awake-mis" => {
            let nodes = (0..n).map(|_| AwakeMis::new(AwakeMisConfig::default())).collect();
            let r = Simulator::new(g.clone(), nodes, cfg).run().expect(name);
            let failures = r.outputs.iter().filter(|o| o.failed).count();
            (r.outputs.iter().map(|o| o.state).collect(), failures, r.metrics)
        }
        "gp-avg-mis" => {
            let nodes = (0..n).map(|_| AvgMis::new(AvgMisConfig::default())).collect();
            let r = Simulator::new(g.clone(), nodes, cfg).run().expect(name);
            let failures = r.outputs.iter().filter(|o| o.failed).count();
            (r.outputs.iter().map(|o| o.state).collect(), failures, r.metrics)
        }
        other => panic!("unknown algorithm {other}"),
    }
}

const ALGOS: [&str; 5] = ["luby", "vt-mis", "ldt-mis", "awake-mis", "gp-avg-mis"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Failure is observable, never silent: under arbitrary loss every
    /// run terminates and either reports failures, fails verification
    /// (both observable to the harness), or IS a valid MIS of the
    /// survivor subgraph. The property a robustness surface rests on —
    /// `failure_rate` counts real events, and what it doesn't count is
    /// genuinely correct.
    #[test]
    fn lossy_runs_fail_observably_or_verify(
        g in arb_graph(28),
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
    ) {
        let fault = FaultModel { loss, ..FaultModel::none() };
        for name in ALGOS {
            let (states, failures, metrics) = run_one(name, &g, seed, &fault);
            prop_assert_eq!(states.len(), g.n());
            prop_assert_eq!(metrics.crashed_count(), 0, "loss must not crash nodes");
            let verdict = check_mis_survivors(&g, &states, &metrics.alive());
            if failures == 0 && verdict.is_err() {
                // Observable: the harness flags this run as incorrect.
                // Loss must actually have fired — a clean run may not
                // fail verification.
                prop_assert!(
                    metrics.messages_faulted > 0,
                    "{} failed verification without any dropped message: {:?}",
                    name, verdict
                );
            }
            if loss == 0.0 {
                prop_assert_eq!(metrics.messages_faulted, 0, "{} dropped at loss=0", name);
                prop_assert_eq!(failures, 0, "{} failed at loss=0", name);
                prop_assert!(verdict.is_ok(), "{} incorrect at loss=0: {:?}", name, verdict);
            }
        }
    }

    /// Crashes interact correctly with verification: crashed nodes are
    /// exempt, survivors must still form an MIS of the subgraph they
    /// induce — and on runs with no crashes the survivor check is
    /// exactly the full check.
    #[test]
    fn crashed_runs_verify_on_the_survivor_subgraph(
        g in arb_graph(28),
        seed in any::<u64>(),
        crash in 0.0f64..0.05,
    ) {
        // Bound the window so dense instances keep some survivors.
        let fault = FaultModel { crash, crash_until: 4, ..FaultModel::none() };
        for name in ["luby", "vt-mis"] {
            let (states, failures, metrics) = run_one(name, &g, seed, &fault);
            let alive = metrics.alive();
            prop_assert_eq!(
                alive.iter().filter(|&&a| !a).count(),
                metrics.crashed_count(),
                "alive mask and crash count disagree"
            );
            let verdict = check_mis_survivors(&g, &states, &alive);
            if failures == 0 && verdict.is_err() {
                prop_assert!(
                    metrics.crashed_count() > 0 || metrics.messages_faulted > 0,
                    "{} failed verification on a fault-free run: {:?}",
                    name, verdict
                );
            }
            if metrics.crashed_count() == 0 {
                prop_assert_eq!(
                    check_mis(&g, &states).is_ok(),
                    verdict.is_ok(),
                    "survivor check must equal the full check when everyone survived"
                );
            }
        }
    }

    /// A late start is never silent: under wake jitter every LDT-MIS run
    /// is a verified MIS or flags a failed node. A node whose first wake
    /// comes after the construction's hello round (local round 0) cannot
    /// learn its participating neighbours, so its construction fails
    /// instead of reporting an isolated root that joins the MIS.
    #[test]
    fn late_ldt_starts_are_flagged(
        g in arb_graph(28),
        seed in any::<u64>(),
        jitter in 1u64..=8,
    ) {
        let fault = FaultModel { wake_jitter: jitter, ..FaultModel::none() };
        let (states, failures, _) = run_one("ldt-mis", &g, seed, &fault);
        let verdict = check_mis(&g, &states);
        prop_assert!(
            failures > 0 || verdict.is_ok(),
            "jitter {} gave a wrong MIS with no failed node: {:?}",
            jitter, verdict
        );
    }
}
