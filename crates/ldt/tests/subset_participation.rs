//! Construction over a *subset* of nodes — the exact situation inside
//! `Awake-MIS`, where only a batch's undecided nodes participate and
//! everyone else sleeps. Non-participants here terminate instantly, so
//! their silence (and the loss of any message sent to them) is part of
//! the test. Every case runs both merge rules: `awake` runs the coin
//! rule in its windows and `awake-round` the matching rule.

use graphgen::{generators, Graph, Port};
use ldt::construct::{Construct, ConstructParams, LdtStrategy};
use ldt::verify::verify_fldt;
use ldt::{ConstructMsg, LdtOutput, PortInfo, TreeState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleeping_congest::{Action, NodeCtx, Outbox, Protocol, SimConfig, Simulator, Standalone};

/// Runs the construction when participating, terminates at round 0
/// otherwise.
#[allow(clippy::large_enum_variant)]
enum MaybeBuild {
    Out(Standalone<Construct>),
    Sleep,
}

impl Protocol for MaybeBuild {
    type Msg = ConstructMsg;
    type Output = Option<LdtOutput>;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<ConstructMsg> {
        match self {
            MaybeBuild::Out(c) => c.send(ctx),
            MaybeBuild::Sleep => Outbox::Silent,
        }
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, ConstructMsg)]) -> Action {
        match self {
            MaybeBuild::Out(c) => c.receive(ctx, inbox),
            MaybeBuild::Sleep => Action::Terminate,
        }
    }

    fn output(&self) -> Option<LdtOutput> {
        match self {
            MaybeBuild::Out(c) => Some(c.output()),
            MaybeBuild::Sleep => None,
        }
    }
}

const STRATEGIES: [LdtStrategy; 2] = [LdtStrategy::Awake, LdtStrategy::Round];

fn run_subset(
    g: &Graph,
    participants: &[bool],
    seed: u64,
    strategy: LdtStrategy,
) -> Vec<Option<LdtOutput>> {
    let n = g.n();
    let id_upper = ((n.max(4) as u64).pow(3)).max(1 << 24);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..=id_upper);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    let nodes = (0..n)
        .map(|v| {
            if participants[v] {
                let params = ConstructParams { my_id: ids[v], id_upper, k: n as u32 };
                MaybeBuild::Out(Standalone::new(Construct::new(params, strategy)))
            } else {
                MaybeBuild::Sleep
            }
        })
        .collect();
    Simulator::new(g.clone(), nodes, SimConfig::seeded(seed)).run().expect("run").outputs
}

/// Fills non-participant slots with harmless placeholders so
/// `verify_fldt` (which indexes all nodes) can run.
fn unwrap_outputs(outs: Vec<Option<LdtOutput>>) -> Vec<LdtOutput> {
    outs.into_iter()
        .map(|o| {
            o.unwrap_or(LdtOutput {
                ok: true,
                tree: TreeState::singleton(1),
                ports: Vec::new(),
                phases_used: 0,
            })
        })
        .collect()
}

#[test]
fn half_the_cycle_participates() {
    // Alternating participants on a cycle: all participating components
    // are singletons (their neighbors sleep).
    let n = 16;
    let g = generators::cycle(n);
    let participants: Vec<bool> = (0..n).map(|v| v % 2 == 0).collect();
    for strategy in STRATEGIES {
        let outs = unwrap_outputs(run_subset(&g, &participants, 1, strategy));
        verify_fldt(&g, &outs, &participants).unwrap();
        for v in (0..n).filter(|v| v % 2 == 0) {
            assert!(
                outs[v].tree.is_root() && outs[v].tree.is_leaf(),
                "{strategy:?}: node {v} should be isolated"
            );
        }
    }
}

#[test]
fn contiguous_arcs_participate() {
    // Participants form arcs of different lengths on a cycle: each arc
    // becomes one LDT.
    let n = 24;
    let g = generators::cycle(n);
    let mut participants = vec![false; n];
    participants[0..5].fill(true); // arc of 5
    participants[10..12].fill(true); // arc of 2
    participants[18] = true; // singleton
    for strategy in STRATEGIES {
        let outs = unwrap_outputs(run_subset(&g, &participants, 2, strategy));
        verify_fldt(&g, &outs, &participants).unwrap();
        // The 5-arc shares one root id across its nodes.
        let arc_ids: std::collections::HashSet<u64> =
            (0..5).map(|v| outs[v].tree.root_id).collect();
        assert_eq!(arc_ids.len(), 1, "{strategy:?}");
        // The 2-arc has its own.
        assert_eq!(outs[10].tree.root_id, outs[11].tree.root_id, "{strategy:?}");
        assert_ne!(outs[10].tree.root_id, outs[0].tree.root_id, "{strategy:?}");
    }
}

#[test]
fn random_subsets_on_random_graphs() {
    let mut rng = SmallRng::seed_from_u64(3);
    for trial in 0..5 {
        let g = generators::gnp(40, 0.12, &mut rng);
        let participants: Vec<bool> = (0..40).map(|_| rng.gen_bool(0.5)).collect();
        if participants.iter().filter(|&&b| b).count() == 0 {
            continue;
        }
        for strategy in STRATEGIES {
            let outs = unwrap_outputs(run_subset(&g, &participants, trial, strategy));
            verify_fldt(&g, &outs, &participants)
                .unwrap_or_else(|e| panic!("{strategy:?}, trial {trial}: {e}"));
        }
    }
}

#[test]
fn participants_know_their_live_ports() {
    let n = 12;
    let g = generators::complete(n);
    let participants: Vec<bool> = (0..n).map(|v| v < 6).collect();
    for strategy in STRATEGIES {
        let outs = run_subset(&g, &participants, 4, strategy);
        for (v, slot) in outs.iter().enumerate().take(6) {
            let out = slot.as_ref().unwrap();
            // Exactly the 5 other participants are marked live.
            let live: Vec<PortInfo> =
                out.ports.iter().copied().filter(|pi| pi.participant).collect();
            assert_eq!(live.len(), 5, "{strategy:?}: node {v} sees {} live ports", live.len());
        }
    }
}
