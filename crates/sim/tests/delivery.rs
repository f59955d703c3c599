//! Delivery oracle: every inbox the engine hands out is checked against
//! an expectation computed independently from the graph.
//!
//! Each node's behaviour is a pure function of (node, round): whether it
//! is awake, and whether it stays silent, broadcasts, or unicasts to a
//! subset of its ports — listed in a scrambled order, with one of them
//! listed a second time at the end. A receiver recomputes what each
//! awake neighbour sent it and must find exactly that in its inbox: in
//! its own port order, and with a twice-listed port's two messages in
//! the sender's list order. The run's message counters must equal the
//! totals the same functions imply, which is what pins `messages_lost`.

use graphgen::{generators, Graph, NodeId, Port};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sleeping_congest::rng::{fault_unit, splitmix64, FAULT_LOSS};
use sleeping_congest::{
    Action, FaultModel, Metrics, NodeCtx, Outbox, Protocol, SimConfig, Simulator,
};
use std::sync::Arc;

/// Rounds `0..ROUNDS` are scheduled; every node terminates by the last.
const ROUNDS: u64 = 8;
const SEED: u64 = 17;

fn coin(v: NodeId, round: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(u64::from(v) ^ (round << 40)) ^ salt)
}

/// Every node starts awake in round 0; later it is awake in about two
/// rounds of three.
fn awake(v: NodeId, round: u64) -> bool {
    round == 0 || !coin(v, round, 1).is_multiple_of(3)
}

/// What node `v` sends in `round`, given its degree.
fn outbox(v: NodeId, round: u64, degree: usize) -> Outbox<u64> {
    let msg = |i: usize| (u64::from(v) << 32) | (round << 16) | i as u64;
    match coin(v, round, 2) % 4 {
        0 => Outbox::Silent,
        1 => Outbox::Broadcast(msg(0)),
        _ => {
            let mut ports: Vec<Port> = (0..degree as Port)
                .filter(|&p| coin(v, round, 3 + u64::from(p)).is_multiple_of(2))
                .collect();
            ports.sort_by_key(|&p| coin(v, round, (1 << 32) | u64::from(p)));
            let mut list: Vec<(Port, u64)> =
                ports.iter().enumerate().map(|(i, &p)| (p, msg(i + 1))).collect();
            if !ports.is_empty() {
                let twice = ports[(coin(v, round, 0) % ports.len() as u64) as usize];
                list.push((twice, msg(ports.len() + 1)));
            }
            Outbox::Unicast(list)
        }
    }
}

/// Whether the link model drops what `u` sends through its port `q` in
/// `round` (the draw site [`FaultModel::loss`] documents).
fn dropped(loss: f64, u: NodeId, q: Port, round: u64) -> bool {
    let site = (u64::from(u) << 32) | u64::from(q);
    loss > 0.0 && fault_unit(SEED, FAULT_LOSS, site, round) < loss
}

/// The copies `u` sends to `v` in `round`, in `u`'s list order; `q` is
/// `u`'s port to `v`.
fn copies_to(g: &Graph, u: NodeId, q: Port, round: u64) -> Vec<u64> {
    match outbox(u, round, g.degree(u)) {
        Outbox::Silent => Vec::new(),
        Outbox::Broadcast(m) => vec![m],
        Outbox::Unicast(list) => {
            list.into_iter().filter(|&(p, _)| p == q).map(|(_, m)| m).collect()
        }
    }
}

/// Node `v`'s inbox in `round`, from the graph and the functions above.
fn expected_inbox(g: &Graph, loss: f64, v: NodeId, round: u64) -> Vec<(Port, u64)> {
    let mut inbox = Vec::new();
    for (p, &u) in g.neighbors(v).iter().enumerate() {
        let q = g.port_to(u, v).expect("edges are symmetric");
        if awake(u, round) && !dropped(loss, u, q, round) {
            inbox.extend(copies_to(g, u, q, round).into_iter().map(|m| (p as Port, m)));
        }
    }
    inbox
}

/// Copies sent, delivered and fault-dropped over the whole run.
fn expected_totals(g: &Graph, loss: f64) -> (u64, u64, u64) {
    let (mut sent, mut delivered, mut faulted) = (0, 0, 0);
    for round in 0..ROUNDS {
        for u in 0..g.n() as NodeId {
            if !awake(u, round) {
                continue;
            }
            for (q, &v) in g.neighbors(u).iter().enumerate() {
                let copies = copies_to(g, u, q as Port, round).len() as u64;
                sent += copies;
                if !awake(v, round) {
                    continue;
                }
                if dropped(loss, u, q as Port, round) {
                    faulted += copies;
                } else {
                    delivered += copies;
                }
            }
        }
    }
    (sent, delivered, faulted)
}

/// One inbox that differed from the expectation.
#[derive(Debug, Clone, PartialEq)]
struct Mismatch {
    node: NodeId,
    round: u64,
    expected: Vec<(Port, u64)>,
    got: Vec<(Port, u64)>,
}

struct Oracle {
    graph: Arc<Graph>,
    loss: f64,
    mismatches: Vec<Mismatch>,
}

impl Protocol for Oracle {
    type Msg = u64;
    type Output = Vec<Mismatch>;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u64> {
        outbox(ctx.node, ctx.round, ctx.degree)
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, u64)]) -> Action {
        let (node, round) = (ctx.node, ctx.round);
        let expected = expected_inbox(&self.graph, self.loss, node, round);
        if inbox != expected.as_slice() {
            self.mismatches.push(Mismatch { node, round, expected, got: inbox.to_vec() });
        }
        match (round + 1..ROUNDS).find(|&r| awake(node, r)) {
            Some(r) if r == round + 1 => Action::Continue,
            Some(r) => Action::SleepUntil(r),
            None => Action::Terminate,
        }
    }

    fn output(&self) -> Vec<Mismatch> {
        self.mismatches.clone()
    }
}

/// Runs the oracle on `g` and checks every inbox and the run's totals.
fn check(name: &str, g: Graph, loss: f64, shards: usize) -> Metrics {
    let graph = Arc::new(g);
    let nodes = (0..graph.n())
        .map(|_| Oracle { graph: Arc::clone(&graph), loss, mismatches: Vec::new() })
        .collect();
    let config = SimConfig {
        shards,
        fault: FaultModel { loss, ..FaultModel::none() },
        ..SimConfig::seeded(SEED)
    };
    let report = Simulator::new((*graph).clone(), nodes, config).run().expect("run");
    let mismatches: Vec<Mismatch> = report.outputs.into_iter().flatten().collect();
    assert!(
        mismatches.is_empty(),
        "{name}, shards={shards}: {} inboxes differ, first {:?}",
        mismatches.len(),
        mismatches[0]
    );
    let (sent, delivered, faulted) = expected_totals(&graph, loss);
    let m = report.metrics;
    assert_eq!(m.messages_sent, sent, "{name}, shards={shards}: sent");
    assert_eq!(m.messages_delivered, delivered, "{name}, shards={shards}: delivered");
    assert_eq!(m.messages_faulted, faulted, "{name}, shards={shards}: faulted");
    assert_eq!(m.messages_lost, sent - delivered - faulted, "{name}, shards={shards}: lost");
    m
}

fn er(n: usize, avg_deg: f64, seed: u64) -> Graph {
    generators::gnp_avg_degree(n, avg_deg, &mut SmallRng::seed_from_u64(seed))
}

#[test]
fn small_graphs_get_exactly_the_expected_inboxes() {
    // An isolated node, a path, a cycle, a star, and a near-clique whose
    // unicast lists run past 20 entries.
    let isolated = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
    let dense = generators::gnp(60, 0.9, &mut SmallRng::seed_from_u64(2));
    let cases = [
        ("isolated", isolated),
        ("path", generators::path(2)),
        ("cycle", generators::cycle(7)),
        ("star", generators::star(9)),
        ("dense", dense),
        ("er", er(300, 6.0, 1)),
    ];
    for (name, g) in cases {
        for shards in [1, 2, 8] {
            check(name, g.clone(), 0.0, shards);
        }
    }
}

#[test]
fn large_rounds_split_over_threads_deliver_the_same() {
    // About 2,700 awake nodes per round: above 2 × MIN_SHARD_BATCH, so
    // shards 2 and 8 run their receive loops on worker threads.
    let g = er(4000, 6.0, 3);
    let serial = check("er-4000", g.clone(), 0.0, 1);
    assert!(serial.messages_delivered > 0 && serial.messages_lost > 0);
    for shards in [2, 8] {
        assert_eq!(check("er-4000", g.clone(), 0.0, shards), serial, "shards={shards}");
    }
}

#[test]
fn lossy_links_drop_exactly_the_drawn_copies() {
    let g = er(1500, 6.0, 4);
    let serial = check("er-1500 lossy", g.clone(), 0.3, 1);
    assert!(serial.messages_faulted > 0 && serial.messages_delivered > 0);
    for shards in [2, 8] {
        assert_eq!(check("er-1500 lossy", g.clone(), 0.3, shards), serial, "shards={shards}");
    }
}
