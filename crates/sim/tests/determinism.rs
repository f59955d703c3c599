//! Deterministic-replay tests: a `Simulator` run is a pure function of
//! `(graph, protocols, SimConfig)`. These guard the seeded-RNG plumbing
//! in `sim::rng` — every node's private RNG must be derived from the
//! run seed and the node index, nothing else.

use graphgen::{generators, Port};
use rand::Rng;
use sleeping_congest::{
    Action, FaultModel, Metrics, NodeCtx, Outbox, Protocol, SimConfig, Simulator,
};

/// RNG-hungry protocol: every wake draws payloads and a sleep gap from
/// the node's private RNG, so any nondeterminism in the RNG plumbing
/// shows up in messages, schedules, and outputs.
#[derive(Debug, Clone)]
struct RandWalk {
    wakes_left: u32,
    trace: Vec<u64>,
}

impl RandWalk {
    fn new(wakes: u32) -> RandWalk {
        RandWalk { wakes_left: wakes, trace: Vec::new() }
    }
}

impl Protocol for RandWalk {
    type Msg = u64;
    type Output = Vec<u64>;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u64> {
        let payload: u64 = ctx.rng.gen();
        self.trace.push(payload);
        Outbox::Broadcast(payload)
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, u64)]) -> Action {
        for &(p, m) in inbox {
            self.trace.push(m ^ p as u64);
        }
        self.wakes_left -= 1;
        if self.wakes_left == 0 {
            Action::Terminate
        } else {
            let gap = ctx.rng.gen_range(1..8u64);
            Action::SleepUntil(ctx.round + gap)
        }
    }

    fn output(&self) -> Vec<u64> {
        self.trace.clone()
    }
}

fn run(seed: u64) -> (Vec<Vec<u64>>, Metrics) {
    let g = generators::gnp(40, 0.15, &mut {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(99)
    });
    let nodes = (0..g.n()).map(|_| RandWalk::new(4)).collect();
    let report = Simulator::new(g, nodes, SimConfig::seeded(seed)).run().expect("run");
    (report.outputs, report.metrics)
}

#[test]
fn same_seed_identical_metrics() {
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        let (outs_a, a) = run(seed);
        let (outs_b, b) = run(seed);
        assert_eq!(outs_a, outs_b, "seed {seed}: outputs diverged");
        assert_eq!(a.awake_rounds, b.awake_rounds, "seed {seed}");
        assert_eq!(a.terminated_at, b.terminated_at, "seed {seed}");
        assert_eq!(a.awake_complexity(), b.awake_complexity(), "seed {seed}");
        assert_eq!(a.round_complexity(), b.round_complexity(), "seed {seed}");
        assert_eq!(a.active_rounds, b.active_rounds, "seed {seed}");
        assert_eq!(a.messages_sent, b.messages_sent, "seed {seed}");
        assert_eq!(a.messages_delivered, b.messages_delivered, "seed {seed}");
        assert_eq!(a.messages_lost, b.messages_lost, "seed {seed}");
        assert_eq!(a.total_message_bits, b.total_message_bits, "seed {seed}");
        assert_eq!(a.max_message_bits, b.max_message_bits, "seed {seed}");
    }
}

#[test]
fn different_seeds_diverge() {
    // The run seed must actually reach the node RNGs: with an RNG-heavy
    // protocol, two different seeds produce different transcripts.
    let (outs_a, _) = run(1);
    let (outs_b, _) = run(2);
    assert_ne!(outs_a, outs_b, "different seeds produced identical transcripts");
}

#[test]
fn shard_counts_are_byte_identical_under_faults() {
    // Intra-run sharding is an execution knob: outputs and the full
    // `Metrics` (wake history included) must match the serial engine for
    // every shard count. Faults are the part most easily perturbed by
    // resharding, so loss, crashes, and wake jitter are all active —
    // their draws are keyed by (site, round) and must not notice the
    // batch being split. 20k nodes keeps per-round batches large enough
    // that shards > 1 actually run their send and receive loops on
    // worker threads.
    let run = |shards: usize| {
        let g = generators::path(20_000);
        let nodes = (0..g.n()).map(|_| RandWalk::new(4)).collect();
        let cfg = SimConfig {
            record_wake_history: true,
            shards,
            fault: FaultModel {
                loss: 0.2,
                crash: 0.002,
                crash_from: 1,
                wake_jitter: 4,
                ..FaultModel::none()
            },
            ..SimConfig::seeded(11)
        };
        let report = Simulator::new(g, nodes, cfg).run().expect("run");
        (report.outputs, report.metrics)
    };
    let (outs_serial, metrics_serial) = run(1);
    assert!(metrics_serial.messages_faulted > 0, "loss 0.2 must drop something");
    assert!(metrics_serial.crashed_count() > 0, "crash 0.002 over 20k nodes must hit someone");
    for shards in [2, 8, 0] {
        let (outs, metrics) = run(shards);
        assert_eq!(outs_serial, outs, "shards={shards}: outputs diverged from serial");
        assert_eq!(metrics_serial, metrics, "shards={shards}: metrics diverged from serial");
    }
}

#[test]
fn nodes_get_independent_streams() {
    // All nodes run the identical protocol, but their private RNGs must
    // differ: on a graph with no edges nothing is heard, so traces are
    // exactly the per-node draw streams.
    let g = graphgen::Graph::empty(8);
    let nodes = (0..8).map(|_| RandWalk::new(3)).collect();
    let report = Simulator::new(g, nodes, SimConfig::seeded(5)).run().expect("run");
    for v in 1..8 {
        assert_ne!(
            report.outputs[0], report.outputs[v],
            "nodes 0 and {v} drew identical RNG streams"
        );
    }
}
