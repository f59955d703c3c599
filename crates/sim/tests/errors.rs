//! Pinning tests for every [`SimError`] path, driven by tiny adversarial
//! protocols — so engine refactors (wake-queue changes, scratch reuse)
//! cannot silently change error semantics.

use graphgen::{generators, Port};
use sleeping_congest::{
    Action, NodeCtx, Outbox, Protocol, SimConfig, SimError, Simulator, SLEEP_FOREVER,
};

/// A programmable one-decision node: broadcasts `payload` while awake and
/// applies `decide` at each receive step.
struct Adversary<F: FnMut(u64) -> Action> {
    payload: u64,
    decide: F,
}

impl<F: FnMut(u64) -> Action> Protocol for Adversary<F> {
    type Msg = u64;
    type Output = ();
    fn send(&mut self, _: &mut NodeCtx) -> Outbox<u64> {
        Outbox::Broadcast(self.payload)
    }
    fn receive(&mut self, ctx: &mut NodeCtx, _: &[(Port, u64)]) -> Action {
        (self.decide)(ctx.round)
    }
    fn output(&self) {}
}

fn pair<F: FnMut(u64) -> Action>(mk: impl Fn() -> F) -> Vec<Adversary<F>> {
    vec![Adversary { payload: 1, decide: mk() }, Adversary { payload: 2, decide: mk() }]
}

#[test]
fn deadlock_when_all_scheduled_nodes_terminate() {
    // Node 0 terminates in round 0; node 1 parks forever. Once the wake
    // queue drains, the engine must report the parked node rather than
    // spin or fast-forward.
    struct Parker {
        parks: bool,
    }
    impl Protocol for Parker {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &mut NodeCtx) -> Outbox<()> {
            Outbox::Silent
        }
        fn receive(&mut self, _: &mut NodeCtx, _: &[(Port, ())]) -> Action {
            if self.parks {
                Action::SleepUntil(SLEEP_FOREVER)
            } else {
                Action::Terminate
            }
        }
        fn output(&self) {}
    }
    let g = generators::path(3);
    let nodes = vec![
        Parker { parks: false },
        Parker { parks: true },
        Parker { parks: true },
    ];
    let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
    assert_eq!(err, SimError::Deadlock { sleeping_forever: 2 });
}

#[test]
fn deadlock_can_strike_after_many_active_rounds() {
    // The parked node is only detected once the rest of the schedule
    // drains, not at park time: node 0 keeps working for 50 rounds after
    // node 1 parks.
    type Decide = fn(u64) -> Action;
    let g = generators::path(2);
    let nodes: Vec<Adversary<Decide>> = vec![
        Adversary {
            payload: 1,
            decide: |round| if round < 50 { Action::Continue } else { Action::Terminate },
        },
        Adversary {
            payload: 2,
            decide: |_| Action::SleepUntil(SLEEP_FOREVER),
        },
    ];
    let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
    assert_eq!(err, SimError::Deadlock { sleeping_forever: 1 });
}

#[test]
fn bad_sleep_to_current_round_rejected() {
    let g = generators::path(2);
    let nodes = pair(|| |round| Action::SleepUntil(round));
    let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
    // Both nodes misbehave in round 0; receive steps go in node-id order.
    assert_eq!(err, SimError::BadSleep { node: 0, round: 0, until: 0 });
}

#[test]
fn bad_sleep_into_the_past_rejected() {
    // Stay awake through round 2, then ask to sleep "until" round 1.
    let g = generators::path(2);
    let nodes = pair(|| {
        |round| {
            if round < 2 {
                Action::Continue
            } else {
                Action::SleepUntil(1)
            }
        }
    });
    let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
    assert_eq!(err, SimError::BadSleep { node: 0, round: 2, until: 1 });
}

#[test]
fn round_limit_reports_the_offending_round() {
    // Leapfrog sleeps: 1 → 2 → 4 → 8 → … The first wake past the cap
    // aborts with RoundLimit of that round, not of the cap.
    let g = generators::path(2);
    let cfg = SimConfig { max_rounds: 1000, ..SimConfig::default() };
    let nodes = pair(|| |round: u64| Action::SleepUntil((round + 1).saturating_mul(2)));
    let err = Simulator::new(g, nodes, cfg).run().unwrap_err();
    assert_eq!(err, SimError::RoundLimit(1022));
}

#[test]
fn active_round_limit_stops_runaway_protocols() {
    let g = generators::path(2);
    let cfg = SimConfig { max_active_rounds: 10, ..SimConfig::default() };
    let nodes = pair(|| |_| Action::Continue);
    let err = Simulator::new(g, nodes, cfg).run().unwrap_err();
    assert_eq!(err, SimError::ActiveRoundLimit(11));
}

#[test]
fn message_too_large_reports_sender_round_and_sizes() {
    // Nodes stay silent until round 3, then node 1 broadcasts 64 bits
    // over a 48-bit budget.
    struct LateTalker {
        id: u64,
    }
    impl Protocol for LateTalker {
        type Msg = u64;
        type Output = ();
        fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u64> {
            if ctx.round == 3 && self.id == 1 {
                Outbox::Broadcast(0xFFFF_FFFF)
            } else {
                Outbox::Silent
            }
        }
        fn receive(&mut self, ctx: &mut NodeCtx, _: &[(Port, u64)]) -> Action {
            if ctx.round < 5 {
                Action::Continue
            } else {
                Action::Terminate
            }
        }
        fn output(&self) {}
    }
    let g = generators::path(2);
    let cfg = SimConfig { bit_limit: Some(48), ..SimConfig::default() };
    let nodes = vec![LateTalker { id: 0 }, LateTalker { id: 1 }];
    let err = Simulator::new(g, nodes, cfg).run().unwrap_err();
    assert_eq!(err, SimError::MessageTooLarge { node: 1, round: 3, bits: 64, limit: 48 });
}

#[test]
fn oversized_unicast_also_rejected() {
    struct UnicastTalker;
    impl Protocol for UnicastTalker {
        type Msg = u64;
        type Output = ();
        fn send(&mut self, _: &mut NodeCtx) -> Outbox<u64> {
            Outbox::Unicast(vec![(0, u64::MAX)])
        }
        fn receive(&mut self, _: &mut NodeCtx, _: &[(Port, u64)]) -> Action {
            Action::Terminate
        }
        fn output(&self) {}
    }
    let g = generators::path(2);
    let cfg = SimConfig { bit_limit: Some(32), ..SimConfig::default() };
    let err = Simulator::new(g, vec![UnicastTalker, UnicastTalker], cfg).run().unwrap_err();
    assert_eq!(err, SimError::MessageTooLarge { node: 0, round: 0, bits: 64, limit: 32 });
}

/// Broadcasts every round; in round 2 a `bad` node also unicasts
/// through port `degree`, one past its last port.
struct PortProbe {
    bad: bool,
}

impl Protocol for PortProbe {
    type Msg = u64;
    type Output = ();
    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u64> {
        if self.bad && ctx.round == 2 {
            Outbox::Unicast(vec![(0, 1), (ctx.degree as Port, 2)])
        } else {
            Outbox::Broadcast(0)
        }
    }
    fn receive(&mut self, ctx: &mut NodeCtx, _: &[(Port, u64)]) -> Action {
        if ctx.round < 5 {
            Action::Continue
        } else {
            Action::Terminate
        }
    }
    fn output(&self) {}
}

#[test]
fn unicast_to_a_missing_port_is_a_typed_error() {
    let g = generators::path(3);
    let nodes = (0..3).map(|v| PortProbe { bad: v == 1 }).collect();
    let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
    assert_eq!(err, SimError::BadPort { node: 1, round: 2, port: 2, degree: 2 });
}

#[test]
fn sharded_bad_port_reports_the_serial_loops_first_error() {
    // 2,000 awake nodes split over two worker shards (ids 0..1000 and
    // 1000..2000). Both shards hit a bad port; the lower shard's first
    // one is what the serial loop returns.
    for shards in [1, 2] {
        let g = generators::path(2000);
        let nodes = (0..2000).map(|v| PortProbe { bad: [700, 800, 1500].contains(&v) }).collect();
        let cfg = SimConfig { shards, ..SimConfig::default() };
        let err = Simulator::new(g, nodes, cfg).run().unwrap_err();
        assert_eq!(
            err,
            SimError::BadPort { node: 700, round: 2, port: 2, degree: 2 },
            "shards={shards}"
        );
    }
}

#[test]
fn node_count_mismatch_before_any_rounds() {
    let g = generators::path(4);
    let nodes = pair(|| |_| Action::Terminate);
    let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
    assert_eq!(err, SimError::NodeCountMismatch { nodes: 4, protocols: 2 });
}

#[test]
fn error_display_messages_are_stable() {
    // Downstream harnesses embed these strings in reports; pin them.
    assert_eq!(
        SimError::Deadlock { sleeping_forever: 3 }.to_string(),
        "deadlock: 3 nodes slept forever without terminating"
    );
    assert_eq!(
        SimError::BadSleep { node: 7, round: 9, until: 9 }.to_string(),
        "node 7 in round 9 asked to sleep until round 9"
    );
    assert_eq!(SimError::RoundLimit(12).to_string(), "round limit exceeded at round 12");
    assert_eq!(
        SimError::MessageTooLarge { node: 1, round: 2, bits: 64, limit: 32 }.to_string(),
        "node 1 sent a 64-bit message in round 2 (limit 32)"
    );
    assert_eq!(
        SimError::BadPort { node: 4, round: 6, port: 3, degree: 3 }.to_string(),
        "node 4 sent through port 3 in round 6 (degree 3)"
    );
}
