//! The coin merge rule of `LDT-Construct-Awake`
//! ([`LdtStrategy::Awake`](crate::LdtStrategy::Awake)).
//!
//! At the turnaround of the decide wave the root flips a fair coin
//! (*head* or *tail*) and scatters it with the chosen edge. Then:
//!
//! 1. **Propose** (side round) — head fragments propose along their
//!    chosen edge.
//! 2. **Accept** (side round) — tail fragments accept *every* proposal
//!    aimed at them; an accepting endpoint adopts the proposers as
//!    children, and each accepted proposer joins the re-root wave below
//!    it.

use crate::construct::{min_edge, side, unicast, Driver, MergeRule, Op};
use crate::msg::ConstructMsg;
use crate::state::EdgeKey;
use graphgen::Port;
use rand::Rng;
use sleeping_congest::{NodeCtx, Outbox, Round};

/// The ops of one phase: two wave blocks plus three side rounds.
pub(crate) const OPS: [Op; 5] = [Op::Decide, Op::Propose, Op::Accept, Op::Reroot, Op::Refresh];

/// Per-phase registers of the coin rule.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoinRule {
    /// Best outgoing-edge candidate heard from children so far.
    up_acc: Option<EdgeKey>,
    /// The fragment's chosen edge this phase.
    chosen: Option<EdgeKey>,
    /// The fragment's coin this phase.
    head: bool,
    /// Fragment has no outgoing edges (construction complete).
    complete: bool,
    /// Port this node proposes on (head fragments, edge owner only).
    propose_port: Option<Port>,
    /// Ports that proposed to this node (tail fragments).
    proposals: Vec<Port>,
}

impl CoinRule {
    /// After learning the phase decision, record whether this node owns
    /// the chosen edge (and on which port it would propose).
    fn note_propose_port(&mut self, d: &Driver) {
        self.propose_port = self.chosen.filter(|_| self.head).and_then(|e| d.port_of_edge(e));
    }
}

impl MergeRule for CoinRule {
    fn begin_phase(&mut self, _: &Driver) {
        *self = CoinRule::default();
    }

    fn enter(&mut self, d: &Driver, op: Op, base: Round) -> Vec<Round> {
        let owner = self.head && self.propose_port.is_some();
        let awake = match op {
            Op::Propose => owner || (!self.head && d.cross_ports().next().is_some()),
            Op::Accept => owner || (!self.head && !self.proposals.is_empty()),
            _ => unreachable!("{op:?} is not a coin op"),
        };
        side(base, awake)
    }

    fn send(&mut self, d: &Driver, op: Op, off: Round, ctx: &mut NodeCtx) -> Outbox<ConstructMsg> {
        let depth = d.tree.depth;
        match op {
            Op::Decide if Some(off) == d.wave.up_send(depth) => {
                match (min_edge(self.up_acc, d.local_candidate()), d.tree.parent_port) {
                    (Some(e), Some(p)) => Outbox::Unicast(vec![(p, ConstructMsg::UpEdge(Some(e)))]),
                    _ => Outbox::Silent, // silence encodes "no candidate"
                }
            }
            Op::Decide if Some(off) == d.wave.down_send(depth) => {
                if d.tree.is_root() {
                    // Decision point: pick the fragment's minimum
                    // outgoing edge and flip the merge coin.
                    self.chosen = min_edge(self.up_acc, d.local_candidate());
                    self.complete = self.chosen.is_none();
                    self.head = !self.complete && ctx.rng.gen_bool(0.5);
                }
                d.to_children(ConstructMsg::Decision {
                    chosen: self.chosen,
                    head: self.head,
                    done: self.complete,
                })
            }
            Op::Propose => match self.propose_port {
                Some(p) if self.head => {
                    Outbox::Unicast(vec![(p, ConstructMsg::Propose { fragment: d.tree.root_id })])
                }
                _ => Outbox::Silent,
            },
            Op::Accept if !self.head => {
                let msg = ConstructMsg::Accept { root_id: d.tree.root_id, attach_depth: depth };
                unicast(self.proposals.iter().map(|&p| (p, msg.clone())))
            }
            _ => Outbox::Silent,
        }
    }

    fn receive(&mut self, d: &mut Driver, op: Op, off: Round, inbox: &[(Port, ConstructMsg)]) {
        let depth = d.tree.depth;
        match op {
            Op::Decide => {
                if Some(off) == d.wave.up_receive(depth) {
                    for (_, m) in inbox {
                        if let ConstructMsg::UpEdge(e) = *m {
                            self.up_acc = min_edge(self.up_acc, e);
                        }
                    }
                } else if Some(off) == d.wave.down_send(depth) && d.tree.is_root() {
                    // The decision (including the coin) was made in this
                    // round's send step.
                    if self.complete {
                        return d.complete();
                    }
                    self.note_propose_port(d);
                } else if Some(off) == d.wave.down_receive(depth) {
                    for (_, m) in inbox {
                        if let ConstructMsg::Decision { chosen, head, done } = *m {
                            self.chosen = chosen;
                            self.head = head;
                            self.complete = done;
                        }
                    }
                    if self.complete && d.tree.is_leaf() {
                        return d.complete();
                    }
                    self.note_propose_port(d);
                } else if Some(off) == d.wave.down_send(depth) && self.complete {
                    // Forwarded the decision to the children in `send`.
                    d.complete();
                }
            }
            Op::Propose if !self.head => {
                for &(p, ref m) in inbox {
                    if matches!(m, ConstructMsg::Propose { .. }) {
                        self.proposals.push(p);
                    }
                }
            }
            Op::Accept if !self.head && !self.proposals.is_empty() => {
                // Adopt every proposer as a child; their subtrees join
                // this fragment.
                for p in std::mem::take(&mut self.proposals) {
                    d.tree.add_child(p);
                    d.ports[p as usize].fragment_id = d.tree.root_id;
                }
            }
            Op::Accept if self.head => {
                for &(p, ref m) in inbox {
                    if let ConstructMsg::Accept { root_id, attach_depth } = *m {
                        debug_assert_eq!(Some(p), self.propose_port);
                        d.begin_reroot(p, root_id, attach_depth + 1, d.tree.children_ports.clone());
                    }
                }
            }
            _ => {}
        }
    }

    fn may_reroot(&self, _: &Driver) -> bool {
        self.head
    }
}
