//! Post-construction LDT operations: broadcast and ranking
//! (paper Definition 8, Lemma 9, Appendix A.3).
//!
//! Both operations cost **O(1) awake rounds** per node and **O(n′)**
//! rounds total, which is what lets `LDT-MIS` assign fresh random IDs to
//! a whole component for the price of a constant number of awake rounds
//! per node.

use crate::msg::OpsMsg;
use crate::state::TreeState;
use crate::wave::WaveSchedule;
use graphgen::Port;
use sleeping_congest::{Action, Inbox, MessageSize, NodeCtx, Outbox, Round, SubProtocol};

/// Round budget of [`LdtBroadcast`] for trees of at most `k` nodes (only
/// the down half of a transmission-schedule block is needed).
pub fn broadcast_len(k: u32) -> Round {
    k as Round
}

/// Round budget of [`LdtRanking`] for trees of at most `k` nodes (an up
/// wave followed by a down wave).
pub fn ranking_len(k: u32) -> Round {
    2 * k as Round
}

/// One-shot broadcast of the root's payload to every node of an LDT.
///
/// Start all tree nodes at local round 0; each node's `Output` is the
/// payload. The root must be constructed with `Some(payload)`, every
/// other node with `None`.
#[derive(Debug, Clone)]
pub struct LdtBroadcast<T> {
    tree: TreeState,
    value: Option<T>,
    finished: bool,
}

impl<T: Clone + MessageSize> LdtBroadcast<T> {
    /// Creates the broadcast participant for one node.
    ///
    /// # Panics
    ///
    /// Panics if a non-root is given a payload or the root is not.
    pub fn new(tree: TreeState, payload: Option<T>) -> LdtBroadcast<T> {
        assert_eq!(
            tree.is_root(),
            payload.is_some(),
            "exactly the root must carry the broadcast payload"
        );
        LdtBroadcast { tree, value: payload, finished: false }
    }

    /// My `Down-Send` local round (depth, since the root sends at 0).
    fn send_round(&self) -> Round {
        self.tree.depth as Round
    }

    /// My `Down-Receive` local round.
    fn recv_round(&self) -> Option<Round> {
        (!self.tree.is_root()).then(|| self.tree.depth as Round - 1)
    }
}

impl<T: Clone + MessageSize> SubProtocol for LdtBroadcast<T> {
    type Msg = OpsMsg<T>;
    type Output = T;

    fn send(&mut self, lr: Round, _ctx: &mut NodeCtx) -> Outbox<Self::Msg> {
        if lr == self.send_round() && !self.tree.children_ports.is_empty() {
            if let Some(v) = &self.value {
                return Outbox::Unicast(
                    self.tree
                        .children_ports
                        .iter()
                        .map(|&p| (p, OpsMsg::Payload(v.clone())))
                        .collect(),
                );
            }
        }
        Outbox::Silent
    }

    fn receive(&mut self, lr: Round, _ctx: &mut NodeCtx, inbox: &dyn Inbox<Self::Msg>) -> Action {
        if Some(lr) == self.recv_round() {
            for (_, m) in inbox.iter() {
                if let OpsMsg::Payload(v) = m {
                    self.value = Some(v.clone());
                }
            }
        }
        if lr >= self.send_round() || (self.tree.children_ports.is_empty() && self.value.is_some())
        {
            self.finished = true;
            return Action::Terminate;
        }
        let next = if self.value.is_none() {
            self.recv_round().expect("non-root without payload")
        } else {
            self.send_round()
        };
        if next > lr {
            Action::SleepUntil(next)
        } else {
            Action::Terminate
        }
    }

    fn output(&self) -> T {
        assert!(self.finished, "broadcast output read before completion");
        self.value.clone().expect("broadcast did not reach this node")
    }
}

impl<T: Clone + MessageSize> LdtBroadcast<T> {
    /// The received value, or `None` when the schedule completed
    /// without it (possible only under message loss — [`Self::output`]
    /// panics in that case, so fault-tolerant callers use this).
    pub fn try_output(&self) -> Option<T> {
        self.finished.then(|| self.value.clone()).flatten()
    }
}

/// A node's result from [`LdtRanking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankResult {
    /// This node's 1-based rank in the tree's total order.
    pub rank: u64,
    /// The exact number of nodes in the tree (`n″`).
    pub total: u64,
}

/// Computes a total order of the LDT's nodes and the exact tree size
/// (paper Appendix A.3): an up wave aggregates subtree sizes, a down wave
/// distributes rank offsets. The order visits, recursively, the
/// lowest-port subtree, then the node, then its remaining subtrees.
#[derive(Debug, Clone)]
pub struct LdtRanking {
    wave: WaveSchedule,
    tree: TreeState,
    child_sizes: Vec<(Port, u64)>,
    result: Option<RankResult>,
    finished: bool,
}

impl LdtRanking {
    /// Creates the ranking participant for one node of a tree with at
    /// most `k` nodes.
    pub fn new(k: u32, tree: TreeState) -> LdtRanking {
        LdtRanking {
            wave: WaveSchedule::new(k),
            tree,
            child_sizes: Vec::new(),
            result: None,
            finished: false,
        }
    }

    fn subtree_size(&self) -> u64 {
        1 + self.child_sizes.iter().map(|&(_, s)| s).sum::<u64>()
    }

    /// Rank from the received offset `x`: skip the first child's subtree.
    fn my_rank(&self, x: u64) -> u64 {
        let n1 = self.child_sizes.first().map_or(0, |&(_, s)| s);
        x + n1 + 1
    }

    /// Offsets sent to children: the first child inherits `x`; child `i`
    /// gets `x + 1 + Σ_{j<i} n_j`.
    fn child_offsets(&self, x: u64) -> Vec<(Port, u64)> {
        let mut out = Vec::with_capacity(self.child_sizes.len());
        let mut acc = 0u64;
        for (i, &(p, s)) in self.child_sizes.iter().enumerate() {
            if i == 0 {
                out.push((p, x));
            } else {
                out.push((p, x + 1 + acc));
            }
            acc += s;
        }
        out
    }

    fn wakes(&self) -> Vec<Round> {
        let d = self.tree.depth;
        let mut wakes: Vec<Round> = Vec::new();
        if !self.tree.children_ports.is_empty() || self.tree.is_root() {
            wakes.extend(self.wave.up_receive(d));
        }
        if !self.tree.is_root() {
            wakes.extend(self.wave.up_send(d));
            wakes.extend(self.wave.down_receive(d));
        }
        if !self.tree.children_ports.is_empty() {
            wakes.extend(self.wave.down_send(d));
        }
        wakes
    }

    fn plan(&self, lr: Round) -> Action {
        match self.wakes().into_iter().filter(|&w| w > lr).min() {
            Some(w) => Action::SleepUntil(w),
            None => Action::Terminate,
        }
    }
}

impl SubProtocol for LdtRanking {
    type Msg = OpsMsg<()>;
    type Output = RankResult;

    fn send(&mut self, lr: Round, _ctx: &mut NodeCtx) -> Outbox<Self::Msg> {
        let d = self.tree.depth;
        if Some(lr) == self.wave.up_send(d) && !self.tree.is_root() {
            Outbox::Unicast(vec![(
                self.tree.parent_port.expect("non-root has a parent"),
                OpsMsg::SubtreeSize(self.subtree_size()),
            )])
        } else if Some(lr) == self.wave.down_send(d) && !self.tree.children_ports.is_empty() {
            let (x, total) = match self.result {
                Some(r) => (r.rank - 1 - self.child_sizes.first().map_or(0, |&(_, s)| s), r.total),
                // Our own rank never arrived (possible only under
                // message loss): stay silent and let the subtree fail
                // observably too.
                None => return Outbox::Silent,
            };
            Outbox::Unicast(
                self.child_offsets(x)
                    .into_iter()
                    .map(|(p, off)| (p, OpsMsg::RankDown { offset: off, total }))
                    .collect(),
            )
        } else {
            Outbox::Silent
        }
    }

    fn receive(&mut self, lr: Round, _ctx: &mut NodeCtx, inbox: &dyn Inbox<Self::Msg>) -> Action {
        let d = self.tree.depth;
        if lr == 0 && self.tree.is_root() && self.tree.is_leaf() {
            // Singleton tree: rank 1 of 1.
            self.result = Some(RankResult { rank: 1, total: 1 });
            self.finished = true;
            return Action::Terminate;
        }
        if Some(lr) == self.wave.up_receive(d) {
            for (p, m) in inbox.iter() {
                if let OpsMsg::SubtreeSize(s) = m {
                    self.child_sizes.push((p, *s));
                }
            }
            self.child_sizes.sort_unstable_by_key(|&(p, _)| p);
            if self.tree.is_root() {
                let total = self.subtree_size();
                self.result = Some(RankResult { rank: self.my_rank(0), total });
            }
        } else if Some(lr) == self.wave.down_receive(d) {
            for (_, m) in inbox.iter() {
                if let OpsMsg::RankDown { offset, total } = m {
                    self.result = Some(RankResult { rank: self.my_rank(*offset), total: *total });
                }
            }
        }
        let action = self.plan(lr);
        if action == Action::Terminate {
            self.finished = true;
        }
        action
    }

    fn output(&self) -> RankResult {
        assert!(self.finished, "ranking output read before completion");
        self.result.expect("ranking did not reach this node")
    }

    /// 0 for a singleton tree, which resolves immediately.
    fn first_wake(&self) -> Round {
        if self.tree.is_root() && self.tree.is_leaf() {
            0
        } else {
            self.wakes().into_iter().min().expect("non-singleton trees have wake rounds")
        }
    }
}

impl LdtRanking {
    /// The computed rank, or `None` when the schedule completed without
    /// one (possible only under message loss — [`SubProtocol::output`]
    /// panics in that case, so fault-tolerant callers use this).
    pub fn try_output(&self) -> Option<RankResult> {
        self.finished.then_some(self.result).flatten()
    }
}
