//! Awake-efficient LDT construction (`LDT-Construct-Awake`).
//!
//! Builds a forest of labeled distance trees (one spanning tree per
//! connected component of the participating subgraph) with **O(log n′)
//! awake complexity** per node, matching the shape of Lemma 6 of the
//! paper (which cites Theorem 4 of Augustine–Moses–Pandurangan for a
//! deterministic construction). This module substitutes randomized
//! head/tail merging, so the bound holds w.h.p. instead of
//! deterministically, which is absorbed by the Monte Carlo guarantee of
//! the surrounding MIS algorithm.
//!
//! # Algorithm
//!
//! Local round 0 is the *hello round*: all participants exchange IDs, so
//! every node learns which ports lead to participants. Then fragments
//! (initially singletons) repeatedly merge in phases. Each phase is:
//!
//! 1. **Gather/scatter wave** — convergecast the fragment's minimum
//!    outgoing edge to the root; the root flips a fair coin (*head* or
//!    *tail*) and scatters `(chosen edge, coin, done?)` back down. A
//!    fragment with no outgoing edge spans its component: its nodes
//!    finish.
//! 2. **Propose** (side round) — head fragments propose along their
//!    chosen edge.
//! 3. **Accept** (side round) — tail fragments accept *every* proposal
//!    aimed at them; an accepting endpoint adopts the proposers as
//!    children.
//! 4. **Re-root wave** — each accepted head fragment re-roots at its
//!    proposing endpoint (reversing the path to its old root, up wave)
//!    and disseminates the new root ID and depths (down wave).
//! 5. **Refresh** (side round) — nodes whose fragment ID changed announce
//!    it so neighbors keep accurate cross-edge information.
//!
//! Each phase costs every node `O(1)` awake rounds; a constant fraction
//! of fragments merge per phase in expectation, so `O(log n′)` phases
//! suffice w.h.p. The phase budget is [`awake_phase_budget`]; running out
//! of budget is reported as `ok = false` in the output (a Monte Carlo
//! failure), never as a hang.

use crate::msg::ConstructMsg;
use crate::state::{EdgeKey, PortInfo, TreeState};
use crate::wave::WaveSchedule;
use graphgen::Port;
use rand::Rng;
use sleeping_congest::{NodeCtx, Outbox, Round, SubAction, SubProtocol};

/// Parameters shared by every participant of a construction.
#[derive(Debug, Clone, Copy)]
pub struct ConstructParams {
    /// This node's unique ID (drawn from `[1, id_upper]`).
    pub my_id: u64,
    /// Common upper bound `I` on IDs.
    pub id_upper: u64,
    /// Common upper bound `k` on the size of any connected component of
    /// the participating subgraph. Trees deeper than `k - 1` abort.
    pub k: u32,
}

/// Result of a construction at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdtOutput {
    /// Whether this node's fragment completed within the phase budget.
    pub ok: bool,
    /// The node's position in its labeled distance tree.
    pub tree: TreeState,
    /// Post-hello knowledge about each port.
    pub ports: Vec<PortInfo>,
    /// Number of phases until the fragment completed (or the budget).
    pub phases_used: u64,
}

/// Number of merge phases provisioned for components of at most `k`
/// nodes (w.h.p. sufficient; each phase removes a constant fraction of
/// fragments in expectation).
pub fn awake_phase_budget(k: u32) -> u64 {
    6 * ceil_log2(k.max(2) as u64) + 12
}

/// Rounds in one phase of the awake strategy: two wave blocks plus three
/// side rounds.
pub fn awake_phase_len(k: u32) -> u64 {
    2 * (2 * k as u64 + 1) + 3
}

/// Total local-round budget of [`ConstructAwake`]: the hello round plus
/// all phases.
pub fn awake_round_budget(k: u32) -> u64 {
    1 + awake_phase_budget(k) * awake_phase_len(k)
}

/// `⌈log₂ x⌉` for `x ≥ 1`.
pub(crate) fn ceil_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros() as u64
    }
}

/// Ops inside one phase, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AwakeOp {
    /// Wave: min-outgoing-edge convergecast + decision scatter.
    Decide,
    /// Side: head fragments propose.
    Propose,
    /// Side: tail fragments accept.
    Accept,
    /// Wave: re-root accepted head fragments.
    Reroot,
    /// Side: fragment-ID refresh.
    Refresh,
}

const AWAKE_OPS: [AwakeOp; 5] = [
    AwakeOp::Decide,
    AwakeOp::Propose,
    AwakeOp::Accept,
    AwakeOp::Reroot,
    AwakeOp::Refresh,
];

/// Per-phase scratch registers.
#[derive(Debug, Clone, Default)]
struct Regs {
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
    /// Pending re-root wave heard/initiated: `(new_root, my_new_depth)`.
    reroot_val: Option<(u64, u32)>,
    /// Whether this node's fragment ID changed this phase.
    id_changed: bool,
}

/// The `LDT-Construct-Awake` subprotocol (one instance per node).
#[derive(Debug, Clone)]
pub struct ConstructAwake {
    params: ConstructParams,
    wave: WaveSchedule,
    n_phases: u64,
    phase_len: u64,
    tree: TreeState,
    /// Tree state to adopt once the current re-root wave has fully used
    /// the *old* tree for scheduling (committed when leaving the re-root
    /// block).
    pending: Option<TreeState>,
    ports: Vec<PortInfo>,
    regs: Regs,
    agenda: Vec<Round>,
    cur_phase: u64,
    cur_op: usize,
    finished: bool,
    ok: bool,
    phases_used: u64,
}

impl ConstructAwake {
    /// Creates the subprotocol for one node.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0` or `params.my_id` is not in
    /// `[1, id_upper]`.
    pub fn new(params: ConstructParams) -> ConstructAwake {
        assert!(params.k >= 1, "component bound k must be >= 1");
        assert!(
            params.my_id >= 1 && params.my_id <= params.id_upper,
            "id {} outside [1, {}]",
            params.my_id,
            params.id_upper
        );
        ConstructAwake {
            params,
            wave: WaveSchedule::new(params.k),
            n_phases: awake_phase_budget(params.k),
            phase_len: awake_phase_len(params.k),
            tree: TreeState::singleton(params.my_id),
            pending: None,
            ports: Vec::new(),
            regs: Regs::default(),
            agenda: Vec::new(),
            cur_phase: 0,
            cur_op: 0,
            finished: false,
            ok: false,
            phases_used: 0,
        }
    }

    /// Local round where phase `p`, op `o` starts.
    fn op_start(&self, phase: u64, op: usize) -> Round {
        let w = self.wave.block_len();
        let within = match AWAKE_OPS[op] {
            AwakeOp::Decide => 0,
            AwakeOp::Propose => w,
            AwakeOp::Accept => w + 1,
            AwakeOp::Reroot => w + 2,
            AwakeOp::Refresh => 2 * w + 2,
        };
        1 + phase * self.phase_len + within
    }

    /// `(phase, op, offset)` of a local round `>= 1`.
    fn locate(&self, lr: Round) -> (u64, usize, Round) {
        debug_assert!(lr >= 1);
        let rel = lr - 1;
        let phase = rel / self.phase_len;
        let within = rel % self.phase_len;
        let w = self.wave.block_len();
        let (op, off) = if within < w {
            (0, within)
        } else if within == w {
            (1, 0)
        } else if within == w + 1 {
            (2, 0)
        } else if within < 2 * w + 2 {
            (3, within - (w + 2))
        } else {
            (4, 0)
        };
        (phase, op, off)
    }

    fn my_id(&self) -> u64 {
        self.params.my_id
    }

    /// Ports leading to participants outside this node's fragment.
    fn cross_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, pi)| pi.participant && pi.fragment_id != self.tree.root_id)
            .map(|(p, _)| p as Port)
    }

    /// Minimum outgoing edge incident to this node.
    fn local_candidate(&self) -> Option<EdgeKey> {
        self.cross_ports()
            .map(|p| EdgeKey::new(self.my_id(), self.ports[p as usize].neighbor_id))
            .min()
    }

    /// Initial agenda (absolute local rounds) for an op, given current
    /// state. Further rounds may be added dynamically while the op runs.
    fn initial_agenda(&self, phase: u64, op: usize) -> Vec<Round> {
        let base = self.op_start(phase, op);
        let d = self.tree.depth;
        let mut v: Vec<Round> = Vec::new();
        match AWAKE_OPS[op] {
            AwakeOp::Decide => {
                if !self.tree.children_ports.is_empty() {
                    v.extend(self.wave.up_receive(d));
                }
                if self.tree.parent_port.is_some() {
                    // Whether to actually transmit is decided at send
                    // time (a node without any candidate stays silent,
                    // but it must still wake if its children may feed it
                    // one — handled by waking at up_send only when a
                    // candidate can exist).
                    v.extend(self.wave.up_send(d));
                    v.extend(self.wave.down_receive(d));
                }
                if self.tree.is_root() {
                    v.extend(self.wave.down_send(d)); // decision point
                } else if !self.tree.children_ports.is_empty() {
                    v.extend(self.wave.down_send(d)); // forward decision
                }
            }
            AwakeOp::Propose => {
                let is_owner = self.regs.propose_port.is_some();
                let may_receive = !self.regs.head && self.cross_ports().next().is_some();
                if (self.regs.head && is_owner) || may_receive {
                    v.push(0);
                }
            }
            AwakeOp::Accept => {
                if (!self.regs.head && !self.regs.proposals.is_empty())
                    || (self.regs.head && self.regs.propose_port.is_some())
                {
                    v.push(0);
                }
            }
            AwakeOp::Reroot => {
                if self.regs.head {
                    if self.regs.reroot_val.is_some() {
                        // Accepted proposer: start the up wave (if there
                        // is a path to reverse) and serve the down wave.
                        if self.tree.parent_port.is_some() {
                            v.extend(self.wave.up_send(d));
                        }
                        if !self.tree.children_ports.is_empty() {
                            v.extend(self.wave.down_send(d));
                        }
                    } else {
                        // Potential path/off-path node: listen on both
                        // waves; sends are scheduled dynamically.
                        if !self.tree.children_ports.is_empty() {
                            v.extend(self.wave.up_receive(d));
                        }
                        if self.tree.parent_port.is_some() {
                            v.extend(self.wave.down_receive(d));
                        }
                    }
                }
            }
            AwakeOp::Refresh => {
                if self.regs.id_changed || self.cross_ports().next().is_some() {
                    v.push(0);
                }
            }
        }
        let mut v: Vec<Round> = v.into_iter().map(|off| base + off).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Schedules one more wake in the current block (used for dynamic
    /// responses like "forward the re-root wave next round").
    fn push_agenda(&mut self, lr: Round) {
        if let Err(pos) = self.agenda.binary_search(&lr) {
            self.agenda.insert(pos, lr);
        }
    }

    /// Advances past the current op until an op with a nonempty agenda is
    /// found; returns the action to take from round `lr`.
    fn advance(&mut self, lr: Round) -> SubAction {
        loop {
            if self.finished {
                return SubAction::Done;
            }
            // Commit a pending re-root when leaving the Reroot op.
            if AWAKE_OPS[self.cur_op] == AwakeOp::Reroot {
                if let Some(next) = self.pending.take() {
                    self.regs.id_changed = next.root_id != self.tree.root_id;
                    if let Some(p) = next.parent_port {
                        // The new parent lies in the merged-into
                        // fragment (or on the reversed path): keep the
                        // port table consistent eagerly.
                        self.ports[p as usize].fragment_id = next.root_id;
                    }
                    self.tree = next;
                }
            }
            self.cur_op += 1;
            if self.cur_op == AWAKE_OPS.len() {
                self.cur_op = 0;
                self.cur_phase += 1;
                if self.cur_phase >= self.n_phases {
                    if std::env::var_os("LDT_MIS_DEBUG").is_some() {
                        eprintln!(
                            "ConstructAwake BUDGET-EXHAUSTED id={} tree={:?} ports={:?}",
                            self.params.my_id, self.tree, self.ports
                        );
                    }
                    self.finished = true;
                    self.ok = false; // budget exhausted without completion
                    self.phases_used = self.cur_phase;
                    return SubAction::Done;
                }
                // Fresh registers for the new phase.
                self.regs = Regs::default();
            }
            self.agenda = self.initial_agenda(self.cur_phase, self.cur_op);
            if let Some(&first) = self.agenda.first() {
                debug_assert!(first > lr, "agenda round {first} not after {lr}");
                return SubAction::SleepUntil(first);
            }
        }
    }

    /// Next action after handling round `lr`.
    fn next_action(&mut self, lr: Round) -> SubAction {
        if self.finished {
            return SubAction::Done;
        }
        if let Some(&next) = self.agenda.iter().find(|&&r| r > lr) {
            return SubAction::SleepUntil(next);
        }
        self.advance(lr)
    }

    fn fail(&mut self) -> SubAction {
        if std::env::var_os("LDT_MIS_DEBUG").is_some() {
            eprintln!(
                "ConstructAwake FAIL id={} phase={} op={} depth={} tree={:?}",
                self.params.my_id, self.cur_phase, self.cur_op, self.tree.depth, self.tree
            );
        }
        self.finished = true;
        self.ok = false;
        self.phases_used = self.cur_phase;
        SubAction::Done
    }

    fn complete(&mut self) -> SubAction {
        self.finished = true;
        self.ok = true;
        self.phases_used = self.cur_phase + 1;
        SubAction::Done
    }
}

impl SubProtocol for ConstructAwake {
    type Msg = ConstructMsg;
    type Output = LdtOutput;

    fn send(&mut self, lr: Round, ctx: &mut NodeCtx) -> Outbox<ConstructMsg> {
        if lr == 0 {
            return Outbox::Broadcast(ConstructMsg::Hello { id: self.my_id() });
        }
        if self.finished {
            return Outbox::Silent;
        }
        let (_, op, off) = self.locate(lr);
        let d = self.tree.depth;
        match AWAKE_OPS[op] {
            AwakeOp::Decide => {
                if Some(off) == self.wave.up_send(d) {
                    let best = min_edge(self.regs.up_acc, self.local_candidate());
                    match (best, self.tree.parent_port) {
                        (Some(e), Some(p)) => {
                            Outbox::Unicast(vec![(p, ConstructMsg::UpEdge(Some(e)))])
                        }
                        _ => Outbox::Silent, // silence encodes "no candidate"
                    }
                } else if Some(off) == self.wave.down_send(d) {
                    if self.tree.is_root() {
                        // Decision point: pick the fragment's minimum
                        // outgoing edge and flip the merge coin.
                        self.regs.chosen = min_edge(self.regs.up_acc, self.local_candidate());
                        self.regs.complete = self.regs.chosen.is_none();
                        self.regs.head = !self.regs.complete && ctx.rng.gen_bool(0.5);
                    }
                    if self.tree.children_ports.is_empty() {
                        Outbox::Silent
                    } else {
                        let msg = ConstructMsg::Decision {
                            chosen: self.regs.chosen,
                            head: self.regs.head,
                            done: self.regs.complete,
                        };
                        Outbox::Unicast(
                            self.tree
                                .children_ports
                                .iter()
                                .map(|&p| (p, msg.clone()))
                                .collect(),
                        )
                    }
                } else {
                    Outbox::Silent
                }
            }
            AwakeOp::Propose => match self.regs.propose_port {
                Some(p) if self.regs.head => Outbox::Unicast(vec![(
                    p,
                    ConstructMsg::Propose { fragment: self.tree.root_id },
                )]),
                _ => Outbox::Silent,
            },
            AwakeOp::Accept => {
                if !self.regs.head && !self.regs.proposals.is_empty() {
                    let msg = ConstructMsg::Accept {
                        root_id: self.tree.root_id,
                        attach_depth: self.tree.depth,
                    };
                    Outbox::Unicast(self.regs.proposals.iter().map(|&p| (p, msg.clone())).collect())
                } else {
                    Outbox::Silent
                }
            }
            AwakeOp::Reroot => {
                if Some(off) == self.wave.up_send(d) {
                    match (self.regs.reroot_val, self.tree.parent_port) {
                        (Some((nr, nd)), Some(p)) => Outbox::Unicast(vec![(
                            p,
                            ConstructMsg::RerootUp { new_root: nr, sender_new_depth: nd },
                        )]),
                        _ => Outbox::Silent,
                    }
                } else if Some(off) == self.wave.down_send(d) {
                    match &self.pending {
                        Some(t) if !self.tree.children_ports.is_empty() => {
                            let msg = ConstructMsg::Update {
                                new_root: t.root_id,
                                sender_new_depth: t.depth,
                            };
                            Outbox::Unicast(
                                self.tree
                                    .children_ports
                                    .iter()
                                    .map(|&p| (p, msg.clone()))
                                    .collect(),
                            )
                        }
                        _ => Outbox::Silent,
                    }
                } else {
                    Outbox::Silent
                }
            }
            AwakeOp::Refresh => {
                if self.regs.id_changed {
                    let live: Vec<(Port, ConstructMsg)> = self
                        .ports
                        .iter()
                        .enumerate()
                        .filter(|(_, pi)| pi.participant)
                        .map(|(p, _)| (p as Port, ConstructMsg::FragId { root_id: self.tree.root_id }))
                        .collect();
                    if live.is_empty() {
                        Outbox::Silent
                    } else {
                        Outbox::Unicast(live)
                    }
                } else {
                    Outbox::Silent
                }
            }
        }
    }

    fn receive(
        &mut self,
        lr: Round,
        ctx: &mut NodeCtx,
        inbox: &[(Port, ConstructMsg)],
    ) -> SubAction {
        if lr == 0 {
            self.ports = vec![PortInfo::unknown(); ctx.degree];
            let mut ids_seen = vec![self.my_id()];
            for &(p, ref m) in inbox {
                if let ConstructMsg::Hello { id } = m {
                    self.ports[p as usize] =
                        PortInfo { neighbor_id: *id, fragment_id: *id, participant: true };
                    ids_seen.push(*id);
                }
            }
            ids_seen.sort_unstable();
            if ids_seen.windows(2).any(|w| w[0] == w[1]) {
                return self.fail(); // duplicate IDs break edge ordering
            }
            if self.ports.iter().all(|pi| !pi.participant) {
                // Isolated participant: its singleton tree is the LDT.
                return self.complete();
            }
            self.agenda = self.initial_agenda(0, 0);
            self.cur_phase = 0;
            self.cur_op = 0;
            let first = self.agenda[0];
            return SubAction::SleepUntil(first);
        }

        if self.finished {
            return SubAction::Done;
        }
        let (_, op, off) = self.locate(lr);
        let d = self.tree.depth;
        match AWAKE_OPS[op] {
            AwakeOp::Decide => {
                if Some(off) == self.wave.up_receive(d) {
                    for (_, m) in inbox {
                        if let ConstructMsg::UpEdge(e) = m {
                            self.regs.up_acc = min_edge(self.regs.up_acc, *e);
                        }
                    }
                } else if Some(off) == self.wave.down_send(d) && self.tree.is_root() {
                    // Root: the decision (including the coin) was made in
                    // this round's send step.
                    if self.regs.complete {
                        return self.complete();
                    }
                    self.note_propose_port();
                } else if Some(off) == self.wave.down_receive(d) {
                    for (_, m) in inbox {
                        if let ConstructMsg::Decision { chosen, head, done } = m {
                            self.regs.chosen = *chosen;
                            self.regs.head = *head;
                            self.regs.complete = *done;
                        }
                    }
                    if self.regs.complete && self.tree.children_ports.is_empty() {
                        return self.complete();
                    }
                    self.note_propose_port();
                } else if Some(off) == self.wave.down_send(d) && !self.tree.is_root() {
                    // Forwarded the decision to children in `send`.
                    if self.regs.complete {
                        return self.complete();
                    }
                }
            }
            AwakeOp::Propose => {
                if !self.regs.head {
                    for (p, m) in inbox {
                        if matches!(m, ConstructMsg::Propose { .. }) {
                            self.regs.proposals.push(*p);
                        }
                    }
                }
            }
            AwakeOp::Accept => {
                if !self.regs.head && !self.regs.proposals.is_empty() {
                    // Adopt every proposer as a child; their subtrees
                    // join this fragment.
                    let props = std::mem::take(&mut self.regs.proposals);
                    for p in props {
                        self.tree.add_child(p);
                        self.ports[p as usize].fragment_id = self.tree.root_id;
                    }
                } else if self.regs.head {
                    for (p, m) in inbox {
                        if let ConstructMsg::Accept { root_id, attach_depth } = m {
                            debug_assert_eq!(Some(*p), self.regs.propose_port);
                            let mut children = self.tree.children_ports.clone();
                            if let Some(old_parent) = self.tree.parent_port {
                                push_sorted(&mut children, old_parent);
                            }
                            self.regs.reroot_val = Some((*root_id, attach_depth + 1));
                            self.pending = Some(TreeState {
                                root_id: *root_id,
                                depth: attach_depth + 1,
                                parent_port: Some(*p),
                                children_ports: children,
                            });
                        }
                    }
                }
            }
            AwakeOp::Reroot => {
                if Some(off) == self.wave.up_receive(d) {
                    for (p, m) in inbox {
                        if let ConstructMsg::RerootUp { new_root, sender_new_depth } = m {
                            let my_new = sender_new_depth + 1;
                            if my_new as u64 >= self.params.k as u64 {
                                return self.fail(); // exceeds depth budget
                            }
                            let mut children = self.tree.children_ports.clone();
                            remove_sorted(&mut children, *p);
                            if let Some(old_parent) = self.tree.parent_port {
                                push_sorted(&mut children, old_parent);
                            }
                            self.regs.reroot_val = Some((*new_root, my_new));
                            self.pending = Some(TreeState {
                                root_id: *new_root,
                                depth: my_new,
                                parent_port: Some(*p),
                                children_ports: children,
                            });
                            // Forward the up wave and serve the down wave.
                            let base = lr - off;
                            if self.tree.parent_port.is_some() {
                                if let Some(us) = self.wave.up_send(d) {
                                    self.push_agenda(base + us);
                                }
                            }
                            if !self.tree.children_ports.is_empty() {
                                if let Some(ds) = self.wave.down_send(d) {
                                    self.push_agenda(base + ds);
                                }
                            }
                        }
                    }
                } else if Some(off) == self.wave.down_receive(d) {
                    for (_, m) in inbox {
                        if let ConstructMsg::Update { new_root, sender_new_depth } = m {
                            if self.pending.is_none() {
                                let my_new = sender_new_depth + 1;
                                if my_new as u64 >= self.params.k as u64 {
                                    return self.fail();
                                }
                                self.pending = Some(TreeState {
                                    root_id: *new_root,
                                    depth: my_new,
                                    parent_port: self.tree.parent_port,
                                    children_ports: self.tree.children_ports.clone(),
                                });
                                if !self.tree.children_ports.is_empty() {
                                    let base = lr - off;
                                    if let Some(ds) = self.wave.down_send(d) {
                                        self.push_agenda(base + ds);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            AwakeOp::Refresh => {
                for (p, m) in inbox {
                    if let ConstructMsg::FragId { root_id } = m {
                        self.ports[*p as usize].fragment_id = *root_id;
                    }
                }
            }
        }
        self.next_action(lr)
    }

    fn output(&self) -> LdtOutput {
        assert!(self.finished, "construction output read before completion");
        LdtOutput {
            ok: self.ok,
            tree: self.tree.clone(),
            ports: self.ports.clone(),
            phases_used: self.phases_used,
        }
    }
}

impl ConstructAwake {
    /// After learning the phase decision, record whether this node owns
    /// the chosen edge (and on which port it would propose).
    fn note_propose_port(&mut self) {
        self.regs.propose_port = None;
        if let Some(e) = self.regs.chosen {
            if self.regs.head && e.touches(self.my_id()) {
                let other = if e.lo == self.my_id() { e.hi } else { e.lo };
                self.regs.propose_port = self
                    .ports
                    .iter()
                    .enumerate()
                    .find(|(_, pi)| pi.participant && pi.neighbor_id == other)
                    .map(|(p, _)| p as Port);
            }
        }
    }
}

fn min_edge(a: Option<EdgeKey>, b: Option<EdgeKey>) -> Option<EdgeKey> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn push_sorted(v: &mut Vec<Port>, x: Port) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

fn remove_sorted(v: &mut Vec<Port>, x: Port) {
    if let Ok(pos) = v.binary_search(&x) {
        v.remove(pos);
    }
}
