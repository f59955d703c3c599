//! LDT construction (paper §5.2 and Appendix A): one driver, two merge
//! rules.
//!
//! Builds a forest of labeled distance trees, one spanning tree per
//! connected component of the participating subgraph. Local round 0 is
//! the *hello round*: all participants exchange IDs, so every node learns
//! which ports lead to participants. Then fragments (initially
//! singletons) merge in phases. A phase is a fixed sequence of ops, each
//! a wave block of `2k + 1` rounds ([`WaveSchedule`]) or one side round:
//!
//! 1. **Decide** (wave) — convergecast the fragment's minimum outgoing
//!    edge to the root and scatter the root's decision back down. A
//!    fragment with no outgoing edge spans its component: its nodes
//!    finish.
//! 2. **Merge** — the merge rule's ops pick partners and attach
//!    fragments below one another.
//! 3. **Re-root** (wave) — each attached fragment re-roots at its
//!    attaching endpoint (reversing the path to its old root, up wave)
//!    and disseminates the new root ID and depths (down wave).
//! 4. **Refresh** (side round) — nodes whose fragment ID changed announce
//!    it so neighbors keep accurate cross-edge information.
//!
//! [`Construct`] is the driver: it owns the hello round, the phase clock
//! and wake agenda, the port table, the decide wave's schedule, the
//! re-root waves and the refresh round. [`LdtStrategy`] selects the merge
//! rule, which supplies the decide wave's messages and its own ops:
//!
//! * **Coin** ([`LdtStrategy::Awake`], `LDT-Construct-Awake`) — the root
//!   flips a fair coin with its decision; head fragments propose along
//!   their chosen edge and tail fragments accept. Every node is awake
//!   `O(1)` rounds per phase, and a constant fraction of fragments merge
//!   per phase in expectation, so `O(log n′)` phases suffice w.h.p. This
//!   matches the shape of Lemma 6 of the paper, which cites Theorem 4 of
//!   Augustine–Moses–Pandurangan for a deterministic construction; the
//!   randomized merging makes the bound hold w.h.p. instead, which the
//!   Monte Carlo guarantee of the surrounding MIS algorithm absorbs.
//! * **Matching** ([`LdtStrategy::Round`], `LDT-Construct-Round`,
//!   Appendix A.2) — deterministic: every fragment merges every phase,
//!   through a Cole–Vishkin coloring and a maximal matching of the
//!   fragment supergraph, so `⌈log₂ n′⌉ + 1` phases always suffice at
//!   `O(log* I)` awake rounds per phase (Lemmas 7 and 15). Its phase runs
//!   four re-root waves.
//!
//! Running out of the phase budget ([`LdtStrategy::phase_budget`]) is
//! reported as `ok = false` in the output (a Monte Carlo failure), never
//! as a hang. So is a late start: a node whose first call comes after
//! local round 0 missed the hello round, sends nothing and fails.

use crate::construct_awake::{self, CoinRule};
use crate::construct_round::{self, MatchingRule};
use crate::msg::ConstructMsg;
use crate::state::{EdgeKey, PortInfo, TreeState};
use crate::wave::WaveSchedule;
use graphgen::Port;
use sleeping_congest::{Action, Inbox, NodeCtx, Outbox, Round, SubProtocol};
use std::borrow::Cow;

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

/// Which merge rule a construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LdtStrategy {
    /// The coin rule: awake-efficient (`LDT-MIS`, Lemma 11 / Theorem 13).
    #[default]
    Awake,
    /// The matching rule: round-efficient and deterministic
    /// (`LDT-MIS-ROUND`, Corollary 12 / Corollary 14).
    Round,
}

impl LdtStrategy {
    /// Merge phases provisioned for components of at most `k` nodes.
    pub fn phase_budget(self, k: u32) -> u64 {
        // ⌈log₂ k⌉, at least 1.
        let log = 64 - (k.max(2) as u64 - 1).leading_zeros() as u64;
        match self {
            // Each phase removes a constant fraction of the fragments in
            // expectation: w.h.p. sufficient.
            LdtStrategy::Awake => 6 * log + 12,
            // The fragment count at least halves every phase.
            LdtStrategy::Round => log + 2,
        }
    }

    /// The ops of one phase, in execution order.
    fn ops(self, id_upper: u64) -> Cow<'static, [Op]> {
        match self {
            LdtStrategy::Awake => Cow::Borrowed(&construct_awake::OPS),
            LdtStrategy::Round => Cow::Owned(construct_round::ops(id_upper)),
        }
    }

    /// Total local-round budget of a construction for components of at
    /// most `k` nodes: the hello round plus all phases.
    pub fn round_budget(self, k: u32, id_upper: u64) -> Round {
        1 + self.phase_budget(k) * phase_len(&self.ops(id_upper), k)
    }
}

/// One op of a phase. The driver runs `Decide`'s schedule, `Reroot` and
/// `Refresh`; the merge rules run the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Wave: minimum outgoing edge up, the root's decision down.
    Decide,
    /// Wave: re-root the fragments that attached.
    Reroot,
    /// Side: refresh neighbor fragment IDs.
    Refresh,
    /// Coin, side: head fragments propose.
    Propose,
    /// Coin, side: tail fragments accept.
    Accept,
    /// Matching, side: mark chosen edges across cuts; detect core edges.
    Chosen,
    /// Matching, wave: determine whether this fragment roots its `T_i`.
    RootFlag,
    /// Matching, side: move parent colors down `T_i` edges.
    ParentColor,
    /// Matching, wave: apply one Cole–Vishkin step.
    Color,
    /// Matching, side: children report (matched, color) to parents.
    Status,
    /// Matching, wave: fragments of this color pick an unmatched child.
    Match(u8),
    /// Matching, side: tell the picked child it is matched.
    MatchInform,
    /// Matching, wave: disseminate "we got matched" inside the child
    /// fragment.
    GotMatched,
    /// Matching, wave: unmatched `T_i` roots pick a child to attach to.
    RootAttach,
    /// Matching, side: mark attach edges (F-edges) across cuts.
    Attach,
    /// Matching, side: exchange SDT minima across F-edges.
    SdtExchange,
    /// Matching, wave: fold SDT minima into the fragment register.
    SdtMin,
    /// Matching, side: merged fragments announce (depth, core) over
    /// F-edges.
    Merged,
    /// Matching, side: attaching endpoints acknowledge, so the merged
    /// side adopts them as children.
    MergeAck,
}

impl Op {
    pub(crate) fn is_wave(self) -> bool {
        matches!(
            self,
            Op::Decide
                | Op::Reroot
                | Op::RootFlag
                | Op::Color
                | Op::Match(_)
                | Op::GotMatched
                | Op::RootAttach
                | Op::SdtMin
        )
    }

    /// Rounds the op takes for trees of at most `k` nodes.
    fn len(self, k: u32) -> Round {
        if self.is_wave() {
            2 * k as Round + 1
        } else {
            1
        }
    }
}

fn phase_len(ops: &[Op], k: u32) -> Round {
    ops.iter().map(|op| op.len(k)).sum()
}

/// How fragments pick their merge partners: everything a strategy adds to
/// the driver.
pub(crate) trait MergeRule {
    /// Clears the rule's per-phase registers.
    fn begin_phase(&mut self, d: &Driver);
    /// Wakes (local rounds) of the rule's own op `op`, which starts at
    /// local round `base`.
    fn enter(&mut self, d: &Driver, op: Op, base: Round) -> Vec<Round>;
    /// Sends of the decide wave and of the rule's own ops, `off` rounds
    /// into `op`.
    fn send(&mut self, d: &Driver, op: Op, off: Round, ctx: &mut NodeCtx) -> Outbox<ConstructMsg>;
    /// Receives of the decide wave and of the rule's own ops.
    fn receive(&mut self, d: &mut Driver, op: Op, off: Round, inbox: &dyn Inbox<ConstructMsg>);
    /// Whether this node's fragment may re-root in the current re-root
    /// wave.
    fn may_reroot(&self, d: &Driver) -> bool;
}

#[derive(Debug, Clone)]
enum Rule {
    Coin(CoinRule),
    Matching(MatchingRule),
}

impl Rule {
    fn get(&mut self) -> &mut dyn MergeRule {
        match self {
            Rule::Coin(r) => r,
            Rule::Matching(r) => r,
        }
    }
}

/// A node's state that every merge rule shares: its tree and port table,
/// the phase clock and the wake agenda.
#[derive(Debug, Clone)]
pub(crate) struct Driver {
    pub(crate) params: ConstructParams,
    pub(crate) wave: WaveSchedule,
    ops: Cow<'static, [Op]>,
    n_phases: u64,
    phase_len: Round,
    pub(crate) tree: TreeState,
    /// Tree state to adopt once the current re-root wave has fully used
    /// the *old* tree for scheduling (committed when leaving the re-root
    /// block).
    pub(crate) pending: Option<TreeState>,
    pub(crate) ports: Vec<PortInfo>,
    /// Re-root wave joined this phase: `(new_root, my_new_depth)`.
    pub(crate) reroot_val: Option<(u64, u32)>,
    /// Whether this node's fragment ID changed this phase.
    id_changed: bool,
    agenda: Vec<Round>,
    cur_phase: u64,
    cur_op: usize,
    /// Local round where the current op starts.
    op_start: Round,
    finished: bool,
    ok: bool,
    phases_used: u64,
}

impl Driver {
    pub(crate) fn my_id(&self) -> u64 {
        self.params.my_id
    }

    fn op(&self) -> Op {
        self.ops[self.cur_op]
    }

    /// The current op and the offset of local round `lr` in it: a node
    /// wakes only inside its current op.
    fn locate(&self, lr: Round) -> (Op, Round) {
        let op = self.op();
        debug_assert!(
            lr >= self.op_start && lr - self.op_start < op.len(self.params.k),
            "round {lr} outside the current op {op:?} at {}",
            self.op_start
        );
        (op, lr - self.op_start)
    }

    /// Ports leading to participants outside this node's fragment.
    pub(crate) fn cross_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, pi)| pi.participant && pi.fragment_id != self.tree.root_id)
            .map(|(p, _)| p as Port)
    }

    /// Minimum outgoing edge incident to this node.
    pub(crate) fn local_candidate(&self) -> Option<EdgeKey> {
        self.cross_ports().map(|p| self.edge_on(p)).min()
    }

    /// The edge behind port `p`.
    pub(crate) fn edge_on(&self, p: Port) -> EdgeKey {
        EdgeKey::new(self.my_id(), self.ports[p as usize].neighbor_id)
    }

    /// This node's port on edge `e`, if it is an endpoint.
    pub(crate) fn port_of_edge(&self, e: EdgeKey) -> Option<Port> {
        if !e.touches(self.my_id()) {
            return None;
        }
        let other = if e.lo == self.my_id() { e.hi } else { e.lo };
        let p = self.ports.iter().position(|pi| pi.participant && pi.neighbor_id == other)?;
        Some(p as Port)
    }

    /// `msg` to every child.
    pub(crate) fn to_children(&self, msg: ConstructMsg) -> Outbox<ConstructMsg> {
        unicast(self.tree.children_ports.iter().map(|&p| (p, msg.clone())))
    }

    /// Wakes of a full-fragment wave starting at local round `base`:
    /// gather at the root, then scatter.
    pub(crate) fn wave_agenda(&self, base: Round) -> Vec<Round> {
        let (w, d) = (self.wave, self.tree.depth);
        let mut v = Vec::new();
        if !self.tree.is_leaf() {
            v.extend(w.up_receive(d));
        }
        if !self.tree.is_root() {
            v.extend(w.up_send(d));
            v.extend(w.down_receive(d));
        }
        if self.tree.is_root() || !self.tree.is_leaf() {
            v.extend(w.down_send(d));
        }
        at(base, v)
    }

    /// Schedules one more wake in the current op.
    fn push_agenda(&mut self, lr: Round) {
        if let Err(pos) = self.agenda.binary_search(&lr) {
            self.agenda.insert(pos, lr);
        }
    }

    /// Joins this phase's re-root wave: the node will hang below `parent`
    /// at `depth` in fragment `new_root`, with `children_ports` and its
    /// old parent as children.
    pub(crate) fn begin_reroot(
        &mut self,
        parent: Port,
        new_root: u64,
        depth: u32,
        mut children_ports: Vec<Port>,
    ) {
        if let Some(old_parent) = self.tree.parent_port {
            push_sorted(&mut children_ports, old_parent);
        }
        self.reroot_val = Some((new_root, depth));
        self.pending =
            Some(TreeState { root_id: new_root, depth, parent_port: Some(parent), children_ports });
    }

    /// Wakes of a re-root wave starting at local round `base`, for a node
    /// whose fragment may re-root.
    fn reroot_agenda(&self, base: Round) -> Vec<Round> {
        let (w, d) = (self.wave, self.tree.depth);
        let mut v = Vec::new();
        if self.reroot_val.is_some() {
            // Attached: start the up wave (if there is a path to reverse)
            // and serve the down wave.
            if !self.tree.is_root() {
                v.extend(w.up_send(d));
            }
            if !self.tree.is_leaf() {
                v.extend(w.down_send(d));
            }
        } else {
            // Potential path/off-path node: listen on both waves; sends
            // are scheduled as the waves arrive.
            if !self.tree.is_leaf() {
                v.extend(w.up_receive(d));
            }
            if !self.tree.is_root() {
                v.extend(w.down_receive(d));
            }
        }
        at(base, v)
    }

    fn reroot_send(&self, off: Round) -> Outbox<ConstructMsg> {
        let d = self.tree.depth;
        if Some(off) == self.wave.up_send(d) {
            match (self.reroot_val, self.tree.parent_port) {
                (Some((new_root, depth)), Some(p)) => Outbox::Unicast(vec![(
                    p,
                    ConstructMsg::RerootUp { new_root, sender_new_depth: depth },
                )]),
                _ => Outbox::Silent,
            }
        } else if Some(off) == self.wave.down_send(d) {
            match &self.pending {
                Some(t) => self.to_children(ConstructMsg::Update {
                    new_root: t.root_id,
                    sender_new_depth: t.depth,
                }),
                None => Outbox::Silent,
            }
        } else {
            Outbox::Silent
        }
    }

    fn reroot_receive(&mut self, lr: Round, off: Round, inbox: &dyn Inbox<ConstructMsg>) {
        let d = self.tree.depth;
        let base = lr - off;
        if Some(off) == self.wave.up_receive(d) {
            for (p, m) in inbox.iter() {
                if let ConstructMsg::RerootUp { new_root, sender_new_depth } = *m {
                    let depth = sender_new_depth + 1;
                    if depth >= self.params.k {
                        return self.fail(); // exceeds the depth budget
                    }
                    let mut children = self.tree.children_ports.clone();
                    remove_sorted(&mut children, p);
                    self.begin_reroot(p, new_root, depth, children);
                    // Forward the up wave and serve the down wave.
                    if !self.tree.is_root() {
                        if let Some(us) = self.wave.up_send(d) {
                            self.push_agenda(base + us);
                        }
                    }
                    if !self.tree.is_leaf() {
                        if let Some(ds) = self.wave.down_send(d) {
                            self.push_agenda(base + ds);
                        }
                    }
                }
            }
        } else if Some(off) == self.wave.down_receive(d) {
            for (_, m) in inbox.iter() {
                if let ConstructMsg::Update { new_root, sender_new_depth } = *m {
                    if self.pending.is_none() {
                        let depth = sender_new_depth + 1;
                        if depth >= self.params.k {
                            return self.fail();
                        }
                        self.pending = Some(TreeState {
                            root_id: new_root,
                            depth,
                            parent_port: self.tree.parent_port,
                            children_ports: self.tree.children_ports.clone(),
                        });
                        if !self.tree.is_leaf() {
                            if let Some(ds) = self.wave.down_send(d) {
                                self.push_agenda(base + ds);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Adopts the tree a re-root wave left pending.
    fn commit_reroot(&mut self) {
        if let Some(next) = self.pending.take() {
            self.id_changed = next.root_id != self.tree.root_id;
            if let Some(p) = next.parent_port {
                // The new parent lies in the merged-into fragment (or on
                // the reversed path): keep the port table consistent
                // eagerly.
                self.ports[p as usize].fragment_id = next.root_id;
            }
            self.tree = next;
            self.reroot_val = None;
        }
    }


    fn refresh_send(&self) -> Outbox<ConstructMsg> {
        if !self.id_changed {
            return Outbox::Silent;
        }
        let msg = ConstructMsg::FragId { root_id: self.tree.root_id };
        unicast(
            self.ports
                .iter()
                .enumerate()
                .filter(|(_, pi)| pi.participant)
                .map(|(p, _)| (p as Port, msg.clone())),
        )
    }

    fn refresh_receive(&mut self, inbox: &dyn Inbox<ConstructMsg>) {
        for (p, m) in inbox.iter() {
            if let ConstructMsg::FragId { root_id } = *m {
                self.ports[p as usize].fragment_id = root_id;
            }
        }
    }

    pub(crate) fn fail(&mut self) {
        self.finished = true;
        self.ok = false;
        self.phases_used = self.cur_phase;
    }

    pub(crate) fn complete(&mut self) {
        self.finished = true;
        self.ok = true;
        self.phases_used = self.cur_phase + 1;
    }
}

/// The `LDT-Construct-Awake` / `LDT-Construct-Round` subprotocol (one
/// instance per node): the driver plus the strategy's merge rule.
#[derive(Debug, Clone)]
pub struct Construct {
    driver: Driver,
    rule: Rule,
}

impl Construct {
    /// Creates the subprotocol for one node.
    ///
    /// # Panics
    ///
    /// Panics if `params.k == 0` or `params.my_id` is not in
    /// `[1, id_upper]`.
    pub fn new(params: ConstructParams, strategy: LdtStrategy) -> Construct {
        assert!(params.k >= 1, "component bound k must be >= 1");
        assert!(
            params.my_id >= 1 && params.my_id <= params.id_upper,
            "id {} outside [1, {}]",
            params.my_id,
            params.id_upper
        );
        let ops = strategy.ops(params.id_upper);
        let rule = match strategy {
            LdtStrategy::Awake => Rule::Coin(CoinRule::default()),
            LdtStrategy::Round => Rule::Matching(MatchingRule::default()),
        };
        let driver = Driver {
            params,
            wave: WaveSchedule::new(params.k),
            n_phases: strategy.phase_budget(params.k),
            phase_len: phase_len(&ops, params.k),
            ops,
            tree: TreeState::singleton(params.my_id),
            pending: None,
            ports: Vec::new(),
            reroot_val: None,
            id_changed: false,
            agenda: Vec::new(),
            cur_phase: 0,
            cur_op: 0,
            op_start: 1,
            // Failed until the hello round reopens it: a node whose first
            // call comes after local round 0 builds no tree.
            finished: true,
            ok: false,
            phases_used: 0,
        };
        Construct { driver, rule }
    }

    /// Rounds in one phase.
    pub fn phase_len(&self) -> Round {
        self.driver.phase_len
    }

    /// Local round 0: learn which ports lead to participants.
    fn hello(&mut self, degree: usize, inbox: &dyn Inbox<ConstructMsg>) -> Action {
        let d = &mut self.driver;
        d.finished = false;
        d.ports = vec![PortInfo::unknown(); degree];
        let mut ids_seen = vec![d.my_id()];
        for (p, m) in inbox.iter() {
            if let ConstructMsg::Hello { id } = *m {
                d.ports[p as usize] = PortInfo { neighbor_id: id, fragment_id: id, participant: true };
                ids_seen.push(id);
            }
        }
        ids_seen.sort_unstable();
        if ids_seen.windows(2).any(|w| w[0] == w[1]) {
            d.fail(); // duplicate IDs break edge ordering
        } else if d.ports.iter().all(|pi| !pi.participant) {
            d.complete(); // isolated participant: its singleton tree is the LDT
        } else {
            self.rule.get().begin_phase(d);
            d.agenda = d.wave_agenda(d.op_start);
        }
        self.next_action(0)
    }

    /// Next action after handling round `lr`.
    fn next_action(&mut self, lr: Round) -> Action {
        if self.driver.finished {
            return Action::Terminate;
        }
        if let Some(&next) = self.driver.agenda.iter().find(|&&r| r > lr) {
            return Action::SleepUntil(next);
        }
        self.advance(lr)
    }

    /// Advances past the current op until an op with a nonempty agenda is
    /// found; returns the action to take from round `lr`.
    fn advance(&mut self, lr: Round) -> Action {
        let d = &mut self.driver;
        let rule = self.rule.get();
        loop {
            if d.op() == Op::Reroot {
                d.commit_reroot();
            }
            d.op_start += d.op().len(d.params.k);
            d.cur_op += 1;
            if d.cur_op == d.ops.len() {
                d.cur_op = 0;
                d.cur_phase += 1;
                if d.cur_phase >= d.n_phases {
                    d.fail(); // budget exhausted without completion
                    return Action::Terminate;
                }
                d.reroot_val = None;
                d.id_changed = false;
                rule.begin_phase(d);
            }
            let base = d.op_start;
            d.agenda = match d.op() {
                Op::Decide => d.wave_agenda(base),
                Op::Reroot if rule.may_reroot(d) => d.reroot_agenda(base),
                Op::Reroot => Vec::new(),
                Op::Refresh => side(base, d.id_changed || d.cross_ports().next().is_some()),
                op => rule.enter(d, op, base),
            };
            if let Some(&first) = d.agenda.first() {
                debug_assert!(first > lr, "agenda round {first} not after {lr}");
                return Action::SleepUntil(first);
            }
        }
    }
}

impl SubProtocol for Construct {
    type Msg = ConstructMsg;
    type Output = LdtOutput;

    fn send(&mut self, lr: Round, ctx: &mut NodeCtx) -> Outbox<ConstructMsg> {
        let d = &self.driver;
        if lr == 0 {
            return Outbox::Broadcast(ConstructMsg::Hello { id: d.my_id() });
        }
        if d.finished {
            return Outbox::Silent;
        }
        match d.locate(lr) {
            (Op::Reroot, off) => d.reroot_send(off),
            (Op::Refresh, _) => d.refresh_send(),
            (op, off) => self.rule.get().send(d, op, off, ctx),
        }
    }

    fn receive(&mut self, lr: Round, ctx: &mut NodeCtx, inbox: &dyn Inbox<ConstructMsg>) -> Action {
        if lr == 0 {
            return self.hello(ctx.degree, inbox);
        }
        let d = &mut self.driver;
        if d.finished {
            return Action::Terminate;
        }
        match d.locate(lr) {
            (Op::Reroot, off) => d.reroot_receive(lr, off, inbox),
            (Op::Refresh, _) => d.refresh_receive(inbox),
            (op, off) => self.rule.get().receive(d, op, off, inbox),
        }
        self.next_action(lr)
    }

    fn output(&self) -> LdtOutput {
        let d = &self.driver;
        assert!(d.finished, "construction output read before completion");
        LdtOutput { ok: d.ok, tree: d.tree.clone(), ports: d.ports.clone(), phases_used: d.phases_used }
    }
}

/// Wakes of a side round at local round `base`: that round if `awake`.
pub(crate) fn side(base: Round, awake: bool) -> Vec<Round> {
    if awake {
        vec![base]
    } else {
        Vec::new()
    }
}

/// Local rounds `base + off` of the wave offsets `offs`, which ascend.
fn at(base: Round, mut offs: Vec<Round>) -> Vec<Round> {
    debug_assert!(offs.windows(2).all(|w| w[0] < w[1]), "offsets {offs:?} do not ascend");
    for off in &mut offs {
        *off += base;
    }
    offs
}

/// A unicast on `msgs`, or silence when there are none.
pub(crate) fn unicast(msgs: impl Iterator<Item = (Port, ConstructMsg)>) -> Outbox<ConstructMsg> {
    let v: Vec<_> = msgs.collect();
    if v.is_empty() {
        Outbox::Silent
    } else {
        Outbox::Unicast(v)
    }
}

pub(crate) fn min_edge(a: Option<EdgeKey>, b: Option<EdgeKey>) -> Option<EdgeKey> {
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
