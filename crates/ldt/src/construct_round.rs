//! The matching merge rule of `LDT-Construct-Round` (paper Appendix A.2,
//! [`LdtStrategy::Round`](crate::LdtStrategy::Round)).
//!
//! Unlike the coin rule, merging is **deterministic**: every phase
//! *every* fragment merges with at least one other (so `⌈log₂ n′⌉ + 1`
//! phases always suffice), at the price of an `O(log* I)` factor in awake
//! complexity from simulating a Cole–Vishkin coloring of the fragment
//! supergraph.
//!
//! After the decide wave, each phase follows the paper's three stages:
//!
//! 1. **Stage 1** — every fragment marks its minimum outgoing edge across
//!    the cut (side round) and detects *core edges* (edges chosen from
//!    both sides). The smaller-ID fragment of each core edge is the root
//!    of its supergraph tree `T_i`.
//! 2. **Stage 2** — the fragments of each `T_i` 6-color themselves with
//!    Cole–Vishkin steps (each step: a side round moving parent colors
//!    across edges plus a wave updating the fragment color), compute a
//!    maximal matching in 6 color-indexed subphases, and unmatched
//!    fragments attach to their parent (the root attaches to a child).
//!    The matched/attach edges form a forest of small-depth trees (SDTs,
//!    diameter ≤ 4).
//! 3. **Stage 3** — each SDT elects its minimum fragment ID as the core
//!    (5 side+wave iterations cover diameter 4), then merges onto the
//!    core in 4 rounds of announce, acknowledge and re-root wave.
//!
//! Every node is awake `O(log* I)` rounds per phase, giving
//! `O(log n′ · log* I)` awake complexity and `O(n′ log n′ log* I)` round
//! complexity — the shape of paper Lemma 7 / Lemma 15.

use crate::construct::{min_edge, side, unicast, Driver, MergeRule, Op};
use crate::msg::ConstructMsg;
use crate::state::EdgeKey;
use graphgen::Port;
use sleeping_congest::{NodeCtx, Outbox, Round};

/// Number of Cole–Vishkin iterations needed to reach 6 colors starting
/// from colors below `2^initial_bits`.
fn cv_iterations(initial_bits: u32) -> u32 {
    let mut max_color: u64 = if initial_bits >= 64 { u64::MAX } else { (1u64 << initial_bits) - 1 };
    let mut iters = 0;
    while max_color > 5 {
        let bits = 64 - max_color.leading_zeros() as u64;
        max_color = 2 * (bits - 1) + 1;
        iters += 1;
    }
    iters
}

/// One Cole–Vishkin color-reduction step: the index of the lowest bit
/// where `own` and `parent` differ, shifted up, plus that bit of `own`.
fn cv_step(own: u64, parent: u64) -> u64 {
    let idx = (own ^ parent).trailing_zeros().min(63) as u64;
    2 * idx + ((own >> idx) & 1)
}

/// The ops of one phase for IDs in `[1, id_upper]`.
pub(crate) fn ops(id_upper: u64) -> Vec<Op> {
    build_ops(cv_iterations(64 - id_upper.leading_zeros()))
}

fn build_ops(cv_iters: u32) -> Vec<Op> {
    let mut ops = vec![Op::Decide, Op::Chosen, Op::RootFlag];
    for _ in 0..cv_iters {
        ops.extend([Op::ParentColor, Op::Color]);
    }
    for c in 0..6u8 {
        ops.extend([Op::Status, Op::Match(c), Op::MatchInform, Op::GotMatched]);
    }
    ops.extend([Op::RootAttach, Op::Attach]);
    for _ in 0..5 {
        ops.extend([Op::SdtExchange, Op::SdtMin]);
    }
    for _ in 0..4 {
        ops.extend([Op::Merged, Op::MergeAck, Op::Reroot]);
    }
    ops.push(Op::Refresh);
    ops
}

/// Per-phase registers of the matching rule.
#[derive(Debug, Clone, Default)]
pub(crate) struct MatchingRule {
    up_edge: Option<EdgeKey>,
    up_val: Option<u64>,
    up_flag: bool,
    chosen: Option<EdgeKey>,
    complete: bool,
    owner_port: Option<Port>,
    core_root_candidate: bool,
    is_ti_root: bool,
    color: u64,
    parent_color: Option<u64>,
    matched: bool,
    child_status: Vec<(Port, bool)>, // unmatched child ports this subphase
    hold_match_edge: Option<Port>,   // child port my fragment matched/attached through
    got_matched: bool,
    sdt_min: u64,
    side_min_heard: Option<u64>,
    child_edge: Vec<bool>,
    f_edge: Vec<bool>,
}

impl MatchingRule {
    fn child_edge_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.child_edge.iter().enumerate().filter(|(_, &b)| b).map(|(p, _)| p as Port)
    }

    fn f_edge_ports(&self) -> impl Iterator<Item = Port> + '_ {
        self.f_edge.iter().enumerate().filter(|(_, &b)| b).map(|(p, _)| p as Port)
    }

    fn merged(&self, d: &Driver) -> bool {
        d.tree.root_id == self.sdt_min
    }

    /// Handles the up/down rounds of a full-fragment wave, with
    /// op-specific combine/decide/apply steps.
    fn wave_send(&mut self, d: &Driver, op: Op, off: Round) -> Outbox<ConstructMsg> {
        let depth = d.tree.depth;
        if Some(off) == d.wave.up_send(depth) {
            let p = d.tree.parent_port.expect("up_send implies parent");
            let msg = match op {
                Op::Decide => ConstructMsg::UpEdge(min_edge(self.up_edge, d.local_candidate())),
                Op::RootFlag => ConstructMsg::UpFlag(self.up_flag || self.core_root_candidate),
                Op::Color => ConstructMsg::UpValue(min_val(self.up_val, self.parent_color)),
                Op::Match(_) => {
                    ConstructMsg::UpEdge(min_edge(self.up_edge, self.local_match_candidate(d)))
                }
                Op::GotMatched => ConstructMsg::UpFlag(self.up_flag || self.got_matched),
                Op::RootAttach => {
                    ConstructMsg::UpEdge(min_edge(self.up_edge, self.local_attach_candidate(d)))
                }
                Op::SdtMin => ConstructMsg::UpValue(min_val(self.up_val, self.side_min_heard)),
                _ => unreachable!("{op:?} is not a matching wave"),
            };
            Outbox::Unicast(vec![(p, msg)])
        } else if Some(off) == d.wave.down_send(depth) {
            if d.tree.is_root() {
                self.decide(d, op);
            }
            d.to_children(match op {
                Op::Decide => {
                    ConstructMsg::Decision { chosen: self.chosen, head: false, done: self.complete }
                }
                Op::RootFlag => ConstructMsg::DownFlag(self.is_ti_root),
                Op::Color => ConstructMsg::DownValue(self.color),
                Op::Match(_) | Op::RootAttach => ConstructMsg::DownEdge(self.up_edge),
                Op::GotMatched => ConstructMsg::DownFlag(self.matched),
                Op::SdtMin => ConstructMsg::DownValue(self.sdt_min),
                _ => unreachable!("{op:?} is not a matching wave"),
            })
        } else {
            Outbox::Silent
        }
    }

    /// Root-side decision once the up wave has arrived.
    fn decide(&mut self, d: &Driver, op: Op) {
        match op {
            Op::Decide => {
                self.chosen = min_edge(self.up_edge, d.local_candidate());
                self.complete = self.chosen.is_none();
            }
            Op::RootFlag => {
                self.is_ti_root = self.up_flag || self.core_root_candidate;
            }
            Op::Color => {
                let parent = min_val(self.up_val, self.parent_color);
                let pc = match parent {
                    Some(c) if !self.is_ti_root => c,
                    _ => self.color ^ 1,
                };
                self.color = cv_step(self.color, pc);
            }
            Op::Match(_) => {
                self.up_edge = min_edge(self.up_edge, self.local_match_candidate(d));
                if self.up_edge.is_some() {
                    self.matched = true;
                }
            }
            Op::GotMatched if (self.up_flag || self.got_matched) => {
                self.matched = true;
            }
            Op::RootAttach => {
                self.up_edge = min_edge(self.up_edge, self.local_attach_candidate(d));
            }
            Op::SdtMin => {
                self.sdt_min =
                    min_val(Some(self.sdt_min), min_val(self.up_val, self.side_min_heard))
                        .expect("sdt_min always set");
            }
            _ => {}
        }
    }

    /// Candidate edge for the matching wave: my smallest child edge
    /// leading to an unmatched child fragment.
    fn local_match_candidate(&self, d: &Driver) -> Option<EdgeKey> {
        self.child_status
            .iter()
            .filter(|&&(_, unmatched)| unmatched)
            .map(|&(p, _)| d.edge_on(p))
            .min()
    }

    /// Candidate edge for the root-attach wave: my smallest child edge.
    fn local_attach_candidate(&self, d: &Driver) -> Option<EdgeKey> {
        self.child_edge_ports().map(|p| d.edge_on(p)).min()
    }

    fn wave_receive(&mut self, d: &mut Driver, op: Op, off: Round, inbox: &[(Port, ConstructMsg)]) {
        let depth = d.tree.depth;
        if Some(off) == d.wave.up_receive(depth) {
            for (_, m) in inbox {
                match *m {
                    ConstructMsg::UpEdge(e) => self.up_edge = min_edge(self.up_edge, e),
                    ConstructMsg::UpValue(v) => self.up_val = min_val(self.up_val, v),
                    ConstructMsg::UpFlag(f) => self.up_flag |= f,
                    _ => {}
                }
            }
        } else if Some(off) == d.wave.down_receive(depth) {
            for (_, m) in inbox {
                match *m {
                    ConstructMsg::Decision { chosen, done, .. } => {
                        self.chosen = chosen;
                        self.complete = done;
                    }
                    ConstructMsg::DownFlag(f) => match op {
                        Op::RootFlag => self.is_ti_root = f,
                        Op::GotMatched => self.matched |= f,
                        _ => {}
                    },
                    ConstructMsg::DownValue(v) => match op {
                        Op::Color => self.color = v,
                        Op::SdtMin => self.sdt_min = v,
                        _ => {}
                    },
                    ConstructMsg::DownEdge(e) => {
                        self.up_edge = e; // reuse register for the choice
                        if e.is_some() && matches!(op, Op::Match(_)) {
                            self.matched = true;
                        }
                    }
                    _ => {}
                }
            }
            if d.tree.is_leaf() {
                self.apply_down(d, op);
            }
        } else if Some(off) == d.wave.down_send(depth) {
            // This round's send step decided (at the root) or forwarded
            // the down-wave value.
            self.apply_down(d, op);
        }
    }

    /// Op-specific bookkeeping once this node has both learned and
    /// forwarded the down-wave value.
    fn apply_down(&mut self, d: &mut Driver, op: Op) {
        match op {
            Op::Decide => {
                if self.complete {
                    return d.complete();
                }
                self.owner_port = self.chosen.and_then(|e| d.port_of_edge(e));
            }
            Op::Match(_) | Op::RootAttach => {
                if let Some(p) = self.up_edge.and_then(|e| d.port_of_edge(e)) {
                    if self.child_edge[p as usize] {
                        self.hold_match_edge = Some(p);
                        self.f_edge[p as usize] = true;
                    }
                }
            }
            Op::SdtMin => self.side_min_heard = None,
            Op::Color => self.parent_color = None,
            _ => {}
        }
        // Clear one-shot up registers for the next wave of the phase.
        self.up_edge = None;
        self.up_val = None;
        self.up_flag = false;
    }
}

impl MergeRule for MatchingRule {
    fn begin_phase(&mut self, d: &Driver) {
        let deg = d.ports.len();
        *self = MatchingRule {
            color: d.tree.root_id,
            sdt_min: d.tree.root_id,
            child_edge: vec![false; deg],
            f_edge: vec![false; deg],
            ..MatchingRule::default()
        };
    }

    fn enter(&mut self, d: &Driver, op: Op, base: Round) -> Vec<Round> {
        let wave = |awake: bool| if awake { d.wave_agenda(base) } else { Vec::new() };
        match op {
            Op::RootFlag | Op::Color | Op::SdtMin => wave(true),
            Op::Match(c) => wave(self.color == c as u64 && !self.matched && !self.complete),
            Op::GotMatched => wave(!self.matched),
            Op::RootAttach => wave(self.is_ti_root && !self.matched),
            Op::Chosen => {
                side(base, self.owner_port.is_some() || d.cross_ports().next().is_some())
            }
            Op::ParentColor | Op::Status => {
                if op == Op::Status {
                    // New matching subphase: one-shot registers start clean.
                    self.up_edge = None;
                    self.up_val = None;
                    self.up_flag = false;
                    self.got_matched = false;
                    self.hold_match_edge = None;
                    self.child_status.clear();
                }
                // A fragment and its parent in `T_i` exchange colors and
                // statuses over the fragment's chosen edge.
                let has_parent = self.owner_port.is_some() && !self.is_ti_root;
                side(base, has_parent || self.child_edge_ports().next().is_some())
            }
            Op::MatchInform => {
                let listens = self.owner_port.is_some() && !self.matched;
                side(base, self.hold_match_edge.is_some() || listens)
            }
            Op::Attach => {
                let attach_up = !self.matched && !self.is_ti_root && self.owner_port.is_some();
                let sends = attach_up || self.hold_match_edge.is_some();
                side(base, sends || d.cross_ports().next().is_some())
            }
            Op::SdtExchange | Op::Merged => side(base, self.f_edge_ports().next().is_some()),
            Op::MergeAck => {
                let listens = self.merged(d) && self.f_edge_ports().next().is_some();
                side(base, d.reroot_val.is_some() || listens)
            }
            _ => unreachable!("{op:?} is not a matching op"),
        }
    }

    fn send(&mut self, d: &Driver, op: Op, off: Round, _: &mut NodeCtx) -> Outbox<ConstructMsg> {
        match op {
            _ if op.is_wave() => self.wave_send(d, op, off),
            Op::Chosen => match self.owner_port {
                Some(p) => {
                    Outbox::Unicast(vec![(p, ConstructMsg::Chosen { fragment: d.tree.root_id })])
                }
                None => Outbox::Silent,
            },
            Op::ParentColor => {
                let msg = ConstructMsg::Color { color: self.color };
                unicast(self.child_edge_ports().map(|p| (p, msg.clone())))
            }
            Op::Status => match self.owner_port {
                Some(p) if !self.is_ti_root => Outbox::Unicast(vec![(
                    p,
                    ConstructMsg::Status { matched: self.matched, color: self.color },
                )]),
                _ => Outbox::Silent,
            },
            Op::MatchInform => match self.hold_match_edge {
                Some(p) if self.matched => Outbox::Unicast(vec![(p, ConstructMsg::MatchInform)]),
                _ => Outbox::Silent,
            },
            Op::Attach => {
                // An unmatched fragment attaches up its chosen edge; an
                // unmatched `T_i` root attaches to the child it picked.
                let port = if self.matched {
                    None
                } else if self.is_ti_root {
                    self.hold_match_edge
                } else {
                    self.owner_port
                };
                match port {
                    Some(p) => Outbox::Unicast(vec![(p, ConstructMsg::Attach)]),
                    None => Outbox::Silent,
                }
            }
            Op::SdtExchange => {
                let msg = ConstructMsg::SdtMin { min_id: self.sdt_min };
                unicast(self.f_edge_ports().map(|p| (p, msg.clone())))
            }
            Op::Merged if self.merged(d) => {
                let msg = ConstructMsg::Merged { depth: d.tree.depth, core: self.sdt_min };
                unicast(self.f_edge_ports().map(|p| (p, msg.clone())))
            }
            Op::MergeAck => match (d.reroot_val, &d.pending) {
                (Some(_), Some(t)) => Outbox::Unicast(vec![(
                    t.parent_port.expect("merge attaches below a parent"),
                    ConstructMsg::MergeAck,
                )]),
                _ => Outbox::Silent,
            },
            _ => Outbox::Silent,
        }
    }

    fn receive(&mut self, d: &mut Driver, op: Op, off: Round, inbox: &[(Port, ConstructMsg)]) {
        match op {
            _ if op.is_wave() => self.wave_receive(d, op, off, inbox),
            Op::Chosen => {
                for &(p, ref m) in inbox {
                    if let ConstructMsg::Chosen { .. } = m {
                        if self.chosen == Some(d.edge_on(p)) {
                            // Both fragments chose this edge: core edge.
                            // The smaller-ID fragment roots the supertree
                            // and treats the other as a child.
                            if d.tree.root_id < d.ports[p as usize].fragment_id {
                                self.core_root_candidate = true;
                                self.child_edge[p as usize] = true;
                            }
                        } else {
                            self.child_edge[p as usize] = true;
                        }
                    }
                }
            }
            Op::ParentColor => {
                for &(p, ref m) in inbox {
                    if let ConstructMsg::Color { color } = *m {
                        if Some(p) == self.owner_port {
                            self.parent_color = Some(color);
                        }
                    }
                }
            }
            Op::Status => {
                self.child_status.clear();
                for &(p, ref m) in inbox {
                    if let ConstructMsg::Status { matched, .. } = *m {
                        if self.child_edge[p as usize] {
                            self.child_status.push((p, !matched));
                        }
                    }
                }
            }
            Op::MatchInform => {
                for &(p, ref m) in inbox {
                    if matches!(m, ConstructMsg::MatchInform) && Some(p) == self.owner_port {
                        self.got_matched = true;
                        self.f_edge[p as usize] = true;
                    }
                }
            }
            Op::Attach => {
                if !self.matched && !self.is_ti_root {
                    if let Some(p) = self.owner_port {
                        // Attaching up our parent edge makes it an F-edge.
                        self.f_edge[p as usize] = true;
                    }
                }
                for &(p, ref m) in inbox {
                    if matches!(m, ConstructMsg::Attach) {
                        self.f_edge[p as usize] = true;
                    }
                }
            }
            Op::SdtExchange => {
                for (_, m) in inbox {
                    if let ConstructMsg::SdtMin { min_id } = *m {
                        self.side_min_heard = min_val(self.side_min_heard, Some(min_id));
                    }
                }
            }
            Op::Merged if !self.merged(d) => {
                for &(p, ref m) in inbox {
                    if let ConstructMsg::Merged { depth, core } = *m {
                        if d.reroot_val.is_none() {
                            let my_new = depth + 1;
                            if my_new >= d.params.k {
                                return d.fail();
                            }
                            d.begin_reroot(p, core, my_new, d.tree.children_ports.clone());
                        }
                    }
                }
            }
            Op::MergeAck if self.merged(d) => {
                for &(p, ref m) in inbox {
                    if matches!(m, ConstructMsg::MergeAck) {
                        d.tree.add_child(p);
                        d.ports[p as usize].fragment_id = self.sdt_min;
                    }
                }
            }
            _ => {}
        }
    }

    fn may_reroot(&self, d: &Driver) -> bool {
        !self.merged(d)
    }
}

fn min_val(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cv_iteration_counts() {
        assert_eq!(cv_iterations(2), 0); // colors already in [0, 3] ⊆ [0, 5]
        assert_eq!(cv_iterations(3), 1); // 7 -> 5
        assert_eq!(cv_iterations(64), 4);
        assert_eq!(cv_iterations(40), 4);
        assert_eq!(cv_iterations(10), 4);
    }

    #[test]
    fn cv_step_properties() {
        // Proper coloring is preserved: distinct inputs give child != parent
        // after one step applied to both with their own parents.
        let own = 0b1011u64;
        let parent = 0b1001u64;
        let c = cv_step(own, parent); // differ at bit 1 -> 2*1 + 1 = 3
        assert_eq!(c, 3);
        // Root rule: flip bit 0.
        assert_eq!(cv_step(6, 6 ^ 1), 0); // bit 0 of 6 is 0
        assert_eq!(cv_step(7, 7 ^ 1), 1);
    }

    #[test]
    fn op_sequence_structure() {
        let ops = build_ops(2);
        assert_eq!(ops[0], Op::Decide);
        assert_eq!(*ops.last().unwrap(), Op::Refresh);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Match(_))).count(), 6);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Reroot)).count(), 4);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::ParentColor)).count(), 2);
    }

    #[test]
    fn budgets_monotone() {
        let round = crate::LdtStrategy::Round;
        assert!(round.round_budget(8, 1000) < round.round_budget(16, 1000));
        assert!(round.phase_budget(4) <= round.phase_budget(64));
    }
}
