//! `LDT-MIS` — LFMIS of a *uniformly random* order in `O(log n′)` awake
//! rounds (paper §5.3, Lemma 11; round-efficient variant Corollary 12).
//!
//! The pipeline, run independently by every connected component of the
//! participating subgraph:
//!
//! 1. **Construct** an LDT with [`ldt::Construct`] (strategy selectable:
//!    the awake-efficient coin rule for Lemma 11, or the deterministic
//!    matching rule for Corollary 12's `LDT-MIS-ROUND`).
//! 2. **Rank** the component: every node learns its rank and the exact
//!    component size `n″` (`O(1)` awake rounds).
//! 3. **Permutation broadcast**: the root draws a uniformly random
//!    permutation of `[1, n″]` and streams it down the tree in
//!    `O(log I)`-bit chunks (`O(n″ log n″ / log I)` awake rounds); node
//!    with rank `r` takes `π(r)` as its fresh ID.
//! 4. **`VT-MIS`** over the fresh IDs (`O(log n″)` awake rounds).
//!
//! Because the fresh IDs realize a uniformly random order, the output is
//! the LFMIS of a uniformly random permutation of the component — the
//! property Awake-MIS's composability argument needs.
//!
//! Stages 2–4 are scheduled relative to the round in which the
//! component's construction *completed* (all component nodes learn the
//! completing phase simultaneously), so faster components finish early;
//! [`round_budget`] still bounds the whole pipeline for any component.
//!
//! Stages 1, 2 and 4 run their subprotocol in a [`Window`]: the
//! construction from local round 0, the ranking from the round after the
//! completing phase (entered at its first wake), `VT-MIS` likewise after
//! the permutation stage. Each window wraps its child's sends in the
//! stage's [`LdtMisMsg`] variant and hands it only that variant's
//! messages, without copying them. Stage 3 is `LDT-MIS`'s own code.

use crate::state::{MisMsg, MisState};
use crate::vt_mis::VtMis;
use graphgen::Port;
use ldt::construct::{Construct, ConstructParams};
use ldt::ops::{broadcast_len, ranking_len, LdtRanking, RankResult};
use ldt::{ConstructMsg, LdtOutput, OpsMsg};
use rand::seq::SliceRandom;
use sleeping_congest::{
    bits_for_value, Action, Inbox, MessageSize, NodeCtx, Outbox, Round, SubProtocol, Window,
};

pub use ldt::LdtStrategy;

/// Parameters shared by every participant.
#[derive(Debug, Clone, Copy)]
pub struct LdtMisParams {
    /// This node's unique ID in `[1, id_upper]`.
    pub my_id: u64,
    /// Common ID upper bound `I` (polynomial in the network size).
    pub id_upper: u64,
    /// Common upper bound on component sizes.
    pub k: u32,
    /// Construction strategy.
    pub strategy: LdtStrategy,
}

/// A chunk of the root's permutation (fresh IDs for a rank interval).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermChunk {
    /// `entries[t]` is the fresh ID of rank `start_rank + t`.
    pub entries: Vec<u32>,
}

impl MessageSize for PermChunk {
    fn bits(&self) -> usize {
        8 + self.entries.iter().map(|&e| bits_for_value(e as u64)).sum::<usize>()
    }
}

/// Wire messages of the `LDT-MIS` pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdtMisMsg {
    /// Construction stage.
    C(ConstructMsg),
    /// Ranking stage.
    R(OpsMsg<()>),
    /// Permutation broadcast stage.
    P(PermChunk),
    /// `VT-MIS` stage.
    V(MisMsg),
}

impl MessageSize for LdtMisMsg {
    fn bits(&self) -> usize {
        2 + match self {
            LdtMisMsg::C(m) => m.bits(),
            LdtMisMsg::R(m) => m.bits(),
            LdtMisMsg::P(m) => m.bits(),
            LdtMisMsg::V(m) => m.bits(),
        }
    }
}

/// Fresh IDs per permutation chunk, given the component size and the
/// `O(log I)`-bit message budget.
pub fn entries_per_chunk(total: u64, id_upper: u64) -> u64 {
    let entry_bits = bits_for_value(total).max(1) as u64;
    let budget_bits = (bits_for_value(id_upper) as u64).max(entry_bits);
    (budget_bits / entry_bits).max(1)
}

/// Number of permutation chunks for a component of `total` nodes.
pub fn chunk_count(total: u64, id_upper: u64) -> u64 {
    total.div_ceil(entries_per_chunk(total, id_upper))
}

/// Local-round budget of the whole `LDT-MIS` pipeline (worst case over
/// components of at most `k` nodes).
pub fn round_budget(k: u32, id_upper: u64, strategy: LdtStrategy) -> Round {
    strategy.round_budget(k, id_upper)
        + ranking_len(k)
        + chunk_count(k as u64, id_upper) * broadcast_len(k)
        + k as Round
        + 2
}

/// One node's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdtMisOutput {
    /// Final decision (`Undecided` only when `failed`).
    pub state: MisState,
    /// Whether any stage failed (construction budget exhausted, ID
    /// collision, …) — a Monte Carlo failure event.
    pub failed: bool,
    /// Exact size of this node's component (diagnostic).
    pub comp_size: u64,
}

#[derive(Debug, Clone)]
enum Stage {
    Construct,
    Rank(Window<LdtRanking>),
    Perm { p0: Round },
    Vt(Window<VtMis>),
    Finished,
}

/// The `LDT-MIS` subprotocol (one instance per participating node).
#[derive(Debug, Clone)]
pub struct LdtMis {
    params: LdtMisParams,
    construct: Window<Construct>,
    stage: Stage,
    ldt: Option<LdtOutput>,
    rank: Option<RankResult>,
    /// Root only: the permutation, chunked.
    chunks: Vec<Vec<u32>>,
    /// Chunk received this stage, pending forwarding to children.
    perm_buf: Option<Vec<u32>>,
    perm_agenda: Vec<Round>,
    my_vt_id: Option<u64>,
    state: MisState,
    failed: bool,
    comp_size: u64,
}

impl LdtMis {
    /// Creates the pipeline participant for one node.
    pub fn new(params: LdtMisParams) -> LdtMis {
        let cp = ConstructParams { my_id: params.my_id, id_upper: params.id_upper, k: params.k };
        LdtMis {
            params,
            construct: Window::new(Construct::new(cp, params.strategy), 0),
            stage: Stage::Construct,
            ldt: None,
            rank: None,
            chunks: Vec::new(),
            perm_buf: None,
            perm_agenda: Vec::new(),
            my_vt_id: None,
            state: MisState::Undecided,
            failed: false,
            comp_size: 0,
        }
    }

    fn fail(&mut self) -> Action {
        self.failed = true;
        self.finish(MisState::Undecided)
    }

    fn finish(&mut self, state: MisState) -> Action {
        self.state = state;
        self.stage = Stage::Finished;
        Action::Terminate
    }

    /// Transition after construction completes.
    fn after_construct(&mut self) -> Action {
        let out = self.construct.child().output();
        if !out.ok {
            return self.fail();
        }
        if out.ports.iter().all(|pi| !pi.participant) {
            // Isolated participant: trivially in the MIS.
            self.comp_size = 1;
            return self.finish(MisState::InMis);
        }
        let r0 = 1 + out.phases_used * self.construct.child().phase_len();
        let window = Window::new(LdtRanking::new(self.params.k, out.tree.clone()), r0);
        let first = window.first_wake();
        self.ldt = Some(out);
        self.stage = Stage::Rank(window);
        Action::SleepUntil(first)
    }

    /// Transition after the ranking window that started at `r0` completes
    /// with `rank`.
    fn after_rank(&mut self, rank: Option<RankResult>, r0: Round, ctx: &mut NodeCtx) -> Action {
        let Some(rank) = rank else {
            return self.fail(); // rank wave never reached us (lost message)
        };
        self.rank = Some(rank);
        self.comp_size = rank.total;
        let p0 = r0 + ranking_len(self.params.k);
        let tree = &self.ldt.as_ref().expect("ldt exists").tree;
        if tree.is_root() {
            // Draw the uniformly random permutation and chunk it.
            let mut perm: Vec<u32> = (1..=rank.total as u32).collect();
            perm.shuffle(ctx.rng);
            let epc = entries_per_chunk(rank.total, self.params.id_upper) as usize;
            self.chunks = perm.chunks(epc).map(|c| c.to_vec()).collect();
            self.my_vt_id = Some(perm[rank.rank as usize - 1] as u64);
        }
        // Wake plan for the permutation stage.
        let n_chunks = chunk_count(rank.total, self.params.id_upper);
        let len = broadcast_len(self.params.k);
        let d = tree.depth as Round;
        let mut agenda = Vec::new();
        for j in 0..n_chunks {
            let base = p0 + j * len;
            if tree.is_root() {
                agenda.push(base);
            } else {
                agenda.push(base + d - 1);
                if !tree.children_ports.is_empty() {
                    agenda.push(base + d);
                }
            }
        }
        agenda.sort_unstable();
        let first = agenda[0];
        self.perm_agenda = agenda;
        self.stage = Stage::Perm { p0 };
        Action::SleepUntil(first)
    }

    /// Transition after the permutation stage completes.
    fn after_perm(&mut self, p0: Round, lr: Round) -> Action {
        let rank = self.rank.expect("rank set");
        let Some(id) = self.my_vt_id else {
            return self.fail(); // permutation never reached us
        };
        let v0 = p0 + chunk_count(rank.total, self.params.id_upper) * broadcast_len(self.params.k);
        let live: Vec<Port> = self
            .ldt
            .as_ref()
            .expect("ldt exists")
            .ports
            .iter()
            .enumerate()
            .filter(|(_, pi)| pi.participant)
            .map(|(p, _)| p as Port)
            .collect();
        let window = Window::new(VtMis::new(id, rank.total, Some(live)), v0);
        let first = window.first_wake();
        self.stage = Stage::Vt(window);
        debug_assert!(first > lr, "VT stage must start after the permutation stage");
        Action::SleepUntil(first)
    }
}

impl SubProtocol for LdtMis {
    type Msg = LdtMisMsg;
    type Output = LdtMisOutput;

    fn send(&mut self, lr: Round, ctx: &mut NodeCtx) -> Outbox<LdtMisMsg> {
        match &mut self.stage {
            Stage::Construct => self.construct.send(lr, ctx, LdtMisMsg::C),
            Stage::Rank(window) => window.send(lr, ctx, LdtMisMsg::R),
            Stage::Perm { p0 } => {
                let len = broadcast_len(self.params.k);
                let j = ((lr - *p0) / len) as usize;
                let off = (lr - *p0) % len;
                let tree = &self.ldt.as_ref().expect("ldt exists").tree;
                let sending = if tree.is_root() { off == 0 } else { off == tree.depth as Round };
                if sending && !tree.children_ports.is_empty() {
                    let payload = if tree.is_root() {
                        self.chunks.get(j).cloned()
                    } else {
                        self.perm_buf.take()
                    };
                    if let Some(entries) = payload {
                        let msg = LdtMisMsg::P(PermChunk { entries });
                        return Outbox::Unicast(
                            tree.children_ports.iter().map(|&p| (p, msg.clone())).collect(),
                        );
                    }
                }
                Outbox::Silent
            }
            Stage::Vt(window) => window.send(lr, ctx, LdtMisMsg::V),
            Stage::Finished => Outbox::Silent,
        }
    }

    fn receive(&mut self, lr: Round, ctx: &mut NodeCtx, inbox: &dyn Inbox<LdtMisMsg>) -> Action {
        match &mut self.stage {
            Stage::Construct => match self.construct.receive(lr, ctx, inbox, |m| match m {
                LdtMisMsg::C(c) => Some(c),
                _ => None,
            }) {
                Action::Terminate => self.after_construct(),
                action => action,
            },
            Stage::Rank(window) => match window.receive(lr, ctx, inbox, |m| match m {
                LdtMisMsg::R(r) => Some(r),
                _ => None,
            }) {
                Action::Terminate => {
                    let (rank, r0) = (window.child().try_output(), window.start());
                    self.after_rank(rank, r0, ctx)
                }
                action => action,
            },
            Stage::Perm { p0 } => {
                let p0 = *p0;
                let len = broadcast_len(self.params.k);
                let j = (lr - p0) / len;
                let rank = self.rank.expect("rank set");
                for (_, m) in inbox.iter() {
                    if let LdtMisMsg::P(chunk) = m {
                        let epc = entries_per_chunk(rank.total, self.params.id_upper);
                        let lo = j * epc + 1; // first rank covered by chunk j
                        if rank.rank >= lo && rank.rank < lo + chunk.entries.len() as u64 {
                            self.my_vt_id = Some(chunk.entries[(rank.rank - lo) as usize] as u64);
                        }
                        // Kept to forward to the children next round.
                        self.perm_buf = Some(chunk.entries.clone());
                    }
                }
                match self.perm_agenda.iter().find(|&&w| w > lr) {
                    Some(&w) => Action::SleepUntil(w),
                    None => self.after_perm(p0, lr),
                }
            }
            Stage::Vt(window) => match window.receive(lr, ctx, inbox, |m| match m {
                LdtMisMsg::V(v) => Some(v),
                _ => None,
            }) {
                Action::Terminate => {
                    let state = window.child().output();
                    self.finish(state)
                }
                action => action,
            },
            Stage::Finished => Action::Terminate,
        }
    }

    fn output(&self) -> LdtMisOutput {
        assert!(matches!(self.stage, Stage::Finished), "LDT-MIS output read before completion");
        self.aborted_output()
    }

    fn aborted_output(&self) -> LdtMisOutput {
        LdtMisOutput { state: self.state, failed: self.failed, comp_size: self.comp_size }
    }
}
