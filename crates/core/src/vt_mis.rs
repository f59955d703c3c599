//! `VT-MIS` — lexicographically-first MIS in `O(log I)` awake rounds
//! (paper §5.3, Lemma 10).
//!
//! The naive distributed greedy runs for `I` rounds with everyone awake;
//! node `r` joins the MIS in round `r` unless a neighbor already joined.
//! `VT-MIS` keeps the `I`-round structure but wakes node `k` **only** in
//! the rounds of its virtual-binary-tree communication set
//! `S_k([1, I])` (see the [`vtree`] crate). Observation 5 guarantees
//! that for any neighbors `k < k′` there is a common awake round in
//! `(k, k′]`, so `k`'s decision always reaches `k′` before `k′` decides —
//! the output is *exactly* the LFMIS of the ID order, while every node
//! is awake only `O(log I)` rounds.

use crate::state::{MisMsg, MisState};
use graphgen::Port;
use sleeping_congest::{Action, Inbox, NodeCtx, Outbox, Round, SubProtocol};

/// The largest ID space a [`VtMis`] schedule may span. The node with
/// ID `k` is awake up to local round `k − 1`, so a space of `2^61` IDs
/// ends far below the engine's default round cap
/// (`SimConfig::max_rounds`, `u64::MAX / 4`) after any start offset
/// below `2^61`.
pub const MAX_ID_SPACE: u64 = 1 << 61;

/// The `VT-MIS` subprotocol for one node.
///
/// Local round `lr` corresponds to paper round `r = lr + 1 ∈ [1, I]`.
#[derive(Debug, Clone)]
pub struct VtMis {
    id: u64,
    state: MisState,
    /// Local rounds this node wakes in (ascending).
    wakes: Vec<Round>,
    /// If set, send only through these ports (the participating
    /// neighbors); otherwise broadcast on all ports.
    live_ports: Option<Vec<Port>>,
    finished: bool,
}

impl VtMis {
    /// Creates the subprotocol for the node with `id ∈ [1, i_max]`.
    ///
    /// `live_ports` restricts sends to participating neighbors (used
    /// inside `LDT-MIS`); pass `None` to broadcast on every port.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `[1, i_max]`.
    pub fn new(id: u64, i_max: u64, live_ports: Option<Vec<Port>>) -> VtMis {
        let wakes: Vec<Round> = vtree::wake_rounds(id, i_max).into_iter().map(|r| r - 1).collect();
        VtMis { id, state: MisState::Undecided, wakes, live_ports, finished: false }
    }

    /// The node's wake schedule (local rounds, ascending).
    pub fn wake_schedule(&self) -> &[Round] {
        &self.wakes
    }

    /// The node's ID, its place in the LFMIS order.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl SubProtocol for VtMis {
    type Msg = MisMsg;
    type Output = MisState;

    fn send(&mut self, lr: Round, _ctx: &mut NodeCtx) -> Outbox<MisMsg> {
        if !self.wakes.contains(&lr) {
            return Outbox::Silent; // a start call before the first wake
        }
        match &self.live_ports {
            None => Outbox::Broadcast(MisMsg(self.state)),
            Some(ports) => {
                Outbox::Unicast(ports.iter().map(|&p| (p, MisMsg(self.state))).collect())
            }
        }
    }

    fn receive(&mut self, lr: Round, _ctx: &mut NodeCtx, inbox: &dyn Inbox<MisMsg>) -> Action {
        if self.wakes.contains(&lr) {
            if self.state == MisState::Undecided
                && inbox.iter().any(|(_, &MisMsg(s))| s == MisState::InMis)
            {
                self.state = MisState::NotInMis;
            }
            if lr + 1 == self.id && self.state == MisState::Undecided {
                self.state = MisState::InMis;
            }
        }
        match self.wakes.iter().find(|&&w| w > lr) {
            Some(&w) => Action::SleepUntil(w),
            None => {
                self.finished = true;
                Action::Terminate
            }
        }
    }

    fn output(&self) -> MisState {
        assert!(self.finished, "VT-MIS output read before completion");
        debug_assert!(self.state.is_decided(), "VT-MIS must decide by its last wake");
        self.state
    }

    fn aborted_output(&self) -> MisState {
        self.state
    }

    fn first_wake(&self) -> Round {
        self.wakes[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_schedule_matches_vtree() {
        let v = VtMis::new(3, 6, None);
        assert_eq!(v.wake_schedule(), &[2, 3, 4]); // S_3([1,6]) = {3,4,5}, 0-based
        assert_eq!(v.first_wake(), 2);
        let w = VtMis::new(5, 6, None);
        assert_eq!(w.wake_schedule(), &[4, 5]); // S_5 clipped to [1,6]
    }
}
