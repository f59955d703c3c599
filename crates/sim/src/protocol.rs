//! The node-program interface: [`Protocol`] for top-level algorithms and
//! [`SubProtocol`] for composable building blocks.

use crate::message::MessageSize;
use crate::Round;
use graphgen::{NodeId, Port};
use rand::rngs::SmallRng;

/// Per-round context handed to a node while it is awake.
///
/// The fields expose exactly the knowledge the SLEEPING-CONGEST model
/// grants a node: its own ports (via `degree`), the global round number,
/// the common polynomial upper bound `n_upper` on the network size, and a
/// private source of randomness. A node does **not** learn its neighbors'
/// identities from the context — only through messages.
pub struct NodeCtx<'a> {
    /// The simulator's index for this node. Protocols for the *anonymous*
    /// model must not treat this as an identifier (draw random IDs
    /// instead); it is exposed for baselines and debugging.
    pub node: NodeId,
    /// Number of ports (incident edges).
    pub degree: usize,
    /// Current global round (0-based).
    pub round: Round,
    /// Common upper bound on the network size, known to all nodes.
    pub n_upper: usize,
    /// Private per-node randomness (deterministically derived from the
    /// run seed and the node index).
    pub rng: &'a mut SmallRng,
}

/// What a node sends during the send step of an awake round.
#[derive(Debug, Clone)]
pub enum Outbox<M> {
    /// Send nothing (listen only).
    Silent,
    /// Send one copy of the same message through every port.
    Broadcast(M),
    /// Send (possibly different) messages through selected ports. A
    /// port at or past the node's degree aborts the run with
    /// [`SimError::BadPort`](crate::SimError::BadPort).
    Unicast(Vec<(Port, M)>),
}

impl<M> Outbox<M> {
    /// True if nothing will be sent.
    pub fn is_silent(&self) -> bool {
        matches!(self, Outbox::Silent) || matches!(self, Outbox::Unicast(v) if v.is_empty())
    }
}

/// A node's decision at the end of an awake round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Stay awake: participate in the next round too.
    Continue,
    /// Sleep until the given round (exclusive of the current one; must be
    /// strictly greater than the current round). The sentinel value
    /// [`crate::SLEEP_FOREVER`] (`Round::MAX`) parks the node forever:
    /// it is never rescheduled, and if all other nodes terminate the run
    /// aborts with [`crate::SimError::Deadlock`].
    SleepUntil(Round),
    /// Terminate the local algorithm. The node stops participating; its
    /// output is collected at the end of the run.
    Terminate,
}

/// A complete node program.
///
/// The engine calls [`send`](Protocol::send) then
/// [`receive`](Protocol::receive) once per awake round, implementing the
/// model's compute → send → receive steps. Both are called in the *same*
/// round; `receive` sees exactly the messages sent this round by awake
/// neighbors.
pub trait Protocol {
    /// Message type exchanged on edges.
    type Msg: Clone + MessageSize;
    /// Local output collected after termination.
    type Output;

    /// Compute-and-send step of an awake round.
    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<Self::Msg>;

    /// Receive step. `inbox` holds `(port, message)` pairs from neighbors
    /// that were awake and sent through the corresponding edge this
    /// round, in increasing port order. A sender that listed one port
    /// twice in an [`Outbox::Unicast`] is heard twice on that port, in
    /// the sender's list order.
    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, Self::Msg)]) -> Action;

    /// The local output. Called once per node after the run completes.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before the node terminated.
    fn output(&self) -> Self::Output;

    /// Best-effort output for a node the *harness* stopped before it
    /// terminated — e.g. crash-stopped by a
    /// [`FaultModel`](crate::FaultModel). Defaults to
    /// [`output`](Protocol::output); implementations whose `output`
    /// panics before termination must override this to report their
    /// current partial state instead.
    fn aborted_output(&self) -> Self::Output {
        self.output()
    }
}

/// Outcome of a [`SubProtocol`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubAction {
    /// Stay awake next (local) round.
    Continue,
    /// Sleep until the given *local* round.
    SleepUntil(Round),
    /// The subprotocol has finished; its output may now be read.
    Done,
}

/// A composable building block that runs inside a window of a larger
/// protocol (e.g. `LDT-Ranking` inside `LDT-MIS` inside `Awake-MIS`).
///
/// A subprotocol sees a *local clock*: the parent starts it by waking the
/// node at local round 0 and translates between local and global rounds.
/// Message routing/wrapping is the parent's responsibility.
pub trait SubProtocol {
    /// Message type exchanged on edges while this subprotocol runs.
    type Msg: Clone + MessageSize;
    /// Result produced when the subprotocol completes.
    type Output;

    /// Compute-and-send step at local round `lr`.
    fn send(&mut self, lr: Round, ctx: &mut NodeCtx) -> Outbox<Self::Msg>;

    /// Receive step at local round `lr`.
    fn receive(&mut self, lr: Round, ctx: &mut NodeCtx, inbox: &[(Port, Self::Msg)]) -> SubAction;

    /// The subprotocol's result.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`SubAction::Done`] was
    /// returned.
    fn output(&self) -> Self::Output;

    /// Best-effort output for a harness-aborted node (see
    /// [`Protocol::aborted_output`]). Defaults to
    /// [`output`](SubProtocol::output); override when `output` panics
    /// before completion.
    fn aborted_output(&self) -> Self::Output {
        self.output()
    }
}

/// Adapter running a [`SubProtocol`] as a standalone [`Protocol`]
/// (local clock = global clock).
///
/// Useful for testing and benchmarking building blocks in isolation.
#[derive(Debug, Clone)]
pub struct Standalone<S> {
    inner: S,
    done: bool,
}

impl<S> Standalone<S> {
    /// Wraps a subprotocol for standalone execution.
    pub fn new(inner: S) -> Self {
        Standalone { inner, done: false }
    }

    /// The wrapped subprotocol.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SubProtocol> Protocol for Standalone<S> {
    type Msg = S::Msg;
    type Output = S::Output;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<Self::Msg> {
        let round = ctx.round;
        self.inner.send(round, ctx)
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, Self::Msg)]) -> Action {
        let round = ctx.round;
        match self.inner.receive(round, ctx, inbox) {
            SubAction::Continue => Action::Continue,
            SubAction::SleepUntil(r) => Action::SleepUntil(r),
            SubAction::Done => {
                self.done = true;
                Action::Terminate
            }
        }
    }

    fn output(&self) -> Self::Output {
        assert!(self.done, "Standalone output read before completion");
        self.inner.output()
    }

    fn aborted_output(&self) -> Self::Output {
        if self.done {
            self.inner.output()
        } else {
            self.inner.aborted_output()
        }
    }
}
