//! The node-program interface: [`Protocol`] for top-level algorithms,
//! [`SubProtocol`] for composable building blocks, and the [`Window`] that
//! runs a building block inside its parent.

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

    /// The same sends, each message passed through `f`.
    pub fn map<N>(self, mut f: impl FnMut(M) -> N) -> Outbox<N> {
        match self {
            Outbox::Silent => Outbox::Silent,
            Outbox::Broadcast(m) => Outbox::Broadcast(f(m)),
            Outbox::Unicast(v) => Outbox::Unicast(v.into_iter().map(|(p, m)| (p, f(m))).collect()),
        }
    }
}

/// A node's decision at the end of an awake round, on the clock of the
/// program that makes it: a [`Protocol`]'s rounds are global, a
/// [`SubProtocol`]'s local (its [`Window`] translates them).
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
    /// Terminate the local algorithm. A protocol's node stops
    /// participating and its output is collected at the end of the run; a
    /// subprotocol's output may now be read.
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

/// A composable building block that runs in a [`Window`] of a larger
/// protocol (e.g. `LDT-Ranking` inside `LDT-MIS` inside `Awake-MIS`).
///
/// A subprotocol sees a *local clock*. Its first call comes at a local
/// round no later than [`first_wake`](SubProtocol::first_wake) (round 0
/// when it runs [`Standalone`], the first wake itself when `LDT-MIS` starts
/// its ranking and `VT-MIS` stages); calls before the first wake are idle.
/// Later calls come exactly at the local rounds its [`Action`]s ask for.
/// Only the LDT construction needs its first call at local round 0, for
/// its hello round; it fails a later start.
pub trait SubProtocol {
    /// Message type exchanged on edges while this subprotocol runs.
    type Msg: Clone + MessageSize;
    /// Result produced when the subprotocol completes.
    type Output;

    /// Compute-and-send step at local round `lr`.
    fn send(&mut self, lr: Round, ctx: &mut NodeCtx) -> Outbox<Self::Msg>;

    /// Receive step at local round `lr`, over a view of the round's
    /// messages of this subprotocol in increasing port order.
    fn receive(&mut self, lr: Round, ctx: &mut NodeCtx, inbox: &dyn Inbox<Self::Msg>) -> Action;

    /// The subprotocol's result.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`Action::Terminate`] was
    /// returned.
    fn output(&self) -> Self::Output;

    /// Best-effort output for a harness-aborted node (see
    /// [`Protocol::aborted_output`]). Defaults to
    /// [`output`](SubProtocol::output); override when `output` panics
    /// before completion.
    fn aborted_output(&self) -> Self::Output {
        self.output()
    }

    /// The first local round this node must be awake in. Defaults to 0.
    fn first_wake(&self) -> Round {
        0
    }
}

/// A round's inbox as a [`SubProtocol`] sees it: a borrowed view of its
/// parent's inbox, whose slot `i` holds the parent's `i`-th message if
/// that message is an `M`. Read it with `iter`, which `dyn Inbox` has.
pub trait Inbox<M> {
    /// Number of slots: the length of the parent's inbox.
    fn slots(&self) -> usize;
    /// Slot `i`'s port and message, if the message is this view's.
    fn slot(&self, i: usize) -> Option<(Port, &M)>;
}

impl<M> Inbox<M> for &[(Port, M)] {
    fn slots(&self) -> usize {
        <[_]>::len(self)
    }

    fn slot(&self, i: usize) -> Option<(Port, &M)> {
        <[_]>::get(self, i).map(|(p, m)| (*p, m))
    }
}

impl<M> dyn Inbox<M> + '_ {
    /// The messages with their ports, in increasing port order.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &M)> + '_ {
        (0..self.slots()).filter_map(move |i| self.slot(i))
    }
}

/// The view a [`Window`] hands its child: the parent's inbox, each
/// message projected to the child's type.
struct Narrow<'a, P, C> {
    parent: &'a dyn Inbox<P>,
    project: fn(&P) -> Option<&C>,
}

impl<P, C> Inbox<C> for Narrow<'_, P, C> {
    fn slots(&self) -> usize {
        self.parent.slots()
    }

    fn slot(&self, i: usize) -> Option<(Port, &C)> {
        let (port, m) = self.parent.slot(i)?;
        (self.project)(m).map(|c| (port, c))
    }
}

/// A [`SubProtocol`] running inside a parent protocol: the child's local
/// round `lr` is the parent's round `start + lr`.
///
/// The window is all of a composition's plumbing. It shifts rounds both
/// ways, lifts the child's sends into the parent's message type and hands
/// the child the parent's inbox through a projection, without copying a
/// message. The parent passes the lift and the projection with each call:
/// a lift may capture state, and a window stays two fields wide.
#[derive(Debug, Clone)]
pub struct Window<S> {
    child: S,
    start: Round,
}

impl<S: SubProtocol> Window<S> {
    /// Runs `child` from the parent's round `start` on.
    pub fn new(child: S, start: Round) -> Self {
        Window { child, start }
    }

    /// The child subprotocol.
    pub fn child(&self) -> &S {
        &self.child
    }

    /// The parent's round at the child's local round 0.
    pub fn start(&self) -> Round {
        self.start
    }

    /// The parent's round at the child's [`first_wake`](SubProtocol::first_wake).
    pub fn first_wake(&self) -> Round {
        self.start + self.child.first_wake()
    }

    /// The child's send step at the parent's round `r`, each message
    /// lifted into the parent's type by `lift`.
    pub fn send<M>(&mut self, r: Round, ctx: &mut NodeCtx, lift: impl FnMut(S::Msg) -> M) -> Outbox<M> {
        self.child.send(r - self.start, ctx).map(lift)
    }

    /// The child's receive step at the parent's round `r`, over the
    /// messages `project` picks out of the parent's inbox: its action on
    /// the parent's clock.
    pub fn receive<M>(
        &mut self,
        r: Round,
        ctx: &mut NodeCtx,
        inbox: &dyn Inbox<M>,
        project: fn(&M) -> Option<&S::Msg>,
    ) -> Action {
        let view = Narrow { parent: inbox, project };
        match self.child.receive(r - self.start, ctx, &view) {
            Action::SleepUntil(lr) => Action::SleepUntil(self.start + lr),
            action => action,
        }
    }
}

/// Adapter running a [`SubProtocol`] as a standalone [`Protocol`]: a
/// [`Window`] at round 0, so the local clock is the global clock.
///
/// Useful for testing and benchmarking building blocks in isolation.
#[derive(Debug, Clone)]
pub struct Standalone<S>(Window<S>);

impl<S: SubProtocol> Standalone<S> {
    /// Wraps a subprotocol for standalone execution.
    pub fn new(inner: S) -> Self {
        Standalone(Window::new(inner, 0))
    }

    /// The wrapped subprotocol.
    pub fn inner(&self) -> &S {
        self.0.child()
    }
}

impl<S: SubProtocol> Protocol for Standalone<S> {
    type Msg = S::Msg;
    type Output = S::Output;

    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<Self::Msg> {
        self.0.send(ctx.round, ctx, |m| m)
    }

    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, Self::Msg)]) -> Action {
        self.0.receive(ctx.round, ctx, &inbox, |m| Some(m))
    }

    /// The subprotocol's output, which panics before completion.
    fn output(&self) -> Self::Output {
        self.inner().output()
    }

    fn aborted_output(&self) -> Self::Output {
        self.inner().aborted_output()
    }
}
