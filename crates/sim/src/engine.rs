//! The round engine.

use crate::fault::FaultModel;
use crate::metrics::{Metrics, RunReport};
use crate::protocol::{Action, NodeCtx, Outbox, Protocol};
use crate::rng::{fault_draw, fault_unit, node_rng, FAULT_CRASH, FAULT_LOSS, FAULT_WAKE};
use crate::trace::{TraceEvent, TracePhase};
use crate::Round;
use graphgen::{Graph, NodeId, Port};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Sleeping until this round means sleeping *forever*: the node is parked
/// and never rescheduled. If every scheduled node terminates while parked
/// nodes remain, the run aborts with [`SimError::Deadlock`] instead of
/// fast-forwarding to a round that will never arrive.
pub const SLEEP_FOREVER: Round = Round::MAX;

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed; per-node RNGs are derived deterministically from it.
    pub seed: u64,
    /// CONGEST bandwidth: if set, a message larger than this many bits
    /// aborts the run with [`SimError::MessageTooLarge`]. The maximum
    /// observed size is recorded either way in
    /// [`Metrics::max_message_bits`].
    pub bit_limit: Option<usize>,
    /// Common upper bound on the network size given to every node
    /// (`N` in the paper: a polynomial upper bound on `n`). Defaults to
    /// the actual `n` at [`Simulator::new`] time when left as `None`.
    pub n_upper: Option<usize>,
    /// Safety cap on the round counter.
    pub max_rounds: Round,
    /// Safety cap on the number of *active* rounds actually simulated.
    pub max_active_rounds: u64,
    /// Record, per node, the exact list of rounds it was awake in
    /// (costs memory; intended for tests).
    pub record_wake_history: bool,
    /// Fault injection knobs (lossy links, crashing nodes, wake jitter).
    /// The default injects nothing and is bit-for-bit identical to runs
    /// from before the fault subsystem existed; see [`FaultModel`].
    pub fault: FaultModel,
    /// Worker shards for the *intra-run* send/receive loops. `1` (the
    /// default) keeps each round on the calling thread; `k > 1` splits
    /// every sufficiently large awake batch into `k` contiguous node-id
    /// ranges executed on scoped worker threads; `0` means one shard per
    /// available hardware thread.
    ///
    /// Sharding is an execution knob, not a semantic one: send shards
    /// park outboxes in disjoint id ranges of one node-indexed table,
    /// and every receiver pulls its inbox from that table in its own
    /// port order (see [`SimScratch`]), so outputs and [`Metrics`] are
    /// byte-identical for every shard count — including under an active
    /// [`FaultModel`], whose draws are keyed by `(site, round)` and
    /// therefore independent of scheduling.
    pub shards: usize,
    /// Observational trace sink (see [`crate::trace`]). `None` (the
    /// default) keeps the hot loop trace-free: no timestamps are taken
    /// and every event site is a single `Option` check. Attaching a
    /// sink never changes outputs, metrics, or scheduling — the
    /// engine locks the sink once per run and emits events from the
    /// coordinating thread only.
    pub trace: Option<crate::trace::TraceHandle>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            bit_limit: None,
            n_upper: None,
            max_rounds: u64::MAX / 4,
            max_active_rounds: 500_000_000,
            record_wake_history: false,
            fault: FaultModel::default(),
            shards: 1,
            trace: None,
        }
    }
}

impl SimConfig {
    /// Config with the given seed and all other fields default.
    pub fn seeded(seed: u64) -> Self {
        SimConfig { seed, ..SimConfig::default() }
    }
}

/// Errors aborting a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `protocols.len()` differed from the number of graph nodes.
    NodeCountMismatch { nodes: usize, protocols: usize },
    /// The round counter exceeded [`SimConfig::max_rounds`].
    RoundLimit(Round),
    /// More than [`SimConfig::max_active_rounds`] active rounds were
    /// simulated (runaway protocol).
    ActiveRoundLimit(u64),
    /// Every scheduled node terminated but some nodes slept forever
    /// (via [`SLEEP_FOREVER`]) without terminating.
    Deadlock { sleeping_forever: usize },
    /// A node emitted a message above [`SimConfig::bit_limit`].
    MessageTooLarge { node: NodeId, round: Round, bits: usize, limit: usize },
    /// A node asked to sleep until a round that is not in the future.
    BadSleep { node: NodeId, round: Round, until: Round },
    /// A node unicast through a port it does not have (`port >= degree`).
    BadPort { node: NodeId, round: Round, port: Port, degree: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NodeCountMismatch { nodes, protocols } => {
                write!(f, "graph has {nodes} nodes but {protocols} protocols were supplied")
            }
            SimError::RoundLimit(r) => write!(f, "round limit exceeded at round {r}"),
            SimError::ActiveRoundLimit(a) => write!(f, "active-round limit exceeded ({a})"),
            SimError::Deadlock { sleeping_forever } => {
                write!(f, "deadlock: {sleeping_forever} nodes slept forever without terminating")
            }
            SimError::MessageTooLarge { node, round, bits, limit } => write!(
                f,
                "node {node} sent a {bits}-bit message in round {round} (limit {limit})"
            ),
            SimError::BadSleep { node, round, until } => {
                write!(f, "node {node} in round {round} asked to sleep until round {until}")
            }
            SimError::BadPort { node, round, port, degree } => write!(
                f,
                "node {node} sent through port {port} in round {round} (degree {degree})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Site key for a message-loss draw: one directed edge endpoint,
/// identified by the sending node and its port.
fn loss_site(v: NodeId, p: Port) -> u64 {
    ((v as u64) << 32) | p as u64
}

/// Width of the calendar's near window: wake-ups within this many rounds
/// of the current minimum live in per-round ring buckets indexed by a
/// single `u64` occupancy bitmask.
const NEAR: u64 = 64;

/// Calendar/bucket wake queue over rounds.
///
/// Each non-terminated, non-parked node has exactly one pending wake-up.
/// Wake-ups within [`NEAR`] rounds of the current base live in a ring of
/// per-round buckets whose occupancy is a `u64` bitmask, so advancing
/// past any stretch of empty (all-asleep) rounds inside the window is a
/// single `trailing_zeros` — O(1). Wake-ups beyond the window go to a
/// `BTreeMap` overflow keyed by round and are promoted into the ring as
/// the base advances; a jump across millions of silent rounds is one
/// `BTreeMap` lookup, independent of the gap length.
#[derive(Debug)]
struct WakeQueue {
    /// All pending wake-ups are at rounds `>= base`.
    base: Round,
    /// Bit `i` set ⇔ the bucket for round `base + i` is non-empty.
    mask: u64,
    /// Ring buckets; round `r`'s bucket is `near[r % NEAR]`.
    near: Vec<Vec<NodeId>>,
    /// Wake-ups at rounds `>= base + NEAR`.
    far: BTreeMap<Round, Vec<NodeId>>,
    /// Recycled bucket allocations for `far` entries.
    spare: Vec<Vec<NodeId>>,
    /// Total pending wake-ups.
    len: usize,
}

impl Default for WakeQueue {
    fn default() -> Self {
        let mut near = Vec::with_capacity(NEAR as usize);
        near.resize_with(NEAR as usize, Vec::new);
        WakeQueue { base: 0, mask: 0, near, far: BTreeMap::new(), spare: Vec::new(), len: 0 }
    }
}

impl WakeQueue {
    /// Empties the queue, keeping bucket allocations for reuse.
    fn clear(&mut self) {
        self.base = 0;
        self.mask = 0;
        for b in &mut self.near {
            b.clear();
        }
        while let Some((_, mut v)) = self.far.pop_first() {
            v.clear();
            self.spare.push(v);
        }
        self.len = 0;
    }

    /// Schedules node `v` to wake at round `t`, saturating `t` to the
    /// window base.
    ///
    /// A `t` below `base` would underflow `t - self.base`; the old
    /// `debug_assert` made that a silent release-mode wrap that filed
    /// the node in the far map under a bogus round. The engine validates
    /// sleep targets before pushing, so a below-base push can only come
    /// from internal misuse — saturating pins it to the earliest legal
    /// round instead of corrupting the calendar.
    fn push(&mut self, t: Round, v: NodeId) {
        let t = t.max(self.base);
        if t - self.base < NEAR {
            self.near[(t % NEAR) as usize].push(v);
            self.mask |= 1 << (t - self.base);
        } else {
            self.far
                .entry(t)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push(v);
        }
        self.len += 1;
    }

    /// Moves the window base forward to `r`, promoting overflow entries
    /// that now fall inside the window.
    fn advance_to(&mut self, r: Round) {
        let d = r - self.base;
        self.mask = if d >= NEAR { 0 } else { self.mask >> d };
        self.base = r;
        while let Some((&t, _)) = self.far.first_key_value() {
            if t - r >= NEAR {
                break;
            }
            let (t, mut nodes) = self.far.pop_first().expect("checked non-empty");
            let bucket = &mut self.near[(t % NEAR) as usize];
            debug_assert!(bucket.is_empty(), "promoting into an occupied bucket");
            std::mem::swap(bucket, &mut nodes);
            self.spare.push(nodes);
            self.mask |= 1 << (t - r);
        }
    }

    /// Pops the earliest pending round, filling `out` with every node
    /// scheduled for it (in scheduling order; callers sort). Returns
    /// `None` when no wake-ups remain.
    fn pop_round(&mut self, out: &mut Vec<NodeId>) -> Option<Round> {
        out.clear();
        if self.len == 0 {
            return None;
        }
        if self.mask == 0 {
            let (&t, _) = self.far.first_key_value().expect("pending wake-ups must be far");
            self.advance_to(t);
        }
        let r = self.base + u64::from(self.mask.trailing_zeros());
        self.advance_to(r);
        out.append(&mut self.near[(r % NEAR) as usize]);
        self.mask &= !1;
        self.len -= out.len();
        Some(r)
    }
}

/// One shard's share of a round: the counters it adds to [`Metrics`],
/// the first error of its send slice, and the inbox buffer its
/// receivers are handed.
///
/// Send-side counters (`sent`, `max_bits`, `total_bits`) are filled by
/// [`send_shard`], receive-side ones (`delivered`, `faulted`) by
/// [`receive_shard`]. Sums and a max are commutative, so the totals do
/// not depend on how the batch was split.
#[derive(Debug)]
struct Stage<M> {
    sent: u64,
    max_bits: usize,
    total_bits: u64,
    delivered: u64,
    faulted: u64,
    /// First error this shard hit, in its own id order. The engine takes
    /// the error from the lowest-index shard, which is exactly the first
    /// error the serial loop would have returned.
    err: Option<SimError>,
    /// The current receiver's inbox; reused across receivers and rounds.
    inbox: Vec<(Port, M)>,
}

impl<M> Default for Stage<M> {
    fn default() -> Self {
        Stage {
            sent: 0,
            max_bits: 0,
            total_bits: 0,
            delivered: 0,
            faulted: 0,
            err: None,
            inbox: Vec::new(),
        }
    }
}

impl<M> Stage<M> {
    fn clear(&mut self) {
        self.sent = 0;
        self.max_bits = 0;
        self.total_bits = 0;
        self.delivered = 0;
        self.faulted = 0;
        self.err = None;
        self.inbox.clear();
    }

    /// Accounts one emission of a `bits`-bit message in `copies` copies,
    /// recording an error and returning `false` if it busts `limit`.
    fn account(
        &mut self,
        node: NodeId,
        round: Round,
        bits: usize,
        copies: usize,
        limit: Option<usize>,
    ) -> bool {
        if let Some(limit) = limit {
            if bits > limit {
                self.err = Some(SimError::MessageTooLarge { node, round, bits, limit });
                return false;
            }
        }
        self.max_bits = self.max_bits.max(bits);
        self.sent += copies as u64;
        self.total_bits += (bits * copies) as u64;
        true
    }

    /// Hands one copy of `msg` to the current receiver at port `p`, or
    /// counts it as faulted when the link fault model `dropped` it.
    fn take(&mut self, p: Port, msg: &M, dropped: bool)
    where
        M: Clone,
    {
        if dropped {
            self.faulted += 1;
        } else {
            // For `Copy` messages this clone is a plain memcpy.
            self.inbox.push((p, msg.clone()));
            self.delivered += 1;
        }
    }
}

/// Reusable per-run working memory: the wake queue, per-node RNGs, the
/// outbox table receivers read from, and per-shard counters and inbox
/// buffers.
///
/// A fresh [`Simulator::run`] allocates all of this from scratch; callers
/// running many simulations (seed grids, Monte Carlo sweeps) should keep
/// one `SimScratch` per worker and use
/// [`Simulator::run_with_scratch`] so buckets and buffers keep their
/// capacity across runs. The type parameter is the protocol's message
/// type ([`Protocol::Msg`]).
///
/// Messages are delivered by *pull*. A node that sends parks its
/// [`Outbox`] in `mail[v]` and stamps `sent_at[v]` with the round's tick;
/// each awake receiver then walks its own ports in order and takes, from
/// every neighbour whose stamp is current, the broadcast or the unicast
/// entries addressed to the reverse port. Nothing grows with the message
/// count: both tables are node-indexed, and a receiver's inbox is built
/// in a per-shard buffer that is reused.
///
/// A scratch is reset at the start of every run, so reusing one never
/// changes results: a run remains a pure function of
/// `(graph, protocols, SimConfig)`.
#[derive(Debug)]
pub struct SimScratch<M> {
    rngs: Vec<SmallRng>,
    queue: WakeQueue,
    batch: Vec<NodeId>,
    /// Node id → the last non-silent outbox it sent (unicast entries
    /// stably sorted by port). Only meaningful where `sent_at` is current.
    mail: Vec<Outbox<M>>,
    /// Node id → tick of the round `mail` was written in; 0 = never. A
    /// receiver reads this compact table first and touches `mail` only
    /// on a hit.
    sent_at: Vec<u32>,
    stages: Vec<Stage<M>>,
    actions: Vec<Action>,
}

impl<M> Default for SimScratch<M> {
    fn default() -> Self {
        SimScratch {
            rngs: Vec::new(),
            queue: WakeQueue::default(),
            batch: Vec::new(),
            mail: Vec::new(),
            sent_at: Vec::new(),
            stages: Vec::new(),
            actions: Vec::new(),
        }
    }
}

impl<M> SimScratch<M> {
    /// A scratch with no buffers allocated yet.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Prepares the scratch for a run over `n` nodes with the given seed,
    /// scheduling initial wake-ups (jittered when the fault model says so).
    fn reset(&mut self, n: usize, seed: u64, fault: &FaultModel) {
        self.rngs.clear();
        self.rngs.extend((0..n as u32).map(|v| node_rng(seed, v)));
        self.queue.clear();
        for v in 0..n as NodeId {
            let at = if fault.wake_jitter > 0 {
                fault_draw(seed, FAULT_WAKE, v as u64, 0) % (fault.wake_jitter + 1)
            } else {
                0
            };
            self.queue.push(at, v);
        }
        self.batch.clear();
        self.mail.clear();
        self.mail.resize_with(n, || Outbox::Silent);
        self.sent_at.clear();
        self.sent_at.resize(n, 0);
        for stage in &mut self.stages {
            stage.clear();
        }
        self.actions.clear();
    }
}

/// The send tick after `tick`. When `u32` runs out the stamp table is
/// wiped and counting restarts at 1, so a stale stamp never equals a
/// live one however many active rounds a run allows.
fn next_tick(tick: u32, sent_at: &mut [u32]) -> u32 {
    tick.checked_add(1).unwrap_or_else(|| {
        sent_at.fill(0);
        1
    })
}

/// Below this many awake nodes per shard a round runs on the calling
/// thread: spawning workers would cost more than the round itself.
/// Results are unaffected either way — every shard, the calling
/// thread's included, runs the same shard functions over the same
/// tables.
const MIN_SHARD_BATCH: usize = 256;

/// A configured simulation, ready to [`run`](Simulator::run).
pub struct Simulator<P: Protocol> {
    graph: Graph,
    nodes: Vec<P>,
    config: SimConfig,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulation of `protocols` over `graph`.
    ///
    /// `protocols[v]` is node `v`'s program. The counts must match — this
    /// is checked at [`run`](Simulator::run) time so construction stays
    /// infallible.
    pub fn new(graph: Graph, protocols: Vec<P>, config: SimConfig) -> Self {
        Simulator { graph, nodes: protocols, config }
    }

    /// Runs the simulation to completion (all nodes terminated),
    /// allocating fresh working memory.
    ///
    /// # Errors
    ///
    /// See [`SimError`]. In particular a protocol that parks nodes with
    /// [`SLEEP_FOREVER`] while the rest terminate yields
    /// [`SimError::Deadlock`] rather than hanging.
    pub fn run(self) -> Result<RunReport<P::Output>, SimError>
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        let mut scratch = SimScratch::new();
        self.run_with_scratch(&mut scratch)
    }

    /// Runs the simulation drawing working memory from a type-erased
    /// [`ScratchArena`](crate::ScratchArena).
    ///
    /// Equivalent to [`run_with_scratch`](Simulator::run_with_scratch)
    /// on `arena.of::<P::Msg>()`; exists so code that dispatches over
    /// *heterogeneous* protocols (different message types) can thread a
    /// single arena through an object-safe interface.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_in(
        self,
        arena: &mut crate::ScratchArena,
    ) -> Result<RunReport<P::Output>, SimError>
    where
        P: Send,
        P::Msg: Send + Sync + 'static,
    {
        let scratch = arena.of::<P::Msg>();
        self.run_with_scratch(scratch)
    }

    /// Runs the simulation using caller-provided working memory.
    ///
    /// Results are identical to [`run`](Simulator::run); the scratch only
    /// recycles allocations between runs. Intended for batched execution
    /// where one scratch per worker thread is reused across a whole grid
    /// of runs.
    ///
    /// When [`SimConfig::shards`] asks for intra-run parallelism, each
    /// round's send and receive loops are split over scoped worker
    /// threads by contiguous node-id range. Send shards write disjoint
    /// ranges of the outbox table and receive shards only read it, and
    /// every receiver builds its inbox in its own port order, so outputs
    /// and metrics are byte-identical to the serial path.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_with_scratch(
        self,
        scratch: &mut SimScratch<P::Msg>,
    ) -> Result<RunReport<P::Output>, SimError>
    where
        P: Send,
        P::Msg: Send + Sync,
    {
        let Simulator { graph, mut nodes, config } = self;
        let n = graph.n();
        if nodes.len() != n {
            return Err(SimError::NodeCountMismatch { nodes: n, protocols: nodes.len() });
        }
        let n_upper = config.n_upper.unwrap_or(n);
        let seed = config.seed;
        let fault = config.fault.clone();
        let bit_limit = config.bit_limit;
        let shards = crate::batch::resolve_threads(config.shards);
        let mut metrics = Metrics::new(n, config.record_wake_history);
        scratch.reset(n, seed, &fault);
        let SimScratch { rngs, queue, batch, mail, sent_at, stages, actions } = scratch;
        let table_bytes = std::mem::size_of_val(&mail[..]) + std::mem::size_of_val(&sent_at[..]);
        let mut live = n;
        let mut tick = 0;

        // Tracing (observational only): lock the attached sink once for
        // the whole run; with no sink every per-round site below is a
        // single `Option` check and no timestamps are taken.
        let mut trace_guard = config.trace.as_ref().map(|h| h.lock());
        let tracing = trace_guard.is_some();
        if let Some(t) = trace_guard.as_deref_mut() {
            t.event(&TraceEvent::RunBegin { nodes: n, shards });
        }

        let run_result: Result<(), SimError> = 'rounds: loop {
            if live == 0 {
                break Ok(());
            }
            let Some(round) = queue.pop_round(batch) else {
                break 'rounds Err(SimError::Deadlock { sleeping_forever: live });
            };
            if round > config.max_rounds {
                break 'rounds Err(SimError::RoundLimit(round));
            }
            metrics.active_rounds += 1;
            if metrics.active_rounds > config.max_active_rounds {
                break 'rounds Err(SimError::ActiveRoundLimit(metrics.active_rounds));
            }
            if let Some(t) = trace_guard.as_deref_mut() {
                t.event(&TraceEvent::RoundBegin { round, batch: batch.len(), queued: queue.len });
            }
            let round_t0 = tracing.then(Instant::now);
            let mut crashed_round = 0usize;

            // Crash faults strike at wake-up time: a node drawn against
            // the crash probability inside the window stops *before*
            // executing the round — it never sends, receives, or
            // reschedules again. Draws are keyed `(node, round)`, so the
            // outcome is independent of batch order.
            if fault.crash > 0.0 && round >= fault.crash_from && round <= fault.crash_until {
                batch.retain(|&v| {
                    if fault_unit(seed, FAULT_CRASH, v as u64, round) < fault.crash {
                        metrics.crashed_at[v as usize] = Some(round);
                        metrics.terminated_at[v as usize] = round;
                        live -= 1;
                        crashed_round += 1;
                        false
                    } else {
                        true
                    }
                });
            }

            batch.sort_unstable();
            tick = next_tick(tick, sent_at);
            // Bookkeeping splits around the round: crash filtering +
            // sort above, the apply loop below; the two slices are
            // summed into one `Bookkeeping` phase event.
            let book_pre_ns = round_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            let send_t0 = tracing.then(Instant::now);

            // Send phase: each shard scans a contiguous slice of the
            // sorted batch — equivalently, a contiguous node-id range —
            // and parks its senders' outboxes in its range of the table.
            // Rounds too small to amortize a spawn stay on this thread,
            // which always runs the last shard itself.
            let len = batch.len();
            let s = shards.min(len / MIN_SHARD_BATCH).max(1);
            while stages.len() < s {
                stages.push(Stage::default());
            }
            let info =
                RoundInfo { graph: &graph, round, tick, n_upper, seed, fault: &fault, bit_limit };
            std::thread::scope(|scope| {
                let (mut nodes, mut rngs) = (&mut nodes[..], &mut rngs[..]);
                let (mut mail, mut sent_at) = (&mut mail[..], &mut sent_at[..]);
                let mut id_lo = 0;
                for (k, stage) in stages[..s].iter_mut().enumerate() {
                    stage.clear();
                    let (lo, hi, id_hi) = shard_bounds(batch, n, s, k);
                    let ids = id_hi - id_lo;
                    let chunk = Chunk {
                        base: id_lo as NodeId,
                        batch: &batch[lo..hi],
                        nodes: take_front(&mut nodes, ids),
                        rngs: take_front(&mut rngs, ids),
                    };
                    let mail = take_front(&mut mail, ids);
                    let sent_at = take_front(&mut sent_at, ids);
                    id_lo = id_hi;
                    let work = move || send_shard(&info, chunk, mail, sent_at, stage);
                    if k + 1 < s {
                        scope.spawn(work);
                    } else {
                        work();
                    }
                }
            });
            if let Some(t) = trace_guard.as_deref_mut() {
                let nanos = send_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                t.event(&TraceEvent::Phase { round, phase: TracePhase::Send, nanos });
                for (k, stage) in stages[..s].iter().enumerate() {
                    let (lo, hi, _) = shard_bounds(batch, n, s, k);
                    t.event(&TraceEvent::ShardBatch {
                        round,
                        shard: k,
                        nodes: hi - lo,
                        messages: stage.sent as usize,
                    });
                }
            }
            let merge_t0 = tracing.then(Instant::now);
            // Shards cover ascending id ranges, so the first erroring
            // shard's first error is exactly what the serial loop would
            // have returned.
            for stage in stages[..s].iter_mut() {
                if let Some(err) = stage.err.take() {
                    break 'rounds Err(err);
                }
            }
            let mut sent = 0;
            for stage in stages[..s].iter() {
                sent += stage.sent;
                metrics.max_message_bits = metrics.max_message_bits.max(stage.max_bits);
                metrics.total_message_bits += stage.total_bits;
            }
            metrics.messages_sent += sent;
            if let Some(t) = trace_guard.as_deref_mut() {
                let nanos = merge_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                t.event(&TraceEvent::Phase { round, phase: TracePhase::Merge, nanos });
            }
            let recv_t0 = tracing.then(Instant::now);

            // Receive phase: same shard layout; every shard reads the
            // whole outbox table and records actions for the serial
            // apply step below.
            actions.clear();
            actions.resize(len, Action::Continue);
            std::thread::scope(|scope| {
                let (mut nodes, mut rngs) = (&mut nodes[..], &mut rngs[..]);
                let mut actions = &mut actions[..];
                let (mail, sent_at) = (&mail[..], &sent_at[..]);
                let mut id_lo = 0;
                for (k, stage) in stages[..s].iter_mut().enumerate() {
                    let (lo, hi, id_hi) = shard_bounds(batch, n, s, k);
                    let ids = id_hi - id_lo;
                    let chunk = Chunk {
                        base: id_lo as NodeId,
                        batch: &batch[lo..hi],
                        nodes: take_front(&mut nodes, ids),
                        rngs: take_front(&mut rngs, ids),
                    };
                    let actions = take_front(&mut actions, hi - lo);
                    id_lo = id_hi;
                    let work = move || receive_shard(&info, chunk, mail, sent_at, actions, stage);
                    if k + 1 < s {
                        scope.spawn(work);
                    } else {
                        work();
                    }
                }
            });
            // Every copy a receiver did not take went to a sleeping node.
            let (mut delivered, mut faulted) = (0, 0);
            for stage in stages[..s].iter() {
                delivered += stage.delivered;
                faulted += stage.faulted;
            }
            let lost = sent - delivered - faulted;
            metrics.messages_delivered += delivered;
            metrics.messages_faulted += faulted;
            metrics.messages_lost += lost;

            if let Some(t) = trace_guard.as_deref_mut() {
                let nanos = recv_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                t.event(&TraceEvent::Phase { round, phase: TracePhase::Receive, nanos });
            }
            let apply_t0 = tracing.then(Instant::now);

            // Apply step, serial and in id order: queue pushes, sleep
            // validation, and termination bookkeeping — so scheduling
            // and error selection match the serial engine exactly.
            for (i, &v) in batch.iter().enumerate() {
                metrics.awake_rounds[v as usize] += 1;
                if let Some(h) = metrics.wake_history.as_mut() {
                    h[v as usize].push(round);
                }
                match actions[i] {
                    Action::Continue => queue.push(round + 1, v),
                    Action::SleepUntil(t) => {
                        if t <= round {
                            break 'rounds Err(SimError::BadSleep { node: v, round, until: t });
                        }
                        if t != SLEEP_FOREVER {
                            queue.push(t, v);
                        }
                        // SLEEP_FOREVER parks the node: it stays live but
                        // is never rescheduled, so a drained queue with
                        // parked nodes left is a deadlock.
                    }
                    Action::Terminate => {
                        metrics.terminated_at[v as usize] = round;
                        live -= 1;
                    }
                }
            }

            if let Some(t) = trace_guard.as_deref_mut() {
                let apply_ns = apply_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                t.event(&TraceEvent::Phase {
                    round,
                    phase: TracePhase::Bookkeeping,
                    nanos: book_pre_ns + apply_ns,
                });
                t.event(&TraceEvent::RoundEnd {
                    round,
                    nanos: round_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64),
                    delivered,
                    lost,
                    faulted,
                    crashed: crashed_round,
                    arena_bytes: table_bytes,
                });
            }
        };

        if let Some(t) = trace_guard.as_deref_mut() {
            t.event(&TraceEvent::RunEnd {
                active_rounds: metrics.active_rounds,
                awake_total: metrics.awake_total(),
            });
        }
        drop(trace_guard);
        run_result?;

        let outputs = nodes
            .iter()
            .enumerate()
            .map(|(v, p)| {
                if metrics.crashed_at[v].is_some() {
                    p.aborted_output()
                } else {
                    p.output()
                }
            })
            .collect();
        Ok(RunReport { outputs, metrics })
    }
}

/// What every shard of a round reads: the graph and the round's
/// constants.
#[derive(Clone, Copy)]
struct RoundInfo<'a> {
    graph: &'a Graph,
    round: Round,
    /// The round's send tick, stamped into `SimScratch::sent_at`.
    tick: u32,
    n_upper: usize,
    seed: u64,
    fault: &'a FaultModel,
    bit_limit: Option<usize>,
}

/// One shard's slice of the sorted batch together with the matching id
/// range `base..` of the per-node arrays: node `v`'s entries sit at
/// index `v - base`.
struct Chunk<'a, P> {
    base: NodeId,
    batch: &'a [NodeId],
    nodes: &'a mut [P],
    rngs: &'a mut [SmallRng],
}

/// Shard `k` of `s` over the sorted `batch`: its batch positions
/// `lo..hi` and the end of its node-id range. The previous shard's end
/// (0 for the first) starts the range, so the shards' id ranges tile
/// `0..n`.
fn shard_bounds(batch: &[NodeId], n: usize, s: usize, k: usize) -> (usize, usize, usize) {
    let len = batch.len();
    let (lo, hi) = (k * len / s, (k + 1) * len / s);
    (lo, hi, if hi == len { n } else { batch[hi] as usize })
}

/// Splits the first `len` elements off `rest`, leaving the remainder.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// One shard of a round's send phase: runs each node's `send` in id
/// order, accounts the copies it sends, and parks every non-silent
/// outbox in `mail` with the round's tick in `sent_at` (both indexed
/// from `chunk.base`). Unicast lists are checked against the sender's
/// degree and stably sorted by port, so a receiver finds its entries by
/// binary search and a port listed twice keeps the sender's order.
fn send_shard<P: Protocol>(
    info: &RoundInfo,
    chunk: Chunk<'_, P>,
    mail: &mut [Outbox<P::Msg>],
    sent_at: &mut [u32],
    stage: &mut Stage<P::Msg>,
) {
    let (round, bit_limit) = (info.round, info.bit_limit);
    for &v in chunk.batch {
        let i = (v - chunk.base) as usize;
        let degree = info.graph.degree(v);
        let rng = &mut chunk.rngs[i];
        let mut ctx = NodeCtx { node: v, degree, round, n_upper: info.n_upper, rng };
        let mut outbox = chunk.nodes[i].send(&mut ctx);
        match &mut outbox {
            Outbox::Silent => continue,
            Outbox::Unicast(list) if list.is_empty() => continue,
            Outbox::Broadcast(msg) => {
                let bits = crate::message::MessageSize::bits(msg);
                if !stage.account(v, round, bits, degree, bit_limit) {
                    return;
                }
            }
            Outbox::Unicast(list) => {
                for (port, msg) in list.iter() {
                    let bits = crate::message::MessageSize::bits(msg);
                    if !stage.account(v, round, bits, 1, bit_limit) {
                        return;
                    }
                    if *port as usize >= degree {
                        stage.err = Some(SimError::BadPort { node: v, round, port: *port, degree });
                        return;
                    }
                }
                list.sort_by_key(|&(port, _)| port);
            }
        }
        mail[i] = outbox;
        sent_at[i] = info.tick;
    }
}

/// One shard of a round's receive phase: builds each receiver's inbox
/// by walking its ports in order and pulling from every neighbour whose
/// `sent_at` stamp is this round's tick, then runs `receive` and records
/// the chosen [`Action`]. `mail` and `sent_at` are the whole tables,
/// shared read-only by all shards. Lossy links drop copies i.i.d.,
/// keyed by the sender's (node, port) and the round — independent of
/// the shard layout.
fn receive_shard<P: Protocol>(
    info: &RoundInfo,
    chunk: Chunk<'_, P>,
    mail: &[Outbox<P::Msg>],
    sent_at: &[u32],
    actions: &mut [Action],
    stage: &mut Stage<P::Msg>,
) {
    let (graph, fault, round) = (info.graph, info.fault, info.round);
    // Whether the link drops what `u` sent through its port `q`. Callers
    // test `fault.loss > 0.0` first, which also skips looking `q` up for
    // a broadcast.
    let dropped =
        |u: NodeId, q: Port| fault_unit(info.seed, FAULT_LOSS, loss_site(u, q), round) < fault.loss;
    for (k, &v) in chunk.batch.iter().enumerate() {
        stage.inbox.clear();
        let neighbors = graph.neighbors(v);
        for (p, &u) in neighbors.iter().enumerate() {
            if sent_at[u as usize] != info.tick {
                continue;
            }
            let p = p as Port;
            match &mail[u as usize] {
                Outbox::Silent => {}
                Outbox::Broadcast(msg) => {
                    let drop = fault.loss > 0.0 && dropped(u, graph.endpoint(v, p).1);
                    stage.take(p, msg, drop);
                }
                Outbox::Unicast(list) => {
                    let q = graph.endpoint(v, p).1;
                    let drop = fault.loss > 0.0 && dropped(u, q);
                    let from = list.partition_point(|&(port, _)| port < q);
                    for (_, msg) in list[from..].iter().take_while(|&&(port, _)| port == q) {
                        stage.take(p, msg, drop);
                    }
                }
            }
        }
        let i = (v - chunk.base) as usize;
        let (degree, rng) = (neighbors.len(), &mut chunk.rngs[i]);
        let mut ctx = NodeCtx { node: v, degree, round, n_upper: info.n_upper, rng };
        actions[k] = chunk.nodes[i].receive(&mut ctx, &stage.inbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;

    /// Flood protocol: node 0 starts with a token; each node forwards the
    /// token once, the round after first hearing it, then terminates.
    #[derive(Debug)]
    struct Flood {
        has_token: bool,
        sent: bool,
        got_at: Option<Round>,
    }

    impl Flood {
        fn start(seeded: bool) -> Flood {
            Flood { has_token: seeded, sent: false, got_at: if seeded { Some(0) } else { None } }
        }
    }

    impl Protocol for Flood {
        type Msg = ();
        type Output = Option<Round>;
        fn send(&mut self, _ctx: &mut NodeCtx) -> Outbox<()> {
            if self.has_token && !self.sent {
                self.sent = true;
                Outbox::Broadcast(())
            } else {
                Outbox::Silent
            }
        }
        fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, ())]) -> Action {
            if !self.has_token && !inbox.is_empty() {
                self.has_token = true;
                self.got_at = Some(ctx.round);
            }
            if self.sent {
                Action::Terminate
            } else {
                Action::Continue
            }
        }
        fn output(&self) -> Option<Round> {
            self.got_at
        }
    }

    #[test]
    fn flood_reaches_everyone_in_bfs_order() {
        let g = generators::path(5);
        let nodes = (0..5).map(|v| Flood::start(v == 0)).collect();
        let report = Simulator::new(g, nodes, SimConfig::default()).run().unwrap();
        assert_eq!(report.outputs, vec![Some(0), Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(report.metrics.round_complexity(), 5);
    }

    /// Sleeper: node v sleeps to round `gap * v`, broadcasts once, and
    /// records what it heard.
    #[derive(Debug)]
    struct Sleeper {
        wake_at: Round,
        phase: u8,
        heard: usize,
    }

    impl Protocol for Sleeper {
        type Msg = u32;
        type Output = usize;
        fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u32> {
            if ctx.round == self.wake_at {
                Outbox::Broadcast(ctx.node)
            } else {
                Outbox::Silent
            }
        }
        fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, u32)]) -> Action {
            if ctx.round < self.wake_at {
                self.phase = 1;
                Action::SleepUntil(self.wake_at)
            } else {
                self.heard = inbox.len();
                Action::Terminate
            }
        }
        fn output(&self) -> usize {
            self.heard
        }
    }

    #[test]
    fn messages_to_sleeping_nodes_are_lost() {
        // Path 0-1-2; all wake at distinct rounds (> 0, since every node
        // starts awake in round 0) → nobody hears anything.
        let g = generators::path(3);
        let nodes =
            (0..3).map(|v| Sleeper { wake_at: 10 * (v + 1) as Round, phase: 0, heard: 0 }).collect();
        let report = Simulator::new(g, nodes, SimConfig::default()).run().unwrap();
        assert_eq!(report.outputs, vec![0, 0, 0]);
        assert_eq!(report.metrics.messages_delivered, 0);
        assert_eq!(report.metrics.messages_lost, 4);
        // Only 4 active rounds (0, 10, 20, 30) despite round complexity 31.
        assert_eq!(report.metrics.active_rounds, 4);
        assert_eq!(report.metrics.round_complexity(), 31);
    }

    #[test]
    fn simultaneously_awake_nodes_communicate() {
        let g = generators::path(3);
        let nodes = (0..3).map(|_| Sleeper { wake_at: 5, phase: 0, heard: 0 }).collect();
        let report = Simulator::new(g, nodes, SimConfig::default()).run().unwrap();
        assert_eq!(report.outputs, vec![1, 2, 1]);
        assert_eq!(report.metrics.messages_lost, 0);
        // Awake in round 0 (initial) + round 5.
        assert_eq!(report.metrics.awake_complexity(), 2);
    }

    #[test]
    fn node_count_mismatch_detected() {
        let g = generators::path(3);
        let nodes = vec![Flood::start(true)];
        let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
        assert_eq!(err, SimError::NodeCountMismatch { nodes: 3, protocols: 1 });
    }

    /// A protocol that sleeps forever after round 0 without terminating.
    struct Insomniac;
    impl Protocol for Insomniac {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &mut NodeCtx) -> Outbox<()> {
            Outbox::Silent
        }
        fn receive(&mut self, ctx: &mut NodeCtx, _: &[(Port, ())]) -> Action {
            // Sleep far beyond the round cap.
            Action::SleepUntil(ctx.round + u64::MAX / 2)
        }
        fn output(&self) {}
    }

    #[test]
    fn round_limit_guards_runaway_sleeps() {
        let g = generators::path(2);
        let cfg = SimConfig { max_rounds: 1000, ..SimConfig::default() };
        let err = Simulator::new(g, vec![Insomniac, Insomniac], cfg).run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimit(_)));
    }

    /// Broadcasts a 64-bit message once.
    struct BigTalker;
    impl Protocol for BigTalker {
        type Msg = u64;
        type Output = ();
        fn send(&mut self, _: &mut NodeCtx) -> Outbox<u64> {
            Outbox::Broadcast(42)
        }
        fn receive(&mut self, _: &mut NodeCtx, _: &[(Port, u64)]) -> Action {
            Action::Terminate
        }
        fn output(&self) {}
    }

    #[test]
    fn bit_limit_enforced() {
        let g = generators::path(2);
        let cfg = SimConfig { bit_limit: Some(32), ..SimConfig::default() };
        let err = Simulator::new(g, vec![BigTalker, BigTalker], cfg).run().unwrap_err();
        assert!(matches!(err, SimError::MessageTooLarge { bits: 64, limit: 32, .. }));
        let cfg2 = SimConfig { bit_limit: Some(64), ..SimConfig::default() };
        let g2 = generators::path(2);
        let report = Simulator::new(g2, vec![BigTalker, BigTalker], cfg2).run().unwrap();
        assert_eq!(report.metrics.max_message_bits, 64);
    }

    /// Sleeps to the past — must be rejected.
    struct TimeTraveler;
    impl Protocol for TimeTraveler {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &mut NodeCtx) -> Outbox<()> {
            Outbox::Silent
        }
        fn receive(&mut self, ctx: &mut NodeCtx, _: &[(Port, ())]) -> Action {
            Action::SleepUntil(ctx.round)
        }
        fn output(&self) {}
    }

    #[test]
    fn sleeping_into_the_past_rejected() {
        let g = generators::path(2);
        let err = Simulator::new(g, vec![TimeTraveler, TimeTraveler], SimConfig::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::BadSleep { until: 0, .. }));
    }

    #[test]
    fn wake_history_recorded() {
        let g = generators::path(2);
        let cfg = SimConfig { record_wake_history: true, ..SimConfig::default() };
        let nodes = (0..2).map(|v| Sleeper { wake_at: 3 + v as Round, phase: 0, heard: 0 }).collect();
        let report = Simulator::new(g, nodes, cfg).run().unwrap();
        let h = report.metrics.wake_history.unwrap();
        assert_eq!(h[0], vec![0, 3]);
        assert_eq!(h[1], vec![0, 4]);
    }

    #[test]
    fn unicast_routing_and_rng_determinism() {
        /// Node sends a random u32 to port 0 only.
        struct RandomUnicast {
            drew: u32,
            heard: Vec<u32>,
        }
        impl Protocol for RandomUnicast {
            type Msg = u32;
            type Output = (u32, Vec<u32>);
            fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u32> {
                self.drew = rand::Rng::gen(ctx.rng);
                Outbox::Unicast(vec![(0, self.drew)])
            }
            fn receive(&mut self, _: &mut NodeCtx, inbox: &[(Port, u32)]) -> Action {
                self.heard = inbox.iter().map(|&(_, m)| m).collect();
                Action::Terminate
            }
            fn output(&self) -> (u32, Vec<u32>) {
                (self.drew, self.heard.clone())
            }
        }

        let run = || {
            let g = generators::path(3); // 1's port 0 → 0
            let nodes = (0..3).map(|_| RandomUnicast { drew: 0, heard: vec![] }).collect();
            Simulator::new(g, nodes, SimConfig::seeded(99)).run().unwrap().outputs
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce identical runs");
        // Node 0's port 0 goes to node 1; node 1 sent its value to port 0 (node 0).
        assert_eq!(a[0].1, vec![a[1].0]);
        // Node 2 sent to port 0 (node 1) and node 1 heard from ports 0 and 1.
        assert_eq!(a[1].1.len(), 2);
        // Distinct nodes draw distinct randomness (overwhelmingly likely).
        assert_ne!(a[0].0, a[1].0);
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // Re-running through one scratch (dirty from a prior, *different*
        // run) must reproduce the fresh-allocation results bit for bit.
        let mut scratch = SimScratch::new();
        let big = generators::gnp(50, 0.2, &mut {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(3)
        });
        let nodes = (0..big.n()).map(|v| Sleeper { wake_at: 2 + v as Round, phase: 0, heard: 0 }).collect();
        Simulator::new(big, nodes, SimConfig::seeded(8)).run_with_scratch(&mut scratch).unwrap();

        let g = generators::path(3);
        let mk = || (0..3).map(|_| Sleeper { wake_at: 5, phase: 0, heard: 0 }).collect();
        let fresh = Simulator::new(g.clone(), mk(), SimConfig::default()).run().unwrap();
        let reused = Simulator::new(g, mk(), SimConfig::default())
            .run_with_scratch(&mut scratch)
            .unwrap();
        assert_eq!(fresh.outputs, reused.outputs);
        assert_eq!(fresh.metrics.awake_rounds, reused.metrics.awake_rounds);
        assert_eq!(fresh.metrics.active_rounds, reused.metrics.active_rounds);
        assert_eq!(fresh.metrics.messages_lost, reused.metrics.messages_lost);
    }

    #[test]
    fn send_tick_restarts_before_it_wraps() {
        // A stale stamp must never equal a live tick: at `u32::MAX` the
        // table is wiped and counting restarts at 1.
        let mut sent_at = vec![3, u32::MAX, 0];
        assert_eq!(next_tick(7, &mut sent_at), 8);
        assert_eq!(sent_at, vec![3, u32::MAX, 0]);
        assert_eq!(next_tick(u32::MAX, &mut sent_at), 1);
        assert_eq!(sent_at, vec![0, 0, 0]);
    }

    #[test]
    fn wake_queue_skips_and_orders() {
        // Direct unit test of the calendar queue: mixed near/far pushes
        // drain in round order with same-round nodes batched together.
        let mut q = WakeQueue::default();
        q.push(0, 0);
        q.push(0, 1);
        q.push(5, 2);
        q.push(1_000_000, 3);
        q.push(70, 4);
        q.push(1_000_000, 5);
        let mut out = Vec::new();
        assert_eq!(q.pop_round(&mut out), Some(0));
        assert_eq!(out, vec![0, 1]);
        // Push into the near window relative to the new base.
        q.push(5, 6);
        assert_eq!(q.pop_round(&mut out), Some(5));
        {
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![2, 6]);
        }
        assert_eq!(q.pop_round(&mut out), Some(70));
        assert_eq!(out, vec![4]);
        assert_eq!(q.pop_round(&mut out), Some(1_000_000));
        {
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![3, 5]);
        }
        assert_eq!(q.pop_round(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn wake_queue_push_below_base_saturates() {
        // A push below the window base must not wrap `t - base`; it
        // saturates to the base — the earliest legal round.
        let mut q = WakeQueue::default();
        q.push(10, 0);
        let mut out = Vec::new();
        assert_eq!(q.pop_round(&mut out), Some(10)); // base is now 10
        q.push(3, 1); // below base: saturates to round 10
        q.push(12, 2);
        assert_eq!(q.pop_round(&mut out), Some(10));
        assert_eq!(out, vec![1]);
        assert_eq!(q.pop_round(&mut out), Some(12));
        assert_eq!(out, vec![2]);
        assert_eq!(q.pop_round(&mut out), None);
    }

    #[test]
    fn wake_queue_promotes_exactly_at_the_near_boundary() {
        // `t - base == NEAR` must go to the far map (round t's ring
        // bucket is still owned by round t - NEAR) and promote cleanly
        // once the base advances; an entry exactly NEAR past the *new*
        // base must stay far through that promotion pass.
        let mut q = WakeQueue::default();
        q.push(0, 0);
        q.push(NEAR, 1);
        q.push(2 * NEAR, 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_round(&mut out), Some(0));
        assert_eq!(out, vec![0]);
        assert_eq!(q.pop_round(&mut out), Some(NEAR));
        assert_eq!(out, vec![1]);
        assert_eq!(q.pop_round(&mut out), Some(2 * NEAR));
        assert_eq!(out, vec![2]);
        assert_eq!(q.pop_round(&mut out), None);
    }

    #[test]
    fn lossy_links_drop_deliverable_messages() {
        use crate::fault::FaultModel;
        // All three nodes awake together in round 5: cleanly, 4 copies
        // deliver. With loss = 1 every deliverable copy is faulted away.
        let mk = || (0..3).map(|_| Sleeper { wake_at: 5, phase: 0, heard: 0 }).collect();
        let g = generators::path(3);
        let cfg = SimConfig {
            fault: FaultModel { loss: 1.0, ..FaultModel::none() },
            ..SimConfig::seeded(9)
        };
        let report = Simulator::new(g.clone(), mk(), cfg).run().unwrap();
        assert_eq!(report.outputs, vec![0, 0, 0]);
        assert_eq!(report.metrics.messages_delivered, 0);
        assert_eq!(report.metrics.messages_faulted, 4);
        assert_eq!(report.metrics.messages_lost, 0);

        // loss = 0 leaves the run bit-for-bit clean, faulted counter and all.
        let clean = Simulator::new(g, mk(), SimConfig::seeded(9)).run().unwrap();
        assert_eq!(clean.outputs, vec![1, 2, 1]);
        assert_eq!(clean.metrics.messages_faulted, 0);
    }

    #[test]
    fn partial_loss_is_deterministic() {
        use crate::fault::FaultModel;
        let run = |seed: u64| {
            let g = generators::gnp(40, 0.3, &mut {
                use rand::SeedableRng;
                rand::rngs::SmallRng::seed_from_u64(1)
            });
            let nodes = (0..g.n()).map(|_| Sleeper { wake_at: 5, phase: 0, heard: 0 }).collect();
            let cfg = SimConfig {
                fault: FaultModel { loss: 0.5, ..FaultModel::none() },
                ..SimConfig::seeded(seed)
            };
            Simulator::new(g, nodes, cfg).run().unwrap()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.outputs, b.outputs, "same seed must reproduce identical fault draws");
        assert_eq!(a.metrics.messages_faulted, b.metrics.messages_faulted);
        assert!(a.metrics.messages_faulted > 0, "loss 0.5 must drop something");
        assert!(a.metrics.messages_delivered > 0, "loss 0.5 must deliver something");
        let c = run(4);
        assert_ne!(
            a.metrics.messages_faulted, c.metrics.messages_faulted,
            "different seeds draw different fault streams (overwhelmingly likely)"
        );
    }

    #[test]
    fn crashes_stop_nodes_and_collect_aborted_outputs() {
        use crate::fault::FaultModel;
        // crash = 1 in window [0, 0]: every node crashes in round 0,
        // before executing anything.
        let g = generators::path(4);
        let nodes = (0..4).map(|v| Flood::start(v == 0)).collect();
        let cfg = SimConfig {
            fault: FaultModel { crash: 1.0, crash_from: 0, crash_until: 0, ..FaultModel::none() },
            ..SimConfig::seeded(2)
        };
        let report = Simulator::new(g, nodes, cfg).run().unwrap();
        assert_eq!(report.metrics.crashed_count(), 4);
        assert_eq!(report.metrics.alive(), vec![false; 4]);
        assert_eq!(report.metrics.crashed_at, vec![Some(0); 4]);
        // Outputs are the initial states: only the seeded node has the token.
        assert_eq!(report.outputs, vec![Some(0), None, None, None]);
        assert_eq!(report.metrics.awake_rounds, vec![0; 4]);
        assert_eq!(report.metrics.messages_sent, 0);
    }

    #[test]
    fn crash_window_limits_the_exposure() {
        use crate::fault::FaultModel;
        // Window [1, ∞) with crash = 1: round 0 executes cleanly, every
        // node that wakes again afterwards crashes then.
        let g = generators::path(3);
        let nodes =
            (0..3).map(|v| Sleeper { wake_at: 10 * (v + 1) as Round, phase: 0, heard: 0 }).collect();
        let cfg = SimConfig {
            fault: FaultModel { crash: 1.0, crash_from: 1, ..FaultModel::none() },
            ..SimConfig::seeded(2)
        };
        let report = Simulator::new(g, nodes, cfg).run().unwrap();
        assert_eq!(report.metrics.crashed_at, vec![Some(10), Some(20), Some(30)]);
        // Everyone executed round 0 (awake once) and died at their wake round.
        assert_eq!(report.metrics.awake_rounds, vec![1, 1, 1]);
    }

    #[test]
    fn wake_jitter_staggers_the_start() {
        use crate::fault::FaultModel;
        let g = generators::path(6);
        let mk = || (0..6).map(|_| Sleeper { wake_at: 100, phase: 0, heard: 0 }).collect::<Vec<_>>();
        let cfg = SimConfig {
            record_wake_history: true,
            fault: FaultModel { wake_jitter: 8, ..FaultModel::none() },
            ..SimConfig::seeded(7)
        };
        let report = Simulator::new(g.clone(), mk(), cfg.clone()).run().unwrap();
        let h = report.metrics.wake_history.as_ref().unwrap();
        let starts: Vec<Round> = h.iter().map(|w| w[0]).collect();
        assert!(starts.iter().all(|&s| s <= 8), "jitter must stay in 0..=8: {starts:?}");
        assert!(
            starts.iter().any(|&s| s > 0),
            "with jitter 8 over 6 nodes some node starts late (overwhelmingly likely): {starts:?}"
        );
        // Deterministic in the seed.
        let again = Simulator::new(g, mk(), cfg).run().unwrap();
        assert_eq!(again.metrics.wake_history.as_ref().unwrap(), h);
    }

    #[test]
    fn sleep_forever_deadlocks_once_schedule_drains() {
        /// Node 0 terminates immediately; node 1 parks forever.
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

        let g = generators::path(2);
        let nodes = vec![Parker { parks: false }, Parker { parks: true }];
        let err = Simulator::new(g, nodes, SimConfig::default()).run().unwrap_err();
        assert_eq!(err, SimError::Deadlock { sleeping_forever: 1 });
    }
}
