//! Event-driven simulator for the **SLEEPING-CONGEST** model.
//!
//! This crate implements the distributed computing model of
//! *"Distributed MIS in O(log log n) Awake Complexity"*
//! (Dufoulon–Moses–Pandurangan, PODC 2023), §1.3:
//!
//! * Computation proceeds in **synchronous rounds**. In each round an
//!   *awake* node (1) performs local computation, (2) sends `O(log n)`-bit
//!   messages through its ports, and (3) receives the messages sent to it
//!   *in the same round* by awake neighbors.
//! * Each node is either **awake** or **asleep** in every round. A message
//!   sent to a sleeping node is *lost* (and a sleeping node sends nothing).
//!   Nodes know the global round number whenever they are awake and may
//!   sleep until any chosen future round, arbitrarily often.
//! * The **awake complexity** of a run is the maximum, over nodes, of the
//!   number of rounds the node was awake before terminating; the **round
//!   complexity** counts all rounds, sleeping or awake.
//!
//! # Why event-driven
//!
//! The algorithms built on this model have round complexities like
//! `Θ(log⁷ n · log log n)` while keeping every node awake only
//! `O(log log n)` rounds. The engine therefore never iterates over rounds
//! in which *every* node sleeps: it keeps a calendar/bucket queue of
//! scheduled wake-ups (a 64-round bitmask window over ring buckets, with
//! a sorted overflow map for far-future wake-ups) and jumps directly from
//! one *active* round to the next — skipping an empty all-asleep round
//! range costs O(1) inside the window and one ordered-map lookup beyond
//! it. The semantics are identical to a round-by-round execution
//! (sleeping rounds are observationally empty), but a run costs time
//! proportional to the total number of *awake node-rounds*, not to the
//! round complexity.
//!
//! For running *grids* of simulations (seed sweeps, scaling studies) see
//! [`batch`] and [`SimScratch`]: per-worker scratch memory is reused
//! across runs and jobs fan out over OS threads with results in
//! deterministic job order.
//!
//! # Example
//!
//! ```
//! use sleeping_congest::{Action, NodeCtx, Outbox, Protocol, SimConfig, Simulator};
//! use graphgen::{generators, Port};
//!
//! /// Every node broadcasts once and outputs the number of values it
//! /// heard (itself included).
//! struct CountNeighbors {
//!     heard: u32,
//! }
//!
//! impl Protocol for CountNeighbors {
//!     type Msg = ();
//!     type Output = u32;
//!     fn send(&mut self, _ctx: &mut NodeCtx) -> Outbox<()> {
//!         Outbox::Broadcast(())
//!     }
//!     fn receive(&mut self, _ctx: &mut NodeCtx, inbox: &[(Port, ())]) -> Action {
//!         self.heard = 1 + inbox.len() as u32;
//!         Action::Terminate
//!     }
//!     fn output(&self) -> u32 {
//!         self.heard
//!     }
//! }
//!
//! let g = generators::cycle(5);
//! let nodes = (0..5).map(|_| CountNeighbors { heard: 0 }).collect();
//! let report = Simulator::new(g, nodes, SimConfig::default()).run()?;
//! assert_eq!(report.outputs, vec![3, 3, 3, 3, 3]);
//! assert_eq!(report.metrics.awake_complexity(), 1);
//! # Ok::<(), sleeping_congest::SimError>(())
//! ```

pub mod arena;
pub mod batch;
pub mod engine;
pub mod fault;
pub mod message;
pub mod metrics;
pub mod protocol;
pub mod rng;
pub mod trace;

pub use arena::ScratchArena;
pub use batch::{available_threads, resolve_threads, run_batch};
pub use engine::{SimConfig, SimError, SimScratch, Simulator, SLEEP_FOREVER};
pub use fault::FaultModel;
pub use message::{bits_for_value, MessageSize};
pub use metrics::{AwakeDistribution, Metrics, RunReport};
pub use protocol::{Action, Inbox, NodeCtx, Outbox, Protocol, Standalone, SubProtocol, Window};
pub use trace::{JsonlSink, Profile, TraceEvent, TraceHandle, TracePhase, TraceSink};

/// A round number. Round 0 is the first round; all nodes start awake in
/// round 0.
pub type Round = u64;
