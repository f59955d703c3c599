//! **Labeled distance trees** (LDTs) with awake-efficient construction
//! and operations — the spanning-tree substrate of
//! *"Distributed MIS in O(log log n) Awake Complexity"* (PODC 2023,
//! §5.2 and Appendix A), originally introduced by
//! Augustine–Moses–Pandurangan (PODC 2022).
//!
//! An LDT over a connected node set is a rooted spanning tree in which
//! every node knows (i) the root's ID, (ii) its own depth, and (iii) its
//! parent and children ports. Once built, an LDT supports *broadcast* and
//! *ranking* in **O(1) awake rounds** ([`ops`]), which is the engine
//! behind `LDT-MIS`'s cheap random-ID assignment.
//!
//! # Modules
//!
//! * [`wave`] — the paper's transmission schedule (Appendix A.1),
//!   reordered into up-then-down wave blocks (gather → scatter in one
//!   block).
//! * [`construct`] — LDT construction: one driver ([`Construct`]) and two
//!   merge rules selected by [`LdtStrategy`]. The coin rule
//!   (`LDT-Construct-Awake`) costs O(log n′) awake rounds w.h.p.
//!   (randomized fragment merging in place of the deterministic
//!   construction that Lemma 6 of arXiv:2204.08359 cites); the matching
//!   rule (`LDT-Construct-Round`, Appendix A.2) is deterministic, with
//!   O(log n′ · log* I) awake complexity, built on GHS merging with
//!   Cole–Vishkin coloring of the fragment supergraph.
//! * [`ops`] — broadcast and ranking over a constructed LDT.
//! * [`verify`] — structural validation of a constructed forest.
//!
//! # Example: build an LDT over a cycle
//!
//! ```
//! use graphgen::generators;
//! use ldt::construct::{Construct, ConstructParams, LdtStrategy};
//! use ldt::verify::verify_fldt;
//! use sleeping_congest::{SimConfig, Simulator, Standalone};
//!
//! let n = 8u32;
//! let g = generators::cycle(n as usize);
//! let nodes = (0..n)
//!     .map(|v| {
//!         let params = ConstructParams {
//!             my_id: (v + 1) as u64 * 7 + 1, // any distinct ids
//!             id_upper: 1000,
//!             k: n,
//!         };
//!         Standalone::new(Construct::new(params, LdtStrategy::Awake))
//!     })
//!     .collect();
//! let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(3)).run()?;
//! verify_fldt(&g, &report.outputs, &vec![true; n as usize]).expect("valid LDT");
//! # Ok::<(), sleeping_congest::SimError>(())
//! ```

pub mod construct;
mod construct_awake;
mod construct_round;
pub mod msg;
pub mod ops;
pub mod state;
pub mod verify;
pub mod wave;

pub use construct::{Construct, ConstructParams, LdtOutput, LdtStrategy};
pub use msg::{ConstructMsg, OpsMsg};
pub use ops::{LdtBroadcast, LdtRanking, RankResult};
pub use state::{EdgeKey, PortInfo, TreeState};
pub use wave::WaveSchedule;
