//! **awake-mis** — a full reproduction of
//! *"Distributed MIS in O(log log n) Awake Complexity"*
//! (Dufoulon–Moses–Pandurangan, PODC 2023) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] (`sleeping-congest`) — event-driven SLEEPING-CONGEST
//!   simulator: synchronous rounds, awake/asleep scheduling via a
//!   calendar/bucket wake queue that skips all-asleep round ranges,
//!   message loss to sleeping nodes, CONGEST bit accounting, awake/round
//!   metrics, and batched multi-thread execution with scratch reuse
//!   (`sim::batch`, `sim::SimScratch`).
//! * [`graphs`] (`graphgen`) — port-numbered CSR graphs, workload
//!   generators, and named generator families for grid iteration
//!   (`graphs::GraphFamily`).
//! * [`vtree`] — virtual binary tree communication sets (paper §5.1).
//! * [`ldt`] — labeled distance trees: transmission schedules,
//!   construction (two strategies), broadcast and ranking (§5.2, App. A).
//! * [`core`] (`awake-mis-core`) — the MIS algorithms: `VT-MIS`,
//!   `LDT-MIS`, **`Awake-MIS`** (Theorem 13 / Corollary 14) and the
//!   Luby / naive-greedy baselines plus verifiers.
//! * [`analysis`] — statistics, growth-law fitting, tables, the energy
//!   model, the extensible algorithm registry (`analysis::spec`), and
//!   the batched seed-grid experiment harness (`analysis::grid`) behind
//!   `BENCH_grid.json`.
//!
//! For the common experiment workflow there is also a [`prelude`].
//!
//! # Quickstart
//!
//! ```
//! use awake_mis::core::{AwakeMis, check_mis};
//! use awake_mis::graphs::generators;
//! use awake_mis::sim::{SimConfig, Simulator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = generators::gnp(200, 0.04, &mut rng);
//! let nodes = (0..g.n()).map(|_| AwakeMis::theorem13()).collect();
//! let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(2)).run()?;
//! let states: Vec<_> = report.outputs.iter().map(|o| o.state).collect();
//! check_mis(&g, &states).expect("valid MIS");
//! println!(
//!     "awake complexity {} over {} rounds",
//!     report.metrics.awake_complexity(),
//!     report.metrics.round_complexity()
//! );
//! # Ok::<(), awake_mis::sim::SimError>(())
//! ```

pub use analysis;
pub use awake_mis_core as core;
pub use graphgen as graphs;
pub use ldt;
pub use sleeping_congest as sim;
pub use vtree;

/// One-import surface for the common experiment workflow: resolve
/// algorithm specs from the registry, run them (standalone or as a
/// grid), verify and tabulate.
///
/// ```
/// use awake_mis::prelude::*;
///
/// let runner = default_registry().resolve("vt?id_upper=4096")?;
/// let g = generators::cycle(24);
/// let result = runner.run(&g, 7)?;
/// assert!(result.correct);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use crate::analysis::grid::{run_grid, GridMeta, GridResult, GridSpec};
    pub use crate::analysis::runners::AlgoResult;
    pub use crate::analysis::Document;
    pub use crate::analysis::spec::{
        default_registry, AlgorithmSpec, DynRunner, Registry, RunnerHandle, SpecError,
    };
    pub use crate::analysis::{Summary, Table};
    pub use crate::core::{check_maximal, check_mis, MisState};
    pub use crate::graphs::{generators, Graph, GraphFamily};
    pub use crate::sim::{
        Action, NodeCtx, Outbox, Protocol, ScratchArena, SimConfig, SimError, Simulator,
    };
}
