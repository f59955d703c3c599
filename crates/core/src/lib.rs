//! Distributed MIS algorithms in the **sleeping model** — the primary
//! contribution of *"Distributed MIS in O(log log n) Awake Complexity"*
//! (Dufoulon–Moses–Pandurangan, PODC 2023), plus the baselines it is
//! measured against and the verifiers that check every output.
//!
//! # Algorithms
//!
//! | Algorithm | Paper | Awake complexity | Round complexity |
//! |-----------|-------|------------------|------------------|
//! | [`VtMis`] (`VT-MIS`) | Lemma 10 | `O(log I)` | `O(I)` |
//! | [`LdtMis`] (`LDT-MIS`) | Lemma 11 | `O(log n′ + n′ log n′/log I)` | `O(n′ · polylog)` |
//! | [`AwakeMis`] (`Awake-MIS`) | **Theorem 13** | `O(log log n)` | `O(log⁷ n · log log n)` |
//! | [`AwakeMis::corollary14`] | Corollary 14 | `O(log log n · log* n)` | `O(log³ n · log log n · log* n)` |
//! | [`NaiveGreedy`] | §5.3 baseline | `Θ(I)` | `Θ(I)` |
//! | [`Luby`] | classical baseline | `Θ(log n)` | `Θ(log n)` |
//! | [`NaMis`] (`NA-MIS`) | CGP, arXiv:2006.07449 | `O(1)` **node-averaged**, `Θ(log n)` worst case | `Θ(log n)` |
//! | [`AvgMis`] (`GP-Avg-MIS`) | GP, arXiv:2305.06120 | low average, worst case capped `2·balance + O(log N)` | `O(N³)` |
//! | [`LeMis`] (`LE-MIS`) | GP, arXiv:2305.11639 | `≈ epochs·(bits + 2)` — the **energy** dial | `≈ epochs·2^bits` — the **time** dial |
//!
//! The `NA-MIS`/`GP-Avg-MIS` rows optimize the *node-averaged* awake
//! complexity `(1/n)·Σ_v A_v` instead of (or alongside) the worst case —
//! see [`na_mis`] and [`avg_mis`] for the two measures and their
//! trade-off. `LE-MIS` ([`low_energy_mis`]) makes the *time vs energy*
//! trade-off itself the tunable quantity: sweeping its `bits` knob traces
//! the frontier between round complexity and awake complexity.
//!
//! # Example: Awake-MIS on a random graph
//!
//! ```
//! use awake_mis_core::{AwakeMis, check_mis};
//! use graphgen::generators;
//! use rand::SeedableRng;
//! use sleeping_congest::{SimConfig, Simulator};
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = generators::gnp(128, 0.05, &mut rng);
//! let nodes = (0..g.n()).map(|_| AwakeMis::theorem13()).collect();
//! let report = Simulator::new(g.clone(), nodes, SimConfig::seeded(7)).run()?;
//! let states: Vec<_> = report.outputs.iter().map(|o| o.state).collect();
//! check_mis(&g, &states).expect("a valid MIS");
//! // The point of the paper: every node was awake only O(log log n)
//! // rounds even though the algorithm spans millions of rounds.
//! assert!(report.metrics.awake_complexity() < 100);
//! # Ok::<(), sleeping_congest::SimError>(())
//! ```

pub mod avg_mis;
pub mod awake_mis;
pub mod coloring;
pub mod greedy;
pub mod incremental;
pub mod ldt_mis;
pub mod low_energy_mis;
pub mod luby;
pub mod matching;
pub mod na_mis;
pub mod naive;
pub mod state;
pub mod verify;
pub mod vt_mis;

pub use avg_mis::{AvgMis, AvgMisConfig, AvgMisOutput, AvgMsg};
pub use awake_mis::{derive_params, AwakeMis, AwakeMisConfig, AwakeMisOutput, DerivedParams};
pub use coloring::{coloring, colors_used, is_proper_coloring, ColoringResult};
pub use incremental::{repair, RepairConfig, RepairOutcome, SubSolution};
pub use ldt_mis::{LdtMis, LdtMisOutput, LdtMisParams, LdtStrategy};
pub use low_energy_mis::{LeMis, LeMisConfig, LeMisOutput, LeMsg, LE_MAX_BITS};
pub use luby::Luby;
pub use na_mis::{NaMis, NaMisConfig, NaMsg};
pub use matching::{is_matching, is_maximal_matching, maximal_matching, na_maximal_matching, MatchingResult};
pub use naive::NaiveGreedy;
pub use state::{MisMsg, MisState};
pub use verify::{
    check_maximal, check_mis, check_mis_at, check_mis_survivors, is_independent, is_lfmis,
    is_maximal, is_mis, states_to_set,
};
pub use vt_mis::VtMis;
