//! Port-numbered graphs and workload generators for distributed-algorithm
//! simulation.
//!
//! This crate provides the network substrate used by the
//! [`sleeping-congest`](../sleeping_congest/index.html) simulator and the
//! MIS algorithms built on top of it:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of a
//!   simple undirected graph with *port numbering*: each node's incident
//!   edges are numbered `0..degree`, and for every directed half-edge the
//!   reverse port at the other endpoint is precomputed. Port numbering is
//!   exactly the communication interface assumed by the CONGEST model of
//!   Dufoulon–Moses–Pandurangan (PODC 2023), §1.3.
//! * [`generators`] — workload generators: Erdős–Rényi, random geometric,
//!   Barabási–Albert, random regular, uniform random trees, stochastic
//!   block models, and a family of structured graphs (paths, cycles,
//!   cliques, stars, grids, tori, hypercubes, …).
//! * [`props`] — graph measurements (degrees, connected components,
//!   degeneracy) used by the experiment harness.
//! * [`families`] — named generator presets ([`GraphFamily`]) so
//!   experiment grids can iterate workloads as plain data and regenerate
//!   any instance from `(family, n, seed)`.
//! * [`Adjacency`] — read access through sorted neighbor lists, served
//!   by both [`Graph`] and [`DynGraph`], with induced subgraphs on top.
//! * [`delta`] — dynamic-graph support: [`DeltaBatch`] topology deltas
//!   and [`DynGraph`], a base CSR plus an overlay of rewritten neighbor
//!   lists with an active-node mask, whose batches cost `O(batch · Δ)`
//!   and keep the ports of untouched nodes, and which folds the overlay
//!   into a new base on a background thread.
//!
//! # Example
//!
//! ```
//! use graphgen::{Graph, generators};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let g = generators::gnp(100, 0.05, &mut rng);
//! assert_eq!(g.n(), 100);
//! for v in 0..g.n() as u32 {
//!     for port in 0..g.degree(v) as u32 {
//!         let (u, back) = g.endpoint(v, port);
//!         // The reverse port at `u` leads back to `v`.
//!         assert_eq!(g.endpoint(u, back).0, v);
//!     }
//! }
//! ```

pub mod delta;
pub mod families;
pub mod generators;
pub mod graph;
pub mod io;
pub mod products;
pub mod props;

pub use delta::{AppliedDelta, DeltaBatch, DeltaError, DynGraph};
pub use families::GraphFamily;
pub use graph::{Adjacency, Graph, GraphError, NodeId, Port};
