//! Incremental MIS repair under topology deltas.
//!
//! One-shot MIS pays the full `O(log n)`-round (or, for the paper's
//! algorithm, `O(log log n)`-awake) bill on every change. But a single
//! delta can only invalidate the MIS *locally*: an inserted edge whose
//! endpoints are both in the MIS breaks independence at those two nodes;
//! a deleted edge or a removed MIS node can leave its former neighbors
//! undominated. [`repair`] computes that **damage frontier** — the set
//! of nodes whose MIS validity a delta batch can actually break — wakes
//! only that neighborhood, re-runs a caller-supplied MIS solver on the
//! induced repair subgraph, and splices the result back. Every other
//! node stays asleep, which is the sleeping model's whole value
//! proposition applied to churn: awake cost proportional to the damage,
//! not to `n`.
//!
//! # Frontier construction
//!
//! Starting from a valid MIS of the pre-delta (active) graph:
//!
//! 1. **Evict** conflicts: for each effectively inserted edge with both
//!    endpoints `InMis` (scanned in sorted order), demote the
//!    larger-id endpoint to undecided. The kept endpoint still
//!    dominates it, so eviction never strands a node unwitnessed.
//! 2. **Candidates**: endpoints of inserted and deleted edges (deleted
//!    includes the edges implicitly lost to node removals), newly
//!    added nodes, evicted nodes, and the neighbors of evicted nodes
//!    (they may have lost their only dominator).
//! 3. **Classify** each active candidate not in the MIS: if it has an
//!    active `InMis` neighbor it is dominated — pin it `NotInMis`;
//!    otherwise it joins the frontier as `Undecided`.
//!
//! MIS nodes never leave the MIS except by step 1, so the surviving MIS
//! is still independent, and no frontier node neighbors a surviving MIS
//! node — hence *any* MIS of the induced frontier subgraph splices back
//! into a globally valid MIS. On a failed verification the frontier is
//! re-solved with a reseeded attempt up to
//! [`RepairConfig::max_retries`] times; if every attempt fails, greedy
//! completes the frontier in id order, so the states handed back are a
//! valid MIS whenever the pre-state was one.
//!
//! # Local verification
//!
//! Each attempt is verified with [`check_mis_at`] on the candidate set
//! only (inactive nodes exempt), not on the whole graph. Given a valid
//! pre-state that is enough: a node outside the candidates kept its
//! state, its adjacency and its dominator.
//!
//! * If its dominator had been removed, the edge to it was an implicit
//!   deletion, which makes the node a candidate.
//! * If its dominator had been evicted, eviction made every neighbor of
//!   the dominator a candidate.
//! * A new independence violation needs an inserted edge or a frontier
//!   node that joined; both are candidates, and each is checked against
//!   its full neighborhood.
//!
//! So the local verdict equals the global one; debug builds assert that
//! on every attempt against [`check_mis_survivors`].
//!
//! # In-place state
//!
//! [`repair`] takes the state vector by value and writes only the
//! entries of added, removed and candidate nodes, and it reads the graph
//! only through [`Adjacency`] — neighbor lists of candidates and the
//! induced frontier subgraph — so an epoch allocates and scans nothing
//! of size `n`. The MIS delta comes back with it:
//! [`RepairOutcome::joined`] and [`RepairOutcome::left`].

use crate::greedy;
use crate::state::MisState;
use crate::verify::{check_mis_at, check_mis_survivors};
use graphgen::delta::AppliedDelta;
use graphgen::{Adjacency, Graph, NodeId};
use std::time::Instant;

/// A solution for a repair subgraph, as returned by the solver callback
/// given to [`repair`]: the per-node states plus the cost the solver
/// paid, which [`repair`] accumulates into the [`RepairOutcome`].
#[derive(Debug, Clone, Default)]
pub struct SubSolution {
    /// MIS states for the subgraph's nodes (subgraph ids).
    pub states: Vec<MisState>,
    /// Rounds the solver ran.
    pub rounds: u64,
    /// Maximum per-node awake rounds.
    pub awake_max: u64,
    /// Total awake node-rounds.
    pub awake_total: u64,
    /// Messages sent.
    pub messages: u64,
}

/// Knobs for [`repair`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// How many reseeded solver attempts to make before giving up when
    /// the spliced result fails verification.
    pub max_retries: u64,
}

impl Default for RepairConfig {
    fn default() -> RepairConfig {
        RepairConfig { max_retries: 3 }
    }
}

/// What [`repair`] did: the repaired states plus the metrics that make
/// the "wake only the neighborhood" claim measurable.
#[derive(Debug, Clone, Default)]
pub struct RepairOutcome {
    /// Repaired per-node MIS states: the buffer passed to [`repair`],
    /// resized to the post-delta `n`. Nodes the batch removed are
    /// `NotInMis`; entries of nodes that were inactive before the batch
    /// pass through unchanged.
    pub states: Vec<MisState>,
    /// The frontier actually re-solved (sorted original ids).
    pub frontier: Vec<NodeId>,
    /// Nodes woken by the repair: frontier plus the dominated
    /// candidates that had to check a neighbor's state.
    pub woken: u64,
    /// MIS nodes evicted by inserted-edge conflicts.
    pub evicted: u64,
    /// Candidates that lost their dominator (went back to undecided).
    pub uncovered: u64,
    /// Rounds the frontier solver ran (summed over retries).
    pub repair_rounds: u64,
    /// Maximum per-node awake rounds across solver attempts.
    pub awake_max: u64,
    /// Total awake node-rounds across solver attempts.
    pub awake_total: u64,
    /// Messages sent by solver attempts.
    pub messages: u64,
    /// Reseeded attempts beyond the first.
    pub retries: u64,
    /// Whether a solver attempt produced states that verify as an MIS
    /// of the active graph.
    pub correct: bool,
    /// Verification or solver error, when `correct` is false.
    pub error: Option<String>,
    /// Whether every solver attempt failed and greedy completed the
    /// frontier instead. `correct` and `error` still report the
    /// failure; the states are valid whenever the pre-state was.
    pub fallback: bool,
    /// Frontier nodes that ended in the MIS (sorted).
    pub joined: Vec<NodeId>,
    /// Nodes that left the MIS (sorted): the evicted nodes plus the
    /// removed nodes that were `InMis`.
    pub left: Vec<NodeId>,
    /// Wall-clock nanoseconds spent verifying candidate states
    /// (observational only — never fed back into the repair and never
    /// part of any benchmark payload).
    pub verify_ns: u64,
}

/// Deterministically mixes a repair seed with an attempt counter
/// (splitmix64 finalizer).
fn mix(seed: u64, attempt: u64) -> u64 {
    let mut z = seed ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Repairs a MIS after a delta batch.
///
/// * `g` — the **post-delta** graph, usually the
///   [`DynGraph`](graphgen::DynGraph) the batch was applied to.
/// * `active` — the post-delta active mask (`g.n()` entries); inactive
///   nodes are exempt from independence and domination.
/// * `states` — a valid MIS of the **pre-delta** active graph (length =
///   pre-delta `n`), passed by value and repaired in place. This
///   precondition is the caller's responsibility — feed repair its own
///   previous output, or a verified one-shot run; only a valid
///   pre-state makes the local verification sound. Entries of nodes
///   that were inactive before the batch pass through unchanged.
/// * `solve` — MIS solver for the induced frontier subgraph, usually a
///   registry runner; called with `(subgraph, seed)` and reseeded on
///   retry.
///
/// A solver error or verification failure after all retries does not
/// panic: it comes back with `correct = false`, `error` set and
/// `fallback = true`, the frontier completed by greedy. Debug builds
/// also assert on every attempt that the local verdict equals the
/// global one, which holds whenever the pre-state is valid.
pub fn repair<G, F>(
    g: &G,
    active: &[bool],
    mut states: Vec<MisState>,
    applied: &AppliedDelta,
    seed: u64,
    cfg: &RepairConfig,
    mut solve: F,
) -> RepairOutcome
where
    G: Adjacency,
    F: FnMut(&Graph, u64) -> Result<SubSolution, String>,
{
    let n = g.n();
    debug_assert_eq!(active.len(), n);
    let mut out = RepairOutcome::default();

    // Carry the states into the post-delta id space: added nodes are
    // undecided, removed nodes are pinned out.
    states.resize(n, MisState::Undecided);
    for &v in &applied.added {
        states[v as usize] = MisState::Undecided;
    }
    for &v in &applied.removed {
        if std::mem::replace(&mut states[v as usize], MisState::NotInMis) == MisState::InMis {
            out.left.push(v);
        }
    }

    // Step 1: evict one endpoint of every InMis–InMis inserted edge.
    // `applied.inserted` is sorted, so eviction order is deterministic;
    // evicting the larger id keeps it dominated by the kept endpoint
    // at the moment of eviction.
    let mut evicted: Vec<NodeId> = Vec::new();
    for &(a, b) in &applied.inserted {
        if states[a as usize] == MisState::InMis && states[b as usize] == MisState::InMis {
            let loser = a.max(b);
            states[loser as usize] = MisState::Undecided;
            evicted.push(loser);
        }
    }
    out.evicted = evicted.len() as u64;
    out.left.extend_from_slice(&evicted);
    out.left.sort_unstable();

    // Step 2: damage candidates.
    let mut candidates: Vec<NodeId> = Vec::new();
    for &(a, b) in applied.inserted.iter().chain(applied.deleted.iter()) {
        candidates.push(a);
        candidates.push(b);
    }
    candidates.extend_from_slice(&applied.added);
    for &v in &evicted {
        candidates.push(v);
        candidates.extend_from_slice(g.neighbors(v));
    }
    candidates.sort_unstable();
    candidates.dedup();

    // Step 3: classify. Dominated candidates are woken just long enough
    // to observe a neighbor in the MIS; undominated ones form the
    // frontier.
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut dominated_woken = 0u64;
    for &v in &candidates {
        if !active[v as usize] || states[v as usize] == MisState::InMis {
            continue;
        }
        let has_dominator = g
            .neighbors(v)
            .iter()
            .any(|&u| active[u as usize] && states[u as usize] == MisState::InMis);
        if has_dominator {
            states[v as usize] = MisState::NotInMis;
            dominated_woken += 1;
        } else {
            // Previously dominated, dominator gone — the case a deleted
            // edge or removed MIS node creates.
            if states[v as usize] == MisState::NotInMis {
                out.uncovered += 1;
            }
            states[v as usize] = MisState::Undecided;
            frontier.push(v);
        }
    }
    out.woken = dominated_woken + frontier.len() as u64;
    out.frontier = frontier;

    // Verifies at the candidates only (see the module docs).
    let verify = |states: &[MisState], ns: &mut u64| {
        let t0 = Instant::now();
        let local = check_mis_at(g, states, active, &candidates);
        *ns += t0.elapsed().as_nanos() as u64;
        debug_assert_eq!(
            local.is_ok(),
            check_mis_survivors(g, states, active).is_ok(),
            "local verification disagrees with the global check: {local:?}"
        );
        local
    };

    if out.frontier.is_empty() {
        match verify(&states, &mut out.verify_ns) {
            Ok(()) => out.correct = true,
            Err(e) => out.error = Some(e),
        }
    } else {
        // Re-solve the frontier subgraph, splice, verify; reseed on
        // failure.
        let (sub, map) = g.induced(&out.frontier);
        debug_assert_eq!(map, out.frontier);
        let mut last_err = None;
        for attempt in 0..=cfg.max_retries {
            if attempt > 0 {
                out.retries += 1;
                for &v in &out.frontier {
                    states[v as usize] = MisState::Undecided;
                }
            }
            match solve(&sub, mix(seed, attempt)) {
                Ok(sol) => {
                    out.repair_rounds += sol.rounds;
                    out.awake_max = out.awake_max.max(sol.awake_max);
                    out.awake_total += sol.awake_total;
                    out.messages += sol.messages;
                    if sol.states.len() != map.len() {
                        last_err = Some(format!(
                            "solver returned {} states for a {}-node frontier",
                            sol.states.len(),
                            map.len()
                        ));
                        continue;
                    }
                    for (i, &v) in map.iter().enumerate() {
                        states[v as usize] = sol.states[i];
                    }
                    match verify(&states, &mut out.verify_ns) {
                        Ok(()) => {
                            out.correct = true;
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        if !out.correct {
            // Every attempt failed: complete the frontier in id order so
            // the next batch still starts from a valid MIS.
            let order: Vec<NodeId> = (0..sub.n() as NodeId).collect();
            let greedy_states = greedy::to_states(&greedy::lfmis(&sub, &order));
            for (&v, &s) in map.iter().zip(&greedy_states) {
                states[v as usize] = s;
            }
            out.fallback = true;
            out.error = match verify(&states, &mut out.verify_ns) {
                Ok(()) => last_err,
                Err(e) => Some(format!("greedy fallback: {e}")),
            };
        }
    }
    out.joined =
        out.frontier.iter().copied().filter(|&v| states[v as usize] == MisState::InMis).collect();
    out.states = states;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;
    use graphgen::delta::{DeltaBatch, DynGraph};

    /// Deterministic solver for tests: lowest-id-first greedy.
    fn greedy_solve(sub: &Graph, _seed: u64) -> Result<SubSolution, String> {
        let order: Vec<NodeId> = (0..sub.n() as NodeId).collect();
        let set = greedy::lfmis(sub, &order);
        Ok(SubSolution {
            states: greedy::to_states(&set),
            rounds: 1,
            awake_max: 1,
            awake_total: sub.n() as u64,
            messages: 0,
        })
    }

    fn mis_states(g: &Graph) -> Vec<MisState> {
        let order: Vec<NodeId> = (0..g.n() as NodeId).collect();
        greedy::to_states(&greedy::lfmis(g, &order))
    }

    #[test]
    fn insert_conflict_is_repaired_locally() {
        // Path 0-1-2-3-4: greedy MIS = {0, 2, 4}. Insert (2, 4).
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let old = mis_states(&g);
        let mut b = DeltaBatch::new();
        b.insert_edge(2, 4);
        let mut g2 = DynGraph::new(g);
        let applied = g2.apply(&b).unwrap();
        let active = vec![true; 5];
        let out =
            repair(&g2, &active, old.clone(), &applied, 7, &RepairConfig::default(), greedy_solve);
        assert!(out.correct, "{:?}", out.error);
        assert_eq!(out.evicted, 1); // node 4 (larger id) evicted
        assert!(out.woken < 5, "repair woke everyone");
        check_mis_survivors(&g2, &out.states, &active).unwrap();
        // Untouched node 0 kept its decision.
        assert_eq!(out.states[0], old[0]);
    }

    #[test]
    fn removed_mis_node_uncovers_neighbors() {
        // Star: center 0 in MIS, leaves dominated. Remove the center.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let old = mis_states(&g);
        assert_eq!(old[0], MisState::InMis);
        let mut b = DeltaBatch::new();
        b.remove_node(0);
        let mut g2 = DynGraph::new(g);
        let applied = g2.apply(&b).unwrap();
        let active = vec![false, true, true, true, true];
        let out = repair(&g2, &active, old, &applied, 3, &RepairConfig::default(), greedy_solve);
        assert!(out.correct, "{:?}", out.error);
        // Every leaf is now isolated and must join the MIS itself.
        for v in 1..5 {
            assert_eq!(out.states[v], MisState::InMis);
        }
        assert_eq!(out.uncovered, 4);
    }

    #[test]
    fn no_op_delta_repairs_nothing() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let old = mis_states(&g);
        let mut g2 = DynGraph::new(g);
        let applied = g2.apply(&DeltaBatch::new()).unwrap();
        let active = vec![true; 4];
        let out =
            repair(&g2, &active, old.clone(), &applied, 0, &RepairConfig::default(), greedy_solve);
        assert!(out.correct);
        assert_eq!(out.woken, 0);
        assert_eq!(out.repair_rounds, 0);
        assert!(out.frontier.is_empty());
        assert_eq!(out.states, old);
    }

    #[test]
    fn added_nodes_join_the_frontier() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let old = mis_states(&g);
        let mut b = DeltaBatch::new();
        b.add_nodes(2).insert_edge(1, 2).insert_edge(2, 3);
        let mut g2 = DynGraph::new(g);
        let applied = g2.apply(&b).unwrap();
        let active = vec![true; 4];
        let out = repair(&g2, &active, old, &applied, 1, &RepairConfig::default(), greedy_solve);
        assert!(out.correct, "{:?}", out.error);
        check_mis_survivors(&g2, &out.states, &active).unwrap();
    }

    #[test]
    fn solver_failure_surfaces_after_retries() {
        // Delete the only edge: node 1 loses its dominator and must be
        // re-solved — which the broken solver can't do.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let old = mis_states(&g);
        let mut b = DeltaBatch::new();
        b.delete_edge(0, 1);
        let mut g2 = DynGraph::new(g);
        let applied = g2.apply(&b).unwrap();
        let active = vec![true; 2];
        let mut calls = 0u64;
        let out =
            repair(&g2, &active, old, &applied, 9, &RepairConfig { max_retries: 2 }, |_, _| {
                calls += 1;
                Err("solver down".into())
            });
        assert!(!out.correct);
        assert_eq!(out.error.as_deref(), Some("solver down"));
        assert_eq!(calls, 3); // first attempt + 2 retries
        assert_eq!(out.retries, 2);
    }

    #[test]
    fn failed_retries_fall_back_to_a_valid_greedy_mis() {
        // Path 0-1-2-3 with MIS {0, 2}; deleting (0, 1) and (1, 2)
        // isolates node 1, and a solver that answers with undecided
        // states never verifies.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let old = mis_states(&g);
        let mut b = DeltaBatch::new();
        b.delete_edge(0, 1).delete_edge(1, 2);
        let mut g2 = DynGraph::new(g);
        let applied = g2.apply(&b).unwrap();
        let active = vec![true; 4];
        let cfg = RepairConfig { max_retries: 1 };
        let out = repair(&g2, &active, old, &applied, 4, &cfg, |sub, _| {
            Ok(SubSolution { states: vec![MisState::Undecided; sub.n()], ..Default::default() })
        });
        assert!(!out.correct);
        assert!(out.fallback);
        assert_eq!(out.error.as_deref(), Some("node 1 is undecided"));
        assert_eq!(out.retries, 1);
        check_mis_survivors(&g2, &out.states, &active).unwrap();
        assert_eq!(out.joined, vec![1]);
        assert!(out.left.is_empty());
    }

    #[test]
    fn mix_is_seed_sensitive() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
