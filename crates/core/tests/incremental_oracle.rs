//! Property oracle for incremental MIS repair: random graph + random
//! delta stream → after **every** epoch the repaired states verify as a
//! maximal independent set of the mutated active graph, and a
//! from-scratch run on the same graph is equally valid (same *validity*,
//! not the same set). Also pins the delete-to-empty and isolated-node
//! edge cases that frontier logic tends to get wrong.
//!
//! A noisy solver that is wrong two times in three drives repair's
//! rejecting branch and its greedy fallback. Repair checks each attempt
//! locally, at its candidate set only; in these debug-build tests it
//! also asserts on every attempt that the global checker agrees. Repair
//! reads the `DynGraph` through its overlay, while the oracle checks the
//! result against the port-numbered graph `DynGraph::graph` rebuilds.

use awake_mis_core::incremental::{repair, RepairConfig, SubSolution};
use awake_mis_core::{check_mis_survivors, greedy, MisState};
use graphgen::delta::{DeltaBatch, DynGraph};
use graphgen::{Adjacency, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic frontier solver: lowest-id-first greedy MIS.
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

/// A frontier solver that is right only a third of the time: greedy
/// states, or else a random `InMis`/`NotInMis`/`Undecided` state per
/// node, chosen by the attempt's seed.
fn noisy_solve(sub: &Graph, seed: u64) -> Result<SubSolution, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    if rng.gen_range(0..3u32) == 0 {
        return greedy_solve(sub, seed);
    }
    let states = (0..sub.n())
        .map(|_| match rng.gen_range(0..3u32) {
            0 => MisState::InMis,
            1 => MisState::NotInMis,
            _ => MisState::Undecided,
        })
        .collect();
    Ok(SubSolution { states, rounds: 1, awake_max: 1, awake_total: sub.n() as u64, messages: 0 })
}

/// Runs a delta stream repaired by [`noisy_solve`] and checks every
/// epoch: the states are a valid MIS even when every attempt failed,
/// a failure is reported and healed by the fallback, and `joined`/`left`
/// are exactly the membership changes. Returns the stream's total
/// retries and fallbacks.
fn noisy_stream(
    n: usize,
    graph_seed: u64,
    p: f64,
    stream_seed: u64,
    epochs: usize,
    ops: usize,
) -> Result<(u64, u64), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(graph_seed);
    let mut d = DynGraph::new(graphgen::generators::gnp(n, p, &mut rng));
    let mut states = from_scratch(&d);
    let (mut retries, mut fallbacks) = (0, 0);
    let mut rng = SmallRng::seed_from_u64(stream_seed);
    for epoch in 0..epochs {
        let batch = random_batch(&d, ops, &mut rng);
        let applied = d.apply(&batch).unwrap();
        let mut before = states.clone();
        before.resize(d.n(), MisState::Undecided);
        let out = repair(
            &d,
            d.active(),
            states,
            &applied,
            stream_seed ^ epoch as u64,
            &RepairConfig::default(),
            noisy_solve,
        );
        check_mis_survivors(d.graph(), &out.states, d.active())
            .map_err(|e| TestCaseError::fail(format!("epoch {epoch}: {e}")))?;
        prop_assert_eq!(out.fallback, !out.correct, "epoch {}", epoch);
        prop_assert_eq!(out.error.is_some(), !out.correct, "epoch {}", epoch);
        let in_mis = |s: &[MisState], v: usize| s[v] == MisState::InMis;
        let joined: Vec<NodeId> = (0..d.n())
            .filter(|&v| in_mis(&out.states, v) && !in_mis(&before, v))
            .map(|v| v as NodeId)
            .collect();
        let left: Vec<NodeId> = (0..d.n())
            .filter(|&v| !in_mis(&out.states, v) && in_mis(&before, v))
            .map(|v| v as NodeId)
            .collect();
        prop_assert_eq!(&out.joined, &joined, "epoch {}", epoch);
        prop_assert_eq!(&out.left, &left, "epoch {}", epoch);
        retries += out.retries;
        fallbacks += u64::from(out.fallback);
        states = out.states;
    }
    Ok((retries, fallbacks))
}

/// From-scratch MIS on the active subgraph, mapped back to global ids.
fn from_scratch(d: &DynGraph) -> Vec<MisState> {
    let keep: Vec<NodeId> =
        (0..d.n() as NodeId).filter(|&v| d.is_active(v)).collect();
    let (sub, map) = d.induced(&keep);
    let order: Vec<NodeId> = (0..sub.n() as NodeId).collect();
    let set = greedy::lfmis(&sub, &order);
    let mut states = vec![MisState::NotInMis; d.n()];
    for (i, &v) in map.iter().enumerate() {
        states[v as usize] = if set[i] { MisState::InMis } else { MisState::NotInMis };
    }
    states
}

/// A random batch against the current dynamic graph: a mix of edge
/// inserts/deletes and occasional node churn, built so it always
/// validates (no conflicts, no ops at inactive nodes).
fn random_batch(d: &DynGraph, ops: usize, rng: &mut SmallRng) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    let active: Vec<NodeId> =
        (0..d.n() as NodeId).filter(|&v| d.is_active(v)).collect();
    let mut inserted: Vec<(NodeId, NodeId)> = Vec::new();
    let mut deleted: Vec<(NodeId, NodeId)> = Vec::new();
    let mut removed: Vec<NodeId> = Vec::new();
    for _ in 0..ops {
        match rng.gen_range(0..10u32) {
            // Delete a random existing edge at a random active node.
            0..=3 => {
                if active.is_empty() {
                    continue;
                }
                let v = active[rng.gen_range(0..active.len())];
                if d.degree(v) == 0 || removed.contains(&v) {
                    continue;
                }
                let u = d.neighbors(v)[rng.gen_range(0..d.degree(v))];
                let e = (v.min(u), v.max(u));
                if !inserted.contains(&e) && !removed.contains(&u) {
                    batch.delete_edge(v, u);
                    deleted.push(e);
                }
            }
            // Insert a random absent edge between active nodes.
            4..=7 => {
                if active.len() < 2 {
                    continue;
                }
                let a = active[rng.gen_range(0..active.len())];
                let b = active[rng.gen_range(0..active.len())];
                let e = (a.min(b), a.max(b));
                if a != b
                    && !d.has_edge(a, b)
                    && !deleted.contains(&e)
                    && !removed.contains(&a)
                    && !removed.contains(&b)
                {
                    batch.insert_edge(a, b);
                    inserted.push(e);
                }
            }
            // Remove an active node (only if no queued edge op touches it).
            8 => {
                if active.is_empty() {
                    continue;
                }
                let v = active[rng.gen_range(0..active.len())];
                let touches = |&(a, b): &(NodeId, NodeId)| a == v || b == v;
                if !inserted.iter().any(touches) && !removed.contains(&v) {
                    batch.remove_node(v);
                    removed.push(v);
                }
            }
            // Add a node, wired to one active survivor when possible.
            _ => {
                let id = (d.n() + batch.added_count()) as NodeId;
                batch.add_nodes(1);
                if let Some(&w) =
                    active.iter().find(|w| !removed.contains(w))
                {
                    batch.insert_edge(id, w);
                    inserted.push((w.min(id), w.max(id)));
                }
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracle: every epoch of a random delta stream leaves repair
    /// with a valid MIS of the active graph, wakes no more nodes than a
    /// full recompute would, and a from-scratch solve agrees the graph
    /// is solvable.
    #[test]
    fn repair_survives_random_delta_streams(
        n in 2usize..40,
        graph_seed in any::<u64>(),
        p in 0.0f64..0.4,
        stream_seed in any::<u64>(),
        epochs in 1usize..6,
        ops in 1usize..12,
    ) {
        let mut rng = SmallRng::seed_from_u64(graph_seed);
        let g = graphgen::generators::gnp(n, p, &mut rng);
        let mut d = DynGraph::new(g);
        let mut states = from_scratch(&d);
        check_mis_survivors(d.graph(), &states, d.active()).unwrap();

        let mut rng = SmallRng::seed_from_u64(stream_seed);
        for epoch in 0..epochs {
            let batch = random_batch(&d, ops, &mut rng);
            let applied = d.apply(&batch).unwrap();
            let out = repair(
                &d,
                d.active(),
                states,
                &applied,
                stream_seed ^ epoch as u64,
                &RepairConfig::default(),
                greedy_solve,
            );
            prop_assert!(out.correct, "epoch {epoch}: {:?}", out.error);
            // Repair's MIS verifies on the mutated graph.
            check_mis_survivors(d.graph(), &out.states, d.active())
                .map_err(|e| TestCaseError::fail(format!("epoch {epoch}: {e}")))?;
            // Locality: repair wakes at most the full-recompute cost.
            prop_assert!(out.woken <= d.active_count() as u64);
            // A from-scratch run is also valid (validity parity, not
            // set equality — both must pass the same checker).
            let scratch = from_scratch(&d);
            check_mis_survivors(d.graph(), &scratch, d.active())
                .map_err(|e| TestCaseError::fail(format!("scratch epoch {epoch}: {e}")))?;
            states = out.states;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Repair with a solver that is usually wrong still leaves a valid
    /// MIS after every epoch, with the MIS delta it reports.
    #[test]
    fn repair_survives_a_noisy_solver(
        n in 2usize..40,
        graph_seed in any::<u64>(),
        p in 0.0f64..0.4,
        stream_seed in any::<u64>(),
        epochs in 1usize..6,
        ops in 1usize..12,
    ) {
        noisy_stream(n, graph_seed, p, stream_seed, epochs, ops)?;
    }
}

#[test]
fn noisy_solver_reaches_rejection_and_fallback() {
    // Seeded, so the rejecting branch and the fallback provably ran.
    let (mut retries, mut fallbacks) = (0, 0);
    for seed in 0..32u64 {
        let (r, f) = noisy_stream(30, seed, 0.15, seed ^ 0x5eed, 4, 10).unwrap();
        retries += r;
        fallbacks += f;
    }
    assert!(retries > 0, "no attempt was ever rejected");
    assert!(fallbacks > 0, "no repair ever fell back to greedy");
}

#[test]
fn delete_to_empty_graph() {
    // Delete every edge of a clique one epoch at a time; the MIS must
    // grow to all nodes once everyone is isolated.
    let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
    let mut d = DynGraph::new(g);
    let order: Vec<NodeId> = (0..4).collect();
    let mut states = greedy::to_states(&greedy::lfmis(d.graph(), &order));
    let all_edges: Vec<(NodeId, NodeId)> =
        vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    for &(a, b) in &all_edges {
        let mut batch = DeltaBatch::new();
        batch.delete_edge(a, b);
        let applied = d.apply(&batch).unwrap();
        let out =
            repair(&d, d.active(), states, &applied, 11, &RepairConfig::default(), greedy_solve);
        assert!(out.correct, "{:?}", out.error);
        states = out.states;
    }
    assert_eq!(d.graph().m(), 0);
    assert!(states.iter().all(|&s| s == MisState::InMis));
}

#[test]
fn isolated_nodes_always_join() {
    // Nodes added with no edges are isolated: the frontier solver must
    // put each of them in the MIS.
    let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    let mut d = DynGraph::new(g);
    let order: Vec<NodeId> = (0..2).collect();
    let states = greedy::to_states(&greedy::lfmis(d.graph(), &order));
    let mut batch = DeltaBatch::new();
    batch.add_nodes(3);
    let applied = d.apply(&batch).unwrap();
    let out = repair(&d, d.active(), states, &applied, 5, &RepairConfig::default(), greedy_solve);
    assert!(out.correct, "{:?}", out.error);
    for v in 2..5 {
        assert_eq!(out.states[v], MisState::InMis, "isolated node {v} must self-join");
    }
    // And only the additions woke anyone.
    assert_eq!(out.woken, 3);
}
