//! Property tests on the graph substrate.

use graphgen::delta::COMPACT_DIVISOR;
use graphgen::{
    generators, io, products, props, Adjacency, DeltaBatch, DynGraph, Graph, GraphError, NodeId,
    Port,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..80, any::<u64>(), 0.0f64..0.5).prop_map(|(n, seed, p)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        generators::gnp(n, p, &mut rng)
    })
}

/// A valid edge list on `0..n` in no order: unsorted, with repeats in
/// both orientations.
fn messy_edges(n: usize, rng: &mut SmallRng) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for _ in 0..rng.gen_range(0..4 * n + 1) {
        let a = rng.gen_range(0..n as NodeId);
        let b = rng.gen_range(0..n as NodeId);
        if a == b {
            continue;
        }
        edges.push((a, b));
        if rng.gen_bool(0.3) {
            edges.push((b, a));
        }
        if rng.gen_bool(0.2) {
            edges.push((a, b));
        }
    }
    edges.shuffle(rng);
    edges
}

/// A random bad edge for a graph on `0..n` (`n >= 1`) — a self loop or
/// an out-of-range endpoint — with the error it must raise.
fn bad_edge(n: usize, rng: &mut SmallRng) -> ((NodeId, NodeId), GraphError) {
    let v = rng.gen_range(0..n as NodeId);
    if rng.gen_bool(0.5) {
        return ((v, v), GraphError::SelfLoop(v));
    }
    let far = n as NodeId + rng.gen_range(0..3u32);
    let edge = if rng.gen_bool(0.5) { (v, far) } else { (far, v) };
    (edge, GraphError::EndpointOutOfRange { edge, n })
}

/// A random valid batch against `g` and the edge set it must leave
/// behind. The batch mixes inserts and deletes — including inserts of
/// present edges, deletes of absent ones, and duplicates in both
/// orientations — with node additions and node removals.
fn random_batch(g: &Graph, seed: u64) -> (DeltaBatch, usize, BTreeSet<(NodeId, NodeId)>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.n();
    let added = rng.gen_range(0..3usize);
    let n_new = n + added;
    let mut batch = DeltaBatch::new();
    batch.add_nodes(added);
    let removed: BTreeSet<NodeId> = (0..n as NodeId).filter(|_| rng.gen_bool(0.08)).collect();
    for &v in &removed {
        batch.remove_node(v);
    }
    let mut expect: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
    let (mut inserts, mut deletes) = (BTreeSet::new(), BTreeSet::new());
    for _ in 0..rng.gen_range(0..3 * n_new) {
        let a = rng.gen_range(0..n_new as NodeId);
        let b = rng.gen_range(0..n_new as NodeId);
        let e = (a.min(b), a.max(b));
        if a == b || inserts.contains(&e) || deletes.contains(&e) {
            continue;
        }
        if rng.gen_bool(0.5) && !removed.contains(&a) && !removed.contains(&b) {
            inserts.insert(e);
        } else {
            deletes.insert(e);
        }
    }
    // Deletes of present edges, so the batch does more than no-ops.
    for e in g.edges() {
        if !inserts.contains(&e) && rng.gen_bool(0.1) {
            deletes.insert(e);
        }
    }
    for &(a, b) in &inserts {
        batch.insert_edge(a, b);
        if rng.gen_bool(0.3) {
            batch.insert_edge(b, a);
        }
        expect.insert((a, b));
    }
    for &(a, b) in &deletes {
        batch.delete_edge(b, a);
        if rng.gen_bool(0.3) {
            batch.delete_edge(a, b);
        }
        expect.remove(&(a, b));
    }
    expect.retain(|(a, b)| !removed.contains(a) && !removed.contains(b));
    (batch, n_new, expect)
}

/// A random batch `d` accepts, of about `ops` edge ops plus occasional
/// node churn, applied to `edges` and `active`: the edge set and mask
/// it must leave behind. It mixes effective inserts and deletes with
/// no-ops (inserts of present edges, deletes of absent ones, removals
/// of inactive nodes) and never inserts at an inactive node.
fn churn_batch(
    d: &DynGraph,
    ops: usize,
    rng: &mut SmallRng,
    edges: &mut BTreeSet<(NodeId, NodeId)>,
    active: &mut Vec<bool>,
) -> DeltaBatch {
    let n = d.n();
    let mut batch = DeltaBatch::new();
    let added = usize::from(rng.gen_bool(0.2));
    batch.add_nodes(added);
    let n_new = n + added;
    active.resize(n_new, true);
    let removed = rng.gen_bool(0.2).then(|| rng.gen_range(0..n as NodeId));
    if let Some(v) = removed {
        batch.remove_node(v);
    }
    let usable = |v: NodeId| active[v as usize] && Some(v) != removed;
    let mut named = BTreeSet::new();
    for _ in 0..ops {
        let a = rng.gen_range(0..n_new as NodeId);
        let b = match rng.gen_range(0..3u32) {
            // An edge at `a`, so deletes are often effective.
            0 if d.n() > a as usize && d.degree(a) > 0 => {
                d.neighbors(a)[rng.gen_range(0..d.degree(a))]
            }
            _ => rng.gen_range(0..n_new as NodeId),
        };
        let e = (a.min(b), a.max(b));
        if a == b || !named.insert(e) {
            continue;
        }
        if rng.gen_bool(0.5) && usable(a) && usable(b) {
            batch.insert_edge(a, b);
            edges.insert(e);
        } else {
            batch.delete_edge(b, a);
            edges.remove(&e);
        }
    }
    if let Some(v) = removed {
        active[v as usize] = false;
        edges.retain(|&(a, b)| a != v && b != v);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The overlay against the slow path: after every batch of a stream,
    /// `DynGraph`'s own readers agree with `Graph::from_edges` on the
    /// expected edge set, and `graph()` equals that graph, reverse ports
    /// included. The stream mixes single-op batches, which leave the
    /// overlay standing, with larger ones, and runs until it has crossed
    /// a freeze, and on past the batch after its last freeze.
    ///
    /// The live overlay is pinned to the batch stream: it grows by the
    /// touched nodes' new lists and falls to 0 exactly at the batches
    /// that take it past `2·m / COMPACT_DIVISOR`, however fast the
    /// builder runs. Each freeze leaves a frozen layer standing until a
    /// later batch swaps it out, so the batch after it reads and writes
    /// through that layer.
    #[test]
    fn overlay_matches_a_rebuild_across_compactions(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = DynGraph::new(g.clone());
        let mut edges: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
        let mut active = vec![true; g.n()];
        let (mut standing, mut froze) = (false, false);
        let (mut freezes, mut during_builds) = (0, 0);
        for step in 0..400 {
            if standing && freezes > 0 && step >= 8 && !froze {
                break;
            }
            let ops = if rng.gen_bool(0.1) { 2 * d.n() } else { 1 };
            let batch = churn_batch(&d, ops, &mut rng, &mut edges, &mut active);
            let before = d.overlay_len();
            if froze {
                prop_assert!(d.frozen_len() > 0, "step {}: the freeze's layer is gone", step);
            }
            during_builds += usize::from(d.frozen_len() > 0);
            let applied = d.apply(&batch).unwrap();

            let n = active.len();
            let list: Vec<(NodeId, NodeId)> = edges.iter().copied().collect();
            let expect = Graph::from_edges(n, &list).unwrap();
            let touched: BTreeSet<NodeId> = applied
                .inserted
                .iter()
                .chain(&applied.deleted)
                .flat_map(|&(a, b)| [a, b])
                .collect();
            let grown = before + touched.iter().map(|&v| expect.degree(v)).sum::<usize>();
            froze = grown > 2 * expect.m() / COMPACT_DIVISOR;
            freezes += usize::from(froze);
            prop_assert_eq!(d.overlay_len(), if froze { 0 } else { grown }, "step {}", step);
            standing |= d.overlay_len() > 0;

            prop_assert_eq!(d.n(), n);
            prop_assert_eq!(d.m(), expect.m());
            prop_assert_eq!(d.active(), active.as_slice());
            prop_assert_eq!(d.active_count(), active.iter().filter(|&&a| a).count());
            for v in 0..n as NodeId {
                prop_assert_eq!(d.neighbors(v), expect.neighbors(v), "step {} node {}", step, v);
                prop_assert_eq!(d.degree(v), expect.degree(v));
                for u in 0..n as NodeId {
                    prop_assert_eq!(d.has_edge(v, u), expect.has_edge(v, u));
                }
            }
            prop_assert_eq!(d.graph(), &expect, "step {}", step);
        }
        prop_assert!(standing, "no batch left the overlay standing");
        prop_assert!(freezes > 0, "the stream never froze");
        prop_assert!(
            during_builds >= freezes,
            "{} batches ran on a frozen layer across {} freezes", during_builds, freezes
        );
    }
}

proptest! {
    /// `from_edges` against an oracle that shares none of its layout
    /// code: per-node `BTreeSet`s of the input's edges. Neighbor lists,
    /// degrees and `m` must match, and every port must lead to the
    /// neighbor at that position with the reverse port at which `v`
    /// sits in that neighbor's list.
    #[test]
    fn from_edges_matches_an_independent_oracle(n in 0usize..60, seed in any::<u64>()) {
        let edges = messy_edges(n, &mut SmallRng::seed_from_u64(seed));
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut sets = vec![BTreeSet::new(); n];
        for &(a, b) in &edges {
            sets[a as usize].insert(b);
            sets[b as usize].insert(a);
        }
        let lists: Vec<Vec<NodeId>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), lists.iter().map(Vec::len).sum::<usize>() / 2);
        for (v, list) in (0..n as NodeId).zip(&lists) {
            prop_assert_eq!(g.neighbors(v), list.as_slice());
            prop_assert_eq!(g.degree(v), list.len());
            for (p, &u) in list.iter().enumerate() {
                let q = lists[u as usize].iter().position(|&w| w == v).unwrap();
                prop_assert_eq!(g.endpoint(v, p as Port), (u, q as Port));
            }
        }
    }

    /// Of two bad edges inserted at random positions of a valid list,
    /// `from_edges` reports the first in input order.
    #[test]
    fn from_edges_reports_the_first_bad_edge(n in 1usize..60, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = messy_edges(n, &mut rng);
        let (first, expect) = bad_edge(n, &mut rng);
        let (second, _) = bad_edge(n, &mut rng);
        let i = rng.gen_range(0..edges.len() + 1);
        edges.insert(i, first);
        edges.insert(rng.gen_range(i + 1..edges.len() + 1), second);
        prop_assert_eq!(Graph::from_edges(n, &edges), Err(expect));
    }

    /// `random_geometric`'s cell grid finds exactly the pairs a scan of
    /// all pairs finds, from one cell (radius 1) to cells far wider
    /// than the radius (1e-4, 0), at the family's default radius too.
    #[test]
    fn random_geometric_matches_all_pairs(
        n in 0usize..300,
        seed in any::<u64>(),
        pick in 0usize..7,
    ) {
        let default = (10.0 / (std::f64::consts::PI * n.max(1) as f64)).sqrt();
        let radius = [1.0, 0.3, 0.05, 0.02, 1e-4, 0.0, default][pick];
        let g = generators::random_geometric(n, radius, &mut SmallRng::seed_from_u64(seed));
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let mut expect = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let d2 = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                if d2 <= radius * radius {
                    expect.push((i as NodeId, j as NodeId));
                }
            }
        }
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), expect, "radius {}", radius);
    }

    /// `DynGraph::apply` edits neighbor lists in place of a rebuild, and
    /// `DynGraph::graph` must still build exactly the graph `from_edges`
    /// builds on the resulting edge set — offsets, targets and reverse
    /// ports alike. The batch must report exactly the edges that
    /// changed, and leave the neighbor list of every node outside the
    /// effective edits as it was.
    #[test]
    fn apply_deltas_matches_from_edges(g in arb_graph(), seed in any::<u64>()) {
        let (batch, n_new, expect) = random_batch(&g, seed);
        let mut d = DynGraph::new(g.clone());
        let applied = d.apply(&batch).unwrap();
        let h = d.graph();
        let edges: Vec<(NodeId, NodeId)> = expect.iter().copied().collect();
        prop_assert_eq!(h, &Graph::from_edges(n_new, &edges).unwrap());

        let before: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
        let inserted: Vec<_> = expect.difference(&before).copied().collect();
        let deleted: Vec<_> = before.difference(&expect).copied().collect();
        prop_assert_eq!(&applied.inserted, &inserted);
        prop_assert_eq!(&applied.deleted, &deleted);

        let touched: BTreeSet<NodeId> =
            inserted.iter().chain(&deleted).flat_map(|&(a, b)| [a, b]).collect();
        for v in (0..n_new as NodeId).filter(|v| !touched.contains(v)) {
            let old: &[NodeId] = if (v as usize) < g.n() { g.neighbors(v) } else { &[] };
            prop_assert_eq!(h.neighbors(v), old);
        }
    }

    /// Port numbering is an involution: following a port and its
    /// reverse returns to the start.
    #[test]
    fn ports_are_involutive(g in arb_graph()) {
        for v in 0..g.n() as u32 {
            for p in 0..g.degree(v) as u32 {
                let (u, q) = g.endpoint(v, p);
                prop_assert_eq!(g.endpoint(u, q), (v, p));
                prop_assert_ne!(u, v);
            }
        }
    }

    /// Degrees sum to twice the edge count; neighbor lists are sorted
    /// and duplicate-free.
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let sum: usize = (0..g.n() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.m());
        for v in 0..g.n() as u32 {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Edge-list serialization round-trips.
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let text = io::to_edge_list(&g);
        prop_assert_eq!(io::parse_edge_list(&text).unwrap(), g);
    }

    /// Component labels are consistent with edges, and sizes sum to n.
    #[test]
    fn component_consistency(g in arb_graph()) {
        let (labels, count) = props::connected_components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
        prop_assert!(labels.iter().all(|&l| (l as usize) < count));
        prop_assert_eq!(props::component_sizes(&g).iter().sum::<usize>(), g.n());
    }

    /// Induced subgraphs keep exactly the kept-node edges.
    #[test]
    fn induced_edges(g in arb_graph(), keep_bits in any::<u64>()) {
        let keep: Vec<u32> =
            (0..g.n() as u32).filter(|&v| keep_bits >> (v % 64) & 1 == 1).collect();
        let (h, map) = g.induced(&keep);
        prop_assert_eq!(h.n(), map.len());
        for (a, b) in h.edges() {
            prop_assert!(g.has_edge(map[a as usize], map[b as usize]));
        }
        // Edge count matches a direct count over kept pairs.
        let kept: std::collections::HashSet<u32> = map.iter().copied().collect();
        let direct = g
            .edges()
            .filter(|&(u, v)| kept.contains(&u) && kept.contains(&v))
            .count();
        prop_assert_eq!(h.m(), direct);
    }

    /// The line graph has one node per edge and Σ C(deg, 2) edges.
    #[test]
    fn line_graph_counts(g in arb_graph()) {
        let (lg, map) = products::line_graph(&g);
        prop_assert_eq!(lg.n(), g.m());
        prop_assert_eq!(map.len(), g.m());
        let expect: usize =
            (0..g.n() as u32).map(|v| g.degree(v) * g.degree(v).saturating_sub(1) / 2).sum();
        prop_assert_eq!(lg.m(), expect);
    }

    /// Degeneracy is at most the max degree and the ordering is a
    /// permutation.
    #[test]
    fn degeneracy_bounds(g in arb_graph()) {
        let (d, order) = props::degeneracy(&g);
        prop_assert!(d <= g.max_degree());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.n() as u32).collect::<Vec<_>>());
    }
}
