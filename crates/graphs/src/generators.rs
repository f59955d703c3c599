//! Workload generators.
//!
//! All random generators take an explicit `&mut impl Rng` so that every
//! experiment in the harness is reproducible from a master seed.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Erdős–Rényi graph `G(n, p)`: every pair is an edge independently with
/// probability `p`.
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than `O(n²)`
/// for sparse graphs.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if p == 0.0 || n < 2 {
        return Graph::empty(n);
    }
    let mut edges = Vec::new();
    if p == 1.0 {
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                edges.push((u, v));
            }
        }
        return Graph::from_edges(n, &edges).expect("complete graph is valid");
    }
    // Iterate over the upper triangle with geometric jumps.
    let lq = (1.0 - p).ln();
    let total = n as u64 * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / lq).floor() as u64 + 1;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx > total {
            break;
        }
        let (u, v) = unrank_pair(n as u64, idx - 1);
        edges.push((u as NodeId, v as NodeId));
    }
    Graph::from_edges(n, &edges).expect("gnp edges are valid")
}

/// Maps a rank in `0..n(n-1)/2` to the pair `(u, v)`, `u < v`, in
/// lexicographic order.
fn unrank_pair(n: u64, rank: u64) -> (u64, u64) {
    // Row u starts at offset u*n - u*(u+1)/2 - u... solve incrementally with
    // a numeric first guess to stay O(1).
    let mut u = {
        // Approximate inverse of f(u) = u*(2n - u - 1)/2.
        let nn = n as f64;
        let r = rank as f64;
        let disc = (2.0 * nn - 1.0) * (2.0 * nn - 1.0) - 8.0 * r;
        (((2.0 * nn - 1.0) - disc.max(0.0).sqrt()) / 2.0).floor().max(0.0) as u64
    };
    let row_start = |u: u64| u * (2 * n - u - 1) / 2;
    while u > 0 && row_start(u) > rank {
        u -= 1;
    }
    while row_start(u + 1) <= rank {
        u += 1;
    }
    let v = u + 1 + (rank - row_start(u));
    (u, v)
}

/// Erdős–Rényi graph with expected average degree `d`: `G(n, d/(n-1))`.
pub fn gnp_avg_degree(n: usize, d: f64, rng: &mut impl Rng) -> Graph {
    if n < 2 {
        return Graph::empty(n);
    }
    gnp(n, (d / (n as f64 - 1.0)).min(1.0), rng)
}

/// `G(n, m)`: exactly `m` distinct edges chosen uniformly at random.
///
/// # Panics
///
/// Panics if `m` exceeds the number of pairs.
pub fn gnm(n: usize, m: usize, rng: &mut impl Rng) -> Graph {
    let total = n as u64 * (n as u64 - 1) / 2;
    assert!(m as u64 <= total, "m = {m} exceeds the {total} available pairs");
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let rank = rng.gen_range(0..total);
        if chosen.insert(rank) {
            let (u, v) = unrank_pair(n as u64, rank);
            edges.push((u as NodeId, v as NodeId));
        }
    }
    Graph::from_edges(n, &edges).expect("gnm edges are valid")
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance `<= radius`.
///
/// This is the canonical model of a wireless sensor network deployment,
/// the motivating setting of the sleeping model (paper §1.2).
///
/// Pairs are found on a `side × side` cell grid, with `side` =
/// `clamp(⌊1/radius⌋, 1, ⌊√n⌋)`: cells at least one radius wide, so
/// every edge joins a cell to itself or to one of its eight neighbours,
/// and at most `n` cells. The points are sorted by cell with a counting
/// sort, and each cell is scanned against itself and its four forward
/// neighbours, so each pair is tested once. The cost is `O(n + m)` plus
/// the pairs in neighbouring cells that are farther apart than
/// `radius`.
pub fn random_geometric(n: usize, radius: f64, rng: &mut impl Rng) -> Graph {
    assert!(radius >= 0.0, "radius must be non-negative");
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let side = ((1.0 / radius).floor() as usize).clamp(1, n.isqrt().max(1));
    let coord = |t: f64| ((t * side as f64) as usize).min(side - 1);
    let cell: Vec<usize> = pts.iter().map(|&(x, y)| coord(y) * side + coord(x)).collect();
    // Counting sort of the point ids by cell: cell `c` holds
    // `by_cell[start[c]..start[c + 1]]`, in ascending id order.
    let mut start = vec![0usize; side * side + 1];
    for &c in &cell {
        start[c + 1] += 1;
    }
    for c in 0..side * side {
        start[c + 1] += start[c];
    }
    let mut cursor = start[..side * side].to_vec();
    let mut by_cell = vec![0 as NodeId; n];
    for (i, &c) in cell.iter().enumerate() {
        by_cell[cursor[c]] = i as NodeId;
        cursor[c] += 1;
    }
    let bucket = |cx: usize, cy: usize| &by_cell[start[cy * side + cx]..start[cy * side + cx + 1]];
    let r2 = radius * radius;
    let near = |i: NodeId, j: NodeId| {
        let (xi, yi) = pts[i as usize];
        let (xj, yj) = pts[j as usize];
        (xi - xj).powi(2) + (yi - yj).powi(2) <= r2
    };
    let mut edges = Vec::new();
    for cy in 0..side {
        for cx in 0..side {
            let own = bucket(cx, cy);
            for (a, &i) in own.iter().enumerate() {
                edges.extend(own[a + 1..].iter().filter(|&&j| near(i, j)).map(|&j| (i, j)));
            }
            // The forward half of the neighbourhood: right, and the
            // three cells of the next row.
            let forward =
                [(cx + 1, cy), (cx.wrapping_sub(1), cy + 1), (cx, cy + 1), (cx + 1, cy + 1)];
            for (ox, oy) in forward {
                if ox >= side || oy >= side {
                    continue;
                }
                let other = bucket(ox, oy);
                for &i in own {
                    edges.extend(other.iter().filter(|&&j| near(i, j)).map(|&j| (i, j)));
                }
            }
        }
    }
    Graph::from_edges(n, &edges).expect("rgg edges are valid")
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m` existing nodes chosen proportionally to degree.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut impl Rng) -> Graph {
    assert!(m >= 1, "m must be at least 1");
    assert!(n > m, "n must be at least m + 1");
    // Seed with a star on m+1 nodes, then attach by sampling from the
    // repeated-endpoints list (each endpoint appears once per incident
    // half-edge, which realizes degree-proportional sampling).
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(4 * n * m);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * m);
    for v in 1..=m as NodeId {
        edges.push((0, v));
        endpoints.extend_from_slice(&[0, v]);
    }
    for v in (m as NodeId + 1)..n as NodeId {
        // Deduplicate in draw order: the endpoint pool grows in the order
        // targets are attached, so iterating a `HashSet` here would make
        // the graph depend on hash-seed iteration order and break
        // seed-reproducibility across processes.
        let mut picked: Vec<NodeId> = Vec::with_capacity(m);
        while picked.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push((v, t));
            endpoints.extend_from_slice(&[v, t]);
        }
    }
    Graph::from_edges(n, &edges).expect("ba edges are valid")
}

/// Random `d`-regular graph via the configuration model with local
/// swap repair (full restarts have vanishing success probability for
/// `d ≳ 6`; instead, stubs of colliding pairs are reshuffled together
/// with an equal number of good pairs until the pairing is simple).
///
/// # Panics
///
/// Panics if `n * d` is odd, `d >= n`, or the repair loop fails to
/// converge (which indicates a parameterization so tight that a simple
/// `d`-regular graph can barely exist).
pub fn random_regular(n: usize, d: usize, rng: &mut impl Rng) -> Graph {
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    assert!(d < n, "d must be < n");
    if d == 0 {
        return Graph::empty(n);
    }
    let mut stubs: Vec<NodeId> =
        (0..n as NodeId).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    for _attempt in 0..10_000 {
        let mut seen = std::collections::HashSet::with_capacity(n * d);
        let mut bad_pairs: Vec<usize> = Vec::new();
        let mut good_pairs: Vec<usize> = Vec::new();
        for i in 0..stubs.len() / 2 {
            let (a, b) = (stubs[2 * i], stubs[2 * i + 1]);
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                bad_pairs.push(i);
            } else {
                good_pairs.push(i);
            }
        }
        if bad_pairs.is_empty() {
            let edges: Vec<(NodeId, NodeId)> =
                stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            return Graph::from_edges(n, &edges).expect("regular edges are valid");
        }
        // Reshuffle the stubs of every bad pair together with an equal
        // number of random good pairs.
        good_pairs.shuffle(rng);
        let mut positions: Vec<usize> = Vec::with_capacity(bad_pairs.len() * 4);
        for &i in bad_pairs.iter().chain(good_pairs.iter().take(bad_pairs.len())) {
            positions.push(2 * i);
            positions.push(2 * i + 1);
        }
        for k in (1..positions.len()).rev() {
            let j = rng.gen_range(0..=k);
            stubs.swap(positions[k], positions[j]);
        }
    }
    panic!("random_regular({n}, {d}) failed to converge");
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]).unwrap();
    }
    let seq: Vec<NodeId> = (0..n - 2).map(|_| rng.gen_range(0..n as NodeId)).collect();
    let mut degree = vec![1u32; n];
    for &v in &seq {
        degree[v as usize] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = (0..n as NodeId)
        .filter(|&v| degree[v as usize] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &v in &seq {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("prufer invariant");
        edges.push((leaf, v));
        degree[v as usize] -= 1;
        if degree[v as usize] == 1 {
            leaves.push(std::cmp::Reverse(v));
        }
    }
    let std::cmp::Reverse(a) = leaves.pop().unwrap();
    let std::cmp::Reverse(b) = leaves.pop().unwrap();
    edges.push((a, b));
    Graph::from_edges(n, &edges).expect("tree edges are valid")
}

/// Stochastic block model: nodes are split into `blocks.len()` groups of
/// the given sizes; intra-block pairs are edges with probability `p_in`,
/// inter-block pairs with probability `p_out`.
pub fn sbm(blocks: &[usize], p_in: f64, p_out: f64, rng: &mut impl Rng) -> Graph {
    let n: usize = blocks.iter().sum();
    let mut label = Vec::with_capacity(n);
    for (b, &sz) in blocks.iter().enumerate() {
        label.extend(std::iter::repeat_n(b, sz));
    }
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if label[u] == label[v] { p_in } else { p_out };
            if rng.gen_bool(p) {
                edges.push((u as NodeId, v as NodeId));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("sbm edges are valid")
}

/// Path `0 – 1 – … – n-1`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    Graph::from_edges(n, &edges).expect("path is valid")
}

/// Cycle on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut edges: Vec<_> = (1..n as NodeId).map(|v| (v - 1, v)).collect();
    edges.push((n as NodeId - 1, 0));
    Graph::from_edges(n, &edges).expect("cycle is valid")
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).expect("clique is valid")
}

/// Star: node 0 is the hub connected to all others.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n as NodeId).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges).expect("star is valid")
}

/// `w × h` grid with 4-neighborhoods.
pub fn grid(w: usize, h: usize) -> Graph {
    let id = |x: usize, y: usize| (y * w + x) as NodeId;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, &edges).expect("grid is valid")
}

/// `w × h` torus (grid with wraparound); requires `w, h >= 3` to stay
/// simple.
///
/// # Panics
///
/// Panics if `w < 3` or `h < 3`.
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus needs both dimensions >= 3");
    let id = |x: usize, y: usize| (y * w + x) as NodeId;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            edges.push((id(x, y), id((x + 1) % w, y)));
            edges.push((id(x, y), id(x, (y + 1) % h)));
        }
    }
    Graph::from_edges(w * h, &edges).expect("torus is valid")
}

/// Hypercube on `2^dim` nodes.
pub fn hypercube(dim: u32) -> Graph {
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1 << b);
            if v < u {
                edges.push((v as NodeId, u as NodeId));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("hypercube is valid")
}

/// Complete binary tree with the given number of nodes (heap layout:
/// children of `v` are `2v+1` and `2v+2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((((v - 1) / 2) as NodeId, v as NodeId));
    }
    Graph::from_edges(n, &edges).expect("binary tree is valid")
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` leaf
/// nodes attached — a tree whose LDT depth and degree stress different
/// code paths than stars or paths alone.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1, "caterpillar needs a spine");
    let mut edges = Vec::with_capacity(spine - 1 + spine * legs);
    for v in 1..spine as NodeId {
        edges.push((v - 1, v));
    }
    let mut next = spine as NodeId;
    for v in 0..spine as NodeId {
        for _ in 0..legs {
            edges.push((v, next));
            next += 1;
        }
    }
    Graph::from_edges(spine + spine * legs, &edges).expect("caterpillar is valid")
}

/// Disjoint union of graphs (node ids of later graphs are shifted).
pub fn disjoint_union(parts: &[Graph]) -> Graph {
    let n: usize = parts.iter().map(|g| g.n()).sum();
    let mut edges = Vec::new();
    let mut base = 0 as NodeId;
    for g in parts {
        for (u, v) in g.edges() {
            edges.push((base + u, base + v));
        }
        base += g.n() as NodeId;
    }
    Graph::from_edges(n, &edges).expect("union is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn unrank_pair_is_lexicographic() {
        let n = 6u64;
        let mut rank = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(unrank_pair(n, rank), (u, v), "rank {rank}");
                rank += 1;
            }
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut r = rng();
        assert_eq!(gnp(10, 0.0, &mut r).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut r).m(), 45);
        assert_eq!(gnp(1, 0.5, &mut r).n(), 1);
    }

    #[test]
    fn gnp_density_is_plausible() {
        let mut r = rng();
        let g = gnp(300, 0.1, &mut r);
        let expected = 0.1 * 300.0 * 299.0 / 2.0;
        let m = g.m() as f64;
        assert!((m - expected).abs() < 0.2 * expected, "m = {m}, expected ≈ {expected}");
    }

    #[test]
    fn gnm_exact_edges() {
        let mut r = rng();
        let g = gnm(50, 100, &mut r);
        assert_eq!(g.m(), 100);
    }

    #[test]
    fn rgg_matches_bruteforce() {
        // Same RNG stream drives point placement, so compare vs an O(n^2)
        // recomputation on a fresh graph of points harvested from edges.
        let mut r = rng();
        let g = random_geometric(200, 0.12, &mut r);
        // Sanity: edges symmetric & plausible count (expected ~ n^2/2 * pi r^2).
        let expected = 200.0f64 * 199.0 / 2.0 * std::f64::consts::PI * 0.12 * 0.12;
        let m = g.m() as f64;
        assert!(m > 0.3 * expected && m < 2.0 * expected, "m = {m}, expected ≈ {expected}");
    }

    #[test]
    fn ba_degrees() {
        let mut r = rng();
        let g = barabasi_albert(200, 3, &mut r);
        assert_eq!(g.n(), 200);
        // Every non-seed node has degree >= m.
        for v in 4..200u32 {
            assert!(g.degree(v) >= 3, "node {v} degree {}", g.degree(v));
        }
        assert!(crate::props::is_connected(&g));
    }

    #[test]
    fn regular_is_regular() {
        let mut r = rng();
        let g = random_regular(60, 4, &mut r);
        for v in 0..60u32 {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(random_regular(10, 0, &mut r).m(), 0);
    }

    #[test]
    fn tree_is_tree() {
        let mut r = rng();
        for n in [2usize, 3, 10, 100] {
            let g = random_tree(n, &mut r);
            assert_eq!(g.m(), n - 1);
            assert!(crate::props::is_connected(&g));
        }
        assert_eq!(random_tree(1, &mut r).n(), 1);
    }

    #[test]
    fn structured_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(complete(5).m(), 10);
        assert_eq!(star(5).degree(0), 4);
        assert_eq!(grid(3, 4).m(), 3 * 4 * 2 - 3 - 4);
        assert_eq!(torus(3, 3).m(), 18);
        assert_eq!(hypercube(3).m(), 12);
        assert_eq!(binary_tree(7).degree(0), 2);
    }

    #[test]
    fn sbm_blocks() {
        let mut r = rng();
        let g = sbm(&[30, 30], 0.5, 0.01, &mut r);
        assert_eq!(g.n(), 60);
        let intra = g.edges().filter(|&(u, v)| (u < 30) == (v < 30)).count();
        let inter = g.m() - intra;
        assert!(intra > inter, "intra {intra} inter {inter}");
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 + 8);
        // Interior spine nodes: 2 spine edges + 2 legs.
        assert_eq!(g.degree(1), 4);
        assert_eq!(g.degree(0), 3);
        // Legs are leaves.
        assert_eq!(g.degree(11), 1);
        assert!(crate::props::is_connected(&g));
        assert_eq!(caterpillar(1, 0).n(), 1);
    }

    #[test]
    fn union_shifts_ids() {
        let g = disjoint_union(&[path(3), cycle(3)]);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 2 + 3);
        assert!(g.has_edge(3, 4) && g.has_edge(3, 5));
        assert!(!g.has_edge(2, 3));
    }
}
