//! Direct measurement of the paper's two probabilistic workhorses:
//! residual sparsity (Lemma 2) and graph shattering (Lemma 3).

use graphgen::{props, Adjacency, Graph, NodeId};
use rand::Rng;

/// One data point of the Lemma 2 measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualPoint {
    /// Prefix length `t`.
    pub t: usize,
    /// Horizon `t′`.
    pub t_prime: usize,
    /// Measured maximum degree of `G[V_t′ \ N(M_t)]`.
    pub max_degree: usize,
    /// Lemma 2's bound `(t′/t)·ln(n/ε)`.
    pub bound: f64,
}

/// Measures the residual-degree profile of randomized greedy MIS along a
/// given random order: for each `t` in `ts`, the maximum degree of the
/// subgraph induced by the first `t′ = ratio·t` nodes that are neither
/// in nor adjacent to the LFMIS of the first `t` (Lemma 2, with
/// `ε = 1/n`).
pub fn residual_profile(
    g: &Graph,
    order: &[NodeId],
    ts: &[usize],
    ratio: f64,
) -> Vec<ResidualPoint> {
    let n = g.n();
    let ln_bound = |t: usize, tp: usize| (tp as f64 / t as f64) * ((n * n) as f64).ln();
    ts.iter()
        .filter_map(|&t| {
            let tp = ((t as f64 * ratio) as usize).min(n);
            if t == 0 || tp <= t {
                return None;
            }
            let (_, d) = awake_mis_core::greedy::residual_degree(g, order, t, tp);
            Some(ResidualPoint { t, t_prime: tp, max_degree: d, bound: ln_bound(t, tp) })
        })
        .collect()
}

/// One data point of the Lemma 3 measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShatterPoint {
    /// Number of parts `2Δ`.
    pub parts: usize,
    /// Largest connected component observed over all parts.
    pub max_component: usize,
    /// Lemma 3's bound `6·ln(n/ε)` with `ε = 1/n`.
    pub bound: f64,
}

/// Partitions the nodes of `h` into `parts` classes uniformly at random
/// and reports the largest connected component among the induced
/// subgraphs (one sample of Lemma 3's experiment).
pub fn shatter_once(h: &Graph, parts: usize, rng: &mut impl Rng) -> ShatterPoint {
    assert!(parts >= 1, "need at least one part");
    let n = h.n();
    let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); parts];
    for v in 0..n as NodeId {
        classes[rng.gen_range(0..parts)].push(v);
    }
    let max_component = classes
        .iter()
        .map(|class| {
            if class.is_empty() {
                0
            } else {
                let (sub, _) = h.induced(class);
                props::component_sizes(&sub).first().copied().unwrap_or(0)
            }
        })
        .max()
        .unwrap_or(0);
    ShatterPoint { parts, max_component, bound: 6.0 * ((n * n) as f64).ln() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::generators;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn residual_profile_respects_bound() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::gnp(400, 0.1, &mut rng);
        let mut order: Vec<NodeId> = (0..400).collect();
        order.shuffle(&mut rng);
        let pts = residual_profile(&g, &order, &[20, 40, 80, 160], 2.0);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(
                (p.max_degree as f64) <= p.bound,
                "t = {}: degree {} above Lemma 2 bound {:.1}",
                p.t,
                p.max_degree,
                p.bound
            );
        }
    }

    #[test]
    fn shattering_with_enough_parts() {
        // A bounded-degree graph split into 2Δ parts has components
        // within the Lemma 3 bound.
        let g = generators::grid(30, 30); // Δ = 4
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..5 {
            let p = shatter_once(&g, 8, &mut rng);
            assert!(
                (p.max_component as f64) <= p.bound,
                "component {} above bound {:.1}",
                p.max_component,
                p.bound
            );
        }
    }

    #[test]
    fn single_part_is_whole_graph() {
        let g = generators::path(10);
        let mut rng = SmallRng::seed_from_u64(3);
        let p = shatter_once(&g, 1, &mut rng);
        assert_eq!(p.max_component, 10);
    }
}
