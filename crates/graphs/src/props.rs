//! Graph measurements used by the experiment harness.

use crate::graph::{Adjacency, Graph, NodeId};

/// Connected components: returns `(labels, count)` where `labels[v]` is the
/// component index of `v` in `0..count`.
///
/// Components are numbered in order of their smallest node id.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for s in 0..n as NodeId {
        if label[s as usize] != u32::MAX {
            continue;
        }
        label[s as usize] = count;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// Whether the graph is connected (the empty graph is considered
/// connected).
pub fn is_connected(g: &Graph) -> bool {
    g.n() == 0 || connected_components(g).1 == 1
}

/// Sizes of all connected components, sorted descending.
pub fn component_sizes(g: &Graph) -> Vec<usize> {
    let (labels, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

/// The largest connected component as an induced subgraph, with the map
/// from new node ids to original ids.
pub fn largest_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let (labels, count) = connected_components(g);
    if count == 0 {
        return (Graph::empty(0), Vec::new());
    }
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let best = sizes.iter().enumerate().max_by_key(|&(_, s)| *s).map(|(i, _)| i as u32).unwrap();
    let keep: Vec<NodeId> =
        (0..g.n() as NodeId).filter(|&v| labels[v as usize] == best).collect();
    g.induced(&keep)
}

/// Degeneracy of the graph and a degeneracy ordering (smallest-last).
///
/// The degeneracy is the maximum, over the elimination process, of the
/// degree of the minimum-degree node at removal time.
pub fn degeneracy(g: &Graph) -> (usize, Vec<NodeId>) {
    let n = g.n();
    let mut deg: Vec<usize> = (0..n as NodeId).map(|v| g.degree(v)).collect();
    let maxd = deg.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); maxd + 1];
    for v in 0..n as NodeId {
        buckets[deg[v as usize]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        while cursor > 0 && buckets[cursor - 1].iter().any(|&v| !removed[v as usize] && deg[v as usize] == cursor - 1) {
            cursor -= 1;
        }
        let v = loop {
            if cursor >= buckets.len() {
                unreachable!("bucket queue exhausted early");
            }
            match buckets[cursor].pop() {
                Some(v) if !removed[v as usize] && deg[v as usize] == cursor => break v,
                Some(_) => continue,
                None => cursor += 1,
            }
        };
        removed[v as usize] = true;
        degeneracy = degeneracy.max(cursor);
        order.push(v);
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                deg[u as usize] -= 1;
                buckets[deg[u as usize]].push(u);
            }
        }
    }
    (degeneracy, order)
}

/// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in 0..g.n() as NodeId {
        hist[g.degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_union() {
        let g = generators::disjoint_union(&[generators::path(3), generators::cycle(4)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(component_sizes(&g), vec![4, 3]);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&generators::path(10)));
        assert!(is_connected(&Graph::empty(0)));
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn largest_component_extraction() {
        let g = generators::disjoint_union(&[generators::path(2), generators::complete(5)]);
        let (h, map) = largest_component(&g);
        assert_eq!(h.n(), 5);
        assert_eq!(h.m(), 10);
        assert_eq!(map, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn degeneracy_known_values() {
        assert_eq!(degeneracy(&generators::path(10)).0, 1);
        assert_eq!(degeneracy(&generators::cycle(10)).0, 2);
        assert_eq!(degeneracy(&generators::complete(6)).0, 5);
        assert_eq!(degeneracy(&generators::star(10)).0, 1);
        let (_, order) = degeneracy(&generators::path(5));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = generators::star(7);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 7);
        assert_eq!(h[1], 6);
        assert_eq!(h[6], 1);
    }
}
