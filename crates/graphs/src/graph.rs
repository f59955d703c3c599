//! Compact port-numbered CSR graphs.

use std::fmt;

/// Identifier of a node: an index in `0..n`.
pub type NodeId = u32;

/// A port number at a node: an index in `0..degree(v)`.
///
/// Ports are the only addressing mechanism available to protocols in the
/// anonymous CONGEST model: a node does not a priori know which node is on
/// the other side of a port.
pub type Port = u32;

/// Error returned when constructing a [`Graph`] from an invalid edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is `>= n`.
    EndpointOutOfRange { edge: (NodeId, NodeId), n: usize },
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { edge, n } => {
                write!(f, "edge ({}, {}) has endpoint out of range (n = {})", edge.0, edge.1, n)
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph in CSR form with port numbering.
///
/// Neighbor lists are sorted by node id, duplicate edges are merged, and
/// for each half-edge the *reverse port* (the port index of the same edge
/// at the opposite endpoint) is precomputed so that the simulator can route
/// replies without any lookup.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) targets: Vec<NodeId>,
    pub(crate) rev_port: Vec<Port>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph").field("n", &self.n()).field("m", &self.m()).finish()
    }
}

impl Graph {
    /// Builds a graph on `n` nodes from an undirected edge list.
    ///
    /// Edges may appear in any order and orientation; duplicates are
    /// merged. Both directions of each edge are placed by counting, in
    /// `O(n + m)`, and only a neighbor list that comes out unsorted is
    /// then sorted — so lexicographic input (what `gnp` emits) sorts
    /// nothing and the whole build is linear.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EndpointOutOfRange`] if an endpoint is `>= n`
    /// and [`GraphError::SelfLoop`] for loops, for the first bad edge in
    /// input order.
    ///
    /// # Example
    ///
    /// ```
    /// # use graphgen::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 1)])?;
    /// assert_eq!(g.m(), 2); // duplicate (1,2)/(2,1) merged
    /// # Ok::<(), graphgen::GraphError>(())
    /// ```
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        let mut offsets = vec![0usize; n + 1];
        for &(a, b) in edges {
            if a as usize >= n || b as usize >= n {
                return Err(GraphError::EndpointOutOfRange { edge: (a, b), n });
            }
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Each node's offset is its cursor: once every edge is placed,
        // `offsets[v]` is where v's list ends.
        let mut targets = vec![0 as NodeId; 2 * edges.len()];
        for &(a, b) in edges {
            targets[offsets[a as usize]] = b;
            offsets[a as usize] += 1;
            targets[offsets[b as usize]] = a;
            offsets[b as usize] += 1;
        }
        // Sort each list only if it is not strictly ascending, then
        // compact it leftwards past the duplicates dropped before it.
        let (mut start, mut write) = (0, 0);
        for offset in &mut offsets[..n] {
            let end = *offset;
            let list = &mut targets[start..end];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                list.sort_unstable();
            }
            *offset = write;
            for i in start..end {
                if write == *offset || targets[write - 1] != targets[i] {
                    targets[write] = targets[i];
                    write += 1;
                }
            }
            start = end;
        }
        offsets[n] = write;
        targets.truncate(write);
        Ok(Graph::from_csr_parts(offsets, targets))
    }

    /// Finishes a CSR whose `offsets`/`targets` are already laid out
    /// (per-source neighbor lists sorted ascending) by computing all
    /// reverse ports. Every CSR is finished here: [`Graph::from_edges`],
    /// [`Adjacency::induced`] and
    /// [`DynGraph::graph`](crate::DynGraph::graph) each lay out their
    /// lists and hand them over.
    ///
    /// Reverse ports: position of `a` within `b`'s (sorted) neighbor
    /// list. The half-edges appear in `(source, target)` order, so
    /// scanning them in sequence visits each target `b`'s incoming
    /// sources in ascending order — which is exactly `b`'s port order.
    /// One linear counting pass therefore replaces a binary search per
    /// half-edge, keeping construction at 10^6–10^7 nodes off the
    /// profile.
    pub(crate) fn from_csr_parts(offsets: Vec<usize>, targets: Vec<NodeId>) -> Graph {
        let n = offsets.len() - 1;
        let mut rev_port = vec![0 as Port; targets.len()];
        let mut seen = vec![0 as Port; n];
        for (e, &b) in targets.iter().enumerate() {
            rev_port[e] = seen[b as usize];
            seen[b as usize] += 1;
        }
        Graph { offsets, targets, rev_port }
    }

    /// Builds a graph without any edges.
    pub fn empty(n: usize) -> Graph {
        Graph { offsets: vec![0; n + 1], targets: Vec::new(), rev_port: Vec::new() }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The sorted neighbor list of `v`; `neighbors(v)[p]` is the node
    /// reached through port `p`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Follows port `p` of node `v`, returning the node at the other end
    /// together with the reverse port leading back to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= degree(v)`.
    pub fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let e = self.offsets[v as usize] + p as usize;
        assert!(e < self.offsets[v as usize + 1], "port {p} out of range at node {v}");
        (self.targets[e], self.rev_port[e])
    }

    /// The port of `v` that leads to `u`, if `{u, v}` is an edge.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).binary_search(&u).ok().map(|p| p as Port)
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.port_to(u, v).is_some()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v))
        })
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as NodeId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 when `n == 0`).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.targets.len() as f64 / self.n() as f64
        }
    }
}

/// Read access to a simple undirected graph through its sorted neighbor
/// lists: what incremental repair, local MIS verification and induced
/// subgraphs need. [`Graph`] serves it from its CSR, and
/// [`DynGraph`](crate::DynGraph) from its base CSR and overlay, without
/// building a port-numbered graph.
pub trait Adjacency {
    /// Number of nodes; ids are `0..n`.
    fn n(&self) -> usize;

    /// The sorted neighbor list of `v`.
    fn neighbors(&self, v: NodeId) -> &[NodeId];

    /// The subgraph induced by `keep`, together with a map from new node
    /// ids to the original ids.
    ///
    /// Nodes in `keep` may appear in any order; duplicates are ignored.
    /// Neighbors are renamed by binary search in the sorted selection,
    /// so the cost follows the selection's volume, not `n`.
    fn induced(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut sel: Vec<NodeId> = keep.to_vec();
        sel.sort_unstable();
        sel.dedup();
        // `sel` is sorted and each neighbor list is sorted, and renaming
        // to positions in `sel` is monotone — so each renamed list comes
        // out sorted and goes straight into the CSR, no re-sort needed.
        // The same monotonicity lets each search start past the previous
        // neighbor's position.
        let mut offsets = Vec::with_capacity(sel.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &v in &sel {
            let mut lo = 0;
            for &u in self.neighbors(v) {
                match sel[lo..].binary_search(&u) {
                    Ok(j) => {
                        targets.push((lo + j) as NodeId);
                        lo += j + 1;
                    }
                    Err(j) => lo += j,
                }
            }
            offsets.push(targets.len());
        }
        (Graph::from_csr_parts(offsets, targets), sel)
    }
}

impl Adjacency for Graph {
    fn n(&self) -> usize {
        Graph::n(self)
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(Graph::from_edges(2, &[(1, 1)]), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::EndpointOutOfRange { .. })
        ));
    }

    #[test]
    fn ports_are_involutive() {
        let g = triangle();
        for v in 0..3u32 {
            for p in 0..g.degree(v) as u32 {
                let (u, q) = g.endpoint(v, p);
                assert_eq!(g.endpoint(u, q), (v, p));
            }
        }
    }

    #[test]
    fn port_to_finds_edges() {
        let g = triangle();
        assert_eq!(g.port_to(0, 2), Some(1));
        assert!(g.has_edge(0, 2));
        let g2 = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g2.has_edge(0, 3));
        assert_eq!(g2.port_to(0, 3), None);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn induced_subgraph() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (h, map) = g.induced(&[0, 1, 2]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.m(), 2); // 0-1, 1-2 survive
        assert_eq!(map, vec![0, 1, 2]);
        let (h2, map2) = g.induced(&[4, 0, 4]);
        assert_eq!(h2.n(), 2);
        assert_eq!(h2.m(), 1);
        assert_eq!(map2, vec![0, 4]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }
}
