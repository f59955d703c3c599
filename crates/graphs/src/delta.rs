//! Topology deltas for dynamic graphs.
//!
//! A [`DeltaBatch`] collects edge insertions/deletions and node
//! additions/removals; [`DynGraph::apply`] validates it and rewrites the
//! neighbor lists of the nodes it touches. Ports are indices into the
//! sorted neighbor list, so an untouched node — one no effective edit
//! names — keeps every port meaning exactly what it meant before.
//!
//! # Overlay and compaction
//!
//! A [`DynGraph`] holds each node's current list in one of three
//! layers, and a reader takes the first that holds one:
//!
//! 1. the *live overlay*, which [`DynGraph::apply`] writes: one slot per
//!    node saying whether it holds a replacement list for the node, in an
//!    append-only pool;
//! 2. the *frozen overlay*, an earlier live overlay that a background
//!    build is folding into the next base, standing only during a build;
//! 3. the *base* CSR (offsets and sorted targets, no reverse ports).
//!
//! Applying a batch of `k` effective edits costs `O(k Δ)` and touches
//! nothing of size `n` or `m`, apart from growing the per-node vectors
//! when nodes are added:
//!
//! * the effective edits are sorted once as `(node, other, is_insert)`
//!   half-edges, so each touched node's edits form one run, ascending in
//!   `other`;
//! * each touched node merges its current (sorted) list with its edits
//!   onto the end of the live pool, so its new list comes out sorted
//!   without a re-sort. Its earlier live list, if it had one, goes stale.
//!
//! Once the live pool, stale lists included, holds more than a quarter
//! as many entries as the graph has half-edges (`2·m /`
//! [`COMPACT_DIVISOR`]), the batch ends in a *freeze*. The live overlay
//! becomes the frozen one behind an `Arc`, an empty live overlay takes
//! its place, and one builder thread lays out the base and the frozen
//! overlay as the next base. That is a run copy: one `extend_from_slice`
//! per run of nodes on their base lists, plus each frozen list, with no
//! per-edge search. Epochs go on meanwhile and read through the frozen
//! layer. The first `apply` that finds the build finished swaps the new
//! base in, after its own rewrites. The live overlay stays as it is,
//! since each of its lists replaces a whole list. So the freezes, and
//! [`DynGraph::overlay_len`], depend on the batch stream alone, while a
//! swap depends on the builder's timing, and the batch after a freeze
//! always reads and rewrites through the frozen layer.
//!
//! At most one build is in flight per graph: a freeze that finds the
//! previous build unfinished waits for it and swaps first. During a
//! build the graph holds the current base, the frozen overlay, the live
//! overlay and the next base, about twice the CSR. The next base is
//! allocated at the freeze with exact capacity, and the builder faults
//! its pages in. The swap frees the retired base and the frozen
//! overlay; no spare base is kept. Dropping a graph joins its build, and
//! a clone lays out the frozen layer into its own base on the calling
//! thread.
//!
//! [`DynGraph::graph`] lays out all three layers by the same run copy,
//! adds [`Graph`]'s linear reverse-port pass, and caches the
//! port-numbered result until the next [`DynGraph::apply`]. It equals
//! what [`Graph::from_edges`] builds from the same edge set, vector for
//! vector. Nothing an epoch runs needs it: repair, local verification
//! and induced subgraphs read through [`Adjacency`], and batch
//! generation through [`DynGraph::neighbors`] and its siblings.
//!
//! Node ids are **stable**: removing a node does not renumber anyone. A
//! removed node becomes an isolated node that the *active* mask marks
//! inactive, which distinguishes it from a merely isolated one and is
//! what survivor-aware MIS verification consumes. New nodes append
//! fresh ids at the end (`n..n+k`).
//!
//! Deltas are idempotent in the delta-CRDT style: inserting an edge
//! that already exists or deleting one that does not is a no-op, not an
//! error — what *was applied* comes back in the [`AppliedDelta`] so
//! callers (incremental MIS repair) see only the effective changes.
//! Structural contradictions are errors: self loops, out-of-range
//! endpoints, the same edge both inserted and deleted in one batch, and
//! inserting an edge at a node the same batch removes or an earlier
//! batch removed.

use crate::graph::{Adjacency, Graph, NodeId};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Error returned when a [`DeltaBatch`] cannot be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint is outside the post-batch id space.
    EndpointOutOfRange {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The post-batch node count it was checked against.
        n: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
    /// A removed node id is `>= n` (nodes added by the same batch
    /// cannot be removed by it).
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The pre-batch node count it was checked against.
        n: usize,
    },
    /// The same edge appears in both the insert and the delete list.
    InsertDeleteConflict((NodeId, NodeId)),
    /// An inserted edge touches a node the same batch removes.
    EdgeToRemovedNode {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The endpoint being removed.
        node: NodeId,
    },
    /// An inserted edge touches a node that an earlier batch removed.
    InactiveEndpoint {
        /// The offending edge.
        edge: (NodeId, NodeId),
        /// The inactive endpoint.
        node: NodeId,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::EndpointOutOfRange { edge, n } => {
                write!(f, "edge ({}, {}) has endpoint out of range (n = {n})", edge.0, edge.1)
            }
            DeltaError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            DeltaError::NodeOutOfRange { node, n } => {
                write!(f, "removed node {node} out of range (n = {n})")
            }
            DeltaError::InsertDeleteConflict(e) => {
                write!(f, "edge ({}, {}) both inserted and deleted in one batch", e.0, e.1)
            }
            DeltaError::EdgeToRemovedNode { edge, node } => write!(
                f,
                "edge ({}, {}) inserted at node {node}, which the same batch removes",
                edge.0, edge.1
            ),
            DeltaError::InactiveEndpoint { edge, node } => write!(
                f,
                "edge ({}, {}) inserted at node {node}, which was removed earlier",
                edge.0, edge.1
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of topology deltas, collected through the builder methods
/// and validated + deduplicated when applied.
///
/// # Example
///
/// ```
/// # use graphgen::{DynGraph, Graph, delta::DeltaBatch};
/// let mut g = DynGraph::new(Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?);
/// let mut batch = DeltaBatch::new();
/// batch.insert_edge(0, 3).delete_edge(1, 2).add_nodes(1).remove_node(2);
/// let applied = g.apply(&batch)?;
/// assert_eq!(g.n(), 5);
/// assert!(g.has_edge(0, 3));
/// assert_eq!(g.degree(2), 0); // removed node: isolated, id kept
/// assert_eq!(applied.added, vec![4]);
/// // The (2,3) edge went away implicitly with node 2's removal.
/// assert_eq!(applied.deleted, vec![(1, 2), (2, 3)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    insert_edges: Vec<(NodeId, NodeId)>,
    delete_edges: Vec<(NodeId, NodeId)>,
    add_nodes: usize,
    remove_nodes: Vec<NodeId>,
}

/// Canonical (undirected) form of an edge: `(min, max)`.
fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> DeltaBatch {
        DeltaBatch::default()
    }

    /// Queues an edge insertion (either orientation).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> &mut DeltaBatch {
        self.insert_edges.push(canon(u, v));
        self
    }

    /// Queues an edge deletion (either orientation).
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> &mut DeltaBatch {
        self.delete_edges.push(canon(u, v));
        self
    }

    /// Queues `k` node additions; the new ids are `n..n+k` in order.
    pub fn add_nodes(&mut self, k: usize) -> &mut DeltaBatch {
        self.add_nodes += k;
        self
    }

    /// Queues a node removal. The node keeps its id but loses every
    /// incident edge and its active status.
    pub fn remove_node(&mut self, v: NodeId) -> &mut DeltaBatch {
        self.remove_nodes.push(v);
        self
    }

    /// Whether the batch holds no operations at all.
    pub fn is_empty(&self) -> bool {
        self.insert_edges.is_empty()
            && self.delete_edges.is_empty()
            && self.add_nodes == 0
            && self.remove_nodes.is_empty()
    }

    /// Number of queued operations (before dedup/idempotence filtering).
    pub fn ops(&self) -> usize {
        self.insert_edges.len()
            + self.delete_edges.len()
            + self.add_nodes
            + self.remove_nodes.len()
    }

    /// The queued edge insertions, canonicalized `(min, max)`.
    pub fn insert_edges(&self) -> &[(NodeId, NodeId)] {
        &self.insert_edges
    }

    /// The queued edge deletions, canonicalized `(min, max)`.
    pub fn delete_edges(&self) -> &[(NodeId, NodeId)] {
        &self.delete_edges
    }

    /// The number of queued node additions.
    pub fn added_count(&self) -> usize {
        self.add_nodes
    }

    /// The queued node removals, as given.
    pub fn remove_nodes(&self) -> &[NodeId] {
        &self.remove_nodes
    }
}

/// What a [`DeltaBatch`] actually changed: the *effective* deltas after
/// validation, deduplication, and idempotence filtering. Every list is
/// sorted; edges are canonical `(min, max)`. This is the input the
/// incremental MIS repair consumes to compute its damage frontier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Edges that were actually created.
    pub inserted: Vec<(NodeId, NodeId)>,
    /// Edges that were actually dropped — explicit deletions of edges
    /// that existed, plus every edge implicitly lost to a node removal.
    pub deleted: Vec<(NodeId, NodeId)>,
    /// Ids of the nodes the batch appended.
    pub added: Vec<NodeId>,
    /// Nodes that were removed (their ids survive, isolated).
    pub removed: Vec<NodeId>,
}

impl AppliedDelta {
    /// Whether nothing effectively changed.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty()
            && self.deleted.is_empty()
            && self.added.is_empty()
            && self.removed.is_empty()
    }

    /// Total number of effective deltas.
    pub fn ops(&self) -> usize {
        self.inserted.len() + self.deleted.len() + self.added.len() + self.removed.len()
    }
}

/// Slot of a node an overlay holds no list for.
const NO_LIST: u32 = u32::MAX;

/// The live overlay freezes once its pool holds more than
/// `2·m / COMPACT_DIVISOR` entries, `m` being the edge count after the
/// batch (see the [module docs](crate::delta)).
pub const COMPACT_DIVISOR: usize = 4;

/// A CSR without reverse ports: node `v`'s sorted list is
/// `targets[offsets[v]..offsets[v + 1]]`. Ids past its end have empty
/// lists.
struct Csr {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Empty buffers with room for `n` nodes and `m` edges.
    fn with_capacity(n: usize, m: usize) -> Csr {
        Csr { offsets: Vec::with_capacity(n + 1), targets: Vec::with_capacity(2 * m) }
    }

    /// `v`'s list.
    fn list(&self, v: usize) -> &[NodeId] {
        match self.offsets.get(v..v + 2) {
            Some(&[start, end]) => &self.targets[start..end],
            _ => &[],
        }
    }

    /// Appends nodes `lo..hi` with their lists to `out`: one slice copy,
    /// then the run's offsets shifted to where it now starts.
    fn copy_run(&self, lo: usize, hi: usize, out: &mut Csr) {
        let n = self.offsets.len() - 1;
        let (a, b) = (lo.min(n), hi.min(n));
        let (start, end) = (self.offsets[a], self.offsets[b]);
        let shift = out.targets.len();
        out.targets.extend_from_slice(&self.targets[start..end]);
        out.offsets.extend(self.offsets[a + 1..=b].iter().map(|&o| o - start + shift));
        out.offsets.resize(hi + 1, out.targets.len());
    }
}

/// Replacement lists for some nodes, each sorted, in an append-only
/// pool.
#[derive(Clone)]
struct Overlay {
    /// Per node: [`NO_LIST`], or the index in `spans` of its list.
    slot: Vec<u32>,
    /// `pool[start..end]` of each list.
    spans: Vec<(usize, usize)>,
    /// The lists, stale ones included.
    pool: Vec<NodeId>,
}

impl Overlay {
    /// An overlay of `n` nodes that holds no list.
    fn new(n: usize) -> Overlay {
        Overlay { slot: vec![NO_LIST; n], spans: Vec::new(), pool: Vec::new() }
    }

    /// `v`'s list, if this overlay holds one.
    fn list(&self, v: usize) -> Option<&[NodeId]> {
        match self.slot.get(v) {
            Some(&s) if s != NO_LIST => {
                let (start, end) = self.spans[s as usize];
                Some(&self.pool[start..end])
            }
            _ => None,
        }
    }

    /// Makes `list` node `v`'s list, appended to the pool; `v`'s earlier
    /// list here, if any, goes stale.
    fn write(&mut self, v: usize, list: &[NodeId]) {
        let span = (self.pool.len(), self.pool.len() + list.len());
        self.pool.extend_from_slice(list);
        match self.slot[v] {
            NO_LIST => {
                self.slot[v] = self.spans.len() as u32;
                self.spans.push(span);
            }
            s => self.spans[s as usize] = span,
        }
    }
}

/// Lays out nodes `0..n` as one CSR in `out`'s empty buffers. A node's
/// list is the one the first of `overlays` holding one gives, else its
/// list in `base`. It is a run copy: one slice copy per run of nodes on
/// their base lists, plus each overlay list, with no per-edge search.
fn layout(base: &Csr, overlays: &[&Overlay], n: usize, mut out: Csr) -> Csr {
    out.offsets.push(0);
    let mut run = 0;
    for v in 0..n {
        if let Some(list) = overlays.iter().find_map(|o| o.list(v)) {
            base.copy_run(run, v, &mut out);
            out.targets.extend_from_slice(list);
            out.offsets.push(out.targets.len());
            run = v + 1;
        }
    }
    base.copy_run(run, n, &mut out);
    out
}

/// A background build of the next base from the current base and
/// `frozen`.
struct Build {
    frozen: Arc<Overlay>,
    /// The edge count at the freeze.
    m: usize,
    handle: JoinHandle<Csr>,
}

/// A mutable graph with stable node ids and an *active* mask.
///
/// Removed nodes stay in the id space as inactive, isolated nodes; the
/// mask is exactly the `alive` vector survivor-aware MIS verification
/// (`check_mis_survivors`) consumes, so a removed node is exempt from
/// both independence and domination requirements. Re-inserting edges at
/// an inactive node is rejected — removal is permanent; growth happens
/// through fresh ids.
///
/// Neighbor lists live in a base CSR plus an overlay that
/// [`apply`](Self::apply) writes, and which a background thread now and
/// then folds into a new base (see the [module docs](crate::delta)).
/// Equality is logical: same node count, active mask and neighbor lists,
/// however they are stored.
pub struct DynGraph {
    /// The base CSR, covering the ids that existed at the freeze it was
    /// built from.
    base: Arc<Csr>,
    /// The overlay [`apply`](Self::apply) writes: one slot per node.
    live: Overlay,
    /// The build in flight, whose frozen overlay readers consult between
    /// `live` and `base`.
    build: Option<Build>,
    /// Number of undirected edges.
    m: usize,
    active: Vec<bool>,
    active_count: usize,
    /// The port-numbered graph [`graph`](Self::graph) builds, until the
    /// next [`apply`](Self::apply).
    graph: OnceLock<Graph>,
}

impl DynGraph {
    /// Wraps a static graph as the base; every node starts active. The
    /// graph's reverse ports are dropped: nothing reads them until
    /// [`graph`](Self::graph) rebuilds them.
    pub fn new(graph: Graph) -> DynGraph {
        let Graph { offsets, targets, .. } = graph;
        let n = offsets.len() - 1;
        DynGraph {
            m: targets.len() / 2,
            base: Arc::new(Csr { offsets, targets }),
            live: Overlay::new(n),
            build: None,
            active: vec![true; n],
            active_count: n,
            graph: OnceLock::new(),
        }
    }

    /// The current topology as a port-numbered graph. Built on the first
    /// call after a change, in `O(n + m)`, and cached until the next
    /// [`apply`](Self::apply); use [`Adjacency`] or
    /// [`neighbors`](Self::neighbors) where ports are not needed.
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| {
            let out = Csr::with_capacity(self.n(), self.m);
            let Csr { offsets, targets } = match &self.build {
                Some(b) => layout(&self.base, &[&self.live, &b.frozen], self.n(), out),
                None => layout(&self.base, &[&self.live], self.n(), out),
            };
            Graph::from_csr_parts(offsets, targets)
        })
    }

    /// The active mask (`true` = node participates).
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Whether `v` is active.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v as usize]
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Total id-space size (active + removed).
    pub fn n(&self) -> usize {
        self.live.slot.len()
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The sorted neighbor list of `v`, as [`Graph::neighbors`] would
    /// give it.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        assert!(v < self.n(), "node {v} out of range (n = {})", self.n());
        self.live
            .list(v)
            .or_else(|| self.build.as_ref()?.frozen.list(v))
            .unwrap_or_else(|| self.base.list(v))
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Whether `{u, v}` is an edge.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Entries the live overlay holds, stale lists included. It grows
    /// with every batch that edits an edge and falls to 0 exactly at the
    /// batches that end in a freeze, so it depends on the batch stream
    /// alone, not on when a background build finishes.
    pub fn overlay_len(&self) -> usize {
        self.live.pool.len()
    }

    /// Entries the frozen overlay holds while a background build folds
    /// it into the next base; 0 when no build stands. A freeze sets it,
    /// and the first [`apply`](Self::apply) that finds the build finished
    /// clears it, so unlike [`overlay_len`](Self::overlay_len) it
    /// depends on the builder's timing.
    pub fn frozen_len(&self) -> usize {
        self.build.as_ref().map_or(0, |b| b.frozen.pool.len())
    }

    /// Applies a batch and returns the effective changes: validation and
    /// idempotence as [`DeltaError`] and [`AppliedDelta`] describe, with
    /// removals of already-inactive nodes as no-ops. A rejected batch
    /// changes nothing.
    ///
    /// The batch writes the lists of the touched nodes into the live
    /// overlay. Then, if the background build is finished, its base is
    /// swapped in; and if the live overlay has passed its share of the
    /// graph, it is frozen and a new build starts, after waiting for an
    /// unfinished one (see the [module docs](crate::delta)).
    ///
    /// # Errors
    ///
    /// See [`DeltaError`]: out-of-range endpoints, self loops,
    /// insert/delete conflicts, and inserts at removed nodes.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a background build.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<AppliedDelta, DeltaError> {
        let applied = self.effective(batch)?;

        // One edit per half-edge. `(node, other)` pairs are distinct —
        // an edge is either inserted or deleted — so sorting groups each
        // touched node's edits into one run, ascending in `other`.
        let mut edits: Vec<(NodeId, NodeId, bool)> =
            Vec::with_capacity(2 * (applied.inserted.len() + applied.deleted.len()));
        for (edges, is_insert) in [(&applied.inserted, true), (&applied.deleted, false)] {
            for &(a, b) in edges {
                edits.push((a, b, is_insert));
                edits.push((b, a, is_insert));
            }
        }
        edits.sort_unstable();

        let n_new = self.n() + applied.added.len();
        self.live.slot.resize(n_new, NO_LIST);
        let mut merged = Vec::new();
        for run in edits.chunk_by(|x, y| x.0 == y.0) {
            self.rewrite(run, &mut merged);
        }
        self.m = self.m + applied.inserted.len() - applied.deleted.len();
        self.active.resize(n_new, true);
        for &v in &applied.removed {
            self.active[v as usize] = false;
        }
        self.active_count = self.active_count + applied.added.len() - applied.removed.len();
        self.graph.take();
        if self.build.as_ref().is_some_and(|b| b.handle.is_finished()) {
            self.swap();
        }
        if self.live.pool.len() > 2 * self.m / COMPACT_DIVISOR {
            self.freeze();
        }
        Ok(applied)
    }

    /// Validates `batch` against the current graph and reduces it to
    /// its effective changes. Changes nothing.
    fn effective(&self, batch: &DeltaBatch) -> Result<AppliedDelta, DeltaError> {
        let n = self.n();
        let n_new = n + batch.add_nodes;
        let inactive = |v: NodeId| (v as usize) < n && !self.active[v as usize];
        for &(a, b) in &batch.insert_edges {
            for v in [a, b] {
                if inactive(v) {
                    return Err(DeltaError::InactiveEndpoint { edge: (a, b), node: v });
                }
            }
        }

        // Validate + canonicalize the node removals; removing an
        // inactive node again is a no-op.
        let mut removed: Vec<NodeId> =
            batch.remove_nodes.iter().copied().filter(|&v| !inactive(v)).collect();
        removed.sort_unstable();
        removed.dedup();
        if let Some(&v) = removed.iter().find(|&&v| v as usize >= n) {
            return Err(DeltaError::NodeOutOfRange { node: v, n });
        }

        // Validate + canonicalize the edge lists.
        let check = |edges: &[(NodeId, NodeId)]| -> Result<Vec<(NodeId, NodeId)>, DeltaError> {
            let mut out = Vec::with_capacity(edges.len());
            for &(a, b) in edges {
                if a == b {
                    return Err(DeltaError::SelfLoop(a));
                }
                if a as usize >= n_new || b as usize >= n_new {
                    return Err(DeltaError::EndpointOutOfRange { edge: (a, b), n: n_new });
                }
                out.push(canon(a, b));
            }
            out.sort_unstable();
            out.dedup();
            Ok(out)
        };
        let ins = check(&batch.insert_edges)?;
        let del = check(&batch.delete_edges)?;
        if let Some(&e) = ins.iter().find(|e| del.binary_search(e).is_ok()) {
            return Err(DeltaError::InsertDeleteConflict(e));
        }
        for &(a, b) in &ins {
            for v in [a, b] {
                if removed.binary_search(&v).is_ok() {
                    return Err(DeltaError::EdgeToRemovedNode { edge: (a, b), node: v });
                }
            }
        }

        // Idempotence filtering: keep only inserts of absent edges and
        // deletes of present ones. Endpoints at `>= n` have no edges yet.
        let present =
            |&(a, b): &(NodeId, NodeId)| (a as usize) < n && (b as usize) < n && self.has_edge(a, b);
        let inserted: Vec<(NodeId, NodeId)> = ins.into_iter().filter(|e| !present(e)).collect();
        let mut deleted: Vec<(NodeId, NodeId)> = del.into_iter().filter(present).collect();
        // Node removals implicitly delete every incident edge.
        for &v in &removed {
            for &u in self.neighbors(v) {
                deleted.push(canon(v, u));
            }
        }
        deleted.sort_unstable();
        deleted.dedup();

        let added: Vec<NodeId> = (n as NodeId..n_new as NodeId).collect();
        Ok(AppliedDelta { inserted, deleted, added, removed })
    }


    /// Writes node `v`'s current list merged with `edits` —
    /// `(v, other, is_insert)`, ascending in `other` — into the live
    /// overlay, so the result stays sorted. `merged` is scratch space.
    fn rewrite(&mut self, edits: &[(NodeId, NodeId, bool)], merged: &mut Vec<NodeId>) {
        let v = edits[0].0;
        let list = self.neighbors(v);
        merged.clear();
        let mut i = 0;
        for &(_, u, is_insert) in edits {
            let j = i + list[i..].partition_point(|&w| w < u);
            merged.extend_from_slice(&list[i..j]);
            i = j;
            if is_insert {
                merged.push(u);
            } else {
                debug_assert_eq!(list.get(i), Some(&u), "deleted edge must exist");
                i += 1;
            }
        }
        merged.extend_from_slice(&list[i..]);
        self.live.write(v as usize, merged);
    }

    /// Freezes the live overlay and starts a background build of the
    /// next base from it and the current base, after swapping in the
    /// build in flight, if any.
    fn freeze(&mut self) {
        self.swap();
        let n = self.n();
        let frozen = Arc::new(std::mem::replace(&mut self.live, Overlay::new(n)));
        // Allocated here with exact capacity: the builder only fills it.
        let out = Csr::with_capacity(n, self.m);
        let (base, layer) = (Arc::clone(&self.base), Arc::clone(&frozen));
        let handle = std::thread::Builder::new()
            .name("dyngraph-build".to_string())
            .spawn(move || layout(&base, &[&layer], n, out))
            .expect("spawn the DynGraph build thread");
        self.build = Some(Build { frozen, m: self.m, handle });
    }

    /// Waits for the build in flight, if any, and swaps its base in. The
    /// retired base and the frozen overlay are freed here; the live
    /// overlay stays, since its lists replace whole lists.
    fn swap(&mut self) {
        if let Some(build) = self.build.take() {
            let base = build.handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            self.base = Arc::new(base);
        }
    }
}

impl Drop for DynGraph {
    /// Joins the build in flight, so no builder outlives its graph. A
    /// panic of the builder is dropped here, since resuming it while
    /// another panic unwinds would abort.
    fn drop(&mut self) {
        if let Some(build) = self.build.take() {
            let _ = build.handle.join();
        }
    }
}

impl Clone for DynGraph {
    /// Shares the base. A build in flight cannot be shared, so the clone
    /// lays out the base and the frozen overlay on the calling thread,
    /// as the builder does, and starts from the result.
    fn clone(&self) -> DynGraph {
        let base = match &self.build {
            Some(b) => {
                let n = b.frozen.slot.len();
                Arc::new(layout(&self.base, &[&b.frozen], n, Csr::with_capacity(n, b.m)))
            }
            None => Arc::clone(&self.base),
        };
        DynGraph {
            base,
            live: self.live.clone(),
            build: None,
            m: self.m,
            active: self.active.clone(),
            active_count: self.active_count,
            graph: self.graph.clone(),
        }
    }
}

impl Adjacency for DynGraph {
    fn n(&self) -> usize {
        DynGraph::n(self)
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        DynGraph::neighbors(self, v)
    }
}

impl PartialEq for DynGraph {
    fn eq(&self, other: &DynGraph) -> bool {
        self.n() == other.n()
            && self.active == other.active
            && (0..self.n() as NodeId).all(|v| self.neighbors(v) == other.neighbors(v))
    }
}

impl Eq for DynGraph {}

impl fmt::Debug for DynGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynGraph")
            .field("n", &self.n())
            .field("m", &self.m)
            .field("active", &self.active_count)
            .field("overlay_lists", &self.live.spans.len())
            .field("overlay_len", &self.overlay_len())
            .field("frozen_len", &self.frozen_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
    }

    #[test]
    fn edge_insert_and_delete() {
        let g = cycle5();
        let mut d = DynGraph::new(g.clone());
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 2).delete_edge(3, 4);
        let applied = d.apply(&b).unwrap();
        assert!(d.has_edge(0, 2));
        assert!(!d.has_edge(3, 4));
        assert_eq!(d.m(), g.m()); // one in, one out
        assert_eq!(applied.inserted, vec![(0, 2)]);
        assert_eq!(applied.deleted, vec![(3, 4)]);
        assert!(applied.added.is_empty() && applied.removed.is_empty());
    }

    #[test]
    fn idempotent_deltas_are_no_ops() {
        let g = cycle5();
        let mut d = DynGraph::new(g.clone());
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 1).insert_edge(1, 0).delete_edge(0, 2).delete_edge(2, 0);
        let applied = d.apply(&b).unwrap();
        assert_eq!(d.graph(), &g);
        assert_eq!(d, DynGraph::new(g));
        assert!(applied.is_empty());
        assert_eq!(applied.ops(), 0);
    }

    #[test]
    fn node_add_and_remove() {
        let mut d = DynGraph::new(cycle5());
        let mut b = DeltaBatch::new();
        b.add_nodes(2).insert_edge(5, 6).insert_edge(0, 5).remove_node(2).remove_node(2);
        let applied = d.apply(&b).unwrap();
        assert_eq!(d.n(), 7);
        assert_eq!(d.degree(2), 0);
        assert!(d.has_edge(5, 6) && d.has_edge(0, 5));
        assert!(!d.has_edge(1, 2) && !d.has_edge(2, 3));
        assert_eq!(applied.added, vec![5, 6]);
        assert_eq!(applied.removed, vec![2]); // deduplicated
        assert_eq!(applied.deleted, vec![(1, 2), (2, 3)]);
    }

    #[test]
    fn validation_rejects_contradictions() {
        let mut d = DynGraph::new(cycle5());
        let mut b = DeltaBatch::new();
        b.insert_edge(1, 1);
        assert_eq!(d.apply(&b), Err(DeltaError::SelfLoop(1)));

        let mut b = DeltaBatch::new();
        b.insert_edge(0, 9);
        assert!(matches!(d.apply(&b), Err(DeltaError::EndpointOutOfRange { .. })));

        let mut b = DeltaBatch::new();
        b.insert_edge(0, 2).delete_edge(2, 0);
        assert_eq!(d.apply(&b), Err(DeltaError::InsertDeleteConflict((0, 2))));

        let mut b = DeltaBatch::new();
        b.remove_node(7);
        assert!(matches!(d.apply(&b), Err(DeltaError::NodeOutOfRange { .. })));

        let mut b = DeltaBatch::new();
        b.remove_node(2).insert_edge(2, 4);
        assert!(matches!(d.apply(&b), Err(DeltaError::EdgeToRemovedNode { .. })));

        // Rejected batches change nothing.
        assert_eq!(d, DynGraph::new(cycle5()));
    }

    #[test]
    fn untouched_nodes_keep_their_ports() {
        // A denser graph where several nodes stay untouched.
        let g = Graph::from_edges(
            8,
            &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (1, 6)],
        )
        .unwrap();
        let mut d = DynGraph::new(g.clone());
        let mut b = DeltaBatch::new();
        b.insert_edge(3, 7).delete_edge(4, 5).add_nodes(1).insert_edge(2, 8);
        d.apply(&b).unwrap();
        let g2 = d.graph();
        // Touched: 3, 7 (insert), 4, 5 (delete), 2, 8 (insert). Nodes
        // 0, 1, 6 are untouched: identical neighbor lists, and every
        // port resolves to the same (neighbor, reverse-port-target)
        // pair as before.
        for v in [0u32, 1, 6] {
            assert_eq!(g.neighbors(v), g2.neighbors(v), "node {v} neighbor list drifted");
            for p in 0..g.degree(v) as u32 {
                let (u_old, _) = g.endpoint(v, p);
                let (u_new, q_new) = g2.endpoint(v, p);
                assert_eq!(u_old, u_new, "node {v} port {p} re-targeted");
                // The reverse port round-trips in the new graph.
                assert_eq!(g2.endpoint(u_new, q_new), (v, p));
            }
        }
        // And the rebuilt graph equals a from-scratch construction.
        let mut edges: Vec<(NodeId, NodeId)> =
            g.edges().filter(|&e| e != (4, 5)).collect();
        edges.push((3, 7));
        edges.push((2, 8));
        assert_eq!(g2, &Graph::from_edges(9, &edges).unwrap());
    }

    #[test]
    fn dyn_graph_tracks_active_mask() {
        let mut d = DynGraph::new(cycle5());
        assert_eq!(d.active_count(), 5);
        let mut b = DeltaBatch::new();
        b.remove_node(1).add_nodes(1).insert_edge(0, 5);
        let applied = d.apply(&b).unwrap();
        assert_eq!(applied.removed, vec![1]);
        assert_eq!(d.n(), 6);
        assert_eq!(d.active_count(), 5);
        assert!(!d.is_active(1) && d.is_active(5));

        // Removing an inactive node again is a no-op, not an error.
        let mut b = DeltaBatch::new();
        b.remove_node(1);
        let applied = d.apply(&b).unwrap();
        assert!(applied.is_empty());
        assert_eq!(d.active_count(), 5);

        // Inserting at an inactive node is rejected.
        let mut b = DeltaBatch::new();
        b.insert_edge(1, 3);
        assert!(matches!(d.apply(&b), Err(DeltaError::InactiveEndpoint { node: 1, .. })));
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = cycle5();
        let mut d = DynGraph::new(g.clone());
        let applied = d.apply(&DeltaBatch::new()).unwrap();
        assert_eq!(d.graph(), &g);
        assert!(applied.is_empty());
        assert!(DeltaBatch::new().is_empty());
    }

    #[test]
    fn batches_during_a_build_survive_the_swap() {
        // On a 5-cycle every batch below passes the freeze threshold, so
        // each one freezes, and each freeze after the first waits for
        // the build before it and swaps it in. So the batch after a
        // freeze reads and rewrites through the frozen layer, and its
        // lists, a new node's included, must survive the swap.
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)];
        let expect = |edges: &[(NodeId, NodeId)]| Graph::from_edges(6, edges).unwrap();
        let mut d = DynGraph::new(cycle5());
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 2);
        d.apply(&b).unwrap();
        assert_eq!((d.overlay_len(), d.frozen_len()), (0, 6));
        assert_eq!(d.neighbors(0), [1, 2, 4]);
        // A clone taken during the build keeps the frozen layer's lists.
        let mut copy = d.clone();
        assert_eq!(copy, d);

        let mut b = DeltaBatch::new();
        b.delete_edge(2, 0).add_nodes(1).insert_edge(5, 1).insert_edge(5, 3).insert_edge(0, 3);
        let applied = d.apply(&b).unwrap();
        assert_eq!(applied.deleted, [(0, 2)], "the delete must see the frozen list");
        edges.extend([(1, 5), (3, 5), (0, 3)]);
        assert_eq!((d.overlay_len(), d.frozen_len() > 0), (0, true));
        assert_eq!(d.graph(), &expect(&edges));
        copy.apply(&b).unwrap();
        assert_eq!(copy, d);

        let mut b = DeltaBatch::new();
        b.insert_edge(4, 5);
        d.apply(&b).unwrap();
        edges.push((4, 5));
        assert_eq!(d.neighbors(5), [1, 3, 4]);
        assert_eq!(d.graph(), &expect(&edges));
        copy.apply(&b).unwrap();
        assert_eq!(copy, d);
    }

    #[test]
    fn delete_to_empty_and_isolated_nodes() {
        let mut d = DynGraph::new(Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap());
        let mut b = DeltaBatch::new();
        b.delete_edge(0, 1).delete_edge(1, 2).delete_edge(0, 2);
        let applied = d.apply(&b).unwrap();
        assert_eq!(d.m(), 0);
        assert_eq!(d.n(), 3);
        assert_eq!(applied.deleted.len(), 3);
        // And back up from nothing.
        let mut b = DeltaBatch::new();
        b.insert_edge(0, 1);
        d.apply(&b).unwrap();
        assert!(d.has_edge(0, 1));
        assert_eq!(d.degree(2), 0);
    }
}
