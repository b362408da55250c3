//! Compressed-sparse-row storage for undirected, unweighted, simple graphs —
//! the graph class the paper's algorithms operate on (Section III-B).

use std::fmt;

/// Node identifier. Nodes of an `N`-node graph are `0..N`, matching the
/// paper's `O(log N)`-bit unique identifiers.
pub type NodeId = u32;

/// Errors produced while constructing a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The number of nodes in the graph under construction.
        n: usize,
    },
    /// An edge connected a node to itself; the model's graphs are simple.
    SelfLoop {
        /// The node with the self-loop.
        node: NodeId,
    },
    /// Graph would exceed the `u32` node-id space.
    TooManyNodes {
        /// Requested node count.
        n: usize,
    },
    /// [`Graph::add_edge`] was asked to add an edge that already exists.
    DuplicateEdge {
        /// Lower endpoint.
        u: NodeId,
        /// Upper endpoint.
        v: NodeId,
    },
    /// [`Graph::remove_edge`] was asked to remove an edge that does not
    /// exist.
    MissingEdge {
        /// Lower endpoint.
        u: NodeId,
        /// Upper endpoint.
        v: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::TooManyNodes { n } => {
                write!(f, "node count {n} exceeds the u32 id space")
            }
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} already exists")
            }
            GraphError::MissingEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} does not exist")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected, unweighted, simple graph in CSR form.
///
/// # Examples
///
/// ```
/// use bc_graph::{Graph, GraphBuilder};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 3)?;
/// let g: Graph = b.build();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(0), &[1]);
/// # Ok::<(), bc_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Number of nodes `N`.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `M`.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Returns `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all nodes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n() as NodeId
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Builds a graph directly from an edge list over `n` nodes.
    ///
    /// Duplicate edges are merged; see [`GraphBuilder`] for incremental
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range endpoints or self-loops.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Validates that `{u, v}` is a well-formed potential edge of this
    /// graph (distinct, in-range endpoints).
    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w as usize >= self.n() {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    n: self.n(),
                });
            }
        }
        Ok(())
    }

    /// Returns a new graph with the undirected edge `{u, v}` added — the
    /// serving layer's edge-insert mutation. `self` is untouched
    /// (snapshots holding the old graph stay valid); the result preserves
    /// every CSR invariant: each adjacency list stays sorted and
    /// duplicate-free, degrees grow by exactly one at `u` and `v`, and
    /// the canonical [`Graph::edges`] order (hence any content hash over
    /// it) reflects exactly the one new edge. `O(N + M)` — one splice
    /// pass over the arrays.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeOutOfRange`] for
    /// malformed endpoints, [`GraphError::DuplicateEdge`] if the edge
    /// already exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use bc_graph::{Graph, GraphError};
    ///
    /// let g = Graph::from_edges(3, [(0, 1)])?;
    /// let g2 = g.add_edge(1, 2)?;
    /// assert_eq!(g.m(), 1); // original untouched
    /// assert_eq!(g2.m(), 2);
    /// assert!(g2.has_edge(1, 2));
    /// assert_eq!(g.add_edge(0, 1), Err(GraphError::DuplicateEdge { u: 0, v: 1 }));
    /// # Ok::<(), GraphError>(())
    /// ```
    pub fn add_edge(&self, u: NodeId, v: NodeId) -> Result<Graph, GraphError> {
        self.check_endpoints(u, v)?;
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge {
                u: u.min(v),
                v: u.max(v),
            });
        }
        Ok(self.splice(u, v, true))
    }

    /// Returns a new graph with the undirected edge `{u, v}` removed —
    /// the serving layer's edge-delete mutation. Same invariant story as
    /// [`Graph::add_edge`]; degrees shrink by exactly one at `u` and `v`.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeOutOfRange`] for
    /// malformed endpoints, [`GraphError::MissingEdge`] if the edge does
    /// not exist.
    ///
    /// # Examples
    ///
    /// ```
    /// use bc_graph::{Graph, GraphError};
    ///
    /// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
    /// let g2 = g.remove_edge(1, 0)?;
    /// assert_eq!(g2.m(), 1);
    /// assert!(!g2.has_edge(0, 1));
    /// assert_eq!(g2.remove_edge(0, 1), Err(GraphError::MissingEdge { u: 0, v: 1 }));
    /// # Ok::<(), GraphError>(())
    /// ```
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> Result<Graph, GraphError> {
        self.check_endpoints(u, v)?;
        if !self.has_edge(u, v) {
            return Err(GraphError::MissingEdge {
                u: u.min(v),
                v: u.max(v),
            });
        }
        Ok(self.splice(u, v, false))
    }

    /// Rebuilds the CSR arrays with `{u, v}` inserted (`insert`) or
    /// deleted, keeping each adjacency list sorted. Endpoints are already
    /// validated and the edge's (non-)existence already checked.
    fn splice(&self, u: NodeId, v: NodeId, insert: bool) -> Graph {
        let n = self.n();
        let delta: isize = if insert { 1 } else { -1 };
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors =
            Vec::with_capacity((self.neighbors.len() as isize + 2 * delta) as usize);
        offsets.push(0);
        for w in 0..n as NodeId {
            let adj = self.neighbors(w);
            let other = if w == u {
                Some(v)
            } else if w == v {
                Some(u)
            } else {
                None
            };
            match other {
                None => neighbors.extend_from_slice(adj),
                Some(o) if insert => {
                    let at = adj.partition_point(|&x| x < o);
                    neighbors.extend_from_slice(&adj[..at]);
                    neighbors.push(o);
                    neighbors.extend_from_slice(&adj[at..]);
                }
                Some(o) => {
                    neighbors.extend(adj.iter().copied().filter(|&x| x != o));
                }
            }
            offsets.push(neighbors.len());
        }
        Graph { offsets, neighbors }
    }
}

/// The reverse-port table of a [`Graph`], aligned with its CSR: for the
/// edge at `neighbors(v)[p]`, the port through which that neighbour
/// reaches `v` back, so `neighbors(neighbors(v)[p])[of(g, v)[p]] == v`.
///
/// A message engine needs this port for every message it routes. The
/// table answers in `O(1)` where a binary search of the target's list
/// costs `O(log deg)`. It is built on demand, once per engine, rather
/// than with the graph, so graph construction and the serving layer's
/// edge splices do not pay for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReversePorts(Vec<u32>);

impl ReversePorts {
    /// Builds the table in one `O(N + M)` pass: visiting sources in
    /// ascending order meets each node's neighbours in ascending order,
    /// which is their order in its sorted adjacency list, so a per-node
    /// cursor yields each reverse port in turn.
    pub fn new(g: &Graph) -> Self {
        let mut cursor = vec![0u32; g.n()];
        let mut rev = vec![0u32; g.neighbors.len()];
        for v in g.nodes() {
            for (slot, &w) in rev[g.offsets[v as usize]..].iter_mut().zip(g.neighbors(v)) {
                *slot = cursor[w as usize];
                cursor[w as usize] += 1;
            }
        }
        ReversePorts(rev)
    }

    /// The reverse ports of `v`'s edges, aligned with `g.neighbors(v)`;
    /// `g` must be the graph the table was built from.
    pub fn of<'a>(&'a self, g: &Graph, v: NodeId) -> &'a [u32] {
        let v = v as usize;
        &self.0[g.offsets[v]..g.offsets[v + 1]]
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

/// Incremental builder for [`Graph`]; accepts edges in any order and any
/// multiplicity (duplicates are merged), validating endpoints eagerly.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Starts building a graph on `n` isolated nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` id space.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "{}", GraphError::TooManyNodes { n });
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w as usize >= self.n {
                return Err(GraphError::NodeOutOfRange { node: w, n: self.n });
            }
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(self)
    }

    /// Finalizes into a CSR [`Graph`], merging duplicate edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; 2 * self.edges.len()];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each adjacency list is sorted because edges were sorted by (u, v)
        // and v-entries were appended in increasing u order; but entries for
        // node v coming from (u, v) pairs with u < v interleave with pairs
        // (v, w): sort each list to guarantee the invariant.
        for v in 0..self.n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = Graph::from_edges(5, []).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(6, [(5, 0), (3, 0), (0, 1), (4, 0), (0, 2)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Graph::from_edges(3, [(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
    }

    #[test]
    fn edges_iterator_canonical() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn error_display() {
        assert!(GraphError::SelfLoop { node: 7 }.to_string().contains('7'));
        assert!(GraphError::NodeOutOfRange { node: 9, n: 4 }
            .to_string()
            .contains("out of range"));
        assert!(GraphError::TooManyNodes { n: usize::MAX }
            .to_string()
            .contains("exceeds"));
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", triangle()), "Graph(n=3, m=3)");
    }

    /// Every structural invariant a mutated CSR must uphold.
    fn assert_csr_invariants(g: &Graph) {
        assert_eq!(g.offsets.len(), g.n() + 1);
        assert_eq!(g.offsets[0], 0);
        assert_eq!(*g.offsets.last().unwrap(), g.neighbors.len());
        assert_eq!(g.neighbors.len() % 2, 0);
        for v in g.nodes() {
            let adj = g.neighbors(v);
            assert!(adj.windows(2).all(|w| w[0] < w[1]), "node {v} adjacency");
            for &w in adj {
                assert!(g.has_edge(w, v), "asymmetric edge {{{v}, {w}}}");
            }
        }
    }

    #[test]
    fn add_edge_preserves_invariants_and_original() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let g2 = g.add_edge(4, 1).unwrap();
        assert_csr_invariants(&g2);
        assert_eq!(g2.m(), 4);
        assert_eq!(g2.degree(1), 3);
        assert_eq!(g2.degree(4), 2);
        assert_eq!(g2.neighbors(1), &[0, 2, 4]);
        assert!(g2.has_edge(1, 4) && g2.has_edge(4, 1));
        // The original is untouched (persistent mutation).
        assert_eq!(g.m(), 3);
        assert!(!g.has_edge(1, 4));
        // The mutated graph equals a from-scratch build of the same edge
        // set, so any content hash over `edges()` agrees too.
        let mut edges: Vec<_> = g.edges().collect();
        edges.push((1, 4));
        assert_eq!(g2, Graph::from_edges(5, edges).unwrap());
    }

    #[test]
    fn remove_edge_preserves_invariants_and_original() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)]).unwrap();
        let g2 = g.remove_edge(3, 0).unwrap();
        assert_csr_invariants(&g2);
        assert_eq!(g2.m(), 3);
        assert_eq!(g2.degree(0), 2);
        assert_eq!(g2.degree(3), 1);
        assert!(!g2.has_edge(0, 3));
        assert_eq!(g.m(), 4);
        let edges: Vec<_> = g.edges().filter(|&e| e != (0, 3)).collect();
        assert_eq!(g2, Graph::from_edges(4, edges).unwrap());
    }

    #[test]
    fn add_then_remove_round_trips() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert_eq!(g.add_edge(0, 3).unwrap().remove_edge(0, 3).unwrap(), g);
        assert_eq!(g.remove_edge(2, 3).unwrap().add_edge(3, 2).unwrap(), g);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let g = triangle();
        // Canonicalized endpoints in the error, whichever order was given.
        assert_eq!(
            g.add_edge(2, 0),
            Err(GraphError::DuplicateEdge { u: 0, v: 2 })
        );
        assert_eq!(
            g.add_edge(0, 2),
            Err(GraphError::DuplicateEdge { u: 0, v: 2 })
        );
    }

    #[test]
    fn missing_edge_rejected() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            g.remove_edge(3, 1),
            Err(GraphError::MissingEdge { u: 1, v: 3 })
        );
    }

    #[test]
    fn mutation_endpoint_validation() {
        let g = triangle();
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
        assert_eq!(g.remove_edge(2, 2), Err(GraphError::SelfLoop { node: 2 }));
        assert_eq!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
        assert_eq!(
            g.remove_edge(7, 0),
            Err(GraphError::NodeOutOfRange { node: 7, n: 3 })
        );
    }

    #[test]
    fn mutation_error_display() {
        assert!(GraphError::DuplicateEdge { u: 1, v: 2 }
            .to_string()
            .contains("already exists"));
        assert!(GraphError::MissingEdge { u: 1, v: 2 }
            .to_string()
            .contains("does not exist"));
    }

    #[test]
    fn builder_chaining() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        assert_eq!(b.n(), 4);
        let g = b.build();
        assert_eq!(g.m(), 2);
    }
}
