//! Centralized graph algorithms used as references and building blocks:
//! BFS shortest-path DAGs (Eqs. (5)–(6) of the paper), connectivity,
//! eccentricities and diameter.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// The single-source shortest-path structure rooted at `source`:
/// BFS distances, a traversal order by non-decreasing distance, and the
/// predecessor sets `P_s(v)` of Eq. (5).
#[derive(Debug, Clone)]
pub struct ShortestPathDag {
    /// The BFS source `s`.
    pub source: NodeId,
    /// `dist[v] = d(s, v)`, or [`UNREACHABLE`].
    pub dist: Vec<u32>,
    /// Reachable nodes in non-decreasing distance order (starts with `s`).
    pub order: Vec<NodeId>,
    /// `preds[v] = P_s(v)`: neighbors `w` with `d(s,v) = d(s,w) + 1`.
    pub preds: Vec<Vec<NodeId>>,
}

impl ShortestPathDag {
    /// Number of nodes reachable from the source (including it).
    pub fn reachable(&self) -> usize {
        self.order.len()
    }

    /// Eccentricity of the source within its component.
    pub fn eccentricity(&self) -> u32 {
        self.order
            .last()
            .map(|&v| self.dist[v as usize])
            .unwrap_or(0)
    }
}

/// Runs BFS from `source`, producing the shortest-path DAG.
///
/// The DAG is materialized, one predecessor list per reached node, for
/// the oracles that walk it: the exact-rational and `CeilFloat` Brandes
/// passes, naive and stress centrality, and the experiments. The hot
/// `f64` paths (`betweenness_f64`, per-source dependencies, distance-only
/// centralities, the query server's recompute) run the allocation-free
/// `bc_brandes::BrandesKernel` instead.
///
/// # Panics
///
/// Panics if `source >= g.n()`.
///
/// # Examples
///
/// ```
/// use bc_graph::{algo::bfs, generators};
///
/// let g = generators::path(5);
/// let dag = bfs(&g, 0);
/// assert_eq!(dag.dist[4], 4);
/// assert_eq!(dag.preds[2], vec![1]);
/// ```
pub fn bfs(g: &Graph, source: NodeId) -> ShortestPathDag {
    assert!((source as usize) < g.n(), "BFS source out of range");
    let n = g.n();
    let mut dist = vec![UNREACHABLE; n];
    let mut preds = vec![Vec::new(); n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
            if dist[w as usize] == dv + 1 {
                preds[w as usize].push(v);
            }
        }
    }
    ShortestPathDag {
        source,
        dist,
        order,
        preds,
    }
}

/// Shortest-path counts `σ_sv` as `f64` (Eq. (6)), computed over a DAG from
/// [`bfs`]. Unreachable nodes have count `0`.
///
/// ```
/// use bc_graph::{algo, Graph};
/// // A diamond: two shortest paths from 0 to 3.
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// let sigma = algo::sigma_f64(&algo::bfs(&g, 0));
/// assert_eq!(sigma[3], 2.0);
/// # Ok::<(), bc_graph::GraphError>(())
/// ```
pub fn sigma_f64(dag: &ShortestPathDag) -> Vec<f64> {
    let mut sigma = vec![0.0f64; dag.dist.len()];
    sigma[dag.source as usize] = 1.0;
    for &v in &dag.order {
        if v == dag.source {
            continue;
        }
        sigma[v as usize] = dag.preds[v as usize]
            .iter()
            .map(|&w| sigma[w as usize])
            .sum();
    }
    sigma
}

/// Shortest-path counts `σ_sv` as exact big integers. These can be
/// exponential in `N` — the paper's "Large Value Challenge".
pub fn sigma_big(dag: &ShortestPathDag) -> Vec<bc_numeric::BigUint> {
    use bc_numeric::BigUint;
    let mut sigma = vec![BigUint::zero(); dag.dist.len()];
    sigma[dag.source as usize] = BigUint::one();
    for &v in &dag.order {
        if v == dag.source {
            continue;
        }
        sigma[v as usize] = dag.preds[v as usize]
            .iter()
            .map(|&w| sigma[w as usize].clone())
            .sum();
    }
    sigma
}

/// Returns the connected component id of every node (ids are `0..k` in
/// first-seen order) and the number of components `k`.
///
/// ```
/// use bc_graph::{algo, Graph};
/// let g = Graph::from_edges(4, [(0, 1), (2, 3)])?;
/// let (comp, k) = algo::connected_components(&g);
/// assert_eq!(k, 2);
/// assert_eq!(comp[0], comp[1]);
/// assert_ne!(comp[0], comp[2]);
/// # Ok::<(), bc_graph::GraphError>(())
/// ```
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut comp = vec![u32::MAX; n];
    let mut k = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = k;
        queue.push_back(s as NodeId);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = k;
                    queue.push_back(w);
                }
            }
        }
        k += 1;
    }
    (comp, k as usize)
}

/// Returns `true` if the graph is connected (the vacuous empty graph and
/// singletons count as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).1 == 1
}

/// Extracts the largest connected component as a new graph plus the mapping
/// from new ids to original ids.
pub fn largest_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let (comp, k) = connected_components(g);
    if k <= 1 {
        return (g.clone(), g.nodes().collect());
    }
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    let mut old_to_new = vec![u32::MAX; g.n()];
    let mut new_to_old = Vec::new();
    for v in g.nodes() {
        if comp[v as usize] == best {
            old_to_new[v as usize] = new_to_old.len() as u32;
            new_to_old.push(v);
        }
    }
    let edges = g.edges().filter_map(|(u, v)| {
        let (nu, nv) = (old_to_new[u as usize], old_to_new[v as usize]);
        (nu != u32::MAX && nv != u32::MAX).then_some((nu, nv))
    });
    let sub = Graph::from_edges(new_to_old.len(), edges).expect("component edges valid");
    (sub, new_to_old)
}

/// Eccentricity of every node (max distance within its component), by one
/// BFS per node.
pub fn eccentricities(g: &Graph) -> Vec<u32> {
    g.nodes().map(|v| bfs(g, v).eccentricity()).collect()
}

/// Exact diameter (max eccentricity over the graph).
///
/// For disconnected graphs this is the maximum *within-component* distance,
/// matching what the distributed algorithms can observe.
///
/// ```
/// use bc_graph::{algo, generators};
/// assert_eq!(algo::diameter(&generators::cycle(10)), 5);
/// ```
pub fn diameter(g: &Graph) -> u32 {
    eccentricities(g).into_iter().max().unwrap_or(0)
}

/// All-pairs distance matrix (row per source); `dist[s][v]` may be
/// [`UNREACHABLE`]. Quadratic memory: intended for tests and small
/// experiments.
pub fn apsp(g: &Graph) -> Vec<Vec<u32>> {
    g.nodes().map(|s| bfs(g, s).dist).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(6);
        let dag = bfs(&g, 0);
        assert_eq!(dag.dist, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(dag.order.len(), 6);
        assert_eq!(dag.eccentricity(), 5);
        let sig = sigma_f64(&dag);
        assert!(sig.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn bfs_counts_diamond() {
        // 0-1, 0-2, 1-3, 2-3: two shortest paths 0→3.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let dag = bfs(&g, 0);
        let sig = sigma_f64(&dag);
        assert_eq!(sig[3], 2.0);
        assert_eq!(dag.preds[3], vec![1, 2]);
        let big = sigma_big(&dag);
        assert_eq!(big[3].to_u64(), Some(2));
    }

    #[test]
    fn bfs_exponential_sigma_big() {
        // Chain of k diamonds: sigma doubles at each, 2^k paths total.
        let k = 80;
        let mut edges = Vec::new();
        // nodes: 3k+1; diamond i: a=3i, b=3i+1, c=3i+2, d=3i+3
        for i in 0..k {
            let a = 3 * i;
            edges.push((a, a + 1));
            edges.push((a, a + 2));
            edges.push((a + 1, a + 3));
            edges.push((a + 2, a + 3));
        }
        let g = Graph::from_edges(3 * k as usize + 1, edges).unwrap();
        let dag = bfs(&g, 0);
        let sig = sigma_big(&dag);
        assert_eq!(sig[3 * k as usize], bc_numeric::BigUint::from(2u64).pow(k));
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let dag = bfs(&g, 0);
        assert_eq!(dag.dist[2], UNREACHABLE);
        assert_eq!(dag.reachable(), 2);
        assert_eq!(sigma_f64(&dag)[3], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_bad_source() {
        let _ = bfs(&generators::path(3), 5);
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
        assert!(!is_connected(&g));
        assert!(is_connected(&generators::cycle(5)));
        assert!(is_connected(&Graph::from_edges(0, []).unwrap()));
        assert!(is_connected(&Graph::from_edges(1, []).unwrap()));
    }

    #[test]
    fn largest_component_extraction() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]).unwrap();
        let (sub, map) = largest_component(&g);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        // Connected graph returns itself.
        let c = generators::cycle(4);
        let (sub2, map2) = largest_component(&c);
        assert_eq!(sub2, c);
        assert_eq!(map2, vec![0, 1, 2, 3]);
    }

    #[test]
    fn diameter_values() {
        assert_eq!(diameter(&generators::path(10)), 9);
        assert_eq!(diameter(&generators::cycle(10)), 5);
        assert_eq!(diameter(&generators::complete(10)), 1);
        assert_eq!(diameter(&generators::star(10)), 2);
        assert_eq!(diameter(&Graph::from_edges(1, []).unwrap()), 0);
    }

    #[test]
    fn eccentricities_path() {
        let e = eccentricities(&generators::path(5));
        assert_eq!(e, vec![4, 3, 2, 3, 4]);
    }

    #[test]
    fn apsp_symmetric() {
        let g = generators::grid(3, 4);
        let d = apsp(&g);
        for (u, row) in d.iter().enumerate() {
            for (v, &val) in row.iter().enumerate() {
                assert_eq!(val, d[v][u]);
            }
            assert_eq!(row[u], 0);
        }
    }
}
