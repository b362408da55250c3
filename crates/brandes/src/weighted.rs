//! Weighted betweenness centrality (Dijkstra-based Brandes) — the
//! centralized oracle for the paper's future-work extension to weighted
//! graphs, and the subdivision cross-check.

use bc_graph::weighted::{WeightedGraph, WeightedSp};
use bc_graph::NodeId;

/// σ counts over a weighted shortest-path structure.
fn weighted_sigma(sp: &WeightedSp) -> Vec<f64> {
    let mut sigma = vec![0.0f64; sp.dist.len()];
    sigma[sp.source as usize] = 1.0;
    for &v in &sp.order {
        if v == sp.source {
            continue;
        }
        sigma[v as usize] = sp.preds[v as usize]
            .iter()
            .map(|&w| sigma[w as usize])
            .sum();
    }
    sigma
}

/// Brandes' algorithm on positive-integer-weighted graphs:
/// `O(NM + N² log N)` time (the weighted bound the paper quotes in
/// Section II). Unordered-pair convention, like the unweighted functions.
///
/// # Examples
///
/// ```
/// use bc_brandes::weighted::betweenness_weighted_f64;
/// use bc_graph::weighted::WeightedGraph;
///
/// // A weighted path 0 -2- 1 -3- 2: node 1 lies between 0 and 2.
/// let wg = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 2, 3)])?;
/// assert_eq!(betweenness_weighted_f64(&wg), vec![0.0, 1.0, 0.0]);
/// # Ok::<(), bc_graph::GraphError>(())
/// ```
pub fn betweenness_weighted_f64(wg: &WeightedGraph) -> Vec<f64> {
    let n = wg.n();
    let mut cb = vec![0.0f64; n];
    for s in 0..n as NodeId {
        let sp = wg.dijkstra(s);
        let sigma = weighted_sigma(&sp);
        let mut delta = vec![0.0f64; n];
        for &w in sp.order.iter().rev() {
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize];
            for &v in &sp.preds[w as usize] {
                delta[v as usize] += sigma[v as usize] * coeff;
            }
            if w != s {
                cb[w as usize] += delta[w as usize];
            }
        }
    }
    for v in &mut cb {
        *v /= 2.0;
    }
    cb
}

/// Weighted betweenness of the *original* nodes computed on the
/// subdivision: Brandes on the unit-edge graph restricted to real nodes as
/// sources and targets. Exact for integer weights; this is the centralized
/// version of what the distributed algorithm does with
/// `SourceSelection::Explicit` + a target mask.
pub fn betweenness_weighted_via_subdivision(wg: &WeightedGraph) -> Vec<f64> {
    let sub = wg.subdivide();
    let sources = 0..sub.original_n as NodeId;
    let mut cb = crate::betweenness::accumulate(&sub.graph, sources, Some(&sub.real));
    cb.truncate(sub.original_n);
    for v in &mut cb {
        *v /= 2.0;
    }
    cb
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::weighted::random_weighted;

    #[test]
    fn weighted_path_closed_form() {
        // Path with mixed weights: interior nodes still have i·(n-1-i).
        let wg =
            WeightedGraph::from_edges(5, [(0, 1, 3), (1, 2, 1), (2, 3, 7), (3, 4, 2)]).unwrap();
        let cb = betweenness_weighted_f64(&wg);
        assert_eq!(cb, vec![0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn weights_change_routing() {
        // Triangle where the heavy edge is bypassed through node 1.
        let wg = WeightedGraph::from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)]).unwrap();
        let cb = betweenness_weighted_f64(&wg);
        assert_eq!(cb, vec![0.0, 1.0, 0.0]);
        // With an equal-cost direct edge, node 1 only carries half.
        let wg = WeightedGraph::from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)]).unwrap();
        let cb = betweenness_weighted_f64(&wg);
        assert_eq!(cb, vec![0.0, 0.5, 0.0]);
    }

    #[test]
    fn unit_weights_match_unweighted_brandes() {
        let g = bc_graph::generators::erdos_renyi_connected(24, 0.12, 3);
        let wg = WeightedGraph::from_edges(24, g.edges().map(|(u, v)| (u, v, 1))).unwrap();
        let weighted = betweenness_weighted_f64(&wg);
        let unweighted = crate::betweenness_f64(&g);
        for (a, b) in weighted.iter().zip(&unweighted) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn subdivision_route_matches_dijkstra_brandes() {
        for seed in 0..4 {
            let wg = random_weighted(16, 0.15, 4, seed);
            let direct = betweenness_weighted_f64(&wg);
            let via_sub = betweenness_weighted_via_subdivision(&wg);
            for (v, (a, b)) in via_sub.iter().zip(&direct).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b),
                    "seed {seed} node {v}: {a} vs {b}"
                );
            }
        }
    }
}
