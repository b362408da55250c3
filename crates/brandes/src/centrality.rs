//! The other shortest-path centralities of the paper's Section I:
//! closeness (Eq. 1), graph centrality (Eq. 2), and stress centrality
//! (Eq. 3).

use crate::BrandesKernel;
use bc_graph::algo::{bfs, sigma_f64, UNREACHABLE};
use bc_graph::Graph;

/// Closeness centrality `C_C(v) = 1 / Σ_t d(v, t)` (Eq. 1).
///
/// Distances to unreachable nodes are skipped; a node with no reachable
/// peers gets centrality `0`.
///
/// ```
/// use bc_brandes::closeness_centrality;
/// use bc_graph::generators;
///
/// let cc = closeness_centrality(&generators::star(5));
/// assert_eq!(cc[0], 1.0 / 4.0); // hub: distance 1 to each leaf
/// ```
pub fn closeness_centrality(g: &Graph) -> Vec<f64> {
    inverse_per_node(g, |dist| reachable(dist).map(u64::from).sum())
}

/// Graph centrality `C_G(v) = 1 / max_t d(v, t)` (Eq. 2), over reachable
/// `t`; isolated nodes get `0`.
pub fn graph_centrality(g: &Graph) -> Vec<f64> {
    inverse_per_node(g, |dist| reachable(dist).max().map_or(0, u64::from))
}

/// `1 / f(d(v, ·))` for every node `v`, or `0` where `f` is `0`.
fn inverse_per_node(g: &Graph, f: impl Fn(&[u32]) -> u64) -> Vec<f64> {
    let mut kernel = BrandesKernel::default();
    g.nodes()
        .map(|v| match f(kernel.forward(g, v)) {
            0 => 0.0,
            x => 1.0 / x as f64,
        })
        .collect()
}

fn reachable(dist: &[u32]) -> impl Iterator<Item = u32> + '_ {
    dist.iter().copied().filter(|&d| d != UNREACHABLE)
}

/// Stress centrality `C_S(v) = Σ_{s≠t≠v} σ_st(v)` (Eq. 3), counting each
/// unordered pair once (consistent with the betweenness convention).
///
/// ```
/// use bc_brandes::stress_centrality;
/// use bc_graph::generators;
///
/// // On a path every pair contributes exactly one path.
/// let cs = stress_centrality(&generators::path(4));
/// assert_eq!(cs, vec![0.0, 2.0, 2.0, 0.0]);
/// ```
///
/// Uses the pairwise formulation `σ_st(v) = σ_sv · σ_vt` when
/// `d(s,v) + d(v,t) = d(s,t)`; `Θ(N³)` time, intended for the experiment
/// scales of this workspace.
pub fn stress_centrality(g: &Graph) -> Vec<f64> {
    let n = g.n();
    let dags: Vec<_> = g.nodes().map(|s| bfs(g, s)).collect();
    let sigmas: Vec<Vec<f64>> = dags.iter().map(sigma_f64).collect();
    let mut cs = vec![0.0f64; n];
    for s in 0..n {
        for t in (s + 1)..n {
            if dags[s].dist[t] == UNREACHABLE {
                continue;
            }
            let dst = dags[s].dist[t];
            for v in 0..n {
                if v == s || v == t {
                    continue;
                }
                let (dsv, dvt) = (dags[s].dist[v], dags[v].dist[t]);
                if dsv != UNREACHABLE && dvt != UNREACHABLE && dsv + dvt == dst {
                    cs[v] += sigmas[s][v] * sigmas[v][t];
                }
            }
        }
    }
    cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::generators;

    #[test]
    fn closeness_on_path() {
        let g = generators::path(5);
        let cc = closeness_centrality(&g);
        // Center: distances 2+1+1+2 = 6; end: 1+2+3+4 = 10.
        assert_eq!(cc[2], 1.0 / 6.0);
        assert_eq!(cc[0], 1.0 / 10.0);
        assert!(cc[2] > cc[1] && cc[1] > cc[0]);
    }

    #[test]
    fn closeness_star_hub_max() {
        let cc = closeness_centrality(&generators::star(8));
        assert_eq!(cc[0], 1.0 / 7.0);
        for &leaf in &cc[1..8] {
            assert_eq!(leaf, 1.0 / (1 + 2 * 6) as f64);
        }
    }

    #[test]
    fn graph_centrality_path() {
        let cg = graph_centrality(&generators::path(5));
        assert_eq!(cg[2], 0.5); // eccentricity 2
        assert_eq!(cg[0], 0.25); // eccentricity 4
    }

    #[test]
    fn stress_path_matches_bc() {
        // On trees σ_st ∈ {0,1}, so stress equals (unnormalized) BC.
        let g = generators::path(7);
        let cs = stress_centrality(&g);
        let cb = crate::betweenness_f64(&g);
        assert_eq!(cs, cb);
    }

    #[test]
    fn stress_counts_multiplicity() {
        // Diamond 0-1, 0-2, 1-3, 2-3 plus tail 3-4:
        // pair (0,4): d=3, two shortest paths, both via 3: σ_04(3)=2.
        let g = bc_graph::Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let cs = stress_centrality(&g);
        // Node 3: pairs (0,4): 2 paths; (1,4): 1; (2,4): 1; (1,2): one of
        // the two shortest 1-3-2 → 1. Total 5.
        assert_eq!(cs[3], 5.0);
        // Node 1: pairs (0,3): σ=1 of 2 paths → counts 1; (0,4): via 1 then 3 → 1.
        assert_eq!(cs[1], 2.0);
    }

    #[test]
    fn isolated_nodes_zero() {
        let g = bc_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(closeness_centrality(&g)[2], 0.0);
        assert_eq!(graph_centrality(&g)[2], 0.0);
        assert_eq!(stress_centrality(&g)[2], 0.0);
    }

    #[test]
    fn complete_graph_uniform() {
        let g = generators::complete(6);
        let cc = closeness_centrality(&g);
        assert!(cc.iter().all(|&c| c == 1.0 / 5.0));
        let cg = graph_centrality(&g);
        assert!(cg.iter().all(|&c| c == 1.0));
        let cs = stress_centrality(&g);
        assert!(cs.iter().all(|&c| c == 0.0));
    }
}
