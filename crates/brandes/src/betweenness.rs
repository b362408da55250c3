//! Centralized betweenness centrality algorithms (Algorithm 1 of the paper
//! and reference variants).
//!
//! All functions use the paper's undirected convention: each unordered pair
//! `{s, t}` contributes once, i.e. the accumulated directed dependencies are
//! halved (the paper's Figure 1 computes `C_B(v2) = (Σ_s δ_s·(v2)) / 2 =
//! 7/2`).

use bc_graph::algo::{bfs, sigma_big, sigma_f64, UNREACHABLE};
use bc_graph::{Graph, NodeId};
use bc_numeric::{BigRational, BigUint, CeilFloat, FpParams};

/// Brandes' algorithm in `f64` arithmetic: `O(NM)` time, `O(N + M)` space
/// per source.
///
/// This is the exact Algorithm 1 of the paper: one BFS per source
/// (counting, Eq. 6), then dependency accumulation in non-increasing
/// distance order (Eq. 9).
///
/// # Examples
///
/// ```
/// use bc_brandes::betweenness_f64;
/// use bc_graph::generators;
///
/// // Figure 1 of the paper: C_B(v2) = 7/2.
/// let g = generators::paper_figure1();
/// let cb = betweenness_f64(&g);
/// assert_eq!(cb[1], 3.5);
/// ```
pub fn betweenness_f64(g: &Graph) -> Vec<f64> {
    let mut cb = accumulate(g, g.nodes(), None);
    for v in &mut cb {
        *v /= 2.0;
    }
    cb
}

/// `Σ_s δ_s·(w)` over `sources` in their order, skipping `w = s`: the
/// float schedule a caller replaying cached per-source vectors (the query
/// server) must reproduce.
pub(crate) fn accumulate(
    g: &Graph,
    sources: impl IntoIterator<Item = NodeId>,
    targets: Option<&[bool]>,
) -> Vec<f64> {
    let mut cb = vec![0.0f64; g.n()];
    let mut kernel = BrandesKernel::default();
    for s in sources {
        let delta = kernel.dependencies(g, s, targets);
        for (w, (c, d)) in cb.iter_mut().zip(delta).enumerate() {
            if w != s as usize {
                *c += d;
            }
        }
    }
    cb
}

/// Brandes' per-source pass in `f64`, keeping its buffers between
/// sources: once they have grown to the graph's size, a pass allocates
/// nothing.
///
/// No predecessor lists are built. The forward pass pushes σ along each
/// DAG edge as its tail is dequeued; the backward pass finds the
/// predecessors of `w` among its neighbours one level closer to the
/// source. On a simple graph each σ and δ therefore receives the same
/// additions in the same order as over the `preds` of
/// [`bc_graph::algo::bfs`], and the results are bit-identical.
#[derive(Debug, Default)]
pub struct BrandesKernel {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    /// Reached nodes in BFS order, which is also the queue.
    order: Vec<NodeId>,
    delta: Vec<f64>,
}

impl BrandesKernel {
    /// BFS from `s`, counting shortest paths (Eq. 6). Returns `d(s, ·)`,
    /// [`UNREACHABLE`] for nodes outside the source's component.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`.
    pub fn forward(&mut self, g: &Graph, s: NodeId) -> &[u32] {
        let n = g.n();
        assert!((s as usize) < n, "BFS source out of range");
        self.dist.clear();
        self.dist.resize(n, UNREACHABLE);
        self.sigma.clear();
        self.sigma.resize(n, 0.0);
        self.delta.clear();
        self.delta.resize(n, 0.0);
        self.order.clear();
        self.order.reserve(n);
        self.dist[s as usize] = 0;
        self.sigma[s as usize] = 1.0;
        self.order.push(s);
        let mut head = 0;
        while let Some(&v) = self.order.get(head) {
            head += 1;
            let (dv, sv) = (self.dist[v as usize], self.sigma[v as usize]);
            for &w in g.neighbors(v) {
                let dw = &mut self.dist[w as usize];
                if *dw == UNREACHABLE {
                    *dw = dv + 1;
                    self.order.push(w);
                }
                if *dw == dv + 1 {
                    self.sigma[w as usize] += sv;
                }
            }
        }
        &self.dist
    }

    /// Dependency vector `δ_s·(·)` (Eq. 9), zero outside the source's
    /// component. With `targets`, only nodes marked `true` count as path
    /// ends: the `1` of Eq. (9) becomes an indicator.
    ///
    /// # Panics
    ///
    /// Panics if `s >= g.n()`, or if `targets` is shorter than `g.n()`.
    pub fn dependencies(&mut self, g: &Graph, s: NodeId, targets: Option<&[bool]>) -> &[f64] {
        self.forward(g, s);
        for &w in self.order[1..].iter().rev() {
            let own = targets.map_or(1.0, |t| if t[w as usize] { 1.0 } else { 0.0 });
            let coeff = (own + self.delta[w as usize]) / self.sigma[w as usize];
            let up = self.dist[w as usize] - 1;
            for &v in g.neighbors(w) {
                if self.dist[v as usize] == up {
                    self.delta[v as usize] += self.sigma[v as usize] * coeff;
                }
            }
        }
        &self.delta
    }
}

/// Brandes' algorithm in exact rational arithmetic: ground truth for the
/// floating-point error experiments (E4). Exponentially slower constants
/// than [`betweenness_f64`]; intended for graphs up to a few hundred nodes.
///
/// ```
/// use bc_brandes::betweenness_exact;
/// use bc_graph::generators;
/// use bc_numeric::BigRational;
///
/// let exact = betweenness_exact(&generators::paper_figure1());
/// assert_eq!(exact[1], BigRational::from_ratio_u64(7, 2));
/// ```
pub fn betweenness_exact(g: &Graph) -> Vec<BigRational> {
    let n = g.n();
    let mut cb = vec![BigRational::zero(); n];
    for s in g.nodes() {
        let dag = bfs(g, s);
        let sigma: Vec<BigUint> = sigma_big(&dag);
        let mut delta = vec![BigRational::zero(); n];
        for &w in dag.order.iter().rev() {
            let coeff = &(&BigRational::one() + &delta[w as usize])
                / &BigRational::from_biguint(sigma[w as usize].clone());
            for &v in &dag.preds[w as usize] {
                let term = &BigRational::from_biguint(sigma[v as usize].clone()) * &coeff;
                delta[v as usize] += &term;
            }
            if w != s {
                let d = delta[w as usize].clone();
                cb[w as usize] += &d;
            }
        }
    }
    let half = BigRational::from_ratio_u64(1, 2);
    cb.iter().map(|v| v * &half).collect()
}

/// Brandes' algorithm with every σ and ψ value carried in the paper's
/// [`CeilFloat`] arithmetic (Section VI), including the ψ-rewriting of
/// Eq. (14): `ψ_s(v) = Σ_{w: v ∈ P_s(w)} (1/σ_sw + ψ_s(w))`, with the final
/// `δ_s·(v) = ψ_s(v) · σ_sv`.
///
/// This isolates the *arithmetic* error of the distributed algorithm from
/// its *distribution*, and is the oracle the distributed implementation is
/// compared against bit-for-bit.
pub fn betweenness_ceilfloat(g: &Graph, params: FpParams) -> Vec<f64> {
    let n = g.n();
    let mut cb = vec![0.0f64; n];
    for s in g.nodes() {
        let dag = bfs(g, s);
        // σ in CeilFloat, accumulated exactly as the counting phase does:
        // sums of already-rounded predecessor values.
        let mut sigma = vec![CeilFloat::zero(params); n];
        sigma[s as usize] = CeilFloat::one(params);
        for &v in &dag.order {
            if v == s {
                continue;
            }
            let mut acc = CeilFloat::zero(params);
            for &w in &dag.preds[v as usize] {
                acc += sigma[w as usize];
            }
            sigma[v as usize] = acc;
        }
        // ψ accumulation in reverse order (Eq. 14).
        let mut psi = vec![CeilFloat::zero(params); n];
        for &w in dag.order.iter().rev() {
            if w == s {
                continue;
            }
            let contribution = sigma[w as usize].recip() + psi[w as usize];
            for &v in &dag.preds[w as usize] {
                psi[v as usize] += contribution;
            }
            // δ_s·(w) = ψ_s(w) · σ_sw (Section VI-C).
            cb[w as usize] += (psi[w as usize] * sigma[w as usize]).to_f64();
        }
    }
    for v in &mut cb {
        *v /= 2.0;
    }
    cb
}

/// Naive all-pairs betweenness: for every pair `(s, t)` and middle node
/// `v`, `σ_st(v) = σ_sv · σ_vt` when `d(s,v) + d(v,t) = d(s,t)`.
/// `Θ(N³)` time and `Θ(N²)` space — an independent oracle with different
/// failure modes from Brandes' recursion (in the spirit of the pre-Brandes
/// algorithms the paper cites as `O(N³)`).
///
/// ```
/// use bc_brandes::{betweenness_f64, betweenness_naive};
/// use bc_graph::generators;
///
/// let g = generators::grid(3, 4);
/// let (a, b) = (betweenness_naive(&g), betweenness_f64(&g));
/// assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9));
/// ```
pub fn betweenness_naive(g: &Graph) -> Vec<f64> {
    let n = g.n();
    let dags: Vec<_> = g.nodes().map(|s| bfs(g, s)).collect();
    let sigmas: Vec<Vec<f64>> = dags.iter().map(sigma_f64).collect();
    let mut cb = vec![0.0f64; n];
    for s in 0..n {
        for t in 0..n {
            if s == t || dags[s].dist[t] == bc_graph::algo::UNREACHABLE {
                continue;
            }
            let dst = dags[s].dist[t];
            let sigma_st = sigmas[s][t];
            for v in 0..n {
                if v == s || v == t {
                    continue;
                }
                let (dsv, dvt) = (dags[s].dist[v], dags[v].dist[t]);
                if dsv != bc_graph::algo::UNREACHABLE
                    && dvt != bc_graph::algo::UNREACHABLE
                    && dsv + dvt == dst
                {
                    cb[v] += sigmas[s][v] * sigmas[v][t] / sigma_st;
                }
            }
        }
    }
    // Ordered pairs were counted; halve for the undirected convention.
    for v in &mut cb {
        *v /= 2.0;
    }
    cb
}

/// Per-source dependency vector `δ_s·(v)` for all `v` (Eq. 8–9), in `f64`.
/// Exposed for the sampling approximations and for tests of per-source
/// quantities like the worked example of Figure 1.
///
/// ```
/// use bc_brandes::dependencies_from;
/// use bc_graph::generators;
///
/// // Section VII worked value: δ_v1·(v2) = 3.
/// let dep = dependencies_from(&generators::paper_figure1(), 0);
/// assert_eq!(dep[1], 3.0);
/// ```
pub fn dependencies_from(g: &Graph, s: NodeId) -> Vec<f64> {
    BrandesKernel::default().dependencies(g, s, None).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::generators;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "index {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn figure1_values() {
        let g = generators::paper_figure1();
        let cb = betweenness_f64(&g);
        // Paper: C_B(v2) = 7/2. By symmetry of the example graph the other
        // nodes: v1 is a leaf → 0; v3 = v5 by symmetry; v4 sits between
        // v3/v5 pairs.
        assert_eq!(cb[0], 0.0);
        assert_eq!(cb[1], 3.5);
        assert_eq!(cb[2], cb[4]);
        // δ_{v1·}(v2) = 3 per the worked example.
        let dep = dependencies_from(&g, 0);
        assert_eq!(dep[1], 3.0);
        // ψ_{v1}(v3) = ψ_{v1}(v5) = 1/2 ⇒ δ_{v1·}(v3) = ψ·σ = 1/2.
        assert_eq!(dep[2], 0.5);
        assert_eq!(dep[4], 0.5);
    }

    #[test]
    fn path_graph_closed_form() {
        // On a path of n nodes, CB(v_i) = i·(n-1-i) for 0-indexed i.
        let n = 12;
        let g = generators::path(n);
        let cb = betweenness_f64(&g);
        for (i, &b) in cb.iter().enumerate() {
            assert_eq!(b, (i * (n - 1 - i)) as f64, "node {i}");
        }
    }

    #[test]
    fn star_graph_closed_form() {
        let n = 9;
        let g = generators::star(n);
        let cb = betweenness_f64(&g);
        assert_eq!(cb[0], ((n - 1) * (n - 2) / 2) as f64);
        for &leaf in &cb[1..] {
            assert_eq!(leaf, 0.0);
        }
    }

    #[test]
    fn complete_graph_zero() {
        let cb = betweenness_f64(&generators::complete(7));
        assert!(cb.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cycle_graph_uniform() {
        // Even cycle n: every node has the same BC by symmetry.
        let cb = betweenness_f64(&generators::cycle(8));
        for v in &cb {
            assert!((v - cb[0]).abs() < 1e-12);
        }
        assert!(cb[0] > 0.0);
    }

    #[test]
    fn naive_matches_brandes() {
        for seed in 0..4 {
            let g = generators::erdos_renyi_connected(24, 0.12, seed);
            assert_close(&betweenness_naive(&g), &betweenness_f64(&g), 1e-9);
        }
    }

    #[test]
    fn exact_matches_f64_on_small_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_connected(18, 0.15, seed);
            let exact: Vec<f64> = betweenness_exact(&g).iter().map(|v| v.to_f64()).collect();
            assert_close(&exact, &betweenness_f64(&g), 1e-9);
        }
    }

    #[test]
    fn exact_figure1() {
        let g = generators::paper_figure1();
        let exact = betweenness_exact(&g);
        assert_eq!(exact[1], BigRational::from_ratio_u64(7, 2));
    }

    #[test]
    fn ceilfloat_within_theorem1_bound() {
        let g = generators::erdos_renyi_connected(30, 0.12, 5);
        let params = FpParams::for_graph_size(g.n());
        let approx = betweenness_ceilfloat(&g, params);
        let exact = betweenness_f64(&g);
        // Theorem 1: relative error O(η) with η = O(2^-L); allow the
        // diameter-length accumulation constant.
        let eta = 64.0 * g.n() as f64 * params.lemma1_bound();
        for (v, (a, e)) in approx.iter().zip(&exact).enumerate() {
            if *e > 0.0 {
                assert!((a - e).abs() / e <= eta, "node {v}: {a} vs {e}");
            } else {
                assert!(*a <= eta, "node {v}: expected ~0, got {a}");
            }
        }
    }

    #[test]
    fn ceilfloat_error_shrinks_with_l() {
        let g = generators::barabasi_albert(40, 2, 3);
        let exact = betweenness_f64(&g);
        let err = |l: u32| {
            let approx = betweenness_ceilfloat(&g, FpParams::new(l, bc_numeric::Rounding::Ceil));
            approx
                .iter()
                .zip(&exact)
                .filter(|(_, e)| **e > 1.0)
                .map(|(a, e)| (a - e).abs() / e)
                .fold(0.0f64, f64::max)
        };
        let coarse = err(6);
        let fine = err(20);
        assert!(
            fine < coarse / 16.0,
            "error must fall ~2^-L: L=6 → {coarse}, L=20 → {fine}"
        );
    }

    #[test]
    fn disconnected_graph_per_component() {
        // Two disjoint paths of 3: middles have BC 1 each.
        let g = bc_graph::Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let cb = betweenness_f64(&g);
        assert_eq!(cb, vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
        let naive = betweenness_naive(&g);
        assert_eq!(naive, cb);
    }

    #[test]
    fn barbell_bridge_dominates() {
        let g = generators::barbell(5, 3);
        let cb = betweenness_f64(&g);
        // Middle bridge node (index 6 = 5 + 1) has the highest centrality.
        let max_idx = (0..g.n()).max_by(|&a, &b| cb[a].total_cmp(&cb[b])).unwrap();
        assert_eq!(max_idx, 6);
    }

    #[test]
    fn single_node_and_edge() {
        assert_eq!(betweenness_f64(&generators::path(1)), vec![0.0]);
        assert_eq!(betweenness_f64(&generators::path(2)), vec![0.0, 0.0]);
    }
}
