//! Sampling-based betweenness approximations (Section II of the paper):
//! the Brandes–Pich random-source estimator and the Bader et al. adaptive
//! sampler for high-centrality nodes.
//!
//! These are the centralized approximations the paper contrasts with its
//! exact distributed algorithm; they appear in the comparison experiment
//! E9 and as reference points in the examples.

use crate::betweenness::accumulate;
use crate::BrandesKernel;
use bc_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Brandes–Pich estimator: samples `k` sources uniformly with replacement
/// and extrapolates `C_B(v) ≈ (N / k) · Σ_{s ∈ S} δ_s·(v) / 2`.
///
/// With `k = Ω(log N / ε²)` samples the estimates are within `ε·N(N-1)/2`
/// of the truth with high probability (Brandes & Pich 2007).
///
/// # Panics
///
/// Panics if `samples == 0` or the graph is empty.
pub fn brandes_pich(g: &Graph, samples: usize, seed: u64) -> Vec<f64> {
    assert!(samples > 0, "need at least one sample");
    assert!(g.n() > 0, "empty graph");
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.n();
    let sources = (0..samples).map(|_| rng.gen_range(0..n) as NodeId);
    let mut acc = accumulate(g, sources, None);
    let scale = n as f64 / samples as f64 / 2.0;
    acc.iter_mut().for_each(|v| *v *= scale);
    acc
}

/// Result of [`bader_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEstimate {
    /// Estimated betweenness of the target node.
    pub estimate: f64,
    /// Sources actually sampled before the stopping rule fired.
    pub samples_used: usize,
}

/// Bader et al. adaptive sampling: estimates the betweenness of a single
/// node `v`, sampling sources until the accumulated dependency exceeds
/// `c · n`, then extrapolating. Effective for high-centrality nodes, which
/// stop early.
///
/// # Panics
///
/// Panics if the graph is empty or `v` is out of range.
pub fn bader_adaptive(g: &Graph, v: NodeId, c: f64, seed: u64) -> AdaptiveEstimate {
    let n = g.n();
    assert!(n > 0, "empty graph");
    assert!((v as usize) < n, "target node out of range");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut kernel = BrandesKernel::default();
    let mut total = 0.0f64;
    let mut k = 0usize;
    let max_samples = n.max(1);
    while k < max_samples {
        let s = rng.gen_range(0..n) as NodeId;
        k += 1;
        if s != v {
            total += kernel.dependencies(g, s, None)[v as usize];
        }
        if total >= c * n as f64 {
            break;
        }
    }
    AdaptiveEstimate {
        estimate: n as f64 * total / k as f64 / 2.0,
        samples_used: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betweenness_f64;
    use bc_graph::generators;

    #[test]
    fn brandes_pich_exact_when_sampling_everything() {
        // With samples == n and a path graph, sampling with replacement is
        // noisy, but the estimator is unbiased: averaging many runs must
        // approach the truth.
        let g = generators::path(10);
        let exact = betweenness_f64(&g);
        let runs = 400;
        let mut mean = vec![0.0; g.n()];
        for seed in 0..runs {
            for (m, e) in mean.iter_mut().zip(brandes_pich(&g, 10, seed)) {
                *m += e / runs as f64;
            }
        }
        for (v, (m, e)) in mean.iter().zip(&exact).enumerate() {
            assert!(
                (m - e).abs() <= 0.15 * (1.0 + e),
                "node {v}: mean {m} vs exact {e}"
            );
        }
    }

    #[test]
    fn brandes_pich_ranks_barbell_bridge_high() {
        let g = generators::barbell(6, 3);
        let est = brandes_pich(&g, g.n(), 7);
        let exact = betweenness_f64(&g);
        let top_est = (0..g.n())
            .max_by(|&a, &b| est[a].total_cmp(&est[b]))
            .unwrap();
        let top_exact = (0..g.n())
            .max_by(|&a, &b| exact[a].total_cmp(&exact[b]))
            .unwrap();
        // Bridge nodes 6..9 dominate; the estimator finds one of them.
        assert!((6..9).contains(&top_exact));
        assert!((5..10).contains(&top_est));
    }

    #[test]
    fn bader_stops_early_for_central_nodes() {
        let g = generators::star(60);
        let hub = bader_adaptive(&g, 0, 2.0, 1);
        let leaf = bader_adaptive(&g, 1, 2.0, 1);
        assert!(hub.samples_used < leaf.samples_used);
        let exact = betweenness_f64(&g);
        assert!((hub.estimate - exact[0]).abs() / exact[0] < 0.5);
        assert!(leaf.estimate <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let _ = brandes_pich(&generators::path(3), 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bader_bad_target_panics() {
        let _ = bader_adaptive(&generators::path(3), 9, 1.0, 0);
    }
}
