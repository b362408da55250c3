//! Bit identity of the predecessor-free Brandes kernel against the
//! formulation it replaced, which walks the predecessor lists of
//! `bc_graph::algo::bfs`. The reference below is that code, kept only
//! here.
//!
//! Graphs of a few dozen nodes keep every σ exact, so they cannot tell two
//! orders of summation apart. The layered graph's σ values exceed 2^53,
//! where `f64` addition stops being associative: a kernel that summed σ
//! or δ in another order fails there.

use bc_brandes::weighted::betweenness_weighted_via_subdivision;
use bc_brandes::{betweenness_f64, dependencies_from};
use bc_graph::algo::{bfs, sigma_f64};
use bc_graph::weighted::WeightedGraph;
use bc_graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One source's pass over `bfs`'s predecessor lists: returns `δ_s·(·)`
/// and adds `δ_s·(w)` into `cb` for every reached `w ≠ s`. With
/// `targets`, only marked nodes count as path ends.
fn reference_pass(g: &Graph, s: NodeId, targets: Option<&[bool]>, cb: &mut [f64]) -> Vec<f64> {
    let dag = bfs(g, s);
    let sigma = sigma_f64(&dag);
    let mut delta = vec![0.0f64; g.n()];
    for &w in dag.order.iter().rev() {
        let own = targets.map_or(1.0, |t| if t[w as usize] { 1.0 } else { 0.0 });
        let coeff = (own + delta[w as usize]) / sigma[w as usize];
        for &v in &dag.preds[w as usize] {
            delta[v as usize] += sigma[v as usize] * coeff;
        }
        if w != s {
            cb[w as usize] += delta[w as usize];
        }
    }
    delta
}

/// Halved sum of the reference passes from sources `0..sources`.
fn reference_betweenness(g: &Graph, sources: usize, targets: Option<&[bool]>) -> Vec<f64> {
    let mut cb = vec![0.0f64; g.n()];
    for s in 0..sources as NodeId {
        reference_pass(g, s, targets, &mut cb);
    }
    for v in &mut cb {
        *v /= 2.0;
    }
    cb
}

fn reference_subdivision(wg: &WeightedGraph) -> Vec<f64> {
    let sub = wg.subdivide();
    let mut cb = reference_betweenness(&sub.graph, sub.original_n, Some(&sub.real));
    cb.truncate(sub.original_n);
    cb
}

fn assert_bits_eq(what: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}, node {v}: {x} vs {y}");
    }
}

/// Every f64 entry point that runs the kernel, against the reference.
fn assert_kernel_matches_reference(g: &Graph, weight_seed: u64) {
    assert_bits_eq(
        "betweenness_f64",
        &betweenness_f64(g),
        &reference_betweenness(g, g.n(), None),
    );
    let mut ignored_cb = vec![0.0; g.n()];
    for s in g.nodes() {
        let expect = reference_pass(g, s, None, &mut ignored_cb);
        assert_bits_eq(&format!("source {s}"), &dependencies_from(g, s), &expect);
    }
    let mut rng = SmallRng::seed_from_u64(weight_seed);
    let wg = WeightedGraph::from_edges(g.n(), g.edges().map(|(u, v)| (u, v, rng.gen_range(1..=3))))
        .expect("edges of a simple graph");
    assert_bits_eq(
        "subdivision",
        &betweenness_weighted_via_subdivision(&wg),
        &reference_subdivision(&wg),
    );
}

/// Random sparse graphs; few edges leave them disconnected.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>(), 0usize..80).prop_map(|(n, seed, extra)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..extra {
            let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
            if u != v {
                b.add_edge(u, v).expect("valid");
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_is_bit_identical_to_predecessor_lists(g in arb_graph(40), seed in any::<u64>()) {
        assert_kernel_matches_reference(&g, seed);
    }
}

/// `layers` layers of `width` nodes; each node is joined to every node of
/// the next layer with probability 1/2, and to at least one.
fn layered(layers: usize, width: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(layers * width);
    let id = |layer: usize, i: usize| (layer * width + i) as NodeId;
    for layer in 1..layers {
        for i in 0..width {
            let mut joined = false;
            for j in 0..width {
                if rng.gen_bool(0.5) {
                    b.add_edge(id(layer - 1, j), id(layer, i)).expect("valid");
                    joined = true;
                }
            }
            if !joined {
                let j = rng.gen_range(0..width);
                b.add_edge(id(layer - 1, j), id(layer, i)).expect("valid");
            }
        }
    }
    b.build()
}

#[test]
fn kernel_is_bit_identical_where_sigma_is_inexact() {
    let g = layered(40, 8, 2016);
    let max_sigma = sigma_f64(&bfs(&g, 0)).into_iter().fold(0.0, f64::max);
    assert!(max_sigma > 2f64.powi(53), "σ peaks at {max_sigma}");
    assert_kernel_matches_reference(&g, 7);
}
