//! Token-pipelined all-pairs shortest paths — a DFS-free APSP in the
//! spirit of the pipelines in the paper's related work (Lenzen–Peleg
//! source detection, ref. \[7\]; Holzer's thesis, ref. \[15\]).
//!
//! Every node is a source and starts simultaneously. Each round, every
//! node broadcasts the lexicographically smallest `(distance, source)`
//! pair it knows and has not yet announced at that value. Unlike the
//! carefully staged variants in the literature (which is precisely why
//! the paper stages its counting phase with a DFS token!), simultaneous
//! greedy pipelining can deliver a *longer* path's token first under
//! congestion — an effect this implementation observed in practice — so a
//! node re-announces when a shorter distance later arrives
//! (Bellman–Ford-style relaxation). Distances still converge to exact
//! values, the execution stays CONGEST-compliant, and the measured round
//! counts remain ≈ `N + D` on every family we run (experiment E14), but
//! the tight `d + k` worst-case bound of ref. \[7\] is *not* claimed.
//!
//! This computes *distances only* (closeness, eccentricity, diameter —
//! the "easy" centralities of the paper's introduction). It does not
//! produce the simultaneous-arrival σ sums or the `T_s` schedule that
//! Algorithms 2–3 need, which is exactly why the paper bases betweenness
//! on the DFS-pipelined variant: this module makes that design choice
//! measurable.

use crate::codec::Codec;
use bc_congest::{Budget, Config, CongestError, Enforcement, Message, Network, Protocol, RoundCtx};
use bc_graph::{algo, Graph, NodeId};
use bc_numeric::bits::BitWriter;
use bc_numeric::FpParams;
use std::collections::BTreeSet;

/// Per-node state of the pipelined APSP protocol.
#[derive(Debug)]
pub struct ApspPipelineNode {
    id_w: u32,
    dist_w: u32,
    /// `dist[s]` = best known distance to source `s`.
    dist: Vec<Option<u32>>,
    /// Pairs `(distance, source)` known but not yet broadcast.
    pending: BTreeSet<(u32, u32)>,
}

impl ApspPipelineNode {
    /// Creates the initial state for one node of an `n`-node network.
    pub fn new(n: usize, me: NodeId) -> Self {
        let codec = Codec::new(n, FpParams::for_graph_size(n));
        let mut dist = vec![None; n];
        dist[me as usize] = Some(0);
        let mut pending = BTreeSet::new();
        pending.insert((0, me));
        ApspPipelineNode {
            id_w: codec.id_w,
            dist_w: codec.dist_w,
            dist,
            pending,
        }
    }

    /// Distances learned (`d(s, self)` per source).
    pub fn distances(&self) -> &[Option<u32>] {
        &self.dist
    }

    fn encode(&self, dist: u32, source: u32) -> Message {
        let mut w = BitWriter::new();
        w.push(dist as u64, self.dist_w);
        w.push(source as u64, self.id_w);
        Message::new(w.finish())
    }
}

impl Protocol for ApspPipelineNode {
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
        for (_, raw) in inbox {
            let mut r = raw.payload().reader();
            let dist = r.read(self.dist_w) as u32 + 1;
            let source = r.read(self.id_w) as u32;
            let known = &mut self.dist[source as usize];
            let improved = match known {
                Some(d) => dist < *d,
                None => true,
            };
            if improved {
                // Relaxation: withdraw any stale pending announcement and
                // (re-)announce the better distance.
                if let Some(old) = *known {
                    self.pending.remove(&(old, source));
                }
                *known = Some(dist);
                self.pending.insert((dist, source));
            }
        }
        // Broadcast the smallest unsent (distance, source) pair.
        if let Some(&(dist, source)) = self.pending.iter().next() {
            self.pending.remove(&(dist, source));
            let msg = self.encode(dist, source);
            ctx.broadcast(&msg);
        }
    }

    fn is_halted(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Result of [`run_apsp_pipeline`].
#[derive(Debug, Clone)]
pub struct ApspPipelineResult {
    /// Closeness centralities (Eq. 1), from the learned distances.
    pub closeness: Vec<f64>,
    /// Eccentricity of every node.
    pub eccentricity: Vec<u32>,
    /// The diameter.
    pub diameter: u32,
    /// Rounds until quiescence.
    pub rounds: u64,
    /// Engine metrics (CONGEST-compliance, traffic).
    pub metrics: bc_congest::NetMetrics,
}

/// Runs the token-pipelined APSP on `g` and derives the distance-based
/// centralities. Measured cost is ≈ `N + D` rounds on every graph family
/// in the test suite (the worst case of the re-announcing variant is
/// higher; see the module docs); the protocol self-terminates when no
/// token or relaxation remains in flight.
///
/// # Errors
///
/// [`CongestError`] under strict enforcement (a protocol bug) or if the
/// graph is disconnected/empty (reported as a round-limit error by the
/// engine is avoided by an explicit connectivity check).
pub fn run_apsp_pipeline(g: &Graph) -> Result<ApspPipelineResult, CongestError> {
    assert!(g.n() > 0, "empty graph");
    assert!(
        algo::is_connected(g),
        "the pipelined APSP assumes a connected network"
    );
    let n = g.n();
    let cfg = Config {
        budget: Budget::Auto,
        enforcement: Enforcement::Strict,
        ..Config::default()
    };
    let mut net = Network::new(g, cfg, |v, _| ApspPipelineNode::new(n, v));
    let report = net.run(16 * n as u64 + 64)?;
    let metrics = net.metrics().clone();
    let nodes = net.into_nodes();
    let mut closeness = Vec::with_capacity(n);
    let mut eccentricity = Vec::with_capacity(n);
    for nd in &nodes {
        let mut total = 0u64;
        let mut ecc = 0u32;
        for d in nd.distances().iter().flatten() {
            total += *d as u64;
            ecc = ecc.max(*d);
        }
        closeness.push(if total == 0 { 0.0 } else { 1.0 / total as f64 });
        eccentricity.push(ecc);
    }
    let diameter = eccentricity.iter().copied().max().unwrap_or(0);
    Ok(ApspPipelineResult {
        closeness,
        eccentricity,
        diameter,
        rounds: report.rounds,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::generators;

    fn check(g: &Graph) {
        let out = run_apsp_pipeline(g).expect("runs");
        assert!(out.metrics.congest_compliant());
        let oracle = algo::apsp(g);
        let ecc = algo::eccentricities(g);
        for (v, (mine, truth)) in out.eccentricity.iter().zip(&ecc).enumerate() {
            assert_eq!(mine, truth, "ecc of {v}");
        }
        assert_eq!(out.diameter, algo::diameter(g));
        // Cross-check the distance sums via closeness.
        for (row, closeness) in oracle.iter().zip(&out.closeness) {
            let total: u64 = row.iter().map(|&d| d as u64).sum();
            if total > 0 {
                assert!((closeness - 1.0 / total as f64).abs() < 1e-12);
            }
        }
        // Measured rounds stay ≈ N + D with a small constant on these
        // families (the re-announcing variant has no tight worst-case
        // guarantee; this documents observed behaviour).
        assert!(
            out.rounds <= 3 * g.n() as u64 + algo::diameter(g) as u64 + 8,
            "rounds {} too high for n={}",
            out.rounds,
            g.n()
        );
    }

    #[test]
    fn matches_oracle_on_families() {
        check(&generators::path(20));
        check(&generators::cycle(17));
        check(&generators::star(16));
        check(&generators::grid(4, 5));
        check(&generators::complete(8));
        check(&generators::barbell(5, 3));
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..8 {
            check(&generators::erdos_renyi_connected(40, 0.08, seed));
            check(&generators::barabasi_albert(40, 2, seed));
            check(&generators::random_tree(32, seed));
        }
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []).unwrap();
        let out = run_apsp_pipeline(&g).unwrap();
        assert_eq!(out.diameter, 0);
        assert_eq!(out.closeness, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_rejected() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let _ = run_apsp_pipeline(&g);
    }

    #[test]
    fn faster_than_the_full_protocol_for_distances() {
        // Distance-only questions don't need the DFS token or the
        // aggregation phase: the pipeline answers them in ≈ N + D rounds
        // vs ≈ 6 N for the full betweenness run.
        let g = generators::erdos_renyi_connected(64, 0.07, 3);
        let apsp = run_apsp_pipeline(&g).unwrap();
        let full = crate::run_distributed_bc(&g, crate::DistBcConfig::default()).unwrap();
        assert!(apsp.rounds * 4 < full.rounds);
        assert_eq!(apsp.diameter, full.diameter);
        for (a, b) in apsp.closeness.iter().zip(&full.closeness) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
