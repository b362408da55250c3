//! The recompute engines behind the query server: what runs when a
//! snapshot must be (re)built.
//!
//! Two engines exist because the bit-identity contract ("the server
//! answers exactly what the offline CLI prints") constrains them
//! differently:
//!
//! * [`IncrementalEngine`] serves `--algorithm brandes`.
//!   [`bc_brandes::betweenness_f64`] is an *ascending-source fold* of
//!   per-source dependency vectors, so the engine recomputes only the
//!   sources a mutation affects (Erdős-style pruning via two BFS
//!   passes in the pre-mutation graph), replays every unaffected
//!   source's vector from an LRU cache, and folds all `n` vectors in
//!   ascending order — bit-identical to a from-scratch run by
//!   construction, because the fold performs the same float additions
//!   in the same order on the same values. Every BFS and per-source
//!   pass runs on a [`BrandesKernel`], the one `betweenness_f64` uses;
//!   the engine keeps one across sources, so a recomputed source
//!   allocates only the vector it stores in the cache.
//! * [`FullRecompute`] wraps any closure producing scores from a graph
//!   (the distributed driver, in-process or over a `--connect` shard
//!   mesh, or sampling). Those protocols accumulate across sources in
//!   schedule-dependent order and are not per-source-decomposable at
//!   the bit level, so a mutation triggers a full background rerun —
//!   still bit-identical to the CLI, which does the same full run.
//!
//! # Which sources does a mutation affect?
//!
//! For an undirected, unweighted graph and an edge `{u, v}`:
//!
//! * **Insert:** source `s` is unaffected iff `d(s,u) = d(s,v)` in the
//!   old graph. An equal-level edge can never lie on a shortest path
//!   from `s`, and BFS discovery order is also unchanged (the new
//!   neighbor is already visited when scanned), so the whole
//!   shortest-path DAG — hence the dependency vector — is unchanged.
//! * **Delete:** source `s` is unaffected iff `|d(s,u) − d(s,v)| ≠ 1`
//!   in the old graph. BFS levels of adjacent nodes differ by at most
//!   one, so a removed edge either was a DAG edge for `s` (levels
//!   differ by exactly 1 → affected) or an equal-level edge (→ the DAG
//!   never used it).
//!
//! Both conditions need only two BFS passes (from `u` and from `v`;
//! `d(s,u) = d(u,s)` by symmetry), not one per source.

use crate::cache::SourceCache;
use bc_brandes::BrandesKernel;
use bc_graph::{Graph, GraphError, NodeId};
use std::fmt;
use std::sync::Arc;

/// A graph mutation accepted by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the undirected edge `{u, v}`.
    AddEdge(NodeId, NodeId),
    /// Remove the undirected edge `{u, v}`.
    RemoveEdge(NodeId, NodeId),
}

impl Mutation {
    /// Applies the mutation to `g`, returning the successor graph.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] (duplicate edge, missing edge, self
    /// loop, out-of-range endpoint).
    pub fn apply(self, g: &Graph) -> Result<Graph, GraphError> {
        match self {
            Mutation::AddEdge(u, v) => g.add_edge(u, v),
            Mutation::RemoveEdge(u, v) => g.remove_edge(u, v),
        }
    }

    /// The edge endpoints.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        match self {
            Mutation::AddEdge(u, v) | Mutation::RemoveEdge(u, v) => (u, v),
        }
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::AddEdge(u, v) => write!(f, "add-edge {u}:{v}"),
            Mutation::RemoveEdge(u, v) => write!(f, "remove-edge {u}:{v}"),
        }
    }
}

/// Number of connected components of `g` (used to reject mutations
/// that would disconnect a served graph).
pub fn component_count(g: &Graph) -> usize {
    let n = g.n();
    let mut seen = vec![false; n];
    let mut stack = Vec::new();
    let mut components = 0;
    for root in 0..n {
        if seen[root] {
            continue;
        }
        components += 1;
        seen[root] = true;
        stack.push(root as NodeId);
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
    }
    components
}

/// The sources whose dependency vectors a mutation invalidates,
/// evaluated in the *pre-mutation* graph (see the module docs for the
/// two-BFS conditions).
pub fn affected_sources(old: &Graph, m: Mutation) -> Vec<u32> {
    let (u, v) = m.endpoints();
    let mut kernel = BrandesKernel::default();
    let du = kernel.forward(old, u).to_vec();
    let dv = kernel.forward(old, v);
    let insert = matches!(m, Mutation::AddEdge(..));
    (0..old.n() as u32)
        .filter(|&s| {
            let (a, b) = (du[s as usize], dv[s as usize]);
            if insert {
                a != b
            } else {
                a.abs_diff(b) == 1
            }
        })
        .collect()
}

/// Incremental Brandes engine: owns the current graph and the source
/// cache, and rebuilds the score vector after each mutation by folding
/// per-source dependency vectors in ascending source order — the exact
/// float schedule of [`bc_brandes::betweenness_f64`].
#[derive(Debug)]
pub struct IncrementalEngine {
    graph: Graph,
    cache: SourceCache,
    kernel: BrandesKernel,
    /// Sources recomputed by the last `recompute` call (telemetry).
    last_recomputed: usize,
}

impl IncrementalEngine {
    /// Creates the engine over `graph` with an LRU of `cache_capacity`
    /// per-source vectors (each `n` floats; pass `graph.n()` to cache
    /// everything).
    pub fn new(graph: Graph, cache_capacity: usize) -> IncrementalEngine {
        IncrementalEngine {
            graph,
            cache: SourceCache::new(cache_capacity),
            kernel: BrandesKernel::default(),
            last_recomputed: 0,
        }
    }

    /// The engine's current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Computes the full score vector for the current graph, warming
    /// the cache. Bit-identical to `betweenness_f64(graph)`.
    pub fn scores(&mut self) -> Vec<f64> {
        self.fold()
    }

    /// Applies `m` and returns the new scores, recomputing only the
    /// affected sources and replaying the rest from cache.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] without touching engine state.
    pub fn apply(&mut self, m: Mutation) -> Result<Vec<f64>, GraphError> {
        let next = m.apply(&self.graph)?;
        let affected = affected_sources(&self.graph, m);
        self.cache.invalidate(affected);
        self.graph = next;
        Ok(self.fold())
    }

    /// Folds all `n` per-source dependency vectors in ascending source
    /// order and halves — the accumulation schedule of
    /// [`bc_brandes::betweenness_f64`], reproduced addition-for-addition
    /// so the result is bit-identical whether a vector came from the
    /// cache or a fresh BFS.
    fn fold(&mut self) -> Vec<f64> {
        let n = self.graph.n();
        let mut cb = vec![0.0f64; n];
        let mut recomputed = 0usize;
        for s in 0..n as u32 {
            let dep = match self.cache.get(s) {
                Some(dep) => dep,
                None => {
                    recomputed += 1;
                    let dep = Arc::new(self.kernel.dependencies(&self.graph, s, None).to_vec());
                    self.cache.put(s, Arc::clone(&dep));
                    dep
                }
            };
            for (w, d) in dep.iter().enumerate() {
                if w as u32 != s {
                    cb[w] += d;
                }
            }
        }
        for v in &mut cb {
            *v /= 2.0;
        }
        self.last_recomputed = recomputed;
        cb
    }

    /// Sources recomputed (cache misses) during the last fold.
    pub fn last_recomputed(&self) -> usize {
        self.last_recomputed
    }

    /// Drains the cache's `(hits, misses)` counters.
    pub fn take_cache_stats(&mut self) -> (u64, u64) {
        self.cache.take_stats()
    }
}

/// Scores produced by a full (non-incremental) engine run, with the
/// run metadata the snapshot records.
#[derive(Debug, Clone)]
pub struct FullRunOutput {
    /// Betweenness per node.
    pub scores: Vec<f64>,
    /// Sources used by the run.
    pub sample_size: usize,
    /// Rounds the run took (0 for non-round-based engines).
    pub rounds: u64,
}

/// A full-recompute engine: any closure from graph to scores. Used for
/// the driver modes (distributed, sampled, `--connect`), whose
/// accumulation order is not per-source-decomposable at the bit level.
pub type FullRecompute = Box<dyn FnMut(&Graph) -> Result<FullRunOutput, String> + Send>;

/// The server's recompute strategy.
pub enum RecomputeEngine {
    /// Pruned incremental Brandes (serves `--algorithm brandes`).
    Incremental(IncrementalEngine),
    /// Full rerun of an arbitrary engine on every mutation.
    Full {
        /// Current graph (the engine closure is stateless).
        graph: Graph,
        /// The engine closure.
        run: FullRecompute,
    },
}

impl fmt::Debug for RecomputeEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecomputeEngine::Incremental(e) => f.debug_tuple("Incremental").field(e).finish(),
            RecomputeEngine::Full { graph, .. } => f
                .debug_struct("Full")
                .field("n", &graph.n())
                .field("m", &graph.m())
                .finish(),
        }
    }
}

impl RecomputeEngine {
    /// The engine's current graph.
    pub fn graph(&self) -> &Graph {
        match self {
            RecomputeEngine::Incremental(e) => e.graph(),
            RecomputeEngine::Full { graph, .. } => graph,
        }
    }

    /// Initial compute (cold start).
    ///
    /// # Errors
    ///
    /// Full engines propagate their runtime errors as strings.
    pub fn initial(&mut self) -> Result<FullRunOutput, String> {
        match self {
            RecomputeEngine::Incremental(e) => {
                let scores = e.scores();
                let n = e.graph().n();
                Ok(FullRunOutput {
                    scores,
                    sample_size: n,
                    rounds: 0,
                })
            }
            RecomputeEngine::Full { graph, run } => run(graph),
        }
    }

    /// Applies a mutation and recomputes.
    ///
    /// # Errors
    ///
    /// Graph errors (duplicate/missing edge, bad endpoints) are
    /// reported as strings without touching engine state; full engines
    /// also propagate runtime errors.
    pub fn apply(&mut self, m: Mutation) -> Result<FullRunOutput, String> {
        match self {
            RecomputeEngine::Incremental(e) => {
                let scores = e.apply(m).map_err(|e| e.to_string())?;
                let n = e.graph().n();
                Ok(FullRunOutput {
                    scores,
                    sample_size: n,
                    rounds: 0,
                })
            }
            RecomputeEngine::Full { graph, run } => {
                let next = m.apply(graph).map_err(|e| e.to_string())?;
                let out = run(&next)?;
                *graph = next;
                Ok(out)
            }
        }
    }

    /// Drains cache `(hits, misses)` counters (zero for full engines).
    pub fn take_cache_stats(&mut self) -> (u64, u64) {
        match self {
            RecomputeEngine::Incremental(e) => e.take_cache_stats(),
            RecomputeEngine::Full { .. } => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_brandes::{betweenness_f64, dependencies_from};
    use bc_graph::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "node {i}: {x} vs {y}");
        }
    }

    #[test]
    fn affected_sources_insert_equal_level_edge() {
        // Cycle 0-1-2-3-0: adding chord {1, 3} — from source 0 both ends
        // sit at level 1, and from source 2 both sit at level 1, so only
        // sources 1 and 3 are affected.
        let g = generators::cycle(4);
        let aff = affected_sources(&g, Mutation::AddEdge(1, 3));
        assert_eq!(aff, vec![1, 3]);
    }

    #[test]
    fn affected_sources_delete_dag_edge() {
        // Path 0-1-2: every source uses every edge, so removing {0, 1}
        // affects all sources.
        let g = generators::path(3);
        let aff = affected_sources(&g, Mutation::RemoveEdge(0, 1));
        assert_eq!(aff, vec![0, 1, 2]);
    }

    #[test]
    fn unaffected_sources_have_bit_identical_vectors() {
        // The pruning condition's soundness, checked directly: for every
        // candidate edge insertion, the dependency vectors of sources the
        // filter calls unaffected must be bit-identical before and after.
        let g = generators::erdos_renyi_connected(24, 0.12, 7);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..20 {
            let (u, v) = (
                rng.gen_range(0..g.n() as u32),
                rng.gen_range(0..g.n() as u32),
            );
            if u == v || g.has_edge(u, v) {
                continue;
            }
            let m = Mutation::AddEdge(u, v);
            let affected = affected_sources(&g, m);
            let next = m.apply(&g).unwrap();
            for s in 0..g.n() as u32 {
                if affected.contains(&s) {
                    continue;
                }
                assert_bits_eq(&dependencies_from(&g, s), &dependencies_from(&next, s));
            }
        }
    }

    #[test]
    fn incremental_matches_scratch_bitwise_over_mutation_sequences() {
        // The acceptance-criteria property: incremental == from-scratch,
        // bit for bit, across thousands of random mutations (a small
        // cache forces the replay-from-recompute path too).
        let mut rng = SmallRng::seed_from_u64(1);
        for trial in 0..8 {
            let n = 16 + trial * 4;
            let g = generators::erdos_renyi_connected(n, 0.15, trial as u64);
            // Cache sized below n on odd trials: misses must not change bits.
            let cap = if trial % 2 == 0 { n } else { n / 3 };
            let mut engine = IncrementalEngine::new(g.clone(), cap);
            assert_bits_eq(&engine.scores(), &betweenness_f64(&g));
            let mut applied = 0;
            while applied < 300 {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if u == v {
                    continue;
                }
                let m = if engine.graph().has_edge(u, v) {
                    Mutation::RemoveEdge(u, v)
                } else {
                    Mutation::AddEdge(u, v)
                };
                match engine.apply(m) {
                    Ok(scores) => {
                        assert_bits_eq(&scores, &betweenness_f64(engine.graph()));
                        applied += 1;
                    }
                    Err(e) => panic!("mutation {m} rejected: {e}"),
                }
            }
        }
    }

    #[test]
    fn incremental_prunes_most_sources_on_local_edits() {
        // On a long cycle, a chord insertion must not recompute all n
        // sources — the point of the filter.
        let g = generators::cycle(64);
        let mut engine = IncrementalEngine::new(g, 64);
        let _ = engine.scores();
        assert_eq!(engine.last_recomputed(), 64);
        let _ = engine.apply(Mutation::AddEdge(0, 2)).unwrap();
        assert!(
            engine.last_recomputed() < 64,
            "recomputed {} of 64 sources",
            engine.last_recomputed()
        );
    }

    #[test]
    fn graph_errors_leave_engine_state_untouched() {
        let g = generators::path(4);
        let mut engine = IncrementalEngine::new(g.clone(), 4);
        let before = engine.scores();
        assert!(engine.apply(Mutation::AddEdge(0, 1)).is_err()); // duplicate
        assert!(engine.apply(Mutation::RemoveEdge(0, 2)).is_err()); // missing
        assert!(engine.apply(Mutation::AddEdge(1, 1)).is_err()); // self loop
        assert!(engine.apply(Mutation::AddEdge(0, 99)).is_err()); // range
        assert_bits_eq(&engine.scores(), &before);
        assert_eq!(engine.graph().m(), 3);
    }

    #[test]
    fn component_count_tracks_bridges() {
        let g = generators::path(5);
        assert_eq!(component_count(&g), 1);
        let cut = g.remove_edge(2, 3).unwrap();
        assert_eq!(component_count(&cut), 2);
    }

    #[test]
    fn full_engine_reruns_closure() {
        let g = generators::path(4);
        let mut engine = RecomputeEngine::Full {
            graph: g,
            run: Box::new(|g| {
                Ok(FullRunOutput {
                    scores: betweenness_f64(g),
                    sample_size: g.n(),
                    rounds: 7,
                })
            }),
        };
        let first = engine.initial().unwrap();
        assert_eq!(first.rounds, 7);
        let out = engine.apply(Mutation::AddEdge(0, 3)).unwrap();
        assert_bits_eq(&out.scores, &betweenness_f64(engine.graph()));
        assert!(engine.apply(Mutation::AddEdge(0, 3)).is_err());
        assert_eq!(engine.graph().m(), 4, "failed mutation must not commit");
    }
}
