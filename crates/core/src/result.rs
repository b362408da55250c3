//! The harvest side of a distributed execution: per-node summaries, the
//! canonical result assembly shared by every engine, and the public
//! [`DistBcResult`].
//!
//! This boundary exists so that *where* a run executed (in-process
//! serial/parallel, α-synchronizer, or remote shards over sockets) is
//! independent of *how* its observables become a result: all engines
//! produce identical [`NodeSummary`] streams and flow through
//! [`assemble_result`]'s single float pipeline, which is what makes
//! bit-identity across engines provable — and what lets the serving
//! layer ([`crate::snapshot`]) version results without caring which
//! engine produced them.

use crate::driver::DistBcConfig;
use crate::node::{AggInfo, DistBcNode};
use crate::sampling::{Estimator, SourceSelection};
use crate::schedule::PhaseSchedule;
use crate::transport::TransportStats;
use bc_congest::{NetMetrics, PhaseStat};
use bc_numeric::FpParams;

/// Results of a distributed execution.
#[derive(Debug, Clone)]
pub struct DistBcResult {
    /// Betweenness centrality of every node (paper convention: each
    /// unordered pair counted once).
    pub betweenness: Vec<f64>,
    /// Closeness centrality (Eq. 1) — a free by-product: every node knows
    /// all its distances after the counting phase.
    pub closeness: Vec<f64>,
    /// Graph centrality (Eq. 2), likewise free.
    pub graph_centrality: Vec<f64>,
    /// Network diameter as computed and broadcast by the protocol.
    pub diameter: u32,
    /// Total rounds until every node halted — the paper's complexity
    /// measure (Theorem 3: `O(N)`).
    pub rounds: u64,
    /// The run's phase windows: depth-aware, or N-only where the tree is
    /// too deep ([`PhaseSchedule::for_graph`]).
    pub schedule: PhaseSchedule,
    /// Engine metrics: messages, bits, max message size, collisions (must
    /// be 0), cut flow.
    pub metrics: NetMetrics,
    /// Stress centralities (Eq. 3) when
    /// [`crate::DistBcConfig::compute_stress`] was set.
    pub stress: Option<Vec<f64>>,
    /// Number of BFS sources used (`N` for the exact algorithm).
    pub sample_size: usize,
    /// `max_s T_s − min_s T_s`: the spread of wave start times, which
    /// (plus `D`) is the aggregation phase's true length.
    pub ts_spread: u64,
    /// Round (relative to the counting start) at which the DFS token
    /// returned to the root — the counting phase's true length.
    pub counting_rounds_used: u64,
    /// Floating-point parameters used on the wire.
    pub fp: FpParams,
    /// Per-phase traffic breakdown (A tree build, B counting, C
    /// reduce/broadcast, D aggregation), sliced from the engine's
    /// per-round timelines at the run's phase windows.
    pub phase_stats: Vec<PhaseStat>,
    /// Total protocol-state bytes across all nodes at the end of the run
    /// (per-source arrays only grow, so this is also the peak).
    pub state_bytes_total: u64,
    /// Largest single-node protocol-state footprint in bytes.
    pub state_bytes_peak: u64,
}

/// The per-node observables the result assembly needs, decoupled from the
/// node state itself so the socket leader can collect them from remote
/// shards and still run the byte-identical float pipeline of
/// [`assemble_result`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeSummary {
    /// The node's accumulated betweenness value.
    pub betweenness: f64,
    /// Raw directed dependency sum `Σ_{s∈S} δ̂_s(v)` (unscaled).
    pub delta_all: f64,
    /// Raw in-sample-target dependency sum (0.0 unless Ji–Yan ran).
    pub delta_in: f64,
    /// Integer sum of all (known) distances from sources to this node.
    pub dist_total: u64,
    /// Max distance seen (eccentricity over the source set).
    pub ecc: u32,
    /// Stress centrality (0.0 when not computed).
    pub stress: f64,
    /// Protocol-state footprint of the node, in bytes.
    pub state_bytes: u64,
}

/// The root-only observables (node 0 drives the schedule and holds the
/// globally reduced aggregation parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RootSummary {
    /// Number of BFS sources actually used.
    pub source_count: usize,
    /// The globally agreed `(base, min T_s, max T_s, D)`.
    pub agg: AggInfo,
    /// Round the DFS token returned to the root (pipelined modes).
    pub dfs_done_round: Option<u64>,
}

/// Extracts a [`NodeSummary`] from a finished node. The distance fold is
/// pure integer arithmetic, so summarizing on a remote shard and shipping
/// the summary is bit-exact with summarizing locally.
pub(crate) fn summarize_node(nd: &DistBcNode) -> NodeSummary {
    let (dist_total, ecc) = nd.distance_stats();
    NodeSummary {
        betweenness: nd.betweenness(),
        delta_all: nd.delta_all(),
        delta_in: nd.delta_in(),
        dist_total,
        ecc,
        stress: nd.stress().unwrap_or(0.0),
        state_bytes: nd.state_bytes(),
    }
}

/// Extracts the [`RootSummary`] from node 0 of a completed run.
///
/// # Panics
///
/// Panics if the node never received the aggregation broadcast — i.e. the
/// run did not actually complete.
pub(crate) fn summarize_root(nd: &DistBcNode) -> RootSummary {
    RootSummary {
        source_count: nd.source_count(),
        agg: nd.agg_info().expect("run completed"),
        dfs_done_round: nd.dfs_done_round(),
    }
}

/// The run's four phase windows, `(name, start, end)`, as every view
/// (phase stats, profile rows) slices them.
pub(crate) fn phase_windows(sched: &PhaseSchedule, rounds: u64) -> Vec<(String, u64, u64)> {
    [
        ("A:tree", 0, sched.counting_start),
        ("B:counting", sched.counting_start, sched.reduce_start),
        ("C:reduce+bcast", sched.reduce_start, sched.agg_start),
        ("D:aggregation", sched.agg_start, rounds),
    ]
    .map(|(name, start, end)| (name.to_string(), start, end))
    .into()
}

/// A run's harvest, in global node order.
pub(crate) struct Harvest {
    pub rounds: u64,
    pub metrics: NetMetrics,
    /// Repair counts of the reliable transport (zero without it).
    pub transport: TransportStats,
    pub summaries: Vec<NodeSummary>,
    pub root: RootSummary,
}

/// Derives the [`DistBcResult`] of a run with windows `sched` and float
/// format `fp` from its harvest — the single shared path for the
/// in-process engines and the socket leader, so both produce
/// bit-identical floats from identical summaries.
pub(crate) fn assemble_result(
    config: &DistBcConfig,
    sched: PhaseSchedule,
    fp: FpParams,
    harvest: Harvest,
) -> DistBcResult {
    let Harvest {
        rounds,
        mut metrics,
        transport,
        summaries,
        root,
    } = harvest;
    metrics.messages_retransmitted = transport.retransmits;
    metrics.messages_deduped = transport.deduped;
    let (n, sources) = (summaries.len(), &config.sources);
    let sample_size = root.source_count;
    let refined =
        config.estimator == Estimator::JiYan && matches!(sources, SourceSelection::Sample { .. });
    let betweenness: Vec<f64> = if refined {
        // Ji–Yan (arXiv:1608.04472): pairs with both endpoints in `S` are
        // counted exactly (`δ_in/2` — each unordered in-sample pair was
        // seen from both directions), mixed pairs exactly once
        // (`δ_all − δ_in`), and only the unobserved out-out pairs are
        // extrapolated from the mixed sum by `(N−k−1)/(2k)`. At `k = N`
        // the mixed sum is exactly 0.0 and the estimate is exact.
        let k = sample_size as f64;
        let out_factor = 1.0 + (n as f64 - k - 1.0) / (2.0 * k);
        summaries
            .iter()
            .map(|s| s.delta_in / 2.0 + (s.delta_all - s.delta_in) * out_factor)
            .collect()
    } else {
        summaries.iter().map(|s| s.betweenness).collect()
    };
    // With sampling, extrapolate the distance sum by N/k (the eccentricity
    // view stays a max over the sample); explicit masks are restricted
    // sums, not estimates.
    let dist_scale = match sources {
        SourceSelection::Sample { .. } => n as f64 / sample_size as f64,
        _ => 1.0,
    };
    let mut closeness = Vec::with_capacity(n);
    let mut graph_centrality = Vec::with_capacity(n);
    for s in &summaries {
        closeness.push(if s.dist_total == 0 {
            0.0
        } else {
            1.0 / (s.dist_total as f64 * dist_scale)
        });
        graph_centrality.push(if s.ecc == 0 { 0.0 } else { 1.0 / s.ecc as f64 });
    }
    let stress = config
        .compute_stress
        .then(|| summaries.iter().map(|s| s.stress).collect());
    let info = root.agg;
    let counting_rounds_used = root
        .dfs_done_round
        .map(|r| r.saturating_sub(sched.counting_start))
        .unwrap_or(sched.reduce_start - sched.counting_start);
    let phase_stats = phase_windows(&sched, rounds)
        .into_iter()
        .map(|(name, start, end)| metrics.phase_window(name, start, end))
        .collect();
    let state_bytes_total = summaries.iter().map(|s| s.state_bytes).sum();
    let state_bytes_peak = summaries.iter().map(|s| s.state_bytes).max().unwrap_or(0);
    DistBcResult {
        betweenness,
        closeness,
        graph_centrality,
        diameter: info.d,
        rounds,
        schedule: sched,
        metrics,
        stress,
        sample_size,
        ts_spread: info.max_ts - info.min_ts,
        counting_rounds_used,
        fp,
        phase_stats,
        state_bytes_total,
        state_bytes_peak,
    }
}
