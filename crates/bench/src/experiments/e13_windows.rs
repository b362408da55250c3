//! E13 (extension) — depth-aware phase windows: every window after the
//! tree build is sized from the BFS-tree depth `h` the tree-build
//! convergecast reports, instead of from `N` alone, which provisions for
//! `D = N − 1` (`bc_core::PhaseSchedule::for_depth`). Trees too deep for
//! the depth flood to arrive before the N-only counting start keep the
//! N-only windows.
//!
//! The N-only round count is derived rather than run: both sets of
//! windows shift every `T_s` by one constant, so the aggregation phase
//! has the same length under either, and an N-only run ends exactly
//! `agg_start(N-only) − agg_start(depth-aware)` rounds later.

use crate::ExperimentReport;
use bc_brandes::betweenness_f64;
use bc_core::{run_distributed_bc, DistBcConfig, PhaseSchedule, Scheduling};
use bc_graph::{algo, generators, Graph};

/// Runs E13.
pub fn run(quick: bool) -> ExperimentReport {
    let n = if quick { 48 } else { 128 };
    let graphs: Vec<(String, Graph)> = vec![
        (
            format!("ba-{n} (low D)"),
            generators::barabasi_albert(n, 3, 2),
        ),
        (
            format!("er-{n} (low D)"),
            generators::erdos_renyi_connected(n, (8.0 / n as f64).min(0.5), 4),
        ),
        ("grid (mid D)".to_string(), generators::grid(n / 8, 8)),
        (format!("path-{n} (D=N-1)"), generators::path(n)),
    ];
    let mut rep = ExperimentReport::new(
        "E13",
        "extension: depth-aware phase windows vs N-only windows",
        &[
            "graph",
            "D",
            "h",
            "windows",
            "rounds",
            "N-only rounds",
            "saving",
            "max |Δ BC|",
            "compliant",
        ],
    );
    for (name, g) in graphs {
        let out = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        rep.push_perf(
            &name,
            out.rounds,
            out.metrics.total_messages,
            out.metrics.total_bits,
        );
        let only_n = PhaseSchedule::new(g.n(), Scheduling::DfsPipelined);
        let n_only_rounds = out.rounds + only_n.agg_start - out.schedule.agg_start;
        let exact = betweenness_f64(&g);
        let err = out
            .betweenness
            .iter()
            .zip(&exact)
            .map(|(a, e)| (a - e).abs() / (1.0 + e))
            .fold(0.0f64, f64::max);
        assert!(err < 1e-2, "{name}: diverged");
        assert!(out.metrics.congest_compliant(), "{name}");
        rep.push_row(vec![
            name,
            algo::diameter(&g).to_string(),
            algo::bfs(&g, 0).eccentricity().to_string(),
            if out.schedule == only_n {
                "N-only"
            } else {
                "depth-aware"
            }
            .to_string(),
            out.rounds.to_string(),
            n_only_rounds.to_string(),
            format!(
                "{:+.0}%",
                100.0 * (1.0 - out.rounds as f64 / n_only_rounds as f64)
            ),
            format!("{err:.1e}"),
            out.metrics.congest_compliant().to_string(),
        ]);
    }
    rep.note(
        "depth-aware windows cut the constant from ≈10N to ≈6N rounds on shallow \
         trees (counting 2(N−1) + k + 2h, reduce and broadcast h each); a path \
         rooted at an end is too deep for the depth flood and keeps the N-only \
         windows, so no graph pays more rounds — a step toward the paper's open \
         problem of an O(D + N/log N)-round algorithm"
            .to_string(),
    );
    rep
}
