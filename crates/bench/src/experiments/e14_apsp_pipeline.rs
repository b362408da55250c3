//! E14 (extension) — the DFS-free token-pipelined APSP (related work
//! [7]/[15]) vs the full betweenness protocol, for distance-only
//! questions: closeness / eccentricity / diameter need only O(N + D)
//! rounds and far less traffic, while betweenness needs the DFS-pipelined
//! counting (simultaneous σ arrivals) plus aggregation. The table makes
//! the paper's implicit design choice measurable.

use crate::ExperimentReport;
use bc_core::apsp_pipeline::run_apsp_pipeline;
use bc_core::{run_distributed_bc, DistBcConfig};
use bc_graph::{algo, generators};

/// Runs E14.
pub fn run(quick: bool) -> ExperimentReport {
    let sizes: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let mut rep = ExperimentReport::new(
        "E14",
        "extension: pipelined APSP (distances only) vs the full betweenness protocol",
        &[
            "graph",
            "n",
            "D",
            "APSP rounds",
            "full rounds",
            "APSP kbit",
            "full kbit",
            "diameters agree",
        ],
    );
    for &n in sizes {
        let g = generators::erdos_renyi_connected(n, (8.0 / n as f64).min(0.5), 21);
        let apsp = run_apsp_pipeline(&g).expect("runs");
        let full = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        assert!(apsp.metrics.congest_compliant());
        assert_eq!(apsp.diameter, algo::diameter(&g));
        for (a, b) in apsp.closeness.iter().zip(&full.closeness) {
            assert!((a - b).abs() < 1e-12, "closeness must agree exactly");
        }
        rep.push_row(vec![
            format!("er-{n}"),
            n.to_string(),
            apsp.diameter.to_string(),
            apsp.rounds.to_string(),
            full.rounds.to_string(),
            (apsp.metrics.total_bits / 1000).to_string(),
            (full.metrics.total_bits / 1000).to_string(),
            (apsp.diameter == full.diameter).to_string(),
        ]);
        assert!(apsp.rounds * 3 < full.rounds);
    }
    rep.note(
        "closeness/eccentricity/diameter — the centralities the paper's introduction \
         calls easy — cost ≈ N + D rounds with no DFS token; betweenness pays ≈ 6 N \
         because the counting phase must deliver each source's σ contributions \
         simultaneously and the aggregation phase must replay the schedule in reverse"
            .to_string(),
    );
    rep
}
