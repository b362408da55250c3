//! Integration tests for the event-tracing subsystem: record a full
//! protocol execution on every engine, feed the trace to the offline
//! analyzer, and confirm it re-derives the paper's schedule facts.

use distbc::congest::asynchronous::{run_synchronized_with, AsyncConfig, SyncOptions};
use distbc::congest::trace::{
    check, read_jsonl, JsonlSink, ProtocolDetail, RingSink, TraceEvent, TraceSink,
};
use distbc::congest::Telemetry;
use distbc::core::{
    run, run_distributed_bc, AlgoOptions, DistBcConfig, DistBcNode, DistBcResult, Instruments,
    PhaseSchedule, Scheduling,
};
use distbc::graph::{generators, Graph};
use std::sync::Arc;

fn traced(
    g: &Graph,
    cfg: DistBcConfig,
    sink: Box<dyn TraceSink>,
) -> (DistBcResult, Box<dyn TraceSink>) {
    let instruments = Instruments {
        trace: Some(sink),
        profile: false,
    };
    let run = run(g, cfg, instruments).unwrap();
    (run.result, run.trace.expect("sink returned"))
}

/// The paper's Figure 1 example. The DFS visits the sources in preorder
/// (v1..v5 = nodes 0..4), and the tightest Lemma-4-admissible schedule
/// along that preorder is the paper's `T = (0, 2, 4, 6, 8)` (Section IV's
/// worked example, relative to the first wave). The analyzer must recover
/// both from the trace alone, and the recorded waves must satisfy Lemma 4.
fn assert_figure1_trace(events: &[TraceEvent]) {
    let report = check::check(events);
    assert!(report.ok(), "{report}");
    assert_eq!(report.preorder, vec![0, 1, 2, 3, 4], "DFS preorder");
    assert_eq!(
        report.waves_checked, 4,
        "all consecutive wave pairs checked"
    );
    assert_eq!(
        report.minimal_schedule,
        Some(vec![0, 2, 4, 6, 8]),
        "paper's minimal schedule for Figure 1"
    );
}

/// Every view shows the run's windows from one source: the trace's
/// `Schedule` event, the telemetry phase labels and the profile's phase
/// spans all equal `PhaseSchedule::for_graph`, and every node enters each
/// phase inside its window. Path(64) is too deep for the depth flood and
/// keeps the N-only windows; BA(200) gets the depth-aware ones.
#[test]
fn phase_entries_fall_inside_the_published_windows() {
    for (name, g, depth_aware) in [
        ("path:64", generators::path(64), false),
        ("ba:200:2:5", generators::barabasi_albert(200, 2, 5), true),
    ] {
        let n = g.n();
        let telemetry = Arc::new(Telemetry::new(1, 16));
        let cfg = DistBcConfig {
            telemetry: Some(telemetry.clone()),
            ..DistBcConfig::default()
        };
        let instruments = Instruments {
            trace: Some(Box::new(RingSink::new(1 << 22))),
            profile: true,
        };
        let run = run(&g, cfg, instruments).unwrap();
        let (out, mut sink, profile) = (run.result, run.trace.unwrap(), run.profile.unwrap());
        let s = out.schedule;
        assert_eq!(
            s,
            PhaseSchedule::for_graph(&g, Scheduling::DfsPipelined, n),
            "{name}"
        );
        assert_eq!(
            s != PhaseSchedule::new(n, Scheduling::DfsPipelined),
            depth_aware,
            "{name}"
        );
        let events = sink.drain_events();
        let report = check::check(&events);
        assert!(report.ok(), "{name}: {report}");
        assert!(report.window_findings.is_empty(), "{name}");
        let declared = events.iter().find_map(|e| match e {
            TraceEvent::Schedule {
                counting_start,
                reduce_start,
                broadcast_start,
                agg_start,
            } => Some([*counting_start, *reduce_start, *broadcast_start, *agg_start]),
            _ => None,
        });
        let windows = [
            s.counting_start,
            s.reduce_start,
            s.broadcast_start,
            s.agg_start,
        ];
        assert_eq!(declared, Some(windows), "{name}");
        assert_eq!(telemetry.phase_label(s.counting_start - 1), "A:tree");
        assert_eq!(telemetry.phase_label(s.counting_start), "B:counting");
        assert_eq!(telemetry.phase_label(s.reduce_start), "C1:reduce");
        assert_eq!(telemetry.phase_label(s.broadcast_start), "C2:bcast");
        assert_eq!(telemetry.phase_label(s.agg_start), "D:aggregation");
        let spans: Vec<(u64, u64)> = profile.phases.iter().map(|p| (p.start, p.end)).collect();
        assert_eq!(
            spans,
            [
                (0, s.counting_start),
                (s.counting_start, s.reduce_start),
                (s.reduce_start, s.agg_start),
                (s.agg_start, out.rounds)
            ],
            "{name}"
        );
        // A node enters D when the root's broadcast reaches it, at the
        // latest in the aggregation base round.
        let mut entered = [0usize; 4];
        for e in &events {
            if let TraceEvent::Protocol {
                round,
                node,
                detail: ProtocolDetail::PhaseEnter { phase },
            } = e
            {
                let (i, lo, hi) = match phase {
                    'A' => (0, 0, s.counting_start),
                    'B' => (1, s.counting_start, s.reduce_start),
                    'C' => (2, s.reduce_start, s.broadcast_start.max(s.reduce_start + 1)),
                    _ => (3, s.broadcast_start, s.agg_start + 1),
                };
                assert!(
                    (lo..hi).contains(round),
                    "{name}: node {node} entered {phase} in round {round}, outside [{lo}, {hi})"
                );
                entered[i] += 1;
            }
        }
        assert_eq!(
            entered, [n; 4],
            "{name}: every node enters every phase once"
        );
    }
}

#[test]
fn figure1_trace_validates_on_serial_engine() {
    let g = generators::paper_figure1();
    let (out, mut sink) = traced(
        &g,
        DistBcConfig::default(),
        Box::new(RingSink::new(1 << 20)),
    );
    let events = sink.drain_events();
    assert_figure1_trace(&events);
    let report = check::check(&events);
    assert_eq!(report.messages, out.metrics.total_messages);
    assert_eq!(report.rounds, out.rounds);
    assert!((out.betweenness[1] - 3.5).abs() < 1e-6);
}

#[test]
fn figure1_trace_validates_on_parallel_engine() {
    let g = generators::paper_figure1();
    let cfg = DistBcConfig {
        threads: 3,
        ..DistBcConfig::default()
    };
    let (_, mut sink) = traced(&g, cfg, Box::new(RingSink::new(1 << 20)));
    assert_figure1_trace(&sink.drain_events());
}

#[test]
fn figure1_trace_validates_on_synchronizer() {
    let g = generators::paper_figure1();
    let n = g.n();
    // Reference run for the round count and the provisioned schedule.
    let out = run_distributed_bc(&g, DistBcConfig::default()).unwrap();
    let opts = AlgoOptions::for_graph_size(n);
    let (_, _, options) = run_synchronized_with(
        &g,
        AsyncConfig::default(),
        out.rounds + 1,
        |v, _| DistBcNode::new(n, v, opts.clone()),
        SyncOptions {
            sink: Some(Box::new(RingSink::new(1 << 20))),
            ..SyncOptions::default()
        },
    );
    let mut sink = options.sink.unwrap();
    // The synchronizer traces only execution events; prepend the context
    // the driver would have recorded.
    let mut events = vec![
        TraceEvent::Topology {
            n,
            edges: g.edges().collect(),
        },
        TraceEvent::Schedule {
            counting_start: out.schedule.counting_start,
            reduce_start: out.schedule.reduce_start,
            broadcast_start: out.schedule.broadcast_start,
            agg_start: out.schedule.agg_start,
        },
    ];
    events.extend(sink.drain_events());
    assert_figure1_trace(&events);
}

#[test]
fn jsonl_trace_roundtrips_through_disk() {
    let g = generators::paper_figure1();
    let path = std::env::temp_dir().join("distbc-figure1-trace-test.jsonl");
    let sink = JsonlSink::create(&path).unwrap();
    let (_, mut sink) = traced(&g, DistBcConfig::default(), Box::new(sink));
    sink.flush().unwrap();
    drop(sink);
    let events = read_jsonl(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_figure1_trace(&events);
}

mod phase_accounting {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The four phase windows partition `[0, rounds)`, so the
        /// per-phase breakdown must sum *exactly* to the global metrics —
        /// additively for rounds/messages/bits, as a maximum for the
        /// largest message.
        #[test]
        fn phase_stats_sum_to_global_totals(
            (n, seed, threads) in (8usize..48, 0u64..1_000, 1usize..4)
        ) {
            let g = generators::erdos_renyi_connected(n, 0.15, seed);
            let cfg = DistBcConfig { threads, ..DistBcConfig::default() };
            let out = run_distributed_bc(&g, cfg).unwrap();
            prop_assert_eq!(out.phase_stats.len(), 4);
            let rounds: u64 = out.phase_stats.iter().map(|p| p.rounds).sum();
            let messages: u64 = out.phase_stats.iter().map(|p| p.messages).sum();
            let bits: u64 = out.phase_stats.iter().map(|p| p.bits).sum();
            let max_bits = out
                .phase_stats
                .iter()
                .map(|p| p.max_message_bits)
                .max()
                .unwrap_or(0);
            prop_assert_eq!(rounds, out.rounds);
            prop_assert_eq!(messages, out.metrics.total_messages);
            prop_assert_eq!(bits, out.metrics.total_bits);
            prop_assert_eq!(max_bits, out.metrics.max_message_bits);
            // Windows are contiguous and anchored at the run's ends.
            prop_assert_eq!(out.phase_stats[0].start, 0);
            prop_assert_eq!(out.phase_stats[3].end, out.rounds);
            for w in out.phase_stats.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
        }
    }
}

#[test]
fn tracing_leaves_results_and_metrics_unchanged() {
    let g = generators::erdos_renyi_connected(40, 0.1, 21);
    let plain = run_distributed_bc(&g, DistBcConfig::default()).unwrap();
    let (out, _) = traced(
        &g,
        DistBcConfig::default(),
        Box::new(RingSink::new(1 << 20)),
    );
    assert_eq!(plain.rounds, out.rounds);
    assert_eq!(plain.metrics, out.metrics);
    assert_eq!(plain.betweenness, out.betweenness);
    assert_eq!(plain.phase_stats, out.phase_stats);
}
