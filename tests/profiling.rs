//! Profiling must be observationally free: turning it on changes *no*
//! protocol-visible output — betweenness values, round counts, message
//! metrics, and phase stats are bit-identical with and without it, on
//! every engine (serial, parallel, α-synchronizer) and both kinds of phase
//! windows (depth-aware and N-only).

use distbc::congest::asynchronous::{
    run_synchronized, run_synchronized_with, AsyncConfig, SyncOptions,
};
use distbc::congest::{ProfileReport, Telemetry};
use distbc::core::{
    run, run_distributed_bc, AlgoOptions, DistBcConfig, DistBcError, DistBcNode, DistBcResult,
    Instruments, PhaseSchedule, Scheduling,
};
use distbc::graph::{generators, Graph};
use std::sync::Arc;

fn profiled(g: &Graph, cfg: DistBcConfig) -> (DistBcResult, ProfileReport) {
    let instruments = Instruments {
        trace: None,
        profile: true,
    };
    let run = run(g, cfg, instruments).unwrap();
    (run.result, run.profile.expect("profile requested"))
}

fn assert_profiling_free(cfg: DistBcConfig) {
    let g = generators::erdos_renyi_connected(36, 0.12, 17);
    let plain = run_distributed_bc(&g, cfg.clone()).unwrap();
    let (profiled, report) = profiled(&g, cfg);
    assert_eq!(plain.rounds, profiled.rounds);
    assert_eq!(plain.metrics, profiled.metrics);
    assert_eq!(plain.betweenness, profiled.betweenness);
    assert_eq!(plain.phase_stats, profiled.phase_stats);
    // The profile itself must describe the same execution.
    assert_eq!(report.rounds, profiled.rounds);
    assert!(report.wall_ns >= report.compute_ns);
}

#[test]
fn profiling_is_free_on_serial_engine() {
    let cfg = DistBcConfig::default();
    assert_profiling_free(cfg.clone());
    let g = generators::paper_figure1();
    let (out, report) = profiled(&g, cfg);
    assert!((out.betweenness[1] - 3.5).abs() < 1e-9);
    assert_eq!(report.engine, "serial");
    // Provisioned runs expose the four phase windows with wall-clock.
    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        ["A:tree", "B:counting", "C:reduce+bcast", "D:aggregation"]
    );
    let span_sum: u64 = report.phases.iter().map(|p| p.rounds).sum();
    assert_eq!(span_sum, report.rounds);
}

#[test]
fn profiling_is_free_on_parallel_engine() {
    let cfg = DistBcConfig {
        threads: 4,
        ..DistBcConfig::default()
    };
    assert_profiling_free(cfg.clone());
    let g = generators::erdos_renyi_connected(36, 0.12, 17);
    let (_, report) = profiled(&g, cfg);
    assert_eq!(report.engine, "parallel(4)");
    let w = report.workers.expect("parallel run reports worker stats");
    assert_eq!(w.workers, 4);
    assert!(w.utilization > 0.0 && w.utilization <= 1.0);
    assert!(w.imbalance >= 1.0);
}

#[test]
fn profiling_is_free_on_both_window_kinds() {
    // ER(36) gets depth-aware windows, a path rooted at an end the N-only
    // ones; either way the profile slices the run at its own windows.
    for (g, depth_aware) in [
        (generators::erdos_renyi_connected(36, 0.12, 17), true),
        (generators::path(30), false),
    ] {
        let plain = run_distributed_bc(&g, DistBcConfig::default()).unwrap();
        let (out, report) = profiled(&g, DistBcConfig::default());
        assert_eq!(plain.rounds, out.rounds);
        assert_eq!(plain.metrics, out.metrics);
        assert_eq!(plain.betweenness, out.betweenness);
        let s = out.schedule;
        assert_eq!(
            s != PhaseSchedule::new(g.n(), Scheduling::DfsPipelined),
            depth_aware
        );
        let starts: Vec<u64> = report.phases.iter().map(|p| p.start).collect();
        assert_eq!(starts, [0, s.counting_start, s.reduce_start, s.agg_start]);
        assert_eq!(report.rounds, out.rounds);
    }
}

#[test]
fn profiling_is_free_on_synchronizer() {
    let g = generators::erdos_renyi_connected(20, 0.15, 77);
    let n = g.n();
    let sync = run_distributed_bc(&g, DistBcConfig::default()).unwrap();
    let pulses = sync.rounds + 1;
    let opts = AlgoOptions::for_graph_size(n);
    for (max_delay, seed) in [(1u64, 0u64), (4, 9)] {
        let cfg = AsyncConfig { max_delay, seed };
        let (plain_nodes, plain_report) =
            run_synchronized(&g, cfg, pulses, |v, _| DistBcNode::new(n, v, opts.clone()));
        let telemetry = Arc::new(Telemetry::new(1, 1));
        telemetry.set_clock(true);
        let (prof_nodes, prof_report, _) = run_synchronized_with(
            &g,
            cfg,
            pulses,
            |v, _| DistBcNode::new(n, v, opts.clone()),
            SyncOptions {
                telemetry: Some(telemetry.clone()),
                ..SyncOptions::default()
            },
        );
        for (p, q) in plain_nodes.iter().zip(&prof_nodes) {
            assert_eq!(
                p.betweenness(),
                q.betweenness(),
                "delay={max_delay}: profiling changed the synchronizer's output"
            );
        }
        assert_eq!(plain_report, prof_report);
        // The synchronizer's promise: a payload arrives at most one pulse
        // away from its receiver.
        for s in [plain_report.sync, prof_report.sync] {
            assert!(s.deliveries > 0);
            assert!(s.skewed_deliveries <= s.deliveries);
            assert!(s.max_pulse_skew <= 1, "delay={max_delay}: skew {s:?}");
            assert!(s.max_queue_depth > 0);
        }
        let mut report = ProfileReport::from_rounds("alpha-sync", telemetry.round_log(), &[]);
        report.sync = Some(prof_report.sync);
        assert_eq!(report.rounds, pulses);
        assert!(report.compute_ns > 0);
        assert!(report.wall_ns >= report.compute_ns);
        assert!(report.to_json().contains("\"sync\":{"));
    }
}

/// A profiled pooled run times each worker into its own registry shard,
/// so a caller-supplied registry with fewer shards than workers is a
/// configuration error, not a silent merge of busy times; one with a
/// shard per worker reports every worker.
#[test]
fn profiling_a_pool_needs_a_shard_per_worker() {
    let g = generators::erdos_renyi_connected(36, 0.12, 17);
    let profiled_with = |shards: usize| {
        let cfg = DistBcConfig {
            threads: 4,
            telemetry: Some(Arc::new(Telemetry::new(shards, 8))),
            ..DistBcConfig::default()
        };
        let instruments = Instruments {
            trace: None,
            profile: true,
        };
        run(&g, cfg, instruments).map(|run| run.profile.expect("profile requested"))
    };
    match profiled_with(2) {
        Err(DistBcError::BadConfig(msg)) => assert!(msg.contains("4 workers"), "{msg}"),
        Err(e) => panic!("expected BadConfig, got {e}"),
        Ok(_) => panic!("a 2-shard registry cannot time 4 workers"),
    }
    // Spare shards are not workers.
    for shards in [4, 8] {
        let report = profiled_with(shards).expect("a shard per worker");
        let w = report.workers.expect("pooled run reports worker stats");
        assert_eq!(w.workers, 4, "{shards} shards");
    }
}
