//! The profiler must be observationally free: turning it on changes *no*
//! protocol-visible output — betweenness values, round counts, message
//! metrics, and phase stats are bit-identical with and without it, on
//! every engine (serial, parallel, α-synchronizer) and both kinds of phase
//! windows (depth-aware and N-only).

use distbc::congest::asynchronous::{
    run_synchronized, run_synchronized_with, AsyncConfig, SyncOptions,
};
use distbc::congest::{ProfileReport, Profiler};
use distbc::core::{
    run, run_distributed_bc, AlgoOptions, DistBcConfig, DistBcNode, DistBcResult, Instruments,
    PhaseSchedule, Scheduling,
};
use distbc::graph::{generators, Graph};

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
        let (prof_nodes, prof_report, options) = run_synchronized_with(
            &g,
            cfg,
            pulses,
            |v, _| DistBcNode::new(n, v, opts.clone()),
            SyncOptions {
                profiler: Some(Profiler::new()),
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
        assert_eq!(plain_report.virtual_time, prof_report.virtual_time);
        assert_eq!(plain_report.control_messages, prof_report.control_messages);
        assert_eq!(plain_report.payload_messages, prof_report.payload_messages);
        let report = options.profiler.unwrap().report("alpha-sync", &[]);
        let s = report.sync.expect("synchronizer reports pulse counters");
        assert!(s.deliveries > 0);
        assert!(s.max_queue_depth > 0);
    }
}
