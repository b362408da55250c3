//! The telemetry layer must be observationally free: attaching a
//! [`Telemetry`] registry changes *no* protocol-visible output —
//! betweenness values, round counts, message metrics, and phase stats are
//! bit-identical with and without it, on every engine (serial, pooled
//! parallel at several widths, α-synchronizer) and through the fault
//! injector + reliable transport. This extends the `tests/profiling.rs`
//! pattern to the always-on counter layer.

use distbc::congest::asynchronous::{
    run_synchronized, run_synchronized_with, AsyncConfig, AsyncReport, SyncOptions,
};
use distbc::congest::telemetry::HistogramId;
use distbc::congest::{Counter, FaultPlan, Postmortem, Telemetry};
use distbc::core::{run_distributed_bc, AlgoOptions, DistBcConfig, DistBcNode};
use distbc::graph::generators;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs `cfg` twice on the same graph — without telemetry and with a fresh
/// registry attached — asserts every observable output is bit-identical,
/// and returns the registry so callers can probe what it recorded.
fn assert_telemetry_free(g: &distbc::graph::Graph, cfg: DistBcConfig) -> Arc<Telemetry> {
    let plain = run_distributed_bc(g, cfg.clone()).expect("plain run succeeds");
    let tel = Arc::new(Telemetry::new(cfg.threads.max(1), 32));
    let metered = run_distributed_bc(
        g,
        DistBcConfig {
            telemetry: Some(tel.clone()),
            ..cfg
        },
    )
    .expect("telemetered run succeeds");
    assert_eq!(plain.rounds, metered.rounds);
    assert_eq!(plain.metrics, metered.metrics);
    assert_eq!(plain.betweenness, metered.betweenness);
    assert_eq!(plain.phase_stats, metered.phase_stats);
    // The registry must describe the run it rode along with.
    let snap = tel.snapshot();
    assert!(snap.get(Counter::Rounds) > 0);
    assert!(snap.get(Counter::Messages) > 0);
    assert!(snap.get(Counter::NodesStepped) > 0);
    assert!(snap.get(Counter::Rounds) <= metered.rounds);
    tel
}

#[test]
fn telemetry_is_free_on_all_engines() {
    let g = generators::erdos_renyi_connected(36, 0.12, 17);
    for threads in [0usize, 2, 7] {
        let tel = assert_telemetry_free(
            &g,
            DistBcConfig {
                threads,
                ..DistBcConfig::default()
            },
        );
        assert!(!tel.recent_rounds().is_empty(), "threads={threads}");
    }
}

#[test]
fn telemetry_is_free_under_faults_with_reliable_transport() {
    let g = generators::erdos_renyi_connected(30, 0.15, 5);
    let plan = FaultPlan {
        drop: 0.10,
        duplicate: 0.05,
        ..FaultPlan::seeded(11)
    };
    for threads in [0usize, 2] {
        let tel = assert_telemetry_free(
            &g,
            DistBcConfig {
                threads,
                faults: Some(plan.clone()),
                reliable: true,
                ..DistBcConfig::default()
            },
        );
        let snap = tel.snapshot();
        assert!(
            snap.get(Counter::FramesSent) > 0,
            "reliable transport streams frame counters"
        );
        assert!(
            snap.get(Counter::Retransmits) > 0,
            "a 10% drop plan must force retransmissions"
        );
        assert!(snap.get(Counter::FaultsDropped) > 0);
    }
}

#[test]
fn telemetry_is_free_on_synchronizer() {
    let g = generators::erdos_renyi_connected(20, 0.15, 77);
    let n = g.n();
    let sync = run_distributed_bc(&g, DistBcConfig::default()).unwrap();
    let pulses = sync.rounds + 1;
    let opts = AlgoOptions::for_graph_size(n);
    let cfg = AsyncConfig {
        max_delay: 4,
        seed: 9,
    };
    // Fault-free: telemetered α-sync vs plain α-sync.
    let (plain_nodes, plain_report) =
        run_synchronized(&g, cfg, pulses, |v, _| DistBcNode::new(n, v, opts.clone()));
    let tel = Arc::new(Telemetry::new(1, 32));
    let (tel_nodes, tel_report, _) = run_synchronized_with(
        &g,
        cfg,
        pulses,
        |v, _| DistBcNode::new(n, v, opts.clone()),
        SyncOptions {
            telemetry: Some(tel.clone()),
            ..SyncOptions::default()
        },
    );
    for (p, q) in plain_nodes.iter().zip(&tel_nodes) {
        assert_eq!(
            p.betweenness(),
            q.betweenness(),
            "telemetry changed the synchronizer's output"
        );
    }
    assert_eq!(plain_report.virtual_time, tel_report.virtual_time);
    assert_eq!(plain_report.control_messages, tel_report.control_messages);
    assert_eq!(plain_report.payload_messages, tel_report.payload_messages);
    let snap = tel.snapshot();
    assert_eq!(snap.get(Counter::Messages), tel_report.payload_messages);
    assert!(snap.get(Counter::Rounds) > 0);
    assert!(!tel.recent_rounds().is_empty());
    assert_skew_promise(&[plain_report, tel_report]);

    // Faulty: telemetered faulty α-sync vs the untelemetered faulty run.
    let plan = FaultPlan {
        drop: 0.05,
        duplicate: 0.05,
        ..FaultPlan::seeded(3)
    };
    let (faulty_nodes, faulty_report, _) = run_synchronized_with(
        &g,
        cfg,
        pulses,
        |v, _| DistBcNode::new(n, v, opts.clone()),
        SyncOptions {
            faults: Some(plan.clone()),
            ..SyncOptions::default()
        },
    );
    let (tel_nodes, tel_report, _) = run_synchronized_with(
        &g,
        cfg,
        pulses,
        |v, _| DistBcNode::new(n, v, opts.clone()),
        SyncOptions {
            faults: Some(plan),
            telemetry: Some(Arc::new(Telemetry::new(1, 32))),
            ..SyncOptions::default()
        },
    );
    for (p, q) in faulty_nodes.iter().zip(&tel_nodes) {
        assert_eq!(
            p.betweenness(),
            q.betweenness(),
            "telemetry changed the faulty synchronizer's output"
        );
    }
    assert_eq!(faulty_report.virtual_time, tel_report.virtual_time);
    assert_eq!(faulty_report.payload_messages, tel_report.payload_messages);
    assert_skew_promise(&[faulty_report, tel_report]);
}

/// Every run keeps the synchronizer's promise: a payload arrives at most
/// one pulse away from its receiver.
fn assert_skew_promise(reports: &[AsyncReport]) {
    for s in reports.iter().map(|r| r.sync) {
        assert!(s.deliveries > 0, "{s:?}");
        assert!(s.skewed_deliveries <= s.deliveries, "{s:?}");
        assert!(s.max_pulse_skew <= 1, "{s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bit-identity holds for arbitrary connected ER graphs across the
    /// serial and pooled engines, with and without a lossy fault plan
    /// behind the reliable transport.
    #[test]
    fn telemetry_bit_identity_proptest(
        n in 16usize..40,
        p_pct in 10u32..=22,
        seed in 0u64..1000,
        threads_idx in 0usize..3,
        lossy in any::<bool>(),
    ) {
        let threads = [0usize, 2, 7][threads_idx];
        let g = generators::erdos_renyi_connected(n, p_pct as f64 / 100.0, seed);
        let (faults, reliable) = if lossy {
            (
                Some(FaultPlan {
                    drop: 0.08,
                    duplicate: 0.04,
                    ..FaultPlan::seeded(seed)
                }),
                true,
            )
        } else {
            (None, false)
        };
        assert_telemetry_free(
            &g,
            DistBcConfig {
                threads,
                faults,
                reliable,
                ..DistBcConfig::default()
            },
        );
    }
}

#[test]
fn postmortem_round_trips_and_keeps_the_final_k_rounds() {
    const K: usize = 8;
    let tel = Telemetry::new(2, K);
    for round in 0..20u64 {
        tel.add(0, Counter::Messages, 10 + round);
        tel.add(1, Counter::MessageBits, 64);
        tel.add(0, Counter::NodesStepped, 5);
        tel.record(0, HistogramId::InboxDepth, 3);
        tel.finish_round(round);
    }
    let json = tel.postmortem_json("test: induced failure");
    let pm = Postmortem::parse(&json).expect("postmortem parses back");
    assert_eq!(pm.schema_version, 1);
    assert_eq!(pm.reason, "test: induced failure");
    assert_eq!(pm.round, 20);
    // The ring holds exactly the final K rounds, oldest first.
    let rounds: Vec<u64> = pm.recent_rounds.iter().map(|r| r.round).collect();
    assert_eq!(rounds, (12..20).collect::<Vec<_>>());
    for rec in &pm.recent_rounds {
        assert_eq!(rec.messages, 10 + rec.round);
        assert_eq!(rec.bits, 64);
        assert_eq!(rec.nodes_stepped, 5);
    }
    // Counters survive the dump/parse cycle exactly.
    let snap = tel.snapshot();
    for (name, value) in &pm.counters {
        let expected = snap
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("unknown counter {name} in postmortem"));
        assert_eq!(*value, expected, "counter {name} diverged in round-trip");
    }
    assert!(pm
        .counters
        .iter()
        .any(|(name, value)| name == "messages" && *value > 0));

    // A wrong schema version must be rejected, not silently accepted.
    let bad = json.replacen("\"schema_version\":1", "\"schema_version\":999", 1);
    assert!(Postmortem::parse(&bad).is_err());
}
