//! Chaos tests: the full betweenness protocol over lossy, crash-prone
//! networks.
//!
//! The reliable transport ([`bc_core::transport`]) must make DistBC's
//! output **bit-identical** to a fault-free run under any drop (≤ 20%),
//! duplication, reordering (delay), or corruption plan — on the serial
//! engine, the pooled parallel engine, and the α-synchronizer alike. And
//! corruption-only plans must never abort the process even *without* the
//! transport: an undecodable payload surfaces as a `DistBcError`, not a
//! panic.

use bc_congest::asynchronous::{run_synchronized_with, AsyncConfig, SyncOptions};
use bc_congest::{CongestError, FaultPlan};
use bc_core::transport::{Reliable, ReliableConfig};
use bc_core::{run_distributed_bc, AlgoOptions, DistBcConfig, DistBcError, DistBcNode};
use bc_graph::{generators, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

/// Random connected graph: a random recursive tree plus extra edges.
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..max_n, any::<u64>(), 0usize..24).prop_map(|(n, seed, extra)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(rng.gen_range(0..v), v).expect("valid");
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                b.add_edge(u, v).expect("valid");
            }
        }
        b.build()
    })
}

/// Random loss plan within the transport's guaranteed envelope: drop up to
/// 20%, plus arbitrary duplication and reordering (delays up to 3 rounds).
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u32..=20, 0u32..=30, 0u32..=30).prop_map(
        |(seed, drop_pct, dup_pct, delay_pct)| FaultPlan {
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            delay: delay_pct as f64 / 100.0,
            max_delay: 3,
            ..FaultPlan::seeded(seed)
        },
    )
}

fn reliable_cfg(plan: &FaultPlan, threads: usize) -> DistBcConfig {
    DistBcConfig {
        faults: Some(plan.clone()),
        reliable: true,
        threads,
        ..DistBcConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole acceptance property: one fault plan, four engines, one
    /// bit-identical answer — equal to the fault-free baseline.
    #[test]
    fn reliable_transport_is_bit_identical_across_engines(
        g in arb_connected_graph(22),
        plan in arb_fault_plan(),
    ) {
        let baseline = run_distributed_bc(&g, DistBcConfig::default()).expect("fault-free run");
        for threads in [0usize, 2, 7] {
            let out = run_distributed_bc(&g, reliable_cfg(&plan, threads))
                .expect("reliable run completes under faults");
            prop_assert_eq!(
                &out.betweenness, &baseline.betweenness,
                "threads={} diverged from fault-free baseline", threads
            );
            prop_assert_eq!(out.diameter, baseline.diameter);
            prop_assert_eq!(&out.closeness, &baseline.closeness);
        }
    }

    /// Corruption-only chaos: a single flipped bit per hit. Without the
    /// transport the run must *fail gracefully* (error, never a process
    /// abort); with it the checksum turns corruption into loss and the
    /// output is exact.
    #[test]
    fn corruption_never_panics_and_reliable_absorbs_it(
        g in arb_connected_graph(18),
        seed in any::<u64>(),
        corrupt_pct in 5u32..=40,
    ) {
        let plan = FaultPlan { corrupt: corrupt_pct as f64 / 100.0, ..FaultPlan::seeded(seed) };
        // Raw faulty network: completing the call (Ok or Err) is the
        // assertion — a node panic is converted to CongestError::NodePanic
        // by the engine, and anything else failing this test is a bug.
        let raw = run_distributed_bc(
            &g,
            DistBcConfig { faults: Some(plan.clone()), ..DistBcConfig::default() },
        );
        if let Err(e) = raw {
            prop_assert!(
                matches!(e, DistBcError::Congest(_)),
                "unexpected error class: {e}"
            );
        }
        let baseline = run_distributed_bc(&g, DistBcConfig::default()).expect("fault-free run");
        let out = run_distributed_bc(&g, reliable_cfg(&plan, 0))
            .expect("reliable run absorbs corruption");
        prop_assert_eq!(&out.betweenness, &baseline.betweenness);
    }
}

/// The α-synchronizer injects the same seeded faults at its payload layer;
/// wrapping the node in the reliable transport must again reproduce the
/// fault-free answer bit for bit.
#[test]
fn alpha_synchronizer_with_faults_and_transport_matches_baseline() {
    let g = generators::erdos_renyi_connected(18, 0.16, 21);
    let n = g.n();
    let baseline = run_distributed_bc(&g, DistBcConfig::default()).expect("fault-free run");
    let opts = AlgoOptions::for_graph_size(n);
    for seed in [3u64, 8, 13] {
        let plan = FaultPlan {
            drop: 0.12,
            duplicate: 0.1,
            delay: 0.15,
            max_delay: 2,
            ..FaultPlan::seeded(seed)
        };
        // Physical-round envelope: mirror the driver's reliable scaling.
        let serial = run_distributed_bc(&g, reliable_cfg(&plan, 0)).expect("serial reliable");
        let pulses = serial.rounds + 4;
        let rcfg = ReliableConfig {
            rto: plan.max_delay + 2,
        };
        let (nodes, _, _) = run_synchronized_with(
            &g,
            AsyncConfig {
                max_delay: 4,
                seed: seed ^ 0xa5a5,
            },
            pulses,
            |v, gg| Reliable::new(DistBcNode::new(n, v, opts.clone()), gg.degree(v), rcfg),
            SyncOptions {
                faults: Some(plan),
                ..SyncOptions::default()
            },
        );
        for (v, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.inner().betweenness(),
                baseline.betweenness[v],
                "seed {seed} node {v}: α-sync reliable diverged"
            );
        }
    }
}

/// A node that crashes and recovers mid-run loses every message delivered
/// while it is down; retransmissions repair the gap and the answer is
/// still exact.
#[test]
fn crash_recover_window_is_masked_by_retransmission() {
    let g = generators::erdos_renyi_connected(16, 0.2, 5);
    let baseline = run_distributed_bc(&g, DistBcConfig::default()).expect("fault-free run");
    for (node, from, to) in [(2u32, 4u64, 10u64), (7, 1, 6), (0, 8, 16)] {
        let plan = FaultPlan::parse(&format!("seed=5,drop=0.05,crash={node}@{from}..{to}"))
            .expect("valid spec");
        let out =
            run_distributed_bc(&g, reliable_cfg(&plan, 0)).expect("crash-recover run completes");
        assert_eq!(
            out.betweenness, baseline.betweenness,
            "crash {node}@{from}..{to} diverged"
        );
        assert!(out.metrics.messages_retransmitted > 0);
    }
}

/// Crash-*stop* is not masked: peers retransmit forever and the engine
/// hits its round limit instead of hanging.
#[test]
fn crash_stop_fails_with_round_limit() {
    let g = generators::cycle(10);
    let plan = FaultPlan::parse("seed=1,crash=3@5..").expect("valid spec");
    let err =
        run_distributed_bc(&g, reliable_cfg(&plan, 0)).expect_err("crash-stop cannot complete");
    assert!(
        matches!(err, DistBcError::Congest(CongestError::RoundLimit { .. })),
        "unexpected error: {err}"
    );
}

/// Lossless reliable runs pay only the pipeline fill: rounds stay within a
/// small constant of the bare run, and nothing is ever retransmitted.
#[test]
fn lossless_reliable_overhead_is_bounded() {
    let g = generators::erdos_renyi_connected(20, 0.15, 2);
    let bare = run_distributed_bc(&g, DistBcConfig::default()).expect("bare");
    let reliable = run_distributed_bc(
        &g,
        DistBcConfig {
            reliable: true,
            ..DistBcConfig::default()
        },
    )
    .expect("reliable");
    assert_eq!(reliable.betweenness, bare.betweenness);
    assert_eq!(reliable.metrics.messages_retransmitted, 0);
    assert_eq!(reliable.metrics.messages_deduped, 0);
    assert!(
        reliable.rounds <= bare.rounds + 8,
        "pipeline overhead too large: {} vs {}",
        reliable.rounds,
        bare.rounds
    );
}
