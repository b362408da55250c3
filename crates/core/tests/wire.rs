//! Socket-engine oracle tests: the process-per-shard wire runtime must be
//! **bit-identical** to the in-process engines — results, metrics, and
//! telemetry totals — on clean links and through a lossy proxy injecting
//! drops, duplication, reordering, and corruption within the reliable
//! transport's guaranteed envelope (≤ 20% drop).
//!
//! Shards here run as threads of this test process, but every byte
//! between them crosses a real Unix-domain socket through the same
//! `serve_shard` entry point the `distbc serve-shard` CLI uses; the
//! separate-process path is exercised by the repo's CLI tests and the CI
//! multi-process job.

use bc_congest::telemetry::COUNTERS;
use bc_congest::wire::LossyProxy;
use bc_congest::{FaultPlan, ShardMap, Telemetry};
use bc_core::wire::{run_leader, serve_shard, WireRunError};
use bc_core::{run_distributed_bc, DistBcConfig, DistBcResult, SourceSelection};
use bc_graph::{generators, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Fresh `unix:` socket addresses, unique across tests and processes.
fn socket_addrs(k: usize) -> Vec<String> {
    let pid = std::process::id();
    (0..k)
        .map(|_| {
            let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("bcw-{pid}-{seq}.sock"));
            format!("unix:{}", path.display())
        })
        .collect()
}

/// Runs `g` across `k` shard threads over real sockets, optionally
/// routing every connection through a per-shard lossy proxy.
fn run_wire(
    g: &Graph,
    config: &DistBcConfig,
    k: usize,
    plan: Option<&FaultPlan>,
) -> Result<DistBcResult, WireRunError> {
    let shard_addrs = socket_addrs(k);
    let shards: Vec<_> = shard_addrs
        .iter()
        .map(|a| {
            let a = a.clone();
            thread::spawn(move || serve_shard(&a))
        })
        .collect();
    let mut proxies = Vec::new();
    let leader_addrs = match plan {
        None => shard_addrs.clone(),
        Some(plan) => {
            let graph = Arc::new(g.clone());
            let map = Arc::new(ShardMap::new(g.n(), k));
            let fronts = socket_addrs(k);
            let mut addrs = Vec::with_capacity(k);
            for i in 0..k {
                let p = LossyProxy::start(
                    &fronts[i],
                    shard_addrs[i].clone(),
                    i,
                    graph.clone(),
                    map.clone(),
                    plan.clone(),
                )
                .expect("proxy starts");
                addrs.push(p.addr().to_string());
                proxies.push(p);
            }
            addrs
        }
    };
    let result = run_leader(g, config, &leader_addrs, false).map(|(r, _)| r);
    if result.is_ok() {
        for h in shards {
            h.join()
                .expect("shard thread not poisoned")
                .expect("shard exits cleanly when the leader succeeded");
        }
    }
    // On a leader error the shard threads may still be parked in accept();
    // leak them (the test harness tears the process down) so the failure
    // surfaces as an assertion instead of a hang.
    result
}

/// Field-by-field oracle comparison (results *and* merged metrics).
fn assert_bit_identical(wire: &DistBcResult, oracle: &DistBcResult, what: &str) {
    assert_eq!(wire.betweenness, oracle.betweenness, "{what}: betweenness");
    assert_eq!(wire.closeness, oracle.closeness, "{what}: closeness");
    assert_eq!(
        wire.graph_centrality, oracle.graph_centrality,
        "{what}: graph centrality"
    );
    assert_eq!(wire.diameter, oracle.diameter, "{what}: diameter");
    assert_eq!(wire.rounds, oracle.rounds, "{what}: rounds");
    assert_eq!(wire.stress, oracle.stress, "{what}: stress");
    assert_eq!(wire.sample_size, oracle.sample_size, "{what}: sample size");
    assert_eq!(wire.ts_spread, oracle.ts_spread, "{what}: ts spread");
    assert_eq!(
        wire.counting_rounds_used, oracle.counting_rounds_used,
        "{what}: counting rounds"
    );
    assert_eq!(wire.metrics, oracle.metrics, "{what}: metrics");
}

fn reliable_oracle(g: &Graph, config: &DistBcConfig) -> DistBcResult {
    let cfg = DistBcConfig {
        reliable: true,
        threads: 0,
        telemetry: None,
        ..config.clone()
    };
    run_distributed_bc(g, cfg).expect("serial reliable oracle")
}

/// Random connected graph: a random recursive tree plus extra edges
/// (the same family the chaos tests use).
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

/// Loss plans within the transport's envelope: drop ≤ 20%, plus
/// duplication, reordering (delays up to 3 rounds), and corruption.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u32..=20, 0u32..=30, 0u32..=30, 0u32..=15).prop_map(
        |(seed, drop_pct, dup_pct, delay_pct, corrupt_pct)| FaultPlan {
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            delay: delay_pct as f64 / 100.0,
            corrupt: corrupt_pct as f64 / 100.0,
            max_delay: 3,
            ..FaultPlan::seeded(seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole acceptance property: the socket engine on 2 and 4 shards
    /// reproduces the serial oracle bit for bit — results and metrics.
    #[test]
    fn socket_engine_matches_serial_oracle(g in arb_connected_graph(20)) {
        let oracle = reliable_oracle(&g, &DistBcConfig::default());
        for k in [2usize, 4] {
            // The leader rejects more shards than nodes.
            if k > g.n() {
                continue;
            }
            let out = run_wire(&g, &DistBcConfig::default(), k, None)
                .expect("wire run completes");
            assert_bit_identical(&out, &oracle, &format!("k={k}"));
        }
    }

    /// The same property through a lossy proxy: the reliable transport
    /// must absorb socket-level drops/duplication/reordering/corruption
    /// and still produce the oracle's exact results.
    #[test]
    fn socket_engine_survives_lossy_proxy(
        g in arb_connected_graph(16),
        plan in arb_fault_plan(),
    ) {
        let oracle = reliable_oracle(&g, &DistBcConfig::default());
        let out = run_wire(&g, &DistBcConfig::default(), 2, Some(&plan))
            .expect("wire run completes under the lossy proxy");
        prop_assert_eq!(&out.betweenness, &oracle.betweenness);
        prop_assert_eq!(&out.closeness, &oracle.closeness);
        prop_assert_eq!(out.diameter, oracle.diameter);
    }
}

/// Non-default configurations cross the SETUP wire intact: sampled
/// sources (the `--sample-seed` plumbing), sequential scheduling, and
/// stress centrality all reproduce their in-process counterparts.
#[test]
fn setup_options_round_trip_through_the_wire() {
    let g = generators::erdos_renyi_connected(18, 0.18, 7);
    let configs = [
        DistBcConfig {
            sources: SourceSelection::Sample { k: 6, seed: 42 },
            ..DistBcConfig::default()
        },
        DistBcConfig {
            compute_stress: true,
            ..DistBcConfig::default()
        },
        DistBcConfig {
            scheduling: bc_core::Scheduling::Sequential,
            ..DistBcConfig::default()
        },
    ];
    for (i, config) in configs.iter().enumerate() {
        let oracle = reliable_oracle(&g, config);
        let out = run_wire(&g, config, 3, None).expect("wire run completes");
        assert_bit_identical(&out, &oracle, &format!("config #{i}"));
    }
}

/// The leader's telemetry replay reproduces the in-process registry:
/// identical counter totals and round count for the same 2-shard
/// partition, so straggler detection and postmortems keep working
/// across processes.
#[test]
fn telemetry_replay_matches_in_process_totals() {
    let g = generators::erdos_renyi_connected(16, 0.2, 11);
    let t_oracle = Arc::new(Telemetry::new(2, 64));
    let oracle_cfg = DistBcConfig {
        reliable: true,
        threads: 2,
        telemetry: Some(t_oracle.clone()),
        ..DistBcConfig::default()
    };
    let oracle = run_distributed_bc(&g, oracle_cfg).expect("in-process run");

    let t_wire = Arc::new(Telemetry::new(2, 64));
    let wire_cfg = DistBcConfig {
        telemetry: Some(t_wire.clone()),
        ..DistBcConfig::default()
    };
    let out = run_wire(&g, &wire_cfg, 2, None).expect("wire run completes");
    assert_eq!(out.betweenness, oracle.betweenness);
    assert_eq!(out.rounds, oracle.rounds);

    let snap_oracle = t_oracle.snapshot();
    let snap_wire = t_wire.snapshot();
    for (c, name) in COUNTERS {
        assert_eq!(
            snap_wire.get(c),
            snap_oracle.get(c),
            "telemetry counter {name} diverged across the wire"
        );
    }
}

/// A single shard process degenerates to the serial engine: no peers,
/// same answer.
#[test]
fn single_shard_wire_run_works() {
    let g = generators::paper_figure1();
    let oracle = reliable_oracle(&g, &DistBcConfig::default());
    let out = run_wire(&g, &DistBcConfig::default(), 1, None).expect("wire run completes");
    assert_bit_identical(&out, &oracle, "k=1");
    assert!((out.betweenness[1] - 3.5).abs() < 1e-6);
}

/// Leader-side validation: more shards than nodes is a wire error, and
/// in-process fault plans are rejected before any socket is touched.
#[test]
fn leader_rejects_invalid_configurations() {
    let g = generators::cycle(4);
    let addrs: Vec<String> = (0..8)
        .map(|i| format!("tcp:127.0.0.1:{}", 59000 + i))
        .collect();
    let err = run_leader(&g, &DistBcConfig::default(), &addrs, false)
        .expect_err("8 shards for 4 nodes must fail");
    assert!(matches!(err, WireRunError::Net(_)), "unexpected: {err}");

    let cfg = DistBcConfig {
        faults: Some(FaultPlan::seeded(1)),
        ..DistBcConfig::default()
    };
    let err =
        run_leader(&g, &cfg, &addrs[..2], false).expect_err("fault plans are in-process only");
    assert!(matches!(err, WireRunError::Net(_)), "unexpected: {err}");
}
