//! Sharding must be observationally free: every worker count must produce
//! bit-identical results *and* bit-identical trace event streams vs the
//! serial engine — on clean networks and over a lossy network behind the
//! reliable transport. The sharded data plane
//! (per-destination outboxes, barrier drain, canonical merge order) is
//! only allowed to change wall-clock, never a single observable bit.

use bc_congest::trace::{RingSink, TraceEvent, TraceSink};
use bc_congest::FaultPlan;
use bc_core::{run, run_distributed_bc, DistBcConfig, Instruments};
use bc_graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 7];

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

/// Runs with a ring sink attached and returns the full event stream
/// alongside the result.
fn run_traced(g: &Graph, cfg: DistBcConfig) -> (bc_core::DistBcResult, Vec<TraceEvent>) {
    let sink: Box<dyn TraceSink> = Box::new(RingSink::new(1 << 22));
    let instruments = Instruments {
        trace: Some(sink),
        profile: false,
    };
    let run = run(g, cfg, instruments).expect("traced run succeeds");
    (run.result, run.trace.expect("sink returned").drain_events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Clean network: every thread count reproduces the serial
    /// betweenness/closeness/diameter and the serial trace, bit for bit.
    #[test]
    fn partitioning_is_observationally_free(g in arb_connected_graph(22)) {
        let (serial, serial_events) = run_traced(&g, DistBcConfig::default());
        for threads in THREADS {
            let (par, par_events) = run_traced(
                &g,
                DistBcConfig { threads, ..DistBcConfig::default() },
            );
            let tag = format!("threads={threads}");
            prop_assert_eq!(&serial.betweenness, &par.betweenness, "{}", &tag);
            prop_assert_eq!(&serial.closeness, &par.closeness, "{}", &tag);
            prop_assert_eq!(serial.diameter, par.diameter, "{}", &tag);
            prop_assert_eq!(serial.rounds, par.rounds, "{}", &tag);
            prop_assert_eq!(&serial.metrics, &par.metrics, "{}", &tag);
            prop_assert_eq!(&serial_events, &par_events, "{}", &tag);
        }
    }

    /// Lossy network behind the reliable transport: the same guarantee
    /// holds, including the physical (retransmission-bearing) trace.
    #[test]
    fn partitioning_is_observationally_free_under_faults(
        g in arb_connected_graph(18),
        seed in any::<u64>(),
        drop_pct in 0u32..=15,
        dup_pct in 0u32..=20,
    ) {
        let plan = FaultPlan {
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            delay: 0.1,
            max_delay: 3,
            ..FaultPlan::seeded(seed)
        };
        let faulty = |threads: usize| DistBcConfig {
            faults: Some(plan.clone()),
            reliable: true,
            threads,
            ..DistBcConfig::default()
        };
        let (serial, serial_events) = run_traced(&g, faulty(0));
        // The transport must also have recovered the fault-free answer.
        let clean = run_distributed_bc(&g, DistBcConfig::default()).expect("clean run");
        prop_assert_eq!(&clean.betweenness, &serial.betweenness);
        for threads in THREADS {
            let (par, par_events) = run_traced(&g, faulty(threads));
            let tag = format!("threads={threads}");
            prop_assert_eq!(&serial.betweenness, &par.betweenness, "{}", &tag);
            prop_assert_eq!(&serial.closeness, &par.closeness, "{}", &tag);
            prop_assert_eq!(serial.diameter, par.diameter, "{}", &tag);
            prop_assert_eq!(&serial.metrics, &par.metrics, "{}", &tag);
            prop_assert_eq!(&serial_events, &par_events, "{}", &tag);
        }
    }
}

/// Deterministic spot check at a fixed size large enough for every
/// thread count to get a populated shard.
#[test]
fn thread_counts_agree_on_fixed_graph() {
    let g = bc_graph::generators::barabasi_albert(48, 2, 7);
    let serial = run_distributed_bc(&g, DistBcConfig::default()).expect("serial");
    for threads in [2usize, 4, 8] {
        let par = run_distributed_bc(
            &g,
            DistBcConfig {
                threads,
                ..DistBcConfig::default()
            },
        )
        .expect("parallel");
        assert_eq!(serial.betweenness, par.betweenness, "threads={threads}");
        assert_eq!(serial.metrics, par.metrics);
    }
}
