//! The engines' wake calendar is exact for `DistBcNode`: a run that visits
//! only nodes with mail or a due `next_wake` timer steps exactly the nodes
//! a run polling `idle_at` every round steps, and produces the results,
//! metrics and trace of a run that steps every node every round.

use bc_congest::trace::{RingSink, TraceEvent};
use bc_congest::{Config, Counter, Message, NetMetrics, Network, Protocol, RoundCtx, Telemetry};
use bc_core::{
    AlgoOptions, DistBcNode, Estimator, PhaseSchedule, Scheduling, SourceIndex, SourceSelection,
};
use bc_graph::{Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

/// Random connected graph: a random recursive tree plus extra edges.
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n, any::<u64>(), 0usize..30).prop_map(|(n, seed, extra)| {
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

/// Forwards `idle_at` but not `next_wake`, so the engines poll it every
/// round and skip it exactly where `idle_at` says so.
struct Polling(DistBcNode);

impl Protocol for Polling {
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
        self.0.round(ctx, inbox);
    }
    fn is_halted(&self) -> bool {
        self.0.is_halted()
    }
    fn idle_at(&self, round: u64) -> bool {
        self.0.idle_at(round)
    }
}

/// The `DistBcNode` inside a run's node type.
trait Inner {
    fn inner(&self) -> &DistBcNode;
}

impl Inner for DistBcNode {
    fn inner(&self) -> &DistBcNode {
        self
    }
}

impl Inner for Polling {
    fn inner(&self) -> &DistBcNode {
        &self.0
    }
}

/// What one run shows: rounds, metrics, the trace (empty if untraced),
/// telemetry's `NodesStepped`, and each node's dependency sums.
#[derive(Debug, PartialEq)]
struct Outcome {
    rounds: u64,
    metrics: NetMetrics,
    events: Vec<TraceEvent>,
    nodes_stepped: u64,
    /// `(δ, δ_in, stress)` bit patterns per node.
    sums: Vec<(u64, u64, Option<u64>)>,
}

fn run<P: Protocol + Inner + Send>(
    g: &Graph,
    cfg: Config,
    threads: usize,
    traced: bool,
    max_rounds: u64,
    factory: impl FnMut(NodeId, &Graph) -> P,
) -> Outcome {
    let telemetry = Arc::new(Telemetry::new(2, 4));
    let mut net = Network::new(g, cfg, factory);
    net.set_telemetry(telemetry.clone());
    if traced {
        net.set_trace_sink(Box::new(RingSink::new(1 << 22)));
    }
    let report = if threads > 1 {
        net.run_parallel(max_rounds, threads)
    } else {
        net.run(max_rounds)
    }
    .expect("runs");
    let events = net
        .take_trace_sink()
        .map_or_else(Vec::new, |mut s| s.drain_events());
    let metrics = net.metrics().clone();
    let sums = net
        .into_nodes()
        .iter()
        .map(|p| {
            let node = p.inner();
            (
                node.delta_all().to_bits(),
                node.delta_in().to_bits(),
                node.stress().map(f64::to_bits),
            )
        })
        .collect();
    Outcome {
        rounds: report.rounds,
        metrics,
        events,
        nodes_stepped: telemetry.snapshot().get(Counter::NodesStepped),
        sums,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wake_calendar_is_exact(
        g in arb_connected_graph(20),
        k in 1usize..20,
        seed in any::<u64>(),
    ) {
        let n = g.n();
        let sample = SourceSelection::Sample { k: k.min(n), seed };
        // (sources, estimator, stress): all sources, a sample, a sample
        // under Ji–Yan, and the stress extension.
        let variants = [
            (SourceSelection::All, Estimator::Scaled, false),
            (sample.clone(), Estimator::Scaled, false),
            (sample, Estimator::JiYan, false),
            (SourceSelection::All, Estimator::Scaled, true),
        ];
        let modes = [Scheduling::DfsPipelined, Scheduling::Sequential];
        for (sources, estimator, compute_stress) in variants {
            for scheduling in modes {
                let sched = PhaseSchedule::new(n, scheduling);
                let opts = AlgoOptions {
                    scheduling,
                    compute_stress,
                    estimator,
                    source_index: Some(Arc::new(SourceIndex::build(&sources, n))),
                    sources: sources.clone(),
                    ..AlgoOptions::for_graph_size(n)
                };
                let node = |v: NodeId, _: &Graph| DistBcNode::new(n, v, opts.clone());
                let max_rounds = sched.max_rounds();
                for threads in [0usize, 2] {
                    let label = format!("{scheduling:?} {estimator:?} stress={compute_stress} threads={threads}");
                    let cfg = |skip_idle| Config { skip_idle, ..Config::default() };
                    let calendar = run(&g, cfg(true), threads, true, max_rounds, node);
                    let every = run(&g, cfg(false), threads, true, max_rounds, node);
                    prop_assert_eq!(calendar.rounds, every.rounds, "{}", label);
                    prop_assert_eq!(&calendar.metrics, &every.metrics, "{}", label);
                    prop_assert_eq!(&calendar.sums, &every.sums, "{}", label);
                    prop_assert!(calendar.events == every.events, "trace differs: {}", label);
                    // Untraced runs: the polled wrapper must step the same nodes.
                    let untraced = run(&g, cfg(true), threads, false, max_rounds, node);
                    let polled = run(
                        &g,
                        cfg(true),
                        threads,
                        false,
                        max_rounds,
                        |v, gg| Polling(node(v, gg)),
                    );
                    prop_assert_eq!(&untraced, &polled, "{}", label);
                    prop_assert_eq!(untraced.nodes_stepped, calendar.nodes_stepped, "{}", label);
                    prop_assert!(calendar.nodes_stepped < every.nodes_stepped, "{}", label);
                }
            }
        }
    }
}
