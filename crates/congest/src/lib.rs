//! Synchronous CONGEST-model network simulator.
//!
//! The paper's algorithms are analyzed in the classical synchronous
//! CONGEST model (Peleg, *Distributed Computing: A Locality-Sensitive
//! Approach*): nodes wake simultaneously, communicate on globally
//! synchronized pulses, and may send at most one `O(log N)`-bit message per
//! incident edge per round. Time complexity is the number of rounds.
//!
//! This crate simulates that model *exactly* and makes its constraints
//! observable:
//!
//! * every message payload is a real bit string ([`Message`]) whose length
//!   is charged against a `Θ(log N)` budget ([`Budget`]);
//! * the engine counts messages per (edge, direction, round) so schedule
//!   collisions (what the paper's Lemma 4 rules out) are detected, not
//!   assumed;
//! * executions report [`NetMetrics`] — rounds, bits, maximum message size,
//!   bit flow across a declared [`EdgeCut`] (used by the lower-bound
//!   experiments E8).
//!
//! Every run is one deterministic shard round loop: [`Network::run`] is
//! its one-shard case on the calling thread, [`Network::run_parallel`]
//! steps the shards on a crossbeam pool, and the socket shards of
//! [`wire`] run it across processes; every shard count produces
//! identical results.
//!
//! # Example: BFS flooding in the CONGEST model
//!
//! ```
//! use bc_congest::{Config, Message, Network, Protocol, RoundCtx};
//! use bc_graph::generators;
//! use bc_numeric::bits::BitWriter;
//!
//! /// Each node learns its distance from node 0 by flooding.
//! struct Flood { dist: Option<u64>, announced: bool }
//!
//! impl Protocol for Flood {
//!     fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
//!         if ctx.round() == 0 && ctx.id() == 0 {
//!             self.dist = Some(0);
//!         }
//!         for (_, msg) in inbox {
//!             let d = msg.payload().reader().read(32);
//!             if self.dist.is_none() {
//!                 self.dist = Some(d + 1);
//!             }
//!         }
//!         if let (Some(d), false) = (self.dist, self.announced) {
//!             self.announced = true;
//!             let mut w = BitWriter::new();
//!             w.push(d, 32);
//!             ctx.broadcast(&Message::new(w.finish()));
//!         }
//!     }
//!     fn is_halted(&self) -> bool { self.announced }
//! }
//!
//! let g = generators::cycle(8);
//! let mut net = Network::new(&g, Config::default(), |_, _| Flood { dist: None, announced: false });
//! let report = net.run(100)?;
//! // Radius 4: the last node announces in round 4; its messages are
//! // consumed in round 5, and the engine observes quiescence after round 6.
//! assert_eq!(report.rounds, 6);
//! assert_eq!(net.node(4).dist, Some(4));
//! assert!(net.metrics().congest_compliant());
//! # Ok::<(), bc_congest::CongestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynchronous;
pub mod faults;
pub mod json;
mod message;
mod metrics;
mod network;
pub mod partition;
pub mod profile;
pub mod telemetry;
pub mod trace;
mod wake;
pub mod wire;

pub use faults::{CrashWindow, FaultDecision, FaultPlan};
pub use message::Message;
pub use metrics::{EdgeCut, NetMetrics, PhaseStat};
pub use network::{
    canonical_abort, panic_message, Budget, Config, CongestError, Enforcement, Network, Protocol,
    RoundCtx, RunReport,
};
pub use partition::{ShardMap, ShardSkew};
pub use profile::{PhaseSpan, ProfileReport, Straggler, SyncStats, WorkerStats};
pub use telemetry::{
    Counter, Postmortem, ProfRow, RoundRecord, StragglerBaseline, Telemetry, TelemetryHandle,
    SCHEMA_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::{generators, Graph};
    use bc_numeric::bits::BitWriter;
    use trace::TraceEvent;

    fn msg(v: u64, width: u32) -> Message {
        let mut w = BitWriter::new();
        w.push(v, width);
        Message::new(w.finish())
    }

    /// Flood distances from node 0.
    struct Flood {
        dist: Option<u64>,
        announced: bool,
    }

    impl Flood {
        fn new() -> Self {
            Flood {
                dist: None,
                announced: false,
            }
        }
    }

    impl Protocol for Flood {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
            if ctx.round() == 0 && ctx.id() == 0 {
                self.dist = Some(0);
            }
            for (_, m) in inbox {
                let d = m.payload().reader().read(32);
                if self.dist.is_none() {
                    self.dist = Some(d + 1);
                }
            }
            if let (Some(d), false) = (self.dist, self.announced) {
                self.announced = true;
                ctx.broadcast(&msg(d, 32));
            }
        }

        fn is_halted(&self) -> bool {
            self.announced
        }
    }

    /// A deliberately broken protocol that double-sends on port 0.
    struct DoubleSender {
        fired: bool,
    }

    impl Protocol for DoubleSender {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, _inbox: &[(usize, Message)]) {
            if !self.fired && ctx.id() == 0 {
                ctx.send(0, msg(1, 8));
                ctx.send(0, msg(2, 8));
            }
            self.fired = true;
        }

        fn is_halted(&self) -> bool {
            self.fired
        }
    }

    /// Sends one oversized message from node 0.
    struct BigSender {
        fired: bool,
    }

    impl Protocol for BigSender {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, _inbox: &[(usize, Message)]) {
            if !self.fired && ctx.id() == 0 {
                let mut w = BitWriter::new();
                for _ in 0..100 {
                    w.push(u64::MAX, 64);
                }
                ctx.send(0, Message::new(w.finish()));
            }
            self.fired = true;
        }

        fn is_halted(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn flood_computes_distances_on_path() {
        let g = generators::path(10);
        let mut net = Network::new(&g, Config::default(), |_, _| Flood::new());
        let report = net.run(1000).unwrap();
        for v in 0..10u32 {
            assert_eq!(net.node(v).dist, Some(v as u64));
        }
        // The distance-9 node announces in round 9; its message is consumed
        // in round 10; the engine observes quiescence entering round 11.
        assert_eq!(report.rounds, 11);
        assert!(net.metrics().congest_compliant());
        assert_eq!(net.metrics().max_messages_per_edge_round, 1);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::erdos_renyi_connected(60, 0.05, 9);
        let mut serial = Network::new(&g, Config::default(), |_, _| Flood::new());
        serial.run(10_000).unwrap();
        for threads in [1, 2, 3, 8] {
            let mut par = Network::new(&g, Config::default(), |_, _| Flood::new());
            par.run_parallel(10_000, threads).unwrap();
            for v in g.nodes() {
                assert_eq!(par.node(v).dist, serial.node(v).dist, "thread={threads}");
            }
            assert_eq!(par.metrics(), serial.metrics());
        }
    }

    #[test]
    fn collision_detected_strict() {
        let g = generators::path(3);
        let mut net = Network::new(&g, Config::default(), |_, _| DoubleSender { fired: false });
        let err = net.run(10).unwrap_err();
        assert!(matches!(
            err,
            CongestError::Collision {
                node: 0,
                port: 0,
                round: 0
            }
        ));
        assert!(err.to_string().contains("collision"));
    }

    #[test]
    fn collision_recorded_lenient() {
        let g = generators::path(3);
        let cfg = Config {
            enforcement: Enforcement::Record,
            ..Config::default()
        };
        let mut net = Network::new(&g, cfg, |_, _| DoubleSender { fired: false });
        net.run(10).unwrap();
        assert_eq!(net.metrics().collisions, 1);
        assert_eq!(net.metrics().max_messages_per_edge_round, 2);
        assert!(!net.metrics().congest_compliant());
    }

    #[test]
    fn oversized_detected_strict() {
        let g = generators::path(2);
        let mut net = Network::new(&g, Config::default(), |_, _| BigSender { fired: false });
        let err = net.run(10).unwrap_err();
        assert!(matches!(err, CongestError::Oversized { node: 0, .. }));
        assert!(err.to_string().contains("oversized"));
    }

    #[test]
    fn oversized_allowed_unlimited() {
        let g = generators::path(2);
        let cfg = Config {
            budget: Budget::Unlimited,
            ..Config::default()
        };
        let mut net = Network::new(&g, cfg, |_, _| BigSender { fired: false });
        net.run(10).unwrap();
        assert_eq!(net.metrics().oversized_messages, 0);
        assert_eq!(net.metrics().max_message_bits, 6400);
    }

    #[test]
    fn round_limit_error() {
        /// Never halts.
        struct Chatter;
        impl Protocol for Chatter {
            fn round(&mut self, ctx: &mut RoundCtx<'_>, _: &[(usize, Message)]) {
                let m = msg(ctx.round() & 0xFF, 8);
                ctx.broadcast(&m);
            }
            fn is_halted(&self) -> bool {
                false
            }
        }
        let g = generators::cycle(4);
        let mut net = Network::new(&g, Config::default(), |_, _| Chatter);
        assert_eq!(net.run(5), Err(CongestError::RoundLimit { max_rounds: 5 }));
        assert!(net.run(5).unwrap_err().to_string().contains("halt"));
    }

    #[test]
    fn budget_resolution() {
        assert_eq!(Budget::Auto.resolve(1024), Some(8 * 10 + 64));
        assert_eq!(Budget::Bits(100).resolve(7), Some(100));
        assert_eq!(Budget::Unlimited.resolve(1000), None);
    }

    #[test]
    fn cut_flow_accounting() {
        // Path 0-1-2-3: cut between 1 and 2.
        let g = generators::path(4);
        let cfg = Config {
            cut: Some(EdgeCut::new([(1, 2)])),
            ..Config::default()
        };
        let mut net = Network::new(&g, cfg, |_, _| Flood::new());
        net.run(100).unwrap();
        // Exactly two messages cross the cut: flood 1→2 and 2's own
        // broadcast back 2→1.
        assert_eq!(net.metrics().cut_messages, 2);
        assert_eq!(net.metrics().cut_bits, 64);
    }

    #[test]
    fn ctx_topology_accessors() {
        struct Probe {
            checked: bool,
        }
        impl Protocol for Probe {
            fn round(&mut self, ctx: &mut RoundCtx<'_>, _: &[(usize, Message)]) {
                if ctx.id() == 1 {
                    assert_eq!(ctx.degree(), 2);
                    assert_eq!(ctx.neighbor(0), 0);
                    assert_eq!(ctx.neighbor(1), 2);
                    assert_eq!(ctx.port_of(2), Some(1));
                    assert_eq!(ctx.port_of(9), None);
                    assert_eq!(ctx.n(), 3);
                }
                self.checked = true;
            }
            fn is_halted(&self) -> bool {
                self.checked
            }
        }
        let g = generators::path(3);
        let mut net = Network::new(&g, Config::default(), |_, _| Probe { checked: false });
        net.run(10).unwrap();
        assert!(net.node(1).checked);
    }

    #[test]
    fn into_nodes_returns_states() {
        let g = generators::path(4);
        let mut net = Network::new(&g, Config::default(), |_, _| Flood::new());
        net.run(100).unwrap();
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[3].dist, Some(3));
    }

    #[test]
    fn isolated_node_graph_runs() {
        // Nodes 1 and 2 are unreachable: they never announce, so the flood
        // protocol cannot halt — the engine reports the round limit rather
        // than spinning forever.
        let g = Graph::from_edges(3, []).unwrap();
        let mut net = Network::new(&g, Config::default(), |_, _| Flood::new());
        assert_eq!(
            net.run(10),
            Err(CongestError::RoundLimit { max_rounds: 10 })
        );
        assert_eq!(net.node(0).dist, Some(0));
        assert_eq!(net.node(1).dist, None);
    }

    #[test]
    fn send_on_bad_port_is_a_node_panic_error() {
        struct Bad;
        impl Protocol for Bad {
            fn round(&mut self, ctx: &mut RoundCtx<'_>, _: &[(usize, Message)]) {
                ctx.send(5, Message::default());
            }
            fn is_halted(&self) -> bool {
                false
            }
        }
        let g = generators::path(2);
        let mut net = Network::new(&g, Config::default(), |_, _| Bad);
        match net.run(1) {
            Err(CongestError::NodePanic {
                node: 0,
                round: 0,
                message,
            }) => assert!(message.contains("nonexistent port 5"), "{message}"),
            other => panic!("expected NodePanic, got {other:?}"),
        }
    }

    /// Runs one protocol state per node as two socket shards on threads,
    /// over a `unix:` listener, and joins their outcomes the way the wire
    /// leader does.
    fn socket_run<P: Protocol + Send>(
        g: &Graph,
        max_rounds: u64,
        make: impl Fn() -> P + Sync,
    ) -> Result<RunReport, CongestError> {
        use wire::{ShardEngineConfig, WireListener, WireStream};
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("bc-congest-lib-{}-{run}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let listener = WireListener::bind(&addr).unwrap();
        let map = ShardMap::new(g.n(), 2);
        let cfg = ShardEngineConfig {
            budget_bits: Budget::Auto.resolve(g.n()),
            strict: true,
            skip_idle: true,
            max_rounds,
        };
        let shard = |me: usize, peer: WireStream| {
            let mut peers = [None, None];
            peers[1 - me] = Some(peer);
            let nodes = map.shards()[me].iter().map(|_| make()).collect();
            wire::run_shard_engine(g, &map, me, &cfg, nodes, &mut peers, None).unwrap()
        };
        let outcomes = std::thread::scope(|s| {
            let dialer = s.spawn(|| shard(1, WireStream::connect(&addr).unwrap()));
            let first = shard(0, listener.accept().unwrap());
            [first, dialer.join().unwrap()]
        });
        let committed = outcomes[0].committed;
        canonical_abort(
            outcomes.iter().map(|o| (&o.panic, o.first_error.as_ref())),
            committed,
        )?;
        match outcomes[0].verdict {
            wire::VERDICT_ROUND_LIMIT => Err(CongestError::RoundLimit { max_rounds }),
            _ => Ok(RunReport { rounds: committed }),
        }
    }

    #[test]
    fn node_panic_names_same_node_and_round_on_both_engines() {
        // Nodes 3 and up misbehave in round 2 — they panic, or send twice
        // on port 0. Every engine, thread count and the socket shards must
        // report node 3 in round 2, not abort the process, and not report
        // a higher-id node that misbehaved too; a run cut short by its
        // round limit reports that limit everywhere.
        struct Fused {
            collide: bool,
        }
        impl Protocol for Fused {
            fn round(&mut self, ctx: &mut RoundCtx<'_>, _: &[(usize, Message)]) {
                if ctx.round() == 2 && ctx.id() >= 3 {
                    if !self.collide {
                        panic!("fuse blown at node {}", ctx.id());
                    }
                    ctx.send(0, msg(1, 8));
                    ctx.send(0, msg(2, 8));
                }
            }
            fn is_halted(&self) -> bool {
                false
            }
        }
        let g = generators::cycle(8);
        let cases = [
            (
                false,
                10,
                CongestError::NodePanic {
                    node: 3,
                    round: 2,
                    message: "fuse blown at node 3".to_string(),
                },
            ),
            (
                true,
                10,
                CongestError::Collision {
                    node: 3,
                    port: 0,
                    round: 2,
                },
            ),
            (false, 2, CongestError::RoundLimit { max_rounds: 2 }),
        ];
        for (collide, max_rounds, expected) in cases {
            let expected = Err(expected);
            let make = || Fused { collide };
            let mut serial = Network::new(&g, Config::default(), |_, _| make());
            assert_eq!(serial.run(max_rounds), expected);
            for threads in [1, 2, 3, 8] {
                let mut par = Network::new(&g, Config::default(), |_, _| make());
                assert_eq!(
                    par.run_parallel(max_rounds, threads),
                    expected,
                    "threads={threads}"
                );
            }
            assert_eq!(socket_run(&g, max_rounds, make), expected, "sockets");
        }
    }

    #[test]
    fn a_panicking_trace_sink_fails_a_pooled_run_instead_of_hanging() {
        // The sink lives on worker 0, which settles rounds while its peers
        // wait at the barrier: they must not wait for it forever.
        struct Bomb;
        impl trace::TraceSink for Bomb {
            fn event(&mut self, event: &TraceEvent) {
                assert!(
                    !matches!(event, TraceEvent::RoundStart { round: 2 }),
                    "sink failed"
                );
            }
        }
        let g = generators::cycle(8);
        let mut net = Network::new(&g, Config::default(), |_, _| Flood::new());
        net.set_trace_sink(Box::new(Bomb));
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.run_parallel(100, 3)));
        assert!(run.is_err());
    }

    #[test]
    fn idle_skipping_is_observationally_free() {
        // Flood keeps the default `idle_at` (never skipped); wrap it in a
        // protocol that *does* declare idleness and check that skipping on
        // vs off changes nothing (results, metrics, rounds).
        struct IdleAware(Flood);
        impl Protocol for IdleAware {
            fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
                // Flood only acts on round 0 (the source announce) or on
                // arriving messages, so idle_at below is honest.
                self.0.round(ctx, inbox);
            }
            fn is_halted(&self) -> bool {
                self.0.is_halted()
            }
            fn idle_at(&self, round: u64) -> bool {
                round > 0
            }
        }
        let g = generators::erdos_renyi_connected(24, 0.15, 11);
        let run = |skip_idle: bool, threads: usize| {
            let cfg = Config {
                skip_idle,
                ..Config::default()
            };
            let mut net = Network::new(&g, cfg, |_, _| IdleAware(Flood::new()));
            let report = if threads == 0 {
                net.run(200).unwrap()
            } else {
                net.run_parallel(200, threads).unwrap()
            };
            let metrics = net.metrics().clone();
            let dists: Vec<_> = net.into_nodes().into_iter().map(|f| f.0.dist).collect();
            (report, metrics, dists)
        };
        let baseline = run(false, 0);
        for threads in [0, 1, 3] {
            assert_eq!(run(true, threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn run_rounds_steps_exactly() {
        let g = generators::path(5);
        let mut net = Network::new(&g, Config::default(), |_, _| Flood::new());
        net.run_rounds(2).unwrap();
        assert_eq!(net.metrics().rounds, 2);
        assert_eq!(net.node(1).dist, Some(1));
        assert_eq!(net.node(3).dist, None);
    }

    #[test]
    fn pooled_run_resumes_a_serial_run_with_delayed_mail_in_flight() {
        // A serial prefix leaves fault-delayed messages and pre-filled
        // inboxes behind; pooled runs must finish it exactly as one serial
        // run does.
        let g = generators::erdos_renyi_connected(40, 0.1, 3);
        let plan = FaultPlan::parse("seed=5,dup=0.2,delay=0.4:3").unwrap();
        let cfg = Config {
            faults: Some(plan.clone()),
            ..Config::default()
        };
        let traced = || {
            let mut net = Network::new(&g, cfg.clone(), |_, _| Flood::new());
            net.set_trace_sink(Box::new(trace::RingSink::new(1 << 20)));
            net
        };
        let mut serial = traced();
        serial.run(10_000).unwrap();
        let dists = |net: &Network<Flood>| g.nodes().map(|v| net.node(v).dist).collect::<Vec<_>>();
        let serial_events = serial.take_trace_sink().unwrap().drain_events();
        let prefix = 3;
        // Messages the prefix sent that the pooled run still delivers:
        // clean ones sent in its last round (pre-filled inboxes), and
        // delayed ones due from the switch round on.
        let (mut prefilled, mut delayed) = (0, 0);
        for e in &serial_events {
            if let TraceEvent::MessageSent {
                round, from, to, ..
            } = *e
            {
                let d = plan.decide(from, to, round);
                prefilled += usize::from(round + 1 == prefix && d.is_clean());
                delayed += usize::from(d.delay > 0 && !d.drop && round + 1 + d.delay >= prefix);
            }
        }
        assert!(prefilled > 0 && delayed > 0, "{prefilled} {delayed}");
        for threads in [2, 3] {
            let mut net = traced();
            net.run_rounds(prefix).unwrap();
            net.run_parallel(10_000, threads).unwrap();
            assert_eq!(dists(&net), dists(&serial), "threads={threads}");
            assert_eq!(net.metrics(), serial.metrics(), "threads={threads}");
            let events = net.take_trace_sink().unwrap().drain_events();
            assert_eq!(events, serial_events, "threads={threads}");
        }
    }

    /// Folds every message it hears, in inbox order, into a running hash
    /// and broadcasts the hash each round before `stop`.
    struct Gossip {
        hash: u64,
        stop: u64,
        done: bool,
    }

    impl Protocol for Gossip {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
            for (port, m) in inbox {
                let word = (*port as u64) << 32 | m.payload().reader().read(32);
                self.hash = self.hash.wrapping_mul(0x100_0000_01b3).wrapping_add(word);
            }
            if ctx.round() < self.stop {
                ctx.broadcast(&msg((self.hash ^ u64::from(ctx.id())) & 0xffff_ffff, 32));
            }
            self.done = ctx.round() + 1 >= self.stop;
        }

        fn is_halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn chunked_runs_end_like_one_run() {
        // A run stopped by its round limit at random cuts and re-entered,
        // with fault-delayed mail and pre-filled inboxes in flight at every
        // cut, must end exactly like one unchunked run: node states,
        // metrics and trace events, for `run` and `run_parallel`.
        use rand::{Rng, SeedableRng};
        const STOP: u64 = 12;
        for seed in 0..4u64 {
            let g = generators::erdos_renyi_connected(36, 0.12, seed);
            let plan =
                FaultPlan::parse(&format!("seed={seed},drop=0.05,dup=0.2,delay=0.4:3")).unwrap();
            let cfg = Config {
                faults: Some(plan.clone()),
                ..Config::default()
            };
            let traced = || {
                let mut net = Network::new(&g, cfg.clone(), |_, _| Gossip {
                    hash: 0,
                    stop: STOP,
                    done: false,
                });
                net.set_trace_sink(Box::new(trace::RingSink::new(1 << 20)));
                net
            };
            let hashes =
                |net: &Network<Gossip>| g.nodes().map(|v| net.node(v).hash).collect::<Vec<_>>();
            let mut one = traced();
            let report = one.run(10_000).unwrap();
            let events = one.take_trace_sink().unwrap().drain_events();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut cuts: Vec<u64> = (0..3).map(|_| rng.gen_range(1..=STOP)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            for &cut in &cuts {
                // Sent before the cut, delivered after it: clean messages
                // of its last round sit in the inboxes, delayed ones wait.
                let (mut prefilled, mut delayed) = (0, 0);
                for e in &events {
                    if let TraceEvent::MessageSent {
                        round, from, to, ..
                    } = *e
                    {
                        let d = plan.decide(from, to, round);
                        prefilled += usize::from(round + 1 == cut && d.is_clean());
                        delayed += usize::from(
                            d.delay > 0 && !d.drop && round < cut && round + 1 + d.delay >= cut,
                        );
                    }
                }
                assert!(prefilled > 0 && delayed > 0, "seed {seed} cut {cut}");
            }
            for threads in [None, Some(3)] {
                let tag = format!("seed {seed} cuts {cuts:?} threads {threads:?}");
                let mut net = traced();
                let run = |net: &mut Network<Gossip>, limit| match threads {
                    None => net.run(limit),
                    Some(t) => net.run_parallel(limit, t),
                };
                for &cut in &cuts {
                    let limit = Err(CongestError::RoundLimit { max_rounds: cut });
                    assert_eq!(run(&mut net, cut), limit, "{tag}");
                }
                assert_eq!(run(&mut net, 10_000), Ok(report), "{tag}");
                assert_eq!(hashes(&net), hashes(&one), "{tag}");
                assert_eq!(net.metrics(), one.metrics(), "{tag}");
                assert_eq!(
                    net.take_trace_sink().unwrap().drain_events(),
                    events,
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn network_debug_nonempty() {
        let g = generators::path(2);
        let net = Network::new(&g, Config::default(), |_, _| Flood::new());
        assert!(format!("{net:?}").contains("Network"));
    }

    #[test]
    fn tracing_does_not_change_execution() {
        let g = generators::erdos_renyi_connected(40, 0.08, 3);
        let mut plain = Network::new(&g, Config::default(), |_, _| Flood::new());
        let plain_rounds = plain.run(10_000).unwrap().rounds;
        let mut traced = Network::new(&g, Config::default(), |_, _| Flood::new());
        traced.set_trace_sink(Box::new(trace::RingSink::new(1 << 16)));
        let traced_rounds = traced.run(10_000).unwrap().rounds;
        assert_eq!(plain_rounds, traced_rounds);
        assert_eq!(plain.metrics(), traced.metrics());
        for v in g.nodes() {
            assert_eq!(plain.node(v).dist, traced.node(v).dist);
        }
    }

    #[test]
    fn serial_and_parallel_emit_identical_event_streams() {
        let g = generators::erdos_renyi_connected(50, 0.07, 11);
        let mut serial = Network::new(&g, Config::default(), |_, _| Flood::new());
        serial.set_trace_sink(Box::new(trace::RingSink::new(1 << 20)));
        serial.run(10_000).unwrap();
        let serial_events = serial.take_trace_sink().unwrap().drain_events();
        assert!(!serial_events.is_empty());
        for threads in [2, 5] {
            let mut par = Network::new(&g, Config::default(), |_, _| Flood::new());
            par.set_trace_sink(Box::new(trace::RingSink::new(1 << 20)));
            par.run_parallel(10_000, threads).unwrap();
            let par_events = par.take_trace_sink().unwrap().drain_events();
            assert_eq!(serial_events, par_events, "threads={threads}");
        }
    }

    #[test]
    fn traced_run_passes_offline_checks() {
        let g = generators::erdos_renyi_connected(30, 0.1, 5);
        let mut net = Network::new(&g, Config::default(), |_, _| Flood::new());
        let mut events = vec![TraceEvent::Topology {
            n: g.n(),
            edges: g.edges().collect(),
        }];
        net.set_trace_sink(Box::new(trace::RingSink::new(1 << 20)));
        net.run(10_000).unwrap();
        events.extend(net.take_trace_sink().unwrap().drain_events());
        let report = trace::check::check(&events);
        assert!(report.ok(), "{report}");
        assert_eq!(report.messages, net.metrics().total_messages);
    }

    #[test]
    fn violations_are_traced() {
        let g = generators::path(3);
        let cfg = Config {
            enforcement: Enforcement::Record,
            ..Config::default()
        };
        let mut net = Network::new(&g, cfg, |_, _| DoubleSender { fired: false });
        net.set_trace_sink(Box::new(trace::RingSink::new(1024)));
        net.run(10).unwrap();
        let events = net.take_trace_sink().unwrap().drain_events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::ViolationDetected {
                node: 0,
                kind: trace::ViolationKind::Collision { port: 0 },
                ..
            }
        )));
        let report = trace::check::check(&events);
        assert!(!report.ok());
    }

    #[test]
    fn synchronizer_trace_matches_on_content() {
        use std::collections::BTreeSet;
        let g = generators::erdos_renyi_connected(20, 0.15, 7);
        let mut sync = Network::new(&g, Config::default(), |_, _| Flood::new());
        sync.set_trace_sink(Box::new(trace::RingSink::new(1 << 20)));
        let rounds = sync.run(10_000).unwrap().rounds;
        let sync_events = sync.take_trace_sink().unwrap().drain_events();
        let (_, _, options) = asynchronous::run_synchronized_with(
            &g,
            asynchronous::AsyncConfig::default(),
            rounds,
            |_, _| Flood::new(),
            asynchronous::SyncOptions {
                sink: Some(Box::new(trace::RingSink::new(1 << 20))),
                ..Default::default()
            },
        );
        let async_events = options.sink.unwrap().drain_events();
        // The synchronizer emits events in asynchronous schedule order;
        // the multiset of message sends must match the synchronous run.
        let key = |es: &[TraceEvent]| -> BTreeSet<(u64, u32, u32, usize)> {
            es.iter()
                .filter_map(|e| match *e {
                    TraceEvent::MessageSent {
                        round,
                        from,
                        to,
                        bits,
                        ..
                    } => Some((round, from, to, bits)),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(key(&sync_events), key(&async_events));
        assert_eq!(
            sync_events
                .iter()
                .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
                .count(),
            async_events
                .iter()
                .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
                .count()
        );
    }
}
