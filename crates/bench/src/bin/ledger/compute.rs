//! The three compute workloads. The unit of work is one distributed
//! betweenness run, timed end to end through the public driver entry point
//! (`run_distributed_bc`, or `run_leader` over two socket shards). The
//! traced pass then rebuilds the same run from public pieces with every node
//! step timed, and checks that the replica's `NetMetrics` equal the driver
//! run's.

use crate::measure::{median, remove_socket, repeat_timed, setup_reps, socket_addr, Reps, Tracer};
use crate::timed::{Sampler, StepStats, Timed, PHASES};
use crate::{Ctx, Job, Outcome};
use bc_brandes::betweenness_f64;
use bc_congest::{Budget, Config, CongestError, Message, NetMetrics, Network, Protocol, Telemetry};
use bc_core::transport::{Reliable, ReliableConfig, TransportStats, HEADER_BITS};
use bc_core::wire::{run_leader, serve_shard};
use bc_core::{
    run_distributed_bc, AlgoOptions, Codec, DistBcConfig, DistBcNode, DistBcResult, PhaseSchedule,
    Scheduling, SourceIndex, SourceSelection,
};
use bc_graph::{generators, Graph};
use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Flight-recorder depth of the CLI's always-on telemetry.
const TELEMETRY_RING: usize = 64;

/// Roughly how many inbound messages the traced pass keeps for replaying
/// the codec.
const CODEC_SAMPLES: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All sources, serial.
    Exact,
    /// `k` sampled sources, serial.
    Sampled,
    /// All sources over two socket shards (always reliable).
    Shards,
}

pub struct Compute {
    kind: Kind,
    seed: u64,
    n: usize,
    /// Edge probability (`Kind::Exact` only).
    p: f64,
    /// Sampled sources (`Kind::Sampled` only).
    k: usize,
    graph: Graph,
    /// Centralized Brandes on the same graph: the reference outputs are
    /// checked against.
    exact: Vec<f64>,
    /// The warm-up run; every timed repeat must reproduce it bit for bit.
    first: Option<DistBcResult>,
    wall_s: f64,
}

impl Compute {
    pub fn new(kind: Kind, ctx: &Ctx) -> Compute {
        let n = match (kind, ctx.quick) {
            (Kind::Exact, false) => 1024,
            (Kind::Sampled, false) => 4096,
            (Kind::Shards, false) => 512,
            (Kind::Sampled, true) => 200,
            (_, true) => 40,
        };
        Compute {
            kind,
            seed: ctx.seed,
            n,
            p: if ctx.quick { 0.15 } else { 0.008 },
            k: if ctx.quick { 16 } else { 64 },
            graph: Graph::from_edges(0, []).expect("empty graph"),
            exact: Vec::new(),
            first: None,
            wall_s: f64::NAN,
        }
    }

    fn generate(&self) -> Graph {
        match self.kind {
            Kind::Exact => generators::erdos_renyi_connected(self.n, self.p, self.seed),
            Kind::Sampled | Kind::Shards => generators::barabasi_albert(self.n, 2, self.seed),
        }
    }

    /// Generates the input graph as often as [`setup_reps`] says; returns
    /// each generation's seconds.
    fn set_up(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: usize) -> Vec<f64> {
        let mut reps = setup_reps(ctx);
        let mut gen = Vec::new();
        tr.span("setup", Some(parent), |_, _| {
            while reps.more() {
                let t = Instant::now();
                self.graph = self.generate();
                gen.push(t.elapsed().as_secs_f64());
            }
        });
        gen
    }

    fn sources(&self) -> SourceSelection {
        match self.kind {
            Kind::Sampled => SourceSelection::Sample {
                k: self.k,
                seed: self.seed,
            },
            Kind::Exact | Kind::Shards => SourceSelection::All,
        }
    }

    /// One telemetry shard per worker or shard process, as the CLI sizes it.
    fn telemetry(&self) -> Arc<Telemetry> {
        let shards = if self.kind == Kind::Shards { 2 } else { 1 };
        Arc::new(Telemetry::new(shards, TELEMETRY_RING))
    }

    /// The driver configuration the CLI would use; its telemetry (on by
    /// default in the CLI) is a fresh registry per run.
    fn config(&self, telemetry: bool) -> DistBcConfig {
        DistBcConfig {
            sources: self.sources(),
            telemetry: telemetry.then(|| self.telemetry()),
            ..DistBcConfig::default()
        }
    }

    /// One unit of work: a complete run through the public entry point.
    fn run_once(&self, telemetry: bool) -> Result<DistBcResult, String> {
        let cfg = self.config(telemetry);
        match self.kind {
            Kind::Exact | Kind::Sampled => {
                run_distributed_bc(&self.graph, cfg).map_err(|e| e.to_string())
            }
            Kind::Shards => socket_run(&self.graph, &cfg),
        }
    }

    fn algo_options(&self) -> AlgoOptions {
        let sources = self.sources();
        AlgoOptions {
            source_index: Some(Arc::new(SourceIndex::build(&sources, self.n))),
            sources,
            ..AlgoOptions::for_graph_size(self.n)
        }
    }

    /// What `run_distributed_bc` builds before its first round, from public
    /// pieces: the source index, every node's state, the engine and its
    /// telemetry; each node passed through `wrap`.
    fn serial_net<P: Protocol>(
        &self,
        sched: &PhaseSchedule,
        wrap: impl Fn(DistBcNode) -> P,
    ) -> Network<P> {
        let (n, opts, tel) = (self.n, self.algo_options(), self.telemetry());
        set_schedule(&tel, sched);
        let mut net = Network::new(&self.graph, Config::default(), |v, _| {
            wrap(DistBcNode::new(n, v, opts.clone()))
        });
        net.set_telemetry(tel);
        net
    }

    /// The same for the in-process reliable run: every node behind
    /// `Reliable`, with `inner` and `outer` wrapping it inside and outside,
    /// and the budget raised by the frame header.
    fn pool_net<P: Protocol, Q: Protocol>(
        &self,
        sched: &PhaseSchedule,
        inner: impl Fn(DistBcNode) -> P,
        outer: impl Fn(Reliable<P>) -> Q,
    ) -> Network<Q> {
        let (n, opts, tel) = (self.n, self.algo_options(), self.telemetry());
        set_schedule(&tel, sched);
        let cfg = Config {
            budget: Budget::Bits(Budget::Auto.resolve(n).expect("auto budget") + HEADER_BITS),
            ..Config::default()
        };
        let mut net = Network::new(&self.graph, cfg, |v, g| {
            let node = inner(DistBcNode::new(n, v, opts.clone()));
            let mut r = Reliable::new(node, g.degree(v), ReliableConfig::default());
            r.set_telemetry(tel.clone(), v as usize % tel.shards());
            outer(r)
        });
        net.set_telemetry(tel);
        net
    }

    /// Seconds to build the run's network without the `Timed` wrapper,
    /// excluding its teardown: one per repetition.
    fn driver_setup_secs(&self) -> Vec<f64> {
        fn built<N>(build: impl FnOnce() -> N) -> f64 {
            let t = Instant::now();
            let net = black_box(build());
            let secs = t.elapsed().as_secs_f64();
            drop(net);
            secs
        }
        let sched = PhaseSchedule::new(self.n, Scheduling::DfsPipelined);
        let mut reps = Reps::new(5, 0.5);
        let mut secs = Vec::new();
        while reps.more() {
            secs.push(match self.kind {
                Kind::Shards => built(|| self.pool_net(&sched, |node| node, |r| r)),
                Kind::Exact | Kind::Sampled => built(|| self.serial_net(&sched, |node| node)),
            });
        }
        secs
    }

    /// The workload-specific check of the warm-up run.
    fn verify_first(&self, r: &DistBcResult) -> Result<(), String> {
        if !r.metrics.congest_compliant() {
            return Err("run violated the CONGEST constraints".into());
        }
        match self.kind {
            Kind::Exact => {
                // E2's Theorem-1 budget: relative error below 256 · 2^-L.
                let err = r
                    .betweenness
                    .iter()
                    .zip(&self.exact)
                    .map(|(a, e)| (a - e).abs() / (1.0 + e.abs()))
                    .fold(0.0, f64::max);
                let unit = (-(r.fp.mantissa_bits() as f64)).exp2();
                if err / unit >= 256.0 {
                    return Err(format!("error {err:e} exceeds 256·2^-L"));
                }
            }
            Kind::Sampled => {
                if r.sample_size != self.k {
                    return Err(format!("sampled {} sources, not {}", r.sample_size, self.k));
                }
            }
            Kind::Shards => {
                let serial = run_distributed_bc(&self.graph, DistBcConfig::default())
                    .map_err(|e| format!("in-process serial run: {e}"))?;
                same_bits(
                    &r.betweenness,
                    &serial.betweenness,
                    "the in-process serial run",
                )?;
            }
        }
        Ok(())
    }

    /// The serial replica: the driver's run rebuilt from public pieces,
    /// stepped phase by phase.
    fn trace_serial(
        &self,
        tr: &mut Tracer,
        parent: usize,
        first: &DistBcResult,
        out: &mut Outcome,
    ) {
        let n = self.n;
        let sched = PhaseSchedule::new(n, Scheduling::DfsPipelined);
        let sampler = Sampler::new(first.metrics.total_messages / CODEC_SAMPLES + 1);
        let (mut net, setup_s) = tr.span("replica.setup", Some(parent), |_, _| {
            self.serial_net(&sched, |node| {
                Timed::new(node, &sched, Some(Arc::clone(&sampler)))
            })
        });
        // `run` with each phase's first round as its limit stops there with
        // `RoundLimit`, so every chunk still pays the per-round quiescence
        // scan that the driver's single `run` pays.
        let ends = [
            sched.counting_start,
            sched.reduce_start,
            sched.agg_start,
            sched.max_rounds(),
        ];
        let mut chunk_s = [0.0; 4];
        let (res, run_s) = tr.span("replica.run", Some(parent), |tr, id| {
            for (i, &end) in ends.iter().enumerate() {
                let (res, secs) = tr.span(PHASES[i], Some(id), |_, _| net.run(end));
                chunk_s[i] = secs;
                match res {
                    Err(CongestError::RoundLimit { .. }) if i < 3 => {}
                    Err(e) => return Err(e),
                    Ok(_) => {}
                }
            }
            Ok(())
        });
        out.set("engine.run_s", run_s);
        out.set("trace.overhead_frac", (setup_s + run_s) / self.wall_s - 1.0);
        if let Err(e) = res {
            out.replica_matched = Some(false);
            out.attempt(Err(format!("replica: {e}")));
            return;
        }
        let metrics = net.metrics().clone();
        let mut stats = StepStats::default();
        let mut samples = Vec::new();
        let mut nodes = Vec::with_capacity(n);
        for t in net.into_nodes() {
            let (node, s, m) = t.into_parts();
            stats.merge(&s);
            samples.extend(m);
            nodes.push(node);
        }
        check_replica(&metrics, &nodes, first, out);
        let node_rounds = metrics.rounds as f64 * n as f64;
        let self_s = run_s - stats.secs();
        out.set("engine.self_s", self_s);
        for (i, name) in [
            "engine.self_s.tree",
            "engine.self_s.counting",
            "engine.self_s.reduce",
            "engine.self_s.agg",
        ]
        .into_iter()
        .enumerate()
        {
            out.set(name, chunk_s[i] - stats.phase_ns[i] as f64 * 1e-9);
        }
        out.set("engine.ns_per_node_round", self_s * 1e9 / node_rounds);
        out.set("engine.step_frac", stats.hist.count as f64 / node_rounds);
        out.set("engine.msgs", metrics.total_messages as f64);
        node_metrics(&stats, &nodes, out);
        self.codec_metrics(&samples, &stats, out);
    }

    /// The two-shard run's in-process counterpart: the driver's reliable
    /// run on the pooled engine with two workers, once untimed and once as
    /// a `Timed` replica.
    fn trace_pool(&self, tr: &mut Tracer, parent: usize, first: &DistBcResult, out: &mut Outcome) {
        let cfg = DistBcConfig {
            reliable: true,
            threads: 2,
            ..self.config(true)
        };
        let (pooled, pool_s) = tr.span("pool.run", Some(parent), |_, _| {
            run_distributed_bc(&self.graph, cfg)
        });
        out.attempt(
            pooled
                .map_err(|e| e.to_string())
                .and_then(|p| same_run(&p, first, "the pooled reliable run")),
        );
        // What the socket run costs beyond the in-process engine is the wire.
        out.set("pool.run_s", pool_s);
        out.set("wire.self_s", self.wall_s - pool_s);

        let sched = PhaseSchedule::new(self.n, Scheduling::DfsPipelined);
        let sampler = Sampler::new(first.metrics.total_messages / CODEC_SAMPLES + 1);
        let (mut net, setup_s) = tr.span("replica.setup", Some(parent), |_, _| {
            self.pool_net(
                &sched,
                |node| Timed::new(node, &sched, Some(Arc::clone(&sampler))),
                |r| Timed::new(r, &sched, None),
            )
        });
        let (res, run_s) = tr.span("replica.run", Some(parent), |_, _| {
            net.run_parallel(sched.max_rounds() * 8 + 64, 2)
        });
        out.set("engine.run_s", run_s);
        out.set("trace.overhead_frac", (setup_s + run_s) / pool_s - 1.0);
        if let Err(e) = res {
            out.replica_matched = Some(false);
            out.attempt(Err(format!("replica: {e}")));
            return;
        }
        let mut metrics = net.metrics().clone();
        let (mut outer, mut inner) = (StepStats::default(), StepStats::default());
        let mut transport = TransportStats::default();
        let mut samples = Vec::new();
        let mut nodes = Vec::with_capacity(self.n);
        for t in net.into_nodes() {
            let (rel, o, _) = t.into_parts();
            outer.merge(&o);
            transport.merge(&rel.stats());
            let (node, i, s) = rel.into_inner().into_parts();
            inner.merge(&i);
            samples.extend(s);
            nodes.push(node);
        }
        // As the driver does after a reliable run.
        metrics.messages_retransmitted = transport.retransmits;
        metrics.messages_deduped = transport.deduped;
        check_replica(&metrics, &nodes, first, out);
        out.set("engine.msgs", metrics.total_messages as f64);
        // Step times here are CPU seconds summed over both workers.
        out.set("transport.self_s", outer.secs() - inner.secs());
        out.set("transport.frames", transport.frames_sent as f64);
        out.set(
            "transport.ack_only_frames",
            transport.ack_only_frames as f64,
        );
        out.set("transport.retransmits", transport.retransmits as f64);
        node_metrics(&inner, &nodes, out);
        self.codec_metrics(&samples, &inner, out);
    }

    /// Replays `Codec::decode` and `Codec::encode` on the sampled inbound
    /// messages.
    fn codec_metrics(&self, samples: &[Message], stats: &StepStats, out: &mut Outcome) {
        let codec = Codec::new(self.n, AlgoOptions::for_graph_size(self.n).fp);
        let decoded: Vec<_> = samples
            .iter()
            .filter_map(|m| codec.decode(m).ok())
            .collect();
        out.attempt(if decoded.len() == samples.len() && !samples.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "codec replay decoded {} of {} sampled messages",
                decoded.len(),
                samples.len()
            ))
        });
        if decoded.is_empty() {
            return;
        }
        let per_msg = |times: Vec<f64>| median(&times) * 1e9 / decoded.len() as f64;
        let decode_ns = per_msg(repeat_timed(3, 0.02, || {
            for m in samples {
                black_box(codec.decode(black_box(m)).ok());
            }
        }));
        let encode_ns = per_msg(repeat_timed(3, 0.02, || {
            for p in &decoded {
                black_box(codec.encode(black_box(p)));
            }
        }));
        out.set("codec.decode_ns", decode_ns);
        out.set("codec.encode_ns", encode_ns);
        out.set(
            "codec.est_s",
            (decode_ns + encode_ns) * stats.inbox_msgs as f64 * 1e-9,
        );
        out.note(format!(
            "codec replayed on {} sampled messages",
            samples.len()
        ));
    }
}

impl Job for Compute {
    fn measure(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: usize, out: &mut Outcome) {
        // Set-up is the input graph; what the driver builds before its first
        // round is part of every timed run.
        let mut gen = self.set_up(ctx, tr, parent);

        let (exact, ref_s) = tr.span("brandes.ref", Some(parent), |_, _| {
            betweenness_f64(&self.graph)
        });
        self.exact = exact;
        out.set("brandes.ref_s", ref_s);

        let (first, _) = tr.span("warmup", Some(parent), |_, _| self.run_once(true));
        let first = match first.and_then(|r| self.verify_first(&r).map(|()| r)) {
            Ok(r) => r,
            Err(e) => {
                out.attempt(Err(format!("warm-up run: {e}")));
                return;
            }
        };
        out.attempt(Ok(()));

        let min_runs = if ctx.quick { 1 } else { 3 };
        let mut walls: Vec<f64> = Vec::new();
        tr.span("window", Some(parent), |tr, id| {
            let mut used = 0.0;
            // Start another run only while it is expected to end within the
            // window.
            while walls.len() < min_runs || used + walls[walls.len() - 1] <= ctx.seconds {
                let (res, secs) = tr.span("run", Some(id), |_, _| self.run_once(true));
                used += secs;
                walls.push(secs);
                out.attempt(res.and_then(|r| same_run(&r, &first, "the warm-up run")));
            }
        });
        self.wall_s = out.set_median("wall_s", &walls, "s");
        // Set up again after the window, so that the median spans the run
        // rather than one moment of a host whose speed drifts.
        gen.extend(self.set_up(ctx, tr, parent));
        out.set_median("setup_s", &gen, "s");
        out.set("graph.gen_s", median(&gen));
        out.set("rounds", first.rounds as f64);
        out.set("bits_total", first.metrics.total_bits as f64);
        out.set("err_top10", err_top10(&first.betweenness, &self.exact));
        self.first = Some(first);
    }

    fn trace(&self, _ctx: &Ctx, tr: &mut Tracer, parent: usize, out: &mut Outcome) {
        let Some(first) = &self.first else {
            return;
        };
        let (res, quiet_s) = tr.span("run.no_telemetry", Some(parent), |_, _| {
            self.run_once(false)
        });
        out.attempt(res.and_then(|r| same_run(&r, first, "the warm-up run")));
        out.set("telemetry.overhead_frac", self.wall_s / quiet_s - 1.0);
        let (build, _) = tr.span("driver.setup", Some(parent), |_, _| {
            self.driver_setup_secs()
        });
        out.set("driver.setup_s", median(&build));
        match self.kind {
            Kind::Shards => self.trace_pool(tr, parent, first, out),
            Kind::Exact | Kind::Sampled => self.trace_serial(tr, parent, first, out),
        }
    }
}

fn set_schedule(tel: &Telemetry, sched: &PhaseSchedule) {
    tel.set_schedule(
        sched.counting_start,
        sched.reduce_start,
        sched.broadcast_start,
        sched.agg_start,
    );
}

/// The replica must reproduce the driver run: equal `NetMetrics` and
/// bit-identical scores.
fn check_replica(
    metrics: &NetMetrics,
    nodes: &[DistBcNode],
    first: &DistBcResult,
    out: &mut Outcome,
) {
    let scores: Vec<f64> = nodes.iter().map(DistBcNode::betweenness).collect();
    let verdict = if metrics != &first.metrics {
        Err("replica NetMetrics differ from the driver run's".to_string())
    } else {
        same_bits(&scores, &first.betweenness, "the driver run")
    };
    out.replica_matched = Some(verdict.is_ok());
    out.attempt(verdict);
}

fn node_metrics(stats: &StepStats, nodes: &[DistBcNode], out: &mut Outcome) {
    out.set("node.step_s", stats.secs());
    for (i, name) in [
        "node.step_s.tree",
        "node.step_s.counting",
        "node.step_s.reduce",
        "node.step_s.agg",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, stats.phase_ns[i] as f64 * 1e-9);
    }
    out.set("node.steps", stats.hist.count as f64);
    out.set("node.inbox_msgs", stats.inbox_msgs as f64);
    let state: u64 = nodes.iter().map(DistBcNode::state_bytes).sum();
    out.set("node.state_bytes", state as f64);
    out.note(format!("node step ns histogram: {}", stats.hist.render()));
}

/// Runs `g` across two `serve_shard` threads on unix sockets, driven by
/// `run_leader`, as `distbc centrality --connect` does across processes.
fn socket_run(g: &Graph, cfg: &DistBcConfig) -> Result<DistBcResult, String> {
    let addrs = [socket_addr("shard"), socket_addr("shard")];
    let res = thread::scope(|s| {
        let shards: Vec<_> = addrs
            .iter()
            .map(|a| s.spawn(move || serve_shard(a)))
            .collect();
        let led = run_leader(g, cfg, &addrs, false).map_err(|e| format!("leader: {e}"));
        if led.is_err() {
            // A shard the leader never reached still waits in `accept`.
            for a in &addrs {
                if let Some(path) = a.strip_prefix("unix:") {
                    let _ = std::os::unix::net::UnixStream::connect(path);
                }
            }
        }
        let mut shard_err = None;
        for (i, h) in shards.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => shard_err = shard_err.or(Some(format!("shard {i}: {e}"))),
                Err(_) => shard_err = shard_err.or(Some(format!("shard {i} panicked"))),
            }
        }
        let (out, _) = led?;
        shard_err.map_or(Ok(out), Err)
    });
    for a in &addrs {
        remove_socket(a);
    }
    res
}

fn same_bits(a: &[f64], b: &[f64], what: &str) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} scores, {what} has {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(v) => Err(format!("node {v}: {} differs from {what}'s {}", a[v], b[v])),
    }
}

/// A repeat must reproduce `first` exactly: scores, rounds and metrics.
fn same_run(r: &DistBcResult, first: &DistBcResult, what: &str) -> Result<(), String> {
    same_bits(&r.betweenness, &first.betweenness, what)?;
    if r.metrics != first.metrics {
        return Err(format!("NetMetrics differ from {what}'s"));
    }
    Ok(())
}

/// Mean relative error over the exact top 10 (E21's definition).
fn err_top10(estimate: &[f64], exact: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..exact.len()).collect();
    order.sort_by(|&a, &b| exact[b].total_cmp(&exact[a]));
    let top = &order[..10.min(order.len())];
    top.iter()
        .map(|&v| (estimate[v] - exact[v]).abs() / exact[v].max(1.0))
        .sum::<f64>()
        / top.len() as f64
}
