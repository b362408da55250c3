//! The serving workload: a `bc-serve` server with the incremental Brandes
//! engine on a unix socket, one open-loop reader and one closed-loop writer.
//!
//! The reader sends a batch (`TopK 10`, `Node v`, `Percentile 95`, the E20
//! mix) every `1/rate` seconds whether or not the last one returned, and
//! times each batch from when it was due, so a stall also delays the batches
//! queued behind it. The writer adds a seed-chosen non-edge, flushes,
//! removes it, flushes, and repeats with the next one; each flush round
//! trip is a snapshot swap. Two connections, two client threads.

use crate::measure::{
    describe, median, quantile, remove_socket, repeat_timed, setup_reps, socket_addr, Tracer,
};
use crate::{Ctx, Job, Outcome};
use bc_brandes::betweenness_f64;
use bc_congest::Telemetry;
use bc_graph::{generators, Graph};
use bc_serve::engine::affected_sources;
use bc_serve::proto::{decode_requests, decode_responses, encode_requests, encode_responses};
use bc_serve::{
    IncrementalEngine, Mutation, QueryClient, QueryRequest, QueryResponse, RecomputeEngine, Server,
    ServerConfig, ServerStats,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Mutation pairs the traced pass replays on a standalone engine.
const REPLAY_PAIRS: usize = 64;

pub struct Serve {
    seed: u64,
    n: usize,
    p: f64,
    /// Reader batches per second.
    rate: f64,
    /// Swaps the measured window must hold.
    min_swaps: usize,
    graph: Graph,
    /// The non-edges the writer added and removed, in order.
    pairs: Vec<(u32, u32)>,
    wall_s: f64,
    /// A response batch as served, for replaying the protocol codec.
    sample: Option<Vec<QueryResponse>>,
}

/// A server running on its own thread.
struct Running {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: thread::JoinHandle<Result<ServerStats, bc_serve::ServeError>>,
}

impl Running {
    fn stop(self) -> Result<ServerStats, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let stats = match self.handle.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".into()),
        };
        remove_socket(&self.addr);
        stats
    }
}

/// Binds a server over `g` (the initial snapshot is computed here).
fn bind(g: &Graph) -> Result<(Server, Arc<AtomicBool>), String> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let engine = RecomputeEngine::Incremental(IncrementalEngine::new(g.clone(), g.n()));
    let cfg = ServerConfig {
        listen: socket_addr("serve"),
        algo: "brandes".into(),
        config_hash: 0,
        telemetry: Some(Arc::new(Telemetry::new(1, 64))),
    };
    let server = Server::bind(engine, cfg, Arc::clone(&shutdown)).map_err(|e| e.to_string())?;
    Ok((server, shutdown))
}

fn start(server: Server, shutdown: Arc<AtomicBool>) -> Running {
    let addr = server.addr().to_string();
    Running {
        addr,
        shutdown,
        handle: thread::spawn(move || server.run()),
    }
}

#[derive(Default)]
struct ReadLog {
    /// Microseconds from each batch's due time to its answer (∞ if failed).
    lat_us: Vec<f64>,
    /// How late the generator sent each batch, in microseconds.
    late_us: Vec<f64>,
    answered: u64,
    window_s: f64,
    sample: Option<Vec<QueryResponse>>,
}

/// The open-loop reader: one batch every `1/rate` seconds until `stop_at`.
fn read_load(
    addr: &str,
    n: usize,
    rate: f64,
    seed: u64,
    stop_at: Instant,
    out: &mut Outcome,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut client = match QueryClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempt(Err(format!("reader connect: {e}")));
            return log;
        }
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_6164);
    let start = Instant::now();
    let mut last_version = 0;
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= stop_at {
            break;
        }
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        log.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let v = rng.gen_range(0..n as u32);
        let reqs = [
            QueryRequest::TopK { k: 10 },
            QueryRequest::Node { v },
            QueryRequest::Percentile { p: 95.0 },
        ];
        let verdict = client
            .batch(&reqs)
            .map_err(|e| format!("read batch: {e}"))
            .and_then(|resps| {
                let version = check_read(&resps, v, n.min(10), last_version)?;
                last_version = version;
                if log.sample.is_none() {
                    log.sample = Some(resps);
                }
                Ok(())
            });
        let ok = verdict.is_ok();
        out.attempt(verdict);
        log.lat_us.push(if ok {
            due.elapsed().as_secs_f64() * 1e6
        } else {
            f64::INFINITY
        });
        log.answered += u64::from(ok);
    }
    log.window_s = start.elapsed().as_secs_f64();
    client.close();
    log
}

/// A read batch must be answered from one snapshot version, no older than
/// the last one this connection saw. Returns that version.
fn check_read(resps: &[QueryResponse], v: u32, top: usize, last: u64) -> Result<u64, String> {
    let version = match resps {
        [QueryResponse::Ranked {
            version: a,
            entries,
        }, QueryResponse::Score {
            version: b, node, ..
        }, QueryResponse::Value { version: c, .. }]
            if entries.len() == top && *node == v =>
        {
            if a != b || b != c {
                return Err(format!("torn batch: versions {a}, {b}, {c}"));
            }
            *a
        }
        other => return Err(format!("unexpected read answers {other:?}")),
    };
    if version < last {
        return Err(format!("version went back from {last} to {version}"));
    }
    Ok(version)
}

#[derive(Default)]
struct WriteLog {
    swap_s: Vec<f64>,
    pairs: Vec<(u32, u32)>,
    published: u64,
}

/// The closed-loop writer: add a fresh seed-chosen non-edge, flush, remove
/// it, flush; repeat until `stop_at`. The graph is back to `g` after every
/// pair.
fn write_load(addr: &str, g: &Graph, seed: u64, stop_at: Instant, out: &mut Outcome) -> WriteLog {
    let mut log = WriteLog::default();
    let mut client = match QueryClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempt(Err(format!("writer connect: {e}")));
            return log;
        }
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7772_6974);
    let mut version = 1;
    while Instant::now() < stop_at {
        let (u, v) = non_edge(g, &mut rng);
        log.pairs.push((u, v));
        for m in [
            QueryRequest::AddEdge { u, v },
            QueryRequest::RemoveEdge { u, v },
        ] {
            let t = Instant::now();
            let verdict = client
                .batch(&[m, QueryRequest::Flush])
                .map_err(|e| format!("swap: {e}"))
                .and_then(|resps| match resps.as_slice() {
                    [QueryResponse::MutationQueued { .. }, QueryResponse::Flushed { version: now }]
                        if *now == version + 1 =>
                    {
                        version = *now;
                        Ok(())
                    }
                    other => Err(format!("swap answered {other:?} after version {version}")),
                });
            let secs = t.elapsed().as_secs_f64();
            log.published += u64::from(verdict.is_ok());
            log.swap_s
                .push(if verdict.is_ok() { secs } else { f64::INFINITY });
            out.attempt(verdict);
        }
    }
    client.close();
    log
}

/// Each mutation pair's mean time. An insertion and the removal undoing it
/// recompute different source sets, so single swap times form two
/// clusters, and their plain median jumps between them.
fn pair_means(times: &[f64]) -> Vec<f64> {
    times.chunks_exact(2).map(|p| (p[0] + p[1]) / 2.0).collect()
}

fn non_edge(g: &Graph, rng: &mut SmallRng) -> (u32, u32) {
    let n = g.n() as u32;
    loop {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && !g.has_edge(u, v) {
            return (u.min(v), u.max(v));
        }
    }
}

/// The served ranking of all `n` nodes must be bit-identical to Brandes on
/// the final graph.
fn check_final(addr: &str, exact: &[f64]) -> Result<(), String> {
    let mut client = QueryClient::connect(addr).map_err(|e| format!("final check: {e}"))?;
    let resps = client
        .batch(&[QueryRequest::TopK {
            k: exact.len() as u32,
        }])
        .map_err(|e| format!("final check: {e}"));
    client.close();
    let resps = resps?;
    let [QueryResponse::Ranked { entries, .. }] = resps.as_slice() else {
        return Err("final TopK was not answered with a ranking".into());
    };
    let mut served = vec![None; exact.len()];
    for &(v, s) in entries {
        if let Some(slot) = served.get_mut(v as usize) {
            *slot = Some(s.to_bits());
        }
    }
    match (0..exact.len()).find(|&v| served[v] != Some(exact[v].to_bits())) {
        None => Ok(()),
        Some(v) => Err(format!("served score of node {v} differs from Brandes")),
    }
}

/// Set-up seconds, one per repetition: graph generation and `Server::bind`.
#[derive(Default)]
struct SetupTimes {
    gen: Vec<f64>,
    bind: Vec<f64>,
}

/// Drops a server that never ran, with its socket file.
fn discard((server, _): (Server, Arc<AtomicBool>)) {
    let addr = server.addr().to_string();
    drop(server);
    remove_socket(&addr);
}

impl Serve {
    /// Generates the graph and binds a server over it as often as
    /// [`setup_reps`] says, adding the times to `times`. Returns the last
    /// server; the others are dropped.
    fn set_up(
        &mut self,
        ctx: &Ctx,
        tr: &mut Tracer,
        parent: usize,
        times: &mut SetupTimes,
    ) -> Result<(Server, Arc<AtomicBool>), String> {
        let mut reps = setup_reps(ctx);
        let mut server = None;
        let (res, _) = tr.span("setup", Some(parent), |_, _| {
            while reps.more() {
                let t = Instant::now();
                self.graph = generators::erdos_renyi_connected(self.n, self.p, self.seed);
                times.gen.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let bound = bind(&self.graph)?;
                times.bind.push(t.elapsed().as_secs_f64());
                if let Some(old) = server.replace(bound) {
                    discard(old);
                }
            }
            Ok(())
        });
        if let Err(e) = res {
            if let Some(old) = server {
                discard(old);
            }
            return Err(e);
        }
        Ok(server.expect("set-up runs at least once"))
    }

    pub fn new(ctx: &Ctx) -> Serve {
        let (n, p, rate, min_swaps) = if ctx.quick {
            (40, 0.15, 1000.0, 2)
        } else {
            (512, 0.016, 5000.0, 200)
        };
        Serve {
            seed: ctx.seed,
            n,
            p,
            rate,
            min_swaps,
            graph: Graph::from_edges(0, []).expect("empty graph"),
            pairs: Vec::new(),
            wall_s: f64::NAN,
            sample: None,
        }
    }

    /// The measured window: reader and writer together against `running`.
    /// Returns the number of mutations the writer saw published.
    fn window(&mut self, running: &Running, seconds: f64, out: &mut Outcome) -> u64 {
        let stop_at = Instant::now() + Duration::from_secs_f64(seconds);
        let (addr, n, rate, seed) = (running.addr.as_str(), self.n, self.rate, self.seed);
        let mut read_out = Outcome::default();
        let (reads, writes) = thread::scope(|s| {
            let reader = s.spawn(|| read_load(addr, n, rate, seed, stop_at, &mut read_out));
            let writes = write_load(addr, &self.graph, seed, stop_at, out);
            (reader.join().expect("reader thread"), writes)
        });
        out.absorb(read_out);

        self.wall_s = out.set_median("wall_s", &pair_means(&writes.swap_s), "s");
        out.set("swap_p95_ms", quantile(&writes.swap_s, 0.95) * 1e3);
        out.note(format!("swaps: {}", describe(&writes.swap_s, "s")));
        if writes.swap_s.len() < self.min_swaps {
            out.fail(format!(
                "the window held {} swaps, fewer than {}",
                writes.swap_s.len(),
                self.min_swaps
            ));
        }
        out.set("read_p50_us", median(&reads.lat_us));
        out.set("read_p99_us", quantile(&reads.lat_us, 0.99));
        out.set("reads_per_s", reads.answered as f64 / reads.window_s);
        out.set("gen.late_p99_us", quantile(&reads.late_us, 0.99));
        out.note(format!(
            "reads from due time: {}",
            describe(&reads.lat_us, "us")
        ));
        self.pairs = writes.pairs;
        self.sample = reads.sample;
        writes.published
    }
}

impl Job for Serve {
    fn measure(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: usize, out: &mut Outcome) {
        let mut times = SetupTimes::default();
        let (server, shutdown) = match self.set_up(ctx, tr, parent, &mut times) {
            Ok(s) => s,
            Err(e) => {
                out.attempt(Err(format!("bind: {e}")));
                return;
            }
        };
        let running = start(server, shutdown);
        let (mutations, _) = tr.span("window", Some(parent), |_, _| {
            self.window(&running, ctx.seconds, out)
        });
        let (exact, ref_s) = tr.span("brandes.ref", Some(parent), |_, _| {
            betweenness_f64(&self.graph)
        });
        out.set("brandes.ref_s", ref_s);
        out.attempt(check_final(&running.addr, &exact));
        out.attempt(running.stop().and_then(|stats| {
            if stats.snapshots_published != mutations || stats.malformed != 0 {
                Err(format!(
                    "server published {} snapshots for {mutations} mutations ({} malformed)",
                    stats.snapshots_published, stats.malformed
                ))
            } else {
                Ok(())
            }
        }));
        // Set up again once the server has stopped, so that the median spans
        // the run rather than one moment of a host whose speed drifts.
        match self.set_up(ctx, tr, parent, &mut times) {
            Ok(s) => discard(s),
            Err(e) => out.attempt(Err(format!("bind: {e}"))),
        }
        let setups: Vec<f64> = times
            .gen
            .iter()
            .zip(&times.bind)
            .map(|(g, b)| g + b)
            .collect();
        out.set_median("setup_s", &setups, "s");
        out.set("graph.gen_s", median(&times.gen));
        out.set("serve.bind_s", median(&times.bind));
    }

    fn trace(&self, ctx: &Ctx, tr: &mut Tracer, parent: usize, out: &mut Outcome) {
        // Reads alone, on a fresh server over the same graph.
        let idle_s = (ctx.seconds / 3.0).min(6.0);
        tr.span("idle.window", Some(parent), |_, _| {
            match bind(&self.graph) {
                Ok((server, shutdown)) => {
                    let running = start(server, shutdown);
                    let stop_at = Instant::now() + Duration::from_secs_f64(idle_s);
                    let reads =
                        read_load(&running.addr, self.n, self.rate, self.seed, stop_at, out);
                    out.set("serve.read_idle_p50_us", median(&reads.lat_us));
                    out.attempt(running.stop().map(|_| ()));
                }
                Err(e) => out.attempt(Err(format!("bind: {e}"))),
            }
        });

        // The writer's mutations replayed on a standalone engine.
        tr.span("engine.replay", Some(parent), |_, _| {
            let mut engine = IncrementalEngine::new(self.graph.clone(), self.n);
            let _ = engine.scores();
            let _ = engine.take_cache_stats();
            let (mut apply, mut affected, mut recomputed) = (Vec::new(), Vec::new(), 0usize);
            let mut last = Vec::new();
            for &(u, v) in self.pairs.iter().take(REPLAY_PAIRS) {
                for m in [Mutation::AddEdge(u, v), Mutation::RemoveEdge(u, v)] {
                    let t = Instant::now();
                    black_box(affected_sources(engine.graph(), m));
                    affected.push(t.elapsed().as_secs_f64());
                    let t = Instant::now();
                    let res = engine.apply(m);
                    apply.push(t.elapsed().as_secs_f64());
                    recomputed += engine.last_recomputed();
                    out.attempt(
                        res.map(|scores| last = scores)
                            .map_err(|e| format!("replayed {m}: {e}")),
                    );
                }
            }
            if apply.is_empty() {
                return;
            }
            let (hits, misses) = engine.take_cache_stats();
            let apply_s = median(&pair_means(&apply));
            out.set("serve.engine.apply_ms", apply_s * 1e3);
            out.set(
                "serve.engine.affected_ms",
                median(&pair_means(&affected)) * 1e3,
            );
            out.set(
                "serve.engine.recomputed",
                recomputed as f64 / apply.len() as f64,
            );
            out.set(
                "serve.cache.hit_frac",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            out.set("serve.server.swap_self_ms", (self.wall_s - apply_s) * 1e3);
            let exact = betweenness_f64(&self.graph);
            out.attempt(
                match last
                    .iter()
                    .zip(&exact)
                    .position(|(a, b)| a.to_bits() != b.to_bits())
                {
                    None if last.len() == exact.len() => Ok(()),
                    _ => Err("replayed engine diverged from Brandes".into()),
                },
            );
        });

        // The query protocol's encode and decode, both directions.
        if let Some(resps) = &self.sample {
            let reqs = [
                QueryRequest::TopK { k: 10 },
                QueryRequest::Node { v: 0 },
                QueryRequest::Percentile { p: 95.0 },
            ];
            const ITERS: usize = 1000;
            let times = repeat_timed(5, 0.05, || {
                for _ in 0..ITERS {
                    let q = decode_requests(&encode_requests(black_box(&reqs)));
                    let r = decode_responses(&encode_responses(black_box(resps)));
                    black_box((q.ok(), r.ok()));
                }
            });
            out.set(
                "serve.proto.roundtrip_ns",
                median(&times) * 1e9 / ITERS as f64,
            );
        }
    }
}
