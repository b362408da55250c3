//! The long-running query server: versioned snapshots behind an epoch
//! cell, per-connection handler threads, and a single background
//! mutation worker (whose incremental recomputes fan out across cores).
//!
//! # Lifecycle
//!
//! [`Server::bind`] computes the initial snapshot (version 1) with the
//! chosen engine and binds the listener; [`Server::run`] then accepts
//! connections until the shared shutdown flag flips. Each connection
//! gets a handler thread speaking the [`crate::proto`] protocol; all
//! read queries in a batch are answered from **one**
//! [`SnapshotStore::load`], so a batch observes exactly one version and
//! never a torn snapshot.
//!
//! # Mutations
//!
//! `add-edge`/`remove-edge` requests are validated synchronously
//! against a *front* graph (the served graph plus every queued
//! mutation) — duplicate edges, missing edges, bad endpoints, and
//! disconnecting removals are rejected inline — then enqueued for the
//! worker, which applies them in order, recomputes (incrementally for
//! the Brandes engine, fully for driver engines), and publishes a new
//! snapshot version. Queries keep flowing against the old snapshot the
//! whole time; `flush` blocks until the queue drains.
//!
//! # Robustness
//!
//! A malformed client — bad HELLO, unknown tag, truncated or oversized
//! frame, garbage bytes — earns a best-effort `TAG_ERROR` frame and a
//! dropped connection; the server never panics and other connections
//! are unaffected. A recompute that fails or panics poisons the
//! mutation pipeline: pending and later mutations and flushes answer
//! `Failed`, and reads keep being served from the last good snapshot.
//! On shutdown, in-flight batches finish (the closer takes each
//! connection's busy lock before shutting its socket), the mutation
//! queue drains, and the final stats are returned for the telemetry
//! checkpoint.

use crate::engine::{component_count, Mutation, RecomputeEngine};
use crate::proto::{decode_requests, encode_responses, QueryRequest, QueryResponse};
use bc_congest::panic_message;
use bc_congest::telemetry::{Counter, HistogramId, Telemetry};
use bc_congest::wire::{
    graph_hash, Hello, WireError, WireListener, WireStream, ROLE_CLIENT, TAG_DONE, TAG_ERROR,
    TAG_HELLO, TAG_QUERY, TAG_RESP,
};
use bc_core::snapshot::{CentralitySnapshot, SnapshotStore};
use bc_graph::Graph;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How often the accept loop polls the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// How long the mutation worker sleeps waiting for work before
/// re-checking the shutdown flag.
const WORKER_POLL: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// `tcp:HOST:PORT` (port 0 for ephemeral) or `unix:PATH`.
    pub listen: String,
    /// Algorithm label stamped into snapshots (`"brandes"`,
    /// `"distributed"`, `"sampled:K"`, …).
    pub algo: String,
    /// Config fingerprint stamped into snapshots and the handshake
    /// ([`bc_core::DistBcConfig::fingerprint`] for driver engines).
    pub config_hash: u64,
    /// Telemetry sink for server counters (shard 0 is used).
    pub telemetry: Option<Arc<Telemetry>>,
}

/// Why the server failed to start or crashed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Wire(WireError),
    /// The initial snapshot compute failed.
    Compute(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "{e}"),
            ServeError::Compute(m) => write!(f, "initial compute failed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// Counters reported when the server exits (mirrors of the telemetry
/// counters, for the final checkpoint line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Individual requests answered.
    pub queries: u64,
    /// `TAG_QUERY` batches answered.
    pub batches: u64,
    /// Snapshot versions published after the initial one.
    pub snapshots_published: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Malformed frames/batches seen (each also dropped a connection).
    pub malformed: u64,
}

/// Queued-mutation bookkeeping shared between handlers and the worker.
struct MutQueue {
    /// The served graph plus every queued mutation — what new
    /// mutations are validated against.
    front: Graph,
    queue: VecDeque<Mutation>,
    enqueued_seq: u64,
    applied_seq: u64,
    /// Set when the worker hit an unrecoverable engine failure; all
    /// further mutations are rejected with this reason.
    dead: Option<String>,
}

/// State shared by the accept loop, handler threads, and the worker.
struct Shared {
    store: SnapshotStore,
    algo: String,
    config_hash: u64,
    /// Hash of the currently served graph (updated on publish; the
    /// HELLO reply reads it).
    current_graph_hash: AtomicU64,
    telemetry: Option<Arc<Telemetry>>,
    muts: Mutex<MutQueue>,
    wake: Condvar,
    shutdown: Arc<AtomicBool>,
    // Stats mirrors.
    queries: AtomicU64,
    batches: AtomicU64,
    published: AtomicU64,
    malformed: AtomicU64,
}

impl Shared {
    fn count(&self, c: Counter, n: u64) {
        if let Some(t) = &self.telemetry {
            t.add(0, c, n);
        }
    }
}

/// One accepted connection, registered so the closer can wake blocked
/// readers without cutting an in-flight response.
struct ConnEntry {
    stream: WireStream,
    /// Held by the handler while processing a batch; the closer takes
    /// it before `shutdown()`, so sockets only close *between* batches.
    busy: Mutex<()>,
}

/// A bound, not-yet-running server (initial snapshot already
/// published).
pub struct Server {
    listener: WireListener,
    addr: String,
    engine: RecomputeEngine,
    shared: Arc<Shared>,
}

impl Server {
    /// Computes the initial snapshot with `engine` and binds
    /// `cfg.listen`.
    ///
    /// # Errors
    ///
    /// Bind failures and initial-compute failures.
    pub fn bind(
        mut engine: RecomputeEngine,
        cfg: ServerConfig,
        shutdown: Arc<AtomicBool>,
    ) -> Result<Server, ServeError> {
        let out = engine.initial().map_err(ServeError::Compute)?;
        let g_hash = graph_hash(engine.graph());
        let initial = CentralitySnapshot::from_scores(
            1,
            g_hash,
            cfg.config_hash,
            &cfg.algo,
            out.scores,
            out.sample_size,
            out.rounds,
        );
        let listener = WireListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let front = engine.graph().clone();
        let shared = Arc::new(Shared {
            store: SnapshotStore::new(initial),
            algo: cfg.algo,
            config_hash: cfg.config_hash,
            current_graph_hash: AtomicU64::new(g_hash),
            telemetry: cfg.telemetry,
            muts: Mutex::new(MutQueue {
                front,
                queue: VecDeque::new(),
                enqueued_seq: 0,
                applied_seq: 0,
                dead: None,
            }),
            wake: Condvar::new(),
            shutdown,
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            published: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
        });
        if let Some((h, m)) = drain_cache_stats(&mut engine) {
            shared.count(Counter::SourceCacheHits, h);
            shared.count(Counter::SourceCacheMisses, m);
        }
        Ok(Server {
            listener,
            addr,
            engine,
            shared,
        })
    }

    /// The dialable listen address (ephemeral TCP ports resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The current snapshot (version 1 right after `bind`).
    pub fn snapshot(&self) -> Arc<CentralitySnapshot> {
        self.shared.store.load()
    }

    /// Serves until the shutdown flag flips, then drains in-flight
    /// batches and the mutation queue and returns the final stats.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection failures are
    /// contained.
    pub fn run(self) -> Result<ServerStats, ServeError> {
        let Server {
            listener,
            engine,
            shared,
            ..
        } = self;
        listener.set_nonblocking(true)?;
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || mutation_worker(engine, shared))
        };
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        let conns: Arc<Mutex<Vec<Arc<ConnEntry>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut connections = 0u64;
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(stream) => {
                    connections += 1;
                    let entry = Arc::new(ConnEntry {
                        stream: stream.try_clone()?,
                        busy: Mutex::new(()),
                    });
                    conns
                        .lock()
                        .expect("conn registry")
                        .push(Arc::clone(&entry));
                    let shared = Arc::clone(&shared);
                    handlers.push(thread::spawn(move || {
                        handle_connection(stream, entry, shared);
                    }));
                }
                Err(WireError::Io(_)) => thread::sleep(ACCEPT_POLL),
                Err(e) => return Err(e.into()),
            }
        }
        // Drain: close each connection between batches (the busy lock
        // guarantees any in-flight batch finishes its response first).
        for entry in conns.lock().expect("conn registry").iter() {
            let _busy = entry.busy.lock().expect("busy lock");
            entry.stream.shutdown();
        }
        for h in handlers {
            let _ = h.join();
        }
        shared.wake.notify_all();
        let _ = worker.join();
        Ok(ServerStats {
            queries: shared.queries.load(Ordering::Relaxed),
            batches: shared.batches.load(Ordering::Relaxed),
            snapshots_published: shared.published.load(Ordering::Relaxed),
            connections,
            malformed: shared.malformed.load(Ordering::Relaxed),
        })
    }
}

fn drain_cache_stats(engine: &mut RecomputeEngine) -> Option<(u64, u64)> {
    match engine.take_cache_stats() {
        (0, 0) => None,
        hm => Some(hm),
    }
}

/// The background worker: pops queued mutations in order, recomputes,
/// publishes. Exits when shutdown is set *and* the queue is empty, so
/// acknowledged mutations are never lost to a graceful stop.
fn mutation_worker(mut engine: RecomputeEngine, shared: Arc<Shared>) {
    loop {
        let m = {
            let mut q = shared.muts.lock().expect("mutation queue");
            loop {
                if let Some(m) = q.queue.pop_front() {
                    break Some(m);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(q, WORKER_POLL)
                    .expect("mutation queue");
                q = guard;
            }
        };
        let Some(m) = m else { return };
        // A panicking recompute (a worker's panic re-raised by the
        // engine's scope join, or a full engine's closure) fails the
        // pipeline like an `Err`, so waiters wake instead of hanging.
        let applied = panic::catch_unwind(AssertUnwindSafe(|| engine.apply(m)))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload))));
        match applied {
            Ok(out) => {
                let g_hash = graph_hash(engine.graph());
                let version = shared.store.load().version + 1;
                let snap = CentralitySnapshot::from_scores(
                    version,
                    g_hash,
                    shared.config_hash,
                    &shared.algo,
                    out.scores,
                    out.sample_size,
                    out.rounds,
                );
                shared.store.publish(snap);
                shared.current_graph_hash.store(g_hash, Ordering::SeqCst);
                shared.published.fetch_add(1, Ordering::Relaxed);
                shared.count(Counter::SnapshotSwaps, 1);
                if let Some((h, miss)) = drain_cache_stats(&mut engine) {
                    shared.count(Counter::SourceCacheHits, h);
                    shared.count(Counter::SourceCacheMisses, miss);
                }
                let mut q = shared.muts.lock().expect("mutation queue");
                q.applied_seq += 1;
                shared.wake.notify_all();
            }
            Err(reason) => {
                // Enqueue-time validation filters graph errors, so this
                // is an engine runtime failure or panic: poison the
                // pipeline (old snapshots keep serving) and reject the
                // backlog.
                let mut q = shared.muts.lock().expect("mutation queue");
                q.dead = Some(format!("mutation {m} failed: {reason}"));
                q.applied_seq = q.enqueued_seq;
                q.queue.clear();
                shared.wake.notify_all();
                return;
            }
        }
    }
}

/// Handles one client connection; every exit path drops the
/// connection.
fn handle_connection(mut stream: WireStream, entry: Arc<ConnEntry>, shared: Arc<Shared>) {
    // Handshake: the first frame must be a valid client HELLO.
    let hello = match stream.read_frame() {
        Ok((TAG_HELLO, payload)) => match Hello::decode(&payload) {
            Ok(h) if h.role == ROLE_CLIENT => h,
            Ok(h) => {
                reject(
                    &mut stream,
                    &shared,
                    &format!("role {} is not a client", h.role),
                );
                return;
            }
            Err(e) => {
                reject(&mut stream, &shared, &format!("bad HELLO: {e}"));
                return;
            }
        },
        Ok((tag, _)) => {
            reject(
                &mut stream,
                &shared,
                &format!("expected HELLO, got tag {tag}"),
            );
            return;
        }
        Err(e) => {
            reject(&mut stream, &shared, &format!("bad first frame: {e}"));
            return;
        }
    };
    let _ = hello;
    let reply = Hello {
        role: ROLE_CLIENT,
        shard_id: 0,
        shards: 0,
        graph_hash: shared.current_graph_hash.load(Ordering::SeqCst),
        config_hash: shared.config_hash,
    };
    if stream.write_frame(TAG_HELLO, &reply.encode()).is_err() {
        return;
    }
    loop {
        match stream.read_frame() {
            Ok((TAG_QUERY, payload)) => {
                let _busy = entry.busy.lock().expect("busy lock");
                let reqs = match decode_requests(&payload) {
                    Ok(reqs) => reqs,
                    Err(e) => {
                        reject(&mut stream, &shared, &format!("bad batch: {e}"));
                        return;
                    }
                };
                let resps = process_batch(&reqs, &shared);
                shared
                    .queries
                    .fetch_add(reqs.len() as u64, Ordering::Relaxed);
                shared.batches.fetch_add(1, Ordering::Relaxed);
                shared.count(Counter::QueriesServed, reqs.len() as u64);
                shared.count(Counter::QueryBatches, 1);
                if let Some(t) = &shared.telemetry {
                    t.record(0, HistogramId::QueryBatchSize, reqs.len() as u64);
                }
                if stream
                    .write_frame(TAG_RESP, &encode_responses(&resps))
                    .is_err()
                {
                    return;
                }
            }
            Ok((TAG_DONE, _)) => return,
            Ok((tag, _)) => {
                reject(&mut stream, &shared, &format!("unexpected tag {tag}"));
                return;
            }
            // EOF / reset / shutdown-wake: a plain disconnect, not a
            // protocol violation.
            Err(WireError::Io(_)) => return,
            Err(e) => {
                reject(&mut stream, &shared, &format!("bad frame: {e}"));
                return;
            }
        }
    }
}

/// Best-effort `TAG_ERROR` + malformed accounting; the caller drops
/// the connection.
fn reject(stream: &mut WireStream, shared: &Shared, reason: &str) {
    shared.malformed.fetch_add(1, Ordering::Relaxed);
    shared.count(Counter::MalformedFrames, 1);
    let _ = stream.write_frame(TAG_ERROR, reason.as_bytes());
    stream.shutdown();
}

/// Answers one batch. All read queries share one snapshot load;
/// mutations validate against the front graph and enqueue.
fn process_batch(reqs: &[QueryRequest], shared: &Shared) -> Vec<QueryResponse> {
    let snap = shared.store.load();
    reqs.iter()
        .map(|req| match req {
            QueryRequest::TopK { k } => QueryResponse::Ranked {
                version: snap.version,
                entries: snap.top_k(*k as usize),
            },
            QueryRequest::Node { v } => match snap.node(*v) {
                Some(score) => QueryResponse::Score {
                    version: snap.version,
                    node: *v,
                    score,
                },
                None => QueryResponse::Failed {
                    reason: format!("node {v} out of range (n = {})", snap.len()),
                },
            },
            QueryRequest::Percentile { p } => match snap.percentile(*p) {
                Some(value) => QueryResponse::Value {
                    version: snap.version,
                    value,
                },
                None => QueryResponse::Failed {
                    reason: format!("percentile {p} outside [0, 100] or empty snapshot"),
                },
            },
            QueryRequest::Meta => {
                let pending = {
                    let q = shared.muts.lock().expect("mutation queue");
                    q.enqueued_seq - q.applied_seq
                };
                QueryResponse::Meta {
                    version: snap.version,
                    graph_hash: snap.graph_hash,
                    config_hash: snap.config_hash,
                    algo: snap.algo.clone(),
                    n: snap.len() as u64,
                    sample_size: snap.sample_size as u64,
                    rounds: snap.rounds,
                    pending,
                }
            }
            QueryRequest::AddEdge { u, v } => enqueue(shared, Mutation::AddEdge(*u, *v)),
            QueryRequest::RemoveEdge { u, v } => enqueue(shared, Mutation::RemoveEdge(*u, *v)),
            QueryRequest::Flush => flush(shared),
        })
        .collect()
}

/// Validates a mutation against the front graph and enqueues it.
fn enqueue(shared: &Shared, m: Mutation) -> QueryResponse {
    let mut q = shared.muts.lock().expect("mutation queue");
    if let Some(dead) = &q.dead {
        return QueryResponse::Failed {
            reason: dead.clone(),
        };
    }
    let next = match m.apply(&q.front) {
        Ok(next) => next,
        Err(e) => {
            return QueryResponse::Failed {
                reason: e.to_string(),
            }
        }
    };
    if matches!(m, Mutation::RemoveEdge(..)) && component_count(&next) > component_count(&q.front) {
        let (u, v) = m.endpoints();
        return QueryResponse::Failed {
            reason: format!("removing {{{u}, {v}}} would disconnect the graph"),
        };
    }
    q.front = next;
    q.enqueued_seq += 1;
    let seq = q.enqueued_seq;
    q.queue.push_back(m);
    shared.wake.notify_all();
    QueryResponse::MutationQueued { seq }
}

/// Blocks until every mutation enqueued before this call is published;
/// fails once the pipeline is dead.
fn flush(shared: &Shared) -> QueryResponse {
    let mut q = shared.muts.lock().expect("mutation queue");
    let target = q.enqueued_seq;
    loop {
        if let Some(dead) = &q.dead {
            return QueryResponse::Failed {
                reason: dead.clone(),
            };
        }
        if q.applied_seq >= target {
            break;
        }
        let (guard, _) = shared
            .wake
            .wait_timeout(q, WORKER_POLL)
            .expect("mutation queue");
        q = guard;
    }
    QueryResponse::Flushed {
        version: shared.store.load().version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FullRunOutput, IncrementalEngine};
    use crate::proto::QueryClient;
    use bc_brandes::betweenness_f64;
    use bc_graph::generators;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};

    fn test_addr() -> String {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        format!("unix:/tmp/bc-serve-test-{}-{id}.sock", std::process::id())
    }

    struct Running {
        addr: String,
        shutdown: Arc<AtomicBool>,
        join: thread::JoinHandle<Result<ServerStats, ServeError>>,
    }

    fn start(g: Graph) -> Running {
        start_engine(RecomputeEngine::Incremental(IncrementalEngine::new(
            g.clone(),
            g.n(),
        )))
    }

    fn start_engine(engine: RecomputeEngine) -> Running {
        let cfg = ServerConfig {
            listen: test_addr(),
            algo: "brandes".into(),
            config_hash: 0xb7a2de5,
            telemetry: Some(Arc::new(Telemetry::new(1, 64))),
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Server::bind(engine, cfg, Arc::clone(&shutdown)).unwrap();
        let addr = server.addr().to_string();
        let join = thread::spawn(move || server.run());
        Running {
            addr,
            shutdown,
            join,
        }
    }

    impl Running {
        fn stop(self) -> ServerStats {
            self.shutdown.store(true, Ordering::SeqCst);
            self.join.join().unwrap().unwrap()
        }
    }

    #[test]
    fn serves_scores_bit_identical_to_offline_brandes() {
        let g = generators::erdos_renyi_connected(20, 0.2, 3);
        let expect = betweenness_f64(&g);
        let srv = start(g.clone());
        let mut client = QueryClient::connect(&srv.addr).unwrap();
        assert_eq!(client.server_hello().graph_hash, graph_hash(&g));
        let reqs: Vec<QueryRequest> = (0..g.n() as u32)
            .map(|v| QueryRequest::Node { v })
            .collect();
        let resps = client.batch(&reqs).unwrap();
        for (v, resp) in resps.iter().enumerate() {
            match resp {
                QueryResponse::Score { score, version, .. } => {
                    assert_eq!(*version, 1);
                    assert_eq!(score.to_bits(), expect[v].to_bits(), "node {v}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Top-k agrees with the snapshot-side ranking helpers.
        let top = client.batch(&[QueryRequest::TopK { k: 3 }]).unwrap();
        match &top[0] {
            QueryResponse::Ranked { entries, .. } => {
                assert_eq!(entries.len(), 3);
                assert!(entries[0].1 >= entries[1].1);
            }
            other => panic!("unexpected {other:?}"),
        }
        client.close();
        let stats = srv.stop();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.queries, g.n() as u64 + 1);
        assert_eq!(stats.malformed, 0);
    }

    #[test]
    fn mutations_publish_new_versions_and_stay_bit_identical() {
        let g = generators::cycle(12);
        let srv = start(g.clone());
        let mut client = QueryClient::connect(&srv.addr).unwrap();
        let resps = client
            .batch(&[
                QueryRequest::AddEdge { u: 0, v: 6 },
                QueryRequest::AddEdge { u: 3, v: 9 },
                QueryRequest::Flush,
                QueryRequest::Meta,
            ])
            .unwrap();
        assert_eq!(resps[0], QueryResponse::MutationQueued { seq: 1 });
        assert_eq!(resps[1], QueryResponse::MutationQueued { seq: 2 });
        assert_eq!(resps[2], QueryResponse::Flushed { version: 3 });
        // Batch reads are answered from the snapshot loaded at batch
        // start: the Meta that rode along still reports version 1.
        match &resps[3] {
            QueryResponse::Meta { version, .. } => assert_eq!(*version, 1),
            other => panic!("unexpected {other:?}"),
        }
        let expected = betweenness_f64(&g.add_edge(0, 6).unwrap().add_edge(3, 9).unwrap());
        let resps = client.batch(&[QueryRequest::Meta]).unwrap();
        match &resps[0] {
            QueryResponse::Meta {
                version,
                graph_hash: gh,
                pending,
                ..
            } => {
                assert_eq!(*version, 3);
                assert_eq!(*pending, 0);
                assert_eq!(
                    *gh,
                    graph_hash(&g.add_edge(0, 6).unwrap().add_edge(3, 9).unwrap())
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let scores = client
            .batch(
                &(0..12)
                    .map(|v| QueryRequest::Node { v })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        for (v, resp) in scores.iter().enumerate() {
            match resp {
                QueryResponse::Score { score, .. } => {
                    assert_eq!(score.to_bits(), expected[v].to_bits(), "node {v}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        client.close();
        let stats = srv.stop();
        assert_eq!(stats.snapshots_published, 2);
    }

    #[test]
    fn invalid_mutations_fail_inline_without_poisoning() {
        let g = generators::path(5);
        let srv = start(g);
        let mut client = QueryClient::connect(&srv.addr).unwrap();
        let resps = client
            .batch(&[
                QueryRequest::AddEdge { u: 0, v: 1 },    // duplicate
                QueryRequest::RemoveEdge { u: 0, v: 4 }, // missing
                QueryRequest::RemoveEdge { u: 2, v: 3 }, // would disconnect
                QueryRequest::AddEdge { u: 2, v: 2 },    // self loop
                QueryRequest::AddEdge { u: 0, v: 99 },   // out of range
                QueryRequest::Node { v: 99 },            // bad read
                QueryRequest::AddEdge { u: 0, v: 2 },    // fine
                QueryRequest::Flush,
            ])
            .unwrap();
        for resp in &resps[..6] {
            assert!(
                matches!(resp, QueryResponse::Failed { .. }),
                "expected failure, got {resp:?}"
            );
        }
        assert_eq!(resps[6], QueryResponse::MutationQueued { seq: 1 });
        assert_eq!(resps[7], QueryResponse::Flushed { version: 2 });
        client.close();
        srv.stop();
    }

    #[test]
    fn garbage_client_gets_error_frame_and_drop_not_a_wedge() {
        let g = generators::path(4);
        let srv = start(g);
        // 1: raw garbage instead of a HELLO.
        let mut s = WireStream::connect(&srv.addr).unwrap();
        s.write_frame(0x6e, b"nonsense").unwrap();
        // An Err here is also acceptable: the server already dropped us.
        if let Ok((tag, _)) = s.read_frame() {
            assert_eq!(tag, TAG_ERROR);
        }
        // 2: valid HELLO but wrong role.
        let mut s = WireStream::connect(&srv.addr).unwrap();
        let shard_hello = Hello {
            role: bc_congest::wire::ROLE_SHARD,
            shard_id: 0,
            shards: 1,
            graph_hash: 0,
            config_hash: 0,
        };
        s.write_frame(TAG_HELLO, &shard_hello.encode()).unwrap();
        let (tag, _) = s.read_frame().unwrap();
        assert_eq!(tag, TAG_ERROR);
        // 3: good handshake, then a truncated batch payload.
        let mut client = QueryClient::connect(&srv.addr).unwrap();
        match client.batch(&[QueryRequest::TopK { k: 1 }]) {
            Ok(r) => assert_eq!(r.len(), 1),
            Err(e) => panic!("healthy client broken: {e}"),
        }
        let mut s = WireStream::connect(&srv.addr).unwrap();
        s.write_frame(
            TAG_HELLO,
            &Hello {
                role: ROLE_CLIENT,
                shard_id: 0,
                shards: 0,
                graph_hash: 0,
                config_hash: 0,
            }
            .encode(),
        )
        .unwrap();
        let (tag, _) = s.read_frame().unwrap();
        assert_eq!(tag, TAG_HELLO);
        s.write_frame(TAG_QUERY, &[9, 9, 9]).unwrap(); // truncated batch
        let (tag, _) = s.read_frame().unwrap();
        assert_eq!(tag, TAG_ERROR);
        // The healthy client still works after all three abuses.
        let r = client.batch(&[QueryRequest::Meta]).unwrap();
        assert!(matches!(r[0], QueryResponse::Meta { .. }));
        client.close();
        let stats = srv.stop();
        assert!(stats.malformed >= 3, "malformed = {}", stats.malformed);
    }

    #[test]
    fn concurrent_readers_never_see_torn_state_during_recompute() {
        let g = generators::cycle(24);
        let srv = start(g);
        let addr = srv.addr.clone();
        let stop = Arc::new(AtomicBool::new(false));
        // Every reader completes a batch before the writer starts, so the
        // torn-batch check runs even when the writer would otherwise
        // finish before any reader thread is scheduled.
        let started = Arc::new(Barrier::new(4));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                thread::spawn(move || {
                    let mut client = QueryClient::connect(&addr).unwrap();
                    let mut last_version = 0u64;
                    let mut served = 0u64;
                    loop {
                        let resps = client
                            .batch(&[
                                QueryRequest::Meta,
                                QueryRequest::TopK { k: 5 },
                                QueryRequest::Percentile { p: 90.0 },
                            ])
                            .unwrap();
                        let (mv, gh) = match &resps[0] {
                            QueryResponse::Meta {
                                version,
                                graph_hash,
                                ..
                            } => (*version, *graph_hash),
                            other => panic!("unexpected {other:?}"),
                        };
                        // Batch atomicity: every answer in the batch
                        // must come from the same snapshot version.
                        match &resps[1] {
                            QueryResponse::Ranked { version, .. } => {
                                assert_eq!(*version, mv, "torn batch")
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                        match &resps[2] {
                            QueryResponse::Value { version, .. } => {
                                assert_eq!(*version, mv, "torn batch")
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                        assert!(mv >= last_version, "version went backwards");
                        assert_ne!(gh, 0);
                        last_version = mv;
                        served += 3;
                        if served == 3 {
                            started.wait();
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    client.close();
                    served
                })
            })
            .collect();
        // Mutate concurrently with the readers.
        let mut writer = QueryClient::connect(&addr).unwrap();
        started.wait();
        for (u, v) in [(0u32, 12u32), (3, 15), (6, 18), (9, 21)] {
            let r = writer
                .batch(&[QueryRequest::AddEdge { u, v }, QueryRequest::Flush])
                .unwrap();
            assert!(matches!(r[1], QueryResponse::Flushed { .. }));
        }
        stop.store(true, Ordering::Relaxed);
        let mut total = 0;
        for r in readers {
            total += r.join().unwrap();
        }
        writer.close();
        let stats = srv.stop();
        assert_eq!(stats.snapshots_published, 4);
        assert!(total > 0);
        assert!(stats.queries >= total);
    }

    #[test]
    fn a_panicking_recompute_fails_flushes_instead_of_hanging() {
        let g = generators::path(5);
        let mut runs = 0;
        let srv = start_engine(RecomputeEngine::Full {
            graph: g,
            run: Box::new(move |g| {
                runs += 1;
                assert!(runs < 2, "recompute {runs} blew up");
                Ok(FullRunOutput {
                    scores: betweenness_f64(g),
                    sample_size: g.n(),
                    rounds: 0,
                })
            }),
        });
        let addr = srv.addr.clone();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let mut client = QueryClient::connect(&addr).unwrap();
            let first = client
                .batch(&[QueryRequest::AddEdge { u: 0, v: 2 }, QueryRequest::Flush])
                .unwrap();
            let later = client
                .batch(&[
                    QueryRequest::AddEdge { u: 0, v: 3 },
                    QueryRequest::Flush,
                    QueryRequest::Meta,
                ])
                .unwrap();
            client.close();
            let _ = tx.send((first, later));
        });
        let (first, later) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a flush after a panicking recompute must not hang");
        assert_eq!(first[0], QueryResponse::MutationQueued { seq: 1 });
        match &first[1] {
            QueryResponse::Failed { reason } => {
                assert!(reason.contains("recompute 2 blew up"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            matches!(later[0], QueryResponse::Failed { .. }),
            "{later:?}"
        );
        assert!(
            matches!(later[1], QueryResponse::Failed { .. }),
            "{later:?}"
        );
        match &later[2] {
            QueryResponse::Meta { version, .. } => assert_eq!(*version, 1),
            other => panic!("unexpected {other:?}"),
        }
        let stats = srv.stop();
        assert_eq!(stats.snapshots_published, 0);
    }
}
