//! E20 — serving throughput under recompute: a live `bc-serve` server
//! over a real Unix-domain socket, hammered by concurrent reader
//! clients while a writer client streams add-edge/remove-edge
//! mutations through flush cycles.
//!
//! Two phases per graph: an *idle* window (readers only — the ceiling)
//! and a *churn* window (the same readers while every snapshot is
//! being recomputed and swapped behind them). The spread between the
//! two prices the epoch-swap design: reads never block on recompute,
//! so churn throughput should stay the same order of magnitude as
//! idle. Each flush round trip is timed as the observable
//! snapshot-swap latency (enqueue → recompute → publish → ack).
//!
//! Every reader asserts the batch-atomicity contract while it measures:
//! all responses in one batch carry one snapshot version, and versions
//! never move backwards on a connection.

use crate::ExperimentReport;
use bc_congest::SCHEMA_VERSION;
use bc_graph::{generators, Graph};
use bc_serve::{
    IncrementalEngine, QueryClient, QueryRequest, QueryResponse, RecomputeEngine, Server,
    ServerConfig,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// How long a window's readers may run past its end to serve their first
/// query: on a loaded host the writer can finish before a starved reader
/// is scheduled at all.
const FIRST_QUERY_DEADLINE: Duration = Duration::from_secs(10);

/// A fresh `unix:` socket address, unique across runs and processes.
fn socket_addr() -> String {
    let pid = std::process::id();
    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("bcw-e20-{pid}-{seq}.sock"));
    format!("unix:{}", path.display())
}

/// The version every response in `resps` carries (panics on a torn
/// batch — the contract E20 rides on).
fn batch_version(resps: &[QueryResponse]) -> u64 {
    let mut version = None;
    for r in resps {
        let v = match r {
            QueryResponse::Ranked { version, .. }
            | QueryResponse::Score { version, .. }
            | QueryResponse::Value { version, .. }
            | QueryResponse::Meta { version, .. } => *version,
            other => panic!("reader got a non-read response: {other:?}"),
        };
        match version {
            None => version = Some(v),
            Some(prev) => assert_eq!(prev, v, "torn batch: two versions in one response frame"),
        }
    }
    version.expect("non-empty batch")
}

/// Spawns `readers` client threads issuing 3-request batches until
/// `stop` flips, counting the requests answered into `answered`.
fn read_load(readers: usize, addr: &str, n: usize, stop: &AtomicBool, answered: &AtomicU64) {
    thread::scope(|s| {
        for r in 0..readers {
            s.spawn(move || {
                let mut client = QueryClient::connect(addr).expect("reader connects");
                let mut last_version = 0u64;
                let mut i = r as u32;
                while !stop.load(Ordering::Relaxed) {
                    let reqs = [
                        QueryRequest::TopK { k: 10 },
                        QueryRequest::Node { v: i % n as u32 },
                        QueryRequest::Percentile { p: 95.0 },
                    ];
                    let resps = client.batch(&reqs).expect("reader batch");
                    let v = batch_version(&resps);
                    assert!(v >= last_version, "snapshot version moved backwards");
                    last_version = v;
                    answered.fetch_add(resps.len() as u64, Ordering::Relaxed);
                    i = i.wrapping_add(1);
                }
                client.close();
            });
        }
    });
}

/// Ends a window: flips `stop` once the readers have answered a query,
/// or at [`FIRST_QUERY_DEADLINE`], after which the window reports 0.
fn stop_after_first_query(answered: &AtomicU64, stop: &AtomicBool) {
    let deadline = Instant::now() + FIRST_QUERY_DEADLINE;
    while answered.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
}

/// Runs E20: serving throughput under concurrent recompute, with its
/// `BENCH_serve.json` artifact.
pub fn run(quick: bool) -> ExperimentReport {
    let n: usize = if quick { 40 } else { 96 };
    let readers = if quick { 2 } else { 4 };
    let cycles = if quick { 3 } else { 10 };
    let idle_window = Duration::from_millis(if quick { 150 } else { 500 });
    let family = format!("er-{n}");
    let g = generators::erdos_renyi_connected(n, (8.0 / n as f64).min(0.5), 7);
    let (u, v) = non_edge(&g);

    let engine = RecomputeEngine::Incremental(IncrementalEngine::new(g.clone(), n));
    let shutdown = Arc::new(AtomicBool::new(false));
    let addr = socket_addr();
    let server = Server::bind(
        engine,
        ServerConfig {
            listen: addr,
            algo: "brandes".to_string(),
            config_hash: 0,
            telemetry: None,
        },
        Arc::clone(&shutdown),
    )
    .expect("server binds");
    let dial = server.addr().to_string();
    let server = thread::spawn(move || server.run().expect("server run"));

    let mut rep = ExperimentReport::new(
        "E20",
        "serving throughput under recompute (concurrent readers vs snapshot swaps)",
        &[
            "graph",
            "phase",
            "readers",
            "queries",
            "elapsed ms",
            "qps",
            "swaps",
            "mean swap ms",
            "max swap ms",
        ],
    );
    let mut json_entries: Vec<String> = Vec::new();
    let mut emit = |phase: &str, queries: u64, elapsed: Duration, swaps: &[Duration]| {
        let secs = elapsed.as_secs_f64().max(1e-9);
        let qps = queries as f64 / secs;
        let mean_ms = if swaps.is_empty() {
            0.0
        } else {
            swaps.iter().map(Duration::as_secs_f64).sum::<f64>() / swaps.len() as f64 * 1e3
        };
        let max_ms = swaps
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .fold(0.0, f64::max);
        rep.push_row(vec![
            family.clone(),
            phase.to_string(),
            readers.to_string(),
            queries.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{qps:.0}"),
            swaps.len().to_string(),
            format!("{mean_ms:.3}"),
            format!("{max_ms:.3}"),
        ]);
        // `engine` keys the row for `bench_guard` (graph, engine) matching.
        json_entries.push(format!(
            "{{\"graph\":\"{family}\",\"engine\":\"{phase}\",\"readers\":{readers},\
             \"queries\":{queries},\"elapsed_ns\":{},\"qps\":{qps:.1},\"swaps\":{},\
             \"mean_swap_ns\":{},\"max_swap_ns\":{}}}",
            elapsed.as_nanos(),
            swaps.len(),
            (mean_ms * 1e6) as u64,
            (max_ms * 1e6) as u64,
        ));
    };

    // Phase 1 — idle: readers only, no recompute behind them.
    let (queries, elapsed) = timed_read_window(readers, &dial, n, idle_window);
    emit("idle", queries, elapsed, &[]);

    // Phase 2 — churn: same read load while a writer cycles the edge
    // {u,v} in and out, flushing after every mutation so each cycle
    // publishes two snapshot versions.
    let (stop, answered) = (AtomicBool::new(false), AtomicU64::new(0));
    let (elapsed, swaps) = thread::scope(|s| {
        let (stop, answered, dial) = (&stop, &answered, &dial);
        s.spawn(move || read_load(readers, dial, n, stop, answered));
        let start = Instant::now();
        let mut writer = QueryClient::connect(dial).expect("writer connects");
        let mut swaps = Vec::with_capacity(2 * cycles);
        for _ in 0..cycles {
            for m in [
                QueryRequest::AddEdge { u, v },
                QueryRequest::RemoveEdge { u, v },
            ] {
                let t0 = Instant::now();
                let resps = writer
                    .batch(&[m, QueryRequest::Flush])
                    .expect("mutation batch");
                assert!(
                    matches!(resps[0], QueryResponse::MutationQueued { .. }),
                    "mutation rejected: {resps:?}"
                );
                assert!(
                    matches!(resps[1], QueryResponse::Flushed { .. }),
                    "flush failed: {resps:?}"
                );
                swaps.push(t0.elapsed());
            }
        }
        writer.close();
        stop_after_first_query(answered, stop);
        (start.elapsed(), swaps)
    });
    emit("churn", answered.into_inner(), elapsed, &swaps);

    shutdown.store(true, Ordering::SeqCst);
    let stats = server.join().expect("server thread");
    assert_eq!(
        stats.snapshots_published,
        2 * cycles as u64,
        "every mutation must publish exactly one snapshot version"
    );
    assert_eq!(stats.malformed, 0, "benchmark clients are well-formed");

    let mut artifact =
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E20\",\"profiles\":[");
    let _ = write!(artifact, "{}", json_entries.join(","));
    artifact.push_str("]}");
    rep.add_artifact("BENCH_serve.json", artifact);
    rep.note(
        "reads are answered from an immutable snapshot behind an epoch \
         swap, so the churn window keeps serving at the idle order of \
         magnitude while every snapshot behind it is recomputed; each \
         swap latency is a full mutation→recompute→publish→ack round \
         trip observed by the writer client"
            .to_string(),
    );
    rep.note(
        "readers assert batch atomicity (one version per response frame, \
         versions monotone per connection) on every single batch, so the \
         throughput numbers double as a linearizability soak"
            .to_string(),
    );
    rep
}

/// Readers-only measured window.
fn timed_read_window(readers: usize, addr: &str, n: usize, w: Duration) -> (u64, Duration) {
    let (stop, answered) = (AtomicBool::new(false), AtomicU64::new(0));
    let start = Instant::now();
    thread::scope(|s| {
        let (stop, answered) = (&stop, &answered);
        s.spawn(move || read_load(readers, addr, n, stop, answered));
        thread::sleep(w);
        stop_after_first_query(answered, stop);
    });
    (answered.into_inner(), start.elapsed())
}

/// First node pair the generator left unconnected.
fn non_edge(g: &Graph) -> (u32, u32) {
    let n = g.n() as u32;
    (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("a non-edge exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_serve_bench_reports_both_phases() {
        let rep = run(true);
        assert_eq!(rep.rows.len(), 2);
        assert_eq!(rep.rows[0][1], "idle");
        assert_eq!(rep.rows[1][1], "churn");
        // Both windows actually served queries.
        for row in &rep.rows {
            let queries: u64 = row[3].parse().expect("query count");
            assert!(queries > 0, "window served nothing: {row:?}");
        }
        // The churn window timed every swap (3 cycles × add+remove).
        assert_eq!(rep.rows[1][6], "6");
        let (name, artifact) = &rep.artifacts[0];
        assert_eq!(name, "BENCH_serve.json");
        assert!(artifact.starts_with("{\"schema_version\":1,"));
        assert!(artifact.contains("\"experiment\":\"E20\""));
        assert!(artifact.contains("\"engine\":\"churn\""));
        assert!(artifact.contains("\"mean_swap_ns\":"));
    }
}
