//! The process-per-shard runtime: a `serve-shard` worker that runs one
//! shard of the round loop behind a socket lane mesh, and a leader that
//! distributes the partition, collects per-shard results, and performs
//! the same canonical merge the in-process engines use.
//!
//! Division of labor with [`bc_congest::wire`]: the congest layer owns
//! framing, the handshake frames, and the shard-side round engine (it
//! needs the engine's internal routing hooks); this module owns
//! everything algorithm-specific — the `SETUP` payload describing a
//! betweenness run, the `DONE` payload carrying a shard's harvest, node
//! construction behind the [`Reliable`] transport, and the leader-side
//! merge that reassembles a [`DistBcResult`] bit-identical to
//! [`run_distributed_bc`](crate::run_distributed_bc) on one process.
//!
//! Wire runs are always reliable: every node sits behind the
//! [`Reliable`] transport exactly as `DistBcConfig { reliable: true }`
//! runs do in process, so budgets, round limits, and results line up
//! with the in-process reliable oracle by construction.

use crate::driver::{DistBcConfig, DistBcError, Plan, RunNode};
use crate::node::{AggInfo, DistBcNode};
use crate::result::{
    summarize_node, summarize_root, DistBcResult, Harvest, NodeSummary, RootSummary,
};
use crate::sampling::{Estimator, SourceSelection};
use crate::schedule::Scheduling;
use crate::transport::{Reliable, ReliableConfig, TransportStats};
use bc_congest::telemetry::{Counter, HistogramId, COUNTERS};
use bc_congest::wire::{
    fnv1a64, graph_hash, put_f64, put_str, put_u32, put_u64, put_u8, run_shard_engine, ByteReader,
    Hello, ShardEngineConfig, WireError, WireListener, WireStream, COUNTER_COUNT,
    PEER_READ_TIMEOUT, ROLE_LEADER, ROLE_SHARD, TAG_DONE, TAG_ERROR, TAG_HELLO, TAG_SETUP,
    VERDICT_QUIESCENT, VERDICT_ROUND_LIMIT,
};
use bc_congest::{
    canonical_abort, Budget, CongestError, Enforcement, NetMetrics, ProfileReport, ShardMap,
    Telemetry,
};
use bc_graph::{Graph, NodeId};
use bc_numeric::{FpParams, Rounding};
use std::fmt;
use std::sync::Arc;

/// Errors from a wire run (leader or shard side).
#[derive(Debug, Clone, PartialEq)]
pub enum WireRunError {
    /// The algorithm itself failed (bad input graph, CONGEST violation,
    /// node panic, round limit) — the same errors an in-process run
    /// reports, reassembled canonically from the shard reports.
    Algo(DistBcError),
    /// The wire itself failed: connect/handshake errors, a peer that
    /// died mid-run, or malformed frames.
    Net(WireError),
}

impl fmt::Display for WireRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireRunError::Algo(e) => write!(f, "{e}"),
            WireRunError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireRunError {}

impl From<WireError> for WireRunError {
    fn from(e: WireError) -> Self {
        WireRunError::Net(e)
    }
}

impl From<DistBcError> for WireRunError {
    fn from(e: DistBcError) -> Self {
        WireRunError::Algo(e)
    }
}

fn proto(msg: impl Into<String>) -> WireRunError {
    WireRunError::Net(WireError::Protocol(msg.into()))
}

/// The failure shard `i` reported in an `ERROR` frame.
fn shard_error(i: usize, payload: &[u8]) -> WireRunError {
    WireError::Peer(format!("shard {i}: {}", String::from_utf8_lossy(payload))).into()
}

// ---------------------------------------------------------------------------
// SETUP codec
// ---------------------------------------------------------------------------

/// The run description the leader distributes to every shard: the graph,
/// the shard addresses and the run's configuration, from which every
/// process builds the same [`Plan`]. The configuration's attachments
/// (telemetry registry, fault plan, cut, thread count) stay with the
/// leader; only whether telemetry deltas are wanted, and whether their
/// clock runs, crosses.
#[derive(Debug, Clone)]
struct Setup {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
    addrs: Vec<String>,
    /// Always reliable: wire runs put every node behind the transport.
    config: DistBcConfig,
    telemetry: bool,
    profiling: bool,
}

/// Two SETUPs are equal when they put the same bytes on the wire.
impl PartialEq for Setup {
    fn eq(&self, other: &Setup) -> bool {
        self.encode() == other.encode()
    }
}

fn put_mask(buf: &mut Vec<u8>, mask: &[bool]) {
    put_u32(buf, mask.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in mask.iter().enumerate() {
        byte |= (b as u8) << (i % 8);
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !mask.len().is_multiple_of(8) {
        buf.push(byte);
    }
}

fn get_mask(r: &mut ByteReader<'_>) -> Result<Vec<bool>, WireError> {
    let len = r.u32()? as usize;
    let mut out = Vec::with_capacity(len);
    let mut byte = 0u8;
    for i in 0..len {
        if i % 8 == 0 {
            byte = r.u8()?;
        }
        out.push(byte >> (i % 8) & 1 != 0);
    }
    Ok(out)
}

impl Setup {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.edges.len() * 8);
        put_u32(&mut buf, self.n as u32);
        put_u32(&mut buf, self.edges.len() as u32);
        for &(u, v) in &self.edges {
            put_u32(&mut buf, u);
            put_u32(&mut buf, v);
        }
        put_u32(&mut buf, self.addrs.len() as u32);
        for a in &self.addrs {
            put_str(&mut buf, a);
        }
        let config = &self.config;
        put_u8(&mut buf, config.scheduling as u8);
        put_u8(&mut buf, config.compute_stress as u8);
        match &config.sources {
            SourceSelection::All => put_u8(&mut buf, 0),
            SourceSelection::Sample { k, seed } => {
                put_u8(&mut buf, 1);
                put_u32(&mut buf, *k as u32);
                put_u64(&mut buf, *seed);
            }
            SourceSelection::Explicit(mask) => {
                put_u8(&mut buf, 2);
                put_mask(&mut buf, mask);
            }
        }
        match &config.targets {
            None => put_u8(&mut buf, 0),
            Some(mask) => {
                put_u8(&mut buf, 1);
                put_mask(&mut buf, mask);
            }
        }
        // Resolved here exactly as `Plan::new` resolves it.
        let fp = config
            .fp
            .unwrap_or_else(|| FpParams::for_graph_size(self.n));
        put_u32(&mut buf, fp.mantissa_bits());
        put_u8(&mut buf, fp.rounding() as u8);
        match config.budget {
            Budget::Auto => put_u8(&mut buf, 0),
            Budget::Bits(b) => {
                put_u8(&mut buf, 1);
                put_u64(&mut buf, b as u64);
            }
            Budget::Unlimited => put_u8(&mut buf, 2),
        }
        let strict = matches!(config.enforcement, Enforcement::Strict);
        put_u8(&mut buf, strict as u8);
        put_u8(&mut buf, config.skip_idle as u8);
        put_u8(&mut buf, self.telemetry as u8);
        put_u8(&mut buf, self.profiling as u8);
        put_u8(&mut buf, config.estimator as u8);
        buf
    }

    fn decode(payload: &[u8]) -> Result<Setup, WireError> {
        let mut r = ByteReader::new(payload);
        let n = r.u32()? as usize;
        let m = r.u32()? as usize;
        let mut edges = Vec::with_capacity(m.min(1 << 24));
        for _ in 0..m {
            let u = r.u32()?;
            let v = r.u32()?;
            edges.push((u, v));
        }
        let a = r.u32()? as usize;
        let mut addrs = Vec::with_capacity(a.min(1 << 16));
        for _ in 0..a {
            addrs.push(r.str()?);
        }
        let scheduling = match r.u8()? {
            0 => Scheduling::DfsPipelined,
            1 => Scheduling::Sequential,
            t => return Err(WireError::Protocol(format!("unknown scheduling tag {t}"))),
        };
        let compute_stress = r.u8()? != 0;
        let sources = match r.u8()? {
            0 => SourceSelection::All,
            1 => SourceSelection::Sample {
                k: r.u32()? as usize,
                seed: r.u64()?,
            },
            2 => SourceSelection::Explicit(get_mask(&mut r)?.into()),
            t => return Err(WireError::Protocol(format!("unknown sources tag {t}"))),
        };
        let targets = match r.u8()? {
            0 => None,
            1 => Some(get_mask(&mut r)?.into()),
            t => return Err(WireError::Protocol(format!("unknown targets tag {t}"))),
        };
        let l = r.u32()?;
        let rounding = match r.u8()? {
            0 => Rounding::Ceil,
            1 => Rounding::Nearest,
            t => return Err(WireError::Protocol(format!("unknown rounding tag {t}"))),
        };
        if !(1..=31).contains(&l) {
            return Err(WireError::Protocol(format!(
                "mantissa bits {l} out of range"
            )));
        }
        let fp = Some(FpParams::new(l, rounding));
        let budget = match r.u8()? {
            0 => Budget::Auto,
            1 => Budget::Bits(r.u64()? as usize),
            2 => Budget::Unlimited,
            t => return Err(WireError::Protocol(format!("unknown budget tag {t}"))),
        };
        let enforcement = match r.u8()? {
            0 => Enforcement::Record,
            _ => Enforcement::Strict,
        };
        let skip_idle = r.u8()? != 0;
        let telemetry = r.u8()? != 0;
        let profiling = r.u8()? != 0;
        let estimator = match r.u8()? {
            0 => Estimator::Scaled,
            1 => Estimator::JiYan,
            t => return Err(WireError::Protocol(format!("unknown estimator tag {t}"))),
        };
        r.finish()?;
        let config = DistBcConfig {
            fp,
            scheduling,
            enforcement,
            budget,
            compute_stress,
            sources,
            targets,
            estimator,
            skip_idle,
            reliable: true,
            ..DistBcConfig::default()
        };
        Ok(Setup {
            n,
            edges,
            addrs,
            config,
            telemetry,
            profiling,
        })
    }
}

// ---------------------------------------------------------------------------
// DONE codec
// ---------------------------------------------------------------------------

/// One shard's complete report back to the leader.
#[derive(Debug, Clone, PartialEq)]
struct ShardDone {
    shard_id: u32,
    committed: u64,
    verdict: u8,
    panic: Option<(NodeId, String)>,
    first_error: Option<CongestError>,
    metrics: NetMetrics,
    transport: TransportStats,
    /// Summaries in shard-local order; empty unless the run quiesced.
    summaries: Vec<NodeSummary>,
    /// Present only from the shard owning global node 0 (quiescent runs).
    root: Option<RootSummary>,
    telemetry_deltas: Vec<[u64; COUNTER_COUNT]>,
}

fn put_congest_error(buf: &mut Vec<u8>, e: &CongestError) {
    match e {
        CongestError::Collision { node, port, round } => {
            put_u8(buf, 0);
            put_u32(buf, *node);
            put_u64(buf, *port as u64);
            put_u64(buf, *round);
        }
        CongestError::Oversized {
            node,
            bits,
            budget,
            round,
        } => {
            put_u8(buf, 1);
            put_u32(buf, *node);
            put_u64(buf, *bits as u64);
            put_u64(buf, *budget as u64);
            put_u64(buf, *round);
        }
        CongestError::RoundLimit { max_rounds } => {
            put_u8(buf, 2);
            put_u64(buf, *max_rounds);
        }
        CongestError::NodePanic {
            node,
            round,
            message,
        } => {
            put_u8(buf, 3);
            put_u32(buf, *node);
            put_u64(buf, *round);
            put_str(buf, message);
        }
    }
}

fn get_congest_error(r: &mut ByteReader<'_>) -> Result<CongestError, WireError> {
    Ok(match r.u8()? {
        0 => CongestError::Collision {
            node: r.u32()?,
            port: r.u64()? as usize,
            round: r.u64()?,
        },
        1 => CongestError::Oversized {
            node: r.u32()?,
            bits: r.u64()? as usize,
            budget: r.u64()? as usize,
            round: r.u64()?,
        },
        2 => CongestError::RoundLimit {
            max_rounds: r.u64()?,
        },
        3 => CongestError::NodePanic {
            node: r.u32()?,
            round: r.u64()?,
            message: r.str()?,
        },
        t => return Err(WireError::Protocol(format!("unknown error tag {t}"))),
    })
}

fn put_u64_vec(buf: &mut Vec<u8>, v: &[u64]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        put_u64(buf, x);
    }
}

fn get_u64_vec(r: &mut ByteReader<'_>) -> Result<Vec<u64>, WireError> {
    let len = r.u32()? as usize;
    let mut out = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        out.push(r.u64()?);
    }
    Ok(out)
}

fn put_metrics(buf: &mut Vec<u8>, m: &NetMetrics) {
    put_u64(buf, m.rounds);
    put_u64(buf, m.total_messages);
    put_u64(buf, m.total_bits);
    put_u64(buf, m.max_message_bits as u64);
    put_u32(buf, m.max_messages_per_edge_round);
    put_u64(buf, m.collisions);
    put_u64(buf, m.oversized_messages);
    put_u64(buf, m.cut_bits);
    put_u64(buf, m.cut_messages);
    put_u64_vec(buf, &m.per_round_messages);
    put_u64_vec(buf, &m.per_round_bits);
    put_u32(buf, m.per_round_max_bits.len() as u32);
    for &x in &m.per_round_max_bits {
        put_u32(buf, x);
    }
    put_u64_vec(buf, &m.message_size_hist);
    put_u64(buf, m.faults_dropped);
    put_u64(buf, m.faults_duplicated);
    put_u64(buf, m.faults_corrupted);
    put_u64(buf, m.faults_delayed);
    put_u64(buf, m.messages_retransmitted);
    put_u64(buf, m.messages_deduped);
}

fn get_metrics(r: &mut ByteReader<'_>) -> Result<NetMetrics, WireError> {
    // Field order matches `put_metrics` (struct literals evaluate in
    // written order, so the reads line up with the encoder).
    Ok(NetMetrics {
        rounds: r.u64()?,
        total_messages: r.u64()?,
        total_bits: r.u64()?,
        max_message_bits: r.u64()? as usize,
        max_messages_per_edge_round: r.u32()?,
        collisions: r.u64()?,
        oversized_messages: r.u64()?,
        cut_bits: r.u64()?,
        cut_messages: r.u64()?,
        per_round_messages: get_u64_vec(r)?,
        per_round_bits: get_u64_vec(r)?,
        per_round_max_bits: {
            let len = r.u32()? as usize;
            let mut v = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                v.push(r.u32()?);
            }
            v
        },
        message_size_hist: get_u64_vec(r)?,
        faults_dropped: r.u64()?,
        faults_duplicated: r.u64()?,
        faults_corrupted: r.u64()?,
        faults_delayed: r.u64()?,
        messages_retransmitted: r.u64()?,
        messages_deduped: r.u64()?,
    })
}

impl ShardDone {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + self.summaries.len() * 28);
        put_u32(&mut buf, self.shard_id);
        put_u64(&mut buf, self.committed);
        put_u8(&mut buf, self.verdict);
        match &self.panic {
            None => put_u8(&mut buf, 0),
            Some((node, message)) => {
                put_u8(&mut buf, 1);
                put_u32(&mut buf, *node);
                put_str(&mut buf, message);
            }
        }
        match &self.first_error {
            None => put_u8(&mut buf, 0),
            Some(e) => {
                put_u8(&mut buf, 1);
                put_congest_error(&mut buf, e);
            }
        }
        put_metrics(&mut buf, &self.metrics);
        put_u64(&mut buf, self.transport.frames_sent);
        put_u64(&mut buf, self.transport.retransmits);
        put_u64(&mut buf, self.transport.ack_only_frames);
        put_u64(&mut buf, self.transport.deduped);
        put_u64(&mut buf, self.transport.checksum_drops);
        put_u32(&mut buf, self.summaries.len() as u32);
        for s in &self.summaries {
            put_f64(&mut buf, s.betweenness);
            put_f64(&mut buf, s.delta_all);
            put_f64(&mut buf, s.delta_in);
            put_u64(&mut buf, s.dist_total);
            put_u32(&mut buf, s.ecc);
            put_f64(&mut buf, s.stress);
            put_u64(&mut buf, s.state_bytes);
        }
        match &self.root {
            None => put_u8(&mut buf, 0),
            Some(root) => {
                put_u8(&mut buf, 1);
                put_u64(&mut buf, root.source_count as u64);
                put_u64(&mut buf, root.agg.base);
                put_u64(&mut buf, root.agg.min_ts);
                put_u64(&mut buf, root.agg.max_ts);
                put_u32(&mut buf, root.agg.d);
                match root.dfs_done_round {
                    None => put_u8(&mut buf, 0),
                    Some(r) => {
                        put_u8(&mut buf, 1);
                        put_u64(&mut buf, r);
                    }
                }
            }
        }
        put_u32(&mut buf, self.telemetry_deltas.len() as u32);
        for delta in &self.telemetry_deltas {
            for &x in delta.iter() {
                put_u64(&mut buf, x);
            }
        }
        buf
    }

    fn decode(payload: &[u8]) -> Result<ShardDone, WireError> {
        let mut r = ByteReader::new(payload);
        let shard_id = r.u32()?;
        let committed = r.u64()?;
        let verdict = r.u8()?;
        let panic = match r.u8()? {
            0 => None,
            _ => Some((r.u32()?, r.str()?)),
        };
        let first_error = match r.u8()? {
            0 => None,
            _ => Some(get_congest_error(&mut r)?),
        };
        let metrics = get_metrics(&mut r)?;
        let transport = TransportStats {
            frames_sent: r.u64()?,
            retransmits: r.u64()?,
            ack_only_frames: r.u64()?,
            deduped: r.u64()?,
            checksum_drops: r.u64()?,
        };
        let count = r.u32()? as usize;
        let mut summaries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            summaries.push(NodeSummary {
                betweenness: r.f64()?,
                delta_all: r.f64()?,
                delta_in: r.f64()?,
                dist_total: r.u64()?,
                ecc: r.u32()?,
                stress: r.f64()?,
                state_bytes: r.u64()?,
            });
        }
        let root = match r.u8()? {
            0 => None,
            _ => {
                let source_count = r.u64()? as usize;
                let agg = AggInfo {
                    base: r.u64()?,
                    min_ts: r.u64()?,
                    max_ts: r.u64()?,
                    d: r.u32()?,
                };
                let dfs_done_round = match r.u8()? {
                    0 => None,
                    _ => Some(r.u64()?),
                };
                Some(RootSummary {
                    source_count,
                    agg,
                    dfs_done_round,
                })
            }
        };
        let count = r.u32()? as usize;
        let mut telemetry_deltas = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let mut delta = [0u64; COUNTER_COUNT];
            for x in delta.iter_mut() {
                *x = r.u64()?;
            }
            telemetry_deltas.push(delta);
        }
        r.finish()?;
        Ok(ShardDone {
            shard_id,
            committed,
            verdict,
            panic,
            first_error,
            metrics,
            transport,
            summaries,
            root,
            telemetry_deltas,
        })
    }
}

// ---------------------------------------------------------------------------
// Shared derivations
// ---------------------------------------------------------------------------

impl Setup {
    /// The shard engine's parameters under `plan` — one code path, so a
    /// leader and its shards can never disagree.
    fn engine(&self, plan: &Plan) -> ShardEngineConfig {
        ShardEngineConfig {
            budget_bits: plan.budget.resolve(self.n),
            strict: matches!(self.config.enforcement, Enforcement::Strict),
            skip_idle: self.config.skip_idle,
            max_rounds: plan.max_rounds,
        }
    }
}

/// Round-trip timeout the transport is configured with; the wire carries
/// no injected faults, so this matches the in-process fault-free `rto`.
const WIRE_RTO: u64 = 3;

// ---------------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------------

/// Runs one shard process: binds `listen` (`tcp:HOST:PORT` or
/// `unix:PATH`), waits for the leader's handshake and `SETUP`, builds the
/// socket lane mesh with its peer shards, executes the run, and reports
/// its harvest back with a `DONE` frame. Serves exactly one run, then
/// returns.
///
/// # Errors
///
/// [`WireRunError::Net`] on any transport or handshake failure — after
/// best-effort reporting the failure to the leader with an `ERROR` frame
/// so the leader errors out instead of hanging.
pub fn serve_shard(listen: &str) -> Result<(), WireRunError> {
    let listener = WireListener::bind(listen)?;
    let mut leader = listener.accept()?;
    leader.set_read_timeout(Some(PEER_READ_TIMEOUT))?;
    let (tag, payload) = leader.read_frame()?;
    if tag != TAG_HELLO {
        return Err(proto(format!("expected HELLO from leader, got tag {tag}")));
    }
    let hello = Hello::decode(&payload)?;
    if hello.role != ROLE_LEADER {
        return Err(proto("first connection was not the leader"));
    }
    let me = hello.shard_id as usize;
    let k = hello.shards as usize;
    let (tag, payload) = leader.read_frame()?;
    if tag != TAG_SETUP {
        return Err(proto(format!("expected SETUP, got tag {tag}")));
    }
    // Every failure from here on, a SETUP this shard cannot accept
    // included, is reported to the leader so it fails with the reason.
    let run = (|| -> Result<Vec<u8>, WireRunError> {
        if fnv1a64(&payload) != hello.config_hash {
            return Err(proto("SETUP payload does not match the HELLO config hash"));
        }
        let setup = Setup::decode(&payload)?;
        if setup.addrs.len() != k || me >= k || k > setup.n {
            return Err(proto(format!(
                "inconsistent topology: shard {me} of {k}, {} addresses, {} nodes",
                setup.addrs.len(),
                setup.n
            )));
        }
        let graph = Graph::from_edges(setup.n, setup.edges.iter().copied())
            .map_err(|e| proto(format!("bad graph in SETUP: {e}")))?;
        if graph_hash(&graph) != hello.graph_hash {
            return Err(proto("graph does not match the HELLO graph hash"));
        }
        let my_hello = Hello {
            role: ROLE_SHARD,
            shard_id: me as u32,
            shards: k as u32,
            graph_hash: hello.graph_hash,
            config_hash: hello.config_hash,
        };
        leader.write_frame(TAG_HELLO, &my_hello.encode())?;
        shard_run(&graph, me, k, &setup, my_hello, &listener)
    })();
    match run {
        Ok(done) => {
            leader.write_frame(TAG_DONE, &done)?;
            Ok(())
        }
        Err(e) => {
            // Best effort: turn a local failure into a leader-visible run
            // error rather than a silent death.
            let _ = leader.write_frame(TAG_ERROR, e.to_string().as_bytes());
            Err(e)
        }
    }
}

/// Builds the mesh, runs the engine, and harvests this shard's `DONE`.
fn shard_run(
    graph: &Graph,
    me: usize,
    k: usize,
    setup: &Setup,
    my_hello: Hello,
    listener: &WireListener,
) -> Result<Vec<u8>, WireRunError> {
    let plan = Plan::new(graph, &setup.config)?;
    let engine_cfg = setup.engine(&plan);
    let map = ShardMap::new(graph.n(), k);

    // Mesh: dial every lower shard (they finished their leader handshake
    // before ours started — the leader is sequential), then accept every
    // higher shard, identifying each by its HELLO.
    let mut peers: Vec<Option<WireStream>> = (0..k).map(|_| None).collect();
    let check = |h: &Hello| -> Result<(), WireRunError> {
        if h.role != ROLE_SHARD
            || h.graph_hash != my_hello.graph_hash
            || h.config_hash != my_hello.config_hash
        {
            return Err(proto("peer handshake mismatch (role or run hashes)"));
        }
        Ok(())
    };
    for (j, addr) in setup.addrs.iter().enumerate().take(me) {
        let mut s = WireStream::connect(addr)?;
        s.write_frame(TAG_HELLO, &my_hello.encode())?;
        let (tag, payload) = s.read_frame()?;
        if tag != TAG_HELLO {
            return Err(proto(format!("expected HELLO from shard {j}, got {tag}")));
        }
        let h = Hello::decode(&payload)?;
        check(&h)?;
        if h.shard_id as usize != j {
            return Err(proto(format!(
                "dialed shard {j} but {} answered",
                h.shard_id
            )));
        }
        s.set_read_timeout(Some(PEER_READ_TIMEOUT))?;
        peers[j] = Some(s);
    }
    for _ in me + 1..k {
        let mut s = listener.accept()?;
        s.set_read_timeout(Some(PEER_READ_TIMEOUT))?;
        let (tag, payload) = s.read_frame()?;
        if tag != TAG_HELLO {
            return Err(proto(format!("expected HELLO from a peer, got {tag}")));
        }
        let h = Hello::decode(&payload)?;
        check(&h)?;
        let j = h.shard_id as usize;
        if j <= me || j >= k || peers[j].is_some() {
            return Err(proto(format!("unexpected peer shard id {j}")));
        }
        s.write_frame(TAG_HELLO, &my_hello.encode())?;
        peers[j] = Some(s);
    }

    // Node construction mirrors the in-process reliable driver; the
    // telemetry registry is shard-local (1 shard, minimal ring) and only
    // feeds the per-round deltas the leader replays, timed when the leader
    // profiles.
    let opts = &plan.opts;
    let rcfg = ReliableConfig { rto: WIRE_RTO };
    let telemetry = setup.telemetry.then(|| {
        let t = Telemetry::new(1, 1);
        t.set_clock(setup.profiling);
        Arc::new(t)
    });
    let n = graph.n();
    let nodes: Vec<Reliable<DistBcNode>> = map.shards()[me]
        .iter()
        .map(|&v| {
            let mut node =
                Reliable::new(DistBcNode::new(n, v, opts.clone()), graph.degree(v), rcfg);
            if let Some(t) = &telemetry {
                node.set_telemetry(t.clone(), 0);
            }
            node
        })
        .collect();

    let outcome = run_shard_engine(
        graph,
        &map,
        me,
        &engine_cfg,
        nodes,
        &mut peers,
        telemetry.as_ref(),
    )?;

    let mut transport = TransportStats::default();
    let inner: Vec<DistBcNode> = outcome
        .nodes
        .into_iter()
        .map(|r| r.harvest(&mut transport))
        .collect();
    // Only a quiescent run has a harvestable protocol state (the root's
    // aggregation broadcast happened); error verdicts carry attribution
    // instead and the leader never assembles a result from them.
    let (summaries, root) = if outcome.verdict == VERDICT_QUIESCENT {
        let summaries: Vec<NodeSummary> = inner.iter().map(summarize_node).collect();
        let root = map.shards()[me]
            .iter()
            .position(|&v| v == 0)
            .map(|local| summarize_root(&inner[local]));
        (summaries, root)
    } else {
        (Vec::new(), None)
    };

    let done = ShardDone {
        shard_id: me as u32,
        committed: outcome.committed,
        verdict: outcome.verdict,
        panic: outcome.panic,
        first_error: outcome.first_error,
        metrics: outcome.metrics,
        transport,
        summaries,
        root,
        telemetry_deltas: outcome.telemetry_deltas,
    };
    Ok(done.encode())
}

// ---------------------------------------------------------------------------
// Leader side
// ---------------------------------------------------------------------------

/// Replays one shard's one-round telemetry delta into the leader's
/// registry — the adds `TelemetryHandle::on_round` performed remotely,
/// re-performed against shard slot `shard` so per-shard load attribution
/// (and thus straggler detection and per-worker busy times) survives the
/// wire.
fn replay_delta(t: &Telemetry, shard: usize, delta: &[u64; COUNTER_COUNT]) {
    // Delta rows follow `COUNTERS`, which is in `Counter` order.
    let at = |c: Counter| delta[c as usize];
    for &(c, _) in &COUNTERS {
        t.add(shard, c, at(c));
    }
    t.record(shard, HistogramId::InboxDepth, at(Counter::InboxMessages));
    t.record(shard, HistogramId::RoundMessages, at(Counter::Messages));
}

/// Runs a betweenness-centrality execution across the shard processes
/// listening on `addrs` (one address per shard, in shard order) and
/// merges their reports into a [`DistBcResult`] — bit-identical to the
/// in-process reliable run of the same configuration, including metrics
/// and replayed telemetry.
///
/// `config.threads` is ignored (the shard count is `addrs.len()`);
/// `config.faults`, `config.cut`, and trace sinks are unsupported on the
/// wire and rejected. `config.reliable` is implied. With `profile`, the
/// shards time their rounds and the profile is derived from the replayed
/// deltas, exactly as [`crate::run`] derives it in process (a private
/// registry stands in when `config.telemetry` is `None`).
///
/// # Errors
///
/// [`WireRunError::Algo`] for algorithm-level failures (empty or
/// disconnected graphs, CONGEST violations, node panics, the round
/// limit) with the same canonical attribution as the in-process engines;
/// [`WireRunError::Net`] when a shard dies, misbehaves, or cannot be
/// reached.
pub fn run_leader(
    g: &Graph,
    config: &DistBcConfig,
    addrs: &[String],
    profile: bool,
) -> Result<(DistBcResult, Option<ProfileReport>), WireRunError> {
    // Wire runs are always reliable.
    let config = DistBcConfig {
        reliable: true,
        ..config.clone()
    };
    let plan = Plan::new(g, &config)?;
    let n = g.n();
    let k = addrs.len();
    if k == 0 {
        return Err(proto("no shard addresses"));
    }
    if k > n {
        return Err(proto(format!("{k} shards for {n} nodes")));
    }
    if config.faults.is_some() || config.cut.is_some() {
        return Err(proto(
            "fault plans and edge cuts are in-process features; the wire \
             engine takes real faults via the network itself",
        ));
    }
    let clock = Plan::profile_registry(&config, k, profile)?;
    let telemetry = clock.clone().or_else(|| config.telemetry.clone());
    let setup = Setup {
        n,
        edges: g.edges().collect(),
        addrs: addrs.to_vec(),
        telemetry: telemetry.is_some(),
        profiling: profile,
        config,
    };
    let config = &setup.config;
    let engine_cfg = setup.engine(&plan);
    let map = ShardMap::new(n, k);

    let setup_bytes = setup.encode();
    let ghash = graph_hash(g);
    let chash = fnv1a64(&setup_bytes);

    // Sequential handshakes, in shard order — the ordering the mesh
    // build relies on (shard i only dials j < i once i has its SETUP,
    // by which point j has long since answered ours).
    let mut streams: Vec<WireStream> = Vec::with_capacity(k);
    for (i, addr) in addrs.iter().enumerate() {
        let mut s = WireStream::connect(addr)?;
        s.write_frame(
            TAG_HELLO,
            &Hello {
                role: ROLE_LEADER,
                shard_id: i as u32,
                shards: k as u32,
                graph_hash: ghash,
                config_hash: chash,
            }
            .encode(),
        )?;
        s.write_frame(TAG_SETUP, &setup_bytes)?;
        let (tag, payload) = s.read_frame()?;
        if tag == TAG_ERROR {
            return Err(shard_error(i, &payload));
        }
        if tag != TAG_HELLO {
            return Err(proto(format!("expected HELLO from shard {i}, got {tag}")));
        }
        let h = Hello::decode(&payload)?;
        if h.role != ROLE_SHARD
            || h.shard_id as usize != i
            || h.graph_hash != ghash
            || h.config_hash != chash
        {
            return Err(proto(format!("shard {i} handshake mismatch")));
        }
        streams.push(s);
    }

    // Collect every shard's DONE (no read timeout here: the run itself
    // may take arbitrarily long, and a dying shard surfaces as EOF or as
    // a neighbor's ERROR frame instead).
    let mut dones: Vec<ShardDone> = Vec::with_capacity(k);
    for (i, s) in streams.iter_mut().enumerate() {
        let (tag, payload) = s.read_frame().map_err(|e| match e {
            WireError::Io(m) => WireError::Peer(format!("shard {i} died mid-run: {m}")),
            other => other,
        })?;
        match tag {
            TAG_DONE => {
                let d = ShardDone::decode(&payload)?;
                if d.shard_id as usize != i {
                    return Err(proto(format!("shard {i} reported as shard {}", d.shard_id)));
                }
                dones.push(d);
            }
            TAG_ERROR => return Err(shard_error(i, &payload)),
            t => return Err(proto(format!("expected DONE from shard {i}, got tag {t}"))),
        }
    }

    // Lockstep sanity: every shard must have seen the same run.
    let committed = dones[0].committed;
    let verdict = dones[0].verdict;
    if dones
        .iter()
        .any(|d| d.committed != committed || d.verdict != verdict)
    {
        return Err(proto("shards disagree on committed rounds or verdict"));
    }

    // Merge metrics exactly like the in-process join: partials add, the
    // committed count becomes the round total.
    let mut metrics = NetMetrics::default();
    let mut transport = TransportStats::default();
    for d in &dones {
        metrics.merge(&d.metrics);
        transport.merge(&d.transport);
    }
    if committed > 0 {
        metrics.rounds = committed;
    }

    // Replay telemetry before any error return so a postmortem carries
    // the flight recorder up to the failure. Committed rounds replay
    // with a finish_round commit; an aborted round's trailing deltas
    // land in the counters only — the same visibility an in-process
    // abort leaves behind. A profiled run logs the replayed rounds.
    if let Some(t) = &clock {
        t.set_clock(true);
    }
    if let Some(t) = &telemetry {
        for r in 0..committed as usize {
            for (i, d) in dones.iter().enumerate() {
                if let Some(delta) = d.telemetry_deltas.get(r) {
                    replay_delta(t, i, delta);
                }
            }
            t.finish_round(r as u64);
        }
        for (i, d) in dones.iter().enumerate() {
            for delta in d.telemetry_deltas.iter().skip(committed as usize) {
                replay_delta(t, i, delta);
            }
        }
    }

    let rounds = clock.map(|t| Plan::stop_clock(&t));

    canonical_abort(
        dones.iter().map(|d| (&d.panic, d.first_error.as_ref())),
        committed,
    )
    .map_err(DistBcError::Congest)?;
    if verdict == VERDICT_ROUND_LIMIT {
        return Err(DistBcError::Congest(CongestError::RoundLimit {
            max_rounds: engine_cfg.max_rounds,
        })
        .into());
    }
    if verdict != VERDICT_QUIESCENT {
        return Err(proto(format!("unexpected final verdict {verdict}")));
    }

    // Reassemble per-node summaries in global id order via the shared map.
    let mut summaries: Vec<Option<NodeSummary>> = vec![None; n];
    let mut root: Option<RootSummary> = None;
    for (i, d) in dones.iter().enumerate() {
        let shard = &map.shards()[i];
        if d.summaries.len() != shard.len() {
            return Err(proto(format!(
                "shard {i} reported {} summaries for {} nodes",
                d.summaries.len(),
                shard.len()
            )));
        }
        for (local, &v) in shard.iter().enumerate() {
            summaries[v as usize] = Some(d.summaries[local]);
        }
        if let Some(rs) = d.root {
            if root.replace(rs).is_some() {
                return Err(proto("two shards claimed the root"));
            }
        }
    }
    let summaries: Vec<NodeSummary> = summaries
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| proto("incomplete node coverage across shards"))?;
    let root = root.ok_or_else(|| proto("no shard reported the root summary"))?;

    let harvest = Harvest {
        rounds: committed,
        metrics,
        transport,
        summaries,
        root,
    };
    Ok(plan.finish(config, harvest, rounds, Some(format!("wire({k})"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup_fixture() -> Setup {
        Setup {
            n: 9,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            addrs: vec!["tcp:127.0.0.1:4100".into(), "unix:/tmp/s1.sock".into()],
            config: DistBcConfig {
                scheduling: Scheduling::Sequential,
                compute_stress: true,
                sources: SourceSelection::Sample { k: 4, seed: 99 },
                targets: Some(vec![true, false, true, true, false, true, true, false, true].into()),
                fp: Some(FpParams::new(13, Rounding::Nearest)),
                budget: Budget::Bits(96),
                enforcement: Enforcement::Strict,
                skip_idle: false,
                estimator: Estimator::JiYan,
                reliable: true,
                ..DistBcConfig::default()
            },
            telemetry: true,
            profiling: true,
        }
    }

    #[test]
    fn setup_codec_round_trips() {
        let setup = setup_fixture();
        let enc = setup.encode();
        assert_eq!(Setup::decode(&enc).unwrap(), setup);

        let explicit = Setup {
            config: DistBcConfig {
                sources: SourceSelection::Explicit(vec![true; 9].into()),
                targets: None,
                budget: Budget::Auto,
                ..setup.config.clone()
            },
            ..setup
        };
        assert_eq!(Setup::decode(&explicit.encode()).unwrap(), explicit);
    }

    /// Hands `setup` to a fresh shard as shard 0 of `shards` and returns
    /// the reason of the `ERROR` frame it must answer with; its own run
    /// must fail without a panic.
    fn shard_rejects(name: &str, setup: &[u8], shards: u32) -> String {
        let path = std::env::temp_dir().join(format!("bcw-{name}-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let shard = {
            let addr = addr.clone();
            std::thread::spawn(move || serve_shard(&addr))
        };
        let mut stream = (0..500)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                WireStream::connect(&addr).ok()
            })
            .expect("shard listens");
        let hello = Hello {
            role: ROLE_LEADER,
            shard_id: 0,
            shards,
            graph_hash: 0,
            config_hash: fnv1a64(setup),
        };
        stream.write_frame(TAG_HELLO, &hello.encode()).unwrap();
        stream.write_frame(TAG_SETUP, setup).unwrap();
        let (tag, reason) = stream.read_frame().unwrap();
        assert_eq!(tag, TAG_ERROR);
        assert!(shard.join().expect("shard does not panic").is_err());
        std::fs::remove_file(&path).ok();
        String::from_utf8_lossy(&reason).into_owned()
    }

    #[test]
    fn unknown_scheduling_byte_is_a_wire_error() {
        let setup = setup_fixture();
        let enc = setup.encode();
        let pipelined = Setup {
            config: DistBcConfig {
                scheduling: Scheduling::DfsPipelined,
                ..setup.config.clone()
            },
            ..setup
        }
        .encode();
        // Byte 2 named the removed event-driven mode.
        let at = (0..enc.len()).find(|&i| enc[i] != pipelined[i]).unwrap();
        let mut bad = enc;
        bad[at] = 2;
        let reason = shard_rejects("scheduling", &bad, 1);
        assert!(reason.contains("unknown scheduling tag 2"), "{reason}");
    }

    /// A shard map never holds an empty shard, so a shard handed more
    /// shards than nodes refuses the run instead of indexing past it.
    #[test]
    fn more_shards_than_nodes_is_a_wire_error() {
        let setup = Setup {
            n: 1,
            edges: Vec::new(),
            ..setup_fixture()
        };
        let reason = shard_rejects("oversharded", &setup.encode(), 2);
        assert!(reason.contains("inconsistent topology"), "{reason}");
    }

    #[test]
    fn done_codec_round_trips() {
        let metrics = NetMetrics {
            total_messages: 42,
            per_round_messages: vec![1, 2, 3],
            per_round_max_bits: vec![7, 9],
            message_size_hist: vec![0; 12],
            ..NetMetrics::default()
        };
        let done = ShardDone {
            shard_id: 1,
            committed: 17,
            verdict: VERDICT_QUIESCENT,
            panic: Some((3, "boom".into())),
            first_error: Some(CongestError::Oversized {
                node: 2,
                bits: 130,
                budget: 104,
                round: 5,
            }),
            metrics,
            transport: TransportStats {
                frames_sent: 10,
                retransmits: 1,
                ack_only_frames: 2,
                deduped: 3,
                checksum_drops: 0,
            },
            summaries: vec![
                NodeSummary {
                    betweenness: 3.5,
                    delta_all: 7.0,
                    delta_in: 1.5,
                    dist_total: 12,
                    ecc: 3,
                    stress: 0.0,
                    state_bytes: 4096,
                },
                NodeSummary {
                    betweenness: 0.25,
                    delta_all: 0.5,
                    delta_in: 0.0,
                    dist_total: 9,
                    ecc: 2,
                    stress: 7.0,
                    state_bytes: 2048,
                },
            ],
            root: Some(RootSummary {
                source_count: 9,
                agg: AggInfo {
                    base: 100,
                    min_ts: 12,
                    max_ts: 30,
                    d: 3,
                },
                dfs_done_round: Some(44),
            }),
            telemetry_deltas: vec![[1u64; COUNTER_COUNT], [2u64; COUNTER_COUNT]],
        };
        assert_eq!(ShardDone::decode(&done.encode()).unwrap(), done);
    }

    #[test]
    fn mask_codec_handles_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let mask: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            put_mask(&mut buf, &mask);
            let mut r = ByteReader::new(&buf);
            assert_eq!(get_mask(&mut r).unwrap(), mask);
            r.finish().unwrap();
        }
    }

    #[test]
    fn congest_error_codec_round_trips() {
        for e in [
            CongestError::Collision {
                node: 1,
                port: 2,
                round: 3,
            },
            CongestError::Oversized {
                node: 4,
                bits: 5,
                budget: 6,
                round: 7,
            },
            CongestError::RoundLimit { max_rounds: 8 },
            CongestError::NodePanic {
                node: 9,
                round: 10,
                message: "x".into(),
            },
        ] {
            let mut buf = Vec::new();
            put_congest_error(&mut buf, &e);
            let mut r = ByteReader::new(&buf);
            assert_eq!(get_congest_error(&mut r).unwrap(), e);
            r.finish().unwrap();
        }
    }
}
