//! The synchronous CONGEST network engine.
//!
//! Executes a [`Protocol`] state machine at every node of a graph in
//! globally synchronized rounds (Section III-A of the paper): messages sent
//! in round `r` are delivered at the start of round `r + 1`; each node may
//! send at most one message per incident edge per round; each message is
//! charged its exact payload size in bits against an `O(log N)` budget.
//!
//! The engine does not merely *assume* the CONGEST constraints — it
//! measures them ([`crate::NetMetrics`]) and, under
//! [`Enforcement::Strict`], fails the execution on the first violation,
//! which turns protocol bugs (schedule collisions, oversized encodings)
//! into test failures.
//!
//! Every run — [`Network::run`], [`Network::run_rounds`] and
//! [`Network::run_parallel`] — is one shard round loop
//! (`ShardWorker::run`) over the contiguous, equal-count id ranges of a
//! [`ShardMap`]: `run` is its one-shard case, stepped on the calling
//! thread, and socket shards ([`crate::wire`]) run the same loop with
//! `BATCH` frames for lanes (the `Lanes` trait). Three throughput
//! mechanisms ride in that loop, none of which may change observable
//! output (node states, metrics, traces are bit-identical with them on or
//! off, for every shard count):
//!
//! - **double-buffered inboxes** — each shard's current and next-round
//!   inboxes swap each round, so per-node `Vec` allocations are reused
//!   instead of reallocated, and a send to a node of the sender's own
//!   shard goes straight into the next-round inbox;
//! - **a wake calendar** — a round visits only the nodes that received
//!   mail and those whose timer ([`Protocol::next_wake`]) names this round
//!   (`crate::wake`), so an idle round costs `O(n/64)`, not `O(n)`. A due
//!   node with an empty inbox is still skipped when [`Protocol::idle_at`]
//!   says the step is a no-op, so protocols that only answer `idle_at` are
//!   polled every round and skipped where it says so. The first round of each
//!   run, every round under a fault plan, and every round with
//!   [`Config::skip_idle`] off (the correctness escape hatch) visit every
//!   node;
//! - **a sharded data plane** — [`Network::run_parallel`] runs a pool of
//!   workers, each *owning* one shard of node states and inboxes for the
//!   whole run. Workers validate and route their own sends directly into
//!   per-destination batches, so message payloads never pass through a
//!   coordinator. Only compact summaries (trace-event buffers,
//!   fault-delayed sends, error/panic attribution) reach worker 0, which
//!   merges them in ascending node-id order between the round
//!   barrier's two crossings — keeping traces and metrics byte-identical
//!   for every worker count.

use crate::faults::{self, FaultPlan};
use crate::message::Message;
use crate::metrics::{EdgeCut, NetMetrics, SendTally};
use crate::partition::ShardMap;
use crate::telemetry::{ProfRow, Telemetry, TelemetryHandle};
use crate::trace::{ProtocolDetail, TraceEvent, TraceSink, ViolationKind};
use crate::wake::WakeSet;
use crate::wire::{VERDICT_ABORT, VERDICT_CONTINUE, VERDICT_QUIESCENT, VERDICT_ROUND_LIMIT};
use bc_graph::{Graph, NodeId, ReversePorts};
use bc_numeric::bits::id_bits;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Per-message bit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Budget {
    /// `8·⌈log₂ N⌉ + 64` bits — a concrete `Θ(log N)` with room for the
    /// protocol headers used in this workspace.
    #[default]
    Auto,
    /// A fixed budget in bits.
    Bits(usize),
    /// No limit (sizes are still recorded).
    Unlimited,
}

impl Budget {
    /// Resolves the budget for an `n`-node network (`None` = unlimited).
    pub fn resolve(self, n: usize) -> Option<usize> {
        match self {
            Budget::Auto => Some(8 * id_bits(n.max(2)) as usize + 64),
            Budget::Bits(b) => Some(b),
            Budget::Unlimited => None,
        }
    }
}

/// What to do when a CONGEST constraint is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Enforcement {
    /// Abort the run with a [`CongestError`].
    #[default]
    Strict,
    /// Record the violation in [`NetMetrics`] and keep going.
    Record,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-message bit budget.
    pub budget: Budget,
    /// Violation handling.
    pub enforcement: Enforcement,
    /// Optional edge cut across which bit flow is measured.
    pub cut: Option<EdgeCut>,
    /// Skip stepping nodes whose inbox is empty and whose
    /// [`Protocol::idle_at`] returns `true`, and visit only the nodes the
    /// wake calendar names. On by default; turn off to force every node to
    /// step every round (correctness escape hatch — output must not change
    /// either way).
    pub skip_idle: bool,
    /// Optional fault-injection plan applied between outboxes and
    /// inboxes: per-edge/per-round drop, duplication, corruption, and
    /// delay, plus node crash windows (see [`crate::faults`]). `None`
    /// (the default) is the ideal fault-free network.
    pub faults: Option<FaultPlan>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            budget: Budget::default(),
            enforcement: Enforcement::default(),
            cut: None,
            skip_idle: true,
            faults: None,
        }
    }
}

/// A CONGEST constraint violation (only surfaced under
/// [`Enforcement::Strict`]) or an execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestError {
    /// A node staged two messages on the same incident edge in one round.
    Collision {
        /// Sending node.
        node: NodeId,
        /// Port (index into the node's adjacency list).
        port: usize,
        /// Round in which it happened.
        round: u64,
    },
    /// A message exceeded the per-message bit budget.
    Oversized {
        /// Sending node.
        node: NodeId,
        /// The message's size in bits.
        bits: usize,
        /// The configured budget.
        budget: usize,
        /// Round in which it happened.
        round: u64,
    },
    /// `run` hit its round limit before all nodes halted.
    RoundLimit {
        /// The limit that was hit.
        max_rounds: u64,
    },
    /// A node's [`Protocol::round`] panicked. Every shard count surfaces
    /// the lowest-id panicking node of the round rather than aborting the
    /// process.
    NodePanic {
        /// The node whose step panicked.
        node: NodeId,
        /// Round in which it happened.
        round: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::Collision { node, port, round } => write!(
                f,
                "collision: node {node} sent twice on port {port} in round {round}"
            ),
            CongestError::Oversized {
                node,
                bits,
                budget,
                round,
            } => write!(
                f,
                "oversized message: node {node} sent {bits} bits (budget {budget}) in round {round}"
            ),
            CongestError::RoundLimit { max_rounds } => {
                write!(f, "network did not halt within {max_rounds} rounds")
            }
            CongestError::NodePanic {
                node,
                round,
                message,
            } => write!(f, "node {node} panicked in round {round}: {message}"),
        }
    }
}

impl std::error::Error for CongestError {}

/// The per-node state machine executed by the engine.
///
/// Implementations receive one [`Protocol::round`] call per simulated round
/// with the messages that arrived at the start of that round, and may stage
/// outgoing messages through the [`RoundCtx`]. Local computation is free,
/// matching the model ("every node can perform local computation in each
/// round and it has no influence on the time complexity").
pub trait Protocol {
    /// Executes one synchronous round.
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]);

    /// Returns `true` once this node will neither send nor needs to receive
    /// any further messages. The engine stops when every node is halted and
    /// no messages are in flight.
    fn is_halted(&self) -> bool;

    /// The earliest round `≥ round` in which calling [`Protocol::round`]
    /// with an *empty* inbox would not be a no-op (a no-op sends nothing,
    /// traces nothing, and changes no observable state), assuming no
    /// message arrives before it; `None` if only a message can wake the
    /// node. The engines keep a wake calendar from it: a node with no mail
    /// is visited only in the round its timer names (unless
    /// [`Config::skip_idle`] is off). The default, `Some(round)`, means
    /// "poll every round".
    fn next_wake(&self, round: u64) -> Option<u64> {
        Some(round)
    }

    /// Returns `true` if calling [`Protocol::round`] for `round` with an
    /// empty inbox would be a no-op, so the engine may skip the call. The
    /// engines ask it of every due node with an empty inbox before
    /// stepping it. It is derived from [`Protocol::next_wake`]; a wrapper
    /// may forward it alone, in which case its nodes are polled every round
    /// (the default `next_wake`) and skipped exactly where the inner
    /// protocol says so.
    fn idle_at(&self, round: u64) -> bool {
        self.next_wake(round) != Some(round)
    }
}

/// Per-round, per-node execution context: identity, topology access, and
/// the staging area for outgoing messages.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    id: NodeId,
    round: u64,
    graph: &'a Graph,
    sends: Vec<(usize, Message)>,
    tracing: bool,
    events: Vec<ProtocolDetail>,
}

impl<'a> RoundCtx<'a> {
    /// Builds a context staging into recycled buffers (must be empty).
    /// The engines drain and reuse them round over round.
    pub(crate) fn with_buffers(
        id: NodeId,
        round: u64,
        graph: &'a Graph,
        tracing: bool,
        sends: Vec<(usize, Message)>,
        events: Vec<ProtocolDetail>,
    ) -> Self {
        debug_assert!(sends.is_empty() && events.is_empty());
        RoundCtx {
            id,
            round,
            graph,
            sends,
            tracing,
            events,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round number (starting at 0).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total number of nodes `N` (known to all nodes, as the paper assumes
    /// for computing `O(log N)`-bit encodings and schedules).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.id)
    }

    /// Identifier of the neighbor reached through `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`.
    pub fn neighbor(&self, port: usize) -> NodeId {
        self.graph.neighbors(self.id)[port]
    }

    /// Port through which `neighbor` is reached, if adjacent.
    pub fn port_of(&self, neighbor: NodeId) -> Option<usize> {
        self.graph.neighbors(self.id).binary_search(&neighbor).ok()
    }

    /// Stages `msg` for delivery to the neighbor on `port` at the start of
    /// the next round.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`. (The engine converts the panic into a
    /// [`CongestError::NodePanic`] run error.)
    pub fn send(&mut self, port: usize, msg: Message) {
        assert!(port < self.degree(), "send on nonexistent port {port}");
        self.sends.push((port, msg));
    }

    /// Stages `msg` to every neighbor (a local broadcast, one message per
    /// incident edge — permitted by CONGEST).
    pub fn broadcast(&mut self, msg: &Message) {
        for port in 0..self.degree() {
            self.sends.push((port, msg.clone()));
        }
    }

    /// Drains the staged sends (used by the asynchronous synchronizer,
    /// which transports them itself).
    pub(crate) fn take_sends(&mut self) -> Vec<(usize, Message)> {
        std::mem::take(&mut self.sends)
    }

    /// Executes one *virtual* round of a nested protocol on behalf of a
    /// wrapper protocol (e.g. a reliable-transport layer). `inner.round`
    /// runs with a context for the same node and graph but round number
    /// `vround`, and the messages it stages land in `sends` (cleared
    /// first) for the wrapper — which transports them itself — instead of
    /// going to the engine. The wrapper keeps `sends` between calls, so a
    /// virtual round allocates nothing once the buffer has grown. Trace
    /// events staged by the nested protocol are re-staged into this
    /// context, so they surface under the wrapper's physical round.
    pub fn nested_round<P: Protocol>(
        &mut self,
        vround: u64,
        inner: &mut P,
        inbox: &[(usize, Message)],
        sends: &mut Vec<(usize, Message)>,
    ) {
        sends.clear();
        let mut ctx = RoundCtx::with_buffers(
            self.id,
            vround,
            self.graph,
            self.tracing,
            std::mem::take(sends),
            Vec::new(),
        );
        inner.round(&mut ctx, inbox);
        self.events.append(&mut ctx.events);
        *sends = ctx.sends;
    }

    /// Returns `true` when a trace sink is attached to the engine, so
    /// protocols can skip expensive event preparation entirely.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Stages a protocol-level trace event for this round. A no-op unless
    /// the engine has a trace sink attached ([`RoundCtx::tracing`]), so
    /// untraced runs pay only this branch.
    pub fn trace(&mut self, detail: ProtocolDetail) {
        if self.tracing {
            self.events.push(detail);
        }
    }

    /// Drains the staged trace events (engine-side).
    pub(crate) fn take_events(&mut self) -> Vec<ProtocolDetail> {
        std::mem::take(&mut self.events)
    }
}

/// Outcome of a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds executed until quiescence.
    pub rounds: u64,
}

/// A simulated synchronous network executing protocol `P` on every node.
pub struct Network<P> {
    graph: Graph,
    /// Reverse ports of `graph`, built once per engine for routing.
    reverse: ReversePorts,
    config: Config,
    budget_bits: Option<usize>,
    /// Node states between runs, ascending by id.
    nodes: Vec<P>,
    /// Inboxes of the next round to run, parallel to `nodes`: a run
    /// stopped by its round limit leaves its last round's mail here.
    inboxes: Vec<Vec<(usize, Message)>>,
    /// Fault-delayed messages still in flight, bucketed by delivery round:
    /// `(target, port, message)` in injection order.
    delayed: BTreeMap<u64, Vec<(NodeId, usize, Message)>>,
    metrics: NetMetrics,
    round: u64,
    sink: Option<Box<dyn TraceSink>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl<P> fmt::Debug for Network<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network(n={}, round={}, metrics={:?})",
            self.graph.n(),
            self.round,
            self.metrics
        )
    }
}

/// Workers 1.. of a run with their lanes; worker 0 leads on the calling
/// thread.
type Peers<'a, P> = Vec<(ShardWorker<'a, P>, MeshLanes<'a>)>;

/// What a run's workers hand back: worker 0's [`Lead`], then the other
/// shards in worker order.
type Pooled<P> = (Lead<P>, Vec<ShardHandoff<P>>);

/// The one-shard pool: worker 0 runs alone on the calling thread.
fn alone<P: Protocol>(
    coordinator: Coordinator<'_>,
    lead: ShardWorker<'_, P>,
    _: Peers<'_, P>,
    start: u64,
) -> Pooled<P> {
    (coordinator.lead(lead, start), Vec::new())
}

impl<P: Protocol> Network<P> {
    /// Builds a network over `graph` where node `v` runs
    /// `factory(v, graph)`.
    pub fn new<F>(graph: &Graph, config: Config, mut factory: F) -> Self
    where
        F: FnMut(NodeId, &Graph) -> P,
    {
        let n = graph.n();
        let nodes = (0..n as NodeId).map(|v| factory(v, graph)).collect();
        Network {
            budget_bits: config.budget.resolve(n),
            graph: graph.clone(),
            reverse: ReversePorts::new(graph),
            config,
            nodes,
            inboxes: vec![Vec::new(); n],
            delayed: BTreeMap::new(),
            metrics: NetMetrics::default(),
            round: 0,
            sink: None,
            telemetry: None,
        }
    }

    /// Installs a trace sink; subsequent rounds emit
    /// [`TraceEvent`]s into it. Returns the previously installed sink.
    ///
    /// The event stream is deterministic and the same for every shard
    /// count: per round, one `RoundStart`, then each node's protocol
    /// events followed by its `MessageSent`s, in ascending node-id order
    /// (worker 0 merges the workers' buffers back into this order).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.sink.replace(sink)
    }

    /// Removes and returns the trace sink, stopping emission.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Attaches a shared telemetry registry; subsequent rounds batch
    /// counter/histogram updates into it (one update per worker per
    /// round) and commit each round into its recorder. With the
    /// registry's clock on ([`Telemetry::set_clock`]) the rounds are timed
    /// too, which is how a run is profiled. Results, metrics, and traces
    /// are bit-identical with telemetry on or off, clock or no clock, for
    /// every shard count. Returns the previously attached registry.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) -> Option<Arc<Telemetry>> {
        self.telemetry.replace(telemetry)
    }

    /// The simulated graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v as usize]
    }

    /// Consumes the network, returning all node states.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Runs until every node reports halted and no messages are in flight:
    /// the one-shard run of the shard round loop, on the calling thread.
    /// A run stopped by its round limit may be re-entered with a higher
    /// one (or with [`Network::run_parallel`]) and ends exactly as one
    /// unchunked run would.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::RoundLimit`] if the protocol does not halt
    /// within `max_rounds`, a constraint violation under
    /// [`Enforcement::Strict`], or [`CongestError::NodePanic`] if a node's
    /// step panicked.
    pub fn run(&mut self, max_rounds: u64) -> Result<RunReport, CongestError> {
        self.run_shards(max_rounds, 1, true, alone)
    }

    /// Runs exactly `rounds` additional rounds (useful for protocols
    /// observed mid-flight).
    ///
    /// # Errors
    ///
    /// Returns a constraint violation under [`Enforcement::Strict`].
    pub fn run_rounds(&mut self, rounds: u64) -> Result<RunReport, CongestError> {
        if rounds == 0 || self.graph.n() == 0 {
            // Nothing to step: an empty network's rounds pass at once.
            self.round += rounds;
            self.metrics.rounds = self.round;
            return Ok(RunReport { rounds: self.round });
        }
        match self.run_shards(self.round + rounds, 1, false, alone) {
            Err(CongestError::RoundLimit { .. }) => Ok(RunReport { rounds: self.round }),
            other => other,
        }
    }

    /// No mail in flight and every node halted.
    fn quiescent(&self) -> bool {
        self.delayed.is_empty()
            && self.inboxes.iter().all(Vec::is_empty)
            && self.nodes.iter().all(P::is_halted)
    }

    /// Runs the shard round loop over `min(n, threads)` shards until
    /// quiescence (or, with `until_quiet` off, until the round limit
    /// alone ends it). The node states and inboxes are split into the
    /// contiguous shards, which their workers own for the whole run, and
    /// concatenated back at the end. Worker 0 leads on the calling thread
    /// as the coordinator; `pool` runs it and the other workers and
    /// returns what they hand back.
    fn run_shards<F>(
        &mut self,
        max_rounds: u64,
        threads: usize,
        until_quiet: bool,
        pool: F,
    ) -> Result<RunReport, CongestError>
    where
        F: for<'a> FnOnce(Coordinator<'a>, ShardWorker<'a, P>, Peers<'a, P>, u64) -> Pooled<P>,
    {
        if until_quiet && self.quiescent() {
            return Ok(RunReport { rounds: self.round });
        }
        if self.round >= max_rounds {
            return Err(CongestError::RoundLimit { max_rounds });
        }
        let map = ShardMap::new(self.graph.n(), threads);
        let workers = map.len();
        let start = self.round;

        // Scatter: split the id-ordered node states and inboxes at the
        // shard boundaries, last shard first, so shard 0 keeps the
        // vectors' buffers and the gather appends into them.
        let (mut nodes, mut inboxes) = (
            std::mem::take(&mut self.nodes),
            std::mem::take(&mut self.inboxes),
        );
        let mut shards: Vec<_> = map.shards()[1..]
            .iter()
            .rev()
            .map(|shard| {
                let at = shard[0] as usize;
                (nodes.split_off(at), inboxes.split_off(at))
            })
            .collect();
        shards.push((nodes, inboxes));
        shards.reverse();
        // The fault-delayed messages due this round go with their shards.
        let mut inject: Vec<LaneBatch> = (0..workers).map(|_| Vec::new()).collect();
        for (target, port, msg) in self.delayed.remove(&start).unwrap_or_default() {
            inject[map.shard_of(target)].push((map.local_of(target) as u32, port as u32, msg));
        }

        let env = ShardEnv {
            graph: &self.graph,
            reverse: &self.reverse,
            map: &map,
            budget_bits: self.budget_bits,
            cut: self.config.cut.as_ref(),
            faults: self.config.faults.as_ref(),
            skip_idle: self.config.skip_idle,
            strict: matches!(self.config.enforcement, Enforcement::Strict),
            tracing: self.sink.is_some(),
        };
        let telemetry = self.telemetry.as_ref();
        let mut pool_workers =
            shards
                .into_iter()
                .zip(inject)
                .enumerate()
                .map(|(w, ((nodes, inboxes), inject))| {
                    let handle = telemetry.map(|t| TelemetryHandle::new(t.clone(), w));
                    ShardWorker::new(w, env, nodes, inboxes, handle, inject)
                });
        let sync = RoundSync {
            barrier: SpinBarrier::new(workers),
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            verdict: AtomicU8::new(VERDICT_CONTINUE),
        };
        let mut lanes = MeshLanes::mesh(&sync).into_iter();
        let coordinator = Coordinator {
            mesh: lanes.next().expect("at least one shard"),
            map: &map,
            max_rounds,
            until_quiet,
            sink: &mut self.sink,
            delayed: &mut self.delayed,
            telemetry: telemetry.map(Arc::as_ref),
            replies: Vec::with_capacity(workers),
            committed: 0,
            abort: Ok(()),
        };
        let lead = pool_workers.next().expect("at least one shard");
        let peers = pool_workers.zip(lanes).collect();
        let (lead, rest) = pool(coordinator, lead, peers, start);
        let Lead {
            shard: (nodes, inboxes, metrics),
            verdict,
            committed,
            abort,
        } = lead;

        // Gather: concatenate the shards back in id order and fold each
        // worker's metric partial into the run metrics (merge is
        // commutative, so gather order does not matter).
        self.round += committed;
        if committed > 0 {
            self.metrics.rounds = self.round;
        }
        (self.nodes, self.inboxes) = (nodes, inboxes);
        self.metrics.merge(&metrics);
        for (nodes, inboxes, metrics) in rest {
            self.nodes.extend(nodes);
            self.inboxes.extend(inboxes);
            self.metrics.merge(&metrics);
        }
        debug_assert_eq!(self.nodes.len(), self.graph.n());
        abort?;
        match verdict {
            VERDICT_ROUND_LIMIT => Err(CongestError::RoundLimit { max_rounds }),
            _ => Ok(RunReport { rounds: self.round }),
        }
    }
}

/// One routed message in flight between shards: `(destination's local
/// index within its shard, reverse port, payload)`.
pub(crate) type LaneEntry = (u32, u32, Message);

/// One round's worth of messages on one directed shard→shard lane.
/// Exactly one batch (possibly empty) crosses each lane per round — that
/// invariant is what lets the receiver's drain double as the round
/// barrier.
pub(crate) type LaneBatch = Vec<LaneEntry>;

/// What the shard loop hands back when it exits: the shard's node states,
/// per-node inboxes, and its [`NetMetrics`] partial.
pub(crate) type ShardHandoff<P> = (Vec<P>, Vec<Vec<(usize, Message)>>, NetMetrics);

/// One round's summary from one shard. Message payloads are *not* here —
/// they went directly to their destination shards over the lanes. The
/// buffers are reused round after round.
#[derive(Default)]
pub(crate) struct WorkerReply {
    /// `(node, events emitted)` per stepped node that produced trace
    /// events, ascending by node id; payloads are flattened into `events`
    /// in the same order.
    index: Vec<(NodeId, u32)>,
    events: Vec<TraceEvent>,
    /// Fault-delayed sends staged this round, tagged with their sender:
    /// `(sender, due round, target, port, message)`, ascending by sender.
    delayed: Vec<(NodeId, u64, NodeId, usize, Message)>,
    /// Fault-delayed messages due at this shard in the next round, in
    /// canonical injection order.
    inject: LaneBatch,
    /// First constraint violation in this shard's step order (= its
    /// lowest-id violating node), kept only under strict enforcement; the
    /// run reports the globally lowest.
    pub(crate) first_error: Option<CongestError>,
    /// First `round()` panic in the shard; nodes after it were not stepped
    /// and its own output was discarded.
    pub(crate) panic: Option<(NodeId, String)>,
    /// Messages this shard routed for the next round (intra + cross).
    pub(crate) routed: u64,
    /// Every node of the shard has halted.
    pub(crate) all_halted: bool,
}

impl WorkerReply {
    /// The shard saw a node panic or a strict violation: the round aborts.
    pub(crate) fn fatal(&self) -> bool {
        self.panic.is_some() || self.first_error.is_some()
    }
}

/// The verdict on a round every shard has stepped: abort (`fatal` on any
/// shard) beats quiescence (`quiet`: no mail in flight and every node
/// halted) beats the round limit.
pub(crate) fn round_verdict(fatal: bool, quiet: bool, round: u64, max_rounds: u64) -> u8 {
    if fatal {
        VERDICT_ABORT
    } else if quiet {
        VERDICT_QUIESCENT
    } else if round + 1 >= max_rounds {
        VERDICT_ROUND_LIMIT
    } else {
        VERDICT_CONTINUE
    }
}

/// How a shard trades its round's batches with its peers and learns each
/// round's verdict. [`ShardWorker::run`] is the one shard round loop; the
/// in-process pool runs it over [`MeshLanes`] (channels and a barrier),
/// socket shards over `BATCH` frames (`crate::wire`).
pub(crate) trait Lanes {
    /// A transport failure.
    type Error;

    /// Sends this round's batch for peer `to` — exactly one per peer per
    /// round, empty or not — and leaves `batch` empty for reuse. `reply`
    /// is the shard's round summary.
    fn send(
        &mut self,
        to: usize,
        batch: &mut LaneBatch,
        round: u64,
        reply: &WorkerReply,
    ) -> Result<(), Self::Error>;

    /// Hands every entry peer `from` sent last round to `deliver`, in
    /// order, then recycles the batch's buffer.
    fn receive(&mut self, from: usize, deliver: impl FnMut(LaneEntry));

    /// Settles `round` once the shard has stepped it and sent its batches,
    /// returning the verdict, which is the same on every shard. `reply`
    /// comes back with its buffers, carrying the next round's
    /// fault-delayed injections.
    fn settle(&mut self, round: u64, reply: &mut WorkerReply) -> Result<u8, Self::Error>;
}

/// A sense-reversing spin barrier for the pool's round loop.
///
/// Workers cross it twice per round, so the wait must stay in the
/// sub-microsecond range when the pool actually runs in parallel:
/// arrivals spin briefly on the generation counter before falling back to
/// `yield_now`. When the pool is *oversubscribed* (more workers than the
/// host has cores — detected once at construction) spinning can only
/// steal the quantum the straggler needs to arrive, so the wait yields
/// immediately instead.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin iterations before each check falls back to `yield_now`; zero
    /// when oversubscribed.
    spins: u32,
    /// Set when a worker unwinds, so the others panic instead of waiting
    /// for it forever.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    const SPINS_BEFORE_YIELD: u32 = 4096;

    fn new(total: usize) -> Self {
        // A lone worker never waits, so a one-shard run skips the core
        // count (a cgroup read).
        let cores = || std::thread::available_parallelism().map_or(1, |c| c.get());
        Self {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spins: if total > 1 && total <= cores() {
                Self::SPINS_BEFORE_YIELD
            } else {
                0
            },
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all `total` workers have arrived.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                assert!(
                    !self.poisoned.load(Ordering::Relaxed),
                    "a pool worker panicked"
                );
                if spins < self.spins {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// What the pool's workers share to settle a round: each peer publishes
/// its [`WorkerReply`] in its slot before the barrier's first crossing;
/// worker 0, the coordinator, reads every slot, publishes the verdict and
/// hands the replies back before the second.
struct RoundSync {
    barrier: SpinBarrier,
    /// One slot per worker (worker 0's is unused).
    slots: Vec<Mutex<Option<WorkerReply>>>,
    verdict: AtomicU8,
}

/// Buffers a worker's trace events for the coordinator's canonical merge.
struct BufSink(Vec<TraceEvent>);

impl TraceSink for BufSink {
    fn event(&mut self, event: &TraceEvent) {
        self.0.push(event.clone());
    }
}

/// The node id a violation is attributed to (used to pick the canonical —
/// lowest — violation across shards).
fn error_node(err: &CongestError) -> NodeId {
    match err {
        CongestError::Collision { node, .. }
        | CongestError::Oversized { node, .. }
        | CongestError::NodePanic { node, .. } => *node,
        CongestError::RoundLimit { .. } => NodeId::MAX,
    }
}

/// Canonical abort attribution across the shards of one round, the rule
/// the in-process coordinator and the socket leader share: the lowest-id
/// panicking node wins (a round stops there, and nothing a higher id did
/// is observed), stamped with `round`; otherwise the lowest-id violation.
/// Each shard reports its own first panic and violation.
///
/// # Errors
///
/// The canonical [`CongestError`], if any shard reported one.
pub fn canonical_abort<'a>(
    reports: impl IntoIterator<Item = (&'a Option<(NodeId, String)>, Option<&'a CongestError>)>,
    round: u64,
) -> Result<(), CongestError> {
    let mut panic: Option<&(NodeId, String)> = None;
    let mut error: Option<&CongestError> = None;
    for (p, e) in reports {
        if let Some(p) = p {
            if panic.is_none_or(|q| p.0 < q.0) {
                panic = Some(p);
            }
        }
        if let Some(e) = e {
            if error.is_none_or(|f| error_node(e) < error_node(f)) {
                error = Some(e);
            }
        }
    }
    match (panic, error) {
        (Some((node, message)), _) => Err(CongestError::NodePanic {
            node: *node,
            round,
            message: message.clone(),
        }),
        (None, Some(e)) => Err(e.clone()),
        (None, None) => Ok(()),
    }
}

/// What every shard of a run shares: topology, partition, and the run's
/// engine settings.
#[derive(Clone, Copy)]
pub(crate) struct ShardEnv<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) reverse: &'a ReversePorts,
    pub(crate) map: &'a ShardMap,
    pub(crate) budget_bits: Option<usize>,
    pub(crate) cut: Option<&'a EdgeCut>,
    pub(crate) faults: Option<&'a FaultPlan>,
    pub(crate) skip_idle: bool,
    /// Violations abort the run ([`Enforcement::Strict`]).
    pub(crate) strict: bool,
    pub(crate) tracing: bool,
}

/// Appends a delivered entry to its inbox, noting in `touched` each inbox
/// that goes non-empty (only those get sorted).
fn deliver(
    inboxes: &mut [Vec<(usize, Message)>],
    touched: &mut Vec<u32>,
    (local, port, msg): LaneEntry,
) {
    let inbox = &mut inboxes[local as usize];
    if inbox.is_empty() {
        touched.push(local);
    }
    inbox.push((port as usize, msg));
}

/// One shard of the round loop: the whole network of a [`Network::run`],
/// a worker of the in-process pool, or a socket shard process. Owns its
/// shard's node states and inboxes for the whole run, trades message
/// batches with its peers over its [`Lanes`], and reports only a
/// [`WorkerReply`] per round.
///
/// Inboxes are double-buffered: a send to a node of this shard goes
/// straight into `spare`, the next round's inboxes, and the round start
/// swaps the buffers and appends the peers' batches. That interleaving is
/// safe because every inbox is stably sorted by port before it is read,
/// and equal-port entries always share a sender, hence a shard.
pub(crate) struct ShardWorker<'a, P> {
    me: usize,
    env: ShardEnv<'a>,
    /// Id of the shard's first node; the shard holds the ids
    /// `first..first + nodes.len()`.
    first: NodeId,
    /// Node states of this shard, ascending by node id.
    nodes: Vec<P>,
    /// Current-round inboxes, parallel to `nodes`.
    inboxes: Vec<Vec<(usize, Message)>>,
    /// Next-round inboxes, filled by intra-shard sends and swapped with
    /// `inboxes` at the round start. Invariant: all empty between the
    /// swap and the round's first intra-shard send.
    spare: Vec<Vec<(usize, Message)>>,
    /// This shard's metric partial; merged into the run metrics once at
    /// the end ([`NetMetrics::merge`] is commutative over disjoint node
    /// sets).
    metrics: NetMetrics,
    stage_sends: Vec<(usize, Message)>,
    stage_events: Vec<ProtocolDetail>,
    send_scratch: SendScratch,
    /// Per-destination outboxes for the current round (`out[me]` unused).
    out: Vec<LaneBatch>,
    /// Local indices whose next-round inbox went non-empty (sorted once
    /// after all deliveries).
    touched: Vec<u32>,
    /// Which of the shard's nodes each round visits.
    wake: WakeSet,
    /// False until the first round has sent its batches: the initial
    /// inboxes arrive with the shard, not over the lanes.
    lanes_live: bool,
    /// Per-shard telemetry handle; one batched update per round.
    telemetry: Option<TelemetryHandle>,
    /// The last round's reply, whose buffers the next round reuses.
    recycled: WorkerReply,
}

impl<'a, P: Protocol> ShardWorker<'a, P> {
    /// Takes over shard `me`: its node states and current inboxes in
    /// ascending id order, and the fault-delayed messages due in its
    /// first round.
    pub(crate) fn new(
        me: usize,
        env: ShardEnv<'a>,
        nodes: Vec<P>,
        inboxes: Vec<Vec<(usize, Message)>>,
        telemetry: Option<TelemetryHandle>,
        inject: LaneBatch,
    ) -> Self {
        // Pre-filled inboxes (a run re-entered mid-flight) count as
        // delivered mail: the first round sorts in what is injected there.
        let touched = (0..inboxes.len() as u32)
            .filter(|&i| !inboxes[i as usize].is_empty())
            .collect();
        ShardWorker {
            me,
            env,
            first: env.map.shards()[me].first().copied().unwrap_or(0),
            wake: WakeSet::new(nodes.len()),
            spare: (0..nodes.len()).map(|_| Vec::new()).collect(),
            nodes,
            inboxes,
            metrics: NetMetrics::default(),
            stage_sends: Vec::new(),
            stage_events: Vec::new(),
            send_scratch: SendScratch::default(),
            out: (0..env.map.len()).map(|_| Vec::new()).collect(),
            touched,
            lanes_live: false,
            telemetry,
            recycled: WorkerReply {
                inject,
                ..WorkerReply::default()
            },
        }
    }

    /// The shard round loop: step round `round`, settle it over `lanes`,
    /// and go on until the verdict ends the run. A clean ending
    /// (quiescence or the round limit) delivers the final round's mail
    /// first, so the returned inboxes are the next round's, sorted; an
    /// aborted round delivers nothing.
    pub(crate) fn run<L: Lanes>(
        mut self,
        lanes: &mut L,
        mut round: u64,
    ) -> Result<(ShardHandoff<P>, u8), L::Error> {
        loop {
            let mut reply = self.step(round, lanes)?;
            let verdict = lanes.settle(round, &mut reply)?;
            self.recycled = reply;
            if verdict == VERDICT_CONTINUE {
                round += 1;
                continue;
            }
            if verdict != VERDICT_ABORT {
                self.take_mail(lanes);
                for &local in &self.touched {
                    sort_inbox(&mut self.inboxes[local as usize]);
                }
            }
            return Ok(((self.nodes, self.inboxes, self.metrics), verdict));
        }
    }

    /// Makes the last round's mail current: swaps in the intra-shard
    /// inboxes, then appends every peer's batch.
    fn take_mail<L: Lanes>(&mut self, lanes: &mut L) {
        std::mem::swap(&mut self.inboxes, &mut self.spare);
        let (inboxes, touched) = (&mut self.inboxes, &mut self.touched);
        for src in (0..self.env.map.len()).filter(|&src| src != self.me) {
            lanes.receive(src, |entry| deliver(inboxes, touched, entry));
        }
    }

    /// Executes one round over this shard and sends its batches.
    fn step<L: Lanes>(&mut self, round: u64, lanes: &mut L) -> Result<WorkerReply, L::Error> {
        let ShardEnv {
            graph,
            map,
            faults,
            skip_idle,
            tracing,
            ..
        } = self.env;
        // A one-shard run has no data plane to report: no busy or route
        // time and no intra/cross split, so its profile has no workers.
        let sharded = map.len() > 1;
        let clock = self
            .telemetry
            .as_ref()
            .is_some_and(|h| h.registry().clocked());
        let lane_clock = clock && sharded;
        let busy_start = lane_clock.then(Instant::now);
        self.metrics.begin_round(round);
        let mut route_ns = 0u64;
        let WorkerReply {
            mut index,
            events,
            mut delayed,
            mut inject,
            ..
        } = std::mem::take(&mut self.recycled);

        // Delivery: take the previous round's mail, then the messages
        // whose fault delay ends now (in that order: delayed messages
        // follow normal ones), then sort each touched inbox stably by
        // port.
        let t = lane_clock.then(Instant::now);
        if self.lanes_live {
            self.take_mail(lanes);
        }
        for entry in inject.drain(..) {
            deliver(&mut self.inboxes, &mut self.touched, entry);
        }
        self.wake.begin_round(round, skip_idle && faults.is_none());
        for &local in &self.touched {
            sort_inbox(&mut self.inboxes[local as usize]);
            self.wake.mark(local as usize);
        }
        self.touched.clear();
        if let Some(t) = t {
            route_ns += t.elapsed().as_nanos() as u64;
        }

        // Step the shard in ascending node-id order, validating and
        // routing each node's sends immediately (shard-side
        // `account_sends` — no payload ever visits a coordinator).
        let (me, first, len) = (self.me, self.first, self.nodes.len());
        let metrics = &mut self.metrics;
        let send_scratch = &mut self.send_scratch;
        let (spare, touched) = (&mut self.spare, &mut self.touched);
        let out = &mut self.out;
        let stage_sends = &mut self.stage_sends;
        let stage_events = &mut self.stage_events;
        index.clear();
        delayed.clear();
        let mut sink = BufSink(events);
        sink.0.clear();
        let mut first_error: Option<CongestError> = None;
        let mut panic: Option<(NodeId, String)> = None;
        let mut compute_ns = 0u64;
        let mut inbox_messages = 0u64;
        let mut nodes_stepped = 0u64;
        let (mut intra, mut cross) = (0u64, 0u64);
        while let Some(i) = self.wake.next_due() {
            let v = first + i as NodeId;
            let node = &mut self.nodes[i];
            // A crashed node is down for the whole round: it neither steps
            // nor keeps the messages that arrived while it was down.
            if faults.is_some_and(|p| p.crashed(v, round)) {
                self.inboxes[i].clear();
                self.wake.settle(i, round, node, false);
                continue;
            }
            let inbox = &self.inboxes[i];
            if inbox.is_empty() && skip_idle && node.idle_at(round) {
                self.wake.settle(i, round, node, false);
                continue;
            }
            nodes_stepped += 1;
            inbox_messages += inbox.len() as u64;
            let mut ctx = RoundCtx::with_buffers(
                v,
                round,
                graph,
                tracing,
                std::mem::take(stage_sends),
                std::mem::take(stage_events),
            );
            let t = clock.then(Instant::now);
            let outcome = catch_unwind(AssertUnwindSafe(|| node.round(&mut ctx, inbox)));
            if let Some(t) = t {
                compute_ns += t.elapsed().as_nanos() as u64;
            }
            let (mut node_sends, mut node_events) = (ctx.sends, ctx.events);
            if let Err(payload) = outcome {
                // The round stops here: the panicking node's output is
                // dropped and its inbox kept.
                panic = Some((v, panic_message(payload)));
                break;
            }
            let t = lane_clock.then(Instant::now);
            let events_before = sink.0.len();
            if tracing {
                for detail in node_events.drain(..) {
                    sink.0.push(TraceEvent::Protocol {
                        round,
                        node: v,
                        detail,
                    });
                }
            }
            account_sends(
                v,
                round,
                node_sends.drain(..),
                graph,
                self.env.reverse,
                self.env.budget_bits,
                self.env.cut,
                metrics,
                send_scratch,
                |target, reverse_port, msg| {
                    // The shard is the contiguous id range from `first`.
                    let local = target.wrapping_sub(first) as usize;
                    if local < len {
                        intra += 1;
                        let inbox = &mut spare[local];
                        if inbox.is_empty() {
                            touched.push(local as u32);
                        }
                        inbox.push((reverse_port, msg));
                    } else {
                        cross += 1;
                        let entry = (map.local_of(target) as u32, reverse_port as u32, msg);
                        out[map.shard_of(target)].push(entry);
                    }
                },
                &mut first_error,
                tracing.then_some(&mut sink),
                faults,
                |due, target, port, msg| delayed.push((v, due, target, port, msg)),
            );
            let n_events = (sink.0.len() - events_before) as u32;
            if n_events > 0 {
                index.push((v, n_events));
            }
            if let Some(t) = t {
                route_ns += t.elapsed().as_nanos() as u64;
            }
            *stage_sends = node_sends;
            *stage_events = node_events;
            self.inboxes[i].clear();
            self.wake.settle(i, round, &self.nodes[i], true);
        }
        let reply = WorkerReply {
            index,
            events: sink.0,
            delayed,
            inject,
            first_error: first_error.filter(|_| self.env.strict),
            panic,
            routed: intra + cross,
            all_halted: self.wake.all_halted(),
        };

        // Publish this round's batches — exactly one per peer, empty or
        // not, which is what gives the next round's drain its barrier.
        let t = lane_clock.then(Instant::now);
        for (d, batch) in self.out.iter_mut().enumerate() {
            if d != me {
                lanes.send(d, batch, round, &reply)?;
            }
        }
        self.lanes_live = true;
        if let Some(t) = t {
            route_ns += t.elapsed().as_nanos() as u64;
        }

        if let Some(h) = self.telemetry.as_mut() {
            let row = ProfRow {
                busy_ns: busy_start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                compute_ns,
                route_ns,
                inbox_messages,
                nodes_stepped,
                intra: if sharded { intra } else { 0 },
                cross,
            };
            h.on_round(&self.metrics, &row);
        }
        Ok(reply)
    }
}

/// One pool worker's lanes: a data channel to and from every peer (one
/// batch per round), each with a back channel that returns the drained
/// buffer for reuse, plus the [`RoundSync`] slots that settle a round.
struct MeshLanes<'s> {
    me: usize,
    sync: &'s RoundSync,
    /// `to[d]`: this worker's lane to `d`, and the back lane returning
    /// its buffers.
    to: Vec<Option<(mpsc::Sender<LaneBatch>, mpsc::Receiver<LaneBatch>)>>,
    /// `from[s]`: `s`'s lane to this worker, and the back lane returning
    /// its buffers to `s`.
    from: Vec<Option<(mpsc::Receiver<LaneBatch>, mpsc::Sender<LaneBatch>)>>,
}

impl<'s> MeshLanes<'s> {
    /// The lanes of every worker of `sync`, in worker order.
    fn mesh(sync: &'s RoundSync) -> Vec<Self> {
        let k = sync.slots.len();
        let mut lanes: Vec<Self> = (0..k)
            .map(|me| MeshLanes {
                me,
                sync,
                to: (0..k).map(|_| None).collect(),
                from: (0..k).map(|_| None).collect(),
            })
            .collect();
        for s in 0..k {
            for d in (0..k).filter(|&d| d != s) {
                let (data_tx, data_rx) = mpsc::channel();
                let (back_tx, back_rx) = mpsc::channel();
                lanes[s].to[d] = Some((data_tx, back_rx));
                lanes[d].from[s] = Some((data_rx, back_tx));
            }
        }
        lanes
    }
}

impl Drop for MeshLanes<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sync.barrier.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

impl Lanes for MeshLanes<'_> {
    type Error = Infallible;

    fn send(
        &mut self,
        to: usize,
        batch: &mut LaneBatch,
        _round: u64,
        _reply: &WorkerReply,
    ) -> Result<(), Infallible> {
        if let Some((lane, back)) = &self.to[to] {
            let spare = back.try_recv().unwrap_or_default();
            let _ = lane.send(std::mem::replace(batch, spare));
        }
        Ok(())
    }

    fn receive(&mut self, from: usize, deliver: impl FnMut(LaneEntry)) {
        if let Some((lane, back)) = &self.from[from] {
            if let Ok(mut batch) = lane.recv() {
                batch.drain(..).for_each(deliver);
                let _ = back.send(batch);
            }
        }
    }

    fn settle(&mut self, _round: u64, reply: &mut WorkerReply) -> Result<u8, Infallible> {
        let slot = &self.sync.slots[self.me];
        *slot.lock().expect("a round slot is never poisoned") = Some(std::mem::take(reply));
        self.sync.barrier.wait();
        self.sync.barrier.wait();
        *reply = slot
            .lock()
            .expect("a round slot is never poisoned")
            .take()
            .expect("the coordinator returns every reply");
        Ok(self.sync.verdict.load(Ordering::Acquire))
    }
}

/// Worker 0's lanes. Between the barrier's two crossings, with every
/// worker's reply in, it does the run-level work of a round: canonical
/// abort attribution, the ascending-id merges of trace events and
/// fault-delayed sends, the verdict, the round's commit into telemetry,
/// and the next round's fault-delayed injections. Worker 0 runs
/// on the calling thread, so it can hold the trace sink, which need not be
/// `Send`.
struct Coordinator<'a> {
    mesh: MeshLanes<'a>,
    map: &'a ShardMap,
    max_rounds: u64,
    /// Quiescence ends the run; off, only the round limit does
    /// ([`Network::run_rounds`]).
    until_quiet: bool,
    sink: &'a mut Option<Box<dyn TraceSink>>,
    /// The network's fault-delayed messages in flight, bucketed by
    /// delivery round.
    delayed: &'a mut BTreeMap<u64, Vec<(NodeId, usize, Message)>>,
    telemetry: Option<&'a Telemetry>,
    /// The round's replies, in worker order.
    replies: Vec<WorkerReply>,
    committed: u64,
    /// Why the run aborted, if it did.
    abort: Result<(), CongestError>,
}

/// What worker 0 hands back when the run ends.
struct Lead<P> {
    shard: ShardHandoff<P>,
    /// The verdict that ended the run.
    verdict: u8,
    /// Rounds committed.
    committed: u64,
    /// Why the run aborted, if it did.
    abort: Result<(), CongestError>,
}

impl<'a> Coordinator<'a> {
    /// Runs worker 0 over these lanes until the run ends. A panic on the
    /// way drops the lanes, which poisons the barrier, so the peers stop
    /// instead of waiting for worker 0 forever.
    fn lead<P: Protocol>(mut self, worker: ShardWorker<'a, P>, start: u64) -> Lead<P> {
        let Ok((shard, verdict)) = worker.run(&mut self, start);
        Lead {
            shard,
            verdict,
            committed: self.committed,
            abort: self.abort,
        }
    }

    /// Merges the round's replies and commits the round unless it aborts;
    /// returns the verdict.
    fn coordinate(&mut self, round: u64) -> u8 {
        let replies = &mut self.replies;
        // A round stops at its lowest-id panicking node: nothing a higher
        // id did is observed, so the merges are clipped to ids under it.
        let abort = canonical_abort(
            replies.iter().map(|r| (&r.panic, r.first_error.as_ref())),
            round,
        );
        let clip = match &abort {
            Err(CongestError::NodePanic { node, .. }) => *node,
            _ => NodeId::MAX,
        };
        // Merge the workers' trace buffers in ascending node-id order —
        // byte-identical for every shard count.
        if let Some(s) = self.sink.as_deref_mut() {
            s.event(&TraceEvent::RoundStart { round });
            let mut runs = Vec::new();
            for (w, rep) in replies.iter().enumerate() {
                let mut at = 0;
                for &(v, count) in &rep.index {
                    runs.push((v, w, at..at + count as usize));
                    at += count as usize;
                }
            }
            runs.sort_unstable_by_key(|run| run.0);
            for (_, w, events) in runs.into_iter().take_while(|run| run.0 < clip) {
                replies[w].events[events].iter().for_each(|e| s.event(e));
            }
        }
        // Same order for fault-delayed sends: a stable sort by sender keeps
        // each sender's own order, so injection follows ascending sender
        // id, then staging order.
        let mut sends: Vec<_> = replies
            .iter_mut()
            .flat_map(|r| r.delayed.drain(..))
            .collect();
        sends.sort_by_key(|send| send.0);
        for (_, due, target, port, msg) in sends.into_iter().take_while(|send| send.0 < clip) {
            self.delayed
                .entry(due)
                .or_default()
                .push((target, port, msg));
        }

        let quiet = self.until_quiet
            && replies.iter().all(|r| r.routed == 0 && r.all_halted)
            && self.delayed.is_empty();
        let verdict = round_verdict(abort.is_err(), quiet, round, self.max_rounds);
        if verdict == VERDICT_ABORT {
            self.abort = abort;
            return verdict;
        }
        self.committed += 1;
        if let Some(t) = self.telemetry {
            t.commit_round(round);
        }
        if verdict == VERDICT_CONTINUE {
            for (target, port, msg) in self.delayed.remove(&(round + 1)).unwrap_or_default() {
                replies[self.map.shard_of(target)].inject.push((
                    self.map.local_of(target) as u32,
                    port as u32,
                    msg,
                ));
            }
        }
        verdict
    }
}

impl Lanes for Coordinator<'_> {
    type Error = Infallible;

    fn send(
        &mut self,
        to: usize,
        batch: &mut LaneBatch,
        round: u64,
        reply: &WorkerReply,
    ) -> Result<(), Infallible> {
        self.mesh.send(to, batch, round, reply)
    }

    fn receive(&mut self, from: usize, deliver: impl FnMut(LaneEntry)) {
        self.mesh.receive(from, deliver);
    }

    fn settle(&mut self, round: u64, reply: &mut WorkerReply) -> Result<u8, Infallible> {
        let sync = self.mesh.sync;
        sync.barrier.wait();
        self.replies.push(std::mem::take(reply));
        for slot in &sync.slots[1..] {
            let peer = slot.lock().expect("a round slot is never poisoned").take();
            self.replies
                .push(peer.expect("every peer publishes its reply"));
        }
        let verdict = self.coordinate(round);
        let mut replies = self.replies.drain(..);
        *reply = replies.next().expect("worker 0's reply");
        for (slot, peer) in sync.slots[1..].iter().zip(replies) {
            *slot.lock().expect("a round slot is never poisoned") = Some(peer);
        }
        sync.verdict.store(verdict, Ordering::Release);
        sync.barrier.wait();
        Ok(verdict)
    }
}

impl<P: Protocol + Send> Network<P> {
    /// Runs like [`Network::run`] but steps each round's nodes on a pool of
    /// `min(n, threads)` shard workers (one per [`ShardMap`] shard), each
    /// running the shard round loop that socket shards run too;
    /// `threads = 1` is [`Network::run`].
    ///
    /// Workers own their shards for the whole run, exchange message
    /// payloads directly over a worker→worker lane mesh, validate their
    /// own sends, and meet at a spin barrier twice per round. Worker 0 runs
    /// on the calling thread and coordinates: between the two crossings it
    /// merges the workers' trace events and fault-delayed sends in
    /// ascending node-id order and decides whether the run goes on. The
    /// result — node states, metrics, message order, traces — is identical
    /// for every `threads` value, and a run may switch thread counts at any
    /// round.
    ///
    /// # Errors
    ///
    /// Same as [`Network::run`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel(
        &mut self,
        max_rounds: u64,
        threads: usize,
    ) -> Result<RunReport, CongestError> {
        assert!(threads > 0, "need at least one worker thread");
        self.run_shards(
            max_rounds,
            threads,
            true,
            |coordinator, lead, peers, start| {
                crossbeam::thread::scope(|scope| {
                    let peers: Vec<_> = peers
                        .into_iter()
                        .map(|(worker, mut lanes)| {
                            scope.spawn(move |_| worker.run(&mut lanes, start))
                        })
                        .collect();
                    let lead = coordinator.lead(lead, start);
                    let rest = peers
                        .into_iter()
                        .map(|h| {
                            let Ok((shard, _)) = h.join().expect("pool worker thread died");
                            shard
                        })
                        .collect();
                    (lead, rest)
                })
                .expect("worker pool scope failed")
            },
        )
    }
}

/// Renders a `catch_unwind` payload (usually a `&str` or `String` from
/// `panic!`/`assert!`) for [`CongestError::NodePanic`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Restores an inbox's canonical order: ascending port, and equal ports —
/// which share a sender — in that sender's staging order, fault-delayed
/// copies last (a stable sort of the arrival order). Most inboxes arrive
/// in that order already — a shard steps senders in ascending id order,
/// and a node's port to each neighbour grows with the neighbour's id — so
/// they are only checked, not sorted.
pub(crate) fn sort_inbox(inbox: &mut [(usize, Message)]) {
    if !inbox.is_sorted_by_key(|&(port, _)| port) {
        inbox.sort_by_key(|&(port, _)| port);
    }
}

/// Scratch of [`account_sends`], kept by each engine across node steps.
#[derive(Debug, Default)]
pub(crate) struct SendScratch {
    /// Messages per port of the current sender (collision detection).
    port_counts: Vec<u8>,
    /// The current sender's messages, committed to the metrics once.
    tally: SendTally,
}

/// Validates and delivers one node's staged sends: collision detection,
/// budget enforcement, metric accounting, cut-flow accounting, and — via
/// `deliver` — enqueueing into the receivers' next-round inboxes. With a
/// fault plan attached, each message additionally passes through the
/// plan's per-slot decision: drop, bit-corruption, duplication (a second
/// `MessageSent` is traced for the extra wire copy), or delay (parked in
/// `park`, which holds it until its delivery round).
#[allow(clippy::too_many_arguments)]
pub(crate) fn account_sends<S: TraceSink + ?Sized>(
    v: NodeId,
    round: u64,
    staged: impl Iterator<Item = (usize, Message)>,
    graph: &Graph,
    reverse: &ReversePorts,
    budget_bits: Option<usize>,
    cut: Option<&EdgeCut>,
    metrics: &mut NetMetrics,
    scratch: &mut SendScratch,
    mut deliver: impl FnMut(NodeId, usize, Message),
    first_error: &mut Option<CongestError>,
    mut sink: Option<&mut S>,
    faults: Option<&FaultPlan>,
    mut park: impl FnMut(u64, NodeId, usize, Message),
) {
    // Collision detection: count messages per port (the scratch buffer is
    // only reset when the node actually sent something).
    let neighbors = graph.neighbors(v);
    let reverse = reverse.of(graph, v);
    let SendScratch { port_counts, tally } = scratch;
    let mut prepared = false;
    let mut max_per_port = 0u8;
    for (port, msg) in staged {
        if !prepared {
            prepared = true;
            port_counts.clear();
            port_counts.resize(neighbors.len(), 0);
        }
        port_counts[port] = port_counts[port].saturating_add(1);
        max_per_port = max_per_port.max(port_counts[port]);
        if port_counts[port] > 1 {
            metrics.collisions += 1;
            if first_error.is_none() {
                *first_error = Some(CongestError::Collision {
                    node: v,
                    port,
                    round,
                });
            }
            if let Some(s) = sink.as_deref_mut() {
                s.event(&TraceEvent::ViolationDetected {
                    round,
                    node: v,
                    kind: ViolationKind::Collision { port },
                });
            }
        }
        let bits = msg.bit_len();
        tally.add(bits);
        if let Some(budget) = budget_bits {
            if bits > budget {
                metrics.oversized_messages += 1;
                if first_error.is_none() {
                    *first_error = Some(CongestError::Oversized {
                        node: v,
                        bits,
                        budget,
                        round,
                    });
                }
                if let Some(s) = sink.as_deref_mut() {
                    s.event(&TraceEvent::ViolationDetected {
                        round,
                        node: v,
                        kind: ViolationKind::Oversized { bits, budget },
                    });
                }
            }
        }
        let target = neighbors[port];
        // Fault decisions are pure in (seed, from, to, round), so every
        // engine injects the identical pattern in any execution order.
        let decision = faults
            .map(|p| p.decide(v, target, round))
            .unwrap_or_default();
        if let Some(s) = sink.as_deref_mut() {
            let event = TraceEvent::MessageSent {
                round,
                from: v,
                to: target,
                bits,
                payload: faults.map(|_| faults::payload_hash(&msg)),
            };
            s.event(&event);
            if decision.duplicate {
                // The injected duplicate is a real wire event; tracing it
                // is what lets `check-trace` flag duplicate delivery.
                s.event(&event);
            }
        }
        if let Some(cut) = cut {
            if cut.contains(v, target) {
                metrics.cut_bits += bits as u64;
                metrics.cut_messages += 1;
            }
        }
        let reverse_port = reverse[port] as usize;
        if decision.is_clean() {
            deliver(target, reverse_port, msg);
            continue;
        }
        if decision.drop {
            metrics.faults_dropped += 1;
            continue;
        }
        let msg = match decision.corrupt {
            Some(entropy) => {
                metrics.faults_corrupted += 1;
                faults::corrupt_message(&msg, entropy)
            }
            None => msg,
        };
        let copies = if decision.duplicate {
            metrics.faults_duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            if decision.delay > 0 {
                metrics.faults_delayed += 1;
                park(
                    round + 1 + decision.delay,
                    target,
                    reverse_port,
                    msg.clone(),
                );
            } else {
                deliver(target, reverse_port, msg.clone());
            }
        }
    }
    metrics.max_messages_per_edge_round =
        metrics.max_messages_per_edge_round.max(max_per_port as u32);
    metrics.record_sends(round, tally);
}
