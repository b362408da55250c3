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
//! Both engines share three throughput mechanisms, none of which may change
//! observable output (node states, metrics, traces are bit-identical with
//! them on or off):
//!
//! - **double-buffered inboxes** — current and next-round inboxes swap each
//!   round, so per-node `Vec` allocations are reused instead of reallocated;
//! - **a wake calendar** — a round visits only the nodes that received
//!   mail and those whose timer ([`Protocol::next_wake`]) names this round
//!   (`crate::wake`), so an idle round costs `O(n/64)`, not `O(n)`. A due
//!   node with an empty inbox is still skipped when [`Protocol::idle_at`]
//!   says the step is a no-op, so protocols that only answer `idle_at` are
//!   polled every round and skipped where it says so. The first round of each
//!   run, every round under a fault plan, and every round with
//!   [`Config::skip_idle`] off (the correctness escape hatch) visit every
//!   node;
//! - **a sharded data plane** — [`Network::run_parallel`] spawns a
//!   persistent pool of workers, each *owning* one shard of node states and
//!   inboxes for the whole run (assignment chosen by
//!   [`Config::partition`]). Workers validate and route their own sends
//!   directly into per-destination outboxes; at the next round barrier each
//!   destination drains its peers' batches, so message payloads never pass
//!   through the main thread. Only compact summaries (trace-event buffers,
//!   fault-delayed sends, error/panic attribution) return to the main
//!   thread, which k-way-merges them in ascending node-id order — keeping
//!   parallel traces and metrics byte-identical to serial for every worker
//!   count and every partition strategy.

use crate::faults::{self, FaultPlan};
use crate::message::Message;
use crate::metrics::{EdgeCut, NetMetrics};
use crate::partition::{Partition, ShardMap};
use crate::profile::{Profiler, RoundSpan};
use crate::telemetry::{Telemetry, TelemetryHandle};
use crate::trace::{ProtocolDetail, TraceEvent, TraceSink, ViolationKind};
use crate::wake::WakeSet;
use bc_graph::{Graph, NodeId};
use bc_numeric::bits::id_bits;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
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
    /// Node→worker assignment strategy for [`Network::run_parallel`].
    /// Observable output (states, metrics, traces) is identical for every
    /// strategy; only how evenly the per-round work spreads across the
    /// pool changes. Ignored by the serial engine.
    pub partition: Partition,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            budget: Budget::default(),
            enforcement: Enforcement::default(),
            cut: None,
            skip_idle: true,
            faults: None,
            partition: Partition::default(),
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
    /// A node's [`Protocol::round`] panicked. Both engines surface the
    /// lowest-id panicking node of the round rather than aborting the
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

    /// Recovers the staging buffers so an engine outside this module (the
    /// wire engine) can recycle them the way the in-process workers do.
    pub(crate) fn into_buffers(self) -> (Vec<(usize, Message)>, Vec<ProtocolDetail>) {
        (self.sends, self.events)
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
    config: Config,
    budget_bits: Option<usize>,
    nodes: Vec<P>,
    inboxes: Vec<Vec<(usize, Message)>>,
    /// Next-round inboxes; swapped with `inboxes` each round so the inner
    /// `Vec` allocations are recycled. Invariant: all entries are empty
    /// between rounds.
    spare: Vec<Vec<(usize, Message)>>,
    /// Recycled staging buffers for the serial engine's `RoundCtx`.
    stage_sends: Vec<(usize, Message)>,
    stage_events: Vec<ProtocolDetail>,
    /// Recycled per-port collision counters for `account_sends`.
    port_scratch: Vec<u8>,
    /// Recycled list of next-inbox indices touched in the current round
    /// (only those get sorted).
    touched: Vec<NodeId>,
    /// Fault-delayed messages still in flight:
    /// `(delivery round, target, port, message)` in injection order.
    delayed: Vec<(u64, NodeId, usize, Message)>,
    /// Which nodes the serial engine's next round visits.
    wake: WakeSet,
    metrics: NetMetrics,
    round: u64,
    sink: Option<Box<dyn TraceSink>>,
    profiler: Option<Profiler>,
    telemetry: Option<TelemetryHandle>,
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
            config,
            nodes,
            inboxes: vec![Vec::new(); n],
            spare: vec![Vec::new(); n],
            stage_sends: Vec::new(),
            stage_events: Vec::new(),
            port_scratch: Vec::new(),
            touched: Vec::new(),
            delayed: Vec::new(),
            wake: WakeSet::new(n),
            metrics: NetMetrics::default(),
            round: 0,
            sink: None,
            profiler: None,
            telemetry: None,
        }
    }

    /// Installs a trace sink; subsequent rounds emit
    /// [`TraceEvent`]s into it. Returns the previously installed sink.
    ///
    /// Both engines produce the identical, deterministic event stream:
    /// per round, one `RoundStart`, then each node's protocol events
    /// followed by its `MessageSent`s, in node-id order (the parallel
    /// engine merges worker buffers back into this order).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.sink.replace(sink)
    }

    /// Removes and returns the trace sink, stopping emission.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Installs a wall-clock profiler; subsequent rounds record
    /// [`RoundSpan`]s into it. Strictly opt-in, like tracing: without a
    /// profiler each round pays a single branch, and a profiled run
    /// produces bit-identical node states and metrics. Returns any
    /// previously installed profiler.
    pub fn set_profiler(&mut self, profiler: Profiler) -> Option<Profiler> {
        self.profiler.replace(profiler)
    }

    /// Removes and returns the profiler, stopping recording.
    pub fn take_profiler(&mut self) -> Option<Profiler> {
        self.profiler.take()
    }

    /// Attaches a shared telemetry registry; subsequent rounds batch
    /// counter/histogram updates into it (one update per worker per
    /// round) and commit each round into its flight recorder. Carries
    /// the same observational-freeness guarantee as the profiler:
    /// results, metrics, and traces are bit-identical with telemetry on
    /// or off, on every engine. Returns the previously attached
    /// registry.
    pub fn set_telemetry(
        &mut self,
        telemetry: std::sync::Arc<Telemetry>,
    ) -> Option<std::sync::Arc<Telemetry>> {
        self.telemetry
            .replace(TelemetryHandle::new(telemetry, 0))
            .map(|h| h.registry().clone())
    }

    /// Detaches and returns the telemetry registry, stopping recording.
    pub fn take_telemetry(&mut self) -> Option<std::sync::Arc<Telemetry>> {
        self.telemetry.take().map(|h| h.registry().clone())
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

    /// Runs until every node reports halted and no messages are in flight.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::RoundLimit`] if the protocol does not halt
    /// within `max_rounds`, a constraint violation under
    /// [`Enforcement::Strict`], or [`CongestError::NodePanic`] if a node's
    /// step panicked.
    pub fn run(&mut self, max_rounds: u64) -> Result<RunReport, CongestError> {
        self.wake.reset();
        while !self.quiescent() {
            if self.round >= max_rounds {
                return Err(CongestError::RoundLimit { max_rounds });
            }
            self.step()?;
        }
        Ok(RunReport { rounds: self.round })
    }

    /// Runs exactly `rounds` additional rounds (useful for protocols
    /// observed mid-flight).
    ///
    /// # Errors
    ///
    /// Returns a constraint violation under [`Enforcement::Strict`].
    pub fn run_rounds(&mut self, rounds: u64) -> Result<RunReport, CongestError> {
        self.wake.reset();
        for _ in 0..rounds {
            self.step()?;
        }
        Ok(RunReport { rounds: self.round })
    }

    /// No mail in flight and every node halted: read off the wake
    /// calendar's counters, or scanned in full before a run's first round.
    fn quiescent(&self) -> bool {
        self.delayed.is_empty()
            && self.wake.quiet().unwrap_or_else(|| {
                self.inboxes.iter().all(|i| i.is_empty())
                    && self.nodes.iter().all(|p| p.is_halted())
            })
    }

    /// Executes a single round serially.
    fn step(&mut self) -> Result<(), CongestError> {
        let round = self.round;
        let skip_idle = self.config.skip_idle;
        let faults = self.config.faults.as_ref();
        self.wake.begin_round(round, skip_idle && faults.is_none());
        let mut first_error: Option<CongestError> = None;
        if !self.delayed.is_empty() {
            for (target, port, msg) in take_due(&mut self.delayed, round) {
                let inbox = &mut self.inboxes[target as usize];
                inbox.push((port, msg));
                // Stable: equal-port entries (Record-mode collisions, fault
                // duplicates) keep arrival order — normal before delayed —
                // which is the canonical order the parallel engine's shard
                // drain reproduces.
                inbox.sort_by_key(|&(port, _)| port);
                self.wake.mark(target as usize);
            }
        }
        self.metrics.begin_round(round);
        // The sink leaves `self` for the loop so node stepping (which
        // borrows nodes/graph/metrics) and event emission don't conflict.
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_deref_mut() {
            s.event(&TraceEvent::RoundStart { round });
        }
        let tracing = sink.is_some();
        let profiling = self.profiler.is_some();
        let counting_inboxes = profiling || self.telemetry.is_some();
        let round_start = profiling.then(Instant::now);
        let mut compute_ns = 0u64;
        let mut inbox_messages = 0u64;
        let mut nodes_stepped = 0u64;
        let mut touched = std::mem::take(&mut self.touched);
        let spare = &mut self.spare;
        debug_assert!(spare.iter().all(|i| i.is_empty()));
        while let Some(v) = self.wake.next_due() {
            // A crashed node is down for the whole round: it neither steps
            // nor keeps the messages that arrived while it was down.
            if faults.is_some_and(|p| p.crashed(v as NodeId, round)) {
                self.inboxes[v].clear();
                self.wake.settle(v, round, &self.nodes[v], false);
                continue;
            }
            let node = &mut self.nodes[v];
            let inbox = &self.inboxes[v];
            if inbox.is_empty() && skip_idle && node.idle_at(round) {
                self.wake.settle(v, round, node, false);
                continue;
            }
            nodes_stepped += 1;
            let mut ctx = RoundCtx::with_buffers(
                v as NodeId,
                round,
                &self.graph,
                tracing,
                std::mem::take(&mut self.stage_sends),
                std::mem::take(&mut self.stage_events),
            );
            if counting_inboxes {
                inbox_messages += inbox.len() as u64;
            }
            let t = profiling.then(Instant::now);
            let outcome = catch_unwind(AssertUnwindSafe(|| node.round(&mut ctx, inbox)));
            if let Some(t) = t {
                compute_ns += t.elapsed().as_nanos() as u64;
            }
            if let Err(payload) = outcome {
                // Abandon this round: drop the panicking node's partial
                // output and any messages already routed, restoring the
                // all-empty `spare` invariant for later steps.
                drop(ctx);
                for &t in &touched {
                    spare[t as usize].clear();
                }
                touched.clear();
                self.touched = touched;
                self.sink = sink;
                return Err(CongestError::NodePanic {
                    node: v as NodeId,
                    round,
                    message: panic_message(payload),
                });
            }
            let (mut sends, mut events) = (ctx.sends, ctx.events);
            if let Some(s) = sink.as_deref_mut() {
                for detail in events.drain(..) {
                    s.event(&TraceEvent::Protocol {
                        round,
                        node: v as NodeId,
                        detail,
                    });
                }
            }
            account_sends(
                v as NodeId,
                round,
                sends.drain(..),
                &self.graph,
                self.budget_bits,
                self.config.cut.as_ref(),
                &mut self.metrics,
                &mut self.port_scratch,
                |target, reverse_port, msg| {
                    let inbox = &mut spare[target as usize];
                    if inbox.is_empty() {
                        touched.push(target);
                    }
                    inbox.push((reverse_port, msg));
                },
                &mut first_error,
                sink.as_deref_mut(),
                faults,
                &mut self.delayed,
            );
            self.stage_sends = sends;
            self.stage_events = events;
            self.inboxes[v].clear();
            self.wake.settle(v, round, &self.nodes[v], true);
        }
        self.sink = sink;
        if let (Some(err), Enforcement::Strict) = (&first_error, self.config.enforcement) {
            for &t in &touched {
                spare[t as usize].clear();
            }
            touched.clear();
            self.touched = touched;
            return Err(err.clone());
        }
        for &t in &touched {
            // Stable for the same reason as the delayed-message insertion
            // above: staging order breaks equal-port ties canonically.
            spare[t as usize].sort_by_key(|&(port, _)| port);
            self.wake.post(t as usize);
        }
        touched.clear();
        self.touched = touched;
        std::mem::swap(&mut self.inboxes, &mut self.spare);
        self.round += 1;
        self.metrics.rounds = self.round;
        if let (Some(t0), Some(p)) = (round_start, self.profiler.as_mut()) {
            p.record_round(RoundSpan {
                round,
                total_ns: t0.elapsed().as_nanos() as u64,
                compute_ns,
                inbox_messages,
                nodes_stepped,
                ..RoundSpan::default()
            });
        }
        if let Some(h) = self.telemetry.as_mut() {
            h.on_round(&self.metrics, nodes_stepped, inbox_messages, 0, 0);
            h.registry().finish_round(round);
        }
        Ok(())
    }
}

/// One routed message in flight between workers: `(destination's local
/// index within its shard, reverse port, payload)`.
type LaneEntry = (u32, usize, Message);

/// One round's worth of cross-shard messages on one directed worker→worker
/// lane. Exactly one batch (possibly empty) crosses each lane per round —
/// that invariant is what lets the receiver's drain double as the round
/// barrier.
type LaneBatch = Vec<LaneEntry>;

/// What a worker loop hands back to the main thread when it exits: the
/// shard's node states, per-node inboxes, and its [`NetMetrics`] partial.
type ShardHandoff<P> = (Vec<P>, Vec<Vec<(usize, Message)>>, NetMetrics);

/// Recycled buffers that round-trip between the main thread and a worker:
/// shipped empty with each `Step`, returned filled in the [`WorkerReply`].
#[derive(Default)]
struct StepBufs {
    /// `(node, events emitted)` per stepped node that produced trace
    /// events, ascending by node id; payloads are flattened into `events`
    /// in the same order.
    index: Vec<(NodeId, u32)>,
    events: Vec<TraceEvent>,
    /// Fault-delayed sends staged this round, tagged with their sender:
    /// `(sender, due round, target, port, message)`, ascending by sender.
    delayed: Vec<(NodeId, u64, NodeId, usize, Message)>,
}

/// One round's work order shipped to a shard worker.
enum WorkerCmd {
    Step {
        round: u64,
        tracing: bool,
        profiling: bool,
        /// Fault-delayed messages due this round for this worker's nodes,
        /// as `(local index, port, message)` in canonical injection order.
        inject: Vec<(u32, usize, Message)>,
        bufs: StepBufs,
    },
    /// Shut down. `deliver` says whether to drain the final round's lanes
    /// into the owned inboxes first (`true` on quiescence / round limit,
    /// matching the serial engine's post-swap state; `false` on abort,
    /// where the serial engine discards the round's deliveries too).
    Finish { deliver: bool },
}

/// One round's summary from a shard worker. Message payloads are *not*
/// here — they went directly to their destination workers over the lanes.
struct WorkerReply {
    bufs: StepBufs,
    /// First constraint violation in this shard's step order (= its
    /// lowest-id violating node); the main thread picks the globally
    /// lowest across shards, which is the one the serial engine reports.
    first_error: Option<CongestError>,
    /// First `round()` panic in the shard; nodes after it were not stepped
    /// and its own output was discarded.
    panic: Option<(NodeId, String)>,
    /// Messages this worker delivered for the next round (intra + cross).
    routed: u64,
    /// Of `routed`, messages that stayed within this worker's own shard.
    intra: u64,
    /// Of `routed`, messages routed to a different worker's shard.
    cross: u64,
    busy_ns: u64,
    compute_ns: u64,
    /// Time spent draining peer lanes and routing/validating sends.
    route_ns: u64,
    inbox_messages: u64,
    nodes_stepped: u64,
    all_halted: bool,
}

/// A sense-reversing spin barrier for the free-running round loop.
///
/// Workers cross it twice per round, so the wait must stay in the
/// sub-microsecond range when the pool actually runs in parallel:
/// arrivals spin briefly on the generation counter before falling back to
/// `yield_now`. When the pool is *oversubscribed* (more workers than the
/// host has cores — detected once at construction) spinning can only
/// steal the quantum the straggler needs to arrive, so the wait yields
/// immediately instead.
///
/// `wait` returns `true` for exactly one caller per crossing: the *last*
/// arriver, which makes it the natural leader for work that must observe
/// every worker's round contribution (the continue/stop verdict).
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin iterations before each check falls back to `yield_now`; zero
    /// when oversubscribed.
    spins: u32,
}

impl SpinBarrier {
    const SPINS_BEFORE_YIELD: u32 = 4096;

    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        Self {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spins: if total <= cores {
                Self::SPINS_BEFORE_YIELD
            } else {
                0
            },
        }
    }

    /// Blocks until all `total` workers have arrived; returns `true` for
    /// the last arriver (the leader of this crossing).
    fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < self.spins {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

/// The free-running loop's verdict after each round, published by the
/// barrier leader. Order mirrors the orchestrated path's checks: abort
/// (panic / strict violation) beats quiescence beats the round limit.
const VERDICT_CONTINUE: u8 = 0;
const VERDICT_QUIESCENT: u8 = 1;
const VERDICT_ROUND_LIMIT: u8 = 2;
const VERDICT_ABORT: u8 = 3;

/// Shared state of the free-running data plane: per-round accumulators
/// workers publish before barrier crossing one, and the verdict the
/// leader derives from them between the two crossings.
struct RoundSync {
    barrier: SpinBarrier,
    /// Messages routed this round, summed across workers (the parallel
    /// `pending` of the orchestrated path's quiescence check).
    routed: AtomicU64,
    /// AND across workers of "my whole shard has halted".
    all_halted: AtomicBool,
    /// Any worker observed a node panic (or, under strict enforcement, a
    /// constraint violation) this round.
    fatal: AtomicBool,
    verdict: AtomicU8,
}

impl RoundSync {
    fn new(workers: usize) -> Self {
        Self {
            barrier: SpinBarrier::new(workers),
            routed: AtomicU64::new(0),
            all_halted: AtomicBool::new(true),
            fatal: AtomicBool::new(false),
            verdict: AtomicU8::new(VERDICT_CONTINUE),
        }
    }
}

/// One worker's per-round profiling sample from a free-running run,
/// assembled into [`RoundSpan`]s by the main thread after the join.
struct ProfRow {
    busy_ns: u64,
    compute_ns: u64,
    route_ns: u64,
    inbox_messages: u64,
    nodes_stepped: u64,
    intra: u64,
    cross: u64,
}

/// What a free-running worker reports at join time, replacing the
/// per-round [`WorkerReply`] stream of the orchestrated path.
struct FreeRunStats {
    /// Rounds this worker committed (identical across workers — they run
    /// in lockstep and an aborted round commits nowhere).
    rounds: u64,
    /// Strict-mode violation from the aborting round, if that is why the
    /// run stopped (canonicalized across workers by the main thread).
    first_error: Option<CongestError>,
    /// Node panic from the aborting round, if any.
    panic: Option<(NodeId, String)>,
    /// One row per committed round when profiling.
    prof: Vec<ProfRow>,
    /// Worker 0 only: wall time of each committed round, measured from
    /// its own round start to the verdict barrier.
    round_wall_ns: Vec<u64>,
}

/// Buffers a worker's trace events for the main thread's canonical merge.
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

/// One persistent worker of the sharded data plane. Owns its shard's node
/// states and inboxes for the whole run; exchanges message batches with
/// peer workers directly over the lane mesh and reports only summaries
/// (trace buffers, delayed sends, errors, counters) to the main thread.
struct ShardWorker<'a, P> {
    me: usize,
    map: &'a ShardMap,
    graph: &'a Graph,
    budget_bits: Option<usize>,
    cut: Option<&'a EdgeCut>,
    faults: Option<&'a FaultPlan>,
    skip_idle: bool,
    /// Node states of this shard, ascending by node id.
    nodes: Vec<P>,
    /// Current-round inboxes, parallel to `nodes`.
    inboxes: Vec<Vec<(usize, Message)>>,
    /// This worker's metric partial; merged into the run metrics once at
    /// shutdown ([`NetMetrics::merge`] is commutative over disjoint node
    /// sets).
    metrics: NetMetrics,
    stage_sends: Vec<(usize, Message)>,
    stage_events: Vec<ProtocolDetail>,
    port_scratch: Vec<u8>,
    /// Untagged fault-delay staging for `account_sends`; drained per node
    /// into the sender-tagged reply buffer.
    delayed_scratch: Vec<(u64, NodeId, usize, Message)>,
    /// Next-round deliveries to this worker's own nodes (the intra-shard
    /// fast path — the self-lane never touches a channel).
    pending_intra: LaneBatch,
    /// Per-destination outboxes for the current round (`out[me]` unused).
    out: Vec<LaneBatch>,
    /// Local indices whose inbox went non-empty this round (sorted once
    /// after all deliveries).
    touched: Vec<u32>,
    /// Which of the shard's nodes each round visits.
    wake: WakeSet,
    /// False until the first `Step`: the initial inboxes arrive pre-filled
    /// and pre-sorted with the shard, not over the lanes.
    lanes_live: bool,
    /// `lane_tx[d]` sends this worker's batch for destination `d`.
    lane_tx: Vec<Option<mpsc::Sender<LaneBatch>>>,
    /// `lane_rx[s]` receives the batch worker `s` sent to this worker.
    lane_rx: Vec<Option<mpsc::Receiver<LaneBatch>>>,
    /// `back_tx[s]` returns worker `s`'s drained batch buffer to it.
    back_tx: Vec<Option<mpsc::Sender<LaneBatch>>>,
    /// `back_rx[d]` receives this worker's own buffers back from `d`.
    back_rx: Vec<Option<mpsc::Receiver<LaneBatch>>>,
    /// Per-worker telemetry shard; one batched update per round.
    telemetry: Option<TelemetryHandle>,
}

impl<P: Protocol> ShardWorker<'_, P> {
    /// Command loop: one [`WorkerCmd::Step`] per round until
    /// [`WorkerCmd::Finish`] (or channel close), then hand the shard's
    /// states, inboxes, and metric partial back to the main thread.
    fn run(
        mut self,
        rx: mpsc::Receiver<WorkerCmd>,
        tx: mpsc::Sender<WorkerReply>,
    ) -> ShardHandoff<P> {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                WorkerCmd::Step {
                    round,
                    tracing,
                    profiling,
                    inject,
                    bufs,
                } => {
                    let reply = self.step(round, tracing, profiling, inject, bufs);
                    if tx.send(reply).is_err() {
                        break;
                    }
                }
                WorkerCmd::Finish { deliver } => {
                    if deliver && self.lanes_live {
                        // One batch per peer lane is still in flight from
                        // the final stepped round; deliver it so the
                        // returned inboxes match the serial engine's
                        // post-swap state.
                        self.drain_lanes();
                        for &local in &self.touched {
                            self.inboxes[local as usize].sort_by_key(|&(port, _)| port);
                        }
                        self.touched.clear();
                    }
                    break;
                }
            }
        }
        (self.nodes, self.inboxes, self.metrics)
    }

    /// Free-running loop for runs with no trace sink and no fault plan:
    /// the worker steps rounds back to back, synchronizing with its peers
    /// over two [`SpinBarrier`] crossings per round instead of a
    /// command/reply round trip through the main thread.
    ///
    /// The first crossing guarantees every worker's accumulators (routed
    /// count, halt flag, fatal flag) are published; its leader derives the
    /// verdict and resets the accumulators. The second crossing publishes
    /// the verdict. Lane batches are always sent *before* the first
    /// crossing, so the next round's lane `recv` finds its batch already
    /// waiting and never parks — in steady state no thread touches a futex.
    ///
    /// Observable behaviour (states, metrics, error attribution, round
    /// count) is identical to the orchestrated path: the same `step` runs,
    /// and the leader applies the same checks in the same order.
    fn run_free(
        mut self,
        sync: &RoundSync,
        start_round: u64,
        max_rounds: u64,
        profiling: bool,
        strict: bool,
    ) -> (ShardHandoff<P>, FreeRunStats) {
        let mut stats = FreeRunStats {
            rounds: 0,
            first_error: None,
            panic: None,
            prof: Vec::new(),
            round_wall_ns: Vec::new(),
        };
        let mut bufs = StepBufs::default();
        let mut round = start_round;
        let deliver = loop {
            let round_start = (profiling && self.me == 0).then(Instant::now);
            let reply = self.step(round, false, profiling, Vec::new(), bufs);
            if reply.panic.is_some() || (strict && reply.first_error.is_some()) {
                sync.fatal.store(true, Ordering::Release);
            }
            sync.routed.fetch_add(reply.routed, Ordering::AcqRel);
            if !reply.all_halted {
                sync.all_halted.store(false, Ordering::Release);
            }
            if sync.barrier.wait() {
                // Leader: every worker's contribution is in. Decide, reset
                // the accumulators for the next round (peers are parked at
                // the second crossing, so this cannot race), publish.
                let verdict = if sync.fatal.load(Ordering::Acquire) {
                    VERDICT_ABORT
                } else if sync.routed.load(Ordering::Acquire) == 0
                    && sync.all_halted.load(Ordering::Acquire)
                {
                    VERDICT_QUIESCENT
                } else if round + 1 >= max_rounds {
                    VERDICT_ROUND_LIMIT
                } else {
                    VERDICT_CONTINUE
                };
                sync.routed.store(0, Ordering::Relaxed);
                sync.all_halted.store(true, Ordering::Relaxed);
                // The leader observed every worker's round contribution;
                // commit it into the shared flight recorder (aborted
                // rounds commit nowhere, matching the orchestrated path).
                if verdict != VERDICT_ABORT {
                    if let Some(h) = &self.telemetry {
                        h.registry().finish_round(round);
                    }
                }
                sync.verdict.store(verdict, Ordering::Release);
            }
            sync.barrier.wait();
            let verdict = sync.verdict.load(Ordering::Acquire);
            bufs = reply.bufs;
            if verdict == VERDICT_ABORT {
                // An aborted round commits nowhere (the orchestrated path
                // breaks before its round increment and profiler record);
                // keep only the error attribution for the join.
                stats.panic = reply.panic;
                if strict {
                    stats.first_error = reply.first_error;
                }
                break false;
            }
            stats.rounds += 1;
            if profiling {
                stats.prof.push(ProfRow {
                    busy_ns: reply.busy_ns,
                    compute_ns: reply.compute_ns,
                    route_ns: reply.route_ns,
                    inbox_messages: reply.inbox_messages,
                    nodes_stepped: reply.nodes_stepped,
                    intra: reply.intra,
                    cross: reply.cross,
                });
                if let Some(t0) = round_start {
                    stats.round_wall_ns.push(t0.elapsed().as_nanos() as u64);
                }
            }
            match verdict {
                VERDICT_CONTINUE => round += 1,
                _ => break true, // quiescent or round limit: clean ending
            }
        };
        if deliver && self.lanes_live {
            // Same final drain as `WorkerCmd::Finish { deliver: true }`:
            // the last stepped round's batches are still in flight.
            self.drain_lanes();
            for &local in &self.touched {
                self.inboxes[local as usize].sort_by_key(|&(port, _)| port);
            }
            self.touched.clear();
        }
        ((self.nodes, self.inboxes, self.metrics), stats)
    }

    /// Moves every peer's in-flight batch (and the worker's own intra-shard
    /// staging) into the owned inboxes, recording which went non-empty.
    /// Blocks until each peer's batch for the round has arrived — this is
    /// the data-plane half of the round barrier.
    fn drain_lanes(&mut self) {
        for src in 0..self.map.len() {
            if src == self.me {
                let mut batch = std::mem::take(&mut self.pending_intra);
                for (local, port, msg) in batch.drain(..) {
                    let inbox = &mut self.inboxes[local as usize];
                    if inbox.is_empty() {
                        self.touched.push(local);
                    }
                    inbox.push((port, msg));
                }
                self.pending_intra = batch;
            } else if let Some(rx) = &self.lane_rx[src] {
                let Ok(mut batch) = rx.recv() else { continue };
                for (local, port, msg) in batch.drain(..) {
                    let inbox = &mut self.inboxes[local as usize];
                    if inbox.is_empty() {
                        self.touched.push(local);
                    }
                    inbox.push((port, msg));
                }
                // Return the emptied buffer to its sender for reuse.
                if let Some(btx) = &self.back_tx[src] {
                    let _ = btx.send(batch);
                }
            }
        }
    }

    /// Executes one round over this worker's shard.
    fn step(
        &mut self,
        round: u64,
        tracing: bool,
        profiling: bool,
        mut inject: Vec<(u32, usize, Message)>,
        bufs: StepBufs,
    ) -> WorkerReply {
        let busy_start = profiling.then(Instant::now);
        let counting_inboxes = profiling || self.telemetry.is_some();
        self.metrics.begin_round(round);
        let mut route_ns = 0u64;

        // Delivery: drain the previous round's lanes, then the main
        // thread's fault-delayed injections (in that order — the serial
        // engine also appends delayed messages after normal ones), then
        // sort each touched inbox stably by port.
        let t = profiling.then(Instant::now);
        if self.lanes_live {
            self.drain_lanes();
        }
        for (local, port, msg) in inject.drain(..) {
            let inbox = &mut self.inboxes[local as usize];
            // `touched` tracks empty→non-empty transitions; an inbox that
            // was pre-filled when the run started (re-entry mid-flight)
            // must be marked explicitly so it still gets sorted.
            if inbox.is_empty() || !self.touched.contains(&local) {
                self.touched.push(local);
            }
            inbox.push((port, msg));
        }
        self.wake
            .begin_round(round, self.skip_idle && self.faults.is_none());
        for &local in &self.touched {
            self.inboxes[local as usize].sort_by_key(|&(port, _)| port);
            self.wake.mark(local as usize);
        }
        self.touched.clear();
        // Restock outboxes from buffers peers have returned.
        for d in 0..self.out.len() {
            if let Some(brx) = &self.back_rx[d] {
                if let Ok(buf) = brx.try_recv() {
                    debug_assert!(buf.is_empty());
                    self.out[d] = buf;
                }
            }
        }
        if let Some(t) = t {
            route_ns += t.elapsed().as_nanos() as u64;
        }

        // Step the shard in ascending node-id order, validating and
        // routing each node's sends immediately (worker-side
        // `account_sends` — no payload ever visits the main thread).
        let me = self.me;
        let map = self.map;
        let graph = self.graph;
        let shard = &map.shards()[me];
        let metrics = &mut self.metrics;
        let port_scratch = &mut self.port_scratch;
        let delayed_scratch = &mut self.delayed_scratch;
        let pending_intra = &mut self.pending_intra;
        let out = &mut self.out;
        let stage_sends = &mut self.stage_sends;
        let stage_events = &mut self.stage_events;
        let StepBufs {
            mut index,
            events,
            mut delayed,
        } = bufs;
        index.clear();
        delayed.clear();
        let mut sink = BufSink(events);
        sink.0.clear();
        let mut first_error: Option<CongestError> = None;
        let mut panic: Option<(NodeId, String)> = None;
        let mut compute_ns = 0u64;
        let mut inbox_messages = 0u64;
        let mut nodes_stepped = 0u64;
        let (mut routed, mut intra, mut cross) = (0u64, 0u64, 0u64);
        while let Some(i) = self.wake.next_due() {
            let v = shard[i];
            let node = &mut self.nodes[i];
            // Crash handling mirrors the serial engine: a down node is not
            // stepped and loses its inbox for the round.
            if self.faults.is_some_and(|p| p.crashed(v, round)) {
                self.inboxes[i].clear();
                self.wake.settle(i, round, node, false);
                continue;
            }
            let inbox = &self.inboxes[i];
            if inbox.is_empty() && self.skip_idle && node.idle_at(round) {
                self.wake.settle(i, round, node, false);
                continue;
            }
            nodes_stepped += 1;
            if counting_inboxes {
                inbox_messages += inbox.len() as u64;
            }
            let mut ctx = RoundCtx::with_buffers(
                v,
                round,
                graph,
                tracing,
                std::mem::take(stage_sends),
                std::mem::take(stage_events),
            );
            let t = profiling.then(Instant::now);
            let outcome = catch_unwind(AssertUnwindSafe(|| node.round(&mut ctx, inbox)));
            if let Some(t) = t {
                compute_ns += t.elapsed().as_nanos() as u64;
            }
            let (mut node_sends, mut node_events) = (ctx.sends, ctx.events);
            match outcome {
                Ok(()) => {
                    let t = profiling.then(Instant::now);
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
                        self.budget_bits,
                        self.cut,
                        metrics,
                        port_scratch,
                        |target, reverse_port, msg| {
                            routed += 1;
                            let entry = (map.local_of(target) as u32, reverse_port, msg);
                            let dest = map.shard_of(target);
                            if dest == me {
                                intra += 1;
                                pending_intra.push(entry);
                            } else {
                                cross += 1;
                                out[dest].push(entry);
                            }
                        },
                        &mut first_error,
                        tracing.then_some(&mut sink),
                        self.faults,
                        delayed_scratch,
                    );
                    for (due, target, port, msg) in delayed_scratch.drain(..) {
                        delayed.push((v, due, target, port, msg));
                    }
                    let n_events = (sink.0.len() - events_before) as u32;
                    if n_events > 0 {
                        index.push((v, n_events));
                    }
                    if let Some(t) = t {
                        route_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                Err(payload) => {
                    node_sends.clear();
                    node_events.clear();
                    panic = Some((v, panic_message(payload)));
                }
            }
            *stage_sends = node_sends;
            *stage_events = node_events;
            self.inboxes[i].clear();
            if panic.is_some() {
                break;
            }
            self.wake.settle(i, round, &self.nodes[i], true);
        }
        let all_halted = self.wake.all_halted();

        // Publish this round's batches — exactly one per peer, empty or
        // not, which is what gives the next round's drain its barrier.
        let t = profiling.then(Instant::now);
        for (d, slot) in out.iter_mut().enumerate() {
            if d == me {
                continue;
            }
            if let Some(tx) = &self.lane_tx[d] {
                let _ = tx.send(std::mem::take(slot));
            }
        }
        self.lanes_live = true;
        if let Some(t) = t {
            route_ns += t.elapsed().as_nanos() as u64;
        }

        if let Some(h) = self.telemetry.as_mut() {
            h.on_round(&self.metrics, nodes_stepped, inbox_messages, intra, cross);
        }

        WorkerReply {
            bufs: StepBufs {
                index,
                events: sink.0,
                delayed,
            },
            first_error,
            panic,
            routed,
            intra,
            cross,
            busy_ns: busy_start
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0),
            compute_ns,
            route_ns,
            inbox_messages,
            nodes_stepped,
            all_halted,
        }
    }
}

impl<P: Protocol + Send> Network<P> {
    /// Runs like [`Network::run`] but steps each round's nodes on a
    /// persistent pool of up to `threads` shard workers (one per shard of
    /// [`Config::partition`]; never more than one per node).
    ///
    /// Workers exchange message payloads directly over a worker→worker
    /// lane mesh and validate their own sends; the main thread only
    /// orchestrates rounds and k-way-merges the workers' summaries
    /// (trace events, fault-delayed sends, violations) in ascending
    /// node-id order. The result — node states, metrics, message order,
    /// traces — is identical to the serial engine for every `threads`
    /// value and every partition strategy.
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
        // Workers keep calendars of their own, so the serial one misses
        // what earlier pooled runs did: check quiescence by a full scan.
        self.wake.reset();
        if self.quiescent() {
            return Ok(RunReport { rounds: self.round });
        }
        if self.round >= max_rounds {
            return Err(CongestError::RoundLimit { max_rounds });
        }

        let n = self.graph.n();
        let map = self.config.partition.shard_map(&self.graph, threads);
        let workers = map.len();

        // Scatter node states and current inboxes to their shards (in
        // ascending id order, so scatter position = shard-local index).
        // Workers own them for the whole run and hand them back at Finish.
        let mut shard_nodes: Vec<Vec<P>> = map
            .shards()
            .iter()
            .map(|s| Vec::with_capacity(s.len()))
            .collect();
        let mut shard_inboxes: Vec<Vec<Vec<(usize, Message)>>> = map
            .shards()
            .iter()
            .map(|s| Vec::with_capacity(s.len()))
            .collect();
        for (v, (node, inbox)) in std::mem::take(&mut self.nodes)
            .into_iter()
            .zip(std::mem::take(&mut self.inboxes))
            .enumerate()
        {
            let s = map.shard_of(v as NodeId);
            shard_nodes[s].push(node);
            shard_inboxes[s].push(inbox);
        }

        let graph = &self.graph;
        let metrics = &mut self.metrics;
        let profiler = &mut self.profiler;
        let round_ref = &mut self.round;
        let budget_bits = self.budget_bits;
        let enforcement = self.config.enforcement;
        let cut = self.config.cut.as_ref();
        let skip_idle = self.config.skip_idle;
        let faults = self.config.faults.as_ref();
        let delayed = &mut self.delayed;
        let mut sink = self.sink.take();
        let telemetry = self.telemetry.as_ref().map(|h| h.registry().clone());
        let map_ref = &map;

        // With no trace sink and no fault plan there is nothing for the
        // main thread to merge or inject each round, so workers can
        // free-run over the spin barrier instead of paying two futex
        // wakeups per round on the command/reply channels. Tracing and
        // fault runs keep the orchestrated path.
        let free_running = sink.is_none() && faults.is_none() && delayed.is_empty();
        let sync = RoundSync::new(workers);
        let sync_ref = &sync;

        let (run_result, handoff) = crossbeam::thread::scope(|scope| {
            // Build the k×k lane mesh. Each directed worker pair gets a
            // data lane (one batch per round) and a back lane returning
            // the drained buffer for reuse. Grids are indexed
            // [owner][peer].
            let make_grid = || -> Vec<Vec<Option<mpsc::Sender<LaneBatch>>>> {
                (0..workers)
                    .map(|_| (0..workers).map(|_| None).collect())
                    .collect()
            };
            let make_rx_grid = || -> Vec<Vec<Option<mpsc::Receiver<LaneBatch>>>> {
                (0..workers)
                    .map(|_| (0..workers).map(|_| None).collect())
                    .collect()
            };
            let mut lane_tx = make_grid();
            let mut lane_rx = make_rx_grid();
            let mut back_tx = make_grid();
            let mut back_rx = make_rx_grid();
            for s in 0..workers {
                for d in 0..workers {
                    if s == d {
                        continue;
                    }
                    let (tx, rx) = mpsc::channel::<LaneBatch>();
                    lane_tx[s][d] = Some(tx);
                    lane_rx[d][s] = Some(rx);
                    let (tx, rx) = mpsc::channel::<LaneBatch>();
                    back_tx[d][s] = Some(tx);
                    back_rx[s][d] = Some(rx);
                }
            }

            let mut pool = Vec::with_capacity(workers);
            for w in 0..workers {
                pool.push(ShardWorker {
                    me: w,
                    map: map_ref,
                    graph,
                    budget_bits,
                    cut,
                    faults,
                    skip_idle,
                    nodes: std::mem::take(&mut shard_nodes[w]),
                    inboxes: std::mem::take(&mut shard_inboxes[w]),
                    metrics: NetMetrics::default(),
                    stage_sends: Vec::new(),
                    stage_events: Vec::new(),
                    port_scratch: Vec::new(),
                    delayed_scratch: Vec::new(),
                    pending_intra: Vec::new(),
                    out: (0..workers).map(|_| Vec::new()).collect(),
                    touched: Vec::new(),
                    wake: WakeSet::new(map_ref.shards()[w].len()),
                    lanes_live: false,
                    lane_tx: std::mem::take(&mut lane_tx[w]),
                    lane_rx: std::mem::take(&mut lane_rx[w]),
                    back_tx: std::mem::take(&mut back_tx[w]),
                    back_rx: std::mem::take(&mut back_rx[w]),
                    telemetry: telemetry
                        .as_ref()
                        .map(|t| TelemetryHandle::new(t.clone(), w)),
                });
            }

            if free_running {
                let profiling = profiler.is_some();
                let strict = matches!(enforcement, Enforcement::Strict);
                let start_round = *round_ref;
                let handles: Vec<_> = pool
                    .into_iter()
                    .map(|worker| {
                        scope.spawn(move |_| {
                            worker.run_free(sync_ref, start_round, max_rounds, profiling, strict)
                        })
                    })
                    .collect();
                let mut handoff = Vec::with_capacity(workers);
                let mut stats = Vec::with_capacity(workers);
                for h in handles {
                    let (shard, s) = h.join().expect("pool worker thread died");
                    handoff.push(shard);
                    stats.push(s);
                }
                // Workers run in lockstep, so every worker committed the
                // same number of rounds; fold them into the run exactly as
                // the orchestrated loop would have, one round at a time.
                let committed = stats[0].rounds;
                debug_assert!(stats.iter().all(|s| s.rounds == committed));
                *round_ref += committed;
                if committed > 0 {
                    metrics.rounds = *round_ref;
                }
                if let Some(p) = profiler.as_mut() {
                    for r in 0..committed as usize {
                        let mut worker_busy_ns = Vec::with_capacity(workers);
                        let mut worker_route_ns = Vec::with_capacity(workers);
                        let mut compute_ns = 0u64;
                        let mut inbox_messages = 0u64;
                        let mut nodes_stepped = 0u64;
                        let (mut cross, mut intra) = (0u64, 0u64);
                        for s in &stats {
                            let row = &s.prof[r];
                            worker_busy_ns.push(row.busy_ns);
                            worker_route_ns.push(row.route_ns);
                            compute_ns += row.compute_ns;
                            inbox_messages += row.inbox_messages;
                            nodes_stepped += row.nodes_stepped;
                            cross += row.cross;
                            intra += row.intra;
                        }
                        p.record_round(RoundSpan {
                            round: start_round + r as u64,
                            total_ns: stats[0].round_wall_ns[r],
                            compute_ns,
                            inbox_messages,
                            nodes_stepped,
                            worker_busy_ns,
                            worker_route_ns,
                            cross_shard_messages: cross,
                            intra_shard_messages: intra,
                        });
                    }
                }
                // Canonical abort attribution, same as the orchestrated
                // path: lowest-id panicking node wins; under strict
                // enforcement the lowest-id violation below it is next.
                let first_panic: Option<(NodeId, String)> = stats
                    .iter()
                    .filter_map(|s| s.panic.clone())
                    .min_by_key(|&(v, _)| v);
                let clip = first_panic.as_ref().map_or(NodeId::MAX, |&(v, _)| v);
                let first_error: Option<CongestError> = stats
                    .iter()
                    .filter_map(|s| s.first_error.as_ref())
                    .filter(|e| error_node(e) < clip)
                    .min_by_key(|e| error_node(e))
                    .cloned();
                let run_result = if let Some((node, message)) = first_panic {
                    Err(CongestError::NodePanic {
                        node,
                        round: *round_ref,
                        message,
                    })
                } else if let Some(err) = first_error {
                    Err(err)
                } else if sync_ref.verdict.load(Ordering::Acquire) == VERDICT_ROUND_LIMIT {
                    Err(CongestError::RoundLimit { max_rounds })
                } else {
                    Ok(RunReport { rounds: *round_ref })
                };
                return (run_result, handoff);
            }

            let mut cmd_txs = Vec::with_capacity(workers);
            let mut reply_rxs = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for worker in pool {
                let (cmd_tx, cmd_rx) = mpsc::channel::<WorkerCmd>();
                let (reply_tx, reply_rx) = mpsc::channel::<WorkerReply>();
                handles.push(scope.spawn(move |_| worker.run(cmd_rx, reply_tx)));
                cmd_txs.push(cmd_tx);
                reply_rxs.push(reply_rx);
            }

            let mut step_bufs: Vec<Option<StepBufs>> =
                (0..workers).map(|_| Some(StepBufs::default())).collect();
            let mut inject_bufs: Vec<Vec<(u32, usize, Message)>> =
                (0..workers).map(|_| Vec::new()).collect();

            let run_result = loop {
                let round = *round_ref;
                // Group due fault-delayed messages per destination shard,
                // preserving injection order within each.
                if !delayed.is_empty() {
                    for (target, port, msg) in take_due(delayed, round) {
                        inject_bufs[map_ref.shard_of(target)].push((
                            map_ref.local_of(target) as u32,
                            port,
                            msg,
                        ));
                    }
                }
                let tracing = sink.is_some();
                let profiling = profiler.is_some();
                let round_start = profiling.then(Instant::now);
                for (w, tx) in cmd_txs.iter().enumerate() {
                    let cmd = WorkerCmd::Step {
                        round,
                        tracing,
                        profiling,
                        inject: std::mem::take(&mut inject_bufs[w]),
                        bufs: step_bufs[w].take().expect("step buffers in rotation"),
                    };
                    tx.send(cmd).expect("pool worker alive");
                }
                if let Some(s) = sink.as_deref_mut() {
                    s.event(&TraceEvent::RoundStart { round });
                }
                let mut replies: Vec<WorkerReply> = reply_rxs
                    .iter()
                    .map(|rx| rx.recv().expect("pool worker alive"))
                    .collect();

                // Canonical abort attribution: the serial engine stops at
                // the lowest-id panicking node and never observes anything
                // later nodes did, so merges below are clipped to ids
                // strictly under it.
                let first_panic: Option<(NodeId, String)> = replies
                    .iter()
                    .filter_map(|r| r.panic.clone())
                    .min_by_key(|&(v, _)| v);
                let clip = first_panic.as_ref().map_or(NodeId::MAX, |&(v, _)| v);
                let first_error: Option<CongestError> = replies
                    .iter()
                    .filter_map(|r| r.first_error.as_ref())
                    .filter(|e| error_node(e) < clip)
                    .min_by_key(|e| error_node(e))
                    .cloned();

                // K-way merge of the workers' trace buffers in ascending
                // node-id order (each worker's index is already ascending)
                // — byte-identical to the serial event stream.
                if let Some(s) = sink.as_deref_mut() {
                    let mut cursor: Vec<(usize, usize)> = vec![(0, 0); replies.len()];
                    loop {
                        let mut best: Option<(NodeId, usize)> = None;
                        for (w, rep) in replies.iter().enumerate() {
                            if let Some(&(v, _)) = rep.bufs.index.get(cursor[w].0) {
                                if v < clip && best.is_none_or(|(bv, _)| v < bv) {
                                    best = Some((v, w));
                                }
                            }
                        }
                        let Some((_, w)) = best else { break };
                        let (ip, ep) = cursor[w];
                        let count = replies[w].bufs.index[ip].1 as usize;
                        for e in &replies[w].bufs.events[ep..ep + count] {
                            s.event(e);
                        }
                        cursor[w] = (ip + 1, ep + count);
                    }
                }
                // Same merge for fault-delayed sends: ascending sender id
                // reproduces the serial engine's injection order exactly.
                {
                    let mut cursor: Vec<usize> = vec![0; replies.len()];
                    loop {
                        let mut best: Option<(NodeId, usize)> = None;
                        for (w, rep) in replies.iter().enumerate() {
                            if let Some(&(sender, ..)) = rep.bufs.delayed.get(cursor[w]) {
                                if sender < clip && best.is_none_or(|(bv, _)| sender < bv) {
                                    best = Some((sender, w));
                                }
                            }
                        }
                        let Some((_, w)) = best else { break };
                        let (_, due, target, port, msg) =
                            replies[w].bufs.delayed[cursor[w]].clone();
                        delayed.push((due, target, port, msg));
                        cursor[w] += 1;
                    }
                }

                let mut worker_busy_ns = Vec::new();
                let mut worker_route_ns = Vec::new();
                let mut compute_ns = 0u64;
                let mut inbox_messages = 0u64;
                let mut nodes_stepped = 0u64;
                let (mut cross, mut intra) = (0u64, 0u64);
                let mut pending = 0u64;
                let mut all_halted = true;
                for rep in &replies {
                    nodes_stepped += rep.nodes_stepped;
                    all_halted &= rep.all_halted;
                    pending += rep.routed;
                    if profiling {
                        worker_busy_ns.push(rep.busy_ns);
                        worker_route_ns.push(rep.route_ns);
                        compute_ns += rep.compute_ns;
                        inbox_messages += rep.inbox_messages;
                        cross += rep.cross;
                        intra += rep.intra;
                    }
                }
                for (w, rep) in replies.iter_mut().enumerate() {
                    let mut bufs = std::mem::take(&mut rep.bufs);
                    bufs.index.clear();
                    bufs.events.clear();
                    bufs.delayed.clear();
                    step_bufs[w] = Some(bufs);
                }
                if let Some((node, message)) = first_panic {
                    break Err(CongestError::NodePanic {
                        node,
                        round,
                        message,
                    });
                }
                if let (Some(err), Enforcement::Strict) = (&first_error, enforcement) {
                    break Err(err.clone());
                }
                *round_ref += 1;
                metrics.rounds = *round_ref;
                if let Some(t) = &telemetry {
                    t.finish_round(round);
                }
                if let (Some(t0), Some(p)) = (round_start, profiler.as_mut()) {
                    p.record_round(RoundSpan {
                        round,
                        total_ns: t0.elapsed().as_nanos() as u64,
                        compute_ns,
                        inbox_messages,
                        nodes_stepped,
                        worker_busy_ns,
                        worker_route_ns,
                        cross_shard_messages: cross,
                        intra_shard_messages: intra,
                    });
                }
                if pending == 0 && all_halted && delayed.is_empty() {
                    break Ok(RunReport { rounds: *round_ref });
                }
                if *round_ref >= max_rounds {
                    break Err(CongestError::RoundLimit { max_rounds });
                }
            };

            // Shut the pool down; on clean endings the workers drain the
            // final in-flight lane batches into their inboxes first.
            let deliver = matches!(&run_result, Ok(_) | Err(CongestError::RoundLimit { .. }));
            for tx in &cmd_txs {
                let _ = tx.send(WorkerCmd::Finish { deliver });
            }
            drop(cmd_txs);
            let handoff: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("pool worker thread died"))
                .collect();
            (run_result, handoff)
        })
        .expect("worker pool scope failed");

        // Gather: reassemble id-ordered state and fold each worker's
        // metric partial into the run metrics (merge is commutative, so
        // gather order does not matter).
        let mut nodes: Vec<Option<P>> = (0..n).map(|_| None).collect();
        let mut inboxes: Vec<Vec<(usize, Message)>> = (0..n).map(|_| Vec::new()).collect();
        for (w, (worker_nodes, worker_inboxes, worker_metrics)) in handoff.into_iter().enumerate() {
            self.metrics.merge(&worker_metrics);
            for ((i, node), inbox) in worker_nodes.into_iter().enumerate().zip(worker_inboxes) {
                let v = map.shards()[w][i] as usize;
                nodes[v] = Some(node);
                inboxes[v] = inbox;
            }
        }
        self.nodes = nodes
            .into_iter()
            .map(|slot| slot.expect("every node returned by exactly one worker"))
            .collect();
        self.inboxes = inboxes;
        debug_assert_eq!(self.nodes.len(), n);
        debug_assert!(self.spare.iter().all(|i| i.is_empty()));
        self.sink = sink;
        run_result
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

/// Moves the fault-delayed messages due in `round` out of `delayed`,
/// preserving injection order (so inbox insertion stays deterministic).
fn take_due(
    delayed: &mut Vec<(u64, NodeId, usize, Message)>,
    round: u64,
) -> Vec<(NodeId, usize, Message)> {
    let mut due = Vec::new();
    for (at, target, port, msg) in std::mem::take(delayed) {
        if at == round {
            due.push((target, port, msg));
        } else {
            delayed.push((at, target, port, msg));
        }
    }
    due
}

/// Validates and delivers one node's staged sends: collision detection,
/// budget enforcement, metric accounting, cut-flow accounting, and — via
/// `deliver` — enqueueing into the receivers' next-round inboxes. With a
/// fault plan attached, each message additionally passes through the
/// plan's per-slot decision: drop, bit-corruption, duplication (a second
/// `MessageSent` is traced for the extra wire copy), or delay (parked in
/// `delayed` until its delivery round).
#[allow(clippy::too_many_arguments)]
pub(crate) fn account_sends<S: TraceSink + ?Sized>(
    v: NodeId,
    round: u64,
    staged: impl Iterator<Item = (usize, Message)>,
    graph: &Graph,
    budget_bits: Option<usize>,
    cut: Option<&EdgeCut>,
    metrics: &mut NetMetrics,
    port_counts: &mut Vec<u8>,
    mut deliver: impl FnMut(NodeId, usize, Message),
    first_error: &mut Option<CongestError>,
    mut sink: Option<&mut S>,
    faults: Option<&FaultPlan>,
    delayed: &mut Vec<(u64, NodeId, usize, Message)>,
) {
    // Collision detection: count messages per port (the scratch buffer is
    // only reset when the node actually sent something).
    let neighbors = graph.neighbors(v);
    let mut prepared = false;
    for (port, msg) in staged {
        if !prepared {
            prepared = true;
            port_counts.clear();
            port_counts.resize(neighbors.len(), 0);
        }
        port_counts[port] = port_counts[port].saturating_add(1);
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
        metrics.max_messages_per_edge_round = metrics
            .max_messages_per_edge_round
            .max(port_counts[port] as u32);
        let bits = msg.bit_len();
        metrics.total_messages += 1;
        metrics.total_bits += bits as u64;
        metrics.max_message_bits = metrics.max_message_bits.max(bits);
        metrics.record_message(round, bits);
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
        let reverse_port = graph
            .neighbors(target)
            .binary_search(&v)
            .expect("undirected graph: reverse edge exists");
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
                delayed.push((
                    round + 1 + decision.delay,
                    target,
                    reverse_port,
                    msg.clone(),
                ));
            } else {
                deliver(target, reverse_port, msg.clone());
            }
        }
    }
}
