//! Asynchronous execution of synchronous protocols via an α-synchronizer.
//!
//! The paper's system model (Section III-A) assumes globally synchronized
//! pulses. Real networks are asynchronous; the classical bridge (Awerbuch;
//! Peleg's book, the paper's ref.\[14\]) is a *synchronizer*: a wrapper protocol
//! that generates local pulses such that every node has received all its
//! pulse-`p` messages before its pulse `p + 1` begins.
//!
//! This module implements
//!
//! * an event-driven asynchronous network with per-message delays drawn
//!   deterministically from a seeded RNG (FIFO links), and
//! * the **α-synchronizer**: each payload is acknowledged; once a node's
//!   pulse-`p` payloads are all acked it announces *safe* to its
//!   neighbors; a node enters pulse `p + 1` when it is safe and all
//!   neighbors are safe for pulse `p`.
//!
//! Any [`Protocol`] written for the synchronous engine runs unmodified:
//! [`run_synchronized`] produces the *same node states* as
//! [`crate::Network::run`], which is verified in the test suite for the
//! full betweenness protocol. The price is the classic α-synchronizer
//! overhead: `O(M)` control messages per pulse and a constant-factor
//! time dilation.
//!
//! Two entry points: [`run_synchronized`] for a bare run, and
//! [`run_synchronized_with`], whose [`SyncOptions`] attach a fault plan,
//! telemetry and a trace sink in any combination.
//!
//! Every run counts its pulse-skew and queue statistics into the
//! [`AsyncReport`]; they are plain integers, so they cost nothing worth
//! switching off. A profile of a synchronized run comes from a telemetry
//! registry with its clock on ([`crate::Telemetry::set_clock`]): each
//! pulse's node compute is timed into it, and each pulse is committed,
//! and its wall time stamped, when the first node enters the next pulse.
//! Pulses interleave across nodes, so a committed pulse's record holds
//! the compute of every node step since the previous commit.

use crate::faults::{self, FaultPlan};
use crate::message::Message;
use crate::network::{Protocol, RoundCtx};
use crate::profile::SyncStats;
use crate::telemetry::{Counter, HistogramId, Telemetry};
use crate::trace::{ProtocolDetail, TraceEvent, TraceSink};
use bc_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the asynchronous transport.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Maximum per-message delay; each delivery takes `1..=max_delay` time
    /// units (FIFO per directed link).
    pub max_delay: u64,
    /// Seed for the delay distribution.
    pub seed: u64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            max_delay: 5,
            seed: 0,
        }
    }
}

/// Outcome of an asynchronous synchronized execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncReport {
    /// Virtual time at which the event queue drained.
    pub virtual_time: u64,
    /// Pulses executed per node.
    pub pulses: u64,
    /// Payload (application) messages transported.
    pub payload_messages: u64,
    /// Synchronizer control messages (acks + safes).
    pub control_messages: u64,
    /// Payload deliveries, pulse skew and event-queue depth.
    pub sync: SyncStats,
}

/// Synchronizer wire format.
#[derive(Debug, Clone)]
enum SyncMsg {
    /// An application message of the given pulse.
    Payload { pulse: u64, inner: Message },
    /// Acknowledgment of one payload.
    Ack,
    /// The sender finished pulse `pulse` and all its payloads were acked.
    Safe { pulse: u64 },
}

/// Per-node synchronizer state wrapping the inner protocol.
struct SyncNode<P> {
    inner: P,
    pulse: u64,
    /// Buffered payloads keyed by pulse.
    buffers: HashMap<u64, Vec<(usize, Message)>>,
    /// Outstanding acks for the current pulse.
    acks_pending: usize,
    /// Whether this node has announced safety for the current pulse.
    announced_safe: bool,
    /// Safe announcements received, keyed by pulse.
    safe_counts: HashMap<u64, usize>,
}

/// The asynchronous engine state.
struct Engine<'g, P> {
    graph: &'g Graph,
    nodes: Vec<SyncNode<P>>,
    queue: BinaryHeap<Reverse<(u64, u64, NodeId, usize)>>,
    payloads: HashMap<(u64, u64), SyncMsg>,
    last_delivery: HashMap<(NodeId, usize), u64>,
    rng: SmallRng,
    now: u64,
    seq: u64,
    max_delay: u64,
    pulse_limit: u64,
    payload_messages: u64,
    control_messages: u64,
    sync: SyncStats,
    sink: Option<Box<dyn TraceSink>>,
    /// Telemetry registry (single shard: the engine is single-threaded).
    /// Writes counters only — never protocol state — so a telemetry-on run
    /// is bit-identical to a telemetry-off run.
    telemetry: Option<Arc<Telemetry>>,
    /// Fault plan applied at payload-delivery time (`None` = lossless).
    faults: Option<FaultPlan>,
    /// One past the highest pulse for which `RoundStart` was emitted.
    rounds_announced: u64,
    /// Recycled `RoundCtx` staging buffers (drained after every pulse).
    stage_sends: Vec<(usize, Message)>,
    stage_events: Vec<ProtocolDetail>,
}

impl<P: Protocol> Engine<'_, P> {
    fn send(&mut self, from: NodeId, port: usize, msg: SyncMsg) {
        match &msg {
            SyncMsg::Payload { inner, .. } => {
                self.payload_messages += 1;
                if let Some(t) = &self.telemetry {
                    t.add(0, Counter::Messages, 1);
                    t.add(0, Counter::MessageBits, inner.bit_len() as u64);
                }
            }
            _ => {
                self.control_messages += 1;
                if let Some(t) = &self.telemetry {
                    t.add(0, Counter::ControlMessages, 1);
                }
            }
        }
        let delay = self.rng.gen_range(1..=self.max_delay);
        let link = (from, port);
        let at = (self.now + delay).max(self.last_delivery.get(&link).copied().unwrap_or(0) + 1);
        self.last_delivery.insert(link, at);
        let to = self.graph.neighbors(from)[port];
        let back_port = self
            .graph
            .neighbors(to)
            .binary_search(&from)
            .expect("reverse edge");
        self.seq += 1;
        self.payloads.insert((at, self.seq), msg);
        self.queue.push(Reverse((at, self.seq, to, back_port)));
        self.sync.max_queue_depth = self.sync.max_queue_depth.max(self.queue.len());
    }

    /// Commits every pulse before `end` not yet committed: the first node
    /// to *enter* pulse `p + 1` commits pulse `p`, mirroring the
    /// `RoundStart` trace events, and the run's end commits the rest.
    fn commit_until(&self, end: u64) {
        if let Some(t) = &self.telemetry {
            for round in self.rounds_announced.saturating_sub(1)..end {
                t.commit_round(round);
            }
        }
    }

    /// Runs the inner protocol's next pulse at `v` and ships its output.
    /// Pulse `p` consumes the payloads senders emitted in their pulse
    /// `p − 1` (the synchronous engine's "sent in round r, delivered in
    /// round r + 1"); the α-synchronizer's entry condition guarantees all
    /// of them are buffered by now.
    fn execute_pulse(&mut self, v: NodeId) {
        let node = &mut self.nodes[v as usize];
        let pulse = node.pulse;
        let mut inbox = if pulse > 0 {
            node.buffers.remove(&(pulse - 1)).unwrap_or_default()
        } else {
            Vec::new()
        };
        inbox.sort_by_key(|&(port, _)| port);
        if pulse >= self.rounds_announced {
            if let Some(s) = self.sink.as_deref_mut() {
                // The first node to enter a pulse announces its round. Event
                // order across nodes follows the asynchronous schedule, but
                // every event carries its pulse number, so offline analysis
                // is unaffected.
                for round in self.rounds_announced..=pulse {
                    s.event(&TraceEvent::RoundStart { round });
                }
            }
            self.commit_until(pulse);
            self.rounds_announced = pulse + 1;
        }
        if self.faults.as_ref().is_some_and(|p| p.crashed(v, pulse)) {
            // A crashed node executes no protocol code and its pending inbox
            // is lost, but the synchronizer bookkeeping must keep moving or
            // the whole network deadlocks: with zero sends there is nothing
            // to ack, so the node immediately announces safety for the pulse.
            drop(inbox);
            let node = &mut self.nodes[v as usize];
            node.acks_pending = 0;
            node.announced_safe = false;
            self.maybe_announce_safe(v);
            return;
        }
        if let Some(t) = &self.telemetry {
            t.add(0, Counter::NodesStepped, 1);
            t.add(0, Counter::InboxMessages, inbox.len() as u64);
            t.record(0, HistogramId::InboxDepth, inbox.len() as u64);
        }
        let node = &mut self.nodes[v as usize];
        let mut ctx = RoundCtx::with_buffers(
            v,
            pulse,
            self.graph,
            self.sink.is_some(),
            std::mem::take(&mut self.stage_sends),
            std::mem::take(&mut self.stage_events),
        );
        let clock = self.telemetry.as_ref().filter(|t| t.clocked());
        let t0 = clock.map(|_| Instant::now());
        node.inner.round(&mut ctx, &inbox);
        if let (Some(t), Some(t0)) = (clock, t0) {
            t.add(0, Counter::ComputeNs, t0.elapsed().as_nanos() as u64);
        }
        let mut events = ctx.take_events();
        if let Some(s) = self.sink.as_deref_mut() {
            for detail in events.drain(..) {
                s.event(&TraceEvent::Protocol {
                    round: pulse,
                    node: v,
                    detail,
                });
            }
        }
        events.clear();
        let mut sends = ctx.take_sends();
        self.nodes[v as usize].acks_pending = sends.len();
        self.nodes[v as usize].announced_safe = false;
        for (port, inner) in sends.drain(..) {
            let to = self.graph.neighbors(v)[port];
            let duplicated = self
                .faults
                .as_ref()
                .is_some_and(|p| p.decide(v, to, pulse).duplicate);
            let payload = self.faults.as_ref().map(|_| faults::payload_hash(&inner));
            if let Some(s) = self.sink.as_deref_mut() {
                let event = TraceEvent::MessageSent {
                    round: pulse,
                    from: v,
                    to,
                    bits: inner.bit_len(),
                    payload,
                };
                s.event(&event);
                if duplicated {
                    s.event(&event);
                }
            }
            self.send(v, port, SyncMsg::Payload { pulse, inner });
        }
        self.stage_sends = sends;
        self.stage_events = events;
        self.maybe_announce_safe(v);
    }

    fn maybe_announce_safe(&mut self, v: NodeId) {
        let node = &mut self.nodes[v as usize];
        if node.acks_pending > 0 || node.announced_safe {
            return;
        }
        node.announced_safe = true;
        let pulse = node.pulse;
        for port in 0..self.graph.degree(v) {
            self.send(v, port, SyncMsg::Safe { pulse });
        }
        self.maybe_advance(v);
    }

    fn maybe_advance(&mut self, v: NodeId) {
        loop {
            let node = &mut self.nodes[v as usize];
            let pulse = node.pulse;
            let all_neighbors_safe =
                node.safe_counts.get(&pulse).copied().unwrap_or(0) == self.graph.degree(v);
            if !(node.announced_safe && all_neighbors_safe) {
                return;
            }
            node.safe_counts.remove(&pulse);
            node.pulse += 1;
            if node.pulse >= self.pulse_limit {
                return;
            }
            self.execute_pulse(v);
            // execute_pulse may have already advanced us via
            // maybe_announce_safe → loop to settle.
            if self.nodes[v as usize].pulse == pulse + 1 {
                return;
            }
        }
    }

    fn deliver(&mut self, at: u64, seq: u64, to: NodeId, port: usize) {
        self.now = at;
        let msg = self.payloads.remove(&(at, seq)).expect("event payload");
        match msg {
            SyncMsg::Payload { pulse, inner } => {
                debug_assert!(
                    pulse == self.nodes[to as usize].pulse
                        || pulse + 1 == self.nodes[to as usize].pulse
                        || pulse == self.nodes[to as usize].pulse + 1,
                    "synchronizer pulse skew"
                );
                let skew = pulse.abs_diff(self.nodes[to as usize].pulse);
                self.sync.deliveries += 1;
                self.sync.skewed_deliveries += u64::from(skew > 0);
                self.sync.max_pulse_skew = self.sync.max_pulse_skew.max(skew);
                // The synchronizer acks every physical arrival: the sender's
                // safety bookkeeping counts one ack per send regardless of
                // what the fault layer then does to the payload.
                self.send(to, port, SyncMsg::Ack);
                let from = self.graph.neighbors(to)[port];
                let decision = self
                    .faults
                    .as_ref()
                    .map(|p| p.decide(from, to, pulse))
                    .unwrap_or_default();
                if decision.drop {
                    return;
                }
                let inner = match decision.corrupt {
                    Some(entropy) => faults::corrupt_message(&inner, entropy),
                    None => inner,
                };
                let copies = if decision.duplicate { 2 } else { 1 };
                // Delay by `d` pulses: the payload lands in the buffer the
                // receiver consumes at pulse `pulse + 1 + d`, matching the
                // synchronous engine's delivery at round `r + 1 + d`.
                let buffers = &mut self.nodes[to as usize].buffers;
                for _ in 0..copies {
                    buffers
                        .entry(pulse + decision.delay)
                        .or_default()
                        .push((port, inner.clone()));
                }
            }
            SyncMsg::Ack => {
                let node = &mut self.nodes[to as usize];
                debug_assert!(node.acks_pending > 0, "spurious ack");
                node.acks_pending -= 1;
                self.maybe_announce_safe(to);
            }
            SyncMsg::Safe { pulse } => {
                let node = &mut self.nodes[to as usize];
                *node.safe_counts.entry(pulse).or_default() += 1;
                if pulse == node.pulse {
                    self.maybe_advance(to);
                }
            }
        }
    }
}

/// Optional attachments of a synchronized run (see
/// [`run_synchronized_with`]). None of them alters the execution: node
/// states and the [`AsyncReport`] are bit-identical to a bare
/// [`run_synchronized`] (fault plans aside, which change what is
/// delivered).
#[derive(Default)]
pub struct SyncOptions {
    /// Applied to every payload delivery: drops, duplicates, corruptions
    /// and pulse-delays are decided by the same seeded hash as the
    /// synchronous engines (keyed on the *sender's* pulse), and crashed
    /// nodes skip their protocol code while the synchronizer keeps the
    /// network live. Synchronizer control traffic (acks, safes) is never
    /// faulted — the fault model targets application messages, mirroring
    /// the synchronous engines which only carry application messages.
    pub faults: Option<FaultPlan>,
    /// Receives payload/control message counts, nodes stepped, and inbox
    /// depths as pulses execute; a round is committed each time the first
    /// node enters the next pulse. With the registry's clock on, node
    /// compute and each pulse's wall time are timed into it too.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Receives one `RoundStart` when the first node enters each pulse,
    /// and each node's protocol events and payload `MessageSent`s as its
    /// pulse executes. Event order across nodes follows the asynchronous
    /// schedule (not node-id order), but every event carries its pulse, so
    /// [`crate::trace::check`] applies unchanged.
    pub sink: Option<Box<dyn TraceSink>>,
}

/// Runs `pulses` synchronous rounds of protocol `P` on an asynchronous
/// network with randomized FIFO delays, using the α-synchronizer. Returns
/// the node states (identical to `pulses` rounds of the synchronous
/// engine) and transport statistics.
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn run_synchronized<P, F>(
    graph: &Graph,
    cfg: AsyncConfig,
    pulses: u64,
    factory: F,
) -> (Vec<P>, AsyncReport)
where
    P: Protocol,
    F: FnMut(NodeId, &Graph) -> P,
{
    let (nodes, report, _) =
        run_synchronized_with(graph, cfg, pulses, factory, SyncOptions::default());
    (nodes, report)
}

/// [`run_synchronized`] with the attachments in `options`, which come
/// back with the run: the sink for flushing or draining.
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn run_synchronized_with<P, F>(
    graph: &Graph,
    cfg: AsyncConfig,
    pulses: u64,
    mut factory: F,
    options: SyncOptions,
) -> (Vec<P>, AsyncReport, SyncOptions)
where
    P: Protocol,
    F: FnMut(NodeId, &Graph) -> P,
{
    assert!(graph.n() > 0, "empty graph");
    assert!(cfg.max_delay >= 1, "delays must be at least 1");
    let nodes = (0..graph.n() as NodeId)
        .map(|v| SyncNode {
            inner: factory(v, graph),
            pulse: 0,
            buffers: HashMap::new(),
            acks_pending: 0,
            announced_safe: false,
            safe_counts: HashMap::new(),
        })
        .collect();
    let mut engine = Engine {
        graph,
        nodes,
        queue: BinaryHeap::new(),
        payloads: HashMap::new(),
        last_delivery: HashMap::new(),
        rng: SmallRng::seed_from_u64(cfg.seed),
        now: 0,
        seq: 0,
        max_delay: cfg.max_delay,
        pulse_limit: pulses,
        payload_messages: 0,
        control_messages: 0,
        sync: SyncStats::default(),
        sink: options.sink,
        telemetry: options.telemetry,
        faults: options.faults,
        rounds_announced: 0,
        stage_sends: Vec::new(),
        stage_events: Vec::new(),
    };
    if pulses > 0 {
        for v in 0..graph.n() as NodeId {
            engine.execute_pulse(v);
        }
    }
    while let Some(Reverse((at, seq, to, port))) = engine.queue.pop() {
        engine.deliver(at, seq, to, port);
    }
    // The last pulse has no successor to commit it; flush the tail.
    engine.commit_until(pulses);
    let report = AsyncReport {
        virtual_time: engine.now,
        pulses,
        payload_messages: engine.payload_messages,
        control_messages: engine.control_messages,
        sync: engine.sync,
    };
    let options = SyncOptions {
        faults: engine.faults.take(),
        telemetry: engine.telemetry.take(),
        sink: engine.sink.take(),
    };
    (
        engine.nodes.into_iter().map(|n| n.inner).collect(),
        report,
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Network};
    use bc_graph::generators;
    use bc_numeric::bits::BitWriter;

    /// The reference flooding protocol from the engine tests.
    struct Flood {
        dist: Option<u64>,
        announced: bool,
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
                let mut w = BitWriter::new();
                w.push(d, 32);
                ctx.broadcast(&Message::new(w.finish()));
            }
        }

        fn is_halted(&self) -> bool {
            self.announced
        }
    }

    fn new_flood(_: NodeId, _: &Graph) -> Flood {
        Flood {
            dist: None,
            announced: false,
        }
    }

    #[test]
    fn synchronized_flood_matches_synchronous_engine() {
        let g = generators::erdos_renyi_connected(30, 0.1, 4);
        let mut sync = Network::new(&g, Config::default(), new_flood);
        let rounds = sync.run(10_000).unwrap().rounds;
        for (max_delay, seed) in [(1, 0), (3, 1), (9, 2), (20, 3)] {
            let (nodes, report) =
                run_synchronized(&g, AsyncConfig { max_delay, seed }, rounds, new_flood);
            for v in g.nodes() {
                assert_eq!(
                    nodes[v as usize].dist,
                    sync.node(v).dist,
                    "delay={max_delay} node {v}"
                );
            }
            assert_eq!(report.pulses, rounds);
            assert!(report.virtual_time >= rounds, "time dilation ≥ 1 per pulse");
            assert!(report.control_messages > 0);
        }
    }

    #[test]
    fn zero_pulses_is_a_noop() {
        let g = generators::path(3);
        let (nodes, report) = run_synchronized(&g, AsyncConfig::default(), 0, new_flood);
        assert!(nodes.iter().all(|n| n.dist.is_none()));
        assert_eq!(report.virtual_time, 0);
        assert_eq!(report.payload_messages, 0);
    }

    #[test]
    fn single_node_runs() {
        let g = bc_graph::Graph::from_edges(1, []).unwrap();
        let (nodes, _) = run_synchronized(&g, AsyncConfig::default(), 5, new_flood);
        assert_eq!(nodes[0].dist, Some(0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generators::cycle(12);
        let cfg = AsyncConfig {
            max_delay: 7,
            seed: 42,
        };
        let (_, a) = run_synchronized(&g, cfg, 20, new_flood);
        let (_, b) = run_synchronized(&g, cfg, 20, new_flood);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "delays must be at least 1")]
    fn zero_delay_rejected() {
        let g = generators::path(2);
        let _ = run_synchronized(
            &g,
            AsyncConfig {
                max_delay: 0,
                seed: 0,
            },
            1,
            new_flood,
        );
    }
}
