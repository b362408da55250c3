//! Event tracing for CONGEST executions.
//!
//! Every engine in this crate (the shard round loop and the
//! α-synchronizer) can emit a stream of [`TraceEvent`]s into a
//! [`TraceSink`]: one `RoundStart` per round, one `MessageSent` per
//! delivered message, a `ViolationDetected` for every CONGEST-constraint
//! breach, and protocol-level events ([`ProtocolDetail`]) that the node
//! state machines stage through [`crate::RoundCtx::trace`].
//!
//! Tracing is strictly opt-in: a network without a sink skips all event
//! construction (the per-node flag short-circuits [`crate::RoundCtx::trace`]
//! before its argument is stored), so the untraced hot path does no extra
//! work beyond one branch per message.
//!
//! Three sinks are provided: [`NoopSink`] (drop everything), [`RingSink`]
//! (last-`k` events in memory, for tests and post-mortem inspection), and
//! [`JsonlSink`] (one JSON object per line, the on-disk format consumed by
//! `distbc check-trace` and [`check`]; [`read_jsonl`] reads it back through
//! [`crate::json`]). The [`check`] submodule re-validates the paper's
//! schedule invariants offline from a recorded stream.

pub mod check;
pub mod stats;

use crate::json;
use bc_graph::NodeId;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Protocol-level observation staged by a node through
/// [`crate::RoundCtx::trace`]. These carry the quantities the paper's
/// schedule analysis is about: which phase a node is in, where the DFS
/// token travels, when each source's BFS wave starts (`T_s`), and when
/// aggregation values are forwarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolDetail {
    /// The node entered a protocol phase (`'A'` tree construction, `'B'`
    /// counting, `'C'` reduce/broadcast, `'D'` aggregation).
    PhaseEnter {
        /// Phase letter, `'A'..='D'`.
        phase: char,
    },
    /// The node received the DFS token (Algorithm 2 line "v obtains the
    /// token").
    TokenReceive,
    /// The node forwarded the DFS token.
    TokenSend {
        /// Token recipient.
        to: NodeId,
    },
    /// The node started its own BFS wave; `ts` is the wave's start round
    /// `T_s` — the quantity Lemma 4 constrains.
    WaveStart {
        /// Absolute start round of this source's wave.
        ts: u64,
    },
    /// The node sent its aggregated pair-dependency contribution for
    /// `source` upward along that source's BFS tree (Algorithm 3).
    AggSend {
        /// The wave source whose aggregation tree the value ascends.
        source: NodeId,
    },
}

/// One event in a recorded execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The simulated topology, emitted once at the head of a trace so the
    /// offline analyzer can recompute distances without the original input.
    Topology {
        /// Number of nodes.
        n: usize,
        /// Undirected edge list.
        edges: Vec<(NodeId, NodeId)>,
    },
    /// The run's phase windows (absolute round boundaries), emitted by
    /// drivers that know them. Absent for reliable executions, whose
    /// physical rounds drift past the windows.
    Schedule {
        /// First round of the counting phase (B).
        counting_start: u64,
        /// First round of the reduce sub-phase (C1).
        reduce_start: u64,
        /// First round of the broadcast sub-phase (C2).
        broadcast_start: u64,
        /// First round of the aggregation phase (D).
        agg_start: u64,
    },
    /// A synchronous round (or synchronizer pulse) began.
    RoundStart {
        /// Round number, starting at 0.
        round: u64,
    },
    /// A message was accepted for delivery.
    MessageSent {
        /// Round in which it was staged.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload size in bits.
        bits: usize,
        /// Content hash of the payload, recorded only by fault-injected
        /// runs (so fault-free traces stay byte-identical to older ones).
        /// Lets the offline checker tell an injected duplicate delivery —
        /// same `(from, to, round)` *and* same payload — from a schedule
        /// collision carrying different payloads.
        payload: Option<u64>,
    },
    /// A CONGEST constraint was violated (also counted in
    /// [`crate::NetMetrics`]).
    ViolationDetected {
        /// Round of the violation.
        round: u64,
        /// Offending node.
        node: NodeId,
        /// What went wrong.
        kind: ViolationKind,
    },
    /// A protocol-level observation from one node.
    Protocol {
        /// Round in which the node observed it.
        round: u64,
        /// Observing node.
        node: NodeId,
        /// The observation.
        detail: ProtocolDetail,
    },
}

/// The kinds of CONGEST violations a trace can record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two messages staged on one incident edge in one round.
    Collision {
        /// Port (adjacency index) that carried both messages.
        port: usize,
    },
    /// A message exceeded the per-message bit budget.
    Oversized {
        /// Actual size in bits.
        bits: usize,
        /// Configured budget in bits.
        budget: usize,
    },
}

/// Receiver of trace events.
///
/// Implementations must tolerate high event rates; the engines call
/// [`TraceSink::event`] synchronously on the simulation thread (worker
/// buffers are merged into ascending node-id order first, so sinks
/// observe the same deterministic stream for every shard count).
pub trait TraceSink {
    /// Records one event.
    fn event(&mut self, event: &TraceEvent);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Removes and returns all retained events, for sinks that keep them
    /// in memory (default: none retained).
    fn drain_events(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// A sink that discards every event.
///
/// Useful as an explicit "tracing plumbing on, recording off" default: the
/// engines still skip event construction entirely when *no* sink is
/// installed, so prefer not installing one when overhead matters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn event(&mut self, _: &TraceEvent) {}
}

/// An in-memory sink retaining the most recent `capacity` events.
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of events evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }

    fn drain_events(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

/// A sink writing one JSON object per event to a file (JSONL), the durable
/// format `distbc --trace` produces and `distbc check-trace` consumes.
#[derive(Debug)]
pub struct JsonlSink<W: Write = BufWriter<File>> {
    out: W,
    line: String,
    events: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::from_writer(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer (used by tests with `Vec<u8>`).
    pub fn from_writer(out: W) -> Self {
        JsonlSink {
            out,
            line: String::new(),
            events: 0,
        }
    }

    /// Events written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Unwraps the inner writer (flushes the caller's responsibility).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, event: &TraceEvent) {
        self.line.clear();
        encode_event(event, &mut self.line);
        self.line.push('\n');
        // I/O errors inside the simulation loop are not actionable by the
        // protocol; surface them at flush() instead of unwinding mid-round.
        let _ = self.out.write_all(self.line.as_bytes());
        self.events += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Encodes one event as a single-line JSON object.
pub fn encode_event(event: &TraceEvent, out: &mut String) {
    match event {
        TraceEvent::Topology { n, edges } => {
            let _ = write!(out, "{{\"ev\":\"topology\",\"n\":{n},\"edges\":[");
            json::join(out, edges, |out, (u, v)| write!(out, "[{u},{v}]"));
            out.push_str("]}");
        }
        TraceEvent::Schedule {
            counting_start,
            reduce_start,
            broadcast_start,
            agg_start,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"schedule\",\"counting_start\":{counting_start},\
                 \"reduce_start\":{reduce_start},\"broadcast_start\":{broadcast_start},\
                 \"agg_start\":{agg_start}}}"
            );
        }
        TraceEvent::RoundStart { round } => {
            let _ = write!(out, "{{\"ev\":\"round_start\",\"round\":{round}}}");
        }
        TraceEvent::MessageSent {
            round,
            from,
            to,
            bits,
            payload,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"message_sent\",\"round\":{round},\"from\":{from},\
                 \"to\":{to},\"bits\":{bits}"
            );
            if let Some(p) = payload {
                let _ = write!(out, ",\"payload\":{p}");
            }
            out.push('}');
        }
        TraceEvent::ViolationDetected { round, node, kind } => match kind {
            ViolationKind::Collision { port } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"violation\",\"round\":{round},\"node\":{node},\
                     \"kind\":\"collision\",\"port\":{port}}}"
                );
            }
            ViolationKind::Oversized { bits, budget } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"violation\",\"round\":{round},\"node\":{node},\
                     \"kind\":\"oversized\",\"bits\":{bits},\"budget\":{budget}}}"
                );
            }
        },
        TraceEvent::Protocol {
            round,
            node,
            detail,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"protocol\",\"round\":{round},\"node\":{node}"
            );
            match detail {
                ProtocolDetail::PhaseEnter { phase } => {
                    let _ = write!(out, ",\"detail\":\"phase_enter\",\"phase\":\"{phase}\"");
                }
                ProtocolDetail::TokenReceive => {
                    out.push_str(",\"detail\":\"token_receive\"");
                }
                ProtocolDetail::TokenSend { to } => {
                    let _ = write!(out, ",\"detail\":\"token_send\",\"to\":{to}");
                }
                ProtocolDetail::WaveStart { ts } => {
                    let _ = write!(out, ",\"detail\":\"wave_start\",\"ts\":{ts}");
                }
                ProtocolDetail::AggSend { source } => {
                    let _ = write!(out, ",\"detail\":\"agg_send\",\"source\":{source}");
                }
            }
            out.push('}');
        }
    }
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Reads a JSONL trace file back into events.
///
/// # Errors
///
/// Returns an I/O error for unreadable files and a boxed
/// [`TraceParseError`] for malformed lines.
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<TraceEvent>> {
    let reader = BufReader::new(File::open(path)?);
    let mut events = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_event(&line).map_err(|message| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                TraceParseError {
                    line: i + 1,
                    message,
                },
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Parses one encoded event line.
///
/// # Errors
///
/// Returns a description of the first syntactic or semantic problem.
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let value = json::parse(line)?;
    let obj = value.as_object()?;
    match obj.str("ev")? {
        "topology" => Ok(TraceEvent::Topology {
            n: obj.u32("n")? as usize,
            edges: obj.field("edges", |edges| {
                edges
                    .as_array()?
                    .iter()
                    .map(|edge| match edge.as_array()? {
                        [u, v] => Ok((u.as_u32()?, v.as_u32()?)),
                        _ => Err("an edge is not a [u,v] pair".to_string()),
                    })
                    .collect()
            })?,
        }),
        "schedule" => Ok(TraceEvent::Schedule {
            counting_start: obj.u64("counting_start")?,
            reduce_start: obj.u64("reduce_start")?,
            broadcast_start: obj.u64("broadcast_start")?,
            agg_start: obj.u64("agg_start")?,
        }),
        "round_start" => Ok(TraceEvent::RoundStart {
            round: obj.u64("round")?,
        }),
        "message_sent" => Ok(TraceEvent::MessageSent {
            round: obj.u64("round")?,
            from: obj.u32("from")?,
            to: obj.u32("to")?,
            bits: obj.u64("bits")? as usize,
            payload: obj.opt("payload").map(|_| obj.u64("payload")).transpose()?,
        }),
        "violation" => {
            let kind = match obj.str("kind")? {
                "collision" => ViolationKind::Collision {
                    port: obj.u64("port")? as usize,
                },
                "oversized" => ViolationKind::Oversized {
                    bits: obj.u64("bits")? as usize,
                    budget: obj.u64("budget")? as usize,
                },
                other => return Err(format!("unknown violation kind {other:?}")),
            };
            Ok(TraceEvent::ViolationDetected {
                round: obj.u64("round")?,
                node: obj.u32("node")?,
                kind,
            })
        }
        "protocol" => {
            let detail = match obj.str("detail")? {
                "phase_enter" => {
                    let phase = obj.str("phase")?;
                    let mut chars = phase.chars();
                    match (chars.next(), chars.next()) {
                        (Some(c), None) => ProtocolDetail::PhaseEnter { phase: c },
                        _ => return Err(format!("bad phase {phase:?}")),
                    }
                }
                "token_receive" => ProtocolDetail::TokenReceive,
                "token_send" => ProtocolDetail::TokenSend { to: obj.u32("to")? },
                "wave_start" => ProtocolDetail::WaveStart { ts: obj.u64("ts")? },
                "agg_send" => ProtocolDetail::AggSend {
                    source: obj.u32("source")?,
                },
                other => return Err(format!("unknown protocol detail {other:?}")),
            };
            Ok(TraceEvent::Protocol {
                round: obj.u64("round")?,
                node: obj.u32("node")?,
                detail,
            })
        }
        other => Err(format!("unknown event type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Topology {
                n: 3,
                edges: vec![(0, 1), (1, 2)],
            },
            TraceEvent::Schedule {
                counting_start: 5,
                reduce_start: 20,
                broadcast_start: 24,
                agg_start: 28,
            },
            TraceEvent::RoundStart { round: 0 },
            TraceEvent::MessageSent {
                round: 0,
                from: 0,
                to: 1,
                bits: 32,
                payload: None,
            },
            TraceEvent::MessageSent {
                round: 0,
                from: 1,
                to: 0,
                bits: 8,
                payload: Some(0xdead_beef_cafe),
            },
            TraceEvent::ViolationDetected {
                round: 1,
                node: 2,
                kind: ViolationKind::Collision { port: 0 },
            },
            TraceEvent::ViolationDetected {
                round: 1,
                node: 2,
                kind: ViolationKind::Oversized {
                    bits: 99,
                    budget: 64,
                },
            },
            TraceEvent::Protocol {
                round: 2,
                node: 1,
                detail: ProtocolDetail::PhaseEnter { phase: 'B' },
            },
            TraceEvent::Protocol {
                round: 2,
                node: 1,
                detail: ProtocolDetail::TokenReceive,
            },
            TraceEvent::Protocol {
                round: 3,
                node: 1,
                detail: ProtocolDetail::TokenSend { to: 2 },
            },
            TraceEvent::Protocol {
                round: 3,
                node: 1,
                detail: ProtocolDetail::WaveStart { ts: 6 },
            },
            TraceEvent::Protocol {
                round: 9,
                node: 2,
                detail: ProtocolDetail::AggSend { source: 1 },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_every_variant() {
        for event in sample_events() {
            let mut line = String::new();
            encode_event(&event, &mut line);
            let back = parse_event(&line).expect(&line);
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::from_writer(Vec::new());
        for event in sample_events() {
            sink.event(&event);
        }
        assert_eq!(sink.events_written(), sample_events().len() as u64);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let parsed: Vec<TraceEvent> = text.lines().map(|l| parse_event(l).expect(l)).collect();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let mut ring = RingSink::new(3);
        for round in 0..10 {
            ring.event(&TraceEvent::RoundStart { round });
        }
        assert_eq!(ring.dropped(), 7);
        let kept = ring.drain_events();
        assert_eq!(
            kept,
            vec![
                TraceEvent::RoundStart { round: 7 },
                TraceEvent::RoundStart { round: 8 },
                TraceEvent::RoundStart { round: 9 },
            ]
        );
        assert!(ring.drain_events().is_empty());
    }

    #[test]
    fn noop_sink_retains_nothing() {
        let mut sink = NoopSink;
        sink.event(&TraceEvent::RoundStart { round: 1 });
        assert!(sink.drain_events().is_empty());
        assert!(sink.flush().is_ok());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"ev\":\"nope\"}",
            "{\"ev\":\"round_start\"}",
            "{\"ev\":\"round_start\",\"round\":\"x\"}",
            "{\"ev\":\"round_start\",\"round\":3}garbage",
            "{\"ev\":\"violation\",\"round\":1,\"node\":0,\"kind\":\"weird\"}",
            "{\"ev\":\"protocol\",\"round\":1,\"node\":0,\"detail\":\"phase_enter\",\"phase\":\"XY\"}",
            // Out of range: never truncated into the u32 id space.
            "{\"ev\":\"topology\",\"n\":18446744073709551615,\"edges\":[]}",
            "{\"ev\":\"topology\",\"n\":2,\"edges\":[[0,4294967296]]}",
            "{\"ev\":\"message_sent\",\"round\":0,\"from\":4294967296,\"to\":1,\"bits\":8}",
        ] {
            assert!(parse_event(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let path =
            std::env::temp_dir().join(format!("distbc-trace-test-{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            for event in sample_events() {
                sink.event(&event);
            }
            sink.flush().unwrap();
        }
        let back = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, sample_events());
    }
}
