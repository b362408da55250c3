//! Reliable transport over lossy CONGEST links.
//!
//! The simulator's fault layer ([`bc_congest::faults`]) can drop,
//! duplicate, reorder (via delays), and corrupt messages. This module
//! wraps any [`Protocol`] in [`Reliable`], a per-edge sliding-window
//! transport that restores the synchronous abstraction on top of such a
//! network: the wrapped protocol executes exactly the *virtual* rounds it
//! would execute on a lossless network, with exactly the same inboxes, so
//! its final state is bit-identical to a fault-free run.
//!
//! # Wire protocol
//!
//! Each physical CONGEST message carries one *frame*:
//!
//! ```text
//! | checksum:8 | ack_only:1 | has_payload:1 | halted:1 | vround:32 | ack:32 | payload:* |
//! ```
//!
//! * `checksum` — XOR-fold of every bit after it. Any single-bit
//!   corruption is detected (each body bit feeds exactly one checksum
//!   bit), and a mismatching frame is silently discarded — the
//!   retransmission machinery recovers it, so corruption degrades into
//!   loss and never reaches the inner protocol's decoder. The fold is
//!   taken over the body's 64-bit chunks, and the 67-bit body header
//!   shifts payload chunk `k` across body chunks `k + 1` and `k + 2`; so
//!   the checksum is computed up front from the header fields and the
//!   payload's chunk XOR rotated left by 3, and one writer emits the
//!   frame reading the queued payload by reference. The decoder checks it
//!   the same way and copies the payload out chunk by chunk.
//! * `ack` — cumulative: the number of contiguous frames received on this
//!   edge, piggybacked on every frame (including retransmissions and
//!   ack-only frames).
//! * `vround` — the virtual round the payload belongs to. The transport
//!   sends exactly one frame per virtual round per edge — an *empty*
//!   frame (`has_payload = 0`) when the inner protocol had nothing to
//!   say — so virtual rounds double as per-edge sequence numbers and a
//!   receiver can distinguish "nothing was sent" from "the message was
//!   lost".
//! * `halted` — set on a node's final frame for an edge: a promise that
//!   no frame with a higher `vround` will ever be sent on it, letting the
//!   peer run ahead without waiting. This requires [`Protocol::is_halted`]
//!   to be *stable* (a halted protocol stays halted and sends nothing) —
//!   true for `DistBcNode` and every protocol in this workspace.
//!
//! # Execution model
//!
//! Virtual round `v` of the inner protocol runs once the frame for
//! virtual round `v − 1` has arrived from every neighbor (or the
//! neighbor's halted promise covers it), mirroring the synchronous
//! engine's sent-in-`r`, delivered-in-`r + 1` rule. On a fault-free
//! network this pipelines perfectly — one virtual round per physical
//! round. Under faults the transport retransmits the oldest unacknowledged
//! frame once per [`ReliableConfig::rto`] physical rounds, and a run costs
//! roughly `1 / (1 − p)` physical rounds per virtual round at drop
//! probability `p`.
//!
//! Each port keeps the received frames the inner protocol has not read
//! yet in a reorder ring indexed by `vround − base`. A running node never
//! receives a frame more than one virtual round ahead of the last one it
//! read, so the ring holds at most two slots; a frame past a fixed window
//! is discarded as if lost. Once the inner protocol has halted, frames
//! still advance the cumulative ack (so peers' frames are acknowledged
//! and peers halt), but their payloads are dropped, not buffered.
//!
//! With a 192-bit inline [`bc_numeric::bits::BitBuf`] behind every
//! [`Message`], a frame with up to 117 payload bits is encoded, sent,
//! decoded and dropped without a heap allocation, and a virtual round
//! reuses its inbox and send buffers.
//!
//! Crash-recover windows compose with this: a crashed node loses the
//! frames delivered while it was down, but its transport state survives,
//! so peers' retransmissions repair the gap after recovery. Crash-*stop*
//! failures are not masked — peers retransmit forever and the engine
//! reports [`bc_congest::CongestError::RoundLimit`].

use bc_congest::telemetry::{Counter, Telemetry};
use bc_congest::{Message, Protocol, RoundCtx};
use bc_numeric::bits::{BitReader, BitWriter};
use std::collections::VecDeque;
use std::sync::Arc;

/// Frame-header overhead in bits: checksum (8) + flags (3) + vround (32)
/// \+ cumulative ack (32). A reliable run needs its per-message budget
/// raised by this amount over the inner protocol's budget.
///
/// The sequence fields were widened from 16 to 32 bits after a run
/// crossing 65 535 virtual rounds was found to wrap the sequence space
/// (corrupting dedup and cumulative acks). 2³² virtual rounds is beyond
/// any reachable run length — `Config::max_rounds` caps physical rounds
/// well below it — so the remaining guard is a hard assert, not a wrap.
pub const HEADER_BITS: usize = 75;

/// Largest virtual round / ack the 32-bit frame fields can carry.
const SEQ_LIMIT: u64 = 1 << 32;

/// Tuning knobs for [`Reliable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Retransmission timeout in physical rounds: the oldest
    /// unacknowledged frame on an edge is resent once it has been
    /// outstanding this long. Should exceed the network's round-trip
    /// (2 plus the fault layer's maximum delivery delay).
    pub rto: u64,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig { rto: 3 }
    }
}

/// Transport counters for one node, harvested by the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Physical frames sent (first transmissions + retransmissions +
    /// ack-only frames).
    pub frames_sent: u64,
    /// Frames resent after a retransmission timeout.
    pub retransmits: u64,
    /// Pure-acknowledgment frames (no sequence number; never themselves
    /// acknowledged, so two idle peers cannot ack-ping-pong forever).
    pub ack_only_frames: u64,
    /// Received frames discarded as duplicates of an already-received
    /// virtual round.
    pub deduped: u64,
    /// Received frames discarded for a checksum mismatch (corruption).
    pub checksum_drops: u64,
}

impl TransportStats {
    /// Accumulates `other` into `self` (driver-side aggregation).
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.retransmits += other.retransmits;
        self.ack_only_frames += other.ack_only_frames;
        self.deduped += other.deduped;
        self.checksum_drops += other.checksum_drops;
    }
}

/// The fixed fields of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    ack_only: bool,
    halted: bool,
    vround: u64,
    ack: u64,
}

/// One queued outbound frame awaiting acknowledgment.
struct OutFrame {
    vround: u64,
    halted: bool,
    payload: Option<Message>,
    /// Physical round of the last transmission (`None` = never sent).
    last_sent: Option<u64>,
}

/// A received frame waiting in a port's reorder ring: its payload and
/// its halted flag.
type Received = (Option<Message>, bool);

/// Reorder-ring slots a port keeps past its first unread virtual round. A
/// running receiver never sees a frame more than one virtual round ahead
/// of the last one it read (a peer runs virtual round `v` only after
/// receiving this node's frame `v − 1`), so the ring holds at most two
/// slots. Only a halted receiver, whose peers run ahead on its promise,
/// can see more; a frame past the window is discarded as if lost, and the
/// sender's retransmission delivers it again once the gap before it fills.
const RECEIVE_WINDOW: u64 = 64;

/// Per-port (per-incident-edge) transport state.
struct PortState {
    /// Outbound frames not yet cumulatively acknowledged, oldest first.
    out: VecDeque<OutFrame>,
    /// Peer's cumulative ack: frames with `vround < acked_upto` are done.
    acked_upto: u64,
    /// Reorder ring of received frames not yet consumed by the inner
    /// protocol: slot `i` holds virtual round `base + i` (`None` = not
    /// arrived yet).
    frames: VecDeque<Option<Received>>,
    /// Virtual round of the ring's first slot.
    base: u64,
    /// Number of contiguous virtual rounds received — doubles as the
    /// cumulative ack we send.
    expected: u64,
    /// First virtual round the peer promised never to send (its halted
    /// frame's `vround + 1`).
    peer_halted_from: Option<u64>,
    /// A sequenced frame arrived since we last sent anything; if no
    /// regular frame goes out this round, an ack-only frame will.
    owes_ack: bool,
}

impl PortState {
    fn new() -> Self {
        PortState {
            out: VecDeque::new(),
            acked_upto: 0,
            frames: VecDeque::new(),
            base: 0,
            expected: 0,
            peer_halted_from: None,
            owes_ack: false,
        }
    }

    /// The ring slot of virtual round `vround`, if inside the ring.
    fn slot(&self, vround: u64) -> Option<&Option<Received>> {
        let i = vround.checked_sub(self.base)?;
        self.frames.get(usize::try_from(i).ok()?)
    }

    /// Drops every slot below `expected`: a halted inner protocol never
    /// reads them, so only the frames still out of order stay.
    fn drop_received(&mut self) {
        if self.base < self.expected {
            let n = (self.expected - self.base).min(self.frames.len() as u64);
            self.frames.drain(..n as usize);
            self.base = self.expected;
        }
    }
}

/// Wraps a [`Protocol`] in the reliable transport. Run it on a faulty
/// [`bc_congest::Network`] (with the engine budget raised by
/// [`HEADER_BITS`]) and the inner protocol's final state is bit-identical
/// to a fault-free run of the bare protocol.
pub struct Reliable<P> {
    inner: P,
    cfg: ReliableConfig,
    /// Next inner virtual round to execute.
    vr: u64,
    inner_halted: bool,
    ports: Vec<PortState>,
    stats: TransportStats,
    /// Live telemetry mirror of `stats` (registry + shard); the frame
    /// counters are added once per physical round. Counter-only: never
    /// consulted by the protocol, so it cannot perturb execution.
    telemetry: Option<(Arc<Telemetry>, usize)>,
    /// Recycled inbox staging buffer for nested rounds.
    scratch: Vec<(usize, Message)>,
    /// Recycled send buffer for nested rounds.
    sends: Vec<(usize, Message)>,
}

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner` for a node with `degree` incident edges.
    pub fn new(inner: P, degree: usize, cfg: ReliableConfig) -> Self {
        Reliable {
            inner,
            cfg,
            vr: 0,
            inner_halted: false,
            ports: (0..degree).map(|_| PortState::new()).collect(),
            stats: TransportStats::default(),
            telemetry: None,
            scratch: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Mirrors this node's transport counters into `telemetry` as they
    /// change, attributed to `shard`.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>, shard: usize) {
        self.telemetry = Some((telemetry, shard));
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the transport, returning the inner protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Virtual (inner-protocol) rounds executed so far.
    pub fn virtual_rounds(&self) -> u64 {
        self.vr
    }

    /// This node's transport counters.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// True when every port has the frame for virtual round `vr − 1` (or
    /// a halted promise covering it), so inner round `vr` can run.
    fn executable(&self) -> bool {
        let vr = self.vr;
        if vr == 0 {
            return true;
        }
        self.ports
            .iter()
            .all(|ps| ps.expected >= vr || ps.peer_halted_from.is_some_and(|p| p < vr))
    }

    fn process_frame(&mut self, port: usize, raw: &Message) {
        let Some((frame, payload)) = decode(raw) else {
            self.stats.checksum_drops += 1;
            if let Some((t, s)) = &self.telemetry {
                t.add(*s, Counter::ChecksumDrops, 1);
            }
            return;
        };
        let ps = &mut self.ports[port];
        if frame.ack > ps.acked_upto {
            ps.acked_upto = frame.ack;
            while ps.out.front().is_some_and(|f| f.vround < ps.acked_upto) {
                ps.out.pop_front();
            }
        }
        if frame.ack_only {
            return;
        }
        ps.owes_ack = true;
        if frame.vround < ps.expected || ps.slot(frame.vround).is_some_and(Option::is_some) {
            self.stats.deduped += 1;
            if let Some((t, s)) = &self.telemetry {
                t.add(*s, Counter::FramesDeduped, 1);
            }
            return;
        }
        let Some(i) = frame
            .vround
            .checked_sub(ps.base)
            .filter(|&i| i < RECEIVE_WINDOW)
        else {
            return;
        };
        let i = i as usize;
        if ps.frames.len() <= i {
            ps.frames.resize(i + 1, None);
        }
        // A halted inner protocol reads nothing more: keep only the flag.
        let payload = if self.inner_halted { None } else { payload };
        ps.frames[i] = Some((payload, frame.halted));
        while let Some(Some((_, halted))) = ps.slot(ps.expected) {
            if *halted {
                ps.peer_halted_from = Some(ps.expected + 1);
            }
            ps.expected += 1;
        }
    }

    /// Runs every inner virtual round whose inbox is complete and queues
    /// the resulting frames. Once the inner protocol has halted, frames
    /// keep advancing `expected` (so acks flow and peers halt) but their
    /// slots are dropped instead of buffered.
    fn advance_inner(&mut self, ctx: &mut RoundCtx<'_>) {
        while !self.inner_halted && self.executable() {
            let vr = self.vr;
            assert!(vr < SEQ_LIMIT, "virtual round exceeds 32-bit frame field");
            let mut inbox = std::mem::take(&mut self.scratch);
            if vr > 0 {
                for (port, ps) in self.ports.iter_mut().enumerate() {
                    debug_assert_eq!(ps.base, vr - 1);
                    if let Some(Some((Some(m), _))) = ps.frames.pop_front() {
                        inbox.push((port, m));
                    }
                    ps.base = vr;
                }
            }
            ctx.nested_round(vr, &mut self.inner, &inbox, &mut self.sends);
            inbox.clear();
            self.scratch = inbox;
            self.inner_halted = self.inner.is_halted();
            for ps in &mut self.ports {
                ps.out.push_back(OutFrame {
                    vround: vr,
                    halted: self.inner_halted,
                    payload: None,
                    last_sent: None,
                });
            }
            for (port, m) in self.sends.drain(..) {
                let f = self.ports[port].out.back_mut().expect("frame queued above");
                assert!(
                    f.payload.is_none(),
                    "nested protocol sent two messages on port {port} in one round \
                     (CONGEST violation)"
                );
                f.payload = Some(m);
            }
            self.vr = vr + 1;
        }
        if self.inner_halted {
            for ps in &mut self.ports {
                ps.drop_received();
            }
        }
    }

    /// Emits at most one physical frame per port: a never-sent frame
    /// first, else an RTO retransmission of the oldest unacked frame,
    /// else an ack-only frame if one is owed.
    fn emit_frames(&mut self, ctx: &mut RoundCtx<'_>, now: u64) {
        let rto = self.cfg.rto;
        let (mut sent, mut retransmits, mut ack_only) = (0, 0, 0);
        for (port, ps) in self.ports.iter_mut().enumerate() {
            let ack = ps.expected;
            assert!(ack < SEQ_LIMIT, "cumulative ack exceeds 32-bit frame field");
            let fresh = ps.out.iter().position(|f| f.last_sent.is_none());
            let resend = fresh.is_none()
                && ps
                    .out
                    .front()
                    .and_then(|f| f.last_sent)
                    .is_some_and(|t| now >= t + rto);
            let msg = if let Some(i) = fresh.or(resend.then_some(0)) {
                let f = &mut ps.out[i];
                f.last_sent = Some(now);
                retransmits += resend as u64;
                let header = Header {
                    ack_only: false,
                    halted: f.halted,
                    vround: f.vround,
                    ack,
                };
                encode(header, f.payload.as_ref())
            } else if ps.owes_ack {
                ack_only += 1;
                let header = Header {
                    ack_only: true,
                    halted: false,
                    vround: 0,
                    ack,
                };
                encode(header, None)
            } else {
                continue;
            };
            ps.owes_ack = false;
            sent += 1;
            ctx.send(port, msg);
        }
        self.stats.frames_sent += sent;
        self.stats.retransmits += retransmits;
        self.stats.ack_only_frames += ack_only;
        if let Some((t, s)) = &self.telemetry {
            t.add(*s, Counter::FramesSent, sent);
            t.add(*s, Counter::Retransmits, retransmits);
            t.add(*s, Counter::AckOnlyFrames, ack_only);
        }
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
        let now = ctx.round();
        for (port, raw) in inbox {
            self.process_frame(*port, raw);
        }
        self.advance_inner(ctx);
        self.emit_frames(ctx, now);
    }

    /// Halted once the inner protocol halted, every outbound frame is
    /// acknowledged, and no ack is owed. Receiving a peer's retransmission
    /// briefly un-halts the node so it can re-acknowledge.
    fn is_halted(&self) -> bool {
        self.inner_halted
            && self
                .ports
                .iter()
                .all(|ps| ps.out.is_empty() && !ps.owes_ack)
    }
}

fn fold_checksum(acc: u64) -> u64 {
    let mut x = acc;
    x ^= x >> 32;
    x ^= x >> 16;
    x ^= x >> 8;
    x & 0xff
}

/// The next `bits` bits of `r` in `min(64, remaining)`-bit chunks, as
/// `(value, width)` pairs.
fn chunks(mut r: BitReader<'_>, mut bits: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
    std::iter::from_fn(move || {
        (bits > 0).then(|| {
            let width = bits.min(64) as u32;
            bits -= width as usize;
            (r.read(width), width)
        })
    })
}

/// Checksum of a frame body: the XOR-fold of its 64-bit chunks. The
/// 67-bit body header fills chunk 0 and the low 3 bits of chunk 1, so
/// payload chunk `k` straddles body chunks `k + 1` and `k + 2` shifted
/// left by 3 — the payload's chunk XOR `x` enters rotated left by 3.
fn body_checksum(flags: u64, vround: u64, ack: u64, x: u64) -> u64 {
    fold_checksum((flags | vround << 3 | ack << 35) ^ ack >> 29 ^ x.rotate_left(3))
}

/// Encodes one frame with a single writer: the checksum goes first, so it
/// is computed up front from the header fields and the payload's chunks.
fn encode(h: Header, payload: Option<&Message>) -> Message {
    let flags = h.ack_only as u64 | (payload.is_some() as u64) << 1 | (h.halted as u64) << 2;
    let payload = payload.map(Message::payload);
    let x = payload.map_or(0, |p| {
        chunks(p.reader(), p.bit_len()).fold(0, |x, (c, _)| x ^ c)
    });
    let checksum = body_checksum(flags, h.vround, h.ack, x);
    let mut w = BitWriter::new();
    w.push(checksum | flags << 8 | h.vround << 11, 43);
    w.push(h.ack, 32);
    if let Some(p) = payload {
        for (c, width) in chunks(p.reader(), p.bit_len()) {
            w.push(c, width);
        }
    }
    Message::new(w.finish())
}

/// Decodes a frame and its payload; `None` means the frame is malformed
/// or fails its checksum and must be treated as lost.
fn decode(msg: &Message) -> Option<(Header, Option<Message>)> {
    let total = msg.bit_len();
    if total < HEADER_BITS {
        return None;
    }
    let mut r = msg.payload().reader();
    let stored = r.read(8);
    let flags = r.read(3);
    let vround = r.read(32);
    let ack = r.read(32);
    let payload_bits = total - HEADER_BITS;
    let x = chunks(r.clone(), payload_bits).fold(0, |x, (c, _)| x ^ c);
    if body_checksum(flags, vround, ack, x) != stored {
        return None;
    }
    let payload = if flags & 0b10 != 0 {
        let mut w = BitWriter::new();
        for (c, width) in chunks(r, payload_bits) {
            w.push(c, width);
        }
        Some(Message::new(w.finish()))
    } else if payload_bits != 0 {
        return None;
    } else {
        None
    };
    let header = Header {
        ack_only: flags & 0b1 != 0,
        halted: flags & 0b100 != 0,
        vround,
        ack,
    };
    Some((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_congest::faults::{corrupt_message, FaultPlan};
    use bc_congest::{Budget, Config, Network};
    use bc_graph::{generators, Graph, NodeId};
    use proptest::prelude::*;

    /// The frame codec as first written — a body writer, a checksum pass
    /// over the finished body, then a second writer copying the body
    /// behind the checksum. `encode` and `decode` must stay bit-identical
    /// to it.
    mod reference {
        use super::super::{fold_checksum, Header, HEADER_BITS};
        use bc_congest::Message;
        use bc_numeric::bits::{BitReader, BitWriter};

        fn checksum_bits(r: &mut BitReader<'_>, mut rem: usize) -> u64 {
            let mut acc = 0u64;
            while rem > 0 {
                let w = rem.min(64);
                acc ^= r.read(w as u32);
                rem -= w;
            }
            fold_checksum(acc)
        }

        pub fn encode(h: Header, payload: Option<&Message>) -> Message {
            let mut body = BitWriter::new();
            body.push(h.ack_only as u64, 1);
            body.push(payload.is_some() as u64, 1);
            body.push(h.halted as u64, 1);
            body.push(h.vround, 32);
            body.push(h.ack, 32);
            if let Some(p) = payload {
                let buf = p.payload();
                let mut r = buf.reader();
                let mut rem = buf.bit_len();
                while rem > 0 {
                    let w = rem.min(64);
                    body.push(r.read(w as u32), w as u32);
                    rem -= w;
                }
            }
            let body = body.finish();
            let checksum = checksum_bits(&mut body.reader(), body.bit_len());
            let mut out = BitWriter::new();
            out.push(checksum, 8);
            let mut r = body.reader();
            let mut rem = body.bit_len();
            while rem > 0 {
                let w = rem.min(64);
                out.push(r.read(w as u32), w as u32);
                rem -= w;
            }
            Message::new(out.finish())
        }

        pub fn decode(msg: &Message) -> Option<(Header, Option<Message>)> {
            let total = msg.bit_len();
            if total < HEADER_BITS {
                return None;
            }
            let buf = msg.payload();
            let mut r = buf.reader();
            let stored = r.read(8);
            let computed = {
                let mut rr = buf.reader();
                let _ = rr.read(8);
                checksum_bits(&mut rr, total - 8)
            };
            if computed != stored {
                return None;
            }
            let ack_only = r.read(1) == 1;
            let has_payload = r.read(1) == 1;
            let halted = r.read(1) == 1;
            let vround = r.read(32);
            let ack = r.read(32);
            let payload_bits = total - HEADER_BITS;
            let payload = if has_payload {
                let mut w = BitWriter::new();
                let mut rem = payload_bits;
                while rem > 0 {
                    let width = rem.min(64);
                    w.push(r.read(width as u32), width as u32);
                    rem -= width;
                }
                Some(Message::new(w.finish()))
            } else {
                if payload_bits != 0 {
                    return None;
                }
                None
            };
            let header = Header {
                ack_only,
                halted,
                vround,
                ack,
            };
            Some((header, payload))
        }
    }

    /// The first `bits` bits of `msg`.
    fn truncated(msg: &Message, bits: usize) -> Message {
        let mut w = BitWriter::new();
        for (c, width) in chunks(msg.payload().reader(), bits) {
            w.push(c, width);
        }
        Message::new(w.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn codec_matches_the_reference(
            (ack_only, halted, has_payload) in (any::<bool>(), any::<bool>(), any::<bool>()),
            (vround, ack) in (any::<u32>(), any::<u32>()),
            (bits, words) in (0usize..=300, prop::collection::vec(any::<u64>(), 5)),
        ) {
            let header = Header { ack_only, halted, vround: vround as u64, ack: ack as u64 };
            let mut w = BitWriter::new();
            for (i, &word) in words.iter().enumerate().take(bits.div_ceil(64)) {
                let width = (bits - 64 * i).min(64) as u32;
                w.push(if width == 64 { word } else { word & ((1 << width) - 1) }, width);
            }
            let payload = has_payload.then(|| Message::new(w.finish()));
            let msg = encode(header, payload.as_ref());
            prop_assert_eq!(&msg, &reference::encode(header, payload.as_ref()));
            prop_assert_eq!(decode(&msg), Some((header, payload)));
            for bit in 0..msg.bit_len() {
                let flipped = corrupt_message(&msg, bit as u64);
                prop_assert_eq!(decode(&flipped), reference::decode(&flipped), "flip of bit {}", bit);
            }
            for len in 0..msg.bit_len() {
                let cut = truncated(&msg, len);
                prop_assert_eq!(decode(&cut), reference::decode(&cut), "truncation to {} bits", len);
            }
        }
    }

    fn frame_roundtrip(h: Header, payload: Option<Message>) {
        let msg = encode(h, payload.as_ref());
        assert_eq!(
            msg.bit_len() - payload.as_ref().map_or(0, |p| p.bit_len()),
            HEADER_BITS
        );
        let (dh, dp) = decode(&msg).expect("valid frame decodes");
        assert_eq!(dh, h);
        assert_eq!(dp, payload);
    }

    fn payload(bits: &[(u64, u32)]) -> Message {
        let mut w = BitWriter::new();
        for &(v, width) in bits {
            w.push(v, width);
        }
        Message::new(w.finish())
    }

    #[test]
    fn frames_roundtrip() {
        frame_roundtrip(
            Header {
                ack_only: true,
                halted: false,
                vround: 0,
                ack: 17,
            },
            None,
        );
        frame_roundtrip(
            Header {
                ack_only: false,
                halted: true,
                vround: 65_535,
                ack: 65_535,
            },
            None,
        );
        frame_roundtrip(
            Header {
                ack_only: false,
                halted: false,
                vround: 12,
                ack: 3,
            },
            Some(payload(&[(0xdead_beef, 32), (5, 3)])),
        );
        // Zero-length payloads are representable and distinct from "no
        // payload".
        frame_roundtrip(
            Header {
                ack_only: false,
                halted: false,
                vround: 1,
                ack: 1,
            },
            Some(payload(&[])),
        );
    }

    #[test]
    fn frames_roundtrip_beyond_16_bit_sequence_space() {
        // Regression: vround/ack were 16-bit fields until a long run
        // wrapped the sequence space at 65 536 virtual rounds; frames must
        // round-trip well past the old boundary.
        frame_roundtrip(
            Header {
                ack_only: false,
                halted: false,
                vround: 65_536,
                ack: 65_536,
            },
            None,
        );
        frame_roundtrip(
            Header {
                ack_only: false,
                halted: true,
                vround: (1 << 32) - 1,
                ack: 1 << 20,
            },
            Some(payload(&[(0xfeed, 16)])),
        );
    }

    /// Broadcasts the current round number every round up to a limit;
    /// checks arrivals are strictly sequential (any sequence-space wrap
    /// would alias an old vround onto a new one and break the order).
    struct LongHaul {
        limit: u64,
        last_seen: u64,
    }

    impl Protocol for LongHaul {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
            for (_, m) in inbox {
                let v = m.payload().reader().read(32);
                assert_eq!(v, self.last_seen, "out-of-sequence arrival");
                self.last_seen = v + 1;
            }
            if ctx.round() < self.limit {
                let mut w = BitWriter::new();
                w.push(ctx.round(), 32);
                ctx.broadcast(&Message::new(w.finish()));
            }
        }

        fn is_halted(&self) -> bool {
            self.last_seen >= self.limit
        }
    }

    #[test]
    fn virtual_rounds_cross_the_old_16_bit_boundary() {
        // Regression: with 16-bit sequence fields this run hit the
        // sequence-space ceiling at virtual round 65 536. It must now run
        // through the boundary with dedup and acks intact.
        const LIMIT: u64 = 65_600;
        let g = generators::path(2);
        let cfg = Config {
            budget: Budget::Unlimited,
            ..Config::default()
        };
        let mut net = Network::new(&g, cfg, |v, g| {
            Reliable::new(
                LongHaul {
                    limit: LIMIT,
                    last_seen: 0,
                },
                g.degree(v),
                ReliableConfig::default(),
            )
        });
        net.run(200_000).unwrap();
        for v in g.nodes() {
            let node = net.node(v);
            assert_eq!(node.inner().last_seen, LIMIT, "node {v}");
            assert!(node.virtual_rounds() > 65_536, "node {v} stopped short");
            assert_eq!(node.stats().retransmits, 0);
            assert_eq!(node.stats().deduped, 0);
        }
    }

    /// Broadcasts its round number every round until round `stop`, then
    /// halts for good; folds everything it hears while running.
    #[derive(Debug, PartialEq)]
    struct Talker {
        stop: u64,
        heard: u64,
        done: bool,
    }

    impl Protocol for Talker {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
            if self.done {
                return;
            }
            for (_, m) in inbox {
                let v = m.payload().reader().read(32);
                self.heard = self.heard.wrapping_mul(31).wrapping_add(v + 1);
            }
            let mut w = BitWriter::new();
            w.push(ctx.round(), 32);
            ctx.broadcast(&Message::new(w.finish()));
            self.done = ctx.round() + 1 >= self.stop;
        }

        fn is_halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn halted_receiver_drops_payloads_but_keeps_acking() {
        // Regression: a node whose inner protocol halted buffered every
        // later frame its running neighbour sent until the run ended.
        let g = generators::path(2);
        let talker = |v: NodeId| Talker {
            stop: if v == 0 { 2 } else { 502 },
            heard: 0,
            done: false,
        };
        let mut bare = Network::new(&g, Config::default(), |v, _| talker(v));
        bare.run(10_000).unwrap();
        let lossy = FaultPlan {
            drop: 0.2,
            duplicate: 0.1,
            delay: 0.2,
            max_delay: 3,
            ..FaultPlan::seeded(5)
        };
        for (plan, bound) in [(None, 1), (Some(lossy), RECEIVE_WINDOW as usize)] {
            let cfg = Config {
                budget: Budget::Unlimited,
                faults: plan,
                ..Config::default()
            };
            let mut net = Network::new(&g, cfg, |v, g| {
                Reliable::new(talker(v), g.degree(v), ReliableConfig { rto: 5 })
            });
            let mut peak = 0;
            while !g.nodes().all(|v| net.node(v).is_halted()) {
                net.run_rounds(1).unwrap();
                peak = peak.max(net.node(0).ports[0].frames.len());
                assert!(net.metrics().rounds < 50_000, "run did not halt");
            }
            net.run(50_000).unwrap();
            assert!(peak <= bound, "halted side buffered {peak} frames");
            assert!(net.node(1).virtual_rounds() > 500);
            for v in g.nodes() {
                assert_eq!(net.node(v).inner(), bare.node(v), "node {v}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let msg = encode(
            Header {
                ack_only: false,
                halted: false,
                vround: 40,
                ack: 39,
            },
            Some(&payload(&[(0x1234_5678_9abc_def0, 64), (0x2a, 7)])),
        );
        for bit in 0..msg.bit_len() as u64 {
            let corrupted = corrupt_message(&msg, bit);
            assert!(
                decode(&corrupted).is_none(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert!(decode(&payload(&[(0, 10)])).is_none());
        assert!(decode(&payload(&[])).is_none());
    }

    /// The flooding protocol used across the engine test suites.
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

    fn reliable_flood(v: NodeId, g: &Graph) -> Reliable<Flood> {
        Reliable::new(
            Flood {
                dist: None,
                announced: false,
            },
            g.degree(v),
            ReliableConfig::default(),
        )
    }

    fn faulty_config(plan: FaultPlan) -> Config {
        Config {
            budget: Budget::Unlimited,
            faults: Some(plan),
            ..Config::default()
        }
    }

    #[test]
    fn lossless_reliable_flood_matches_bare_run() {
        let g = generators::erdos_renyi_connected(24, 0.12, 9);
        let mut bare = Network::new(&g, Config::default(), |_, _| Flood {
            dist: None,
            announced: false,
        });
        bare.run(10_000).unwrap();
        // Like the driver, raise the per-message budget by the frame
        // header so the inner protocol keeps its full payload allowance.
        let cfg = Config {
            budget: Budget::Bits(Budget::Auto.resolve(g.n()).unwrap() + HEADER_BITS),
            ..Config::default()
        };
        let mut net = Network::new(&g, cfg, reliable_flood);
        net.run(10_000).unwrap();
        let mut totals = TransportStats::default();
        for v in g.nodes() {
            assert_eq!(net.node(v).inner().dist, bare.node(v).dist, "node {v}");
            totals.merge(&net.node(v).stats());
        }
        assert_eq!(totals.retransmits, 0, "lossless run retransmitted");
        assert_eq!(totals.deduped, 0);
        assert_eq!(totals.checksum_drops, 0);
    }

    #[test]
    fn flood_survives_heavy_drop_dup_and_reorder() {
        let g = generators::erdos_renyi_connected(20, 0.15, 3);
        let mut bare = Network::new(&g, Config::default(), |_, _| Flood {
            dist: None,
            announced: false,
        });
        bare.run(10_000).unwrap();
        for seed in 0..4 {
            let plan = FaultPlan {
                drop: 0.2,
                duplicate: 0.15,
                delay: 0.2,
                max_delay: 3,
                ..FaultPlan::seeded(seed)
            };
            let mut net = Network::new(&g, faulty_config(plan), reliable_flood);
            let report = net.run(50_000).unwrap();
            let mut retransmits = 0;
            for v in g.nodes() {
                assert_eq!(
                    net.node(v).inner().dist,
                    bare.node(v).dist,
                    "seed {seed} node {v}"
                );
                retransmits += net.node(v).stats().retransmits;
            }
            assert!(retransmits > 0, "seed {seed}: faults caused no retransmits");
            assert!(report.rounds > 0);
        }
    }

    #[test]
    fn flood_survives_pure_corruption() {
        let g = generators::cycle(12);
        let mut bare = Network::new(&g, Config::default(), |_, _| Flood {
            dist: None,
            announced: false,
        });
        bare.run(10_000).unwrap();
        let plan = FaultPlan {
            corrupt: 0.3,
            ..FaultPlan::seeded(11)
        };
        let mut net = Network::new(&g, faulty_config(plan), reliable_flood);
        net.run(50_000).unwrap();
        let mut checksum_drops = 0;
        for v in g.nodes() {
            assert_eq!(net.node(v).inner().dist, bare.node(v).dist, "node {v}");
            checksum_drops += net.node(v).stats().checksum_drops;
        }
        assert!(checksum_drops > 0, "corruption never reached the checksum");
    }
}
