//! Socket wire layer for the process-per-shard engine.
//!
//! The in-process parallel engine ([`crate::Network::run_parallel`]) moves
//! per-round lane batches between shard workers over channels. This module
//! moves the *same* batches between shard **processes** over TCP or
//! Unix-domain sockets, with nothing else changed: [`run_shard_engine`]
//! runs the pool's shard round loop with `BATCH` frames for lanes, and
//! the leader applies the same canonical join, so results, metrics, and
//! telemetry snapshots stay bit-identical to an in-process run.
//!
//! # Frame format
//!
//! Every frame is `tag: u8` + `len: u32 LE` + `len` payload bytes:
//!
//! | tag | name  | payload |
//! |-----|-------|---------|
//! | 1   | HELLO | magic, wire version, telemetry schema, role, shard id, shard count, graph hash, config hash |
//! | 2   | SETUP | opaque run configuration (encoded by the driver crate) |
//! | 3   | BATCH | one round's lane batch: round, routed count, halt/fatal flags, entries |
//! | 4   | DONE  | opaque per-shard results (encoded by the driver crate) |
//! | 5   | ERROR | UTF-8 description of a shard-side failure |
//!
//! # Handshake
//!
//! The leader dials each shard's listener in ascending shard order and
//! sends `HELLO` (assigning the shard its id) followed by `SETUP`; the
//! shard validates the magic/version/schema, checks the `SETUP` payload
//! against the hashes claimed in `HELLO`, and replies with its own
//! `HELLO`. Only then does the leader move to the next shard — which is
//! what makes the mesh build race-free: when shard `i` dials a lower
//! peer `j < i`, shard `j` has already completed its leader handshake
//! and is accepting. Dialers identify themselves with `HELLO`; both ends
//! verify they hold the same graph and config hashes.
//!
//! # Round protocol and failure semantics
//!
//! Each round every shard steps its nodes, then writes exactly one
//! `BATCH` frame to every peer (empty or not — the frame *is* the round
//! barrier), then reads exactly one `BATCH` from every peer. The
//! aggregate `(routed, all_halted, fatal)` flags are identical on every
//! shard, so all shards compute the same verdict locally with no extra
//! control round. Write-all-then-read-all relies on OS socket buffering
//! to absorb one round's batches per peer pair; [`MAX_FRAME_BYTES`]
//! bounds a frame well under any realistic buffer pathology. A peer that
//! dies mid-run surfaces as an EOF (or read-timeout) [`WireError`] on
//! its neighbors, which report `ERROR` to the leader instead of a
//! result; the leader turns that into a run error (and a postmortem)
//! rather than a hang.

use crate::faults::{corrupt_message, FaultPlan};
use crate::message::Message;
use crate::metrics::NetMetrics;
use crate::network::{
    round_verdict, CongestError, LaneBatch, LaneEntry, Lanes, Protocol, ShardEnv, ShardWorker,
    WorkerReply,
};
use crate::partition::ShardMap;
use crate::telemetry::{Telemetry, TelemetryHandle, TelemetrySnapshot, COUNTERS, SCHEMA_VERSION};
use bc_graph::{Graph, NodeId, ReversePorts};
use bc_numeric::bits::BitWriter;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Protocol magic: the ASCII bytes `bcwire01` as a little-endian `u64`.
pub const MAGIC: u64 = u64::from_le_bytes(*b"bcwire01");

/// Version of the frame layout; bumped on any incompatible change.
pub const WIRE_VERSION: u32 = 3;

/// Hard upper bound on a single frame's payload (1 GiB); a length prefix
/// beyond this is treated as a protocol error, not an allocation request.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// `HELLO`: handshake (both directions, leader↔shard and shard↔shard).
pub const TAG_HELLO: u8 = 1;
/// `SETUP`: leader→shard run configuration (payload encoded by the driver).
pub const TAG_SETUP: u8 = 2;
/// `BATCH`: one round's lane batch between two shards.
pub const TAG_BATCH: u8 = 3;
/// `DONE`: shard→leader results (payload encoded by the driver).
pub const TAG_DONE: u8 = 4;
/// `ERROR`: shard→leader failure report (UTF-8 payload).
pub const TAG_ERROR: u8 = 5;
/// `QUERY`: client→server batch of centrality queries (payload encoded
/// by the serving layer, `bc-serve`).
pub const TAG_QUERY: u8 = 6;
/// `RESP`: server→client batch of query answers (payload encoded by the
/// serving layer, `bc-serve`).
pub const TAG_RESP: u8 = 7;

/// [`Hello::role`] of the leader process.
pub const ROLE_LEADER: u8 = 0;
/// [`Hello::role`] of a shard process.
pub const ROLE_SHARD: u8 = 1;
/// [`Hello::role`] of a query client talking to a `bc-serve` server.
pub const ROLE_CLIENT: u8 = 2;

/// Verdict: at least one more round is needed (internal to the loop).
pub const VERDICT_CONTINUE: u8 = 0;
/// Verdict: no message in flight and every node halted — clean completion.
pub const VERDICT_QUIESCENT: u8 = 1;
/// Verdict: the round limit was reached before quiescence.
pub const VERDICT_ROUND_LIMIT: u8 = 2;
/// Verdict: a node panicked (or violated CONGEST under strict
/// enforcement); the final round is not committed.
pub const VERDICT_ABORT: u8 = 3;

/// Read-timeout backstop on shard-to-shard data sockets: a healthy peer
/// answers every round within this window; a wedged one surfaces as a
/// [`WireError::Io`] instead of a hang. (A *dead* peer surfaces much
/// faster, via EOF.)
pub const PEER_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long [`WireStream::connect`] keeps retrying a refused connection
/// before giving up — covers leader/shard startup races in scripts and CI.
pub const CONNECT_RETRY_WINDOW: Duration = Duration::from_secs(10);

/// Errors from the socket wire layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Transport-level failure (connect, read, write, unexpected EOF).
    Io(String),
    /// The peer spoke, but not this protocol (bad magic, frame, codec,
    /// or a hash mismatch).
    Protocol(String),
    /// The peer reported its own failure via an `ERROR` frame.
    Peer(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "wire i/o error: {m}"),
            WireError::Protocol(m) => write!(f, "wire protocol error: {m}"),
            WireError::Peer(m) => write!(f, "peer failure: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Addresses, listeners, streams
// ---------------------------------------------------------------------------

/// Splits a `tcp:HOST:PORT` / `unix:PATH` address into scheme and rest.
fn split_addr(addr: &str) -> Result<(&str, &str), WireError> {
    if let Some(rest) = addr.strip_prefix("tcp:") {
        Ok(("tcp", rest))
    } else if let Some(rest) = addr.strip_prefix("unix:") {
        Ok(("unix", rest))
    } else {
        Err(WireError::Protocol(format!(
            "address `{addr}` must start with `tcp:` or `unix:`"
        )))
    }
}

/// A listening socket bound to a `tcp:HOST:PORT` or `unix:PATH` address.
/// A `unix:` listener deletes its socket file when dropped.
#[derive(Debug)]
pub enum WireListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener, String),
}

impl WireListener {
    /// Binds to `addr` (`tcp:HOST:PORT`, port 0 for ephemeral, or
    /// `unix:PATH`; a stale socket file at `PATH` is removed first).
    pub fn bind(addr: &str) -> Result<WireListener, WireError> {
        match split_addr(addr)? {
            ("tcp", rest) => Ok(WireListener::Tcp(TcpListener::bind(rest)?)),
            #[cfg(unix)]
            ("unix", path) => {
                let _ = std::fs::remove_file(path);
                Ok(WireListener::Unix(UnixListener::bind(path)?, path.into()))
            }
            (scheme, _) => Err(WireError::Protocol(format!(
                "unsupported address scheme `{scheme}` on this platform"
            ))),
        }
    }

    /// The bound address in dialable `tcp:`/`unix:` form (resolves an
    /// ephemeral TCP port to the actual one).
    pub fn local_addr(&self) -> Result<String, WireError> {
        match self {
            WireListener::Tcp(l) => Ok(format!("tcp:{}", l.local_addr()?)),
            #[cfg(unix)]
            WireListener::Unix(_, path) => Ok(format!("unix:{path}")),
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> Result<WireStream, WireError> {
        match self {
            WireListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(WireStream::Tcp(s))
            }
            #[cfg(unix)]
            WireListener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(WireStream::Unix(s))
            }
        }
    }

    /// Switches the listener's blocking mode (used by pollers that need
    /// to notice a stop flag between accepts).
    pub fn set_nonblocking(&self, nb: bool) -> Result<(), WireError> {
        match self {
            WireListener::Tcp(l) => l.set_nonblocking(nb)?,
            #[cfg(unix)]
            WireListener::Unix(l, _) => l.set_nonblocking(nb)?,
        }
        Ok(())
    }
}

impl Drop for WireListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let WireListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected frame-oriented socket (TCP or Unix-domain).
#[derive(Debug)]
pub enum WireStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Connects to `addr`, retrying refused/absent endpoints for up to
    /// [`CONNECT_RETRY_WINDOW`] to absorb process-startup races.
    pub fn connect(addr: &str) -> Result<WireStream, WireError> {
        let deadline = Instant::now() + CONNECT_RETRY_WINDOW;
        loop {
            let attempt: io::Result<WireStream> = match split_addr(addr)? {
                ("tcp", rest) => TcpStream::connect(rest).map(|s| {
                    let _ = s.set_nodelay(true);
                    WireStream::Tcp(s)
                }),
                #[cfg(unix)]
                ("unix", path) => UnixStream::connect(path).map(WireStream::Unix),
                (scheme, _) => {
                    return Err(WireError::Protocol(format!(
                        "unsupported address scheme `{scheme}` on this platform"
                    )))
                }
            };
            match attempt {
                Ok(s) => return Ok(s),
                Err(e) => {
                    let retryable = matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionRefused
                            | io::ErrorKind::NotFound
                            | io::ErrorKind::AddrNotAvailable
                    );
                    if !retryable || Instant::now() >= deadline {
                        return Err(WireError::Io(format!("connect {addr}: {e}")));
                    }
                    thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    /// Sets (or clears) the read timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> Result<(), WireError> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(t)?,
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_read_timeout(t)?,
        }
        Ok(())
    }

    /// Clones the underlying socket handle (both halves share the fd).
    pub fn try_clone(&self) -> Result<WireStream, WireError> {
        Ok(match self {
            WireStream::Tcp(s) => WireStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            WireStream::Unix(s) => WireStream::Unix(s.try_clone()?),
        })
    }

    /// Shuts down both directions, waking any peer blocked on a read.
    pub fn shutdown(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            WireStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.write_all(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write_all(buf),
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.read_exact(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read_exact(buf),
        }
    }

    /// Writes one `tag` frame with `payload`.
    pub fn write_frame(&mut self, tag: u8, payload: &[u8]) -> Result<(), WireError> {
        if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
            return Err(WireError::Protocol(format!(
                "outgoing frame of {} bytes exceeds the {} byte cap",
                payload.len(),
                MAX_FRAME_BYTES
            )));
        }
        let mut frame = Vec::with_capacity(5 + payload.len());
        frame.push(tag);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        self.write_all(&frame)
            .map_err(|e| WireError::Io(format!("write frame: {e}")))
    }

    /// Reads one frame, returning `(tag, payload)`.
    pub fn read_frame(&mut self) -> Result<(u8, Vec<u8>), WireError> {
        let mut header = [0u8; 5];
        self.read_exact(&mut header)
            .map_err(|e| WireError::Io(format!("read frame header: {e}")))?;
        let tag = header[0];
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Protocol(format!(
                "incoming frame claims {len} bytes (cap {MAX_FRAME_BYTES})"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.read_exact(&mut payload)
            .map_err(|e| WireError::Io(format!("read frame payload: {e}")))?;
        Ok((tag, payload))
    }
}

// ---------------------------------------------------------------------------
// Byte codecs
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A checked cursor over a frame payload; every read reports truncation
/// as a [`WireError::Protocol`] instead of panicking on a hostile frame.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Protocol(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Protocol("invalid UTF-8 in string field".into()))
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Appends a [`Message`] (bit length + 64-bit payload chunks).
pub fn put_message(buf: &mut Vec<u8>, msg: &Message) {
    let bits = msg.bit_len();
    put_u32(buf, bits as u32);
    let mut r = msg.payload().reader();
    let mut at = 0usize;
    while at < bits {
        let chunk = (bits - at).min(64) as u32;
        put_u64(buf, r.read(chunk));
        at += chunk as usize;
    }
}

/// Reads a [`Message`] written by [`put_message`].
pub fn get_message(r: &mut ByteReader<'_>) -> Result<Message, WireError> {
    let bits = r.u32()? as usize;
    let mut w = BitWriter::new();
    let mut at = 0usize;
    while at < bits {
        let chunk = (bits - at).min(64) as u32;
        w.push(r.u64()?, chunk);
        at += chunk as usize;
    }
    Ok(Message::new(w.finish()))
}

/// FNV-1a 64-bit hash; used for the handshake's graph and config hashes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic hash of a graph's topology (node count + edge list).
pub fn graph_hash(g: &Graph) -> u64 {
    let mut buf = Vec::with_capacity(8 + g.edges().count() * 8);
    put_u64(&mut buf, g.n() as u64);
    for (u, v) in g.edges() {
        put_u32(&mut buf, u);
        put_u32(&mut buf, v);
    }
    fnv1a64(&buf)
}

// ---------------------------------------------------------------------------
// HELLO and BATCH frames
// ---------------------------------------------------------------------------

/// The handshake frame: identifies the sender and pins the run's graph
/// and configuration so mismatched processes fail fast instead of
/// diverging silently. The encoded form also carries [`MAGIC`],
/// [`WIRE_VERSION`], and the telemetry [`SCHEMA_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// [`ROLE_LEADER`] or [`ROLE_SHARD`].
    pub role: u8,
    /// From the leader: the shard id it assigns the accepting process.
    /// From a shard: its own id.
    pub shard_id: u32,
    /// Total shard count of the run.
    pub shards: u32,
    /// [`graph_hash`] of the run's graph.
    pub graph_hash: u64,
    /// [`fnv1a64`] of the run's encoded `SETUP` payload.
    pub config_hash: u64,
}

impl Hello {
    /// Encodes into a `HELLO` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(33);
        put_u64(&mut buf, MAGIC);
        put_u32(&mut buf, WIRE_VERSION);
        put_u32(&mut buf, SCHEMA_VERSION);
        put_u8(&mut buf, self.role);
        put_u32(&mut buf, self.shard_id);
        put_u32(&mut buf, self.shards);
        put_u64(&mut buf, self.graph_hash);
        put_u64(&mut buf, self.config_hash);
        buf
    }

    /// Decodes and validates magic, wire version, and telemetry schema.
    pub fn decode(payload: &[u8]) -> Result<Hello, WireError> {
        let mut r = ByteReader::new(payload);
        let magic = r.u64()?;
        if magic != MAGIC {
            return Err(WireError::Protocol(format!(
                "bad magic {magic:#018x} (expected {MAGIC:#018x})"
            )));
        }
        let version = r.u32()?;
        if version != WIRE_VERSION {
            return Err(WireError::Protocol(format!(
                "wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        let schema = r.u32()?;
        if schema != SCHEMA_VERSION {
            return Err(WireError::Protocol(format!(
                "telemetry schema {schema} (expected {SCHEMA_VERSION})"
            )));
        }
        let hello = Hello {
            role: r.u8()?,
            shard_id: r.u32()?,
            shards: r.u32()?,
            graph_hash: r.u64()?,
            config_hash: r.u64()?,
        };
        r.finish()?;
        Ok(hello)
    }
}

/// One round's lane batch from one shard to one peer: the messages whose
/// targets live on the peer, plus the sender's round summary flags the
/// peers need to agree on a verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The round these messages were sent in (delivered at `round + 1`).
    pub round: u64,
    /// Messages the *sending shard* routed this round (to all
    /// destinations, not just this peer) — summed across shards to
    /// detect quiescence.
    pub routed: u64,
    /// Every node of the sending shard is halted.
    pub all_halted: bool,
    /// The sending shard hit a node panic (or a strict-mode CONGEST
    /// violation) this round; all shards abort without committing it.
    pub fatal: bool,
    /// `(local index on the destination shard, arrival port, message)`.
    pub entries: Vec<(u32, u32, Message)>,
}

impl Batch {
    /// Encodes into a `BATCH` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(26 + self.entries.len() * 16);
        put_u64(&mut buf, self.round);
        put_u64(&mut buf, self.routed);
        let flags = (self.all_halted as u8) | ((self.fatal as u8) << 1);
        put_u8(&mut buf, flags);
        put_u32(&mut buf, self.entries.len() as u32);
        for (local, port, msg) in &self.entries {
            put_u32(&mut buf, *local);
            put_u32(&mut buf, *port);
            put_message(&mut buf, msg);
        }
        buf
    }

    /// Decodes a `BATCH` frame payload.
    pub fn decode(payload: &[u8]) -> Result<Batch, WireError> {
        let mut r = ByteReader::new(payload);
        let round = r.u64()?;
        let routed = r.u64()?;
        let flags = r.u8()?;
        let count = r.u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let local = r.u32()?;
            let port = r.u32()?;
            let msg = get_message(&mut r)?;
            entries.push((local, port, msg));
        }
        r.finish()?;
        Ok(Batch {
            round,
            routed,
            all_halted: flags & 1 != 0,
            fatal: flags & 2 != 0,
            entries,
        })
    }
}

// ---------------------------------------------------------------------------
// The shard-side round engine
// ---------------------------------------------------------------------------

/// Engine parameters a shard needs to run its slice of the round loop
/// (distributed by the leader's `SETUP`; already resolved — the budget
/// includes any transport header allowance).
#[derive(Debug, Clone, Copy)]
pub struct ShardEngineConfig {
    /// Per-message bit budget (`None` = unlimited).
    pub budget_bits: Option<usize>,
    /// Strict CONGEST enforcement: a collision/oversize aborts the run.
    pub strict: bool,
    /// Skip idle nodes with empty inboxes (observationally free).
    pub skip_idle: bool,
    /// Round limit guarding non-termination.
    pub max_rounds: u64,
}

/// Number of telemetry counters in a per-round delta row.
pub const COUNTER_COUNT: usize = COUNTERS.len();

/// Everything a shard reports back to the leader after its run.
#[derive(Debug)]
pub struct ShardRunOutcome<P> {
    /// The shard's node states, in shard-local order.
    pub nodes: Vec<P>,
    /// This shard's partial metrics (`rounds` left 0 — the leader sets
    /// the committed count after merging, like the in-process join).
    pub metrics: NetMetrics,
    /// Rounds committed (identical on every shard).
    pub committed: u64,
    /// Final verdict (identical on every shard; never
    /// [`VERDICT_CONTINUE`]).
    pub verdict: u8,
    /// Lowest-id panicking node of the aborted round, if any.
    pub panic: Option<(NodeId, String)>,
    /// First CONGEST violation of the aborted round (strict mode only).
    pub first_error: Option<CongestError>,
    /// Per-executed-round telemetry counter deltas (one row per round the
    /// shard stepped, including an uncommitted aborted round); empty when
    /// telemetry is off. With the registry's clock on the rows carry the
    /// shard's timings too, and shard 0's the committed rounds' wall
    /// times, as worker 0 stamps them in the in-process pool.
    pub telemetry_deltas: Vec<[u64; COUNTER_COUNT]>,
}

/// Runs one shard's slice of the synchronous round loop over socket
/// lanes: the same shard round loop as the in-process pool's workers
/// (delivery, wake-calendar stepping, `account_sends` and the verdict
/// rule), with `BATCH` frames for lanes. Every shard computes the verdict
/// locally from the identical `(routed, all_halted, fatal)` sums carried
/// on the frames.
///
/// `peers[d]` must be a connected stream for every `d != me` and `None`
/// at `me`. `telemetry`, when present, is a *local* registry: the engine
/// streams counters into it but never calls `finish_round` — committed
/// rounds are replayed into the leader's registry from the returned
/// deltas, which keeps straggler detection and the recorder a run-level
/// (not shard-level) judgement. Its clock times the shard's rounds.
///
/// # Errors
///
/// [`WireError`] when a peer connection fails mid-run (EOF, timeout, or
/// a malformed/out-of-sequence frame). Node panics are *not* errors at
/// this layer; they surface in [`ShardRunOutcome::panic`].
#[allow(clippy::too_many_arguments)]
pub fn run_shard_engine<P: Protocol>(
    graph: &Graph,
    map: &ShardMap,
    me: usize,
    cfg: &ShardEngineConfig,
    nodes: Vec<P>,
    peers: &mut [Option<WireStream>],
    telemetry: Option<&Arc<Telemetry>>,
) -> Result<ShardRunOutcome<P>, WireError> {
    let k = map.len();
    assert_eq!(
        nodes.len(),
        map.shards()[me].len(),
        "one node state per shard member"
    );
    assert_eq!(peers.len(), k, "one peer slot per shard");
    for (d, p) in peers.iter().enumerate() {
        if d != me && p.is_none() {
            return Err(WireError::Protocol(format!(
                "shard {me} has no stream for peer {d}"
            )));
        }
    }

    let reverse = ReversePorts::new(graph);
    let env = ShardEnv {
        graph,
        reverse: &reverse,
        map,
        budget_bits: cfg.budget_bits,
        cut: None,
        faults: None,
        skip_idle: cfg.skip_idle,
        strict: cfg.strict,
        tracing: false,
    };
    let inboxes = (0..nodes.len()).map(|_| Vec::new()).collect();
    let handle = telemetry.map(|t| TelemetryHandle::new(t.clone(), 0));
    let worker = ShardWorker::new(me, env, nodes, inboxes, handle, Vec::new());
    let mut lanes = SocketLanes {
        me,
        cfg: *cfg,
        peers,
        staged: (0..k).map(|_| Vec::new()).collect(),
        telemetry: telemetry.map(|t| (t.as_ref(), t.snapshot())),
        outcome: ShardRunOutcome {
            nodes: Vec::new(),
            metrics: NetMetrics::default(),
            committed: 0,
            verdict: VERDICT_CONTINUE,
            panic: None,
            first_error: None,
            telemetry_deltas: Vec::new(),
        },
    };
    let ((nodes, _, metrics), verdict) = worker.run(&mut lanes, 0)?;
    Ok(ShardRunOutcome {
        nodes,
        metrics,
        verdict,
        ..lanes.outcome
    })
}

/// A socket shard's [`Lanes`]: one `BATCH` frame to and from every peer
/// per round. Settling a round reads every peer's frame; the frames carry
/// each shard's flags, so every shard sums the same values and reaches
/// the same verdict.
struct SocketLanes<'p, P> {
    me: usize,
    cfg: ShardEngineConfig,
    peers: &'p mut [Option<WireStream>],
    /// `staged[s]`: the entries peer `s` sent in the round just settled.
    staged: Vec<LaneBatch>,
    /// The shard-local registry and its snapshot at the end of the last
    /// round, for the per-round deltas.
    telemetry: Option<(&'p Telemetry, TelemetrySnapshot)>,
    /// The per-round records, filled in as rounds settle.
    outcome: ShardRunOutcome<P>,
}

impl<P> Lanes for SocketLanes<'_, P> {
    type Error = WireError;

    fn send(
        &mut self,
        to: usize,
        batch: &mut LaneBatch,
        round: u64,
        reply: &WorkerReply,
    ) -> Result<(), WireError> {
        let frame = Batch {
            round,
            routed: reply.routed,
            all_halted: reply.all_halted,
            fatal: reply.fatal(),
            entries: std::mem::take(batch),
        };
        let stream = self.peers[to].as_mut().expect("checked at start");
        stream.write_frame(TAG_BATCH, &frame.encode())?;
        *batch = frame.entries;
        batch.clear();
        Ok(())
    }

    fn receive(&mut self, from: usize, deliver: impl FnMut(LaneEntry)) {
        self.staged[from].drain(..).for_each(deliver);
    }

    fn settle(&mut self, round: u64, reply: &mut WorkerReply) -> Result<u8, WireError> {
        let mut routed = reply.routed;
        let mut all_halted = reply.all_halted;
        let mut fatal = reply.fatal();
        for (src, peer) in self.peers.iter_mut().enumerate() {
            let Some(peer) = peer else { continue };
            let (tag, payload) = peer.read_frame()?;
            if tag == TAG_ERROR {
                let msg = String::from_utf8_lossy(&payload).into_owned();
                return Err(WireError::Peer(format!("shard {src}: {msg}")));
            }
            if tag != TAG_BATCH {
                return Err(WireError::Protocol(format!(
                    "expected BATCH from shard {src}, got tag {tag}"
                )));
            }
            let batch = Batch::decode(&payload)?;
            if batch.round != round {
                return Err(WireError::Protocol(format!(
                    "shard {src} sent a batch for round {} during round {round}",
                    batch.round
                )));
            }
            routed += batch.routed;
            all_halted &= batch.all_halted;
            fatal |= batch.fatal;
            self.staged[src] = batch.entries;
        }
        let verdict = round_verdict(fatal, routed == 0 && all_halted, round, self.cfg.max_rounds);
        let out = &mut self.outcome;
        if verdict == VERDICT_ABORT {
            // An aborted round commits nowhere; keep only the attribution.
            out.panic = reply.panic.take();
            out.first_error = reply.first_error.take();
        } else {
            out.committed += 1;
        }
        if let Some((t, prev)) = self.telemetry.as_mut() {
            if verdict != VERDICT_ABORT && self.me == 0 {
                t.stamp_round();
            }
            let now = t.snapshot();
            let mut delta = [0u64; COUNTER_COUNT];
            for (i, (c, _)) in COUNTERS.iter().enumerate() {
                delta[i] = now.get(*c).saturating_sub(prev.get(*c));
            }
            out.telemetry_deltas.push(delta);
            *prev = now;
        }
        Ok(verdict)
    }
}

// ---------------------------------------------------------------------------
// Lossy proxy
// ---------------------------------------------------------------------------

/// A fault-injecting relay for one shard's listener: accepts in place of
/// the shard, forwards every connection to the real backend, and replays
/// a [`FaultPlan`] against the *entries* of `BATCH` frames passing
/// through — real drops, duplications, bit-corruptions, and delays on a
/// real socket, driven by the same deterministic per-(edge, round)
/// decisions the in-process injector uses.
///
/// The frame itself is never dropped (it is the round barrier) and the
/// `routed`/`all_halted`/`fatal` flags pass through untouched, so the
/// lossy network stays synchronous at the transport level while the
/// protocol payloads suffer; the `Reliable` layer's retransmissions are
/// then exercised end to end. Crash windows in the plan are ignored —
/// killing a real process is the wire equivalent, tested separately.
///
/// Delayed entries are buffered and appended to the first later batch in
/// the same direction whose round reaches the due round (after that
/// batch's own entries, matching the in-process injector's
/// deliver-after-normal ordering).
pub struct LossyProxy {
    addr: String,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

struct ProxyShared {
    front_shard: usize,
    graph: Arc<Graph>,
    map: Arc<ShardMap>,
    plan: FaultPlan,
}

impl LossyProxy {
    /// Starts a proxy listening on `listen` (use port 0 / a fresh socket
    /// path) and relaying every connection to `backend` — the address the
    /// real shard `front_shard` of `map` listens on.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the listener cannot be bound.
    pub fn start(
        listen: &str,
        backend: String,
        front_shard: usize,
        graph: Arc<Graph>,
        map: Arc<ShardMap>,
        plan: FaultPlan,
    ) -> Result<LossyProxy, WireError> {
        let listener = WireListener::bind(listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ProxyShared {
            front_shard,
            graph,
            map,
            plan,
        });
        let stop2 = stop.clone();
        let accept_thread = thread::spawn(move || loop {
            if stop2.load(Ordering::Acquire) {
                return;
            }
            match listener.accept() {
                Ok(client) => {
                    // The listener is non-blocking, so the accepted fd
                    // inherited that; relays want blocking reads.
                    set_blocking(&client);
                    let shared = shared.clone();
                    let backend = backend.clone();
                    thread::spawn(move || {
                        let _ = proxy_connection(client, &backend, &shared);
                    });
                }
                Err(WireError::Io(_)) => thread::sleep(Duration::from_millis(10)),
                Err(_) => return,
            }
        });
        Ok(LossyProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's dialable address — hand this out in place of the
    /// backend shard's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for LossyProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn set_blocking(s: &WireStream) {
    match s {
        WireStream::Tcp(t) => {
            let _ = t.set_nonblocking(false);
        }
        #[cfg(unix)]
        WireStream::Unix(u) => {
            let _ = u.set_nonblocking(false);
        }
    }
}

/// Wires up both relay directions for one proxied connection and runs
/// the client→backend direction on this thread.
fn proxy_connection(
    client: WireStream,
    backend: &str,
    shared: &Arc<ProxyShared>,
) -> Result<(), WireError> {
    let server = WireStream::connect(backend)?;
    // The dialing peer's shard id, learned from the first HELLO that
    // passes toward the front shard; `u32::MAX` until known (the leader
    // connection never carries batches, so it simply never resolves).
    let peer_id = Arc::new(AtomicU32::new(u32::MAX));

    let c_read = client.try_clone()?;
    let c_write = client;
    let s_read = server.try_clone()?;
    let s_write = server;

    let shared2 = shared.clone();
    let peer2 = peer_id.clone();
    let back = thread::spawn(move || {
        // backend → client: batches here target the *dialing* peer.
        relay_direction(s_read, c_write, &shared2, RelayDest::Peer(peer2));
    });
    // client → backend: batches here target the front shard.
    relay_direction(c_read, s_write, shared, RelayDest::Front(peer_id));
    let _ = back.join();
    Ok(())
}

enum RelayDest {
    /// Toward the front shard; also records the dialer's id from HELLO.
    Front(Arc<AtomicU32>),
    /// Away from the front shard, toward the recorded dialer.
    Peer(Arc<AtomicU32>),
}

fn relay_direction(
    mut from: WireStream,
    mut to: WireStream,
    shared: &ProxyShared,
    dest: RelayDest,
) {
    // (due round, entry) buffer for fault-delayed entries.
    let mut delayed: Vec<(u64, (u32, u32, Message))> = Vec::new();
    loop {
        let (tag, payload) = match from.read_frame() {
            Ok(f) => f,
            Err(_) => {
                // EOF or error: propagate the close so the other end's
                // blocked read wakes immediately.
                from.shutdown();
                to.shutdown();
                return;
            }
        };
        let forward: Vec<u8> = match tag {
            TAG_HELLO => {
                if let (RelayDest::Front(slot), Ok(h)) = (&dest, Hello::decode(&payload)) {
                    if h.role == ROLE_SHARD {
                        slot.store(h.shard_id, Ordering::Release);
                    }
                }
                payload
            }
            TAG_BATCH => {
                let dest_shard = match &dest {
                    RelayDest::Front(_) => shared.front_shard as u32,
                    RelayDest::Peer(slot) => slot.load(Ordering::Acquire),
                };
                match Batch::decode(&payload) {
                    Ok(batch) if (dest_shard as usize) < shared.map.len() => {
                        mangle_batch(batch, dest_shard as usize, shared, &mut delayed).encode()
                    }
                    _ => payload, // unknown destination or undecodable: pass through
                }
            }
            _ => payload,
        };
        if to.write_frame(tag, &forward).is_err() {
            from.shutdown();
            to.shutdown();
            return;
        }
    }
}

/// Applies the fault plan to each entry of a batch headed for shard
/// `dest`, then appends any previously delayed entries now due.
fn mangle_batch(
    mut batch: Batch,
    dest: usize,
    shared: &ProxyShared,
    delayed: &mut Vec<(u64, (u32, u32, Message))>,
) -> Batch {
    let shard = &shared.map.shards()[dest];
    let mut kept: Vec<(u32, u32, Message)> = Vec::with_capacity(batch.entries.len());
    for (local, port, msg) in batch.entries.drain(..) {
        let Some(&target) = shard.get(local as usize) else {
            kept.push((local, port, msg));
            continue;
        };
        let neighbors = shared.graph.neighbors(target);
        let Some(&sender) = neighbors.get(port as usize) else {
            kept.push((local, port, msg));
            continue;
        };
        let d = shared.plan.decide(sender, target, batch.round);
        if d.drop {
            continue;
        }
        let m = match d.corrupt {
            Some(entropy) => corrupt_message(&msg, entropy),
            None => msg,
        };
        let copies = if d.duplicate { 2 } else { 1 };
        for _ in 0..copies {
            if d.delay > 0 {
                delayed.push((batch.round + d.delay, (local, port, m.clone())));
            } else {
                kept.push((local, port, m.clone()));
            }
        }
    }
    batch.entries = kept;
    let round = batch.round;
    let mut i = 0;
    while i < delayed.len() {
        if delayed[i].0 <= round {
            let (_, entry) = delayed.swap_remove(i);
            batch.entries.push(entry);
        } else {
            i += 1;
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_numeric::bits::BitWriter;

    fn msg(bits: &[(u64, u32)]) -> Message {
        let mut w = BitWriter::new();
        for &(v, width) in bits {
            w.push(v, width);
        }
        Message::new(w.finish())
    }

    #[test]
    fn message_codec_round_trips() {
        for m in [
            msg(&[]),
            msg(&[(1, 1)]),
            msg(&[(0xdead_beef, 32), (0x1234, 16)]),
            msg(&[(u64::MAX, 64), (0b101, 3), (u64::MAX >> 1, 63)]),
        ] {
            let mut buf = Vec::new();
            put_message(&mut buf, &m);
            let mut r = ByteReader::new(&buf);
            let back = get_message(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn hello_codec_round_trips_and_validates() {
        let h = Hello {
            role: ROLE_SHARD,
            shard_id: 3,
            shards: 4,
            graph_hash: 0x1122_3344_5566_7788,
            config_hash: 0x99aa_bbcc_ddee_ff00,
        };
        let enc = h.encode();
        assert_eq!(Hello::decode(&enc).unwrap(), h);
        let mut bad = enc.clone();
        bad[0] ^= 1; // magic
        assert!(matches!(Hello::decode(&bad), Err(WireError::Protocol(_))));
        let mut bad = enc.clone();
        bad[8] ^= 1; // version
        assert!(matches!(Hello::decode(&bad), Err(WireError::Protocol(_))));
        assert!(Hello::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn batch_codec_round_trips() {
        let b = Batch {
            round: 41,
            routed: 7,
            all_halted: true,
            fatal: false,
            entries: vec![
                (0, 2, msg(&[(5, 8)])),
                (3, 0, msg(&[])),
                (1, 1, msg(&[(u64::MAX, 64), (1, 1)])),
            ],
        };
        assert_eq!(Batch::decode(&b.encode()).unwrap(), b);
        let empty = Batch {
            round: 0,
            routed: 0,
            all_halted: false,
            fatal: true,
            entries: Vec::new(),
        };
        assert_eq!(Batch::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn frames_round_trip_over_a_socket() {
        let listener = WireListener::bind("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let (tag, payload) = s.read_frame().unwrap();
            s.write_frame(tag, &payload).unwrap();
        });
        let mut c = WireStream::connect(&addr).unwrap();
        c.write_frame(TAG_ERROR, b"boom").unwrap();
        let (tag, payload) = c.read_frame().unwrap();
        assert_eq!((tag, payload.as_slice()), (TAG_ERROR, b"boom".as_slice()));
        t.join().unwrap();
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let listener = WireListener::bind("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            s.read_frame()
        });
        let mut c = WireStream::connect(&addr).unwrap();
        let mut raw = vec![TAG_BATCH];
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        c.write_all(&raw).unwrap();
        assert!(matches!(t.join().unwrap(), Err(WireError::Protocol(_))));
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for the standard FNV-1a 64-bit parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[cfg(unix)]
    #[test]
    fn dropping_a_unix_listener_removes_its_socket_file() {
        let path = std::env::temp_dir().join(format!("bc-wire-drop-{}.sock", std::process::id()));
        let listener = WireListener::bind(&format!("unix:{}", path.display())).unwrap();
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn address_parsing_rejects_unknown_schemes() {
        assert!(WireListener::bind("http:127.0.0.1:0").is_err());
        assert!(WireStream::connect("127.0.0.1:1").is_err());
    }
}
