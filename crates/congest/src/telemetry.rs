//! Always-on run telemetry: a lock-free registry of typed counters and
//! log-bucketed histograms, a per-round recorder, and crash postmortems.
//!
//! Every engine (the shard round loop, in process or on socket shards,
//! and the α-synchronizer), the reliable transport, and the fault injector
//! can share one [`Telemetry`] registry through an `Arc`. Writers never
//! lock: counters and histogram buckets are per-shard relaxed atomics (one
//! shard per round-loop worker, so shard 0 alone for a one-shard run;
//! shard 0 for the synchronizer; `node % shards` for transport ports), aggregated only when a reader
//! calls [`Telemetry::snapshot`]. The engines batch their updates to *one*
//! [`TelemetryHandle::on_round`] call per worker per round — deltas are
//! computed against the metrics the engines already maintain — so
//! steady-state overhead is a handful of relaxed atomic adds per round,
//! cheap enough to leave on by default.
//!
//! Telemetry is observationally free: attaching it changes no
//! protocol-visible output (results, rounds, metrics, traces) on any
//! engine. `tests/telemetry.rs` asserts this bit for bit, including faulty
//! + reliable runs.
//!
//! The recorder ([`Telemetry::finish_round`]) turns each committed round
//! into a [`RoundRecord`] of counter deltas. Normally it keeps the last
//! [`Telemetry::ring_capacity`] of them in a ring (the flight recorder).
//! On `NodePanic`, `RoundLimit`, or abort the CLI dumps the ring plus a
//! full counter snapshot as `postmortem.json`
//! ([`Telemetry::postmortem_json`] / [`Postmortem::parse`]); the watch
//! thread persists the same snapshot periodically so even a `SIGKILL`/
//! Ctrl-C leaves the last few seconds of evidence on disk.
//!
//! The registry's one clock switch ([`Telemetry::set_clock`]) turns it
//! into the profiler as well. With the clock on, the engines time their
//! rounds into four more counters (round, busy, compute and route
//! nanoseconds; every `Instant::now` of the per-round path is behind the
//! switch), and the recorder keeps every round from then on, with each
//! shard's busy and route times, as the round log
//! ([`Telemetry::round_log`]) that [`crate::ProfileReport::from_rounds`]
//! reads. With the clock off the per-round path reads no clock and the
//! recorder stays a bounded ring.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json;
use crate::metrics::NetMetrics;

/// Version stamped into every JSON artifact this workspace emits
/// (`BENCH_*.json`, profile reports, trace-stats, Perfetto traces,
/// postmortems). Consumers such as `bench_guard` reject other versions
/// instead of silently comparing mismatched shapes.
pub const SCHEMA_VERSION: u32 = 1;

/// A round is flagged as a straggler/anomaly when a per-round quantity
/// exceeds `STRAGGLER_FACTOR ×` its robust baseline (the median).
pub const STRAGGLER_FACTOR: u64 = 4;

/// The one straggler detector: the robust baseline (median) of a sample
/// of per-round or per-worker quantities, against which a value is
/// flagged when it exceeds median × [`STRAGGLER_FACTOR`] and reaches an
/// absolute floor (so noise on tiny rounds is never flagged). The live
/// flight-recorder check, the profile's worker-busy and inbox-depth
/// checks and the trace statistics all judge through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerBaseline {
    /// The sample's median.
    pub median: u64,
    floor: u64,
}

impl StragglerBaseline {
    /// The baseline of `sample` (sorted in place), or `None` when the
    /// sample holds fewer than `min_len` values or its median is zero —
    /// too little data, or nothing to compare against.
    pub fn of(sample: &mut [u64], min_len: usize, floor: u64) -> Option<Self> {
        if sample.is_empty() || sample.len() < min_len {
            return None;
        }
        sample.sort_unstable();
        let median = sample[sample.len() / 2];
        (median > 0).then_some(StragglerBaseline { median, floor })
    }

    /// Whether `value` is a straggler against this baseline.
    pub fn flags(&self, value: u64) -> bool {
        value >= self.floor && value > self.median.saturating_mul(STRAGGLER_FACTOR)
    }
}

/// Number of log₂ buckets per histogram (bucket `i` holds values whose
/// bit length is `i`; bucket 0 holds the value 0).
const HIST_BUCKETS: usize = 65;

/// Typed counters of the registry. Labels are stable snake_case strings
/// used in snapshots and postmortems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Rounds (or synchronizer pulses) committed.
    Rounds,
    /// Messages accepted for delivery.
    Messages,
    /// Total payload bits of those messages.
    MessageBits,
    /// Messages routed inside one pool shard.
    IntraShardMessages,
    /// Messages routed across the worker lane mesh.
    CrossShardMessages,
    /// Node `round()` invocations (idle-skipped nodes excluded).
    NodesStepped,
    /// Messages delivered into inboxes.
    InboxMessages,
    /// Fault injector: messages dropped.
    FaultsDropped,
    /// Fault injector: messages bit-corrupted.
    FaultsCorrupted,
    /// Fault injector: messages duplicated.
    FaultsDuplicated,
    /// Fault injector: messages delayed.
    FaultsDelayed,
    /// Reliable transport: data frames sent (first transmission).
    FramesSent,
    /// Reliable transport: retransmitted frames.
    Retransmits,
    /// Reliable transport: pure-ack frames.
    AckOnlyFrames,
    /// Reliable transport: duplicate frames discarded.
    FramesDeduped,
    /// Reliable transport: frames dropped on checksum mismatch.
    ChecksumDrops,
    /// α-synchronizer: control (safe/ack) messages.
    ControlMessages,
    /// Rounds flagged as stragglers/anomalies by the flight recorder.
    StragglerRounds,
    /// Query server: individual queries answered.
    QueriesServed,
    /// Query server: query batches (frames) processed.
    QueryBatches,
    /// Query server: snapshot versions published (epoch swaps).
    SnapshotSwaps,
    /// Query server: per-source contribution vectors replayed from the
    /// LRU cache during an incremental recompute.
    SourceCacheHits,
    /// Query server: per-source contribution vectors recomputed (cache
    /// miss or source affected by the mutation).
    SourceCacheMisses,
    /// Query server: malformed frames / handshakes from clients (each one
    /// answered with an `ERROR` frame and a dropped connection).
    MalformedFrames,
    /// Total per-node protocol-state bytes at the end of a run (recorded
    /// once per run by the driver/leader, not per round).
    StateBytes,
    /// Clock on: wall time of committed rounds (ns), stamped by whichever
    /// thread commits them ([`Telemetry::stamp_round`]).
    RoundNs,
    /// Clock on: time pool workers and socket shards spent inside their
    /// rounds (ns).
    BusyNs,
    /// Clock on: time inside `Protocol::round` calls (ns).
    ComputeNs,
    /// Clock on: time delivering, routing and publishing messages (ns).
    RouteNs,
}

/// All counters, in label order. Keep in sync with [`Counter`].
pub const COUNTERS: [(Counter, &str); 29] = [
    (Counter::Rounds, "rounds"),
    (Counter::Messages, "messages"),
    (Counter::MessageBits, "message_bits"),
    (Counter::IntraShardMessages, "intra_shard_messages"),
    (Counter::CrossShardMessages, "cross_shard_messages"),
    (Counter::NodesStepped, "nodes_stepped"),
    (Counter::InboxMessages, "inbox_messages"),
    (Counter::FaultsDropped, "faults_dropped"),
    (Counter::FaultsCorrupted, "faults_corrupted"),
    (Counter::FaultsDuplicated, "faults_duplicated"),
    (Counter::FaultsDelayed, "faults_delayed"),
    (Counter::FramesSent, "frames_sent"),
    (Counter::Retransmits, "retransmits"),
    (Counter::AckOnlyFrames, "ack_only_frames"),
    (Counter::FramesDeduped, "frames_deduped"),
    (Counter::ChecksumDrops, "checksum_drops"),
    (Counter::ControlMessages, "control_messages"),
    (Counter::StragglerRounds, "straggler_rounds"),
    (Counter::QueriesServed, "queries_served"),
    (Counter::QueryBatches, "query_batches"),
    (Counter::SnapshotSwaps, "snapshot_swaps"),
    (Counter::SourceCacheHits, "source_cache_hits"),
    (Counter::SourceCacheMisses, "source_cache_misses"),
    (Counter::MalformedFrames, "malformed_frames"),
    (Counter::StateBytes, "state_bytes"),
    (Counter::RoundNs, "round_ns"),
    (Counter::BusyNs, "busy_ns"),
    (Counter::ComputeNs, "compute_ns"),
    (Counter::RouteNs, "route_ns"),
];

const NUM_COUNTERS: usize = COUNTERS.len();

/// Typed histograms of the registry (log₂-bucketed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Messages delivered into inboxes per round.
    InboxDepth,
    /// Messages staged per round.
    RoundMessages,
    /// Queries per client batch frame (query server).
    QueryBatchSize,
}

const HISTOGRAMS: [(HistogramId, &str); 3] = [
    (HistogramId::InboxDepth, "inbox_depth"),
    (HistogramId::RoundMessages, "round_messages"),
    (HistogramId::QueryBatchSize, "query_batch_size"),
];

const NUM_HISTOGRAMS: usize = HISTOGRAMS.len();

/// One writer shard: counters plus histogram buckets, all relaxed
/// atomics. Each pool worker owns one shard index, so concurrent writers
/// touch disjoint cache lines in the common case.
struct Shard {
    counters: Vec<AtomicU64>,
    hist: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: (0..NUM_COUNTERS).map(|_| AtomicU64::new(0)).collect(),
            hist: (0..NUM_HISTOGRAMS * HIST_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

/// One shard's tallies of one round, the argument of
/// [`TelemetryHandle::on_round`]: one worker's of the shard round loop
/// (in process or a socket shard) or the synchronizer's. The timings are
/// 0 unless the clock is on. A one-shard run reports no busy or route
/// time and no intra/cross split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfRow {
    /// Wall time the shard spent inside the round (ns; runs of two or more
    /// shards only).
    pub busy_ns: u64,
    /// Time inside `Protocol::round` calls (ns).
    pub compute_ns: u64,
    /// Time delivering, routing and publishing messages (ns).
    pub route_ns: u64,
    /// Messages delivered to the shard's nodes this round.
    pub inbox_messages: u64,
    /// Nodes actually stepped (idle-skipped nodes excluded).
    pub nodes_stepped: u64,
    /// Messages routed shard-locally.
    pub intra: u64,
    /// Messages routed to peer shards.
    pub cross: u64,
}

/// One committed round as the recorder saw it: counter deltas, and, with
/// the clock on, the profile's view of the round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round (or synchronizer pulse) number.
    pub round: u64,
    /// Messages staged in this round.
    pub messages: u64,
    /// Payload bits staged in this round.
    pub bits: u64,
    /// Nodes stepped in this round.
    pub nodes_stepped: u64,
    /// Transport retransmissions during this round.
    pub retransmits: u64,
    /// Faults injected (dropped + corrupted + duplicated + delayed).
    pub faults: u64,
    /// True when the round's message load exceeded the robust baseline
    /// (median × [`STRAGGLER_FACTOR`]) over the recorder window.
    pub straggler: bool,
    /// Clock on: messages delivered into this round's inboxes.
    pub inbox_messages: u64,
    /// Clock on: messages routed within the sending shard.
    pub intra_shard_messages: u64,
    /// Clock on: messages routed to another shard.
    pub cross_shard_messages: u64,
    /// Clock on: wall time of the round (ns).
    pub total_ns: u64,
    /// Clock on: time inside `Protocol::round` calls (ns).
    pub compute_ns: u64,
    /// Clock on: busy time of each shard that reported one this round, in
    /// shard order (empty for one-shard runs and the synchronizer).
    pub worker_busy_ns: Vec<u64>,
    /// Clock on: routing time of the same shards (a subset of their busy
    /// time).
    pub worker_route_ns: Vec<u64>,
}

/// Recorder state behind one per-round mutex acquisition.
struct Recorder {
    last: [u64; NUM_COUNTERS],
    /// Each shard's cumulative `[busy, route]` ns at the last commit
    /// (clock on only).
    last_worker: Vec<[u64; 2]>,
    records: VecDeque<RoundRecord>,
    capacity: usize,
    /// Rounds committed since the clock was switched on (all kept).
    logged: usize,
}

/// Aggregated point-in-time view of every counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    values: [u64; NUM_COUNTERS],
}

impl TelemetrySnapshot {
    /// The aggregated value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Iterates `(label, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS
            .iter()
            .map(move |&(c, label)| (label, self.values[c as usize]))
    }
}

/// The shared telemetry registry. Cheap to clone behind an `Arc`; all
/// write paths are lock-free (the flight-recorder ring takes its mutex
/// once per round, never per message).
pub struct Telemetry {
    shards: Vec<Shard>,
    /// Highest round committed so far plus one (a live progress gauge).
    round_gauge: AtomicU64,
    /// The run's phase starts `[counting, reduce, broadcast, agg]`;
    /// `u64::MAX` while unset.
    schedule: [AtomicU64; 4],
    recorder: Mutex<Recorder>,
    /// The clock switch ([`Telemetry::set_clock`]).
    clock: AtomicBool,
    /// Origin of `tick_ns`.
    epoch: Instant,
    /// When the last round was stamped, in ns since `epoch`.
    tick_ns: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("shards", &self.shards.len())
            .field("round", &self.round())
            .finish()
    }
}

impl Telemetry {
    /// Creates a registry with `shards` writer shards (≥ 1) and a flight
    /// recorder retaining the last `ring` rounds (≥ 1).
    pub fn new(shards: usize, ring: usize) -> Self {
        let shards = shards.max(1);
        Telemetry {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            round_gauge: AtomicU64::new(0),
            schedule: [const { AtomicU64::new(u64::MAX) }; 4],
            recorder: Mutex::new(Recorder {
                last: [0; NUM_COUNTERS],
                last_worker: vec![[0; 2]; shards],
                records: VecDeque::new(),
                capacity: ring.max(1),
                logged: 0,
            }),
            clock: AtomicBool::new(false),
            epoch: Instant::now(),
            tick_ns: AtomicU64::new(0),
        }
    }

    /// The clock switch. On: the engines time their rounds into
    /// [`Counter::RoundNs`], [`Counter::BusyNs`], [`Counter::ComputeNs`]
    /// and [`Counter::RouteNs`], and the recorder keeps every round
    /// committed from now on ([`Telemetry::round_log`]). Off (the
    /// default): no clock is read per round and the recorder keeps the
    /// last [`Telemetry::ring_capacity`] rounds.
    pub fn set_clock(&self, on: bool) {
        let Ok(mut rec) = self.recorder.lock() else {
            return;
        };
        if on {
            rec.last_worker = self.worker_clocks();
            self.tick_ns.store(self.elapsed_ns(), Ordering::Relaxed);
        } else {
            let excess = rec.records.len().saturating_sub(rec.capacity);
            rec.records.drain(..excess);
        }
        rec.logged = 0;
        self.clock.store(on, Ordering::Relaxed);
    }

    /// Whether the clock is on.
    #[inline]
    pub fn clocked(&self) -> bool {
        self.clock.load(Ordering::Relaxed)
    }

    fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Each shard's cumulative `[busy, route]` ns.
    fn worker_clocks(&self) -> Vec<[u64; 2]> {
        let load = |s: &Shard, c: Counter| s.counters[c as usize].load(Ordering::Relaxed);
        self.shards
            .iter()
            .map(|s| [load(s, Counter::BusyNs), load(s, Counter::RouteNs)])
            .collect()
    }

    /// Clock on: adds the wall time since the last stamp (or since the
    /// clock was switched on) to [`Counter::RoundNs`]. Called by whichever
    /// thread commits a round; a no-op with the clock off.
    pub fn stamp_round(&self) {
        if self.clocked() {
            let now = self.elapsed_ns();
            let last = self.tick_ns.swap(now, Ordering::Relaxed);
            self.add(0, Counter::RoundNs, now.saturating_sub(last));
        }
    }

    /// Commits a round the calling thread coordinated:
    /// [`Telemetry::stamp_round`], then [`Telemetry::finish_round`].
    pub fn commit_round(&self, round: u64) {
        self.stamp_round();
        self.finish_round(round);
    }

    /// Number of writer shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Flight-recorder window size in rounds.
    pub fn ring_capacity(&self) -> usize {
        self.recorder.lock().map_or(0, |r| r.capacity)
    }

    /// Adds `n` to a counter on `shard` (wrapped modulo the shard count).
    #[inline]
    pub fn add(&self, shard: usize, c: Counter, n: u64) {
        if n > 0 {
            self.shards[shard % self.shards.len()].counters[c as usize]
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `value` into a log₂-bucketed histogram on `shard`.
    #[inline]
    pub fn record(&self, shard: usize, h: HistogramId, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.shards[shard % self.shards.len()].hist[h as usize * HIST_BUCKETS + bucket]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The live round gauge: highest committed round + 1.
    pub fn round(&self) -> u64 {
        self.round_gauge.load(Ordering::Relaxed)
    }

    /// Publishes the run's phase windows so live consumers can label the
    /// current phase.
    pub fn set_schedule(
        &self,
        counting_start: u64,
        reduce_start: u64,
        broadcast_start: u64,
        agg_start: u64,
    ) {
        for (slot, v) in
            self.schedule
                .iter()
                .zip([counting_start, reduce_start, broadcast_start, agg_start])
        {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// The phase label for `round` under the published schedule, or `"-"`
    /// when none was published.
    pub fn phase_label(&self, round: u64) -> &'static str {
        let bounds = self.schedule.each_ref().map(|s| s.load(Ordering::Relaxed));
        if bounds[0] == u64::MAX {
            return "-";
        }
        match round {
            r if r < bounds[0] => "A:tree",
            r if r < bounds[1] => "B:counting",
            r if r < bounds[2] => "C1:reduce",
            r if r < bounds[3] => "C2:bcast",
            _ => "D:aggregation",
        }
    }

    /// Aggregates every shard into one snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for shard in &self.shards {
            for (i, v) in values.iter_mut().enumerate() {
                *v += shard.counters[i].load(Ordering::Relaxed);
            }
        }
        TelemetrySnapshot { values }
    }

    /// Aggregated buckets of one histogram (index = bit length of the
    /// recorded value).
    pub fn histogram(&self, h: HistogramId) -> Vec<u64> {
        let mut out = vec![0u64; HIST_BUCKETS];
        for shard in &self.shards {
            for (i, v) in out.iter_mut().enumerate() {
                *v += shard.hist[h as usize * HIST_BUCKETS + i].load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Commits one round into the recorder: snapshots the counters,
    /// derives the round's deltas, runs the live straggler check (message
    /// load vs median × k over the last [`Telemetry::ring_capacity`]
    /// rounds), and advances the round gauge. Called exactly once per
    /// committed round by whichever thread coordinates the round: worker
    /// 0 of the shard round loop, the synchronizer's pulse loop
    /// (all through [`Telemetry::commit_round`]), or the socket leader
    /// replaying its shards' deltas.
    pub fn finish_round(&self, round: u64) {
        self.add(0, Counter::Rounds, 1);
        let snap = self.snapshot();
        let Ok(mut rec) = self.recorder.lock() else {
            return;
        };
        let delta = |c: Counter| snap.values[c as usize].saturating_sub(rec.last[c as usize]);
        let messages = delta(Counter::Messages);
        let faults = delta(Counter::FaultsDropped)
            + delta(Counter::FaultsCorrupted)
            + delta(Counter::FaultsDuplicated)
            + delta(Counter::FaultsDelayed);
        // Robust baseline over the recorder window: the recent per-round
        // message loads.
        let mut loads: Vec<u64> = rec
            .records
            .iter()
            .rev()
            .take(rec.capacity)
            .map(|r| r.messages)
            .collect();
        let straggler = StragglerBaseline::of(&mut loads, 8, 0).is_some_and(|b| b.flags(messages));
        let mut record = RoundRecord {
            round,
            messages,
            bits: delta(Counter::MessageBits),
            nodes_stepped: delta(Counter::NodesStepped),
            retransmits: delta(Counter::Retransmits),
            faults,
            straggler,
            ..RoundRecord::default()
        };
        if self.clocked() {
            record.inbox_messages = delta(Counter::InboxMessages);
            record.intra_shard_messages = delta(Counter::IntraShardMessages);
            record.cross_shard_messages = delta(Counter::CrossShardMessages);
            record.total_ns = delta(Counter::RoundNs);
            record.compute_ns = delta(Counter::ComputeNs);
            let now = self.worker_clocks();
            for (at, last) in now.iter().zip(&rec.last_worker) {
                record.worker_busy_ns.push(at[0].saturating_sub(last[0]));
                record.worker_route_ns.push(at[1].saturating_sub(last[1]));
            }
            // Only the shards that worked this round are workers.
            let workers = record
                .worker_busy_ns
                .iter()
                .rposition(|&b| b > 0)
                .map_or(0, |w| w + 1);
            record.worker_busy_ns.truncate(workers);
            record.worker_route_ns.truncate(workers);
            rec.last_worker = now;
            rec.logged += 1;
        } else if rec.records.len() == rec.capacity {
            rec.records.pop_front();
        }
        rec.last = snap.values;
        rec.records.push_back(record);
        drop(rec);
        if straggler {
            self.add(0, Counter::StragglerRounds, 1);
            // The counter moved; keep the recorder's cumulative view in
            // step so the next delta does not misattribute it.
            if let Ok(mut rec) = self.recorder.lock() {
                rec.last[Counter::StragglerRounds as usize] += 1;
            }
        }
        self.round_gauge.store(round + 1, Ordering::Relaxed);
    }

    /// The flight recorder's window: the last
    /// [`Telemetry::ring_capacity`] rounds, oldest first.
    pub fn recent_rounds(&self) -> Vec<RoundRecord> {
        self.recorder.lock().map_or(Vec::new(), |r| {
            let skip = r.records.len().saturating_sub(r.capacity);
            r.records.iter().skip(skip).cloned().collect()
        })
    }

    /// Every round committed since the clock was switched on, oldest
    /// first; empty with the clock off.
    pub fn round_log(&self) -> Vec<RoundRecord> {
        self.recorder.lock().map_or(Vec::new(), |r| {
            r.records
                .range(r.records.len() - r.logged..)
                .cloned()
                .collect()
        })
    }

    /// Renders the full postmortem JSON document: reason, round gauge,
    /// aggregated counters, histograms, and the flight-recorder ring.
    pub fn postmortem_json(&self, reason: &str) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(1 << 12);
        let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},\"reason\":");
        json::write_str(&mut out, reason);
        let _ = write!(out, ",\"round\":{}", self.round());
        out.push_str(",\"counters\":{");
        json::join(&mut out, snap.iter(), |out, (label, value)| {
            write!(out, "\"{label}\":{value}")
        });
        out.push_str("},\"histograms\":{");
        json::join(&mut out, HISTOGRAMS, |out, (h, label)| {
            write!(out, "\"{label}\":[")?;
            json::join(out, self.histogram(h), |out, bucket| {
                write!(out, "{bucket}")
            });
            out.write_char(']')
        });
        out.push_str("},\"recent_rounds\":[");
        json::join(&mut out, self.recent_rounds(), |out, r| {
            write!(
                out,
                "{{\"round\":{},\"messages\":{},\"bits\":{},\"nodes_stepped\":{},\
                 \"retransmits\":{},\"faults\":{},\"straggler\":{}}}",
                r.round, r.messages, r.bits, r.nodes_stepped, r.retransmits, r.faults, r.straggler
            )
        });
        out.push_str("]}");
        out
    }
}

/// Per-engine-site writer handle: remembers the cumulative metric values
/// it last reported so each round contributes exactly its delta, however
/// many workers share the registry.
#[derive(Debug)]
pub struct TelemetryHandle {
    tel: std::sync::Arc<Telemetry>,
    shard: usize,
    last_messages: u64,
    last_bits: u64,
    last_faults: [u64; 4],
}

impl TelemetryHandle {
    /// Creates a handle writing into `shard` of `tel`.
    pub fn new(tel: std::sync::Arc<Telemetry>, shard: usize) -> Self {
        TelemetryHandle {
            tel,
            shard,
            last_messages: 0,
            last_bits: 0,
            last_faults: [0; 4],
        }
    }

    /// The shared registry behind this handle.
    pub fn registry(&self) -> &std::sync::Arc<Telemetry> {
        &self.tel
    }

    /// Reports one round of this writer's activity: message/bit/fault
    /// deltas are derived from the cumulative `metrics` the engine
    /// already maintains; the round's tallies and timings come in `row`.
    pub fn on_round(&mut self, metrics: &NetMetrics, row: &ProfRow) {
        let t = &self.tel;
        let s = self.shard;
        let messages = metrics.total_messages.saturating_sub(self.last_messages);
        let bits = metrics.total_bits.saturating_sub(self.last_bits);
        self.last_messages = metrics.total_messages;
        self.last_bits = metrics.total_bits;
        t.add(s, Counter::Messages, messages);
        t.add(s, Counter::MessageBits, bits);
        t.add(s, Counter::NodesStepped, row.nodes_stepped);
        t.add(s, Counter::InboxMessages, row.inbox_messages);
        t.add(s, Counter::IntraShardMessages, row.intra);
        t.add(s, Counter::CrossShardMessages, row.cross);
        t.add(s, Counter::BusyNs, row.busy_ns);
        t.add(s, Counter::ComputeNs, row.compute_ns);
        t.add(s, Counter::RouteNs, row.route_ns);
        let faults = [
            metrics.faults_dropped,
            metrics.faults_corrupted,
            metrics.faults_duplicated,
            metrics.faults_delayed,
        ];
        for (i, (&now, c)) in faults
            .iter()
            .zip([
                Counter::FaultsDropped,
                Counter::FaultsCorrupted,
                Counter::FaultsDuplicated,
                Counter::FaultsDelayed,
            ])
            .enumerate()
        {
            t.add(s, c, now.saturating_sub(self.last_faults[i]));
            self.last_faults[i] = now;
        }
        t.record(s, HistogramId::InboxDepth, row.inbox_messages);
        t.record(s, HistogramId::RoundMessages, messages);
    }
}

/// A parsed postmortem document (the subset round-trip tests and CI
/// validation care about; histograms are carried but not re-validated).
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Artifact schema version.
    pub schema_version: u64,
    /// Why the dump happened (error display or `"in_progress"`).
    pub reason: String,
    /// Round gauge at dump time.
    pub round: u64,
    /// Aggregated `(label, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// The flight-recorder window, oldest first.
    pub recent_rounds: Vec<RoundRecord>,
}

impl Postmortem {
    /// Parses a postmortem document produced by
    /// [`Telemetry::postmortem_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem, including
    /// an unsupported `schema_version`.
    pub fn parse(text: &str) -> Result<Postmortem, String> {
        let value = json::parse(text)?;
        let obj = value.as_object()?;
        let schema_version = obj.u64("schema_version")?;
        if schema_version != SCHEMA_VERSION as u64 {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let counters = obj
            .get("counters")?
            .as_object()?
            .fields
            .iter()
            .map(|(k, v)| Ok((k.to_string(), v.as_u64()?)))
            .collect::<Result<Vec<_>, String>>()?;
        let recent_rounds = obj
            .get("recent_rounds")?
            .as_array()?
            .iter()
            .map(|v| {
                let r = v.as_object()?;
                Ok(RoundRecord {
                    round: r.u64("round")?,
                    messages: r.u64("messages")?,
                    bits: r.u64("bits")?,
                    nodes_stepped: r.u64("nodes_stepped")?,
                    retransmits: r.u64("retransmits")?,
                    faults: r.u64("faults")?,
                    straggler: r.get("straggler")?.as_bool()?,
                    ..RoundRecord::default()
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Postmortem {
            schema_version,
            reason: obj.str("reason")?.to_string(),
            round: obj.u64("round")?,
            counters,
            recent_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_aggregate_across_shards() {
        let t = Telemetry::new(4, 16);
        for shard in 0..4 {
            t.add(shard, Counter::Messages, shard as u64 + 1);
        }
        t.add(7, Counter::Messages, 10); // wraps modulo shard count
        assert_eq!(t.snapshot().get(Counter::Messages), 1 + 2 + 3 + 4 + 10);
        assert_eq!(t.snapshot().get(Counter::Retransmits), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let t = Telemetry::new(1, 4);
        for v in [0u64, 1, 2, 3, 4, 1024] {
            t.record(0, HistogramId::InboxDepth, v);
        }
        let h = t.histogram(HistogramId::InboxDepth);
        assert_eq!(h[0], 1); // value 0
        assert_eq!(h[1], 1); // value 1
        assert_eq!(h[2], 2); // values 2, 3
        assert_eq!(h[3], 1); // value 4
        assert_eq!(h[11], 1); // value 1024
        assert_eq!(h.iter().sum::<u64>(), 6);
    }

    #[test]
    fn flight_recorder_keeps_last_k_rounds_with_deltas() {
        let t = Telemetry::new(1, 3);
        for round in 0..10u64 {
            t.add(0, Counter::Messages, round + 1);
            t.finish_round(round);
        }
        let rounds = t.recent_rounds();
        assert_eq!(rounds.len(), 3);
        assert_eq!(
            rounds.iter().map(|r| r.round).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        // Deltas, not cumulative values.
        assert_eq!(
            rounds.iter().map(|r| r.messages).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        assert_eq!(t.round(), 10);
    }

    #[test]
    fn straggler_flagged_on_load_spike() {
        let t = Telemetry::new(1, 64);
        for round in 0..20u64 {
            t.add(0, Counter::Messages, 10);
            t.finish_round(round);
        }
        assert_eq!(t.snapshot().get(Counter::StragglerRounds), 0);
        t.add(0, Counter::Messages, 1000);
        t.finish_round(20);
        assert_eq!(t.snapshot().get(Counter::StragglerRounds), 1);
        assert!(t.recent_rounds().last().unwrap().straggler);
        // A straggler round does not poison the next delta.
        t.add(0, Counter::Messages, 10);
        t.finish_round(21);
        assert_eq!(t.recent_rounds().last().unwrap().messages, 10);
    }

    #[test]
    fn postmortem_roundtrips_through_parse() {
        let t = Arc::new(Telemetry::new(2, 4));
        let mut h = TelemetryHandle::new(t.clone(), 0);
        let mut metrics = NetMetrics::default();
        for round in 0..9u64 {
            metrics.total_messages += 5 + round;
            metrics.total_bits += 160;
            let row = ProfRow {
                nodes_stepped: 4,
                inbox_messages: 3,
                intra: 2,
                cross: 1,
                ..ProfRow::default()
            };
            h.on_round(&metrics, &row);
            t.finish_round(round);
        }
        let text = t.postmortem_json("it broke: \"node 3\"\npanicked");
        let pm = Postmortem::parse(&text).expect("postmortem parses");
        assert_eq!(pm.schema_version, SCHEMA_VERSION as u64);
        assert_eq!(pm.reason, "it broke: \"node 3\"\npanicked");
        assert_eq!(pm.round, 9);
        assert_eq!(pm.recent_rounds.len(), 4);
        assert_eq!(
            pm.recent_rounds.iter().map(|r| r.round).collect::<Vec<_>>(),
            vec![5, 6, 7, 8]
        );
        assert_eq!(pm.recent_rounds, t.recent_rounds());
        let msgs = pm
            .counters
            .iter()
            .find(|(k, _)| k == "messages")
            .map(|(_, v)| *v);
        assert_eq!(msgs, Some(t.snapshot().get(Counter::Messages)));
    }

    #[test]
    fn postmortem_rejects_unknown_schema_version() {
        let t = Telemetry::new(1, 2);
        let text = t
            .postmortem_json("x")
            .replace("\"schema_version\":1", "\"schema_version\":999");
        let err = Postmortem::parse(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn clock_logs_every_round_with_per_shard_times() {
        let t = Arc::new(Telemetry::new(3, 2));
        let mut handles: Vec<_> = (0..3).map(|s| TelemetryHandle::new(t.clone(), s)).collect();
        let metrics = NetMetrics::default();
        let round = |handles: &mut [TelemetryHandle], r: u64| {
            // Shards 0 and 1 work; shard 2 is a spare.
            for (s, h) in handles.iter_mut().enumerate().take(2) {
                let row = ProfRow {
                    busy_ns: 10 * (s as u64 + 1) + r,
                    route_ns: s as u64 + 1,
                    compute_ns: 5,
                    inbox_messages: 2,
                    ..ProfRow::default()
                };
                h.on_round(&metrics, &row);
            }
            t.commit_round(r);
        };
        // Clock off: a bounded ring, no timings, no log.
        for r in 0..4 {
            round(&mut handles, r);
        }
        assert!(!t.clocked());
        assert!(t.round_log().is_empty());
        assert_eq!(t.recent_rounds().len(), 2);
        assert!(t.recent_rounds().iter().all(|r| r.total_ns == 0));
        assert_eq!(t.snapshot().get(Counter::RoundNs), 0);

        t.set_clock(true);
        for r in 4..9 {
            round(&mut handles, r);
        }
        let log = t.round_log();
        assert_eq!(
            log.iter().map(|r| r.round).collect::<Vec<_>>(),
            [4, 5, 6, 7, 8]
        );
        for rec in &log {
            assert_eq!(rec.worker_busy_ns, [10 + rec.round, 20 + rec.round]);
            assert_eq!(rec.worker_route_ns, [1, 2]);
            assert_eq!(rec.compute_ns, 10);
            assert_eq!(rec.inbox_messages, 4);
        }
        let stamped: u64 = log.iter().map(|r| r.total_ns).sum();
        assert_eq!(stamped, t.snapshot().get(Counter::RoundNs));
        // The flight recorder's window stays the last K rounds.
        assert_eq!(
            t.recent_rounds()
                .iter()
                .map(|r| r.round)
                .collect::<Vec<_>>(),
            [7, 8]
        );

        t.set_clock(false);
        assert!(t.round_log().is_empty());
        round(&mut handles, 9);
        assert_eq!(
            t.recent_rounds()
                .iter()
                .map(|r| r.round)
                .collect::<Vec<_>>(),
            [8, 9]
        );
    }

    #[test]
    fn phase_labels_follow_published_schedule() {
        let t = Telemetry::new(1, 2);
        assert_eq!(t.phase_label(3), "-");
        t.set_schedule(5, 10, 15, 20);
        assert_eq!(t.phase_label(0), "A:tree");
        assert_eq!(t.phase_label(5), "B:counting");
        assert_eq!(t.phase_label(12), "C1:reduce");
        assert_eq!(t.phase_label(17), "C2:bcast");
        assert_eq!(t.phase_label(25), "D:aggregation");
    }
}
