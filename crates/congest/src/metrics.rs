//! Execution metrics: the quantities the paper's analysis talks about
//! (rounds, bits per message, messages per edge per round) measured rather
//! than asserted.

use bc_graph::NodeId;
use std::collections::HashSet;

/// A set of undirected edges across which bit flow is measured, stored
/// canonically as `(min, max)` pairs.
///
/// The lower-bound experiments (E8) declare the gadget's left/right cut
/// here and compare the measured flow to the `Ω(n log n)` communication
/// bound of Theorems 5–6.
#[derive(Debug, Clone, Default)]
pub struct EdgeCut {
    edges: HashSet<(NodeId, NodeId)>,
}

impl EdgeCut {
    /// Creates a cut from undirected edges (order of endpoints irrelevant).
    pub fn new<I: IntoIterator<Item = (NodeId, NodeId)>>(edges: I) -> Self {
        EdgeCut {
            edges: edges
                .into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect(),
        }
    }

    /// Returns `true` if `{u, v}` belongs to the cut.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains(&(u.min(v), u.max(v)))
    }

    /// Number of edges in the cut.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the cut is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Aggregate metrics for one simulated execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetMetrics {
    /// Rounds executed (the paper's time-complexity measure).
    pub rounds: u64,
    /// Total messages delivered.
    pub total_messages: u64,
    /// Total payload bits delivered.
    pub total_bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: usize,
    /// Maximum number of messages sent over one directed edge in one round
    /// (must be ≤ 1 in a CONGEST-compliant execution; Lemma 4).
    pub max_messages_per_edge_round: u32,
    /// Number of (directed edge, round) pairs that carried more than one
    /// message — `0` iff the schedule is collision-free.
    pub collisions: u64,
    /// Messages whose size exceeded the configured budget.
    pub oversized_messages: u64,
    /// Bits that crossed the declared [`EdgeCut`] (0 if none declared).
    pub cut_bits: u64,
    /// Messages that crossed the declared [`EdgeCut`].
    pub cut_messages: u64,
    /// Messages sent in each round — the traffic timeline that makes the
    /// protocol's phase structure visible (counting burst, control lull,
    /// aggregation burst).
    pub per_round_messages: Vec<u64>,
    /// Payload bits sent in each round (same timeline as
    /// `per_round_messages`, weighted by message size).
    pub per_round_bits: Vec<u64>,
    /// Largest single message per round, in bits.
    pub per_round_max_bits: Vec<u32>,
    /// Message-size histogram in log₂ buckets: `message_size_hist[i]`
    /// counts messages with `bits` in `[2^i, 2^(i+1))` (bucket 0 also
    /// holds empty messages). The CONGEST budget claim is visible here as
    /// an empty tail above `⌈log₂ budget⌉`.
    pub message_size_hist: Vec<u64>,
    /// Messages the fault plan silently dropped in flight.
    pub faults_dropped: u64,
    /// Messages the fault plan delivered twice.
    pub faults_duplicated: u64,
    /// Messages the fault plan bit-corrupted in flight.
    pub faults_corrupted: u64,
    /// Message copies the fault plan delayed past their normal round.
    pub faults_delayed: u64,
    /// Frames the reliable transport re-sent after an ack timeout
    /// (filled in by the transport-aware driver; the raw engine leaves
    /// it 0).
    pub messages_retransmitted: u64,
    /// Frames the reliable transport discarded as already-received
    /// duplicates (same provenance as `messages_retransmitted`).
    pub messages_deduped: u64,
}

impl NetMetrics {
    /// Folds another partial metrics record into this one (used by the
    /// parallel engine to merge per-worker tallies).
    ///
    /// Counters add; `rounds` takes the maximum, because partial records
    /// describe disjoint node sets stepping through the *same* rounds — a
    /// worker that saw 5 rounds and one that saw 5 rounds together still
    /// executed 5 rounds, not 10.
    pub fn merge(&mut self, other: &NetMetrics) {
        self.rounds = self.rounds.max(other.rounds);
        self.total_messages += other.total_messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.max_messages_per_edge_round = self
            .max_messages_per_edge_round
            .max(other.max_messages_per_edge_round);
        self.collisions += other.collisions;
        self.oversized_messages += other.oversized_messages;
        self.cut_bits += other.cut_bits;
        self.cut_messages += other.cut_messages;
        if self.per_round_messages.len() < other.per_round_messages.len() {
            self.per_round_messages
                .resize(other.per_round_messages.len(), 0);
        }
        for (a, b) in self
            .per_round_messages
            .iter_mut()
            .zip(&other.per_round_messages)
        {
            *a += b;
        }
        if self.per_round_bits.len() < other.per_round_bits.len() {
            self.per_round_bits.resize(other.per_round_bits.len(), 0);
        }
        for (a, b) in self.per_round_bits.iter_mut().zip(&other.per_round_bits) {
            *a += b;
        }
        if self.per_round_max_bits.len() < other.per_round_max_bits.len() {
            self.per_round_max_bits
                .resize(other.per_round_max_bits.len(), 0);
        }
        for (a, b) in self
            .per_round_max_bits
            .iter_mut()
            .zip(&other.per_round_max_bits)
        {
            *a = (*a).max(*b);
        }
        if self.message_size_hist.len() < other.message_size_hist.len() {
            self.message_size_hist
                .resize(other.message_size_hist.len(), 0);
        }
        for (a, b) in self
            .message_size_hist
            .iter_mut()
            .zip(&other.message_size_hist)
        {
            *a += b;
        }
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_corrupted += other.faults_corrupted;
        self.faults_delayed += other.faults_delayed;
        self.messages_retransmitted += other.messages_retransmitted;
        self.messages_deduped += other.messages_deduped;
    }

    /// Extends the per-round timelines to cover `round`, so silent rounds
    /// appear as explicit zeros rather than missing entries.
    pub(crate) fn begin_round(&mut self, round: u64) {
        let len = round as usize + 1;
        if self.per_round_messages.len() < len {
            self.per_round_messages.resize(len, 0);
        }
        if self.per_round_bits.len() < len {
            self.per_round_bits.resize(len, 0);
        }
        if self.per_round_max_bits.len() < len {
            self.per_round_max_bits.resize(len, 0);
        }
    }

    /// Commits one node step's sends, tallied in `tally`, into the totals,
    /// the per-round timelines of `round` and the size histogram, and
    /// empties the tally for the next step.
    pub(crate) fn record_sends(&mut self, round: u64, tally: &mut SendTally) {
        if tally.messages == 0 {
            return;
        }
        self.begin_round(round);
        let r = round as usize;
        self.total_messages += tally.messages;
        self.total_bits += tally.bits;
        self.max_message_bits = self.max_message_bits.max(tally.max_bits);
        self.per_round_messages[r] += tally.messages;
        self.per_round_bits[r] += tally.bits;
        self.per_round_max_bits[r] = self.per_round_max_bits[r].max(tally.max_bits as u32);
        let top = (u64::BITS - tally.used.leading_zeros()) as usize;
        if self.message_size_hist.len() < top {
            self.message_size_hist.resize(top, 0);
        }
        while tally.used != 0 {
            let bucket = tally.used.trailing_zeros() as usize;
            tally.used &= tally.used - 1;
            self.message_size_hist[bucket] += std::mem::take(&mut tally.buckets[bucket]);
        }
        tally.messages = 0;
        tally.bits = 0;
        tally.max_bits = 0;
    }

    /// The log₂ histogram bucket for a message of `bits` bits.
    pub fn size_bucket(bits: usize) -> usize {
        (usize::BITS - 1 - bits.max(1).leading_zeros()) as usize
    }

    /// Returns `true` if the execution satisfied the CONGEST constraints:
    /// no collisions and no oversized messages.
    pub fn congest_compliant(&self) -> bool {
        self.collisions == 0 && self.oversized_messages == 0
    }

    /// Summarizes the round window `[start, end)` from the per-round
    /// timelines — the per-phase breakdown a driver produces by slicing at
    /// its phase boundaries. Rounds beyond the recorded timeline count as
    /// silent (zero traffic).
    pub fn phase_window(&self, name: impl Into<String>, start: u64, end: u64) -> PhaseStat {
        let (start, end) = (start.min(end), end);
        let clip = |v: u64| (v as usize).min(self.per_round_messages.len());
        let (lo, hi) = (clip(start), clip(end));
        let bits_hi = (end as usize).min(self.per_round_bits.len());
        let bits_lo = (start as usize).min(bits_hi);
        let max_hi = (end as usize).min(self.per_round_max_bits.len());
        let max_lo = (start as usize).min(max_hi);
        PhaseStat {
            name: name.into(),
            start,
            end,
            rounds: end - start,
            messages: self.per_round_messages[lo..hi].iter().sum(),
            bits: self.per_round_bits[bits_lo..bits_hi].iter().sum(),
            max_message_bits: self.per_round_max_bits[max_lo..max_hi]
                .iter()
                .copied()
                .max()
                .unwrap_or(0) as usize,
        }
    }
}

/// The messages of one node step, counted as they are sent and folded
/// into a [`NetMetrics`] once per step by [`NetMetrics::record_sends`].
/// The size histogram stays exact: each log₂ bucket counts on its own.
#[derive(Debug)]
pub(crate) struct SendTally {
    messages: u64,
    bits: u64,
    max_bits: usize,
    /// Messages per log₂ size bucket ([`NetMetrics::size_bucket`]).
    buckets: [u64; usize::BITS as usize],
    /// Bit `b` is set iff `buckets[b]` is nonzero.
    used: u64,
}

impl Default for SendTally {
    fn default() -> Self {
        SendTally {
            messages: 0,
            bits: 0,
            max_bits: 0,
            buckets: [0; usize::BITS as usize],
            used: 0,
        }
    }
}

impl SendTally {
    /// Counts one message of `bits` payload bits.
    pub(crate) fn add(&mut self, bits: usize) {
        self.messages += 1;
        self.bits += bits as u64;
        self.max_bits = self.max_bits.max(bits);
        let bucket = NetMetrics::size_bucket(bits);
        self.buckets[bucket] += 1;
        self.used |= 1 << bucket;
    }
}

/// Traffic summary of one protocol phase (a contiguous round window),
/// produced by [`NetMetrics::phase_window`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase label (`"A:tree"` etc. — chosen by the driver).
    pub name: String,
    /// First round of the window (inclusive).
    pub start: u64,
    /// One past the last round of the window.
    pub end: u64,
    /// Window length in rounds.
    pub rounds: u64,
    /// Messages sent within the window.
    pub messages: u64,
    /// Payload bits sent within the window.
    pub bits: u64,
    /// Largest single message within the window.
    pub max_message_bits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_canonicalizes() {
        let cut = EdgeCut::new([(3, 1), (1, 3), (2, 5)]);
        assert_eq!(cut.len(), 2);
        assert!(cut.contains(1, 3));
        assert!(cut.contains(3, 1));
        assert!(!cut.contains(1, 2));
        assert!(!cut.is_empty());
        assert!(EdgeCut::default().is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = NetMetrics {
            rounds: 5,
            total_messages: 10,
            total_bits: 100,
            max_message_bits: 8,
            max_messages_per_edge_round: 1,
            collisions: 0,
            oversized_messages: 0,
            cut_bits: 40,
            cut_messages: 4,
            per_round_messages: vec![4, 6],
            per_round_bits: vec![40, 60],
            per_round_max_bits: vec![8, 8],
            message_size_hist: vec![0, 0, 0, 10],
            ..NetMetrics::default()
        };
        let b = NetMetrics {
            rounds: 3,
            total_messages: 3,
            total_bits: 60,
            max_message_bits: 16,
            max_messages_per_edge_round: 2,
            collisions: 1,
            oversized_messages: 1,
            cut_bits: 20,
            cut_messages: 2,
            per_round_messages: vec![1, 1, 1],
            per_round_bits: vec![20, 20, 20],
            per_round_max_bits: vec![16, 4, 16],
            message_size_hist: vec![0, 0, 0, 0, 3],
            faults_dropped: 2,
            messages_retransmitted: 3,
            messages_deduped: 1,
            ..NetMetrics::default()
        };
        a.merge(&b);
        // Workers share rounds: max, never a sum (5+3=8 would be wrong).
        assert_eq!(a.rounds, 5);
        assert_eq!(a.total_messages, 13);
        assert_eq!(a.total_bits, 160);
        assert_eq!(a.max_message_bits, 16);
        assert_eq!(a.max_messages_per_edge_round, 2);
        assert_eq!(a.cut_bits, 60);
        assert_eq!(a.per_round_messages, vec![5, 7, 1]);
        assert_eq!(a.per_round_bits, vec![60, 80, 20]);
        assert_eq!(a.per_round_max_bits, vec![16, 8, 16]);
        assert_eq!(a.message_size_hist, vec![0, 0, 0, 10, 3]);
        assert_eq!(a.faults_dropped, 2);
        assert_eq!(a.messages_retransmitted, 3);
        assert_eq!(a.messages_deduped, 1);
        assert!(!a.congest_compliant());

        // A merge into a fresh record preserves the partial's rounds.
        let mut fresh = NetMetrics::default();
        fresh.merge(&b);
        assert_eq!(fresh.rounds, 3);
    }

    #[test]
    fn record_sends_builds_timelines() {
        let mut m = NetMetrics::default();
        let mut tally = SendTally::default();
        tally.add(8);
        m.record_sends(0, &mut tally);
        tally.add(32);
        tally.add(5);
        m.record_sends(2, &mut tally);
        // An empty step records nothing, and the tally starts over.
        m.record_sends(2, &mut tally);
        assert_eq!(
            (m.total_messages, m.total_bits, m.max_message_bits),
            (3, 45, 32)
        );
        assert_eq!(m.per_round_messages, vec![1, 0, 2]);
        assert_eq!(m.per_round_bits, vec![8, 0, 37]);
        assert_eq!(m.per_round_max_bits, vec![8, 0, 32]);
        // Buckets: 8 → 3, 32 → 5, 5 → 2.
        assert_eq!(m.message_size_hist, vec![0, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn size_buckets() {
        assert_eq!(NetMetrics::size_bucket(0), 0);
        assert_eq!(NetMetrics::size_bucket(1), 0);
        assert_eq!(NetMetrics::size_bucket(2), 1);
        assert_eq!(NetMetrics::size_bucket(3), 1);
        assert_eq!(NetMetrics::size_bucket(4), 2);
        assert_eq!(NetMetrics::size_bucket(64), 6);
        assert_eq!(NetMetrics::size_bucket(65), 6);
        assert_eq!(NetMetrics::size_bucket(128), 7);
    }

    #[test]
    fn phase_window_slices_timelines() {
        let m = NetMetrics {
            per_round_messages: vec![2, 3, 5, 7, 11],
            per_round_bits: vec![20, 30, 50, 70, 110],
            per_round_max_bits: vec![10, 10, 25, 10, 40],
            ..NetMetrics::default()
        };
        let p = m.phase_window("B:counting", 1, 4);
        assert_eq!(p.rounds, 3);
        assert_eq!(p.messages, 15);
        assert_eq!(p.bits, 150);
        assert_eq!(p.max_message_bits, 25);
        // Windows reaching past the recorded timeline are silent, not a panic.
        let tail = m.phase_window("D:agg", 4, 9);
        assert_eq!(tail.rounds, 5);
        assert_eq!(tail.messages, 11);
        assert_eq!(tail.max_message_bits, 40);
        let empty = m.phase_window("empty", 7, 7);
        assert_eq!(empty.messages, 0);
    }

    #[test]
    fn compliance() {
        assert!(NetMetrics::default().congest_compliant());
    }
}
