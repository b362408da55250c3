//! Trace analytics: congestion and latency statistics from a recorded
//! event stream.
//!
//! Where [`super::check`] asks "did the run respect the paper's
//! invariants?", this module asks "how tight was the schedule?". From a
//! JSONL trace alone it computes:
//!
//! * **per-source wave latency** — each source's observed start `T_s`
//!   relative to the first wave, its eccentricity-based expected wave end
//!   `T_s + ecc(s)` (a wavefront reaches the last node after `ecc(s)`
//!   rounds), and its actual completion (the last aggregation send for
//!   that source);
//! * **per-source slack** against the minimal Lemma-4 schedule
//!   `T'_0 = 0, T'_i = T'_{i-1} + d(s_{i-1}, s_i) + 1` that
//!   [`super::check`] rebuilds — zero total slack means the run achieved
//!   the tightest collision-free pipeline the lemma admits;
//! * **per-edge utilization** with the top-K congestion hot spots (which
//!   directed edges carried the most messages, as a fraction of rounds);
//! * **per-round load peaks** (the rounds that moved the most messages);
//! * the **DFS-token critical path** (hops and the round span the token
//!   was in flight, i.e. phase B's serial backbone).
//!
//! The entry point is [`analyze`]; the result renders as a human table
//! ([`std::fmt::Display`]), CSV ([`TraceStats::to_csv`]), or JSON
//! ([`TraceStats::to_json`]).

use super::check;
use super::{ProtocolDetail, TraceEvent};
use crate::json;
use crate::partition::{ShardMap, ShardSkew};
use crate::telemetry::{StragglerBaseline, SCHEMA_VERSION, STRAGGLER_FACTOR};
use bc_graph::{algo, Graph, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Latency picture of one source's BFS wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStat {
    /// The wave's source node.
    pub source: NodeId,
    /// Observed absolute start round `T_s`.
    pub ts: u64,
    /// `T_s` relative to the first wave (the paper reports schedules in
    /// this form, e.g. `T = (0, 2, 4, 6, 8)` for Figure 1).
    pub rel_ts: u64,
    /// This source's slot in the minimal Lemma-4 schedule (relative
    /// rounds), when a topology event allows computing it.
    pub minimal_ts: Option<u64>,
    /// `rel_ts − minimal_ts`: rounds this wave started later than the
    /// tightest admissible schedule.
    pub slack: Option<u64>,
    /// Eccentricity of the source in the traced topology.
    pub ecc: Option<u64>,
    /// `T_s + ecc(s)`: the round by which the wavefront has reached every
    /// node (absolute).
    pub expected_wave_end: Option<u64>,
    /// Aggregation sends observed for this source.
    pub agg_sends: u64,
    /// Round of the last aggregation send for this source (absolute) —
    /// the wave's actual completion, where measurable.
    pub last_agg_round: Option<u64>,
}

/// Message load of one directed edge across the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStat {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Messages carried.
    pub messages: u64,
    /// Payload bits carried.
    pub bits: u64,
    /// `messages / rounds`: fraction of rounds this directed edge was
    /// busy. 1.0 is the CONGEST ceiling.
    pub utilization: f64,
}

/// Message load of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundLoad {
    /// Round number.
    pub round: u64,
    /// Messages delivered in it.
    pub messages: u64,
    /// Payload bits delivered in it.
    pub bits: u64,
}

/// Aggregated congestion/latency statistics of one recorded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Events examined.
    pub events: usize,
    /// Rounds observed.
    pub rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Total payload bits.
    pub total_bits: u64,
    /// Per-source wave latency/slack, in wave (`T_s`) order.
    pub sources: Vec<SourceStat>,
    /// Sum of per-source slack, when computable for every source. Zero
    /// means the run executed the minimal Lemma-4 schedule exactly.
    pub total_slack: Option<u64>,
    /// Top-K directed edges by message count, descending.
    pub hot_edges: Vec<EdgeStat>,
    /// Top-K rounds by message count, descending.
    pub peak_rounds: Vec<RoundLoad>,
    /// Rounds whose message load exceeded the robust baseline (the median
    /// round's load × [`STRAGGLER_FACTOR`]), ascending by round. Empty
    /// for well-behaved runs; a populated list pinpoints load anomalies
    /// worth a closer look in the Perfetto timeline.
    pub straggler_rounds: Vec<RoundLoad>,
    /// Per-shard load skew the engine's contiguous shards ([`ShardMap`])
    /// would have produced for the observed per-node send loads, at a few
    /// worker counts (`shards`). Empty when the trace carries no topology.
    pub shard_skew: Vec<ShardSkew>,
    /// DFS token hops observed (phase B's serial backbone).
    pub token_hops: u64,
    /// First and last round with token activity, when any.
    pub token_span: Option<(u64, u64)>,
    /// Whether [`super::check`] certified the trace.
    pub check_ok: bool,
}

impl TraceStats {
    /// The observed relative schedule `(T_0, T_1, …)` in wave order.
    pub fn relative_schedule(&self) -> Vec<u64> {
        self.sources.iter().map(|s| s.rel_ts).collect()
    }

    /// Renders the per-source table as CSV (one row per wave).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "source,ts,rel_ts,minimal_ts,slack,ecc,expected_wave_end,last_agg_round,agg_sends\n",
        );
        let opt = |v: Option<u64>| v.map_or(String::new(), |x| x.to_string());
        for s in &self.sources {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                s.source,
                s.ts,
                s.rel_ts,
                opt(s.minimal_ts),
                opt(s.slack),
                opt(s.ecc),
                opt(s.expected_wave_end),
                opt(s.last_agg_round),
                s.agg_sends,
            );
        }
        out
    }

    /// Renders the full statistics as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"schema_version\":{SCHEMA_VERSION},\
             \"events\":{},\"rounds\":{},\"messages\":{},\"total_bits\":{},\"check_ok\":{}",
            self.events, self.rounds, self.messages, self.total_bits, self.check_ok
        );
        match self.total_slack {
            Some(s) => {
                let _ = write!(out, ",\"total_slack\":{s}");
            }
            None => out.push_str(",\"total_slack\":null"),
        }
        let _ = write!(out, ",\"token_hops\":{}", self.token_hops);
        match self.token_span {
            Some((a, b)) => {
                let _ = write!(out, ",\"token_span\":[{a},{b}]");
            }
            None => out.push_str(",\"token_span\":null"),
        }
        out.push_str(",\"sources\":[");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        json::join(&mut out, &self.sources, |out, s| {
            write!(
                out,
                "{{\"source\":{},\"ts\":{},\"rel_ts\":{},\"minimal_ts\":{},\"slack\":{},\
                 \"ecc\":{},\"expected_wave_end\":{},\"last_agg_round\":{},\"agg_sends\":{}}}",
                s.source,
                s.ts,
                s.rel_ts,
                opt(s.minimal_ts),
                opt(s.slack),
                opt(s.ecc),
                opt(s.expected_wave_end),
                opt(s.last_agg_round),
                s.agg_sends,
            )
        });
        out.push_str("],\"hot_edges\":[");
        json::join(&mut out, &self.hot_edges, |out, e| {
            write!(
                out,
                "{{\"from\":{},\"to\":{},\"messages\":{},\"bits\":{},\"utilization\":{:.4}}}",
                e.from, e.to, e.messages, e.bits, e.utilization
            )
        });
        out.push_str("],\"peak_rounds\":[");
        json::join(&mut out, &self.peak_rounds, |out, r| {
            write!(
                out,
                "{{\"round\":{},\"messages\":{},\"bits\":{}}}",
                r.round, r.messages, r.bits
            )
        });
        out.push_str("],\"straggler_rounds\":[");
        json::join(&mut out, &self.straggler_rounds, |out, r| {
            write!(
                out,
                "{{\"round\":{},\"messages\":{},\"bits\":{}}}",
                r.round, r.messages, r.bits
            )
        });
        out.push_str("],\"shard_skew\":[");
        json::join(&mut out, &self.shard_skew, |out, s| {
            write!(
                out,
                "{{\"strategy\":\"contiguous\",\"threads\":{},\"max_load\":{},\
                 \"mean_load\":{:.2},\"skew\":{:.4}}}",
                s.shards, s.max_load, s.mean_load, s.skew
            )
        });
        out.push_str("]}");
        out
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events, {} rounds, {} messages, {} bits, invariants {}",
            self.events,
            self.rounds,
            self.messages,
            self.total_bits,
            if self.check_ok { "OK" } else { "VIOLATED" }
        )?;
        if !self.sources.is_empty() {
            let sched: Vec<String> = self.sources.iter().map(|s| s.rel_ts.to_string()).collect();
            writeln!(f, "wave schedule T = ({})", sched.join(", "))?;
            match self.total_slack {
                Some(0) => writeln!(f, "Lemma-4 slack: 0 (minimal schedule achieved)")?,
                Some(s) => writeln!(f, "Lemma-4 slack: {s} rounds above minimal")?,
                None => writeln!(f, "Lemma-4 slack: unavailable (no topology in trace)")?,
            }
            writeln!(
                f,
                "{:>7} {:>6} {:>7} {:>8} {:>6} {:>5} {:>9} {:>9} {:>9}",
                "source", "T_s", "rel", "minimal", "slack", "ecc", "wave_end", "last_agg", "aggs"
            )?;
            let opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
            for s in &self.sources {
                writeln!(
                    f,
                    "{:>7} {:>6} {:>7} {:>8} {:>6} {:>5} {:>9} {:>9} {:>9}",
                    s.source,
                    s.ts,
                    s.rel_ts,
                    opt(s.minimal_ts),
                    opt(s.slack),
                    opt(s.ecc),
                    opt(s.expected_wave_end),
                    opt(s.last_agg_round),
                    s.agg_sends,
                )?;
            }
        }
        if self.token_hops > 0 {
            let span = self
                .token_span
                .map_or("-".to_string(), |(a, b)| format!("rounds {a}..={b}"));
            writeln!(
                f,
                "DFS token critical path: {} hops, {span}",
                self.token_hops
            )?;
        }
        if !self.hot_edges.is_empty() {
            writeln!(f, "hottest directed edges (of {} rounds):", self.rounds)?;
            for e in &self.hot_edges {
                writeln!(
                    f,
                    "  {:>5} -> {:<5} {:>8} msgs {:>10} bits  {:>6.1}% busy",
                    e.from,
                    e.to,
                    e.messages,
                    e.bits,
                    e.utilization * 100.0
                )?;
            }
        }
        if !self.peak_rounds.is_empty() {
            writeln!(f, "busiest rounds:")?;
            for r in &self.peak_rounds {
                writeln!(
                    f,
                    "  round {:>6} {:>8} msgs {:>10} bits",
                    r.round, r.messages, r.bits
                )?;
            }
        }
        if !self.straggler_rounds.is_empty() {
            writeln!(
                f,
                "straggler rounds (load > {}x the median round):",
                STRAGGLER_FACTOR
            )?;
            for r in &self.straggler_rounds {
                writeln!(
                    f,
                    "  round {:>6} {:>8} msgs {:>10} bits",
                    r.round, r.messages, r.bits
                )?;
            }
        }
        if !self.shard_skew.is_empty() {
            writeln!(f, "partition load skew (max/mean send load per shard):")?;
            for s in &self.shard_skew {
                writeln!(
                    f,
                    "  contiguous x{:<2} {:>8} max {:>10.1} mean  skew {:.2}",
                    s.shards, s.max_load, s.mean_load, s.skew
                )?;
            }
        }
        Ok(())
    }
}

/// Computes congestion/latency statistics from a recorded event stream.
/// `top_k` bounds the hot-edge and peak-round lists.
pub fn analyze(events: &[TraceEvent], top_k: usize) -> TraceStats {
    let report = check::check(events);

    let mut topology: Option<Graph> = None;
    let mut edge_load: HashMap<(NodeId, NodeId), (u64, u64)> = HashMap::new();
    let mut round_load: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut total_bits = 0u64;
    let mut agg: HashMap<NodeId, (u64, u64)> = HashMap::new();
    let mut token_hops = 0u64;
    let mut token_span: Option<(u64, u64)> = None;

    for event in events {
        match event {
            TraceEvent::Topology { n, edges } => {
                topology = Graph::from_edges(*n, edges.iter().copied()).ok();
            }
            TraceEvent::MessageSent {
                round,
                from,
                to,
                bits,
                ..
            } => {
                let bits = *bits as u64;
                total_bits += bits;
                let e = edge_load.entry((*from, *to)).or_default();
                e.0 += 1;
                e.1 += bits;
                let r = round_load.entry(*round).or_default();
                r.0 += 1;
                r.1 += bits;
            }
            TraceEvent::Protocol { round, detail, .. } => match detail {
                ProtocolDetail::AggSend { source } => {
                    let a = agg.entry(*source).or_insert((0, 0));
                    a.0 += 1;
                    a.1 = a.1.max(*round);
                }
                ProtocolDetail::TokenSend { .. } => {
                    token_hops += 1;
                    token_span = Some(match token_span {
                        None => (*round, *round),
                        Some((a, b)) => (a.min(*round), b.max(*round)),
                    });
                }
                ProtocolDetail::TokenReceive => {
                    token_span = Some(match token_span {
                        None => (*round, *round),
                        Some((a, b)) => (a.min(*round), b.max(*round)),
                    });
                }
                _ => {}
            },
            _ => {}
        }
    }

    // Per-source latency and slack, in observed wave (T_s) order. The
    // minimal schedule from `check` is indexed in the same order.
    let first_ts = report.wave_starts.first().map_or(0, |&(_, ts)| ts);
    let ecc_of = |g: &Graph, s: NodeId| -> Option<u64> {
        let dists = algo::bfs(g, s).dist;
        let max = dists
            .iter()
            .copied()
            .filter(|&d| d != algo::UNREACHABLE)
            .max()?;
        Some(max as u64)
    };
    let sources: Vec<SourceStat> = report
        .wave_starts
        .iter()
        .enumerate()
        .map(|(i, &(source, ts))| {
            let rel_ts = ts - first_ts;
            let minimal_ts = report
                .minimal_schedule
                .as_ref()
                .and_then(|m| m.get(i).copied());
            let ecc = topology
                .as_ref()
                .filter(|g| (source as usize) < g.n())
                .and_then(|g| ecc_of(g, source));
            let (agg_sends, last_agg_round) = agg
                .get(&source)
                .map_or((0, None), |&(count, last)| (count, Some(last)));
            SourceStat {
                source,
                ts,
                rel_ts,
                minimal_ts,
                slack: minimal_ts.map(|m| rel_ts - m),
                ecc,
                expected_wave_end: ecc.map(|e| ts + e),
                agg_sends,
                last_agg_round,
            }
        })
        .collect();
    let total_slack = if !sources.is_empty() && sources.iter().all(|s| s.slack.is_some()) {
        Some(sources.iter().filter_map(|s| s.slack).sum())
    } else {
        None
    };

    let mut hot_edges: Vec<EdgeStat> = edge_load
        .into_iter()
        .map(|((from, to), (messages, bits))| EdgeStat {
            from,
            to,
            messages,
            bits,
            utilization: if report.rounds > 0 {
                messages as f64 / report.rounds as f64
            } else {
                0.0
            },
        })
        .collect();
    hot_edges.sort_by(|a, b| {
        b.messages
            .cmp(&a.messages)
            .then(a.from.cmp(&b.from))
            .then(a.to.cmp(&b.to))
    });
    hot_edges.truncate(top_k);

    let mut peak_rounds: Vec<RoundLoad> = round_load
        .into_iter()
        .map(|(round, (messages, bits))| RoundLoad {
            round,
            messages,
            bits,
        })
        .collect();
    peak_rounds.sort_by(|a, b| b.messages.cmp(&a.messages).then(a.round.cmp(&b.round)));

    // Straggler rounds: message load over the median round × k, against
    // the *full* per-round distribution (before the top-K cut). A short
    // trace (< 8 rounds with traffic) has no meaningful baseline.
    let mut straggler_rounds = Vec::new();
    let mut loads: Vec<u64> = peak_rounds.iter().map(|r| r.messages).collect();
    if let Some(b) = StragglerBaseline::of(&mut loads, 8, 0) {
        straggler_rounds = peak_rounds
            .iter()
            .filter(|r| b.flags(r.messages))
            .copied()
            .collect();
        straggler_rounds.sort_by_key(|r| r.round);
    }
    peak_rounds.truncate(top_k);

    // How the engine's shards would have spread the observed per-node send
    // load over a worker pool.
    let mut shard_skew = Vec::new();
    if let Some(g) = &topology {
        let mut node_sent = vec![0u64; g.n()];
        for event in events {
            if let TraceEvent::MessageSent { from, .. } = event {
                if (*from as usize) < node_sent.len() {
                    node_sent[*from as usize] += 1;
                }
            }
        }
        for threads in [2usize, 4, 8].into_iter().filter(|&t| t <= g.n()) {
            shard_skew.push(ShardMap::new(g.n(), threads).skew(&node_sent));
        }
    }

    TraceStats {
        events: events.len(),
        rounds: report.rounds,
        messages: report.messages,
        total_bits,
        sources,
        total_slack,
        hot_edges,
        peak_rounds,
        straggler_rounds,
        shard_skew,
        token_hops,
        token_span,
        check_ok: report.ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5_topology() -> TraceEvent {
        TraceEvent::Topology {
            n: 5,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        }
    }

    fn wave(node: NodeId, ts: u64) -> TraceEvent {
        TraceEvent::Protocol {
            round: ts,
            node,
            detail: ProtocolDetail::WaveStart { ts },
        }
    }

    fn sent(round: u64, from: NodeId, to: NodeId, bits: usize) -> TraceEvent {
        TraceEvent::MessageSent {
            round,
            from,
            to,
            bits,
            payload: None,
        }
    }

    #[test]
    fn minimal_schedule_has_zero_slack() {
        // Waves on the path at the tightest admissible spacing (d+1 = 2).
        let events = vec![
            path5_topology(),
            TraceEvent::RoundStart { round: 0 },
            wave(0, 10),
            wave(1, 12),
            wave(2, 14),
            wave(3, 16),
            wave(4, 18),
        ];
        let stats = analyze(&events, 5);
        assert_eq!(stats.relative_schedule(), vec![0, 2, 4, 6, 8]);
        assert_eq!(stats.total_slack, Some(0));
        assert!(stats.sources.iter().all(|s| s.slack == Some(0)));
        // Path endpoints have eccentricity 4, the middle node 2.
        assert_eq!(stats.sources[0].ecc, Some(4));
        assert_eq!(stats.sources[2].ecc, Some(2));
        assert_eq!(stats.sources[0].expected_wave_end, Some(14));
    }

    #[test]
    fn slack_measures_lateness() {
        let events = vec![path5_topology(), wave(0, 10), wave(1, 15)];
        let stats = analyze(&events, 5);
        // Minimal spacing is 2; the second wave started 3 rounds late.
        assert_eq!(stats.sources[1].slack, Some(3));
        assert_eq!(stats.total_slack, Some(3));
    }

    #[test]
    fn hot_edges_and_peaks_ranked() {
        let events = vec![
            TraceEvent::RoundStart { round: 0 },
            TraceEvent::RoundStart { round: 1 },
            sent(0, 0, 1, 8),
            sent(1, 0, 1, 8),
            sent(1, 1, 2, 16),
        ];
        let stats = analyze(&events, 1);
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.total_bits, 32);
        assert_eq!(stats.hot_edges.len(), 1);
        let hot = &stats.hot_edges[0];
        assert_eq!((hot.from, hot.to, hot.messages), (0, 1, 2));
        assert!((hot.utilization - 1.0).abs() < 1e-9);
        assert_eq!(stats.peak_rounds.len(), 1);
        assert_eq!(stats.peak_rounds[0].round, 1);
        assert_eq!(stats.peak_rounds[0].messages, 2);
    }

    #[test]
    fn token_path_and_agg_completion() {
        let events = vec![
            TraceEvent::Protocol {
                round: 3,
                node: 0,
                detail: ProtocolDetail::TokenSend { to: 1 },
            },
            TraceEvent::Protocol {
                round: 4,
                node: 1,
                detail: ProtocolDetail::TokenReceive,
            },
            TraceEvent::Protocol {
                round: 5,
                node: 1,
                detail: ProtocolDetail::TokenSend { to: 2 },
            },
            wave(0, 3),
            TraceEvent::Protocol {
                round: 9,
                node: 2,
                detail: ProtocolDetail::AggSend { source: 0 },
            },
            TraceEvent::Protocol {
                round: 11,
                node: 1,
                detail: ProtocolDetail::AggSend { source: 0 },
            },
        ];
        let stats = analyze(&events, 5);
        assert_eq!(stats.token_hops, 2);
        assert_eq!(stats.token_span, Some((3, 5)));
        assert_eq!(stats.sources[0].agg_sends, 2);
        assert_eq!(stats.sources[0].last_agg_round, Some(11));
    }

    #[test]
    fn renders_all_formats() {
        let events = vec![path5_topology(), wave(0, 0), wave(1, 2), sent(0, 0, 1, 8)];
        let stats = analyze(&events, 3);
        let text = stats.to_string();
        assert!(text.contains("wave schedule T = (0, 2)"), "{text}");
        assert!(text.contains("slack: 0"), "{text}");
        let csv = stats.to_csv();
        assert!(csv.starts_with("source,ts,"), "{csv}");
        assert_eq!(csv.lines().count(), 3);
        let json = stats.to_json();
        assert!(json.contains("\"total_slack\":0"), "{json}");
        assert!(json.contains("\"sources\":[{\"source\":0"), "{json}");
    }

    #[test]
    fn shard_skew_reported_per_strategy_and_thread_count() {
        // Node 0 does all the sending: contiguous chunking leaves its
        // whole load on shard 0, so skew = threads.
        let mut events = vec![path5_topology()];
        for r in 0..4 {
            events.push(TraceEvent::RoundStart { round: r });
            events.push(sent(r, 0, 1, 8));
        }
        let stats = analyze(&events, 3);
        // threads 8 > n=5 is skipped ⇒ {2, 4}.
        let shards: Vec<usize> = stats.shard_skew.iter().map(|s| s.shards).collect();
        assert_eq!(shards, [2, 4]);
        assert!(stats.shard_skew.iter().all(|s| s.skew >= 1.0));
        assert!(stats.shard_skew.iter().all(|s| s.max_load == 4));
        let json = stats.to_json();
        assert!(
            json.contains("\"shard_skew\":[{\"strategy\":\"contiguous\""),
            "{json}"
        );
        let text = stats.to_string();
        assert!(text.contains("partition load skew"), "{text}");
    }

    #[test]
    fn straggler_rounds_flag_load_spikes_only() {
        // Nine steady rounds of one message, then a 10-message spike.
        let mut events = vec![];
        for r in 0..9 {
            events.push(TraceEvent::RoundStart { round: r });
            events.push(sent(r, 0, 1, 8));
        }
        events.push(TraceEvent::RoundStart { round: 9 });
        for _ in 0..10 {
            events.push(sent(9, 0, 1, 8));
        }
        let stats = analyze(&events, 3);
        assert_eq!(stats.straggler_rounds.len(), 1);
        assert_eq!(stats.straggler_rounds[0].round, 9);
        assert_eq!(stats.straggler_rounds[0].messages, 10);
        let json = stats.to_json();
        assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
        assert!(
            json.contains("\"straggler_rounds\":[{\"round\":9"),
            "{json}"
        );
        assert!(stats.to_string().contains("straggler rounds"), "{}", stats);

        // A uniform run flags nothing.
        let mut quiet = vec![];
        for r in 0..10 {
            quiet.push(TraceEvent::RoundStart { round: r });
            quiet.push(sent(r, 0, 1, 8));
        }
        let stats = analyze(&quiet, 3);
        assert!(stats.straggler_rounds.is_empty());
    }

    #[test]
    fn empty_trace_yields_empty_stats() {
        let stats = analyze(&[], 5);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.messages, 0);
        assert!(stats.sources.is_empty());
        assert_eq!(stats.total_slack, None);
        assert!(stats.check_ok);
    }
}
