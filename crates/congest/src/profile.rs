//! Wall-clock profiles of CONGEST executions: a view over telemetry.
//!
//! The simulator's *logical* cost model (rounds, messages, bits) is
//! covered by [`crate::NetMetrics`]; a profile describes the *physical*
//! cost of simulating it — where the host's wall-clock time goes. It has
//! no recorder of its own: every engine (the shard round loop, in process
//! or on socket shards, and the α-synchronizer) reports each round into the [`crate::Telemetry`]
//! registry, and with the registry's clock on ([`Telemetry::set_clock`])
//! the registry keeps a [`RoundRecord`] of every round. Each record
//! splits the round into
//!
//! * **node compute** — time spent inside the protocol state machines'
//!   `round()` calls (the part a real deployment would parallelize across
//!   machines), and
//! * **engine overhead** — everything else in the round: message routing,
//!   collision accounting, inbox management, worker scheduling,
//!
//! and, for pooled and socket runs, carries each shard's busy and routing
//! time. [`ProfileReport::from_rounds`] folds that round log into phase
//! spans, [`WorkerStats`] (utilization and imbalance), stragglers and the
//! Perfetto timeline. The α-synchronizer's pulse-skew and queue counters
//! ([`SyncStats`]) come from its `AsyncReport`.
//!
//! Profiling is observationally free, like telemetry: a profiled run
//! produces bit-identical results to an unprofiled one (asserted by the
//! integration tests for all engines). Wall-clock numbers themselves are
//! of course not deterministic — they describe the host, not the
//! algorithm — which is why they never enter [`crate::NetMetrics`].
//!
//! [`Telemetry::set_clock`]: crate::Telemetry::set_clock

use crate::json;
use crate::telemetry::{RoundRecord, StragglerBaseline, SCHEMA_VERSION};
use std::fmt;

/// Pulse-skew and queue counters of one α-synchronizer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Payload deliveries observed.
    pub deliveries: u64,
    /// Payload deliveries whose sender pulse differed from the receiver's
    /// current pulse (the synchronizer permits a skew of exactly one).
    pub skewed_deliveries: u64,
    /// Largest |sender pulse − receiver pulse| observed on a payload
    /// delivery (> 1 would be a synchronizer bug).
    pub max_pulse_skew: u64,
    /// High-water mark of the global event queue.
    pub max_queue_depth: usize,
}

/// The records of the round window `[start, end)`, clipped to the log.
fn window(rounds: &[RoundRecord], start: u64, end: u64) -> &[RoundRecord] {
    let clip = |v: u64| (v as usize).min(rounds.len());
    &rounds[clip(start.min(end))..clip(end)]
}

/// Summarizes the round window `[start, end)` of `rounds` (the driver
/// slices at its phase boundaries, mirroring `NetMetrics::phase_window`).
fn phase_span(rounds: &[RoundRecord], name: &str, start: u64, end: u64) -> PhaseSpan {
    let start = start.min(end);
    let window = window(rounds, start, end);
    let total: u64 = window.iter().map(|r| r.total_ns).sum();
    let compute: u64 = window.iter().map(|r| r.compute_ns).sum();
    PhaseSpan {
        name: name.to_string(),
        start,
        end,
        rounds: end - start,
        wall_ns: total,
        compute_ns: compute,
        overhead_ns: total.saturating_sub(compute),
        inbox_messages: window.iter().map(|r| r.inbox_messages).sum(),
    }
}

/// Utilization/imbalance of the pool's or the socket run's workers, or
/// `None` for single-worker recordings.
fn worker_stats(rounds: &[RoundRecord]) -> Option<WorkerStats> {
    let workers = rounds
        .iter()
        .map(|r| r.worker_busy_ns.len())
        .max()
        .filter(|&w| w > 1)?;
    let mut busy_total = 0u64;
    let mut critical_total = 0u64;
    let mut route_total = 0u64;
    for r in rounds {
        busy_total += r.worker_busy_ns.iter().sum::<u64>();
        critical_total += r.worker_busy_ns.iter().copied().max().unwrap_or(0);
        route_total += r.worker_route_ns.iter().sum::<u64>();
    }
    let ideal = critical_total.saturating_mul(workers as u64);
    let utilization = if ideal == 0 {
        1.0
    } else {
        busy_total as f64 / ideal as f64
    };
    let mean_total = busy_total as f64 / workers as f64;
    let imbalance = if mean_total == 0.0 {
        1.0
    } else {
        critical_total as f64 / mean_total
    };
    Some(WorkerStats {
        workers,
        busy_ns: busy_total,
        critical_path_ns: critical_total,
        route_ns: route_total,
        utilization,
        imbalance,
    })
}

/// Flags rounds whose worker busy time or inbox depth exceeds a robust
/// baseline ([`StragglerBaseline`]), worst offenders first.
///
/// Two baselines are used: within each round, a worker is a straggler
/// when its busy time exceeds the round's median worker busy time × k
/// (load imbalance); across rounds, a round is an inbox-depth anomaly
/// when its delivered-message count exceeds the median of its phase
/// window × k (over at least 8 rounds of that window; without `phases`
/// the whole run is one window). Phases differ in traffic by orders of
/// magnitude, so a run-wide median would flag every round of the busiest
/// phase. Absolute floors (200 µs busy, 32 messages) keep noise on tiny
/// rounds from being flagged.
fn detect_stragglers(spans: &[RoundRecord], phases: &[(String, u64, u64)]) -> Vec<Straggler> {
    const BUSY_FLOOR_NS: u64 = 200_000;
    const INBOX_FLOOR: u64 = 32;
    let mut out = Vec::new();
    for span in spans {
        let Some(b) = StragglerBaseline::of(&mut span.worker_busy_ns.clone(), 2, BUSY_FLOOR_NS)
        else {
            continue;
        };
        for (w, &busy) in span.worker_busy_ns.iter().enumerate() {
            if b.flags(busy) {
                out.push(Straggler {
                    kind: "worker_busy",
                    round: span.round,
                    worker: Some(w),
                    value: busy,
                    baseline: b.median,
                });
            }
        }
    }
    let run = [(String::new(), 0, spans.len() as u64)];
    for (_, start, end) in if phases.is_empty() { &run[..] } else { phases } {
        let phase = window(spans, *start, *end);
        let mut inboxes: Vec<u64> = phase.iter().map(|s| s.inbox_messages).collect();
        let Some(b) = StragglerBaseline::of(&mut inboxes, 8, INBOX_FLOOR) else {
            continue;
        };
        for span in phase.iter().filter(|s| b.flags(s.inbox_messages)) {
            out.push(Straggler {
                kind: "inbox_depth",
                round: span.round,
                worker: None,
                value: span.inbox_messages,
                baseline: b.median,
            });
        }
    }
    // Worst offenders first, bounded so a pathological run cannot bloat
    // the report.
    out.sort_by(|a, b| {
        let ra = a.value as u128 * b.baseline.max(1) as u128;
        let rb = b.value as u128 * a.baseline.max(1) as u128;
        rb.cmp(&ra)
    });
    out.truncate(16);
    out
}

/// One straggler/anomaly flagged by the robust-baseline detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Straggler {
    /// What exceeded its baseline: `"worker_busy"` (one worker's busy
    /// time vs the round's median worker), `"inbox_depth"` (a round's
    /// delivered messages vs its phase's median round), or
    /// `"retransmit_rate"` (flagged live by the telemetry flight
    /// recorder).
    pub kind: &'static str,
    /// Round the anomaly occurred in.
    pub round: u64,
    /// Offending worker for `worker_busy`; `None` otherwise.
    pub worker: Option<usize>,
    /// The observed value (nanoseconds or messages).
    pub value: u64,
    /// The robust baseline (median) it was compared against.
    pub baseline: u64,
}

/// Wall-clock summary of one phase window of a [`ProfileReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseSpan {
    /// Phase label (`"B:counting"` etc.).
    pub name: String,
    /// First round of the window (inclusive).
    pub start: u64,
    /// One past the last round of the window.
    pub end: u64,
    /// Window length in rounds.
    pub rounds: u64,
    /// Wall-clock nanoseconds spent in the window.
    pub wall_ns: u64,
    /// Nanoseconds inside protocol `round()` calls.
    pub compute_ns: u64,
    /// `wall_ns − compute_ns`: engine bookkeeping.
    pub overhead_ns: u64,
    /// Messages delivered into inboxes within the window.
    pub inbox_messages: u64,
}

/// Worker summary derived from per-round busy times (pooled and socket
/// runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Worker threads used.
    pub workers: usize,
    /// Total busy nanoseconds across all workers and rounds.
    pub busy_ns: u64,
    /// Sum over rounds of the slowest worker's busy time — the parallel
    /// section's critical path.
    pub critical_path_ns: u64,
    /// Total nanoseconds all workers spent in the message data plane
    /// (lane draining plus send validation/routing) — the engine-overhead
    /// share of `busy_ns` that scales with traffic, not node compute.
    pub route_ns: u64,
    /// `busy / (workers · critical path)` ∈ (0, 1]: how evenly the
    /// per-round node work fills the worker pool.
    pub utilization: f64,
    /// `critical path / mean busy` ≥ 1: how much the slowest worker
    /// stretches each round.
    pub imbalance: f64,
}

/// A profile: run totals, per-phase spans, and engine-specific
/// statistics, derived from a round log by [`ProfileReport::from_rounds`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Engine label (`"serial"`, `"parallel(4)"`, `"alpha-sync"`).
    pub engine: String,
    /// Rounds (or pulses) recorded.
    pub rounds: u64,
    /// Total wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Nanoseconds inside protocol `round()` calls.
    pub compute_ns: u64,
    /// `wall − compute`: simulator bookkeeping.
    pub overhead_ns: u64,
    /// Largest number of messages delivered into one round.
    pub max_inbox_depth: u64,
    /// Sum over rounds of nodes actually stepped (the round engines skip
    /// idle nodes; `rounds · n` minus this is work the engine avoided).
    pub nodes_stepped: u64,
    /// Messages routed across worker shards (0 for one-shard and α-sync
    /// runs).
    pub cross_shard_messages: u64,
    /// Messages routed within the sending worker's own shard (0 for
    /// one-shard and α-sync runs).
    pub intra_shard_messages: u64,
    /// Per-phase spans (empty when phase boundaries are unknown).
    pub phases: Vec<PhaseSpan>,
    /// Worker statistics (pooled and socket runs only).
    pub workers: Option<WorkerStats>,
    /// Synchronizer counters (α-synchronizer only).
    pub sync: Option<SyncStats>,
    /// Frames resent by the reliable transport (0 for raw runs).
    pub messages_retransmitted: u64,
    /// Duplicate frames discarded by the reliable transport's dedup window
    /// (0 for raw runs).
    pub messages_deduped: u64,
    /// Fault events injected by the network layer (drops + duplicates +
    /// corruptions + delays; 0 for lossless runs).
    pub faults_injected: u64,
    /// Total protocol-state bytes across all nodes at the end of the run
    /// (0 when the protocol does not report state; filled by the driver).
    pub state_bytes_total: u64,
    /// Largest single-node protocol-state footprint in bytes.
    pub state_bytes_peak: u64,
    /// Rounds/workers whose busy time or inbox depth exceeded the robust
    /// baseline (median × k), worst first, capped at 16.
    pub stragglers: Vec<Straggler>,
    /// The round log the report was built from; feeds the Perfetto
    /// exporter and is *not* serialized by [`to_json`].
    ///
    /// [`to_json`]: ProfileReport::to_json
    pub round_log: Vec<RoundRecord>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl ProfileReport {
    /// Derives a profile from a clocked registry's round log
    /// ([`crate::Telemetry::round_log`]). `engine` labels the run
    /// (`"serial"`, `"parallel(4)"`, `"alpha-sync"`); `phases` are the
    /// driver's `(name, start, end)` round windows (empty when boundaries
    /// are unknown). The transport, fault and state fields start at 0 and
    /// `sync` at `None`; the caller fills in what it knows.
    pub fn from_rounds(
        engine: impl Into<String>,
        rounds: Vec<RoundRecord>,
        phases: &[(String, u64, u64)],
    ) -> ProfileReport {
        let wall: u64 = rounds.iter().map(|r| r.total_ns).sum();
        let compute: u64 = rounds.iter().map(|r| r.compute_ns).sum();
        ProfileReport {
            engine: engine.into(),
            rounds: rounds.len() as u64,
            wall_ns: wall,
            compute_ns: compute,
            overhead_ns: wall.saturating_sub(compute),
            max_inbox_depth: rounds.iter().map(|r| r.inbox_messages).max().unwrap_or(0),
            nodes_stepped: rounds.iter().map(|r| r.nodes_stepped).sum(),
            cross_shard_messages: rounds.iter().map(|r| r.cross_shard_messages).sum(),
            intra_shard_messages: rounds.iter().map(|r| r.intra_shard_messages).sum(),
            phases: phases
                .iter()
                .map(|(name, start, end)| phase_span(&rounds, name, *start, *end))
                .collect(),
            workers: worker_stats(&rounds),
            stragglers: detect_stragglers(&rounds, phases),
            round_log: rounds,
            ..ProfileReport::default()
        }
    }

    /// Fraction of the wall-clock spent in node compute.
    pub fn compute_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.compute_ns as f64 / self.wall_ns as f64
        }
    }

    /// Renders the report as a single JSON object (the `--profile --json`
    /// payload and the `BENCH_profile.json` building block).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema_version\":{SCHEMA_VERSION},\
             \"engine\":\"{}\",\"rounds\":{},\"wall_ns\":{},\"compute_ns\":{},\
             \"overhead_ns\":{},\"max_inbox_depth\":{},\"nodes_stepped\":{}",
            self.engine,
            self.rounds,
            self.wall_ns,
            self.compute_ns,
            self.overhead_ns,
            self.max_inbox_depth,
            self.nodes_stepped
        );
        let _ = write!(
            out,
            ",\"cross_shard_messages\":{},\"intra_shard_messages\":{}",
            self.cross_shard_messages, self.intra_shard_messages
        );
        out.push_str(",\"phases\":[");
        json::join(&mut out, &self.phases, |out, p| {
            write!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"rounds\":{},\"wall_ns\":{},\
                 \"compute_ns\":{},\"overhead_ns\":{},\"inbox_messages\":{}}}",
                p.name,
                p.start,
                p.end,
                p.rounds,
                p.wall_ns,
                p.compute_ns,
                p.overhead_ns,
                p.inbox_messages
            )
        });
        out.push(']');
        if let Some(w) = &self.workers {
            let _ = write!(
                out,
                ",\"workers\":{{\"workers\":{},\"busy_ns\":{},\"critical_path_ns\":{},\
                 \"route_ns\":{},\"utilization\":{:.4},\"imbalance\":{:.4}}}",
                w.workers, w.busy_ns, w.critical_path_ns, w.route_ns, w.utilization, w.imbalance
            );
        }
        if let Some(s) = &self.sync {
            let _ = write!(
                out,
                ",\"sync\":{{\"deliveries\":{},\"skewed_deliveries\":{},\"max_pulse_skew\":{},\
                 \"max_queue_depth\":{}}}",
                s.deliveries, s.skewed_deliveries, s.max_pulse_skew, s.max_queue_depth
            );
        }
        let _ = write!(
            out,
            ",\"messages_retransmitted\":{},\"messages_deduped\":{},\"faults_injected\":{}",
            self.messages_retransmitted, self.messages_deduped, self.faults_injected
        );
        let _ = write!(
            out,
            ",\"state_bytes_total\":{},\"state_bytes_peak\":{}",
            self.state_bytes_total, self.state_bytes_peak
        );
        out.push_str(",\"stragglers\":[");
        json::join(&mut out, &self.stragglers, |out, s| {
            write!(
                out,
                "{{\"kind\":\"{}\",\"round\":{},\"worker\":{},\"value\":{},\"baseline\":{}}}",
                s.kind,
                s.round,
                s.worker.map_or(-1, |w| w as i64),
                s.value,
                s.baseline
            )
        });
        out.push_str("]}");
        out
    }

    /// Renders the run as Chrome/Perfetto Trace Event JSON (the
    /// `--perfetto FILE` payload; open at <https://ui.perfetto.dev>).
    ///
    /// Layout: tid 0 carries the phase spans with the round spans nested
    /// inside them (exact cumulative timestamps, so containment — and
    /// therefore Perfetto's nesting — is structural, not approximate);
    /// tid `10 + w` carries worker `w`'s busy span per round with its
    /// lane-routing slice nested inside; a counter track plots per-round
    /// inbox messages.
    pub fn to_perfetto_json(&self) -> String {
        use std::fmt::Write as _;
        // ns → µs with sub-µs precision preserved; the Trace Event
        // format's `ts`/`dur` unit is microseconds.
        fn us(ns: u64) -> f64 {
            ns as f64 / 1e3
        }
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"schema_version\":{SCHEMA_VERSION},\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        );
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"distbc [{}]\"}}}}",
            self.engine
        );
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"rounds\"}}}}"
        );
        let n_workers = self
            .round_log
            .iter()
            .map(|s| s.worker_busy_ns.len())
            .max()
            .unwrap_or(0);
        for w in 0..n_workers {
            let _ = write!(
                out,
                ",{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"worker {w}\"}}}}",
                10 + w
            );
        }
        // Phase spans sit on the same virtual timeline as the rounds:
        // a phase [start, end) begins at the cumulative duration of all
        // rounds before `start`, so every round event is strictly
        // contained in its phase event.
        let starts: Vec<u64> = {
            let mut acc = 0u64;
            self.round_log
                .iter()
                .map(|s| {
                    let t = acc;
                    acc += s.total_ns;
                    t
                })
                .collect()
        };
        let total_ns: u64 = self.round_log.iter().map(|s| s.total_ns).sum();
        for p in &self.phases {
            let lo = starts.get(p.start as usize).copied().unwrap_or(total_ns);
            let hi = starts.get(p.end as usize).copied().unwrap_or(total_ns);
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"cat\":\"phase\",\"name\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"rounds\":{}}}}}",
                p.name,
                us(lo),
                us(hi.saturating_sub(lo)),
                p.rounds
            );
        }
        for (span, &t0) in self.round_log.iter().zip(&starts) {
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"cat\":\"round\",\"name\":\"round {}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"inbox\":{},\"stepped\":{}}}}}",
                span.round,
                us(t0),
                us(span.total_ns),
                span.inbox_messages,
                span.nodes_stepped
            );
            for (w, &busy) in span.worker_busy_ns.iter().enumerate() {
                if busy == 0 {
                    continue;
                }
                let _ = write!(
                    out,
                    ",{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"worker\",\
                     \"name\":\"busy r{}\",\"ts\":{:.3},\"dur\":{:.3}}}",
                    10 + w,
                    span.round,
                    us(t0),
                    us(busy.min(span.total_ns))
                );
                let route = span.worker_route_ns.get(w).copied().unwrap_or(0);
                if route > 0 {
                    let _ = write!(
                        out,
                        ",{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"cat\":\"lane\",\
                         \"name\":\"route r{}\",\"ts\":{:.3},\"dur\":{:.3}}}",
                        10 + w,
                        span.round,
                        us(t0),
                        us(route.min(busy))
                    );
                }
            }
            let _ = write!(
                out,
                ",{{\"ph\":\"C\",\"pid\":0,\"name\":\"inbox messages\",\"ts\":{:.3},\
                 \"args\":{{\"messages\":{}}}}}",
                us(t0),
                span.inbox_messages
            );
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile [{}]: {} rounds, {:.3} ms wall = {:.3} ms node compute ({:.1}%) \
             + {:.3} ms engine overhead",
            self.engine,
            self.rounds,
            ms(self.wall_ns),
            ms(self.compute_ns),
            100.0 * self.compute_fraction(),
            ms(self.overhead_ns),
        )?;
        writeln!(f, "max inbox depth: {} messages", self.max_inbox_depth)?;
        if self.nodes_stepped > 0 {
            writeln!(f, "nodes stepped: {}", self.nodes_stepped)?;
        }
        if self.state_bytes_total > 0 {
            writeln!(
                f,
                "node state: {} bytes total, {} peak/node",
                self.state_bytes_total, self.state_bytes_peak
            )?;
        }
        if !self.phases.is_empty() {
            writeln!(
                f,
                "{:<16} {:>14} {:>8} {:>12} {:>12} {:>12} {:>10}",
                "phase", "span", "rounds", "wall ms", "compute ms", "overhead ms", "inbox msgs"
            )?;
            for p in &self.phases {
                writeln!(
                    f,
                    "{:<16} {:>6}..{:<6} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>10}",
                    p.name,
                    p.start,
                    p.end,
                    p.rounds,
                    ms(p.wall_ns),
                    ms(p.compute_ns),
                    ms(p.overhead_ns),
                    p.inbox_messages,
                )?;
            }
        }
        if let Some(w) = &self.workers {
            writeln!(
                f,
                "workers: {} threads, utilization {:.1}%, imbalance {:.2}x, \
                 critical path {:.3} ms, routing {:.3} ms",
                w.workers,
                100.0 * w.utilization,
                w.imbalance,
                ms(w.critical_path_ns),
                ms(w.route_ns),
            )?;
        }
        if self.cross_shard_messages > 0 || self.intra_shard_messages > 0 {
            writeln!(
                f,
                "data plane: {} intra-shard + {} cross-shard messages",
                self.intra_shard_messages, self.cross_shard_messages,
            )?;
        }
        if let Some(s) = &self.sync {
            writeln!(
                f,
                "synchronizer: {} payload deliveries ({} skewed, max pulse skew {}), \
                 max event-queue depth {}",
                s.deliveries, s.skewed_deliveries, s.max_pulse_skew, s.max_queue_depth,
            )?;
        }
        if self.faults_injected > 0 || self.messages_retransmitted > 0 || self.messages_deduped > 0
        {
            writeln!(
                f,
                "reliability: {} faults injected, {} retransmits, {} duplicates discarded",
                self.faults_injected, self.messages_retransmitted, self.messages_deduped,
            )?;
        }
        if !self.stragglers.is_empty() {
            let s = &self.stragglers[0];
            write!(
                f,
                "stragglers: {} flagged (worst: {} round {}",
                self.stragglers.len(),
                s.kind,
                s.round
            )?;
            if let Some(w) = s.worker {
                write!(f, " worker {w}")?;
            }
            writeln!(
                f,
                ", {:.1}x the median baseline)",
                s.value as f64 / s.baseline.max(1) as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(round: u64, total: u64, compute: u64, inbox: u64, workers: &[u64]) -> RoundRecord {
        RoundRecord {
            round,
            total_ns: total,
            compute_ns: compute,
            inbox_messages: inbox,
            worker_busy_ns: workers.to_vec(),
            ..RoundRecord::default()
        }
    }

    fn phases() -> Vec<(String, u64, u64)> {
        vec![
            ("A:tree".to_string(), 0, 1),
            ("B:counting".to_string(), 1, 2),
        ]
    }

    #[test]
    fn totals_and_phase_slicing() {
        let rounds = vec![
            span(0, 100, 60, 2, &[]),
            span(1, 200, 150, 5, &[]),
            span(2, 50, 10, 1, &[]),
        ];
        let windows = [("B".to_string(), 1, 3), ("D".to_string(), 2, 10)];
        let rep = ProfileReport::from_rounds("serial", rounds, &windows);
        assert_eq!(rep.wall_ns, 350);
        assert_eq!(rep.compute_ns, 220);
        let ph = &rep.phases[0];
        assert_eq!(ph.rounds, 2);
        assert_eq!(ph.wall_ns, 250);
        assert_eq!(ph.compute_ns, 160);
        assert_eq!(ph.overhead_ns, 90);
        assert_eq!(ph.inbox_messages, 6);
        // Windows past the recording are silent.
        let tail = &rep.phases[1];
        assert_eq!(tail.rounds, 8);
        assert_eq!(tail.wall_ns, 50);
    }

    #[test]
    fn worker_stats_balanced_vs_skewed() {
        let stats = |workers: &[u64]| {
            ProfileReport::from_rounds("x", vec![span(0, 100, 80, 0, workers)], &[]).workers
        };
        let w = stats(&[40, 40]).unwrap();
        assert_eq!(w.workers, 2);
        assert!((w.utilization - 1.0).abs() < 1e-9);
        assert!((w.imbalance - 1.0).abs() < 1e-9);

        let w = stats(&[60, 20]).unwrap();
        assert!((w.utilization - 80.0 / 120.0).abs() < 1e-9);
        assert!((w.imbalance - 1.5).abs() < 1e-9);

        // Serial recordings have no worker stats.
        assert!(stats(&[]).is_none());
    }

    #[test]
    fn report_renders_and_encodes() {
        let rounds = vec![
            span(0, 100, 60, 3, &[30, 30]),
            span(1, 100, 80, 4, &[50, 30]),
        ];
        let mut rep = ProfileReport::from_rounds("parallel(2)", rounds, &phases());
        rep.sync = Some(SyncStats {
            deliveries: 10,
            max_pulse_skew: 1,
            ..SyncStats::default()
        });
        assert_eq!(rep.rounds, 2);
        assert_eq!(rep.wall_ns, 200);
        assert_eq!(rep.compute_ns, 140);
        assert_eq!(rep.overhead_ns, 60);
        assert_eq!(rep.max_inbox_depth, 4);
        assert_eq!(rep.phases.len(), 2);
        assert!(rep.workers.is_some());
        let text = rep.to_string();
        assert!(text.contains("parallel(2)"));
        assert!(text.contains("B:counting"));
        assert!(text.contains("synchronizer"));
        let json = rep.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"engine\":\"parallel(2)\""));
        assert!(json.contains("\"workers\":{"));
        assert!(json.contains("\"sync\":{"));
        assert!(json.contains("\"phases\":["));
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"stragglers\":["));
    }

    #[test]
    fn straggler_detector_flags_busy_worker_and_deep_inbox() {
        // One worker 10x the round's median busy time, over the floor.
        let mut rounds = vec![span(
            0,
            3_000_000,
            0,
            4,
            &[250_000, 2_500_000, 260_000, 240_000],
        )];
        // Enough quiet rounds to establish an inbox-depth baseline…
        for r in 1..9 {
            rounds.push(span(r, 100_000, 0, 4, &[90_000, 90_000, 90_000, 90_000]));
        }
        // …then one round with a 25x inbox spike.
        rounds.push(span(9, 100_000, 0, 100, &[90_000, 90_000, 90_000, 90_000]));
        let rep = ProfileReport::from_rounds("parallel(4)", rounds, &[]);
        assert!(
            rep.stragglers
                .iter()
                .any(|s| s.kind == "worker_busy" && s.round == 0 && s.worker == Some(1)),
            "missing worker_busy straggler in {:?}",
            rep.stragglers
        );
        assert!(
            rep.stragglers
                .iter()
                .any(|s| s.kind == "inbox_depth" && s.round == 9 && s.worker.is_none()),
            "missing inbox_depth straggler in {:?}",
            rep.stragglers
        );
        let json = rep.to_json();
        assert!(json.contains("\"kind\":\"worker_busy\""));
        assert!(rep.to_string().contains("stragglers:"));
    }

    #[test]
    fn straggler_detector_stays_quiet_on_balanced_runs() {
        let rounds = (0..10)
            .map(|r| span(r, 1_000_000, 0, 40, &[450_000, 460_000, 440_000, 455_000]))
            .collect();
        let rep = ProfileReport::from_rounds("parallel(4)", rounds, &[]);
        assert!(rep.stragglers.is_empty(), "{:?}", rep.stragglers);
    }

    #[test]
    fn inbox_baseline_is_taken_per_phase() {
        // Twenty quiet tree rounds, then ten uniformly busy counting
        // rounds: against a run-wide median of 4 every counting round
        // would be flagged; against its own phase none is.
        let mut rounds: Vec<RoundRecord> = (0..20).map(|r| span(r, 1_000, 0, 4, &[])).collect();
        rounds.extend((20..30).map(|r| span(r, 1_000, 0, 1_000, &[])));
        let windows = [
            ("A:tree".to_string(), 0, 20),
            ("B:counting".to_string(), 20, 30),
        ];
        let rep = ProfileReport::from_rounds("serial", rounds.clone(), &windows);
        assert!(rep.stragglers.is_empty(), "{:?}", rep.stragglers);
        // One spike inside the busy phase is still flagged, against that
        // phase's median.
        rounds[25].inbox_messages = 10_000;
        let rep = ProfileReport::from_rounds("serial", rounds, &windows);
        let flagged: Vec<(u64, u64)> = rep
            .stragglers
            .iter()
            .map(|s| (s.round, s.baseline))
            .collect();
        assert_eq!(flagged, [(25, 1_000)]);
    }

    #[test]
    fn perfetto_export_nests_rounds_inside_phases() {
        let rounds = vec![
            RoundRecord {
                round: 0,
                total_ns: 2_000,
                compute_ns: 1_500,
                inbox_messages: 3,
                worker_busy_ns: vec![1_800, 900],
                worker_route_ns: vec![200, 100],
                ..RoundRecord::default()
            },
            RoundRecord {
                round: 1,
                total_ns: 3_000,
                compute_ns: 2_000,
                inbox_messages: 5,
                worker_busy_ns: vec![2_500, 2_400],
                worker_route_ns: vec![0, 300],
                ..RoundRecord::default()
            },
        ];
        let rep = ProfileReport::from_rounds("parallel(2)", rounds, &phases());
        let json = rep.to_perfetto_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Phase A covers exactly round 0: [0, 2) µs; round 1 starts where
        // phase B starts.
        assert!(json.contains("\"name\":\"A:tree\",\"ts\":0.000,\"dur\":2.000"));
        assert!(json.contains("\"name\":\"B:counting\",\"ts\":2.000,\"dur\":3.000"));
        assert!(json.contains("\"name\":\"round 1\",\"ts\":2.000,\"dur\":3.000"));
        // Worker busy spans are clamped into their round, lanes into busy.
        assert!(json.contains("\"cat\":\"worker\",\"name\":\"busy r0\",\"ts\":0.000,\"dur\":1.800"));
        assert!(json.contains("\"cat\":\"lane\",\"name\":\"route r0\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        // Every event object is well-formed enough to balance braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in perfetto json"
        );
    }

    #[test]
    fn route_and_shard_counters_flow_into_report() {
        let round = |round, route: Vec<u64>, cross, intra| RoundRecord {
            round,
            total_ns: 100,
            compute_ns: 60,
            worker_busy_ns: vec![40, 40],
            worker_route_ns: route,
            cross_shard_messages: cross,
            intra_shard_messages: intra,
            ..RoundRecord::default()
        };
        let rounds = vec![round(0, vec![10, 5], 3, 7), round(1, vec![2, 3], 1, 9)];
        let rep = ProfileReport::from_rounds("parallel(2)", rounds, &[]);
        assert_eq!(rep.cross_shard_messages, 4);
        assert_eq!(rep.intra_shard_messages, 16);
        assert_eq!(rep.workers.unwrap().route_ns, 20);
        let json = rep.to_json();
        assert!(json.contains("\"cross_shard_messages\":4"));
        assert!(json.contains("\"intra_shard_messages\":16"));
        assert!(json.contains("\"route_ns\":20"));
        let text = rep.to_string();
        assert!(text.contains("routing 0.000 ms") || text.contains("routing"));
        assert!(text.contains("data plane: 16 intra-shard + 4 cross-shard"));
    }

    #[test]
    fn empty_round_log_reports_zeroes() {
        let rep = ProfileReport::from_rounds("serial", Vec::new(), &[]);
        assert_eq!(rep.wall_ns, 0);
        assert_eq!(rep.compute_fraction(), 0.0);
        assert!(rep.workers.is_none());
        assert!(rep.sync.is_none());
    }
}
