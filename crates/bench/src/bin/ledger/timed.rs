//! `Timed<P>`: a protocol wrapper that times every node step from outside
//! the engine. Node steps are the hottest call in a run (millions of them),
//! so they are aggregated per node into a count, a total per phase and a
//! log₂ histogram rather than recorded as spans.

use crate::measure::Hist;
use bc_congest::{Message, Protocol, RoundCtx};
use bc_core::PhaseSchedule;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Phases in schedule order, as named in the `*.{phase}` metrics.
pub const PHASES: [&str; 4] = ["tree", "counting", "reduce", "agg"];

/// Step accounting of one node (or, after [`StepStats::merge`], a run).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    pub hist: Hist,
    pub inbox_msgs: u64,
    pub phase_ns: [u64; 4],
}

impl StepStats {
    pub fn merge(&mut self, other: &StepStats) {
        self.hist.merge(&other.hist);
        self.inbox_msgs += other.inbox_msgs;
        for (a, b) in self.phase_ns.iter_mut().zip(&other.phase_ns) {
            *a += b;
        }
    }

    pub fn secs(&self) -> f64 {
        self.hist.sum_ns as f64 * 1e-9
    }
}

/// Keeps every `every`-th inbound message of a run, counted across all
/// nodes, for replaying the codec after the run.
#[derive(Debug)]
pub struct Sampler {
    seen: AtomicU64,
    every: u64,
}

impl Sampler {
    pub fn new(every: u64) -> Arc<Sampler> {
        Arc::new(Sampler {
            seen: AtomicU64::new(0),
            every: every.max(1),
        })
    }
}

pub struct Timed<P> {
    inner: P,
    /// `counting_start`, `reduce_start`, `agg_start`: a step's round picks
    /// its phase.
    bounds: [u64; 3],
    stats: StepStats,
    sampler: Option<Arc<Sampler>>,
    samples: Vec<Message>,
}

impl<P> Timed<P> {
    pub fn new(inner: P, sched: &PhaseSchedule, sampler: Option<Arc<Sampler>>) -> Self {
        Timed {
            inner,
            bounds: [sched.counting_start, sched.reduce_start, sched.agg_start],
            stats: StepStats::default(),
            sampler,
            samples: Vec::new(),
        }
    }

    pub fn into_parts(self) -> (P, StepStats, Vec<Message>) {
        (self.inner, self.stats, self.samples)
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
        if let Some(s) = &self.sampler {
            let before = s.seen.fetch_add(inbox.len() as u64, Ordering::Relaxed);
            let first = (s.every - before % s.every) % s.every;
            for (_, m) in inbox.iter().skip(first as usize).step_by(s.every as usize) {
                self.samples.push(m.clone());
            }
        }
        let t = Instant::now();
        self.inner.round(ctx, inbox);
        let ns = t.elapsed().as_nanos() as u64;
        let phase = self.bounds.iter().filter(|&&b| b <= ctx.round()).count();
        self.stats.hist.record(ns);
        self.stats.phase_ns[phase] += ns;
        self.stats.inbox_msgs += inbox.len() as u64;
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn idle_at(&self, round: u64) -> bool {
        self.inner.idle_at(round)
    }
}
