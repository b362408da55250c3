//! Measurement plumbing shared by the workloads: order statistics, the span
//! recorder for coarse calls, peak memory, and scratch socket addresses.

use crate::json::quote;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The `q`-quantile of `xs` (`0 ≤ q ≤ 1`), interpolating between order
/// statistics; NaN for an empty sample. Infinite samples (failed requests)
/// sort last.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi] == v[lo] {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median and quartiles of a sample, with its size, for the printed notes.
pub fn describe(xs: &[f64], unit: &str) -> String {
    format!(
        "median {:.6} {unit}, q1 {:.6}, q3 {:.6}, n = {}",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        xs.len()
    )
}

/// A repetition count: at least `min_reps`, and more until `min_secs` have
/// passed, at most 10,000. Spreading short repetitions over a second keeps
/// their median from resting on one moment of a noisy host.
pub struct Reps {
    start: Instant,
    done: usize,
    min_reps: usize,
    min_secs: f64,
}

impl Reps {
    pub fn new(min_reps: usize, min_secs: f64) -> Reps {
        Reps {
            start: Instant::now(),
            done: 0,
            min_reps,
            min_secs,
        }
    }

    /// Whether to run another repetition (counting it).
    pub fn more(&mut self) -> bool {
        let go = self.done < self.min_reps
            || (self.start.elapsed().as_secs_f64() < self.min_secs && self.done < 10_000);
        self.done += go as usize;
        go
    }
}

/// How often a workload sets up: five times and for at least a second.
pub fn setup_reps(ctx: &crate::Ctx) -> Reps {
    if ctx.quick {
        Reps::new(2, 0.0)
    } else {
        Reps::new(5, 1.0)
    }
}

/// Repeats `f` as [`Reps`] says, returning each repetition's seconds.
pub fn repeat_timed(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    let mut reps = Reps::new(min_reps, min_secs);
    let mut times = Vec::new();
    while reps.more() {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// One coarse call: a named interval with the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of the coarse calls into each layer, kept in memory and written
/// out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// tracer and the new span's id so it can open children. Returns `f`'s
    /// value and the span's length in seconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Appends the spans to `path` as JSON lines. Ids are per process, so
    /// each line also carries the process id: one file can collect the
    /// spans of every workload's process.
    pub fn append_jsonl(&self, path: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        let pid = std::process::id();
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"pid\":{pid},\"id\":{id},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                quote(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A hot call aggregated rather than spanned: count, total, and a log₂
/// histogram of nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Hist {
    pub count: u64,
    pub sum_ns: u64,
    pub buckets: [u64; 40],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum_ns: 0,
            buckets: [0; 40],
        }
    }
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        let b = (64 - ns.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Non-empty buckets as `<2^b ns: count` pairs.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, c)| format!("<2^{b}ns:{c}"))
            .collect();
        parts.join(" ")
    }
}

/// Resets the kernel's peak-RSS mark to the current RSS; `false` where
/// `/proc` is unavailable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A fresh `unix:` address relative to the working directory: the ledger
/// writes only inside its checkout, and a relative path stays within the
/// 108-byte socket-path limit wherever the checkout lives.
pub fn socket_addr(tag: &str) -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("unix:ledger-{}-{tag}{seq}.sock", std::process::id())
}

/// Removes the socket file behind a `unix:` address.
pub fn remove_socket(addr: &str) {
    if let Some(path) = addr.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
    }
}
