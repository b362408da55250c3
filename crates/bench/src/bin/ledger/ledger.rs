//! `ledger` — the repository's benchmark: four workloads, each verified,
//! with end-to-end metrics from an untraced pass and per-layer metrics from
//! a separate traced pass. Metric names, units, directions and bounds come
//! from `BENCHMARK.json`.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--quick]
//! ledger diff A.json B.json
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a child
//! process. `--trace 1` adds the traced pass and prints the per-layer
//! metrics; `--trace FILE` also appends the spans of the coarse calls to
//! FILE as JSON lines. The command in `BENCHMARK.json` is run with
//! `--workload`, `--seed`, `--seconds` (its `run_seconds`, also the default)
//! and `--trace 0|1`. Each workload prints
//! its metrics by name with their units, then one JSON record line; the last
//! line of standard output is a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only if every
//! output verified.

mod compute;
mod diff;
mod json;
mod measure;
mod serve;
mod spec;
mod timed;

use json::{number, quote};
use measure::Tracer;
use spec::Spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Run settings every workload reads.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Drives every generated input: graphs, the sample, the mutations, the
    /// reader's node sequence.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced pass after the untraced one.
    pub trace: bool,
    /// Shrink every workload (tests).
    pub quick: bool,
}

/// What one workload measured and whether its outputs verified.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// First and third quartile and sample size of the repetitions behind a
    /// median metric; `ledger diff` reads them as the run's spread.
    pub quartiles: BTreeMap<&'static str, (f64, f64, usize)>,
    /// Human-readable detail: quartiles, sample counts, histograms.
    pub notes: Vec<String>,
    /// Whether the traced replica's `NetMetrics` equalled the driver run's.
    pub replica_matched: Option<bool>,
    /// `/proc` is unavailable, so `peak_rss_mb` is missing by necessity.
    pub peak_rss_unavailable: bool,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets `name` to the median of `xs`, keeping its quartiles and sample
    /// size for the record and the notes. Returns the median.
    pub fn set_median(&mut self, name: &'static str, xs: &[f64], unit: &str) -> f64 {
        let (q1, q3) = (measure::quantile(xs, 0.25), measure::quantile(xs, 0.75));
        let med = measure::median(xs);
        self.set(name, med);
        self.quartiles.insert(name, (q1, q3, xs.len()));
        self.note(format!("{name}: {}", measure::describe(xs, unit)));
        med
    }

    /// Counts one verified operation, recording why it failed if it did.
    pub fn attempt(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.fail(why);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        // A failing reader can fail thousands of batches; keep the first few.
        if self.problems.len() < 16 {
            self.problems.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds the counts of operations verified on another thread.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 16 {
                self.problems.push(p);
            }
        }
    }
}

/// One workload's two passes. `measure` sets up, warms up, measures for
/// `ctx.seconds` untraced and verifies every output; `trace` then measures
/// the layers. Peak memory is read between the two.
pub trait Job {
    fn measure(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: usize, out: &mut Outcome);
    fn trace(&self, ctx: &Ctx, tr: &mut Tracer, parent: usize, out: &mut Outcome);
}

pub const WORKLOADS: [&str; 4] = [
    "exact-er1024",
    "sampled-ba4096",
    "shards2-ba512",
    "serve-er512",
];

fn job(name: &str, ctx: &Ctx) -> Box<dyn Job> {
    match name {
        "exact-er1024" => Box::new(compute::Compute::new(compute::Kind::Exact, ctx)),
        "sampled-ba4096" => Box::new(compute::Compute::new(compute::Kind::Sampled, ctx)),
        "shards2-ba512" => Box::new(compute::Compute::new(compute::Kind::Shards, ctx)),
        "serve-er512" => Box::new(serve::Serve::new(ctx)),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Runs one workload through both passes.
pub fn run_workload(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut job = job(name, ctx);
    let peak_tracked = measure::reset_peak_rss();
    tr.span(name, None, |tr, root| {
        job.measure(ctx, tr, root, &mut out);
        match measure::peak_rss_mb() {
            Some(mb) if peak_tracked => out.set("peak_rss_mb", mb),
            _ => {
                out.peak_rss_unavailable = true;
                out.note("peak_rss_mb: /proc is unavailable, so peak memory is missing".into());
            }
        }
        if ctx.trace {
            tr.span("traced", Some(root), |tr, id| {
                job.trace(ctx, tr, id, &mut out)
            });
        }
    });
    out
}

/// A workload's printed result: the human-readable block; the JSON record,
/// which carries the workload's name and every metric measured, with the
/// quartiles of the repetitions behind each median (for `ledger diff`); the
/// metrics object of the final line (end-to-end metrics untraced, per-layer
/// metrics traced); and whether every output verified and every printed
/// metric is present and finite.
pub struct Rendered {
    pub text: String,
    pub record: String,
    pub metrics_json: String,
    pub correct: bool,
}

pub fn render(name: &str, ctx: &Ctx, spec: &Spec, out: &Outcome) -> Rendered {
    let mut text = format!("== {name} (seed {})\n", ctx.seed);
    let mut complete = true;
    // Each present metric as a (final line, record) pair of JSON fields.
    let mut group = |metrics: &[spec::MetricSpec], layer: bool| -> Vec<(String, String)> {
        metrics
            .iter()
            .filter_map(|m| {
                // A layer the workload never crosses reads 0; an end-to-end
                // metric must be measured, except peak memory without /proc.
                let value = match out.metrics.get(m.name.as_str()) {
                    Some(&v) => Some(v).filter(|v| v.is_finite()),
                    None if layer => Some(0.0),
                    None => None,
                };
                complete &=
                    value.is_some() || (m.name == "peak_rss_mb" && out.peak_rss_unavailable);
                let shown = value.map_or("missing".to_string(), number);
                let _ = writeln!(text, "  {:<28} {shown} {}", m.name, m.unit);
                let head = format!(
                    "{}:{{\"value\":{},\"unit\":{}",
                    quote(&m.name),
                    number(value?),
                    quote(&m.unit)
                );
                let spread = match out.quartiles.get(m.name.as_str()) {
                    Some(&(q1, q3, n)) => {
                        format!(",\"q1\":{},\"q3\":{},\"n\":{n}", number(q1), number(q3))
                    }
                    None => String::new(),
                };
                Some((format!("{head}}}"), format!("{head}{spread}}}")))
            })
            .collect()
    };
    let e2e = group(&spec.end_to_end, false);
    let layer = if ctx.trace {
        group(&spec.per_layer, true)
    } else {
        Vec::new()
    };
    let shown = if ctx.trace { &layer } else { &e2e };
    let metrics_json = format!(
        "{{{}}}",
        shown
            .iter()
            .map(|(f, _)| f.as_str())
            .collect::<Vec<_>>()
            .join(",")
    );
    let fields: Vec<&str> = e2e.iter().chain(&layer).map(|(_, r)| r.as_str()).collect();
    for note in &out.notes {
        let _ = writeln!(text, "  # {note}");
    }
    for p in &out.problems {
        let _ = writeln!(text, "  ! {p}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(
        text,
        "  attempted {}, failed {}, failed_frac {}",
        out.attempted,
        out.failed,
        number(failed_frac)
    );
    let correct = complete && out.failed == 0 && out.attempted > 0;
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        quote(name),
        ctx.seed,
        u8::from(ctx.trace),
        out.attempted,
        out.failed,
        fields.join(",")
    );
    Rendered {
        text,
        record,
        metrics_json,
        correct,
    }
}

struct Args {
    workload: Option<String>,
    ctx: Ctx,
    spans: Option<String>,
}

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--quick]\n       ledger diff A.json B.json";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        ctx: Ctx {
            seed: 7,
            seconds: f64::NAN,
            trace: false,
            quick: false,
        },
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.ctx.seconds = s;
            }
            "--trace" => match value()?.as_str() {
                "0" => a.ctx.trace = false,
                "1" => a.ctx.trace = true,
                file => {
                    a.ctx.trace = true;
                    a.spans = Some(file.to_string());
                }
            },
            "--quick" => a.ctx.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.ctx.seconds.is_nan() {
        a.ctx.seconds = if a.ctx.quick {
            0.3
        } else {
            Spec::load().run_seconds
        };
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        let code = match &args[1..] {
            [a, b] => diff::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        };
        std::process::exit(code);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(name) = &args.workload else {
        std::process::exit(run_each(&args));
    };
    let spec = Spec::load();
    let mut tr = Tracer::default();
    let out = run_workload(name, &args.ctx, &mut tr);
    let r = render(name, &args.ctx, &spec, &out);
    print!("{}", r.text);
    println!("{}", r.record);
    let mut correct = r.correct;
    if let Some(path) = &args.spans {
        if let Err(e) = tr.append_jsonl(path) {
            eprintln!("ledger: cannot write spans to {path}: {e}");
            correct = false;
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted, out.failed, r.metrics_json
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Runs every workload, each in a child process of its own so that peak
/// memory and allocator state do not carry from one to the next, and sums
/// their verdicts into the final line (their metrics are in the records).
fn run_each(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot find its own executable: {e}");
            return 1;
        }
    };
    let trace = match (&args.spans, args.ctx.trace) {
        (Some(file), _) => file.clone(),
        (None, t) => u8::from(t).to_string(),
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for name in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--trace", &trace]);
        cmd.args(["--seed", &args.ctx.seed.to_string()]);
        cmd.args(["--seconds", &args.ctx.seconds.to_string()]);
        if args.ctx.quick {
            cmd.arg("--quick");
        }
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ledger: cannot run {name}: {e}");
                correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().and_then(|l| json::Json::parse(l).ok());
        for line in lines {
            println!("{line}");
        }
        let count = |key: &str| {
            last.as_ref()
                .and_then(|j| j.get(key))
                .and_then(json::Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        attempted += count("attempted");
        failed += count("failed");
        // A child exits 0 only if its outputs verified.
        correct &= output.status.success();
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{}}}}"
    );
    i32::from(!correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, shrunk, through both passes: every metric named in
    /// `BENCHMARK.json` is printed finite with its unit, every output
    /// verifies, and each traced replica reproduced its driver run's
    /// `NetMetrics` exactly.
    #[test]
    fn every_workload_prints_every_catalogued_metric() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, WORKLOADS);
        let mut tr = Tracer::default();
        for name in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 3,
                    seconds: 0.3,
                    trace,
                    quick: true,
                };
                let out = run_workload(name, &ctx, &mut tr);
                let r = render(name, &ctx, &spec, &out);
                assert!(r.correct, "{name}: {}", r.text);
                assert_eq!(out.failed, 0, "{name}: {:?}", out.problems);
                let shown: Vec<&spec::MetricSpec> = if trace {
                    spec.end_to_end.iter().chain(&spec.per_layer).collect()
                } else {
                    spec.end_to_end.iter().collect()
                };
                for m in &shown {
                    let row = r
                        .text
                        .lines()
                        .find(|l| l.split_whitespace().next() == Some(m.name.as_str()))
                        .unwrap_or_else(|| panic!("{name}: {} not printed", m.name));
                    let cols: Vec<&str> = row.split_whitespace().collect();
                    let value: f64 = cols[1].parse().expect("a number");
                    assert!(value.is_finite(), "{name}: {row}");
                    assert_eq!(cols[2], m.unit, "{name}: {row}");
                }
                let record = json::Json::parse(&r.record).expect("record is JSON");
                let metrics = record
                    .get("metrics")
                    .and_then(json::Json::as_object)
                    .unwrap();
                assert_eq!(metrics.len(), shown.len());
                // The final line carries exactly one of the two groups.
                let last = json::Json::parse(&r.metrics_json).expect("metrics are JSON");
                let group = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let names: Vec<&str> = last
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert!(names.into_iter().eq(group.iter().map(|m| m.name.as_str())));
                // The medians carry their run's quartiles for `ledger diff`.
                for key in ["setup_s", "wall_s"] {
                    let m = metrics.iter().find(|(k, _)| k == key).unwrap();
                    assert!(m.1.get("q1").is_some() && m.1.get("q3").is_some(), "{key}");
                }
                if trace && name != "serve-er512" {
                    assert_eq!(out.replica_matched, Some(true), "{name}");
                }
                if !trace {
                    missing_peak_memory_fails_only_with_proc(name, &ctx, &spec, out);
                }
            }
        }
    }

    /// Without /proc, peak memory is reported missing and the run still
    /// verifies; with /proc, a missing end-to-end metric fails the run.
    fn missing_peak_memory_fails_only_with_proc(
        name: &str,
        ctx: &Ctx,
        spec: &Spec,
        mut out: Outcome,
    ) {
        out.metrics.remove("peak_rss_mb");
        out.peak_rss_unavailable = true;
        let r = render(name, ctx, spec, &out);
        assert!(r.correct, "{name}: {}", r.text);
        assert!(r
            .text
            .lines()
            .any(|l| l.split_whitespace().eq(["peak_rss_mb", "missing", "MB"])));
        assert!(!r.metrics_json.contains("peak_rss_mb"));
        out.peak_rss_unavailable = false;
        assert!(!render(name, ctx, spec, &out).correct, "{name}");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload serve-er512 --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-er512"));
        assert_eq!((a.ctx.seed, a.ctx.seconds, a.ctx.trace), (9, 2.0, true));
        assert!(a.spans.is_none());
        let a = parse_args(&args("--trace spans.jsonl")).unwrap();
        assert_eq!(a.spans.as_deref(), Some("spans.jsonl"));
        assert_eq!(a.ctx.seconds, Spec::load().run_seconds);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}
