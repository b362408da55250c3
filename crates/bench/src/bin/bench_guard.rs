//! CI guard against round-engine wall-clock regressions.
//!
//! Usage:
//!   bench_guard FRESH.json BASELINE.json [--threshold FACTOR] [--metric NAME]
//!
//! Both files hold the `{"profiles":[{"graph":...,"profile":{...}},...]}`
//! shape written by E15 (`BENCH_profile.json`), E16 (`BENCH_engine.json`),
//! and E17 (`BENCH_faults.json`), or the flat `{"graph":...,"engine":...}`
//! records of the other `BENCH_*.json` files. Each file is parsed as JSON
//! and its `profiles` array walked: a record's `graph` is its own field,
//! its `engine` and metric are its own fields or those of its nested
//! `profile`, so field order does not matter and a record without the
//! metric is skipped. Every `(graph, engine)` key present in
//! *both* files is compared: the run fails (exit 1) when any fresh metric
//! value exceeds `FACTOR ×` its baseline (default 1.25), or when the files
//! share no keys at all — a silent no-op guard is itself a failure.
//!
//! `--metric` selects which unsigned-integer field of each record is
//! compared (default `wall_ns`); a value of any other kind exits 2. Wall
//! clocks are host-dependent, so that default is only meaningful when
//! fresh and baseline numbers come from comparable machines (in CI: the
//! same runner class); the generous default threshold absorbs runner
//! noise while still catching engine-level slowdowns.
//! E17's `--metric overhead_permille` is deterministic (a rounds ratio)
//! and compares exactly across hosts.
//!
//! Both files must carry a top-level `"schema_version"` matching the
//! version this binary was built against ([`bc_congest::SCHEMA_VERSION`]);
//! a missing or unknown version exits 2 instead of silently comparing
//! mismatched shapes.

use bc_congest::{json, SCHEMA_VERSION};
use std::process::exit;

/// One `(graph, engine) → metric` record of a profiles file.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    graph: String,
    engine: String,
    value: u64,
}

/// The record of one `profiles[*]` entry, or `None` if it lacks `metric`.
/// `graph` is the entry's own field; `engine` and the metric are its own
/// or, failing that, those of its nested `profile`.
fn record(entry: &json::Value, metric: &str) -> Result<Option<Record>, String> {
    let entry = entry.as_object()?;
    let nested = entry.opt("profile").and_then(|p| p.as_object().ok());
    let lookup = |key: &str| entry.opt(key).or_else(|| nested?.opt(key));
    let Some(value) = lookup(metric) else {
        return Ok(None);
    };
    let engine = lookup("engine").ok_or("missing field \"engine\"")?;
    Ok(Some(Record {
        graph: entry.str("graph")?.to_string(),
        engine: engine.as_str()?.to_string(),
        value: value
            .as_u64()
            .map_err(|e| format!("field {metric:?}: {e}"))?,
    }))
}

/// The records of a profiles document that carry `metric`.
fn parse_profiles(doc: &json::Object, metric: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, entry) in doc.get("profiles")?.as_array()?.iter().enumerate() {
        records.extend(record(entry, metric).map_err(|e| format!("profiles[{i}]: {e}"))?);
    }
    Ok(records)
}

/// Reports a file that cannot be compared and exits 2.
fn refuse(path: &str, why: &str) -> ! {
    eprintln!("bench_guard: {path}: {why}");
    exit(2);
}

fn read_profiles(path: &str, metric: &str) -> Vec<Record> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_guard: cannot read {path}: {e}");
        exit(2);
    });
    let doc = json::parse(&text).unwrap_or_else(|e| refuse(path, &e));
    let doc = doc.as_object().unwrap_or_else(|e| refuse(path, &e));
    match doc.opt("schema_version").map(json::Value::as_u64) {
        None => {
            eprintln!(
                "bench_guard: {path} has no schema_version field — refusing to compare \
                 an unversioned artifact (expected schema_version {SCHEMA_VERSION})"
            );
            exit(2);
        }
        Some(Ok(v)) if v != u64::from(SCHEMA_VERSION) => {
            eprintln!(
                "bench_guard: {path} carries schema_version {v}, but this binary \
                 understands schema_version {SCHEMA_VERSION} — regenerate the artifact \
                 or update the baseline"
            );
            exit(2);
        }
        Some(Err(e)) => refuse(path, &format!("schema_version: {e}")),
        Some(Ok(_)) => {}
    }
    let records = parse_profiles(doc, metric).unwrap_or_else(|e| refuse(path, &e));
    if records.is_empty() {
        eprintln!("bench_guard: {path} holds no (graph, engine, {metric}) records");
        exit(2);
    }
    records
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 1.25f64;
    let mut metric = String::from("wall_ns");
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" {
            threshold = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("bench_guard: --threshold needs a number");
                    exit(2);
                });
            i += 2;
        } else if args[i] == "--metric" {
            metric = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("bench_guard: --metric needs a field name");
                exit(2);
            });
            i += 2;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    let [fresh_path, baseline_path] = paths.as_slice() else {
        eprintln!(
            "usage: bench_guard FRESH.json BASELINE.json [--threshold FACTOR] [--metric NAME]"
        );
        exit(2);
    };
    let fresh = read_profiles(fresh_path, &metric);
    let baseline = read_profiles(baseline_path, &metric);

    let mut compared = 0usize;
    let mut regressions: Vec<(Record, u64, f64)> = Vec::new();
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>7}",
        "graph",
        "engine",
        format!("base {metric}"),
        format!("fresh {metric}"),
        "ratio"
    );
    for f in &fresh {
        let Some(b) = baseline
            .iter()
            .find(|b| b.graph == f.graph && b.engine == f.engine)
        else {
            continue;
        };
        compared += 1;
        let ratio = f.value as f64 / b.value.max(1) as f64;
        let verdict = if ratio > threshold {
            regressions.push((f.clone(), b.value, ratio));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{:<20} {:<16} {:>12} {:>12} {:>6.2}x {}",
            f.graph, f.engine, b.value, f.value, ratio, verdict
        );
    }
    if compared == 0 {
        eprintln!(
            "bench_guard: no (graph, engine) keys shared between {fresh_path} and \
             {baseline_path} — the guard compared nothing"
        );
        exit(1);
    }
    println!(
        "compared {compared} records, threshold {threshold}x, {} regressed",
        regressions.len()
    );
    if !regressions.is_empty() {
        // A CI failure is read far from this table: spell out exactly what
        // regressed, against which baseline file, and by how much.
        for (f, base, ratio) in &regressions {
            eprintln!(
                "bench_guard: REGRESSED ({graph}, {engine}): {metric} {fresh} vs baseline \
                 {base} in {baseline_path} — {ratio:.2}x exceeds the allowed {threshold}x \
                 (max permitted: {max})",
                graph = f.graph,
                engine = f.engine,
                fresh = f.value,
                max = (*base as f64 * threshold) as u64,
            );
        }
        exit(1);
    }
}
