//! Golden-output corpus: the output of a fixed matrix of small runs,
//! committed under `tests/golden/` and diffed byte for byte.
//!
//! Every other bit-identity check compares two engines of the same
//! commit; this one compares against the bytes a previous commit printed,
//! so a change that shifts every engine the same way fails here. Each
//! graph × variant records three files:
//!
//! - `<case>.csv`: the `--csv` centralities (scores only; the round and
//!   message summary goes to stderr);
//! - `<case>.profile.txt`: the stdout of `--trace F --profile --json
//!   --metrics --csv`, i.e. the profile object plus the per-phase
//!   counter table, through [`deterministic`];
//! - `<case>.trace-stats.json`: `trace-stats F --json` of that trace.
//!
//! The `socket2` column runs the four small graphs through two
//! `serve-shard` processes and a `--connect` leader and records the CSV
//! and the profile the same way (`--trace` is an in-process feature).
//! The serial, `threads2` and `socket2` cases record their profile a
//! second time with `--no-telemetry`, where the run profiles through a
//! private registry; both recordings must match the one file.
//! Some cases record the CSV and the profile without a trace, because
//! analysing their trace in a debug build would take most of the test's
//! time budget: `ba:512:2:7` (a 111 MB trace) and the reliable runs over
//! faults except on `path:64` (their traces hold every physical frame and
//! take 13–26 s each to analyse).
//!
//! Regenerate deliberately, and say why in the change log:
//!
//! ```text
//! cargo test --test golden -- --ignored bless
//! ```

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The graphs of the serial × engine × algorithm matrix.
const GRAPHS: [&str; 4] = ["path:64", "grid:12:12", "er:128:0.05:3", "ba:200:2:5"];

/// Variant name (file suffix) and the extra `centrality` flags it adds.
const VARIANTS: [(&str, &[&str]); 5] = [
    ("serial", &[]),
    ("threads2", &["--threads", "2"]),
    (
        "reliable-faults",
        &[
            "--reliable",
            "--faults",
            "drop=0.1,dup=0.05,delay=0.2:3",
            "--fault-seed",
            "11",
        ],
    ),
    ("sampled8", &["--algorithm", "sampled:8"]),
    (
        "sampled8-jiyan",
        &["--algorithm", "sampled:8", "--estimator", "jiyan"],
    ),
];

/// Flags of the observed (profile + counters) invocation.
const OBSERVED: [&str; 4] = ["--profile", "--json", "--metrics", "--csv"];

/// JSON keys whose values come from the wall clock: every `*_ns` key,
/// the worker utilization and imbalance derived from busy time, and the
/// straggler list (worker-busy anomalies are timed).
fn clock_key(key: &str) -> bool {
    key.ends_with("_ns") || matches!(key, "utilization" | "imbalance" | "stragglers")
}

/// Drops every wall-clock key (see [`clock_key`]) with its value and one
/// adjacent comma from JSON text; everything else passes through byte
/// for byte, so non-JSON lines (the counter CSV) are untouched.
fn deterministic(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'"' {
            let close = i + 1 + text[i + 1..].find('"').expect("closed string");
            let key = &text[i + 1..close];
            if b.get(close + 1) == Some(&b':') && clock_key(key) {
                let end = value_end(b, close + 2);
                if out.ends_with(',') {
                    out.pop();
                    i = end;
                } else {
                    i = if b.get(end) == Some(&b',') {
                        end + 1
                    } else {
                        end
                    };
                }
                continue;
            }
            out.push_str(&text[i..=close]);
            i = close + 1;
        } else {
            let next = text[i..].find('"').map_or(b.len(), |d| i + d);
            out.push_str(&text[i..next]);
            i = next;
        }
    }
    out
}

/// End of the JSON value starting at `start`: a scalar runs to the next
/// `,` `}` `]` or newline; an array or object to its matching bracket.
fn value_end(b: &[u8], start: usize) -> usize {
    let mut depth = 0usize;
    let mut in_str = false;
    for (j, &c) in b.iter().enumerate().skip(start) {
        match c {
            b'"' => in_str = !in_str,
            _ if in_str => {}
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            b',' | b'}' | b']' | b'\n' if depth == 0 => return j,
            _ => {}
        }
    }
    b.len()
}

/// How one corpus entry is run.
enum Mode {
    /// In process; `trace` adds `--trace` and the trace's statistics.
    Local { trace: bool },
    /// Two `serve-shard` processes and a `--connect` leader.
    Socket,
}

struct Case {
    /// File stem, `<graph>-<variant>`.
    stem: String,
    /// `centrality --generate <graph>` plus the variant's flags.
    args: Vec<String>,
    mode: Mode,
    /// Also record the profile with `--no-telemetry`.
    untelemetered: bool,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |graph: &str, variant: &str, extra: &[&str], mode: Mode| {
        let stem = format!("{}-{variant}", graph.replace(['.', ':'], "_"));
        let mut args: Vec<String> = vec!["centrality".into(), "--generate".into(), graph.into()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let untelemetered = matches!(variant, "serial" | "threads2" | "socket2");
        out.push(Case {
            stem,
            args,
            mode,
            untelemetered,
        });
    };
    for graph in GRAPHS {
        for (variant, extra) in VARIANTS {
            let trace = variant != "reliable-faults" || graph == "path:64";
            push(graph, variant, extra, Mode::Local { trace });
        }
    }
    push("ba:512:2:7", "serial", &[], Mode::Local { trace: false });
    for graph in GRAPHS {
        push(graph, "socket2", &[], Mode::Socket);
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("distbc-golden-{}-{name}", std::process::id()))
}

fn run(args: &[String], extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_distbc"))
        .args(args)
        .args(extra)
        .output()
        .expect("spawn distbc");
    assert!(
        out.status.success(),
        "distbc {args:?} {extra:?} failed: {out:?}"
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Polls a child to completion, failing on a hang.
fn wait_bounded(child: &mut Child, what: &str, limit: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} hung past {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs `args` plus `extra` as a `--connect` leader over two fresh
/// `serve-shard` processes (each serves exactly one run); `tag` keeps
/// the socket names of concurrent runs apart.
fn run_socket(tag: &str, args: &[String], extra: &[&str]) -> String {
    let socks: Vec<PathBuf> = (0..2).map(|i| tmp(&format!("{tag}-s{i}.sock"))).collect();
    let addrs: Vec<String> = socks
        .iter()
        .map(|p| {
            std::fs::remove_file(p).ok();
            format!("unix:{}", p.display())
        })
        .collect();
    let mut shards: Vec<Child> = addrs
        .iter()
        .map(|a| {
            Command::new(env!("CARGO_BIN_EXE_distbc"))
                .args(["serve-shard", "--listen", a])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn serve-shard")
        })
        .collect();
    let joined = addrs.join(",");
    let mut flags = vec!["--connect", joined.as_str(), "--shards", "2"];
    flags.extend_from_slice(extra);
    let out = run(args, &flags);
    for (i, sh) in shards.iter_mut().enumerate() {
        let status = wait_bounded(sh, &format!("{tag} shard {i}"), Duration::from_secs(60));
        assert!(status.success(), "{tag} shard {i} exited with {status:?}");
    }
    for p in &socks {
        std::fs::remove_file(p).ok();
    }
    out
}

/// The case's `<stem>.csv`.
fn record_csv(case: &Case) -> Vec<(String, String)> {
    let Case {
        stem, args, mode, ..
    } = case;
    let csv = match mode {
        Mode::Socket => run_socket(&format!("{stem}-csv"), args, &["--csv"]),
        Mode::Local { .. } => run(args, &["--csv"]),
    };
    vec![(format!("{stem}.csv"), csv)]
}

/// The case's `<stem>.profile.txt` and, when traced,
/// `<stem>.trace-stats.json`; the profile twice when the case is also
/// recorded with `--no-telemetry`.
fn record_observed(case: &Case) -> Vec<(String, String)> {
    let Case {
        stem,
        args,
        mode,
        untelemetered,
    } = case;
    let profile = |out: String| (format!("{stem}.profile.txt"), deterministic(&out));
    let mut files = Vec::new();
    for quiet in [false, true].into_iter().take(1 + *untelemetered as usize) {
        let mut flags = OBSERVED.to_vec();
        if quiet {
            flags.push("--no-telemetry");
        }
        match mode {
            Mode::Socket => {
                let tag = format!("{stem}-obs{}", quiet as u8);
                files.push(profile(run_socket(&tag, args, &flags)));
            }
            Mode::Local { trace: false } => files.push(profile(run(args, &flags))),
            Mode::Local { trace: true } => {
                let trace_file = tmp(&format!("{stem}-{}.jsonl", quiet as u8));
                let path = trace_file.to_str().expect("utf-8 temp path");
                flags.extend_from_slice(&["--trace", path]);
                files.push(profile(run(args, &flags)));
                if !quiet {
                    let stats = run(&["trace-stats".into(), path.into(), "--json".into()], &[]);
                    files.push((format!("{stem}.trace-stats.json"), deterministic(&stats)));
                }
                std::fs::remove_file(&trace_file).ok();
            }
        }
    }
    files
}

type Recorder = fn(&Case) -> Vec<(String, String)>;

/// Records every case on `threads` worker threads (each case spawns its
/// own processes; worker `t` takes cases `t, t + threads, …`) and returns
/// the files in case order.
fn record_all(recorder: Recorder, threads: usize) -> Vec<(String, String)> {
    let cases = cases();
    let mut recorded: Vec<(usize, Vec<(String, String)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cases = &cases;
                scope.spawn(move || {
                    (t..cases.len())
                        .step_by(threads)
                        .map(|i| (i, recorder(&cases[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("golden worker panicked"))
            .collect()
    });
    recorded.sort_by_key(|&(i, _)| i);
    recorded.into_iter().flat_map(|(_, files)| files).collect()
}

/// Diffs what `recorder` prints against the committed files.
fn check(recorder: Recorder) {
    let mut mismatched = Vec::new();
    for (name, got) in record_all(recorder, 2) {
        let path = golden_dir().join(&name);
        let want = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        if got.as_bytes() != want {
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "output differs from the golden corpus: {mismatched:?}"
    );
}

#[test]
fn csv_output_matches_golden_corpus() {
    check(record_csv);
}

#[test]
fn profile_metrics_and_trace_stats_match_golden_corpus() {
    check(record_observed);
}

#[test]
fn deterministic_drops_only_clock_keys() {
    let raw = "{\"a\":1,\"wall_ns\":5,\"w\":{\"workers\":2,\"utilization\":0.5,\
               \"imbalance\":1.2},\"phases\":[{\"n\":\"x\",\"busy_ns\":3}],\
               \"stragglers\":[{\"k\":1},{\"k\":2}]}\nphase,start\nA,0\n";
    assert_eq!(
        deterministic(raw),
        "{\"a\":1,\"w\":{\"workers\":2},\"phases\":[{\"n\":\"x\"}]}\nphase,start\nA,0\n"
    );
}

/// Rewrites the corpus from the current binary (the first recording of
/// each file). Run only on purpose.
#[test]
#[ignore = "regenerates tests/golden/; run explicitly to bless new output"]
fn bless() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    let mut written = std::collections::HashSet::new();
    for recorder in [record_csv as Recorder, record_observed] {
        for (name, got) in record_all(recorder, 2) {
            if written.insert(name.clone()) {
                std::fs::write(golden_dir().join(name), got).unwrap();
            }
        }
    }
}
