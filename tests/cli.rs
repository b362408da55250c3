//! End-to-end CLI tests for the observability surface: record a trace with
//! `distbc centrality --trace`, re-validate it with `distbc check-trace`,
//! and analyze it with `distbc trace-stats`; plus the `--profile` output.

use distbc::congest::trace::{encode_event, ProtocolDetail, TraceEvent};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn distbc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_distbc"))
        .args(args)
        .output()
        .expect("spawn distbc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("distbc-cli-{}-{name}", std::process::id()))
}

/// Full round trip on the paper's Figure 1: run → trace → check-trace →
/// trace-stats. The analyzer must recover the observed schedule
/// `T = (0, 2, 4, 6, 10)` (wave 5 waits for the DFS token to backtrack
/// v4→v3→v2→v5 through the BFS tree), the paper's minimal Lemma-4
/// schedule `(0, 2, 4, 6, 8)`, and the 2-round gap between them.
#[test]
fn trace_roundtrip_figure1() {
    let trace = tmp("fig1.jsonl");
    let run = distbc(&[
        "centrality",
        "--generate",
        "figure1",
        "--algorithm",
        "distributed",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "centrality --trace failed: {run:?}");

    let check = distbc(&["check-trace", trace.to_str().unwrap()]);
    assert!(check.status.success(), "check-trace failed: {check:?}");
    let check_out = stdout(&check);
    assert!(
        check_out.contains("wave spacing (Lemma 4): OK"),
        "{check_out}"
    );

    let stats = distbc(&["trace-stats", trace.to_str().unwrap()]);
    assert!(stats.status.success(), "trace-stats failed: {stats:?}");
    let text = stdout(&stats);
    assert!(
        text.contains("wave schedule T = (0, 2, 4, 6, 10)"),
        "{text}"
    );
    assert!(
        text.contains("Lemma-4 slack: 2 rounds above minimal"),
        "{text}"
    );
    assert!(text.contains("DFS token critical path"), "{text}");
    assert!(text.contains("hottest directed edges"), "{text}");

    // CSV carries the same schedule machine-readably: source 4 started at
    // relative round 10 against minimal slot 8 → slack 2.
    let csv = distbc(&["trace-stats", trace.to_str().unwrap(), "--csv"]);
    assert!(csv.status.success());
    let csv = stdout(&csv);
    assert!(
        csv.starts_with("source,ts,rel_ts,minimal_ts,slack"),
        "{csv}"
    );
    let last = csv.lines().last().unwrap();
    let fields: Vec<&str> = last.split(',').collect();
    assert_eq!(fields[0], "4", "{csv}");
    assert_eq!(fields[2], "10", "{csv}");
    assert_eq!(fields[3], "8", "{csv}");
    assert_eq!(fields[4], "2", "{csv}");

    std::fs::remove_file(&trace).ok();
}

/// A Figure 1 trace whose waves run at the paper's schedule
/// `T = (0, 2, 4, 6, 8)` (Section IV's worked example) must analyze to
/// exactly that schedule with zero Lemma-4 slack.
#[test]
fn trace_stats_reports_paper_schedule_with_zero_slack() {
    let events = [
        TraceEvent::Topology {
            n: 5,
            edges: vec![(0, 1), (1, 2), (1, 4), (2, 3), (4, 3)],
        },
        wave(0, 0),
        wave(1, 2),
        wave(2, 4),
        wave(3, 6),
        wave(4, 8),
    ];
    let mut body = String::new();
    for e in &events {
        encode_event(e, &mut body);
        body.push('\n');
    }
    let path = tmp("paper-schedule.jsonl");
    std::fs::write(&path, body).unwrap();

    let stats = distbc(&["trace-stats", path.to_str().unwrap()]);
    assert!(stats.status.success(), "{stats:?}");
    let text = stdout(&stats);
    assert!(text.contains("wave schedule T = (0, 2, 4, 6, 8)"), "{text}");
    assert!(
        text.contains("Lemma-4 slack: 0 (minimal schedule achieved)"),
        "{text}"
    );

    std::fs::remove_file(&path).ok();
}

fn wave(node: u32, ts: u64) -> TraceEvent {
    TraceEvent::Protocol {
        round: ts,
        node,
        detail: ProtocolDetail::WaveStart { ts },
    }
}

/// `--profile --json` emits one machine-readable profile object on stdout.
#[test]
fn profile_json_smoke() {
    let run = distbc(&[
        "centrality",
        "--generate",
        "er:30:0.15:3",
        "--algorithm",
        "distributed",
        "--profile",
        "--json",
    ]);
    assert!(run.status.success(), "{run:?}");
    let text = stdout(&run);
    assert!(text.contains("\"engine\":\"serial\""), "{text}");
    assert!(text.contains("\"phases\":["), "{text}");
    assert!(text.contains("\"name\":\"B:counting\""), "{text}");
    assert!(text.contains("\"wall_ns\":"), "{text}");
}

/// The human `--profile` report prints the per-phase wall-clock table.
#[test]
fn profile_human_output() {
    let run = distbc(&[
        "centrality",
        "--generate",
        "path:20",
        "--algorithm",
        "distributed",
        "--profile",
    ]);
    assert!(run.status.success(), "{run:?}");
    let text = stdout(&run);
    assert!(text.contains("serial"), "{text}");
    assert!(text.contains("B:counting"), "{text}");
}

/// Fault flags: incompatible combinations are usage errors (exit 2,
/// distinct from runtime failures at exit 1), and a reliable run over a
/// lossy plan reproduces the fault-free output exactly.
#[test]
fn fault_flags_usage_errors_and_reliable_chaos_run() {
    // --faults without --reliable (or --best-effort) is rejected at parse
    // time with the usage exit code.
    let bad = distbc(&[
        "centrality",
        "--generate",
        "path:10",
        "--faults",
        "drop=0.1",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    // --fault-seed without --faults likewise.
    let bad = distbc(&["centrality", "--generate", "path:10", "--fault-seed", "7"]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    // A malformed plan spec is also a usage error, not a runtime one.
    let bad = distbc(&[
        "centrality",
        "--generate",
        "path:10",
        "--faults",
        "drop=lots",
        "--reliable",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");

    // End-to-end chaos: the reliable transport makes the lossy run print
    // byte-identical centralities, and the stderr summary reports the
    // repair traffic.
    let clean = distbc(&[
        "centrality",
        "--generate",
        "er:24:0.12:5",
        "--algorithm",
        "distributed",
        "--csv",
    ]);
    assert!(clean.status.success(), "{clean:?}");
    let chaos = distbc(&[
        "centrality",
        "--generate",
        "er:24:0.12:5",
        "--algorithm",
        "distributed",
        "--csv",
        "--faults",
        "seed=9,drop=0.15,dup=0.1,delay=0.2:3",
        "--reliable",
    ]);
    assert!(chaos.status.success(), "{chaos:?}");
    assert_eq!(stdout(&chaos), stdout(&clean));
    let err = String::from_utf8_lossy(&chaos.stderr).into_owned();
    assert!(err.contains("retransmitted"), "{err}");
    assert!(err.contains("dropped"), "{err}");
}

/// Sampling misuse exits 2 like any other usage error — both the cases
/// parse can catch (`sampled:0`, estimator without sampling) and the one
/// it cannot (`K > n`, known only after the graph loads).
#[test]
fn sampling_usage_errors_and_jiyan_run() {
    let bad = distbc(&[
        "centrality",
        "--generate",
        "path:10",
        "--algorithm",
        "sampled:0",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");

    let bad = distbc(&[
        "centrality",
        "--generate",
        "path:10",
        "--algorithm",
        "sampled:11",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    let err = String::from_utf8_lossy(&bad.stderr).into_owned();
    assert!(
        err.contains("more sources than the graph has nodes"),
        "{err}"
    );

    let bad = distbc(&[
        "centrality",
        "--generate",
        "path:10",
        "--estimator",
        "jiyan",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");

    // serve validates K against n the same way.
    let bad = distbc(&[
        "serve",
        "--listen",
        "tcp:127.0.0.1:0",
        "--generate",
        "path:10",
        "--algorithm",
        "sampled:11",
    ]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");

    let run = distbc(&[
        "centrality",
        "--generate",
        "er:40:0.1:7",
        "--algorithm",
        "sampled:8",
        "--estimator",
        "jiyan",
        "--csv",
    ]);
    assert!(run.status.success(), "{run:?}");
    let csv = stdout(&run);
    assert_eq!(csv.lines().count(), 41, "header + one row per node: {csv}");
}

fn spawn_distbc(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_distbc"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn distbc")
}

/// Polls a child to completion, failing the test on a hang — the one
/// outcome the wire teardown contract forbids.
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

/// Two real `serve-shard` processes + a `--connect` leader print exactly
/// the CSV an in-process run prints.
#[test]
fn multi_process_socket_run_matches_serial() {
    let socks = [tmp("wire-ok-s0.sock"), tmp("wire-ok-s1.sock")];
    let addrs: Vec<String> = socks
        .iter()
        .map(|p| format!("unix:{}", p.display()))
        .collect();
    let mut shards: Vec<Child> = addrs
        .iter()
        .map(|a| spawn_distbc(&["serve-shard", "--listen", a]))
        .collect();

    let graph = ["--generate", "er:24:0.12:5"];
    let leader = distbc(&[
        "centrality",
        graph[0],
        graph[1],
        "--csv",
        "--connect",
        &addrs.join(","),
        "--shards",
        "2",
    ]);
    assert!(leader.status.success(), "wire leader failed: {leader:?}");
    let serial = distbc(&["centrality", graph[0], graph[1], "--csv"]);
    assert!(serial.status.success(), "{serial:?}");
    assert_eq!(
        stdout(&leader),
        stdout(&serial),
        "socket engine diverged from the in-process run"
    );
    let err = String::from_utf8_lossy(&leader.stderr).into_owned();
    assert!(err.contains("retransmitted"), "{err}");

    for (i, sh) in shards.iter_mut().enumerate() {
        let status = wait_bounded(sh, &format!("shard {i}"), Duration::from_secs(30));
        assert!(status.success(), "shard {i} exited with {status:?}");
    }
    for p in &socks {
        std::fs::remove_file(p).ok();
    }
}

/// Teardown audit: a shard that hangs up mid-handshake turns into a
/// leader run error with a postmortem dump — exit 1, never a hang.
#[test]
fn dead_shard_fails_the_leader_with_postmortem() {
    let s0 = tmp("wire-dead-s0.sock");
    let fake = tmp("wire-dead-s1.sock");
    let a0 = format!("unix:{}", s0.display());
    let a1 = format!("unix:{}", fake.display());
    let mut shard0 = spawn_distbc(&["serve-shard", "--listen", &a0]);
    // "Shard 1" accepts the leader and immediately hangs up — the
    // deterministic image of a process dying the instant it is reached.
    std::fs::remove_file(&fake).ok();
    let listener = std::os::unix::net::UnixListener::bind(&fake).expect("bind fake shard");
    let fake_thread = std::thread::spawn(move || {
        if let Ok((conn, _)) = listener.accept() {
            drop(conn);
        }
    });

    let pm = tmp("wire-dead-pm.json");
    std::fs::remove_file(&pm).ok();
    let mut leader = spawn_distbc(&[
        "centrality",
        "--generate",
        "path:30",
        "--connect",
        &format!("{a0},{a1}"),
        "--postmortem",
        pm.to_str().unwrap(),
    ]);
    let status = wait_bounded(&mut leader, "wire leader", Duration::from_secs(60));
    assert_eq!(status.code(), Some(1), "dead shard must be a runtime error");
    assert!(
        pm.exists(),
        "leader must dump a postmortem when a shard dies"
    );
    let pm_text = std::fs::read_to_string(&pm).unwrap();
    assert!(pm_text.contains("\"reason\""), "{pm_text}");

    // Shard 0 is parked waiting for its peer; it must not outlive the
    // run. Kill it the way an operator would and reap it.
    let _ = shard0.kill();
    let _ = shard0.wait();
    fake_thread.join().ok();
    for p in [&s0, &fake] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&pm).ok();
}

/// Kill-one-shard chaos: SIGKILL a real shard process mid-run. The
/// leader must terminate promptly — with exit 1 (and a postmortem) when
/// the kill landed mid-run, or 0 in the rare case the run had already
/// finished — but never hang.
#[test]
fn killed_shard_mid_run_does_not_hang_the_leader() {
    let socks = [tmp("wire-kill-s0.sock"), tmp("wire-kill-s1.sock")];
    let addrs: Vec<String> = socks
        .iter()
        .map(|p| format!("unix:{}", p.display()))
        .collect();
    let mut shards: Vec<Child> = addrs
        .iter()
        .map(|a| spawn_distbc(&["serve-shard", "--listen", a]))
        .collect();
    let pm = tmp("wire-kill-pm.json");
    std::fs::remove_file(&pm).ok();
    let mut leader = spawn_distbc(&[
        "centrality",
        "--generate",
        "er:200:0.03:7",
        "--connect",
        &addrs.join(","),
        "--postmortem",
        pm.to_str().unwrap(),
    ]);
    std::thread::sleep(Duration::from_millis(300));
    let _ = shards[1].kill();
    let _ = shards[1].wait();

    let status = wait_bounded(&mut leader, "wire leader", Duration::from_secs(120));
    match status.code() {
        Some(0) => {} // run won the race; termination is what matters
        Some(1) => assert!(pm.exists(), "failed leader must leave a postmortem"),
        other => panic!("unexpected leader exit {other:?}"),
    }
    let _ = shards[0].kill();
    let _ = shards[0].wait();
    for p in &socks {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_file(&pm).ok();
}

/// Spawns `distbc serve` on a unix socket and waits (bounded) until a
/// `query --meta` round trip succeeds.
#[allow(clippy::zombie_processes)] // the returned Child is waited on by every caller
fn spawn_server(args: &[&str], addr: &str) -> Child {
    let mut server = spawn_distbc(args);
    let start = Instant::now();
    loop {
        let probe = distbc(&["query", "--connect", addr, "--meta"]);
        if probe.status.success() {
            return server;
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = server.kill();
            let _ = server.wait();
            panic!("server at {addr} never came up: {probe:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The serving path end to end: `distbc serve` answers `distbc query
/// --top N --csv` with exactly the bytes `distbc centrality --csv`
/// prints — before a mutation and after an add-edge/flush cycle (the
/// offline run then reads the mutated graph from a file).
#[test]
fn serve_query_bit_identical_to_offline_cli() {
    let sock = tmp("serve-bitid.sock");
    std::fs::remove_file(&sock).ok();
    let addr = format!("unix:{}", sock.display());
    let spec = "er:30:0.15:3";
    let mut server = spawn_server(
        &[
            "serve",
            "--listen",
            &addr,
            "--generate",
            spec,
            "--algorithm",
            "brandes",
        ],
        &addr,
    );

    let offline = distbc(&[
        "centrality",
        "--generate",
        spec,
        "--algorithm",
        "brandes",
        "--csv",
    ]);
    assert!(offline.status.success(), "{offline:?}");
    let served = distbc(&["query", "--connect", &addr, "--top", "30", "--csv"]);
    assert!(served.status.success(), "{served:?}");
    assert_eq!(
        stdout(&served),
        stdout(&offline),
        "served snapshot diverged from the offline CLI"
    );

    // Mutate: add an edge the generator did not produce, flush, and
    // diff against an offline run over the mutated graph.
    let g = distbc::graph::generators::erdos_renyi_connected(30, 0.15, 3);
    let (u, v) = (0..30u32)
        .flat_map(|u| ((u + 1)..30).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("a non-edge");
    let mutated = g.add_edge(u, v).expect("add_edge");
    let graph_file = tmp("serve-bitid-mutated.txt");
    std::fs::write(&graph_file, distbc::graph::io::to_edge_list(&mutated)).unwrap();

    let queued = distbc(&[
        "query",
        "--connect",
        &addr,
        "--add-edge",
        &format!("{u}:{v}"),
        "--flush",
    ]);
    assert!(queued.status.success(), "{queued:?}");
    let text = stdout(&queued);
    assert!(text.contains("queued mutation #1"), "{text}");
    assert!(text.contains("flushed; snapshot now v2"), "{text}");

    let offline = distbc(&[
        "centrality",
        "--input",
        graph_file.to_str().unwrap(),
        "--algorithm",
        "brandes",
        "--csv",
    ]);
    assert!(offline.status.success(), "{offline:?}");
    let served = distbc(&["query", "--connect", &addr, "--top", "30", "--csv"]);
    assert!(served.status.success(), "{served:?}");
    assert_eq!(
        stdout(&served),
        stdout(&offline),
        "post-mutation snapshot diverged from the offline CLI on the mutated graph"
    );

    // Invalid mutations fail the query (exit 1) without poisoning the
    // server.
    let dup = distbc(&[
        "query",
        "--connect",
        &addr,
        "--add-edge",
        &format!("{u}:{v}"),
    ]);
    assert_eq!(dup.status.code(), Some(1), "{dup:?}");
    let alive = distbc(&["query", "--connect", &addr, "--meta"]);
    assert!(alive.status.success(), "{alive:?}");

    let _ = server.kill();
    let _ = server.wait();
    std::fs::remove_file(&sock).ok();
    std::fs::remove_file(&graph_file).ok();
}

/// The shutdown contract: SIGTERM (and SIGINT) drain the server and it
/// exits 0 — never a nonzero code, never a hang.
#[test]
fn serve_sigterm_drains_and_exits_zero() {
    let sock = tmp("serve-sigterm.sock");
    std::fs::remove_file(&sock).ok();
    let addr = format!("unix:{}", sock.display());
    let mut server = spawn_server(
        &[
            "serve",
            "--listen",
            &addr,
            "--generate",
            "path:20",
            "--algorithm",
            "brandes",
        ],
        &addr,
    );

    let probe = distbc(&["query", "--connect", &addr, "--top", "3"]);
    assert!(probe.status.success(), "{probe:?}");

    let kill = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(kill.success(), "kill -TERM failed");
    let status = wait_bounded(&mut server, "distbc serve", Duration::from_secs(30));
    assert_eq!(
        status.code(),
        Some(0),
        "SIGTERM must drain and exit 0, got {status:?}"
    );
    std::fs::remove_file(&sock).ok();
}

/// `--metrics` prints the phase table at the run's windows: depth-aware
/// ones on a shallow ER graph, whose counting starts long before the
/// N-only start `N + 2`, and the N-only ones on a path rooted at an end.
#[test]
fn metrics_reports_the_run_windows() {
    for (spec, n, depth_aware) in [("er:30:0.15:3", 30u64, true), ("path:40", 40, false)] {
        let run = distbc(&["centrality", "--generate", spec, "--metrics", "--csv"]);
        assert!(run.status.success(), "{spec}: {run:?}");
        let text = stdout(&run);
        let counting: Vec<&str> = text
            .lines()
            .find(|l| l.starts_with("B:counting,"))
            .unwrap_or_else(|| panic!("{spec}: no counting row in {text}"))
            .split(',')
            .collect();
        let start: u64 = counting[1].parse().unwrap();
        assert_eq!(
            start < n + 2,
            depth_aware,
            "{spec}: counting starts at {start}"
        );
    }
}

/// The removed `--adaptive` flag is a usage error (exit 2) naming the
/// change, not an unknown flag or a silent no-op.
#[test]
fn removed_adaptive_flag_is_a_usage_error() {
    let run = distbc(&["centrality", "--generate", "path:8", "--adaptive"]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let err = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(err.contains("--adaptive was removed"), "{err}");
}

/// So is the removed `--partition` flag: every pooled and socket run
/// splits the ids into contiguous, equal shards.
#[test]
fn removed_partition_flag_is_a_usage_error() {
    let run = distbc(&[
        "centrality",
        "--generate",
        "path:8",
        "--partition",
        "degree",
    ]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let err = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(err.contains("--partition was removed"), "{err}");
}

/// `serve --algorithm brandes` rejects `--threads` (exit 2) instead of
/// ignoring it: the incremental engine recomputes on every core, and
/// `--threads` sizes only the distributed driver.
#[test]
fn serve_brandes_with_threads_is_a_usage_error() {
    for threads in ["2", "auto"] {
        let run = distbc(&[
            "serve",
            "--listen",
            "unix:never-bound.sock",
            "--generate",
            "path:8",
            "--algorithm",
            "brandes",
            "--threads",
            threads,
        ]);
        assert_eq!(run.status.code(), Some(2), "--threads {threads}: {run:?}");
        let err = String::from_utf8_lossy(&run.stderr).into_owned();
        assert!(err.contains("--threads requires"), "{err}");
    }
}

/// Sampled runs whose sample leaves out node 0, the root of the DFS, used
/// to panic ("own wave from a non-source"); the root now relays the token
/// without a wave, as every sampled-out node does — on both sides of the
/// depth limit (the path keeps the N-only windows, BA gets depth-aware
/// ones).
#[test]
fn sampled_run_without_the_root() {
    for (spec, n) in [("path:40", 40), ("ba:300:2:5", 300)] {
        let run = distbc(&[
            "centrality",
            "--generate",
            spec,
            "--algorithm",
            "sampled:17",
            "--csv",
        ]);
        assert!(run.status.success(), "{spec}: {run:?}");
        assert_eq!(stdout(&run).lines().count(), n + 1, "{spec}");
    }
}

/// Input a generator, the float format or a gadget cannot take is a usage
/// error (exit 2) with a message, never a panic.
#[test]
fn bad_input_is_a_usage_error_not_a_panic() {
    let cases: [&[&str]; 17] = [
        &["centrality", "--generate", "path:0"],
        &["centrality", "--generate", "star:0"],
        &["centrality", "--generate", "cycle:2"],
        &["centrality", "--generate", "grid:0:0"],
        &["centrality", "--generate", "ba:5:0:1"],
        &["centrality", "--generate", "ws:10:10:0.1:1"],
        &["centrality", "--generate", "er:10:1.5:1"],
        &["centrality", "--generate", "barbell:1:0"],
        &["centrality", "--generate", "tree:0:1"],
        &["centrality", "--generate", "nosuch:3"],
        &["centrality", "--generate", "path:x"],
        &["info", "--generate", "cycle:2"],
        &["centrality", "--generate", "path:8", "--mantissa-bits", "0"],
        &[
            "centrality",
            "--generate",
            "path:8",
            "--mantissa-bits",
            "200",
        ],
        &["gadget", "--kind", "diameter", "--n", "2", "--x", "0"],
        &["gadget", "--kind", "bc", "--n", "0"],
        &["gadget", "--kind", "diameter", "--n", "0"],
    ];
    for args in cases {
        let out = distbc(args);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// A trace value outside the u32 node-id space (`n` past what a graph can
/// hold, a sender id past `u32::MAX`) is a malformed line: exit 1 naming
/// the line, never a panic and never an id truncated into range.
#[test]
fn out_of_range_trace_values_are_malformed_lines() {
    let cases = [
        (
            "huge-n.jsonl",
            "{\"ev\":\"round_start\",\"round\":0}\n\
             {\"ev\":\"topology\",\"n\":18446744073709551615,\"edges\":[]}\n",
            "trace line 2: ",
        ),
        (
            "huge-from.jsonl",
            "{\"ev\":\"topology\",\"n\":2,\"edges\":[[0,1]]}\n\
             {\"ev\":\"round_start\",\"round\":0}\n\
             {\"ev\":\"message_sent\",\"round\":0,\"from\":4294967296,\"to\":1,\"bits\":8}\n",
            "trace line 3: ",
        ),
    ];
    for (name, text, line) in cases {
        let trace = tmp(name);
        std::fs::write(&trace, text).unwrap();
        for cmd in ["check-trace", "trace-stats"] {
            let out = distbc(&[cmd, trace.to_str().unwrap()]);
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {err}");
            assert!(err.contains(line), "{cmd} {name}: {err}");
            assert!(!err.contains("panicked"), "{cmd} {name}: {err}");
        }
        std::fs::remove_file(&trace).ok();
    }
}

/// `trace-stats` writing into a reader that already hung up (`| head`)
/// ends quietly with exit 0 instead of panicking on the broken pipe.
#[test]
fn trace_stats_into_a_closed_pipe_exits_cleanly() {
    let trace = tmp("closed-pipe.jsonl");
    let run = distbc(&[
        "centrality",
        "--generate",
        "path:64",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{run:?}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_distbc"))
        .args(["trace-stats", trace.to_str().unwrap(), "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn distbc");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_file(&trace).ok();
}
