//! `distbc` — command-line betweenness centrality via the distributed
//! algorithm or the centralized baselines.
//!
//! ```text
//! distbc info       --input graph.txt
//! distbc centrality --input graph.txt [--algorithm distributed|brandes|exact|naive|sampled:K]
//!                   [--stress] [--top K] [--csv] [--mantissa-bits L] [--sequential]
//! distbc centrality --generate er:100:0.05:7
//! distbc gadget     --kind diameter|bc --n 6 [--x 10] [--planted]
//! ```
//!
//! Graph files use the edge-list format of `bc_graph::io` (optional
//! `n <N>` header, one `u v` pair per line, `#` comments). Generator specs
//! are `family:args`, e.g. `path:50`, `er:100:0.05:7` (n:p:seed),
//! `ba:200:3:1` (n:m:seed), `grid:6:8`, `karate`, `florentine`.

use distbc::brandes;
use distbc::congest::trace::{self, check, stats, JsonlSink, TraceSink};
use distbc::congest::wire::fnv1a64;
use distbc::congest::{Counter, Enforcement, FaultPlan, Telemetry};
use distbc::core::{
    auto_threads, run, run_distributed_bc, run_leader, serve_shard, DistBcConfig, DistBcResult,
    Estimator, Instruments, Run, Scheduling, SourceSelection, AUTO_THREADS_MIN_NODES,
};
use distbc::graph::{algo, datasets, generators, io, Graph};
use distbc::lowerbound::disjoint::{random_instance, universe_size};
use distbc::numeric::{FpParams, Rounding};
use distbc::serve::{
    FullRunOutput, IncrementalEngine, QueryClient, QueryRequest, QueryResponse, RecomputeEngine,
    Server, ServerConfig,
};
use std::error::Error;
use std::io::{IsTerminal, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed command line. One value exists per process invocation, so the
/// size skew between `Centrality` and the small variants is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Info {
        source: GraphSource,
    },
    Centrality {
        source: GraphSource,
        algorithm: Algorithm,
        sample_seed: u64,
        estimator: Estimator,
        stress: bool,
        top: Option<usize>,
        csv: bool,
        mantissa_bits: Option<u32>,
        scheduling: Scheduling,
        trace: Option<String>,
        metrics: bool,
        profile: bool,
        json: bool,
        threads: ThreadSpec,
        skip_idle: bool,
        faults: Option<FaultPlan>,
        reliable: bool,
        best_effort: bool,
        perfetto: Option<String>,
        watch: bool,
        postmortem: Option<String>,
        no_telemetry: bool,
        connect: Option<Vec<String>>,
    },
    ServeShard {
        listen: String,
    },
    Serve {
        listen: String,
        source: GraphSource,
        algorithm: Algorithm,
        sample_seed: u64,
        estimator: Estimator,
        threads: ThreadSpec,
        connect: Option<Vec<String>>,
        postmortem: Option<String>,
        no_telemetry: bool,
        cache: Option<usize>,
    },
    Query {
        connect: String,
        requests: Vec<QueryRequest>,
        csv: bool,
    },
    Gadget {
        kind: GadgetKind,
        n: usize,
        x: u32,
        planted: bool,
    },
    CheckTrace {
        file: String,
    },
    TraceStats {
        file: String,
        csv: bool,
        json: bool,
        top: usize,
    },
    Help,
}

#[derive(Debug, Clone, PartialEq)]
enum GraphSource {
    File(String),
    Generate(String),
}

/// `--threads` argument: a fixed worker count, or `auto` (resolved from
/// the node count after the graph is loaded).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ThreadSpec {
    Fixed(usize),
    Auto,
}

#[derive(Debug, Clone, PartialEq)]
enum Algorithm {
    Distributed,
    Brandes,
    Exact,
    Naive,
    Sampled(usize),
}

impl Algorithm {
    /// The distributed run's sources: `sampled:K` draws `K` with `seed`.
    fn sources(&self, seed: u64) -> SourceSelection {
        match *self {
            Algorithm::Sampled(k) => SourceSelection::Sample { k, seed },
            _ => SourceSelection::All,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum GadgetKind {
    Diameter,
    Bc,
}

const USAGE: &str = "usage:
  distbc info        --input FILE | --generate SPEC
  distbc centrality  --input FILE | --generate SPEC
                     [--algorithm distributed|brandes|exact|naive|sampled:K]
                     [--sample-seed N] [--estimator scaled|jiyan]
                     [--stress] [--top K] [--csv] [--mantissa-bits L]
                     [--sequential] [--threads N|auto] [--no-idle-skip]
                     [--trace FILE] [--metrics] [--profile [--json]]
                     [--faults PLAN [--fault-seed N]] [--reliable] [--best-effort]
                     [--perfetto FILE] [--watch] [--postmortem FILE] [--no-telemetry]
                     [--connect ADDR,ADDR,... [--shards K]]
  distbc serve-shard --listen tcp:HOST:PORT|unix:PATH
  distbc serve       --listen tcp:HOST:PORT|unix:PATH (--input FILE | --generate SPEC)
                     [--algorithm distributed|brandes|sampled:K] [--sample-seed N]
                     [--estimator scaled|jiyan]
                     [--threads N|auto] [--connect ADDR,ADDR,...]   (distributed, sampled:K)
                     [--cache N]                                      (brandes)
                     [--postmortem FILE] [--no-telemetry]
  distbc query       --connect ADDR [--top K] [--node V] [--percentile P] [--meta]
                     [--add-edge U:V] [--remove-edge U:V] [--flush] [--csv]
  distbc gadget      --kind diameter|bc --n N [--x X] [--planted]
  distbc check-trace FILE
  distbc trace-stats FILE [--csv | --json] [--top K]

generator SPECs: path:N  cycle:N  star:N  grid:R:C  er:N:P:SEED  ba:N:M:SEED
                 ws:N:K:BETA:SEED  tree:N:SEED  barbell:K:BRIDGE  karate  florentine  figure1
sampling:        sampled:K runs the pipeline from K pivot sources (1 <= K <= n) and
                 scales estimates by n/K; --estimator jiyan applies the refined
                 finite-sample correction (Ji & Yan 2016) instead of plain scaling
fault PLANs:     comma-separated, e.g. seed=7,drop=0.1,dup=0.05,corrupt=0.01,
                 delay=0.2:3,crash=4@10..20  (crash=V@A.. = crash-stop).
                 --faults needs --reliable (exact results via retransmission) or
                 --best-effort (observe the raw failure; enforcement downgraded)
telemetry:       always on for distributed runs (--no-telemetry to disable).
                 --watch prints a live status line to stderr; --perfetto FILE
                 exports a Chrome/Perfetto timeline (open at ui.perfetto.dev);
                 on failure (or each watch tick) the flight recorder dumps the
                 last rounds + counters to postmortem.json (--postmortem FILE)
multi-process:   start one `distbc serve-shard --listen ADDR` per shard, then
                 run the leader with --connect ADDR,ADDR,... (one address per
                 shard, in shard order). Wire runs are implicitly --reliable;
                 --faults/--trace/--watch/--best-effort stay in-process
serving:         `distbc serve` keeps a centrality snapshot resident and
                 answers `distbc query` batches; every request flag adds one
                 request to a single batch frame, answered in flag order from
                 one snapshot version. add-edge/remove-edge trigger a
                 background recompute that publishes a new snapshot version
                 (incremental for brandes: the affected sources run on every
                 core); flush waits for the queue to drain.
                 SIGINT/SIGTERM drain in-flight batches and exit 0";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let mut source = None;
    let mut algorithm = Algorithm::Distributed;
    let mut stress = false;
    let mut top = None;
    let mut csv = false;
    let mut mantissa_bits = None;
    let mut scheduling = Scheduling::DfsPipelined;
    let mut kind = None;
    let mut n = None;
    let mut x = 8u32;
    let mut planted = false;
    let mut trace = None;
    let mut metrics = false;
    let mut profile = false;
    let mut json = false;
    let mut threads: Option<ThreadSpec> = None;
    let mut skip_idle = true;
    let mut faults: Option<FaultPlan> = None;
    let mut fault_seed: Option<u64> = None;
    let mut sample_seed: Option<u64> = None;
    let mut estimator: Option<Estimator> = None;
    let mut reliable = false;
    let mut best_effort = false;
    let mut perfetto = None;
    let mut watch = false;
    let mut postmortem = None;
    let mut no_telemetry = false;
    let mut connect: Option<Vec<String>> = None;
    let mut shards: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut cache: Option<usize> = None;
    // `query` requests, in flag order (one batch frame carries them all).
    let mut requests: Vec<QueryRequest> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--input" => source = Some(GraphSource::File(value("--input")?)),
            "--generate" => source = Some(GraphSource::Generate(value("--generate")?)),
            "--algorithm" => {
                let v = value("--algorithm")?;
                algorithm = match v.as_str() {
                    "distributed" => Algorithm::Distributed,
                    "brandes" => Algorithm::Brandes,
                    "exact" => Algorithm::Exact,
                    "naive" => Algorithm::Naive,
                    other => match other.strip_prefix("sampled:") {
                        Some(k) => {
                            let k: usize =
                                k.parse().map_err(|_| format!("bad sample size {k:?}"))?;
                            if k == 0 {
                                return Err("sampled:K needs K >= 1".into());
                            }
                            Algorithm::Sampled(k)
                        }
                        None => return Err(format!("unknown algorithm {other:?}")),
                    },
                };
            }
            "--stress" => stress = true,
            "--csv" => csv = true,
            "--trace" => trace = Some(value("--trace")?),
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            "--json" => json = true,
            "--sequential" => scheduling = Scheduling::Sequential,
            "--adaptive" => {
                return Err(
                    "--adaptive was removed: every run now sizes its phase windows \
                            from the BFS-tree depth"
                        .into(),
                )
            }
            "--threads" => {
                let v = value("--threads")?;
                threads = Some(if v == "auto" {
                    ThreadSpec::Auto
                } else {
                    ThreadSpec::Fixed(v.parse().map_err(|_| "bad --threads value".to_string())?)
                });
            }
            "--partition" => {
                return Err(
                    "--partition was removed: pooled and socket runs always split \
                            the ids into contiguous, equal shards"
                        .into(),
                )
            }
            "--no-idle-skip" => skip_idle = false,
            "--faults" => {
                let spec = value("--faults")?;
                faults = Some(FaultPlan::parse(&spec).map_err(|e| format!("bad --faults: {e}"))?);
            }
            "--fault-seed" => {
                fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|_| "bad --fault-seed value".to_string())?,
                )
            }
            "--sample-seed" => {
                sample_seed = Some(
                    value("--sample-seed")?
                        .parse()
                        .map_err(|_| "bad --sample-seed value".to_string())?,
                )
            }
            "--estimator" => {
                let v = value("--estimator")?;
                estimator = Some(match v.as_str() {
                    "scaled" => Estimator::Scaled,
                    "jiyan" => Estimator::JiYan,
                    other => return Err(format!("unknown estimator {other:?} (scaled|jiyan)")),
                });
            }
            "--reliable" => reliable = true,
            "--best-effort" => best_effort = true,
            "--perfetto" => perfetto = Some(value("--perfetto")?),
            "--watch" => watch = true,
            "--postmortem" => postmortem = Some(value("--postmortem")?),
            "--no-telemetry" => no_telemetry = true,
            "--connect" => {
                let v = value("--connect")?;
                let addrs: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if addrs.is_empty() {
                    return Err("--connect needs at least one address".into());
                }
                connect = Some(addrs);
            }
            "--shards" => {
                shards = Some(
                    value("--shards")?
                        .parse()
                        .map_err(|_| "bad --shards value".to_string())?,
                )
            }
            "--listen" => listen = Some(value("--listen")?),
            "--planted" => planted = true,
            "--top" => {
                let k: usize = value("--top")?
                    .parse()
                    .map_err(|_| "bad --top value".to_string())?;
                top = Some(k);
                requests.push(QueryRequest::TopK {
                    k: u32::try_from(k).map_err(|_| "bad --top value".to_string())?,
                });
            }
            "--node" => requests.push(QueryRequest::Node {
                v: value("--node")?
                    .parse()
                    .map_err(|_| "bad --node value".to_string())?,
            }),
            "--percentile" => requests.push(QueryRequest::Percentile {
                p: value("--percentile")?
                    .parse()
                    .map_err(|_| "bad --percentile value".to_string())?,
            }),
            "--meta" => requests.push(QueryRequest::Meta),
            "--add-edge" => {
                let (u, v) = parse_edge(&value("--add-edge")?, "--add-edge")?;
                requests.push(QueryRequest::AddEdge { u, v });
            }
            "--remove-edge" => {
                let (u, v) = parse_edge(&value("--remove-edge")?, "--remove-edge")?;
                requests.push(QueryRequest::RemoveEdge { u, v });
            }
            "--flush" => requests.push(QueryRequest::Flush),
            "--cache" => {
                cache = Some(
                    value("--cache")?
                        .parse()
                        .map_err(|_| "bad --cache value".to_string())?,
                )
            }
            "--mantissa-bits" => {
                let l: u32 = value("--mantissa-bits")?
                    .parse()
                    .map_err(|_| "bad --mantissa-bits value".to_string())?;
                if !(1..=31).contains(&l) {
                    return Err(format!("--mantissa-bits must be in 1..=31, got {l}"));
                }
                mantissa_bits = Some(l);
            }
            "--kind" => {
                kind = Some(match value("--kind")?.as_str() {
                    "diameter" => GadgetKind::Diameter,
                    "bc" => GadgetKind::Bc,
                    other => return Err(format!("unknown gadget kind {other:?}")),
                })
            }
            "--n" => {
                n = Some(
                    value("--n")?
                        .parse()
                        .map_err(|_| "bad --n value".to_string())?,
                )
            }
            "--x" => {
                x = value("--x")?
                    .parse()
                    .map_err(|_| "bad --x value".to_string())?
            }
            other if !other.starts_with("--") => positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // `--top` doubles as a query request; everything else in `requests`
    // is query-only.
    let query_only = requests
        .iter()
        .any(|r| !matches!(r, QueryRequest::TopK { .. }));
    if query_only && sub != "query" {
        return Err(
            "--node/--percentile/--meta/--add-edge/--remove-edge/--flush belong to query".into(),
        );
    }
    if cache.is_some() && sub != "serve" {
        return Err("--cache belongs to serve".into());
    }
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info {
            source: source.ok_or("info needs --input or --generate")?,
        }),
        "centrality" => {
            let distributed = matches!(algorithm, Algorithm::Distributed | Algorithm::Sampled(_));
            if (trace.is_some() || metrics || profile) && !distributed {
                return Err(
                    "--trace/--metrics/--profile require --algorithm distributed or sampled:K"
                        .into(),
                );
            }
            if json && !profile {
                return Err("--json requires --profile (or use trace-stats --json)".into());
            }
            if (faults.is_some() || reliable) && !distributed {
                return Err(
                    "--faults/--reliable require --algorithm distributed or sampled:K".into(),
                );
            }
            if fault_seed.is_some() && faults.is_none() {
                return Err("--fault-seed requires --faults".into());
            }
            if sample_seed.is_some() && !matches!(algorithm, Algorithm::Sampled(_)) {
                return Err("--sample-seed requires --algorithm sampled:K".into());
            }
            if estimator.is_some() && !matches!(algorithm, Algorithm::Sampled(_)) {
                return Err("--estimator requires --algorithm sampled:K".into());
            }
            if estimator == Some(Estimator::JiYan) && stress {
                return Err("--estimator jiyan cannot be combined with --stress \
                            (both extend the aggregation message)"
                    .into());
            }
            if best_effort && faults.is_none() {
                return Err("--best-effort requires --faults".into());
            }
            if faults.is_some() && !reliable && !best_effort {
                return Err(
                    "--faults without --reliable would fail under strict CONGEST \
                            enforcement; add --reliable for exact results over the lossy \
                            network, or --best-effort to observe the raw failure"
                        .into(),
                );
            }
            if let (Some(plan), Some(seed)) = (faults.as_mut(), fault_seed) {
                plan.seed = seed;
            }
            if (perfetto.is_some() || watch || postmortem.is_some()) && !distributed {
                return Err(
                    "--perfetto/--watch/--postmortem require --algorithm distributed or sampled:K"
                        .into(),
                );
            }
            if no_telemetry && (watch || postmortem.is_some()) {
                return Err("--no-telemetry is incompatible with --watch/--postmortem".into());
            }
            if listen.is_some() {
                return Err("--listen belongs to serve-shard; the leader uses --connect".into());
            }
            check_shards(connect.as_deref(), shards)?;
            if connect.is_some() {
                if !distributed {
                    return Err("--connect requires --algorithm distributed or sampled:K".into());
                }
                if faults.is_some() || best_effort {
                    return Err("--faults/--best-effort are in-process fault injection; \
                                the wire engine takes real faults from the network itself"
                        .into());
                }
                if trace.is_some() {
                    return Err("--trace is not supported with --connect".into());
                }
                if watch {
                    return Err("--watch is not supported with --connect (telemetry is \
                                replayed on the leader after the run)"
                        .into());
                }
            }
            Ok(Command::Centrality {
                source: source.ok_or("centrality needs --input or --generate")?,
                algorithm,
                sample_seed: sample_seed.unwrap_or(0),
                estimator: estimator.unwrap_or_default(),
                stress,
                top,
                csv,
                mantissa_bits,
                scheduling,
                trace,
                metrics,
                profile,
                json,
                threads: threads.unwrap_or(ThreadSpec::Fixed(0)),
                skip_idle,
                faults,
                reliable,
                best_effort,
                perfetto,
                watch,
                postmortem,
                no_telemetry,
                connect,
            })
        }
        "serve-shard" => Ok(Command::ServeShard {
            listen: listen.ok_or("serve-shard needs --listen tcp:HOST:PORT or unix:PATH")?,
        }),
        "serve" => {
            match algorithm {
                Algorithm::Distributed | Algorithm::Brandes | Algorithm::Sampled(_) => {}
                _ => {
                    return Err(
                        "serve supports --algorithm distributed, brandes, or sampled:K".into(),
                    )
                }
            }
            if sample_seed.is_some() && !matches!(algorithm, Algorithm::Sampled(_)) {
                return Err("--sample-seed requires --algorithm sampled:K".into());
            }
            if estimator.is_some() && !matches!(algorithm, Algorithm::Sampled(_)) {
                return Err("--estimator requires --algorithm sampled:K".into());
            }
            if cache.is_some() && algorithm != Algorithm::Brandes {
                return Err("--cache requires --algorithm brandes (the incremental engine)".into());
            }
            if threads.is_some() && algorithm == Algorithm::Brandes {
                return Err(
                    "--threads requires --algorithm distributed or sampled:K (the brandes \
                     engine recomputes on every core)"
                        .into(),
                );
            }
            if connect.is_some() && algorithm == Algorithm::Brandes {
                return Err("--connect requires --algorithm distributed or sampled:K".into());
            }
            check_shards(connect.as_deref(), shards)?;
            if no_telemetry && postmortem.is_some() {
                return Err("--no-telemetry is incompatible with --postmortem".into());
            }
            if !requests.is_empty() || top.is_some() {
                return Err("--top and query requests belong to query".into());
            }
            Ok(Command::Serve {
                listen: listen.ok_or("serve needs --listen tcp:HOST:PORT or unix:PATH")?,
                source: source.ok_or("serve needs --input or --generate")?,
                algorithm,
                sample_seed: sample_seed.unwrap_or(0),
                estimator: estimator.unwrap_or_default(),
                threads: threads.unwrap_or(ThreadSpec::Fixed(0)),
                connect,
                postmortem,
                no_telemetry,
                cache,
            })
        }
        "query" => {
            let connect = connect.ok_or("query needs --connect ADDR")?;
            if connect.len() != 1 {
                return Err("query takes exactly one --connect address".into());
            }
            if requests.is_empty() {
                return Err(
                    "query needs at least one request: --top/--node/--percentile/--meta/\
                     --add-edge/--remove-edge/--flush"
                        .into(),
                );
            }
            Ok(Command::Query {
                connect: connect.into_iter().next().expect("one address"),
                requests,
                csv,
            })
        }
        "gadget" => {
            let kind = kind.ok_or("gadget needs --kind diameter|bc")?;
            let n = n.ok_or("gadget needs --n")?;
            if n == 0 {
                return Err("gadget needs --n of at least 1".into());
            }
            if kind == GadgetKind::Diameter && x < 8 {
                return Err(format!(
                    "the diameter gadget needs --x of at least 8, got {x}"
                ));
            }
            Ok(Command::Gadget {
                kind,
                n,
                x,
                planted,
            })
        }
        "check-trace" => Ok(Command::CheckTrace {
            file: positional
                .first()
                .cloned()
                .ok_or("check-trace needs a trace file")?,
        }),
        "trace-stats" => {
            if csv && json {
                return Err("trace-stats takes --csv or --json, not both".into());
            }
            Ok(Command::TraceStats {
                file: positional
                    .first()
                    .cloned()
                    .ok_or("trace-stats needs a trace file")?,
                csv,
                json,
                top: top.unwrap_or(5),
            })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// `--shards K` needs `--connect` with exactly `K` addresses.
fn check_shards(connect: Option<&[String]>, shards: Option<usize>) -> Result<(), String> {
    match (connect, shards) {
        (None, Some(_)) => Err("--shards requires --connect".into()),
        (Some(addrs), Some(s)) if s != addrs.len() => Err(format!(
            "--shards {s} disagrees with the {} --connect addresses",
            addrs.len()
        )),
        _ => Ok(()),
    }
}

/// Parses an `U:V` edge spec for `--add-edge`/`--remove-edge`.
fn parse_edge(spec: &str, flag: &str) -> Result<(u32, u32), String> {
    let bad = || format!("bad {flag} value {spec:?} (expected U:V)");
    let (u, v) = spec.split_once(':').ok_or_else(bad)?;
    Ok((u.parse().map_err(|_| bad())?, v.parse().map_err(|_| bad())?))
}

fn generate(spec: &str) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let arg = |i: usize| {
        parts
            .get(i)
            .ok_or_else(|| format!("{spec:?}: missing argument {i}"))
    };
    // The generators assert their preconditions; check them here so bad
    // input is a usage error, not a panic.
    let num = |i: usize, min: usize| -> Result<usize, String> {
        let v: usize = arg(i)?
            .parse()
            .map_err(|_| format!("{spec:?}: bad integer argument {i}"))?;
        if v < min {
            return Err(format!("{spec:?}: argument {i} must be at least {min}"));
        }
        Ok(v)
    };
    let prob = |i: usize| -> Result<f64, String> {
        let p: f64 = arg(i)?
            .parse()
            .map_err(|_| format!("{spec:?}: bad float argument {i}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{spec:?}: argument {i} must be in [0, 1]"));
        }
        Ok(p)
    };
    let seed = |i: usize| num(i, 0).map(|s| s as u64);
    Ok(match parts[0] {
        "path" => generators::path(num(1, 1)?),
        "cycle" => generators::cycle(num(1, 3)?),
        "star" => generators::star(num(1, 1)?),
        "complete" => generators::complete(num(1, 1)?),
        "grid" => generators::grid(num(1, 1)?, num(2, 1)?),
        "er" => generators::erdos_renyi_connected(num(1, 1)?, prob(2)?, seed(3)?),
        "ba" => {
            let m = num(2, 1)?;
            generators::barabasi_albert(num(1, m + 1)?, m, seed(3)?)
        }
        "ws" => {
            let k = num(2, 0)?;
            if k % 2 != 0 {
                return Err(format!("{spec:?}: argument 2 must be even"));
            }
            let g = generators::watts_strogatz(num(1, k + 1)?, k, prob(3)?, seed(4)?);
            algo::largest_component(&g).0
        }
        "tree" => generators::random_tree(num(1, 1)?, seed(2)?),
        "barbell" => generators::barbell(num(1, 2)?, num(2, 0)?),
        "karate" => datasets::karate_club(),
        "florentine" => datasets::florentine_families(),
        "figure1" => generators::paper_figure1(),
        other => return Err(format!("unknown generator family {other:?}")),
    })
}

/// Bad input that could only be rejected after parsing: a generator spec
/// the family cannot build, or a flag combination that needs the loaded
/// graph (e.g. `sampled:K` with `K > n`). Reported like a parse error:
/// exit code 2, not the runtime failure exit 1.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for UsageError {}

/// `sampled:K` must draw from the loaded graph: `K` is validated against
/// `n` here because parse time has no graph yet.
fn check_sample_size(algorithm: &Algorithm, n: usize) -> Result<(), Box<dyn Error>> {
    if let Algorithm::Sampled(k) = algorithm {
        if *k > n {
            return Err(Box::new(UsageError(format!(
                "sampled:{k} asks for more sources than the graph has nodes (n = {n}); \
                 use --algorithm distributed for an exact run"
            ))));
        }
    }
    Ok(())
}

fn load(source: &GraphSource) -> Result<Graph, Box<dyn Error>> {
    match source {
        GraphSource::File(path) => {
            let text = std::fs::read_to_string(path)?;
            Ok(io::parse_edge_list(&text)?)
        }
        GraphSource::Generate(spec) => generate(spec).map_err(|e| UsageError(e).into()),
    }
}

fn cmd_info(source: &GraphSource) -> Result<(), Box<dyn Error>> {
    let g = load(source)?;
    let (_, components) = algo::connected_components(&g);
    println!("nodes:      {}", g.n());
    println!("edges:      {}", g.m());
    println!("max degree: {}", g.max_degree());
    println!("components: {components}");
    if components == 1 && g.n() > 0 {
        println!("diameter:   {}", algo::diameter(&g));
    }
    Ok(())
}

/// Prints the per-phase traffic breakdown of a distributed run
/// (`--metrics`), in the human table or `--csv` form, sliced at the run's
/// phase windows.
fn print_phase_metrics(out: &DistBcResult, csv: bool) {
    let phases = &out.phase_stats;
    if csv {
        println!("phase,start,end,rounds,messages,bits,max_message_bits");
        for p in phases {
            println!(
                "{},{},{},{},{},{},{}",
                p.name, p.start, p.end, p.rounds, p.messages, p.bits, p.max_message_bits
            );
        }
        println!(
            "total,0,{},{},{},{},{}",
            out.rounds,
            out.rounds,
            out.metrics.total_messages,
            out.metrics.total_bits,
            out.metrics.max_message_bits
        );
    } else {
        println!(
            "{:<16} {:>14} {:>8} {:>12} {:>14} {:>10}",
            "phase", "span", "rounds", "messages", "bits", "max bits"
        );
        for p in phases {
            println!(
                "{:<16} {:>6}..{:<6} {:>8} {:>12} {:>14} {:>10}",
                p.name, p.start, p.end, p.rounds, p.messages, p.bits, p.max_message_bits
            );
        }
        println!(
            "{:<16} {:>6}..{:<6} {:>8} {:>12} {:>14} {:>10}",
            "total",
            0,
            out.rounds,
            out.rounds,
            out.metrics.total_messages,
            out.metrics.total_bits,
            out.metrics.max_message_bits
        );
    }
}

/// Rounds the flight recorder retains for postmortems.
const FLIGHT_RECORDER_ROUNDS: usize = 64;

/// `--watch` status-line (and postmortem-checkpoint) interval.
const WATCH_INTERVAL: Duration = Duration::from_secs(1);

/// Dumps the flight recorder + counter snapshot to `path`.
fn write_postmortem(tel: &Telemetry, path: &str, reason: &str) {
    match std::fs::write(path, tel.postmortem_json(reason)) {
        Ok(()) => eprintln!("# postmortem written to {path}"),
        Err(e) => eprintln!("# writing postmortem to {path} failed: {e}"),
    }
}

/// `1234567` → `"1.2M"` — compact rates for the watch status line.
fn human(n: u64) -> String {
    match n {
        0..=9_999 => n.to_string(),
        10_000..=9_999_999 => format!("{:.1}k", n as f64 / 1e3),
        _ => format!("{:.1}M", n as f64 / 1e6),
    }
}

/// The `--watch` reporter: a thread printing a status line to stderr every
/// [`WATCH_INTERVAL`] and checkpointing the postmortem file, so a run
/// killed by Ctrl-C (which the CLI cannot trap) still leaves a scene at
/// most one interval old. Stops and joins on drop.
struct WatchThread {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WatchThread {
    fn spawn(tel: Arc<Telemetry>, checkpoint: String) -> WatchThread {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            // On a terminal, rewrite one line in place; when stderr is
            // piped, emit one full line per tick instead.
            let interactive = std::io::stderr().is_terminal();
            let mut last_msgs = 0u64;
            let mut last_tick = Instant::now();
            let mut printed = false;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
                if last_tick.elapsed() < WATCH_INTERVAL {
                    continue;
                }
                let dt = last_tick.elapsed().as_secs_f64();
                last_tick = Instant::now();
                let snap = tel.snapshot();
                let msgs = snap.get(Counter::Messages);
                let rate = ((msgs - last_msgs) as f64 / dt) as u64;
                last_msgs = msgs;
                let round = tel.round();
                let line = format!(
                    "# watch: round {round}  phase {}  {} msgs ({}/s)  {} retransmits  \
                     {} straggler rounds",
                    tel.phase_label(round),
                    human(msgs),
                    human(rate),
                    human(snap.get(Counter::Retransmits)),
                    human(snap.get(Counter::StragglerRounds)),
                );
                if interactive {
                    eprint!("\r\x1b[2K{line}");
                    printed = true;
                } else {
                    eprintln!("{line}");
                }
                let _ = std::fs::write(&checkpoint, tel.postmortem_json("watch checkpoint"));
            }
            if interactive && printed {
                eprintln!();
            }
        });
        WatchThread {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for WatchThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn cmd_centrality(
    source: &GraphSource,
    algorithm: &Algorithm,
    sample_seed: u64,
    estimator: Estimator,
    stress: bool,
    top: Option<usize>,
    csv: bool,
    mantissa_bits: Option<u32>,
    scheduling: Scheduling,
    trace_path: Option<&str>,
    metrics: bool,
    profile: bool,
    json: bool,
    threads: ThreadSpec,
    skip_idle: bool,
    faults: Option<&FaultPlan>,
    reliable: bool,
    best_effort: bool,
    perfetto: Option<&str>,
    watch: bool,
    postmortem: Option<&str>,
    no_telemetry: bool,
    connect: Option<&[String]>,
) -> Result<(), Box<dyn Error>> {
    let g = load(source)?;
    check_sample_size(algorithm, g.n())?;
    let threads = match threads {
        ThreadSpec::Fixed(t) => t,
        ThreadSpec::Auto => {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            let t = auto_threads(g.n());
            eprintln!(
                "# --threads auto: n={} {} {}, {} core{} -> {}",
                g.n(),
                if g.n() < AUTO_THREADS_MIN_NODES {
                    "<"
                } else {
                    ">="
                },
                AUTO_THREADS_MIN_NODES,
                cores,
                if cores == 1 { "" } else { "s" },
                if t > 1 {
                    format!("parallel({t})")
                } else {
                    "serial".to_string()
                }
            );
            t
        }
    };
    let mut stress_vals: Option<Vec<f64>> = None;
    let bc: Vec<f64> = match algorithm {
        Algorithm::Brandes => brandes::betweenness_f64(&g),
        Algorithm::Exact => brandes::betweenness_exact(&g)
            .iter()
            .map(|v| v.to_f64())
            .collect(),
        Algorithm::Naive => brandes::betweenness_naive(&g),
        Algorithm::Distributed | Algorithm::Sampled(_) => {
            // Telemetry is on by default: one shard per worker and a
            // flight recorder for postmortems. Counter-only, so results
            // are bit-identical with or without it. A wire leader keeps
            // one telemetry shard per connected shard process.
            let telemetry_shards = connect.map_or(threads.max(1), <[String]>::len);
            let telemetry = (!no_telemetry)
                .then(|| Arc::new(Telemetry::new(telemetry_shards, FLIGHT_RECORDER_ROUNDS)));
            let postmortem_path = postmortem.unwrap_or("postmortem.json");
            let cfg = DistBcConfig {
                fp: mantissa_bits.map(|l| FpParams::new(l, Rounding::Ceil)),
                scheduling,
                compute_stress: stress,
                sources: algorithm.sources(sample_seed),
                estimator,
                threads,
                skip_idle,
                faults: faults.cloned(),
                reliable,
                // --best-effort: record CONGEST violations instead of
                // aborting, so a raw faulty run can be observed end to end.
                enforcement: if best_effort {
                    Enforcement::Record
                } else {
                    Enforcement::Strict
                },
                telemetry: telemetry.clone(),
                ..DistBcConfig::default()
            };
            let sink: Option<Box<dyn TraceSink>> = match trace_path {
                Some(path) => Some(Box::new(JsonlSink::create(path)?)),
                None => None,
            };
            // --perfetto renders the profile's round log, so it turns
            // profiling on internally even without --profile.
            let want_profile = profile || perfetto.is_some();
            let watcher = match (&telemetry, watch) {
                (Some(t), true) => Some(WatchThread::spawn(t.clone(), postmortem_path.to_string())),
                _ => None,
            };
            let run_result: Result<Run, Box<dyn Error>> = match connect {
                // Multi-process run: the shard processes execute, the
                // leader merges. Wire runs are implicitly reliable.
                Some(addrs) => run_leader(&g, &cfg, addrs, want_profile)
                    .map(|(result, profile)| Run {
                        result,
                        trace: None,
                        profile,
                    })
                    .map_err(Box::from),
                None => {
                    let instruments = Instruments {
                        trace: sink,
                        profile: want_profile,
                    };
                    run(&g, cfg, instruments).map_err(Box::from)
                }
            };
            drop(watcher);
            let Run {
                result: out,
                trace: mut returned_sink,
                profile: profile_report,
            } = match run_result {
                Ok(run) => run,
                Err(e) => {
                    // The run died (NodePanic, RoundLimit, abort, ...):
                    // preserve the scene before reporting the failure.
                    if let Some(t) = &telemetry {
                        write_postmortem(t, postmortem_path, &e.to_string());
                    }
                    return Err(e);
                }
            };
            if watch {
                // The run succeeded; drop the watch thread's in-flight
                // checkpoint so no stale "postmortem" outlives a clean run.
                let _ = std::fs::remove_file(postmortem_path);
            }
            if let (Some(path), Some(report)) = (perfetto, profile_report.as_ref()) {
                std::fs::write(path, report.to_perfetto_json())
                    .map_err(|e| format!("writing perfetto trace to {path}: {e}"))?;
                eprintln!("# perfetto trace written to {path} (open at https://ui.perfetto.dev)");
            }
            if let (Some(path), Some(sink)) = (trace_path, returned_sink.as_mut()) {
                sink.flush()?;
                eprintln!("# trace written to {path}");
            }
            eprintln!(
                "# distributed: {} rounds, {} messages, max {} bits/message, compliant={}",
                out.rounds,
                out.metrics.total_messages,
                out.metrics.max_message_bits,
                out.metrics.congest_compliant()
            );
            if faults.is_some() || reliable || connect.is_some() {
                let m = &out.metrics;
                eprintln!(
                    "# reliability: {} dropped, {} duplicated, {} corrupted, {} delayed; \
                     {} retransmitted, {} deduped",
                    m.faults_dropped,
                    m.faults_duplicated,
                    m.faults_corrupted,
                    m.faults_delayed,
                    m.messages_retransmitted,
                    m.messages_deduped
                );
            }
            if profile {
                if let Some(report) = &profile_report {
                    if json {
                        println!("{}", report.to_json());
                    } else {
                        print!("{report}");
                    }
                }
            }
            if metrics {
                // --metrics replaces the per-node listing with the
                // per-phase traffic table (also the --csv payload).
                print_phase_metrics(&out, csv);
                return Ok(());
            }
            if profile && json {
                // --profile --json emits the machine-readable report as
                // the sole stdout payload.
                return Ok(());
            }
            stress_vals = out.stress;
            out.betweenness
        }
    };
    if stress && stress_vals.is_none() {
        stress_vals = Some(brandes::stress_centrality(&g));
    }
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by(|&a, &b| bc[b].total_cmp(&bc[a]));
    if let Some(k) = top {
        order.truncate(k);
    }
    if csv {
        println!("node,betweenness{}", if stress { ",stress" } else { "" });
        for v in order {
            match &stress_vals {
                Some(s) if stress => println!("{v},{},{}", bc[v], s[v]),
                _ => println!("{v},{}", bc[v]),
            }
        }
    } else {
        println!(
            "{:>8} {:>16}{}",
            "node",
            "betweenness",
            if stress { "          stress" } else { "" }
        );
        for v in order {
            match &stress_vals {
                Some(s) if stress => println!("{v:>8} {:>16.4} {:>15.4}", bc[v], s[v]),
                _ => println!("{v:>8} {:>16.4}", bc[v]),
            }
        }
    }
    Ok(())
}

/// `serve-shard --listen ADDR`: run one shard of a multi-process
/// execution. Blocks until a leader connects, serves exactly one run,
/// and exits — 0 on success, 1 on any failure (after reporting it to
/// the leader so the leader fails too instead of hanging).
fn cmd_serve_shard(listen: &str) -> Result<(), Box<dyn Error>> {
    eprintln!("# serve-shard: listening on {listen}");
    serve_shard(listen)?;
    eprintln!("# serve-shard: run complete");
    Ok(())
}

/// Signal plumbing for `distbc serve`. SIGINT/SIGTERM flip a shared
/// flag that the server's accept loop polls, so shutdown drains
/// in-flight batches and the mutation queue instead of killing the
/// process mid-response. The workspace libraries all
/// `#![forbid(unsafe_code)]`; this module is the binary's single unsafe
/// block.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static SHUTDOWN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store, which is async-signal-safe.
        if let Some(flag) = SHUTDOWN.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Installs SIGINT/SIGTERM handlers and returns the flag they flip.
    pub fn install_shutdown_flag() -> Arc<AtomicBool> {
        let flag = Arc::clone(SHUTDOWN.get_or_init(|| Arc::new(AtomicBool::new(false))));
        // SAFETY: libc `signal` with a handler that performs a single
        // async-signal-safe atomic store on a flag initialized above.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        flag
    }
}

/// `serve`: load a graph, compute the initial snapshot with the chosen
/// engine, and answer `distbc query` batches until SIGINT/SIGTERM.
#[allow(clippy::too_many_arguments)]
fn cmd_serve(
    listen: &str,
    source: &GraphSource,
    algorithm: &Algorithm,
    sample_seed: u64,
    estimator: Estimator,
    threads: ThreadSpec,
    connect: Option<&[String]>,
    postmortem: Option<&str>,
    no_telemetry: bool,
    cache: Option<usize>,
) -> Result<(), Box<dyn Error>> {
    let g = load(source)?;
    check_sample_size(algorithm, g.n())?;
    let threads = match threads {
        ThreadSpec::Fixed(t) => t,
        ThreadSpec::Auto => auto_threads(g.n()),
    };
    // One telemetry shard for the server's own counters; driver engines
    // share the instance (their shard 0 overlays the server's).
    let telemetry_shards = connect.map_or(threads.max(1), <[String]>::len);
    let telemetry =
        (!no_telemetry).then(|| Arc::new(Telemetry::new(telemetry_shards, FLIGHT_RECORDER_ROUNDS)));
    let (engine, algo_label, config_hash) = match algorithm {
        Algorithm::Brandes => {
            // Default cache: every source vector fits (n vectors of n
            // floats) — mutations then replay all unaffected sources.
            let capacity = cache.unwrap_or(g.n());
            let engine = RecomputeEngine::Incremental(IncrementalEngine::new(g, capacity));
            (engine, "brandes".to_string(), fnv1a64(b"brandes"))
        }
        Algorithm::Distributed | Algorithm::Sampled(_) => {
            let cfg = DistBcConfig {
                sources: algorithm.sources(sample_seed),
                estimator,
                threads,
                telemetry: telemetry.clone(),
                ..DistBcConfig::default()
            };
            let label = match algorithm {
                Algorithm::Sampled(k) => format!("sampled:{k}"),
                _ => "distributed".to_string(),
            };
            let config_hash = cfg.fingerprint();
            // The shard mesh serves exactly one run per process, so
            // `--connect` backs the *initial* compute only; recomputes
            // run in-process with the same config (the wire engine is
            // bit-identical to the in-process one, so snapshots do not
            // depend on which path produced them).
            let mut wire_addrs = connect.map(<[String]>::to_vec);
            let run = move |g: &Graph| -> Result<FullRunOutput, String> {
                let out = match wire_addrs.take() {
                    Some(addrs) => {
                        let (out, _) =
                            run_leader(g, &cfg, &addrs, false).map_err(|e| e.to_string())?;
                        out
                    }
                    None => run_distributed_bc(g, cfg.clone()).map_err(|e| e.to_string())?,
                };
                Ok(FullRunOutput {
                    scores: out.betweenness,
                    sample_size: out.sample_size,
                    rounds: out.rounds,
                })
            };
            let engine = RecomputeEngine::Full {
                graph: g,
                run: Box::new(run),
            };
            (engine, label, config_hash)
        }
        _ => unreachable!("parse_args rejects other serve algorithms"),
    };
    let shutdown = signals::install_shutdown_flag();
    let server = Server::bind(
        engine,
        ServerConfig {
            listen: listen.to_string(),
            algo: algo_label.clone(),
            config_hash,
            telemetry: telemetry.clone(),
        },
        shutdown,
    )?;
    let snap = server.snapshot();
    // stdout carries exactly one machine-readable line — the dialable
    // address (ephemeral TCP ports resolved) — so scripts and tests can
    // discover where to connect.
    println!("listening on {}", server.addr());
    std::io::stdout().flush()?;
    eprintln!(
        "# serve: {} nodes, algorithm {}, snapshot v{} (graph {:016x}, config {:016x})",
        snap.len(),
        algo_label,
        snap.version,
        snap.graph_hash,
        snap.config_hash
    );
    let stats = server.run()?;
    eprintln!(
        "# serve: shutdown after {} queries in {} batches over {} connections; \
         {} snapshots published, {} malformed frames",
        stats.queries, stats.batches, stats.connections, stats.snapshots_published, stats.malformed
    );
    // Final telemetry checkpoint: the same flight-recorder dump a
    // distributed run leaves on failure, with a clean-shutdown reason.
    if let (Some(t), Some(path)) = (&telemetry, postmortem) {
        write_postmortem(t, path, "serve shutdown (signal)");
    }
    Ok(())
}

/// `query`: one connection, one batch frame carrying every request
/// flag in order, answers printed in the same order.
fn cmd_query(connect: &str, requests: &[QueryRequest], csv: bool) -> Result<(), Box<dyn Error>> {
    let mut client = QueryClient::connect(connect).map_err(|e| e.to_string())?;
    let (graph_hash, config_hash) = {
        let hello = client.server_hello();
        (hello.graph_hash, hello.config_hash)
    };
    eprintln!("# connected to {connect}: graph {graph_hash:016x}, config {config_hash:016x}");
    let responses = client.batch(requests).map_err(|e| e.to_string())?;
    let mut failed = false;
    for resp in &responses {
        print_response(resp, csv, &mut failed);
    }
    client.close();
    if failed {
        return Err("one or more requests failed".into());
    }
    Ok(())
}

/// Prints one response. `--csv` emits full-precision floats (`{}`
/// round-trips f64 exactly), so `query --top N --csv` diffs
/// bit-identically against `centrality --csv`.
fn print_response(resp: &QueryResponse, csv: bool, failed: &mut bool) {
    match resp {
        QueryResponse::Ranked { version, entries } => {
            if csv {
                println!("node,betweenness");
                for (v, score) in entries {
                    println!("{v},{score}");
                }
            } else {
                eprintln!("# snapshot v{version}");
                println!("{:>8} {:>16}", "node", "betweenness");
                for (v, score) in entries {
                    println!("{v:>8} {score:>16.4}");
                }
            }
        }
        QueryResponse::Score {
            version,
            node,
            score,
        } => {
            if csv {
                println!("{node},{score}");
            } else {
                println!("node {node}: betweenness {score:.4} (snapshot v{version})");
            }
        }
        QueryResponse::Value { version, value } => {
            if csv {
                println!("{value}");
            } else {
                println!("percentile value {value:.4} (snapshot v{version})");
            }
        }
        QueryResponse::Meta {
            version,
            graph_hash,
            config_hash,
            algo,
            n,
            sample_size,
            rounds,
            pending,
        } => {
            if csv {
                println!("version,graph_hash,config_hash,algo,n,sample_size,rounds,pending");
                println!(
                    "{version},{graph_hash:016x},{config_hash:016x},{algo},{n},{sample_size},{rounds},{pending}"
                );
            } else {
                println!("snapshot:    v{version}");
                println!("graph hash:  {graph_hash:016x}");
                println!("config hash: {config_hash:016x}");
                println!("algorithm:   {algo}");
                println!("nodes:       {n}");
                println!("sources:     {sample_size}");
                println!("rounds:      {rounds}");
                println!("pending:     {pending}");
            }
        }
        QueryResponse::MutationQueued { seq } => println!("queued mutation #{seq}"),
        QueryResponse::Flushed { version } => println!("flushed; snapshot now v{version}"),
        QueryResponse::Failed { reason } => {
            *failed = true;
            eprintln!("error: {reason}");
        }
    }
}

fn cmd_gadget(kind: GadgetKind, n: usize, x: u32, planted: bool) -> Result<(), Box<dyn Error>> {
    let inst = random_instance(n, universe_size(n), planted, 1);
    match kind {
        GadgetKind::Diameter => {
            let g = distbc::lowerbound::diameter_gadget(x, &inst);
            println!(
                "# Figure 2 gadget: n={n}, x={x}, planted={planted}; diameter = {} (expected {})",
                algo::diameter(&g.graph),
                if planted { x + 2 } else { x }
            );
            print!("{}", io::to_edge_list(&g.graph));
        }
        GadgetKind::Bc => {
            let g = distbc::lowerbound::bc_gadget(&inst);
            let cb = brandes::betweenness_f64(&g.graph);
            println!("# Figure 3 gadget: n={n}, planted={planted}");
            for (i, &fi) in g.f.iter().enumerate() {
                println!("# C_B(F_{i}) = {}", cb[fi as usize]);
            }
            print!("{}", io::to_edge_list(&g.graph));
        }
    }
    Ok(())
}

/// `check-trace FILE`: re-validate the paper's invariants offline against
/// a recorded JSONL trace. Exits nonzero if any check fails.
fn cmd_check_trace(file: &str) -> Result<(), Box<dyn Error>> {
    let events = trace::read_jsonl(file)?;
    let report = check::check(&events);
    print!("{report}");
    if report.ok() {
        Ok(())
    } else {
        Err(format!("trace {file} failed validation").into())
    }
}

/// `trace-stats FILE`: congestion/latency analytics over a recorded JSONL
/// trace — the observed wave schedule with per-source Lemma-4 slack, wave
/// latency vs eccentricity, edge/round congestion hot spots, and the DFS
/// token's critical path.
fn cmd_trace_stats(file: &str, csv: bool, json: bool, top: usize) -> Result<(), Box<dyn Error>> {
    let events = trace::read_jsonl(file)?;
    let s = stats::analyze(&events, top);
    let text = if csv {
        s.to_csv()
    } else if json {
        format!("{}\n", s.to_json())
    } else {
        s.to_string()
    };
    // A reader that hangs up early (`| head`) ends the output quietly.
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.into()),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            // Usage and flag-combination errors exit 2; runtime failures
            // (I/O, protocol errors) exit 1.
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Info { source } => cmd_info(source),
        Command::Centrality {
            source,
            algorithm,
            sample_seed,
            estimator,
            stress,
            top,
            csv,
            mantissa_bits,
            scheduling,
            trace,
            metrics,
            profile,
            json,
            threads,
            skip_idle,
            faults,
            reliable,
            best_effort,
            perfetto,
            watch,
            postmortem,
            no_telemetry,
            connect,
        } => cmd_centrality(
            source,
            algorithm,
            *sample_seed,
            *estimator,
            *stress,
            *top,
            *csv,
            *mantissa_bits,
            *scheduling,
            trace.as_deref(),
            *metrics,
            *profile,
            *json,
            *threads,
            *skip_idle,
            faults.as_ref(),
            *reliable,
            *best_effort,
            perfetto.as_deref(),
            *watch,
            postmortem.as_deref(),
            *no_telemetry,
            connect.as_deref(),
        ),
        Command::ServeShard { listen } => cmd_serve_shard(listen),
        Command::Serve {
            listen,
            source,
            algorithm,
            sample_seed,
            estimator,
            threads,
            connect,
            postmortem,
            no_telemetry,
            cache,
        } => cmd_serve(
            listen,
            source,
            algorithm,
            *sample_seed,
            *estimator,
            *threads,
            connect.as_deref(),
            postmortem.as_deref(),
            *no_telemetry,
            *cache,
        ),
        Command::Query {
            connect,
            requests,
            csv,
        } => cmd_query(connect, requests, *csv),
        Command::Gadget {
            kind,
            n,
            x,
            planted,
        } => cmd_gadget(*kind, *n, *x, *planted),
        Command::CheckTrace { file } => cmd_check_trace(file),
        Command::TraceStats {
            file,
            csv,
            json,
            top,
        } => cmd_trace_stats(file, *csv, *json, *top),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<UsageError>() => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            p(&["info", "--input", "g.txt"]).unwrap(),
            Command::Info {
                source: GraphSource::File("g.txt".into())
            }
        );
    }

    #[test]
    fn parses_centrality_with_options() {
        let c = p(&[
            "centrality",
            "--generate",
            "er:50:0.1:3",
            "--algorithm",
            "sampled:10",
            "--stress",
            "--top",
            "5",
            "--csv",
            "--mantissa-bits",
            "20",
            "--sequential",
            "--threads",
            "4",
            "--no-idle-skip",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Centrality {
                source: GraphSource::Generate("er:50:0.1:3".into()),
                algorithm: Algorithm::Sampled(10),
                sample_seed: 0,
                estimator: Estimator::Scaled,
                stress: true,
                top: Some(5),
                csv: true,
                mantissa_bits: Some(20),
                scheduling: Scheduling::Sequential,
                trace: None,
                metrics: false,
                profile: false,
                json: false,
                threads: ThreadSpec::Fixed(4),
                skip_idle: false,
                faults: None,
                reliable: false,
                best_effort: false,
                perfetto: None,
                watch: false,
                postmortem: None,
                no_telemetry: false,
                connect: None,
            }
        );
    }

    #[test]
    fn parses_serve_shard() {
        assert_eq!(
            p(&["serve-shard", "--listen", "tcp:127.0.0.1:4100"]).unwrap(),
            Command::ServeShard {
                listen: "tcp:127.0.0.1:4100".into()
            }
        );
        assert_eq!(
            p(&["serve-shard", "--listen", "unix:/tmp/s0.sock"]).unwrap(),
            Command::ServeShard {
                listen: "unix:/tmp/s0.sock".into()
            }
        );
        assert!(p(&["serve-shard"]).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            p(&[
                "serve",
                "--listen",
                "tcp:127.0.0.1:0",
                "--generate",
                "er:40:0.1:7",
                "--algorithm",
                "brandes",
                "--cache",
                "16",
            ])
            .unwrap(),
            Command::Serve {
                listen: "tcp:127.0.0.1:0".into(),
                source: GraphSource::Generate("er:40:0.1:7".into()),
                algorithm: Algorithm::Brandes,
                sample_seed: 0,
                estimator: Estimator::Scaled,
                threads: ThreadSpec::Fixed(0),
                connect: None,
                postmortem: None,
                no_telemetry: false,
                cache: Some(16),
            }
        );
        // The shard mesh can back the initial driver compute.
        match p(&[
            "serve",
            "--listen",
            "unix:/tmp/q.sock",
            "--generate",
            "path:20",
            "--connect",
            "tcp:a:1,tcp:b:2",
        ])
        .unwrap()
        {
            Command::Serve {
                algorithm, connect, ..
            } => {
                assert_eq!(algorithm, Algorithm::Distributed);
                assert_eq!(connect.map(|a| a.len()), Some(2));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_combinations() {
        let base = [
            "serve",
            "--listen",
            "tcp:127.0.0.1:0",
            "--generate",
            "path:8",
        ];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            p(&v)
        };
        assert!(with(&[]).is_ok());
        assert!(p(&["serve", "--listen", "tcp:a:1"]).is_err()); // no graph
        assert!(p(&["serve", "--generate", "path:8"]).is_err()); // no listen
                                                                 // Exact/naive engines have no serving story.
        assert!(with(&["--algorithm", "exact"]).is_err());
        assert!(with(&["--algorithm", "naive"]).is_err());
        // The cache belongs to the incremental (brandes) engine.
        assert!(with(&["--cache", "8"]).is_err());
        assert!(with(&["--algorithm", "brandes", "--cache", "8"]).is_ok());
        // --connect drives the distributed engine only.
        assert!(with(&["--algorithm", "brandes", "--connect", "tcp:a:1"]).is_err());
        // Query flags are the client's side of the protocol.
        assert!(with(&["--top", "5"]).is_err());
        assert!(with(&["--meta"]).is_err());
        assert!(with(&["--sample-seed", "3"]).is_err());
        assert!(with(&["--algorithm", "sampled:4", "--sample-seed", "3"]).is_ok());
        assert!(with(&["--no-telemetry", "--postmortem", "pm.json"]).is_err());
    }

    #[test]
    fn parses_query_requests_in_flag_order() {
        assert_eq!(
            p(&[
                "query",
                "--connect",
                "tcp:127.0.0.1:4200",
                "--meta",
                "--top",
                "3",
                "--add-edge",
                "0:5",
                "--flush",
                "--node",
                "5",
                "--percentile",
                "99.5",
                "--remove-edge",
                "0:5",
                "--csv",
            ])
            .unwrap(),
            Command::Query {
                connect: "tcp:127.0.0.1:4200".into(),
                requests: vec![
                    QueryRequest::Meta,
                    QueryRequest::TopK { k: 3 },
                    QueryRequest::AddEdge { u: 0, v: 5 },
                    QueryRequest::Flush,
                    QueryRequest::Node { v: 5 },
                    QueryRequest::Percentile { p: 99.5 },
                    QueryRequest::RemoveEdge { u: 0, v: 5 },
                ],
                csv: true,
            }
        );
    }

    #[test]
    fn query_rejects_bad_combinations() {
        // No connect address, no batch.
        assert!(p(&["query", "--top", "5"]).is_err());
        // Exactly one server.
        assert!(p(&["query", "--connect", "tcp:a:1,tcp:b:2", "--top", "5"]).is_err());
        // An empty batch is a usage error, not a no-op round trip.
        assert!(p(&["query", "--connect", "tcp:a:1"]).is_err());
        // Edge specs are U:V.
        assert!(p(&["query", "--connect", "tcp:a:1", "--add-edge", "5"]).is_err());
        assert!(p(&["query", "--connect", "tcp:a:1", "--add-edge", "a:b"]).is_err());
        // Query-only flags stay out of the other subcommands.
        assert!(p(&["centrality", "--generate", "path:8", "--meta"]).is_err());
        assert!(p(&["centrality", "--generate", "path:8", "--flush"]).is_err());
        assert!(p(&["info", "--input", "g.txt", "--node", "3"]).is_err());
    }

    #[test]
    fn parses_connect_and_shards() {
        let c = p(&[
            "centrality",
            "--generate",
            "er:30:0.1:1",
            "--connect",
            "tcp:127.0.0.1:4100, tcp:127.0.0.1:4101",
            "--shards",
            "2",
        ])
        .unwrap();
        match c {
            Command::Centrality { connect, .. } => {
                assert_eq!(
                    connect.as_deref(),
                    Some(
                        &[
                            "tcp:127.0.0.1:4100".to_string(),
                            "tcp:127.0.0.1:4101".into()
                        ][..]
                    )
                );
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // --shards is optional but must agree with the address count.
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--connect",
            "tcp:a:1,tcp:b:2",
            "--shards",
            "3",
        ])
        .is_err());
        assert!(p(&["centrality", "--generate", "path:8", "--shards", "2"]).is_err());
        assert!(p(&["centrality", "--generate", "path:8", "--connect", " , "]).is_err());
    }

    #[test]
    fn connect_rejects_in_process_features() {
        let base = ["centrality", "--generate", "path:8", "--connect", "tcp:a:1"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            p(&v)
        };
        assert!(with(&[]).is_ok());
        assert!(with(&["--faults", "drop=0.1", "--reliable"]).is_err());
        assert!(with(&["--trace", "t.jsonl"]).is_err());
        assert!(with(&["--watch"]).is_err());
        // Wire runs are implicitly reliable; saying so is harmless.
        assert!(with(&["--reliable"]).is_ok());
        // The leader still takes result/telemetry formatting flags.
        assert!(with(&["--profile", "--json"]).is_ok());
        assert!(with(&["--perfetto", "t.json", "--postmortem", "pm.json"]).is_ok());
        // --connect drives the distributed engine only.
        assert!(with(&["--algorithm", "brandes"]).is_err());
        // --listen is the serve-shard side of the pair.
        assert!(with(&["--listen", "tcp:b:2"]).is_err());
    }

    #[test]
    fn parses_sample_seed() {
        let c = p(&[
            "centrality",
            "--generate",
            "er:50:0.1:3",
            "--algorithm",
            "sampled:10",
            "--sample-seed",
            "42",
        ])
        .unwrap();
        match c {
            Command::Centrality {
                algorithm,
                sample_seed,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::Sampled(10));
                assert_eq!(sample_seed, 42);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Default seed is 0 (the historical hardcoded value).
        match p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "sampled:4",
        ])
        .unwrap()
        {
            Command::Centrality { sample_seed, .. } => assert_eq!(sample_seed, 0),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_sample_seed_without_sampling() {
        // Seeding source sampling is meaningless for the other algorithms.
        for algo in ["distributed", "brandes", "exact", "naive"] {
            let err = p(&[
                "centrality",
                "--generate",
                "path:8",
                "--algorithm",
                algo,
                "--sample-seed",
                "7",
            ])
            .unwrap_err();
            assert!(err.contains("--sample-seed requires"), "{algo}: {err}");
        }
        // No --algorithm at all defaults to distributed: still rejected.
        assert!(p(&["centrality", "--generate", "path:8", "--sample-seed", "7"]).is_err());
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "sampled:4",
            "--sample-seed",
            "nope",
        ])
        .is_err());
    }

    #[test]
    fn rejects_empty_sample() {
        let err = p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "sampled:0",
        ])
        .unwrap_err();
        assert!(err.contains("K >= 1"), "{err}");
        assert!(p(&["serve", "--listen", "tcp:a:1", "--generate", "path:8"]).is_ok());
        let err = p(&[
            "serve",
            "--listen",
            "tcp:a:1",
            "--generate",
            "path:8",
            "--algorithm",
            "sampled:0",
        ])
        .unwrap_err();
        assert!(err.contains("K >= 1"), "{err}");
    }

    #[test]
    fn parses_estimator() {
        let base = ["centrality", "--generate", "path:8", "--algorithm"];
        let with = |algo: &str, rest: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.push(algo);
            v.extend_from_slice(rest);
            p(&v)
        };
        match with("sampled:4", &["--estimator", "jiyan"]).unwrap() {
            Command::Centrality { estimator, .. } => assert_eq!(estimator, Estimator::JiYan),
            other => panic!("unexpected parse: {other:?}"),
        }
        match with("sampled:4", &["--estimator", "scaled"]).unwrap() {
            Command::Centrality { estimator, .. } => assert_eq!(estimator, Estimator::Scaled),
            other => panic!("unexpected parse: {other:?}"),
        }
        // Default is plain n/k scaling.
        match with("sampled:4", &[]).unwrap() {
            Command::Centrality { estimator, .. } => assert_eq!(estimator, Estimator::Scaled),
            other => panic!("unexpected parse: {other:?}"),
        }
        // The estimator reshapes sampled estimates only.
        for algo in ["distributed", "brandes", "exact", "naive"] {
            let err = with(algo, &["--estimator", "jiyan"]).unwrap_err();
            assert!(err.contains("--estimator requires"), "{algo}: {err}");
        }
        let err = with("sampled:4", &["--estimator", "median"]).unwrap_err();
        assert!(err.contains("unknown estimator"), "{err}");
        // Refined aggregation and stress both widen the Phase D message.
        let err = with("sampled:4", &["--estimator", "jiyan", "--stress"]).unwrap_err();
        assert!(err.contains("--stress"), "{err}");
        // serve accepts the same pair.
        match p(&[
            "serve",
            "--listen",
            "tcp:a:1",
            "--generate",
            "path:8",
            "--algorithm",
            "sampled:4",
            "--estimator",
            "jiyan",
        ])
        .unwrap()
        {
            Command::Serve { estimator, .. } => assert_eq!(estimator, Estimator::JiYan),
            other => panic!("unexpected parse: {other:?}"),
        }
        let err = p(&[
            "serve",
            "--listen",
            "tcp:a:1",
            "--generate",
            "path:8",
            "--estimator",
            "jiyan",
        ])
        .unwrap_err();
        assert!(err.contains("--estimator requires"), "{err}");
    }

    #[test]
    fn parses_telemetry_flags() {
        let c = p(&[
            "centrality",
            "--generate",
            "path:8",
            "--perfetto",
            "run.perfetto.json",
            "--watch",
            "--postmortem",
            "pm.json",
        ])
        .unwrap();
        match c {
            Command::Centrality {
                perfetto,
                watch,
                postmortem,
                no_telemetry,
                ..
            } => {
                assert_eq!(perfetto.as_deref(), Some("run.perfetto.json"));
                assert!(watch);
                assert_eq!(postmortem.as_deref(), Some("pm.json"));
                assert!(!no_telemetry);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Telemetry consumers are distributed-engine features.
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "brandes",
            "--perfetto",
            "t.json",
        ])
        .is_err());
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "brandes",
            "--watch",
        ])
        .is_err());
        // The watch line and postmortems read the registry --no-telemetry
        // removes.
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--no-telemetry",
            "--watch"
        ])
        .is_err());
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--no-telemetry",
            "--postmortem",
            "pm.json",
        ])
        .is_err());
        // --no-telemetry alone (and with --perfetto, which profiles
        // through a private registry) is fine.
        assert!(p(&["centrality", "--generate", "path:8", "--no-telemetry"]).is_ok());
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--no-telemetry",
            "--perfetto",
            "t.json",
        ])
        .is_ok());
        assert!(p(&["centrality", "--generate", "path:8", "--perfetto"]).is_err());
    }

    #[test]
    fn parses_threads_auto_and_rejects_partition() {
        match p(&["centrality", "--generate", "path:8", "--threads", "auto"]).unwrap() {
            Command::Centrality { threads, .. } => assert_eq!(threads, ThreadSpec::Auto),
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(p(&["centrality", "--generate", "path:8", "--threads", "soon"]).is_err());
        // The removed strategy knob is a usage error, whatever its value.
        for v in ["contiguous", "degree", "schedule"] {
            let err = p(&["centrality", "--generate", "path:8", "--partition", v]).unwrap_err();
            assert!(err.contains("--partition was removed"), "{err}");
        }
    }

    #[test]
    fn parses_fault_flags() {
        let c = p(&[
            "centrality",
            "--generate",
            "path:8",
            "--faults",
            "drop=0.1,dup=0.05",
            "--fault-seed",
            "42",
            "--reliable",
        ])
        .unwrap();
        match c {
            Command::Centrality {
                faults: Some(plan),
                reliable,
                best_effort,
                ..
            } => {
                assert_eq!(plan.seed, 42, "--fault-seed overrides the plan seed");
                assert!((plan.drop - 0.1).abs() < 1e-12);
                assert!((plan.duplicate - 0.05).abs() < 1e-12);
                assert!(reliable);
                assert!(!best_effort);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_incompatible_fault_flag_combos() {
        // --faults needs --reliable or --best-effort.
        assert!(p(&["centrality", "--generate", "path:8", "--faults", "drop=0.1"]).is_err());
        // --fault-seed / --best-effort are meaningless without --faults.
        assert!(p(&["centrality", "--generate", "path:8", "--fault-seed", "3"]).is_err());
        assert!(p(&["centrality", "--generate", "path:8", "--best-effort"]).is_err());
        // fault injection is a distributed-engine feature.
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "brandes",
            "--faults",
            "drop=0.1",
            "--reliable",
        ])
        .is_err());
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "brandes",
            "--reliable",
        ])
        .is_err());
        // malformed plan specs are caught at parse time.
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--faults",
            "drop=lots",
            "--reliable",
        ])
        .is_err());
        // the --best-effort escape hatch allows a raw faulty run.
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--faults",
            "drop=0.1",
            "--best-effort",
        ])
        .is_ok());
    }

    #[test]
    fn non_distributed_flag_combos_rejected_at_parse_time() {
        assert!(p(&[
            "centrality",
            "--generate",
            "path:8",
            "--algorithm",
            "brandes",
            "--profile",
        ])
        .is_err());
        assert!(p(&["centrality", "--generate", "path:8", "--json"]).is_err());
    }

    #[test]
    fn parses_profile_and_json() {
        match p(&["centrality", "--generate", "path:5", "--profile", "--json"]).unwrap() {
            Command::Centrality { profile, json, .. } => {
                assert!(profile);
                assert!(json);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_trace_stats() {
        assert_eq!(
            p(&["trace-stats", "run.jsonl", "--json", "--top", "3"]).unwrap(),
            Command::TraceStats {
                file: "run.jsonl".into(),
                csv: false,
                json: true,
                top: 3,
            }
        );
        assert!(p(&["trace-stats"]).is_err());
        assert!(p(&["trace-stats", "run.jsonl", "--csv", "--json"]).is_err());
    }

    #[test]
    fn parses_trace_and_metrics() {
        let c = p(&[
            "centrality",
            "--generate",
            "path:5",
            "--trace",
            "run.jsonl",
            "--metrics",
        ])
        .unwrap();
        match c {
            Command::Centrality { trace, metrics, .. } => {
                assert_eq!(trace.as_deref(), Some("run.jsonl"));
                assert!(metrics);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_check_trace() {
        assert_eq!(
            p(&["check-trace", "run.jsonl"]).unwrap(),
            Command::CheckTrace {
                file: "run.jsonl".into()
            }
        );
        assert!(p(&["check-trace"]).is_err());
    }

    #[test]
    fn parses_gadget() {
        let c = p(&["gadget", "--kind", "bc", "--n", "6", "--planted"]).unwrap();
        assert_eq!(
            c,
            Command::Gadget {
                kind: GadgetKind::Bc,
                n: 6,
                x: 8,
                planted: true
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(p(&["centrality"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&["centrality", "--generate", "x", "--algorithm", "magic"]).is_err());
        assert!(p(&["info", "--input"]).is_err());
        assert!(p(&["gadget", "--kind", "bc"]).is_err());
        // The removed event-driven mode is a usage error, not an unknown
        // flag that silently changed meaning.
        let err = p(&["centrality", "--generate", "path:8", "--adaptive"]).unwrap_err();
        assert!(err.contains("--adaptive was removed"), "{err}");
    }

    #[test]
    fn help_paths() {
        assert_eq!(p(&[]).unwrap(), Command::Help);
        assert_eq!(p(&["help"]).unwrap(), Command::Help);
        assert_eq!(p(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn generator_specs() {
        assert_eq!(generate("path:5").unwrap().n(), 5);
        assert_eq!(generate("grid:3:4").unwrap().n(), 12);
        assert_eq!(generate("karate").unwrap().n(), 34);
        assert_eq!(generate("florentine").unwrap().n(), 15);
        assert_eq!(generate("er:30:0.1:1").unwrap().n(), 30);
        assert!(generate("er:30").is_err());
        assert!(generate("nope:1").is_err());
        assert!(generate("path:x").is_err());
    }
}
