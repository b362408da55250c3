//! E19 — socket-engine overhead: wall clock of the process-per-shard
//! wire runtime (`distbc serve-shard` + leader, here as threads over
//! real Unix-domain sockets) against the in-process serial reliable
//! engine on the same graphs, at 2 and 4 shards, plus one run through
//! the lossy proxy to show the reliable transport paying for real loss.
//!
//! Where E18 asks "when does in-process parallelism pay?", E19 asks
//! "what does crossing a real socket cost?" — the answer bounds the
//! deployment overhead of the multi-process mode. Every clean-link row
//! is asserted bit-identical to the serial oracle (betweenness *and*
//! CONGEST metrics) before it is emitted; the lossy row asserts result
//! identity only, since retransmits legitimately inflate its metrics.

use super::e15_profile::profiled;
use crate::ExperimentReport;
use bc_congest::wire::LossyProxy;
use bc_congest::{FaultPlan, ShardMap, SCHEMA_VERSION};
use bc_core::wire::run_leader;
use bc_core::{DistBcConfig, DistBcResult};
use bc_graph::{generators, Graph};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Fresh `unix:` socket addresses, unique across runs and processes.
fn socket_addrs(k: usize) -> Vec<String> {
    let pid = std::process::id();
    (0..k)
        .map(|_| {
            let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("bcw-e19-{pid}-{seq}.sock"));
            format!("unix:{}", path.display())
        })
        .collect()
}

/// Runs `g` across `k` shard threads over real sockets, optionally
/// through per-shard lossy proxies, returning the leader's result and
/// profile.
fn run_wire(
    g: &Graph,
    k: usize,
    plan: Option<&FaultPlan>,
) -> (DistBcResult, bc_congest::ProfileReport) {
    let shard_addrs = socket_addrs(k);
    let shards: Vec<_> = shard_addrs
        .iter()
        .map(|a| {
            let a = a.clone();
            thread::spawn(move || bc_core::wire::serve_shard(&a))
        })
        .collect();
    let mut proxies = Vec::new();
    let leader_addrs = match plan {
        None => shard_addrs,
        Some(plan) => {
            let graph = Arc::new(g.clone());
            let map = Arc::new(ShardMap::new(g.n(), k));
            let fronts = socket_addrs(k);
            let mut addrs = Vec::with_capacity(k);
            for (i, front) in fronts.iter().enumerate() {
                let p = LossyProxy::start(
                    front,
                    shard_addrs[i].clone(),
                    i,
                    graph.clone(),
                    map.clone(),
                    plan.clone(),
                )
                .expect("proxy starts");
                addrs.push(p.addr().to_string());
                proxies.push(p);
            }
            addrs
        }
    };
    let (out, profile) =
        run_leader(g, &DistBcConfig::default(), &leader_addrs, true).expect("wire run succeeds");
    for h in shards {
        h.join()
            .expect("shard thread not poisoned")
            .expect("shard exits cleanly");
    }
    (out, profile.expect("profiling was requested"))
}

/// Runs E19: the socket-engine overhead sweep with its
/// `BENCH_wire.json` artifact.
pub fn run(quick: bool) -> ExperimentReport {
    let sizes: &[usize] = if quick { &[24] } else { &[24, 48] };
    let shard_counts: &[usize] = if quick { &[2] } else { &[2, 4] };
    let mut rep = ExperimentReport::new(
        "E19",
        "socket-engine overhead (process-per-shard wire runtime vs serial, bit-identical)",
        &[
            "graph",
            "engine",
            "rounds",
            "wall ms",
            "serial ms",
            "ratio",
            "retransmits",
            "cross msgs",
        ],
    );
    let mut json_entries: Vec<String> = Vec::new();
    for &n in sizes {
        let family = format!("er-{n}");
        let g = generators::erdos_renyi_connected(n, (8.0 / n as f64).min(0.5), 7);
        let serial_cfg = DistBcConfig {
            reliable: true,
            threads: 0,
            ..DistBcConfig::default()
        };
        let (oracle, serial_profile) = profiled(&g, serial_cfg);
        let serial_wall = serial_profile.wall_ns;
        let mut emit = |engine: &str,
                        rounds: u64,
                        wall_ns: u64,
                        retransmits: u64,
                        cross: u64,
                        json: &mut Vec<String>| {
            let ratio_permille = wall_ns * 1000 / serial_wall.max(1);
            rep.push_row(vec![
                family.clone(),
                engine.to_string(),
                rounds.to_string(),
                format!("{:.3}", ms(wall_ns)),
                format!("{:.3}", ms(serial_wall)),
                format!("{:.2}x", ratio_permille as f64 / 1000.0),
                retransmits.to_string(),
                cross.to_string(),
            ]);
            json.push(format!(
                "{{\"graph\":\"{family}\",\"engine\":\"{engine}\",\"wall_ns\":{wall_ns},\
                 \"serial_wall_ns\":{serial_wall},\"ratio_permille\":{ratio_permille},\
                 \"retransmits\":{retransmits}}}"
            ));
        };
        emit(
            &serial_profile.engine,
            serial_profile.rounds,
            serial_wall,
            serial_profile.messages_retransmitted,
            serial_profile.cross_shard_messages,
            &mut json_entries,
        );
        for &k in shard_counts {
            let (out, profile) = run_wire(&g, k, None);
            assert_eq!(
                out.betweenness, oracle.betweenness,
                "{family}: wire({k}) diverged from serial betweenness"
            );
            assert_eq!(
                out.metrics, oracle.metrics,
                "{family}: wire({k}) diverged from serial metrics"
            );
            emit(
                &profile.engine,
                profile.rounds,
                profile.wall_ns,
                profile.messages_retransmitted,
                profile.cross_shard_messages,
                &mut json_entries,
            );
        }
        // One run through the lossy proxy at each size: drops, dupes, and
        // reordering within the transport's envelope, same exact answer.
        let plan = FaultPlan {
            drop: 0.15,
            duplicate: 0.10,
            delay: 0.10,
            max_delay: 2,
            ..FaultPlan::seeded(7)
        };
        let (out, profile) = run_wire(&g, 2, Some(&plan));
        assert_eq!(
            out.betweenness, oracle.betweenness,
            "{family}: lossy wire(2) diverged from serial betweenness"
        );
        let engine = format!("{}+proxy", profile.engine);
        emit(
            &engine,
            profile.rounds,
            profile.wall_ns,
            profile.messages_retransmitted,
            profile.cross_shard_messages,
            &mut json_entries,
        );
    }
    let mut artifact =
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E19\",\"profiles\":[");
    let _ = write!(artifact, "{}", json_entries.join(","));
    artifact.push_str("]}");
    rep.add_artifact("BENCH_wire.json", artifact);
    rep.note(
        "every clean-link wire row is asserted bit-identical to the serial \
         reliable oracle (betweenness and CONGEST metrics) before it is \
         emitted; the +proxy row asserts result identity only, since \
         retransmits legitimately inflate its frame metrics"
            .to_string(),
    );
    rep.note(
        "shards here are threads of the bench process, but every byte \
         between leader and shards crosses a real Unix-domain socket \
         through the same serve_shard entry point as `distbc serve-shard`; \
         the ratio therefore prices framing + syscalls + the reliable \
         transport, not process spawn"
            .to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_wire_sweep_is_bit_identical_and_reports_loss() {
        let rep = run(true);
        // 1 size × (serial + wire(2) + wire(2)+proxy).
        assert_eq!(rep.rows.len(), 3);
        assert_eq!(rep.rows[0][1], "serial+reliable");
        assert!(rep.rows[1][1].starts_with("wire(2)"));
        assert!(rep.rows[2][1].ends_with("+proxy"));
        // Serial is self-normalized; the wire rows carry real ratios.
        assert_eq!(rep.rows[0][5], "1.00x");
        let (name, artifact) = &rep.artifacts[0];
        assert_eq!(name, "BENCH_wire.json");
        assert!(artifact.starts_with("{\"schema_version\":1,"));
        assert!(artifact.contains("\"experiment\":\"E19\""));
        assert!(artifact.contains("\"retransmits\":"));
        // The lossy proxy must actually have cost something.
        let proxied: u64 = rep.rows[2][6].parse().expect("retransmit count");
        assert!(proxied > 0, "lossy proxy produced no retransmits");
    }
}
