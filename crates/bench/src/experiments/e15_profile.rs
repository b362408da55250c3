//! E15 — engine overhead and congestion scaling: wall-clock profiles of
//! all three engines (serial, parallel, α-synchronizer) across graph
//! families, split into node compute vs engine overhead, with per-phase
//! congestion (inbox depths) from the provisioned schedule.
//!
//! Unlike E1–E14, the table's wall-clock columns describe the *host*, not
//! the algorithm — they are the baseline later perf PRs diff against. The
//! machine-readable artifact (`BENCH_profile.json`, attached via
//! [`ExperimentReport::add_artifact`] and written by `repro`) carries the
//! full [`bc_congest::ProfileReport`] per (family, engine) pair.

use crate::ExperimentReport;
use bc_congest::asynchronous::{run_synchronized_with, AsyncConfig, SyncOptions};
use bc_congest::{ProfileReport, Telemetry, SCHEMA_VERSION};
use bc_core::{AlgoOptions, DistBcConfig, DistBcNode, DistBcResult, Instruments};
use bc_graph::{generators, Graph};
use std::fmt::Write as _;
use std::sync::Arc;

/// One profiled in-process run of `cfg` on `g` (E15–E19).
pub(crate) fn profiled(g: &Graph, cfg: DistBcConfig) -> (DistBcResult, ProfileReport) {
    let instruments = Instruments {
        profile: true,
        ..Instruments::default()
    };
    let run = bc_core::run(g, cfg, instruments).expect("run succeeds");
    (run.result, run.profile.expect("profile requested"))
}

/// The shared graph families profiled by E15 and E16 (path / sparse
/// Erdős–Rényi / Barabási–Albert at size `n`).
pub(crate) fn families(n: usize) -> Vec<(String, Graph)> {
    vec![
        (format!("path-{n}"), generators::path(n)),
        (
            format!("er-{n}"),
            generators::erdos_renyi_connected(n, (8.0 / n as f64).min(0.5), 7),
        ),
        (format!("ba-{n}"), generators::barabasi_albert(n, 2, 7)),
    ]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn push_profile_row(rep: &mut ExperimentReport, family: &str, profile: &ProfileReport) {
    let extra = if let Some(w) = &profile.workers {
        format!("util {:.0}% imb {:.2}x", 100.0 * w.utilization, w.imbalance)
    } else if let Some(s) = &profile.sync {
        format!("skew {} queue {}", s.max_pulse_skew, s.max_queue_depth)
    } else {
        "-".to_string()
    };
    rep.push_row(vec![
        family.to_string(),
        profile.engine.clone(),
        profile.rounds.to_string(),
        format!("{:.3}", ms(profile.wall_ns)),
        format!("{:.3}", ms(profile.compute_ns)),
        format!("{:.3}", ms(profile.overhead_ns)),
        format!("{:.1}%", 100.0 * profile.compute_fraction()),
        profile.max_inbox_depth.to_string(),
        extra,
    ]);
}

/// Runs E15: profiles every (family, engine) pair and attaches the
/// machine-readable `BENCH_profile.json` artifact.
pub fn run(quick: bool) -> ExperimentReport {
    let n = if quick { 24 } else { 64 };
    let threads = 4;
    let mut rep = ExperimentReport::new(
        "E15",
        "engine overhead + congestion profile (wall-clock; host-dependent baseline)",
        &[
            "graph",
            "engine",
            "rounds",
            "wall ms",
            "compute ms",
            "overhead ms",
            "compute %",
            "max inbox",
            "engine detail",
        ],
    );
    let mut json_entries: Vec<String> = Vec::new();
    for (family, g) in families(n) {
        let gn = g.n();
        // Serial engine (the reference recording, also the pulse budget
        // for the synchronizer below).
        let (serial_out, serial_profile) = profiled(&g, DistBcConfig::default());
        rep.push_perf(
            &family,
            serial_out.rounds,
            serial_out.metrics.total_messages,
            serial_out.metrics.total_bits,
        );
        push_profile_row(&mut rep, &family, &serial_profile);
        json_entries.push(format!(
            "{{\"graph\":\"{family}\",\"profile\":{}}}",
            serial_profile.to_json()
        ));

        // Parallel engine: same run, worker utilization/imbalance added.
        let (_, parallel_profile) = profiled(
            &g,
            DistBcConfig {
                threads,
                ..DistBcConfig::default()
            },
        );
        push_profile_row(&mut rep, &family, &parallel_profile);
        json_entries.push(format!(
            "{{\"graph\":\"{family}\",\"profile\":{}}}",
            parallel_profile.to_json()
        ));

        // α-synchronizer: per-pulse compute from a clocked registry, skew
        // and queue counters from its report.
        let opts = AlgoOptions::for_graph_size(gn);
        let telemetry = Arc::new(Telemetry::new(1, 1));
        telemetry.set_clock(true);
        let (_, sync_report, _) = run_synchronized_with(
            &g,
            AsyncConfig::default(),
            serial_out.rounds + 1,
            |v, _| DistBcNode::new(gn, v, opts.clone()),
            SyncOptions {
                telemetry: Some(telemetry.clone()),
                ..SyncOptions::default()
            },
        );
        let mut sync_profile = ProfileReport::from_rounds("alpha-sync", telemetry.round_log(), &[]);
        sync_profile.sync = Some(sync_report.sync);
        push_profile_row(&mut rep, &family, &sync_profile);
        json_entries.push(format!(
            "{{\"graph\":\"{family}\",\"profile\":{}}}",
            sync_profile.to_json()
        ));
    }
    let mut artifact =
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E15\",\"profiles\":[");
    let _ = write!(artifact, "{}", json_entries.join(","));
    artifact.push_str("]}");
    rep.add_artifact("BENCH_profile.json", artifact);
    rep.note(
        "wall-clock columns are host-dependent (they profile the simulator, not the \
         algorithm); rounds/messages stay bit-identical with profiling on — the \
         observational-freeness tests assert this"
            .to_string(),
    );
    rep.note(format!(
        "parallel engine uses {threads} workers over contiguous node chunks; the \
         α-synchronizer pays its O(M) control messages per pulse in queue depth"
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_covers_three_families_and_engines() {
        let rep = run(true);
        // 3 families × 3 engines.
        assert_eq!(rep.rows.len(), 9);
        assert_eq!(rep.perf.len(), 3);
        let (name, artifact) = &rep.artifacts[0];
        assert_eq!(name, "BENCH_profile.json");
        assert!(artifact.starts_with("{\"schema_version\":1,"));
        assert!(artifact.contains("\"experiment\":\"E15\""));
        assert!(artifact.contains("\"engine\":\"serial\""));
        assert!(artifact.contains("\"engine\":\"parallel(4)\""));
        assert!(artifact.contains("\"engine\":\"alpha-sync\""));
        assert_eq!(artifact.matches("\"graph\":").count(), 9);
        // Per-phase congestion present for the provisioned engines.
        assert!(artifact.contains("\"name\":\"B:counting\""));
    }
}
