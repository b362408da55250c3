//! E16 — round-engine throughput: best-of-N wall clock of the serial and
//! pooled-parallel engines on the E15 graph families, normalized to
//! ns/round, with the idle-skipping active set quantified via the
//! engine's `nodes_stepped` counter.
//!
//! Like E15, the wall-clock columns describe the *host*; the artifact
//! (`BENCH_engine.json`) reuses the E15 `profiles` shape so `bench_guard`
//! can diff it against the committed `BENCH_profile.json` baseline by
//! `(graph, engine)` key. Results are asserted bit-identical across all
//! engines and thread counts before any row is emitted.

use crate::ExperimentReport;
use bc_congest::{ProfileReport, Telemetry, SCHEMA_VERSION};
use bc_core::DistBcConfig;
use std::fmt::Write as _;
use std::sync::Arc;

use super::e15_profile::{families, profiled};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs the config `reps` times, returning the run output once and the
/// lowest-wall-clock profile (best-of-N suppresses scheduler noise).
fn best_profile(
    g: &bc_graph::Graph,
    cfg: &DistBcConfig,
    reps: usize,
) -> (bc_core::DistBcResult, ProfileReport) {
    let (out, mut best) = profiled(g, cfg.clone());
    for _ in 1..reps {
        let (_, p) = profiled(g, cfg.clone());
        if p.wall_ns < best.wall_ns {
            best = p;
        }
    }
    (out, best)
}

fn push_row(rep: &mut ExperimentReport, family: &str, n: usize, profile: &ProfileReport) {
    let rounds = profile.rounds.max(1);
    let stepped_share = profile.nodes_stepped as f64 / (rounds * n as u64) as f64;
    rep.push_row(vec![
        family.to_string(),
        profile.engine.clone(),
        profile.rounds.to_string(),
        format!("{:.3}", ms(profile.wall_ns)),
        format!("{:.0}", profile.wall_ns as f64 / rounds as f64),
        format!("{:.0}", profile.overhead_ns as f64 / rounds as f64),
        profile.nodes_stepped.to_string(),
        format!("{:.1}%", 100.0 * stepped_share),
    ]);
}

/// Runs E16: engine throughput across families and thread counts, with
/// the `BENCH_engine.json` artifact for the CI regression guard. Full
/// runs sweep n ∈ {64, 256}: 64 is where serial wins (the historical
/// baseline), 256 is where the sharded parallel engine starts paying —
/// baselining only the small size would let a parallel regression hide
/// (E18 sweeps the ratio itself).
pub fn run(quick: bool) -> ExperimentReport {
    let sizes: &[usize] = if quick { &[24] } else { &[64, 256] };
    let reps = if quick { 1 } else { 3 };
    let mut rep = ExperimentReport::new(
        "E16",
        "round-engine throughput (wall-clock; host-dependent baseline)",
        &[
            "graph",
            "engine",
            "rounds",
            "wall ms",
            "ns/round",
            "overhead ns/round",
            "nodes stepped",
            "step share",
        ],
    );
    let mut json_entries: Vec<String> = Vec::new();
    let mut telemetry_entries: Vec<String> = Vec::new();
    for (family, g) in sizes.iter().flat_map(|&n| families(n)) {
        let gn = g.n();
        // Reference: serial with idle skipping off — every node steps
        // every round, the pre-active-set behaviour.
        let (noskip_out, mut noskip_profile) = best_profile(
            &g,
            &DistBcConfig {
                skip_idle: false,
                ..DistBcConfig::default()
            },
            reps,
        );
        noskip_profile.engine = "serial/no-skip".to_string();
        push_row(&mut rep, &family, gn, &noskip_profile);

        for threads in [0usize, 2, 4] {
            let cfg = DistBcConfig {
                threads,
                ..DistBcConfig::default()
            };
            let (out, profile) = best_profile(&g, &cfg, reps);
            assert_eq!(
                out.betweenness, noskip_out.betweenness,
                "{family}: engine (threads={threads}) diverged from the no-skip serial run"
            );
            assert_eq!(
                out.metrics, noskip_out.metrics,
                "{family}: metrics diverged"
            );
            rep.push_perf(
                format!("{family}/{}", profile.engine),
                out.rounds,
                out.metrics.total_messages,
                out.metrics.total_bits,
            );
            push_row(&mut rep, &family, gn, &profile);
            json_entries.push(format!(
                "{{\"graph\":\"{family}\",\"profile\":{}}}",
                profile.to_json()
            ));

            // Same config with the always-on telemetry layer attached: the
            // result must stay bit-identical, and the wall-clock ratio
            // (1000 = parity, like E18's ratio_permille) quantifies the
            // steady-state cost of leaving telemetry enabled by default.
            let tel_cfg = DistBcConfig {
                telemetry: Some(Arc::new(Telemetry::new(threads.max(1), 64))),
                ..cfg.clone()
            };
            let (tel_out, tel_profile) = best_profile(&g, &tel_cfg, reps);
            assert_eq!(
                tel_out.betweenness, noskip_out.betweenness,
                "{family}: telemetry-on run (threads={threads}) diverged from telemetry-off"
            );
            assert_eq!(
                tel_out.metrics, noskip_out.metrics,
                "{family}: telemetry-on metrics diverged"
            );
            let overhead_permille = tel_profile.wall_ns * 1000 / profile.wall_ns.max(1);
            telemetry_entries.push(format!(
                "{{\"graph\":\"{family}\",\"engine\":\"{}\",\"wall_ns\":{},\
                 \"telemetry_wall_ns\":{},\"telemetry_overhead_permille\":{}}}",
                profile.engine, profile.wall_ns, tel_profile.wall_ns, overhead_permille
            ));
        }
    }
    let mut artifact =
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E16\",\"profiles\":[");
    let _ = write!(artifact, "{}", json_entries.join(","));
    artifact.push_str("]}");
    rep.add_artifact("BENCH_engine.json", artifact);
    let mut tel_artifact =
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E16\",\"profiles\":[");
    let _ = write!(tel_artifact, "{}", telemetry_entries.join(","));
    tel_artifact.push_str("]}");
    rep.add_artifact("BENCH_telemetry.json", tel_artifact);
    rep.note(
        "wall-clock columns are host-dependent; betweenness and CONGEST metrics are \
         asserted bit-identical across every engine and thread count before a row is \
         emitted"
            .to_string(),
    );
    rep.note(
        "step share = nodes stepped / (rounds x n); the serial/no-skip row is the \
         pre-active-set reference and is excluded from the BENCH_engine.json artifact"
            .to_string(),
    );
    rep.note(
        "BENCH_telemetry.json measures the same sweep with the always-on telemetry \
         layer attached: telemetry_overhead_permille = telemetry wall / plain wall x \
         1000 on the same host (1000 = parity, 1020 = 2% overhead); results are \
         asserted bit-identical before the ratio is recorded"
            .to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_engine_sweep_covers_families_and_thread_counts() {
        let rep = run(true);
        // 3 families × (no-skip reference + 3 engine configs).
        assert_eq!(rep.rows.len(), 12);
        assert_eq!(rep.perf.len(), 9);
        let (name, artifact) = &rep.artifacts[0];
        assert_eq!(name, "BENCH_engine.json");
        assert!(artifact.starts_with("{\"schema_version\":1,"));
        assert!(artifact.contains("\"experiment\":\"E16\""));
        assert!(artifact.contains("\"engine\":\"serial\""));
        assert!(artifact.contains("\"engine\":\"parallel(2)\""));
        assert!(artifact.contains("\"engine\":\"parallel(4)\""));
        assert!(!artifact.contains("no-skip"));
        assert_eq!(artifact.matches("\"graph\":").count(), 9);
        let (tel_name, tel_artifact) = &rep.artifacts[1];
        assert_eq!(tel_name, "BENCH_telemetry.json");
        assert!(tel_artifact.starts_with("{\"schema_version\":1,"));
        assert_eq!(
            tel_artifact
                .matches("\"telemetry_overhead_permille\":")
                .count(),
            9
        );
        assert_eq!(tel_artifact.matches("\"graph\":").count(), 9);
        // Idle skipping leaves most (family, round) node slots unstepped.
        let stepped: Vec<&str> = rep
            .rows
            .iter()
            .filter(|r| r[1] == "serial")
            .map(|r| r[7].as_str())
            .collect();
        assert_eq!(stepped.len(), 3);
    }
}
