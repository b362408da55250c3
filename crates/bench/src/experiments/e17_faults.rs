//! E17 — chaos sweep: the reliable transport over seeded fault plans.
//!
//! For each E15 graph family, a fault-free bare run fixes the baseline,
//! then reliable runs sweep drop ∈ {0, 5%, 10%, 20%} (with duplication at
//! half the drop rate and reordering delays mixed in). Every reliable run
//! must reproduce the baseline betweenness **bit for bit** — that assert
//! is the experiment; the table then quantifies what reliability costs in
//! rounds, retransmissions, and discarded duplicates.
//!
//! The artifact (`BENCH_faults.json`) reuses the E15/E16 `profiles` shape
//! with one extra per-record field, `overhead_permille` =
//! `1000 × reliable_rounds / baseline_rounds`. Unlike `wall_ns` this is a
//! pure function of the seeded plan, so `bench_guard --metric
//! overhead_permille` diffs it deterministically across hosts: a guard
//! failure means the transport itself got chattier, not that the runner
//! was slow.

use crate::ExperimentReport;
use bc_congest::{FaultPlan, SCHEMA_VERSION};
use bc_core::{run_distributed_bc, DistBcConfig};
use std::fmt::Write as _;

use super::e15_profile::{families, profiled};

/// Drop rates of the sweep, in permille (0 = reliable mode on a clean
/// network, measuring the pure pipeline/ack overhead).
const DROP_PERMILLE: [u64; 4] = [0, 50, 100, 200];

/// The sweep's fault plan at one drop level: duplication at half the drop
/// rate, reordering (delay ≤ 2 rounds) at the drop rate, seed fixed so the
/// artifact regenerates bit-for-bit.
fn plan(drop_pm: u64) -> Option<FaultPlan> {
    (drop_pm > 0).then(|| FaultPlan {
        drop: drop_pm as f64 / 1000.0,
        duplicate: drop_pm as f64 / 2000.0,
        delay: drop_pm as f64 / 1000.0,
        max_delay: 2,
        ..FaultPlan::seeded(17)
    })
}

/// Runs E17: bit-exactness under faults plus the reliability cost table,
/// with the `BENCH_faults.json` artifact for the CI chaos guard.
pub fn run(quick: bool) -> ExperimentReport {
    let n = if quick { 20 } else { 40 };
    let mut rep = ExperimentReport::new(
        "E17",
        "reliable transport under seeded faults (bit-exact; overhead vs fault-free run)",
        &[
            "graph",
            "drop",
            "base rounds",
            "reliable rounds",
            "overhead",
            "retransmits",
            "deduped",
            "faults injected",
        ],
    );
    let mut json_entries: Vec<String> = Vec::new();
    for (family, g) in families(n) {
        let baseline = run_distributed_bc(&g, DistBcConfig::default()).expect("fault-free run");
        for drop_pm in DROP_PERMILLE {
            let cfg = DistBcConfig {
                faults: plan(drop_pm),
                reliable: true,
                ..DistBcConfig::default()
            };
            let (out, profile) = profiled(&g, cfg);
            assert_eq!(
                out.betweenness, baseline.betweenness,
                "{family} drop={drop_pm}‰: reliable run diverged from fault-free baseline"
            );
            let overhead_permille = 1000 * out.rounds / baseline.rounds.max(1);
            rep.push_row(vec![
                family.clone(),
                format!("{:.1}%", drop_pm as f64 / 10.0),
                baseline.rounds.to_string(),
                out.rounds.to_string(),
                format!("{:.2}x", overhead_permille as f64 / 1000.0),
                profile.messages_retransmitted.to_string(),
                profile.messages_deduped.to_string(),
                profile.faults_injected.to_string(),
            ]);
            rep.push_perf(
                format!("{family}/drop{drop_pm}pm"),
                out.rounds,
                out.metrics.total_messages,
                out.metrics.total_bits,
            );
            json_entries.push(format!(
                "{{\"graph\":\"{family}/drop{drop_pm}pm\",\"profile\":{},\
                 \"overhead_permille\":{overhead_permille}}}",
                profile.to_json()
            ));
        }
    }
    let mut artifact =
        format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E17\",\"profiles\":[");
    let _ = write!(artifact, "{}", json_entries.join(","));
    artifact.push_str("]}");
    rep.add_artifact("BENCH_faults.json", artifact);
    rep.note(
        "every reliable row is asserted bit-identical to the fault-free baseline before \
         it is emitted — the table reports the cost of that guarantee, not an \
         approximation error"
            .to_string(),
    );
    rep.note(
        "overhead_permille in BENCH_faults.json is a deterministic function of the \
         seeded plan (rounds, not wall clock), so bench_guard --metric overhead_permille \
         compares it across hosts without runner noise"
            .to_string(),
    );
    rep.note(
        "each drop level also duplicates at half the drop rate and reorders (delay ≤ 2) \
         at the drop rate; the 0% row measures the transport's pure pipeline/ack \
         overhead — two extra rounds and zero retransmissions"
            .to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_chaos_sweep_covers_families_and_drop_levels() {
        let rep = run(true);
        // 3 families × 4 drop levels; the bit-exactness asserts inside
        // run() are the real test.
        assert_eq!(rep.rows.len(), 12);
        assert_eq!(rep.perf.len(), 12);
        let (name, artifact) = &rep.artifacts[0];
        assert_eq!(name, "BENCH_faults.json");
        assert!(artifact.starts_with("{\"schema_version\":1,"));
        assert!(artifact.contains("\"experiment\":\"E17\""));
        assert_eq!(artifact.matches("\"overhead_permille\":").count(), 12);
        assert!(artifact.contains("\"engine\":\"serial+reliable\""));
        // Clean-network reliable runs never retransmit; lossy ones must.
        let drop0: Vec<&Vec<String>> = rep.rows.iter().filter(|r| r[1] == "0.0%").collect();
        assert!(drop0.iter().all(|r| r[5] == "0" && r[6] == "0"));
        let lossy: Vec<&Vec<String>> = rep.rows.iter().filter(|r| r[1] == "20.0%").collect();
        assert!(lossy.iter().all(|r| r[5] != "0"));
    }
}
