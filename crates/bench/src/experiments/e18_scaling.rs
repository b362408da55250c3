//! E18 — parallel-engine scaling: wall clock of the sharded data plane
//! across graph sizes (n ∈ {64, 128, 256}) and worker counts
//! (threads ∈ {1, 2, 4, 8}, where 1 is the serial engine).
//!
//! Where E16 asks "how fast is one round?" at a fixed size, E18 asks
//! "when does parallelism start paying?". Each row reports the wall-clock
//! ratio against the serial run of the same graph as `ratio_permille`
//! (1000 = parity, < 1000 = parallel wins): a host-relative measure both
//! sides of which move together under host noise, which is what the CI
//! `scaling` job guards via `bench_guard --metric ratio_permille` against
//! the committed `BENCH_scaling.json`.
//!
//! Results are asserted bit-identical (betweenness and CONGEST metrics)
//! across every engine and thread count before any row is emitted. The
//! break-even observed here calibrates `bc_core::AUTO_THREADS_MIN_NODES`
//! (the `--threads auto` threshold).
//!
//! Whether parallel(4) actually dips below 1.00x depends on the host's
//! core count, which is therefore recorded as `host_cores` in the
//! artifact: on a single-core host parity is the physical floor and the
//! ratio measures pure data-plane overhead.

use super::e15_profile::profiled;
use crate::ExperimentReport;
use bc_congest::SCHEMA_VERSION;
use bc_core::DistBcConfig;
use bc_graph::{generators, Graph};
use std::fmt::Write as _;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The scaling families: ER and BA at size `n` (the two families whose
/// parallel(4)/serial ratio at n = 256 the CI guard enforces).
fn scaling_families(n: usize) -> Vec<(String, Graph)> {
    vec![
        (
            format!("er-{n}"),
            generators::erdos_renyi_connected(n, (8.0 / n as f64).min(0.5), 7),
        ),
        (format!("ba-{n}"), generators::barabasi_albert(n, 2, 7)),
    ]
}

fn best_wall(
    g: &Graph,
    cfg: &DistBcConfig,
    reps: usize,
) -> (bc_core::DistBcResult, bc_congest::ProfileReport) {
    let (out, mut best) = profiled(g, cfg.clone());
    for _ in 1..reps {
        let (_, p) = profiled(g, cfg.clone());
        if p.wall_ns < best.wall_ns {
            best = p;
        }
    }
    (out, best)
}

/// The emitted configurations, serial first.
fn configs(quick: bool) -> Vec<DistBcConfig> {
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    threads
        .iter()
        .map(|&t| DistBcConfig {
            threads: t,
            ..DistBcConfig::default()
        })
        .collect()
}

/// Runs E18: the thread/size scaling sweep with the `BENCH_scaling.json`
/// artifact for the CI `scaling` regression guard.
pub fn run(quick: bool) -> ExperimentReport {
    let sizes: &[usize] = if quick { &[64, 256] } else { &[64, 128, 256] };
    let reps = if quick { 1 } else { 3 };
    let mut rep = ExperimentReport::new(
        "E18",
        "parallel-engine scaling (wall-clock; ratio vs serial is the guarded metric)",
        &[
            "graph",
            "engine",
            "rounds",
            "wall ms",
            "serial ms",
            "ratio",
            "intra msgs",
            "cross msgs",
        ],
    );
    let mut json_entries: Vec<String> = Vec::new();
    for &n in sizes {
        for (family, g) in scaling_families(n) {
            let mut serial: Option<(bc_core::DistBcResult, u64)> = None;
            for cfg in configs(quick) {
                let (out, profile) = best_wall(&g, &cfg, reps);
                let serial_wall = match &serial {
                    None => {
                        // threads=1 is always the first config: the serial
                        // reference every later row is normalized against.
                        assert_eq!(
                            profile.engine, "serial",
                            "{family}: sweep must start serial"
                        );
                        serial = Some((out, profile.wall_ns));
                        profile.wall_ns
                    }
                    Some((reference, serial_wall)) => {
                        assert_eq!(
                            out.betweenness, reference.betweenness,
                            "{family}: {} diverged from serial betweenness",
                            profile.engine
                        );
                        assert_eq!(
                            out.metrics, reference.metrics,
                            "{family}: {} diverged from serial metrics",
                            profile.engine
                        );
                        *serial_wall
                    }
                };
                let ratio_permille = profile.wall_ns * 1000 / serial_wall.max(1);
                rep.push_row(vec![
                    family.clone(),
                    profile.engine.clone(),
                    profile.rounds.to_string(),
                    format!("{:.3}", ms(profile.wall_ns)),
                    format!("{:.3}", ms(serial_wall)),
                    format!("{:.2}x", ratio_permille as f64 / 1000.0),
                    profile.intra_shard_messages.to_string(),
                    profile.cross_shard_messages.to_string(),
                ]);
                json_entries.push(format!(
                    "{{\"graph\":\"{family}\",\"engine\":\"{}\",\"wall_ns\":{},\
                     \"serial_wall_ns\":{},\"ratio_permille\":{}}}",
                    profile.engine, profile.wall_ns, serial_wall, ratio_permille
                ));
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut artifact = format!("{{\"schema_version\":{SCHEMA_VERSION},\"experiment\":\"E18\",\"host_cores\":{cores},\"profiles\":[");
    let _ = write!(artifact, "{}", json_entries.join(","));
    artifact.push_str("]}");
    rep.add_artifact("BENCH_scaling.json", artifact);
    rep.note(
        "ratio = wall / serial wall on the same graph (1.00x = parity, lower = \
         parallel wins); CI guards ratio_permille at n=256 so the parallel(4)/serial \
         ratio on er-256/ba-256 cannot silently regress past the committed baseline"
            .to_string(),
    );
    rep.note(format!(
        "this host exposes {cores} core{} (recorded as host_cores in the artifact); \
         with fewer cores than workers the engine detects oversubscription, yields at \
         the round barrier, and wall-clock parity with serial is the physical floor — \
         the ratio then measures pure data-plane overhead: two spin-barrier \
         crossings per round, with worker 0 settling the round between them",
        if cores == 1 { "" } else { "s" }
    ));
    rep.note(
        "serial rows carry ratio 1.00x by construction; the break-even size \
         observed here calibrates the --threads auto threshold \
         (bc_core::AUTO_THREADS_MIN_NODES)"
            .to_string(),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scaling_sweep_covers_sizes_and_ratios() {
        let rep = run(true);
        // 2 sizes × 2 families × (serial + parallel(4)).
        assert_eq!(rep.rows.len(), 8);
        let (name, artifact) = &rep.artifacts[0];
        assert_eq!(name, "BENCH_scaling.json");
        assert!(artifact.starts_with("{\"schema_version\":1,"));
        assert!(artifact.contains("\"experiment\":\"E18\""));
        assert!(artifact.contains("\"host_cores\":"));
        assert!(artifact.contains("\"graph\":\"er-256\""));
        assert!(artifact.contains("\"graph\":\"ba-256\""));
        assert!(artifact.contains("\"engine\":\"parallel(4)\""));
        assert!(artifact.contains("\"ratio_permille\":"));
        // Serial rows are self-normalized.
        for row in rep.rows.iter().filter(|r| r[1] == "serial") {
            assert_eq!(row[5], "1.00x", "{row:?}");
        }
    }
}
