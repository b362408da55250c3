//! Experiment harness for the reproduction: one module per experiment in
//! `EXPERIMENTS.md` (E1–E10), each returning a structured
//! [`ExperimentReport`] that the `repro` binary renders and the Criterion
//! benches time.
//!
//! Every experiment is deterministic (seeded) so the tables in
//! `EXPERIMENTS.md` regenerate bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod experiments;
pub mod report;

pub use report::{ExperimentReport, PHASE_HEADERS};

/// Error returned by [`run_experiment`] for an id that names no experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The id that failed to resolve.
    pub id: String,
}

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment id {:?} (valid ids: {})",
            self.id,
            ALL_EXPERIMENTS.join(", ")
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Runs an experiment by id (`"e1"`…`"e21"`), at reduced scale if `quick`.
///
/// # Errors
///
/// Returns [`UnknownExperiment`] (its message lists the valid ids) when
/// `id` names no experiment; callers such as the `repro` CLI turn this
/// into a nonzero exit instead of a panic.
pub fn run_experiment(id: &str, quick: bool) -> Result<Vec<ExperimentReport>, UnknownExperiment> {
    Ok(match id {
        "e1" => vec![experiments::e1_figure1::run()],
        "e2" => vec![experiments::e2_correctness::run(quick)],
        "e3" => vec![
            experiments::e3_rounds::run(quick),
            experiments::e3_rounds::run_phases(quick),
        ],
        "e4" => vec![experiments::e4_error_vs_l::run(quick)],
        "e5" => vec![experiments::e5_compliance::run(quick)],
        "e6" => vec![experiments::e6_diameter_gadget::run(quick)],
        "e7" => vec![experiments::e7_bc_gadget::run(quick)],
        "e8" => vec![experiments::e8_cut_flow::run(quick)],
        "e9" => vec![experiments::e9_central_vs_dist::run(quick)],
        "e10" => vec![
            experiments::e10_ablation::run_scheduling(quick),
            experiments::e10_ablation::run_rounding(quick),
            experiments::e10_ablation::run_encoding(quick),
        ],
        "e11" => vec![experiments::e11_sampling::run(quick)],
        "e12" => vec![experiments::e12_weighted::run(quick)],
        "e13" => vec![experiments::e13_windows::run(quick)],
        "e14" => vec![experiments::e14_apsp_pipeline::run(quick)],
        "e15" => vec![experiments::e15_profile::run(quick)],
        "e16" => vec![experiments::e16_engine::run(quick)],
        "e17" => vec![experiments::e17_faults::run(quick)],
        "e18" => vec![experiments::e18_scaling::run(quick)],
        "e19" => vec![experiments::e19_wire::run(quick)],
        "e20" => vec![experiments::e20_serve::run(quick)],
        "e21" => vec![experiments::e21_sampled_scale::run(quick)],
        other => {
            return Err(UnknownExperiment {
                id: other.to_string(),
            })
        }
    })
}

/// All experiment ids in order (E1–E10 regenerate paper artifacts;
/// E11–E21 are the extension experiments).
pub const ALL_EXPERIMENTS: [&str; 21] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21",
];
