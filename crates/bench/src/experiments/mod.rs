//! One module per experiment; see `DESIGN.md` §4 for the index mapping
//! each to the paper artifact it regenerates.

pub mod e10_ablation;
pub mod e11_sampling;
pub mod e12_weighted;
pub mod e13_windows;
pub mod e14_apsp_pipeline;
pub mod e15_profile;
pub mod e16_engine;
pub mod e17_faults;
pub mod e18_scaling;
pub mod e19_wire;
pub mod e1_figure1;
pub mod e20_serve;
pub mod e21_sampled_scale;
pub mod e2_correctness;
pub mod e3_rounds;
pub mod e4_error_vs_l;
pub mod e5_compliance;
pub mod e6_diameter_gadget;
pub mod e7_bc_gadget;
pub mod e8_cut_flow;
pub mod e9_central_vs_dist;
