//! Centralized centrality baselines for the distributed betweenness
//! reproduction.
//!
//! Implements the paper's Algorithm 1 (Brandes) in three arithmetics —
//! [`betweenness_f64`], exact-rational [`betweenness_exact`], and the
//! paper's Section VI floating point [`betweenness_ceilfloat`] — plus an
//! independent `Θ(N³)` oracle ([`betweenness_naive`]), the companion
//! centralities of Eqs. (1)–(3) ([`closeness_centrality`],
//! [`graph_centrality`], [`stress_centrality`]), and the sampling
//! approximations the related-work section discusses ([`approx`]).
//! Every `f64` pass runs on one allocation-free per-source kernel,
//! [`BrandesKernel`].
//!
//! # Example
//!
//! ```
//! use bc_brandes::betweenness_f64;
//! use bc_graph::generators;
//!
//! // The paper's Figure 1 example: C_B(v2) = 7/2.
//! let cb = betweenness_f64(&generators::paper_figure1());
//! assert_eq!(cb[1], 3.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
mod betweenness;
mod centrality;
pub mod ranking;
pub mod weighted;

pub use betweenness::{
    betweenness_ceilfloat, betweenness_exact, betweenness_f64, betweenness_naive,
    dependencies_from, BrandesKernel,
};
pub use centrality::{closeness_centrality, graph_centrality, stress_centrality};
