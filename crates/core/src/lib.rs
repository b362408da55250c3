//! The paper's primary contribution: an `O(N)`-round deterministic
//! distributed algorithm computing the betweenness centrality of **every**
//! node of an undirected, unweighted graph under the CONGEST model
//! (Hua et al., ICDCS 2016).
//!
//! The implementation follows the paper's two phases:
//!
//! 1. **Counting (Algorithm 2):** a DFS token walks a BFS tree of the
//!    network; each first visit launches one BFS wave, and the waves are
//!    pipelined so that all `N` single-source computations finish in
//!    `O(N)` rounds (Holzer–Wattenhofer). Every node `v` ends up with
//!    `(T_s, d(s,v), σ̂_sv, P_s(v))` for every source `s`, with the
//!    potentially exponential path counts `σ` carried in the `L`-bit
//!    ceiling floating point of Section VI.
//! 2. **Aggregation (Algorithm 3):** node `u` sends `1/σ̂_su + ψ̂_s(u)` to
//!    its predecessors at round `T_s + D − d(s,u)` — the schedule of
//!    Lemma 4, under which no two messages ever share a directed edge in
//!    a round — and finalizes `δ̂_s·(u) = ψ̂_s(u)·σ̂_su`, accumulating
//!    `C_B(u)`.
//!
//! The execution is CONGEST-*enforced*, not just CONGEST-styled: all
//! payloads are bit-encoded ([`Codec`]) and the simulator fails on any
//! collision or oversized message (strict mode), so Lemmas 3–5 and
//! Theorem 2 are checked on every run. The round totals verify Theorem 3
//! (`O(N)`), and the floating-point error obeys Theorem 1 / Corollary 1.
//!
//! A deliberately unpipelined [`Scheduling::Sequential`] baseline
//! (`Θ(N²)` counting rounds) quantifies what the paper's scheduling buys
//! (experiment E10a).
//!
//! # Quickstart
//!
//! ```
//! use bc_core::{run_distributed_bc, DistBcConfig};
//! use bc_graph::generators;
//!
//! let g = generators::erdos_renyi_connected(40, 0.08, 1);
//! let out = run_distributed_bc(&g, DistBcConfig::default())?;
//! assert_eq!(out.betweenness.len(), 40);
//! assert!(out.metrics.congest_compliant());     // Lemmas 3–5
//! assert!(out.rounds < 16 * 40);                // Theorem 3, O(N)
//! # Ok::<(), bc_core::DistBcError>(())
//! ```
//!
//! # Entry points
//!
//! Every in-process run goes through [`run`], which takes the graph, a
//! [`DistBcConfig`] and the [`Instruments`] to attach (a trace sink, a
//! profile) and returns a [`Run`]: the result, the sink and the profile.
//! [`run_distributed_bc`] is its uninstrumented shorthand and
//! [`run_distributed_bc_weighted`] the weighted extension on top of it.
//! Multi-process runs go through [`wire::run_leader`] and
//! [`wire::serve_shard`]; they validate, plan and finish a run exactly as
//! [`run`] does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp_pipeline;
mod codec;
mod driver;
mod node;
mod result;
mod sampling;
mod schedule;
pub mod snapshot;
pub mod transport;
pub mod wire;

pub use codec::{Codec, DecodeError, ProtocolMsg};
pub use driver::{
    auto_threads, auto_threads_for, run, run_distributed_bc, run_distributed_bc_weighted,
    DistBcConfig, DistBcError, DistBcResult, Instruments, Run, WeightedDistBcResult,
    AUTO_THREADS_MIN_NODES,
};
pub use node::{AggInfo, AlgoOptions, DistBcNode};
pub use sampling::{source_mask, Estimator, SourceIndex, SourceSelection};
pub use schedule::{PhaseSchedule, Scheduling};
pub use snapshot::{CentralitySnapshot, SnapshotDecodeError, SnapshotStore};
pub use transport::{Reliable, ReliableConfig, TransportStats, HEADER_BITS};
pub use wire::{run_leader, serve_shard, WireRunError};
