//! Graph substrate for the distributed betweenness-centrality reproduction.
//!
//! Provides the undirected, unweighted, simple graphs of the paper's system
//! model (Section III): CSR storage ([`Graph`]), deterministic and seeded
//! random [`generators`], centralized shortest-path machinery
//! ([`algo::bfs`], [`algo::diameter`]) used both as building blocks and as
//! reference oracles, and an edge-list text format ([`io`]).
//!
//! # Example
//!
//! ```
//! use bc_graph::{algo, generators};
//!
//! let g = generators::erdos_renyi_connected(64, 0.05, 7);
//! assert!(algo::is_connected(&g));
//! let dag = algo::bfs(&g, 0);
//! assert_eq!(dag.dist[0], 0);
//! assert!(algo::diameter(&g) >= dag.eccentricity() / 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod weighted;

pub use csr::{Graph, GraphBuilder, GraphError, NodeId, ReversePorts};
