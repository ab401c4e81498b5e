//! Weighted undirected graphs and the shortest-path / spanning-tree
//! machinery the GNCG needs.
//!
//! * [`Graph`] — adjacency-list weighted graph over vertices `0..n`,
//! * [`csr`] — frozen CSR snapshots and the one production Dijkstra
//!   kernel (full, bounded, or with predecessors) with reusable
//!   [`csr::DijkstraScratch`],
//! * [`heap4`] — the indexed 4-ary decrease-key heap over packed keys
//!   that the kernel and the delta repairs queue on,
//! * [`delta`] — incremental row repairs after edge edits, with
//!   [`delta::dijkstra_modified`] as their oracle,
//! * [`dijkstra`] — the adjacency-list Dijkstra oracle (`tree`,
//!   `distances`) the kernel is tested against,
//! * [`apsp`] — all-pairs shortest paths into a flat [`DistMatrix`],
//!   parallel over sources with per-worker scratch,
//! * [`mst`] — Prim's algorithm, O(n²), on arbitrary dense metrics,
//! * [`orientation`] — degeneracy ordering and bounded out-degree edge
//!   orientation: the paper's *k-distributable* ownership assignment,
//! * [`components`] — connectivity,
//! * [`stretch`] — spanner stretch certification.

pub mod apsp;
pub mod components;
pub mod csr;
pub mod delta;
pub mod dijkstra;
pub mod graph;
pub mod heap4;
pub mod matrix;
pub mod mst;
pub mod orientation;
pub mod stretch;

pub use graph::Graph;
pub use matrix::DistMatrix;
