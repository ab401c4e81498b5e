//! Geometric t-spanner constructions.
//!
//! Algorithm 1 of the paper consumes a *k-degree t-spanner* (or more
//! generally a *k-distributable* one: edges assignable so every agent
//! owns ≤ k). This crate provides the constructions used by the
//! reproduction:
//!
//! * [`greedy`] — the path-greedy spanner; for fixed dimension and t > 1
//!   it has bounded degree and is existentially optimal (Filtser &
//!   Solomon), our stand-in for [49, Thm 10.1.3],
//! * [`theta`] — the Θ-graph in ℝ² (out-degree ≤ cones by construction),
//! * [`yao`] — the Yao graph in ℝ²,
//! * [`grid`] — nearest-neighbour grid edges, a √d-spanner on integer
//!   grids (Theorem 3.13),
//! * [`cert`] — per-instance certification: measured stretch, max degree,
//!   max ownership.
//!
//! All constructions return a plain [`gncg_graph::Graph`]; ownership
//! assignment is a separate step (see `gncg_graph::orientation` and
//! [`cert::distribute`]).

pub mod cert;
mod cones;
pub mod greedy;
pub mod grid;
pub mod theta;
pub mod yao;

pub use grid::GridIndex;

use gncg_geometry::PointSet;
use gncg_graph::Graph;

/// Which spanner construction to use inside Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpannerKind {
    /// Path-greedy spanner with stretch target `t` (> 1).
    Greedy { t: f64 },
    /// Θ-graph with `cones` cones (ℝ² only; `cones ≥ 9` guarantees a
    /// finite stretch bound).
    Theta { cones: usize },
    /// Yao graph with `cones` cones (ℝ² only).
    Yao { cones: usize },
    /// Nearest-neighbour grid edges (integer grid point sets only).
    Grid,
    /// The complete graph (stretch 1, degree n−1).
    Complete,
}

/// Build the selected spanner over (a subset of) a point set.
///
/// `subset` holds the point indices to span; the returned graph is over
/// `0..subset.len()` in subset order.
pub fn build_on_subset(ps: &PointSet, subset: &[usize], kind: SpannerKind) -> Graph {
    let sub = sub_pointset(ps, subset);
    build(&sub, kind)
}

/// Build the selected spanner over the full point set.
pub fn build(ps: &PointSet, kind: SpannerKind) -> Graph {
    match kind {
        SpannerKind::Greedy { t } => greedy::greedy_spanner(ps, t),
        SpannerKind::Theta { cones } => theta::theta_graph(ps, cones),
        SpannerKind::Yao { cones } => yao::yao_graph(ps, cones),
        SpannerKind::Grid => grid::grid_spanner(ps),
        SpannerKind::Complete => Graph::complete(ps.len(), |i, j| ps.dist(i, j)),
    }
}

/// Extract the sub-point-set induced by `subset` (preserving order).
pub fn sub_pointset(ps: &PointSet, subset: &[usize]) -> PointSet {
    assert!(!subset.is_empty());
    PointSet::with_norm(
        subset.iter().map(|&i| ps.point(i).clone()).collect(),
        ps.norm(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn build_dispatches_all_kinds() {
        let ps = generators::uniform_unit_square(25, 3);
        for kind in [
            SpannerKind::Greedy { t: 1.5 },
            SpannerKind::Theta { cones: 10 },
            SpannerKind::Yao { cones: 10 },
            SpannerKind::Complete,
        ] {
            let g = build(&ps, kind);
            assert!(gncg_graph::components::is_connected(&g), "{kind:?}");
        }
    }

    #[test]
    fn subset_build_uses_local_indices() {
        let ps = generators::uniform_unit_square(20, 4);
        let subset: Vec<usize> = (5..15).collect();
        let g = build_on_subset(&ps, &subset, SpannerKind::Greedy { t: 2.0 });
        assert_eq!(g.len(), 10);
        assert!(gncg_graph::components::is_connected(&g));
    }

    #[test]
    fn sub_pointset_preserves_coordinates() {
        let ps = generators::line(6, 5.0);
        let sub = sub_pointset(&ps, &[0, 3, 5]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.point(1)[0], 3.0);
        assert_eq!(sub.point(2)[0], 5.0);
    }
}
