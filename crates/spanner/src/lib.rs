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
pub mod greedy;
pub mod grid;
pub mod theta;
pub mod yao;

pub use grid::GridIndex;

use gncg_geometry::{Norm, PointSet};
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

/// Relative slack on every theorem-based stretch bound: the
/// construction tolerance of the greedy rule plus the rounding of
/// measured path folds and of the theorems' trigonometry, so that a
/// measured stretch never exceeds the reported bound.
const STRETCH_SLACK: f64 = 2.0 * gncg_geometry::EPS;

impl SpannerKind {
    /// The stretch this construction provably guarantees on `ps`: the
    /// construction's theorem, inflated by a relative `2·EPS`, or `∞`
    /// when no theorem covers the input.
    ///
    /// * `Greedy { t }`: `t`, by construction, under any norm (the rule
    ///   itself admits a relative `EPS`, which the slack covers);
    /// * `Theta { cones }` with `cones ≥ 9` and `Yao { cones }` with
    ///   `cones ≥ 7`: [`theta::theta_stretch_bound`] /
    ///   [`yao::yao_stretch_bound`], on Euclidean planar inputs;
    /// * `Grid`: [`grid::grid_stretch_bound`] (`√d`, Theorem 3.13) on a
    ///   full Euclidean integer box, i.e. when the distinct integer
    ///   points [`grid::grid_spanner`] accepts fill their bounding box;
    /// * `Complete`: exactly 1.
    ///
    /// The slack covers the rounding of a measured stretch at any `n`
    /// below 10⁶ (a path fold errs by at most `n·ε` relative).
    pub fn proven_stretch(self, ps: &PointSet) -> f64 {
        let planar_l2 = ps.dim() == 2 && ps.norm() == Norm::L2;
        let theorem = match self {
            SpannerKind::Greedy { t } => t,
            SpannerKind::Theta { cones } if cones >= 9 && planar_l2 => {
                theta::theta_stretch_bound(cones)
            }
            SpannerKind::Yao { cones } if cones >= 7 && planar_l2 => yao::yao_stretch_bound(cones),
            SpannerKind::Grid if ps.norm() == Norm::L2 && fills_bounding_box(ps) => {
                grid::grid_stretch_bound(ps.dim())
            }
            SpannerKind::Complete => return 1.0,
            _ => return f64::INFINITY,
        };
        theorem * (1.0 + STRETCH_SLACK)
    }
}

/// Whether as many points as integer lattice points in the bounding box
/// — for distinct integer points, that the set is the full box.
fn fills_bounding_box(ps: &PointSet) -> bool {
    let cells: f64 = (0..ps.dim())
        .map(|axis| {
            let coords = (0..ps.len()).map(|i| ps.point(i).coords()[axis]);
            let (lo, hi) = coords.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                (lo.min(c), hi.max(c))
            });
            (hi - lo).round() + 1.0
        })
        .product();
    cells == ps.len() as f64
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
