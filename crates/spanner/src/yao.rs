//! Yao graphs in the plane.
//!
//! Like the Θ-graph (the same parallel cone scan), but in each cone the
//! *Euclidean-nearest* point is selected (rather than nearest bisector
//! projection). For `k` cones of angle θ = 2π/k < π/3 the Yao graph is a
//! t-spanner with `t = 1/(1 − 2·sin(θ/2))`.

use crate::cones::cone_graph;
use gncg_geometry::PointSet;
use gncg_graph::Graph;

/// Stretch guaranteed by a Yao graph with `cones` cones (needs θ < π/3,
/// i.e. `cones ≥ 7`).
pub fn yao_stretch_bound(cones: usize) -> f64 {
    assert!(cones >= 7, "yao bound needs >= 7 cones");
    let theta = 2.0 * std::f64::consts::PI / cones as f64;
    1.0 / (1.0 - 2.0 * (theta / 2.0).sin())
}

/// Build the Yao graph of a planar point set with `cones` cones.
pub fn yao_graph(ps: &PointSet, cones: usize) -> Graph {
    assert_eq!(ps.dim(), 2, "yao graphs are implemented for d = 2");
    assert!(cones >= 2);
    cone_graph(ps, cones, |_, dx, dy| (dx * dx + dy * dy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;
    use gncg_graph::stretch;

    #[test]
    fn yao_graph_respects_theory_stretch() {
        for seed in 0..5u64 {
            let ps = generators::uniform_unit_square(70, seed + 100);
            let cones = 12;
            let g = yao_graph(&ps, cones);
            let bound = yao_stretch_bound(cones);
            let measured = stretch::stretch(&g, &ps);
            assert!(
                measured <= bound + 1e-9,
                "seed {seed}: measured {measured} > bound {bound}"
            );
        }
    }

    #[test]
    fn yao_connected_on_circle() {
        let ps = generators::circle(30, 2.0);
        let g = yao_graph(&ps, 8);
        assert!(gncg_graph::components::is_connected(&g));
    }

    #[test]
    fn yao_and_theta_may_differ() {
        // sanity: on a generic instance the two constructions are not the
        // same graph (they pick different cone representatives)
        let ps = generators::uniform_unit_square(60, 55);
        let y = yao_graph(&ps, 9);
        let t = crate::theta::theta_graph(&ps, 9);
        assert_ne!(y.edges(), t.edges());
    }

    #[test]
    fn stretch_bound_monotone() {
        assert!(yao_stretch_bound(24) < yao_stretch_bound(8));
    }

    #[test]
    #[should_panic(expected = "d = 2")]
    fn rejects_non_planar_input() {
        let ps = generators::uniform_cube(10, 3, 1);
        yao_graph(&ps, 10);
    }
}
