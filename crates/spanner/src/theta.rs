//! Θ-graphs in the plane.
//!
//! Partition the plane around each point `u` into `k` cones of angle
//! θ = 2π/k; in each non-empty cone, connect `u` to the point whose
//! *projection onto the cone's bisector* is nearest. For `k > 8` the
//! Θ-graph is a t-spanner with `t = 1/(cos θ − sin θ)`; out-degree is at
//! most `k` by construction, making it naturally k-distributable (every
//! point owns its cone edges).
//!
//! O(k·n²) construction — the cone scan shared with the Yao graph, its
//! vertices in parallel, within the paper's O(n²) budget for constant k.

use crate::cones::cone_graph;
use gncg_geometry::PointSet;
use gncg_graph::Graph;

/// Stretch factor guaranteed by a Θ-graph with `cones` cones (valid for
/// `cones ≥ 9`, i.e. θ < π/4).
pub fn theta_stretch_bound(cones: usize) -> f64 {
    assert!(cones >= 9, "theta bound needs >= 9 cones");
    let theta = 2.0 * std::f64::consts::PI / cones as f64;
    1.0 / (theta.cos() - theta.sin())
}

/// Build the Θ-graph of a planar point set with `cones` cones.
pub fn theta_graph(ps: &PointSet, cones: usize) -> Graph {
    assert_eq!(ps.dim(), 2, "theta graphs are implemented for d = 2");
    assert!(cones >= 2);
    cone_graph(ps, cones, |bisector, dx, dy| {
        dx * bisector.cos() + dy * bisector.sin()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;
    use gncg_graph::stretch;

    #[test]
    fn theta_graph_respects_theory_stretch() {
        for seed in 0..5u64 {
            let ps = generators::uniform_unit_square(70, seed);
            let cones = 12;
            let g = theta_graph(&ps, cones);
            let bound = theta_stretch_bound(cones);
            let measured = stretch::stretch(&g, &ps);
            assert!(
                measured <= bound + 1e-9,
                "seed {seed}: measured {measured} > bound {bound}"
            );
        }
    }

    #[test]
    fn out_degree_bound_is_respected() {
        // undirected degree can exceed k, but the *edges added per point*
        // (ownership) is ≤ k; verify via the edge count
        let ps = generators::uniform_unit_square(100, 8);
        let cones = 10;
        let g = theta_graph(&ps, cones);
        assert!(g.num_edges() <= 100 * cones);
        assert!(gncg_graph::components::is_connected(&g));
    }

    #[test]
    fn stretch_bound_decreases_in_cones() {
        assert!(theta_stretch_bound(32) < theta_stretch_bound(12));
        assert!(theta_stretch_bound(12) < theta_stretch_bound(9));
    }

    #[test]
    fn colocated_points_connected() {
        let ps = generators::triangle_clusters(2, 0.0);
        let g = theta_graph(&ps, 10);
        assert!(gncg_graph::components::is_connected(&g));
    }

    #[test]
    fn two_points_single_edge() {
        let ps = gncg_geometry::PointSet::new(vec![
            gncg_geometry::Point::d2(0.0, 0.0),
            gncg_geometry::Point::d2(1.0, 1.0),
        ]);
        let g = theta_graph(&ps, 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "d = 2")]
    fn rejects_non_planar_input() {
        let ps = generators::uniform_cube(10, 3, 1);
        theta_graph(&ps, 10);
    }
}
