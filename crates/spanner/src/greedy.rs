//! The path-greedy t-spanner.
//!
//! Consider all pairs in non-decreasing distance order; add the edge
//! `{u, v}` iff the spanner built so far has `d(u,v) > t·‖u,v‖`. The
//! result is a t-spanner by construction, and for fixed dimension and
//! t > 1 its degree and weight are bounded by constants depending only on
//! t and d (Filtser & Solomon 2020). This is the workhorse spanner used
//! by Algorithm 1; its `(k, t)` are *measured* per instance by
//! [`crate::cert`] instead of assuming book constants.
//!
//! Complexity: O(n²) pairs, each answered with a Dijkstra run truncated
//! at `t·‖u,v‖` on a CSR snapshot of the spanner so far; the snapshot
//! is refreshed once per added edge (O(n + m) each). Good to a few
//! thousand points — the scale of the paper-level experiments.

use gncg_geometry::PointSet;
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::Graph;

/// Build the path-greedy t-spanner of `ps` (requires `t ≥ 1`).
///
/// Co-located points (distance 0) are connected with zero-weight edges to
/// the first point of their location class, keeping the output connected
/// without inflating degrees.
pub fn greedy_spanner(ps: &PointSet, t: f64) -> Graph {
    assert!(t >= 1.0, "stretch factor must be >= 1, got {t}");
    let n = ps.len();
    let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            pairs.push((ps.dist(u, v), u, v));
        }
    }
    greedy_over_pairs(n, pairs, t, gncg_geometry::EPS)
}

/// The greedy rule over distinct candidate pairs `(w, u, v)` on `n`
/// vertices: in non-decreasing `(w, u)` order, add `{u, v}` iff the
/// spanner so far has `d(u, v) > t·w·(1 + tol)`. A zero-weight pair is
/// thus added iff its endpoints are not yet joined by a zero-length
/// path (the bound-0 search explores just that component).
pub fn greedy_over_pairs(n: usize, mut pairs: Vec<(f64, usize, usize)>, t: f64, tol: f64) -> Graph {
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let mut g = Graph::new(n);
    let mut csr = Csr::from_graph(&g);
    let mut scratch = DijkstraScratch::default();
    let mut dist = vec![f64::INFINITY; n];
    for (w, u, v) in pairs {
        let limit = t * w;
        csr.dijkstra_bounded(u, &mut dist, limit, &mut scratch);
        if dist[v] > limit * (1.0 + tol) {
            g.add_edge(u, v, w);
            csr.refill_from_graph(&g);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;
    use gncg_graph::stretch;

    #[test]
    fn greedy_is_a_t_spanner() {
        for (seed, t) in [(1u64, 1.2), (2, 1.5), (3, 2.0), (4, 3.0)] {
            let ps = generators::uniform_unit_square(60, seed);
            let g = greedy_spanner(&ps, t);
            assert!(
                stretch::is_t_spanner(&g, &ps, t),
                "seed {seed} t {t}: stretch {}",
                stretch::stretch(&g, &ps)
            );
        }
    }

    #[test]
    fn larger_t_gives_sparser_graph() {
        let ps = generators::uniform_unit_square(80, 9);
        let tight = greedy_spanner(&ps, 1.1);
        let loose = greedy_spanner(&ps, 3.0);
        assert!(loose.num_edges() < tight.num_edges());
    }

    #[test]
    fn t_one_gives_complete_graph_generic_points() {
        // with t = 1 and points in general position every pair needs its
        // own edge
        let ps = generators::uniform_unit_square(12, 5);
        let g = greedy_spanner(&ps, 1.0);
        assert_eq!(g.num_edges(), 12 * 11 / 2);
    }

    #[test]
    fn collinear_points_give_path_for_any_t() {
        let ps = generators::line(10, 9.0);
        let g = greedy_spanner(&ps, 1.0);
        // consecutive edges suffice even at t = 1 on a line
        assert_eq!(g.num_edges(), 9);
        for i in 0..9 {
            assert!(g.has_edge(i, i + 1));
        }
    }

    #[test]
    fn bounded_degree_in_practice() {
        // for fixed t the greedy spanner's max degree stays small as n
        // grows — the property Algorithm 1 relies on
        let mut prev_max = 0;
        for n in [50, 100, 200] {
            let ps = generators::uniform_unit_square(n, 77);
            let g = greedy_spanner(&ps, 1.5);
            let md = g.max_degree();
            assert!(md <= 16, "n={n}: max degree {md}");
            prev_max = prev_max.max(md);
        }
        assert!(prev_max > 0);
    }

    #[test]
    fn colocated_points_connected_with_zero_edges() {
        let ps = generators::triangle_clusters(3, 0.0);
        let g = greedy_spanner(&ps, 2.0);
        assert!(gncg_graph::components::is_connected(&g));
        let zero_edges = g.edges().iter().filter(|&&(_, _, w)| w == 0.0).count();
        assert_eq!(zero_edges, 6); // 2 per cluster of 3 points
    }

    #[test]
    fn grid_greedy_connected_and_spanning() {
        let ps = generators::integer_grid(&[4, 4]);
        let g = greedy_spanner(&ps, 1.5);
        assert!(stretch::is_t_spanner(&g, &ps, 1.5));
    }

    #[test]
    fn single_point() {
        let ps = gncg_geometry::PointSet::new(vec![gncg_geometry::Point::d1(0.0)]);
        let g = greedy_spanner(&ps, 2.0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_t_below_one() {
        let ps = generators::line(3, 1.0);
        greedy_spanner(&ps, 0.5);
    }
}
