//! Minimum spanning trees via Prim's algorithm.
//!
//! The paper uses the MST twice: Theorem 3.9 shows any Euclidean MST is an
//! (n−1, n−1)-network, and α·w(MST) is the universal lower bound on the
//! edge cost of *any* connected network (used by γ certification). We run
//! Prim in O(n²) against a dense metric given as a closure — this covers
//! both point sets (‖·,·‖) and weighted host networks without building an
//! explicit complete graph.

use crate::Graph;
use gncg_geometry::PointSet;

/// MST edge list on vertices `0..n` under the dense weight function
/// `weight(i, j)` (must be symmetric; called only with `i != j`).
///
/// Deterministic: among equal-weight candidates, the smallest vertex index
/// joins the tree first.
pub fn prim_dense(n: usize, weight: impl Fn(usize, usize) -> f64) -> Vec<(usize, usize, f64)> {
    assert!(n >= 1);
    if n == 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best_cost = vec![f64::INFINITY; n];
    let mut best_link = vec![usize::MAX; n];
    let mut edges = Vec::with_capacity(n - 1);
    in_tree[0] = true;
    for v in 1..n {
        best_cost[v] = weight(0, v);
        best_link[v] = 0;
    }
    for _ in 1..n {
        let mut u = usize::MAX;
        let mut u_cost = f64::INFINITY;
        for v in 0..n {
            if !in_tree[v] && best_cost[v] < u_cost {
                u = v;
                u_cost = best_cost[v];
            }
        }
        assert!(u != usize::MAX, "disconnected weight function");
        in_tree[u] = true;
        edges.push((best_link[u].min(u), best_link[u].max(u), u_cost));
        for v in 0..n {
            if !in_tree[v] {
                let w = weight(u, v);
                if w < best_cost[v] {
                    best_cost[v] = w;
                    best_link[v] = u;
                }
            }
        }
    }
    edges
}

/// Euclidean MST of a point set, as a [`Graph`].
pub fn euclidean_mst(ps: &PointSet) -> Graph {
    let edges = prim_dense(ps.len(), |i, j| ps.dist(i, j));
    Graph::from_edges(ps.len(), &edges)
}

/// Total weight of the Euclidean MST — the `α·w(MST)` building block of
/// the social-optimum lower bound.
pub fn euclidean_mst_weight(ps: &PointSet) -> f64 {
    prim_dense(ps.len(), |i, j| ps.dist(i, j))
        .iter()
        .map(|&(_, _, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::Point;

    #[test]
    fn mst_of_line_is_consecutive_edges() {
        let ps = gncg_geometry::generators::line(6, 5.0);
        let mst = euclidean_mst(&ps);
        assert_eq!(mst.num_edges(), 5);
        for i in 0..5 {
            assert!(mst.has_edge(i, i + 1));
        }
        assert!((euclidean_mst_weight(&ps) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mst_of_square() {
        let ps = PointSet::new(vec![
            Point::d2(0.0, 0.0),
            Point::d2(1.0, 0.0),
            Point::d2(0.0, 1.0),
            Point::d2(1.0, 1.0),
        ]);
        // three unit edges, never a diagonal
        let mst = euclidean_mst(&ps);
        assert_eq!(mst.num_edges(), 3);
        assert!((mst.total_weight() - 3.0).abs() < 1e-12);
        assert!(!mst.has_edge(0, 3));
        assert!(!mst.has_edge(1, 2));
    }

    #[test]
    fn mst_weight_vs_kruskal_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let pts: Vec<Point> = (0..12)
                .map(|_| Point::d2(rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            let ps = PointSet::new(pts);
            let prim_w = euclidean_mst_weight(&ps);
            let kruskal_w = kruskal_weight(&ps);
            assert!((prim_w - kruskal_w).abs() < 1e-9);
        }
    }

    fn kruskal_weight(ps: &PointSet) -> f64 {
        let n = ps.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((ps.dist(i, j), i, j));
            }
        }
        edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        let mut total = 0.0;
        for (w, u, v) in edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru] = rv;
                total += w;
            }
        }
        total
    }

    #[test]
    fn single_point_mst_empty() {
        let ps = PointSet::new(vec![Point::d1(0.0)]);
        assert_eq!(euclidean_mst(&ps).num_edges(), 0);
        assert_eq!(euclidean_mst_weight(&ps), 0.0);
    }

    #[test]
    fn mst_with_colocated_points_has_zero_edges() {
        let ps = gncg_geometry::generators::triangle_clusters(3, 0.0);
        let mst = euclidean_mst(&ps);
        // 9 points -> 8 edges; 6 of them zero-length (within clusters),
        // 2 of them length 1 (connecting corners)
        assert_eq!(mst.num_edges(), 8);
        assert!((mst.total_weight() - 2.0).abs() < 1e-12);
    }
}
