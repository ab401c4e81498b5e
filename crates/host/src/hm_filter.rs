//! The `H_M` long-edge filter (Section 5.1).
//!
//! Starting from the longest edge `uv`: if `d_H(u, v) < w(u, v)` remove
//! `uv` from `H`; repeat until every edge is checked. The surviving
//! network `H_M` is connected and *metric* in the sense that every kept
//! edge realizes the shortest-path distance between its endpoints:
//! `w(u,v) = d_{H_M}(u,v)`.

use crate::HostNetwork;
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::Graph;

/// Apply the filter to a complete host network; returns `H_M` as a graph
/// (not necessarily complete).
///
/// Each check runs on the graph *with* `uv`, bounded at `w`: since
/// `d_H(u,v) = min(w, d_{H−uv}(u,v))`, the edge is dominated iff
/// `d_H(u,v) < w − 1e-12`, and a bounded run settles `v` exactly because
/// `d_H(u,v) ≤ w`. The CSR snapshot is refreshed only after a removal.
pub fn hm_filter(h: &HostNetwork) -> Graph {
    let n = h.len();
    let mut g = Graph::complete(n, |i, j| h.weight(i, j));
    let mut edges = g.edges();
    // longest first
    edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    let mut csr = Csr::from_graph(&g);
    let mut scratch = DijkstraScratch::default();
    let mut dist = vec![f64::INFINITY; n];
    for (u, v, w) in edges {
        csr.dijkstra_bounded(u, &mut dist, w, &mut scratch);
        if dist[v] < w - 1e-12 {
            g.remove_edge(u, v);
            csr.refill_from_graph(&g);
        }
    }
    g
}

/// Check the defining property of `H_M`: each surviving edge realizes
/// the shortest-path distance between its endpoints.
pub fn is_shortest_path_network(g: &Graph) -> bool {
    let csr = Csr::from_graph(g);
    let mut scratch = DijkstraScratch::default();
    let mut dist = vec![f64::INFINITY; g.len()];
    g.edges().into_iter().all(|(u, v, w)| {
        csr.dijkstra_bounded(u, &mut dist, w, &mut scratch);
        (dist[v] - w).abs() <= 1e-9 * w.max(1.0)
    })
}

/// The metric induced by `H_M` (distances in the filtered network),
/// which equals the original host's metric closure.
pub fn hm_metric(h: &HostNetwork) -> gncg_graph::DistMatrix {
    gncg_graph::apsp::all_pairs(&hm_filter(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_keeps_metric_host_complete() {
        // in a strict-metric host no edge is dominated
        let h = HostNetwork::random_metric(8, 2);
        // random_metric uses a closure, so some edges exactly equal path
        // sums; the filter keeps ties, so the result realizes the same
        // metric even if a few redundant edges are kept
        let g = hm_filter(&h);
        assert!(is_shortest_path_network(&g));
        let m = gncg_graph::apsp::all_pairs(&g);
        let cl = h.metric_closure();
        for u in 0..8 {
            for v in 0..8 {
                assert!((m[u][v] - cl[u][v]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn filter_removes_dominated_edges_nonmetric() {
        let h = HostNetwork::random_nonmetric(10, 0.1, 10.0, 7);
        let g = hm_filter(&h);
        assert!(g.num_edges() < 45, "nothing was filtered?");
        assert!(gncg_graph::components::is_connected(&g));
        assert!(is_shortest_path_network(&g));
    }

    #[test]
    fn hm_metric_equals_host_closure() {
        let h = HostNetwork::random_nonmetric(9, 0.5, 5.0, 3);
        let m = hm_metric(&h);
        let cl = h.metric_closure();
        for u in 0..9 {
            for v in 0..9 {
                assert!(
                    (m[u][v] - cl[u][v]).abs() < 1e-9,
                    "pair ({u},{v}): {} vs {}",
                    m[u][v],
                    cl[u][v]
                );
            }
        }
    }

    #[test]
    fn triangle_with_dominated_edge() {
        // explicit 3-node example: w(0,2) = 5 dominated by 1 + 1
        let h = HostNetwork::from_matrix(vec![
            vec![0.0, 1.0, 5.0],
            vec![1.0, 0.0, 1.0],
            vec![5.0, 1.0, 0.0],
        ]);
        let g = hm_filter(&h);
        assert!(!g.has_edge(0, 2));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn two_nodes_keep_their_edge() {
        let h = HostNetwork::from_matrix(vec![vec![0.0, 3.0], vec![3.0, 0.0]]);
        let g = hm_filter(&h);
        assert!(g.has_edge(0, 1));
    }
}
