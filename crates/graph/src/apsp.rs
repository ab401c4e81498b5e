//! All-pairs shortest paths, parallel over sources.
//!
//! The game engine evaluates social cost and per-agent distance cost via
//! APSP; on n-point instances this is n independent Dijkstra runs, which
//! we self-schedule across threads with per-worker persistent scratch.
//! The hot path snapshots the graph into [`Csr`] form first: the frozen
//! layout scans neighbour lists sequentially instead of chasing
//! `Vec<Vec<…>>` pointers, and results land directly in the rows of a
//! flat [`DistMatrix`].

use crate::csr::{Csr, DijkstraScratch};
use crate::{dijkstra, DistMatrix, Graph};

/// Full distance matrix `d[u][v]`; `INFINITY` marks disconnected pairs.
///
/// Entry-for-entry identical to [`all_pairs_rows`] (same Dijkstra, same
/// tie-breaks); only the storage layout and scratch reuse differ.
pub fn all_pairs(g: &Graph) -> DistMatrix {
    Csr::from_graph(g).all_pairs()
}

/// Legacy ragged-rows APSP via per-source adjacency-list Dijkstra.
///
/// Retained as the property-test oracle for [`all_pairs`]; prefer
/// [`all_pairs`] everywhere else.
pub fn all_pairs_rows(g: &Graph) -> Vec<Vec<f64>> {
    gncg_parallel::parallel_map(g.len(), |u| dijkstra::distances(g, u))
}

/// Per-source aggregate `f(d_G(u, ·))` for every agent `u` without
/// materializing the matrix — the cost-model seam behind the distance
/// sums (`f` = row sum) and the max-distance objective (`f` = row
/// maximum). `f` sees the full row including the zero self-distance
/// `d[u][u]`.
pub fn distance_aggregates<F>(g: &Graph, f: F) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    let _span = gncg_trace::span("graph.apsp");
    let csr = Csr::from_graph(g);
    let n = csr.len();
    gncg_parallel::parallel_map_with(
        n,
        || (DijkstraScratch::default(), vec![f64::INFINITY; n]),
        |(scratch, row), u| {
            csr.dijkstra_into_slice(u, row, scratch);
            f(row)
        },
    )
}

/// Sum of all pairwise shortest-path distances Σ_u Σ_v d_G(u,v)
/// (each unordered pair counted twice, matching the paper's
/// Σ_{u∈P} d_G(u, P) convention).
pub fn total_distance(g: &Graph) -> f64 {
    total_row_aggregate(g, |row| row.iter().sum::<f64>())
}

/// `Σ_u f(d_G(u, ·))` without materializing the matrix — the total
/// behind [`total_distance`] (`f` = row sum) and the max-distance
/// social cost (`f` = row maximum, i.e. Σ_u ecc(u)). The per-agent
/// aggregates are summed left to right in agent order, so the total is
/// bit-identical at every thread count.
pub fn total_row_aggregate<F>(g: &Graph, f: F) -> f64
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    distance_aggregates(g, f)
        .into_iter()
        .fold(0.0, |acc, x| acc + x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn all_pairs_path() {
        let g = path_graph(5);
        let d = all_pairs(&g);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(d[u][v], (u as f64 - v as f64).abs());
            }
        }
    }

    #[test]
    fn all_pairs_symmetric() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let n = 40;
        let mut g = path_graph(n);
        for _ in 0..80 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_edge(u, v, rng.gen::<f64>() * 3.0);
            }
        }
        let d = all_pairs(&g);
        for u in 0..n {
            assert_eq!(d[u][u], 0.0);
            for v in 0..n {
                assert!((d[u][v] - d[v][u]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distance_sums_match_matrix_rows() {
        let g = path_graph(20);
        let m = all_pairs(&g);
        let s = distance_aggregates(&g, |row| row.iter().sum());
        for u in 0..20 {
            assert_eq!(s[u].to_bits(), m[u].iter().sum::<f64>().to_bits());
        }
    }

    #[test]
    fn total_distance_counts_ordered_pairs() {
        // path 0-1 with weight 2: total over ordered pairs = 4
        let g = Graph::from_edges(2, &[(0, 1, 2.0)]);
        assert!((total_distance(&g) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn total_distance_disconnected_is_infinite() {
        let g = Graph::new(3);
        assert!(total_distance(&g).is_infinite());
    }

    #[test]
    fn max_row_aggregate_is_eccentricity() {
        let g = path_graph(6); // eccentricities 5,4,3,3,4,5
        let ecc = distance_aggregates(&g, |row| row.iter().fold(0.0, |a: f64, &d| a.max(d)));
        assert_eq!(ecc, vec![5.0, 4.0, 3.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            total_row_aggregate(&g, |row| row.iter().fold(0.0, |a: f64, &d| a.max(d))),
            24.0
        );
    }

    #[test]
    fn flat_matrix_matches_legacy_rows_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let n = rng.gen_range(2..50);
            let mut g = path_graph(n.max(2));
            for _ in 0..3 * n {
                let u = rng.gen_range(0..n.max(2));
                let v = rng.gen_range(0..n.max(2));
                if u != v {
                    g.add_edge(u, v, 0.05 + rng.gen::<f64>() * 4.0);
                }
            }
            let m = all_pairs(&g);
            let rows = all_pairs_rows(&g);
            assert_eq!(m.len(), rows.len());
            for (u, row) in rows.iter().enumerate() {
                assert_eq!(m.row(u), &row[..]);
            }
        }
    }
}
