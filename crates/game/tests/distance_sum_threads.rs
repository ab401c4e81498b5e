//! Thread-count invariance of the distance totals: `apsp::total_distance`
//! and `cost::social_cost_of_graph` (both cost models) must return the
//! same bits uncapped, over repeated runs, as on one thread
//! (`with_max_threads(1)`, the sequential fallback). The graphs have
//! more than `DEFAULT_CHUNK` vertices, so the uncapped runs are parallel.
//!
//! `GNCG_THREADS` defaults to 4 here when unset, so the parallel path
//! runs even on a single-core machine; an explicit setting is kept.

use gncg_game::cost::social_cost_of_graph;
use gncg_game::{MaxDistance, SumDistances};
use gncg_geometry::generators;
use gncg_graph::{apsp, Graph};
use gncg_parallel::with_max_threads;

/// A connected sparse graph on `n` uniform points: a Hamiltonian path
/// plus two chords per vertex, weighted by Euclidean distance.
fn sparse_graph(n: usize, seed: u64) -> Graph {
    let ps = generators::uniform_unit_square(n, seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in [u + 1, (u * 7 + 3) % n, (u * 13 + 5) % n] {
            if v < n && v != u {
                edges.push((u, v, ps.dist(u, v)));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[test]
fn distance_totals_are_thread_count_invariant() {
    if std::env::var_os("GNCG_THREADS").is_none() {
        std::env::set_var("GNCG_THREADS", "4");
    }
    for (n, seed) in [(300, 1), (97, 5)] {
        let g = sparse_graph(n, seed);
        let totals = || {
            [
                apsp::total_distance(&g),
                social_cost_of_graph::<SumDistances>(&g, 1.5),
                social_cost_of_graph::<MaxDistance>(&g, 1.5),
            ]
            .map(f64::to_bits)
        };
        let one = with_max_threads(1, totals);
        for run in 0..20 {
            assert_eq!(totals(), one, "n = {n}, run {run}: uncapped vs one thread");
        }
    }
}
