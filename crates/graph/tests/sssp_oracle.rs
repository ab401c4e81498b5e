//! The CSR Dijkstra kernel against the adjacency-list oracle
//! (`dijkstra::tree` + `path_from_tree`), on every kernel variant:
//!
//! * full rows are bit-identical to the oracle's distances;
//! * the recorded predecessors are the oracle's, so every rebuilt path
//!   is identical;
//! * a bounded run is exact on every vertex the oracle puts within the
//!   bound and reports everything else as beyond it;
//! * a scratch shared across graphs of growing and shrinking size, and
//!   across bounded runs that leave nodes queued, gives the same rows
//!   and predecessors as a fresh scratch.
//!
//! Inputs cover real weights, integer weights whose metric-closure
//! edges tie with multi-hop paths, and zero-weight edges between
//! coincident points — the case where pop order is not `(row, id)`
//! order and a predecessor re-derived from the row would differ.

use gncg_graph::csr::{path_from_tree, Csr, DijkstraScratch};
use gncg_graph::{dijkstra, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sparse graph with real weights on a spanning path plus random chords.
fn real_weights(n: usize, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n - 1 {
        g.add_edge(u, u + 1, 0.1 + rng.gen::<f64>());
    }
    for _ in 0..2 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            g.add_edge(u, v, 0.1 + rng.gen::<f64>() * 3.0);
        }
    }
    g
}

/// Small integer weights, then a share of the metric-closure pairs
/// added as direct edges of exactly their shortest-path length: every
/// such edge ties with at least one multi-hop path.
fn integer_closure(n: usize, rng: &mut StdRng) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n - 1 {
        g.add_edge(u, u + 1, rng.gen_range(1..4) as f64);
    }
    for _ in 0..n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            g.add_edge(u, v, rng.gen_range(1..6) as f64);
        }
    }
    let closure: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|u| {
            let row = dijkstra::distances(&g, u);
            ((u + 1)..n).map(move |v| (u, v, row[v]))
        })
        .collect();
    for (u, v, d) in closure {
        if !g.has_edge(u, v) && rng.gen::<f64>() < 0.3 {
            g.add_edge(u, v, d);
        }
    }
    g
}

/// Integer grid points, some of them repeated, joined by every pair
/// within L1 distance 2: coincident points get zero-weight edges.
fn coincident_points(n: usize, rng: &mut StdRng) -> Graph {
    let mut pts: Vec<(i64, i64)> = (0..n)
        .map(|_| (rng.gen_range(0..4), rng.gen_range(0..4)))
        .collect();
    for i in 0..n / 3 {
        pts[n - 1 - i] = pts[i];
    }
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = (pts[u].0 - pts[v].0).abs() + (pts[u].1 - pts[v].1).abs();
            if d <= 2 {
                g.add_edge(u, v, d as f64);
            }
        }
    }
    g
}

/// Every kernel variant from `source` against the oracle.
fn check_source(
    g: &Graph,
    csr: &Csr,
    source: usize,
    bounds: &[f64],
    scratch: &mut DijkstraScratch,
) {
    let n = g.len();
    let (oracle_dist, oracle_pred) = dijkstra::tree(g, source);
    let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();

    let mut row = vec![0.0; n];
    csr.dijkstra_into_slice(source, &mut row, scratch);
    assert_eq!(bits(&row), bits(&oracle_dist), "full row from {source}");

    let mut pred = vec![0; n];
    csr.dijkstra_tree(source, &mut row, &mut pred, scratch);
    assert_eq!(bits(&row), bits(&oracle_dist), "tree row from {source}");
    assert_eq!(pred, oracle_pred, "predecessors from {source}");
    for t in 0..n {
        assert_eq!(
            path_from_tree(&pred, source, t),
            path_from_tree(&oracle_pred, source, t),
            "path {source} -> {t}"
        );
    }

    for &bound in bounds {
        csr.dijkstra_bounded(source, &mut row, bound, scratch);
        for v in 0..n {
            if oracle_dist[v] <= bound {
                assert_eq!(
                    row[v].to_bits(),
                    oracle_dist[v].to_bits(),
                    "bound {bound}: {source} -> {v}"
                );
            } else {
                assert!(
                    row[v] > bound,
                    "bound {bound}: {source} -> {v} reads {}",
                    row[v]
                );
            }
        }
    }
}

/// All sources of `g`, bounded at 0, at `extra`, and at the quartiles of
/// each source's finite oracle distances.
fn check_graph(g: &Graph, extra: &[f64]) {
    let csr = Csr::from_graph(g);
    let mut scratch = DijkstraScratch::default();
    for s in 0..g.len() {
        let mut finite: Vec<f64> = dijkstra::distances(g, s)
            .into_iter()
            .filter(|d| d.is_finite())
            .collect();
        finite.sort_by(f64::total_cmp);
        let mut bounds = vec![0.0];
        bounds.extend(extra);
        bounds.extend([1, 2, 3].map(|q| finite[q * (finite.len() - 1) / 4]));
        check_source(g, &csr, s, &bounds, &mut scratch);
    }
}

#[test]
fn kernel_matches_oracle_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x5550);
    for _ in 0..6 {
        let n = rng.gen_range(2..40);
        check_graph(&real_weights(n, &mut rng), &[]);
        check_graph(&integer_closure(n, &mut rng), &[]);
        check_graph(&coincident_points(n.max(6), &mut rng), &[1.0]);
    }
}

#[test]
fn kernel_matches_oracle_on_hand_built_graphs() {
    // path 0-1-2-3 plus a heavy shortcut 0-3: d(0,3) = 3 along the path
    let diamond = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 10.0)]);
    check_graph(&diamond, &[3.0]);
    let (dist, pred) = dijkstra::tree(&diamond, 0);
    assert_eq!(dist, vec![0.0, 1.0, 2.0, 3.0]);
    assert_eq!(path_from_tree(&pred, 0, 3), Some(vec![0, 1, 2, 3]));
    assert_eq!(path_from_tree(&pred, 0, 0), Some(vec![0]));

    // a bound between two path vertices cuts off everything past it
    let path = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
    check_graph(&path, &[1.5]);
    let mut row = vec![0.0; 4];
    Csr::from_graph(&path).dijkstra_bounded(0, &mut row, 1.5, &mut DijkstraScratch::default());
    assert_eq!(&row[..2], &[0.0, 1.0]);
    assert!(row[3] > 1.5);

    // a zero-weight edge
    let zero = Graph::from_edges(3, &[(0, 1, 0.0), (1, 2, 5.0)]);
    check_graph(&zero, &[]);
    assert_eq!(dijkstra::distances(&zero, 0), vec![0.0, 0.0, 5.0]);

    // disconnected: unreachable vertices have no path and stay beyond any bound
    let split = Graph::from_edges(4, &[(0, 1, 1.0)]);
    check_graph(&split, &[f64::MAX]);
    let (dist, pred) = dijkstra::tree(&split, 0);
    assert!(dist[1] == 1.0 && dist[2].is_infinite() && dist[3].is_infinite());
    assert_eq!(path_from_tree(&pred, 0, 2), None);
}

/// Full row and predecessors from `source` on a fresh scratch.
fn fresh_tree(csr: &Csr, source: usize) -> (Vec<u64>, Vec<usize>) {
    let n = csr.len();
    let (mut row, mut pred) = (vec![0.0; n], vec![0; n]);
    csr.dijkstra_tree(source, &mut row, &mut pred, &mut DijkstraScratch::default());
    (row.iter().map(|d| d.to_bits()).collect(), pred)
}

#[test]
fn one_scratch_across_graph_sizes_matches_fresh_scratch() {
    let mut rng = StdRng::seed_from_u64(0x5c4a);
    let mut shared = DijkstraScratch::default();
    let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    for &n in &[40usize, 7, 90, 2, 33, 120, 12, 64] {
        let g = match n % 3 {
            0 => real_weights(n, &mut rng),
            1 => integer_closure(n, &mut rng),
            _ => coincident_points(n.max(6), &mut rng),
        };
        let csr = Csr::from_graph(&g);
        let n = csr.len();
        for s in 0..n {
            let (want_row, want_pred) = fresh_tree(&csr, s);
            // a bounded run first, stopping with nodes still queued
            let bound = f64::from_bits(want_row[(s + 1) % n]) * 0.5;
            let mut row = vec![0.0; n];
            csr.dijkstra_bounded(s, &mut row, bound, &mut shared);
            let mut fresh = vec![0.0; n];
            csr.dijkstra_bounded(s, &mut fresh, bound, &mut DijkstraScratch::default());
            assert_eq!(bits(&row), bits(&fresh), "n {n}: bounded row from {s}");
            csr.dijkstra_into_slice(s, &mut row, &mut shared);
            assert_eq!(bits(&row), want_row, "n {n}: full row from {s}");
            let mut pred = vec![0; n];
            csr.dijkstra_bounded(s, &mut row, bound, &mut shared);
            csr.dijkstra_tree(s, &mut row, &mut pred, &mut shared);
            assert_eq!(bits(&row), want_row, "n {n}: tree row from {s}");
            assert_eq!(pred, want_pred, "n {n}: predecessors from {s}");
        }
    }
}
