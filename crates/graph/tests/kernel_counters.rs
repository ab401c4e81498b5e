//! The work counters of the CSR Dijkstra kernel against the
//! adjacency-list oracle (`dijkstra::tree`) and the what-if oracle
//! (`delta::dijkstra_modified`), and of the insertion repair.
//!
//! Every routine counts a relaxation for each strict decrease
//! `nd < dist[v]` it writes (repair seeds included), so routines that
//! settle the same vertices in the same order record the same count.
//!
//! The kernel's indexed heap queues each vertex once, so it pops every
//! reachable vertex exactly once: its `dijkstra_heap_pops` is the
//! number of reachable vertices. `dijkstra::tree`'s lazy heap also
//! pops the stale entries a decrease leaves behind, so its count is at
//! least that; `dijkstra_modified` skips them before counting, so with
//! no edits it matches the kernel on both counters. All three settle
//! vertices in the same `(distance, id)` order.
//!
//! Inputs are ties-heavy on purpose: coincident points (zero-weight
//! edges) and unit grids with diagonals, where many paths share one
//! length and a change in the settle order would show as a different
//! relaxation count.

use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::{delta, dijkstra, Graph};
use gncg_trace::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random points on a small integer lattice, a third of them repeated,
/// joined by every pair within Euclidean distance 1.5: coincident
/// points get zero-weight edges, and several components may remain.
fn coincident_points(n: usize, rng: &mut StdRng) -> Graph {
    let side = 2 + n / 8;
    let mut pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0..side) as f64, rng.gen_range(0..side) as f64))
        .collect();
    for i in 0..n / 3 {
        pts[n - 1 - i] = pts[i];
    }
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let d = (pts[u].0 - pts[v].0).hypot(pts[u].1 - pts[v].1);
            if d <= 1.5 {
                g.add_edge(u, v, d);
            }
        }
    }
    g
}

/// A `w × h` unit grid with a random share of its unit diagonals
/// (weight 2, tying with the two-step paths around them) and a few
/// missing edges.
fn grid_ties(w: usize, h: usize, rng: &mut StdRng) -> Graph {
    let id = |x: usize, y: usize| y * w + x;
    let mut g = Graph::new(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w && rng.gen::<f64>() < 0.95 {
                g.add_edge(id(x, y), id(x + 1, y), 1.0);
            }
            if y + 1 < h && rng.gen::<f64>() < 0.95 {
                g.add_edge(id(x, y), id(x, y + 1), 1.0);
            }
            if x + 1 < w && y + 1 < h && rng.gen::<f64>() < 0.3 {
                g.add_edge(id(x, y), id(x + 1, y + 1), 2.0);
            }
        }
    }
    g
}

/// The trace totals are process-wide, so the tests of this file take
/// turns: each holds this lock for its whole run.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// `(heap pops, relaxations)` recorded by `work` on this thread.
fn tallies(work: impl FnOnce()) -> (u64, u64) {
    let before = gncg_trace::snapshot();
    work();
    let d = gncg_trace::snapshot().counters_since(&before);
    (
        d[Counter::DijkstraHeapPops as usize],
        d[Counter::DijkstraRelaxations as usize],
    )
}

#[test]
fn kernel_pops_each_reachable_vertex_once_and_relaxes_like_the_oracle() {
    let _serial = serial();
    gncg_trace::set_enabled(true);
    let mut rng = StdRng::seed_from_u64(0xc0c0);
    let mut graphs = Vec::new();
    for _ in 0..8 {
        let n = rng.gen_range(6..60);
        graphs.push(coincident_points(n, &mut rng));
        let (w, h) = (rng.gen_range(2..9), rng.gen_range(2..9));
        graphs.push(grid_ties(w, h, &mut rng));
    }
    let mut scratch = DijkstraScratch::default();
    let mut stale = 0u64;
    for (i, g) in graphs.iter().enumerate() {
        let csr = Csr::from_graph(g);
        let n = g.len();
        for s in 0..n {
            let mut oracle = (Vec::new(), Vec::new());
            let (oracle_pops, oracle_relaxed) = tallies(|| oracle = dijkstra::tree(g, s));
            let reachable = oracle.0.iter().filter(|d| d.is_finite()).count() as u64;
            let mut row = vec![0.0; n];
            let (pops, relaxed) = tallies(|| csr.dijkstra_into_slice(s, &mut row, &mut scratch));
            assert_eq!(pops, reachable, "graph {i}: full-row pops from {s}");
            assert_eq!(
                relaxed, oracle_relaxed,
                "graph {i}: full-row relaxations from {s}"
            );
            // the what-if oracle with no edits: the kernel's row and tallies
            let mut what_if = vec![0.0; n];
            let tally = tallies(|| delta::dijkstra_modified(&csr, s, &mut what_if, &[], &[]));
            assert_eq!(
                tally,
                (pops, relaxed),
                "graph {i}: unedited what-if from {s}"
            );
            assert_eq!(what_if, row, "graph {i}: unedited what-if row from {s}");
            let mut pred = vec![0; n];
            let (pops, relaxed) =
                tallies(|| csr.dijkstra_tree(s, &mut row, &mut pred, &mut scratch));
            assert_eq!(pops, reachable, "graph {i}: tree-row pops from {s}");
            assert_eq!(
                relaxed, oracle_relaxed,
                "graph {i}: tree-row relaxations from {s}"
            );
            assert!(oracle_pops >= reachable);
            stale += oracle_pops - reachable;
        }
    }
    assert!(stale > 0, "no input made the oracle pop a stale entry");
}

#[test]
fn an_insertion_that_shortens_one_vertex_records_one_relaxation() {
    let _serial = serial();
    gncg_trace::set_enabled(true);
    // a unit path 0 - 1 - 2 - 3 plus a pendant 4 hanging off 3; the
    // shortcut 0 - 4 of length 3.5 improves vertex 4 only (4 → 3.5) and
    // relaxes nothing onward (3 stays at 3, 0 at 0)
    let mut g = Graph::new(5);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
        g.add_edge(u, v, 1.0);
    }
    let mut row = vec![0.0; 5];
    let mut scratch = DijkstraScratch::default();
    Csr::from_graph(&g).dijkstra_into_slice(0, &mut row, &mut scratch);
    g.add_edge(0, 4, 3.5);
    let csr = Csr::from_graph(&g);
    let (pops, relaxed) = tallies(|| delta::repair_insertions(&csr, &mut row, &[(0, 4, 3.5)]));
    assert_eq!(relaxed, 1, "one strict decrease, the seed of vertex 4");
    assert_eq!(pops, 1, "only vertex 4 is queued");
    let mut fresh = vec![0.0; 5];
    csr.dijkstra_into_slice(0, &mut fresh, &mut scratch);
    assert_eq!(row, fresh);
    assert_eq!(row, [0.0, 1.0, 2.0, 3.0, 3.5]);
}
