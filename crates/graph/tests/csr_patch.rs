//! The in-place CSR edge patches (`Csr::insert_edge`, `remove_edge`)
//! against a fresh snapshot of the identically edited adjacency-list
//! graph. After every step of a random insert / update / remove
//! sequence — zero-weight edges included — the patched CSR must equal
//! `Csr::from_graph` of the edited `Graph` slice for slice (targets and
//! weight bits, hence offsets), answer `has_edge` like the graph, and
//! give bit-identical Dijkstra rows with identical pop and relaxation
//! counts from every source.

use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::Graph;
use gncg_trace::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every vertex's neighbour slice with weights as bits.
fn layout(csr: &Csr) -> Vec<(Vec<u32>, Vec<u64>)> {
    (0..csr.len())
        .map(|u| {
            let (ts, ws) = csr.neighbors(u);
            (ts.to_vec(), ws.iter().map(|w| w.to_bits()).collect())
        })
        .collect()
}

/// Row bits and `(heap pops, relaxations)` of a full Dijkstra from
/// `source`. The counters are process-wide, so this file holds a single
/// test and nothing else runs while it measures.
fn counted_row(csr: &Csr, source: usize, scratch: &mut DijkstraScratch) -> (Vec<u64>, u64, u64) {
    let mut row = vec![0.0; csr.len()];
    let before = gncg_trace::snapshot();
    csr.dijkstra_into_slice(source, &mut row, scratch);
    let delta = gncg_trace::snapshot().counters_since(&before);
    (
        row.iter().map(|d| d.to_bits()).collect(),
        delta[Counter::DijkstraHeapPops as usize],
        delta[Counter::DijkstraRelaxations as usize],
    )
}

/// A weight drawn from a small set with many ties and zeros, or a real.
fn weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => 0.0,
        1 => rng.gen_range(1..4) as f64,
        _ => rng.gen::<f64>() * 2.0,
    }
}

#[test]
fn patched_csr_equals_a_fresh_snapshot_after_every_edit() {
    gncg_trace::set_enabled(true);
    let mut scratch = DijkstraScratch::default();
    let mut edits = [0usize; 2];
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed + seed);
        let n = rng.gen_range(2..28);
        let mut g = Graph::new(n);
        for _ in 0..rng.gen_range(0..2 * n) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                g.add_edge(u, v, weight(&mut rng));
            }
        }
        let mut csr = Csr::from_graph(&g);
        for step in 0..60 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            // remove an existing edge half the time it is present
            if g.has_edge(u, v) && rng.gen_bool(0.5) {
                assert!(g.remove_edge(u, v));
                assert!(csr.remove_edge(u, v));
                edits[1] += 1;
            } else {
                let w = weight(&mut rng);
                let fresh = g.add_edge(u, v, w);
                assert_eq!(csr.insert_edge(u, v, w), fresh);
                edits[0] += 1;
            }
            // removing an absent edge is a no-op on both sides
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b && !g.has_edge(a, b) {
                assert!(!csr.remove_edge(a, b));
            }

            let fresh = Csr::from_graph(&g);
            let ctx = format!("seed {seed} step {step}");
            assert_eq!(layout(&csr), layout(&fresh), "{ctx}: layout");
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(csr.has_edge(a, b), g.has_edge(a, b), "{ctx}: {a}-{b}");
                }
            }
            for s in 0..n {
                let patched = counted_row(&csr, s, &mut scratch);
                let snapshot = counted_row(&fresh, s, &mut scratch);
                assert!(patched.1 > 0, "{ctx}: counters off");
                assert_eq!(patched, snapshot, "{ctx}: row from {s}");
            }
        }
    }
    assert!(edits[0] > 100 && edits[1] > 50, "{edits:?}");
}
