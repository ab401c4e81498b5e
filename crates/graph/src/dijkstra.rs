//! The adjacency-list Dijkstra oracle.
//!
//! Production code runs the CSR kernel ([`crate::csr::Csr`]); this
//! module keeps one independent relaxation loop over [`Graph`] as the
//! named oracle the kernel is tested against. It queues on a
//! lazy-deletion `std` [`BinaryHeap`] (a node may be queued more than
//! once; stale entries are skipped when popped), so it shares no queue
//! code with the kernel's indexed heap.

use crate::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Queue keys pack the raw IEEE bits of the tentative distance above
/// the node id: `bits << 64 | node`. Pushed distances are sums of
/// non-negative weights (sign bit clear), over which the u64 bit
/// pattern is strictly monotone in the value, so the packed integer
/// compare orders entries by distance with ties broken toward the
/// smaller node id — the same total order the CSR kernel uses (see
/// `csr::pack_key`), hence the same pop sequence.
#[inline]
fn pack_key(bits: u64, node: usize) -> u128 {
    ((bits as u128) << 64) | node as u128
}

#[inline]
fn unpack_key(key: u128) -> (f64, usize) {
    (f64::from_bits((key >> 64) as u64), key as u64 as usize)
}

/// Shortest-path distances from `source` to every vertex.
/// Unreachable vertices get `f64::INFINITY` (the paper's `d_G(u,v) = +∞`).
pub fn distances(g: &Graph, source: usize) -> Vec<f64> {
    tree(g, source).0
}

/// Shortest-path tree: distances plus a predecessor per vertex
/// (`usize::MAX` for the source and unreachable vertices).
pub fn tree(g: &Graph, source: usize) -> (Vec<f64>, Vec<usize>) {
    let n = g.len();
    assert!(source < n);
    let mut dist = vec![f64::INFINITY; n];
    let mut pred = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(Reverse(pack_key(0.0f64.to_bits(), source)));
    let (mut pops, mut relaxed) = (0u64, 0u64);
    while let Some(Reverse(key)) = heap.pop() {
        pops += 1;
        let (d, u) = unpack_key(key);
        if d > dist[u] {
            continue; // stale entry, node already settled closer
        }
        for &(v, w) in g.neighbors(u) {
            let nd = d + w;
            if nd < dist[v] {
                relaxed += 1;
                dist[v] = nd;
                pred[v] = u;
                heap.push(Reverse(pack_key(nd.to_bits(), v)));
            }
        }
    }
    gncg_trace::record_dijkstra(pops, relaxed);
    (dist, pred)
}
