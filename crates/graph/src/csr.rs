//! Compressed sparse row (CSR) graph view.
//!
//! The adjacency-list [`crate::Graph`] is convenient for the game
//! engine's incremental edits; the APSP-heavy kernels (γ certification
//! on large instances, the benchmark sweeps) prefer a cache-friendly
//! layout. [`Csr`] keeps all neighbour lists in two flat arrays, each
//! vertex's slice sorted by target — the order [`crate::Graph`] keeps —
//! plus the one production Dijkstra kernel (full rows, rows bounded at
//! a distance, or rows with their shortest-path tree), which reuses
//! caller-provided scratch buffers to avoid per-source allocation.
//!
//! A snapshot is taken with [`Csr::from_graph`] / [`Csr::refill_from_graph`];
//! a single-edge edit is patched into the flat arrays in place
//! ([`Csr::insert_edge`], [`Csr::remove_edge`]). Both keep the slices
//! sorted, so a patched CSR equals a fresh snapshot of the identically
//! edited graph array for array, and Dijkstra pops and relaxes in the
//! same order on either.

use crate::{DistMatrix, Graph};

/// CSR layout of an undirected weighted graph: both directions of every
/// edge, each vertex's neighbour slice sorted by target.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

/// Arena recycling: the best-response evaluator re-freezes a rest graph
/// per evaluation and rents the CSR instead of allocating three flat
/// arrays each time. A reset CSR has zero vertices; renters refill it
/// with [`Csr::refill_from_graph`] / [`Csr::refill_from_graph_without_vertex`].
impl gncg_parallel::arena::Scratch for Csr {
    fn reset(&mut self) {
        self.offsets.clear();
        self.targets.clear();
        self.weights.clear();
    }
}

/// Reusable scratch space for the [`Csr`] Dijkstra kernel: its indexed
/// queue, sized to the largest graph it has served.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    heap: crate::heap4::IndexedHeap,
}

/// Arena recycling for per-worker Dijkstra scratch: hot loops rent a
/// scratch with `gncg_parallel::arena::rent::<DijkstraScratch>()`
/// instead of constructing one per call. The kernel resets the queue
/// for its graph before it starts (a bounded run leaves nodes queued),
/// so a recycled scratch is indistinguishable from a fresh one.
impl gncg_parallel::arena::Scratch for DijkstraScratch {
    fn reset(&mut self) {
        self.heap.reset(0);
    }
}

/// Queue keys pack the raw IEEE bits of the tentative distance above
/// the node id: `bits << 32 | node`. Every distance pushed is a sum of
/// non-negative weights — sign bit clear (the kernel debug-asserts it)
/// — and over sign-positive doubles the u64 bit pattern is strictly
/// monotone in the value, so the packed integer compare orders entries
/// by distance with ties broken toward the smaller node id: exactly the
/// order the legacy float comparator imposed. The queue holds one key
/// per node, its current tentative distance, so the pop sequence is the
/// sorted order of those keys — bit-for-bit the legacy one, whatever the
/// heap's arity.
#[inline]
pub(crate) fn pack_key(bits: u64, node: u32) -> u128 {
    ((bits as u128) << 32) | node as u128
}

impl Csr {
    /// Snapshot an adjacency-list graph.
    pub fn from_graph(g: &Graph) -> Self {
        let mut csr = Self::default();
        csr.refill_from_graph(g);
        csr
    }

    /// Re-snapshot `g` into this CSR, reusing the three flat buffers —
    /// the allocation-free refresh for loops that re-freeze a graph
    /// after many edits (a single-edge edit is cheaper patched in with
    /// [`Csr::insert_edge`] / [`Csr::remove_edge`]).
    pub fn refill_from_graph(&mut self, g: &Graph) {
        let n = g.len();
        assert!(n <= u32::MAX as usize, "graph too large for CSR u32 ids");
        self.offsets.clear();
        self.targets.clear();
        self.weights.clear();
        self.offsets.reserve(n + 1);
        self.targets.reserve(2 * g.num_edges());
        self.weights.reserve(2 * g.num_edges());
        self.offsets.push(0u32);
        for u in 0..n {
            for &(v, w) in g.neighbors(u) {
                self.targets.push(v as u32);
                self.weights.push(w);
            }
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff the graph has zero vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbour slice of `u` as `(targets, weights)`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Position of `v` in `u`'s neighbour slice (`Ok`) or where it would
    /// be inserted to keep the slice sorted (`Err`), as an index into
    /// the flat arrays.
    fn locate(&self, u: usize, v: usize) -> Result<usize, usize> {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.targets[lo..hi]
            .binary_search(&(v as u32))
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// True iff edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.locate(u, v).is_ok()
    }

    /// Insert or update edge `{u, v}` with weight `w` in place, like
    /// [`Graph::add_edge`]. Returns `true` if the edge is new. O(n + m):
    /// one shift of each flat array and of the offsets per direction,
    /// no graph traversal.
    pub fn insert_edge(&mut self, u: usize, v: usize, w: f64) -> bool {
        assert!(u != v, "self-loops are not allowed ({u})");
        assert!(u < self.len() && v < self.len(), "vertex out of range");
        assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
        assert!(
            self.targets.len() + 2 <= u32::MAX as usize,
            "graph too large for CSR u32 offsets"
        );
        let fresh = self.insert_half(u, v, w);
        self.insert_half(v, u, w);
        fresh
    }

    fn insert_half(&mut self, u: usize, v: usize, w: f64) -> bool {
        match self.locate(u, v) {
            Ok(pos) => {
                self.weights[pos] = w;
                false
            }
            Err(pos) => {
                self.targets.insert(pos, v as u32);
                self.weights.insert(pos, w);
                for o in &mut self.offsets[u + 1..] {
                    *o += 1;
                }
                true
            }
        }
    }

    /// Remove edge `{u, v}` in place, like [`Graph::remove_edge`].
    /// Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.len() && v < self.len(), "vertex out of range");
        let removed = self.remove_half(u, v);
        if removed {
            self.remove_half(v, u);
        }
        removed
    }

    fn remove_half(&mut self, u: usize, v: usize) -> bool {
        let Ok(pos) = self.locate(u, v) else {
            return false;
        };
        self.targets.remove(pos);
        self.weights.remove(pos);
        for o in &mut self.offsets[u + 1..] {
            *o -= 1;
        }
        true
    }

    /// Re-snapshot `g` with vertex `skip` isolated into this CSR's
    /// buffers: every edge incident to `skip` is dropped, all other
    /// vertices keep their ids. This is the "rest graph" `G − u` of the
    /// best-response evaluator, built without mutating or cloning the
    /// adjacency-list graph.
    pub fn refill_from_graph_without_vertex(&mut self, g: &Graph, skip: usize) {
        let n = g.len();
        assert!(n <= u32::MAX as usize, "graph too large for CSR u32 ids");
        assert!(skip < n);
        self.offsets.clear();
        self.targets.clear();
        self.weights.clear();
        self.offsets.push(0u32);
        for u in 0..n {
            if u != skip {
                for &(v, w) in g.neighbors(u) {
                    if v != skip {
                        self.targets.push(v as u32);
                        self.weights.push(w);
                    }
                }
            }
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// Dijkstra writing into a caller-owned row of exactly `n` entries
    /// (`f64::INFINITY` for unreachable) — the allocation-free kernel
    /// behind [`Csr::all_pairs`] and the incremental evaluation
    /// context's row refresh.
    pub fn dijkstra_into_slice(
        &self,
        source: usize,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
    ) {
        self.sssp::<false, false>(source, dist, &mut [], f64::INFINITY, scratch);
    }

    /// [`Csr::dijkstra_into_slice`] that ends the search at the first
    /// pop beyond `bound`. Every vertex at distance `≤ bound`
    /// gets its exact row entry; every other entry is `> bound` (a
    /// tentative distance or `INFINITY`), so `dist[v] > bound` decides
    /// `d(source, v) > bound` exactly.
    pub fn dijkstra_bounded(
        &self,
        source: usize,
        dist: &mut [f64],
        bound: f64,
        scratch: &mut DijkstraScratch,
    ) {
        self.sssp::<true, false>(source, dist, &mut [], bound, scratch);
    }

    /// [`Csr::dijkstra_into_slice`] that also records the shortest-path
    /// tree: `pred[v]` is the vertex whose relaxation last improved `v`
    /// (`usize::MAX` for the source and unreachable vertices), exactly
    /// as [`crate::dijkstra::tree`] records it. Read paths with
    /// [`path_from_tree`].
    pub fn dijkstra_tree(
        &self,
        source: usize,
        dist: &mut [f64],
        pred: &mut [usize],
        scratch: &mut DijkstraScratch,
    ) {
        assert_eq!(
            pred.len(),
            self.len(),
            "predecessor row must have n entries"
        );
        pred.fill(usize::MAX);
        self.sssp::<false, true>(source, dist, pred, f64::INFINITY, scratch);
    }

    /// The one production relaxation loop. `BOUNDED` and `PRED` are
    /// resolved at compile time, so the full-row instantiation carries
    /// neither the bound test nor the predecessor store.
    #[inline(always)]
    fn sssp<const BOUNDED: bool, const PRED: bool>(
        &self,
        source: usize,
        dist: &mut [f64],
        pred: &mut [usize],
        bound: f64,
        scratch: &mut DijkstraScratch,
    ) {
        let n = self.len();
        assert_eq!(dist.len(), n, "distance row must have n entries");
        dist.fill(f64::INFINITY);
        let heap = &mut scratch.heap;
        heap.reset(n);
        dist[source] = 0.0;
        heap.push_or_decrease(pack_key(0.0f64.to_bits(), source as u32));
        // work tallies live in registers; one gated trace call per kernel
        // invocation keeps the off-path free of per-edge instrumentation
        let (mut settled, mut relaxed) = (0u64, 0u64);
        while let Some(key) = heap.pop() {
            let u = key as u32 as usize;
            let d = f64::from_bits((key >> 32) as u64);
            // Each node is queued once, under its current tentative
            // distance (`push_or_decrease` lowers a queued key in place),
            // so every pop settles `u` at `d == dist[u]`.
            //
            // SAFETY (here and below): every id in the heap was packed
            // from either `source` (asserted < n by the `dist[source]`
            // write above) or a CSR target, and `from_graph` /
            // `refill_from_graph*` only emit targets < n (`insert_edge`
            // asserts its endpoints are), so all `dist` indices are in
            // bounds. The unchecked loads keep the relax loop — the
            // single hottest loop in the repo — free of per-iteration
            // bound branches.
            debug_assert!(u < n);
            debug_assert!(d == dist[u]);
            // pops come in non-decreasing distance order: everything
            // still queued is at least as far
            if BOUNDED && d > bound {
                break;
            }
            settled += 1;
            // Settled scan over the two contiguous CSR slices; the
            // lockstep zip keeps the relax loop free of bounds checks.
            // SAFETY: `u < n` (above) so `u + 1` indexes `offsets`
            // (length n + 1), and the constructors and the edge patches
            // keep `offsets` monotone with final entry `targets.len()`,
            // so `lo..hi` is a valid range of the parallel target/weight
            // arrays.
            let (ts, ws) = unsafe {
                let lo = *self.offsets.get_unchecked(u) as usize;
                let hi = *self.offsets.get_unchecked(u + 1) as usize;
                (
                    self.targets.get_unchecked(lo..hi),
                    self.weights.get_unchecked(lo..hi),
                )
            };
            for (&v, &w) in ts.iter().zip(ws) {
                let nd = d + w;
                let v = v as usize;
                debug_assert!(v < n);
                let dv = unsafe { dist.get_unchecked_mut(v) };
                if nd < *dv {
                    relaxed += 1;
                    *dv = nd;
                    if PRED {
                        pred[v] = u;
                    }
                    debug_assert!(nd.to_bits() >> 63 == 0, "negative tentative distance");
                    heap.push_or_decrease(pack_key(nd.to_bits(), v as u32));
                }
            }
        }
        gncg_trace::record_dijkstra(settled, relaxed);
    }

    /// Parallel APSP into a flat [`DistMatrix`], one persistent Dijkstra
    /// scratch per worker thread. Entry-for-entry identical to running
    /// the [`crate::dijkstra::distances`] oracle from every source.
    pub fn all_pairs(&self) -> DistMatrix {
        let _span = gncg_trace::span("graph.apsp");
        let mut m = DistMatrix::default();
        self.all_pairs_into(&mut m);
        m
    }

    /// APSP into a caller-owned (typically arena-rented) matrix, reshaped
    /// to n×n. Each row's Dijkstra writes every entry of its row, and the
    /// reshape writes only entries past the buffer's old length, so a
    /// matrix refilled at its size (the `EvalContext` refresh) is written
    /// once. Allocation-free once the buffers reach steady-state size,
    /// and span-free: the per-evaluation rest-graph path calls this a few
    /// thousand times per dynamics run, where per-call span bookkeeping
    /// is measurable; callers that want attribution (e.g. [`Csr::all_pairs`])
    /// open their own span.
    pub fn all_pairs_into(&self, m: &mut DistMatrix) {
        let n = self.len();
        m.reshape(n);
        m.par_fill_rows_with(
            gncg_parallel::arena::rent::<DijkstraScratch>,
            |scratch, u, row| self.dijkstra_into_slice(u, row, scratch),
        );
    }
}

/// Reconstruct the vertex path `source → … → target` from a predecessor
/// row recorded by [`Csr::dijkstra_tree`] (or the
/// [`crate::dijkstra::tree`] oracle). `None` when `target` is
/// unreachable.
pub fn path_from_tree(pred: &[usize], source: usize, target: usize) -> Option<Vec<usize>> {
    if source == target {
        return Some(vec![source]);
    }
    if pred[target] == usize::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = pred[cur];
        path.push(cur);
        if path.len() > pred.len() {
            return None; // defensive: corrupted predecessor array
        }
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_graph(n: usize, seed: u64) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        for u in 0..n - 1 {
            g.add_edge(u, u + 1, 0.1 + rng.gen::<f64>());
        }
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                g.add_edge(u, v, 0.1 + rng.gen::<f64>() * 3.0);
            }
        }
        g
    }

    /// Full row from `source` into a fresh buffer.
    fn row(csr: &Csr, source: usize, scratch: &mut DijkstraScratch) -> Vec<f64> {
        let mut dist = vec![0.0; csr.len()];
        csr.dijkstra_into_slice(source, &mut dist, scratch);
        dist
    }

    #[test]
    fn without_vertex_isolates_it() {
        for seed in 0..3 {
            let g = random_graph(25, seed + 40);
            for skip in [0, 7, 24] {
                let mut csr = Csr::default();
                csr.refill_from_graph_without_vertex(&g, skip);
                // reference: clone the graph and drop skip's edges
                let mut reduced = g.clone();
                let nbrs: Vec<usize> = reduced.neighbors(skip).iter().map(|&(v, _)| v).collect();
                for v in nbrs {
                    reduced.remove_edge(skip, v);
                }
                let reference = Csr::from_graph(&reduced);
                let mut scratch = DijkstraScratch::default();
                for s in 0..g.len() {
                    assert_eq!(
                        row(&csr, s, &mut scratch),
                        row(&reference, s, &mut scratch),
                        "seed {seed} skip {skip} source {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_slices() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0)]);
        let csr = Csr::from_graph(&g);
        let (ts, ws) = csr.neighbors(0);
        assert_eq!(ts, &[1, 2]);
        assert_eq!(ws, &[1.0, 2.0]);
        assert_eq!(csr.neighbors(1).0, &[0]);
    }
}
