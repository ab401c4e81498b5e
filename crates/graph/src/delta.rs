//! Dynamic single-source shortest-path kernels: exact row *repair*
//! after edge insertions, exact "what-if" Dijkstra under edge
//! modifications, and an exact validity test for edge removals.
//!
//! These kernels let [`crate::csr::Csr`]-based evaluation avoid full
//! row rebuilds after single-edge deltas. Every routine here is
//! **bit-identical** to a fresh [`crate::csr::Csr::dijkstra_into_slice`]
//! run on the mutated graph — not merely "close". The argument, used
//! throughout this crate, is:
//!
//! 1. IEEE-754 round-to-nearest addition is *monotone*: `a ≤ a'` and
//!    `b ≤ b'` imply `fl(a+b) ≤ fl(a'+b')`. Hence the left-fold of
//!    edge weights along a path is monotone in every prefix value.
//! 2. Therefore Dijkstra's output row is exactly
//!    `row[v] = min over all paths π: source↝v of fold(π)` — a
//!    well-defined quantity independent of visit order, tie-breaks,
//!    or relaxation schedule. (Walks reduce to paths: deleting a
//!    cycle from a walk never increases its fold, weights being
//!    non-negative.)
//! 3. Any relaxation process that (a) only ever assigns fold values
//!    of actual paths and (b) runs to a fixpoint where no edge can
//!    relax, computes the same min — and is therefore bit-identical
//!    to a fresh Dijkstra.
//!
//! [`repair_insertions`] is such a process (it seeds from the old
//! row, whose entries are folds of paths that still exist in the
//! grown graph). [`removal_keeps_row`] exploits point 2 directly: if
//! no shortest-path fold can cross the removed edge, the min over
//! edge-avoiding paths equals the min over all paths, bitwise.
//! [`repair_removal`] extends that test to the general case: it keeps
//! every entry with an edge-avoiding tight chain from the source and
//! re-runs a point-3 process over the rest.
//!
//! [`dijkstra_modified`] is the named oracle for both repairs: a full
//! what-if Dijkstra on the unchanged CSR, used by the tests to pin the
//! repairs bitwise. A removal repair also takes a *budget*
//! ([`sum_cutoff`] / [`max_cutoff`], or `|_, _| true` for none) that
//! may stop it once the caller's cost of the repaired row provably
//! exceeds a cutoff.

use crate::csr::{pack_key, Csr};
use crate::heap4::QuadHeap;

// The queues below use the same packed `(distance bits, node id)`
// integer keys as the Dijkstra kernels in [`crate::csr`] /
// [`crate::dijkstra`]: smallest distance first, ties broken by
// smallest node id. The settled-pop and relaxation tallies recorded
// here count work that is schedule-independent (each node settles at
// most once, at its exact min-over-path-folds distance), so heap
// shape and key encoding cannot perturb the deterministic trace
// counters.

/// Repairs a shortest-path row in place after edge *insertions*.
///
/// `csr` must be the CSR of the **new** graph (insertions already
/// applied); `row` must hold the exact distance row of the old graph
/// (before the insertions) from the row's source; `inserted` lists
/// the new undirected edges `(a, b, w)`.
///
/// Relaxed precondition: an inserted edge that touches the row's source may
/// be missing from `csr`, so a probe can repair from the *pre*-insertion
/// CSR. Both arcs of every inserted edge are relaxed once, at seeding;
/// after that, an arc only needs relaxing again when its tail improves.
/// The source sits at `0.0`, which no fold undercuts, so it never
/// improves — its arc is final after seeding — and the reverse arc
/// leads into the source, which it cannot improve either.
///
/// Distances only decrease under insertion, and any improvement
/// cascades from an endpoint of a new edge, so the repair seeds a
/// heap with the endpoints the new edges improve and runs the
/// standard lazy-deletion relaxation loop from there. The result is
/// bit-identical to a fresh Dijkstra on the new graph (see module
/// docs); the cost is proportional to the region whose distances
/// actually changed.
pub fn repair_insertions(csr: &Csr, row: &mut [f64], inserted: &[(usize, usize, f64)]) {
    debug_assert_eq!(row.len(), csr.len());
    let mut heap = gncg_parallel::arena::rent::<QuadHeap>();
    let mut pops = 0u64;
    let mut relaxed = 0u64;
    for &(a, b, w) in inserted {
        let via_a = row[a] + w;
        if via_a < row[b] {
            row[b] = via_a;
            heap.push(pack_key(via_a.to_bits(), b as u32));
        }
        let via_b = row[b] + w;
        if via_b < row[a] {
            row[a] = via_b;
            heap.push(pack_key(via_b.to_bits(), a as u32));
        }
    }
    while let Some(key) = heap.pop() {
        let u = key as u32 as usize;
        let dist = f64::from_bits((key >> 32) as u64);
        if dist > row[u] {
            continue; // stale entry: a shorter fold already landed
        }
        pops += 1;
        let (targets, weights) = csr.neighbors(u);
        for (&t, &w) in targets.iter().zip(weights) {
            relaxed += 1;
            let v = t as usize;
            let nd = dist + w;
            if nd < row[v] {
                row[v] = nd;
                heap.push(pack_key(nd.to_bits(), t));
            }
        }
    }
    gncg_trace::record_dijkstra(pops, relaxed);
}

/// Returns `true` when removing the undirected edges in `removed`
/// (given as `(a, b, w)`) provably leaves the exact row `row`
/// unchanged, so the caller may keep it without any recomputation.
///
/// The test is that no removed edge is *tight* in either direction:
/// `fl(row[a] + w) > row[b]` and `fl(row[b] + w) > row[a]`, both as
/// strict `f64` comparisons. When it holds, any path crossing the
/// edge (say `a → b`) folds to at least `fl(row[a] + w) > row[b]`
/// (monotonicity, with the prefix fold to `a` being at least the min
/// `row[a]`), so replacing the crossing by a shortest path to `b`
/// yields an edge-avoiding walk with a fold no larger — the min over
/// edge-avoiding paths equals the full min, bitwise, for every
/// target. No epsilon slack is needed: the argument is exact in
/// float arithmetic. Ties (`==`) conservatively return `false`, as
/// do removals touching unreachable vertices (`∞ + w > ∞` is false).
pub fn removal_keeps_row(row: &[f64], removed: &[(usize, usize, f64)]) -> bool {
    removed
        .iter()
        .all(|&(a, b, w)| row[a] + w > row[b] && row[b] + w > row[a])
}

/// Reusable buffers for [`repair_removal`]: its queue, its affected
/// set, as `(vertex, old distance)` and later `(vertex, seed)`, and each
/// member's old distance by vertex, for the budget.
#[derive(Debug, Default)]
pub struct RemovalScratch {
    heap: QuadHeap,
    affected: Vec<(u32, f64)>,
    old: Vec<f64>,
}

/// Arena recycling, so probe loops can rent one per worker.
impl gncg_parallel::arena::Scratch for RemovalScratch {
    fn reset(&mut self) {
        self.heap.clear();
        self.affected.clear();
    }
}

/// Turns `row`, the exact row from `source` of the graph behind `csr`,
/// into the exact row of that graph *without* the undirected edge
/// `(a, b)` of weight `w`, in place, unless `budget` stops it first.
/// `csr` still contains the edge; every step below skips both of its
/// arcs. `w` must carry the CSR's weight bits for the edge. `scratch`
/// is left drained either way.
///
/// Distances only grow under removal, and only where every shortest
/// fold needs the edge. The repair therefore:
///
/// 1. returns at once when [`removal_keeps_row`] holds;
/// 2. collects the *affected set* `A`: every endpoint the removed edge
///    is tight into (`row[x] + w == row[y]`, exact `f64` equality, with
///    `row[y]` finite), closed under tight arcs other than the removed
///    ones. The source never joins `A`: with a zero-weight edge between
///    coincident points both arcs are tight, and a naive closure would
///    reset the source to ∞;
/// 3. resets `A` to ∞, seeds each member from its neighbours outside
///    `A`, and runs the lazy-deletion relaxation loop from there.
///
/// # The budget
///
/// Each member settles exactly once, at its final distance, and the
/// loop calls `budget(old, new)` with its distance before and after the
/// removal; `new` never decreases from call to call, and `new ≥ old`.
/// Returning `false` stops the repair: the function then returns
/// `false` and leaves `row` in an unspecified state. It returns `true`
/// when the repair ran to the end (at once, in step 1 — the budget
/// never runs there). `|_, _| true` is the full repair.
/// [`sum_cutoff`] and [`max_cutoff`] build the budgets of the two cost
/// models; their docs carry the argument that an abort proves the
/// repaired row's cost strictly above the cutoff.
///
/// # Why the result is bit-identical to a fresh Dijkstra
///
/// Write `G` for the graph with the edge and `G'` for the graph
/// without it, and `row'` for the exact row of `G'`. Since `G'` has
/// fewer paths, `row' ≥ row` pointwise (module docs, point 2).
///
/// *Every vertex outside `A` keeps its exact value.* Fix the
/// shortest-path tree of any Dijkstra run on `G`. Each reachable
/// `v ≠ source` has a tree parent `p`, settled before `v`, with
/// `row[p] + w(p, v) == row[v]` — a tight arc. If `v ∉ A`, that arc is
/// not a removed arc (else `v` is an endpoint the edge is tight into,
/// and `v ∈ A`) and `p ∉ A` (else the closure would have taken `v`).
/// Induction up the tree, which ends at the source in settle order,
/// gives a tree path from the source to `v` that avoids the removed
/// edge and whose fold is, arc by arc, exactly `row[v]`. That path
/// lies in `G'`, so `row'[v] ≤ row[v]`, hence `row'[v] == row[v]`.
/// Unreachable vertices stay at ∞, which `row' ≥ row` makes exact,
/// and the source stays at `0.0`, exact in any graph.
///
/// *The members of `A` end at their exact values.* Step 3 only ever
/// assigns folds of real `G'` paths: seeds extend the exact values
/// outside `A` by one non-removed arc, and every later assignment
/// extends a settled value by one more. When the queue drains, no arc
/// of `G'` can relax: arcs between outside vertices hold because the
/// outside is exact; arcs from outside into `A` were taken at seeding,
/// and outside values never change afterwards; arcs out of a member
/// were scanned when it settled at its final value; arcs into an
/// outside vertex never fire, since its value is already the min over
/// all `G'` paths. That is a point-3 process, so `A` ends at the
/// min-over-path-folds of `G'`. The same fact means the loop needs no
/// membership test to relax only into `A`, and that every settled
/// vertex is a member.
///
/// The cost is proportional to `A` and its neighbourhood, instead of
/// the whole component.
#[allow(clippy::too_many_arguments)]
pub fn repair_removal(
    csr: &Csr,
    source: usize,
    row: &mut [f64],
    a: usize,
    b: usize,
    w: f64,
    scratch: &mut RemovalScratch,
    mut budget: impl FnMut(f64, f64) -> bool,
) -> bool {
    debug_assert_eq!(row.len(), csr.len());
    if removal_keeps_row(row, &[(a, b, w)]) {
        return true;
    }
    let removed = |x: usize, y: usize| (x == a && y == b) || (x == b && y == a);
    let tight = |from: f64, wt: f64, to: f64| to.is_finite() && from + wt == to;
    // step 2: members leave the row at ∞ at once, which marks them
    // visited; their old distances ride along for the closure test and
    // are kept by vertex for the budget
    let RemovalScratch {
        heap,
        affected,
        old,
    } = scratch;
    affected.clear();
    old.resize(row.len(), 0.0);
    let (into_b, into_a) = (tight(row[a], w, row[b]), tight(row[b], w, row[a]));
    for (x, is_tight) in [(b, into_b), (a, into_a)] {
        if is_tight && x != source {
            affected.push((x as u32, row[x]));
            old[x] = row[x];
            row[x] = f64::INFINITY;
        }
    }
    let mut next = 0;
    while next < affected.len() {
        let (x, dx) = affected[next];
        next += 1;
        let (targets, weights) = csr.neighbors(x as usize);
        for (&t, &wt) in targets.iter().zip(weights) {
            let y = t as usize;
            if y != source && !removed(x as usize, y) && tight(dx, wt, row[y]) {
                affected.push((t, row[y]));
                old[y] = row[y];
                row[y] = f64::INFINITY;
            }
        }
    }
    // step 3: every member reads only the (exact) outside values,
    // because all members are still at ∞ while the seeds are taken
    for entry in affected.iter_mut() {
        let x = entry.0 as usize;
        let (targets, weights) = csr.neighbors(x);
        let mut seed = f64::INFINITY;
        for (&t, &wt) in targets.iter().zip(weights) {
            let nd = row[t as usize] + wt;
            if nd < seed && !removed(x, t as usize) {
                seed = nd;
            }
        }
        entry.1 = seed;
    }
    heap.clear();
    let (mut pops, mut relaxed) = (0u64, 0u64);
    for &(x, seed) in affected.iter() {
        if seed < f64::INFINITY {
            relaxed += 1;
            row[x as usize] = seed;
            heap.push(pack_key(seed.to_bits(), x));
        }
    }
    let mut finished = true;
    while let Some(key) = heap.pop() {
        let x = key as u32 as usize;
        let dist = f64::from_bits((key >> 32) as u64);
        if dist > row[x] {
            continue; // stale entry: a shorter fold already landed
        }
        pops += 1;
        if !budget(old[x], dist) {
            heap.clear();
            finished = false;
            break;
        }
        let (targets, weights) = csr.neighbors(x);
        for (&t, &wt) in targets.iter().zip(weights) {
            let y = t as usize;
            let nd = dist + wt;
            if nd < row[y] && !removed(x, y) {
                relaxed += 1;
                row[y] = nd;
                heap.push(pack_key(nd.to_bits(), t));
            }
        }
    }
    gncg_trace::record_dijkstra(pops, relaxed);
    finished
}

/// The [`repair_removal`] budget for a sum-of-distances cost
/// `offset + Σ row'`, where `base` is the left-to-right `f64` sum of
/// the row before the removal: it stops the repair once
/// `offset + (base + inc)`, with `inc` the running `f64` sum of the
/// settled increases `new − old`, exceeds `cutoff · (1 + guard)`.
///
/// *Why an abort proves `fl(offset + Σ row') > cutoff`.* In real
/// arithmetic `Σ row' ≥ Σ row + I`, with `I` the real sum of the
/// settled increases, since every other entry grows too. Each
/// computed sum of `k ≤ n` non-negative terms is within a factor
/// `1 ± γ_k` (`γ_k = k·u/(1 − k·u)`, `u = ε/2`) of its real value, so
/// the tested quantity is at most `(offset + Σ row + I)·(1 + γ_{n+2})`
/// and the caller's cost is at least `(offset + Σ row')·(1 − γ_n)`.
/// With `guard ≥ 2·(n + 4)·ε` the factors and the rounding of the
/// cutoff product leave the cost strictly above `cutoff`. A cost at or
/// below `cutoff` — ties in particular — therefore never aborts.
/// `gncg_game::approx::relative_guard(n) = 64·(n + 64)·ε` is the guard
/// its callers pass. An infinite `cutoff` never aborts.
pub fn sum_cutoff(offset: f64, base: f64, cutoff: f64, guard: f64) -> impl FnMut(f64, f64) -> bool {
    let cut = cutoff * (1.0 + guard);
    let mut inc = 0.0;
    move |old, new| {
        inc += new - old;
        offset + (base + inc) <= cut
    }
}

/// The [`repair_removal`] budget for a max-distance cost
/// `offset + max row'`, where `base = max row` before the removal: it
/// stops the repair once `offset + max(base, new)` exceeds `cutoff`.
///
/// *Why an abort proves `fl(offset + max row') > cutoff`, exactly.*
/// `max` never rounds, `row' ≥ row` pointwise gives `max row' ≥ base`,
/// and every settled `new` is an entry of `row'`; round-to-nearest
/// addition is monotone, so the caller's cost is at least the tested
/// sum. No guard is needed, and a cost at or below `cutoff` never
/// aborts.
pub fn max_cutoff(offset: f64, base: f64, cutoff: f64) -> impl FnMut(f64, f64) -> bool {
    move |_, new| offset + new.max(base) <= cutoff
}

/// Full Dijkstra from `source` into `row`, honoring edge
/// modifications *without* rebuilding the CSR: every arc between the
/// endpoints of an edge in `removed` is skipped, and the undirected
/// edges in `added` (`(a, b, w)`) are relaxed alongside the CSR
/// adjacency of their endpoints.
///
/// This is the "what-if" kernel for single-edge deltas (drop / add /
/// swap) against a fixed CSR snapshot: bit-identical to building the
/// modified graph and running a fresh Dijkstra on it, by the
/// min-over-path-folds argument in the module docs. It costs a full
/// Dijkstra, so probe loops repair a copy of the base row instead
/// ([`repair_removal`] / [`repair_insertions`]); this kernel is their
/// oracle. The caller must ensure `added` edges do not duplicate CSR
/// edges and `removed` pairs are distinct (standard for simple graphs).
pub fn dijkstra_modified(
    csr: &Csr,
    source: usize,
    row: &mut [f64],
    removed: &[(usize, usize)],
    added: &[(usize, usize, f64)],
) {
    let n = csr.len();
    debug_assert_eq!(row.len(), n);
    row.fill(f64::INFINITY);
    row[source] = 0.0;
    let mut heap = gncg_parallel::arena::rent::<QuadHeap>();
    heap.push(pack_key(0.0f64.to_bits(), source as u32));
    let mut pops = 0u64;
    let mut relaxed = 0u64;
    while let Some(key) = heap.pop() {
        let u = key as u32 as usize;
        let dist = f64::from_bits((key >> 32) as u64);
        if dist > row[u] {
            continue; // stale entry: the node already settled closer
        }
        pops += 1;
        let (targets, weights) = csr.neighbors(u);
        'arcs: for (&t, &w) in targets.iter().zip(weights) {
            let v = t as usize;
            for &(ra, rb) in removed {
                if (u == ra && v == rb) || (u == rb && v == ra) {
                    continue 'arcs;
                }
            }
            relaxed += 1;
            let nd = dist + w;
            if nd < row[v] {
                row[v] = nd;
                heap.push(pack_key(nd.to_bits(), t));
            }
        }
        for &(a, b, w) in added {
            let v = if a == u {
                b
            } else if b == u {
                a
            } else {
                continue;
            };
            relaxed += 1;
            let nd = dist + w;
            if nd < row[v] {
                row[v] = nd;
                heap.push(pack_key(nd.to_bits(), v as u32));
            }
        }
    }
    gncg_trace::record_dijkstra(pops, relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::DijkstraScratch;
    use crate::Graph;

    /// Tiny deterministic LCG so the tests need no external RNG.
    struct Lcg(u64);

    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn unit(&mut self) -> f64 {
            (self.next_u64() % (1 << 24)) as f64 / (1 << 24) as f64
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }
    }

    fn random_graph(n: usize, extra: usize, rng: &mut Lcg) -> Graph {
        let mut g = Graph::new(n);
        // Random spanning tree so most rows are finite.
        for v in 1..n {
            let u = rng.below(v);
            g.add_edge(u, v, 0.1 + rng.unit());
        }
        for _ in 0..extra {
            let a = rng.below(n);
            let b = rng.below(n);
            if a != b {
                g.add_edge(a, b, 0.1 + rng.unit());
            }
        }
        g
    }

    fn fresh_row(g: &Graph, source: usize) -> Vec<f64> {
        let csr = Csr::from_graph(g);
        let mut row = vec![0.0; g.len()];
        let mut scratch = DijkstraScratch::default();
        csr.dijkstra_into_slice(source, &mut row, &mut scratch);
        row
    }

    #[test]
    fn insertion_repair_matches_fresh_dijkstra_bitwise() {
        let mut rng = Lcg(0x5eed);
        for case in 0..60 {
            let n = 4 + (case % 29);
            let mut g = random_graph(n, case % 7, &mut rng);
            let source = rng.below(n);
            let mut row = fresh_row(&g, source);
            // Insert a batch of fresh edges.
            let mut inserted = Vec::new();
            for _ in 0..1 + case % 3 {
                let a = rng.below(n);
                let b = rng.below(n);
                let w = 0.05 + rng.unit();
                // `add_edge` on an existing edge *updates* its
                // weight, so only genuinely fresh pairs qualify.
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b, w);
                    inserted.push((a, b, w));
                }
            }
            let csr = Csr::from_graph(&g);
            repair_insertions(&csr, &mut row, &inserted);
            let expect = fresh_row(&g, source);
            assert_eq!(
                row.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "case {case}: repaired row diverged from fresh Dijkstra"
            );
        }
    }

    #[test]
    fn insertion_repair_handles_disconnected_components() {
        // Two components; the inserted edge bridges them, so the
        // previously-infinite half of the row must be fully repaired.
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(3, 4, 1.5);
        g.add_edge(4, 5, 0.5);
        let mut row = fresh_row(&g, 0);
        assert!(row[3].is_infinite());
        assert!(g.add_edge(2, 3, 0.25));
        let csr = Csr::from_graph(&g);
        repair_insertions(&csr, &mut row, &[(2, 3, 0.25)]);
        let expect = fresh_row(&g, 0);
        assert_eq!(
            row.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn removal_keeps_row_is_sound() {
        // Whenever the test says "keep", the fresh row after removal
        // must be bit-identical to the kept row.
        let mut rng = Lcg(0xde17a);
        let mut kept = 0usize;
        for case in 0..80 {
            let n = 4 + (case % 23);
            let mut g = random_graph(n, 2 + case % 9, &mut rng);
            let source = rng.below(n);
            let row = fresh_row(&g, source);
            let edges = g.edges();
            if edges.is_empty() {
                continue;
            }
            let (a, b, w) = edges[rng.below(edges.len())];
            if removal_keeps_row(&row, &[(a, b, w)]) {
                kept += 1;
                g.remove_edge(a, b);
                let expect = fresh_row(&g, source);
                assert_eq!(
                    row.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "case {case}: removal of slack edge ({a},{b}) changed the row"
                );
            }
        }
        assert!(kept > 0, "sweep never exercised the keep branch");
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|d| d.to_bits()).collect()
    }

    /// Repairs `row` (the exact row of `g` from `source`) for the
    /// removal of edge `(a, b)` and checks it bitwise against a fresh
    /// Dijkstra on `g` minus the edge and against the oracle.
    fn check_removal(g: &Graph, source: usize, a: usize, b: usize, what: &str) -> Vec<f64> {
        let w = g.edge_weight(a, b).expect("removed edge must exist");
        let csr = Csr::from_graph(g);
        let mut row = fresh_row(g, source);
        let mut scratch = RemovalScratch::default();
        let finished = repair_removal(&csr, source, &mut row, a, b, w, &mut scratch, |_, _| true);
        assert!(finished, "{what}: an unbounded repair stopped");
        let mut h = g.clone();
        h.remove_edge(a, b);
        let expect = fresh_row(&h, source);
        assert_eq!(
            bits(&row),
            bits(&expect),
            "{what}: repair diverged from fresh Dijkstra"
        );
        let mut oracle = vec![0.0; g.len()];
        dijkstra_modified(&csr, source, &mut oracle, &[(a, b)], &[]);
        assert_eq!(
            bits(&row),
            bits(&oracle),
            "{what}: repair diverged from the oracle"
        );
        assert!(
            scratch.heap.is_empty(),
            "{what}: scratch heap left undrained"
        );
        row
    }

    #[test]
    fn removal_repair_matches_fresh_dijkstra_bitwise() {
        // Weights from a tiny set make tight ties (several shortest
        // folds) common, so the closure and seeding see real work.
        let mut rng = Lcg(0x7e3a1);
        let (mut at_source, mut elsewhere) = (0usize, 0usize);
        for case in 0..400 {
            let n = 3 + (case % 31);
            let mut g = Graph::new(n);
            for v in 1..n {
                let u = rng.below(v);
                g.add_edge(u, v, [0.5, 1.0, 1.5][rng.below(3)]);
            }
            for _ in 0..case % 11 {
                let (a, b) = (rng.below(n), rng.below(n));
                if a != b {
                    g.add_edge(a, b, if case % 2 == 0 { 0.1 + rng.unit() } else { 1.0 });
                }
            }
            let source = rng.below(n);
            let edges = g.edges();
            // every third case removes an edge at the source
            let incident: Vec<_> = edges
                .iter()
                .filter(|&&(a, b, _)| a == source || b == source)
                .collect();
            let &(a, b, _) = if case % 3 == 0 && !incident.is_empty() {
                incident[rng.below(incident.len())]
            } else {
                &edges[rng.below(edges.len())]
            };
            if a == source || b == source {
                at_source += 1;
            } else {
                elsewhere += 1;
            }
            check_removal(&g, source, a, b, &format!("case {case}"));
        }
        assert!(
            at_source > 50 && elsewhere > 50,
            "{at_source} / {elsewhere}"
        );
    }

    #[test]
    fn removal_repair_handles_zero_weight_edges() {
        // Coincident points: zero-weight edges make both arcs tight, so
        // the closure must never take the source itself.
        let mut rng = Lcg(0x0c0c);
        for case in 0..300 {
            let n = 3 + (case % 19);
            let mut g = Graph::new(n);
            for v in 1..n {
                let u = rng.below(v);
                let w = if rng.below(3) == 0 { 0.0 } else { rng.unit() };
                g.add_edge(u, v, w);
            }
            for _ in 0..case % 7 {
                let (a, b) = (rng.below(n), rng.below(n));
                if a != b {
                    g.add_edge(a, b, if rng.below(2) == 0 { 0.0 } else { rng.unit() });
                }
            }
            let source = rng.below(n);
            for (a, b, _) in g.edges() {
                check_removal(&g, source, a, b, &format!("case {case} edge ({a},{b})"));
            }
        }
        // A zero-weight edge at the source, with a zero-weight detour:
        // 0 –0– 1, 0 –0– 2 –0– 1, 1 –1– 3.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 0.0);
        g.add_edge(0, 2, 0.0);
        g.add_edge(2, 1, 0.0);
        g.add_edge(1, 3, 1.0);
        for source in 0..4 {
            for (a, b, _) in g.edges() {
                let row = check_removal(&g, source, a, b, &format!("detour {source} ({a},{b})"));
                assert_eq!(row[source], 0.0);
            }
        }
        // And the bare zero-weight pair, where the removal strands 1.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 0.0);
        g.add_edge(0, 2, 1.0);
        let row = check_removal(&g, 0, 0, 1, "bare pair");
        assert_eq!(row[0], 0.0);
        assert!(row[1].is_infinite());
    }

    /// `offset + fold(row)` under the sum or the max fold, as a budget's
    /// caller costs a repaired row.
    fn folded_cost(row: &[f64], offset: f64, max: bool) -> f64 {
        offset
            + if max {
                row.iter().fold(0.0, |m, &d| if d > m { d } else { m })
            } else {
                row.iter().fold(0.0, |acc, &d| acc + d)
            }
    }

    #[test]
    fn removal_budget_stops_only_past_the_cutoff() {
        // Coincident points give zero-weight edges, and every third case
        // removes an edge at the source. Both budgets run against
        // cutoffs at, below and between the old and the new cost; the
        // sum budget gets the smallest guard its doc allows.
        let mut rng = Lcg(0xb0d9e7);
        let (mut stopped, mut at_cutoff) = ([0usize; 2], 0usize);
        for case in 0..400 {
            let n = 3 + (case % 29);
            let mut g = Graph::new(n);
            for v in 1..n {
                let u = rng.below(v);
                let w = if rng.below(4) == 0 { 0.0 } else { rng.unit() };
                g.add_edge(u, v, w);
            }
            for _ in 0..case % 9 {
                let (a, b) = (rng.below(n), rng.below(n));
                if a != b {
                    g.add_edge(a, b, if rng.below(3) == 0 { 0.0 } else { rng.unit() });
                }
            }
            let source = rng.below(n);
            let edges = g.edges();
            let incident: Vec<_> = edges
                .iter()
                .filter(|&&(a, b, _)| a == source || b == source)
                .collect();
            let &(a, b, w) = if case % 3 == 0 && !incident.is_empty() {
                incident[rng.below(incident.len())]
            } else {
                &edges[rng.below(edges.len())]
            };
            let csr = Csr::from_graph(&g);
            let before = fresh_row(&g, source);
            let mut oracle = vec![0.0; n];
            dijkstra_modified(&csr, source, &mut oracle, &[(a, b)], &[]);
            let offset = if case % 2 == 0 { 0.0 } else { 4.0 * rng.unit() };
            let guard = 2.0 * (n as f64 + 4.0) * f64::EPSILON;
            for (kind, max) in [false, true].into_iter().enumerate() {
                let base = folded_cost(&before, 0.0, max);
                let old_cost = offset + base;
                let exact = folded_cost(&oracle, offset, max);
                let mut cutoffs = vec![exact, old_cost];
                if exact.is_finite() {
                    let gap = exact - old_cost;
                    cutoffs.extend([old_cost + gap * rng.unit(), exact * rng.unit()]);
                }
                for cutoff in cutoffs {
                    let what =
                        format!("case {case} ({a},{b}) from {source}, max {max}, cutoff {cutoff}");
                    let mut row = before.clone();
                    let mut scratch = RemovalScratch::default();
                    let finished = if max {
                        let budget = max_cutoff(offset, base, cutoff);
                        repair_removal(&csr, source, &mut row, a, b, w, &mut scratch, budget)
                    } else {
                        let budget = sum_cutoff(offset, base, cutoff, guard);
                        repair_removal(&csr, source, &mut row, a, b, w, &mut scratch, budget)
                    };
                    assert!(scratch.heap.is_empty(), "{what}: heap left undrained");
                    if finished {
                        assert_eq!(bits(&row), bits(&oracle), "{what}: finished repair");
                    } else {
                        assert!(exact > cutoff, "{what}: stopped at cost {exact}");
                        stopped[kind] += 1;
                    }
                    if cutoff == exact {
                        assert!(finished, "{what}: a probe at the cutoff stopped");
                        at_cutoff += 1;
                    }
                }
            }
        }
        assert!(
            stopped[0] > 50 && stopped[1] > 50 && at_cutoff > 0,
            "{stopped:?} / {at_cutoff}"
        );
    }

    #[test]
    fn removal_repair_disconnects_to_infinity() {
        // A bridge between two triangles: removing it strands the far
        // side, which must come back as ∞ from every source.
        let mut g = Graph::new(6);
        for &(a, b, w) in &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.5),
            (2, 3, 0.75),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 2.0),
        ] {
            g.add_edge(a, b, w);
        }
        for source in 0..6 {
            let row = check_removal(&g, source, 2, 3, &format!("bridge from {source}"));
            let near = if source <= 2 { 0..3 } else { 3..6 };
            for (v, d) in row.iter().enumerate() {
                assert_eq!(d.is_finite(), near.contains(&v), "source {source} v {v}");
            }
        }
        // Removing an edge inside an unreachable component is a no-op.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        check_removal(&g, 0, 2, 3, "unreachable edge");
    }

    #[test]
    fn insertion_repair_accepts_the_pre_insertion_csr_at_the_source() {
        // A source-incident edge may be missing from the CSR: the probe
        // loop repairs from the CSR of the graph *before* the insertion.
        let mut rng = Lcg(0x1a5e);
        for case in 0..200 {
            let n = 3 + (case % 27);
            let g = random_graph(n, case % 9, &mut rng);
            let source = rng.below(n);
            let v = rng.below(n);
            if v == source || g.has_edge(source, v) {
                continue;
            }
            let w = if case % 4 == 0 {
                0.0
            } else {
                0.05 + rng.unit()
            };
            let csr = Csr::from_graph(&g);
            let mut row = fresh_row(&g, source);
            repair_insertions(&csr, &mut row, &[(source, v, w)]);
            let mut h = g.clone();
            h.add_edge(source, v, w);
            assert_eq!(bits(&row), bits(&fresh_row(&h, source)), "case {case}");
            let mut oracle = vec![0.0; n];
            dijkstra_modified(&csr, source, &mut oracle, &[], &[(source, v, w)]);
            assert_eq!(bits(&row), bits(&oracle), "case {case}: oracle");
        }
    }

    #[test]
    fn removal_is_conservative_on_tree_edges() {
        // Every tree edge is tight somewhere, so a path graph must
        // always invalidate.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        let row = fresh_row(&g, 0);
        assert!(!removal_keeps_row(&row, &[(1, 2, 1.0)]));
    }

    #[test]
    fn dijkstra_modified_matches_rebuilt_graph_bitwise() {
        let mut rng = Lcg(0xabcd);
        for case in 0..60 {
            let n = 4 + (case % 21);
            let g = random_graph(n, 3 + case % 5, &mut rng);
            let source = rng.below(n);
            let edges = g.edges();
            // Pick one edge to drop and one non-edge to add.
            let removed: Vec<(usize, usize)> = if edges.is_empty() {
                Vec::new()
            } else {
                let (a, b, _) = edges[rng.below(edges.len())];
                vec![(a, b)]
            };
            let mut added = Vec::new();
            for _ in 0..8 {
                let a = rng.below(n);
                let b = rng.below(n);
                if a != b && !g.has_edge(a, b) {
                    added.push((a, b, 0.05 + rng.unit()));
                    break;
                }
            }
            let csr = Csr::from_graph(&g);
            let mut row = vec![0.0; n];
            dijkstra_modified(&csr, source, &mut row, &removed, &added);

            let mut h = g.clone();
            for &(a, b) in &removed {
                h.remove_edge(a, b);
            }
            for &(a, b, w) in &added {
                assert!(h.add_edge(a, b, w));
            }
            let expect = fresh_row(&h, source);
            assert_eq!(
                row.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "case {case}: modified Dijkstra diverged from rebuilt graph"
            );
        }
    }
}
