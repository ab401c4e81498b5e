//! Indexed 4-ary min-heap over packed `u128` keys, with decrease-key.
//!
//! The Dijkstra kernels order their queues by `(distance bits, node
//! id)`: keys pack the ordering into one integer (`distance bits << 32
//! | node`, see `csr::pack_key`), so every sift comparison is one `u128`
//! compare — no float semantics, no struct field juggling. The heap
//! holds at most one key per node, and a `u32` position per node lets
//! [`IndexedHeap::push_or_decrease`] lower a queued node's key in place
//! instead of queueing a second entry. Each node is therefore popped
//! at most once per queueing, and the kernels need no stale-entry test.
//!
//! Because the order is total and each node's queued key is its current
//! tentative distance, the pop sequence is the sorted extraction order
//! of the live keys — the same sequence a lazy-deletion heap yields
//! once its stale entries are skipped, whatever the heap's shape. That
//! freedom lets us pick the structure purely for constant factors: a
//! 4-ary heap halves the sift-down depth of a binary heap and keeps all
//! four children of a slot in one or two cache lines.

/// Position of a node that is not queued.
const NONE: u32 = u32::MAX;

/// Node id of a packed key (its low 32 bits).
#[inline]
fn node_of(key: u128) -> usize {
    key as u32 as usize
}

/// Indexed 4-ary min-heap of packed `(priority << 32 | node)` keys, at
/// most one per node. Size it with [`IndexedHeap::reset`] before use.
#[derive(Debug, Default, Clone)]
pub struct IndexedHeap {
    /// Heap-ordered keys.
    a: Vec<u128>,
    /// `pos[node]`: the node's slot in `a`, or [`NONE`]. Never shrinks,
    /// so every node that was ever queued keeps a valid entry.
    pos: Vec<u32>,
}

/// Arena recycling: a returned heap is emptied; renters call
/// [`IndexedHeap::reset`] with their node count before use.
impl gncg_parallel::arena::Scratch for IndexedHeap {
    fn reset(&mut self) {
        IndexedHeap::reset(self, 0);
    }
}

impl IndexedHeap {
    /// Empty the heap and accept node ids below `n` (and any below an
    /// earlier, larger `n`). Only the positions of keys still queued —
    /// those a bounded or aborted run left behind — are cleared, so the
    /// cost is the leftover queue, not `n`, once the position table has
    /// grown to the largest `n` seen.
    pub fn reset(&mut self, n: usize) {
        assert!(n < NONE as usize, "too many nodes for u32 heap positions");
        for &key in &self.a {
            self.pos[node_of(key)] = NONE;
        }
        self.a.clear();
        if self.pos.len() < n {
            self.pos.resize(n, NONE);
        }
    }

    /// Number of queued nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// True when no node is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Queue `key`'s node with `key`, or lower the key of that node if
    /// it is already queued. A queued node's new key must be smaller
    /// than its current one (debug-asserted): the kernels only requeue
    /// a node on a strict improvement of its distance.
    #[inline]
    pub fn push_or_decrease(&mut self, key: u128) {
        let node = node_of(key);
        let at = self.pos[node];
        let i = if at == NONE {
            self.a.push(key);
            self.a.len() - 1
        } else {
            debug_assert!(key < self.a[at as usize], "key of a queued node must fall");
            at as usize
        };
        self.sift_up(i, key);
    }

    /// Remove and return the smallest key; its node is no longer queued.
    #[inline]
    pub fn pop(&mut self) -> Option<u128> {
        let top = *self.a.first()?;
        self.pos[node_of(top)] = NONE;
        let last = self.a.pop().expect("non-empty");
        if !self.a.is_empty() {
            self.sift_down(last);
        }
        Some(top)
    }

    /// Place `key` at slot `i` (< `a.len()`) or above it and restore the
    /// heap property, recording every moved key's slot.
    #[inline]
    fn sift_up(&mut self, mut i: usize, key: u128) {
        // SAFETY: `i < a.len()` on entry and only moves to parents
        // (p < i). Every key in `a` went through `push_or_decrease`,
        // whose checked `pos[node]` read proved `node < pos.len()`, and
        // `pos` never shrinks, so the position writes stay in bounds.
        debug_assert!(i < self.a.len() && node_of(key) < self.pos.len());
        while i > 0 {
            let p = (i - 1) >> 2;
            let pk = unsafe { *self.a.get_unchecked(p) };
            if pk <= key {
                break;
            }
            unsafe {
                *self.a.get_unchecked_mut(i) = pk;
                *self.pos.get_unchecked_mut(node_of(pk)) = i as u32;
            }
            i = p;
        }
        unsafe {
            *self.a.get_unchecked_mut(i) = key;
            *self.pos.get_unchecked_mut(node_of(key)) = i as u32;
        }
    }

    /// Place `key` at the root and restore the heap property.
    fn sift_down(&mut self, key: u128) {
        let n = self.a.len();
        let mut i = 0;
        // SAFETY: `first >= n` breaks before any child access, `end` is
        // clamped to n, and `i` only ever takes values of `c < end <= n`;
        // node ids index `pos` in bounds as in `sift_up`.
        loop {
            let first = (i << 2) + 1;
            if first >= n {
                break;
            }
            let end = (first + 4).min(n);
            // smallest of up to four children
            let mut c = first;
            let mut ck = unsafe { *self.a.get_unchecked(c) };
            for j in first + 1..end {
                let k = unsafe { *self.a.get_unchecked(j) };
                if k < ck {
                    c = j;
                    ck = k;
                }
            }
            if key <= ck {
                break;
            }
            unsafe {
                *self.a.get_unchecked_mut(i) = ck;
                *self.pos.get_unchecked_mut(node_of(ck)) = i as u32;
            }
            i = c;
        }
        unsafe {
            *self.a.get_unchecked_mut(i) = key;
            *self.pos.get_unchecked_mut(node_of(key)) = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn key(priority: u64, node: usize) -> u128 {
        ((priority as u128) << 32) | node as u128
    }

    /// A lazy-deletion `BinaryHeap` with a current priority per node:
    /// the model the indexed heap must pop identically to, once its
    /// stale entries are skipped.
    struct Model {
        heap: BinaryHeap<Reverse<u128>>,
        queued: Vec<Option<u64>>,
    }

    impl Model {
        fn new(n: usize) -> Self {
            Model {
                heap: BinaryHeap::new(),
                queued: vec![None; n],
            }
        }

        fn push_or_decrease(&mut self, priority: u64, node: usize) {
            self.queued[node] = Some(priority);
            self.heap.push(Reverse(key(priority, node)));
        }

        fn pop(&mut self) -> Option<u128> {
            while let Some(Reverse(k)) = self.heap.pop() {
                let node = node_of(k);
                if self.queued[node] == Some((k >> 32) as u64) {
                    self.queued[node] = None;
                    return Some(k);
                }
            }
            None
        }
    }

    /// xorshift stream, so the tests need no external RNG.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// Random pushes, decreases and pops over `n` nodes, checked pop by
    /// pop against the model; returns with keys possibly still queued.
    fn drive(h: &mut IndexedHeap, n: usize, steps: usize, rng: &mut Rng) -> Model {
        let mut model = Model::new(n);
        for _ in 0..steps {
            if rng.below(3) == 0 {
                assert_eq!(h.pop(), model.pop());
            } else {
                let node = rng.below(n as u64) as usize;
                let cap = model.queued[node].unwrap_or(1 << 20);
                if cap == 0 {
                    continue;
                }
                let priority = rng.below(cap);
                model.push_or_decrease(priority, node);
                h.push_or_decrease(key(priority, node));
            }
            assert_eq!(h.len(), model.queued.iter().flatten().count());
        }
        model
    }

    #[test]
    fn pops_in_sorted_order() {
        let mut h = IndexedHeap::default();
        h.reset(257);
        let keys: Vec<u128> = (0..257)
            .map(|i| key((i * 7919) % 1009, i as usize))
            .collect();
        for &k in &keys {
            h.push_or_decrease(k);
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut out = Vec::new();
        while let Some(k) = h.pop() {
            out.push(k);
        }
        assert_eq!(out, sorted);
        assert!(h.is_empty());
    }

    #[test]
    fn interleaved_push_decrease_pop_matches_lazy_binary_heap() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut h = IndexedHeap::default();
        h.reset(97);
        let mut model = drive(&mut h, 97, 6000, &mut rng);
        while let Some(k) = h.pop() {
            assert_eq!(Some(k), model.pop());
        }
        assert_eq!(model.pop(), None);
    }

    #[test]
    fn decreasing_a_queued_node_moves_it_in_place() {
        let mut h = IndexedHeap::default();
        h.reset(4);
        for (priority, node) in [(10, 0), (20, 1), (30, 2), (40, 3)] {
            h.push_or_decrease(key(priority, node));
        }
        h.push_or_decrease(key(5, 3));
        h.push_or_decrease(key(15, 2));
        assert_eq!(h.len(), 4, "a decrease queues no second entry");
        let order: Vec<u128> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, [key(5, 3), key(10, 0), key(15, 2), key(20, 1)]);
        // ties on the priority fall to the smaller node id
        h.push_or_decrease(key(7, 2));
        h.push_or_decrease(key(9, 1));
        h.push_or_decrease(key(7, 1));
        assert_eq!(h.pop(), Some(key(7, 1)));
        assert_eq!(h.pop(), Some(key(7, 2)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn reset_after_a_partial_drain_forgets_every_queued_node() {
        let mut rng = Rng(0x5eed_1234);
        let mut h = IndexedHeap::default();
        for round in 0..20 {
            h.reset(64);
            drive(&mut h, 64, 200 + 10 * round, &mut rng);
            h.reset(64);
            assert!(h.is_empty());
            assert!(h.pos.iter().all(|&p| p == NONE), "round {round}");
            // a node left queued before the reset is pushed fresh
            h.push_or_decrease(key(3, 7));
            assert_eq!(h.pop(), Some(key(3, 7)));
            assert_eq!(h.pop(), None);
        }
    }

    #[test]
    fn one_heap_serves_growing_and_shrinking_node_counts() {
        let mut rng = Rng(0xabcd_ef01);
        let mut h = IndexedHeap::default();
        for &n in &[5usize, 300, 17, 1, 1024, 64, 2, 513] {
            h.reset(n);
            let mut model = drive(&mut h, n, 4 * n + 20, &mut rng);
            // drain half, leaving the rest for the next reset
            for _ in 0..h.len() / 2 {
                assert_eq!(h.pop(), model.pop(), "n {n}");
            }
        }
        h.reset(3);
        assert!(h.pos.iter().all(|&p| p == NONE));
    }

    #[test]
    fn arena_return_empties_the_heap() {
        {
            let mut h = gncg_parallel::arena::rent::<IndexedHeap>();
            h.reset(8);
            h.push_or_decrease(key(5, 1));
            h.push_or_decrease(key(1, 6));
        }
        let mut h = gncg_parallel::arena::rent::<IndexedHeap>();
        assert!(h.is_empty());
        h.reset(8);
        h.push_or_decrease(key(3, 6));
        assert_eq!(h.pop(), Some(key(3, 6)));
        assert_eq!(h.pop(), None);
    }
}
