//! The Theorem 2.2 reduction: social optimum computation in the M-GNCG
//! is NP-hard, via HITTING SET.
//!
//! Given elements `U = {u_1..u_n}` and sets `S = {S_1..S_m}`, the
//! reduction builds a complete metric host `H`:
//!
//! * node classes: `s`, `t`, one node per element, `c` copies of each set
//!   node; every one of these is inflated into a star with `q − 1` extra
//!   leaves,
//! * base edges `E₁`: `s—uᵢ` of length `x`; `uᵢ—s_pj` when `uᵢ ∈ S_p`,
//!   `s_ij—t`, and all star edges, of length 1,
//! * all other pairs get the metric closure of `(V, E₁)`,
//! * constants: `q = 1 + ⌈√α/2⌉`, `x = 2 + 4q²/α`, `c = 1 + ⌈αx/(4q²)⌉`.
//!
//! The optimum network then contains all length-1 edges, hits every set,
//! and uses exactly `k` length-x edges where `k` is the minimum hitting
//! set size; its social cost is `2kα + 2nq²(x+2) + Δ`.
//!
//! Exact verification of the optimum over the full edge space is
//! impossible beyond a handful of nodes (the reduction inflates the
//! instance), so the harness verifies the proof's *structure* instead:
//! among the candidate family {all length-1 edges + length-x edges of a
//! hitting set `𝓗`}, the social cost is affine in `|𝓗|` with slope `2α`,
//! so the min-cost candidate is exactly the minimum hitting set. See
//! `candidate_network` and the tests.

use crate::HostNetwork;
use gncg_game::SumDistances;
use gncg_graph::{apsp, Graph};

/// A HITTING SET instance.
#[derive(Debug, Clone)]
pub struct HittingSetInstance {
    /// Number of elements (elements are `0..n_elements`).
    pub n_elements: usize,
    /// The sets, each a list of element indices.
    pub sets: Vec<Vec<usize>>,
}

impl HittingSetInstance {
    /// Validate and build.
    pub fn new(n_elements: usize, sets: Vec<Vec<usize>>) -> Self {
        assert!(n_elements >= 1 && !sets.is_empty());
        for s in &sets {
            assert!(!s.is_empty(), "empty sets are unhittable");
            assert!(s.iter().all(|&e| e < n_elements));
        }
        Self { n_elements, sets }
    }

    /// Is `hs` a hitting set?
    pub fn is_hitting(&self, hs: &[usize]) -> bool {
        self.sets.iter().all(|s| s.iter().any(|e| hs.contains(e)))
    }

    /// Exact minimum hitting set by subset enumeration (n ≤ 20).
    pub fn minimum_hitting_set(&self) -> Vec<usize> {
        let n = self.n_elements;
        assert!(n <= 20, "exact hitting set limited to 20 elements");
        let mut best: Option<Vec<usize>> = None;
        for mask in 0u64..(1 << n) {
            let hs: Vec<usize> = (0..n).filter(|&e| mask & (1 << e) != 0).collect();
            if self.is_hitting(&hs) {
                match &best {
                    Some(b) if b.len() <= hs.len() => {}
                    _ => best = Some(hs),
                }
            }
        }
        best.expect("non-empty sets are always hittable by all elements")
    }
}

/// Node roles in the reduction host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// The source node `s`.
    S,
    /// The sink node `t`.
    T,
    /// Element node `uᵢ`.
    Element(usize),
    /// Set node copy `s_{ij}` (set index, copy index).
    SetCopy(usize, usize),
    /// Leaf `v^i` of the star centred at `center` (index into `nodes`).
    Leaf { center: usize },
}

/// The constructed reduction instance.
#[derive(Debug)]
pub struct Reduction {
    /// The complete metric host network.
    pub host: HostNetwork,
    /// Role of each node.
    pub roles: Vec<Role>,
    /// The base (length-1 / length-x) edges `E₁`.
    pub base_edges: Vec<(usize, usize, f64)>,
    /// `s`'s node index.
    pub s: usize,
    /// Element node indices.
    pub elements: Vec<usize>,
    /// The reduction constants.
    pub q: usize,
    /// Length of the s–element edges.
    pub x: f64,
    /// Number of copies of each set node.
    pub c: usize,
    /// The α the constants were derived for.
    pub alpha: f64,
}

/// Build the Theorem 2.2 reduction host for a HITTING SET instance and a
/// given `α`.
pub fn build_reduction(inst: &HittingSetInstance, alpha: f64) -> Reduction {
    assert!(alpha > 0.0);
    let q = 1 + ((alpha.sqrt() / 2.0).ceil() as usize);
    let x = 2.0 + 4.0 * (q * q) as f64 / alpha;
    let c = 1 + ((alpha * x / (4.0 * (q * q) as f64)).ceil() as usize);

    let mut roles: Vec<Role> = Vec::new();
    let s = 0usize;
    roles.push(Role::S);
    let t = 1usize;
    roles.push(Role::T);
    let elements: Vec<usize> = (0..inst.n_elements)
        .map(|e| {
            roles.push(Role::Element(e));
            roles.len() - 1
        })
        .collect();
    let mut set_copies: Vec<Vec<usize>> = Vec::new();
    for (i, _) in inst.sets.iter().enumerate() {
        let mut copies = Vec::new();
        for j in 0..c {
            roles.push(Role::SetCopy(i, j));
            copies.push(roles.len() - 1);
        }
        set_copies.push(copies);
    }
    // star leaves: q − 1 per V₁ node
    let v1_count = roles.len();
    let mut leaves_of: Vec<Vec<usize>> = vec![Vec::new(); v1_count];
    for (center, leaves) in leaves_of.iter_mut().enumerate() {
        for _ in 0..(q - 1) {
            roles.push(Role::Leaf { center });
            leaves.push(roles.len() - 1);
        }
    }
    let n = roles.len();

    // base edges E₁
    let mut base_edges: Vec<(usize, usize, f64)> = Vec::new();
    for &e in &elements {
        base_edges.push((s, e, x));
    }
    for (i, set) in inst.sets.iter().enumerate() {
        for &el in set {
            for &copy in &set_copies[i] {
                base_edges.push((elements[el], copy, 1.0));
            }
        }
        for &copy in &set_copies[i] {
            base_edges.push((copy, t, 1.0));
        }
    }
    for (center, leaves) in leaves_of.iter().enumerate() {
        for &leaf in leaves {
            base_edges.push((center, leaf, 1.0));
        }
    }

    // metric closure of (V, E₁) defines every other pair
    let g1 = Graph::from_edges(n, &base_edges);
    let closure = apsp::all_pairs(&g1);
    let host = HostNetwork::from_dist_matrix(closure);

    Reduction {
        host,
        roles,
        base_edges,
        s,
        elements,
        q,
        x,
        c,
        alpha,
    }
}

impl Reduction {
    /// Number of nodes in the host.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True iff the host is a single node (never, by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The candidate network of the proof for a hitting set `hs`: all
    /// base length-1 edges plus the length-x edges `s—uᵢ` for `i ∈ hs`.
    pub fn candidate_network(&self, hs: &[usize]) -> Graph {
        let n = self.len();
        let mut g = Graph::new(n);
        for &(a, b, w) in &self.base_edges {
            if w == 1.0 {
                g.add_edge(a, b, w);
            }
        }
        for &e in hs {
            g.add_edge(self.s, self.elements[e], self.x);
        }
        g
    }

    /// Social cost of a candidate network under the reduction's α.
    pub fn candidate_cost(&self, hs: &[usize]) -> f64 {
        let g = self.candidate_network(hs);
        gncg_game::cost::social_cost_of_graph::<SumDistances>(&g, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> HittingSetInstance {
        // U = {0,1,2}, S = {{0,1},{1,2},{2}} — min hitting set {1,2}? no:
        // {2} must be hit by 2; {0,1} by 0 or 1 → {2,0} or {2,1}, size 2
        HittingSetInstance::new(3, vec![vec![0, 1], vec![1, 2], vec![2]])
    }

    #[test]
    fn minimum_hitting_set_exact() {
        let inst = example();
        let hs = inst.minimum_hitting_set();
        assert_eq!(hs.len(), 2);
        assert!(inst.is_hitting(&hs));
    }

    #[test]
    fn single_set_hit_by_one() {
        let inst = HittingSetInstance::new(4, vec![vec![2, 3]]);
        assert_eq!(inst.minimum_hitting_set().len(), 1);
    }

    #[test]
    fn reduction_constants_match_paper() {
        let inst = example();
        let alpha = 1.0;
        let r = build_reduction(&inst, alpha);
        // q = 1 + ceil(sqrt(1)/2) = 2; x = 2 + 16/1 = 18; c = 1 + ceil(18/16) = 3
        assert_eq!(r.q, 2);
        assert!((r.x - 18.0).abs() < 1e-12);
        assert_eq!(r.c, 3);
    }

    #[test]
    fn host_is_metric_closure_of_base() {
        let inst = HittingSetInstance::new(2, vec![vec![0], vec![1]]);
        let r = build_reduction(&inst, 1.0);
        assert!(r.host.is_metric());
        // s–element distance is x directly (never shorter via sets:
        // element–set–t–... paths are longer for the paper's constants)
        for &e in &r.elements {
            assert!(r.host.weight(r.s, e) <= r.x + 1e-9);
        }
    }

    #[test]
    fn candidate_cost_affine_in_hitting_set_size() {
        // the proof's accounting: SC = 2kα + const over hitting sets of
        // size k — check cost differences between one- and two-element
        // supersets equal 2α
        let inst = HittingSetInstance::new(2, vec![vec![0, 1]]);
        let alpha = 1.0;
        let r = build_reduction(&inst, alpha);
        let c1 = r.candidate_cost(&[0]);
        let c2 = r.candidate_cost(&[0, 1]);
        assert!(
            (c2 - c1 - 2.0 * alpha).abs() < 1e-6,
            "cost difference {} expected {}",
            c2 - c1,
            2.0 * alpha
        );
    }

    #[test]
    fn minimum_hitting_set_candidate_is_cheapest() {
        let inst = example();
        let alpha = 1.0;
        let r = build_reduction(&inst, alpha);
        let min_hs = inst.minimum_hitting_set();
        let min_cost = r.candidate_cost(&min_hs);
        // every hitting set candidate costs at least the minimum's cost
        for mask in 1u64..(1 << inst.n_elements) {
            let hs: Vec<usize> = (0..inst.n_elements)
                .filter(|&e| mask & (1 << e) != 0)
                .collect();
            if inst.is_hitting(&hs) {
                assert!(
                    r.candidate_cost(&hs) >= min_cost - 1e-6,
                    "hitting set {hs:?} cheaper than minimum"
                );
            }
        }
    }

    #[test]
    fn non_hitting_candidate_disconnects_nothing_but_costs_more() {
        // without hitting set S_2 = {2}, adding the missing edge s-u2
        // pays off: the proof's "every set will be hit" step
        let inst = example();
        let alpha = 1.0;
        let r = build_reduction(&inst, alpha);
        // {0} doesn't hit {2} nor {1,2}; candidate still connected
        // (paths via other element / metric edges don't exist in the
        // candidate network — it only has base edges; s connects via u0)
        let partial = r.candidate_cost(&[0]);
        let fixed = r.candidate_cost(&[0, 2]);
        assert!(
            fixed < partial,
            "hitting the uncovered set should pay: {fixed} vs {partial}"
        );
    }

    #[test]
    fn leaves_count() {
        let inst = example();
        let r = build_reduction(&inst, 1.0);
        // V1 = 2 + 3 elements + 3 sets * c copies
        let v1 = 2 + 3 + 3 * r.c;
        assert_eq!(r.len(), v1 * r.q);
        let leaf_count = r
            .roles
            .iter()
            .filter(|r| matches!(r, Role::Leaf { .. }))
            .count();
        assert_eq!(leaf_count, v1 * (r.q - 1));
    }

    #[test]
    #[should_panic(expected = "unhittable")]
    fn empty_set_rejected() {
        HittingSetInstance::new(2, vec![vec![]]);
    }
}
