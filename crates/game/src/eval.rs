//! Incremental evaluation context: the delta-aware game state.
//!
//! Dynamics, certification and diagnostics all ask the same questions —
//! "what does agent `u` pay right now?", "what is the social cost?" —
//! over a profile that changes one strategy at a time. The old path
//! answered each question from scratch: rebuild `G(s)`, run Dijkstra,
//! throw everything away. [`EvalContext`] owns the built graph, a flat
//! per-agent distance matrix and a per-agent edge-cost cache, and keeps
//! them consistent under [`EvalContext::apply_move`]:
//!
//! * the graph is **delta-rebuilt**: only the edges that actually appear
//!   or disappear are touched (an edge survives a sell when the other
//!   endpoint still buys it);
//! * distance rows are **invalidated, not recomputed**: a changed edge
//!   set marks every row stale, a pure ownership change marks none, and
//!   stale rows are refreshed lazily — one CSR Dijkstra per *requested*
//!   row, or all stale rows at once in parallel with per-worker scratch;
//! * edge costs are recomputed only for the moving agent, in the same
//!   sorted order as [`crate::cost::edge_cost`], so every number the
//!   context hands out is bit-identical to the from-scratch path (the
//!   full-recompute fallback retained in [`crate::cost`] as the
//!   property-test oracle).

use crate::{cost, CostModel, EdgeWeights, OwnedNetwork};
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::{DistMatrix, Graph};
use std::collections::BTreeSet;

/// Incrementally maintained evaluation state for one `(weights, α)` game
/// and an evolving strategy profile.
pub struct EvalContext<'w, W: EdgeWeights + ?Sized> {
    w: &'w W,
    alpha: f64,
    net: OwnedNetwork,
    graph: Graph,
    /// Frozen CSR snapshot of `graph`; dropped whenever the edge set
    /// changes and rebuilt on the next row refresh.
    csr: Option<Csr>,
    /// Row `u` holds `d_G(u, ·)` when `row_valid[u]`.
    dist: DistMatrix,
    row_valid: Vec<bool>,
    /// `α·‖u, S_u‖` per agent, always current.
    edge_costs: Vec<f64>,
    scratch: DijkstraScratch,
}

impl<'w, W: EdgeWeights + ?Sized> EvalContext<'w, W> {
    /// Build the context for `net`. No distances are computed yet — rows
    /// fill lazily on first use.
    pub fn new(w: &'w W, net: &OwnedNetwork, alpha: f64) -> Self {
        let n = net.len();
        assert_eq!(n, w.len());
        let graph = net.graph(w);
        let edge_costs = (0..n).map(|u| cost::edge_cost(w, net, alpha, u)).collect();
        Self {
            w,
            alpha,
            net: net.clone(),
            graph,
            csr: None,
            dist: DistMatrix::filled(n, f64::INFINITY),
            row_valid: vec![false; n],
            edge_costs,
            scratch: DijkstraScratch::default(),
        }
    }

    /// Number of agents.
    #[inline]
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// True iff there is exactly one agent (never, profiles are
    /// non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The edge-price factor α.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The weight oracle.
    #[inline]
    pub fn weights(&self) -> &'w W {
        self.w
    }

    /// The current profile.
    #[inline]
    pub fn network(&self) -> &OwnedNetwork {
        &self.net
    }

    /// The created network `G(s)` (kept equal to
    /// `self.network().graph(self.weights())` at all times).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Replace agent `u`'s strategy, delta-rebuilding the graph and
    /// invalidating exactly the cached state that can change. Returns the
    /// old strategy.
    pub fn apply_move(&mut self, u: usize, strategy: BTreeSet<usize>) -> BTreeSet<usize> {
        let old = self.net.set_strategy(u, strategy);
        let mut edges_changed = false;
        for &v in old.difference(self.net.strategy(u)) {
            // the edge survives when v still buys it herself
            if !self.net.owns(v, u) {
                edges_changed |= self.graph.remove_edge(u, v);
            }
        }
        let added: Vec<usize> = self.net.strategy(u).difference(&old).copied().collect();
        for v in added {
            // add_edge reports whether the edge is structurally new
            // (false when v already bought it: weight is unchanged)
            edges_changed |= self.graph.add_edge(u, v, self.w.weight(u, v));
        }
        if edges_changed {
            self.csr = None;
            if gncg_trace::enabled() {
                let live = self.row_valid.iter().filter(|&&v| v).count() as u64;
                gncg_trace::add(gncg_trace::Counter::RowInvalidations, live);
            }
            self.row_valid.fill(false);
        }
        // same expression (and summation order) as cost::edge_cost
        self.edge_costs[u] = self.alpha
            * self
                .net
                .strategy(u)
                .iter()
                .map(|&v| self.w.weight(u, v))
                .sum::<f64>();
        old
    }

    fn take_csr(&mut self) -> Csr {
        match self.csr.take() {
            Some(c) => c,
            None => Csr::from_graph(&self.graph),
        }
    }

    /// Make row `u` valid (one CSR Dijkstra if stale).
    pub fn ensure_row(&mut self, u: usize) {
        if self.row_valid[u] {
            return;
        }
        let csr = self.take_csr();
        csr.dijkstra_into_slice(u, self.dist.row_mut(u), &mut self.scratch);
        self.csr = Some(csr);
        self.row_valid[u] = true;
    }

    /// Make every row valid, refreshing all stale rows in parallel with
    /// one persistent Dijkstra scratch per worker.
    pub fn ensure_all_rows(&mut self) {
        let stale: Vec<usize> = (0..self.len()).filter(|&u| !self.row_valid[u]).collect();
        if stale.is_empty() {
            return;
        }
        let _span = gncg_trace::span("eval.refresh_rows");
        let csr = self.take_csr();
        self.dist.par_fill_rows_with(
            &stale,
            gncg_parallel::arena::rent::<DijkstraScratch>,
            |scratch, u, row| csr.dijkstra_into_slice(u, row, scratch),
        );
        self.csr = Some(csr);
        for u in stale {
            self.row_valid[u] = true;
        }
    }

    /// The full distance matrix `d_G(·, ·)` when every row is valid
    /// (i.e. after [`EvalContext::ensure_all_rows`] with no edge change
    /// since), else `None`. Leaf agents' response evaluators borrow this
    /// as their rest distances instead of running a per-agent APSP — see
    /// [`crate::best_response::ResponseEvaluator::with_shared_rest`].
    pub fn cached_full_matrix(&self) -> Option<&DistMatrix> {
        if self.row_valid.iter().all(|&v| v) {
            Some(&self.dist)
        } else {
            None
        }
    }

    /// Distance cost of agent `u` under model `M` — the `M`-aggregate
    /// of the cached row (refreshed if stale).
    pub fn distance_cost<M: CostModel>(&mut self, u: usize) -> f64 {
        self.ensure_row(u);
        M::aggregate(self.dist.row(u))
    }

    /// Edge cost `α·‖u, S_u‖` of agent `u` (cached, always current).
    #[inline]
    pub fn edge_cost(&self, u: usize) -> f64 {
        self.edge_costs[u]
    }

    /// Full cost of agent `u` under model `M` (row refreshed if stale) —
    /// bit-identical to [`crate::cost::agent_cost`] on the same profile.
    pub fn agent_cost<M: CostModel>(&mut self, u: usize) -> f64 {
        self.edge_costs[u] + self.distance_cost::<M>(u)
    }

    /// Full cost of agent `u` under model `M`, assuming its row is
    /// already valid (e.g. after [`EvalContext::ensure_all_rows`]);
    /// usable through a shared reference inside parallel sections.
    pub fn agent_cost_cached<M: CostModel>(&self, u: usize) -> f64 {
        assert!(self.row_valid[u], "distance row {u} is stale");
        self.edge_costs[u] + M::aggregate(self.dist.row(u))
    }

    /// Cost vector of all agents under model `M` (stale rows refreshed
    /// in parallel).
    pub fn all_costs<M: CostModel>(&mut self) -> Vec<f64> {
        self.ensure_all_rows();
        (0..self.len())
            .map(|u| self.agent_cost_cached::<M>(u))
            .collect()
    }

    /// Social cost `SC(G(s)) = Σ_u cost(u)` under model `M`.
    pub fn social_cost<M: CostModel>(&mut self) -> f64 {
        self.all_costs::<M>().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SumDistances;
    use gncg_geometry::generators;
    use rand::{Rng, SeedableRng};

    fn random_profile(rng: &mut rand::rngs::StdRng, n: usize) -> OwnedNetwork {
        let mut net = OwnedNetwork::empty(n);
        for a in 1..n {
            net.buy(a, rng.gen_range(0..a));
        }
        for _ in 0..n {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                net.buy(a, b);
            }
        }
        net
    }

    fn random_strategy(rng: &mut rand::rngs::StdRng, n: usize, u: usize) -> BTreeSet<usize> {
        (0..n)
            .filter(|&v| v != u && rng.gen::<f64>() < 0.3)
            .collect()
    }

    #[test]
    fn fresh_context_matches_oracle() {
        let ps = generators::uniform_unit_square(12, 3);
        let net = random_profile(&mut rand::rngs::StdRng::seed_from_u64(8), 12);
        let mut ctx = EvalContext::new(&ps, &net, 1.7);
        for u in 0..12 {
            let a = ctx.agent_cost::<SumDistances>(u);
            let b = cost::agent_cost::<_, SumDistances>(&ps, &net, 1.7, u);
            assert_eq!(a.to_bits(), b.to_bits(), "agent {u}");
        }
        assert_eq!(
            ctx.social_cost::<SumDistances>().to_bits(),
            cost::social_cost::<_, SumDistances>(&ps, &net, 1.7).to_bits()
        );
        assert_eq!(
            ctx.all_costs::<SumDistances>(),
            cost::all_costs::<_, SumDistances>(&ps, &net, 1.7)
        );
    }

    #[test]
    fn apply_move_tracks_from_scratch_rebuild() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..6 {
            let n = 10;
            let ps = generators::uniform_unit_square(n, 1000 + trial);
            let start = random_profile(&mut rng, n);
            let mut ctx = EvalContext::new(&ps, &start, 2.0);
            for step in 0..12 {
                let u = rng.gen_range(0..n);
                let s = random_strategy(&mut rng, n, u);
                ctx.apply_move(u, s);
                // the delta-rebuilt graph must equal a from-scratch build
                let reference = ctx.network().graph(&ps);
                assert_eq!(ctx.graph(), &reference, "trial {trial} step {step}");
                // spot-check one agent's cost against the oracle
                let probe = rng.gen_range(0..n);
                let a = ctx.agent_cost::<SumDistances>(probe);
                let b = cost::agent_cost::<_, SumDistances>(&ps, ctx.network(), 2.0, probe);
                assert_eq!(a.to_bits(), b.to_bits(), "trial {trial} step {step}");
            }
            let net = ctx.network().clone();
            assert_eq!(
                ctx.all_costs::<SumDistances>(),
                cost::all_costs::<_, SumDistances>(&ps, &net, 2.0)
            );
        }
    }

    #[test]
    fn model_costs_match_from_scratch_oracle() {
        use crate::MaxDistance;
        let ps = generators::uniform_unit_square(11, 5);
        let net = random_profile(&mut rand::rngs::StdRng::seed_from_u64(9), 11);
        let mut ctx = EvalContext::new(&ps, &net, 1.3);
        ctx.ensure_all_rows();
        for u in 0..11 {
            let row_sum: f64 = ctx
                .cached_full_matrix()
                .expect("all rows valid")
                .row(u)
                .iter()
                .sum();
            assert_eq!(
                ctx.agent_cost_cached::<SumDistances>(u).to_bits(),
                (ctx.edge_cost(u) + row_sum).to_bits(),
                "sum instantiation must be the plain row sum (agent {u})"
            );
            assert_eq!(
                ctx.agent_cost::<MaxDistance>(u).to_bits(),
                cost::agent_cost::<_, MaxDistance>(&ps, &net, 1.3, u).to_bits(),
                "agent {u}"
            );
        }
    }

    #[test]
    fn ownership_only_change_keeps_rows_valid() {
        // 0 and 1 both buy {0,1}: dropping one direction keeps the edge
        let ps = generators::line(3, 2.0);
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1);
        net.buy(1, 0);
        net.buy(1, 2);
        let mut ctx = EvalContext::new(&ps, &net, 1.0);
        ctx.ensure_all_rows();
        ctx.apply_move(0, BTreeSet::new());
        assert!(ctx.row_valid.iter().all(|&v| v), "graph did not change");
        assert_eq!(
            ctx.agent_cost::<SumDistances>(0).to_bits(),
            cost::agent_cost::<_, SumDistances>(&ps, ctx.network(), 1.0, 0).to_bits()
        );
    }

    #[test]
    fn edge_change_invalidates_rows() {
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::forward_path(3);
        let mut ctx = EvalContext::new(&ps, &net, 1.0);
        ctx.ensure_all_rows();
        ctx.apply_move(0, [2].into_iter().collect());
        assert!(ctx.row_valid.iter().all(|&v| !v));
        assert_eq!(
            ctx.social_cost::<SumDistances>().to_bits(),
            cost::social_cost::<_, SumDistances>(&ps, ctx.network(), 1.0).to_bits()
        );
    }

    #[test]
    fn disconnection_propagates_as_infinity() {
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::forward_path(3);
        let mut ctx = EvalContext::new(&ps, &net, 1.0);
        ctx.apply_move(1, BTreeSet::new()); // 2 now isolated
        assert!(ctx.agent_cost::<SumDistances>(2).is_infinite());
        assert!(ctx.social_cost::<SumDistances>().is_infinite());
    }
}
