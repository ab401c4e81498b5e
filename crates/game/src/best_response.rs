//! Exact best responses by subset enumeration.
//!
//! Computing a best response is NP-hard (Bilò et al.), so exact
//! computation is exponential: we enumerate all `2^{n−1}` candidate
//! strategies of an agent. Two ingredients make this practical up to
//! n ≈ 20 (the scale where the paper's witness instances live):
//!
//! 1. **Decomposition.** A shortest path from `u` never revisits `u`, so
//!    with `D` the APSP matrix of `G − u` (everyone else's edges only),
//!    `d(u, v) = min_{x ∈ N} (‖u,x‖ + D[x][v])` where `N` is `u`'s
//!    incident neighbour set (bought ∪ bought-towards-u). `D` is computed
//!    once per agent, each candidate subset costs O(|N|·n).
//! 2. **Parallel enumeration** over the mask space with the argmin
//!    `gncg_parallel::min_by_cost`, one [`ResponseScratch`] per worker
//!    so candidate evaluation performs zero heap allocations.
//!
//! The enumeration prunes masks that provably cannot win (see
//! [`ResponseEvaluator::best_response`]); the plain enumeration it must
//! match bit for bit is [`crate::prune::oracle::best_response`].

use crate::{cost, CostModel, EdgeWeights, ModelKind, OwnedNetwork};
use gncg_graph::{csr::Csr, DistMatrix, Graph};
use std::collections::BTreeSet;

/// Result of a best-response computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponse {
    /// The minimum achievable cost for the agent.
    pub cost: f64,
    /// A strategy achieving it (lowest mask among ties — deterministic).
    pub strategy: BTreeSet<usize>,
}

/// Practical cap on exact enumeration: `2^{MAX_EXACT_AGENTS−1}` subsets.
pub const MAX_EXACT_AGENTS: usize = 22;

/// Reusable buffers for [`ResponseEvaluator::cost_with`]: the merged
/// neighbour list and the per-target running minima. One scratch per
/// worker makes candidate evaluation allocation-free — the enumeration
/// touches up to `2^{n−1}` candidates per agent, so a per-candidate
/// `clone()` here dominated the old profile.
#[derive(Debug, Default, Clone)]
pub struct ResponseScratch {
    neighbours: Vec<usize>,
    best: Vec<f64>,
}

impl gncg_parallel::arena::Scratch for ResponseScratch {
    fn reset(&mut self) {
        self.neighbours.clear();
        self.best.clear();
    }
}

/// Rest-graph distances of a [`ResponseEvaluator`]: either an APSP of
/// `G − u` computed for this agent, or a borrowed view of a shared
/// full-graph matrix (valid only for leaf agents — see
/// [`ResponseEvaluator::with_shared_rest`]).
enum RestDist<'d> {
    /// Arena-rented matrix holding this agent's `G − u` APSP; the lease
    /// returns the buffer to the worker's pool when the evaluator drops,
    /// so steady-state dynamics runs allocate no matrix per evaluation.
    Owned(gncg_parallel::arena::Lease<DistMatrix>),
    Shared(&'d DistMatrix),
}

impl RestDist<'_> {
    #[inline]
    fn row(&self, x: usize) -> &[f64] {
        match self {
            RestDist::Owned(m) => m.row(x),
            RestDist::Shared(m) => m.row(x),
        }
    }
}

/// Precomputed state for evaluating *any* candidate strategy of a fixed
/// agent `u` in O(|neighbours|·n), without rebuilding the network.
///
/// Key fact: a shortest path from `u` never revisits `u`, so with `D`
/// the APSP matrix of `G − u` (all other agents' edges only),
/// `d(u, v) = min_{x ∈ N} (‖u,x‖ + D[x][v])` where `N` is `u`'s set of
/// incident neighbours (bought by `u` or bought towards `u`). Shared by
/// the exact enumeration and the local-search move generator.
pub struct ResponseEvaluator<'d> {
    /// The agent being optimized.
    pub agent: usize,
    /// All other agents, ascending.
    pub others: Vec<usize>,
    /// Agents that bought an edge towards `agent` (fixed incident set).
    pub fixed_incident: Vec<usize>,
    /// APSP among the other agents (rows/cols indexed by agent id).
    dist_rest: RestDist<'d>,
    /// `‖u, v‖` for all v.
    edge_w: Vec<f64>,
    /// `Σ_{v≠u} lb(u, v)`: the metric floor under every strategy's
    /// distance cost, consumed by the pruning layer ([`crate::prune`]).
    lb_dist: f64,
    /// `max_{v≠u} lb(u, v)`: the same floor under the max-distance
    /// objective — no strategy brings the farthest agent closer than its
    /// metric lower bound.
    lb_dist_max: f64,
}

impl ResponseEvaluator<'static> {
    /// Build the evaluator for agent `u` (runs n−1 Dijkstras once).
    pub fn new<W: EdgeWeights + ?Sized>(w: &W, net: &OwnedNetwork, u: usize) -> Self {
        Self::from_built_graph(w, net, &net.graph(w), u)
    }

    /// Build the evaluator for agent `u` against an already-materialized
    /// created network `g` (which must equal `net.graph(w)`), snapshotting
    /// `G − u` straight out of `g`. Callers that already hold the built
    /// graph skip [`ResponseEvaluator::new`]'s rebuild.
    pub fn from_built_graph<W: EdgeWeights + ?Sized>(
        w: &W,
        net: &OwnedNetwork,
        g: &Graph,
        u: usize,
    ) -> Self {
        let n = net.len();
        assert!(u < n && g.len() == n);
        // Rest snapshot and APSP both run in arena-rented buffers: the
        // dynamics loop calls this once per non-leaf evaluation, and
        // per-call allocation (three CSR arrays + an n² matrix) plus
        // span bookkeeping was a measurable slice of the stage.
        let mut csr = gncg_parallel::arena::rent::<Csr>();
        csr.refill_from_graph_without_vertex(g, u);
        let mut dist_rest = gncg_parallel::arena::rent::<DistMatrix>();
        csr.all_pairs_into(&mut dist_rest);
        let fixed_incident = fixed_incident_from_graph(net, g, u);
        Self::with_dist_rest(w, net, u, RestDist::Owned(dist_rest), fixed_incident)
    }
}

/// Agents owning an edge to `u`, in ascending id order — read off the
/// built graph's adjacency of `u` (degree-many ownership tests) instead
/// of scanning every agent's strategy set. `g` must equal the created
/// network of `net`, so every owner of an edge to `u` is a neighbour of
/// `u`; the sort restores the ascending order the full scan produced.
fn fixed_incident_from_graph(net: &OwnedNetwork, g: &Graph, u: usize) -> Vec<usize> {
    let mut fixed: Vec<usize> = g
        .neighbors(u)
        .iter()
        .map(|&(a, _)| a)
        .filter(|&a| net.strategy(a).contains(&u))
        .collect();
    fixed.sort_unstable();
    fixed
}

impl<'d> ResponseEvaluator<'d> {
    /// Build the evaluator for a **leaf** agent `u` (degree ≤ 1 in `g`,
    /// which must equal `net.graph(w)`), borrowing the full-graph
    /// distance matrix `dist` (`dist[x][v] = d_G(x, v)`) instead of
    /// running an APSP of `G − u`.
    ///
    /// Why this is exact: a vertex of degree ≤ 1 is never interior to a
    /// walk between two *other* vertices — any excursion through `u`
    /// enters and leaves via its single neighbour, and with non-negative
    /// weights and monotone rounding the left-folded path sum only grows.
    /// Dijkstra computes exactly the minimum rounded path sum, so
    /// `d_{G−u}(x, v)` and `d_G(x, v)` agree **bit for bit** on every
    /// entry the evaluator reads (rows `x ≠ u`, targets `v ≠ u`). The
    /// per-agent APSP — the dominant cost of a dynamics probe — thus
    /// disappears entirely for leaf agents.
    pub fn with_shared_rest<W: EdgeWeights + ?Sized>(
        w: &W,
        net: &OwnedNetwork,
        g: &Graph,
        dist: &'d DistMatrix,
        u: usize,
    ) -> Self {
        let n = net.len();
        assert!(u < n && g.len() == n && dist.len() == n);
        assert!(
            g.degree(u) <= 1,
            "shared rest distances require a leaf agent"
        );
        let fixed_incident = fixed_incident_from_graph(net, g, u);
        Self::with_dist_rest(w, net, u, RestDist::Shared(dist), fixed_incident)
    }

    fn with_dist_rest<W: EdgeWeights + ?Sized>(
        w: &W,
        net: &OwnedNetwork,
        u: usize,
        dist_rest: RestDist<'d>,
        fixed_incident: Vec<usize>,
    ) -> Self {
        let n = net.len();
        let others: Vec<usize> = (0..n).filter(|&v| v != u).collect();
        // One ascending-v pass builds the weight row and both metric
        // floors: the sum accumulates in the same `v` order as the old
        // dedicated pass (identical left fold), and max is
        // order-insensitive — but the oracle is consulted once per
        // target instead of twice.
        let mut edge_w: Vec<f64> = Vec::with_capacity(n);
        let mut lb_dist = 0.0f64;
        let mut lb_dist_max = 0.0f64;
        for v in 0..n {
            if v == u {
                edge_w.push(0.0);
                continue;
            }
            edge_w.push(w.weight(u, v));
            let lb = w.metric_lower_bound(u, v);
            lb_dist += lb;
            if lb > lb_dist_max {
                lb_dist_max = lb;
            }
        }
        Self {
            agent: u,
            others,
            fixed_incident,
            dist_rest,
            edge_w,
            lb_dist,
            lb_dist_max,
        }
    }

    /// The metric floor on this agent's distance cost under model `M`
    /// — a lower bound on the `M`-distance cost of *any* strategy:
    /// `Σ_{v≠u} lb(u, v)` for the sum objective, `max_{v≠u} lb(u, v)`
    /// for the max-distance objective. Both floors are precomputed, so
    /// selection is a compile-time `M::KIND` match.
    #[inline]
    pub fn lb_dist<M: CostModel>(&self) -> f64 {
        match M::KIND {
            ModelKind::SumDistances => self.lb_dist,
            ModelKind::MaxDistance => self.lb_dist_max,
        }
    }

    /// `‖u, v‖` (0 for `v == agent`).
    #[inline]
    pub(crate) fn edge_weight(&self, v: usize) -> f64 {
        self.edge_w[v]
    }

    /// Row `x` of the rest-graph APSP (`d_{G−u}(x, ·)`), for the batched
    /// move engine in [`crate::moves`].
    #[inline]
    pub(crate) fn rest_row(&self, x: usize) -> &[f64] {
        self.dist_rest.row(x)
    }

    /// Cost of `agent` under model `M` and the candidate strategy
    /// `bought` (an iterator of agent ids to buy edges to). Allocating
    /// convenience wrapper around [`ResponseEvaluator::cost_with`].
    pub fn cost<M: CostModel, I: IntoIterator<Item = usize>>(&self, alpha: f64, bought: I) -> f64 {
        let mut scratch = gncg_parallel::arena::rent::<ResponseScratch>();
        self.cost_with::<M, I>(alpha, bought, &mut scratch)
    }

    /// Like [`ResponseEvaluator::cost`], but reusing `scratch`: after the
    /// buffers warm up, evaluating a candidate performs zero heap
    /// allocations. Hot loops (mask enumeration, move generation) hold
    /// one scratch per worker.
    pub fn cost_with<M: CostModel, I: IntoIterator<Item = usize>>(
        &self,
        alpha: f64,
        bought: I,
        scratch: &mut ResponseScratch,
    ) -> f64 {
        self.cost_with_cutoff::<M, I>(alpha, bought, f64::INFINITY, scratch)
    }

    /// [`ResponseEvaluator::cost_with`] with a branch-and-bound cutoff:
    /// returns the exact cost (bit-identical to `cost_with`) whenever it
    /// is ≤ `cutoff`, and may return `+∞` early otherwise.
    ///
    /// Sound because every [`CostModel`] guarantees prefix folds are ≤
    /// the final fold (soundness rule 2 — true of non-negative running
    /// sums and of running maxima alike): every partial value of
    /// `α·buy + prefix aggregate` is ≤ the final cost bit-exactly
    /// (round-to-nearest is monotone), so a partial strictly above
    /// `cutoff` proves the final cost is too. Candidates at the cutoff
    /// never trip the strict comparison, so exact ties — which the
    /// callers' tie-breaks must see — always evaluate fully.
    pub fn cost_with_cutoff<M: CostModel, I: IntoIterator<Item = usize>>(
        &self,
        alpha: f64,
        bought: I,
        cutoff: f64,
        scratch: &mut ResponseScratch,
    ) -> f64 {
        gncg_trace::incr(gncg_trace::Counter::BestResponseEvals);
        let mut buy_cost = 0.0;
        scratch.neighbours.clear();
        scratch.neighbours.extend_from_slice(&self.fixed_incident);
        for v in bought {
            debug_assert!(v != self.agent);
            buy_cost += self.edge_w[v];
            scratch.neighbours.push(v);
        }
        if scratch.neighbours.is_empty() {
            return f64::INFINITY;
        }
        // Per-target minimum over the neighbour rows, scanned row-major:
        // f64 min is exact, so the result matches the column-major
        // formulation bit for bit while walking `dist_rest` in cache
        // order.
        let n = self.edge_w.len();
        scratch.best.clear();
        scratch.best.resize(n, f64::INFINITY);
        // with shared rest distances the row also carries d(x, u); the
        // entry lands in best[agent], which the sum below never reads
        for &x in &scratch.neighbours {
            let ew = self.edge_w[x];
            let row = self.dist_rest.row(x);
            // Branch-free select so the row merge autovectorizes; f64
            // `<` + select is the same exact min as the branchy form.
            for (b, &d) in scratch.best.iter_mut().zip(row) {
                let via = ew + d;
                *b = if via < *b { via } else { *b };
            }
        }
        let base = alpha * buy_cost;
        let mut dist_agg = M::EMPTY;
        if cutoff.is_finite() {
            for &v in &self.others {
                dist_agg = M::fold(dist_agg, scratch.best[v]);
                if base + dist_agg > cutoff || dist_agg.is_infinite() {
                    return f64::INFINITY;
                }
            }
        } else {
            for &v in &self.others {
                dist_agg = M::fold(dist_agg, scratch.best[v]);
                if dist_agg.is_infinite() {
                    return f64::INFINITY;
                }
            }
        }
        base + dist_agg
    }

    /// Exact best response of this agent under model `M`: enumerates all
    /// `2^{n−1}` strategies against the evaluator's rest distances.
    ///
    /// A deterministic sequential pre-pass evaluates the empty strategy,
    /// every singleton, and the full strategy (`m + 2` evaluations with one
    /// scratch — the full mask keeps `ub₀` finite even when no single edge
    /// connects the agent, e.g. the centre of a star it owns) to obtain an
    /// upper bound `ub₀`; the mask enumeration then skips any mask whose buy
    /// cost alone already exceeds it (`fl(α·buy) > ub₀` — sound bit-exactly
    /// for every model since the distance aggregate is non-negative, see
    /// soundness rule 1 in [`crate::prune`]) and evaluates survivors with
    /// `ub₀` as a branch-and-bound cutoff (rule 2). The pre-pass argmin mask
    /// always survives the prune test (`fl(α·buy) ≤ its cost = ub₀`), so the
    /// final winner — including lowest-mask tie-breaks among costs ≤ `ub₀` —
    /// is bit-identical to the unpruned enumeration
    /// ([`crate::prune::oracle::best_response`]). Prune decisions depend only
    /// on `(mask, ub₀)`, so the `moves_pruned` / `moves_evaluated` counters
    /// are deterministic across thread counts.
    pub fn best_response<M: CostModel>(&self, alpha: f64) -> BestResponse {
        let _span = gncg_trace::span("game.best_response");
        let others = &self.others;
        let m = others.len();
        assert!(
            m < MAX_EXACT_AGENTS,
            "exact best response limited to {MAX_EXACT_AGENTS} agents (got {})",
            m + 1
        );

        let ub0 = {
            let mut scratch = gncg_parallel::arena::rent::<ResponseScratch>();
            let mut ub = self.cost_with::<M, _>(alpha, std::iter::empty(), &mut scratch);
            for &v in others {
                let c = self.cost_with::<M, _>(alpha, std::iter::once(v), &mut scratch);
                if c < ub {
                    ub = c;
                }
            }
            if m >= 2 {
                let c = self.cost_with::<M, _>(alpha, others.iter().copied(), &mut scratch);
                if c < ub {
                    ub = c;
                }
            }
            ub
        };

        let total_masks = 1u64 << m;
        // A pruned mask costs +∞ here. Pruning fires only when ub₀ is
        // finite, and the mask attaining ub₀ is never pruned, so the
        // winner is finite then and no pruned mask is ever selected.
        let (best_mask, best_cost) = gncg_parallel::min_by_cost(
            total_masks as usize,
            gncg_parallel::arena::rent::<ResponseScratch>,
            |scratch, i| {
                let mask = i as u64;
                // Buy cost in ascending bit order — the exact fl value
                // `cost_with` would accumulate for this mask.
                let mut buy = 0.0;
                for (bit, &v) in others.iter().enumerate() {
                    if mask & (1u64 << bit) != 0 {
                        buy += self.edge_weight(v);
                    }
                }
                if alpha * buy > ub0 {
                    gncg_trace::incr(gncg_trace::Counter::MovesPruned);
                    return f64::INFINITY;
                }
                gncg_trace::incr(gncg_trace::Counter::MovesEvaluated);
                self.cost_with_cutoff::<M, _>(alpha, mask_members(others, mask), ub0, scratch)
            },
        )
        .map_or((u64::MAX, f64::INFINITY), |(i, c)| (i as u64, c));

        BestResponse {
            cost: best_cost,
            strategy: mask_members(others, best_mask).collect(),
        }
    }
}

/// The agents of `others` whose bit is set in `mask`, in ascending bit
/// order — the strategy a mask of the exact enumeration stands for.
pub(crate) fn mask_members(others: &[usize], mask: u64) -> impl Iterator<Item = usize> + '_ {
    others
        .iter()
        .enumerate()
        .filter(move |(bit, _)| mask & (1u64 << bit) != 0)
        .map(|(_, &v)| v)
}

/// Exact best response of agent `u` against the fixed strategies of all
/// other agents in `net`.
///
/// Runs the `2^{n−1}` enumeration under `cfg.budget` (`GNCG_BUDGET_MS`
/// by default, unlimited when unset) and degrades to
/// [`best_response_lower_bound`] (always ≤ the true best-response cost,
/// so improvement factors built on it can only over-estimate
/// instability — the sound direction) when the instance exceeds
/// [`MAX_EXACT_AGENTS`], the budget runs out, or the solve panics. Use
/// [`crate::moves::local_search_response`] for a heuristic response
/// beyond the cap.
pub fn exact_best_response<W: EdgeWeights + ?Sized>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
    cfg: &crate::SolverConfig,
) -> crate::outcome::Outcome<BestResponse> {
    crate::dispatch_model!(cfg.model, M, {
        exact_best_response_generic::<W, M>(w, net, alpha, u, cfg)
    })
}

/// Monomorphic body of [`exact_best_response`] for model `M`.
fn exact_best_response_generic<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
    cfg: &crate::SolverConfig,
) -> crate::outcome::Outcome<BestResponse> {
    use crate::outcome::{attempt, DegradeReason, Outcome};
    let n = net.len();
    if n > MAX_EXACT_AGENTS {
        return Outcome::Degraded {
            certified_bound: best_response_lower_bound::<W, M>(w, u),
            reason: DegradeReason::InstanceTooLarge {
                n,
                cap: MAX_EXACT_AGENTS,
            },
        };
    }
    match attempt(&cfg.budget, || {
        exact_best_response_raw::<W, M>(w, net, alpha, u)
    }) {
        Ok(br) => Outcome::Exact(br),
        Err(reason) => Outcome::Degraded {
            certified_bound: best_response_lower_bound::<W, M>(w, u),
            reason,
        },
    }
}

/// Unbudgeted enumeration body of [`exact_best_response`] under model
/// `M`; panics if `n > MAX_EXACT_AGENTS`. Internal callers (Nash verification, the
/// reference dynamics, the improvement-factor map) run it directly.
pub(crate) fn exact_best_response_raw<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
) -> BestResponse {
    let n = net.len();
    assert!(u < n);
    assert!(
        n <= MAX_EXACT_AGENTS,
        "exact best response limited to {MAX_EXACT_AGENTS} agents (got {n})"
    );
    if n == 1 {
        return BestResponse {
            cost: 0.0,
            strategy: BTreeSet::new(),
        };
    }
    ResponseEvaluator::new(w, net, u).best_response::<M>(alpha)
}

/// Certified lower bound on the cost of *any* strategy of agent `u`
/// under model `M`: the `M`-aggregate of the metric lower bounds
/// `lb(u, v)`, `v ≠ u` (their sum for the paper's objective, the
/// farthest floor for max-distance) — no network brings a pair closer
/// than the metric lower bound, and edge purchases only add to that.
pub fn best_response_lower_bound<W: EdgeWeights + ?Sized, M: CostModel>(w: &W, u: usize) -> f64 {
    (0..w.len())
        .filter(|&v| v != u)
        .map(|v| w.metric_lower_bound(u, v))
        .fold(M::EMPTY, M::fold)
}

/// Exact improvement factor of agent `u` under model `M`:
/// `cost(u, G) / cost(u, best response)`.
///
/// Returns 1.0 when the best-response cost is 0 and the current cost is
/// also 0 (degenerate co-located instances).
pub fn exact_improvement_factor<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
) -> f64 {
    let now = cost::agent_cost::<W, M>(w, net, alpha, u);
    let br = exact_best_response_raw::<W, M>(w, net, alpha, u);
    ratio(now, br.cost)
}

/// `now / best`, mapping 0/0 to 1 and x/0 (x>0) to ∞.
pub fn ratio(now: f64, best: f64) -> f64 {
    if best > 0.0 {
        now / best
    } else if now <= 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SumDistances;
    use gncg_geometry::generators;

    #[test]
    fn best_response_on_line_center_star() {
        // points 0,1,2 at x=0,1,2; alpha small: agent 1 in the middle of
        // a star centred at 0 has nothing cheaper than staying put
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::center_star(3, 0);
        let br = exact_best_response_raw::<_, SumDistances>(&ps, &net, 0.5, 1);
        // agent 1 current cost: d=1 (to 0) + 3 (to 2 via 0) = 4
        // buying edge to 2 (w=1) costs 0.5, distance becomes 1+1=2 => 2.5
        assert!((br.cost - 2.5).abs() < 1e-9);
        assert!(br.strategy.contains(&2));
    }

    #[test]
    fn best_response_keeps_graph_connected_via_others() {
        // if others already connect u, the empty strategy is feasible
        let ps = generators::line(3, 2.0);
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1);
        net.buy(2, 1);
        // agent 1 owns nothing and is connected: BR may be empty
        let br = exact_best_response_raw::<_, SumDistances>(&ps, &net, 10.0, 1);
        assert!(br.strategy.is_empty());
        assert!((br.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_agent_must_buy() {
        let ps = generators::line(3, 2.0);
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1); // 2 is isolated
        let br = exact_best_response_raw::<_, SumDistances>(&ps, &net, 1.0, 2);
        assert!(!br.strategy.is_empty());
        assert!(br.cost.is_finite());
        // optimal: buy edge to 1 (w=1): cost 1*1 + (1 + 2) = 4
        // vs buy edge to 0 (w=2): 2 + (2+3)=7; vs both: 3 + (1+2)=6
        assert!((br.cost - 4.0).abs() < 1e-9);
        assert_eq!(br.strategy.iter().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn improvement_factor_of_stable_agent_is_one() {
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        // agent 1 pays only distance 1 and can do nothing better
        let f = exact_improvement_factor::<_, SumDistances>(&ps, &net, 1.0, 1);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn brute_force_cross_check_small() {
        // compare the decomposition-based enumeration against a naive
        // "rebuild the whole graph per subset" evaluation
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for trial in 0..5 {
            let n = 6;
            let ps = generators::uniform_unit_square(n, 100 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 0..n {
                for b in 0..n {
                    if a != b && rng.gen::<f64>() < 0.3 {
                        net.buy(a, b);
                    }
                }
            }
            let alpha = 0.5 + rng.gen::<f64>() * 3.0;
            for u in 0..n {
                let fast = exact_best_response_raw::<_, SumDistances>(&ps, &net, alpha, u);
                let slow = naive_best_response(&ps, &net, alpha, u);
                assert!(
                    (fast.cost - slow).abs() < 1e-9,
                    "trial {trial} agent {u}: fast {} vs slow {slow}",
                    fast.cost
                );
            }
        }
    }

    fn naive_best_response(
        ps: &gncg_geometry::PointSet,
        net: &OwnedNetwork,
        alpha: f64,
        u: usize,
    ) -> f64 {
        let n = net.len();
        let others: Vec<usize> = (0..n).filter(|&v| v != u).collect();
        let mut best = f64::INFINITY;
        for mask in 0u64..(1 << others.len()) {
            let mut trial = net.clone();
            let strat: BTreeSet<usize> = others
                .iter()
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &v)| v)
                .collect();
            trial.set_strategy(u, strat);
            let c = cost::agent_cost::<_, SumDistances>(ps, &trial, alpha, u);
            if c < best {
                best = c;
            }
        }
        best
    }

    #[test]
    fn from_built_graph_matches_fresh_evaluator() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        for trial in 0..4 {
            let n = 8;
            let ps = generators::uniform_unit_square(n, 300 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            net.buy(0, n - 1);
            let g = net.graph(&ps);
            for u in 0..n {
                // the oracle: `G − u` assembled edge by edge from the
                // strategies, incident owners found by the ownership scan
                let mut rest = Graph::new(n);
                for a in (0..n).filter(|&a| a != u) {
                    for &b in net.strategy(a).iter().filter(|&&b| b != u) {
                        rest.add_edge(a, b, ps.weight(a, b));
                    }
                }
                let fresh = Csr::from_graph(&rest).all_pairs();
                let owners: Vec<usize> = (0..n)
                    .filter(|&a| a != u && net.strategy(a).contains(&u))
                    .collect();
                let built = ResponseEvaluator::from_built_graph(&ps, &net, &g, u);
                assert_eq!(built.fixed_incident, owners, "trial {trial} agent {u}");
                for x in (0..n).filter(|&x| x != u) {
                    let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(built.dist_rest.row(x)),
                        bits(fresh.row(x)),
                        "trial {trial} agent {u} row {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_rest_matches_owned_for_leaf_agents() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(91);
        for trial in 0..6 {
            let n = 10;
            let ps = generators::uniform_unit_square(n, 900 + trial);
            // a star plus a few extra edges keeps plenty of leaves around
            let mut net = OwnedNetwork::center_star(n, 0);
            for _ in 0..2 {
                let a = rng.gen_range(1..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    net.buy(a, b);
                }
            }
            let g = net.graph(&ps);
            let full = gncg_graph::csr::Csr::from_graph(&g).all_pairs();
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;
            for u in (0..n).filter(|&u| g.degree(u) <= 1) {
                let owned = ResponseEvaluator::from_built_graph(&ps, &net, &g, u);
                let shared = ResponseEvaluator::with_shared_rest(&ps, &net, &g, &full, u);
                for v in (0..n).filter(|&v| v != u) {
                    let a = owned.cost::<SumDistances, _>(alpha, [v]);
                    let b = shared.cost::<SumDistances, _>(alpha, [v]);
                    assert_eq!(a.to_bits(), b.to_bits(), "trial {trial} agent {u} buy {v}");
                }
                assert_eq!(
                    owned.best_response::<SumDistances>(alpha),
                    shared.best_response::<SumDistances>(alpha),
                    "trial {trial} agent {u}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaf agent")]
    fn shared_rest_rejects_interior_agents() {
        let ps = generators::uniform_unit_square(5, 3);
        let net = OwnedNetwork::center_star(5, 0);
        let g = net.graph(&ps);
        let full = gncg_graph::csr::Csr::from_graph(&g).all_pairs();
        ResponseEvaluator::with_shared_rest(&ps, &net, &g, &full, 0);
    }

    #[test]
    fn cost_with_reused_scratch_matches_cost() {
        let ps = generators::uniform_unit_square(7, 5);
        let net = OwnedNetwork::center_star(7, 2);
        let eval = ResponseEvaluator::new(&ps, &net, 0);
        let mut scratch = ResponseScratch::default();
        for v in 1..7 {
            let a = eval.cost::<SumDistances, _>(1.3, [v]);
            let b = eval.cost_with::<SumDistances, _>(1.3, [v], &mut scratch);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // empty candidate with no incident edges is infeasible
        let mut lonely = OwnedNetwork::empty(7);
        lonely.buy(1, 2);
        let e = ResponseEvaluator::new(&ps, &lonely, 0);
        assert!(e
            .cost_with::<SumDistances, _>(1.0, [].into_iter(), &mut scratch)
            .is_infinite());
    }

    #[test]
    fn max_distance_enumeration_matches_naive_oracle() {
        use crate::MaxDistance;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..5 {
            let n = 6;
            let ps = generators::uniform_unit_square(n, 700 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 0..n {
                for b in 0..n {
                    if a != b && rng.gen::<f64>() < 0.3 {
                        net.buy(a, b);
                    }
                }
            }
            let alpha = 0.5 + rng.gen::<f64>() * 3.0;
            for u in 0..n {
                let fast = exact_best_response_raw::<_, MaxDistance>(&ps, &net, alpha, u);
                let eval = ResponseEvaluator::new(&ps, &net, u);
                let slow = crate::prune::oracle::best_response::<MaxDistance>(&eval, alpha).cost;
                assert_eq!(
                    fast.cost.to_bits(),
                    slow.to_bits(),
                    "trial {trial} agent {u}: fast {} vs slow {slow}",
                    fast.cost
                );
                // cross-check against a fully from-scratch profile
                // rebuild; tolerance, not bits — the evaluator composes
                // shortest paths through the rest graph, which
                // parenthesizes the path sums differently than a
                // Dijkstra over G(s)
                let mut probe = net.clone();
                probe.set_strategy(u, fast.strategy.clone());
                let scratch_cost = cost::agent_cost::<_, MaxDistance>(&ps, &probe, alpha, u);
                if fast.cost.is_finite() {
                    assert!(
                        (fast.cost - scratch_cost).abs() <= 1e-9 * scratch_cost.abs().max(1.0),
                        "trial {trial} agent {u}: evaluator {} vs rebuild {scratch_cost}",
                        fast.cost
                    );
                } else {
                    assert!(scratch_cost.is_infinite());
                }
            }
        }
    }

    #[test]
    fn lb_dist_selects_per_model_floor() {
        use crate::MaxDistance;
        let ps = generators::line(4, 3.0); // points at 0,1,2,3
        let net = OwnedNetwork::forward_path(4);
        let eval = ResponseEvaluator::new(&ps, &net, 0);
        assert!((eval.lb_dist::<SumDistances>() - 6.0).abs() < 1e-12);
        assert!((eval.lb_dist::<MaxDistance>() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_model_merged_entry_dispatches() {
        use crate::MaxDistance;
        use crate::SolverConfig;
        let ps = generators::uniform_unit_square(6, 13);
        let net = OwnedNetwork::center_star(6, 0);
        let opts = SolverConfig::default().with_model(ModelKind::MaxDistance);
        let merged = exact_best_response(&ps, &net, 1.2, 3, &opts).expect_exact("br");
        assert_eq!(
            merged,
            exact_best_response_raw::<_, MaxDistance>(&ps, &net, 1.2, 3)
        );
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(5.0, 0.0), f64::INFINITY);
        assert_eq!(ratio(4.0, 2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_agents_rejected_by_raw() {
        let ps = generators::uniform_unit_square(30, 1);
        let net = OwnedNetwork::complete(30);
        exact_best_response_raw::<_, SumDistances>(&ps, &net, 1.0, 0);
    }

    #[test]
    fn merged_entry_matches_raw_and_degrades_on_oversized() {
        use crate::outcome::{DegradeReason, Outcome};
        use crate::SolverConfig;
        let ps = generators::uniform_unit_square(6, 9);
        let net = OwnedNetwork::center_star(6, 0);
        let merged =
            exact_best_response(&ps, &net, 1.2, 3, &SolverConfig::default()).expect_exact("br");
        assert_eq!(
            merged,
            exact_best_response_raw::<_, SumDistances>(&ps, &net, 1.2, 3)
        );

        let big = generators::uniform_unit_square(30, 1);
        let big_net = OwnedNetwork::complete(30);
        match exact_best_response(&big, &big_net, 1.0, 0, &SolverConfig::default()) {
            Outcome::Degraded {
                certified_bound,
                reason: DegradeReason::InstanceTooLarge { n: 30, .. },
            } => assert!(certified_bound.is_finite()),
            other => panic!("expected TooLarge degradation, got {other:?}"),
        }
    }
}
