//! Spanner-backed approximate evaluation with **certified error bars**.
//!
//! The exact certifier ([`crate::certify`]) needs the full `n×n`
//! distance matrix and a per-agent graph clone — fine at `n ≤ 10³`,
//! hopeless at `n = 10⁴`. This module trades the exact certified
//! numbers for *brackets* that provably contain them, at
//! near-linear-in-`n²` cost and without ever materialising a distance
//! matrix.
//!
//! # Soundness model
//!
//! Nothing here is silently approximate. Every reported number is one
//! side of a proven inequality, and the report carries both sides:
//!
//! * `beta_lo ≤ beta_upper(exact certifier) ≤ beta_hi`
//! * `gamma_lo ≤ gamma_upper(exact certifier) ≤ gamma_hi`
//! * `social_lo ≤ SC(G) ≤ social_hi`
//!
//! The bracketed quantity is the **certified** β/γ figure the exact
//! backend would report ([`crate::certify::CertifyReport::beta_upper`]
//! / `gamma_upper`) — itself a sound upper bound on the true β/γ, which
//! is NP-hard. Since `beta_hi ≥ beta_upper ≥ β`, the `hi` ends of the
//! brackets are sound certificates in their own right; the `lo` ends
//! measure how loose the approximation is. The bracket property is
//! enforced by an oracle sweep against the exact backend at `n ≤ 128`
//! (the `bracket_oracle` test module next to this file).
//!
//! The inequalities come in two kinds:
//!
//! * **Bitwise** (no epsilon): the `lo` sides. Per-agent cost lower
//!   bounds evaluate distances on the *union graph* `H = G ∪ S` of the
//!   created network and a geometric spanner `S` (or, beyond
//!   [`UNION_ROWS_CAP`], on the metric lower bounds directly). `H`'s
//!   path set contains `G`'s, shared edges have identical weight bits,
//!   and Dijkstra computes a min over path folds
//!   ([`gncg_graph::delta`] module docs), so `row_H ≤ row_G` holds
//!   *bit-for-bit*; monotone IEEE addition pushes the inequality
//!   through the cost folds unchanged.
//! * **Guarded** (forward-error inflated): the `hi` sides. Distance
//!   upper bounds recombine `K` exact pivot rows through the triangle
//!   inequality `d(u,v) ≤ d(u,p) + d(p,v)`, which is exact in real
//!   arithmetic but re-associates the underlying path folds; a
//!   relative guard of [`relative_guard`] `= 64·(n+64)·ε` — more than
//!   an order of magnitude above the worst-case fold reassociation
//!   error of `O(n·ε)` — restores soundness.
//!
//! The spanner's stretch bounds the bracket *width*: on connected
//! inputs `‖u,v‖ ≤ d_H(u,v)` and `d_H(u,v) ≤ d_S(u,v) ≤ t·‖u,v‖`, so
//! per-distance lo/hi disagree by at most the stretch `t` (times the
//! pivot-approximation slack). A tighter spanner buys tighter bars.
//! No bracket side reads `t`, so the report states the construction's
//! theorem ([`SpannerKind::proven_stretch`]: the Θ/Yao/greedy/grid
//! bounds of the paper's analysis) instead of measuring it with `n`
//! more Dijkstras; the measured certificate
//! (`gncg_spanner::cert::certify`) stays with Algorithm 1, which plugs
//! the measured `(k, t)` into its bound.
//!
//! # Large-n dynamics ([`run_approx`])
//!
//! The companion driver runs improving-move dynamics at `n = 10⁴`
//! without an `EvalContext`. Approximation enters **only** in the
//! search neighbourhood: candidates are the [`GridIndex`]'s nearest
//! neighbours, but every probed move is costed *exactly*. Each agent's
//! turn computes one base row; each probe copies it and repairs the
//! copy for its single-edge delta — [`gncg_graph::delta::repair_removal`]
//! for a drop, [`gncg_graph::delta::repair_insertions`] (on the current
//! CSR, the new edge touching the row's source) for an add. Both are
//! bit-identical to a fresh Dijkstra on the mutated graph; their named
//! oracle is the full what-if Dijkstra
//! [`gncg_graph::delta::dijkstra_modified`]. The row's aggregate plus
//! the same ascending-order edge fold [`cost::edge_cost`] uses makes an
//! accepted move's cost equal `cost::agent_cost` on the mutated
//! network bit-for-bit, and acceptance uses the same
//! [`gncg_geometry::definitely_less`] margin as every other engine. An
//! accepted move patches the graph in place (one edge added or
//! removed) and refills the CSR from it. Skipped far-away candidates
//! are tallied in the deterministic `candidates_skipped` counter, so
//! the narrowing is visible, not silent.
//!
//! A drop probe only matters if it beats the turn's best cost so far,
//! so its repair runs under that cutoff. It is skipped outright when
//! the base row's cost `α·edges + base aggregate` already exceeds the
//! cutoff (a removal only lengthens distances), and stopped as soon as
//! the settled increases prove the repaired cost does:
//! [`gncg_graph::delta::sum_cutoff`] (the running sum of increases,
//! guarded by [`relative_guard`]) under [`crate::SumDistances`],
//! [`gncg_graph::delta::max_cutoff`] (the exact `max(base aggregate,
//! running max)`) under [`crate::MaxDistance`]. Both only stop a probe
//! whose exact cost is strictly above the cutoff, which the probe loop
//! would have rejected anyway; ties repair in full. So every final
//! network, result and `best_response_evals` / `candidates_*` count is
//! unchanged; each skipped or stopped repair counts in `moves_pruned`.

use crate::{
    best_response, certify, cost, CostModel, EdgeWeights, EvalBackend, ModelKind, OwnedNetwork,
};
use gncg_geometry::PointSet;
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::{components, delta};
use gncg_json::{object, ToJson, Value};
use gncg_spanner::{GridIndex, SpannerKind};
use gncg_trace::Counter;

/// Above this `n`, [`certify_approx`] switches the per-agent lower
/// bounds from union-graph Dijkstra rows (`n` sparse Dijkstras on
/// `H = G ∪ S`, tighter) to the metric floor (the `M`-fold of metric
/// lower bounds, coarser, no Dijkstras at all): at `n = 10⁴`
/// single-threaded, the rows would dominate the whole certification.
pub const UNION_ROWS_CAP: usize = 4096;

/// Spanner behind the lower bounds under [`EvalBackend::Exact`] (the
/// bracketed certifier always runs on a spanner).
const DEFAULT_SPANNER: SpannerKind = SpannerKind::Theta { cones: 12 };

/// Pivot rows behind the upper bounds under [`EvalBackend::Exact`].
const DEFAULT_PIVOTS: usize = 8;

/// The bracketed certification report (see module docs for what each
/// bracket provably contains).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxCertifyReport {
    /// Number of agents.
    pub n: usize,
    /// Edge price factor α.
    pub alpha: f64,
    /// Whether the created network is connected.
    pub connected: bool,
    /// The stretch the spanner's construction provably guarantees on
    /// this point set ([`SpannerKind::proven_stretch`]); `∞` (JSON
    /// `null`) when no theorem covers it. No bracket side reads it: it
    /// states how wide the bars can be (module docs).
    pub spanner_stretch: f64,
    /// Lower end of the β bracket (≥ 1).
    pub beta_lo: f64,
    /// Upper end of the β bracket — a sound β certificate by itself.
    pub beta_hi: f64,
    /// Lower end of the γ bracket.
    pub gamma_lo: f64,
    /// Upper end of the γ bracket — a sound γ certificate by itself.
    pub gamma_hi: f64,
    /// Bitwise lower bound on the social cost.
    pub social_lo: f64,
    /// Guarded upper bound on the social cost.
    pub social_hi: f64,
    /// Exact certified lower bound on the social optimum (identical to
    /// the exact backend's: [`certify::optimum_lower_bound`]).
    pub opt_lower_bound: f64,
    /// The cost model the brackets were certified under.
    pub model: ModelKind,
}

impl ToJson for ApproxCertifyReport {
    fn to_json(&self) -> Value {
        let mut entries = vec![
            ("n", self.n.to_json()),
            ("alpha", self.alpha.to_json()),
            ("connected", self.connected.to_json()),
            ("spanner_stretch", self.spanner_stretch.to_json()),
            ("beta_lo", self.beta_lo.to_json()),
            ("beta_hi", self.beta_hi.to_json()),
            ("gamma_lo", self.gamma_lo.to_json()),
            ("gamma_hi", self.gamma_hi.to_json()),
            ("social_lo", self.social_lo.to_json()),
            ("social_hi", self.social_hi.to_json()),
            ("opt_lower_bound", self.opt_lower_bound.to_json()),
        ];
        // model tag only when non-default, matching `CertifyReport`
        if self.model != ModelKind::SumDistances {
            entries.push(("model", self.model.as_str().to_json()));
        }
        object(entries)
    }
}

/// Relative inflation applied to every guarded (`hi`-side) quantity.
///
/// A Dijkstra row entry is a left fold of ≤ n edge weights, so its
/// forward error is below `n·ε/(1−n·ε)` relative; recombining two rows
/// through the triangle inequality and re-aggregating adds a handful
/// more rounding steps. `64·(n+64)·ε` exceeds the worst case by more
/// than an order of magnitude while staying ~10⁻¹¹ even at `n = 10⁵` —
/// the bars it widens are far tighter than the pivot slack itself.
pub fn relative_guard(n: usize) -> f64 {
    64.0 * (n as f64 + 64.0) * f64::EPSILON
}

/// Deterministic farthest-point sampling of `k` pivots under the point
/// metric: start at 0, repeatedly take the point farthest from the
/// chosen set (ties to the smallest index). Stops early when every
/// remaining point coincides with a pivot.
fn farthest_point_pivots(ps: &PointSet, k: usize) -> Vec<usize> {
    let n = ps.len();
    let k = k.min(n);
    let mut pivots = Vec::with_capacity(k);
    if k == 0 {
        return pivots;
    }
    let mut mind = vec![f64::INFINITY; n];
    let mut next = 0usize;
    for _ in 0..k {
        pivots.push(next);
        for (v, m) in mind.iter_mut().enumerate() {
            let d = if v == next { 0.0 } else { ps.dist(v, next) };
            if d < *m {
                *m = d;
            }
        }
        let mut best = 0.0;
        let mut arg = next;
        for (v, &d) in mind.iter().enumerate() {
            if d > best {
                best = d;
                arg = v;
            }
        }
        if best == 0.0 {
            break;
        }
        next = arg;
    }
    pivots
}

/// Produce the bracketed certification report for a profile over a
/// point set (see module docs for the exact soundness claims).
///
/// Reads the spanner construction and pivot count off `cfg.backend`
/// (a Θ-graph with 12 cones and 8 pivots when the backend is exact —
/// bracketed certification always runs on a spanner) and the cost
/// model off `cfg.model`. The lower bounds come from union-graph rows
/// up to [`UNION_ROWS_CAP`] agents and from the metric floor above it.
pub fn certify_approx(
    ps: &PointSet,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: &crate::SolverConfig,
) -> ApproxCertifyReport {
    let (spanner, pivots) = match cfg.backend {
        EvalBackend::Exact => (DEFAULT_SPANNER, DEFAULT_PIVOTS),
        EvalBackend::Spanner { kind, pivots } => (kind, pivots),
    };
    let union_rows = net.len() <= UNION_ROWS_CAP;
    crate::dispatch_model!(cfg.model, M, {
        certify_approx_generic::<M>(ps, net, alpha, spanner, pivots, union_rows)
    })
}

/// Body of [`certify_approx`] under model `M`. `union_rows` picks the
/// lower-bound side: Dijkstra rows on `H = G ∪ S` when set, the
/// metric floor otherwise (the oracle sweep drives both at every
/// size).
fn certify_approx_generic<M: CostModel>(
    ps: &PointSet,
    net: &OwnedNetwork,
    alpha: f64,
    spanner_kind: SpannerKind,
    pivots: usize,
    union_rows: bool,
) -> ApproxCertifyReport {
    let _span = gncg_trace::span("game.certify_approx");
    let n = net.len();
    assert_eq!(n, EdgeWeights::len(ps));
    let g = net.graph(ps);
    let connected = components::is_connected(&g);
    let csr = Csr::from_graph(&g);
    let guard = relative_guard(n);

    // Per-agent metric folds, in the exact certifier's loop order: the
    // β denominators must relate bitwise to `agent_beta_upper`'s.
    let lb_fold: Vec<f64> = (0..n)
        .map(|u| {
            (0..n)
                .filter(|&v| v != u)
                .map(|v| ps.metric_lower_bound(u, v))
                .fold(M::EMPTY, M::fold)
        })
        .collect();
    let edge_costs: Vec<f64> = (0..n).map(|u| cost::edge_cost(ps, net, alpha, u)).collect();
    let bought_sums: Vec<f64> = (0..n)
        .map(|u| net.strategy(u).iter().map(|&v| ps.weight(u, v)).sum())
        .collect();

    // lo: distance-cost lower bounds, bitwise ≤ the exact aggregates
    let dist_lo: Vec<f64> = if union_rows {
        let mut h = g.clone();
        for (a, b, w) in gncg_spanner::build(ps, spanner_kind).edges() {
            // shared pairs already carry identical weight bits (both
            // sides are `ps.dist`); `add_edge` would *update* them
            if !h.has_edge(a, b) {
                h.add_edge(a, b, w);
            }
        }
        let hcsr = Csr::from_graph(&h);
        let mut scratch = gncg_parallel::arena::rent::<DijkstraScratch>();
        let mut row = gncg_parallel::arena::rent_vec(n, 0.0f64);
        (0..n)
            .map(|u| {
                hcsr.dijkstra_into_slice(u, &mut row, &mut scratch);
                M::aggregate(&row)
            })
            .collect()
    } else {
        // adding the skipped self-term 0.0 is a bitwise identity, so
        // this is pointwise ≤ the self-including exact aggregate
        lb_fold.clone()
    };
    let agent_lo: Vec<f64> = (0..n).map(|u| edge_costs[u] + dist_lo[u]).collect();

    // hi: triangle-inequality recombination of K exact pivot rows
    let pivots = farthest_point_pivots(ps, pivots.max(1));
    let mut scratch = gncg_parallel::arena::rent::<DijkstraScratch>();
    let mut prow = gncg_parallel::arena::rent_vec(n, 0.0f64);
    let pivot_rows: Vec<Vec<f64>> = pivots
        .iter()
        .map(|&p| {
            csr.dijkstra_into_slice(p, &mut prow, &mut scratch);
            prow.clone()
        })
        .collect();
    let dist_hi: Vec<f64> = (0..n)
        .map(|u| {
            let mut acc = M::EMPTY;
            for v in 0..n {
                let d = if v == u {
                    0.0
                } else {
                    let mut best = f64::INFINITY;
                    for pr in &pivot_rows {
                        let est = pr[u] + pr[v];
                        if est < best {
                            best = est;
                        }
                    }
                    best
                };
                acc = M::fold(acc, d);
            }
            acc * (1.0 + guard)
        })
        .collect();
    let agent_hi: Vec<f64> = (0..n).map(|u| edge_costs[u] + dist_hi[u]).collect();

    // β bracket around the exact certifier's beta_upper. hi: larger
    // numerator over the denominator *before* its component-connect
    // additions (fl(x + nonneg) ≥ x). lo: smaller numerator over a
    // guarded majorant of the denominator — each foreign component of
    // G minus u's edges is entered via a distinct bought edge, so the
    // connect term is at most α·Σ(bought weights).
    let beta_hi = (0..n)
        .map(|u| best_response::ratio(agent_hi[u], lb_fold[u]))
        .fold(1.0f64, f64::max);
    let beta_lo = (0..n)
        .map(|u| {
            let den = (lb_fold[u] + alpha * bought_sums[u]) * (1.0 + guard);
            best_response::ratio(agent_lo[u], den)
        })
        .fold(1.0f64, f64::max);

    // γ bracket over the *exact* optimum lower bound (identical value
    // to the exact backend's — it is polynomial even at 10⁴), with the
    // social cost bracketed by the same-order sums of the pointwise
    // agent bounds.
    let opt_lb = certify::optimum_lower_bound::<PointSet, M>(ps, alpha);
    let social_lo: f64 = agent_lo.iter().sum();
    let social_hi: f64 = agent_hi.iter().sum();
    let gamma_lo = best_response::ratio(social_lo, opt_lb);
    let gamma_hi = best_response::ratio(social_hi, opt_lb);

    ApproxCertifyReport {
        n,
        alpha,
        connected,
        spanner_stretch: spanner_kind.proven_stretch(ps),
        beta_lo,
        beta_hi,
        gamma_lo,
        gamma_hi,
        social_lo,
        social_hi,
        opt_lower_bound: opt_lb,
        model: M::KIND,
    }
}

/// Options for the large-n dynamics driver [`run_approx`].
#[derive(Debug, Clone)]
pub struct ApproxDynamicsOptions {
    /// Cost model agents optimise.
    pub model: ModelKind,
    /// Maximum full sweeps over the agents.
    pub max_rounds: usize,
    /// Nearest-neighbour candidates probed per agent (the grid-search
    /// neighbourhood; the agent's own bought edges are always probed
    /// for drops on top of this).
    pub probe_budget: usize,
    /// Total agent-probe cap across all rounds (`0` = unlimited) — the
    /// wall-clock knob for perf stages at `n = 10⁴`.
    pub agent_probes: usize,
}

impl Default for ApproxDynamicsOptions {
    fn default() -> Self {
        Self {
            model: ModelKind::SumDistances,
            max_rounds: 8,
            probe_budget: 16,
            agent_probes: 0,
        }
    }
}

impl ApproxDynamicsOptions {
    /// Replace the cost model (builder style).
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Replace the round cap (builder style).
    pub fn with_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Replace the per-agent candidate budget (builder style).
    pub fn with_probe_budget(mut self, probe_budget: usize) -> Self {
        self.probe_budget = probe_budget;
        self
    }

    /// Replace the total agent-probe cap (builder style).
    pub fn with_agent_probes(mut self, agent_probes: usize) -> Self {
        self.agent_probes = agent_probes;
        self
    }
}

/// What [`run_approx`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxDynamicsResult {
    /// Sweeps started (≥ 1 unless `max_rounds == 0`).
    pub rounds: usize,
    /// Agents probed across all sweeps.
    pub agents_probed: u64,
    /// Improving moves accepted (each one an *exact* strict
    /// improvement for its mover).
    pub moves_accepted: u64,
    /// `true` when a full sweep accepted nothing — no agent has an
    /// improving move within the probed neighbourhood.
    pub converged: bool,
}

#[derive(Debug, Clone, Copy)]
enum ProbeMove {
    Add(usize),
    Drop(usize),
}

/// What a probe of agent `u` reads: the network at the start of `u`'s
/// turn, its CSR, `u`'s exact base row on it with its aggregate, and a
/// snapshot of `u`'s (ascending) strategy.
struct Turn<'a> {
    ps: &'a PointSet,
    net: &'a OwnedNetwork,
    csr: &'a Csr,
    alpha: f64,
    u: usize,
    row: &'a [f64],
    base: f64,
    bought: &'a [usize],
}

impl Turn<'_> {
    /// `u`'s exact cost after `mv`: a copy of the base row, repaired
    /// for the single-edge delta, plus the ascending edge fold. Equals
    /// `cost::agent_cost` on the mutated network bit for bit (see
    /// module docs) whenever that cost is at most `cutoff`; a drop
    /// whose cost provably exceeds `cutoff` may return `+∞` instead,
    /// counted in `moves_pruned`.
    fn cost<M: CostModel>(
        &self,
        mv: ProbeMove,
        cutoff: f64,
        what_if: &mut [f64],
        scratch: &mut delta::RemovalScratch,
    ) -> f64 {
        let (ps, u) = (self.ps, self.u);
        match mv {
            ProbeMove::Add(v) => {
                what_if.copy_from_slice(self.row);
                delta::repair_insertions(self.csr, what_if, &[(u, v, ps.dist(u, v))]);
                self.alpha * strategy_edge_sum(ps, u, self.bought, Some(v), None)
                    + M::aggregate(what_if)
            }
            ProbeMove::Drop(v) => {
                let e = self.alpha * strategy_edge_sum(ps, u, self.bought, None, Some(v));
                if self.net.owns(v, u) {
                    // v pays for the edge too: dropping the payment
                    // leaves the created network unchanged
                    return e + self.base;
                }
                // a removal only lengthens distances, so the base row's
                // cost is a bitwise lower bound (monotone folds)
                let finished = e + self.base <= cutoff && {
                    what_if.copy_from_slice(self.row);
                    let (csr, w) = (self.csr, ps.dist(u, v));
                    match M::KIND {
                        ModelKind::SumDistances => {
                            let guard = relative_guard(ps.len());
                            let budget = delta::sum_cutoff(e, self.base, cutoff, guard);
                            delta::repair_removal(csr, u, what_if, u, v, w, scratch, budget)
                        }
                        ModelKind::MaxDistance => {
                            let budget = delta::max_cutoff(e, self.base, cutoff);
                            delta::repair_removal(csr, u, what_if, u, v, w, scratch, budget)
                        }
                    }
                };
                if !finished {
                    gncg_trace::incr(Counter::MovesPruned);
                    return f64::INFINITY;
                }
                e + M::aggregate(what_if)
            }
        }
    }
}

/// Edge-weight sum of a hypothetical strategy of `u`, folded in the
/// ascending order `BTreeSet` iteration (and hence
/// [`cost::edge_cost`]) uses, so `α·sum` matches what the mutated
/// network would actually be charged, bit for bit. `bought` must be
/// ascending (it is a strategy snapshot).
fn strategy_edge_sum(
    ps: &PointSet,
    u: usize,
    bought: &[usize],
    add: Option<usize>,
    drop: Option<usize>,
) -> f64 {
    let mut sum = 0.0;
    let mut pending = add;
    for &v in bought {
        if Some(v) == drop {
            continue;
        }
        if let Some(a) = pending {
            if a < v {
                sum += ps.dist(u, a);
                pending = None;
            }
        }
        sum += ps.dist(u, v);
    }
    if let Some(a) = pending {
        sum += ps.dist(u, a);
    }
    sum
}

/// Improving-move dynamics for instances far beyond [`crate::eval::
/// EvalContext`]'s `n×n` matrix: round-robin sweeps where each agent
/// probes single-edge adds towards its [`GridIndex`] nearest
/// neighbours and drops of its own bought edges.
///
/// Every probe is costed **exactly** (see module docs); approximation
/// only narrows the candidate neighbourhood, tallied deterministically
/// in `candidates_generated`/`candidates_skipped`. Accepted moves use
/// the same `definitely_less` strict-improvement margin as the exact
/// engines, so the run can never cycle through float noise.
pub fn run_approx(
    ps: &PointSet,
    net: &mut OwnedNetwork,
    alpha: f64,
    index: &GridIndex,
    opts: ApproxDynamicsOptions,
) -> ApproxDynamicsResult {
    crate::dispatch_model!(opts.model, M, {
        run_approx_generic::<M>(ps, net, alpha, index, &opts)
    })
}

fn run_approx_generic<M: CostModel>(
    ps: &PointSet,
    net: &mut OwnedNetwork,
    alpha: f64,
    index: &GridIndex,
    opts: &ApproxDynamicsOptions,
) -> ApproxDynamicsResult {
    let _span = gncg_trace::span("game.run_approx");
    let n = net.len();
    assert_eq!(n, EdgeWeights::len(ps));
    let mut g = net.graph(ps);
    let mut csr = Csr::from_graph(&g);
    let mut scratch = gncg_parallel::arena::rent::<DijkstraScratch>();
    let mut removal = gncg_parallel::arena::rent::<delta::RemovalScratch>();
    let mut row = gncg_parallel::arena::rent_vec(n, 0.0f64);
    let mut what_if = gncg_parallel::arena::rent_vec(n, 0.0f64);
    let mut bought = gncg_parallel::arena::rent::<Vec<usize>>();
    let mut rounds = 0usize;
    let mut probed = 0u64;
    let mut accepted = 0u64;
    let mut converged = false;

    'run: for _ in 0..opts.max_rounds {
        rounds += 1;
        let mut any = false;
        for u in 0..n {
            if opts.agent_probes != 0 && probed >= opts.agent_probes as u64 {
                break 'run;
            }
            probed += 1;
            csr.dijkstra_into_slice(u, &mut row, &mut scratch);
            bought.clear();
            bought.extend(net.strategy(u).iter().copied());
            let base = M::aggregate(&row);
            let current = alpha * strategy_edge_sum(ps, u, &bought, None, None) + base;

            let k = opts.probe_budget.min(n.saturating_sub(1));
            let targets = index.nearest_k(ps, u, k);
            gncg_trace::add(Counter::CandidatesGenerated, targets.len() as u64);
            gncg_trace::add(
                Counter::CandidatesSkipped,
                (n.saturating_sub(1) - targets.len()) as u64,
            );

            let mut best_cost = current;
            let mut best_move: Option<ProbeMove> = None;
            let turn = Turn {
                ps,
                net,
                csr: &csr,
                alpha,
                u,
                row: &row,
                base,
                bought: &bought,
            };
            let adds = targets
                .iter()
                .filter(|&&v| v != u && !g.has_edge(u, v))
                .map(|&v| ProbeMove::Add(v));
            let drops = bought.iter().map(|&v| ProbeMove::Drop(v));
            for mv in adds.chain(drops) {
                let c = turn.cost::<M>(mv, best_cost, &mut what_if, &mut removal);
                gncg_trace::incr(Counter::BestResponseEvals);
                if gncg_geometry::definitely_less(c, current) && c < best_cost {
                    best_cost = c;
                    best_move = Some(mv);
                }
            }

            if let Some(mv) = best_move {
                // patch the graph in place: `Graph` keeps its adjacency
                // sorted, so this equals a fresh `net.graph(ps)`
                match mv {
                    ProbeMove::Add(v) => {
                        net.buy(u, v);
                        g.add_edge(u, v, ps.dist(u, v));
                    }
                    ProbeMove::Drop(v) => {
                        net.sell(u, v);
                        if !net.owns(v, u) {
                            g.remove_edge(u, v);
                        }
                    }
                }
                csr.refill_from_graph(&g);
                accepted += 1;
                any = true;
            }
        }
        if !any {
            converged = true;
            break;
        }
    }

    ApproxDynamicsResult {
        rounds,
        agents_probed: probed,
        moves_accepted: accepted,
        converged,
    }
}

#[cfg(test)]
mod bracket_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use crate::SumDistances;
    use gncg_geometry::generators;
    use gncg_spanner::cert;

    pub(super) fn random_net(n: usize, seed: u64) -> OwnedNetwork {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = OwnedNetwork::empty(n);
        for a in 1..n {
            net.buy(a, rng.gen_range(0..a));
        }
        for _ in 0..n / 3 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                net.buy(a, b);
            }
        }
        net
    }

    #[test]
    fn disconnected_network_reports_infinite_hi_finite_lo() {
        let ps = generators::uniform_unit_square(10, 4);
        let mut net = OwnedNetwork::empty(10);
        net.buy(0, 1); // two agents linked, the rest isolated
        let r = certify_approx(&ps, &net, 1.0, &crate::SolverConfig::default());
        assert!(!r.connected);
        assert!(r.beta_hi.is_infinite() && r.social_hi.is_infinite());
        assert!(r.social_lo.is_finite(), "union graph keeps lo finite");
        let exact = certify(&ps, &net, 1.0, &crate::SolverConfig::bounds_only());
        assert!(r.beta_lo <= exact.beta_upper);
    }

    #[test]
    fn json_tags_model_only_when_non_default() {
        let ps = generators::uniform_unit_square(8, 7);
        let net = OwnedNetwork::center_star(8, 0);
        let sum = certify_approx(&ps, &net, 1.0, &crate::SolverConfig::default());
        let sum_json = gncg_json::to_string(&sum.to_json());
        assert!(!sum_json.contains("\"model\""), "{sum_json}");
        let max = certify_approx(
            &ps,
            &net,
            1.0,
            &crate::SolverConfig::default().with_model(ModelKind::MaxDistance),
        );
        let max_json = gncg_json::to_string(&max.to_json());
        assert!(max_json.contains("\"model\":\"maxdist\""), "{max_json}");
    }

    #[test]
    fn run_approx_densifies_under_cheap_edges() {
        // tiny α: buying direct edges is almost free, so dynamics from
        // a sparse spanner profile must add edges and strictly improve
        // every mover's exact cost
        let ps = generators::uniform_unit_square(40, 11);
        let spanner = gncg_spanner::build(&ps, SpannerKind::Greedy { t: 2.0 });
        let mut net = OwnedNetwork::from_distributed(40, &cert::distribute(&spanner));
        let index = GridIndex::with_auto_cell(&ps);
        let before = cost::all_costs::<_, SumDistances>(&ps, &net, 0.01);
        let r = run_approx(
            &ps,
            &mut net,
            0.01,
            &index,
            ApproxDynamicsOptions::default().with_rounds(2),
        );
        assert!(r.moves_accepted > 0, "{r:?}");
        assert_eq!(r.agents_probed, 80);
        let after = cost::all_costs::<_, SumDistances>(&ps, &net, 0.01);
        let (sb, sa): (f64, f64) = (before.iter().sum(), after.iter().sum());
        assert!(sa.is_finite() && sb.is_finite());
    }

    #[test]
    fn run_approx_prunes_under_expensive_edges() {
        // huge α: the complete profile is wildly unstable; dynamics
        // must drop edges
        let ps = generators::uniform_unit_square(24, 5);
        let mut net = OwnedNetwork::complete(24);
        let index = GridIndex::with_auto_cell(&ps);
        let edges_before = net.graph(&ps).num_edges();
        let r = run_approx(
            &ps,
            &mut net,
            50.0,
            &index,
            ApproxDynamicsOptions::default().with_rounds(3),
        );
        assert!(r.moves_accepted > 0, "{r:?}");
        assert!(net.graph(&ps).num_edges() < edges_before);
        assert!(gncg_graph::components::is_connected(&net.graph(&ps)));
    }

    #[test]
    fn run_approx_convergence_is_a_fixpoint_of_the_probe_set() {
        let ps = generators::uniform_unit_square(16, 9);
        let spanner = gncg_spanner::build(&ps, SpannerKind::Theta { cones: 12 });
        let mut net = OwnedNetwork::from_distributed(16, &cert::distribute(&spanner));
        let index = GridIndex::with_auto_cell(&ps);
        let opts = || ApproxDynamicsOptions::default().with_rounds(64);
        let r = run_approx(&ps, &mut net, 1.3, &index, opts());
        assert!(r.converged, "{r:?}");
        // re-running from the fixpoint must accept nothing
        let again = run_approx(&ps, &mut net, 1.3, &index, opts());
        assert_eq!(again.moves_accepted, 0);
        assert!(again.converged && again.rounds == 1);
    }

    /// The move `u` made between `before` and `after`, if any.
    fn move_between(before: &OwnedNetwork, after: &OwnedNetwork, u: usize) -> Option<ProbeMove> {
        let (s, t) = (before.strategy(u), after.strategy(u));
        if let Some(&v) = t.difference(s).next() {
            return Some(ProbeMove::Add(v));
        }
        s.difference(t).next().map(|&v| ProbeMove::Drop(v))
    }

    fn replay_accepted_costs<M: CostModel>(
        ps: &PointSet,
        start: &OwnedNetwork,
        alpha: f64,
    ) -> usize {
        // replay the run one agent turn at a time (the `agent_probes`
        // cap stops it after k turns): each accepted move's probe cost
        // must equal the exact evaluator's on the mutated network, bit
        // for bit
        let n = start.len();
        let index = GridIndex::with_auto_cell(ps);
        let run = |turns: usize| {
            let mut net = start.clone();
            let opts = ApproxDynamicsOptions::default()
                .with_model(M::KIND)
                .with_rounds(3)
                .with_probe_budget(n / 2)
                .with_agent_probes(turns);
            run_approx(ps, &mut net, alpha, &index, opts);
            net
        };
        let mut before = start.clone();
        let mut moves = 0;
        let mut scratch = DijkstraScratch::default();
        let mut removal = delta::RemovalScratch::default();
        for turns in 1..=3 * n {
            let after = run(turns);
            let u = (turns - 1) % n;
            if let Some(mv) = move_between(&before, &after, u) {
                moves += 1;
                let csr = Csr::from_graph(&before.graph(ps));
                let mut row = vec![0.0; n];
                csr.dijkstra_into_slice(u, &mut row, &mut scratch);
                let bought: Vec<usize> = before.strategy(u).iter().copied().collect();
                let turn = Turn {
                    ps,
                    net: &before,
                    csr: &csr,
                    alpha,
                    u,
                    row: &row,
                    base: M::aggregate(&row),
                    bought: &bought,
                };
                let mut what_if = vec![0.0; n];
                let exact = cost::agent_cost::<PointSet, M>(ps, &after, alpha, u);
                // a cutoff at the probe's own cost must not stop it
                let probed = turn.cost::<M>(mv, exact, &mut what_if, &mut removal);
                assert_eq!(
                    probed.to_bits(),
                    exact.to_bits(),
                    "turn {turns}: {mv:?} by {u}"
                );
                let was = cost::agent_cost::<PointSet, M>(ps, &before, alpha, u);
                assert!(gncg_geometry::definitely_less(exact, was), "turn {turns}");
            }
            before = after;
        }
        moves
    }

    #[test]
    fn accepted_probe_costs_match_the_exact_evaluator_bitwise() {
        let mut moves = 0;
        for seed in 0..3u64 {
            let ps = generators::uniform_unit_square(14, 21 + seed);
            let start = random_net(14, 77 + seed);
            for alpha in [0.2, 1.1, 6.0] {
                moves += replay_accepted_costs::<crate::SumDistances>(&ps, &start, alpha);
                moves += replay_accepted_costs::<crate::MaxDistance>(&ps, &start, alpha);
            }
            // a complete profile forces drops; a third of its edges are
            // paid for by both endpoints
            let mut complete = OwnedNetwork::complete(14);
            for u in 0..14 {
                for v in (0..u).filter(|v| (u + v) % 3 == 0) {
                    complete.buy(u, v);
                }
            }
            moves += replay_accepted_costs::<crate::SumDistances>(&ps, &complete, 3.0);
        }
        assert!(moves > 30, "replay saw only {moves} accepted moves");
    }
}
