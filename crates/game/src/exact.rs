//! Exact solvers: social optimum by edge-subset enumeration, exact Nash
//! verification, exact β.
//!
//! The social cost of a network does not depend on edge ownership (each
//! edge is paid once), so the social optimum is a minimum over the
//! `2^{n(n−1)/2}` subsets of potential edges — feasible to n = 7
//! (2,097,152 candidate graphs), parallelized over the mask space. This
//! is the ground truth the certified bounds are validated against in
//! tests, and the exact γ used on the paper's small witness instances.
//!
//! Exact β and Nash verification run on the pruned best-response engine
//! ([`crate::prune`]), bit-identical to the unpruned enumeration.

use crate::outcome::{self, DegradeReason, Outcome};
use crate::{best_response, certify, cost, CostModel, EdgeWeights, OwnedNetwork, SolverConfig};
use gncg_graph::Graph;
use gncg_parallel::Budget;

/// Practical cap for exact social-optimum enumeration: n = 7 means
/// 2^21 ≈ 2M candidate graphs; n = 8 would already be 2^28 ≈ 268M.
pub const MAX_EXACT_OPT_AGENTS: usize = 7;

/// Result of the exact social-optimum search.
#[derive(Debug, Clone)]
pub struct ExactOptimum {
    /// The optimal network (ownership-free).
    pub graph: Graph,
    /// Its social cost `α·w(E) + Σ_u d(u, P)`.
    pub social_cost: f64,
}

/// Exhaustively compute the social optimum network `OPT_P`.
///
/// Runs the `2^{n(n−1)/2}`-mask enumeration under `cfg.budget`
/// (`GNCG_BUDGET_MS` by default, unlimited when unset) and degrades to
/// the certified lower bound ([`certify::optimum_lower_bound`], always
/// ≤ the true optimum cost) when the instance exceeds
/// [`MAX_EXACT_OPT_AGENTS`], the budget runs out, or the solve panics.
/// Never panics and never blocks past the budget by more than a few
/// scheduling chunks.
pub fn exact_social_optimum<W: EdgeWeights + ?Sized>(
    w: &W,
    alpha: f64,
    cfg: &SolverConfig,
) -> Outcome<ExactOptimum> {
    crate::dispatch_model!(cfg.model, M, {
        exact_social_optimum_generic::<W, M>(w, alpha, &cfg.budget)
    })
}

/// Monomorphic body of [`exact_social_optimum`] for model `M`.
fn exact_social_optimum_generic<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    alpha: f64,
    budget: &Budget,
) -> Outcome<ExactOptimum> {
    let n = w.len();
    if n > MAX_EXACT_OPT_AGENTS {
        return Outcome::Degraded {
            certified_bound: certify::optimum_lower_bound::<W, M>(w, alpha),
            reason: DegradeReason::InstanceTooLarge {
                n,
                cap: MAX_EXACT_OPT_AGENTS,
            },
        };
    }
    match outcome::attempt(budget, || exact_social_optimum_raw::<W, M>(w, alpha)) {
        Ok(opt) => Outcome::Exact(opt),
        Err(reason) => Outcome::Degraded {
            certified_bound: certify::optimum_lower_bound::<W, M>(w, alpha),
            reason,
        },
    }
}

/// Unbudgeted enumeration body of [`exact_social_optimum`] under model
/// `M`; panics when `n > MAX_EXACT_OPT_AGENTS`. Internal callers run it
/// under [`outcome::attempt`] themselves to avoid recomputing
/// fallbacks.
pub(crate) fn exact_social_optimum_raw<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    alpha: f64,
) -> ExactOptimum {
    let n = w.len();
    assert!(
        n <= MAX_EXACT_OPT_AGENTS,
        "exact optimum limited to {MAX_EXACT_OPT_AGENTS} agents (got {n})"
    );
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            pairs.push((u, v));
        }
    }
    let m = pairs.len();
    let masks = 1u64 << m;

    let eval = |mask: u64| -> f64 {
        let mut g = Graph::new(n);
        for (bit, &(u, v)) in pairs.iter().enumerate() {
            if mask & (1u64 << bit) != 0 {
                g.add_edge(u, v, w.weight(u, v));
            }
        }
        cost::social_cost_of_graph::<M>(&g, alpha)
    };

    let (best_mask, best_cost) =
        gncg_parallel::min_by_cost(masks as usize, || (), |(), i| eval(i as u64))
            .map_or((u64::MAX, f64::INFINITY), |(i, c)| (i as u64, c));

    let mut graph = Graph::new(n);
    for (bit, &(u, v)) in pairs.iter().enumerate() {
        if best_mask & (1u64 << bit) != 0 {
            graph.add_edge(u, v, w.weight(u, v));
        }
    }
    ExactOptimum {
        graph,
        social_cost: best_cost,
    }
}

/// Exact β of a profile: the maximum over agents of
/// `cost(u, G)/cost(u, best response)`. Exponential per agent; the
/// enumeration runs under `cfg.budget` (`GNCG_BUDGET_MS` by default,
/// unlimited when unset) and degrades to the certified upper bound
/// ([`certify::beta_upper`], always ≥ the true β, so the profile *is* a
/// β-NE for the reported value) when the instance exceeds the
/// enumeration cap, the budget runs out, or the solve panics.
pub fn exact_beta<W: EdgeWeights + ?Sized>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: &SolverConfig,
) -> Outcome<f64> {
    crate::dispatch_model!(cfg.model, M, {
        exact_beta_generic::<W, M>(w, net, alpha, cfg)
    })
}

/// Monomorphic body of [`exact_beta`] for model `M`.
fn exact_beta_generic<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: &SolverConfig,
) -> Outcome<f64> {
    let n = net.len();
    if n > best_response::MAX_EXACT_AGENTS {
        return Outcome::Degraded {
            certified_bound: certify::beta_upper::<W, M>(w, net, alpha),
            reason: DegradeReason::InstanceTooLarge {
                n,
                cap: best_response::MAX_EXACT_AGENTS,
            },
        };
    }
    match outcome::attempt(&cfg.budget, || exact_beta_raw::<W, M>(w, net, alpha)) {
        Ok(beta) => Outcome::Exact(beta),
        Err(reason) => Outcome::Degraded {
            certified_bound: certify::beta_upper::<W, M>(w, net, alpha),
            reason,
        },
    }
}

/// Unbudgeted enumeration body of [`exact_beta`] under model `M`;
/// panics past the per-agent enumeration cap.
pub(crate) fn exact_beta_raw<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
) -> f64 {
    let factors = gncg_parallel::parallel_map(net.len(), |u| {
        best_response::exact_improvement_factor::<W, M>(w, net, alpha, u)
    });
    factors.into_iter().fold(1.0, f64::max)
}

/// Is the profile an exact (pure) Nash equilibrium under model `M`?
/// True iff no agent can improve beyond floating-point noise.
pub fn is_nash<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
) -> bool {
    (0..net.len()).all(|u| {
        let now = cost::agent_cost::<W, M>(w, net, alpha, u);
        let br = best_response::exact_best_response_raw::<W, M>(w, net, alpha, u);
        !gncg_geometry::definitely_less(br.cost, now)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SumDistances;
    use gncg_geometry::generators;

    fn optimum(ps: &impl EdgeWeights, alpha: f64) -> ExactOptimum {
        exact_social_optimum(ps, alpha, &SolverConfig::default()).expect_exact("optimum")
    }

    #[test]
    fn optimum_on_two_points_is_single_edge() {
        let ps = generators::line(2, 3.0);
        let opt = optimum(&ps, 1.0);
        assert_eq!(opt.graph.num_edges(), 1);
        // SC = alpha*3 + 2*3 = 9
        assert!((opt.social_cost - 9.0).abs() < 1e-9);
    }

    #[test]
    fn optimum_never_uses_dominated_edges() {
        // three collinear points: the long edge 0-2 is never optimal for
        // large alpha
        let ps = generators::line(3, 2.0);
        let opt = optimum(&ps, 10.0);
        assert!(opt.graph.has_edge(0, 1));
        assert!(opt.graph.has_edge(1, 2));
        assert!(!opt.graph.has_edge(0, 2));
    }

    #[test]
    fn optimum_is_complete_for_tiny_alpha() {
        let ps = generators::uniform_unit_square(5, 8);
        let opt = optimum(&ps, 1e-6);
        assert_eq!(opt.graph.num_edges(), 10);
    }

    #[test]
    fn optimum_beats_mst_and_complete() {
        let ps = generators::uniform_unit_square(6, 15);
        for alpha in [0.5, 2.0, 8.0] {
            let opt = optimum(&ps, alpha);
            let mst = gncg_graph::mst::euclidean_mst(&ps);
            let complete = Graph::complete(6, |i, j| ps.dist(i, j));
            assert!(
                opt.social_cost <= cost::social_cost_of_graph::<SumDistances>(&mst, alpha) + 1e-9,
                "alpha {alpha}"
            );
            assert!(
                opt.social_cost
                    <= cost::social_cost_of_graph::<SumDistances>(&complete, alpha) + 1e-9,
                "alpha {alpha}"
            );
        }
    }

    #[test]
    fn two_point_star_is_nash() {
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        assert!(is_nash::<_, SumDistances>(&ps, &net, 1.0));
        let beta = exact_beta(&ps, &net, 1.0, &SolverConfig::default()).expect_exact("beta");
        assert!((beta - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unstable_profile_detected() {
        // middle agent of the line star can improve at small alpha
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::center_star(3, 0);
        assert!(!is_nash::<_, SumDistances>(&ps, &net, 0.1));
        assert!(exact_beta_raw::<_, SumDistances>(&ps, &net, 0.1) > 1.0);
    }

    #[test]
    fn empty_profile_is_not_nash() {
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::empty(3);
        // everyone has infinite cost; buying an edge is an improvement
        assert!(!is_nash::<_, SumDistances>(&ps, &net, 1.0));
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_agents_for_raw_exact_opt() {
        let ps = generators::uniform_unit_square(12, 1);
        exact_social_optimum_raw::<_, SumDistances>(&ps, 1.0);
    }

    #[test]
    fn merged_entry_degrades_instead_of_panicking_on_oversized() {
        let ps = generators::uniform_unit_square(12, 1);
        match exact_social_optimum(&ps, 1.0, &SolverConfig::default()) {
            Outcome::Degraded {
                certified_bound,
                reason: DegradeReason::InstanceTooLarge { n: 12, .. },
            } => assert!(certified_bound.is_finite() && certified_bound > 0.0),
            other => panic!("expected TooLarge degradation, got {other:?}"),
        }
    }

    #[test]
    fn max_model_optimum_on_line_reaches_eccentricity_floor() {
        use crate::ModelKind;
        // On 4 collinear points at 0,1,2,3 no network can beat the
        // eccentricity floor max(u, 3−u) per agent — (3,2,2,3), total
        // 10 — and with tiny alpha the optimum must reach it.
        let ps = generators::line(4, 3.0);
        let opts = SolverConfig::default().with_model(ModelKind::MaxDistance);
        let opt = exact_social_optimum(&ps, 1e-6, &opts).expect_exact("max optimum");
        assert!((opt.social_cost - (1e-6 * opt.graph.total_weight() + 10.0)).abs() < 1e-9);
        let sum_opt =
            exact_social_optimum(&ps, 1e-6, &SolverConfig::default()).expect_exact("sum optimum");
        assert!(
            opt.social_cost
                <= cost::social_cost_of_graph::<crate::MaxDistance>(&sum_opt.graph, 1e-6) + 1e-12,
            "max-model optimum must be at least as good as the sum optimum's graph"
        );
    }

    #[test]
    fn max_model_nash_and_beta_are_consistent() {
        use crate::{MaxDistance, ModelKind};
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        assert!(is_nash::<_, MaxDistance>(&ps, &net, 1.0));
        let opts = SolverConfig::default().with_model(ModelKind::MaxDistance);
        let beta = exact_beta(&ps, &net, 1.0, &opts).expect_exact("beta");
        assert!((beta - 1.0).abs() < 1e-9);
        // the unstable sum-model witness is unstable under max too: the
        // middle agent of a wide line star still gains by a short edge
        let ps3 = generators::line(3, 2.0);
        let star = OwnedNetwork::center_star(3, 0);
        assert!(!is_nash::<_, MaxDistance>(&ps3, &star, 0.1));
        assert!(exact_beta_raw::<_, MaxDistance>(&ps3, &star, 0.1) > 1.0);
    }
}
