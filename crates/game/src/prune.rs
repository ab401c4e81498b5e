//! Geometric move pruning: sound lower bounds that discard candidate
//! strategies *before* any cost evaluation, bit-identically.
//!
//! Every dynamics step, β-certification, and sweep row bottoms out in a
//! best-response search, and in the Euclidean setting most candidate
//! moves are provably non-improving: buying an edge can never pay off
//! once `α·‖u,v‖` exceeds the largest distance saving the metric still
//! allows (the paper's Lemma 3.2/Cor 3.3 regime reasoning), and no
//! strategy beats the triangle-inequality floor `Σ_v lb(u,v)`. This
//! module packages those bounds as a [`MoveFilter`] consulted by the
//! move generator ([`crate::moves`]) and the exact mask enumeration
//! ([`crate::best_response`]).
//!
//! # Soundness model (why pruning is bit-identical, not just "close")
//!
//! The engines only ever prune a candidate when the *unpruned* search
//! would provably not have selected it. Three bound families are used,
//! each sound for a different reason (see DESIGN.md §2e for the full
//! derivation):
//!
//! 1. **Buy-cost mask prune** (exact enumeration): a candidate's
//!    evaluated cost is `fl(fl(α·buy) + dist_sum)` with `dist_sum ≥ 0`,
//!    and round-to-nearest is monotone, so `cost ≥ fl(α·buy)` holds
//!    *bit-exactly* (no real-arithmetic slack). A mask with
//!    `fl(α·buy) > ub₀` — strictly above a deterministically
//!    pre-computed upper bound that the enumeration also evaluates — can
//!    therefore never win, not even on a tie.
//! 2. **Cutoff early exit** ([`crate::best_response::ResponseEvaluator::
//!    cost_with_cutoff`]): the distance sum accumulates non-negative
//!    terms, so every partial sum is ≤ the final sum bit-exactly; once a
//!    partial exceeds the cutoff the final value is known to exceed it
//!    too and `+∞` is returned. Candidates at or below the cutoff are
//!    never cut, so ties survive.
//! 3. **Margin prune** (single-move generator): the move generator
//!    accepts a candidate only if `definitely_less(c, current)`, i.e.
//!    `c < current − EPS·max(|c|,|current|,1)` with `EPS = 1e-9`. A
//!    candidate whose *metric* lower bound `α·buy + Σ_v lb(u,v)` already
//!    reaches `current − ½·EPS·max(|current|,1)` cannot pass that test:
//!    the bound under-estimates the evaluated `c` by at most the
//!    accumulated floating-point error of an O(n)-term non-negative sum
//!    (≲ n·2⁻⁵³ ≈ 1e-13 relative for every instance size this
//!    repository runs), three orders of magnitude below the ½·EPS
//!    margin left between the prune threshold and the acceptance
//!    threshold. Margin prunes only ever compare against the *current*
//!    cost — never against the best-so-far, where no margin exists.
//!
//! All three bound families hold for every [`crate::CostModel`], not
//! just the paper's sum objective — rule 1 needs only a non-negative
//! distance aggregate, rule 2 only that prefix folds never exceed the
//! final fold (true of non-negative running sums and running maxima
//! alike), and rule 3 only a per-model metric floor: callers hand
//! [`MoveFilter`] the floor matching their model
//! ([`crate::best_response::ResponseEvaluator::lb_dist`] —
//! `Σ_v lb(u,v)` for sum-of-distances, `max_v lb(u,v)` for
//! max-distance, both under-estimating the true aggregate
//! coordinate-wise). See DESIGN.md §2g for the per-model derivation.
//!
//! All prune decisions are pure functions of the candidate and of
//! fixed, deterministically-computed per-agent quantities — never of
//! scheduling state — so the `moves_pruned`/`moves_evaluated` trace
//! counters are bit-identical across thread counts and fault-injection
//! retries, and the perf gate compares them exactly.
//!
//! Pruning is not a setting: every solver runs the pruned engines. The
//! unpruned engines they must match bit for bit live in one place,
//! [`oracle`] — the plain mask enumeration, single-move generator and
//! local search. Only tests, the `repro_maxdist` consistency row and
//! the reference dynamics runner
//! ([`crate::dynamics::run_ordered_reference`]) call it; the harness
//! `crates/game/tests/prune_oracle.rs` drives production and oracle over
//! the same instances and asserts bit-identical results.

use gncg_geometry::EPS;

pub mod oracle;

/// Per-agent pruning state for single-move generation: the metric
/// distance floor plus the margin arithmetic of soundness rule 3.
///
/// Constructed once per agent (O(n), negligible next to the APSP the
/// evaluator already ran) and consulted in O(1) per candidate.
#[derive(Debug, Clone, Copy)]
pub struct MoveFilter {
    /// The model-appropriate metric floor on `u`'s distance cost —
    /// `Σ_{v≠u} lb(u, v)` for sum-of-distances, `max_{v≠u} lb(u, v)`
    /// for max-distance: no strategy of `u` has a smaller distance
    /// aggregate (triangle inequality / metric-closure contract of
    /// [`crate::EdgeWeights::metric_lower_bound`]).
    lb_dist: f64,
    /// `current_cost − ½·EPS·max(|current_cost|, 1)`: candidates whose
    /// metric lower bound reaches this can never pass
    /// `definitely_less(c, current_cost)`. `+∞` when the current cost is
    /// infinite — any finite candidate may improve, so only candidates
    /// whose lower bound is itself `+∞` (evaluated cost provably `+∞`,
    /// which `definitely_less` rejects against every baseline) prune.
    threshold: f64,
}

impl MoveFilter {
    /// Build the filter for an agent whose distance floor is `lb_dist`
    /// and whose current cost is `current_cost`.
    pub fn new(lb_dist: f64, current_cost: f64) -> Self {
        let threshold = if current_cost.is_finite() {
            current_cost - 0.5 * EPS * current_cost.abs().max(1.0)
        } else {
            f64::INFINITY
        };
        Self { lb_dist, threshold }
    }

    /// Can a candidate whose total buy weight is `buy_weight` be
    /// discarded without evaluation? True iff its metric lower bound
    /// `α·buy + Σ lb` already reaches the margin threshold — in which
    /// case the unpruned search would have rejected it too.
    #[inline]
    pub fn prunes(&self, alpha: f64, buy_weight: f64) -> bool {
        alpha * buy_weight + self.lb_dist >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_never_prunes_below_threshold() {
        // current 10, lb_dist 4: an add of weight 5 at alpha 1 bounds to
        // 9 < threshold — must not prune; weight 6 bounds to 10 — prune.
        let f = MoveFilter::new(4.0, 10.0);
        assert!(!f.prunes(1.0, 5.0));
        assert!(f.prunes(1.0, 6.0));
    }

    #[test]
    fn infinite_current_cost_disables_pruning() {
        let f = MoveFilter::new(4.0, f64::INFINITY);
        assert!(!f.prunes(1.0, 1e30));
    }

    #[test]
    fn margin_spares_near_ties() {
        // a candidate bounding to exactly current_cost prunes; one just
        // inside the EPS acceptance band must NOT prune (the unpruned
        // search would also reject it, but only after evaluation — the
        // filter stays conservative and lets it evaluate)
        let current = 100.0;
        let f = MoveFilter::new(0.0, current);
        assert!(f.prunes(1.0, current));
        let improving = current * (1.0 - 10.0 * EPS);
        assert!(!f.prunes(1.0, improving));
    }
}
