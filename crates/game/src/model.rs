//! The cost-model abstraction: per-agent objectives and edge-formation
//! rules as pluggable parameters of every engine in this crate.
//!
//! The paper's GNCG charges agent `u`
//!
//! ```text
//! cost(u) = α·‖u, S_u‖ + Σ_v d_G(u, v)          (SumDistances)
//! ```
//!
//! The max-distance NCG of Bilò–Gualà–Leucci–Proietti (arXiv 1407.0643)
//! replaces the distance sum by the eccentricity:
//!
//! ```text
//! cost(u) = α·‖u, S_u‖ + max_v d_G(u, v)        (MaxDistance)
//! ```
//!
//! Both are `α·buy + aggregate(distance vector)` for an aggregation that
//! is a **left fold over non-negative terms whose every prefix is a
//! lower bound on the final value** — the one algebraic property the
//! pruning machinery of §2e (DESIGN.md) relies on. [`CostModel`]
//! captures exactly that seam; the solvers are generic over it and the
//! default [`SumDistances`] instantiation monomorphizes to the exact
//! pre-refactor float-operation sequence (enforced bit-for-bit by the
//! oracle harness and the perf gate).
//!
//! [`EdgeFormation`] is the orthogonal axis: who must agree before an
//! edge exists. The paper's game is [`EdgeFormation::Unilateral`]; the
//! bilateral-consent variant (Gawendowicz–Lenzner–Weyand, arXiv
//! 2510.00239) additionally requires every *newly connected* endpoint to
//! weakly improve ([`deviation_is_legal`]). The exact enumeration
//! solvers stay unilateral-only; bilateral consent is honoured by the
//! dynamics (`dynamics::run_spec`) through a dedicated naive branch so
//! the default engines' control flow — and hence the deterministic
//! trace counters — are untouched.

use crate::{cost, EdgeWeights, OwnedNetwork};
use std::collections::BTreeSet;

pub use gncg_config::ModelKind;

/// A per-agent cost model: `cost(u) = fl(α·buy(u)) + aggregate(d(u,·))`
/// where `aggregate` is the left fold of [`CostModel::fold`] starting
/// from [`CostModel::EMPTY`].
///
/// # Contract (pruning soundness)
///
/// Implementations must guarantee, bit-exactly in f64 arithmetic over
/// non-negative inputs:
///
/// 1. `aggregate(d) >= 0`, so an evaluated cost is `>= fl(α·buy)` and
///    the exact-enumeration mask prune stays sound;
/// 2. every *prefix* fold is `<=` the final fold (prefix monotonicity),
///    so `ResponseEvaluator::cost_with_cutoff` may abort early the
///    moment `fl(α·buy) + prefix` strictly exceeds the cutoff;
/// 3. `aggregate` is monotone in each coordinate, so the metric lower
///    bound `fl(α·buy) + aggregate(lb(u,·))` under-estimates the
///    evaluated cost and `MoveFilter`'s margin prune stays sound.
///
/// Non-negative sums satisfy all three (round-to-nearest is monotone);
/// so does `max` (no rounding at all).
pub trait CostModel: Copy + Default + Send + Sync + 'static {
    /// The runtime tag this model dispatches from.
    const KIND: ModelKind;

    /// The fold's identity element.
    const EMPTY: f64 = 0.0;

    /// One fold step: combine the running aggregate with the next
    /// distance term.
    fn fold(acc: f64, d: f64) -> f64;

    /// Aggregate a distance slice (the left fold of [`Self::fold`]).
    #[inline]
    fn aggregate(dists: &[f64]) -> f64 {
        dists.iter().fold(Self::EMPTY, |acc, &d| Self::fold(acc, d))
    }
}

/// The paper's objective: `α·buy + Σ_v d(u, v)`. The default model;
/// every engine monomorphized at `SumDistances` executes the exact
/// pre-refactor float-operation sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumDistances;

impl CostModel for SumDistances {
    const KIND: ModelKind = ModelKind::SumDistances;

    #[inline(always)]
    fn fold(acc: f64, d: f64) -> f64 {
        acc + d
    }
}

/// The max-distance (eccentricity) objective of arXiv 1407.0643:
/// `α·buy + max_v d(u, v)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxDistance;

impl CostModel for MaxDistance {
    const KIND: ModelKind = ModelKind::MaxDistance;

    #[inline(always)]
    fn fold(acc: f64, d: f64) -> f64 {
        // not f64::max: NaN never occurs (distances are >= 0 or +inf)
        // and this form keeps the fold branch-predictable
        if d > acc {
            d
        } else {
            acc
        }
    }
}

/// Dispatch a runtime [`ModelKind`] to a monomorphized body: inside
/// `$body`, `$M` names the matching [`CostModel`] type.
///
/// ```ignore
/// dispatch_model!(opts.model, M, certify_model::<W, M>(w, net, alpha, opts))
/// ```
#[macro_export]
macro_rules! dispatch_model {
    ($kind:expr, $M:ident, $body:expr) => {
        match $kind {
            $crate::ModelKind::SumDistances => {
                type $M = $crate::SumDistances;
                $body
            }
            $crate::ModelKind::MaxDistance => {
                type $M = $crate::MaxDistance;
                $body
            }
        }
    };
}

/// Who must agree before an edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeFormation {
    /// The paper's rule: the buyer alone decides (and pays).
    #[default]
    Unilateral,
    /// Bilateral consent (arXiv 2510.00239): a deviation that creates a
    /// structurally new edge `{u, v}` needs `v`'s agreement, and `v`
    /// agrees iff her cost does not definitely increase under the full
    /// post-deviation profile. Dropping an edge never needs consent.
    Bilateral,
}

/// The full game variant: objective × edge-formation rule. `Default` is
/// the paper's game (sum of distances, unilateral).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GameSpec {
    /// The per-agent objective.
    pub model: ModelKind,
    /// The edge-formation rule.
    pub formation: EdgeFormation,
}

impl GameSpec {
    /// A unilateral game under `model`.
    pub fn with_model(model: ModelKind) -> Self {
        Self {
            model,
            ..Self::default()
        }
    }

    /// A bilateral-consent game under `model`.
    pub fn bilateral(model: ModelKind) -> Self {
        Self {
            model,
            formation: EdgeFormation::Bilateral,
        }
    }
}

/// Is the deviation of `u` to `new_strategy` legal under `formation`?
///
/// Unilateral: always. Bilateral: every `v ∈ new_strategy` whose edge
/// `{u, v}` does not already exist in `net` must consent — `v` consents
/// iff her cost under the full post-deviation profile is not
/// *definitely* above her current cost (`definitely_less` with the
/// global `EPS`, the same comparator that gates improving moves).
/// Deviations that only drop or re-buy existing edges are always legal;
/// in particular, a pure edge addition is always legal under both
/// models, because the new neighbour's distances weakly decrease while
/// she pays nothing.
pub fn deviation_is_legal<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
    new_strategy: &BTreeSet<usize>,
    formation: EdgeFormation,
) -> bool {
    if formation == EdgeFormation::Unilateral {
        return true;
    }
    let new_edges: Vec<usize> = new_strategy
        .iter()
        .copied()
        .filter(|&v| !net.has_edge(u, v))
        .collect();
    if new_edges.is_empty() {
        return true;
    }
    let mut post = net.clone();
    post.set_strategy(u, new_strategy.clone());
    for v in new_edges {
        let pre = cost::agent_cost::<W, M>(w, net, alpha, v);
        let after = cost::agent_cost::<W, M>(w, &post, alpha, v);
        if gncg_geometry::definitely_less(pre, after) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn sum_fold_is_plain_addition() {
        let d = [1.5, 0.25, 3.0];
        assert_eq!(
            SumDistances::aggregate(&d).to_bits(),
            d.iter().sum::<f64>().to_bits()
        );
        assert_eq!(SumDistances::aggregate(&[]), 0.0);
    }

    #[test]
    fn max_fold_is_running_maximum() {
        assert_eq!(MaxDistance::aggregate(&[1.5, 0.25, 3.0, 2.0]), 3.0);
        assert_eq!(MaxDistance::aggregate(&[]), 0.0);
        assert_eq!(MaxDistance::aggregate(&[0.0, f64::INFINITY]), f64::INFINITY);
    }

    #[test]
    fn max_prefixes_are_lower_bounds() {
        let d = [0.7, 2.0, 0.1, 5.0, 4.9];
        let full = MaxDistance::aggregate(&d);
        let mut acc = MaxDistance::EMPTY;
        for &x in &d {
            acc = MaxDistance::fold(acc, x);
            assert!(acc <= full);
        }
        assert_eq!(acc, full);
    }

    #[test]
    fn dispatch_matches_kind() {
        fn kind_of<M: CostModel>() -> ModelKind {
            M::KIND
        }
        for k in [ModelKind::SumDistances, ModelKind::MaxDistance] {
            assert_eq!(dispatch_model!(k, M, kind_of::<M>()), k);
        }
    }

    #[test]
    fn unilateral_is_always_legal() {
        let ps = generators::uniform_unit_square(5, 3);
        let net = OwnedNetwork::center_star(5, 0);
        let s: BTreeSet<usize> = [0, 2, 3].into_iter().collect();
        assert!(deviation_is_legal::<_, SumDistances>(
            &ps,
            &net,
            1.0,
            1,
            &s,
            EdgeFormation::Unilateral
        ));
    }

    #[test]
    fn bilateral_pure_add_is_legal() {
        // adding an edge only shortens the new neighbour's distances
        for seed in 0..8u64 {
            let ps = generators::uniform_unit_square(6, seed);
            let net = OwnedNetwork::center_star(6, 0);
            for v in 2..6usize {
                let mut s: BTreeSet<usize> = net.strategy(1).clone();
                s.insert(v);
                assert!(
                    deviation_is_legal::<_, MaxDistance>(
                        &ps,
                        &net,
                        1.0,
                        1,
                        &s,
                        EdgeFormation::Bilateral
                    ),
                    "seed {seed}: pure add 1->{v} refused"
                );
                assert!(deviation_is_legal::<_, SumDistances>(
                    &ps,
                    &net,
                    1.0,
                    1,
                    &s,
                    EdgeFormation::Bilateral
                ));
            }
        }
    }

    #[test]
    fn bilateral_drop_is_legal() {
        let ps = generators::uniform_unit_square(5, 1);
        let net = OwnedNetwork::center_star(5, 0);
        let s: BTreeSet<usize> = [1, 2].into_iter().collect(); // drops 3, 4
        assert!(deviation_is_legal::<_, SumDistances>(
            &ps,
            &net,
            1.0,
            0,
            &s,
            EdgeFormation::Bilateral
        ));
    }

    #[test]
    fn bilateral_swap_can_be_refused() {
        // a swap that rewires u away from the rest of the path can
        // definitely worsen the newly connected endpoint (it may even
        // disconnect her). Probe every whole-strategy swap to a single
        // new edge on small random path profiles: legality must agree
        // with the direct pre/post cost comparison, and at least one
        // probe must be refused.
        let mut refused = 0;
        for seed in 0..10u64 {
            let ps = generators::uniform_unit_square(6, seed);
            let start = OwnedNetwork::forward_path(6);
            for u in 0..6 {
                for v in 0..6 {
                    if v == u || start.has_edge(u, v) {
                        continue;
                    }
                    let s: BTreeSet<usize> = [v].into_iter().collect();
                    for kind in [ModelKind::SumDistances, ModelKind::MaxDistance] {
                        let legal = dispatch_model!(
                            kind,
                            M,
                            deviation_is_legal::<_, M>(
                                &ps,
                                &start,
                                1.0,
                                u,
                                &s,
                                EdgeFormation::Bilateral
                            )
                        );
                        let mut post = start.clone();
                        post.set_strategy(u, s.clone());
                        let (pre, after) = dispatch_model!(
                            kind,
                            M,
                            (
                                cost::agent_cost::<_, M>(&ps, &start, 1.0, v),
                                cost::agent_cost::<_, M>(&ps, &post, 1.0, v)
                            )
                        );
                        assert_eq!(
                            legal,
                            !gncg_geometry::definitely_less(pre, after),
                            "seed {seed}: u={u} v={v} {kind}"
                        );
                        if !legal {
                            refused += 1;
                        }
                    }
                }
            }
        }
        assert!(refused > 0, "no refusal found in the search space");
    }

    #[test]
    fn game_spec_defaults_to_paper_game() {
        let spec = GameSpec::default();
        assert_eq!(spec.model, ModelKind::SumDistances);
        assert_eq!(spec.formation, EdgeFormation::Unilateral);
        assert_eq!(
            GameSpec::with_model(ModelKind::MaxDistance).formation,
            EdgeFormation::Unilateral
        );
        assert_eq!(
            GameSpec::bilateral(ModelKind::MaxDistance).formation,
            EdgeFormation::Bilateral
        );
    }
}
