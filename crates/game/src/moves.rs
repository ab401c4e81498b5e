//! Improving-move local search: polynomial-time response heuristics.
//!
//! Exact best responses are exponential; the local-search responses here
//! explore the *add / drop / swap* neighbourhood (the move set used by
//! the improving-response dynamics literature) and serve two roles:
//!
//! * as a *witness*: any improving strategy found is a certified lower
//!   bound on an agent's true improvement factor — proof a network is
//!   NOT β-stable for smaller β,
//! * as the response oracle of [`crate::dynamics`] on instances too
//!   large for exact best responses.
//!
//! Candidates are scored by the pruned, batched generator
//! (`best_single_step_batched`); the plain per-candidate generator it
//! must match bit for bit is [`crate::prune::oracle`]. Only the winning
//! move is turned into a `BTreeSet` at the end.

use crate::best_response::ResponseEvaluator;
use crate::prune::MoveFilter;
use crate::{cost, CostModel, EdgeWeights, OwnedNetwork};
use gncg_parallel::arena;
use std::collections::BTreeSet;

/// A candidate strategy change for one agent with its resulting cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Move {
    /// The new strategy.
    pub strategy: BTreeSet<usize>,
    /// The agent's cost after the change.
    pub cost: f64,
}

/// Evaluate agent `u`'s cost under model `M` if she switched to
/// `strategy` (a from-scratch rebuild of the deviated profile).
pub fn cost_with_strategy<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
    strategy: &BTreeSet<usize>,
) -> f64 {
    let mut trial = net.clone();
    trial.set_strategy(u, strategy.clone());
    cost::agent_cost::<W, M>(w, &trial, alpha, u)
}

/// A single add/drop/swap relative to the current strategy, tracked
/// symbolically so candidate enumeration never materializes a set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    Drop(usize),
    Add(usize),
    Swap(usize, usize),
}

/// Best single add / drop / swap move under model `M` for the
/// evaluator's agent, or `None` if none of them strictly improves
/// (beyond floating-point noise).
///
/// Candidate costs are evaluated through the caller-built
/// [`ResponseEvaluator`] — one APSP of `G − u` up front
/// ([`ResponseEvaluator::new`], or [`ResponseEvaluator::from_built_graph`]
/// when the created network is already in hand, or
/// [`ResponseEvaluator::with_shared_rest`] for leaf agents), then O(n)
/// per surviving candidate (see `best_single_step_batched`).
pub fn best_single_move<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
) -> Option<Move> {
    single_move_by::<M>(eval, net, alpha, best_single_step_batched::<M>)
}

/// The loop shared by [`best_single_move`] and its oracle twin: one `step`
/// search around the agent's current strategy, turned into a [`Move`].
/// `step(eval, n, current, current_cost, alpha)` returns the best
/// improving [`Step`] around the sorted strategy `current` with its
/// cost.
pub(crate) fn single_move_by<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
    step: impl Fn(&ResponseEvaluator<'_>, usize, &[usize], f64, f64) -> Option<(Step, f64)>,
) -> Option<Move> {
    let mut current = arena::rent::<Vec<usize>>();
    current.extend(net.strategy(eval.agent).iter().copied());
    let current_cost = eval.cost::<M, _>(alpha, current.iter().copied());
    step(eval, net.len(), &current, current_cost, alpha).map(|(step, c)| Move {
        strategy: materialize(&current, step),
        cost: c,
    })
}

/// Accept `c` as the new best iff it improves on the current cost beyond
/// floating-point noise AND strictly beats the best candidate so far —
/// the exact acceptance test of the unpruned generator, shared with
/// [`crate::prune::oracle`] so the two engines' selections can only
/// differ if their `c` bits do.
pub(crate) fn consider(best: &mut Option<(Step, f64)>, step: Step, c: f64, current_cost: f64) {
    let beats_current = gncg_geometry::definitely_less(c, current_cost);
    let beats_best = match best {
        Some((_, bc)) => c < *bc,
        None => true,
    };
    if beats_current && beats_best {
        *best = Some((step, c));
    }
}

/// Per-target structure-of-arrays state of the batched engine: the two
/// smallest `ew[x] + D[x][v]` over the neighbour slots (`fixed_incident
/// ++ current`, the neighbour order of `cost_with`) and the slot
/// achieving the minimum. All three live in arena-rented buffers.
struct SlotMinima {
    min1: arena::Lease<Vec<f64>>,
    min2: arena::Lease<Vec<f64>>,
    arg: arena::Lease<Vec<u32>>,
}

/// Build the slot minima with a branch-free select chain over each
/// contiguous rest-distance row, so the compiler can vectorize the
/// pass. Per target `v` the slots are still visited in the same
/// ascending `s` order as the legacy branchy loop, and each select is
/// the exact f64 compare the branches took, so `min1`/`min2`/`arg`
/// carry identical bits.
fn slot_minima(eval: &ResponseEvaluator<'_>, current: &[usize], n: usize) -> SlotMinima {
    let mut min1 = arena::rent_vec(n, f64::INFINITY);
    let mut min2 = arena::rent_vec(n, f64::INFINITY);
    let mut arg = arena::rent_vec(n, u32::MAX);
    for (s, &x) in eval.fixed_incident.iter().chain(current.iter()).enumerate() {
        let ew = eval.edge_weight(x);
        let row = eval.rest_row(x);
        let s = s as u32;
        for (((m1, m2), a), &d) in min1
            .iter_mut()
            .zip(min2.iter_mut())
            .zip(arg.iter_mut())
            .zip(&row[..n])
        {
            let via = ew + d;
            let lt1 = via < *m1;
            let lt2 = via < *m2;
            *m2 = if lt1 {
                *m1
            } else if lt2 {
                via
            } else {
                *m2
            };
            *a = if lt1 { s } else { *a };
            *m1 = if lt1 { via } else { *m1 };
        }
    }
    SlotMinima { min1, min2, arg }
}

/// Buy cost of `current` with `skip` removed and `insert` added,
/// folded in the sorted candidate order — the exact fl value
/// `cost_with` accumulates for that candidate. Pass `usize::MAX` for a
/// role that does not apply; `insert` lands before the first surviving
/// strategy entry greater than it, i.e. at its sorted position. Folding
/// directly from `current` skips the candidate-buffer materialization
/// the oracle generator pays per candidate.
#[inline]
fn buy_fold(eval: &ResponseEvaluator<'_>, current: &[usize], skip: usize, insert: usize) -> f64 {
    let mut buy = 0.0;
    let mut inserted = insert == usize::MAX;
    for &x in current {
        if x == skip {
            continue;
        }
        if !inserted && insert < x {
            buy += eval.edge_weight(insert);
            inserted = true;
        }
        buy += eval.edge_weight(x);
    }
    if !inserted {
        buy += eval.edge_weight(insert);
    }
    buy
}

/// Distance fold in ascending target order (the `cost_with` order —
/// `0..n` minus the agent) with the rule-2 early exit; `pick(v)` yields
/// the candidate's per-target minimum. Generic over `pick` so each
/// candidate family monomorphizes to a direct loop — the old `&dyn Fn`
/// indirection cost a virtual call per target.
///
/// The cutoff/∞ test runs once per block of [`FOLD_CHECK_BLOCK`]
/// targets rather than per element. This returns the same bits as the
/// per-element test: both cost models fold non-negative terms
/// monotonically (sum of distances never decreases; max never
/// decreases), so some prefix aggregate exceeds the cutoff or hits ∞
/// iff the final aggregate does — the per-element exit only ever saved
/// work, never changed the answer. Checking per block keeps that saving
/// at block granularity while freeing the inner loop of a compare and
/// an add per target.
#[inline]
fn fold_cost<M: CostModel>(
    n: usize,
    u: usize,
    base: f64,
    cutoff: f64,
    pick: impl Fn(usize) -> f64,
) -> f64 {
    // Splitting at `u` visits exactly the targets `0..n` minus the
    // agent, in the same ascending order, without testing `v == u` on
    // every element.
    match fold_segment::<M>(0, u.min(n), M::EMPTY, base, cutoff, &pick) {
        Some(agg) => match fold_segment::<M>((u + 1).min(n), n, agg, base, cutoff, &pick) {
            Some(agg) => base + agg,
            None => f64::INFINITY,
        },
        None => f64::INFINITY,
    }
}

/// Fold `pick` over `from..to`, bailing with `None` once a block-end
/// check sees the cutoff exceeded or an infinite aggregate.
#[inline]
fn fold_segment<M: CostModel>(
    from: usize,
    to: usize,
    mut dist_agg: f64,
    base: f64,
    cutoff: f64,
    pick: impl Fn(usize) -> f64,
) -> Option<f64> {
    let mut v = from;
    while v < to {
        let end = (v + FOLD_CHECK_BLOCK).min(to);
        while v < end {
            dist_agg = M::fold(dist_agg, pick(v));
            v += 1;
        }
        if base + dist_agg > cutoff || dist_agg.is_infinite() {
            return None;
        }
    }
    Some(dist_agg)
}

/// Targets folded between consecutive cutoff checks in [`fold_cost`]:
/// large enough that the check cost vanishes, small enough that an
/// early-exceeding candidate still bails after a handful of extra fold
/// steps (each a single compare-plus-add).
const FOLD_CHECK_BLOCK: usize = 16;

/// The pruned, batched move generator. Produces exactly the result of
/// the unpruned generator in [`crate::prune::oracle`], bit for bit, but
/// replaces the O(deg·n) per-candidate evaluation with an O(n) one and
/// skips provably-non-improving candidates entirely:
///
/// * **Batching.** All candidates share the neighbour slots
///   `fixed_incident ++ current` — a drop removes one slot, an add
///   appends one, a swap does both. One O(slots·n) pre-pass records, per
///   target `v`, the two smallest `ew[x] + D[x][v]` over the slots and
///   the arg-min slot; each candidate's per-target minimum is then an
///   O(1) combination (exclude a slot → `min2` when the arg-min is
///   excluded, include one → `min(min1, via)`). f64 `min` over a fixed
///   multiset is order-independent and the excluded slot's duplicate (a
///   neighbour both bought and fixed-incident contributes two slots with
///   identical values) stays in `min2`, so every per-target value — and
///   hence the ascending-order distance sum — carries the exact bits of
///   [`ResponseEvaluator::cost_with`] on that candidate.
/// * **Margin pruning** ([`MoveFilter`], soundness rule 3 in
///   [`crate::prune`]): candidates whose metric lower bound already
///   reaches the `definitely_less` margin are counted as `moves_pruned`
///   and never evaluated.
/// * **Branch-and-bound cutoff** (soundness rule 2): surviving
///   candidates abort to `+∞` once their partial sum exceeds
///   `min(current_cost, best-so-far)` — both rejections the acceptance
///   test would have issued anyway. Prune *counters* depend only on the
///   filter, never on the best-so-far, so they are deterministic.
fn best_single_step_batched<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    n: usize,
    current: &[usize],
    current_cost: f64,
    alpha: f64,
) -> Option<(Step, f64)> {
    // The margin filter takes the floor appropriate to `M` — the metric
    // sum for the paper's objective, the metric max for max-distance
    // (rule 3 holds per model; see `crate::prune`).
    let filter = MoveFilter::new(eval.lb_dist::<M>(), current_cost);
    let u = eval.agent;
    let nfixed = eval.fixed_incident.len();
    let minima = slot_minima(eval, current, n);
    // Fixed-length slice views so the `pick` closures index without
    // bounds checks (every target is `< n` by construction).
    let (min1, min2, arg) = (&minima.min1[..n], &minima.min2[..n], &minima.arg[..n]);

    let mut best: Option<(Step, f64)> = None;
    macro_rules! evaluate {
        ($step:expr, $buy:expr, $pick:expr) => {{
            let step = $step;
            let buy = $buy;
            if filter.prunes(alpha, buy) {
                gncg_trace::incr(gncg_trace::Counter::MovesPruned);
            } else {
                gncg_trace::incr(gncg_trace::Counter::MovesEvaluated);
                let cutoff = match &best {
                    Some((_, bc)) if *bc < current_cost => *bc,
                    _ => current_cost,
                };
                let c = fold_cost::<M>(n, u, alpha * buy, cutoff, $pick);
                consider(&mut best, step, c, current_cost);
            }
        }};
    }

    // drops: always over the current strategy, O(deg)
    for (j, &v) in current.iter().enumerate() {
        let excl = (nfixed + j) as u32;
        evaluate!(
            Step::Drop(v),
            buy_fold(eval, current, v, usize::MAX),
            |t: usize| if arg[t] == excl { min2[t] } else { min1[t] }
        );
    }
    // adds
    for inn in 0..n {
        if inn != u && current.binary_search(&inn).is_err() {
            let ew = eval.edge_weight(inn);
            let row = &eval.rest_row(inn)[..n];
            evaluate!(
                Step::Add(inn),
                buy_fold(eval, current, usize::MAX, inn),
                |t: usize| {
                    let via = ew + row[t];
                    if via < min1[t] {
                        via
                    } else {
                        min1[t]
                    }
                }
            );
        }
    }
    // swaps: targets per dropped slot. The slot-excluded minima row is
    // materialized once per dropped slot — a pure per-element select,
    // so `exs[t]` carries the exact bits the inline
    // `arg[t] == excl ? min2[t] : min1[t]` produced — and amortizes
    // over the ~n swap-in folds that read it.
    let mut ex = arena::rent_vec(n, 0.0f64);
    for (j, &out) in current.iter().enumerate() {
        let excl = (nfixed + j) as u32;
        for (e, (&a, (&m1, &m2))) in ex.iter_mut().zip(arg.iter().zip(min1.iter().zip(min2))) {
            *e = if a == excl { m2 } else { m1 };
        }
        let exs = &ex[..n];
        for inn in 0..n {
            if inn != u && inn != out && current.binary_search(&inn).is_err() {
                let ew = eval.edge_weight(inn);
                let row = &eval.rest_row(inn)[..n];
                evaluate!(
                    Step::Swap(out, inn),
                    buy_fold(eval, current, out, inn),
                    |t: usize| {
                        let via = ew + row[t];
                        if via < exs[t] {
                            via
                        } else {
                            exs[t]
                        }
                    }
                );
            }
        }
    }
    best
}

/// Write `current` with `step` applied into `out`, keeping it sorted (the
/// same order a `BTreeSet` would iterate, so edge costs accumulate in the
/// same sequence as the from-scratch evaluation).
pub(crate) fn write_candidate(current: &[usize], step: Step, out: &mut Vec<usize>) {
    out.clear();
    match step {
        Step::Drop(v) => out.extend(current.iter().copied().filter(|&x| x != v)),
        Step::Add(v) => {
            out.extend(current.iter().copied().filter(|&x| x < v));
            out.push(v);
            out.extend(current.iter().copied().filter(|&x| x > v));
        }
        Step::Swap(rm, v) => {
            out.extend(current.iter().copied().filter(|&x| x < v && x != rm));
            out.push(v);
            out.extend(current.iter().copied().filter(|&x| x > v && x != rm));
        }
    }
}

fn materialize(current: &[usize], step: Step) -> BTreeSet<usize> {
    let mut buf = Vec::with_capacity(current.len() + 1);
    write_candidate(current, step, &mut buf);
    buf.into_iter().collect()
}

/// Iterated local search under model `M`: apply [`best_single_move`]
/// until no single move improves, up to `max_rounds` rounds. Returns the
/// final strategy and its cost — an upper bound on the agent's
/// best-response cost.
///
/// Other agents' strategies never change during the search, so the one
/// caller-built [`ResponseEvaluator`] (APSP of `G − u`) serves every
/// round.
pub fn local_search_response<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
    max_rounds: usize,
) -> Move {
    local_search_by::<M>(eval, net, alpha, max_rounds, best_single_step_batched::<M>)
}

/// The loop shared by [`local_search_response`] and its oracle twin:
/// apply `step` moves (as in [`single_move_by`]) until none improves or
/// `max_rounds` have run.
pub(crate) fn local_search_by<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
    max_rounds: usize,
    step: impl Fn(&ResponseEvaluator<'_>, usize, &[usize], f64, f64) -> Option<(Step, f64)>,
) -> Move {
    let mut current = arena::rent::<Vec<usize>>();
    current.extend(net.strategy(eval.agent).iter().copied());
    let mut current_cost = eval.cost::<M, _>(alpha, current.iter().copied());
    let mut next = arena::rent::<Vec<usize>>();
    for _ in 0..max_rounds {
        match step(eval, net.len(), &current, current_cost, alpha) {
            Some((step, c)) => {
                write_candidate(&current, step, &mut next);
                std::mem::swap(&mut current, &mut next);
                current_cost = c;
            }
            None => break,
        }
    }
    Move {
        strategy: current.iter().copied().collect(),
        cost: current_cost,
    }
}

/// Witness improvement factor of the evaluator's agent under model `M`
/// from a `2n`-round [`local_search_response`]: `now / cost(found)`,
/// where `now` must be the agent's current `M`-cost — a certified
/// *lower bound* on the true improvement factor (so a lower bound on
/// the β for which G is a β-NE).
pub fn witness_improvement_factor<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
    now: f64,
) -> f64 {
    let found = local_search_response::<M>(eval, net, alpha, 2 * net.len());
    crate::best_response::ratio(now, found.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best_response::exact_best_response_raw;
    use crate::SumDistances;
    use gncg_geometry::{generators, PointSet};

    /// Sum-model best single move off a fresh evaluator.
    fn fresh_move(ps: &PointSet, net: &OwnedNetwork, alpha: f64, u: usize) -> Option<Move> {
        let eval = ResponseEvaluator::new(ps, net, u);
        best_single_move::<SumDistances>(&eval, net, alpha)
    }

    #[test]
    fn finds_the_obvious_add() {
        // middle agent of a line star profits from buying the short edge
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::center_star(3, 0);
        let m = fresh_move(&ps, &net, 0.5, 1).expect("improving move exists");
        assert!(m.strategy.contains(&2));
        assert!((m.cost - 2.5).abs() < 1e-9);
    }

    #[test]
    fn no_move_for_satisfied_agent() {
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        assert!(fresh_move(&ps, &net, 1.0, 1).is_none());
    }

    #[test]
    fn drop_detected_when_edge_useless() {
        // alpha large: agent 0 owning a redundant second edge should drop
        let ps = generators::line(3, 2.0);
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1);
        net.buy(1, 2);
        net.buy(0, 2); // redundant at high alpha
        let m = fresh_move(&ps, &net, 100.0, 0).expect("drop should improve");
        assert!(!m.strategy.contains(&2));
        assert!(m.strategy.contains(&1));
    }

    #[test]
    fn candidate_buffer_matches_set_semantics() {
        let current = [1usize, 4, 7];
        let mut buf = Vec::new();
        write_candidate(&current, Step::Drop(4), &mut buf);
        assert_eq!(buf, vec![1, 7]);
        write_candidate(&current, Step::Add(5), &mut buf);
        assert_eq!(buf, vec![1, 4, 5, 7]);
        write_candidate(&current, Step::Add(0), &mut buf);
        assert_eq!(buf, vec![0, 1, 4, 7]);
        write_candidate(&current, Step::Swap(7, 2), &mut buf);
        assert_eq!(buf, vec![1, 2, 4]);
        write_candidate(&current, Step::Swap(1, 9), &mut buf);
        assert_eq!(buf, vec![4, 7, 9]);
        assert_eq!(
            materialize(&current, Step::Swap(4, 0))
                .into_iter()
                .collect::<Vec<_>>(),
            vec![0, 1, 7]
        );
    }

    #[test]
    fn built_graph_evaluator_matches_fresh() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for trial in 0..4 {
            let n = 8;
            let ps = generators::uniform_unit_square(n, 700 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            let g = net.graph(&ps);
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;
            for u in 0..n {
                let fresh = ResponseEvaluator::new(&ps, &net, u);
                let built = ResponseEvaluator::from_built_graph(&ps, &net, &g, u);
                assert_eq!(
                    best_single_move::<SumDistances>(&fresh, &net, alpha),
                    best_single_move::<SumDistances>(&built, &net, alpha),
                    "trial {trial} agent {u}"
                );
                assert_eq!(
                    local_search_response::<SumDistances>(&fresh, &net, alpha, 12),
                    local_search_response::<SumDistances>(&built, &net, alpha, 12),
                );
            }
        }
    }

    #[test]
    fn local_search_never_worse_than_exact() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..5 {
            let n = 7;
            let ps = generators::uniform_unit_square(n, 500 + trial);
            let mut net = OwnedNetwork::empty(n);
            // random connected-ish profile
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;
            for u in 0..n {
                let eval = ResponseEvaluator::new(&ps, &net, u);
                let ls = local_search_response::<SumDistances>(&eval, &net, alpha, 20);
                let ex = exact_best_response_raw::<_, SumDistances>(&ps, &net, alpha, u);
                assert!(
                    ls.cost >= ex.cost - 1e-9,
                    "local search beat exact?! {} < {}",
                    ls.cost,
                    ex.cost
                );
                let now = cost::agent_cost::<_, SumDistances>(&ps, &net, alpha, u);
                assert!(ls.cost <= now + 1e-9, "local search made things worse");
            }
        }
    }

    #[test]
    fn max_model_batched_matches_unpruned_engine() {
        use crate::MaxDistance;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        for trial in 0..5 {
            let n = 8;
            let ps = generators::uniform_unit_square(n, 1100 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;
            for u in 0..n {
                let eval = ResponseEvaluator::new(&ps, &net, u);
                let off = crate::prune::oracle::best_single_move::<MaxDistance>(&eval, &net, alpha);
                let on = best_single_move::<MaxDistance>(&eval, &net, alpha);
                match (&off, &on) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.strategy, b.strategy, "trial {trial} agent {u}");
                        assert_eq!(
                            a.cost.to_bits(),
                            b.cost.to_bits(),
                            "trial {trial} agent {u}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("trial {trial} agent {u}: engines disagree: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn witness_factor_at_least_one() {
        let ps = generators::uniform_unit_square(10, 77);
        let net = OwnedNetwork::complete(10);
        for u in 0..10 {
            let eval = ResponseEvaluator::new(&ps, &net, u);
            let now = cost::agent_cost::<_, SumDistances>(&ps, &net, 1.0, u);
            let f = witness_improvement_factor::<SumDistances>(&eval, &net, 1.0, now);
            assert!(f >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn witness_detects_instability_of_expensive_star() {
        // center of a star with huge alpha wants to drop edges — but
        // dropping disconnects her (she owns everything), so she is
        // stuck; the *leaf* agents are stable; check the centre's witness
        // is exactly 1 (no improving move) in this extreme case.
        let ps = generators::line(4, 3.0);
        let net = OwnedNetwork::center_star(4, 0);
        let eval = ResponseEvaluator::new(&ps, &net, 0);
        let now = cost::agent_cost::<_, SumDistances>(&ps, &net, 1000.0, 0);
        let f = witness_improvement_factor::<SumDistances>(&eval, &net, 1000.0, now);
        assert!(f >= 1.0 - 1e-9);
    }
}
