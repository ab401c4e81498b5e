//! The unpruned engines: the named oracle the pruned ones must match
//! bit for bit.
//!
//! Every production solver runs the pruned engines
//! ([`ResponseEvaluator::best_response`], [`crate::moves`]). The plain
//! versions kept here score every candidate with
//! [`ResponseEvaluator::cost_with`] — no bounds, no cutoffs, no batching
//! — and select with the same tie-breaks, so a pruned result that
//! differs from its oracle in one bit is a bug in a bound. Like
//! `gncg_graph::dijkstra` for the CSR kernel, nothing on a production
//! path calls this module: tests, the `repro_maxdist` consistency row and
//! the reference dynamics runner
//! ([`crate::dynamics::run_ordered_reference`]) do.

use crate::best_response::{
    mask_members, BestResponse, ResponseEvaluator, ResponseScratch, MAX_EXACT_AGENTS,
};
use crate::moves::{self, Move, Step};
use crate::{CostModel, OwnedNetwork};
use gncg_parallel::arena;

/// Exact best response of the evaluator's agent under model `M`: one
/// sequential cost evaluation per strategy mask, lowest mask among
/// ties — the unpruned enumeration behind
/// [`ResponseEvaluator::best_response`].
pub fn best_response<M: CostModel>(eval: &ResponseEvaluator<'_>, alpha: f64) -> BestResponse {
    let others = &eval.others;
    let m = others.len();
    assert!(
        m < MAX_EXACT_AGENTS,
        "exact best response limited to {MAX_EXACT_AGENTS} agents (got {})",
        m + 1
    );
    let mut scratch = arena::rent::<ResponseScratch>();
    let mut best = (u64::MAX, f64::INFINITY);
    for mask in 0..1u64 << m {
        let c = eval.cost_with::<M, _>(alpha, mask_members(others, mask), &mut scratch);
        if c < best.1 || (c == best.1 && mask < best.0) {
            best = (mask, c);
        }
    }
    BestResponse {
        cost: best.1,
        strategy: mask_members(others, best.0).collect(),
    }
}

/// Best single add / drop / swap move under model `M`, every candidate
/// evaluated — the unpruned twin of [`moves::best_single_move`].
pub fn best_single_move<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
) -> Option<Move> {
    moves::single_move_by::<M>(eval, net, alpha, single_step::<M>)
}

/// Iterated [`best_single_move`] for up to `max_rounds` rounds — the
/// unpruned twin of [`moves::local_search_response`].
pub fn local_search_response<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    net: &OwnedNetwork,
    alpha: f64,
    max_rounds: usize,
) -> Move {
    moves::local_search_by::<M>(eval, net, alpha, max_rounds, single_step::<M>)
}

/// Best improving add/drop/swap around the sorted strategy `current`:
/// drops, then adds, then swaps, each candidate written into one sorted
/// buffer and costed in full.
fn single_step<M: CostModel>(
    eval: &ResponseEvaluator<'_>,
    n: usize,
    current: &[usize],
    current_cost: f64,
    alpha: f64,
) -> Option<(Step, f64)> {
    let u = eval.agent;
    let mut scratch = arena::rent::<ResponseScratch>();
    let mut cand = arena::rent::<Vec<usize>>();
    let mut best: Option<(Step, f64)> = None;
    let mut score = |step: Step, best: &mut Option<(Step, f64)>| {
        moves::write_candidate(current, step, &mut cand);
        let c = eval.cost_with::<M, _>(alpha, cand.iter().copied(), &mut scratch);
        moves::consider(best, step, c, current_cost);
    };
    for &v in current {
        score(Step::Drop(v), &mut best);
    }
    for v in 0..n {
        if v != u && current.binary_search(&v).is_err() {
            score(Step::Add(v), &mut best);
        }
    }
    for &out in current {
        for inn in 0..n {
            if inn != u && inn != out && current.binary_search(&inn).is_err() {
                score(Step::Swap(out, inn), &mut best);
            }
        }
    }
    best
}
