//! Greedy (swap) equilibria — the restricted move sets from the
//! literature the paper builds on (Lenzner, *Greedy selfish network
//! creation*; Mihalák & Schlegel, *asymmetric swap equilibrium*).
//!
//! Because exact best responses are NP-hard, a natural relaxation is to
//! demand stability only against *single* edge moves:
//!
//! * **greedy stable** — no agent improves by adding, dropping, or
//!   swapping one owned edge,
//! * **swap stable** — no agent improves by swapping one owned edge
//!   (edge counts stay fixed; the concept behind asymmetric swap
//!   equilibria).
//!
//! Every Nash equilibrium is greedy stable, and every greedy-stable
//! profile is swap stable. The certifier's `beta_witness` is exactly the
//! greedy-instability factor computed here.

use crate::best_response::ResponseEvaluator;
use crate::{cost, moves, EdgeWeights, OwnedNetwork, SumDistances};
use std::collections::BTreeSet;

/// Is the profile stable against single add/drop/swap moves?
pub fn is_greedy_stable<W: EdgeWeights + ?Sized>(w: &W, net: &OwnedNetwork, alpha: f64) -> bool {
    (0..net.len()).all(|u| {
        let eval = ResponseEvaluator::new(w, net, u);
        moves::best_single_move::<SumDistances>(&eval, net, alpha).is_none()
    })
}

/// Is the profile stable against single swap moves only?
pub fn is_swap_stable<W: EdgeWeights + ?Sized>(w: &W, net: &OwnedNetwork, alpha: f64) -> bool {
    (0..net.len()).all(|u| best_swap(w, net, alpha, u).is_none())
}

/// Best improving *swap* (replace one owned edge by another) for agent
/// `u`, or `None`.
pub fn best_swap<W: EdgeWeights + ?Sized>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
) -> Option<moves::Move> {
    let n = net.len();
    let current = net.strategy(u).clone();
    let now = cost::agent_cost::<W, SumDistances>(w, net, alpha, u);
    let mut best: Option<moves::Move> = None;
    for &out in &current {
        for inn in 0..n {
            if inn == u || inn == out || current.contains(&inn) {
                continue;
            }
            let mut s: BTreeSet<usize> = current.clone();
            s.remove(&out);
            s.insert(inn);
            let c = moves::cost_with_strategy::<W, SumDistances>(w, net, alpha, u, &s);
            let improves = gncg_geometry::definitely_less(c, now);
            let beats = best.as_ref().map(|m| c < m.cost).unwrap_or(true);
            if improves && beats {
                best = Some(moves::Move {
                    strategy: s,
                    cost: c,
                });
            }
        }
    }
    best
}

/// The greedy-instability factor: the largest cost improvement any agent
/// reaches with a *single* move (1.0 when greedy stable). A certified
/// lower bound on the profile's true β.
pub fn greedy_instability<W: EdgeWeights + ?Sized>(w: &W, net: &OwnedNetwork, alpha: f64) -> f64 {
    let factors = gncg_parallel::parallel_map(net.len(), |u| {
        let now = cost::agent_cost::<W, SumDistances>(w, net, alpha, u);
        let eval = ResponseEvaluator::new(w, net, u);
        match moves::best_single_move::<SumDistances>(&eval, net, alpha) {
            Some(m) => crate::best_response::ratio(now, m.cost),
            None => 1.0,
        }
    });
    factors.into_iter().fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dynamics, exact};
    use gncg_geometry::generators;

    #[test]
    fn nash_implies_greedy_implies_swap() {
        // find a NE by dynamics, then check the implication chain
        for seed in 0..4u64 {
            let ps = generators::uniform_unit_square(5, seed);
            let start = OwnedNetwork::empty(5);
            if let dynamics::Outcome::Converged { state, .. } = dynamics::run_spec(
                &ps,
                &start,
                1.0,
                dynamics::ResponseRule::BestResponse,
                dynamics::AgentOrder::RoundRobin,
                300,
                &crate::SolverConfig::default(),
            ) {
                assert!(exact::is_nash::<_, SumDistances>(&ps, &state, 1.0));
                assert!(is_greedy_stable(&ps, &state, 1.0), "seed {seed}");
                assert!(is_swap_stable(&ps, &state, 1.0), "seed {seed}");
                assert!((greedy_instability(&ps, &state, 1.0) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn unstable_profile_has_instability_above_one() {
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::center_star(3, 0);
        // middle agent profits from an add at tiny alpha
        assert!(!is_greedy_stable(&ps, &net, 0.01));
        assert!(greedy_instability(&ps, &net, 0.01) > 1.0);
    }

    #[test]
    fn greedy_stable_implies_swap_stable() {
        // swap moves are a subset of greedy moves, so greedy stability
        // implies swap stability on every profile
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for seed in 0..6u64 {
            let ps = generators::uniform_unit_square(6, 200 + seed);
            let mut net = OwnedNetwork::empty(6);
            for a in 1..6 {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.2 + rng.gen::<f64>() * 2.0;
            if is_greedy_stable(&ps, &net, alpha) {
                assert!(is_swap_stable(&ps, &net, alpha), "seed {seed}");
            }
        }
    }

    #[test]
    fn collinear_path_is_greedy_stable_at_small_alpha() {
        // on a line the forward path realizes every distance exactly, so
        // adds never help; drops disconnect; swaps only lengthen paths
        let ps = generators::line(4, 3.0);
        let net = OwnedNetwork::forward_path(4);
        assert!(is_greedy_stable(&ps, &net, 0.01));
        assert!(is_swap_stable(&ps, &net, 0.01));
    }

    #[test]
    fn greedy_instability_lower_bounds_exact_beta() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for seed in 0..4u64 {
            let ps = generators::uniform_unit_square(6, 70 + seed);
            let mut net = OwnedNetwork::empty(6);
            for a in 1..6 {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.5 + rng.gen::<f64>();
            let g = greedy_instability(&ps, &net, alpha);
            let b = exact::exact_beta_raw::<_, SumDistances>(&ps, &net, alpha);
            assert!(g <= b + 1e-9, "seed {seed}: greedy {g} > beta {b}");
        }
    }
}
