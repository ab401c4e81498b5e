//! Property tests for the max-distance cost algebra and the
//! edge-formation legality rule — the behavioural contracts behind the
//! `CostModel`/`EdgeFormation` abstraction that the bit-identity oracle
//! (`prune_oracle.rs`) does not cover:
//!
//! * **monotonicity under edge addition** — adding an edge never
//!   increases any shortest-path distance, so no agent's max-distance
//!   (nor sum-of-distances) cost component can grow;
//! * **cutoff abort soundness** — `cost_with_cutoff` may abort a
//!   candidate early only when the full evaluation provably exceeds the
//!   cutoff; at or below the cutoff it must return the exact bits;
//! * **bilateral-consent move legality** — drops and edge-preserving
//!   rewrites are always legal, and a deviation is rejected exactly when
//!   some newly-wired endpoint definitely loses.
//!
//! Case count scales with `PROPTEST_CASES` (default 48).

use gncg_game::best_response::{ResponseEvaluator, ResponseScratch};
use gncg_game::model::deviation_is_legal;
use gncg_game::{cost, EdgeFormation, MaxDistance, OwnedNetwork, SumDistances};
use gncg_geometry::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn random_connected(rng: &mut StdRng, n: usize) -> OwnedNetwork {
    let mut net = OwnedNetwork::empty(n);
    for a in 1..n {
        net.buy(a, rng.gen_range(0..a));
    }
    for _ in 0..rng.gen_range(0..n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !net.has_edge(a, b) {
            net.buy(a, b);
        }
    }
    net
}

#[test]
fn max_distance_cost_is_monotone_under_edge_addition() {
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xd15_7001 + case);
        let n = rng.gen_range(4..10);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_connected(&mut rng, n);
        // pick a structurally new edge to add
        let mut extra = net.clone();
        let mut added = false;
        'outer: for a in 0..n {
            for b in 0..n {
                if a != b && !extra.has_edge(a, b) {
                    extra.buy(a, b);
                    added = true;
                    break 'outer;
                }
            }
        }
        if !added {
            continue; // complete profile, nothing to add
        }
        for u in 0..n {
            let before = cost::distance_cost::<_, MaxDistance>(&ps, &net, u);
            let after = cost::distance_cost::<_, MaxDistance>(&ps, &extra, u);
            assert!(
                after <= before + 1e-12,
                "case {case} agent {u}: max-distance grew {before} -> {after} after an edge add"
            );
            let sum_before = cost::distance_cost::<_, SumDistances>(&ps, &net, u);
            let sum_after = cost::distance_cost::<_, SumDistances>(&ps, &extra, u);
            assert!(
                sum_after <= sum_before + 1e-9,
                "case {case} agent {u}: sum-distance grew after an edge add"
            );
        }
    }
}

#[test]
fn max_distance_dominates_every_coordinate_and_sum_dominates_max() {
    // the aggregates relate pointwise: max ≤ sum (non-negative vectors),
    // and each is ≥ any single coordinate's metric lower bound
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xd15_7002 + case);
        let n = rng.gen_range(3..9);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_connected(&mut rng, n);
        for u in 0..n {
            let maxd = cost::distance_cost::<_, MaxDistance>(&ps, &net, u);
            let sumd = cost::distance_cost::<_, SumDistances>(&ps, &net, u);
            assert!(maxd <= sumd + 1e-12, "case {case}: max {maxd} > sum {sumd}");
        }
    }
}

#[test]
fn cutoff_abort_is_sound_for_max_model() {
    // wherever the cutoff evaluation returns a finite value it must be
    // the exact bits; where it returns +inf the true cost must exceed
    // the cutoff (or be infinite itself)
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xd15_7003 + case);
        let n = rng.gen_range(4..10);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_connected(&mut rng, n);
        let u = rng.gen_range(0..n);
        let alpha = 0.2 + rng.gen::<f64>() * 3.0;
        let eval = ResponseEvaluator::new(&ps, &net, u);
        let mut scratch = ResponseScratch::default();
        for _ in 0..8 {
            let k = rng.gen_range(0..n);
            let strat: Vec<usize> = (0..n).filter(|&v| v != u).take(k.max(1)).collect();
            let full = eval.cost_with::<MaxDistance, _>(alpha, strat.iter().copied(), &mut scratch);
            let cutoff = match rng.gen_range(0..3) {
                0 => full * 0.5,
                1 => full, // at the cutoff: must NOT abort
                _ => full * 2.0,
            };
            let cut = eval.cost_with_cutoff::<MaxDistance, _>(
                alpha,
                strat.iter().copied(),
                cutoff,
                &mut scratch,
            );
            if cut.is_finite() {
                assert_eq!(
                    cut.to_bits(),
                    full.to_bits(),
                    "case {case}: finite cutoff result must be exact"
                );
            } else {
                assert!(
                    !full.is_finite() || full > cutoff,
                    "case {case}: aborted although {full} <= cutoff {cutoff}"
                );
            }
        }
    }
}

#[test]
fn drops_and_rewirings_are_always_bilaterally_legal() {
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xd15_7004 + case);
        let n = rng.gen_range(3..9);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_connected(&mut rng, n);
        let alpha = 0.2 + rng.gen::<f64>() * 3.0;
        for u in 0..n {
            // any subset of the current strategy is a pure drop — legal
            let current: Vec<usize> = net.strategy(u).iter().copied().collect();
            let keep: BTreeSet<usize> = current
                .iter()
                .copied()
                .filter(|_| rng.gen::<bool>())
                .collect();
            assert!(
                deviation_is_legal::<_, MaxDistance>(
                    &ps,
                    &net,
                    alpha,
                    u,
                    &keep,
                    EdgeFormation::Bilateral
                ),
                "case {case}: a pure drop was rejected"
            );
            // buying an edge that structurally exists (other side owns
            // it) creates nothing new — legal
            for v in 0..n {
                if v != u && net.has_edge(u, v) && !net.strategy(u).contains(&v) {
                    let mut s: BTreeSet<usize> = net.strategy(u).clone();
                    s.insert(v);
                    assert!(
                        deviation_is_legal::<_, SumDistances>(
                            &ps,
                            &net,
                            alpha,
                            u,
                            &s,
                            EdgeFormation::Bilateral
                        ),
                        "case {case}: duplicating an existing edge was rejected"
                    );
                }
            }
        }
    }
}

#[test]
fn bilateral_rejection_matches_endpoint_harm_exactly() {
    // legality must equal "no newly-wired endpoint definitely loses",
    // computed independently here from full pre/post profiles
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xd15_7005 + case);
        let n = rng.gen_range(3..8);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_connected(&mut rng, n);
        let alpha = 0.2 + rng.gen::<f64>() * 3.0;
        let u = rng.gen_range(0..n);
        let strat: BTreeSet<usize> = (0..n)
            .filter(|&v| v != u && rng.gen::<f64>() < 0.4)
            .collect();
        let legal = deviation_is_legal::<_, MaxDistance>(
            &ps,
            &net,
            alpha,
            u,
            &strat,
            EdgeFormation::Bilateral,
        );
        let mut post = net.clone();
        post.set_strategy(u, strat.clone());
        let oracle = strat
            .iter()
            .copied()
            .filter(|&v| !net.has_edge(u, v))
            .all(|v| {
                let pre = cost::agent_cost::<_, MaxDistance>(&ps, &net, alpha, v);
                let after = cost::agent_cost::<_, MaxDistance>(&ps, &post, alpha, v);
                !gncg_geometry::definitely_less(pre, after)
            });
        assert_eq!(legal, oracle, "case {case}: legality diverges from oracle");
        // unilateral formation never rejects
        assert!(deviation_is_legal::<_, MaxDistance>(
            &ps,
            &net,
            alpha,
            u,
            &strat,
            EdgeFormation::Unilateral
        ));
    }
}
