//! Randomized property tests on cross-crate invariants.
//!
//! Each test draws a fixed number of cases from a seeded [`StdRng`], so
//! failures are exactly reproducible (the failing case index is in the
//! assertion message). This replaces the earlier proptest harness — that
//! crate cannot be built in the offline environment — while keeping the
//! same invariants under test.

use euclidean_network_design::game::best_response::{self, ResponseEvaluator};
use euclidean_network_design::game::{
    certify::optimum_lower_bound, cost, exact, moves, OwnedNetwork, SolverConfig, SumDistances,
};
use euclidean_network_design::graph::{apsp, mst, stretch};
use euclidean_network_design::spanner::{self, SpannerKind};
// Shared instance builders + the service-layer certify entry point live
// in gncg-bench's test-support module so every top-level suite draws
// from the same distributions (and the same job envelope).
use gncg_bench::testsupport::{certify_via_service, random_point_set, random_profile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
const CASES: usize = 24;

/// The greedy spanner respects its stretch target on arbitrary planar
/// inputs.
#[test]
fn greedy_spanner_stretch_invariant() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 20);
        let t = rng.gen_range(1.05..3.0);
        let g = spanner::build(&ps, SpannerKind::Greedy { t });
        let s = stretch::stretch(&g, &ps);
        assert!(s <= t * (1.0 + 1e-9), "case {case}: stretch {s} > t {t}");
    }
}

/// MST weight is minimal among a few random spanning trees.
#[test]
fn mst_not_beaten_by_random_tree() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 14);
        let n = ps.len();
        let w_mst = mst::euclidean_mst_weight(&ps);
        // random spanning tree: random parent for each node
        let mut w_rand = 0.0;
        for v in 1..n {
            let p = rng.gen_range(0..v);
            w_rand += ps.dist(v, p);
        }
        assert!(
            w_mst <= w_rand + 1e-9,
            "case {case}: MST {w_mst} > random tree {w_rand}"
        );
    }
}

/// Social cost decomposes: SC = alpha * bought length + total distance.
#[test]
fn social_cost_decomposition() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 10);
        let n = ps.len();
        let net = random_profile(&mut rng, n);
        let alpha = rng.gen_range(0.1..5.0);
        let sc = cost::social_cost::<_, SumDistances>(&ps, &net, alpha);
        let mut bought = 0.0;
        for u in 0..n {
            for &v in net.strategy(u) {
                bought += ps.dist(u, v);
            }
        }
        let g = net.graph(&ps);
        let dist = apsp::total_distance(&g);
        assert!(
            (sc - (alpha * bought + dist)).abs() < 1e-6 * sc.max(1.0),
            "case {case}: SC {sc} != {alpha}*{bought} + {dist}"
        );
    }
}

/// The exact best response never exceeds the local-search response, and
/// both never exceed the current cost.
#[test]
fn best_response_ordering() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 8);
        let n = ps.len();
        let net = random_profile(&mut rng, n);
        let alpha = rng.gen_range(0.1..4.0);
        for u in 0..n {
            let now = cost::agent_cost::<_, SumDistances>(&ps, &net, alpha, u);
            let eval = ResponseEvaluator::new(&ps, &net, u);
            let ls = moves::local_search_response::<SumDistances>(&eval, &net, alpha, 10);
            let ex =
                best_response::exact_best_response(&ps, &net, alpha, u, &SolverConfig::default())
                    .expect_exact("best response");
            assert!(
                ex.cost <= ls.cost + 1e-9,
                "case {case} agent {u}: exact {} > local search {}",
                ex.cost,
                ls.cost
            );
            assert!(
                ls.cost <= now + 1e-9,
                "case {case} agent {u}: local search {} > current {now}",
                ls.cost
            );
        }
    }
}

/// Certified beta upper bound dominates the exact beta.
#[test]
fn beta_bound_sound() {
    let mut rng = StdRng::seed_from_u64(0xEA7);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 7);
        let net = random_profile(&mut rng, ps.len());
        let alpha = rng.gen_range(0.2..4.0);
        let r = certify_via_service(&ps, &net, alpha, SolverConfig::bounds_only());
        let be = exact::exact_beta(&ps, &net, alpha, &SolverConfig::default()).expect_exact("beta");
        assert!(
            be <= r.beta_upper + 1e-9,
            "case {case}: exact beta {be} > upper bound {}",
            r.beta_upper
        );
    }
}

/// The social-optimum lower bound is sound against the true optimum.
#[test]
fn opt_lower_bound_sound() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 6);
        let alpha = rng.gen_range(0.2..4.0);
        let lb = optimum_lower_bound::<_, SumDistances>(&ps, alpha);
        let opt = exact::exact_social_optimum(&ps, alpha, &SolverConfig::default())
            .expect_exact("optimum")
            .social_cost;
        assert!(lb <= opt + 1e-9, "case {case}: lb {lb} > opt {opt}");
    }
}

/// Dijkstra distances satisfy the triangle inequality as a metric.
#[test]
fn shortest_paths_form_a_metric() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 12);
        let n = ps.len();
        let net = random_profile(&mut rng, n);
        let g = net.graph(&ps);
        let d = apsp::all_pairs(&g);
        for a in 0..n {
            assert_eq!(d[a][a], 0.0, "case {case}");
            for b in 0..n {
                assert!((d[a][b] - d[b][a]).abs() < 1e-9, "case {case}");
                for c in 0..n {
                    assert!(
                        d[a][c] <= d[a][b] + d[b][c] + 1e-9,
                        "case {case}: triangle violated at ({a},{b},{c})"
                    );
                }
            }
        }
    }
}

/// The incremental [`EvalContext`] stays bit-identical to a from-scratch
/// rebuild under arbitrary `apply_move` sequences: the delta-rebuilt
/// graph equals `net.graph(w)` exactly, and every agent cost matches the
/// full-recompute oracle to the last bit.
#[test]
fn eval_context_matches_from_scratch_rebuild() {
    use euclidean_network_design::game::EvalContext;
    use std::collections::BTreeSet;
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 12);
        let n = ps.len();
        let net = random_profile(&mut rng, n);
        let alpha = rng.gen_range(0.1..4.0);
        let mut ctx = EvalContext::new(&ps, &net, alpha);
        for step in 0..15 {
            let u = rng.gen_range(0..n);
            let s: BTreeSet<usize> = (0..n).filter(|&v| v != u && rng.gen_bool(0.3)).collect();
            ctx.apply_move(u, s);
            assert_eq!(
                ctx.graph(),
                &ctx.network().graph(&ps),
                "case {case} step {step}: delta-rebuilt graph diverged"
            );
            ctx.ensure_all_rows();
            for a in 0..n {
                let inc = ctx.agent_cost_cached::<SumDistances>(a);
                let oracle = cost::agent_cost::<_, SumDistances>(&ps, ctx.network(), alpha, a);
                assert_eq!(
                    inc.to_bits(),
                    oracle.to_bits(),
                    "case {case} step {step} agent {a}: {inc} vs {oracle}"
                );
            }
        }
        let social: f64 = (0..n)
            .map(|a| ctx.agent_cost_cached::<SumDistances>(a))
            .sum();
        let oracle = cost::social_cost::<_, SumDistances>(&ps, &ctx.network().clone(), alpha);
        assert_eq!(social.to_bits(), oracle.to_bits(), "case {case}");
    }
}

/// Flat-matrix APSP through the CSR kernel is bit-identical to the
/// legacy nested-rows Dijkstra path.
#[test]
fn dist_matrix_apsp_matches_legacy_rows() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for case in 0..CASES {
        let ps = random_point_set(&mut rng, 16);
        let net = random_profile(&mut rng, ps.len());
        let g = net.graph(&ps);
        let flat = apsp::all_pairs(&g);
        let rows = apsp::all_pairs_rows(&g);
        assert_eq!(flat.len(), rows.len(), "case {case}");
        for (u, row) in rows.iter().enumerate() {
            for (v, &d) in row.iter().enumerate() {
                assert_eq!(
                    flat[u][v].to_bits(),
                    d.to_bits(),
                    "case {case}: d({u},{v}) {} vs {d}",
                    flat[u][v]
                );
            }
        }
    }
}

/// The incremental dynamics drivers reproduce the pre-incremental
/// reference runner exactly — same outcome variant, same states, same
/// step counts — across rules and activation orders.
#[test]
fn incremental_dynamics_match_reference() {
    use euclidean_network_design::game::dynamics::{
        run_ordered_reference, run_spec, AgentOrder, ResponseRule,
    };
    use euclidean_network_design::geometry::generators;
    for seed in 0..6u64 {
        let ps = generators::uniform_unit_square(6, 0x5000 + seed);
        let start = OwnedNetwork::center_star(6, 0);
        for order in [
            AgentOrder::RoundRobin,
            AgentOrder::RandomPermutation(seed),
            AgentOrder::MaxGain,
        ] {
            for rule in [ResponseRule::BestSingleMove, ResponseRule::BestResponse] {
                let fast = run_spec(&ps, &start, 1.0, rule, order, 400, &SolverConfig::default());
                let slow =
                    run_ordered_reference::<_, SumDistances>(&ps, &start, 1.0, rule, order, 400);
                assert_eq!(fast, slow, "seed {seed} order {order:?} rule {rule:?}");
            }
        }
    }
}

/// A Nash equilibrium found by exact dynamics has exact beta 1.
#[test]
fn converged_dynamics_beta_is_one() {
    use euclidean_network_design::game::dynamics;
    use euclidean_network_design::geometry::generators;
    for seed in 0..40u64 {
        let ps = generators::uniform_unit_square(4, seed);
        let start = OwnedNetwork::empty(4);
        if let dynamics::Outcome::Converged { state, .. } = dynamics::run_spec(
            &ps,
            &start,
            1.0,
            dynamics::ResponseRule::BestResponse,
            dynamics::AgentOrder::RoundRobin,
            200,
            &SolverConfig::default(),
        ) {
            let beta =
                exact::exact_beta(&ps, &state, 1.0, &SolverConfig::default()).expect_exact("beta");
            assert!(beta <= 1.0 + 1e-6, "seed {seed}: beta {beta}");
        }
    }
}
