//! Cross-crate integration tests: each test certifies one of the
//! paper's headline claims end-to-end through the public facade.

use euclidean_network_design::algo::{
    self, complete::complete_network, grid_network::grid_network, mst_network::mst_network,
    params::corollary_3_8_params,
};
use euclidean_network_design::game::{
    best_response, certify::certify, cost, exact, instances, moves, SumDistances,
};
use euclidean_network_design::geometry::generators;
use euclidean_network_design::host::{corollaries, poa, HostNetwork};
use euclidean_network_design::prelude::*;
// Certification routes through the service layer (shared Session) so the
// headline claims are checked through the same envelope users reach; the
// facade-quickstart test below keeps the direct call it documents.
use gncg_bench::testsupport::certify_via_service;

/// Theorem 2.1: the triangle-cluster optimum admits an improving move of
/// factor at least √α/3.
#[test]
fn theorem_2_1_unstable_optimum() {
    for alpha in [16.0, 100.0] {
        let s = instances::theorem_2_1_cluster_size(alpha);
        let (ps, opt) = instances::triangle_optimum(s, 0.0);
        let u = 0usize;
        let now = cost::agent_cost::<_, SumDistances>(&ps, &opt, alpha, u);
        let mut sold = opt.strategy(u).clone();
        sold.remove(&s);
        let after = moves::cost_with_strategy::<_, SumDistances>(&ps, &opt, alpha, u, &sold);
        let factor = best_response::ratio(now, after);
        assert!(
            factor >= instances::theorem_2_1_factor(alpha) - 1e-9,
            "alpha {alpha}: factor {factor}"
        );
    }
}

/// Theorem 3.5 via the facade: complete network bounds.
#[test]
fn theorem_3_5_complete_network() {
    let ps = generators::uniform_unit_square(20, 1);
    let alpha = 3.0;
    let net = complete_network(20);
    let r = certify_via_service(&ps, &net, alpha, SolverConfig::bounds_only());
    assert!(r.beta_upper <= alpha + 1.0 + 1e-9);
    assert!(r.gamma_upper <= alpha / 2.0 + 1.0 + 1e-9);
}

/// Theorem 3.7: the full Algorithm 1 pipeline produces a certified
/// (β, β)-network within its own theoretical bound when the bound
/// applies.
#[test]
fn theorem_3_7_algorithm_one_pipeline() {
    let n = 70;
    let alpha = 2.0;
    let ps = generators::uniform_unit_square(n, 5);
    let res = algo::run_algorithm1(&ps, alpha, corollary_3_8_params(alpha, n));
    let r = certify_via_service(&ps, &res.network, alpha, SolverConfig::bounds_only());
    assert!(r.connected);
    if let Some(bound) = res.beta_bound {
        assert!(r.beta_upper <= bound + 1e-6);
        assert!(r.gamma_upper <= bound + 1e-6);
    }
}

/// Theorem 3.9 + Corollary 3.10: MST within n−1; combined no worse than
/// either candidate.
#[test]
fn theorem_3_9_and_corollary_3_10() {
    let n = 25;
    let ps = generators::uniform_unit_square(n, 8);
    for alpha in [1.0, 1e5] {
        let mst = mst_network(&ps);
        let r = certify_via_service(&ps, &mst, alpha, SolverConfig::bounds_only());
        assert!(r.beta_upper <= (n - 1) as f64 + 1e-6);
        assert!(r.gamma_upper <= (n - 1) as f64 + 1e-6);
        let comb = algo::combined::combined_network(&ps, alpha);
        assert!(comb.beta_upper <= r.beta_upper + 1e-9);
    }
}

/// Theorem 3.13: grid networks exactly verified on a small grid.
#[test]
fn theorem_3_13_grid_exact() {
    let ps = generators::integer_grid(&[2, 2]); // 9 agents
    let net = grid_network(&ps);
    for alpha in [0.5, 2.0] {
        let beta =
            exact::exact_beta(&ps, &net, alpha, &SolverConfig::default()).expect_exact("beta");
        assert!(beta <= 4.0 + 1e-9, "alpha {alpha}: beta {beta}");
    }
}

/// Theorem 4.1: the apex star is an exact NE and its cost ratio is below
/// (and converging to) the paper bound.
#[test]
fn theorem_4_1_cross_polytope() {
    let alpha = 2.0;
    let (ps, ne, opt) = instances::cross_polytope(4, alpha);
    assert!(exact::is_nash::<_, SumDistances>(&ps, &ne, alpha));
    let ratio = cost::social_cost::<_, SumDistances>(&ps, &ne, alpha)
        / cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
    let bound = instances::theorem_4_1_bound(alpha);
    assert!(ratio <= bound + 1e-9);
    let big_ratio =
        instances::cross_ne_social_cost(300, alpha) / instances::cross_opt_social_cost(300, alpha);
    assert!(big_ratio > ratio);
    assert!((big_ratio - bound).abs() < 0.05 * bound);
}

/// Theorem 4.3: the chain star is an exact NE and the PoA sample grows
/// like α^{2/3}.
#[test]
fn theorem_4_3_chain() {
    let alpha = 8.0;
    let (ps, ne, opt) = instances::chain(10, alpha);
    assert!(exact::is_nash::<_, SumDistances>(&ps, &ne, alpha));
    let ratio = cost::social_cost::<_, SumDistances>(&ps, &ne, alpha)
        / cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
    assert!(ratio > 1.0);
    // asymptotic samples from the closed forms
    let r1 = instances::chain_ne_social_cost(100, 1000.0)
        / instances::chain_opt_social_cost(100, 1000.0);
    assert!(r1 >= 0.9 * instances::theorem_4_3_bound(1000.0));
}

/// Theorem 4.4: PoS > 1 — the optimum is unstable and the NE costs more.
#[test]
fn theorem_4_4_pos_greater_than_one() {
    let alpha = 6.0;
    let s = instances::theorem_4_4_cluster_size(alpha);
    let (ps, opt) = instances::triangle_optimum(s, 0.0);
    let (_, two) = instances::triangle_two_edges(s, 0.0);
    let c_opt = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
    let c_two = cost::social_cost::<_, SumDistances>(&ps, &two, alpha);
    assert!(c_opt < c_two, "3-edge state must be the social optimum");
    // the optimum is not stable: selling a unit edge improves
    let u = 0usize;
    let now = cost::agent_cost::<_, SumDistances>(&ps, &opt, alpha, u);
    let mut sold = opt.strategy(u).clone();
    sold.remove(&s);
    let after = moves::cost_with_strategy::<_, SumDistances>(&ps, &opt, alpha, u, &sold);
    assert!(after < now - 1e-9);
}

/// Corollary 5.1 on a non-metric host via the facade.
#[test]
fn corollary_5_1_host() {
    let h = HostNetwork::random_nonmetric(8, 0.2, 5.0, 77);
    let w = h.as_weights();
    let alpha = 1.5;
    let net = corollaries::shortest_path_subnetwork(&h);
    let r = certify_via_service(&w, &net, alpha, SolverConfig::bounds_only());
    assert!(r.beta_upper <= alpha + 1.0 + 1e-6);
    assert!(r.gamma_upper <= alpha / 2.0 + 1.0 + 1e-6);
}

/// Theorem 5.4: sampled equilibria respect the 2(α+1) PoA bound.
#[test]
fn theorem_5_4_poa_bound() {
    let mut found = false;
    for seed in 0..6u64 {
        let h = HostNetwork::random_metric(5, seed);
        let probe = poa::probe_poa(&h, 2.0, 300, &SolverConfig::default());
        if probe.equilibrium.is_some() {
            found = true;
            assert!(probe.ratio <= poa::theorem_5_4_bound(2.0) + 1e-6);
        }
    }
    assert!(found, "no equilibrium found on any seed");
}

/// Facade quickstart flow (the README example).
#[test]
fn facade_quickstart_flow() {
    let points = generators::uniform_unit_square(40, 7);
    let network = build_beta_beta_network(&points, 2.0);
    let report = certify(&points, &network, 2.0, &SolverConfig::default());
    assert!(report.connected);
    assert!(report.beta_upper.is_finite());
    assert!(report.gamma_upper >= 1.0 - 1e-9);
    assert!(report.beta_witness <= report.beta_upper + 1e-9);
}
