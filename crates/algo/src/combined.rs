//! Corollary 3.10: the better of Algorithm 1 and the MST is an
//! (O(α^{2/3}), O(α^{2/3}))-network for every α.

use crate::algorithm1::{run_algorithm1, AlgorithmOneResult};
use crate::mst_network::mst_network;
use crate::params::corollary_3_8_params;
use gncg_game::certify::certify;
use gncg_game::OwnedNetwork;
use gncg_game::SolverConfig;
use gncg_geometry::PointSet;

/// Which construction the combined algorithm selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selected {
    /// Algorithm 1 with Corollary 3.8 parameters.
    AlgorithmOne,
    /// The MST network of Theorem 3.9.
    Mst,
}

/// Result of the combined construction.
#[derive(Debug, Clone)]
pub struct CombinedResult {
    /// The selected (β, β)-network.
    pub network: OwnedNetwork,
    /// Which construction won.
    pub selected: Selected,
    /// Certified β upper bound of the winner.
    pub beta_upper: f64,
    /// Certified β upper bound of the Algorithm 1 candidate.
    pub alg1_beta_upper: f64,
    /// Certified β upper bound of the MST candidate.
    pub mst_beta_upper: f64,
    /// The raw Algorithm 1 run (for diagnostics).
    pub alg1: AlgorithmOneResult,
}

/// Build both candidate networks and keep the one with the smaller
/// *certified* β upper bound (ties to Algorithm 1).
pub fn combined_network(ps: &PointSet, alpha: f64) -> CombinedResult {
    let params = corollary_3_8_params(alpha, ps.len().max(2));
    let alg1 = run_algorithm1(ps, alpha, params);
    let mst = mst_network(ps);

    let r1 = certify(ps, &alg1.network, alpha, &SolverConfig::bounds_only());
    let r2 = certify(ps, &mst, alpha, &SolverConfig::bounds_only());

    if r1.beta_upper <= r2.beta_upper {
        CombinedResult {
            network: alg1.network.clone(),
            selected: Selected::AlgorithmOne,
            beta_upper: r1.beta_upper,
            alg1_beta_upper: r1.beta_upper,
            mst_beta_upper: r2.beta_upper,
            alg1,
        }
    } else {
        CombinedResult {
            network: mst,
            selected: Selected::Mst,
            beta_upper: r2.beta_upper,
            alg1_beta_upper: r1.beta_upper,
            mst_beta_upper: r2.beta_upper,
            alg1,
        }
    }
}

/// Convenience facade: the combined (β, β)-network for a point set.
pub fn build_beta_beta_network(ps: &PointSet, alpha: f64) -> OwnedNetwork {
    combined_network(ps, alpha).network
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn combined_network_is_connected() {
        for seed in 0..3u64 {
            let ps = generators::uniform_unit_square(40, seed);
            for alpha in [0.5, 2.0, 50.0] {
                let net = build_beta_beta_network(&ps, alpha);
                let g = net.graph(&ps);
                assert!(
                    gncg_graph::components::is_connected(&g),
                    "seed {seed} alpha {alpha}"
                );
            }
        }
    }

    #[test]
    fn winner_is_no_worse_than_either_candidate() {
        let ps = generators::uniform_unit_square(30, 5);
        for alpha in [1.0, 10.0, 1000.0] {
            let r = combined_network(&ps, alpha);
            assert!(r.beta_upper <= r.alg1_beta_upper + 1e-12);
            assert!(r.beta_upper <= r.mst_beta_upper + 1e-12);
        }
    }

    #[test]
    fn mst_wins_for_huge_alpha() {
        // α = n^x with x large: MST's n−1 beats α^{1−1/(2x)}
        let n = 12;
        let ps = generators::uniform_unit_square(n, 2);
        let alpha = 1e7;
        let r = combined_network(&ps, alpha);
        assert_eq!(r.selected, Selected::Mst);
    }

    #[test]
    fn alg1_wins_for_small_alpha() {
        let ps = generators::uniform_unit_square(60, 3);
        let alpha = 0.5;
        let r = combined_network(&ps, alpha);
        assert_eq!(r.selected, Selected::AlgorithmOne);
    }

    #[test]
    fn beta_upper_stays_moderate_across_alpha_sweep() {
        // loose sanity on the O(α^{2/3}) shape: certified bound divided
        // by α^{2/3} must not explode as α grows
        let ps = generators::uniform_unit_square(50, 9);
        let mut ratios = Vec::new();
        for alpha in [1.0, 4.0, 16.0, 64.0, 256.0] {
            let r = combined_network(&ps, alpha);
            ratios.push(r.beta_upper / alpha.powf(2.0 / 3.0));
        }
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 50.0,
            "normalized beta bound varies wildly: {ratios:?}"
        );
    }
}
