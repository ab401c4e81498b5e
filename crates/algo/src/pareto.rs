//! Exploring the (β, γ) Pareto frontier.
//!
//! The paper studies three slices of the bicriteria problem — (β, 1),
//! (1, γ) and (β, β) — and names mapping the full frontier as future
//! work. This module samples the design space: it builds a portfolio of
//! candidate networks (MST, complete, stars, Algorithm 1 across
//! parameters, response-dynamics descendants), certifies each, and
//! returns the non-dominated (β, γ) points.
//!
//! The certified values are *upper bounds*, so the returned frontier is
//! a sound outer approximation: every returned network really is a
//! (β, γ)-network for its listed coordinates.

use crate::algorithm1::{run_algorithm1, AlgorithmOneParams};
use crate::combined::combined_network;
use crate::complete::complete_network;
use crate::mst_network::mst_network;
use crate::params::corollary_3_8_params;
use crate::star::{best_star_center, center_star};
use gncg_game::certify::certify;
use gncg_game::SolverConfig;
use gncg_game::{dynamics, OwnedNetwork};
use gncg_geometry::PointSet;
use gncg_spanner::SpannerKind;

/// A certified sample of the design space.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Certified stability: the network is a `beta`-approximate NE.
    pub beta: f64,
    /// Certified efficiency: social cost ≤ `gamma` × optimum.
    pub gamma: f64,
    /// Human-readable origin of the design.
    pub label: String,
    /// The network itself.
    pub network: OwnedNetwork,
}

/// Build and certify the standard design portfolio for an instance.
///
/// `dynamics_steps > 0` additionally runs improving-response dynamics
/// from the MST and records the intermediate profiles (each step makes
/// one agent happier — often trading γ for β).
pub fn sample_designs(ps: &PointSet, alpha: f64, dynamics_steps: usize) -> Vec<ParetoPoint> {
    let n = ps.len();
    let mut out: Vec<ParetoPoint> = Vec::new();
    let mut add = |label: String, net: OwnedNetwork| {
        let r = certify(ps, &net, alpha, &SolverConfig::bounds_only());
        if r.connected {
            out.push(ParetoPoint {
                beta: r.beta_upper,
                gamma: r.gamma_upper,
                label,
                network: net,
            });
        }
    };

    add("mst".into(), mst_network(ps));
    add("complete".into(), complete_network(n));
    add("combined".into(), combined_network(ps, alpha).network);
    let c = best_star_center(ps);
    add(format!("star@{c}"), center_star(n, c));
    for t in [1.2, 1.5, 2.5] {
        let params = AlgorithmOneParams {
            spanner: SpannerKind::Greedy { t },
            ..corollary_3_8_params(alpha, n)
        };
        add(
            format!("alg1 t={t}"),
            run_algorithm1(ps, alpha, params).network,
        );
    }

    if dynamics_steps > 0 {
        let mut state = mst_network(ps);
        let cfg = SolverConfig::default();
        for step in 1..=dynamics_steps {
            match dynamics::run_spec(
                ps,
                &state,
                alpha,
                dynamics::ResponseRule::BestSingleMove,
                dynamics::AgentOrder::RoundRobin,
                1,
                &cfg,
            ) {
                dynamics::Outcome::Exhausted { state: s, .. } => {
                    state = s;
                    add(format!("mst+dyn{step}"), state.clone());
                }
                dynamics::Outcome::Converged { state: s, .. } => {
                    add(format!("mst+dyn{step} (stable)"), s);
                    break;
                }
                dynamics::Outcome::Cycle { .. } => break,
            }
        }
    }
    out
}

/// Reduce samples to the Pareto front (minimal β and γ): a point
/// survives iff no other point is at least as good in both coordinates
/// and strictly better in one. Returned sorted by β ascending.
pub fn pareto_front(mut points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    points.sort_by(|a, b| {
        a.beta
            .partial_cmp(&b.beta)
            .unwrap()
            .then(a.gamma.partial_cmp(&b.gamma).unwrap())
    });
    let mut front: Vec<ParetoPoint> = Vec::new();
    let mut best_gamma = f64::INFINITY;
    for p in points {
        if p.gamma < best_gamma - 1e-12 {
            best_gamma = p.gamma;
            front.push(p);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn front_is_nondominated_and_sorted() {
        let ps = generators::uniform_unit_square(25, 3);
        let samples = sample_designs(&ps, 2.0, 5);
        assert!(samples.len() >= 5);
        let front = pareto_front(samples);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].beta <= w[1].beta + 1e-12);
            assert!(w[0].gamma >= w[1].gamma - 1e-12);
        }
    }

    #[test]
    fn front_contains_no_dominated_pair() {
        let ps = generators::uniform_unit_square(20, 9);
        let front = pareto_front(sample_designs(&ps, 4.0, 3));
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    let dominates = a.beta <= b.beta + 1e-12
                        && a.gamma <= b.gamma + 1e-12
                        && (a.beta < b.beta - 1e-12 || a.gamma < b.gamma - 1e-12);
                    assert!(!dominates, "{} dominates {}", a.label, b.label);
                }
            }
        }
    }

    #[test]
    fn every_sample_is_connected_and_certified() {
        let ps = generators::uniform_unit_square(15, 4);
        for p in sample_designs(&ps, 1.0, 2) {
            assert!(p.beta >= 1.0 - 1e-9, "{}: beta {}", p.label, p.beta);
            assert!(p.gamma >= 1.0 - 1e-9, "{}: gamma {}", p.label, p.gamma);
        }
    }

    #[test]
    fn portfolio_designs_respect_their_theorems() {
        // the complete network certifies within Theorem 3.5 and the MST
        // within Theorem 3.9 at any alpha
        for alpha in [0.2, 2.0, 40.0] {
            let ps = generators::uniform_unit_square(18, 5);
            let samples = sample_designs(&ps, alpha, 0);
            let complete = samples.iter().find(|p| p.label == "complete").unwrap();
            assert!(complete.beta <= alpha + 1.0 + 1e-9);
            assert!(complete.gamma <= alpha / 2.0 + 1.0 + 1e-9);
            let mst = samples.iter().find(|p| p.label == "mst").unwrap();
            assert!(mst.beta <= 17.0 + 1e-9);
            assert!(mst.gamma <= 17.0 + 1e-9);
        }
    }
}
