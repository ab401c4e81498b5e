//! Theorem 5.4 / Corollary 5.5: the GNCG Price of Anarchy is Θ(α).
//!
//! We verify the `2(α+1)` upper bound empirically: find Nash equilibria
//! on random hosts by best-response dynamics, then check
//! `SC(NE)/SC(OPT) ≤ 2(α+1)` with the exact optimum (small n) or the
//! certified lower bound. We also check the spanner lemma the proof
//! leans on (Lemma 2.2 of Bilò et al.): every NE is an (α+1)-spanner of
//! the host metric.

use crate::HostNetwork;
use gncg_game::{cost, dispatch_model, dynamics, exact, OwnedNetwork, SolverConfig};

/// Theorem 5.4's PoA upper bound.
pub fn theorem_5_4_bound(alpha: f64) -> f64 {
    2.0 * (alpha + 1.0)
}

/// Outcome of a PoA probe on one host instance.
#[derive(Debug, Clone)]
pub struct PoaProbe {
    /// The equilibrium found (None when dynamics didn't converge).
    pub equilibrium: Option<OwnedNetwork>,
    /// Social cost of the equilibrium.
    pub ne_cost: f64,
    /// Exact optimum cost when n ≤ 8, otherwise the certified lower
    /// bound.
    pub opt_cost: f64,
    /// Whether `opt_cost` is exact.
    pub opt_is_exact: bool,
    /// The PoA sample `ne_cost / opt_cost` (an upper estimate when
    /// `opt_cost` is only a lower bound).
    pub ratio: f64,
}

/// Try to find a NE on the host by best-response dynamics from the
/// shortest-path subnetwork, then compare with the optimum. Equilibria,
/// social costs, and the optimum are all taken under `cfg`'s cost model
/// (and edge-formation rule for the dynamics); the paper's game is
/// `SolverConfig::default()`.
pub fn probe_poa(h: &HostNetwork, alpha: f64, max_steps: usize, cfg: &SolverConfig) -> PoaProbe {
    let w = h.as_weights();
    let start = crate::corollaries::shortest_path_subnetwork(h);
    let outcome = dynamics::run_spec(
        &w,
        &start,
        alpha,
        dynamics::ResponseRule::BestResponse,
        dynamics::AgentOrder::RoundRobin,
        max_steps,
        cfg,
    );
    let equilibrium = match outcome {
        dynamics::Outcome::Converged { state, .. } => Some(state),
        _ => None,
    };
    let (ne_cost, ratio, opt_cost, opt_is_exact) = match &equilibrium {
        Some(ne) => dispatch_model!(cfg.model, M, {
            let sc = cost::social_cost::<_, M>(&w, ne, alpha);
            let (opt, exact_flag) = match exact::exact_social_optimum(&w, alpha, cfg) {
                gncg_game::Outcome::Exact(o) => (o.social_cost, true),
                gncg_game::Outcome::Degraded {
                    certified_bound, ..
                } => (certified_bound, false),
            };
            (sc, sc / opt, opt, exact_flag)
        }),
        None => (f64::NAN, f64::NAN, f64::NAN, false),
    };
    PoaProbe {
        equilibrium,
        ne_cost,
        opt_cost,
        opt_is_exact,
        ratio,
    }
}

/// Is a profile an (α+1)-spanner of the host metric? (The structural
/// lemma behind Theorem 5.4.)
pub fn ne_is_alpha_plus_one_spanner(h: &HostNetwork, net: &OwnedNetwork, alpha: f64) -> bool {
    let w = h.as_weights();
    let g = net.graph(&w);
    let d = gncg_graph::apsp::all_pairs(&g);
    let closure = h.metric_closure();
    let n = h.len();
    for u in 0..n {
        for v in 0..n {
            if u != v && d[u][v] > (alpha + 1.0) * closure[u][v] + 1e-9 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_game::SumDistances;

    #[test]
    fn poa_bound_holds_on_random_metric_hosts() {
        let mut converged = 0;
        for seed in 0..6u64 {
            let h = HostNetwork::random_metric(6, seed);
            for alpha in [0.5, 1.5, 4.0] {
                let probe = probe_poa(&h, alpha, 400, &SolverConfig::default());
                if let Some(ne) = &probe.equilibrium {
                    converged += 1;
                    assert!(
                        exact::is_nash::<_, SumDistances>(&h.as_weights(), ne, alpha),
                        "seed {seed} alpha {alpha}: claimed NE is not a NE"
                    );
                    assert!(
                        probe.ratio <= theorem_5_4_bound(alpha) + 1e-6,
                        "seed {seed} alpha {alpha}: PoA sample {} > bound {}",
                        probe.ratio,
                        theorem_5_4_bound(alpha)
                    );
                    assert!(ne_is_alpha_plus_one_spanner(&h, ne, alpha));
                }
            }
        }
        assert!(converged >= 3, "dynamics converged only {converged} times");
    }

    #[test]
    fn poa_bound_holds_on_nonmetric_hosts() {
        let mut converged = 0;
        for seed in 0..6u64 {
            let h = HostNetwork::random_nonmetric(6, 0.2, 4.0, seed);
            let alpha = 2.0;
            let probe = probe_poa(&h, alpha, 400, &SolverConfig::default());
            if probe.equilibrium.is_some() {
                converged += 1;
                assert!(
                    probe.ratio <= theorem_5_4_bound(alpha) + 1e-6,
                    "seed {seed}: PoA sample {} > bound",
                    probe.ratio
                );
            }
        }
        assert!(converged >= 2);
    }

    #[test]
    fn ratio_at_least_one_when_exact() {
        let h = HostNetwork::random_metric(5, 9);
        let probe = probe_poa(&h, 1.0, 300, &SolverConfig::default());
        if probe.opt_is_exact && probe.equilibrium.is_some() {
            assert!(probe.ratio >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn max_model_probe_finds_consistent_equilibria() {
        use gncg_game::{MaxDistance, ModelKind};
        // No theorem constant is claimed for the max objective; the
        // probe must still produce internally consistent samples: a
        // state that is Nash *under the max model*, and a ratio ≥ 1 − ε
        // whenever the optimum is exact.
        let mut converged = 0;
        for seed in 0..6u64 {
            let h = HostNetwork::random_metric(6, seed);
            let cfg = SolverConfig::default().with_model(ModelKind::MaxDistance);
            let probe = probe_poa(&h, 1.5, 400, &cfg);
            if let Some(ne) = &probe.equilibrium {
                converged += 1;
                assert!(
                    exact::is_nash::<_, MaxDistance>(&h.as_weights(), ne, 1.5),
                    "seed {seed}: claimed max-model NE is not one"
                );
                if probe.opt_is_exact {
                    assert!(
                        probe.ratio >= 1.0 - 1e-9,
                        "seed {seed}: exact-optimum ratio {} below 1",
                        probe.ratio
                    );
                }
            }
        }
        assert!(
            converged >= 2,
            "max-model dynamics converged only {converged} times"
        );
    }
}
