//! (β, γ) certification.
//!
//! Exact β and γ are NP-hard, so the report combines three regimes:
//!
//! * **Sound upper bounds** (always computed): any strategy of agent `u`
//!   costs at least `Σ_v lb(u,v)` (the distance cost can never beat the
//!   metric lower bound), so
//!   `β ≤ max_u cost(u,G)/Σ_v lb(u,v)`; similarly any connected network
//!   has social cost at least `α·w(MST) + Σ_u Σ_v lb(u,v)`, so
//!   `γ ≤ SC(G)/LB(OPT)`. Both are certificates: the true β/γ can only
//!   be *smaller*.
//! * **Witness lower bounds** (cheap, optional): local-search improving
//!   moves certify `β ≥ witness` — how unstable the network provably is.
//! * **Exact values** (exponential, optional): exact best responses
//!   (n ≤ 22) and the exact social optimum (n ≤ 8).
//!
//! Witness search and exact β both bottom out in the pruned response
//! engines ([`crate::prune`]), bit-identical to the unpruned oracle, so
//! pruning changes no reported bound or exact value.

use crate::best_response::{self, ResponseEvaluator};
use crate::outcome::{self, DegradeReason, Regime};
use crate::{cost, exact, moves, CostModel, EdgeWeights, ModelKind, OwnedNetwork};
use gncg_graph::Graph;
use gncg_json::{field, object, FromJson, JsonError, ToJson, Value};

/// The certification report for a profile `s` on an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyReport {
    /// Number of agents.
    pub n: usize,
    /// Edge price factor α.
    pub alpha: f64,
    /// Social cost of the profile.
    pub social_cost: f64,
    /// Whether the created network is connected.
    pub connected: bool,
    /// Sound upper bound on β (the profile is a β-NE for this β).
    pub beta_upper: f64,
    /// Exact β, when requested.
    pub beta_exact: Option<f64>,
    /// Certified lower bound on β from local-search witnesses (≥ 1);
    /// 1.0 when not requested.
    pub beta_witness: f64,
    /// Certified lower bound on the social optimum's cost.
    pub opt_lower_bound: f64,
    /// Exact optimum social cost, when requested.
    pub opt_exact: Option<f64>,
    /// Sound upper bound on γ = SC(G)/SC(OPT).
    pub gamma_upper: f64,
    /// Exact γ, when requested.
    pub gamma_exact: Option<f64>,
    /// Which regime produced the headline β figure: [`Regime::Exact`]
    /// when `beta_exact` is populated, [`Regime::Certified`] when the
    /// answer is `beta_upper` (not requested, over the cap, over budget,
    /// or panicked).
    pub beta_regime: Regime,
    /// Which regime produced the headline γ figure (see `beta_regime`).
    pub gamma_regime: Regime,
    /// Human-readable reasons for every *requested* exact computation
    /// that fell back to the certified regime; empty when nothing
    /// degraded.
    pub degrade_reasons: Vec<String>,
    /// The cost model the report was certified under.
    pub model: ModelKind,
}

impl ToJson for CertifyReport {
    fn to_json(&self) -> Value {
        let mut entries = vec![
            ("n", self.n.to_json()),
            ("alpha", self.alpha.to_json()),
            ("social_cost", self.social_cost.to_json()),
            ("connected", self.connected.to_json()),
            ("beta_upper", self.beta_upper.to_json()),
            ("beta_exact", self.beta_exact.to_json()),
            ("beta_witness", self.beta_witness.to_json()),
            ("opt_lower_bound", self.opt_lower_bound.to_json()),
            ("opt_exact", self.opt_exact.to_json()),
            ("gamma_upper", self.gamma_upper.to_json()),
            ("gamma_exact", self.gamma_exact.to_json()),
            ("beta_regime", self.beta_regime.as_str().to_json()),
            ("gamma_regime", self.gamma_regime.as_str().to_json()),
            ("degrade_reasons", self.degrade_reasons.to_json()),
        ];
        // The sum-model key set is frozen — committed results/*.json and
        // downstream parsers rely on it byte-for-byte — so the model tag
        // appears only for non-default models.
        if self.model != ModelKind::SumDistances {
            entries.push(("model", self.model.as_str().to_json()));
        }
        object(entries)
    }
}

impl FromJson for CertifyReport {
    /// Inverse of [`CertifyReport::to_json`], used by the `gncg-serve`
    /// wire layer. Because the printer emits finite `f64`s in
    /// shortest-roundtrip form, `to_json → print → parse → from_json`
    /// reproduces every float bit-for-bit — the serve tier's
    /// bit-identity guarantee rests on this.
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        fn regime(value: &Value, key: &str) -> Result<Regime, JsonError> {
            match field(value, key)?.as_str() {
                Some("exact") => Ok(Regime::Exact),
                Some("certified") => Ok(Regime::Certified),
                other => Err(JsonError::new(format!("bad {key}: {other:?}"))),
            }
        }
        let model = match value.get("model") {
            // absent ⇔ the frozen sum-model key set
            None => ModelKind::SumDistances,
            Some(v) => match v.as_str().and_then(ModelKind::from_name) {
                Some(model) => model,
                None => return Err(JsonError::new(format!("bad model: {:?}", v.as_str()))),
            },
        };
        Ok(CertifyReport {
            n: usize::from_json(field(value, "n")?)?,
            alpha: f64::from_json(field(value, "alpha")?)?,
            social_cost: f64::from_json(field(value, "social_cost")?)?,
            connected: bool::from_json(field(value, "connected")?)?,
            beta_upper: f64::from_json(field(value, "beta_upper")?)?,
            beta_exact: Option::<f64>::from_json(field(value, "beta_exact")?)?,
            beta_witness: f64::from_json(field(value, "beta_witness")?)?,
            opt_lower_bound: f64::from_json(field(value, "opt_lower_bound")?)?,
            opt_exact: Option::<f64>::from_json(field(value, "opt_exact")?)?,
            gamma_upper: f64::from_json(field(value, "gamma_upper")?)?,
            gamma_exact: Option::<f64>::from_json(field(value, "gamma_exact")?)?,
            beta_regime: regime(value, "beta_regime")?,
            gamma_regime: regime(value, "gamma_regime")?,
            degrade_reasons: Vec::<String>::from_json(field(value, "degrade_reasons")?)?,
            model,
        })
    }
}

impl CertifyReport {
    /// [`CertifyReport::to_json`] plus, when `GNCG_TRACE=1`, a `trace`
    /// section with the process-wide counter/span snapshot. With tracing
    /// off the output is byte-identical to `to_json`.
    pub fn to_json_with_trace(&self) -> Value {
        let mut value = self.to_json();
        if gncg_trace::enabled() {
            if let Value::Object(entries) = &mut value {
                entries.push(("trace".to_string(), gncg_trace::snapshot().to_json()));
            }
        }
        value
    }
}

/// Certified lower bound on the social optimum under model `M`:
/// `α·w(MST) + Σ_u M-aggregate(lb(u, ·))`.
///
/// Every connected network's edge set weighs at least the MST of the
/// buildable edges, and no network brings a pair closer than the metric
/// lower bound; for max-distance the per-agent term is
/// `max_v lb(u, v)` — no network gives `u` a smaller eccentricity. The
/// [`crate::SumDistances`] arm accumulates the whole `n×n` matrix in one
/// flat double loop (a per-row regrouping would round differently).
pub fn optimum_lower_bound<W: EdgeWeights + ?Sized, M: CostModel>(w: &W, alpha: f64) -> f64 {
    let n = w.len();
    let mst: f64 = gncg_graph::mst::prim_dense(n, |i, j| w.weight(i, j))
        .iter()
        .map(|&(_, _, x)| x)
        .sum();
    let direct = match M::KIND {
        ModelKind::SumDistances => {
            let mut direct = 0.0;
            for u in 0..n {
                for v in 0..n {
                    if u != v {
                        direct += w.metric_lower_bound(u, v);
                    }
                }
            }
            direct
        }
        ModelKind::MaxDistance => {
            let mut direct = 0.0;
            for u in 0..n {
                let mut ecc = 0.0;
                for v in 0..n {
                    if u != v {
                        let lb = w.metric_lower_bound(u, v);
                        if lb > ecc {
                            ecc = lb;
                        }
                    }
                }
                direct += ecc;
            }
            direct
        }
    };
    alpha * mst + direct
}

/// Sound upper bound on an agent's improvement factor.
///
/// Any strategy of `u` has distance cost at least `Σ_v lb(u, v)`.
/// For the edge cost, consider `G⁻`: the created network with all of
/// `u`'s *bought* edges removed (other agents' edges stay). Let `C_0`
/// be `u`'s component of `G⁻` and `C_1, …, C_k` the others. Every edge
/// of `G` between different components was bought by `u` (it is
/// incident to `u`), so after any deviation, reaching `C_i` requires a
/// *newly bought* edge from `u` directly into `C_i`. Hence
///
/// ```text
/// BR_u ≥ α·Σ_{i≥1} min_{v ∈ C_i} w(u, v) + Σ_v lb(u, v)
/// ```
///
/// and `β_u ≤ cost(u, G)/BR_u`. On an MST profile the cut property
/// turns this into exactly the Theorem 3.9 accounting (the replacement
/// edge is never cheaper than the tree edge); on grids it certifies the
/// Theorem 3.13 bound at every α.
///
/// Generic over the cost model `M`: `g` must be the created network
/// `net.graph(w)` and `now` the agent's current `M`-cost (the certifier
/// computes both once for all agents). The distance floor is the
/// `M`-aggregate of the metric lower bounds; the component-connect term
/// bounds the *edge* cost of any deviation and is model-independent.
pub fn agent_beta_upper<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    g: &Graph,
    alpha: f64,
    u: usize,
    now: f64,
) -> f64 {
    let n = w.len();
    let mut lb: f64 = (0..n)
        .filter(|&v| v != u)
        .map(|v| w.metric_lower_bound(u, v))
        .fold(M::EMPTY, M::fold);
    // components of the created network minus u's bought edges (an edge
    // survives when the other endpoint buys it too)
    let sole = |v: usize| net.owns(u, v) && !net.owns(v, u);
    let (labels, k) =
        gncg_graph::components::components(g, |a, b| !(a == u && sole(b) || b == u && sole(a)));
    if k > 1 {
        let mut min_into = vec![f64::INFINITY; k];
        for (v, &c) in labels.iter().enumerate() {
            if v != u {
                let wv = w.weight(u, v);
                if wv < min_into[c] {
                    min_into[c] = wv;
                }
            }
        }
        for (c, &m) in min_into.iter().enumerate() {
            if c != labels[u] && m.is_finite() {
                lb += alpha * m;
            }
        }
    }
    best_response::ratio(now, lb)
}

/// Sound upper bound on β for the whole profile under model `M` (the
/// max over agents of [`agent_beta_upper`]). Polynomial; this is the
/// certified-regime fallback of the budgeted β solvers.
pub fn beta_upper<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
) -> f64 {
    bounds::<W, M>(w, net, &net.graph(w), alpha).beta_upper
}

/// The polynomial certified figures of a profile under model `M`.
pub(crate) struct Bounds {
    /// Each agent's exact `M`-cost on the created network.
    pub(crate) costs: Vec<f64>,
    /// `SC(G)`: the agent costs summed in agent order.
    pub(crate) social: f64,
    /// `max(1, max_u agent_beta_upper(u))`.
    pub(crate) beta_upper: f64,
}

/// The one bounds pass behind [`certify`], [`beta_upper`] and
/// [`crate::approx::certify_approx`]: one streamed Dijkstra row per
/// agent on the created network `g` (`net.graph(w)`, no `n×n` matrix),
/// each agent's cost (the same sum as [`cost::agent_cost`]) fed into
/// [`agent_beta_upper`]. Agents run in parallel; the cross-agent folds
/// are sequential in agent order, so the figures are bit-identical at
/// every thread count.
pub(crate) fn bounds<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    g: &Graph,
    alpha: f64,
) -> Bounds {
    let dists = gncg_graph::apsp::distance_aggregates(g, |row| M::aggregate(row));
    let costs: Vec<f64> = (0..net.len())
        .map(|u| cost::edge_cost(w, net, alpha, u) + dists[u])
        .collect();
    let ups = gncg_parallel::parallel_map(net.len(), |u| {
        agent_beta_upper::<W, M>(w, net, g, alpha, u, costs[u])
    });
    Bounds {
        social: costs.iter().sum(),
        beta_upper: ups.into_iter().fold(1.0f64, f64::max),
        costs,
    }
}

/// Produce the full certification report, running the *exponential*
/// parts (exact β, exact optimum) under `cfg.budget` (`GNCG_BUDGET_MS`
/// via the default constructors, unlimited when unset).
///
/// The polynomial certified bounds and the witness are always computed
/// (they are the fallback, and cost a few parallel Dijkstra sweeps). A
/// requested exact computation that exceeds its enumeration cap, runs
/// out of budget, or panics is cancelled cleanly and its `*_exact`
/// field stays `None`; the report's `beta_regime`/`gamma_regime` record
/// which regime produced each headline number and `degrade_reasons`
/// records why. The certified numbers remain sound either way: reported
/// β/γ bounds are always ≥ the true values.
pub fn certify<W: EdgeWeights + ?Sized>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: &crate::SolverConfig,
) -> CertifyReport {
    crate::dispatch_model!(cfg.model, M, {
        certify_generic::<W, M>(w, net, alpha, cfg)
    })
}

/// Monomorphic body of [`certify`] for model `M`.
fn certify_generic<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: &crate::SolverConfig,
) -> CertifyReport {
    let _span = gncg_trace::span("game.certify");
    let budget = &cfg.budget;
    let n = net.len();
    assert_eq!(n, w.len());
    // the graph is built once; the witness probes start from it too
    let g = &net.graph(w);
    let connected = gncg_graph::components::is_connected(g);
    let Bounds {
        costs,
        social,
        beta_upper,
    } = bounds::<W, M>(w, net, g, alpha);

    let mut degrade_reasons = Vec::new();
    let mut record = |what: &str, reason: DegradeReason| {
        degrade_reasons.push(format!("{what}: {reason}"));
    };

    let beta_exact = if cfg.exact_beta {
        if n <= best_response::MAX_EXACT_AGENTS {
            match outcome::attempt(budget, || exact::exact_beta_raw::<W, M>(w, net, alpha)) {
                Ok(b) => Some(b),
                Err(reason) => {
                    record("beta", reason);
                    None
                }
            }
        } else {
            record(
                "beta",
                DegradeReason::InstanceTooLarge {
                    n,
                    cap: best_response::MAX_EXACT_AGENTS,
                },
            );
            None
        }
    } else {
        None
    };
    let beta_regime = if beta_exact.is_some() {
        Regime::Exact
    } else {
        Regime::Certified
    };

    let beta_witness = if cfg.witness {
        let ws = gncg_parallel::parallel_map(n, |u| {
            let eval = ResponseEvaluator::from_built_graph(w, net, g, u);
            moves::witness_improvement_factor::<M>(&eval, net, alpha, costs[u])
        });
        ws.into_iter().fold(1.0f64, f64::max)
    } else {
        1.0
    };

    let opt_lb = optimum_lower_bound::<W, M>(w, alpha);
    let opt_exact = if cfg.exact_gamma {
        if n <= exact::MAX_EXACT_OPT_AGENTS {
            match outcome::attempt(budget, || {
                exact::exact_social_optimum_raw::<W, M>(w, alpha).social_cost
            }) {
                Ok(o) => Some(o),
                Err(reason) => {
                    record("gamma", reason);
                    None
                }
            }
        } else {
            record(
                "gamma",
                DegradeReason::InstanceTooLarge {
                    n,
                    cap: exact::MAX_EXACT_OPT_AGENTS,
                },
            );
            None
        }
    } else {
        None
    };
    let gamma_upper = best_response::ratio(social, opt_lb);
    let gamma_exact = opt_exact.map(|o| best_response::ratio(social, o));
    let gamma_regime = if gamma_exact.is_some() {
        Regime::Exact
    } else {
        Regime::Certified
    };

    CertifyReport {
        n,
        alpha,
        social_cost: social,
        connected,
        beta_upper,
        beta_exact,
        beta_witness,
        opt_lower_bound: opt_lb,
        opt_exact,
        gamma_upper,
        gamma_exact,
        beta_regime,
        gamma_regime,
        degrade_reasons,
        model: M::KIND,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverConfig;
    use gncg_geometry::generators;

    #[test]
    fn exact_beta_never_exceeds_upper_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        for trial in 0..3 {
            let n = 6;
            let ps = generators::uniform_unit_square(n, 900 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;
            let r = certify(&ps, &net, alpha, &SolverConfig::exact());
            let be = r.beta_exact.unwrap();
            assert!(
                be <= r.beta_upper + 1e-9,
                "trial {trial}: exact beta {be} > upper {}",
                r.beta_upper
            );
            assert!(
                r.beta_witness <= be + 1e-9,
                "trial {trial}: witness {} > exact {be}",
                r.beta_witness
            );
        }
    }

    #[test]
    fn exact_gamma_never_exceeds_upper_bound() {
        let ps = generators::uniform_unit_square(6, 33);
        let net = OwnedNetwork::complete(6);
        let r = certify(&ps, &net, 1.0, &SolverConfig::exact());
        let ge = r.gamma_exact.unwrap();
        assert!(ge <= r.gamma_upper + 1e-9);
        assert!(ge >= 1.0 - 1e-9);
        assert!(r.opt_exact.unwrap() >= r.opt_lower_bound - 1e-9);
    }

    #[test]
    fn agent_beta_upper_matches_a_graph_minus_the_agents_edges() {
        // reference: clone G, remove u's sole-bought edges, label the
        // components of the copy; mutual buys keep their edge
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for trial in 0..20 {
            let n = rng.gen_range(2..14);
            let ps = generators::uniform_unit_square(n, 300 + trial);
            let mut net = OwnedNetwork::empty(n);
            for _ in 0..rng.gen_range(0..2 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    net.buy(a, b);
                }
            }
            let alpha = rng.gen_range(0.1..4.0);
            let g = net.graph(&ps);
            for u in 0..n {
                let now = crate::cost::agent_cost::<_, crate::SumDistances>(&ps, &net, alpha, u);
                let mut g_minus = g.clone();
                for &v in net.strategy(u) {
                    if !net.owns(v, u) {
                        g_minus.remove_edge(u, v);
                    }
                }
                let (labels, k) = gncg_graph::components::components(&g_minus, |_, _| true);
                let mut connect = vec![f64::INFINITY; k];
                for (v, &c) in labels.iter().enumerate() {
                    if v != u && ps.dist(u, v) < connect[c] {
                        connect[c] = ps.dist(u, v);
                    }
                }
                let mut lb: f64 = (0..n).filter(|&v| v != u).map(|v| ps.dist(u, v)).sum();
                for (c, &m) in connect.iter().enumerate() {
                    if k > 1 && c != labels[u] && m.is_finite() {
                        lb += alpha * m;
                    }
                }
                let got = agent_beta_upper::<_, crate::SumDistances>(&ps, &net, &g, alpha, u, now);
                let want = best_response::ratio(now, lb);
                assert_eq!(got.to_bits(), want.to_bits(), "trial {trial} agent {u}");
            }
        }
    }

    #[test]
    fn report_flags_disconnection() {
        let ps = generators::line(3, 2.0);
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1);
        let r = certify(&ps, &net, 1.0, &SolverConfig::bounds_only());
        assert!(!r.connected);
        assert!(r.social_cost.is_infinite());
        assert!(r.beta_upper.is_infinite());
    }

    #[test]
    fn two_point_edge_certifies_cleanly() {
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        let r = certify(&ps, &net, 1.0, &SolverConfig::exact());
        assert!(r.connected);
        // SC = alpha + 2 = 3, OPT the same
        assert!((r.social_cost - 3.0).abs() < 1e-12);
        assert!((r.gamma_exact.unwrap() - 1.0).abs() < 1e-9);
        assert!((r.beta_exact.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimum_lower_bound_is_sound_random() {
        for seed in 0..3 {
            let ps = generators::uniform_unit_square(6, seed);
            for alpha in [0.3, 1.0, 5.0] {
                let lb = optimum_lower_bound::<_, crate::SumDistances>(&ps, alpha);
                let opt = exact::exact_social_optimum(&ps, alpha, &SolverConfig::default())
                    .expect_exact("optimum")
                    .social_cost;
                assert!(lb <= opt + 1e-9, "seed {seed} alpha {alpha}: {lb} > {opt}");
            }
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_sound_bounds() {
        // the soundness invariant of the degradation ladder: the
        // certified numbers a degraded report falls back to must bound
        // the true (exact) values from the safe side — β/γ from above,
        // OPT from below — on instances small enough to cross-check
        // against the exact solver
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..3 {
            let n = 6;
            let ps = generators::uniform_unit_square(n, 700 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;

            let truth = certify(
                &ps,
                &net,
                alpha,
                &SolverConfig::exact().with_budget(&gncg_parallel::Budget::unlimited()),
            );
            assert_eq!(truth.beta_regime, crate::Regime::Exact);
            assert_eq!(truth.gamma_regime, crate::Regime::Exact);
            assert!(truth.degrade_reasons.is_empty());

            let dead = gncg_parallel::Budget::unlimited();
            dead.cancel();
            let degraded = certify(&ps, &net, alpha, &SolverConfig::exact().with_budget(&dead));
            assert_eq!(degraded.beta_regime, crate::Regime::Certified);
            assert_eq!(degraded.gamma_regime, crate::Regime::Certified);
            assert!(degraded.beta_exact.is_none() && degraded.gamma_exact.is_none());
            assert_eq!(degraded.degrade_reasons.len(), 2);
            assert!(degraded.degrade_reasons[0].contains("budget exhausted"));

            let beta_true = truth.beta_exact.unwrap();
            let gamma_true = truth.gamma_exact.unwrap();
            let opt_true = truth.opt_exact.unwrap();
            assert!(
                degraded.beta_upper >= beta_true - 1e-9,
                "trial {trial}: certified beta {} under-claims exact {beta_true}",
                degraded.beta_upper
            );
            assert!(
                degraded.gamma_upper >= gamma_true - 1e-9,
                "trial {trial}: certified gamma {} under-claims exact {gamma_true}",
                degraded.gamma_upper
            );
            assert!(
                degraded.opt_lower_bound <= opt_true + 1e-9,
                "trial {trial}: opt lower bound {} over-claims exact {opt_true}",
                degraded.opt_lower_bound
            );
        }
    }

    #[test]
    fn budgeted_solvers_degrade_soundly() {
        let ps = generators::uniform_unit_square(6, 44);
        let mut net = OwnedNetwork::center_star(6, 0);
        net.buy(3, 4);
        let alpha = 1.3;
        let ok = gncg_parallel::Budget::unlimited();
        let dead = gncg_parallel::Budget::unlimited();
        dead.cancel();

        // social optimum: exact within budget, sound lower bound without
        let exact_opt = exact::exact_social_optimum(&ps, alpha, &SolverConfig::default())
            .expect_exact("optimum")
            .social_cost;
        match exact::exact_social_optimum(&ps, alpha, &SolverConfig::default().with_budget(&ok)) {
            crate::Outcome::Exact(o) => assert!((o.social_cost - exact_opt).abs() < 1e-12),
            other => panic!("unlimited budget must stay exact, got {other:?}"),
        }
        match exact::exact_social_optimum(&ps, alpha, &SolverConfig::default().with_budget(&dead)) {
            crate::Outcome::Degraded {
                certified_bound,
                reason,
            } => {
                assert_eq!(reason, crate::DegradeReason::BudgetExhausted);
                assert!(certified_bound <= exact_opt + 1e-9);
                assert!(certified_bound.is_finite());
            }
            other => panic!("dead budget must degrade, got {other:?}"),
        }

        // best response: degraded bound never exceeds the true BR cost
        let br_true =
            best_response::exact_best_response(&ps, &net, alpha, 2, &SolverConfig::default())
                .expect_exact("best response")
                .cost;
        match best_response::exact_best_response(
            &ps,
            &net,
            alpha,
            2,
            &SolverConfig::default().with_budget(&dead),
        ) {
            crate::Outcome::Degraded {
                certified_bound, ..
            } => assert!(certified_bound <= br_true + 1e-9),
            other => panic!("dead budget must degrade, got {other:?}"),
        }

        // beta: degraded bound never undercuts the true beta
        let beta_true = exact::exact_beta_raw::<_, crate::SumDistances>(&ps, &net, alpha);
        match exact::exact_beta(
            &ps,
            &net,
            alpha,
            &SolverConfig::default().with_budget(&dead),
        ) {
            crate::Outcome::Degraded {
                certified_bound, ..
            } => assert!(certified_bound >= beta_true - 1e-9),
            other => panic!("dead budget must degrade, got {other:?}"),
        }
        match exact::exact_beta(&ps, &net, alpha, &SolverConfig::default().with_budget(&ok)) {
            crate::Outcome::Exact(b) => assert!((b - beta_true).abs() < 1e-12),
            other => panic!("unlimited budget must stay exact, got {other:?}"),
        }
    }

    #[test]
    fn oversized_instance_degrades_without_running() {
        // n = 30 is far over both enumeration caps: the budgeted
        // variants must return immediately with TooLarge, not attempt
        // 2^29 work
        let ps = generators::uniform_unit_square(30, 9);
        let net = OwnedNetwork::center_star(30, 0);
        let b = gncg_parallel::Budget::unlimited();
        match exact::exact_beta(&ps, &net, 1.0, &SolverConfig::default().with_budget(&b)) {
            crate::Outcome::Degraded { reason, .. } => {
                assert!(matches!(
                    reason,
                    crate::DegradeReason::InstanceTooLarge { n: 30, .. }
                ));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        match exact::exact_social_optimum(&ps, 1.0, &SolverConfig::default().with_budget(&b)) {
            crate::Outcome::Degraded {
                certified_bound, ..
            } => assert!(certified_bound.is_finite() && certified_bound > 0.0),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn tight_deadline_cancels_cleanly_and_promptly() {
        // a real (non-pre-cancelled) deadline far smaller than the solve:
        // n = 7 means a 2^21-mask optimum search; with ~1 ms of budget it
        // must cancel cooperatively and return quickly
        use std::time::{Duration, Instant};
        let ps = generators::uniform_unit_square(7, 5);
        let budget = gncg_parallel::Budget::with_limit(Duration::from_millis(1));
        let t0 = Instant::now();
        let out =
            exact::exact_social_optimum(&ps, 10.0, &SolverConfig::default().with_budget(&budget));
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "budgeted solve took {elapsed:?}"
        );
        // either it finished inside the millisecond (possible on a fast
        // machine) or it degraded — both are valid; what is not valid is
        // a hang or a panic
        if let crate::Outcome::Degraded { reason, .. } = out {
            assert_eq!(reason, crate::DegradeReason::BudgetExhausted);
        }
    }

    #[test]
    fn complete_network_gamma_bound_matches_theorem_3_5_shape() {
        // Theorem 3.5: K is a (α+1, α/2+1)-network. The certified upper
        // bounds must respect those theoretical caps on metric inputs.
        for seed in 0..3 {
            let ps = generators::uniform_unit_square(12, seed + 50);
            for alpha in [0.5, 1.0, 4.0] {
                let net = OwnedNetwork::complete(12);
                let r = certify(&ps, &net, alpha, &SolverConfig::default());
                assert!(
                    r.beta_upper <= alpha + 1.0 + 1e-9,
                    "beta_upper {} vs alpha+1 {}",
                    r.beta_upper,
                    alpha + 1.0
                );
                assert!(
                    r.gamma_upper <= alpha / 2.0 + 1.0 + 1e-9,
                    "gamma_upper {} vs alpha/2+1 {}",
                    r.gamma_upper,
                    alpha / 2.0 + 1.0
                );
            }
        }
    }

    #[test]
    fn max_model_certify_bounds_are_consistent() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..3 {
            let n = 6;
            let ps = generators::uniform_unit_square(n, 400 + trial);
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            let alpha = 0.5 + rng.gen::<f64>() * 2.0;
            let r = certify(
                &ps,
                &net,
                alpha,
                &SolverConfig::exact().with_model(ModelKind::MaxDistance),
            );
            assert_eq!(r.model, ModelKind::MaxDistance);
            let be = r.beta_exact.unwrap();
            assert!(
                be <= r.beta_upper + 1e-9,
                "trial {trial}: max-model exact beta {be} > upper {}",
                r.beta_upper
            );
            assert!(
                r.beta_witness <= be + 1e-9,
                "trial {trial}: max-model witness {} > exact {be}",
                r.beta_witness
            );
            assert!(r.opt_exact.unwrap() >= r.opt_lower_bound - 1e-9);
            assert!(r.gamma_exact.unwrap() <= r.gamma_upper + 1e-9);
        }
    }

    #[test]
    fn report_json_tags_model_only_when_non_default() {
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        let sum = certify(&ps, &net, 1.0, &SolverConfig::bounds_only());
        let sum_json = gncg_json::to_string(&sum.to_json());
        assert!(
            !sum_json.contains("\"model\""),
            "default-model report must keep the frozen key set: {sum_json}"
        );
        let max = certify(
            &ps,
            &net,
            1.0,
            &SolverConfig::bounds_only().with_model(ModelKind::MaxDistance),
        );
        let max_json = gncg_json::to_string(&max.to_json());
        assert!(
            max_json.contains("\"model\":\"maxdist\""),
            "max-model report must be tagged: {max_json}"
        );
    }
}
