//! Max-distance cost-model smoke: deterministic sanity rows for the
//! `GNCG_MODEL=maxdist` objective (α·buy + max_v d(u,v)).
//!
//! The source paper studies the sum-of-distances objective only, so no
//! row here references a paper constant; every expectation is a closed
//! form on a hand-picked instance (collinear points, two-point edges)
//! or an internal-consistency identity (pruned engine vs unpruned
//! engine, exact values vs certified bounds). Rows are deterministic:
//! fixed seeds, no budget- or thread-count-sensitive quantities.

use gncg_game::certify::certify;
use gncg_game::prune::oracle;
use gncg_game::{
    best_response, dynamics, exact, GameSpec, MaxDistance, ModelKind, OwnedNetwork, SolverConfig,
};
use gncg_geometry::generators;
use gncg_sweep::harness::run_repro;

fn main() {
    let rep = run_repro(
        "maxdist_smoke",
        "Max-distance cost model: closed-form and consistency checks (GNCG_MODEL=maxdist)",
        |run, rep| {
            let opts = || SolverConfig::default().with_model(ModelKind::MaxDistance);

            run.unit(rep, "line eccentricity floor", |rep| {
                // points at 0,1,2,3: per-agent eccentricity floor is
                // (3,2,2,3); with alpha -> 0 the optimum reaches it
                let ps = generators::line(4, 3.0);
                let alpha = 1e-6;
                let opt = exact::exact_social_optimum(&ps, alpha, &opts())
                    .expect_exact("maxdist optimum");
                let dist_part = opt.social_cost - alpha * opt.graph.total_weight();
                rep.push(
                    "line n=4 len=3 alpha=1e-6".into(),
                    10.0,
                    dist_part,
                    (dist_part - 10.0).abs() < 1e-9,
                    "optimum distance part vs eccentricity floor sum",
                );
            });

            run.unit(rep, "two-point equilibrium", |rep| {
                let ps = generators::line(2, 1.0);
                let mut net = OwnedNetwork::empty(2);
                net.buy(0, 1);
                let is_ne = exact::is_nash::<_, MaxDistance>(&ps, &net, 1.0);
                let beta = exact::exact_beta(&ps, &net, 1.0, &opts()).expect_exact("beta");
                rep.push(
                    "single edge n=2 alpha=1".into(),
                    1.0,
                    beta,
                    is_ne && (beta - 1.0).abs() < 1e-9,
                    "a bought edge between two points is exactly stable",
                );
            });

            run.unit(rep, "pruned engine bit-identity", |rep| {
                // the geometric pruning layer must be invisible under
                // the max model too: same argmin, same bits
                let mut identical = 0u64;
                let total = 18u64;
                for seed in 0..3u64 {
                    let ps = generators::uniform_unit_square(6, 9_000 + seed);
                    let net = OwnedNetwork::center_star(6, 0);
                    for u in 0..6 {
                        let eval = best_response::ResponseEvaluator::new(&ps, &net, u);
                        let on = eval.best_response::<MaxDistance>(1.5);
                        let off = oracle::best_response::<MaxDistance>(&eval, 1.5);
                        if on.cost.to_bits() == off.cost.to_bits() && on.strategy == off.strategy {
                            identical += 1;
                        }
                    }
                }
                rep.push(
                    "6 agents x 3 seeds, alpha=1.5".into(),
                    total as f64,
                    identical as f64,
                    identical == total,
                    "pruned vs unpruned max-model best responses (bit compare)",
                );
            });

            run.unit(rep, "certified bounds bracket exact values", |rep| {
                let ps = generators::uniform_unit_square(6, 77);
                let net = OwnedNetwork::center_star(6, 0);
                let r = certify(
                    &ps,
                    &net,
                    1.5,
                    &SolverConfig::exact().with_model(ModelKind::MaxDistance),
                );
                let beta_ok = r
                    .beta_exact
                    .is_some_and(|b| r.beta_witness <= b + 1e-9 && b <= r.beta_upper + 1e-9);
                let gamma_ok = r
                    .gamma_exact
                    .is_some_and(|g| 1.0 - 1e-9 <= g && g <= r.gamma_upper + 1e-9);
                rep.push_unreferenced(
                    "star n=6 alpha=1.5".into(),
                    r.beta_exact.unwrap_or(f64::NAN),
                    beta_ok && gamma_ok && r.model == ModelKind::MaxDistance,
                    &format!(
                        "witness<=beta<=upper and 1<=gamma<=upper (beta_upper={:.6})",
                        r.beta_upper
                    ),
                );
            });

            run.unit(rep, "bilateral dynamics converge", |rep| {
                let ps = generators::uniform_unit_square(5, 12);
                let start = OwnedNetwork::center_star(5, 0);
                let out = dynamics::run_spec(
                    &ps,
                    &start,
                    1.0,
                    dynamics::ResponseRule::BestResponse,
                    dynamics::AgentOrder::RoundRobin,
                    400,
                    &SolverConfig::from(GameSpec::bilateral(ModelKind::MaxDistance)),
                );
                let (converged, steps) = match out {
                    dynamics::Outcome::Converged { steps, .. } => (true, steps as f64),
                    _ => (false, f64::NAN),
                };
                rep.push_unreferenced(
                    "n=5 alpha=1 bilateral maxdist".into(),
                    steps,
                    converged,
                    "consent-filtered best-response dynamics reach a stable state",
                );
            });
        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
