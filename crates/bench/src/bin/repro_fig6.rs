//! Regenerate **Figure 6 / Theorem 4.1**: the cross-polytope-plus-apex
//! instance whose apex star is a Nash equilibrium with social cost
//! approaching `min{(α+1)/√2, (α²+2α+2)/(2α+2)}` times the optimum as
//! `d → ∞`.

use gncg_game::best_response::ResponseEvaluator;
use gncg_game::{cost, exact, instances, moves, SumDistances};
use gncg_sweep::harness::run_repro;

fn main() {
    let rep = run_repro(
        "fig6",
        "Figure 6/Theorem 4.1: apex star is a NE; PoA ratio approaches min{(a+1)/sqrt(2), (a^2+2a+2)/(2a+2)} as d grows",
        |run, rep| {

    for &alpha in &[1.0, 2.0, 5.0] {
        // one unit per alpha: exact NE checks dominate the cost
        run.unit(rep, &format!("alpha={alpha}"), |rep| {
            // exact NE verification at small d (n = 2d <= 12 agents)
            for d in [3usize, 5] {
                let (ps, ne, _) = instances::cross_polytope(d, alpha);
                let is_ne = exact::is_nash::<_, SumDistances>(&ps, &ne, alpha);
                rep.push(
                    format!("alpha={alpha} d={d} exact NE"),
                    1.0,
                    if is_ne { 1.0 } else { 0.0 },
                    is_ne,
                    "apex star verified as exact Nash equilibrium",
                );
            }
            // local-search stability witness at larger d
            for d in [20usize, 60] {
                let (ps, ne, _) = instances::cross_polytope(d, alpha);
                let witness = (0..ps.len())
                    .map(|u| {
                        let eval = ResponseEvaluator::new(&ps, &ne, u);
                        let now = cost::agent_cost::<_, SumDistances>(&ps, &ne, alpha, u);
                        moves::witness_improvement_factor::<SumDistances>(&eval, &ne, alpha, now)
                    })
                    .fold(1.0f64, f64::max);
                rep.push(
                    format!("alpha={alpha} d={d} witness"),
                    1.0,
                    witness,
                    witness <= 1.0 + 1e-6,
                    "no single-move improvement at larger d",
                );
            }
            // the PoA ratio climbs towards the bound as d grows
            let bound = instances::theorem_4_1_bound(alpha);
            let mut last = 0.0;
            let mut increasing = true;
            for d in [5usize, 20, 100, 400] {
                let ratio = instances::cross_ne_social_cost(d, alpha)
                    / instances::cross_opt_social_cost(d, alpha);
                if ratio < last - 1e-12 {
                    increasing = false;
                }
                last = ratio;
                rep.push(
                    format!("alpha={alpha} d={d} ratio"),
                    bound,
                    ratio,
                    ratio <= bound + 1e-9,
                    "SC(NE)/SC(OPT), closed forms (cross-checked vs engine in tests)",
                );
            }
            rep.push(
                format!("alpha={alpha} limit check"),
                bound,
                last,
                increasing && (bound - last) / bound < 0.02,
                "ratio increasing in d and within 2% of the d->inf bound",
            );
            // engine cross-check at moderate d
            let d = 20;
            let (ps, ne, opt) = instances::cross_polytope(d, alpha);
            let engine_ratio =
                cost::social_cost::<_, SumDistances>(&ps, &ne, alpha) / cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
            let formula_ratio = instances::cross_ne_social_cost(d, alpha)
                / instances::cross_opt_social_cost(d, alpha);
            rep.push(
                format!("alpha={alpha} d={d} engine-vs-formula"),
                formula_ratio,
                engine_ratio,
                (engine_ratio - formula_ratio).abs() < 1e-6 * formula_ratio,
                "measured social-cost ratio equals paper's closed form",
            );
        });
    }

        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
