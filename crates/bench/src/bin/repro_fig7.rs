//! Regenerate **Figure 7 / Theorem 4.3 / Lemma 4.2**: the geometric
//! chain in ℝ¹ whose star equilibrium forces a PoA of at least
//! `(3/5)·α^{2/3} − o(α^{2/3})`.

use gncg_game::best_response::ResponseEvaluator;
use gncg_game::{cost, exact, instances, moves, SumDistances};
use gncg_sweep::harness::run_repro;
use gncg_sweep::log_log_slope;

fn main() {
    let rep = run_repro(
        "fig7",
        "Figure 7/Theorem 4.3/Lemma 4.2: 1-D geometric chain gives PoA >= (3/5)alpha^{2/3} - o(.)",
        |run, rep| {
            // Lemma 4.2: the closed-form identity (also unit-tested)
            for &(n, alpha) in &[(10usize, 3.0), (25, 7.0), (40, 100.0)] {
                let l = instances::lemma_4_2_lhs(n, alpha);
                let r = instances::lemma_4_2_rhs(n, alpha);
                rep.push(
                    format!("lemma n={n} alpha={alpha}"),
                    r,
                    l,
                    (l - r).abs() <= 1e-9 * l.abs().max(1.0),
                    "Lemma 4.2 identity",
                );
            }

            // exact NE verification of the star at p0 for small chains — the
            // exponential part of this figure, one checkpointed unit per chain
            for &(n, alpha) in &[(8usize, 4.0), (12, 8.0)] {
                run.unit(rep, &format!("exact_ne n={n} alpha={alpha}"), |rep| {
                    let (ps, ne, _) = instances::chain(n, alpha);
                    let is_ne = exact::is_nash::<_, SumDistances>(&ps, &ne, alpha);
                    rep.push(
                        format!("n={n} alpha={alpha} exact NE"),
                        1.0,
                        if is_ne { 1.0 } else { 0.0 },
                        is_ne,
                        "star at p0 verified as exact NE",
                    );
                });
            }

            // engine vs closed-form social costs
            for &(n, alpha) in &[(10usize, 4.0), (20, 16.0)] {
                let (ps, ne, opt) = instances::chain(n, alpha);
                let e_ne = cost::social_cost::<_, SumDistances>(&ps, &ne, alpha);
                let f_ne = instances::chain_ne_social_cost(n, alpha);
                let e_opt = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
                let f_opt = instances::chain_opt_social_cost(n, alpha);
                rep.push(
                    format!("n={n} alpha={alpha} SC(NE)"),
                    f_ne,
                    e_ne,
                    (e_ne - f_ne).abs() < 1e-6 * f_ne,
                    "engine matches closed form",
                );
                rep.push(
                    format!("n={n} alpha={alpha} SC(OPT)"),
                    f_opt,
                    e_opt,
                    (e_opt - f_opt).abs() < 1e-6 * f_opt,
                    "engine matches closed form",
                );
            }

            // witness stability at the paper's n = alpha^{2/3} scaling, larger
            // alphas (exact NE check is exponential, use local-search witness)
            for &alpha in &[64.0f64, 216.0] {
                run.unit(rep, &format!("witness alpha={alpha}"), |rep| {
                    let n = alpha.powf(2.0 / 3.0).round() as usize;
                    let (ps, ne, _) = instances::chain(n, alpha);
                    let witness = (0..ps.len())
                        .map(|u| {
                            let eval = ResponseEvaluator::new(&ps, &ne, u);
                            let now = cost::agent_cost::<_, SumDistances>(&ps, &ne, alpha, u);
                            moves::witness_improvement_factor::<SumDistances>(
                                &eval, &ne, alpha, now,
                            )
                        })
                        .fold(1.0f64, f64::max);
                    rep.push(
                        format!("alpha={alpha} n={n} witness"),
                        1.0,
                        witness,
                        witness <= 1.0 + 1e-6,
                        "no single-move improvement against the star NE",
                    );
                });
            }

            // PoA growth: ratio at n = alpha^{2/3} vs (3/5)alpha^{2/3}
            let mut pts = Vec::new();
            for &alpha in &[64.0f64, 216.0, 512.0, 1000.0, 4096.0, 32768.0] {
                let n = alpha.powf(2.0 / 3.0).round() as usize;
                let ratio = instances::chain_ne_social_cost(n, alpha)
                    / instances::chain_opt_social_cost(n, alpha);
                let bound = instances::theorem_4_3_bound(alpha);
                pts.push((alpha, ratio));
                rep.push(
                    format!("alpha={alpha} n={n} PoA sample"),
                    bound,
                    ratio,
                    ratio >= 0.9 * bound,
                    "SC(NE)/SC(OPT) vs (3/5)alpha^{2/3} (asymptotic)",
                );
            }
            match log_log_slope(&pts) {
                Ok(slope) => rep.push(
                    "growth exponent (log-log fit)".into(),
                    2.0 / 3.0,
                    slope,
                    (slope - 2.0 / 3.0).abs() < 0.06,
                    "PoA grows as alpha^{2/3}",
                ),
                Err(e) => rep.push_degenerate(
                    "growth exponent (log-log fit)".into(),
                    false,
                    &format!("slope fit failed: {e}"),
                ),
            }
        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
