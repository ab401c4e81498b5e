//! Regenerate **Figure 5 / Lemma 3.11 / Theorem 3.12**: the quadrant
//! partition of the unit square concentrates points, which lets
//! Algorithm 1 build a (1+ε, 1+ε)-network for random instances with
//! α ∈ o(n).

use gncg_algo::random_points::{build_one_plus_eps, lemma_3_11_bound, quarter_square_counts};
use gncg_game::certify::certify;
use gncg_game::SolverConfig;
use gncg_geometry::generators;
use gncg_sweep::harness::run_repro;

fn main() {
    let rep = run_repro(
        "fig5",
        "Figure 5/Lemma 3.11/Thm 3.12: quarter-square concentration and (1+eps,1+eps)-networks on random points",
        |run, rep| {

    // Lemma 3.11: empirical violation rate of the quarter-square bound
    let delta = 0.5;
    for n in [200usize, 800, 3200] {
        run.unit(rep, &format!("lemma311 n={n}"), |rep| {
            let trials = 50u64;
            let mut violations = 0;
            for seed in 0..trials {
                let ps = generators::uniform_unit_square(n, 31_000 + seed);
                let counts = quarter_square_counts(&ps);
                let floor = ((1.0 - delta) * n as f64 / 16.0).floor() as usize;
                if counts.iter().any(|&c| c < floor) {
                    violations += 1;
                }
            }
            let bound = lemma_3_11_bound(n, delta).min(1.0);
            let frac = violations as f64 / trials as f64;
            rep.push(
                format!("n={n} delta={delta} trials={trials}"),
                bound,
                frac,
                frac <= bound + 0.05,
                "P(some quarter-square below (1-delta)n/16)",
            );
        });
    }

    // Theorem 3.12: certified beta of the (1+eps)-construction shrinks
    // towards 1+eps as n grows with alpha fixed (alpha in o(n))
    let eps = 0.5;
    let alpha = 0.25;
    for n in [150usize, 300, 450] {
        run.unit(rep, &format!("thm312 n={n}"), |rep| {
            let ps = generators::uniform_unit_square(n, 77_000 + n as u64);
            let res = build_one_plus_eps(&ps, alpha, eps, 8);
            let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
            rep.push(
                format!("n={n} alpha={alpha} eps={eps} branch={:?}", res.branch),
                1.0 + eps,
                r.beta_upper,
                r.connected && r.beta_upper.is_finite(),
                "certified beta_ub of Thm 3.12 construction (loose bound)",
            );
        });
    }

    // witness-level stability: local-search witness should be ~1+eps or
    // less on a moderate instance (no agent provably improves by more)
    run.unit(rep, "witness n=200", |rep| {
        let n = 200;
        let ps = generators::uniform_unit_square(n, 5150);
        let res = build_one_plus_eps(&ps, alpha, eps, 8);
        let r = certify(&ps, &res.network, alpha, &SolverConfig::default());
        rep.push(
            format!("n={n} witness"),
            1.0 + eps,
            r.beta_witness,
            r.beta_witness <= 1.0 + eps + 1e-6,
            "local-search instability witness <= 1+eps",
        );
    });

        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
