//! Ablation study for Algorithm 1's design choices (DESIGN.md):
//!
//! * spanner construction (greedy vs Θ vs Yao) inside Algorithm 1,
//! * the cluster parameters `(b, c)` around the Corollary 3.8 choice,
//! * the stretch target `t`,
//! * the combined builder's MST fallback.
//!
//! Prints certified β/γ and network size for each variant.

use gncg_algo::{params::corollary_3_8_params, run_algorithm1, AlgorithmOneParams};
use gncg_game::certify::certify;
use gncg_game::SolverConfig;
use gncg_geometry::generators;
use gncg_spanner::SpannerKind;
use gncg_sweep::harness::run_repro;

fn main() {
    run_repro(
        "ablation",
        "Algorithm 1 ablations: spanner kind, (b, c) sensitivity, stretch target, MST fallback",
        |run, rep| {
            let n = 120;
            let alpha = 3.0;
            let ps = generators::uniform_unit_square(n, 31415);

            // --- spanner kind ---
            for (name, kind) in [
                ("greedy t=1.5", SpannerKind::Greedy { t: 1.5 }),
                ("theta 10", SpannerKind::Theta { cones: 10 }),
                ("yao 10", SpannerKind::Yao { cones: 10 }),
                ("complete", SpannerKind::Complete),
            ] {
                run.unit(rep, &format!("spanner {name}"), |rep| {
                    let params = AlgorithmOneParams {
                        spanner: kind,
                        ..corollary_3_8_params(alpha, n)
                    };
                    let res = run_algorithm1(&ps, alpha, params);
                    let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
                    rep.push(
                        format!(
                            "spanner={name} k={} t={:.2}",
                            res.k_measured, res.t_measured
                        ),
                        r.gamma_upper,
                        r.beta_upper,
                        r.connected,
                        &format!("edges={}", res.network.bought_edges()),
                    );
                });
            }

            // --- (b, c) sensitivity around the Corollary 3.8 choice ---
            let base = corollary_3_8_params(alpha, n);
            for scale in [0.5, 1.0, 2.0, 4.0] {
                run.unit(rep, &format!("bc scale={scale}"), |rep| {
                    let b = (base.b * scale).max(1.0);
                    let c = ((b * b / 2.0).floor() as usize).min(n - 1);
                    let params = AlgorithmOneParams {
                        b,
                        c,
                        spanner: SpannerKind::Greedy { t: 1.5 },
                    };
                    let res = run_algorithm1(&ps, alpha, params);
                    let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
                    // some branches carry no theoretical beta bound: the paper
                    // column is then legitimately absent, not NaN
                    rep.try_push(
                        format!("b={b:.2} c={c} ({}x cor38)", scale),
                        res.beta_bound,
                        Some(r.beta_upper),
                        r.connected,
                        &format!("branch={:?}", res.branch),
                    )
                    .unwrap_or_else(|e| panic!("{e}"));
                });
            }

            // --- stretch target ---
            for t in [1.1, 1.5, 2.0, 3.0] {
                run.unit(rep, &format!("stretch t={t}"), |rep| {
                    let params = AlgorithmOneParams {
                        spanner: SpannerKind::Greedy { t },
                        ..base
                    };
                    let res = run_algorithm1(&ps, alpha, params);
                    let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
                    rep.push(
                        format!("t={t}"),
                        r.gamma_upper,
                        r.beta_upper,
                        r.connected,
                        &format!("edges={} k={}", res.network.bought_edges(), res.k_measured),
                    );
                });
            }

            // --- MST fallback value across alpha ---
            for a in [1.0, 100.0, 10_000.0] {
                run.unit(rep, &format!("combined alpha={a}"), |rep| {
                    let res = gncg_algo::combined::combined_network(&ps, a);
                    rep.push(
                        format!("combined alpha={a}"),
                        res.alg1_beta_upper,
                        res.mst_beta_upper,
                        true,
                        &format!("selected={:?}", res.selected),
                    );
                });
            }
        },
    );
}
