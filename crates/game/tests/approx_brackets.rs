//! Oracle sweep for the spanner-backed certification brackets.
//!
//! `gncg_game::approx::certify_approx` claims its β/γ/social brackets
//! *contain* the exact backend's certified figures
//! (`CertifyReport::beta_upper` / `gamma_upper` / `social_cost`) — a
//! soundness property, not a closeness one, so it must hold on every
//! instance: both cost models, all three general-position spanner
//! constructions, every `LoMode`, dense and sparse α regimes, and
//! disconnected profiles (where the exact figures are infinite and the
//! `hi` ends must follow them to ∞).
//!
//! At `n ≤ 128` the exact certifier is cheap, so the sweep
//! cross-checks every bracket against it directly. Case count scales
//! with `PROPTEST_CASES` (default 48; CI runs 512, the nightly soak
//! 4096); `GNCG_MODEL` narrows the sweep to one model like the other
//! oracle harnesses.

use gncg_config::ModelKind;
use gncg_game::approx::{certify_approx_tuned, ApproxCertifyOptions, LoMode};
use gncg_game::certify::certify;
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_spanner::SpannerKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn models() -> Vec<ModelKind> {
    match gncg_config::env::model().unwrap_or_else(|e| panic!("{e}")) {
        Some(kind) => vec![kind],
        None => vec![ModelKind::SumDistances, ModelKind::MaxDistance],
    }
}

fn pick_alpha(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0.01..0.5),
        1 => 1.0,
        2 => rng.gen_range(1.0..4.0),
        _ => rng.gen_range(8.0..64.0),
    }
}

fn random_network(rng: &mut StdRng, n: usize) -> OwnedNetwork {
    match rng.gen_range(0..8) {
        0 => OwnedNetwork::empty(n),
        1 => OwnedNetwork::center_star(n, rng.gen_range(0..n)),
        _ => {
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            for _ in 0..rng.gen_range(0..n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && !net.strategy(a).contains(&b) && !net.strategy(b).contains(&a) {
                    net.buy(a, b);
                }
            }
            net
        }
    }
}

fn pick_spanner(rng: &mut StdRng) -> SpannerKind {
    match rng.gen_range(0..3) {
        0 => SpannerKind::Greedy { t: 1.5 },
        1 => SpannerKind::Theta { cones: 12 },
        _ => SpannerKind::Yao { cones: 12 },
    }
}

fn pick_lo_mode(rng: &mut StdRng) -> LoMode {
    match rng.gen_range(0..3) {
        0 => LoMode::Auto,
        1 => LoMode::UnionRows,
        _ => LoMode::MetricFloor,
    }
}

/// `lo ≤ x ≤ hi` with infinities handled the way the report promises:
/// an infinite exact figure forces an infinite `hi`.
fn assert_bracketed(lo: f64, x: f64, hi: f64, what: &str, ctx: &str) {
    assert!(
        lo <= x && x <= hi,
        "{ctx}: {what} bracket [{lo}, {hi}] misses exact {x}"
    );
}

fn bracket_sweep_model(model: ModelKind, seed_base: u64, cases: u64) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        // small cases keep the exact certifier fast; a sprinkling of
        // larger ones exercises the pivot recombination at real sizes
        let n = if case % 5 == 0 {
            rng.gen_range(64..129)
        } else {
            rng.gen_range(4..33)
        };
        let ps = gncg_geometry::generators::uniform_unit_square(n, rng.gen());
        let net = random_network(&mut rng, n);
        let alpha = pick_alpha(&mut rng);
        let spanner = pick_spanner(&mut rng);
        let lo_mode = pick_lo_mode(&mut rng);
        let pivots = rng.gen_range(1..12);
        let ctx = format!(
            "case {case} (model {model:?}, n {n}, alpha {alpha}, {spanner:?}, {lo_mode:?}, \
             pivots {pivots})"
        );

        let exact = certify(
            &ps,
            &net,
            alpha,
            &SolverConfig::bounds_only().with_model(model),
        );
        let approx = certify_approx_tuned(
            &ps,
            &net,
            alpha,
            ApproxCertifyOptions::default()
                .with_model(model)
                .with_spanner(spanner)
                .with_lo_mode(lo_mode)
                .with_pivots(pivots),
        );

        assert_eq!(approx.n, exact.n);
        assert_eq!(approx.connected, exact.connected);
        assert_eq!(approx.model, model);
        // the optimum lower bound is shared verbatim with the exact
        // backend — same code path, same bits
        assert_eq!(
            approx.opt_lower_bound.to_bits(),
            exact.opt_lower_bound.to_bits(),
            "{ctx}: opt lower bound diverged"
        );
        assert_bracketed(
            approx.beta_lo,
            exact.beta_upper,
            approx.beta_hi,
            "beta",
            &ctx,
        );
        assert_bracketed(
            approx.gamma_lo,
            exact.gamma_upper,
            approx.gamma_hi,
            "gamma",
            &ctx,
        );
        assert_bracketed(
            approx.social_lo,
            exact.social_cost,
            approx.social_hi,
            "social",
            &ctx,
        );
        assert!(approx.beta_lo >= 1.0, "{ctx}: beta_lo below the floor");
        assert!(
            approx.spanner_stretch >= 1.0 - 1e-12,
            "{ctx}: stretch certificate {} below 1",
            approx.spanner_stretch
        );
        if !exact.connected {
            assert!(
                approx.beta_hi.is_infinite() && approx.social_hi.is_infinite(),
                "{ctx}: disconnected instance must push the hi bars to ∞"
            );
        }
    }
}

#[test]
fn brackets_contain_exact_certified_figures() {
    let cases = cases();
    for model in models() {
        bracket_sweep_model(model, 0x5eed_000a, cases);
    }
}

#[test]
fn brackets_hold_on_degenerate_geometries() {
    // collinear and coincident points break general position for the
    // cone constructions' angular sweeps and push many metric lower
    // bounds to zero — the ratio edge cases (`den = 0`) must stay
    // bracketed
    for model in models() {
        for (label, ps) in [
            ("line", gncg_geometry::generators::line(24, 23.0)),
            (
                "coincident",
                gncg_geometry::PointSet::new(vec![gncg_geometry::Point::new(vec![0.5, 0.5]); 12]),
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(0x5eed_000b);
            let n = ps.len();
            for trial in 0..6 {
                let net = random_network(&mut rng, n);
                let alpha = pick_alpha(&mut rng);
                let ctx = format!("{label} trial {trial} (model {model:?}, alpha {alpha})");
                let exact = certify(
                    &ps,
                    &net,
                    alpha,
                    &SolverConfig::bounds_only().with_model(model),
                );
                // the greedy spanner tolerates degenerate geometry in
                // any dimension; cone constructions assume general
                // position, so they are not swept here
                let approx = certify_approx_tuned(
                    &ps,
                    &net,
                    alpha,
                    ApproxCertifyOptions::default()
                        .with_model(model)
                        .with_spanner(SpannerKind::Greedy { t: 1.5 })
                        .with_lo_mode(pick_lo_mode(&mut rng)),
                );
                assert_bracketed(
                    approx.beta_lo,
                    exact.beta_upper,
                    approx.beta_hi,
                    "beta",
                    &ctx,
                );
                assert_bracketed(
                    approx.gamma_lo,
                    exact.gamma_upper,
                    approx.gamma_hi,
                    "gamma",
                    &ctx,
                );
                assert_bracketed(
                    approx.social_lo,
                    exact.social_cost,
                    approx.social_hi,
                    "social",
                    &ctx,
                );
            }
        }
    }
}
