//! Oracle sweep for the bracketed certifier.
//!
//! [`super::certify_approx`] claims its β/γ/social brackets *contain*
//! the exact backend's certified figures (`CertifyReport::beta_upper`
//! / `gamma_upper` / `social_cost`) — a soundness property, not a
//! closeness one, so it must hold on every instance: both cost models,
//! both sides (the exact rows and the metric floor with pivot rows) at
//! every size, dense and sparse α regimes, degenerate geometries, and
//! disconnected profiles (where the exact figures are infinite and the
//! `hi` ends must follow them to ∞). On the exact-rows side, the one
//! [`super::certify_approx`] takes up to `EXACT_ROWS_CAP`, every
//! bracket end must *equal* the exact figure bit for bit. The sweep
//! calls the private generic body, so it pins the side that
//! [`super::certify_approx`] itself picks by size.
//!
//! At `n ≤ 128` the exact certifier is cheap, so the sweep
//! cross-checks every bracket against it directly. Case count scales
//! with `PROPTEST_CASES` (default 48; CI runs 512, the nightly soak
//! 4096); `GNCG_MODEL` narrows the sweep to one model like the other
//! oracle harnesses. Run it alone with
//! `cargo test --release -p gncg-game --lib approx::bracket_oracle`.

use super::{certify_approx_generic, DEFAULT_PIVOTS, EXACT_ROWS_CAP};
use crate::certify::certify;
use crate::{ModelKind, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
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

/// The side: a third of the draws take the production rule
/// (`n ≤ EXACT_ROWS_CAP`), the rest pin the exact rows or the metric
/// floor with pivot rows.
fn pick_exact_rows(rng: &mut StdRng, n: usize) -> bool {
    match rng.gen_range(0..3) {
        0 => n <= EXACT_ROWS_CAP,
        1 => true,
        _ => false,
    }
}

/// Certify one instance both ways and check every claim the bracketed
/// report makes about the exact one: containment on both sides, and
/// bit equality on the exact-rows side.
fn check_case(
    ps: &PointSet,
    net: &OwnedNetwork,
    alpha: f64,
    model: ModelKind,
    pivots: usize,
    exact_rows: bool,
    ctx: &str,
) {
    let exact = certify(
        ps,
        net,
        alpha,
        &SolverConfig::bounds_only().with_model(model),
    );
    let approx = crate::dispatch_model!(model, M, {
        certify_approx_generic::<M>(ps, net, alpha, pivots, exact_rows)
    });

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
    let brackets = [
        ("beta", approx.beta_lo, exact.beta_upper, approx.beta_hi),
        ("gamma", approx.gamma_lo, exact.gamma_upper, approx.gamma_hi),
        (
            "social",
            approx.social_lo,
            exact.social_cost,
            approx.social_hi,
        ),
    ];
    for (what, lo, x, hi) in brackets {
        assert!(
            lo <= x && x <= hi,
            "{ctx}: {what} bracket [{lo}, {hi}] misses exact {x}"
        );
        if exact_rows {
            assert_eq!(
                (lo.to_bits(), hi.to_bits()),
                (x.to_bits(), x.to_bits()),
                "{ctx}: {what} bracket [{lo}, {hi}] is not the exact {x}"
            );
        }
    }
    assert!(approx.beta_lo >= 1.0, "{ctx}: beta_lo below the floor");
    if !exact.connected {
        assert!(
            approx.beta_hi.is_infinite() && approx.social_hi.is_infinite(),
            "{ctx}: disconnected instance must push the hi bars to ∞"
        );
    }
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
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_network(&mut rng, n);
        let alpha = pick_alpha(&mut rng);
        let exact_rows = pick_exact_rows(&mut rng, n);
        let pivots = rng.gen_range(1..12);
        let ctx = format!(
            "case {case} (model {model:?}, n {n}, alpha {alpha}, \
             exact_rows {exact_rows}, pivots {pivots})"
        );
        check_case(&ps, &net, alpha, model, pivots, exact_rows, &ctx);
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
fn brackets_contain_certified_values_on_default_backend() {
    // the exact backend's pivot count on fixed sparse trees, both
    // sides each
    for seed in 0..3u64 {
        let n = 24;
        let ps = generators::uniform_unit_square(n, seed + 30);
        let net = super::tests::random_net(n, seed);
        let alpha = 0.4 + seed as f64;
        for exact_rows in [true, false] {
            let ctx = format!("seed {seed} exact_rows {exact_rows}");
            let model = ModelKind::SumDistances;
            check_case(&ps, &net, alpha, model, DEFAULT_PIVOTS, exact_rows, &ctx);
        }
    }
}

#[test]
fn brackets_hold_on_degenerate_geometries() {
    // collinear and coincident points push many metric lower bounds to
    // zero — the ratio edge cases (`den = 0`) must stay bracketed
    for model in models() {
        for (label, ps) in [
            ("line", generators::line(24, 23.0)),
            (
                "coincident",
                PointSet::new(vec![gncg_geometry::Point::new(vec![0.5, 0.5]); 12]),
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(0x5eed_000b);
            let n = ps.len();
            for trial in 0..6 {
                let net = random_network(&mut rng, n);
                let alpha = pick_alpha(&mut rng);
                let ctx = format!("{label} trial {trial} (model {model:?}, alpha {alpha})");
                let exact_rows = pick_exact_rows(&mut rng, n);
                check_case(&ps, &net, alpha, model, DEFAULT_PIVOTS, exact_rows, &ctx);
            }
        }
    }
}
