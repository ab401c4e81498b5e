//! Oracle sweep for the spanner-backed certification brackets.
//!
//! [`super::certify_approx`] claims its β/γ/social brackets *contain*
//! the exact backend's certified figures (`CertifyReport::beta_upper`
//! / `gamma_upper` / `social_cost`) — a soundness property, not a
//! closeness one, so it must hold on every instance: both cost models,
//! all three general-position spanner constructions, both lower-bound
//! sides (union rows and metric floor) at every size, dense and sparse
//! α regimes, and disconnected profiles (where the exact figures are
//! infinite and the `hi` ends must follow them to ∞). The sweep calls
//! the private generic body, so it pins the lower-bound side that
//! [`super::certify_approx`] itself picks by size.
//!
//! At `n ≤ 128` the exact certifier is cheap, so the sweep
//! cross-checks every bracket against it directly. Case count scales
//! with `PROPTEST_CASES` (default 48; CI runs 512, the nightly soak
//! 4096); `GNCG_MODEL` narrows the sweep to one model like the other
//! oracle harnesses. Run it alone with
//! `cargo test --release -p gncg-game --lib approx::bracket_oracle`.

use super::{
    certify_approx_generic, ApproxCertifyReport, DEFAULT_PIVOTS, DEFAULT_SPANNER, UNION_ROWS_CAP,
};
use crate::certify::certify;
use crate::{ModelKind, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
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

/// The lower-bound side: a third of the draws take the production rule
/// (`n ≤ UNION_ROWS_CAP`), the rest pin union rows or the metric floor.
fn pick_union_rows(rng: &mut StdRng, n: usize) -> bool {
    match rng.gen_range(0..3) {
        0 => n <= UNION_ROWS_CAP,
        1 => true,
        _ => false,
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

/// Certify one instance both ways, check every claim the bracketed
/// report makes about the exact one, and return the bracketed report.
#[allow(clippy::too_many_arguments)]
fn check_case(
    ps: &PointSet,
    net: &OwnedNetwork,
    alpha: f64,
    model: ModelKind,
    spanner: SpannerKind,
    pivots: usize,
    union_rows: bool,
    ctx: &str,
) -> ApproxCertifyReport {
    let exact = certify(
        ps,
        net,
        alpha,
        &SolverConfig::bounds_only().with_model(model),
    );
    let approx = crate::dispatch_model!(model, M, {
        certify_approx_generic::<M>(ps, net, alpha, spanner, pivots, union_rows)
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
    assert_bracketed(
        approx.beta_lo,
        exact.beta_upper,
        approx.beta_hi,
        "beta",
        ctx,
    );
    assert_bracketed(
        approx.gamma_lo,
        exact.gamma_upper,
        approx.gamma_hi,
        "gamma",
        ctx,
    );
    assert_bracketed(
        approx.social_lo,
        exact.social_cost,
        approx.social_hi,
        "social",
        ctx,
    );
    assert!(approx.beta_lo >= 1.0, "{ctx}: beta_lo below the floor");
    // the report states the construction's theorem, not a measurement
    assert_eq!(
        approx.spanner_stretch.to_bits(),
        spanner.proven_stretch(ps).to_bits(),
        "{ctx}: reported stretch is not the proven bound"
    );
    assert!(approx.spanner_stretch >= 1.0, "{ctx}: stretch below 1");
    if !exact.connected {
        assert!(
            approx.beta_hi.is_infinite() && approx.social_hi.is_infinite(),
            "{ctx}: disconnected instance must push the hi bars to ∞"
        );
    }
    approx
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
        let spanner = pick_spanner(&mut rng);
        let union_rows = pick_union_rows(&mut rng, n);
        let pivots = rng.gen_range(1..12);
        let ctx = format!(
            "case {case} (model {model:?}, n {n}, alpha {alpha}, {spanner:?}, \
             union_rows {union_rows}, pivots {pivots})"
        );
        check_case(&ps, &net, alpha, model, spanner, pivots, union_rows, &ctx);
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
    // the exact backend's spanner and pivots on fixed sparse trees,
    // both lower-bound sides each
    for seed in 0..3u64 {
        let n = 24;
        let ps = generators::uniform_unit_square(n, seed + 30);
        let net = super::tests::random_net(n, seed);
        let alpha = 0.4 + seed as f64;
        for union_rows in [true, false] {
            let ctx = format!("seed {seed} union_rows {union_rows}");
            let r = check_case(
                &ps,
                &net,
                alpha,
                ModelKind::SumDistances,
                DEFAULT_SPANNER,
                DEFAULT_PIVOTS,
                union_rows,
                &ctx,
            );
            assert!(r.spanner_stretch.is_finite(), "{ctx}");
        }
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
                // the greedy spanner tolerates degenerate geometry in
                // any dimension; cone constructions assume general
                // position, so they are not swept here
                let union_rows = pick_union_rows(&mut rng, n);
                check_case(
                    &ps,
                    &net,
                    alpha,
                    model,
                    SpannerKind::Greedy { t: 1.5 },
                    DEFAULT_PIVOTS,
                    union_rows,
                    &ctx,
                );
            }
        }
    }
}
