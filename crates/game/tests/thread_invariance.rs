//! Thread-count invariance of the approximate pipeline: the cone
//! spanners (`gncg_spanner::build` for Θ and Yao), `run_approx` and
//! `certify_approx` must give the same answer bit for bit
//!
//! * on one thread (`with_max_threads(1)`, the sequential fallback),
//! * uncapped (the parallel per-vertex scans and per-agent rows), and
//! * uncapped under a cancelled ambient budget — these passes are
//!   documented as non-degrading, so no budget may cut them short,
//!
//! under both cost models, with the 8 deterministic trace counters
//! unchanged. Inputs cover uniform points, a circle (cocircular
//! points), coincident clusters and Yao with 5 cones (no stretch
//! theorem). Trace counters are process-wide, so this file holds a
//! single test.
//!
//! `GNCG_THREADS` defaults to 4 here when unset, so the parallel path
//! runs even on a single-core machine; an explicit setting (the CI
//! `GNCG_THREADS=1` leg) is kept.

use gncg_game::approx::{certify_approx, run_approx, ApproxDynamicsOptions, ApproxDynamicsResult};
use gncg_game::{ModelKind, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use gncg_parallel::{with_budget, with_max_threads, Budget};
use gncg_spanner::{cert, GridIndex, SpannerKind};

/// Everything a pipeline run produces, in comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Spanner edges with weight bits.
    spanner: Vec<(usize, usize, u64)>,
    /// Final strategies after `run_approx`.
    strategies: Vec<Vec<usize>>,
    dynamics: ApproxDynamicsResult,
    /// Every `ApproxCertifyReport` field, floats by `to_bits`.
    report: Vec<(&'static str, u64)>,
    /// Deterministic counter deltas of the whole run.
    counters: Vec<u64>,
}

fn fingerprint(ps: &PointSet, kind: SpannerKind, model: ModelKind) -> Fingerprint {
    let before = gncg_trace::snapshot();
    let n = ps.len();
    let spanner = gncg_spanner::build(ps, kind);
    let mut net = OwnedNetwork::from_distributed(n, &cert::distribute(&spanner));
    let index = GridIndex::with_auto_cell(ps);
    let opts = ApproxDynamicsOptions::default()
        .with_model(model)
        .with_rounds(2);
    let dynamics = run_approx(ps, &mut net, 0.8, &index, opts);
    let r = certify_approx(ps, &net, 0.8, &SolverConfig::default().with_model(model));
    let delta = gncg_trace::snapshot().counters_since(&before);
    Fingerprint {
        spanner: spanner
            .edges()
            .into_iter()
            .map(|(u, v, w)| (u, v, w.to_bits()))
            .collect(),
        strategies: (0..n)
            .map(|u| net.strategy(u).iter().copied().collect())
            .collect(),
        dynamics,
        report: vec![
            ("n", r.n as u64),
            ("alpha", r.alpha.to_bits()),
            ("connected", r.connected as u64),
            ("beta_lo", r.beta_lo.to_bits()),
            ("beta_hi", r.beta_hi.to_bits()),
            ("gamma_lo", r.gamma_lo.to_bits()),
            ("gamma_hi", r.gamma_hi.to_bits()),
            ("social_lo", r.social_lo.to_bits()),
            ("social_hi", r.social_hi.to_bits()),
            ("opt_lower_bound", r.opt_lower_bound.to_bits()),
            ("model", (r.model == ModelKind::MaxDistance) as u64),
        ],
        counters: gncg_trace::DETERMINISTIC_COUNTERS
            .iter()
            .map(|&c| delta[c as usize])
            .collect(),
    }
}

fn inputs() -> Vec<(&'static str, PointSet)> {
    vec![
        ("uniform48", generators::uniform_unit_square(48, 3)),
        ("uniform160", generators::uniform_unit_square(160, 8)),
        ("circle40", generators::circle(40, 2.0)),
        ("clusters12", generators::triangle_clusters(12, 0.0)),
    ]
}

#[test]
fn approx_pipeline_is_thread_count_and_budget_invariant() {
    if std::env::var_os("GNCG_THREADS").is_none() {
        std::env::set_var("GNCG_THREADS", "4");
    }
    gncg_trace::set_enabled(true);
    let dead = Budget::unlimited();
    dead.cancel();
    let kinds = [
        SpannerKind::Theta { cones: 12 },
        SpannerKind::Yao { cones: 12 },
        SpannerKind::Yao { cones: 5 },
    ];
    for (name, ps) in inputs() {
        for kind in kinds {
            for model in [ModelKind::SumDistances, ModelKind::MaxDistance] {
                let ctx = format!("{name} {kind:?} {model:?}");
                let one = with_max_threads(1, || fingerprint(&ps, kind, model));
                assert!(one.counters[0] > 0, "{ctx}: counters off");
                assert!(one.report[2].1 == 1, "{ctx}: start profile disconnected");
                let uncapped = fingerprint(&ps, kind, model);
                assert_eq!(uncapped, one, "{ctx}: uncapped vs one thread");
                let cancelled = with_budget(&dead, || fingerprint(&ps, kind, model));
                assert_eq!(cancelled, one, "{ctx}: cancelled ambient budget");
            }
        }
    }
}
