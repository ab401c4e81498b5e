//! First integration tests for `gncg-spanner`: every construction's
//! measured certificate ([`gncg_spanner::cert::certify`]) is validated
//! against an independent brute-force stretch computation (Floyd–
//! Warshall over the explicit edge list, written here from scratch so it
//! shares no code with the Dijkstra-based `gncg_graph::stretch`), and
//! against the constructions' theoretical guarantees:
//!
//! * Θ-graph: stretch ≤ `theta_stretch_bound(cones)` for cones ≥ 9,
//! * Yao graph: stretch ≤ `yao_stretch_bound(cones)` for cones ≥ 7,
//! * greedy spanner: stretch ≤ t by construction,
//! * grid spanner: stretch ≤ √d on full integer boxes,
//! * ownership: `distribute` covers each edge exactly once and respects
//!   the certified `max_ownership`.
//!
//! Each theorem is checked against the measured stretch with a relative
//! slack of `2·EPS` (the greedy rule's own tolerance plus the rounding of
//! measured path folds and of the theorems' trigonometry), coincident
//! points included.

use gncg_geometry::{generators, Norm, Point, PointSet};
use gncg_graph::Graph;
use gncg_spanner::cert::{certify, distribute};
use gncg_spanner::grid::grid_stretch_bound;
use gncg_spanner::theta::theta_stretch_bound;
use gncg_spanner::yao::yao_stretch_bound;
use gncg_spanner::{build, SpannerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force max stretch `max_{u<v} d_S(u,v) / ‖u,v‖` via
/// Floyd–Warshall; ∞ if some pair of distinct points is disconnected.
#[allow(clippy::needless_range_loop)] // matrix indexing is the FW idiom
fn brute_force_stretch(g: &Graph, ps: &PointSet) -> f64 {
    let n = g.len();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (u, v, w) in g.edges() {
        if w < d[u][v] {
            d[u][v] = w;
            d[v][u] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    let mut worst: f64 = 1.0;
    for u in 0..n {
        for v in (u + 1)..n {
            let b = ps.dist(u, v);
            if b > 0.0 {
                worst = worst.max(d[u][v] / b);
            } else if d[u][v].is_infinite() {
                return f64::INFINITY;
            }
        }
    }
    worst
}

/// Certified stretch must agree with the brute-force value up to
/// floating-point noise in the two APSP formulations, and never exceed
/// `theorem`, the construction's stretch bound on this input.
fn check_cert(kind: SpannerKind, ps: &PointSet, theorem: f64, what: &str) {
    let g = build(ps, kind);
    let cert = certify(&g, ps);
    let brute = brute_force_stretch(&g, ps);
    assert!(
        cert.stretch.is_finite(),
        "{what}: spanner disconnected (stretch ∞)"
    );
    assert!(
        (cert.stretch - brute).abs() <= 1e-9 * brute.max(1.0),
        "{what}: certified stretch {} != brute-force {}",
        cert.stretch,
        brute
    );
    let bound = theorem * (1.0 + 2.0 * gncg_geometry::EPS);
    assert!(
        cert.stretch <= bound,
        "{what}: stretch {} exceeds the theorem's bound {bound}",
        cert.stretch
    );
    // basic certificate consistency
    assert_eq!(cert.num_edges, g.num_edges(), "{what}: edge count");
    assert_eq!(cert.max_degree, g.max_degree(), "{what}: max degree");
    assert!(
        (cert.total_weight - g.total_weight()).abs() <= 1e-9 * g.total_weight().max(1.0),
        "{what}: total weight"
    );
    // every edge distributed exactly once, within the certified ownership
    let owned = distribute(&g);
    assert_eq!(
        owned.len(),
        g.num_edges(),
        "{what}: distribute covers edges"
    );
    let mut per_agent = vec![0usize; g.len()];
    for &(owner, to, w) in &owned {
        assert!(g.has_edge(owner, to), "{what}: distributed non-edge");
        assert_eq!(g.edge_weight(owner, to), Some(w), "{what}: weight drift");
        per_agent[owner] += 1;
    }
    let max_owned = per_agent.iter().copied().max().unwrap_or(0);
    assert!(
        max_owned <= cert.max_ownership,
        "{what}: agent owns {max_owned} > certified {}",
        cert.max_ownership
    );
}

fn random_points(n: usize, seed: u64) -> PointSet {
    generators::uniform_unit_square(n, seed)
}

#[test]
fn theta_graph_certificates() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let n = rng.gen_range(4..14);
        let ps = random_points(n, seed);
        for cones in [9usize, 12, 16] {
            check_cert(
                SpannerKind::Theta { cones },
                &ps,
                theta_stretch_bound(cones),
                &format!("theta seed {seed} n={n} cones={cones}"),
            );
        }
    }
}

#[test]
fn yao_graph_certificates() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(1900 + seed);
        let n = rng.gen_range(4..14);
        let ps = random_points(n, seed);
        for cones in [7usize, 10, 14] {
            check_cert(
                SpannerKind::Yao { cones },
                &ps,
                yao_stretch_bound(cones),
                &format!("yao seed {seed} n={n} cones={cones}"),
            );
        }
    }
}

#[test]
fn greedy_spanner_certificates() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(2900 + seed);
        let n = rng.gen_range(4..16);
        let ps = random_points(n, seed);
        for t in [1.2f64, 1.5, 2.0, 3.0] {
            check_cert(
                SpannerKind::Greedy { t },
                &ps,
                t,
                &format!("greedy seed {seed} n={n} t={t}"),
            );
        }
    }
}

#[test]
fn complete_graph_has_stretch_one() {
    let ps = random_points(9, 4242);
    let g = build(&ps, SpannerKind::Complete);
    let cert = certify(&g, &ps);
    assert!((cert.stretch - 1.0).abs() <= 1e-12);
    assert_eq!(cert.num_edges, 9 * 8 / 2);
    assert_eq!(brute_force_stretch(&g, &ps), cert.stretch);
}

#[test]
fn collinear_points_certify() {
    // degenerate geometry: evenly spaced points on a planar line — the
    // direct neighbour chain is the only shortest-path structure
    let ps = PointSet::new(
        (0..8)
            .map(|i| vec![0.5 * f64::from(i), 0.25].into())
            .collect(),
    );
    for (kind, theorem) in [
        (SpannerKind::Greedy { t: 1.5 }, 1.5),
        (SpannerKind::Theta { cones: 9 }, theta_stretch_bound(9)),
        (SpannerKind::Yao { cones: 8 }, yao_stretch_bound(8)),
    ] {
        check_cert(kind, &ps, theorem, &format!("collinear {kind:?}"));
    }
}

/// `n` uniform points where about every third one sits on an earlier
/// point, so zero-length pairs appear throughout.
fn coincident_points(n: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_range(0..3) == 0 {
            let twin = pts[rng.gen_range(0..i)].clone();
            pts.push(twin);
        } else {
            pts.push(Point::d2(rng.gen(), rng.gen()));
        }
    }
    PointSet::new(pts)
}

#[test]
fn theorems_cover_coincident_points() {
    for seed in 0..6u64 {
        let ps = coincident_points(6 + 3 * seed as usize, 3900 + seed);
        for cones in [9usize, 12] {
            let what = format!("theta coincident seed {seed} cones={cones}");
            check_cert(
                SpannerKind::Theta { cones },
                &ps,
                theta_stretch_bound(cones),
                &what,
            );
        }
        for cones in [7usize, 12] {
            let what = format!("yao coincident seed {seed} cones={cones}");
            check_cert(
                SpannerKind::Yao { cones },
                &ps,
                yao_stretch_bound(cones),
                &what,
            );
        }
        for t in [1.0f64, 1.5, 2.0] {
            let what = format!("greedy coincident seed {seed} t={t}");
            check_cert(SpannerKind::Greedy { t }, &ps, t, &what);
        }
        let what = format!("complete coincident seed {seed}");
        check_cert(SpannerKind::Complete, &ps, 1.0, &what);
    }
}

#[test]
fn grid_theorem_covers_full_grids() {
    for sides in [vec![7], vec![4, 5], vec![3, 3, 2]] {
        let ps = generators::integer_grid(&sides);
        let bound = grid_stretch_bound(sides.len());
        check_cert(SpannerKind::Grid, &ps, bound, &format!("grid {sides:?}"));
    }
}

#[test]
fn greedy_theorem_holds_under_l1() {
    // the cone theorems are Euclidean; the greedy rule holds in any norm
    let ps = random_points(12, 77);
    let l1 = PointSet::with_norm((0..12).map(|i| ps.point(i).clone()).collect(), Norm::L1);
    check_cert(SpannerKind::Greedy { t: 1.5 }, &l1, 1.5, "greedy under l1");
}
