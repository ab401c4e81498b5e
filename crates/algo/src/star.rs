//! Center-sponsored stars (Lemma 3.2, Corollary 3.3, Theorem 3.4).
//!
//! If `α ≥ max_{u≠v} (‖u,c‖ + ‖c,v‖)/‖u,v‖ − 1`, the star centred at `c`
//! with the centre owning every edge is a Nash equilibrium (Lemma 3.2);
//! since the detour ratio is at most `2r` (aspect ratio `r`), any centre
//! works once `α ≥ 2r − 1` (Corollary 3.3).

use gncg_game::OwnedNetwork;
use gncg_geometry::PointSet;

/// The center-sponsored star at `center`.
pub fn center_star(n: usize, center: usize) -> OwnedNetwork {
    OwnedNetwork::center_star(n, center)
}

/// Lemma 3.2's stability threshold for a given centre:
/// `max_{u≠v, u,v≠c} (‖u,c‖ + ‖c,v‖)/‖u,v‖ − 1`; the star is a NE for
/// every `α` at or above this value. Returns ∞ when two distinct
/// non-centre agents coincide (no finite α stabilizes the star there
/// unless the detour is 0 too).
pub fn star_stability_threshold(ps: &PointSet, center: usize) -> f64 {
    let n = ps.len();
    let mut worst: f64 = 0.0;
    for u in 0..n {
        if u == center {
            continue;
        }
        for v in (u + 1)..n {
            if v == center {
                continue;
            }
            let direct = ps.dist(u, v);
            let detour = ps.dist(u, center) + ps.dist(center, v);
            if direct > 0.0 {
                worst = worst.max(detour / direct);
            } else if detour > 0.0 {
                return f64::INFINITY;
            }
        }
    }
    (worst - 1.0).max(0.0)
}

/// The centre minimizing the Lemma 3.2 threshold (ties to the smaller
/// index).
pub fn best_star_center(ps: &PointSet) -> usize {
    gncg_parallel::min_by_cost(ps.len(), || (), |(), c| star_stability_threshold(ps, c))
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// Corollary 3.3's sufficient condition: every centre is stable once
/// `α ≥ 2r − 1` for aspect ratio `r`. `None` when the aspect ratio is
/// undefined (all points coincide — every star is trivially stable).
pub fn corollary_3_3_threshold(ps: &PointSet) -> Option<f64> {
    ps.aspect_ratio().map(|r| 2.0 * r - 1.0)
}

/// The Theorem 3.4 tail bound: for n uniform points in `[0,1]²` and a
/// given α, the probability that *no* NE-star is guaranteed is at most
/// `8πn²/(α+1)²`.
pub fn theorem_3_4_failure_bound(n: usize, alpha: f64) -> f64 {
    8.0 * std::f64::consts::PI * (n as f64) * (n as f64) / ((alpha + 1.0) * (alpha + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_game::exact;
    use gncg_game::SumDistances;
    use gncg_geometry::generators;

    #[test]
    fn star_is_nash_above_threshold() {
        for seed in 0..4u64 {
            let ps = generators::uniform_unit_square(8, seed + 60);
            let c = best_star_center(&ps);
            let thr = star_stability_threshold(&ps, c);
            let net = center_star(8, c);
            assert!(
                exact::is_nash::<_, SumDistances>(&ps, &net, thr + 0.01),
                "seed {seed}: star not NE just above threshold {thr}"
            );
        }
    }

    #[test]
    fn star_can_break_below_threshold() {
        // a line: centre at an endpoint has a large detour ratio; below
        // the threshold some agent profits from a shortcut
        let ps = generators::line(6, 5.0);
        let thr = star_stability_threshold(&ps, 0);
        assert!(thr > 0.0);
        let net = center_star(6, 0);
        // far below the threshold the star must be unstable
        assert!(!exact::is_nash::<_, SumDistances>(&ps, &net, 0.01));
    }

    #[test]
    fn corollary_3_3_implies_lemma_3_2() {
        // 2r − 1 dominates every per-centre threshold
        for seed in 0..5u64 {
            let ps = generators::uniform_unit_square(10, seed);
            let cor = corollary_3_3_threshold(&ps).unwrap();
            for c in 0..10 {
                let lem = star_stability_threshold(&ps, c);
                assert!(lem <= cor + 1e-9, "seed {seed} centre {c}: {lem} > {cor}");
            }
        }
    }

    #[test]
    fn threshold_zero_for_collinear_center() {
        // centre in the middle of a 3-point line: detour ratio is exactly
        // 1 for the outer pair → threshold 0
        let ps = generators::line(3, 2.0);
        assert!(star_stability_threshold(&ps, 1).abs() < 1e-12);
        // the middle-centred star is then a NE for every alpha
        let net = center_star(3, 1);
        assert!(exact::is_nash::<_, SumDistances>(&ps, &net, 0.001));
        assert!(exact::is_nash::<_, SumDistances>(&ps, &net, 100.0));
    }

    #[test]
    fn infinite_threshold_for_colocated_non_centers() {
        let ps = generators::triangle_clusters(2, 0.0);
        // centre 0; agents 2,3 (corner B) coincide; their detour via 0 is
        // positive but direct distance is 0
        assert!(star_stability_threshold(&ps, 0).is_infinite());
    }

    #[test]
    fn failure_bound_shrinks_with_alpha() {
        assert!(theorem_3_4_failure_bound(100, 1e6) < theorem_3_4_failure_bound(100, 1e3));
        assert!(theorem_3_4_failure_bound(100, 1e6) < 1e-4);
    }

    #[test]
    fn best_center_not_worse_than_any() {
        let ps = generators::uniform_unit_square(12, 13);
        let best = best_star_center(&ps);
        let best_thr = star_stability_threshold(&ps, best);
        for c in 0..12 {
            assert!(best_thr <= star_stability_threshold(&ps, c) + 1e-9);
        }
    }
}
