//! The paper's witness instances with their strategy profiles and
//! closed-form cost formulas.
//!
//! Each construction returns both the point set (via `gncg_geometry`) and
//! the strategy profiles the proofs reason about; the test-suite and the
//! reproduction harness check the engine's measured costs against the
//! closed forms printed in the paper.

use crate::OwnedNetwork;
use gncg_geometry::{generators, PointSet};

// ---------------------------------------------------------------------
// Theorem 2.1 / Theorem 4.4: three co-located clusters on a unit triangle
// ---------------------------------------------------------------------

/// The Theorem 2.1 instance with the *optimal* profile: all three
/// length-1 edges plus zero-length intra-cluster stars. Returns
/// `(points, profile)`; clusters are `[0,s)`, `[s,2s)`, `[2s,3s)` and the
/// cluster representatives (agents 0, s, 2s) buy the triangle edges
/// `0→s`, `s→2s`, `2s→0`.
pub fn triangle_optimum(cluster_size: usize, spread: f64) -> (PointSet, OwnedNetwork) {
    let ps = generators::triangle_clusters(cluster_size, spread);
    let s = cluster_size;
    let mut net = intra_cluster_stars(s);
    net.buy(0, s);
    net.buy(s, 2 * s);
    net.buy(2 * s, 0);
    (ps, net)
}

/// The same instance with the *equilibrium-style* profile: only two
/// length-1 edges (`0→s`, `s→2s`), as after the improving move of
/// Theorem 2.1 / the NE of Theorem 4.4.
pub fn triangle_two_edges(cluster_size: usize, spread: f64) -> (PointSet, OwnedNetwork) {
    let ps = generators::triangle_clusters(cluster_size, spread);
    let s = cluster_size;
    let mut net = intra_cluster_stars(s);
    net.buy(0, s);
    net.buy(s, 2 * s);
    (ps, net)
}

fn intra_cluster_stars(s: usize) -> OwnedNetwork {
    let mut net = OwnedNetwork::empty(3 * s);
    for c in 0..3 {
        let rep = c * s;
        for k in 1..s {
            net.buy(rep, rep + k);
        }
    }
    net
}

/// The paper's cluster size for Theorem 2.1: `n = 3⌊√α + 1⌋`, i.e.
/// cluster size `⌊√α + 1⌋`.
pub fn theorem_2_1_cluster_size(alpha: f64) -> usize {
    (alpha.sqrt() + 1.0).floor() as usize
}

/// Theorem 2.1's guaranteed improvement factor `√α / 3` for the agent
/// selling her length-1 edge in the social optimum.
pub fn theorem_2_1_factor(alpha: f64) -> f64 {
    alpha.sqrt() / 3.0
}

/// Theorem 4.4's cluster size `⌈α⌉ − 1` (requires α > 2).
pub fn theorem_4_4_cluster_size(alpha: f64) -> usize {
    assert!(alpha > 2.0, "Theorem 4.4 needs alpha > 2");
    (alpha.ceil() as usize) - 1
}

// ---------------------------------------------------------------------
// Theorem 4.3: the geometric chain in ℝ¹
// ---------------------------------------------------------------------

/// Chain instance `(points, NE profile, OPT profile)` with `n + 1`
/// agents: the NE is the star bought entirely by `p₀`, the optimum is the
/// forward path.
pub fn chain(n: usize, alpha: f64) -> (PointSet, OwnedNetwork, OwnedNetwork) {
    let ps = generators::geometric_chain(n, alpha);
    let ne = OwnedNetwork::center_star(n + 1, 0);
    let opt = OwnedNetwork::forward_path(n + 1);
    (ps, ne, opt)
}

/// Closed-form social cost of the chain NE (star at `p₀`):
/// `α((1+2/α)^n − 1)(n + α/2)`.
pub fn chain_ne_social_cost(n: usize, alpha: f64) -> f64 {
    let q = 1.0 + 2.0 / alpha;
    alpha * (q.powi(n as i32) - 1.0) * (n as f64 + alpha / 2.0)
}

/// Closed-form social cost of the chain optimum (path):
/// `α((n−α)(1+2/α)^n + α + n + (1+2/α)^{n−1})`.
pub fn chain_opt_social_cost(n: usize, alpha: f64) -> f64 {
    let q = 1.0 + 2.0 / alpha;
    alpha * ((n as f64 - alpha) * q.powi(n as i32) + alpha + n as f64 + q.powi(n as i32 - 1))
}

/// Left side of Lemma 4.2:
/// `2n + Σ_{i=1}^{n−1} (4/α)(1+2/α)^{i−1}(i+1)(n−i)`.
pub fn lemma_4_2_lhs(n: usize, alpha: f64) -> f64 {
    let q = 1.0 + 2.0 / alpha;
    let mut sum = 2.0 * n as f64;
    for i in 1..n {
        sum += (4.0 / alpha) * q.powi(i as i32 - 1) * ((i + 1) as f64) * ((n - i) as f64);
    }
    sum
}

/// Right side of Lemma 4.2: `(αn − α²)(1+2/α)^n + α² + αn`.
pub fn lemma_4_2_rhs(n: usize, alpha: f64) -> f64 {
    let q = 1.0 + 2.0 / alpha;
    (alpha * n as f64 - alpha * alpha) * q.powi(n as i32) + alpha * alpha + alpha * n as f64
}

/// Theorem 4.3's asymptotic PoA lower bound `(3/5)·α^{2/3}`.
pub fn theorem_4_3_bound(alpha: f64) -> f64 {
    0.6 * alpha.powf(2.0 / 3.0)
}

// ---------------------------------------------------------------------
// Theorem 4.1: cross-polytope plus apex
// ---------------------------------------------------------------------

/// Cross-polytope instance `(points, NE profile, OPT profile)`:
/// `n = 2d` agents; the NE is the star centred at the apex `u` (index 1,
/// owning all edges), the social optimum the star centred at `m`
/// (index 0).
pub fn cross_polytope(d: usize, alpha: f64) -> (PointSet, OwnedNetwork, OwnedNetwork) {
    let x = generators::cross_polytope_x(alpha);
    let ps = generators::cross_polytope_apex(d, x);
    let n = 2 * d;
    let ne = OwnedNetwork::center_star(n, 1);
    let opt = OwnedNetwork::center_star(n, 0);
    (ps, ne, opt)
}

/// Closed-form social cost of the apex star `S_n(u)`:
/// edge cost `(n−2)α√(1+x²) + αx`, distance cost
/// `(2n−2)x + (2n²−6n+4)√(1+x²)`.
pub fn cross_ne_social_cost(d: usize, alpha: f64) -> f64 {
    let x = generators::cross_polytope_x(alpha);
    let n = (2 * d) as f64;
    let s = (1.0 + x * x).sqrt();
    (n - 2.0) * alpha * s + alpha * x + (2.0 * n - 2.0) * x + (2.0 * n * n - 6.0 * n + 4.0) * s
}

/// Closed-form social cost of the centre star `S_n(m)`:
/// `(n−2)α + αx + (2n−2)x + (2n²−6n+4)`.
pub fn cross_opt_social_cost(d: usize, alpha: f64) -> f64 {
    let x = generators::cross_polytope_x(alpha);
    let n = (2 * d) as f64;
    (n - 2.0) * alpha + alpha * x + (2.0 * n - 2.0) * x + (2.0 * n * n - 6.0 * n + 4.0)
}

/// Theorem 4.1's PoA lower bound as `d → ∞`:
/// `min{(α+1)/√2, (α²+2α+2)/(2α+2)}`.
pub fn theorem_4_1_bound(alpha: f64) -> f64 {
    let a = (alpha + 1.0) / 2f64.sqrt();
    let b = (alpha * alpha + 2.0 * alpha + 2.0) / (2.0 * alpha + 2.0);
    a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use crate::SumDistances;

    #[test]
    fn lemma_4_2_identity_holds() {
        for n in 1..30usize {
            for &alpha in &[0.5, 1.0, 2.0, 5.0, 17.3] {
                let l = lemma_4_2_lhs(n, alpha);
                let r = lemma_4_2_rhs(n, alpha);
                assert!(
                    (l - r).abs() <= 1e-9 * l.abs().max(r.abs()).max(1.0),
                    "n={n} alpha={alpha}: lhs {l} rhs {r}"
                );
            }
        }
    }

    #[test]
    fn chain_ne_cost_matches_engine() {
        for &(n, alpha) in &[(4usize, 2.0), (6, 3.0), (8, 5.0)] {
            let (ps, ne, _) = chain(n, alpha);
            let engine = cost::social_cost::<_, SumDistances>(&ps, &ne, alpha);
            let formula = chain_ne_social_cost(n, alpha);
            assert!(
                (engine - formula).abs() < 1e-6 * formula.max(1.0),
                "n={n} alpha={alpha}: engine {engine} formula {formula}"
            );
        }
    }

    #[test]
    fn chain_opt_cost_matches_engine() {
        for &(n, alpha) in &[(4usize, 2.0), (6, 3.0), (8, 5.0)] {
            let (ps, _, opt) = chain(n, alpha);
            let engine = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
            let formula = chain_opt_social_cost(n, alpha);
            assert!(
                (engine - formula).abs() < 1e-6 * formula.max(1.0),
                "n={n} alpha={alpha}: engine {engine} formula {formula}"
            );
        }
    }

    #[test]
    fn chain_opt_cheaper_than_ne() {
        for &(n, alpha) in &[(5usize, 2.0), (9, 4.0), (16, 8.0)] {
            let ne = chain_ne_social_cost(n, alpha);
            let opt = chain_opt_social_cost(n, alpha);
            assert!(opt < ne, "n={n} alpha={alpha}: opt {opt} >= ne {ne}");
        }
    }

    #[test]
    fn cross_costs_match_engine() {
        for &(d, alpha) in &[(3usize, 2.0), (4, 3.0), (5, 1.0)] {
            let (ps, ne, opt) = cross_polytope(d, alpha);
            let e_ne = cost::social_cost::<_, SumDistances>(&ps, &ne, alpha);
            let f_ne = cross_ne_social_cost(d, alpha);
            assert!(
                (e_ne - f_ne).abs() < 1e-6 * f_ne,
                "d={d} alpha={alpha}: NE engine {e_ne} formula {f_ne}"
            );
            let e_opt = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
            let f_opt = cross_opt_social_cost(d, alpha);
            assert!(
                (e_opt - f_opt).abs() < 1e-6 * f_opt,
                "d={d} alpha={alpha}: OPT engine {e_opt} formula {f_opt}"
            );
        }
    }

    #[test]
    fn cross_ratio_approaches_bound_as_d_grows() {
        let alpha = 3.0;
        let bound = theorem_4_1_bound(alpha);
        let ratio_small = cross_ne_social_cost(3, alpha) / cross_opt_social_cost(3, alpha);
        let ratio_large = cross_ne_social_cost(200, alpha) / cross_opt_social_cost(200, alpha);
        assert!(ratio_large > ratio_small);
        assert!(
            (ratio_large - bound).abs() < 0.05 * bound,
            "ratio {ratio_large} bound {bound}"
        );
    }

    #[test]
    fn triangle_profiles_have_expected_edges() {
        let (ps, opt) = triangle_optimum(3, 0.0);
        let g = opt.graph(&ps);
        // intra-cluster zero edges: 2 per cluster; cross edges: 3
        assert_eq!(g.num_edges(), 9);
        let unit_edges = g
            .edges()
            .iter()
            .filter(|&&(_, _, w)| (w - 1.0).abs() < 1e-9)
            .count();
        assert_eq!(unit_edges, 3);
        assert!(gncg_graph::components::is_connected(&g));

        let (ps2, two) = triangle_two_edges(3, 0.0);
        let g2 = two.graph(&ps2);
        let unit2 = g2
            .edges()
            .iter()
            .filter(|&&(_, _, w)| (w - 1.0).abs() < 1e-9)
            .count();
        assert_eq!(unit2, 2);
        assert!(gncg_graph::components::is_connected(&g2));
    }

    #[test]
    fn triangle_opt_beats_two_edges_when_alpha_small() {
        // OPT has three length-1 edges iff α < 2(n/3)²
        let s = 5; // n = 15, condition: alpha < 50
        let alpha = 10.0;
        let (ps, opt) = triangle_optimum(s, 0.0);
        let (_, two) = triangle_two_edges(s, 0.0);
        let c_opt = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
        let c_two = cost::social_cost::<_, SumDistances>(&ps, &two, alpha);
        assert!(c_opt < c_two, "{c_opt} vs {c_two}");
    }

    #[test]
    fn triangle_two_edges_beats_opt_when_alpha_large() {
        let s = 2; // n = 6, condition flips for alpha > 8
        let alpha = 20.0;
        let (ps, opt) = triangle_optimum(s, 0.0);
        let (_, two) = triangle_two_edges(s, 0.0);
        let c_opt = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
        let c_two = cost::social_cost::<_, SumDistances>(&ps, &two, alpha);
        assert!(c_two < c_opt, "{c_two} vs {c_opt}");
    }

    #[test]
    fn sizes_formulas() {
        assert_eq!(theorem_2_1_cluster_size(9.0), 4);
        assert_eq!(theorem_4_4_cluster_size(3.5), 3);
        assert!((theorem_2_1_factor(9.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha > 2")]
    fn theorem_4_4_needs_alpha_above_two() {
        theorem_4_4_cluster_size(1.5);
    }
}
