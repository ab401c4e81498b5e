//! Deterministic point-set generators for every instance family the paper
//! uses.
//!
//! All random generators take an explicit `u64` seed and use `StdRng`, so
//! every experiment in EXPERIMENTS.md is reproducible from a printed seed.

use crate::{Point, PointSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` points drawn uniformly at random from the unit square `[0,1]²` —
/// the workload of Theorems 3.4 and 3.12 and Lemma 3.11.
pub fn uniform_unit_square(n: usize, seed: u64) -> PointSet {
    uniform_cube(n, 2, seed)
}

/// `n` points drawn uniformly at random from the unit cube `[0,1]ᵈ`.
pub fn uniform_cube(n: usize, dim: usize, seed: u64) -> PointSet {
    assert!(n >= 1 && dim >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.gen::<f64>()).collect()))
        .collect();
    PointSet::new(pts)
}

/// The integer grid `P = ℤᵈ ∩ ([0,b₁] × … × [0,b_d])` of Theorem 3.13.
///
/// `sides` gives `(b₁, …, b_d)`; the grid has `∏(bᵢ+1)` points.
pub fn integer_grid(sides: &[usize]) -> PointSet {
    assert!(!sides.is_empty());
    let dim = sides.len();
    let mut pts: Vec<Point> = Vec::new();
    let mut idx = vec![0usize; dim];
    loop {
        pts.push(Point::new(idx.iter().map(|&c| c as f64).collect()));
        // odometer increment
        let mut axis = 0;
        loop {
            if axis == dim {
                return PointSet::new(pts);
            }
            idx[axis] += 1;
            if idx[axis] <= sides[axis] {
                break;
            }
            idx[axis] = 0;
            axis += 1;
        }
    }
}

/// The Theorem 2.1 / Theorem 4.4 instance: three clusters of
/// `cluster_size` points each, placed at the corners of an equilateral
/// triangle with side length 1.
///
/// The paper's proof sketch allows co-located points and notes the result
/// holds asymptotically when the clusters are spread by an arbitrarily
/// small amount; `spread > 0` arranges each cluster's points on a tiny
/// circle of that radius (set `spread = 0.0` for exact co-location).
///
/// Points are ordered cluster-by-cluster: indices `[0, s)` are corner A,
/// `[s, 2s)` corner B, `[2s, 3s)` corner C.
pub fn triangle_clusters(cluster_size: usize, spread: f64) -> PointSet {
    assert!(cluster_size >= 1);
    assert!((0.0..0.1).contains(&spread));
    let corners = [(0.0, 0.0), (1.0, 0.0), (0.5, 3f64.sqrt() / 2.0)];
    let mut pts = Vec::with_capacity(3 * cluster_size);
    for &(cx, cy) in &corners {
        for k in 0..cluster_size {
            if spread == 0.0 {
                pts.push(Point::d2(cx, cy));
            } else {
                let angle = 2.0 * std::f64::consts::PI * (k as f64) / (cluster_size as f64);
                pts.push(Point::d2(
                    cx + spread * angle.cos(),
                    cy + spread * angle.sin(),
                ));
            }
        }
    }
    PointSet::new(pts)
}

/// The Theorem 4.3 lower-bound instance in ℝ¹: `n + 1` points
/// `p₀ = 0`, `pᵢ = (1 + 2/α)^{i−1}` for `1 ≤ i ≤ n`.
///
/// In the Nash equilibrium, `p₀` (index 0) owns a star to everyone; the
/// social optimum is the path `p₀ − p₁ − … − p_n`.
pub fn geometric_chain(n: usize, alpha: f64) -> PointSet {
    assert!(n >= 1);
    assert!(alpha > 0.0);
    let q = 1.0 + 2.0 / alpha;
    let mut pts = Vec::with_capacity(n + 1);
    pts.push(Point::d1(0.0));
    for i in 1..=n {
        pts.push(Point::d1(q.powi(i as i32 - 1)));
    }
    PointSet::new(pts)
}

/// The Theorem 4.1 lower-bound instance: `n = 2d` points in ℝᵈ.
///
/// * index 0: the centre `m = (0, …, 0)`,
/// * index 1: the apex `u = (0, …, 0, x)`,
/// * indices `2..2d`: `T = {±eᵢ | 1 ≤ i ≤ d−1}` (unit vectors and their
///   negations along the first `d−1` axes).
///
/// The paper chooses `x = (α² + 2α)/(2α + 2)` when
/// `α ≥ √(1+√2) − 1` and `x = √((α² + 2α − 1)/2)` otherwise; use
/// [`cross_polytope_x`] to obtain that value.
pub fn cross_polytope_apex(d: usize, x: f64) -> PointSet {
    assert!(d >= 2, "construction requires d >= 2");
    let mut pts = Vec::with_capacity(2 * d);
    pts.push(Point::origin(d)); // m
    let mut apex = vec![0.0; d];
    apex[d - 1] = x;
    pts.push(Point::new(apex)); // u
    for i in 0..(d - 1) {
        for sign in [1.0, -1.0] {
            let mut c = vec![0.0; d];
            c[i] = sign;
            pts.push(Point::new(c));
        }
    }
    PointSet::new(pts)
}

/// The apex height `x` from the proof of Theorem 4.1 for a given `α`.
///
/// Requires `α ≥ √2 − 1`, below which the low-α branch's radicand
/// `(α² + 2α − 1)/2` is negative and the construction degenerates.
pub fn cross_polytope_x(alpha: f64) -> f64 {
    assert!(
        alpha >= 2f64.sqrt() - 1.0,
        "Theorem 4.1 construction needs alpha >= sqrt(2)-1, got {alpha}"
    );
    let threshold = (1.0 + 2f64.sqrt()).sqrt() - 1.0;
    if alpha >= threshold {
        (alpha * alpha + 2.0 * alpha) / (2.0 * alpha + 2.0)
    } else {
        ((alpha * alpha + 2.0 * alpha - 1.0) / 2.0).sqrt()
    }
}

/// `n` points evenly spaced on a circle of radius `r` in ℝ².
pub fn circle(n: usize, r: f64) -> PointSet {
    assert!(n >= 1 && r > 0.0);
    let pts = (0..n)
        .map(|i| {
            let a = 2.0 * std::f64::consts::PI * (i as f64) / (n as f64);
            Point::d2(r * a.cos(), r * a.sin())
        })
        .collect();
    PointSet::new(pts)
}

/// `n` points evenly spaced on the segment `[0, length]` in ℝ¹.
pub fn line(n: usize, length: f64) -> PointSet {
    assert!(n >= 2 && length > 0.0);
    let pts = (0..n)
        .map(|i| Point::d1(length * (i as f64) / ((n - 1) as f64)))
        .collect();
    PointSet::new(pts)
}

/// One tight cluster plus far-away outliers: the instance shape that
/// triggers the *cluster branch* of Algorithm 1 (Figure 3 left).
///
/// `cluster_n` points uniform in a ball of radius `cluster_radius` at the
/// origin, plus `outlier_n` points uniform on distance `[outlier_min,
/// outlier_max]` from the origin, all in ℝᵈⁱᵐ.
pub fn cluster_with_outliers(
    cluster_n: usize,
    outlier_n: usize,
    dim: usize,
    cluster_radius: f64,
    outlier_min: f64,
    outlier_max: f64,
    seed: u64,
) -> PointSet {
    assert!(cluster_n >= 1 && dim >= 1);
    assert!(outlier_min <= outlier_max && cluster_radius < outlier_min);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(cluster_n + outlier_n);
    for _ in 0..cluster_n {
        pts.push(Point::new(random_in_ball(&mut rng, dim, cluster_radius)));
    }
    for _ in 0..outlier_n {
        let r = outlier_min + rng.gen::<f64>() * (outlier_max - outlier_min);
        let dir = random_unit_vector(&mut rng, dim);
        pts.push(Point::new(dir.iter().map(|&c| c * r).collect()));
    }
    PointSet::new(pts)
}

/// Standard normal sample via Box–Muller (rand's distributions feature is
/// not assumed).
fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

fn random_unit_vector<R: Rng>(rng: &mut R, dim: usize) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..dim).map(|_| sample_standard_normal(rng)).collect();
        let norm = v.iter().map(|c| c * c).sum::<f64>().sqrt();
        if norm > 1e-12 {
            return v.into_iter().map(|c| c / norm).collect();
        }
    }
}

fn random_in_ball<R: Rng>(rng: &mut R, dim: usize, radius: f64) -> Vec<f64> {
    let dir = random_unit_vector(rng, dim);
    let r = radius * rng.gen::<f64>().powf(1.0 / dim as f64);
    dir.into_iter().map(|c| c * r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_square_in_bounds_and_deterministic() {
        let a = uniform_unit_square(100, 42);
        let b = uniform_unit_square(100, 42);
        for i in 0..100 {
            let p = a.point(i);
            assert!(p[0] >= 0.0 && p[0] <= 1.0 && p[1] >= 0.0 && p[1] <= 1.0);
            assert_eq!(p, b.point(i));
        }
        let c = uniform_unit_square(100, 43);
        assert_ne!(a.point(0), c.point(0));
    }

    #[test]
    fn grid_counts_and_bounds() {
        let g = integer_grid(&[2, 3]);
        assert_eq!(g.len(), 3 * 4);
        assert_eq!(g.dim(), 2);
        assert!((g.w_min().unwrap() - 1.0).abs() < 1e-12);
        assert!((g.w_max() - (4.0 + 9.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn grid_3d() {
        let g = integer_grid(&[1, 1, 1]);
        assert_eq!(g.len(), 8);
        assert_eq!(g.dim(), 3);
        assert!((g.w_max() - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn triangle_clusters_colocated() {
        let ps = triangle_clusters(4, 0.0);
        assert_eq!(ps.len(), 12);
        // corners are at distance 1
        assert!((ps.dist(0, 4) - 1.0).abs() < 1e-12);
        assert!((ps.dist(0, 8) - 1.0).abs() < 1e-12);
        assert!((ps.dist(4, 8) - 1.0).abs() < 1e-12);
        // within-cluster distance is 0
        assert_eq!(ps.dist(0, 1), 0.0);
    }

    #[test]
    fn triangle_clusters_spread() {
        let ps = triangle_clusters(4, 1e-4);
        assert!(ps.dist(0, 1) > 0.0);
        assert!(ps.dist(0, 1) < 1e-3);
        assert!((ps.dist(0, 4) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn geometric_chain_coordinates() {
        let alpha = 2.0;
        let ps = geometric_chain(4, alpha); // q = 2
        let xs: Vec<f64> = (0..5).map(|i| ps.point(i)[0]).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn geometric_chain_gap_formula() {
        // ‖p_i, p_{i-1}‖ = (2/α)(1+2/α)^{i-2} for i ≥ 2; ‖p_1,p_0‖ = 1
        let alpha = 3.0;
        let q: f64 = 1.0 + 2.0 / alpha;
        let ps = geometric_chain(6, alpha);
        assert!((ps.dist(0, 1) - 1.0).abs() < 1e-12);
        for i in 2..=6 {
            let expect = (2.0 / alpha) * q.powi(i - 2);
            assert!((ps.dist(i as usize - 1, i as usize) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn cross_polytope_structure() {
        let x = cross_polytope_x(3.0);
        let ps = cross_polytope_apex(4, x);
        assert_eq!(ps.len(), 8); // n = 2d
        assert_eq!(ps.dim(), 4);
        // ‖m, t‖ = 1 for t in T
        for t in 2..8 {
            assert!((ps.dist(0, t) - 1.0).abs() < 1e-12);
        }
        // ‖m, u‖ = x
        assert!((ps.dist(0, 1) - x).abs() < 1e-12);
        // ‖u, t‖ = sqrt(1 + x²)
        for t in 2..8 {
            assert!((ps.dist(1, t) - (1.0 + x * x).sqrt()).abs() < 1e-12);
        }
        // distances within T are sqrt(2) (different axes) or 2 (opposite)
        let d23 = ps.dist(2, 3);
        assert!((d23 - 2.0).abs() < 1e-12); // +e1 and -e1
        let d24 = ps.dist(2, 4);
        assert!((d24 - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cross_polytope_x_branches() {
        let threshold = (1.0 + 2f64.sqrt()).sqrt() - 1.0;
        let hi = cross_polytope_x(threshold + 1.0);
        let a = threshold + 1.0;
        assert!((hi - (a * a + 2.0 * a) / (2.0 * a + 2.0)).abs() < 1e-12);
        // pick alpha in [sqrt(2)-1, threshold) so the low branch applies
        let b = (2f64.sqrt() - 1.0 + threshold) / 2.0;
        let lo = cross_polytope_x(b);
        assert!((lo - ((b * b + 2.0 * b - 1.0) / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn circle_points_on_radius() {
        let ps = circle(12, 5.0);
        for i in 0..12 {
            let p = ps.point(i);
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            assert!((r - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn line_endpoints() {
        let ps = line(11, 10.0);
        assert_eq!(ps.point(0)[0], 0.0);
        assert_eq!(ps.point(10)[0], 10.0);
        assert!((ps.w_min().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cluster_with_outliers_radii() {
        let ps = cluster_with_outliers(20, 5, 3, 0.1, 10.0, 20.0, 9);
        assert_eq!(ps.len(), 25);
        for i in 0..20 {
            let r: f64 = ps
                .point(i)
                .coords()
                .iter()
                .map(|c| c * c)
                .sum::<f64>()
                .sqrt();
            assert!(r <= 0.1 + 1e-12);
        }
        for i in 20..25 {
            let r: f64 = ps
                .point(i)
                .coords()
                .iter()
                .map(|c| c * c)
                .sum::<f64>()
                .sqrt();
            assert!((10.0 - 1e-9..=20.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn normal_sampler_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
