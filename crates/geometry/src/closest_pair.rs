//! Closest pair of points via grid hashing.
//!
//! The aspect-ratio computations (Corollary 3.3, Theorem 3.4) need `w_min`
//! on point sets with tens of thousands of points, where the quadratic
//! scan is the bottleneck of the whole pipeline. We use the classic
//! incremental grid-hashing scheme: maintain a uniform grid whose cell
//! width equals the current closest distance; each insertion only probes
//! the 3ᵈ neighbouring cells. Expected linear time for random inputs,
//! worst case quadratic (fine: the harness instances are random or
//! structured, not adversarial).
//!
//! Coincident points are *skipped* (distance 0 pairs are ignored) because
//! the game defines `w_min` over distinct locations; the paper's
//! co-located cluster instances rely on this.

use crate::PointSet;
use std::collections::HashMap;

/// Distance between the closest pair of non-coincident points, or `None`
/// if every pair coincides. Works in any dimension; distances are 2-norm.
pub fn closest_pair_distance(ps: &PointSet) -> Option<f64> {
    let n = ps.len();
    if n < 2 {
        return None;
    }
    // Seed: the smallest positive distance from point 0 to any other
    // point, falling back to a quadratic scan when point 0 coincides with
    // everything seen so far.
    let mut best = f64::INFINITY;
    'seed: for i in 0..n {
        for j in (i + 1)..n {
            let d = ps.dist(i, j);
            if d > 0.0 {
                best = d;
                break 'seed;
            }
        }
    }
    if !best.is_finite() {
        return None; // all points coincide
    }

    let dim = ps.dim();
    let mut grid: HashMap<Vec<i64>, Vec<usize>> = HashMap::new();
    let mut cell_width = best;
    let mut inserted: Vec<usize> = Vec::with_capacity(n);

    let cell_of = |coords: &[f64], w: f64| -> Vec<i64> {
        coords.iter().map(|&c| (c / w).floor() as i64).collect()
    };

    for i in 0..n {
        let p = ps.point(i);
        let cell = cell_of(p.coords(), cell_width);
        // Probe the 3^d neighbourhood.
        let mut improved = false;
        let mut stack = vec![(0usize, Vec::with_capacity(dim))];
        while let Some((axis, prefix)) = stack.pop() {
            if axis == dim {
                if let Some(bucket) = grid.get(&prefix) {
                    for &j in bucket {
                        let d = ps.dist(i, j);
                        if d > 0.0 && d < best {
                            best = d;
                            improved = true;
                        }
                    }
                }
                continue;
            }
            for delta in -1..=1i64 {
                let mut next = prefix.clone();
                next.push(cell[axis] + delta);
                stack.push((axis + 1, next));
            }
        }
        inserted.push(i);
        if improved && best < cell_width / 2.0 {
            // Rebuild the grid with the tighter cell width. Amortized
            // cheap: the width halves (at least) on every rebuild.
            cell_width = best;
            grid.clear();
            for &j in &inserted {
                grid.entry(cell_of(ps.point(j).coords(), cell_width))
                    .or_default()
                    .push(j);
            }
        } else {
            grid.entry(cell_of(p.coords(), cell_width))
                .or_default()
                .push(i);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn brute_force(ps: &PointSet) -> Option<f64> {
        let n = ps.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = ps.dist(i, j);
                if d > 0.0 {
                    best = best.min(d);
                }
            }
        }
        best.is_finite().then_some(best)
    }

    #[test]
    fn simple_pair() {
        let ps = PointSet::new(vec![
            Point::d2(0.0, 0.0),
            Point::d2(10.0, 0.0),
            Point::d2(10.5, 0.0),
        ]);
        assert!((closest_pair_distance(&ps).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_coincident_returns_none() {
        let ps = PointSet::new(vec![Point::d2(1.0, 2.0); 5]);
        assert!(closest_pair_distance(&ps).is_none());
    }

    #[test]
    fn skips_coincident_pairs() {
        let ps = PointSet::new(vec![
            Point::d2(0.0, 0.0),
            Point::d2(0.0, 0.0),
            Point::d2(3.0, 0.0),
        ]);
        assert!((closest_pair_distance(&ps).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_random_2d() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = 50 + trial * 10;
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::d2(rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0))
                .collect();
            let ps = PointSet::new(pts);
            let fast = closest_pair_distance(&ps).unwrap();
            let slow = brute_force(&ps).unwrap();
            assert!(
                (fast - slow).abs() < 1e-9,
                "trial {trial}: fast={fast} slow={slow}"
            );
        }
    }

    #[test]
    fn matches_brute_force_random_3d() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let pts: Vec<Point> = (0..80)
                .map(|_| Point::new(vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()]))
                .collect();
            let ps = PointSet::new(pts);
            let fast = closest_pair_distance(&ps).unwrap();
            let slow = brute_force(&ps).unwrap();
            assert!((fast - slow).abs() < 1e-12);
        }
    }

    #[test]
    fn one_dimensional_line() {
        let pts: Vec<Point> = (0..100).map(|i| Point::d1(i as f64 * 2.0)).collect();
        let ps = PointSet::new(pts);
        assert!((closest_pair_distance(&ps).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clustered_points() {
        // two tight clusters far apart
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(Point::d2(i as f64 * 1e-3, 0.0));
            pts.push(Point::d2(1000.0 + i as f64 * 1e-3, 5.0));
        }
        let ps = PointSet::new(pts);
        assert!((closest_pair_distance(&ps).unwrap() - 1e-3).abs() < 1e-12);
    }
}
