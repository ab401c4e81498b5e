//! The agent set `P` of the game, with the derived quantities the paper
//! uses: pairwise distances, `w_max`, `w_min` and the aspect ratio `r`.

use crate::{closest_pair, Norm, Point};
use gncg_json::{field, object, FromJson, JsonError, ToJson, Value};

/// An ordered set of n points in ℝᵈ together with the norm that defines
/// edge lengths. Agents are addressed by index `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    points: Vec<Point>,
    norm: Norm,
}

impl ToJson for PointSet {
    fn to_json(&self) -> Value {
        object(vec![
            ("points", self.points.to_json()),
            ("norm", self.norm.to_json()),
        ])
    }
}

impl FromJson for PointSet {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let points = Vec::<Point>::from_json(field(value, "points")?)?;
        let norm = Norm::from_json(field(value, "norm")?)?;
        if points.is_empty() {
            return Err(JsonError::new("point set must be non-empty"));
        }
        let dim = points[0].dim();
        if points.iter().any(|p| p.dim() != dim) {
            return Err(JsonError::new("all points must share the same dimension"));
        }
        Ok(PointSet::with_norm(points, norm))
    }
}

impl PointSet {
    /// Build a point set under the Euclidean (2-)norm.
    pub fn new(points: Vec<Point>) -> Self {
        Self::with_norm(points, Norm::L2)
    }

    /// Build a point set under an arbitrary norm.
    pub fn with_norm(points: Vec<Point>, norm: Norm) -> Self {
        assert!(!points.is_empty(), "point set must be non-empty");
        let dim = points[0].dim();
        assert!(
            points.iter().all(|p| p.dim() == dim),
            "all points must share the same dimension"
        );
        Self { points, norm }
    }

    /// Number of agents n.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the set has exactly one point (never empty by
    /// construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ambient dimension d.
    #[inline]
    pub fn dim(&self) -> usize {
        self.points[0].dim()
    }

    /// The norm defining edge lengths.
    #[inline]
    pub fn norm(&self) -> Norm {
        self.norm
    }

    /// Access a point by agent index.
    #[inline]
    pub fn point(&self, i: usize) -> &Point {
        &self.points[i]
    }

    /// All points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Edge length ‖pᵢ, pⱼ‖ under the set's norm.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.points[i].distance(&self.points[j], self.norm)
    }

    /// Longest pairwise distance `w_max`.
    pub fn w_max(&self) -> f64 {
        let n = self.len();
        let mut best: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                best = best.max(self.dist(i, j));
            }
        }
        best
    }

    /// Shortest *positive* pairwise distance `w_min`.
    ///
    /// Uses grid-hashing closest pair under the 2-norm; falls back to the
    /// quadratic scan for other norms. Returns `None` if all points
    /// coincide (or n == 1).
    pub fn w_min(&self) -> Option<f64> {
        if self.len() < 2 {
            return None;
        }
        if matches!(self.norm, Norm::L2) {
            return closest_pair::closest_pair_distance(self);
        }
        let n = self.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.dist(i, j);
                if d > 0.0 {
                    best = best.min(d);
                }
            }
        }
        if best.is_finite() {
            Some(best)
        } else {
            None
        }
    }

    /// Aspect ratio `r = w_max / w_min` (None when all points coincide).
    pub fn aspect_ratio(&self) -> Option<f64> {
        let wmin = self.w_min()?;
        Some(self.w_max() / wmin)
    }

    /// Index of the point of `candidates` closest to `u` (smallest index
    /// wins ties). Panics if `candidates` is empty.
    pub fn closest_among(&self, u: usize, candidates: &[usize]) -> usize {
        assert!(!candidates.is_empty());
        let mut best = candidates[0];
        let mut best_d = self.dist(u, best);
        for &c in &candidates[1..] {
            let d = self.dist(u, c);
            if d < best_d {
                best = c;
                best_d = d;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> PointSet {
        PointSet::new(vec![
            Point::d2(0.0, 0.0),
            Point::d2(1.0, 0.0),
            Point::d2(0.0, 1.0),
            Point::d2(1.0, 1.0),
        ])
    }

    #[test]
    fn w_max_is_diagonal() {
        assert!((unit_square().w_max() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn w_min_is_side() {
        assert!((unit_square().w_min().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aspect_ratio_square() {
        assert!((unit_square().aspect_ratio().unwrap() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn w_min_none_when_coincident() {
        let ps = PointSet::new(vec![Point::d2(1.0, 1.0), Point::d2(1.0, 1.0)]);
        assert!(ps.w_min().is_none());
        assert!(ps.aspect_ratio().is_none());
    }

    #[test]
    fn single_point_has_no_w_min() {
        let ps = PointSet::new(vec![Point::d1(3.0)]);
        assert!(ps.w_min().is_none());
        assert_eq!(ps.w_max(), 0.0);
    }

    #[test]
    fn closest_among_picks_nearest() {
        let ps = unit_square();
        assert_eq!(ps.closest_among(0, &[1, 3]), 1);
        assert_eq!(ps.closest_among(3, &[0, 1]), 1);
    }

    #[test]
    fn l1_norm_pointset() {
        let ps = PointSet::with_norm(vec![Point::d2(0.0, 0.0), Point::d2(1.0, 1.0)], Norm::L1);
        assert!((ps.dist(0, 1) - 2.0).abs() < 1e-12);
        assert!((ps.w_min().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn mixed_dims_rejected() {
        PointSet::new(vec![Point::d1(0.0), Point::d2(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        PointSet::new(vec![]);
    }
}
