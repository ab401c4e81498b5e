//! Points in ℝᵈ.

use crate::Norm;
use gncg_json::{field, object, FromJson, JsonError, ToJson, Value};

/// A point in d-dimensional space; in the game each point is an agent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Point {
    coords: Vec<f64>,
}

impl ToJson for Point {
    fn to_json(&self) -> Value {
        object(vec![("coords", self.coords.to_json())])
    }
}

impl FromJson for Point {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let coords = Vec::<f64>::from_json(field(value, "coords")?)?;
        if coords.is_empty() || coords.iter().any(|c| !c.is_finite()) {
            return Err(JsonError::new("point coords must be non-empty and finite"));
        }
        Ok(Point::new(coords))
    }
}

impl Point {
    /// Create a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "points must have dimension >= 1");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "coordinates must be finite"
        );
        Self { coords }
    }

    /// Convenience constructor for ℝ¹.
    pub fn d1(x: f64) -> Self {
        Self::new(vec![x])
    }

    /// Convenience constructor for ℝ².
    pub fn d2(x: f64, y: f64) -> Self {
        Self::new(vec![x, y])
    }

    /// The origin of ℝᵈ.
    pub fn origin(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Dimension d.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Distance to another point under `norm`.
    #[inline]
    pub fn distance(&self, other: &Point, norm: Norm) -> f64 {
        norm.distance(&self.coords, &other.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl std::ops::Index<usize> for Point {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_dim() {
        assert_eq!(Point::d1(1.0).dim(), 1);
        assert_eq!(Point::d2(1.0, 2.0).dim(), 2);
        assert_eq!(Point::origin(7).dim(), 7);
    }

    #[test]
    fn indexing() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p[0], 1.0);
        assert_eq!(p[2], 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension >= 1")]
    fn empty_point_rejected() {
        Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        Point::new(vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn inf_rejected() {
        Point::new(vec![1.0, f64::INFINITY]);
    }
}
