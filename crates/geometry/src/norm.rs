//! p-norms on ℝᵈ.
//!
//! The paper states its results for the 2-norm "for the sake of
//! presentation" and notes they adapt to any p-norm; the PoA lower bound
//! of Bilò et al. that Theorem 4.1 improves was originally shown for the
//! 1-norm. We support the 1-, 2-, and ∞-norms plus general finite `p` so
//! the harness can compare across norms.

use gncg_json::{FromJson, JsonError, ToJson, Value};

/// A vector norm on ℝᵈ inducing the edge-length metric of the game.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Norm {
    /// Manhattan norm ‖x‖₁ = Σ|xᵢ|.
    L1,
    /// Euclidean norm ‖x‖₂ (the paper's default).
    #[default]
    L2,
    /// Chebyshev norm ‖x‖_∞ = max|xᵢ|.
    LInf,
    /// General p-norm for finite p ≥ 1.
    Lp(f64),
}

impl Norm {
    /// Norm of the difference vector `a - b`.
    #[inline]
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        match *self {
            Norm::L1 => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Norm::L2 => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            Norm::LInf => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
            Norm::Lp(p) => {
                assert!(p >= 1.0, "p-norm requires p >= 1, got {p}");
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y).abs().powf(p))
                    .sum::<f64>()
                    .powf(1.0 / p)
            }
        }
    }
}

// Serialized like serde's externally tagged enums: unit variants are bare
// strings, the data-carrying `Lp` variant is a single-key object.
impl ToJson for Norm {
    fn to_json(&self) -> Value {
        match self {
            Norm::L1 => Value::String("L1".to_string()),
            Norm::L2 => Value::String("L2".to_string()),
            Norm::LInf => Value::String("LInf".to_string()),
            Norm::Lp(p) => Value::Object(vec![("Lp".to_string(), Value::Number(*p))]),
        }
    }
}

impl FromJson for Norm {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::String(s) => match s.as_str() {
                "L1" => Ok(Norm::L1),
                "L2" => Ok(Norm::L2),
                "LInf" => Ok(Norm::LInf),
                other => Err(JsonError::new(format!("unknown norm `{other}`"))),
            },
            Value::Object(_) => {
                let p = value
                    .get("Lp")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| JsonError::new("expected {\"Lp\": p}"))?;
                Ok(Norm::Lp(p))
            }
            other => Err(JsonError::new(format!("expected norm, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_pythagoras() {
        let d = Norm::L2.distance(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_distance() {
        let d = Norm::L1.distance(&[1.0, 2.0], &[4.0, -2.0]);
        assert!((d - 7.0).abs() < 1e-12);
    }

    #[test]
    fn linf_distance() {
        let d = Norm::LInf.distance(&[1.0, 2.0], &[4.0, -2.0]);
        assert!((d - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lp_matches_l1_l2_at_p() {
        let a = [0.3, -1.7, 2.5];
        let b = [-0.4, 0.0, 1.0];
        assert!((Norm::Lp(1.0).distance(&a, &b) - Norm::L1.distance(&a, &b)).abs() < 1e-12);
        assert!((Norm::Lp(2.0).distance(&a, &b) - Norm::L2.distance(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn lp_approaches_linf() {
        let a = [1.0, 2.0, -3.0];
        let b = [0.0; 3];
        let d = Norm::Lp(64.0).distance(&a, &b);
        assert!((d - 3.0).abs() < 0.1);
    }

    #[test]
    fn zero_distance_to_self() {
        let a = [0.1, 0.2, 0.3];
        for n in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            assert_eq!(n.distance(&a, &a), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "p >= 1")]
    fn lp_rejects_p_below_one() {
        Norm::Lp(0.5).distance(&[1.0], &[0.0]);
    }

    #[test]
    fn norms_are_symmetric() {
        let a = [2.0, -1.0];
        let b = [-3.0, 4.0];
        for n in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            assert!((n.distance(&a, &b) - n.distance(&b, &a)).abs() < 1e-12);
        }
    }
}
