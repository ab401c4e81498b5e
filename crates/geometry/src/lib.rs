//! Geometric substrate for the Euclidean Generalized Network Creation
//! Game (ℝᵈ-GNCG).
//!
//! Provides:
//! * [`Point`] — a point in ℝᵈ with p-norm distances ([`norm`]),
//! * [`PointSet`] — the agent set `P` of the game, with the quantities the
//!   paper uses throughout: `w_max`, `w_min`, aspect ratio `r`,
//! * [`generators`] — deterministic builders for every instance family the
//!   paper evaluates (uniform random, integer grids, the Theorem 2.1 / 4.4
//!   triangle clusters, the Theorem 4.1 cross-polytope, the Theorem 4.3
//!   geometric chain, …),
//! * [`closest_pair`] — grid-hashing closest pair, used for aspect-ratio
//!   computations on large point sets.

pub mod closest_pair;
pub mod generators;
pub mod norm;
pub mod point;
pub mod pointset;

pub use norm::Norm;
pub use point::Point;
pub use pointset::PointSet;

/// Relative tolerance used for game-theoretic comparisons across the whole
/// workspace (is a move improving? is a network in equilibrium?).
pub const EPS: f64 = 1e-9;

/// `a` is strictly less than `b` beyond floating-point noise, relative to
/// the magnitude of the operands. Infinite operands compare exactly
/// (finite < +∞ is *definitely* less — the disconnected-network case).
#[inline]
pub fn definitely_less(a: f64, b: f64) -> bool {
    if a.is_infinite() || b.is_infinite() {
        return a < b;
    }
    a < b - EPS * b.abs().max(a.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitely_less_basic() {
        assert!(definitely_less(1.0, 2.0));
        assert!(!definitely_less(2.0, 1.0));
        assert!(!definitely_less(1.0, 1.0));
    }

    #[test]
    fn definitely_less_absorbs_noise() {
        let a = 0.1 + 0.2; // 0.30000000000000004
        assert!(!definitely_less(0.3, a));
        assert!(!definitely_less(a, 0.3));
    }
}
