//! The (Euclidean) Generalized Network Creation Game.
//!
//! Agents `0..n` correspond to points in ℝᵈ (or to nodes of a weighted
//! host network — see the [`EdgeWeights`] abstraction). Each agent `u`
//! picks a strategy `S_u ⊆ P∖{u}` of edges to buy; an edge costs
//! `α·‖u,v‖` and the created network is the union of all bought edges.
//! Agent `u`'s cost is
//!
//! ```text
//! cost(u) = α·‖u, S_u‖ + Σ_v d_G(u, v)
//! ```
//!
//! Modules:
//! * [`network`] — strategy profiles with edge ownership,
//! * [`cost`] — agent/social cost evaluation (parallel),
//! * [`moves`] — improving-move local search (add/drop/swap),
//! * [`best_response`] — exact best responses by subset enumeration,
//! * [`exact`] — exact social optimum and exact Nash verification,
//! * [`certify`] — (β, γ) certification with exact values on small
//!   instances and sound bounds on large ones,
//! * [`outcome`] — budgeted solve outcomes ([`Outcome`]) and the
//!   exact→certified degradation ladder,
//! * [`dynamics`] — (best-)response dynamics with cycle detection
//!   (the Theorem 3.1 FIP study),
//! * [`eval`] — the incremental [`EvalContext`] the dynamics run on
//!   (delta-rebuilt graph, cached distance rows),
//! * [`approx`] — certification with *certified error bars* (β/γ
//!   brackets equal to the exact backend's figures up to 4096 agents,
//!   proven to contain them above) and grid-candidate dynamics for
//!   `n = 10⁴`,
//! * [`prune`] — geometric move pruning: sound lower bounds that
//!   discard candidates bit-identically, with the unpruned engines kept
//!   as one named oracle ([`prune::oracle`]),
//! * [`solver_config`] — the unified builder-style [`SolverConfig`]
//!   accepted by every solver entry point (model × formation × backend
//!   × budget × certify flags), with the
//!   [`EvalBackend`] pivot count of the bracketed certifier,
//! * [`model`] — the cost-model abstraction ([`CostModel`],
//!   [`SumDistances`]/[`MaxDistance`]) and edge-formation rules
//!   ([`EdgeFormation`], [`GameSpec`]) every engine is generic over,
//! * [`instances`] — the paper's witness instances with their strategy
//!   profiles (Theorems 2.1, 4.1, 4.3, 4.4).

pub mod approx;
pub mod best_response;
pub mod certify;
pub mod cost;
pub mod dynamics;
pub mod eval;
pub mod exact;
pub mod instances;
pub mod model;
pub mod moves;
pub mod network;
pub mod outcome;
pub mod prune;
pub mod solver_config;

pub use eval::EvalContext;
pub use model::{CostModel, EdgeFormation, GameSpec, MaxDistance, ModelKind, SumDistances};
pub use network::OwnedNetwork;
pub use outcome::{DegradeReason, Outcome, Regime};
pub use solver_config::{EvalBackend, SolverConfig};

use gncg_geometry::PointSet;
use gncg_graph::DistMatrix;

/// Edge-length oracle shared by the Euclidean game and the host-network
/// GNCG: `weight(u, v)` is the length `‖u,v‖` (resp. `w(u,v)`) an edge
/// between `u` and `v` would have.
pub trait EdgeWeights: Sync {
    /// Number of agents.
    fn len(&self) -> usize;

    /// True iff the game has no agents (never, for validated instances).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of a potential edge `{u, v}` (`u != v`).
    fn weight(&self, u: usize, v: usize) -> f64;

    /// A lower bound on the distance between `u` and `v` in *any*
    /// network buildable in this game. For metric instances the direct
    /// length is such a bound (triangle inequality); non-metric hosts
    /// override this with the host's metric closure.
    fn metric_lower_bound(&self, u: usize, v: usize) -> f64 {
        self.weight(u, v)
    }
}

impl EdgeWeights for PointSet {
    fn len(&self) -> usize {
        PointSet::len(self)
    }

    fn weight(&self, u: usize, v: usize) -> f64 {
        self.dist(u, v)
    }
}

/// Dense explicit weights (used by host networks and tests), stored as a
/// flat row-major [`DistMatrix`]. Carries an optional separate
/// lower-bound matrix (the metric closure) for non-metric instances.
#[derive(Debug, Clone)]
pub struct DenseWeights {
    weights: DistMatrix,
    lower_bounds: Option<DistMatrix>,
}

impl DenseWeights {
    /// Build from a symmetric weight matrix given as nested rows.
    pub fn new(weights: Vec<Vec<f64>>) -> Self {
        let n = weights.len();
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), n, "weight matrix must be square (row {i})");
        }
        Self::from_matrix(DistMatrix::from_rows(weights))
    }

    /// Build from a symmetric weight matrix.
    pub fn from_matrix(weights: DistMatrix) -> Self {
        let n = weights.len();
        assert!(n >= 1);
        for i in 0..n {
            for j in 0..n {
                let w = weights.get(i, j);
                assert!(w.is_finite() && w >= 0.0, "invalid weight at ({i},{j})");
                assert!(
                    (w - weights.get(j, i)).abs() < 1e-12,
                    "weight matrix must be symmetric"
                );
            }
        }
        Self {
            weights,
            lower_bounds: None,
        }
    }

    /// Attach a distance lower-bound matrix (e.g. the host's metric
    /// closure) used by β/γ certification on non-metric instances.
    pub fn with_lower_bounds(mut self, lb: DistMatrix) -> Self {
        assert_eq!(lb.len(), self.weights.len());
        self.lower_bounds = Some(lb);
        self
    }
}

impl EdgeWeights for DenseWeights {
    fn len(&self) -> usize {
        self.weights.len()
    }

    fn weight(&self, u: usize, v: usize) -> f64 {
        self.weights.get(u, v)
    }

    fn metric_lower_bound(&self, u: usize, v: usize) -> f64 {
        match &self.lower_bounds {
            Some(lb) => lb.get(u, v),
            None => self.weights.get(u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn pointset_implements_edge_weights() {
        let ps = generators::line(3, 2.0);
        assert_eq!(EdgeWeights::len(&ps), 3);
        assert!((ps.weight(0, 2) - 2.0).abs() < 1e-12);
        assert_eq!(ps.metric_lower_bound(0, 2), ps.weight(0, 2));
    }

    #[test]
    fn dense_weights_roundtrip() {
        let w = DenseWeights::new(vec![
            vec![0.0, 1.0, 4.0],
            vec![1.0, 0.0, 2.0],
            vec![4.0, 2.0, 0.0],
        ]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.weight(0, 2), 4.0);
        // non-metric: direct 0-2 edge (4.0) longer than path via 1 (3.0)
        let closure = DistMatrix::from_rows(vec![
            vec![0.0, 1.0, 3.0],
            vec![1.0, 0.0, 2.0],
            vec![3.0, 2.0, 0.0],
        ]);
        let w = w.with_lower_bounds(closure);
        assert_eq!(w.metric_lower_bound(0, 2), 3.0);
        assert_eq!(w.weight(0, 2), 4.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        DenseWeights::new(vec![vec![0.0, 1.0], vec![2.0, 0.0]]);
    }
}
