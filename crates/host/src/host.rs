//! Complete weighted host networks.

use gncg_game::DenseWeights;
use gncg_graph::{apsp, DistMatrix, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complete host network `H = (V, E(H))` with arbitrary positive edge
/// weights `w: V×V → ℝ₊` (Section 5). Stored as a flat symmetric
/// [`DistMatrix`].
#[derive(Debug, Clone)]
pub struct HostNetwork {
    w: DistMatrix,
}

impl HostNetwork {
    /// Build from a symmetric weight matrix with zero diagonal, given as
    /// nested rows.
    pub fn from_matrix(w: Vec<Vec<f64>>) -> Self {
        let n = w.len();
        for (i, row) in w.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square (row {i})");
        }
        Self::from_dist_matrix(DistMatrix::from_rows(w))
    }

    /// Build from a symmetric weight matrix with zero diagonal.
    pub fn from_dist_matrix(w: DistMatrix) -> Self {
        let n = w.len();
        assert!(n >= 1);
        for i in 0..n {
            assert_eq!(w.get(i, i), 0.0, "diagonal must be zero");
            for j in 0..n {
                if i != j {
                    let x = w.get(i, j);
                    assert!(x > 0.0 && x.is_finite(), "weights must be positive");
                    assert!((x - w.get(j, i)).abs() < 1e-12, "matrix must be symmetric");
                }
            }
        }
        Self { w }
    }

    /// Random *metric* host: sample a random weighted graph and take its
    /// metric closure.
    pub fn random_metric(n: usize, seed: u64) -> Self {
        assert!(n >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        // random spanning chain keeps it connected, plus random chords
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 0.1 + rng.gen::<f64>());
        }
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 0.4 && !g.has_edge(u, v) {
                    g.add_edge(u, v, 0.1 + rng.gen::<f64>() * 2.0);
                }
            }
        }
        Self::from_dist_matrix(apsp::all_pairs(&g))
    }

    /// Random *non-metric* host: i.i.d. uniform weights in
    /// `[lo, hi]` — triangle inequality violated with high probability.
    pub fn random_nonmetric(n: usize, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(n >= 2 && 0.0 < lo && lo < hi);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = DistMatrix::filled(n, 0.0);
        for u in 0..n {
            for v in (u + 1)..n {
                let x = lo + rng.gen::<f64>() * (hi - lo);
                w.set(u, v, x);
                w.set(v, u, x);
            }
        }
        Self::from_dist_matrix(w)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True iff a single node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Edge weight `w(u, v)`.
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.w.get(u, v)
    }

    /// Metric closure: `d_H(u, v)` over the complete host.
    pub fn metric_closure(&self) -> DistMatrix {
        let n = self.len();
        let g = Graph::complete(n, |i, j| self.w.get(i, j));
        apsp::all_pairs(&g)
    }

    /// Does the host satisfy the triangle inequality?
    pub fn is_metric(&self) -> bool {
        let n = self.len();
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                for x in 0..n {
                    if x != u
                        && x != v
                        && self.w.get(u, v) > self.w.get(u, x) + self.w.get(x, v) + 1e-9
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// View as the game's weight oracle, carrying the metric closure as
    /// the certified distance lower bound.
    pub fn as_weights(&self) -> DenseWeights {
        DenseWeights::from_matrix(self.w.clone()).with_lower_bounds(self.metric_closure())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_metric_is_metric() {
        for seed in 0..5 {
            let h = HostNetwork::random_metric(12, seed);
            assert!(h.is_metric(), "seed {seed}");
        }
    }

    #[test]
    fn random_nonmetric_usually_is_not() {
        let mut violations = 0;
        for seed in 0..5 {
            let h = HostNetwork::random_nonmetric(10, 0.1, 10.0, seed);
            if !h.is_metric() {
                violations += 1;
            }
        }
        assert!(violations >= 4);
    }

    #[test]
    fn metric_closure_lower_bounds_weights() {
        let h = HostNetwork::random_nonmetric(10, 0.1, 10.0, 9);
        let cl = h.metric_closure();
        for u in 0..10 {
            for v in 0..10 {
                if u != v {
                    assert!(cl[u][v] <= h.weight(u, v) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn closure_of_metric_host_is_identity() {
        let h = HostNetwork::random_metric(10, 1);
        let cl = h.metric_closure();
        for u in 0..10 {
            for v in 0..10 {
                if u != v {
                    assert!((cl[u][v] - h.weight(u, v)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn as_weights_exposes_closure_lower_bound() {
        use gncg_game::EdgeWeights;
        let h = HostNetwork::random_nonmetric(8, 0.1, 10.0, 4);
        let w = h.as_weights();
        for u in 0..8 {
            for v in 0..8 {
                if u != v {
                    assert!(w.metric_lower_bound(u, v) <= w.weight(u, v) + 1e-9);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_rejected() {
        HostNetwork::from_matrix(vec![vec![0.0, 1.0], vec![2.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        HostNetwork::from_matrix(vec![vec![0.0, 0.0], vec![0.0, 0.0]]);
    }
}
