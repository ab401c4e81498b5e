//! Strategy profiles with edge ownership.

use crate::EdgeWeights;
use gncg_graph::Graph;
use gncg_json::{field, object, FromJson, JsonError, ToJson, Value};
use std::collections::BTreeSet;

/// A strategy profile `s = (S_1, …, S_n)`: for each agent, the set of
/// agents she buys an edge to. The induced network is the union of all
/// bought edges; both directions may be bought simultaneously (each owner
/// then pays separately, as in the model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OwnedNetwork {
    strategies: Vec<BTreeSet<usize>>,
}

impl ToJson for OwnedNetwork {
    fn to_json(&self) -> Value {
        object(vec![("strategies", self.strategies.to_json())])
    }
}

impl FromJson for OwnedNetwork {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let strategies = Vec::<BTreeSet<usize>>::from_json(field(value, "strategies")?)?;
        let n = strategies.len();
        if n == 0 {
            return Err(JsonError::new("profile must have at least one agent"));
        }
        for (u, s) in strategies.iter().enumerate() {
            if s.contains(&u) || s.iter().any(|&v| v >= n) {
                return Err(JsonError::new("strategy targets out of range"));
            }
        }
        Ok(Self { strategies })
    }
}

impl OwnedNetwork {
    /// The empty profile on `n` agents (no edges).
    pub fn empty(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            strategies: vec![BTreeSet::new(); n],
        }
    }

    /// A center-sponsored star: `center` buys an edge to every other
    /// agent.
    pub fn center_star(n: usize, center: usize) -> Self {
        assert!(center < n);
        let mut net = Self::empty(n);
        for v in 0..n {
            if v != center {
                net.buy(center, v);
            }
        }
        net
    }

    /// The path profile `0→1→2→…`: agent `i` buys the edge to `i+1`.
    pub fn forward_path(n: usize) -> Self {
        let mut net = Self::empty(n);
        for i in 0..n.saturating_sub(1) {
            net.buy(i, i + 1);
        }
        net
    }

    /// Build from oriented, weighted edges `(owner, other, _w)` — the
    /// output shape of the orientation/distribution helpers.
    pub fn from_distributed(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut net = Self::empty(n);
        for &(o, v, _) in edges {
            net.buy(o, v);
        }
        net
    }

    /// The complete profile: every agent buys every edge to a
    /// higher-indexed agent (each edge bought exactly once).
    pub fn complete(n: usize) -> Self {
        let mut net = Self::empty(n);
        for u in 0..n {
            for v in (u + 1)..n {
                net.buy(u, v);
            }
        }
        net
    }

    /// Number of agents.
    #[inline]
    pub fn len(&self) -> usize {
        self.strategies.len()
    }

    /// True iff there is exactly one agent (profiles are never empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Agent `u` buys the edge to `v`.
    pub fn buy(&mut self, u: usize, v: usize) {
        assert!(u != v, "agents cannot buy self-loops");
        assert!(u < self.len() && v < self.len());
        self.strategies[u].insert(v);
    }

    /// Agent `u` sells her edge to `v` (no-op if she does not own it).
    pub fn sell(&mut self, u: usize, v: usize) -> bool {
        self.strategies[u].remove(&v)
    }

    /// Does `u` own an edge to `v`?
    #[inline]
    pub fn owns(&self, u: usize, v: usize) -> bool {
        self.strategies[u].contains(&v)
    }

    /// Is there an edge `{u, v}` in the created network (owned by either
    /// endpoint)?
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.owns(u, v) || self.owns(v, u)
    }

    /// Strategy `S_u`.
    #[inline]
    pub fn strategy(&self, u: usize) -> &BTreeSet<usize> {
        &self.strategies[u]
    }

    /// Replace agent `u`'s strategy; returns the old one.
    pub fn set_strategy(&mut self, u: usize, s: BTreeSet<usize>) -> BTreeSet<usize> {
        assert!(!s.contains(&u), "strategy may not contain the agent itself");
        assert!(s.iter().all(|&v| v < self.len()));
        std::mem::replace(&mut self.strategies[u], s)
    }

    /// Number of edges bought in total (both directions of a doubly
    /// bought edge count).
    pub fn bought_edges(&self) -> usize {
        self.strategies.iter().map(|s| s.len()).sum()
    }

    /// Neighbours of `u` in the created network (either direction).
    pub fn neighbors(&self, u: usize) -> BTreeSet<usize> {
        let mut nb = self.strategies[u].clone();
        for (v, s) in self.strategies.iter().enumerate() {
            if s.contains(&u) {
                nb.insert(v);
            }
        }
        nb
    }

    /// Materialize the created network `G(s)` with weights from `w`.
    pub fn graph<W: EdgeWeights + ?Sized>(&self, w: &W) -> Graph {
        let n = self.len();
        assert_eq!(n, w.len());
        let mut g = Graph::new(n);
        for (u, s) in self.strategies.iter().enumerate() {
            for &v in s {
                g.add_edge(u, v, w.weight(u, v));
            }
        }
        g
    }

    /// A canonical, hashable fingerprint of the profile (used by the
    /// dynamics cycle detector). Two profiles have equal keys iff they
    /// are the same profile.
    pub fn canonical_key(&self) -> Vec<Vec<usize>> {
        self.strategies
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn buy_sell_owns() {
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1);
        assert!(net.owns(0, 1));
        assert!(!net.owns(1, 0));
        assert!(net.has_edge(1, 0));
        assert!(net.sell(0, 1));
        assert!(!net.sell(0, 1));
        assert!(!net.has_edge(0, 1));
    }

    #[test]
    fn center_star_shape() {
        let net = OwnedNetwork::center_star(5, 2);
        assert_eq!(net.strategy(2).len(), 4);
        for v in [0, 1, 3, 4] {
            assert!(net.owns(2, v));
            assert!(net.strategy(v).is_empty());
        }
        assert_eq!(net.bought_edges(), 4);
    }

    #[test]
    fn forward_path_shape() {
        let net = OwnedNetwork::forward_path(4);
        assert!(net.owns(0, 1) && net.owns(1, 2) && net.owns(2, 3));
        assert_eq!(net.bought_edges(), 3);
    }

    #[test]
    fn double_buying_counts_twice() {
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        net.buy(1, 0);
        assert_eq!(net.bought_edges(), 2);
        let ps = generators::line(2, 1.0);
        let g = net.graph(&ps);
        assert_eq!(g.num_edges(), 1); // single undirected edge
    }

    #[test]
    fn graph_weights_from_pointset() {
        let ps = generators::line(3, 2.0); // points at 0, 1, 2
        let net = OwnedNetwork::forward_path(3);
        let g = net.graph(&ps);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn neighbors_both_directions() {
        let mut net = OwnedNetwork::empty(4);
        net.buy(0, 1);
        net.buy(2, 0);
        let nb = net.neighbors(0);
        assert!(nb.contains(&1) && nb.contains(&2));
        assert_eq!(nb.len(), 2);
    }

    #[test]
    fn set_strategy_swaps() {
        let mut net = OwnedNetwork::empty(4);
        net.buy(1, 0);
        let old = net.set_strategy(1, [2, 3].into_iter().collect());
        assert_eq!(old.len(), 1);
        assert!(net.owns(1, 2) && net.owns(1, 3) && !net.owns(1, 0));
    }

    #[test]
    #[should_panic(expected = "may not contain the agent")]
    fn self_strategy_rejected() {
        let mut net = OwnedNetwork::empty(3);
        net.set_strategy(1, [1].into_iter().collect());
    }

    #[test]
    fn canonical_key_distinguishes_ownership() {
        let mut a = OwnedNetwork::empty(2);
        a.buy(0, 1);
        let mut b = OwnedNetwork::empty(2);
        b.buy(1, 0);
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn complete_profile_buys_each_edge_once() {
        let net = OwnedNetwork::complete(5);
        assert_eq!(net.bought_edges(), 10);
        let ps = generators::uniform_unit_square(5, 1);
        assert_eq!(net.graph(&ps).num_edges(), 10);
    }
}
