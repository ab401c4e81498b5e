//! Cost evaluation: per-agent cost, distance cost, social cost.
//!
//! Every evaluation is generic over the [`CostModel`] `M` turning the
//! per-agent distance vector into a scalar; callers name the model at
//! the call site (`agent_cost::<_, SumDistances>` for the paper's
//! objective). The [`crate::SumDistances`] instantiation monomorphizes
//! to the plain distance sum (`M::fold(acc, d) = acc + d` in a left fold
//! is exactly `iter().sum()`).

use crate::{CostModel, EdgeWeights, OwnedNetwork};
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::{apsp, Graph};

/// Edge cost `α·‖u, S_u‖` of agent `u` (model-independent: every model
/// charges the buyer the same way).
pub fn edge_cost<W: EdgeWeights + ?Sized>(w: &W, net: &OwnedNetwork, alpha: f64, u: usize) -> f64 {
    alpha * net.strategy(u).iter().map(|&v| w.weight(u, v)).sum::<f64>()
}

/// Distance cost of agent `u` under model `M`: the `M`-aggregate of
/// `u`'s shortest-path distance vector (self-distance 0 included), or
/// `INFINITY` when the created network does not connect `u` to everyone.
pub fn distance_cost<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    u: usize,
) -> f64 {
    let csr = Csr::from_graph(&net.graph(w));
    let mut dist = gncg_parallel::arena::rent::<Vec<f64>>();
    let mut scratch = gncg_parallel::arena::rent::<DijkstraScratch>();
    dist.resize(csr.len(), f64::INFINITY);
    csr.dijkstra_into_slice(u, &mut dist, &mut scratch);
    M::aggregate(&dist)
}

/// Full cost of agent `u` under model `M`: `α·‖u,S_u‖ + d_G(u, P)`.
pub fn agent_cost<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
    u: usize,
) -> f64 {
    edge_cost(w, net, alpha, u) + distance_cost::<W, M>(w, net, u)
}

/// Cost vector of all agents under model `M`, distance aggregates
/// computed in parallel.
pub fn all_costs<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
) -> Vec<f64> {
    let g = net.graph(w);
    let dists = apsp::distance_aggregates(&g, |row| M::aggregate(row));
    (0..net.len())
        .map(|u| edge_cost(w, net, alpha, u) + dists[u])
        .collect()
}

/// Social cost `SC(G(s)) = Σ_u cost(u)` under model `M` (the outer Σ
/// over agents is a sum under every model; only the per-agent distance
/// aggregate varies).
pub fn social_cost<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    net: &OwnedNetwork,
    alpha: f64,
) -> f64 {
    all_costs::<W, M>(w, net, alpha).iter().sum()
}

/// Social cost of a bare network (ownership-independent form) under
/// model `M`: `α·Σ_{e∈E} w(e) + Σ_u M-aggregate(d_G(u, ·))`. Equal to
/// [`social_cost`] whenever each edge is bought exactly once.
pub fn social_cost_of_graph<M: CostModel>(g: &Graph, alpha: f64) -> f64 {
    alpha * g.total_weight() + apsp::total_row_aggregate(g, |row| M::aggregate(row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaxDistance, SumDistances};
    use gncg_geometry::generators;
    use gncg_graph::dijkstra;

    #[test]
    fn star_costs_on_line() {
        // points at 0, 1, 2; agent 0 buys edges to 1 and 2
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::center_star(3, 0);
        let alpha = 2.0;
        // edge cost of 0: 2*(1+2) = 6; distance cost: 1+2 = 3
        assert!((agent_cost::<_, SumDistances>(&ps, &net, alpha, 0) - 9.0).abs() < 1e-12);
        // agent 1: no edges; distances 1 (to 0) + 3 (to 2 via 0)
        assert!((agent_cost::<_, SumDistances>(&ps, &net, alpha, 1) - 4.0).abs() < 1e-12);
        // agent 2: distances 2 + 3
        assert!((agent_cost::<_, SumDistances>(&ps, &net, alpha, 2) - 5.0).abs() < 1e-12);
        assert!((social_cost::<_, SumDistances>(&ps, &net, alpha) - 18.0).abs() < 1e-12);
    }

    #[test]
    fn max_distance_costs_on_line() {
        // same instance under the eccentricity objective
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::center_star(3, 0);
        let alpha = 2.0;
        // agent 0: edge cost 6, eccentricity 2
        assert!((agent_cost::<_, MaxDistance>(&ps, &net, alpha, 0) - 8.0).abs() < 1e-12);
        // agent 1: ecc = 3 (to 2 via 0)
        assert!((agent_cost::<_, MaxDistance>(&ps, &net, alpha, 1) - 3.0).abs() < 1e-12);
        // agent 2: ecc = 3
        assert!((agent_cost::<_, MaxDistance>(&ps, &net, alpha, 2) - 3.0).abs() < 1e-12);
        assert!((social_cost::<_, MaxDistance>(&ps, &net, alpha) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn sum_model_is_bit_identical_to_plain_distance_sum() {
        // the SumDistances fold must reproduce `iter().sum()` bit for bit
        for seed in 0..4u64 {
            let ps = generators::uniform_unit_square(12, seed);
            let net = OwnedNetwork::center_star(12, 0);
            let g = net.graph(&ps);
            for u in 0..12 {
                let plain =
                    edge_cost(&ps, &net, 1.5, u) + dijkstra::distances(&g, u).iter().sum::<f64>();
                assert_eq!(
                    agent_cost::<_, SumDistances>(&ps, &net, 1.5, u).to_bits(),
                    plain.to_bits()
                );
            }
        }
    }

    #[test]
    fn all_costs_matches_individual() {
        let ps = generators::uniform_unit_square(15, 3);
        let net = OwnedNetwork::complete(15);
        let alpha = 1.5;
        let batch = all_costs::<_, SumDistances>(&ps, &net, alpha);
        for (u, &c) in batch.iter().enumerate() {
            assert!((c - agent_cost::<_, SumDistances>(&ps, &net, alpha, u)).abs() < 1e-9);
        }
        let batch_max = all_costs::<_, MaxDistance>(&ps, &net, alpha);
        for (u, &c) in batch_max.iter().enumerate() {
            assert!((c - agent_cost::<_, MaxDistance>(&ps, &net, alpha, u)).abs() < 1e-9);
        }
    }

    #[test]
    fn disconnected_network_is_infinitely_costly() {
        let ps = generators::line(3, 2.0);
        let mut net = OwnedNetwork::empty(3);
        net.buy(0, 1);
        assert!(distance_cost::<_, SumDistances>(&ps, &net, 0).is_infinite());
        assert!(social_cost::<_, SumDistances>(&ps, &net, 1.0).is_infinite());
        assert!(distance_cost::<_, MaxDistance>(&ps, &net, 0).is_infinite());
        assert!(social_cost::<_, MaxDistance>(&ps, &net, 1.0).is_infinite());
    }

    #[test]
    fn social_cost_of_graph_matches_profile_form() {
        let ps = generators::uniform_unit_square(10, 9);
        let net = OwnedNetwork::complete(10);
        let g = net.graph(&ps);
        let a = social_cost::<_, SumDistances>(&ps, &net, 2.5);
        let b = social_cost_of_graph::<SumDistances>(&g, 2.5);
        assert!((a - b).abs() < 1e-9);
        let am = social_cost::<_, MaxDistance>(&ps, &net, 2.5);
        let bm = social_cost_of_graph::<MaxDistance>(&g, 2.5);
        assert!((am - bm).abs() < 1e-9);
    }

    #[test]
    fn double_bought_edge_charged_twice_in_social_cost() {
        let ps = generators::line(2, 1.0);
        let mut net = OwnedNetwork::empty(2);
        net.buy(0, 1);
        net.buy(1, 0);
        let alpha = 3.0;
        // each agent pays 3; distances 1 each
        assert!((social_cost::<_, SumDistances>(&ps, &net, alpha) - (6.0 + 2.0)).abs() < 1e-12);
        // graph form counts the edge once — deliberately different
        let g = net.graph(&ps);
        assert!((social_cost_of_graph::<SumDistances>(&g, alpha) - (3.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn edge_cost_scales_with_alpha() {
        let ps = generators::line(3, 2.0);
        let net = OwnedNetwork::forward_path(3);
        assert!((edge_cost(&ps, &net, 4.0, 0) - 4.0).abs() < 1e-12);
        assert!((edge_cost(&ps, &net, 8.0, 0) - 8.0).abs() < 1e-12);
        assert_eq!(edge_cost(&ps, &net, 8.0, 2), 0.0);
    }
}
