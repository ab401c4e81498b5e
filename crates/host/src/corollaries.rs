//! Corollaries 5.1–5.3: approximation constructions on host networks.

use crate::hm_filter;
use crate::HostNetwork;
use gncg_game::OwnedNetwork;
use gncg_graph::csr::{path_from_tree, Csr, DijkstraScratch};
use gncg_graph::{mst, orientation, Graph};

/// Corollary 5.1: the spanning subnetwork
/// `H' = (V, {uv | w(u,v) = d_H(u,v)})` — every edge that realizes the
/// host metric — is an (α+1, α/2+1)-NE. Each edge is owned by its
/// lower-indexed endpoint.
pub fn shortest_path_subnetwork(h: &HostNetwork) -> OwnedNetwork {
    let n = h.len();
    let closure = h.metric_closure();
    let mut net = OwnedNetwork::empty(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if (h.weight(u, v) - closure[u][v]).abs() <= 1e-9 * h.weight(u, v).max(1.0) {
                net.buy(u, v);
            }
        }
    }
    net
}

/// Corollary 5.2: a minimum spanning tree of the host is an
/// (n−1, n−1)-network. Rooted ownership as in the Euclidean case.
pub fn host_mst_network(h: &HostNetwork) -> OwnedNetwork {
    let n = h.len();
    let edges = mst::prim_dense(n, |i, j| h.weight(i, j));
    let tree = Graph::from_edges(n, &edges);
    let mut net = OwnedNetwork::empty(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in tree.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                net.buy(v, u);
                queue.push_back(v);
            }
        }
    }
    net
}

/// Parameters for the host variant of Algorithm 1 (Corollary 5.3).
#[derive(Debug, Clone, Copy)]
pub struct HostAlgorithmParams {
    /// Cluster radius divisor `b ≥ 1` (radius is `w_max/b`, with `w_max`
    /// the longest *shortest-path* distance in `H_M`).
    pub b: f64,
    /// Cluster-population threshold `c`.
    pub c: usize,
    /// Stretch target of the greedy metric spanner.
    pub t: f64,
}

/// Result of the host Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct HostAlgorithmResult {
    /// The constructed profile.
    pub network: OwnedNetwork,
    /// True when the cluster branch fired.
    pub clustered: bool,
    /// Measured max edges owned among spanner edges.
    pub k_measured: usize,
    /// Measured stretch of the spanner w.r.t. the `H_M` metric.
    pub t_measured: f64,
}

/// Corollary 5.3: Algorithm 1 on the filtered host `H_M`.
///
/// Differences from the Euclidean version exactly as in the paper: the
/// metric is `d_{H_M}`, the spanner is built on that metric, and an
/// outside node connects to its closest cluster node via the shortest
/// path `π_{H_M}(u, u')` (buying every edge on it).
pub fn algorithm1_on_host(
    h: &HostNetwork,
    _alpha: f64,
    params: HostAlgorithmParams,
) -> HostAlgorithmResult {
    assert!(params.b >= 1.0);
    let n = h.len();
    let hm = hm_filter::hm_filter(h);
    let metric = gncg_graph::apsp::all_pairs(&hm);
    let w_max = metric.as_flat().iter().copied().fold(0.0f64, f64::max);

    // cluster detection over the H_M metric
    let center = if params.c > 0 && w_max > 0.0 {
        let radius = w_max / params.b;
        (0..n).find(|&v| {
            let outside = (0..n).filter(|&u| metric[u][v] > radius).count();
            outside < params.c
        })
    } else {
        None
    };

    match center {
        None => {
            let spanner = greedy_metric_spanner(&metric, &hm, params.t);
            let owned = orientation::bounded_outdegree_orientation(&spanner);
            let network = OwnedNetwork::from_distributed(n, &owned);
            let k = orientation::max_ownership(n, &owned);
            let t_meas = measured_stretch(&spanner, &metric);
            HostAlgorithmResult {
                network,
                clustered: false,
                k_measured: k,
                t_measured: t_meas,
            }
        }
        Some(v) => {
            let c_radius = 2.0 * w_max / params.b;
            let c_v: Vec<usize> = (0..n).filter(|&u| metric[u][v] <= c_radius).collect();
            let outside: Vec<usize> = (0..n).filter(|&u| metric[u][v] > c_radius).collect();
            // spanner over the sub-metric of C_v, using only H_M edges
            // within C_v as candidates
            let local_index: std::collections::HashMap<usize, usize> =
                c_v.iter().enumerate().map(|(i, &g)| (g, i)).collect();
            let sub_metric = gncg_graph::DistMatrix::from_rows(
                c_v.iter()
                    .map(|&a| c_v.iter().map(|&b| metric[a][b]).collect())
                    .collect(),
            );
            let mut sub_hm = Graph::new(c_v.len());
            for (a, b, w) in hm.edges() {
                if let (Some(&la), Some(&lb)) = (local_index.get(&a), local_index.get(&b)) {
                    sub_hm.add_edge(la, lb, w);
                }
            }
            let spanner = greedy_metric_spanner(&sub_metric, &sub_hm, params.t);
            let owned_local = orientation::bounded_outdegree_orientation(&spanner);
            let k = orientation::max_ownership(c_v.len(), &owned_local);
            let t_meas = measured_stretch(&spanner, &sub_metric);

            let mut network = OwnedNetwork::empty(n);
            for &(o, w, _) in &owned_local {
                network.buy(c_v[o], c_v[w]);
            }
            // outside nodes: agent u buys every edge of the shortest
            // H_M path π(u, u') to its closest C_v node u'. Ownership of
            // a path edge {a, b} must sit at one endpoint; we let the
            // path-predecessor endpoint own it, which keeps the created
            // edge set identical to the paper's construction.
            let preds = hm_trees(&hm);
            for &u in &outside {
                let closest = *c_v
                    .iter()
                    .min_by(|&&a, &&b| metric[u][a].partial_cmp(&metric[u][b]).unwrap())
                    .unwrap();
                if let Some(path) = path_from_tree(&preds[u], u, closest) {
                    for win in path.windows(2) {
                        let (a, b) = (win[0], win[1]);
                        if !network.has_edge(a, b) {
                            network.buy(a, b);
                        }
                    }
                }
            }
            HostAlgorithmResult {
                network,
                clustered: true,
                k_measured: k,
                t_measured: t_meas,
            }
        }
    }
}

/// Greedy t-spanner over an explicit metric, restricted to the edges of
/// the carrier graph `hm` (pairs not connected by an `H_M` edge are
/// reachable through kept edges because `H_M` realizes the metric).
fn greedy_metric_spanner(metric: &gncg_graph::DistMatrix, hm: &Graph, t: f64) -> Graph {
    assert!(t >= 1.0);
    let pairs = hm.edges().into_iter().map(|(u, v, w)| (w, u, v)).collect();
    gncg_spanner::greedy::greedy_over_pairs(metric.len(), pairs, t, 1e-12)
}

fn measured_stretch(g: &Graph, metric: &gncg_graph::DistMatrix) -> f64 {
    let n = g.len();
    let d = gncg_graph::apsp::all_pairs(g);
    let mut worst: f64 = 1.0;
    for u in 0..n {
        for v in (u + 1)..n {
            if metric[u][v] > 0.0 {
                worst = worst.max(d[u][v] / metric[u][v]);
            }
        }
    }
    worst
}

/// Shortest-path-tree predecessors of `H_M` from every source.
fn hm_trees(hm: &Graph) -> Vec<Vec<usize>> {
    let n = hm.len();
    let csr = Csr::from_graph(hm);
    let mut scratch = DijkstraScratch::default();
    let mut dist = vec![f64::INFINITY; n];
    (0..n)
        .map(|s| {
            let mut pred = vec![usize::MAX; n];
            csr.dijkstra_tree(s, &mut dist, &mut pred, &mut scratch);
            pred
        })
        .collect()
}

/// Corollary 5.1's guarantee.
pub fn corollary_5_1_beta(alpha: f64) -> f64 {
    alpha + 1.0
}

/// Corollary 5.1's efficiency guarantee.
pub fn corollary_5_1_gamma(alpha: f64) -> f64 {
    alpha / 2.0 + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_game::certify::certify;
    use gncg_game::SolverConfig;

    #[test]
    fn shortest_path_subnetwork_realizes_the_closure() {
        let h = HostNetwork::random_nonmetric(10, 0.2, 5.0, 1);
        let net = shortest_path_subnetwork(&h);
        let w = h.as_weights();
        let g = net.graph(&w);
        assert!(gncg_graph::components::is_connected(&g));
        let d = gncg_graph::apsp::all_pairs(&g);
        let cl = h.metric_closure();
        for u in 0..10 {
            for v in 0..10 {
                assert!(
                    (d[u][v] - cl[u][v]).abs() < 1e-9,
                    "pair ({u},{v}): {} vs {}",
                    d[u][v],
                    cl[u][v]
                );
            }
        }
    }

    #[test]
    fn corollary_5_1_bounds_certified_nonmetric() {
        for seed in 0..3 {
            let h = HostNetwork::random_nonmetric(9, 0.2, 5.0, seed);
            let w = h.as_weights();
            let net = shortest_path_subnetwork(&h);
            for alpha in [0.5, 2.0, 8.0] {
                let r = certify(&w, &net, alpha, &SolverConfig::bounds_only());
                assert!(
                    r.beta_upper <= corollary_5_1_beta(alpha) + 1e-6,
                    "seed {seed} alpha {alpha}: beta {}",
                    r.beta_upper
                );
                assert!(
                    r.gamma_upper <= corollary_5_1_gamma(alpha) + 1e-6,
                    "seed {seed} alpha {alpha}: gamma {}",
                    r.gamma_upper
                );
            }
        }
    }

    #[test]
    fn host_mst_is_spanning_single_owner() {
        let h = HostNetwork::random_metric(12, 5);
        let net = host_mst_network(&h);
        let w = h.as_weights();
        let g = net.graph(&w);
        assert!(gncg_graph::components::is_connected(&g));
        assert_eq!(g.num_edges(), 11);
        for u in 0..12 {
            assert!(net.strategy(u).len() <= 1);
        }
    }

    #[test]
    fn corollary_5_2_bounds_certified() {
        let h = HostNetwork::random_nonmetric(8, 0.3, 4.0, 11);
        let w = h.as_weights();
        let net = host_mst_network(&h);
        let r = certify(&w, &net, 2.0, &SolverConfig::bounds_only());
        assert!(r.beta_upper <= 7.0 + 1e-6, "beta {}", r.beta_upper);
        assert!(r.gamma_upper <= 7.0 + 1e-6, "gamma {}", r.gamma_upper);
    }

    #[test]
    fn algorithm1_on_host_sparse() {
        let h = HostNetwork::random_metric(15, 7);
        let r = algorithm1_on_host(
            &h,
            1.0,
            HostAlgorithmParams {
                b: 1.0,
                c: 0,
                t: 1.5,
            },
        );
        assert!(!r.clustered);
        assert!(r.t_measured <= 1.5 + 1e-9);
        let w = h.as_weights();
        let g = r.network.graph(&w);
        assert!(gncg_graph::components::is_connected(&g));
    }

    #[test]
    fn algorithm1_on_host_cluster_branch() {
        // host with a tight cluster: nodes 0..10 mutually close, nodes
        // 10..13 far away
        let n = 13;
        let mut w = vec![vec![0.0; n]; n];
        for (u, row) in w.iter_mut().enumerate() {
            for (v, cell) in row.iter_mut().enumerate() {
                if u == v {
                    continue;
                }
                // any pair involving a far node is far apart (metric-ish)
                *cell = if u < 10 && v < 10 { 0.1 } else { 10.0 };
            }
        }
        let h = HostNetwork::from_matrix(w);
        let r = algorithm1_on_host(
            &h,
            1.0,
            HostAlgorithmParams {
                b: 20.0,
                c: 4,
                t: 2.0,
            },
        );
        assert!(r.clustered);
        let wts = h.as_weights();
        let g = r.network.graph(&wts);
        assert!(gncg_graph::components::is_connected(&g));
    }
}
