//! The cone scan shared by the Θ- and Yao graphs: around each point
//! `u`, `cones` cones of angle θ = 2π/cones; in each non-empty cone `u`
//! connects to the point of least key (ties to the smaller index), and
//! to each coincident point by a zero edge. Each vertex's picks read
//! only the point set, so they are computed in parallel (shielded from
//! the ambient budget: the graph is always complete) and added to the
//! [`Graph`] sequentially in vertex order, zero edges first, then cone
//! order — the same graph at every thread count.

use gncg_geometry::PointSet;
use gncg_graph::Graph;
use std::f64::consts::PI;

/// The cone graph of a planar point set: `key(bisector, dx, dy)` ranks
/// the candidates `v` of the cone of `u` whose bisector has angle
/// `bisector`, where `(dx, dy) = v − u`.
pub(crate) fn cone_graph(
    ps: &PointSet,
    cones: usize,
    key: impl Fn(f64, f64, f64) -> f64 + Sync,
) -> Graph {
    let n = ps.len();
    let theta = 2.0 * PI / cones as f64;
    let picks: Vec<Vec<(usize, f64)>> = gncg_parallel::unbudgeted(|| {
        gncg_parallel::parallel_map(n, |u| {
            let mut edges = Vec::new();
            // best candidate per cone: (key, index)
            let mut best: Vec<Option<(f64, usize)>> = vec![None; cones];
            let pu = ps.point(u);
            for v in (0..n).filter(|&v| v != u) {
                let pv = ps.point(v);
                let dx = pv[0] - pu[0];
                let dy = pv[1] - pu[1];
                if dx == 0.0 && dy == 0.0 {
                    if u < v {
                        edges.push((v, 0.0));
                    }
                    continue;
                }
                let angle = dy.atan2(dx).rem_euclid(2.0 * PI);
                let cone = ((angle / theta) as usize).min(cones - 1);
                let k = key((cone as f64 + 0.5) * theta, dx, dy);
                match best[cone] {
                    Some((b, _)) if b <= k => {}
                    _ => best[cone] = Some((k, v)),
                }
            }
            edges.extend(best.into_iter().flatten().map(|(_, v)| (v, ps.dist(u, v))));
            edges
        })
    });
    let mut g = Graph::new(n);
    for (u, edges) in picks.iter().enumerate() {
        for &(v, w) in edges {
            g.add_edge(u, v, w);
        }
    }
    g
}
