//! Regenerate **Figure 3**: what Algorithm 1's output looks like on the
//! two branches — a spanner over a dense cluster with attached leaves
//! (left) vs a bounded-degree spanner over sparse points (right).
//!
//! Writes `results/fig3_cluster.svg` and `results/fig3_sparse.svg` and
//! prints the structural statistics the figure conveys.

use gncg_algo::{run_algorithm1, AlgorithmOneParams, Branch};
use gncg_bench::svg;
use gncg_geometry::generators;
use gncg_spanner::SpannerKind;
use gncg_sweep::harness::run_repro;

fn main() {
    let rep = run_repro(
        "fig3",
        "Figure 3: Algorithm 1 output shapes — cluster branch (left) vs sparse branch (right)",
        |run, rep| {
            // one unit per panel; the SVG is written inside the unit, so a
            // recorded checkpoint line implies its SVG already exists on disk

            // left: dense cluster + outliers
            run.unit(rep, "cluster panel", |rep| {
                let ps_cluster = generators::cluster_with_outliers(45, 6, 2, 0.4, 8.0, 10.0, 7);
                let params = AlgorithmOneParams {
                    b: 6.0,
                    c: 7,
                    spanner: SpannerKind::Greedy { t: 1.5 },
                };
                let res = run_algorithm1(&ps_cluster, 2.0, params);
                let clustered = matches!(res.branch, Branch::Cluster { .. });
                let leaf_agents = (0..ps_cluster.len())
                    .filter(|&u| {
                        res.network.strategy(u).len() == 1 && res.network.neighbors(u).len() == 1
                    })
                    .count();
                rep.push(
                    "cluster instance".into(),
                    1.0,
                    if clustered { 1.0 } else { 0.0 },
                    clustered,
                    &format!(
                        "branch={:?}, spanner k={}, t={:.2}, leaf-like agents={}",
                        res.branch, res.k_measured, res.t_measured, leaf_agents
                    ),
                );
                match svg::save(
                    &ps_cluster,
                    &res.network,
                    "fig3_cluster",
                    "Figure 3 (left): cluster branch",
                ) {
                    Ok(p) => println!("wrote {}", p.display()),
                    Err(e) => eprintln!("svg write failed: {e}"),
                }
            });

            // right: sparse uniform points
            run.unit(rep, "sparse panel", |rep| {
                let ps_sparse = generators::uniform_unit_square(40, 12);
                let res2 = run_algorithm1(
                    &ps_sparse,
                    2.0,
                    AlgorithmOneParams::sparse(SpannerKind::Greedy { t: 1.5 }),
                );
                rep.push(
                    "sparse instance".into(),
                    0.0,
                    if res2.branch == Branch::Sparse {
                        0.0
                    } else {
                        1.0
                    },
                    res2.branch == Branch::Sparse,
                    &format!(
                        "branch={:?}, spanner k={}, t={:.2}, max degree bounded",
                        res2.branch, res2.k_measured, res2.t_measured
                    ),
                );
                match svg::save(
                    &ps_sparse,
                    &res2.network,
                    "fig3_sparse",
                    "Figure 3 (right): sparse branch",
                ) {
                    Ok(p) => println!("wrote {}", p.display()),
                    Err(e) => eprintln!("svg write failed: {e}"),
                }
            });
        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
