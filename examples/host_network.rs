//! The Generalized NCG on a non-metric host network (Section 5).
//!
//! Edge prices come from an arbitrary weight table (think: leased-line
//! tariffs that ignore geography). The paper's recipe: filter dominated
//! edges (H_M), then reuse the Euclidean toolbox.
//!
//! ```sh
//! cargo run --example host_network
//! ```

use euclidean_network_design::game::certify::certify;
use euclidean_network_design::game::SolverConfig;
use euclidean_network_design::host::{corollaries, hm_filter, poa, HostNetwork};

fn main() {
    let n = 12;
    let alpha = 2.0;
    let host = HostNetwork::random_nonmetric(n, 0.2, 6.0, 31);
    println!(
        "host: {n} nodes, non-metric tariffs (is_metric = {})",
        host.is_metric()
    );

    let hm = hm_filter::hm_filter(&host);
    println!(
        "H_M filter: {} of {} edges survive (all realize shortest paths: {})",
        hm.num_edges(),
        n * (n - 1) / 2,
        hm_filter::is_shortest_path_network(&hm)
    );

    let w = host.as_weights();
    println!(
        "\n{:<30} {:>8} {:>12} {:>10} {:>10}",
        "design", "edges", "social cost", "beta_ub", "gamma_ub"
    );
    let show = |name: &str, net: &euclidean_network_design::game::OwnedNetwork| {
        let r = certify(&w, net, alpha, &SolverConfig::bounds_only());
        println!(
            "{:<30} {:>8} {:>12.2} {:>10.3} {:>10.3}",
            name,
            net.bought_edges(),
            r.social_cost,
            r.beta_upper,
            r.gamma_upper
        );
    };
    show(
        "shortest-path net (Cor 5.1)",
        &corollaries::shortest_path_subnetwork(&host),
    );
    show("host MST (Cor 5.2)", &corollaries::host_mst_network(&host));
    let res = corollaries::algorithm1_on_host(
        &host,
        alpha,
        corollaries::HostAlgorithmParams {
            b: 1.0,
            c: 0,
            t: 1.5,
        },
    );
    show("Algorithm 1 on H_M (Cor 5.3)", &res.network);

    // PoA probe: find an equilibrium by best-response dynamics
    let probe = poa::probe_poa(&host, alpha, 300, &SolverConfig::default());
    match probe.equilibrium {
        Some(_) => println!(
            "\nequilibrium found by dynamics: SC(NE)/SC(OPT{}) = {:.3} \
             — Theorem 5.4 bound 2(alpha+1) = {:.1}",
            if probe.opt_is_exact {
                ""
            } else {
                " lower bound"
            },
            probe.ratio,
            poa::theorem_5_4_bound(alpha)
        ),
        None => println!("\ndynamics did not converge within the budget (no FIP!)"),
    }
}
