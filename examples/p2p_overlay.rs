//! Peer-to-peer overlay: a large random swarm with cheap links.
//!
//! When edges are cheap relative to the network size (alpha in o(n)),
//! Theorem 3.12 promises a (1+eps, 1+eps)-network: virtually nobody has
//! an incentive to rewire, at a near-optimal total cost. We build it and
//! let every peer run a defection check (local-search improving moves).
//!
//! ```sh
//! cargo run --example p2p_overlay
//! ```

use euclidean_network_design::algo::random_points::{build_one_plus_eps, quarter_square_counts};
use euclidean_network_design::game::best_response::ResponseEvaluator;
use euclidean_network_design::game::{cost, moves, SumDistances};
use euclidean_network_design::prelude::*;

fn main() {
    let n = 500;
    let alpha = 0.3; // cheap links
    let eps = 0.5;
    let points = generators::uniform_unit_square(n, 99);

    let counts = quarter_square_counts(&points);
    println!("swarm of {n} peers, alpha = {alpha}, eps = {eps}");
    println!(
        "quarter-square occupancy (Lemma 3.11 wants >= {}): {:?}",
        n / 32,
        counts
    );

    let result = build_one_plus_eps(&points, alpha, eps, 8);
    println!(
        "built via Algorithm 1, branch = {:?}, spanner k = {}, t = {:.3}",
        result.branch, result.k_measured, result.t_measured
    );

    let report = certify(
        &points,
        &result.network,
        alpha,
        &SolverConfig::bounds_only(),
    );
    println!(
        "social cost {:.2}, certified gamma <= {:.3}",
        report.social_cost, report.gamma_upper
    );

    // defection check: every peer searches for an improving rewiring
    let mut worst: f64 = 1.0;
    let mut defectors = 0usize;
    let net = &result.network;
    for u in 0..n {
        let eval = ResponseEvaluator::new(&points, net, u);
        let now = cost::agent_cost::<_, SumDistances>(&points, net, alpha, u);
        let f = moves::witness_improvement_factor::<SumDistances>(&eval, net, alpha, now);
        if f > 1.0 + 1e-9 {
            defectors += 1;
        }
        worst = worst.max(f);
    }
    println!(
        "defection check: {defectors}/{n} peers found an improving move; \
         worst improvement factor {worst:.4} (target <= {:.2})",
        1.0 + eps
    );
    if worst <= 1.0 + eps {
        println!("=> the overlay is a (1+eps)-equilibrium for these peers.");
    }
}
