//! Best-response dynamics and the missing finite improvement property
//! (Theorem 3.1).
//!
//! Selfish agents iterating best responses are *not* guaranteed to reach
//! an equilibrium: the dynamics can cycle. This example runs the
//! dynamics on small random instances and reports convergences, cycles,
//! and budget exhaustions.
//!
//! ```sh
//! cargo run --example dynamics_cycle
//! ```

use euclidean_network_design::game::{dynamics, exact, OwnedNetwork, SumDistances};
use euclidean_network_design::prelude::*;

fn main() {
    let alpha = 1.0;
    let n = 5;
    let mut converged = 0;
    let mut cycled = 0;
    let mut exhausted = 0;
    let mut first_cycle: Option<(u64, usize)> = None;

    for seed in 0..60u64 {
        let points = generators::uniform_unit_square(n, seed);
        let start = OwnedNetwork::center_star(n, 0);
        match dynamics::run_spec(
            &points,
            &start,
            alpha,
            dynamics::ResponseRule::BestResponse,
            dynamics::AgentOrder::RoundRobin,
            500,
            &SolverConfig::default(),
        ) {
            dynamics::Outcome::Converged { state, steps } => {
                converged += 1;
                debug_assert!(exact::is_nash::<_, SumDistances>(&points, &state, alpha));
                if seed < 3 {
                    println!("seed {seed}: converged to a NE in {steps} strategy changes");
                }
            }
            dynamics::Outcome::Cycle {
                history,
                cycle_start,
            } => {
                cycled += 1;
                let len = history.len() - 1 - cycle_start;
                if first_cycle.is_none() {
                    first_cycle = Some((seed, len));
                    println!(
                        "seed {seed}: best-response CYCLE of length {len} — \
                         the empirical Theorem 3.1 witness"
                    );
                }
            }
            dynamics::Outcome::Exhausted { .. } => exhausted += 1,
        }
    }

    println!(
        "\nover 60 random instances (n={n}, alpha={alpha}): \
         {converged} converged, {cycled} cycled, {exhausted} exhausted"
    );
    match first_cycle {
        Some((seed, len)) => println!(
            "=> no finite improvement property: seed {seed} yields a \
             length-{len} best-response cycle (paper's Figure 2 cycle has 4 steps)."
        ),
        None => println!(
            "=> no cycle in this seed range; Theorem 3.1's cycle is a \
             measure-zero construction — try more seeds or n=4..6."
        ),
    }
}
