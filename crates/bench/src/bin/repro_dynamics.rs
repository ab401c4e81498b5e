//! Response-dynamics study around Theorem 3.1: convergence statistics
//! across response rules and activation orders.
//!
//! The paper shows best-response dynamics need not converge (no FIP).
//! This harness measures *how often* they do on random instances, for
//! each (rule, order) combination, and how many strategy changes
//! convergence takes — the empirical companion to the FIP discussion.

use gncg_game::{dynamics, OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_sweep::harness::run_repro;

fn main() {
    let rep = run_repro(
        "dynamics",
        "Convergence statistics of response dynamics (Theorem 3.1 companion)",
        |run, rep| {
            let n = 6;
            let alpha = 1.0;
            let trials = 30u64;

            let combos: Vec<(&str, dynamics::ResponseRule, dynamics::AgentOrder)> = vec![
                (
                    "best-response round-robin",
                    dynamics::ResponseRule::BestResponse,
                    dynamics::AgentOrder::RoundRobin,
                ),
                (
                    "best-response random-order",
                    dynamics::ResponseRule::BestResponse,
                    dynamics::AgentOrder::RandomPermutation(9),
                ),
                (
                    "best-response max-gain",
                    dynamics::ResponseRule::BestResponse,
                    dynamics::AgentOrder::MaxGain,
                ),
                (
                    "single-move round-robin",
                    dynamics::ResponseRule::BestSingleMove,
                    dynamics::AgentOrder::RoundRobin,
                ),
                (
                    "single-move max-gain",
                    dynamics::ResponseRule::BestSingleMove,
                    dynamics::AgentOrder::MaxGain,
                ),
            ];

            let cfg = SolverConfig::default();
            for (label, rule, order) in combos {
                run.unit(rep, &format!("combo {label}"), |rep| {
                    let mut converged = 0u64;
                    let mut cycled = 0u64;
                    let mut exhausted = 0u64;
                    let mut total_steps = 0u64;
                    for seed in 0..trials {
                        let ps = generators::uniform_unit_square(n, 60_000 + seed);
                        let start = OwnedNetwork::center_star(n, 0);
                        match dynamics::run_spec(&ps, &start, alpha, rule, order, 400, &cfg) {
                            dynamics::Outcome::Converged { steps, .. } => {
                                converged += 1;
                                total_steps += steps as u64;
                            }
                            dynamics::Outcome::Cycle { .. } => cycled += 1,
                            dynamics::Outcome::Exhausted { .. } => exhausted += 1,
                        }
                    }
                    let avg_steps = if converged > 0 {
                        format!("{:.1}", total_steps as f64 / converged as f64)
                    } else {
                        "-".to_string()
                    };
                    rep.push(
                        format!("{label} (n={n} alpha={alpha})"),
                        trials as f64,
                        converged as f64,
                        converged + cycled + exhausted == trials,
                        &format!("cycled={cycled} exhausted={exhausted} avg_steps={avg_steps}"),
                    );
                });
            }
        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
