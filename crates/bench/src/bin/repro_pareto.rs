//! Map the (β, γ) Pareto frontier for sample instances — the paper's
//! stated future-work direction (Conclusion): "it would be interesting
//! to map the whole Pareto frontier precisely". We chart the certified
//! outer frontier of a design portfolio.

use gncg_algo::pareto::{pareto_front, sample_designs};
use gncg_geometry::generators;
use gncg_sweep::harness::run_repro;

fn main() {
    run_repro(
        "pareto",
        "Certified (beta, gamma) Pareto frontier across design portfolio (paper future work)",
        |run, rep| {
            for (label, alpha) in [("cheap edges", 0.5), ("moderate", 3.0), ("expensive", 50.0)] {
                run.unit(rep, &format!("alpha={alpha}"), |rep| {
                    let ps = generators::uniform_unit_square(60, 2718);
                    let samples = sample_designs(&ps, alpha, 10);
                    println!(
                        "alpha = {alpha} ({label}): {} designs sampled",
                        samples.len()
                    );
                    for p in &samples {
                        println!(
                            "    {:<20} beta<= {:>9.3}  gamma<= {:>9.3}",
                            p.label, p.beta, p.gamma
                        );
                    }
                    let front = pareto_front(samples);
                    for p in &front {
                        rep.push(
                            format!("alpha={alpha} {}", p.label),
                            p.beta,
                            p.gamma,
                            p.beta >= 1.0 && p.gamma >= 1.0,
                            "frontier point (beta, gamma certified)",
                        );
                    }
                    println!(
                        "  frontier: {}",
                        front
                            .iter()
                            .map(|p| format!("{}({:.2},{:.2})", p.label, p.beta, p.gamma))
                            .collect::<Vec<_>>()
                            .join(" -> ")
                    );
                    println!();
                });
            }
        },
    );
}
