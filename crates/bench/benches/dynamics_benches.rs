//! Dynamics benchmarks for the incremental [`EvalContext`]-backed
//! drivers.
//!
//! Two scenarios:
//! * `max_gain_step` — a single max-gain step at n = 64 and 96: every
//!   agent is probed once, the dominant cost of large dynamics runs;
//! * `converge_small` — a full best-single-move convergence run at
//!   n = 24 from a center star.
//!
//! [`EvalContext`]: gncg_game::EvalContext

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gncg_game::dynamics::{run_spec, AgentOrder, Outcome, ResponseRule};
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_geometry::generators;

fn bench_max_gain_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_gain_step");
    group.sample_size(10);
    for n in [64usize, 96] {
        let ps = generators::uniform_unit_square(n, 77);
        let net = OwnedNetwork::center_star(n, 0);
        group.bench_with_input(
            BenchmarkId::new("incremental", n),
            &(&ps, &net),
            |b, (ps, net)| {
                b.iter(|| {
                    run_spec(
                        *ps,
                        net,
                        1.0,
                        ResponseRule::BestSingleMove,
                        AgentOrder::MaxGain,
                        1,
                        &SolverConfig::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_converge_small(c: &mut Criterion) {
    let mut group = c.benchmark_group("converge_small");
    group.sample_size(10);
    let n = 24usize;
    let ps = generators::uniform_unit_square(n, 78);
    let net = OwnedNetwork::center_star(n, 0);
    group.bench_with_input(
        BenchmarkId::new("incremental", n),
        &(&ps, &net),
        |b, (ps, net)| {
            b.iter(|| {
                let out = run_spec(
                    *ps,
                    net,
                    1.0,
                    ResponseRule::BestSingleMove,
                    AgentOrder::RoundRobin,
                    5000,
                    &SolverConfig::default(),
                );
                assert!(
                    matches!(out, Outcome::Converged { .. } | Outcome::Cycle { .. }),
                    "benchmark instance must settle within the budget"
                );
                out
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_max_gain_step, bench_converge_small);
criterion_main!(benches);
