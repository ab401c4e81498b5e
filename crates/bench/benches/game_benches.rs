//! Game-engine benchmarks: cost evaluation, exact best response, exact
//! social optimum, certification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gncg_game::{
    best_response, certify::certify, cost, exact, OwnedNetwork, SolverConfig, SumDistances,
};
use gncg_geometry::generators;

fn bench_social_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("social_cost");
    group.sample_size(10);
    for n in [50usize, 200] {
        let ps = generators::uniform_unit_square(n, 31);
        let net = OwnedNetwork::complete(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(ps, net),
            |b, (ps, net)| b.iter(|| cost::social_cost::<_, SumDistances>(ps, net, 1.0)),
        );
    }
    group.finish();
}

fn bench_exact_best_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_best_response");
    group.sample_size(10);
    for n in [10usize, 14, 16] {
        let ps = generators::uniform_unit_square(n, 32);
        let net = OwnedNetwork::center_star(n, 0);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(ps, net),
            |b, (ps, net)| {
                b.iter(|| {
                    best_response::exact_best_response(ps, net, 1.0, 1, &SolverConfig::default())
                })
            },
        );
    }
    group.finish();
}

fn bench_exact_optimum(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_social_optimum");
    group.sample_size(10);
    for n in [5usize, 6] {
        let ps = generators::uniform_unit_square(n, 33);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ps, |b, ps| {
            b.iter(|| {
                exact::exact_social_optimum(ps, 1.0, &SolverConfig::default())
                    .expect_exact("optimum")
                    .social_cost
            })
        });
    }
    group.finish();
}

fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("certify_bounds_only");
    group.sample_size(10);
    for n in [50usize, 150] {
        let ps = generators::uniform_unit_square(n, 34);
        let net = OwnedNetwork::complete(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(ps, net),
            |b, (ps, net)| b.iter(|| certify(ps, net, 1.0, &SolverConfig::bounds_only())),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_social_cost, bench_exact_best_response, bench_exact_optimum, bench_certification
}

/// Short measurement windows: the CI box has two cores and many bench
/// targets; Criterion's defaults would take an hour.
fn quick_config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(400))
        .sample_size(10)
}

criterion_main!(benches);
