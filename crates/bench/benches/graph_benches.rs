//! Graph-kernel benchmarks: Dijkstra, APSP, MST.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gncg_geometry::generators;
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::{apsp, mst, Graph};

fn spanner_graph(n: usize) -> Graph {
    let ps = generators::uniform_unit_square(n, 11);
    gncg_spanner::build(&ps, gncg_spanner::SpannerKind::Greedy { t: 1.5 })
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    for n in [100usize, 400] {
        let csr = Csr::from_graph(&spanner_graph(n));
        let mut scratch = DijkstraScratch::default();
        let mut row = vec![0.0; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &csr, |b, csr| {
            b.iter(|| csr.dijkstra_into_slice(0, &mut row, &mut scratch))
        });
    }
    group.finish();
}

fn bench_apsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp_parallel");
    group.sample_size(10);
    for n in [100usize, 300] {
        let g = spanner_graph(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| apsp::all_pairs(g))
        });
    }
    group.finish();
}

fn bench_mst(c: &mut Criterion) {
    let mut group = c.benchmark_group("euclidean_mst");
    for n in [100usize, 400, 1000] {
        let ps = generators::uniform_unit_square(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ps, |b, ps| {
            b.iter(|| mst::euclidean_mst_weight(ps))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_dijkstra, bench_apsp, bench_mst
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
