//! Verifies the observability layer's zero-cost-when-off contract: the
//! instrumented eval hot paths (CSR Dijkstra row refresh, exact
//! best-response strategy evaluation) with `GNCG_TRACE` off must be
//! within noise (≤2%) of the same code with tracing on — and, since the
//! off-path reduces to register increments plus one relaxed atomic load
//! per kernel call, of the pre-instrumentation HEAD.
//!
//! Run: `cargo bench -p gncg-bench --bench trace_overhead`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gncg_game::best_response::{ResponseEvaluator, ResponseScratch};
use gncg_game::{OwnedNetwork, SumDistances};
use gncg_geometry::generators;
use gncg_graph::csr::{Csr, DijkstraScratch};

fn bench_trace_overhead(c: &mut Criterion) {
    let n = 64;
    let ps = generators::uniform_unit_square(n, 1);
    let net = OwnedNetwork::center_star(n, 0);
    let g = net.graph(&ps);
    let csr = Csr::from_graph(&g);
    let mut scratch = DijkstraScratch::default();
    let mut row = vec![f64::INFINITY; n];

    let eval = ResponseEvaluator::new(&ps, &net, 1);
    let mut rs = ResponseScratch::default();

    for (label, on) in [("trace_off", false), ("trace_on", true)] {
        gncg_trace::set_enabled(on);
        c.bench_function(format!("dijkstra_row_n64/{label}"), |b| {
            b.iter(|| {
                csr.dijkstra_into_slice(black_box(0), &mut row, &mut scratch);
                black_box(row[n - 1]);
            })
        });
        c.bench_function(format!("best_response_eval_n64/{label}"), |b| {
            b.iter(|| {
                black_box(eval.cost_with::<SumDistances, _>(1.0, [black_box(0usize)], &mut rs))
            })
        });
        gncg_trace::set_enabled(false);
    }
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
