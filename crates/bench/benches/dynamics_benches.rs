//! Dynamics benchmarks: the incremental [`EvalContext`]-backed drivers
//! against the seed implementation (the "old" path).
//!
//! The library no longer contains the seed's hot loop — it was replaced
//! by the incremental evaluation core — so the `legacy` module below is
//! a line-faithful port of the seed's `ResponseEvaluator` (ragged
//! `Vec<Vec<f64>>` APSP, `fixed_incident.clone()` per candidate),
//! `best_single_move` (a fresh `BTreeSet` per candidate) and dynamics
//! drivers (`cost::agent_cost` full rebuild + Dijkstra per probe).
//! Both sides produce identical outcomes; only the work per step
//! differs.
//!
//! Two scenarios:
//! * `max_gain_step` — a single max-gain step at n = 64 and 96: every
//!   agent is probed once, the dominant cost of large dynamics runs;
//! * `converge_small` — a full best-single-move convergence run at
//!   n = 24 from a center star.
//!
//! `tools/bench_dynamics.sh` runs this bench with `CRITERION_JSON` set
//! and folds the per-benchmark lines into `results/BENCH_dynamics.json`,
//! including the incremental/legacy speedup per scenario.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gncg_game::dynamics::{run_spec, AgentOrder, Outcome, ResponseRule};
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_geometry::generators;

/// Line-faithful port of the seed's response machinery (pre-incremental).
mod legacy {
    use gncg_game::{cost, EdgeWeights, OwnedNetwork, SumDistances};
    use gncg_graph::{dijkstra, Graph};
    use std::collections::{BTreeSet, HashMap};

    pub struct ResponseEvaluator {
        agent: usize,
        others: Vec<usize>,
        fixed_incident: Vec<usize>,
        dist_rest: Vec<Vec<f64>>,
        edge_w: Vec<f64>,
    }

    impl ResponseEvaluator {
        pub fn new<W: EdgeWeights + ?Sized>(w: &W, net: &OwnedNetwork, u: usize) -> Self {
            let n = net.len();
            let mut rest = Graph::new(n);
            let mut fixed_incident: Vec<usize> = Vec::new();
            for a in 0..n {
                if a == u {
                    continue;
                }
                for &b in net.strategy(a) {
                    if b == u {
                        fixed_incident.push(a);
                    } else {
                        rest.add_edge(a, b, w.weight(a, b));
                    }
                }
            }
            fixed_incident.sort_unstable();
            fixed_incident.dedup();
            // the seed's apsp::all_pairs: one ragged row allocation per
            // source Dijkstra
            let dist_rest: Vec<Vec<f64>> =
                gncg_parallel::parallel_map(n, |s| dijkstra::distances(&rest, s));
            let others: Vec<usize> = (0..n).filter(|&v| v != u).collect();
            let edge_w: Vec<f64> = (0..n)
                .map(|v| if v == u { 0.0 } else { w.weight(u, v) })
                .collect();
            Self {
                agent: u,
                others,
                fixed_incident,
                dist_rest,
                edge_w,
            }
        }

        pub fn cost<I: IntoIterator<Item = usize>>(&self, alpha: f64, bought: I) -> f64 {
            let mut buy_cost = 0.0;
            let mut neighbours: Vec<usize> = self.fixed_incident.clone();
            for v in bought {
                buy_cost += self.edge_w[v];
                neighbours.push(v);
            }
            if neighbours.is_empty() {
                return f64::INFINITY;
            }
            let mut dist_sum = 0.0;
            for &v in &self.others {
                let mut best = f64::INFINITY;
                for &x in &neighbours {
                    let via = self.edge_w[x] + self.dist_rest[x][v];
                    if via < best {
                        best = via;
                    }
                }
                dist_sum += best;
                if dist_sum.is_infinite() {
                    return f64::INFINITY;
                }
            }
            alpha * buy_cost + dist_sum
        }
    }

    fn best_single_move_with(
        eval: &ResponseEvaluator,
        n: usize,
        current: &BTreeSet<usize>,
        current_cost: f64,
        alpha: f64,
    ) -> Option<(BTreeSet<usize>, f64)> {
        let u = eval.agent;
        let mut best: Option<(BTreeSet<usize>, f64)> = None;
        let mut consider = |strategy: BTreeSet<usize>| {
            let c = eval.cost(alpha, strategy.iter().copied());
            let beats_current = gncg_geometry::definitely_less(c, current_cost);
            let beats_best = match &best {
                Some((_, bc)) => c < *bc,
                None => true,
            };
            if beats_current && beats_best {
                best = Some((strategy, c));
            }
        };
        for &v in current {
            let mut s = current.clone();
            s.remove(&v);
            consider(s);
        }
        for v in 0..n {
            if v != u && !current.contains(&v) {
                let mut s = current.clone();
                s.insert(v);
                consider(s);
            }
        }
        for &out in current {
            for inn in 0..n {
                if inn != u && inn != out && !current.contains(&inn) {
                    let mut s = current.clone();
                    s.remove(&out);
                    s.insert(inn);
                    consider(s);
                }
            }
        }
        best
    }

    pub fn best_single_move<W: EdgeWeights + ?Sized>(
        w: &W,
        net: &OwnedNetwork,
        alpha: f64,
        u: usize,
    ) -> Option<(BTreeSet<usize>, f64)> {
        let eval = ResponseEvaluator::new(w, net, u);
        let current = net.strategy(u).clone();
        let current_cost = eval.cost(alpha, current.iter().copied());
        best_single_move_with(&eval, net.len(), &current, current_cost, alpha)
    }

    fn response_for<W: EdgeWeights + ?Sized>(
        w: &W,
        state: &OwnedNetwork,
        alpha: f64,
        u: usize,
    ) -> Option<(BTreeSet<usize>, f64)> {
        // the seed probed the current cost with a full rebuild + Dijkstra
        let now = cost::agent_cost::<_, SumDistances>(w, state, alpha, u);
        best_single_move(w, state, alpha, u).map(|(s, c)| (s, now - c))
    }

    /// The seed's `run_max_gain`, single-move rule.
    pub fn run_max_gain<W: EdgeWeights + ?Sized>(
        w: &W,
        start: &OwnedNetwork,
        alpha: f64,
        max_steps: usize,
    ) -> (OwnedNetwork, usize) {
        let n = start.len();
        let mut state = start.clone();
        let mut seen: HashMap<Vec<Vec<usize>>, usize> = HashMap::new();
        let mut history = vec![state.clone()];
        seen.insert(state.canonical_key(), 0);
        for steps in 0..max_steps {
            let candidates = gncg_parallel::parallel_map(n, |u| response_for(w, &state, alpha, u));
            let best = candidates
                .into_iter()
                .enumerate()
                .filter_map(|(u, c)| c.map(|(s, gain)| (u, s, gain)))
                .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
            match best {
                None => return (state, steps),
                Some((u, strategy, _)) => {
                    state.set_strategy(u, strategy);
                    let key = state.canonical_key();
                    if seen.contains_key(&key) {
                        return (state, steps + 1);
                    }
                    seen.insert(key, history.len());
                    history.push(state.clone());
                }
            }
        }
        (state, max_steps)
    }

    /// The seed's round-robin driver, single-move rule.
    pub fn run_round_robin<W: EdgeWeights + ?Sized>(
        w: &W,
        start: &OwnedNetwork,
        alpha: f64,
        max_steps: usize,
    ) -> (OwnedNetwork, usize) {
        let n = start.len();
        let mut state = start.clone();
        let mut seen: HashMap<Vec<Vec<usize>>, usize> = HashMap::new();
        let mut history = vec![state.clone()];
        seen.insert(state.canonical_key(), 0);
        let mut steps = 0usize;
        loop {
            let mut changed = false;
            for u in 0..n {
                if steps >= max_steps {
                    return (state, steps);
                }
                if let Some((strategy, _)) = response_for(w, &state, alpha, u) {
                    state.set_strategy(u, strategy);
                    steps += 1;
                    changed = true;
                    let key = state.canonical_key();
                    if seen.contains_key(&key) {
                        return (state, steps);
                    }
                    seen.insert(key, history.len());
                    history.push(state.clone());
                }
            }
            if !changed {
                return (state, steps);
            }
        }
    }
}

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
        group.bench_with_input(
            BenchmarkId::new("legacy", n),
            &(&ps, &net),
            |b, (ps, net)| b.iter(|| legacy::run_max_gain(*ps, net, 1.0, 1)),
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
    group.bench_with_input(
        BenchmarkId::new("legacy", n),
        &(&ps, &net),
        |b, (ps, net)| b.iter(|| legacy::run_round_robin(*ps, net, 1.0, 5000)),
    );
    group.finish();
}

criterion_group!(benches, bench_max_gain_step, bench_converge_small);
criterion_main!(benches);
