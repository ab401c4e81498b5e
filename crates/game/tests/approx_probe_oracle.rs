//! Oracle sweep for the large-n dynamics driver `approx::run_approx`.
//!
//! `run_approx` costs each probe by repairing a copy of the agent's
//! base row (`delta::repair_removal` / `delta::repair_insertions`) and
//! patches its graph in place after an accepted move. The reference
//! driver below is the plain version of the same dynamics: every probe
//! is a full what-if Dijkstra (`delta::dijkstra_modified`, the named
//! oracle) and every accepted move rebuilds the graph with
//! `net.graph`. Both must agree exactly: the same final network, the
//! same `ApproxDynamicsResult` and the same deterministic
//! `best_response_evals` / `candidates_*` counters, on uniform,
//! collinear and coincident-point inputs under both cost models.
//!
//! Case count scales with `PROPTEST_CASES` (default 48); `GNCG_MODEL`
//! narrows the sweep to one model like the other oracle harnesses.
//! Trace counters are process-global, so the cases run under one lock.

use gncg_config::ModelKind;
use gncg_game::approx::{run_approx, ApproxDynamicsOptions, ApproxDynamicsResult};
use gncg_game::{CostModel, MaxDistance, OwnedNetwork, SumDistances};
use gncg_geometry::{definitely_less, generators, Point, PointSet};
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::delta;
use gncg_spanner::GridIndex;
use gncg_trace::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn models() -> Vec<ModelKind> {
    match gncg_config::env::model().unwrap_or_else(|e| panic!("{e}")) {
        Some(kind) => vec![kind],
        None => vec![ModelKind::SumDistances, ModelKind::MaxDistance],
    }
}

/// The deterministic counters the reference tallies itself.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    evals: u64,
    generated: u64,
    skipped: u64,
}

/// `α`-free edge sum of `u`'s strategy after an optional add or drop,
/// folded in ascending neighbour order like `cost::edge_cost`.
fn edge_sum(
    ps: &PointSet,
    u: usize,
    bought: &[usize],
    add: Option<usize>,
    drop: Option<usize>,
) -> f64 {
    let mut next: Vec<usize> = bought
        .iter()
        .copied()
        .filter(|&v| Some(v) != drop)
        .collect();
    next.extend(add);
    next.sort_unstable();
    next.iter().map(|&v| ps.dist(u, v)).sum()
}

/// The dynamics `run_approx` implements, probed with the full what-if
/// Dijkstra and rebuilt from scratch after every accepted move.
fn reference<M: CostModel>(
    ps: &PointSet,
    net: &mut OwnedNetwork,
    alpha: f64,
    index: &GridIndex,
    opts: &ApproxDynamicsOptions,
) -> (ApproxDynamicsResult, Tally) {
    let n = net.len();
    let mut tally = Tally::default();
    let mut scratch = DijkstraScratch::default();
    let (mut row, mut what_if) = (vec![0.0; n], vec![0.0; n]);
    let (mut rounds, mut probed, mut accepted, mut converged) = (0, 0u64, 0, false);
    'run: for _ in 0..opts.max_rounds {
        rounds += 1;
        let mut any = false;
        for u in 0..n {
            if opts.agent_probes != 0 && probed >= opts.agent_probes as u64 {
                break 'run;
            }
            probed += 1;
            let g = net.graph(ps);
            let csr = Csr::from_graph(&g);
            csr.dijkstra_into_slice(u, &mut row, &mut scratch);
            let bought: Vec<usize> = net.strategy(u).iter().copied().collect();
            let current = alpha * edge_sum(ps, u, &bought, None, None) + M::aggregate(&row);
            let targets = index.nearest_k(ps, u, opts.probe_budget.min(n - 1));
            tally.generated += targets.len() as u64;
            tally.skipped += (n - 1 - targets.len()) as u64;

            let mut best = (current, None);
            for &v in &targets {
                if v == u || g.has_edge(u, v) {
                    continue;
                }
                delta::dijkstra_modified(&csr, u, &mut what_if, &[], &[(u, v, ps.dist(u, v))]);
                tally.evals += 1;
                let c = alpha * edge_sum(ps, u, &bought, Some(v), None) + M::aggregate(&what_if);
                if definitely_less(c, current) && c < best.0 {
                    best = (c, Some((v, true)));
                }
            }
            for &v in &bought {
                // an edge v pays for too stays in the network
                let dist = if net.owns(v, u) {
                    &row
                } else {
                    delta::dijkstra_modified(&csr, u, &mut what_if, &[(u, v)], &[]);
                    &what_if
                };
                tally.evals += 1;
                let c = alpha * edge_sum(ps, u, &bought, None, Some(v)) + M::aggregate(dist);
                if definitely_less(c, current) && c < best.0 {
                    best = (c, Some((v, false)));
                }
            }
            if let Some((v, add)) = best.1 {
                if add {
                    net.buy(u, v);
                } else {
                    net.sell(u, v);
                }
                accepted += 1;
                any = true;
            }
        }
        if !any {
            converged = true;
            break;
        }
    }
    let result = ApproxDynamicsResult {
        rounds,
        agents_probed: probed,
        moves_accepted: accepted,
        converged,
    };
    (result, tally)
}

fn points(rng: &mut StdRng, n: usize) -> (PointSet, &'static str) {
    let pt = |x: f64, y: f64| Point::new(vec![x, y]);
    match rng.gen_range(0..4) {
        0 => (generators::uniform_unit_square(n, rng.gen()), "uniform"),
        // evenly spaced points tie many folds exactly
        1 => (generators::line(n, n as f64), "collinear-even"),
        2 => {
            let pts = (0..n).map(|_| pt(rng.gen_range(0.0..1.0), 0.0)).collect();
            (PointSet::new(pts), "collinear")
        }
        _ => {
            // a third of the points sit on top of an earlier one, so
            // zero-weight edges appear, some of them at the mover
            let mut pts: Vec<Point> = Vec::with_capacity(n);
            for i in 0..n {
                if i > 0 && rng.gen_range(0..3) == 0 {
                    let twin = pts[rng.gen_range(0..i)].clone();
                    pts.push(twin);
                } else {
                    pts.push(pt(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)));
                }
            }
            (PointSet::new(pts), "coincident")
        }
    }
}

fn start_network(rng: &mut StdRng, n: usize) -> OwnedNetwork {
    let mut net = match rng.gen_range(0..5) {
        0 => return OwnedNetwork::empty(n),
        1 => return OwnedNetwork::center_star(n, rng.gen_range(0..n)),
        2 => OwnedNetwork::complete(n),
        _ => {
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            net
        }
    };
    // extra edges, some of them bought by both endpoints
    for _ in 0..rng.gen_range(0..n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            net.buy(a, b);
        }
    }
    net
}

fn pick_alpha(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5) {
        0 => 0.0,
        1 => rng.gen_range(0.01..0.5),
        2 => 1.0,
        3 => rng.gen_range(1.0..4.0),
        _ => rng.gen_range(8.0..64.0),
    }
}

fn check_case<M: CostModel>(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..40);
    let (ps, kind) = points(&mut rng, n);
    let start = start_network(&mut rng, n);
    let alpha = pick_alpha(&mut rng);
    let opts = ApproxDynamicsOptions::default()
        .with_model(M::KIND)
        .with_rounds(rng.gen_range(1..5))
        .with_probe_budget(rng.gen_range(1..n + 2))
        .with_agent_probes(if rng.gen_range(0..4) == 0 {
            rng.gen_range(1..2 * n)
        } else {
            0
        });
    let index = GridIndex::with_auto_cell(&ps);
    let what = format!("seed {seed}: n {n} {kind} α {alpha} {:?}", M::KIND);

    let mut expect_net = start.clone();
    let (expect, tally) = reference::<M>(&ps, &mut expect_net, alpha, &index, &opts);

    let mut net = start.clone();
    let before = gncg_trace::snapshot();
    let got = run_approx(&ps, &mut net, alpha, &index, opts);
    let d = gncg_trace::snapshot().counters_since(&before);
    let counted = Tally {
        evals: d[Counter::BestResponseEvals as usize],
        generated: d[Counter::CandidatesGenerated as usize],
        skipped: d[Counter::CandidatesSkipped as usize],
    };

    assert_eq!(got, expect, "{what}: result");
    assert_eq!(net, expect_net, "{what}: final network");
    assert_eq!(counted, tally, "{what}: deterministic counters");
    got.moves_accepted
}

#[test]
fn run_approx_matches_the_full_dijkstra_reference() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gncg_trace::set_enabled(true);
    let mut moves = 0;
    for seed in 0..cases() {
        for model in models() {
            moves += match model {
                ModelKind::SumDistances => check_case::<SumDistances>(seed),
                ModelKind::MaxDistance => check_case::<MaxDistance>(seed),
            };
        }
    }
    assert!(moves > 0, "the sweep never accepted a move");
}
