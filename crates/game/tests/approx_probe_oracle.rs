//! Oracle sweep for the large-n dynamics driver `approx::run_approx`.
//!
//! `run_approx` fills its agents' base rows in parallel, a window of
//! `ROW_WINDOW` agents at a time, and repairs the window's pending rows
//! after each accepted move. It costs each probe by repairing a copy of
//! the agent's base row (`delta::repair_removal` /
//! `delta::repair_insertions`), stops a drop repair once its cost
//! provably exceeds the turn's best (counted in `moves_pruned`, which
//! the sweep must see), and patches its graph in place after an
//! accepted move. The reference driver below is the plain version of
//! the same dynamics: every base row is a fresh Dijkstra, every probe
//! is a full what-if Dijkstra (`delta::dijkstra_modified`, the named
//! oracle) and every accepted move rebuilds the graph with
//! `net.graph`. Both must agree exactly: the same final network, the
//! same `ApproxDynamicsResult` and the same deterministic
//! `best_response_evals` / `candidates_*` counters, on uniform,
//! collinear and coincident-point inputs under both cost models.
//!
//! The random cases have `n < 40`, inside one window; a fixed set of
//! cases with `2·ROW_WINDOW ≤ n ≤ 200` spans several windows and runs
//! at 1, 2 and 4 threads.
//!
//! Case count scales with `PROPTEST_CASES` (default 48); `GNCG_MODEL`
//! narrows the sweep to one model like the other oracle harnesses.
//! Trace counters are process-global, so the cases run under one lock.

use gncg_config::ModelKind;
use gncg_game::approx::{run_approx, ApproxDynamicsOptions, ApproxDynamicsResult, ROW_WINDOW};
use gncg_game::{CostModel, MaxDistance, OwnedNetwork, SumDistances};
use gncg_geometry::{definitely_less, generators, Point, PointSet};
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::delta;
use gncg_parallel::with_max_threads;
use gncg_spanner::{cert, GridIndex, SpannerKind};
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

/// One of four point layouts, by `kind` in `0..4`; kind 3 puts
/// coincident clusters in.
fn points(rng: &mut StdRng, n: usize, kind: usize) -> (PointSet, &'static str) {
    let pt = |x: f64, y: f64| Point::new(vec![x, y]);
    match kind {
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

/// Runs one case and returns its accepted moves and pruned probes.
fn check_case<M: CostModel>(seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..40);
    let layout = rng.gen_range(0..4);
    let (ps, kind) = points(&mut rng, n, layout);
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
    let what = format!("seed {seed}: n {n} {kind} α {alpha} {:?}", M::KIND);
    let expect = Expected::of::<M>(&ps, &start, alpha, &opts);
    expect.check(&ps, &start, alpha, &opts, &what)
}

/// What the reference driver reaches from one start.
struct Expected {
    result: ApproxDynamicsResult,
    net: OwnedNetwork,
    tally: Tally,
}

impl Expected {
    fn of<M: CostModel>(
        ps: &PointSet,
        start: &OwnedNetwork,
        alpha: f64,
        opts: &ApproxDynamicsOptions,
    ) -> Self {
        let index = GridIndex::with_auto_cell(ps);
        let mut net = start.clone();
        let (result, tally) = reference::<M>(ps, &mut net, alpha, &index, opts);
        Self { result, net, tally }
    }

    /// Runs `run_approx` from `start` and asserts it reaches the same
    /// result, final network and counters; returns its accepted moves
    /// and pruned probes.
    fn check(
        &self,
        ps: &PointSet,
        start: &OwnedNetwork,
        alpha: f64,
        opts: &ApproxDynamicsOptions,
        what: &str,
    ) -> (u64, u64) {
        let index = GridIndex::with_auto_cell(ps);
        let mut net = start.clone();
        let before = gncg_trace::snapshot();
        let got = run_approx(ps, &mut net, alpha, &index, opts.clone());
        let d = gncg_trace::snapshot().counters_since(&before);
        let counted = Tally {
            evals: d[Counter::BestResponseEvals as usize],
            generated: d[Counter::CandidatesGenerated as usize],
            skipped: d[Counter::CandidatesSkipped as usize],
        };

        assert_eq!(got, self.result, "{what}: result");
        assert_eq!(net, self.net, "{what}: final network");
        assert_eq!(counted, self.tally, "{what}: deterministic counters");
        (got.moves_accepted, d[Counter::MovesPruned as usize])
    }
}

/// Edges of `to` missing from `from`.
fn edges_gained(from: &OwnedNetwork, to: &OwnedNetwork) -> usize {
    let n = from.len();
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| to.has_edge(u, v) && !from.has_edge(u, v))
        .count()
}

/// A case that spans several base-row windows: `2·ROW_WINDOW ≤ n ≤
/// 200` from a sparse start (a Yao spanner or a random tree, plus
/// edges bought by both ends). Every fourth case sits on coincident
/// clusters, whose zero-weight edges are tight both ways from sources
/// other than the mover, and every odd case stops at an agent-probe
/// cap that ends inside a window. The reference runs once; `run_approx`
/// must match it at 1, 2 and 4 threads. Returns the edges the
/// dynamics added and dropped.
fn check_windowed_case<M: CostModel>(seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2 * ROW_WINDOW..201);
    let (ps, kind) = points(&mut rng, n, (seed % 4) as usize);
    let mut start = if rng.gen_range(0..2) == 0 {
        let yao = gncg_spanner::build(&ps, SpannerKind::Yao { cones: 8 });
        OwnedNetwork::from_distributed(n, &cert::distribute(&yao))
    } else {
        let mut net = OwnedNetwork::empty(n);
        for a in 1..n {
            net.buy(a, rng.gen_range(0..a));
        }
        net
    };
    for _ in 0..rng.gen_range(0..n / 4) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            start.buy(a, b);
            start.buy(b, a);
        }
    }
    let alpha = pick_alpha(&mut rng);
    let rounds = rng.gen_range(1..4);
    let cap = if seed % 2 == 1 {
        // the first unprobed agent sits strictly inside a window past
        // the first
        let window = rng.gen_range(1..n / ROW_WINDOW);
        rng.gen_range(0..rounds) * n + window * ROW_WINDOW + rng.gen_range(1..ROW_WINDOW)
    } else {
        0
    };
    let opts = ApproxDynamicsOptions::default()
        .with_model(M::KIND)
        .with_rounds(rounds)
        .with_probe_budget(rng.gen_range(1..17))
        .with_agent_probes(cap);
    let what = format!(
        "windowed seed {seed}: n {n} {kind} α {alpha} rounds {rounds} cap {cap} {:?}",
        M::KIND
    );
    let expect = Expected::of::<M>(&ps, &start, alpha, &opts);
    if cap != 0 && cap < rounds * n && !expect.result.converged {
        assert_eq!(expect.result.agents_probed, cap as u64, "{what}: cap");
    }
    for threads in [1, 2, 4] {
        let what = format!("{what}, {threads} threads");
        with_max_threads(threads, || expect.check(&ps, &start, alpha, &opts, &what));
    }
    (
        edges_gained(&start, &expect.net),
        edges_gained(&expect.net, &start),
    )
}

#[test]
fn run_approx_matches_the_full_dijkstra_reference() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gncg_trace::set_enabled(true);
    let (mut moves, mut pruned) = (0, 0);
    for seed in 0..cases() {
        for model in models() {
            let (m, p) = match model {
                ModelKind::SumDistances => check_case::<SumDistances>(seed),
                ModelKind::MaxDistance => check_case::<MaxDistance>(seed),
            };
            moves += m;
            pruned += p;
        }
    }
    assert!(moves > 0, "the sweep never accepted a move");
    assert!(pruned > 0, "the sweep never cut a drop repair short");
}

#[test]
fn run_approx_matches_the_reference_across_row_windows() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gncg_trace::set_enabled(true);
    let (mut added, mut dropped) = (0, 0);
    for seed in 0..8 {
        for model in models() {
            let (a, d) = match model {
                ModelKind::SumDistances => check_windowed_case::<SumDistances>(seed),
                ModelKind::MaxDistance => check_windowed_case::<MaxDistance>(seed),
            };
            added += a;
            dropped += d;
        }
    }
    assert!(added > 0, "no windowed case added an edge");
    assert!(dropped > 0, "no windowed case dropped an edge");
}
