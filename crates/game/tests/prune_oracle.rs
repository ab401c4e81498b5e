//! Oracle bit-identity harness for the pruned best-response engine,
//! parameterized over the cost model.
//!
//! The pruning layer (`crates/game/src/prune.rs`) claims its results are
//! *bit-identical* to the unpruned engines — not merely close, and for
//! every [`gncg_game::CostModel`], not just the paper's sum objective.
//! This harness is the enforcement: seeded property sweeps drive the
//! production engines and their unpruned oracle ([`oracle`]) over the
//! same instances and assert the returned costs match to the last bit
//! (`f64::to_bits`) and the returned strategies/trajectories match
//! exactly, across
//!
//! * the exact mask enumeration (`ResponseEvaluator::best_response` vs
//!   `oracle::best_response`),
//! * the single-move generator (`moves::best_single_move` vs
//!   `oracle::best_single_move`),
//! * iterated local search (`moves::local_search_response` vs
//!   `oracle::local_search_response`),
//! * whole dynamics trajectories (`dynamics::run_spec` vs
//!   `dynamics::run_ordered_reference`, which also recomputes every cost
//!   from scratch),
//! * and the first two under `gncg_parallel` fault injection.
//!
//! Every sweep runs once per cost model. `GNCG_MODEL` (via
//! [`gncg_config::env::model`]) narrows a run to one model — the
//! CI matrix uses `GNCG_MODEL=maxdist` for a dedicated max-distance
//! leg; unset, both models are swept.
//!
//! Case count scales with `PROPTEST_CASES` (default 48; CI runs 512).
//! Thread count comes from `GNCG_THREADS` — the CI matrix runs the suite
//! both single-threaded and parallel, so identity is checked on the
//! sequential fallback and on the worker-pool path.

use gncg_config::ModelKind;
use gncg_game::best_response::{BestResponse, ResponseEvaluator};
use gncg_game::dynamics::{run_ordered_reference, run_spec, AgentOrder, ResponseRule};
use gncg_game::moves::{best_single_move, local_search_response};
use gncg_game::prune::oracle;
use gncg_game::{dispatch_model, CostModel, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes the fault-injection leg (process-global injector state).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// The models this run sweeps: the `GNCG_MODEL` choice when set,
/// otherwise every model.
fn models() -> Vec<ModelKind> {
    match gncg_config::env::model().unwrap_or_else(|e| panic!("{e}")) {
        Some(kind) => vec![kind],
        None => vec![ModelKind::SumDistances, ModelKind::MaxDistance],
    }
}

/// α regimes from the paper's analysis: well below 1 (dense optima),
/// the α = 1 threshold, and well above the diameter (tree optima).
fn pick_alpha(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0.01..0.5),
        1 => 1.0,
        2 => rng.gen_range(1.0..4.0),
        _ => rng.gen_range(8.0..64.0),
    }
}

/// Random strategy profile: connected-ish tree base plus random extra
/// edges; occasionally a star or the empty (disconnected) profile so
/// infinite-cost paths get exercised too.
fn random_network(rng: &mut StdRng, n: usize) -> OwnedNetwork {
    match rng.gen_range(0..8) {
        0 => OwnedNetwork::empty(n),
        1 => OwnedNetwork::center_star(n, rng.gen_range(0..n)),
        _ => {
            let mut net = OwnedNetwork::empty(n);
            for a in 1..n {
                net.buy(a, rng.gen_range(0..a));
            }
            for _ in 0..rng.gen_range(0..n) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && !net.strategy(a).contains(&b) && !net.strategy(b).contains(&a) {
                    net.buy(a, b);
                }
            }
            net
        }
    }
}

fn assert_same_br(pruned: &BestResponse, plain: &BestResponse, what: &str) {
    assert_eq!(
        pruned.cost.to_bits(),
        plain.cost.to_bits(),
        "{what}: pruned cost {} != oracle cost {}",
        pruned.cost,
        plain.cost
    );
    assert_eq!(
        pruned.strategy, plain.strategy,
        "{what}: strategies diverge"
    );
}

fn exact_sweep_model<M: CostModel>(seed_base: u64, cases: u64) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let n = rng.gen_range(4..13);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_network(&mut rng, n);
        let alpha = pick_alpha(&mut rng);
        let u = rng.gen_range(0..n);
        let eval = ResponseEvaluator::new(&ps, &net, u);
        let pruned = eval.best_response::<M>(alpha);
        let plain = oracle::best_response::<M>(&eval, alpha);
        assert_same_br(
            &pruned,
            &plain,
            &format!(
                "exact case {case} (model={:?} n={n} α={alpha} u={u})",
                M::KIND
            ),
        );
    }
}

fn exact_sweep(seed_base: u64, cases: u64) {
    for kind in models() {
        dispatch_model!(kind, M, exact_sweep_model::<M>(seed_base, cases));
    }
}

fn single_move_sweep_model<M: CostModel>(seed_base: u64, cases: u64) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let n = rng.gen_range(4..25);
        let ps = generators::uniform_unit_square(n, rng.gen());
        let net = random_network(&mut rng, n);
        let alpha = pick_alpha(&mut rng);
        let u = rng.gen_range(0..n);
        let eval = ResponseEvaluator::new(&ps, &net, u);
        let pruned = best_single_move::<M>(&eval, &net, alpha);
        let plain = oracle::best_single_move::<M>(&eval, &net, alpha);
        match (&pruned, &plain) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.cost.to_bits(),
                    b.cost.to_bits(),
                    "single-move case {case} (model={:?}): cost bits diverge ({} vs {})",
                    M::KIND,
                    a.cost,
                    b.cost
                );
                assert_eq!(a.strategy, b.strategy, "single-move case {case}");
            }
            (None, None) => {}
            _ => panic!(
                "single-move case {case} (model={:?} n={n} α={alpha} u={u}): {pruned:?} vs {plain:?}",
                M::KIND
            ),
        }
    }
}

fn single_move_sweep(seed_base: u64, cases: u64) {
    for kind in models() {
        dispatch_model!(kind, M, single_move_sweep_model::<M>(seed_base, cases));
    }
}

#[test]
fn exact_best_response_bit_identical() {
    exact_sweep(0x5eed_0001, cases());
}

#[test]
fn single_move_bit_identical() {
    single_move_sweep(0x5eed_0002, cases());
}

#[test]
fn local_search_bit_identical() {
    let cases = cases().max(8) / 4;
    for kind in models() {
        dispatch_model!(kind, M, {
            for case in 0..cases {
                let mut rng = StdRng::seed_from_u64(0x5eed_0003 + case);
                let n = rng.gen_range(4..17);
                let ps = generators::uniform_unit_square(n, rng.gen());
                let net = random_network(&mut rng, n);
                let alpha = pick_alpha(&mut rng);
                let u = rng.gen_range(0..n);
                let eval = ResponseEvaluator::new(&ps, &net, u);
                let pruned = local_search_response::<M>(&eval, &net, alpha, 2 * n);
                let plain = oracle::local_search_response::<M>(&eval, &net, alpha, 2 * n);
                assert_eq!(
                    pruned.cost.to_bits(),
                    plain.cost.to_bits(),
                    "local-search case {case} (model={kind:?} n={n} α={alpha} u={u})"
                );
                assert_eq!(pruned.strategy, plain.strategy, "local-search case {case}");
            }
        });
    }
}

#[test]
fn dynamics_trajectories_identical() {
    // whole-trajectory identity: any single diverging response or cost
    // would cascade into a different converged state / cycle / step
    // count
    let cases = cases().max(8) / 8;
    for kind in models() {
        dispatch_model!(kind, M, {
            for case in 0..cases {
                let mut rng = StdRng::seed_from_u64(0x5eed_0004 + case);
                let n = rng.gen_range(4..9);
                let ps = generators::uniform_unit_square(n, rng.gen());
                let net = random_network(&mut rng, n);
                let alpha = pick_alpha(&mut rng);
                for (rule, order) in [
                    (ResponseRule::BestResponse, AgentOrder::RoundRobin),
                    (ResponseRule::BestSingleMove, AgentOrder::MaxGain),
                    (
                        ResponseRule::BestSingleMove,
                        AgentOrder::RandomPermutation(case),
                    ),
                ] {
                    let cfg = SolverConfig::default().with_model(kind);
                    let pruned = run_spec(&ps, &net, alpha, rule, order, 200, &cfg);
                    let plain = run_ordered_reference::<_, M>(&ps, &net, alpha, rule, order, 200);
                    assert_eq!(
                        pruned, plain,
                        "dynamics case {case} (model={kind:?} n={n} α={alpha} {rule:?} {order:?})"
                    );
                }
            }
        });
    }
}

#[test]
fn bit_identity_survives_fault_injection() {
    // injected worker panics + retries must not perturb the engines:
    // prune decisions are pure per-candidate functions and the counters
    // fire after the chunk's fault point, so a retried chunk replays
    // identically
    let _g = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let before = gncg_parallel::fault::injection_probability();
    gncg_parallel::fault::set_injection_probability(0.05);
    let sweep = cases().max(16) / 4;
    exact_sweep(0x5eed_0005, sweep);
    single_move_sweep(0x5eed_0006, sweep);
    gncg_parallel::fault::set_injection_probability(before);
}

#[test]
fn degenerate_geometries_bit_identical() {
    // co-located points (zero-weight edges, massive tie-breaking) and
    // collinear points (ties between via-paths) are where a sloppy
    // bound would flip a tie — sweep them explicitly, per model (the
    // max objective maximally concentrates ties: every coincident pair
    // has the identical aggregate)
    for kind in models() {
        dispatch_model!(kind, M, {
            for case in 0..cases().max(16) / 2 {
                let mut rng = StdRng::seed_from_u64(0x5eed_0007 + case);
                let n = rng.gen_range(4..11);
                let ps = if case % 3 == 0 {
                    // collinear, evenly spaced: many exactly-tied via-paths
                    generators::line(n, 0.25)
                } else if case % 3 == 1 {
                    // every point coincident: all weights exactly zero
                    PointSet::new(vec![vec![1.0, 1.0].into(); n])
                } else {
                    let mut pts = Vec::with_capacity(n);
                    for _ in 0..n {
                        // snap to a coarse grid to force exact ties
                        let x = f64::from(rng.gen_range(0..3));
                        let y = f64::from(rng.gen_range(0..3));
                        pts.push(vec![x, y].into());
                    }
                    PointSet::new(pts)
                };
                let net = random_network(&mut rng, n);
                let alpha = pick_alpha(&mut rng);
                let u = rng.gen_range(0..n);
                let eval = ResponseEvaluator::new(&ps, &net, u);
                let pruned = eval.best_response::<M>(alpha);
                let plain = oracle::best_response::<M>(&eval, alpha);
                assert_same_br(
                    &pruned,
                    &plain,
                    &format!("degenerate case {case} (model={kind:?})"),
                );
                let mpruned = best_single_move::<M>(&eval, &net, alpha);
                let mplain = oracle::best_single_move::<M>(&eval, &net, alpha);
                assert_eq!(
                    mpruned, mplain,
                    "degenerate single-move case {case} (model={kind:?})"
                );
            }
        });
    }
}
