//! Response dynamics and the finite-improvement-property (FIP) study.
//!
//! Theorem 3.1: the ℝᵈ-GNCG with d ≥ 2 has no FIP — iterated best
//! responses can cycle. The paper proves this with a hand-built best
//! response cycle (Figure 2 right) whose coordinates are not printed;
//! we reproduce the claim by *searching* for cycles: run the dynamics
//! with canonical state hashing and report the first revisited state.
//!
//! One schedule driver runs every [`AgentOrder`], with cycle detection
//! and the step budget, over a response policy: unilateral formation
//! probes an [`EvalContext`] (the created network is delta-rebuilt per
//! accepted move and agent costs come from cached distance rows),
//! bilateral formation filters from-scratch responses by consent.
//! [`run_ordered_reference`] is the full reference for the unilateral
//! path: from-scratch costs and the unpruned response engines of
//! [`crate::prune::oracle`], so comparing it with [`run_spec`] checks
//! incremental evaluation and pruning together, for every cost model.

use crate::best_response::{self, ResponseEvaluator};
use crate::prune::oracle;
use crate::{
    cost, model, moves, CostModel, EdgeFormation, EdgeWeights, EvalContext, OwnedNetwork,
    SolverConfig,
};
use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;

/// Which response oracle the dynamics use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResponseRule {
    /// Exact best responses (exponential per step; n ≤ 22).
    BestResponse,
    /// Best single add/drop/swap move (polynomial) — *improving response
    /// dynamics*.
    BestSingleMove,
}

/// In which order agents are probed for improving moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgentOrder {
    /// `0, 1, …, n−1` repeatedly.
    RoundRobin,
    /// A fresh uniformly random permutation every round (seeded).
    RandomPermutation(u64),
    /// Each step activates the agent with the largest available cost
    /// improvement (the "max-gain" schedule from the dynamics
    /// literature). Expensive: evaluates every agent's move per step.
    MaxGain,
}

/// Outcome of a dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// No agent had an improving move: `state` is a Nash equilibrium
    /// w.r.t. the chosen rule, reached after `steps` strategy changes.
    Converged { state: OwnedNetwork, steps: usize },
    /// A previously seen state recurred: the segment
    /// `history[cycle_start..]` is a response cycle.
    Cycle {
        history: Vec<OwnedNetwork>,
        cycle_start: usize,
    },
    /// Step budget exhausted without convergence or a detected cycle.
    Exhausted { state: OwnedNetwork, steps: usize },
}

/// Run response dynamics from `start` under a [`crate::SolverConfig`]
/// — the cost model and edge-formation rule together
/// (`SolverConfig::default()`: sum-of-distances, unilateral).
///
/// Agents are probed in `order`; a *round* with no strategy change
/// means convergence. After every accepted change the canonical profile
/// is hashed: a repeat is returned as a [`Outcome::Cycle`].
///
/// The formation only picks the response policy the schedule driver
/// runs over:
///
/// * [`EdgeFormation::Unilateral`] probes the incremental
///   [`EvalContext`] with the pruned response engines, monomorphized
///   per model ([`run_ordered_reference`] is its oracle).
/// * [`EdgeFormation::Bilateral`] evaluates each candidate from scratch
///   and consults [`crate::model::deviation_is_legal`] before accepting
///   it — bilateral consent never touches the unilateral hot paths.
pub fn run_spec<W: EdgeWeights + ?Sized>(
    w: &W,
    start: &OwnedNetwork,
    alpha: f64,
    rule: ResponseRule,
    order: AgentOrder,
    max_steps: usize,
    cfg: &SolverConfig,
) -> Outcome {
    let _span = gncg_trace::span("game.dynamics");
    crate::dispatch_model!(cfg.model, M, {
        match cfg.formation {
            EdgeFormation::Unilateral => drive(
                Unilateral::<W, M> {
                    ctx: EvalContext::new(w, start, alpha),
                    rule,
                    model: PhantomData,
                },
                order,
                max_steps,
            ),
            EdgeFormation::Bilateral => drive(
                Bilateral::<W, M> {
                    w,
                    state: start.clone(),
                    alpha,
                    rule,
                    model: PhantomData,
                },
                order,
                max_steps,
            ),
        }
    })
}

/// What the schedule driver runs over: the profile it advances and each
/// agent's improving response in that profile.
trait Policy: Sync {
    /// The current profile.
    fn state(&self) -> &OwnedNetwork;
    /// Bring cached state up to date before a probe (or a max-gain
    /// round of parallel probes).
    fn refresh(&mut self) {}
    /// `u`'s improving response in the current profile, with its gain.
    fn respond(&self, u: usize) -> Option<(BTreeSet<usize>, f64)>;
    /// Switch `u` to `strategy`.
    fn apply(&mut self, u: usize, strategy: BTreeSet<usize>);
}

/// Unilateral formation on the incremental evaluation context.
struct Unilateral<'w, W: EdgeWeights + ?Sized, M> {
    ctx: EvalContext<'w, W>,
    rule: ResponseRule,
    model: PhantomData<fn() -> M>,
}

impl<W: EdgeWeights + ?Sized, M: CostModel> Policy for Unilateral<'_, W, M> {
    fn state(&self) -> &OwnedNetwork {
        self.ctx.network()
    }

    /// A no-op unless the previous accepted move changed the edge set;
    /// keeps the full matrix warm so leaf agents can share it.
    fn refresh(&mut self) {
        self.ctx.ensure_all_rows();
    }

    fn respond(&self, u: usize) -> Option<(BTreeSet<usize>, f64)> {
        let now = self.ctx.agent_cost_cached::<M>(u);
        response_in_ctx::<W, M>(&self.ctx, self.rule, u, now)
    }

    fn apply(&mut self, u: usize, strategy: BTreeSet<usize>) {
        self.ctx.apply_move(u, strategy);
    }
}

/// Bilateral formation: consent-filtered responses costed from scratch.
struct Bilateral<'w, W: EdgeWeights + ?Sized, M> {
    w: &'w W,
    state: OwnedNetwork,
    alpha: f64,
    rule: ResponseRule,
    model: PhantomData<fn() -> M>,
}

impl<W: EdgeWeights + ?Sized, M: CostModel> Policy for Bilateral<'_, W, M> {
    fn state(&self) -> &OwnedNetwork {
        &self.state
    }

    fn respond(&self, u: usize) -> Option<(BTreeSet<usize>, f64)> {
        bilateral_response_for::<W, M>(self.w, &self.state, self.alpha, self.rule, u)
    }

    fn apply(&mut self, u: usize, strategy: BTreeSet<usize>) {
        self.state.set_strategy(u, strategy);
    }
}

/// Fisher–Yates shuffle of `agents` from a xorshift64 stream (rand is a
/// dev-dependency only; the schedule must stay deterministic given the
/// seed anyway).
fn shuffle(agents: &mut [usize], rng_state: &mut u64) {
    for i in (1..agents.len()).rev() {
        *rng_state ^= *rng_state << 13;
        *rng_state ^= *rng_state >> 7;
        *rng_state ^= *rng_state << 17;
        let j = (*rng_state % (i as u64 + 1)) as usize;
        agents.swap(i, j);
    }
}

/// The schedule driver: activates agents in `order`, applies each
/// improving response of `policy`, stops at the first revisited profile
/// and after `max_steps` strategy changes. A round activates every
/// agent in turn, or under [`AgentOrder::MaxGain`] once the agent with
/// the largest gain; a round without a change is convergence.
fn drive<P: Policy>(mut policy: P, order: AgentOrder, max_steps: usize) -> Outcome {
    let n = policy.state().len();
    let mut seen = HashMap::from([(policy.state().canonical_key(), 0)]);
    let mut history = vec![policy.state().clone()];
    let mut rng_state = match order {
        AgentOrder::RandomPermutation(seed) => Some(seed | 1),
        _ => None,
    };
    let mut agents: Vec<usize> = (0..n).collect();
    let activations = if order == AgentOrder::MaxGain { 1 } else { n };
    let mut steps = 0usize;
    loop {
        if let Some(rng_state) = &mut rng_state {
            shuffle(&mut agents, rng_state);
        }
        let mut changed = false;
        for &u in &agents[..activations] {
            if steps >= max_steps {
                let state = policy.state().clone();
                return Outcome::Exhausted { state, steps };
            }
            policy.refresh();
            let response = if order == AgentOrder::MaxGain {
                // every agent probed in parallel against the shared state
                let shared = &policy;
                gncg_parallel::parallel_map(n, |u| shared.respond(u))
                    .into_iter()
                    .enumerate()
                    .filter_map(|(u, c)| c.map(|(s, gain)| (u, s, gain)))
                    .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(u, s, _)| (u, s))
            } else {
                policy.respond(u).map(|(s, _)| (u, s))
            };
            if let Some((u, strategy)) = response {
                policy.apply(u, strategy);
                steps += 1;
                changed = true;
                let key = policy.state().canonical_key();
                history.push(policy.state().clone());
                if let Some(&cycle_start) = seen.get(&key) {
                    return Outcome::Cycle {
                        history,
                        cycle_start,
                    };
                }
                seen.insert(key, history.len() - 1);
            }
        }
        if !changed {
            let state = policy.state().clone();
            return Outcome::Converged { state, steps };
        }
    }
}

/// Improving response of `u` in the context's current state, with `now`
/// its (already cached) current `M`-cost: the new strategy and the gain.
fn response_in_ctx<W: EdgeWeights + ?Sized, M: CostModel>(
    ctx: &EvalContext<W>,
    rule: ResponseRule,
    u: usize,
    now: f64,
) -> Option<(BTreeSet<usize>, f64)> {
    let (w, net, g, alpha) = (ctx.weights(), ctx.network(), ctx.graph(), ctx.alpha());
    // Leaf agents (degree ≤ 1) borrow the context's full-graph distance
    // matrix as their rest distances — bit-identical and APSP-free (see
    // `ResponseEvaluator::with_shared_rest`); everyone else runs the
    // usual APSP of `G − u`.
    let eval = match ctx.cached_full_matrix() {
        Some(dist) if g.degree(u) <= 1 => ResponseEvaluator::with_shared_rest(w, net, g, dist, u),
        _ => ResponseEvaluator::from_built_graph(w, net, g, u),
    };
    match rule {
        ResponseRule::BestResponse => {
            let br = eval.best_response::<M>(alpha);
            gncg_geometry::definitely_less(br.cost, now).then_some((br.strategy, now - br.cost))
        }
        ResponseRule::BestSingleMove => {
            moves::best_single_move::<M>(&eval, net, alpha).map(|m| (m.strategy, now - m.cost))
        }
    }
}

/// Best *legal* improving deviation of `u` under bilateral consent (the
/// [`Bilateral`] policy's response):
/// candidates that would create a structurally new edge without the
/// other endpoint's agreement are filtered out by
/// [`model::deviation_is_legal`] before they can be selected. Costs are
/// evaluated from scratch on the deviated profile (the consent test
/// needs full post-deviation profiles anyway, so there is nothing for
/// the incremental context to cache).
fn bilateral_response_for<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    state: &OwnedNetwork,
    alpha: f64,
    rule: ResponseRule,
    u: usize,
) -> Option<(BTreeSet<usize>, f64)> {
    let n = state.len();
    let now = cost::agent_cost::<W, M>(w, state, alpha, u);
    let mut best: Option<(BTreeSet<usize>, f64)> = None;
    let mut consider = |strategy: BTreeSet<usize>| {
        if !model::deviation_is_legal::<W, M>(
            w,
            state,
            alpha,
            u,
            &strategy,
            EdgeFormation::Bilateral,
        ) {
            return;
        }
        let mut probe = state.clone();
        probe.set_strategy(u, strategy.clone());
        let c = cost::agent_cost::<W, M>(w, &probe, alpha, u);
        let beats_current = gncg_geometry::definitely_less(c, now);
        let beats_best = match &best {
            Some((_, bc)) => c < *bc,
            None => true,
        };
        if beats_current && beats_best {
            best = Some((strategy, c));
        }
    };
    let current: BTreeSet<usize> = state.strategy(u).iter().copied().collect();
    match rule {
        ResponseRule::BestResponse => {
            assert!(
                n <= best_response::MAX_EXACT_AGENTS,
                "bilateral best-response enumeration capped at n = {}",
                best_response::MAX_EXACT_AGENTS
            );
            let others: Vec<usize> = (0..n).filter(|&v| v != u).collect();
            for mask in 0u64..(1u64 << others.len()) {
                let strategy: BTreeSet<usize> = others
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &v)| v)
                    .collect();
                consider(strategy);
            }
        }
        ResponseRule::BestSingleMove => {
            // drops (always consent-free), adds, and swaps — the same
            // candidate family as the unilateral single-move generator
            for &v in &current {
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
            for &out in &current {
                for inn in 0..n {
                    if inn != u && inn != out && !current.contains(&inn) {
                        let mut s = current.clone();
                        s.remove(&out);
                        s.insert(inn);
                        consider(s);
                    }
                }
            }
        }
    }
    best.map(|(s, c)| (s, now - c))
}

/// The reference dynamics runner under model `M`: every probe rebuilds
/// `G(s)`, recomputes the agent's cost from scratch and searches its
/// response with the unpruned engines of [`crate::prune::oracle`].
/// Behaviourally identical to [`run_spec`] with unilateral formation and
/// model `M`; retained as the property-test oracle. Do not use in new
/// code.
pub fn run_ordered_reference<W: EdgeWeights + ?Sized, M: CostModel>(
    w: &W,
    start: &OwnedNetwork,
    alpha: f64,
    rule: ResponseRule,
    order: AgentOrder,
    max_steps: usize,
) -> Outcome {
    let response_for = |state: &OwnedNetwork, u: usize| -> Option<(BTreeSet<usize>, f64)> {
        let now = cost::agent_cost::<W, M>(w, state, alpha, u);
        let eval = ResponseEvaluator::new(w, state, u);
        match rule {
            ResponseRule::BestResponse => {
                let br = oracle::best_response::<M>(&eval, alpha);
                gncg_geometry::definitely_less(br.cost, now).then_some((br.strategy, now - br.cost))
            }
            ResponseRule::BestSingleMove => oracle::best_single_move::<M>(&eval, state, alpha)
                .map(|m| (m.strategy, now - m.cost)),
        }
    };

    let n = start.len();
    let mut state = start.clone();
    let mut seen: HashMap<Vec<Vec<usize>>, usize> = HashMap::new();
    let mut history = vec![state.clone()];
    seen.insert(state.canonical_key(), 0);

    let accept = |state: &OwnedNetwork,
                  history: &mut Vec<OwnedNetwork>,
                  seen: &mut HashMap<Vec<Vec<usize>>, usize>|
     -> Option<usize> {
        let key = state.canonical_key();
        if let Some(&first) = seen.get(&key) {
            history.push(state.clone());
            return Some(first);
        }
        seen.insert(key, history.len());
        history.push(state.clone());
        None
    };

    match order {
        AgentOrder::MaxGain => {
            for steps in 0..max_steps {
                let candidates = gncg_parallel::parallel_map(n, |u| response_for(&state, u));
                let best = candidates
                    .into_iter()
                    .enumerate()
                    .filter_map(|(u, c)| c.map(|(s, gain)| (u, s, gain)))
                    .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal));
                match best {
                    None => return Outcome::Converged { state, steps },
                    Some((u, strategy, _)) => {
                        state.set_strategy(u, strategy);
                        if let Some(first) = accept(&state, &mut history, &mut seen) {
                            return Outcome::Cycle {
                                history,
                                cycle_start: first,
                            };
                        }
                    }
                }
            }
            Outcome::Exhausted {
                state,
                steps: max_steps,
            }
        }
        AgentOrder::RoundRobin | AgentOrder::RandomPermutation(_) => {
            let shuffle_seed = match order {
                AgentOrder::RandomPermutation(s) => Some(s),
                _ => None,
            };
            let mut steps = 0usize;
            let mut rng_state = shuffle_seed.unwrap_or(0) | 1;
            let mut next_u64 = move || {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            };
            let mut agent_order: Vec<usize> = (0..n).collect();
            loop {
                if shuffle_seed.is_some() {
                    for i in (1..n).rev() {
                        let j = (next_u64() % (i as u64 + 1)) as usize;
                        agent_order.swap(i, j);
                    }
                }
                let mut changed = false;
                for &u in &agent_order {
                    if steps >= max_steps {
                        return Outcome::Exhausted { state, steps };
                    }
                    if let Some((strategy, _)) = response_for(&state, u) {
                        state.set_strategy(u, strategy);
                        steps += 1;
                        changed = true;
                        if let Some(first) = accept(&state, &mut history, &mut seen) {
                            return Outcome::Cycle {
                                history,
                                cycle_start: first,
                            };
                        }
                    }
                }
                if !changed {
                    return Outcome::Converged { state, steps };
                }
            }
        }
    }
}

/// A response cycle found by [`search_for_cycle`]: the instance seed,
/// which start-state/activation-order variant produced it, and the
/// history whose tail segment `history[cycle_start..]` is the cycle.
#[derive(Debug, Clone)]
pub struct CycleWitness {
    pub seed: u64,
    pub start: &'static str,
    pub order: &'static str,
    pub history: Vec<OwnedNetwork>,
    pub cycle_start: usize,
}

impl CycleWitness {
    /// Number of strategy changes in the cycle.
    pub fn cycle_len(&self) -> usize {
        self.history.len() - 1 - self.cycle_start
    }
}

/// Search uniformly random instances in the unit square for a response
/// cycle (the empirical Theorem 3.1 witness). Returns the first cycle
/// found.
///
/// Cycles are rare in random instances, so each seed is probed under
/// four dynamics variants — start state ∈ {center star, empty} ×
/// activation order ∈ {round-robin, seed-shuffled} — instead of the
/// single star/round-robin run an earlier version used (which missed
/// every cycle in `repro_fig2`'s original seed windows).
pub fn search_for_cycle(
    n: usize,
    alpha: f64,
    rule: ResponseRule,
    seeds: std::ops::Range<u64>,
    max_steps: usize,
) -> Option<CycleWitness> {
    let cfg = SolverConfig::default();
    for seed in seeds {
        let ps = gncg_geometry::generators::uniform_unit_square(n, seed);
        let starts = [
            ("center-star", OwnedNetwork::center_star(n, 0)),
            ("empty", OwnedNetwork::empty(n)),
        ];
        for (start_name, start) in &starts {
            for (order_name, order) in [
                ("round-robin", AgentOrder::RoundRobin),
                ("shuffled", AgentOrder::RandomPermutation(seed)),
            ] {
                if let Outcome::Cycle {
                    history,
                    cycle_start,
                } = run_spec(&ps, start, alpha, rule, order, max_steps, &cfg)
                {
                    return Some(CycleWitness {
                        seed,
                        start: start_name,
                        order: order_name,
                        history,
                        cycle_start,
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GameSpec, MaxDistance, ModelKind, SumDistances};
    use gncg_geometry::generators;

    /// Default-config dynamics: sum model, unilateral.
    fn run_default<W: EdgeWeights + ?Sized>(
        w: &W,
        start: &OwnedNetwork,
        rule: ResponseRule,
        order: AgentOrder,
        max_steps: usize,
    ) -> Outcome {
        run_spec(
            w,
            start,
            1.0,
            rule,
            order,
            max_steps,
            &SolverConfig::default(),
        )
    }

    #[test]
    fn dynamics_converge_on_two_points() {
        let ps = generators::line(2, 1.0);
        let start = OwnedNetwork::empty(2);
        match run_default(
            &ps,
            &start,
            ResponseRule::BestResponse,
            AgentOrder::RoundRobin,
            100,
        ) {
            Outcome::Converged { state, .. } => {
                assert!(state.has_edge(0, 1));
                assert!(crate::exact::is_nash::<_, SumDistances>(&ps, &state, 1.0));
            }
            other => panic!("expected convergence, got {other:?}"),
        }
    }

    #[test]
    fn converged_state_is_nash_small_random() {
        for seed in 0..3u64 {
            let ps = generators::uniform_unit_square(5, seed);
            let start = OwnedNetwork::empty(5);
            match run_default(
                &ps,
                &start,
                ResponseRule::BestResponse,
                AgentOrder::RoundRobin,
                500,
            ) {
                Outcome::Converged { state, .. } => {
                    assert!(
                        crate::exact::is_nash::<_, SumDistances>(&ps, &state, 1.0),
                        "seed {seed}: converged state not Nash"
                    );
                }
                Outcome::Cycle { .. } => { /* also a legitimate outcome */ }
                Outcome::Exhausted { .. } => panic!("seed {seed}: budget too small"),
            }
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let ps = generators::uniform_unit_square(6, 3);
        let start = OwnedNetwork::empty(6);
        match run_default(
            &ps,
            &start,
            ResponseRule::BestResponse,
            AgentOrder::RoundRobin,
            1,
        ) {
            Outcome::Exhausted { steps, .. } => assert_eq!(steps, 1),
            Outcome::Converged { steps, .. } => assert!(steps <= 1),
            Outcome::Cycle { .. } => panic!("cannot cycle after one step"),
        }
    }

    #[test]
    fn single_move_dynamics_run() {
        let ps = generators::uniform_unit_square(8, 11);
        let start = OwnedNetwork::center_star(8, 0);
        let out = run_default(
            &ps,
            &start,
            ResponseRule::BestSingleMove,
            AgentOrder::RoundRobin,
            2000,
        );
        match out {
            Outcome::Converged { state, .. } => {
                let g = state.graph(&ps);
                assert!(gncg_graph::components::is_connected(&g));
            }
            Outcome::Cycle {
                history,
                cycle_start,
            } => {
                assert!(cycle_start < history.len());
                assert_eq!(
                    history[cycle_start].canonical_key(),
                    history.last().unwrap().canonical_key()
                );
            }
            Outcome::Exhausted { .. } => {}
        }
    }

    #[test]
    fn random_permutation_order_converges_to_nash() {
        let ps = generators::uniform_unit_square(5, 7);
        let start = OwnedNetwork::empty(5);
        if let Outcome::Converged { state, .. } = run_default(
            &ps,
            &start,
            ResponseRule::BestResponse,
            AgentOrder::RandomPermutation(99),
            500,
        ) {
            assert!(crate::exact::is_nash::<_, SumDistances>(&ps, &state, 1.0));
        }
    }

    #[test]
    fn max_gain_order_converges_to_nash() {
        let ps = generators::uniform_unit_square(5, 13);
        let start = OwnedNetwork::empty(5);
        match run_default(
            &ps,
            &start,
            ResponseRule::BestResponse,
            AgentOrder::MaxGain,
            500,
        ) {
            Outcome::Converged { state, .. } => {
                assert!(crate::exact::is_nash::<_, SumDistances>(&ps, &state, 1.0));
            }
            Outcome::Cycle { .. } => {}
            Outcome::Exhausted { .. } => panic!("budget too small"),
        }
    }

    #[test]
    fn shuffled_dynamics_deterministic_given_seed() {
        let ps = generators::uniform_unit_square(5, 21);
        let start = OwnedNetwork::center_star(5, 0);
        let a = run_default(
            &ps,
            &start,
            ResponseRule::BestSingleMove,
            AgentOrder::RandomPermutation(5),
            200,
        );
        let b = run_default(
            &ps,
            &start,
            ResponseRule::BestSingleMove,
            AgentOrder::RandomPermutation(5),
            200,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_matches_reference_runner() {
        for seed in 0..4u64 {
            let ps = generators::uniform_unit_square(7, 100 + seed);
            let start = OwnedNetwork::center_star(7, 0);
            for order in [
                AgentOrder::RoundRobin,
                AgentOrder::RandomPermutation(seed),
                AgentOrder::MaxGain,
            ] {
                for rule in [ResponseRule::BestSingleMove, ResponseRule::BestResponse] {
                    let fast = run_default(&ps, &start, rule, order, 300);
                    let slow = run_ordered_reference::<_, SumDistances>(
                        &ps, &start, 1.0, rule, order, 300,
                    );
                    assert_eq!(fast, slow, "seed {seed} order {order:?} rule {rule:?}");
                }
            }
        }
    }

    #[test]
    fn max_model_dynamics_converge_to_max_model_nash() {
        for seed in 0..3u64 {
            let ps = generators::uniform_unit_square(5, 600 + seed);
            let start = OwnedNetwork::empty(5);
            let cfg = SolverConfig::default().with_model(ModelKind::MaxDistance);
            match run_spec(
                &ps,
                &start,
                1.0,
                ResponseRule::BestResponse,
                AgentOrder::RoundRobin,
                500,
                &cfg,
            ) {
                Outcome::Converged { state, .. } => {
                    assert!(
                        crate::exact::is_nash::<_, MaxDistance>(&ps, &state, 1.0),
                        "seed {seed}: converged state not Nash under max-distance"
                    );
                }
                Outcome::Cycle { .. } => {}
                Outcome::Exhausted { .. } => panic!("seed {seed}: budget too small"),
            }
        }
    }

    #[test]
    fn bilateral_dynamics_converge_and_no_legal_deviation_remains() {
        for seed in 0..3u64 {
            let ps = generators::uniform_unit_square(5, 900 + seed);
            let start = OwnedNetwork::center_star(5, 0);
            let cfg = SolverConfig::from(GameSpec::bilateral(ModelKind::SumDistances));
            match run_spec(
                &ps,
                &start,
                1.0,
                ResponseRule::BestResponse,
                AgentOrder::RoundRobin,
                500,
                &cfg,
            ) {
                Outcome::Converged { state, .. } => {
                    for u in 0..5 {
                        assert!(
                            bilateral_response_for::<_, SumDistances>(
                                &ps,
                                &state,
                                1.0,
                                ResponseRule::BestResponse,
                                u
                            )
                            .is_none(),
                            "seed {seed}: agent {u} still has a legal improving deviation"
                        );
                    }
                }
                Outcome::Cycle { .. } => {}
                Outcome::Exhausted { .. } => panic!("seed {seed}: budget too small"),
            }
        }
    }

    #[test]
    fn bilateral_single_move_dynamics_run() {
        let ps = generators::uniform_unit_square(6, 41);
        let start = OwnedNetwork::center_star(6, 0);
        let out = run_spec(
            &ps,
            &start,
            1.0,
            ResponseRule::BestSingleMove,
            AgentOrder::MaxGain,
            1000,
            &SolverConfig::from(GameSpec::bilateral(ModelKind::SumDistances)),
        );
        if let Outcome::Converged { state, .. } = out {
            // unilateral drops stay legal, so a converged bilateral
            // state is still drop-stable in particular
            for u in 0..6 {
                assert!(bilateral_response_for::<_, SumDistances>(
                    &ps,
                    &state,
                    1.0,
                    ResponseRule::BestSingleMove,
                    u
                )
                .is_none());
            }
        }
    }

    #[test]
    fn history_cycle_endpoints_match_when_cycling() {
        // deterministic miniature: two co-located pairs can oscillate in
        // ownership only if a move strictly improves, so we merely check
        // the invariant on whatever outcome occurs over a seed range
        if let Some(w) = search_for_cycle(4, 1.0, ResponseRule::BestResponse, 0..20, 300) {
            assert_eq!(
                w.history[w.cycle_start].canonical_key(),
                w.history.last().unwrap().canonical_key()
            );
            assert!(w.cycle_len() >= 2);
        }
    }
}
