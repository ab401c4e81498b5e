//! Pinned bilateral-consent dynamics trajectories.
//!
//! Every run of the grid below is reduced to a digest of its
//! [`Outcome`]: the variant, the step count, the cycle start, and the
//! canonical key of every state the outcome carries. The digests pin
//! today's trajectories: a change to the schedule driver or to the
//! consent-filtered response must reproduce them bit for bit.
//!
//! Grid: `uniform_unit_square` at n ∈ {5, 6} × 3 seeds × {center star,
//! empty} starts × {round-robin, shuffled, max-gain} × {best single move,
//! plus exact best response at n = 5} × {sum, max-distance} × α ∈ {0.5, 2}.
//! From the empty profile no single bilateral move connects its agent,
//! so the single-move runs from there converge at step 0 (hence the
//! repeated n = 6 digests).

use gncg_game::dynamics::{run_spec, AgentOrder, Outcome, ResponseRule};
use gncg_game::{GameSpec, ModelKind, OwnedNetwork, SolverConfig};
use gncg_geometry::generators;

const MAX_STEPS: usize = 200;

/// What a run is pinned by: the variant, the step count (cycle start
/// for a cycle), and the canonical key of every state in the outcome.
fn words(out: &Outcome) -> Vec<u64> {
    let (tag, count, states) = match out {
        Outcome::Converged { state, steps } => (0, *steps, std::slice::from_ref(state)),
        Outcome::Cycle {
            history,
            cycle_start,
        } => (1, *cycle_start, &history[..]),
        Outcome::Exhausted { state, steps } => (2, *steps, std::slice::from_ref(state)),
    };
    let mut words = vec![tag, count as u64, states.len() as u64];
    for strategy in states.iter().flat_map(OwnedNetwork::canonical_key) {
        words.push(strategy.len() as u64);
        words.extend(strategy.iter().map(|&v| v as u64));
    }
    words
}

/// One digest per (n, seed, start, order) cell, folding every rule ×
/// model × α run of that cell in a fixed order.
fn cell_digest(n: usize, seed: u64, start: &OwnedNetwork, order: AgentOrder) -> u64 {
    let ps = generators::uniform_unit_square(n, seed);
    let rules: &[ResponseRule] = if n == 5 {
        &[ResponseRule::BestSingleMove, ResponseRule::BestResponse]
    } else {
        &[ResponseRule::BestSingleMove]
    };
    let mut words = Vec::new();
    for &rule in rules {
        for model in [ModelKind::SumDistances, ModelKind::MaxDistance] {
            let cfg = SolverConfig::from(GameSpec::bilateral(model));
            for alpha in [0.5, 2.0] {
                let out = run_spec(&ps, start, alpha, rule, order, MAX_STEPS, &cfg);
                words.extend(self::words(&out));
            }
        }
    }
    // FNV-1a over the little-endian bytes
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn bilateral_outcomes_match_pinned_digests() {
    #[rustfmt::skip]
    const PINNED: &[u64] = &[
        // one row per (n, seed), n = 5 then 6, seeds 0..3: center star
        // then empty start, each round-robin, shuffled, max-gain
        0xcb0fd7d066e654a1, 0x17a94af0eac392e5, 0x58869d3164a5cc87,
        0xcec1c5110ef62923, 0x2fbcb876e6580987, 0xf20085f15ed39b60,
        0x530bdb13b9962c24, 0xaa7a60cc7916a583, 0xaa7a60cc7916a583,
        0x80fbf8321a709762, 0xa9a50fbc9fe957a2, 0x275fe5850f834a47,
        0x4b4f125823c67e42, 0xecc522519d521e27, 0xca58cc4d62c44541,
        0x46ef4d6f5b9d5a87, 0x0af22994dd51bf03, 0xc52bc763eadf7600,
        0xf1a4cf173f2ff9a6, 0x1d0e8133143e71c6, 0x1977a780a06ee4a6,
        0x5f7f4d1212013365, 0x5f7f4d1212013365, 0x5f7f4d1212013365,
        0x90932b60fcb8160c, 0x7aed72299781b76c, 0x0007cf01d32cd048,
        0x5f7f4d1212013365, 0x5f7f4d1212013365, 0x5f7f4d1212013365,
        0xaa3811c3ca91bfaf, 0x9a4bcf6a63ba642b, 0x30e60924ec38b861,
        0x5f7f4d1212013365, 0x5f7f4d1212013365, 0x5f7f4d1212013365,
    ];
    let mut got = Vec::new();
    for n in [5usize, 6] {
        for seed in 0..3u64 {
            let starts = [OwnedNetwork::center_star(n, 0), OwnedNetwork::empty(n)];
            for start in &starts {
                for order in [
                    AgentOrder::RoundRobin,
                    AgentOrder::RandomPermutation(seed),
                    AgentOrder::MaxGain,
                ] {
                    got.push(cell_digest(n, seed, start, order));
                }
            }
        }
    }
    let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, PINNED, "digests: [{}]", hex.join(", "));
}
