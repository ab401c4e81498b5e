//! The unified solver-options surface: [`SolverConfig`].
//!
//! [`SolverConfig`] is the one builder-style struct every solver entry
//! point accepts: `exact_*`, [`crate::certify::certify`],
//! [`crate::approx::certify_approx`], [`crate::dynamics::run_spec`],
//! and the service layer's `Session::submit_*` family. Each entry point
//! reads the axes it understands and ignores the rest, so one config
//! value can drive a whole experiment (dynamics → certify → exact
//! validation) without re-translation. The solver bodies read the
//! config directly; the serve tier lifts its wire [`GameSpec`] (the
//! `model × formation` pair) into one with `From`. Geometric
//! pruning is not an axis: every solver runs the pruned engines, whose
//! unpruned oracle is [`crate::prune::oracle`].
//!
//! # Defaults
//!
//! `SolverConfig::default()` is the paper's game (sum-of-distances
//! objective, unilateral edge formation), the exact evaluation backend,
//! the `GNCG_BUDGET_MS` budget (unlimited when unset), witness search
//! on, exact enumeration off. Call
//! [`SolverConfig::unbudgeted`] to pin an unlimited budget regardless
//! of the environment.

use crate::model::{EdgeFormation, GameSpec};
use crate::ModelKind;
use gncg_parallel::Budget;
use gncg_spanner::SpannerKind;

/// The pivot count of the bracketed certifier
/// ([`crate::approx::certify_approx`]): how many exact rows back its
/// distance upper bounds above [`crate::approx::EXACT_ROWS_CAP`] agents.
/// Up to the cap it reports the exact certifier's figures and reads no
/// backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalBackend {
    /// Exact evaluation; the bracketed certifier then uses 8 pivot rows.
    Exact,
    /// Approximate evaluation with certified error bars.
    Spanner {
        /// Read by no certifier: the bracketed certifier builds no
        /// spanner.
        kind: SpannerKind,
        /// Pivot rows for the distance upper bounds.
        pivots: usize,
    },
}

/// Unified options for every solver entry point — see the module docs
/// for the axes and defaults. Builder-style: start from a preset
/// ([`SolverConfig::default`], [`SolverConfig::exact`],
/// [`SolverConfig::bounds_only`]) and chain `with_*` calls.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// The per-agent objective (the paper's sum of distances by
    /// default; deliberately *not* environment-derived — binaries that
    /// honour `GNCG_MODEL` read `gncg_config::env::model` and pass it
    /// in with [`SolverConfig::with_model`]).
    pub model: ModelKind,
    /// Who must agree before an edge exists (dynamics only).
    pub formation: EdgeFormation,
    /// Exact or approximate evaluation (the bracketed certifier's pivot
    /// count above its cap; nothing else reads it).
    pub backend: EvalBackend,
    /// Budget for the *exponential* solver parts. Defaults to
    /// `GNCG_BUDGET_MS` ([`Budget::from_env`], unlimited when unset).
    pub budget: Budget,
    /// Certifier: compute exact β via exact best responses
    /// (exponential; skipped past the enumeration cap).
    pub exact_beta: bool,
    /// Certifier: compute exact γ via the exact social optimum.
    pub exact_gamma: bool,
    /// Certifier: compute the local-search instability witness.
    pub witness: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::SumDistances,
            formation: EdgeFormation::Unilateral,
            backend: EvalBackend::Exact,
            budget: Budget::from_env(),
            exact_beta: false,
            exact_gamma: false,
            witness: true,
        }
    }
}

impl SolverConfig {
    /// The default configuration (alias for `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything exact (only sensible on small instances).
    pub fn exact() -> Self {
        Self {
            exact_beta: true,
            exact_gamma: true,
            witness: true,
            ..Self::default()
        }
    }

    /// Bounds only, no witness (large instances).
    pub fn bounds_only() -> Self {
        Self {
            exact_beta: false,
            exact_gamma: false,
            witness: false,
            ..Self::default()
        }
    }

    /// Replace the cost model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Replace the edge-formation rule.
    pub fn with_formation(mut self, formation: EdgeFormation) -> Self {
        self.formation = formation;
        self
    }

    /// Replace the evaluation backend.
    pub fn with_backend(mut self, backend: EvalBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the budget by (a clone of) `budget` — the seam the job
    /// service uses to impose per-job budgets without discarding the
    /// caller's other axes.
    pub fn with_budget(mut self, budget: &Budget) -> Self {
        self.budget = budget.clone();
        self
    }

    /// Explicitly unlimited budget, overriding `GNCG_BUDGET_MS`.
    pub fn unbudgeted(mut self) -> Self {
        self.budget = Budget::unlimited();
        self
    }

    /// Toggle exact-β computation.
    pub fn with_exact_beta(mut self, on: bool) -> Self {
        self.exact_beta = on;
        self
    }

    /// Toggle exact-γ computation.
    pub fn with_exact_gamma(mut self, on: bool) -> Self {
        self.exact_gamma = on;
        self
    }

    /// Toggle witness search.
    pub fn with_witness(mut self, on: bool) -> Self {
        self.witness = on;
        self
    }
}

impl From<GameSpec> for SolverConfig {
    fn from(spec: GameSpec) -> Self {
        Self {
            model: spec.model,
            formation: spec.formation,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_game_with_bounds_and_witness() {
        let cfg = SolverConfig::default();
        assert_eq!(cfg.model, ModelKind::SumDistances);
        assert_eq!(cfg.formation, EdgeFormation::Unilateral);
        assert_eq!(cfg.backend, EvalBackend::Exact);
        assert!(!cfg.exact_beta && !cfg.exact_gamma && cfg.witness);
    }

    #[test]
    fn presets_mirror_certify_presets() {
        let e = SolverConfig::exact();
        assert!(e.exact_beta && e.exact_gamma && e.witness);
        let b = SolverConfig::bounds_only();
        assert!(!b.exact_beta && !b.exact_gamma && !b.witness);
    }

    #[test]
    fn builders_set_each_axis() {
        let budget = Budget::unlimited();
        let cfg = SolverConfig::default()
            .with_model(ModelKind::MaxDistance)
            .with_formation(EdgeFormation::Bilateral)
            .with_budget(&budget)
            .with_exact_beta(true)
            .with_exact_gamma(true)
            .with_witness(false);
        assert_eq!(cfg.model, ModelKind::MaxDistance);
        assert_eq!(cfg.formation, EdgeFormation::Bilateral);
        assert!(cfg.exact_beta && cfg.exact_gamma && !cfg.witness);
    }

    #[test]
    fn game_spec_round_trips() {
        let spec = GameSpec::bilateral(ModelKind::MaxDistance);
        let cfg = SolverConfig::from(spec);
        assert_eq!((cfg.model, cfg.formation), (spec.model, spec.formation));
    }
}
