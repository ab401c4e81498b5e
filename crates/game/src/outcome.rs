//! Graceful exact→certified degradation for the budgeted solvers.
//!
//! Exact best response and exact social optimum are NP-hard; on a long
//! unattended sweep an over-budget exact solve must not abort the run.
//! The exact solvers ([`crate::exact::exact_social_optimum`],
//! [`crate::exact::exact_beta`],
//! [`crate::best_response::exact_best_response`]) run the exponential
//! enumeration under the [`Budget`] of their [`crate::SolverConfig`]
//! (`GNCG_BUDGET_MS`, unlimited when unset) and return an [`Outcome`]:
//!
//! * [`Outcome::Exact`] — the enumeration finished inside the budget;
//!   the value is the true optimum/best response.
//! * [`Outcome::Degraded`] — the budget ran out, the instance exceeds
//!   the enumeration cap, or the solve panicked. The computation was
//!   cancelled cleanly (cooperative per-chunk polling, no thread leaks)
//!   and `certified_bound` carries the sound polynomial-time bound in
//!   the *safe* direction for that quantity: an **upper** bound for β
//!   (true β can only be smaller) and a **lower** bound for OPT's social
//!   cost and a best-response cost (the true value can only be larger,
//!   so γ ratios built on it can only shrink). A degraded number is
//!   never an over-claim.
//!
//! [`Regime`] records which of the two paths produced each figure in a
//! [`crate::certify::CertifyReport`], so downstream tables can label
//! every number with its provenance.

use gncg_parallel::{with_budget, Budget};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a budgeted solve fell back to certified bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The budget's deadline passed or its token was cancelled before
    /// the enumeration finished.
    BudgetExhausted,
    /// The instance exceeds the exact solver's enumeration cap; the
    /// exponential search was never started.
    InstanceTooLarge {
        /// Number of agents of the instance.
        n: usize,
        /// The solver's cap.
        cap: usize,
    },
    /// The solve panicked; the payload's message, for the report.
    Panicked(String),
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::BudgetExhausted => write!(f, "budget exhausted"),
            DegradeReason::InstanceTooLarge { n, cap } => {
                write!(f, "instance too large (n = {n}, exact cap = {cap})")
            }
            DegradeReason::Panicked(msg) => write!(f, "solver panicked: {msg}"),
        }
    }
}

/// Result of a budgeted solve: the exact value, or a certified sound
/// bound plus the reason the exact path was abandoned.
#[derive(Debug, Clone)]
pub enum Outcome<T> {
    /// The exact computation completed within budget.
    Exact(T),
    /// The exact computation was skipped or cancelled; `certified_bound`
    /// is the sound polynomial-time fallback (see the module docs for
    /// the bound's direction per quantity).
    Degraded {
        /// Sound certified bound standing in for the exact value.
        certified_bound: f64,
        /// Why the exact path was abandoned.
        reason: DegradeReason,
    },
}

impl<T> Outcome<T> {
    /// The exact value, panicking with the degrade reason when the solve
    /// degraded. For callers (tests, benches, small-instance tools) that
    /// require the exact answer and treat degradation as a bug.
    #[track_caller]
    pub fn expect_exact(self, what: &str) -> T {
        match self {
            Outcome::Exact(v) => v,
            Outcome::Degraded { reason, .. } => {
                panic!("{what}: exact solve degraded: {reason}")
            }
        }
    }

    /// The exact value, if the exact path completed.
    pub fn exact(self) -> Option<T> {
        match self {
            Outcome::Exact(v) => Some(v),
            Outcome::Degraded { .. } => None,
        }
    }

    /// The certified fallback bound, if degraded.
    pub fn certified_bound(&self) -> Option<f64> {
        match self {
            Outcome::Exact(_) => None,
            Outcome::Degraded {
                certified_bound, ..
            } => Some(*certified_bound),
        }
    }

    /// The degrade reason, if degraded.
    pub fn reason(&self) -> Option<&DegradeReason> {
        match self {
            Outcome::Exact(_) => None,
            Outcome::Degraded { reason, .. } => Some(reason),
        }
    }
}

/// Which path produced a reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Exponential enumeration completed: the number is exact.
    Exact,
    /// The number is a certified sound bound (exact not requested, over
    /// the cap, over budget, or panicked).
    Certified,
}

impl Regime {
    /// Stable string form for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Regime::Exact => "exact",
            Regime::Certified => "certified",
        }
    }
}

/// Render a panic payload for a [`DegradeReason::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `f` with `budget` installed as the ambient budget, classifying
/// the three failure shapes. A completed `f` under an exhausted budget
/// is still an error: the loops inside may have been cancelled partway,
/// so the (possibly partial) value cannot be trusted. The fallback
/// bound must be computed *outside* this call — the exhausted ambient
/// budget would cancel it too.
pub(crate) fn attempt<T>(budget: &Budget, f: impl FnOnce() -> T) -> Result<T, DegradeReason> {
    match catch_unwind(AssertUnwindSafe(|| with_budget(budget, f))) {
        Err(payload) => Err(DegradeReason::Panicked(panic_message(&*payload))),
        Ok(_) if budget.exhausted() => Err(DegradeReason::BudgetExhausted),
        Ok(v) => Ok(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_classifies_success() {
        let b = Budget::unlimited();
        assert_eq!(attempt(&b, || 7).unwrap(), 7);
    }

    #[test]
    fn attempt_classifies_exhaustion() {
        let b = Budget::unlimited();
        b.cancel();
        assert_eq!(attempt(&b, || 7), Err(DegradeReason::BudgetExhausted));
    }

    #[test]
    fn attempt_classifies_panic() {
        let b = Budget::unlimited();
        let r: Result<(), _> = attempt(&b, || panic!("solver blew up"));
        match r {
            Err(DegradeReason::Panicked(msg)) => assert!(msg.contains("solver blew up")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn reason_display_is_informative() {
        let r = DegradeReason::InstanceTooLarge { n: 30, cap: 22 };
        let s = r.to_string();
        assert!(s.contains("30") && s.contains("22"));
        assert_eq!(
            DegradeReason::BudgetExhausted.to_string(),
            "budget exhausted"
        );
    }

    #[test]
    fn outcome_accessors() {
        let e: Outcome<u32> = Outcome::Exact(5);
        assert_eq!(e.certified_bound(), None);
        assert_eq!(e.exact(), Some(5));
        let d: Outcome<u32> = Outcome::Degraded {
            certified_bound: 2.5,
            reason: DegradeReason::BudgetExhausted,
        };
        assert_eq!(d.certified_bound(), Some(2.5));
        assert_eq!(d.reason(), Some(&DegradeReason::BudgetExhausted));
        assert_eq!(d.exact(), None);
        assert_eq!(Regime::Exact.as_str(), "exact");
        assert_eq!(Regime::Certified.as_str(), "certified");
    }
}
