//! Cooperative cancellation and time budgets for the parallel substrate.
//!
//! Long certification sweeps chain NP-hard exact solvers with hours of
//! parallel Dijkstra work; an over-budget exact solve must *cancel
//! cleanly* instead of either aborting the sweep or running forever.
//! The substrate's contract:
//!
//! * A [`Budget`] is a shared latch (`AtomicBool` plus an optional
//!   wall-clock deadline); cloning shares it. Once observed exhausted it
//!   stays exhausted. [`with_budget`] installs it as the *ambient*
//!   budget of the calling thread; the chunk runner behind
//!   `parallel_map` and `min_by_cost` polls the ambient budget once per
//!   chunk (and re-installs it inside its worker threads, so nested
//!   parallel loops — e.g. the exact best-response enumeration running
//!   inside a per-agent map — inherit it).
//! * A cancelled loop stops claiming chunks and returns early with
//!   whatever it has: `parallel_map` leaves unprocessed entries at
//!   `T::default()`, `min_by_cost` returns the best of the items that
//!   ran. The caller is
//!   responsible for checking [`Budget::exhausted`] afterwards and
//!   discarding partial output — the budgeted solvers in `gncg-game` do
//!   exactly that and fall back to certified bounds.
//!
//! `GNCG_BUDGET_MS` (read once, like `GNCG_THREADS`) gives every
//! [`Budget::from_env`] call a fresh deadline that many milliseconds in
//! the future; unset means unlimited (a value that does not parse is an
//! error, see `gncg_config`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A work budget: a cancellation latch plus an optional wall-clock
/// deadline. Passed (by reference) to budgeted solvers; installed as the
/// ambient budget of a region via [`with_budget`].
///
/// Cloning shares the underlying state; cancelling any clone cancels all
/// of them. Deadline expiry latches the flag on first observation, so
/// after a deadline has been seen once, checks are a single atomic load.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

#[derive(Debug, Default)]
struct BudgetInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget that never expires on its own (cancel explicitly via
    /// [`Budget::cancel`]).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_limit(limit: Duration) -> Self {
        Self {
            inner: Arc::new(BudgetInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + limit),
            }),
        }
    }

    /// A budget from the `GNCG_BUDGET_MS` environment variable: a fresh
    /// deadline that many milliseconds from now, or unlimited when the
    /// variable is unset. The variable is read once per
    /// process (like `GNCG_THREADS`) through [`gncg_config::env`].
    pub fn from_env() -> Self {
        match gncg_config::env::budget_ms() {
            Some(ms) => Self::with_limit(Duration::from_millis(ms)),
            None => Self::unlimited(),
        }
    }

    /// Request cancellation of everything running under this budget.
    /// Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Cancelled, or past the deadline? Latches once true.
    pub fn exhausted(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(dl) if Instant::now() >= dl => {
                self.cancel();
                true
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Ambient budget: a per-thread stack the parallel loops poll per chunk.
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: RefCell<Vec<Budget>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard popping the ambient budget on drop.
pub(crate) struct AmbientGuard;

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `budget` as the calling thread's ambient budget.
pub(crate) fn enter_ambient(budget: Budget) -> AmbientGuard {
    AMBIENT.with(|s| s.borrow_mut().push(budget));
    AmbientGuard
}

/// The innermost ambient budget of the calling thread, if any.
pub fn current_budget() -> Option<Budget> {
    AMBIENT.with(|s| s.borrow().last().cloned())
}

/// Run `f` with `budget` installed as the ambient budget: every parallel
/// loop reached from `f` (including nested ones inside worker threads)
/// polls it once per chunk and stops claiming work once it is exhausted.
///
/// Cancellation is cooperative and *partial results are garbage*: after
/// a cancelled region, the caller must check [`Budget::exhausted`] and
/// discard the region's output (see the budgeted solvers in `gncg-game`
/// for the intended degradation pattern).
pub fn with_budget<R>(budget: &Budget, f: impl FnOnce() -> R) -> R {
    let _guard = enter_ambient(budget.clone());
    f()
}

/// Run `f` shielded from the ambient budget: every parallel loop it
/// reaches (including nested ones inside worker threads) runs every
/// item, even when an enclosing [`with_budget`] region is cancelled or
/// past its deadline.
///
/// This is the one entry point for passes documented as non-degrading —
/// those whose callers check no budget and trust the whole output (the
/// bracketed certifier, the cone spanners). Without it a parallel loop
/// under an exhausted ambient budget would leave entries at
/// `T::default()` and the pass would return a wrong answer silently.
pub fn unbudgeted<R>(f: impl FnOnce() -> R) -> R {
    with_budget(&Budget::unlimited(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budget whose deadline is `at`.
    fn due_at(at: Instant) -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(at),
            }),
        }
    }

    #[test]
    fn cancel_is_shared_and_latched() {
        let b = Budget::unlimited();
        let b2 = b.clone();
        assert!(!b.exhausted());
        b2.cancel();
        assert!(b.exhausted());
        assert!(b.exhausted());
    }

    #[test]
    fn deadline_budget_expires_and_latches() {
        let b = due_at(Instant::now() - Duration::from_millis(1));
        let b2 = b.clone();
        assert!(b.exhausted());
        assert!(b2.inner.cancelled.load(Ordering::Relaxed), "expiry latches");
        let far = due_at(Instant::now() + Duration::from_secs(3600));
        assert!(!far.exhausted());
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert!(b.inner.deadline.is_none());
        b.cancel();
        assert!(b.exhausted());
    }

    #[test]
    fn expired_budget_is_exhausted() {
        let b = Budget::with_limit(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.exhausted());
    }

    #[test]
    fn ambient_budget_nests() {
        assert!(current_budget().is_none());
        let outer = Budget::unlimited();
        with_budget(&outer, || {
            assert!(current_budget().is_some());
            let inner = Budget::with_limit(Duration::from_secs(3600));
            with_budget(&inner, || {
                assert!(current_budget().unwrap().inner.deadline.is_some());
            });
            assert!(current_budget().unwrap().inner.deadline.is_none());
        });
        assert!(current_budget().is_none());
    }

    #[test]
    fn unbudgeted_runs_every_item_under_a_cancelled_budget() {
        let dead = Budget::unlimited();
        dead.cancel();
        let (shielded, bare) = with_budget(&dead, || {
            let shielded = unbudgeted(|| crate::parallel_map(500, |i| i + 1));
            (shielded, crate::parallel_map(500, |i| i + 1))
        });
        assert_eq!(shielded, (1..=500).collect::<Vec<_>>());
        assert!(bare.iter().all(|&v| v == 0), "the bare loop must stop");
    }
}
