//! Cooperative cancellation and time budgets for the parallel substrate.
//!
//! Long certification sweeps chain NP-hard exact solvers with hours of
//! parallel Dijkstra work; an over-budget exact solve must *cancel
//! cleanly* instead of either aborting the sweep or running forever.
//! The substrate's contract:
//!
//! * A [`CancelToken`] is a shared latch (`AtomicBool` plus an optional
//!   wall-clock deadline). Once observed cancelled it stays cancelled.
//! * A [`Budget`] bundles a deadline with a token. [`with_budget`]
//!   installs it as the *ambient* budget of the calling thread; every
//!   `parallel_map`/`parallel_for`/`parallel_reduce` variant polls the
//!   ambient budget once per chunk (and re-installs it inside its worker
//!   threads, so nested parallel loops — e.g. the exact best-response
//!   enumeration running inside a per-agent map — inherit it).
//! * A cancelled loop stops claiming chunks and returns early with
//!   whatever it has: `parallel_map` leaves unprocessed entries at
//!   `T::default()`, reductions return the partial fold. The caller is
//!   responsible for checking [`Budget::exhausted`] afterwards and
//!   discarding partial output — the budgeted solvers in `gncg-game` do
//!   exactly that and fall back to certified bounds.
//!
//! `GNCG_BUDGET_MS` (read once, like `GNCG_THREADS`) gives every
//! [`Budget::from_env`] call a fresh deadline that many milliseconds in
//! the future; unset or unparsable means unlimited.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation latch: an atomic flag plus an optional deadline.
///
/// Cloning shares the underlying state; cancelling any clone cancels all
/// of them. Deadline expiry latches the flag on first observation, so
/// after a deadline has been seen once, checks are a single atomic load.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally auto-cancels at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested or the deadline passed?
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(dl) = self.inner.deadline {
            if Instant::now() >= dl {
                self.inner.cancelled.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

/// A work budget: an optional wall-clock deadline plus a cancellation
/// token. Passed (by reference) to budgeted solvers; installed as the
/// ambient budget of a region via [`with_budget`].
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock instant after which the budget counts as exhausted.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with every worker polling
    /// this budget.
    pub cancel: CancelToken,
}

impl Budget {
    /// A budget that never expires on its own (cancel explicitly via
    /// [`Budget::cancel`]).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_limit(limit: Duration) -> Self {
        let deadline = Instant::now() + limit;
        Self {
            deadline: Some(deadline),
            cancel: CancelToken::with_deadline(deadline),
        }
    }

    /// A budget from the `GNCG_BUDGET_MS` environment variable: a fresh
    /// deadline that many milliseconds from now, or unlimited when the
    /// variable is unset/unparsable. The variable is read once per
    /// process (like `GNCG_THREADS`) through [`gncg_config::env`].
    pub fn from_env() -> Self {
        match gncg_config::env::budget_ms() {
            Some(ms) => Self::with_limit(Duration::from_millis(ms)),
            None => Self::unlimited(),
        }
    }

    /// Request cancellation of everything running under this budget.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Cancelled, or past the deadline? Latches once true.
    pub fn exhausted(&self) -> bool {
        if self.cancel.is_cancelled() {
            return true;
        }
        match self.deadline {
            Some(dl) if Instant::now() >= dl => {
                self.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// Time left before the deadline (`None` when unlimited; zero once
    /// exhausted).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|dl| dl.saturating_duration_since(Instant::now()))
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

    #[test]
    fn token_cancel_is_shared_and_latched() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_token_expires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert!(b.remaining().is_none());
        b.cancel();
        assert!(b.exhausted());
    }

    #[test]
    fn expired_budget_is_exhausted() {
        let b = Budget::with_limit(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.exhausted());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn ambient_budget_nests() {
        assert!(current_budget().is_none());
        let outer = Budget::unlimited();
        with_budget(&outer, || {
            assert!(current_budget().is_some());
            let inner = Budget::with_limit(Duration::from_secs(3600));
            with_budget(&inner, || {
                assert!(current_budget().unwrap().deadline.is_some());
            });
            assert!(current_budget().unwrap().deadline.is_none());
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
