//! Env-gated fault injection for soaking the fault-tolerant execution
//! layer itself.
//!
//! With `GNCG_FAULT_INJECT=<p>` set (a probability in `[0, 1]`), every
//! chunk boundary of the parallel loops and every pool job pickup rolls
//! a deterministic-seedless RNG and, with probability `p`, raises an
//! *injected fault*: a real `panic!` carrying the [`InjectedFault`]
//! payload. The chunk runners catch every panic, classify the payload,
//! and
//!
//! * **absorb** injected faults by retrying the (not-yet-started) chunk,
//!   so results are bit-identical to an uninjected run, while
//! * **propagating** genuine panics through the normal
//!   record-first-payload / re-raise-at-join path.
//!
//! Running the whole test suite under `GNCG_FAULT_INJECT=0.02` therefore
//! soaks the catch/classify/recover machinery on every parallel call in
//! the workspace: any accounting bug (a lost `pending` decrement, a
//! missed notify) shows up as a hang or a wrong result, never as noise.
//!
//! Fault points are only placed where a retry cannot double side
//! effects: at the *start* of a parallel chunk (before any item ran) and
//! in the pool worker loop *before* the job closure is invoked. The
//! sequential fallback paths never inject — a mid-item unwind there
//! could be retried by an enclosing chunk runner and re-run items.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Panic payload marking an injected fault. Chunk runners absorb panics
/// carrying this payload; everything else propagates.
#[derive(Debug)]
pub struct InjectedFault;

/// Injection probability as `f64` bits; `0` (i.e. `0.0`) means disabled.
static PROBABILITY: AtomicU64 = AtomicU64::new(0);
/// Cheap process-global RNG state for the injection rolls.
static RNG: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);

fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Some(p) = gncg_config::env::fault_inject() {
            set_injection_probability(p);
        }
    });
}

/// Current injection probability (0 when disabled).
pub fn injection_probability() -> f64 {
    init_from_env();
    f64::from_bits(PROBABILITY.load(Ordering::Relaxed))
}

/// Override the injection probability at runtime (tests use this; the
/// env variable seeds it at startup). Values are clamped to `[0, 1]`.
/// Safe to flip while other threads run loops: injected faults are
/// absorbed, so concurrent callers only pay a retry.
pub fn set_injection_probability(p: f64) {
    let p = p.clamp(0.0, 1.0);
    if p > 0.0 {
        ensure_quiet_hook();
    }
    PROBABILITY.store(p.to_bits(), Ordering::Relaxed);
}

/// Is `payload` (from `catch_unwind`) an injected fault?
pub fn is_injected(payload: &(dyn Any + Send)) -> bool {
    payload.downcast_ref::<InjectedFault>().is_some()
}

thread_local! {
    /// Set while a chunk retry has given up on the injector: guarantees
    /// progress even at `GNCG_FAULT_INJECT=1`.
    static SUPPRESSED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard disabling fault injection on the current thread.
pub(crate) struct SuppressGuard {
    prev: bool,
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESSED.with(|s| s.set(self.prev));
    }
}

/// Disable injection on this thread until the guard drops. Chunk
/// runners use this after repeated injected faults on the same chunk,
/// so a retry loop always terminates.
pub(crate) fn suppress() -> SuppressGuard {
    let prev = SUPPRESSED.with(|s| s.replace(true));
    SuppressGuard { prev }
}

/// A fault point: with the configured probability, panic with an
/// [`InjectedFault`] payload. Callers must place this where an
/// unwind-and-retry cannot re-run completed side effects.
pub fn fault_point() {
    let p = injection_probability();
    if p <= 0.0 || SUPPRESSED.with(|s| s.get()) {
        return;
    }
    let roll = next_u64();
    if (roll >> 11) as f64 / (1u64 << 53) as f64 >= p {
        return;
    }
    gncg_trace::incr(gncg_trace::Counter::FaultsInjected);
    std::panic::panic_any(InjectedFault);
}

/// splitmix64 over a shared atomic state — speed and statistical
/// *roughly-p* behaviour are all that matters here.
fn next_u64() -> u64 {
    let mut x = RNG
        .fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed)
        .wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Install (once) a panic hook that stays silent for [`InjectedFault`]
/// payloads — a 2% injection rate across a full test run would
/// otherwise flood stderr with backtraces for panics that are absorbed
/// by design. All other panics go to the previously installed hook.
fn ensure_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Serializes tests that flip the process-global injection probability.
/// Concurrent loops in *other* tests tolerate injection (absorbed), but
/// assertions about the probability value itself must not interleave.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Restores the pre-test probability (which may be non-zero when
    /// the suite itself runs under `GNCG_FAULT_INJECT`).
    struct Restore(f64);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_injection_probability(self.0);
        }
    }

    #[test]
    fn disabled_injector_never_fires() {
        let _guard = test_lock();
        let _restore = Restore(injection_probability());
        set_injection_probability(0.0);
        for _ in 0..10_000 {
            fault_point(); // probability 0: must not panic
        }
    }

    #[test]
    fn full_probability_always_fires_and_classifies() {
        let _guard = test_lock();
        let _restore = Restore(injection_probability());
        set_injection_probability(1.0);
        let r = catch_unwind(AssertUnwindSafe(fault_point));
        let payload = r.expect_err("fault point at p=1 must raise");
        assert!(is_injected(&*payload));
        assert!(!is_injected(
            &Box::new("a real panic message") as &(dyn Any + Send)
        ));
    }

    #[test]
    fn suppression_masks_injection() {
        let _guard = test_lock();
        let _restore = Restore(injection_probability());
        set_injection_probability(1.0);
        {
            let _s = suppress();
            for _ in 0..100 {
                fault_point(); // suppressed: must not raise
            }
        }
        let r = catch_unwind(AssertUnwindSafe(fault_point));
        assert!(r.is_err(), "suppression must end with the guard");
    }

    #[test]
    fn probability_is_clamped() {
        let _guard = test_lock();
        let _restore = Restore(injection_probability());
        set_injection_probability(7.0);
        assert_eq!(injection_probability(), 1.0);
        set_injection_probability(-3.0);
        assert_eq!(injection_probability(), 0.0);
    }
}
