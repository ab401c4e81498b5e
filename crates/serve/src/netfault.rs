//! Deterministic network fault injection at frame boundaries.
//!
//! With `GNCG_NET_FAULT_INJECT=<p>` set (or [`set_probability`] called),
//! every frame the [`ServeClient`](crate::client::ServeClient) is about
//! to send rolls a deterministic splitmix64 stream and, with probability
//! `p`, suffers one of four faults *at the frame boundary*:
//!
//! - **Drop**: the frame is silently not sent (the client later times
//!   out waiting and resubmits under the same idempotency key);
//! - **Delay**: the send is delayed a few milliseconds (reorders the
//!   request against server-side timeouts);
//! - **Split**: the frame's bytes are written in two flushes with a
//!   pause between (exercises the server's stateful
//!   [`FrameReader`](gncg_json::frame::FrameReader) reassembly);
//! - **Close**: the connection is torn down instead of sending (forces
//!   the reconnect + resubmit path).
//!
//! Faults are injected only *between* frames, never inside the codec,
//! so every fault lands on a boundary the retry protocol is specified
//! to survive — mirroring how `gncg_parallel::fault` only raises where
//! a retry cannot double side effects.
//!
//! The stream is seeded process-globally ([`reseed`]) so a soak run is
//! reproducible, and per-request suppression ([`suppress`]) guarantees
//! progress: after a bounded number of faulted attempts the client
//! sends one frame fault-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One fault decision for an outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Send normally.
    None,
    /// Do not send the frame at all.
    Drop,
    /// Sleep briefly, then send.
    Delay,
    /// Send the frame in two separate writes with a pause between.
    Split,
    /// Close the connection instead of sending.
    Close,
}

/// Injection probability as `f64` bits; `0` (i.e. `0.0`) means disabled.
static PROBABILITY: AtomicU64 = AtomicU64::new(0);
/// splitmix64 state for the fault rolls.
static RNG: AtomicU64 = AtomicU64::new(0x0006_e74f_5a11);

fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Some(p) = gncg_config::env::net_fault_inject() {
            set_probability(p);
        }
    });
}

/// Current injection probability (0 when disabled).
pub fn probability() -> f64 {
    init_from_env();
    f64::from_bits(PROBABILITY.load(Ordering::Relaxed))
}

/// Override the injection probability (clamped to `[0, 1]`). Tests use
/// this; `GNCG_NET_FAULT_INJECT` seeds it at startup.
pub fn set_probability(p: f64) {
    init_from_env();
    PROBABILITY.store(p.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
}

/// Reset the fault stream to a fixed seed, making the next rolls a
/// deterministic function of call order.
pub fn reseed(seed: u64) {
    RNG.store(seed, Ordering::Relaxed);
}

thread_local! {
    /// Set while a retry loop has given up on the injector for one
    /// send: guarantees progress even at probability 1.
    static SUPPRESSED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard disabling injection on the current thread.
pub struct SuppressGuard {
    prev: bool,
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESSED.with(|s| s.set(self.prev));
    }
}

/// Disable injection on this thread until the guard drops. The client
/// engages this after its `RETRIES` (16) faulted attempts on one
/// request, so a retry loop always terminates.
pub fn suppress() -> SuppressGuard {
    let prev = SUPPRESSED.with(|s| s.replace(true));
    SuppressGuard { prev }
}

/// Roll the fault decision for one outbound frame.
pub fn roll() -> NetFault {
    let p = probability();
    if p <= 0.0 || SUPPRESSED.with(|s| s.get()) {
        return NetFault::None;
    }
    let r = next_u64();
    if (r >> 11) as f64 / (1u64 << 53) as f64 >= p {
        return NetFault::None;
    }
    match r & 3 {
        0 => NetFault::Drop,
        1 => NetFault::Delay,
        2 => NetFault::Split,
        _ => NetFault::Close,
    }
}

fn next_u64() -> u64 {
    let mut x = RNG
        .fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed)
        .wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // probability + RNG are process-global; serialize the tests
    static LOCK: Mutex<()> = Mutex::new(());

    struct Restore(f64);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_probability(self.0);
        }
    }

    #[test]
    fn disabled_never_faults() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _r = Restore(probability());
        set_probability(0.0);
        for _ in 0..10_000 {
            assert_eq!(roll(), NetFault::None);
        }
    }

    #[test]
    fn full_probability_always_faults_and_covers_all_kinds() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _r = Restore(probability());
        set_probability(1.0);
        reseed(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            let f = roll();
            assert_ne!(f, NetFault::None);
            seen.insert(format!("{f:?}"));
        }
        assert_eq!(seen.len(), 4, "all four fault kinds appear: {seen:?}");
    }

    #[test]
    fn reseeding_reproduces_the_stream() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _r = Restore(probability());
        set_probability(0.5);
        reseed(42);
        let a: Vec<NetFault> = (0..64).map(|_| roll()).collect();
        reseed(42);
        let b: Vec<NetFault> = (0..64).map(|_| roll()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn suppression_masks_and_restores() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _r = Restore(probability());
        set_probability(1.0);
        {
            let _s = suppress();
            for _ in 0..64 {
                assert_eq!(roll(), NetFault::None);
            }
        }
        assert_ne!(roll(), NetFault::None);
    }
}
