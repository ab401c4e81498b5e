//! SIGTERM counting without a `libc` dependency.
//!
//! The build environment whitelists no FFI crates, so the three POSIX
//! calls the drain path needs — `signal`, `kill`, `getpid` — are
//! declared by hand. The handler body is a single relaxed atomic
//! increment, which is async-signal-safe; everything else (the drain /
//! escalate decisions) happens on a normal monitor thread polling
//! [`term_count`].
//!
//! Semantics consumed by [`crate::server::Server`]:
//! - count ≥ 1 → graceful drain (stop accepting, finish in-flight);
//! - count ≥ 2 → escalate to [`gncg_service::Shutdown::Cancel`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

const SIGTERM: i32 = 15;
/// `SIG_ERR` is `(void (*)(int)) -1` in every POSIX ABI we target.
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getpid() -> i32;
}

static TERM_COUNT: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_term(_sig: i32) {
    TERM_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Install the SIGTERM counter (idempotent; returns whether the handler
/// is installed). Call before [`crate::server::Server::bind`] in
/// binaries that want signal-driven drain; tests drive the same
/// transitions via [`crate::server::Server::begin_drain`] /
/// [`crate::server::Server::begin_cancel`] or [`raise_sigterm`].
pub fn install_sigterm_handler() -> bool {
    static INSTALLED: OnceLock<bool> = OnceLock::new();
    *INSTALLED.get_or_init(|| {
        let handler = on_term as extern "C" fn(i32) as *const () as usize;
        let prev = unsafe { signal(SIGTERM, handler) };
        prev != SIG_ERR
    })
}

/// How many SIGTERMs have arrived since the handler was installed.
pub fn term_count() -> u32 {
    TERM_COUNT.load(Ordering::Relaxed)
}

/// Send the current process a real SIGTERM (drain soak tests use this
/// to exercise the genuine kernel path). Returns `false` if the raise
/// failed.
pub fn raise_sigterm() -> bool {
    unsafe { kill(getpid(), SIGTERM) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_sigterm_increments_the_counter() {
        assert!(install_sigterm_handler(), "handler install failed");
        let before = term_count();
        assert!(raise_sigterm(), "kill(getpid(), SIGTERM) failed");
        // delivery is asynchronous; give the kernel a moment
        for _ in 0..500 {
            if term_count() > before {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("SIGTERM not observed within 500ms");
    }
}
