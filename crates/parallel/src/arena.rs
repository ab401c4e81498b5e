//! Per-thread scratch arena: typed buffer recycling for the hot kernels.
//!
//! The evaluation kernels (CSR Dijkstra, batched move scoring, the
//! grid-candidate probe loop) historically allocated fresh `Vec`s per
//! call — cheap individually, dominant in aggregate once a dynamics run
//! makes millions of calls. [`rent`] hands out a [`Lease`] over a
//! recycled buffer from a thread-local pool; dropping the lease resets
//! the buffer (capacity retained) and returns it to the pool, so the
//! steady state performs **zero** heap allocation.
//!
//! Design constraints, in order:
//!
//! * **Bit-identity.** The arena recycles *capacity*, never contents:
//!   [`Scratch::reset`] runs on every return, and every renter
//!   re-initializes length and values exactly as the old `vec![…]`
//!   call did. No numeric path can observe whether a buffer is fresh
//!   or recycled.
//! * **Panic safety.** Return-on-drop means an unwinding worker still
//!   returns its buffers (reset first), so a poisoned job never leaks
//!   stale arena state into the next job. The fault-injection suite
//!   soaks this path.
//! * **Thread affinity.** A [`Lease`] is `!Send`: it returns to the
//!   pool of the thread that rented it. Worker threads spawned by
//!   [`crate::parallel_map_with`] each grow their own small pool that
//!   dies with the thread; the persistent main thread and the workers
//!   of a `gncg-service` `Session` reuse across calls.
//!
//! Debug tripwires (`GNCG_ARENA_DEBUG=1`, read once through
//! [`gncg_config::env::arena_debug`]): every lease carries a token
//! registered in a per-thread live set, and a return whose token is not
//! live — a double return or a return smuggled across threads via
//! unsafe code — panics instead of corrupting the pool.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A recyclable scratch value. `reset` must erase all *observable*
/// content (lengths, logical state) while retaining capacity; renters
/// must not rely on anything `reset` leaves behind except capacity.
pub trait Scratch: 'static {
    /// Clear observable contents, keeping allocated capacity.
    fn reset(&mut self);
}

impl<T: 'static> Scratch for Vec<T> {
    fn reset(&mut self) {
        self.clear();
    }
}

/// Allocation counters of one thread's arena. `fresh_allocs` stops
/// growing once every kernel's buffer set has warmed up — the
/// zero-steady-state-allocation property the test suite asserts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Rents served by constructing a brand-new value (pool miss).
    pub fresh_allocs: u64,
    /// Total rents served.
    pub rents: u64,
    /// Total leases returned.
    pub returns: u64,
    /// Leases currently outstanding on this thread.
    pub outstanding: usize,
    /// Maximum simultaneously outstanding leases ever seen (high-water).
    pub high_water: usize,
}

#[derive(Default)]
struct Pool {
    free: HashMap<TypeId, Vec<Box<dyn Any>>>,
    stats: ArenaStats,
    /// Live lease tokens, tracked only under `GNCG_ARENA_DEBUG=1`.
    live: HashSet<u64>,
    next_token: u64,
}

thread_local! {
    static ARENA: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Whether the `GNCG_ARENA_DEBUG` tripwires are armed (cached once per
/// process, like every other config read).
pub fn debug_checks() -> bool {
    static CACHED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CACHED.get_or_init(gncg_config::env::arena_debug)
}

/// An owned, recycled scratch buffer. Dereferences to `T`; on drop the
/// value is [`Scratch::reset`] and returned to the renting thread's
/// pool — including during unwinding, which is what makes arena users
/// panic-safe by construction.
pub struct Lease<T: Scratch> {
    value: Option<T>,
    token: u64,
    /// `!Send`: the lease must return to the pool it came from.
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared `&Lease<T>` only ever hands out `&T` (no interior
// mutability in the lease itself), so sharing across threads is exactly
// as safe as sharing `&T` — hence the `T: Sync` bound. The lease stays
// `!Send`: the owning thread alone can drop it, which is what routes the
// buffer back to the pool it was rented from. This is what lets scoped
// workers read one thread's rented buffer (e.g. the exact-enumeration
// fan-out over a rented rest matrix) without giving up thread affinity.
unsafe impl<T: Scratch + Sync> Sync for Lease<T> {}

impl<T: Scratch> Deref for Lease<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.value.as_ref().expect("lease value present")
    }
}

impl<T: Scratch> DerefMut for Lease<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("lease value present")
    }
}

impl<T: Scratch> Drop for Lease<T> {
    fn drop(&mut self) {
        let Some(mut value) = self.value.take() else {
            return;
        };
        value.reset();
        let token = self.token;
        // try_with: during thread teardown the pool may already be
        // gone — then the buffer simply drops, which is always sound.
        let _ = ARENA.try_with(|cell| {
            let mut pool = cell.borrow_mut();
            if debug_checks() {
                assert!(
                    pool.live.remove(&token),
                    "arena lease token {token} returned twice or to a foreign thread"
                );
            }
            pool.stats.returns += 1;
            pool.stats.outstanding = pool.stats.outstanding.saturating_sub(1);
            pool.free
                .entry(TypeId::of::<T>())
                .or_default()
                .push(Box::new(value));
        });
    }
}

/// Rent a scratch value of type `T` from the calling thread's arena:
/// a recycled (reset) instance when one is pooled, else `T::default()`.
pub fn rent<T: Scratch + Default>() -> Lease<T> {
    ARENA.with(|cell| {
        let mut pool = cell.borrow_mut();
        pool.stats.rents += 1;
        pool.stats.outstanding += 1;
        pool.stats.high_water = pool.stats.high_water.max(pool.stats.outstanding);
        let token = if debug_checks() {
            pool.next_token += 1;
            let t = pool.next_token;
            pool.live.insert(t);
            t
        } else {
            0
        };
        let recycled = pool
            .free
            .get_mut(&TypeId::of::<T>())
            .and_then(|v| v.pop())
            .map(|b| *b.downcast::<T>().expect("pool entries are type-keyed"));
        let value = match recycled {
            Some(v) => v,
            None => {
                pool.stats.fresh_allocs += 1;
                T::default()
            }
        };
        Lease {
            value: Some(value),
            token,
            _not_send: PhantomData,
        }
    })
}

/// Rent a `Vec<T>` and size it to `len` copies of `fill` — the
/// allocation-free replacement for `vec![fill; len]`. The `clear` +
/// `resize` sequence writes every element, so contents are independent
/// of the buffer's history.
pub fn rent_vec<T: Clone + 'static>(len: usize, fill: T) -> Lease<Vec<T>> {
    let mut lease = rent::<Vec<T>>();
    lease.clear();
    lease.resize(len, fill);
    lease
}

/// Counters of the calling thread's arena.
pub fn thread_stats() -> ArenaStats {
    ARENA.with(|cell| cell.borrow().stats)
}

/// Reset the calling thread's arena counters (pooled buffers are kept).
pub fn reset_thread_stats() {
    ARENA.with(|cell| cell.borrow_mut().stats = ArenaStats::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rent_reuses_capacity_and_clears_contents() {
        let cap = {
            let mut v = rent::<Vec<f64>>();
            v.extend([1.0, 2.0, 3.0]);
            v.reserve(100);
            v.capacity()
        };
        let v = rent::<Vec<f64>>();
        assert!(v.is_empty(), "recycled buffer must come back cleared");
        assert!(v.capacity() >= cap.min(100));
    }

    #[test]
    fn rent_vec_matches_vec_macro() {
        let a = rent_vec(7, f64::INFINITY);
        let b = vec![f64::INFINITY; 7];
        assert_eq!(&*a, &b);
    }

    #[test]
    fn distinct_types_do_not_mix() {
        drop(rent::<Vec<u32>>());
        let f = rent::<Vec<f64>>();
        let u = rent::<Vec<u32>>();
        assert!(f.is_empty() && u.is_empty());
    }
}
