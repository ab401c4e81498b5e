//! Minimal data-parallel substrate for the GNCG workspace.
//!
//! The heavy kernels in this repository — all-pairs shortest paths, exact
//! best-response enumeration, exact social-optimum search, and the
//! benchmark parameter sweeps — are all embarrassingly parallel over an
//! index range. Rather than pulling in a full work-stealing runtime, this
//! crate provides a small, predictable substrate built on
//! `std::thread::scope` and atomics:
//!
//! * [`parallel_map`]: a self-scheduling loop over `0..n` using an
//!   atomic chunk counter (dynamic load balancing without work
//!   stealing).
//! * [`parallel_map_with`] / [`parallel_for_with`] /
//!   [`parallel_reduce_with`]: the same loops, but each worker thread
//!   owns a persistent scratch state across every chunk it claims — the
//!   backbone for reusable Dijkstra workspaces, where per-call
//!   allocation would otherwise dominate.
//! * [`parallel_reduce`]: fold-then-combine reduction — each worker folds
//!   locally, partial results are combined at the end.
//! * [`min_by_cost`]: parallel argmin used by the exact solvers.
//!
//! All entry points take the number of threads from [`num_threads`], which
//! honours the `GNCG_THREADS` environment variable so benchmarks can run
//! single-threaded ablations. Note that scratch states are per *worker
//! thread*, not per item: a run with `GNCG_THREADS=t` builds at most `t`
//! scratch states (plus one on the sequential fallback path), regardless
//! of `n`.
//!
//! # Fault tolerance
//!
//! Long unattended sweeps must degrade, not hang. The substrate's
//! failure contract:
//!
//! * **Panic isolation.** Every chunk body and every [`pool::ThreadPool`]
//!   job runs under `catch_unwind`. The first panic payload is recorded,
//!   the remaining workers stop claiming chunks, and the panic is
//!   re-raised on the *calling* thread at scope exit (resp. at
//!   [`pool::ThreadPool::wait`]). A panicking job can no longer strand
//!   `wait()` or leave a scoped loop half-famished.
//! * **Cancellation budgets.** [`with_budget`] installs a [`Budget`]
//!   (shared [`CancelToken`] + optional deadline) that every loop
//!   variant polls once per chunk — including nested loops spawned from
//!   worker threads, which inherit the ambient budget. A cancelled loop
//!   returns early with partial output; the caller checks
//!   [`Budget::exhausted`] and discards it (see `gncg-game`'s budgeted
//!   solvers for the degradation pattern). Passes that must never
//!   degrade run under [`unbudgeted`], which shields them from the
//!   ambient budget.
//! * **Fault injection.** `GNCG_FAULT_INJECT=<p>` arms [`fault`], which
//!   probabilistically raises injected panics at chunk boundaries. The
//!   chunk runners absorb those by retrying the untouched chunk, so an
//!   injected run produces bit-identical results — it soaks the
//!   catch/record/re-raise machinery itself.

pub mod arena;
pub mod budget;
pub mod fault;
pub mod pool;

pub use budget::{current_budget, unbudgeted, with_budget, Budget, CancelToken};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default chunk size for self-scheduling loops. Small enough for load
/// balance on irregular work items (Dijkstra runs vary with graph shape),
/// large enough to amortize the atomic fetch.
pub const DEFAULT_CHUNK: usize = 16;

/// Number of worker threads to use.
///
/// Reads `GNCG_THREADS` if set (a value of `1` disables parallelism, useful
/// for ablation benches), otherwise `std::thread::available_parallelism()`.
/// The value is computed once and cached: `available_parallelism()` can
/// cost near a millisecond inside containers (it walks the cgroup fs),
/// and this function sits on the hot path of every parallel kernel.
/// Consequently, changing `GNCG_THREADS` after the first call has no
/// effect within the same process.
pub fn num_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| match gncg_config::env::threads() {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

// ---------------------------------------------------------------------------
// Ambient per-region thread cap.
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread cap on how many workers a parallel region may spawn;
    /// `None` means "use [`num_threads`]". Installed by
    /// [`with_max_threads`] and re-installed inside worker threads so
    /// nested loops inherit it.
    static MAX_THREADS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// RAII guard restoring the previous ambient thread cap on drop.
pub struct MaxThreadsGuard {
    prev: Option<usize>,
}

impl Drop for MaxThreadsGuard {
    fn drop(&mut self) {
        MAX_THREADS.with(|c| c.set(self.prev));
    }
}

/// Install `limit` (at least 1) as the calling thread's ambient thread
/// cap until the guard drops. Nested caps only tighten: the effective
/// cap is the minimum of the enclosing cap and `limit`.
pub fn enter_max_threads(limit: usize) -> MaxThreadsGuard {
    let limit = limit.max(1);
    let prev = MAX_THREADS.with(|c| {
        let prev = c.get();
        c.set(Some(prev.map_or(limit, |p| p.min(limit))));
        prev
    });
    MaxThreadsGuard { prev }
}

/// The ambient thread cap of the calling thread, if one is installed.
pub fn current_max_threads() -> Option<usize> {
    MAX_THREADS.with(|c| c.get())
}

/// Run `f` with every parallel loop it reaches (including nested loops
/// inside worker threads) capped at `limit` worker threads. The results
/// are bit-identical to an uncapped run — the loops' outputs never
/// depend on the thread count — only the degree of parallelism changes.
/// The job-service `Session` uses this to stop concurrent jobs from
/// multiplying into `jobs × num_threads` threads.
pub fn with_max_threads<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    let _guard = enter_max_threads(limit);
    f()
}

/// The worker count a parallel region opening now should use:
/// [`num_threads`] clamped by the ambient cap.
fn effective_threads() -> usize {
    let t = num_threads();
    match current_max_threads() {
        Some(cap) => t.min(cap),
        None => t,
    }
}

/// First-panic slot shared by the workers of one scoped loop: records
/// the first real panic payload, flips a poison flag that makes the
/// other workers stop claiming chunks, and re-raises the payload on the
/// calling thread once every worker has joined.
pub(crate) struct PanicSlot {
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl PanicSlot {
    pub(crate) fn new() -> Self {
        Self {
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    /// Record a panic payload; only the first is kept.
    pub(crate) fn record(&self, p: Box<dyn std::any::Any + Send>) {
        self.poisoned.store(true, Ordering::SeqCst);
        let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(p);
        }
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Re-raise the recorded panic, if any. Call after all workers have
    /// joined (i.e. outside the thread scope).
    pub(crate) fn propagate(&self) {
        let payload = self
            .payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

/// How many injected-fault retries a chunk tolerates before running its
/// final attempt with injection suppressed (guaranteeing progress even
/// at `GNCG_FAULT_INJECT=1`).
const MAX_INJECT_RETRIES: u32 = 16;

/// The claim-and-run loop of one worker thread: claims chunks off
/// `counter`, wraps each chunk in `catch_unwind`, absorbs injected
/// faults by retrying the untouched chunk, records the first real panic
/// in `slot`, and stops early when the slot is poisoned or the ambient
/// budget is exhausted.
///
/// The fault point fires *before* any item of the chunk runs, so a
/// retry never re-executes side effects.
fn run_worker_chunks<F: FnMut(usize, usize)>(
    counter: &AtomicUsize,
    n: usize,
    slot: &PanicSlot,
    budget: Option<&Budget>,
    mut run_items: F,
) {
    loop {
        if budget.is_some() {
            gncg_trace::incr(gncg_trace::Counter::BudgetPolls);
        }
        if slot.is_poisoned() || budget.is_some_and(|b| b.exhausted()) {
            return;
        }
        let start = counter.fetch_add(DEFAULT_CHUNK, Ordering::Relaxed);
        if start >= n {
            return;
        }
        gncg_trace::incr(gncg_trace::Counter::ChunkClaims);
        let chunk_t0 = gncg_trace::enabled().then(std::time::Instant::now);
        let end = (start + DEFAULT_CHUNK).min(n);
        let mut injected = 0u32;
        loop {
            let suppress = (injected >= MAX_INJECT_RETRIES).then(fault::suppress);
            let result = catch_unwind(AssertUnwindSafe(|| {
                fault::fault_point();
                run_items(start, end);
            }));
            drop(suppress);
            match result {
                Ok(()) => break,
                Err(p) if fault::is_injected(&*p) => {
                    injected += 1;
                    gncg_trace::incr(gncg_trace::Counter::FaultRetries);
                }
                Err(p) => {
                    slot.record(p);
                    return;
                }
            }
        }
        if let Some(t0) = chunk_t0 {
            gncg_trace::record_chunk_ns(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// Execute `f(i)` for every `i` in `0..n`, writing results into a `Vec`.
///
/// Work is distributed dynamically in chunks of [`DEFAULT_CHUNK`]; each
/// worker grabs the next chunk with a single atomic `fetch_add`, so uneven
/// per-item cost (e.g. Dijkstra from high-degree sources) balances out.
///
/// Falls back to a sequential loop when `n` is small or only one thread is
/// available — keeping results bit-identical between the two paths.
///
/// If `f` panics, the first panic is re-raised here after all workers
/// stopped. Under a cancelled ambient [`Budget`] the loop returns early
/// with unprocessed entries left at `T::default()` — callers running
/// under a budget must check [`Budget::exhausted`] before trusting the
/// output.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, || (), move |(), i| f(i))
}

/// Like [`parallel_map`], but each worker thread gets a persistent scratch
/// state built by `init`, reused across every chunk that worker claims.
///
/// `init` runs once per worker thread (and once on the sequential
/// fallback path), so expensive scratch — a Dijkstra workspace, a strategy
/// buffer — amortizes over the whole loop instead of being rebuilt per
/// item. The scratch must not influence results (it is scratch, not
/// state): the output must equal `(0..n).map(|i| f(&mut fresh, i))`.
pub fn parallel_map_with<T, S, Init, F>(n: usize, init: Init, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = effective_threads();
    let budget = current_budget();
    if threads <= 1 || n <= DEFAULT_CHUNK {
        let mut scratch = init();
        let mut out = vec![T::default(); n];
        for (i, slot) in out.iter_mut().enumerate() {
            if i % DEFAULT_CHUNK == 0 {
                if let Some(b) = budget.as_ref() {
                    gncg_trace::incr(gncg_trace::Counter::BudgetPolls);
                    if b.exhausted() {
                        break;
                    }
                }
            }
            *slot = f(&mut scratch, i);
        }
        return out;
    }
    let mut out = vec![T::default(); n];
    {
        let counter = AtomicUsize::new(0);
        let slot = PanicSlot::new();
        let cap = current_max_threads();
        let out_slices = SliceCells::new(&mut out);
        let out_slices = &out_slices;
        let (counter, slot, budget, init, f) = (&counter, &slot, &budget, &init, &f);
        std::thread::scope(|s| {
            for _ in 0..threads.min(n.div_ceil(DEFAULT_CHUNK)) {
                s.spawn(move || {
                    let _cap = cap.map(enter_max_threads);
                    let _ambient = budget.as_ref().map(|b| budget::enter_ambient(b.clone()));
                    let _trace = gncg_trace::worker_guard();
                    let mut scratch = init();
                    run_worker_chunks(counter, n, slot, budget.as_ref(), |start, end| {
                        for i in start..end {
                            // SAFETY: each index is claimed by exactly one
                            // worker via the atomic counter; a retried
                            // chunk re-writes only its own indices.
                            unsafe { out_slices.write(i, f(&mut scratch, i)) };
                        }
                    });
                });
            }
        });
        slot.propagate();
    }
    out
}

/// Execute `f(scratch, i)` for side effects, for every `i` in `0..n`,
/// with a per-worker persistent scratch state (see
/// [`parallel_map_with`]). Panics in `f` propagate after all
/// workers stopped; a cancelled ambient [`Budget`] makes the loop return
/// early with some items never executed.
pub fn parallel_for_with<S, Init, F>(n: usize, init: Init, f: F)
where
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let threads = effective_threads();
    let budget = current_budget();
    if threads <= 1 || n <= DEFAULT_CHUNK {
        let mut scratch = init();
        for i in 0..n {
            if i % DEFAULT_CHUNK == 0 {
                if let Some(b) = budget.as_ref() {
                    gncg_trace::incr(gncg_trace::Counter::BudgetPolls);
                    if b.exhausted() {
                        return;
                    }
                }
            }
            f(&mut scratch, i);
        }
        return;
    }
    let counter = AtomicUsize::new(0);
    let slot = PanicSlot::new();
    let cap = current_max_threads();
    let (counter, slot, budget, init, f) = (&counter, &slot, &budget, &init, &f);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n.div_ceil(DEFAULT_CHUNK)) {
            s.spawn(move || {
                let _cap = cap.map(enter_max_threads);
                let _ambient = budget.as_ref().map(|b| budget::enter_ambient(b.clone()));
                let _trace = gncg_trace::worker_guard();
                let mut scratch = init();
                run_worker_chunks(counter, n, slot, budget.as_ref(), |start, end| {
                    for i in start..end {
                        f(&mut scratch, i);
                    }
                });
            });
        }
    });
    slot.propagate();
}

/// Parallel fold-then-combine reduction over `0..n`.
///
/// Each worker folds its chunks into a local accumulator created by
/// `identity`; the per-worker accumulators are combined sequentially with
/// `combine` at the end. `combine` must be associative and commutative for
/// the result to be deterministic up to floating-point reassociation.
pub fn parallel_reduce<T, Id, F, C>(n: usize, identity: Id, fold: F, combine: C) -> T
where
    T: Send,
    Id: Fn() -> T + Sync,
    F: Fn(T, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    parallel_reduce_with(n, || (), identity, move |(), acc, i| fold(acc, i), combine)
}

/// Like [`parallel_reduce`], but each worker also owns a persistent
/// scratch state (see [`parallel_map_with`]). The exact best-response
/// enumerator uses this to fold over 2^k strategy subsets with a single
/// reusable neighbour buffer per worker.
///
/// Panics in `fold` propagate after all workers stopped. Under a
/// cancelled ambient [`Budget`] the reduction covers only the chunks
/// claimed before cancellation — a *partial* fold the caller must
/// discard after checking [`Budget::exhausted`].
pub fn parallel_reduce_with<T, S, SInit, Id, F, C>(
    n: usize,
    init: SInit,
    identity: Id,
    fold: F,
    combine: C,
) -> T
where
    T: Send,
    SInit: Fn() -> S + Sync,
    Id: Fn() -> T + Sync,
    F: Fn(&mut S, T, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let threads = effective_threads();
    let budget = current_budget();
    if threads <= 1 || n <= DEFAULT_CHUNK {
        let mut scratch = init();
        let mut acc = identity();
        for i in 0..n {
            if i % DEFAULT_CHUNK == 0 {
                if let Some(b) = budget.as_ref() {
                    gncg_trace::incr(gncg_trace::Counter::BudgetPolls);
                    if b.exhausted() {
                        return acc;
                    }
                }
            }
            acc = fold(&mut scratch, acc, i);
        }
        return acc;
    }
    let counter = AtomicUsize::new(0);
    let slot = PanicSlot::new();
    let workers = threads.min(n.div_ceil(DEFAULT_CHUNK));
    let cap = current_max_threads();
    let (counter, slot, budget, init, identity, fold) =
        (&counter, &slot, &budget, &init, &identity, &fold);
    let partials: Vec<T> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let _cap = cap.map(enter_max_threads);
                    let _ambient = budget.as_ref().map(|b| budget::enter_ambient(b.clone()));
                    let _trace = gncg_trace::worker_guard();
                    let mut scratch = init();
                    // the accumulator lives in an Option so a panic that
                    // unwinds mid-fold (consuming it) leaves a recoverable
                    // state; the lost partial does not matter because the
                    // recorded panic is re-raised before combining
                    let mut acc = Some(identity());
                    run_worker_chunks(counter, n, slot, budget.as_ref(), |start, end| {
                        let mut a = acc.take().expect("accumulator present");
                        for i in start..end {
                            a = fold(&mut scratch, a, i);
                        }
                        acc = Some(a);
                    });
                    acc.unwrap_or_else(identity)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    slot.propagate();
    let mut it = partials.into_iter();
    let first = it.next().expect("at least one worker");
    it.fold(first, combine)
}

/// Parallel argmin: returns `(index, cost)` minimizing `cost(i)` over
/// `0..n`, breaking ties towards the smaller index (deterministic).
///
/// Returns `None` when `n == 0` or every cost is NaN.
pub fn min_by_cost<F>(n: usize, cost: F) -> Option<(usize, f64)>
where
    F: Fn(usize) -> f64 + Sync,
{
    let best = parallel_reduce(
        n,
        || (usize::MAX, f64::INFINITY),
        |acc, i| {
            let c = cost(i);
            if c < acc.1 || (c == acc.1 && i < acc.0) {
                (i, c)
            } else {
                acc
            }
        },
        |a, b| {
            if b.1 < a.1 || (b.1 == a.1 && b.0 < a.0) {
                b
            } else {
                a
            }
        },
    );
    if best.0 == usize::MAX {
        None
    } else {
        Some(best)
    }
}

/// Cell wrapper allowing disjoint-index writes into a slice from multiple
/// threads. Soundness is the caller's obligation: every index must be
/// written by at most one thread.
struct SliceCells<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for SliceCells<'_, T> {}
unsafe impl<T: Send> Send for SliceCells<'_, T> {}

impl<'a, T> SliceCells<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// # Safety
    /// `i < len` and no other thread writes index `i`.
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn map_matches_sequential() {
        let n = 1000;
        let par = parallel_map(n, |i| i * i);
        let seq: Vec<usize> = (0..n).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn map_empty() {
        let v: Vec<u64> = parallel_map(0, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn map_single() {
        assert_eq!(parallel_map(1, |i| i + 41), vec![41]);
    }

    /// [`parallel_for_with`] without scratch state.
    fn par_for(n: usize, f: impl Fn(usize) + Sync) {
        parallel_for_with(n, || (), |(), i| f(i));
    }

    #[test]
    fn for_counts_every_index() {
        let n = 997; // prime, not a multiple of chunk size
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn reduce_sum() {
        let n = 12345usize;
        let total = parallel_reduce(n, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(total, (n as u64 * (n as u64 - 1)) / 2);
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let total = parallel_reduce(0, || 7u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(total, 7);
    }

    #[test]
    fn min_by_cost_finds_argmin() {
        let costs: Vec<f64> = (0..500).map(|i| ((i as f64) - 250.5).abs()).collect();
        let (idx, c) = min_by_cost(costs.len(), |i| costs[i]).unwrap();
        assert_eq!(idx, 250);
        assert!((c - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_by_cost_tie_breaks_to_smaller_index() {
        let (idx, _) = min_by_cost(100, |_| 1.0).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn min_by_cost_empty() {
        assert!(min_by_cost(0, |_| 0.0).is_none());
    }

    #[test]
    fn map_with_uneven_work() {
        // Items near the end are much more expensive; dynamic scheduling
        // must still produce the exact sequential result.
        let n = 300;
        let work = |i: usize| {
            let mut acc = 0u64;
            for k in 0..(i * 50) {
                acc = acc.wrapping_add(k as u64).rotate_left(1);
            }
            acc
        };
        let par = parallel_map(n, work);
        let seq: Vec<u64> = (0..n).map(work).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn map_with_reuses_scratch_per_worker() {
        // Count init() calls: at most one per worker (+1 is impossible
        // here since the counter only increments inside init).
        let inits = AtomicUsize::new(0);
        let n = 1000;
        let out = parallel_map_with(
            n,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 64] // scratch buffer, contents irrelevant
            },
            |scratch, i| {
                scratch[0] = scratch[0].wrapping_add(1);
                i * 3
            },
        );
        assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= num_threads().max(1));
    }

    #[test]
    fn for_with_scratch_accumulates_independently() {
        let n = 500;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_with(
            n,
            || 0usize, // per-worker counter; unused in results
            |local, i| {
                *local += 1;
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reduce_with_matches_reduce() {
        let n = 4321usize;
        let plain = parallel_reduce(n, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        let with = parallel_reduce_with(
            n,
            || vec![0u64; 8],
            || 0u64,
            |scratch, acc, i| {
                scratch[i % 8] = i as u64;
                acc + i as u64
            },
            |a, b| a + b,
        );
        assert_eq!(plain, with);
    }

    // --- panic isolation ---------------------------------------------------

    #[test]
    fn map_panic_propagates_without_hanging() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(1000, |i| {
                if i == 777 {
                    panic!("map boom");
                }
                i
            })
        });
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "map boom");
    }

    #[test]
    fn for_panic_propagates_without_hanging() {
        let r = std::panic::catch_unwind(|| {
            par_for(1000, |i| {
                if i == 13 {
                    panic!("for boom");
                }
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn reduce_panic_propagates_without_hanging() {
        let r = std::panic::catch_unwind(|| {
            parallel_reduce(
                1000,
                || 0u64,
                |acc, i| {
                    if i == 999 {
                        panic!("reduce boom");
                    }
                    acc + i as u64
                },
                |a, b| a + b,
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn poisoned_loop_stops_other_workers_early() {
        // after the panic, remaining workers must stop claiming chunks:
        // far fewer than n items execute (not a strict bound, but with
        // n = 100_000 sleep-free items the gap is unambiguous)
        let executed = AtomicUsize::new(0);
        let n = 100_000;
        let r = std::panic::catch_unwind(|| {
            par_for(n, |i| {
                if i == 0 {
                    panic!("early boom");
                }
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(5));
            })
        });
        assert!(r.is_err());
        assert!(
            executed.load(Ordering::Relaxed) < n / 2,
            "workers kept claiming chunks after poison: {} of {n}",
            executed.load(Ordering::Relaxed)
        );
    }

    // --- cancellation ------------------------------------------------------

    #[test]
    fn cancelled_budget_stops_map_promptly() {
        let budget = Budget::with_limit(Duration::from_millis(40));
        let t0 = Instant::now();
        let out = with_budget(&budget, || {
            parallel_map(1_000_000, |i| {
                std::thread::sleep(Duration::from_micros(200));
                i as u64
            })
        });
        let elapsed = t0.elapsed();
        assert!(budget.exhausted());
        // promptness: budget + a small number of chunks of slack, far
        // below the ~3.5 minutes the uncancelled loop would need
        assert!(
            elapsed < Duration::from_secs(5),
            "cancelled map took {elapsed:?}"
        );
        // unprocessed entries stay at the default
        assert!(out.contains(&0));
    }

    #[test]
    fn pre_cancelled_budget_skips_all_work() {
        let budget = Budget::unlimited();
        budget.cancel();
        let ran = AtomicUsize::new(0);
        let out = with_budget(&budget, || {
            parallel_map(1000, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i + 1
            })
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn cancelled_reduce_returns_partial_fold() {
        let budget = Budget::unlimited();
        budget.cancel();
        let total = with_budget(&budget, || {
            parallel_reduce(10_000, || 0u64, |acc, i| acc + i as u64, |a, b| a + b)
        });
        assert_eq!(total, 0, "pre-cancelled reduce must fold nothing");
    }

    #[test]
    fn ambient_budget_reaches_workers_and_nested_loops() {
        let budget = Budget::unlimited();
        let seen = with_budget(&budget, || {
            parallel_map(200, |_| {
                // visible on worker threads...
                let outer = current_budget().is_some() as usize;
                // ...and inside loops nested in a worker
                let inner: usize = parallel_reduce(40, || 0usize, |acc, _| acc + 1, |a, b| a + b);
                outer + (inner == 40) as usize
            })
        });
        assert!(seen.iter().all(|&s| s == 2));
    }

    // --- fault injection ---------------------------------------------------

    #[test]
    fn injected_faults_are_absorbed_bit_identically() {
        let _guard = fault::test_lock();
        let before = fault::injection_probability();
        fault::set_injection_probability(0.5);
        let par = parallel_map(5000, |i| i as u64 * 7);
        let red = parallel_reduce(3000, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        fault::set_injection_probability(before);
        assert_eq!(par, (0..5000).map(|i| i as u64 * 7).collect::<Vec<_>>());
        assert_eq!(red, (0..3000u64).sum::<u64>());
    }

    #[test]
    fn full_injection_still_terminates() {
        let _guard = fault::test_lock();
        let before = fault::injection_probability();
        fault::set_injection_probability(1.0);
        // bounded retry + suppression guarantees progress even at p = 1
        let out = parallel_map(500, |i| i + 1);
        fault::set_injection_probability(before);
        assert_eq!(out, (1..=500).collect::<Vec<_>>());
    }

    // --- ambient thread cap ------------------------------------------------

    #[test]
    fn max_threads_nests_by_tightening() {
        assert_eq!(current_max_threads(), None);
        with_max_threads(4, || {
            assert_eq!(current_max_threads(), Some(4));
            with_max_threads(2, || assert_eq!(current_max_threads(), Some(2)));
            // a looser nested cap must not widen the enclosing one
            with_max_threads(8, || assert_eq!(current_max_threads(), Some(4)));
            assert_eq!(current_max_threads(), Some(4));
        });
        assert_eq!(current_max_threads(), None);
        // zero is clamped to one, never "unlimited"
        with_max_threads(0, || assert_eq!(current_max_threads(), Some(1)));
    }

    #[test]
    fn max_threads_reaches_workers_and_results_are_identical() {
        let uncapped = parallel_map(5000, |i| (i as u64).wrapping_mul(0x9e37));
        let capped = with_max_threads(2, || {
            parallel_map(5000, |i| {
                // the cap must be visible on worker threads so nested
                // loops inherit it
                assert_eq!(current_max_threads(), Some(2));
                (i as u64).wrapping_mul(0x9e37)
            })
        });
        assert_eq!(uncapped, capped);
    }

    #[test]
    fn max_threads_one_forces_sequential_fallback() {
        let out = with_max_threads(1, || {
            parallel_reduce(10_000, || 0u64, |acc, i| acc + i as u64, |a, b| a + b)
        });
        assert_eq!(out, (0..10_000u64).sum::<u64>());
    }
}
